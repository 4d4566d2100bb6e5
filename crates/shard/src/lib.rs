//! Sharded multi-index serving for the BayesLSH reproduction: one
//! offline builder, many cheap serving shards, one deterministic
//! router.
//!
//! BayesLSH verification (Satuluri & Parthasarathy, VLDB 2012) is
//! embarrassingly parallel across disjoint corpus partitions, and
//! sharding the LSH index cuts per-node memory while making
//! scatter-gather the natural query plan (cf. Bahmani et al.,
//! *Efficient Distributed LSH*). This crate is that architecture step —
//! from build-once/query-many to build-anywhere/serve-everywhere —
//! built on two existing primitives: the v1 index snapshot format and
//! the workspace's parallel-equals-serial merge discipline.
//!
//! * [`ShardBuilder`] — deterministically partitions a `Dataset` with a
//!   replayable [`PartitionFn`], builds every shard's `Searcher` in
//!   parallel (serially *inside* each shard, so snapshot bytes never
//!   depend on the building host), and writes independent v1 snapshots
//!   plus a checksummed, versioned [`ShardManifest`].
//! * [`ShardedSearcher`] — opens a manifest, loads shards eagerly or
//!   lazily ([`LoadPolicy`]), and serves `all_pairs()`, threshold
//!   `query()`, `top_k()`, and `insert()` with results bit-identical to
//!   a single `Searcher` over the unpartitioned corpus — at any shard
//!   count × any thread budget. Top-k is one call to core's
//!   `Searcher::top_k_across` over the locked shards, so the router
//!   holds no scan of its own. `reload()` hot-swaps a freshly verified
//!   generation under in-flight queries.
//! * [`ShardError`] — the typed failure vocabulary: bad magic,
//!   unsupported version, corrupt manifest, shard checksum mismatch,
//!   config-fingerprint drift, missing shard file, snapshot and search
//!   errors. Corruption is always a typed error, never a panic or a
//!   silent mis-merge.
//!
//! The equivalence contract is pinned by `tests/shard_equivalence.rs`
//! (the paper's eight compositions plus LSH × SPRT × shard counts ×
//! thread budgets, and the shards' hash counts against the single
//! index's) and a committed golden manifest fixture.

pub mod builder;
pub mod error;
pub mod manifest;
pub mod router;

pub use builder::ShardBuilder;
pub use error::ShardError;
pub use manifest::{
    config_fingerprint, PartitionFn, ShardEntry, ShardManifest, MANIFEST_FILE,
    MANIFEST_FORMAT_VERSION, MANIFEST_MAGIC,
};
pub use router::{Generation, LoadPolicy, ShardedSearcher};
