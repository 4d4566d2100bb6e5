//! The offline shard builder: one corpus in, N independent snapshots
//! plus a manifest out.

use std::path::Path;

use bayeslsh_core::{
    Composition, GeneratorKind, HashMode, PipelineConfig, Searcher, SearcherBuilder, VerifierKind,
};
use bayeslsh_numeric::{fan_out, fnv1a_checksum, Parallelism};
use bayeslsh_sparse::Dataset;

use crate::error::ShardError;
use crate::manifest::{
    config_fingerprint, PartitionFn, ShardEntry, ShardManifest, MANIFEST_FILE,
    MANIFEST_FORMAT_VERSION,
};

/// Builds a sharded index set: deterministically partitions a
/// [`Dataset`], builds each shard's [`Searcher`] in parallel, and saves
/// them as independent v1 snapshots plus a checksummed
/// [`ShardManifest`].
///
/// Mirrors [`SearcherBuilder`]'s knobs (composition, hash mode,
/// parallelism) and adds the sharding ones (shard count,
/// partition policy). Two determinism guarantees:
///
/// * **Partitioning is replayable**: the [`PartitionFn`] and its seed
///   go into the manifest, so any router reconstructs the exact
///   global-id ↔ (shard, local-id) correspondence.
/// * **Snapshot bytes are host-independent**: each shard's searcher is
///   built with `Parallelism::serial()` *inside* the cross-shard
///   fan-out, so the bytes on disk never depend on the building
///   machine's thread count (the builder's parallelism budget governs
///   only how many shards build concurrently). Routers re-resolve their
///   own budget at load time; results are bit-identical either way.
#[derive(Debug, Clone)]
pub struct ShardBuilder {
    cfg: PipelineConfig,
    composition: Composition,
    mode: HashMode,
    n_shards: usize,
    partition: PartitionFn,
}

impl ShardBuilder {
    /// A builder with the given pipeline configuration, defaulting to
    /// the paper's flagship composition (LSH banding × BayesLSH), eager
    /// hashing, one shard, and round-robin partitioning.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            composition: Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes),
            mode: HashMode::Eager,
            n_shards: 1,
            partition: PartitionFn::RoundRobin,
        }
    }

    /// Use a generator × verifier composition: one of the paper's eight
    /// (`Composition::PAPER`) or an off-grid one.
    pub fn composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Choose when corpus signatures are hashed (default eager).
    pub fn hash_mode(mut self, mode: HashMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the cross-shard build budget (default [`Parallelism::Auto`]).
    /// Governs how many shards build concurrently — never the bytes
    /// produced.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Number of shards to split the corpus into (default 1).
    ///
    /// # Panics
    ///
    /// When `n` is zero.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        self.n_shards = n;
        self
    }

    /// The global-id → shard assignment policy (default round-robin).
    pub fn partition(mut self, partition: PartitionFn) -> Self {
        self.partition = partition;
        self
    }

    /// Partition `data`, build every shard, and write
    /// `shard_NNNN.snap` files plus [`MANIFEST_FILE`] into `dir`
    /// (created if missing). Returns the manifest that was written.
    ///
    /// # Errors
    ///
    /// [`ShardError::Search`] for invalid configurations or non-binary
    /// data under binary-only compositions (exactly as
    /// [`SearcherBuilder::build`] would fail), [`ShardError::Io`] for
    /// filesystem failures.
    pub fn build_to_dir(&self, data: &Dataset, dir: &Path) -> Result<ShardManifest, ShardError> {
        std::fs::create_dir_all(dir).map_err(ShardError::Io)?;
        let parts = data.partition(self.n_shards, |id| {
            self.partition.shard_of(id, self.n_shards)
        });
        let threads = self.cfg.parallelism.resolve();

        // Build shards concurrently, each serially inside, so snapshot
        // bytes are a pure function of (corpus, config, partition).
        let built: Vec<Result<Searcher, ShardError>> =
            fan_out(self.n_shards, threads, |_, range| {
                range
                    .map(|s| {
                        SearcherBuilder::new(self.cfg)
                            .composition(self.composition)
                            .hash_mode(self.mode)
                            .parallelism(Parallelism::serial())
                            .build(parts[s].clone())
                            .map_err(ShardError::Search)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        let mut shards = Vec::with_capacity(self.n_shards);
        for (s, built) in built.into_iter().enumerate() {
            let searcher = built?;
            let mut bytes = Vec::new();
            searcher.save(&mut bytes).map_err(ShardError::Io)?;
            let file = format!("shard_{s:04}.snap");
            std::fs::write(dir.join(&file), &bytes).map_err(ShardError::Io)?;
            shards.push(ShardEntry {
                file,
                n_vectors: searcher.len() as u64,
                checksum: fnv1a_checksum(&bytes),
            });
        }

        let manifest = ShardManifest {
            format_version: MANIFEST_FORMAT_VERSION,
            partition: self.partition,
            n_total: data.len() as u64,
            dim: data.dim(),
            config_fingerprint: config_fingerprint(&self.cfg, self.composition, self.mode),
            shards,
        };
        manifest.save(&dir.join(MANIFEST_FILE))?;
        Ok(manifest)
    }
}
