//! # BayesLSH — Bayesian Locality Sensitive Hashing for Fast Similarity Search
//!
//! A complete Rust implementation of *Satuluri & Parthasarathy, VLDB 2012*:
//! Bayesian candidate pruning and similarity estimation for all-pairs
//! similarity search, together with every substrate the paper's evaluation
//! depends on (minwise hashing, signed random projections, AllPairs, an LSH
//! banding index, PPJoin+, and shape-matched synthetic datasets).
//!
//! ## Quickstart: build once, query many
//!
//! The central economy of the paper — hash each object once, then amortize
//! those signatures across candidate generation *and* Bayesian
//! verification — is embodied by the [`Searcher`](prelude::Searcher):
//! construct it once from a corpus and a config (hashing signatures and
//! building the LSH banding index a single time), then serve any mix of
//! batch joins, threshold point queries, top-k retrieval, and incremental
//! inserts.
//!
//! ```
//! use bayeslsh::prelude::*;
//!
//! // A small corpus with planted near-duplicate clusters.
//! let data = Preset::Rcv1.load(0.001, /* seed */ 7);
//!
//! // Build once: signatures + banding index. The composition picks the
//! // candidate generator × verifier; here LSH banding candidates verified
//! // by BayesLSH-Lite (prune, then exact-check).
//! let lite = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);
//! let mut searcher = Searcher::builder(PipelineConfig::cosine(0.7))
//!     .composition(lite)
//!     .build(data)
//!     .expect("valid config and corpus");
//!
//! // Batch: all pairs with cosine similarity >= 0.7.
//! let out = searcher.all_pairs().expect("composition runs");
//! let truth = ground_truth(searcher.data(), Measure::Cosine, 0.7);
//! let recall = recall_against(&truth, &out.pairs);
//! assert!(recall >= 0.9, "recall {recall}");
//!
//! // Point queries against the standing index: no corpus re-hashing.
//! let hashed_once = searcher.hash_count();
//! let q = searcher.data().vector(0).clone();
//! let hits = searcher.query(&q, 0.7).expect("in-range threshold");
//! assert!(hits.neighbors.iter().any(|&(id, _)| id == 0));
//! assert_eq!(searcher.hash_count(), hashed_once);
//!
//! // Incremental insert; the new vector is immediately findable.
//! let planted = q.clone();
//! let new_id = searcher.insert(planted).expect("fits the indexed space");
//! let hits = searcher.query(&q, 0.7).unwrap();
//! assert!(hits.neighbors.iter().any(|&(id, _)| id == new_id));
//! ```
//!
//! ### One-shot joins and the paper's names
//!
//! [`run_composition`](prelude::run_composition) runs one batch join end
//! to end, hashing and bucketing the corpus afresh on every call; its
//! output is bit-identical to a searcher's `all_pairs()`. The paper's
//! eight algorithms are points of the generator × verifier grid, listed
//! under the names its tables use by
//! [`Composition::PAPER`](prelude::Composition::PAPER):
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let cfg = PipelineConfig::cosine(0.7);
//! let (name, comp) = Composition::PAPER[5];
//! assert_eq!((name, comp.paper_name()), ("LSH+BayesLSH", Some(name)));
//! let out = run_composition(comp, &data, &cfg).expect("valid config and corpus");
//! assert!(out.total_secs >= 0.0);
//!
//! // Configs are checked before anything is hashed.
//! let bad = PipelineConfig { epsilon: 0.0, ..cfg };
//! assert!(matches!(
//!     run_composition(comp, &data, &bad),
//!     Err(SearchError::InvalidConfig { param: "epsilon", .. })
//! ));
//! ```
//!
//! Switch to [`Searcher`](prelude::Searcher) when you issue more than one
//! operation against the same corpus: it hashes and indexes once.
//!
//! ## Hash families
//!
//! Similarity spaces are first-class: a
//! [`FamilyConfig`](prelude::FamilyConfig) names the hash family — signed
//! random projections for **cosine**, minwise hashing for **Jaccard**,
//! p-stable quantized projections (E2LSH) for **L2** proximity
//! (`s = 1/(1 + d)` with bucket width `r`), and an asymmetric
//! norm-augmentation ([`MipsTransform`](prelude::MipsTransform)) that
//! reduces **maximum inner product** search to cosine — and every family
//! exposes its collision-probability curve through
//! [`HashFamily`](prelude::HashFamily), which is exactly what the banding
//! planner and the Bayesian/SPRT verifiers consume. The
//! [`SearcherBuilder`](prelude::SearcherBuilder) presets pick a family in
//! one call, and the `probes` knob turns point queries into **step-wise
//! multi-probe** queries (extra bucket lookups per band, visited in
//! best-first bit-flip order), trading a smaller index for slightly
//! costlier queries:
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let q = data.vector(0).clone();
//!
//! // Cosine with step-wise multi-probe: 3 bucket lookups per band.
//! let searcher = SearcherBuilder::cosine(0.7)
//!     .probes(3)
//!     .build(data.clone())
//!     .unwrap();
//! let out = searcher.query(&q, 0.7).unwrap();
//! assert_eq!(
//!     out.stats.bucket_probes,
//!     3 * searcher.banding_plan().params.l as u64
//! );
//!
//! // L2 proximity: E2LSH quantized projections with bucket width r = 4,
//! // thresholding the proximity s = 1 / (1 + d).
//! let searcher = SearcherBuilder::l2(0.5, 4.0).build(data.clone()).unwrap();
//! let out = searcher.query(&q, 0.5).unwrap();
//! assert!(out.neighbors.iter().any(|&(id, _)| id == 0));
//!
//! // MIPS: fit the norm-augmenting transform once; inner products then
//! // ride the cosine machinery on the augmented corpus.
//! let transform = MipsTransform::fit(&data);
//! let searcher = SearcherBuilder::mips(0.3)
//!     .build(transform.transform_corpus(&data))
//!     .unwrap();
//! let top = searcher
//!     .top_k(&transform.augment_query(&q), 3, &KnnParams::default())
//!     .unwrap();
//! assert!(!top.neighbors.is_empty());
//! ```
//!
//! ## The SPRT verifier
//!
//! Beyond the paper's eight named algorithms, a ninth composition swaps
//! the Bayesian posterior for Wald sequential probability-ratio tests
//! over the same signature pools
//! ([`VerifierKind::Sprt`](prelude::VerifierKind)). No new tuning
//! surface: the pipeline's recall knob ε becomes the SPRT's false-prune
//! bound α (every pair with similarity ≥ t survives pruning with
//! probability ≥ 1 − α), and the precision knob γ becomes the
//! false-accept bound β (a pair with similarity ≤ t − δ is accepted with
//! probability ≤ β, with δ the indifference half-width) — see
//! [`PipelineConfig::sprt`](prelude::PipelineConfig::sprt) and
//! [`SprtConfig`](prelude::SprtConfig). The verifier's early-prune
//! boundary front-loads its α budget, so junk candidates die after a
//! single hash chunk; both it and the Bayesian engines report the cost
//! as `hashes_compared` / `hashes_per_accepted_pair` in their outputs.
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let cfg = PipelineConfig::cosine(0.7);
//! // ε ↦ α (false-prune / recall), γ ↦ β (false-accept / precision).
//! assert_eq!((cfg.sprt().alpha, cfg.sprt().beta), (cfg.epsilon, cfg.gamma));
//!
//! let mut searcher = Searcher::builder(cfg)
//!     .composition(Composition::new(GeneratorKind::LshBanding, VerifierKind::Sprt))
//!     .build(data)
//!     .unwrap();
//! let out = searcher.all_pairs().expect("composition runs");
//! assert!(!out.pairs.is_empty());
//! assert!(out.hashes_per_accepted_pair > 0.0);
//! ```
//!
//! ## Parallelism & determinism
//!
//! Hashing, indexing, candidate generation, and verification all fan out
//! across worker threads; the knob is
//! [`Parallelism`](prelude::Parallelism) on
//! [`PipelineConfig`](prelude::PipelineConfig) /
//! [`SearcherBuilder`](prelude::SearcherBuilder) (`Auto` = the
//! `BAYESLSH_THREADS` environment variable or all cores, resolved once at
//! build). Output is **bit-identical to the serial path** at any thread
//! count — pairs, similarities, and candidate/prune counters — because
//! work splits into deterministic chunks whose results merge in canonical
//! order; see the README's "Parallelism & determinism" section and
//! `tests/parallel_equivalence.rs`.
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let lite = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);
//! let build = |p: Parallelism| {
//!     let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
//!         .composition(lite)
//!         .parallelism(p)
//!         .build(data.clone())
//!         .unwrap();
//!     s.all_pairs().unwrap().pairs
//! };
//! let serial = build(Parallelism::serial());
//! let parallel = build(Parallelism::threads(4));
//! assert_eq!(serial.len(), parallel.len());
//! for (a, b) in serial.iter().zip(&parallel) {
//!     assert_eq!((a.0, a.1, a.2.to_bits()), (b.0, b.1, b.2.to_bits()));
//! }
//! ```
//!
//! ## Persistence
//!
//! A built searcher is a durable artifact:
//! [`Searcher::save`](prelude::Searcher::save) writes a versioned,
//! checksummed binary snapshot of the config, signature pool, banding
//! index, and corpus, and [`Searcher::load`](prelude::Searcher::load)
//! reconstructs a searcher whose batch joins, queries, top-k, and
//! insert-then-query behaviour are **bit-identical** to the saved one —
//! so a fleet of serving workers can cold-load one offline build instead
//! of each re-hashing the corpus. Probe files cheaply with
//! [`SnapshotHeader::read`](prelude::SnapshotHeader::read); corrupt or
//! truncated input yields a typed
//! [`SnapshotError`](prelude::SnapshotError), never a panic.
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let mut built = Searcher::builder(PipelineConfig::cosine(0.7))
//!     .composition(Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite))
//!     .build(data)
//!     .unwrap();
//!
//! let mut snapshot = Vec::new();
//! built.save(&mut snapshot).unwrap();
//!
//! let header = SnapshotHeader::read(&snapshot[..]).unwrap();
//! assert_eq!(header.n_vectors as usize, built.len());
//!
//! let mut loaded = Searcher::load(&snapshot[..]).unwrap();
//! let q = built.data().vector(0).clone();
//! let (a, b) = (built.query(&q, 0.7).unwrap(), loaded.query(&q, 0.7).unwrap());
//! assert_eq!(a.neighbors.len(), b.neighbors.len());
//! for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
//!     assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
//! }
//! ```
//!
//! ## Online serving
//!
//! Every `Searcher` read path — `query`, `top_k`, `all_pairs` — takes
//! `&self`, so any number of threads can share one built index. For live
//! writes under that read traffic,
//! [`ServingSearcher`](prelude::ServingSearcher) adds an epoch model:
//! readers snapshot the published [`Epoch`](prelude::Epoch) (an `Arc`
//! clone — never blocked by the writer), while a writer stages
//! `insert`/`remove`/`compact` batches and `publish()`es them as the next
//! epoch in one atomic swap. Each epoch is bit-identical to a serial
//! application of the same write-log prefix (`tests/serving_stress.rs`
//! pins this under concurrent load), and removals follow tombstone
//! semantics: hidden from queries at the next publish, reclaimed by an
//! explicit compaction that rewrites the banding index and signature pool
//! in place — ids stay stable — after which snapshots save again.
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let searcher = Searcher::builder(PipelineConfig::cosine(0.7))
//!     .composition(Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite))
//!     .build(data)
//!     .unwrap();
//! let q = searcher.data().vector(0).clone();
//! let serving = ServingSearcher::new(searcher);
//!
//! // Readers pin an epoch; staged writes stay invisible until publish.
//! let epoch = serving.epoch();
//! serving.remove(0).unwrap();
//! assert!(epoch.searcher().query(&q, 0.7).unwrap().neighbors.iter().any(|&(id, _)| id == 0));
//!
//! let next = serving.publish();
//! assert!(next.searcher().query(&q, 0.7).unwrap().neighbors.iter().all(|&(id, _)| id != 0));
//!
//! // Reclaim tombstones (ids stay stable), then snapshots save again.
//! serving.compact();
//! let compacted = serving.publish();
//! let mut snapshot = Vec::new();
//! compacted.searcher().save(&mut snapshot).unwrap();
//! ```
//!
//! ## Sharded serving
//!
//! The snapshot format scales out: a [`ShardBuilder`](prelude::ShardBuilder)
//! partitions a corpus into N disjoint shards (a replayable
//! [`PartitionFn`](prelude::PartitionFn) recorded in a checksummed
//! [`ShardManifest`](prelude::ShardManifest)), builds each shard's searcher
//! in parallel, and saves them as independent snapshots; a
//! [`ShardedSearcher`](prelude::ShardedSearcher) then serves batch joins,
//! threshold queries, top-k, and inserts by scatter-gather — results
//! **bit-identical** to a single `Searcher` over the whole corpus at any
//! shard count × any thread budget — and `reload()` hot-swaps freshly
//! built snapshots under in-flight queries. Manifest or snapshot damage
//! surfaces as a typed [`ShardError`](prelude::ShardError), never a panic
//! or a silent mis-merge.
//!
//! ```
//! use bayeslsh::prelude::*;
//! let data = Preset::Rcv1.load(0.001, 7);
//! let dir = std::env::temp_dir().join(format!("bayeslsh-doc-shards-{}", std::process::id()));
//! let lite = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);
//! ShardBuilder::new(PipelineConfig::cosine(0.7))
//!     .composition(lite)
//!     .shards(3)
//!     .build_to_dir(&data, &dir)
//!     .unwrap();
//! let sharded = ShardedSearcher::open(&dir.join(MANIFEST_FILE)).unwrap();
//!
//! let mut single = Searcher::builder(PipelineConfig::cosine(0.7))
//!     .composition(lite)
//!     .build(data.clone())
//!     .unwrap();
//! let q = data.vector(0);
//! let (a, b) = (sharded.query(q, 0.7).unwrap(), single.query(q, 0.7).unwrap());
//! assert_eq!(a.neighbors.len(), b.neighbors.len());
//! for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
//!     assert_eq!((x.0, x.1.to_bits()), (y.0, y.1.to_bits()));
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`numeric`] | special functions, Beta/Binomial distributions, RNG |
//! | [`sparse`] | sparse vectors, exact similarities, datasets, tf-idf |
//! | [`lsh`] | hash families: minwise, signed random projections, E2LSH, MIPS |
//! | [`candgen`] | AllPairs, LSH banding index, PPJoin+ |
//! | [`core`] | BayesLSH engines, compositions, `Searcher`, pipelines |
//! | [`shard`] | shard builder, manifest, scatter-gather serving router |
//! | [`datasets`] | synthetic corpora mimicking the paper's six datasets |
//!
//! The API most users need is re-exported from [`prelude`].

pub use bayeslsh_candgen as candgen;
pub use bayeslsh_core as core;
pub use bayeslsh_datasets as datasets;
pub use bayeslsh_lsh as lsh;
pub use bayeslsh_numeric as numeric;
pub use bayeslsh_shard as shard;
pub use bayeslsh_sparse as sparse;

/// The one-import API surface.
pub mod prelude {
    pub use bayeslsh_candgen::{
        all_pairs_cosine, all_pairs_jaccard, lsh_candidates_bits, lsh_candidates_ints,
        ppjoin_binary_cosine, ppjoin_jaccard, BandingIndex, BandingParams, BandingPlan,
    };
    pub use bayeslsh_core::pipeline::ground_truth;
    pub use bayeslsh_core::sprt_verify;
    pub use bayeslsh_core::{
        bayes_verify, bayes_verify_lite, estimate_errors, mle_verify, recall_against,
        run_composition, BayesLshConfig, BbitJaccardModel, CandidateGenerator, Composition,
        CompositionOutput, ConfigDiff, CosineModel, EngineStats, Epoch, ErrorStats, FamilyModel,
        GeneratorKind, HashMode, JaccardModel, KnnParams, KnnStats, LiteConfig, MinMatchTable,
        PipelineConfig, PosteriorModel, PriorChoice, QueryOutput, QueryStats, SearchContext,
        SearchError, Searcher, SearcherBuilder, ServingSearcher, SigPool, SnapshotError,
        SnapshotHeader, SprtConfig, SprtTable, TopKOutput, Verifier, VerifierKind,
        SNAPSHOT_FORMAT_VERSION,
    };
    pub use bayeslsh_datasets::{generate, CorpusConfig, Preset};
    pub use bayeslsh_lsh::{
        bbit_collision_prob, bbit_to_jaccard, cos_to_r, e2lsh_collision, e2lsh_similarity_at,
        r_to_cos, BbitSignatures, BitSignatures, E2lshHasher, FamilyConfig, HashFamily,
        IntSignatures, Measure, MinHasher, MipsTransform, ProjSignatures, SignaturePool, SrpHasher,
    };
    pub use bayeslsh_numeric::{BetaDist, Binomial, Parallelism, Xoshiro256};
    pub use bayeslsh_shard::{
        LoadPolicy, PartitionFn, ShardBuilder, ShardError, ShardManifest, ShardedSearcher,
        MANIFEST_FILE,
    };
    pub use bayeslsh_sparse::{
        cosine, dot, jaccard, l2_similarity, overlap, Dataset, SparseVector,
    };
}
