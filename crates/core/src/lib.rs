//! BayesLSH and BayesLSH-Lite: Bayesian candidate pruning and similarity
//! estimation for all-pairs similarity search.
//!
//! This crate implements the primary contribution of *Satuluri &
//! Parthasarathy, "Bayesian Locality Sensitive Hashing for Fast Similarity
//! Search", VLDB 2012*:
//!
//! * [`posterior`] — the inference interface: given that `m` of the first
//!   `n` hashes of a candidate pair matched, compute the pruning
//!   probability `Pr[S ≥ t | M(m,n)]` (paper Eq. 3), the MAP similarity
//!   estimate (Eq. 4) and its concentration probability (Eq. 6).
//! * [`jaccard_model`] / [`cosine_model`] — the paper's two instantiations:
//!   a conjugate Beta prior for Jaccard (Section 4.1, including the
//!   method-of-moments prior fit) and a uniform-on-`[0.5, 1]` prior over
//!   the collision similarity `r` for cosine (Section 4.2).
//! * [`minmatch`] / [`cache`] — the Section 4.3 optimizations: precomputed
//!   `minMatches(n)` tables and an `(m, n)`-indexed concentration cache.
//! * [`engine`] — the one verification loop: a chunk-scan driver that runs
//!   Algorithms 1 (BayesLSH) and 2 (BayesLSH-Lite), the fixed-`n` MLE, SPRT
//!   and exact verification as decision rules, with the pruning statistics
//!   behind the paper's Figure 4.
//! * [`estimator`] — the classical fixed-`n` maximum-likelihood estimator
//!   ("LSH Approx", Section 3), the baseline BayesLSH is measured against.
//! * [`compose`] — the composable layer: [`compose::CandidateGenerator`] ×
//!   [`compose::Verifier`] trait objects whose grid the paper's eight
//!   algorithms are points of ([`Composition::PAPER`] names them), and
//!   [`run_composition`], the one-shot batch join over any point; each
//!   [`VerifierKind`] verifies by handing its decision rule to the scan
//!   driver.
//! * [`searcher`] — the build-once/query-many API: a [`Searcher`] hashes
//!   and indexes a corpus once, then serves batch joins, threshold point
//!   queries, Bayesian-pruned top-k, and incremental inserts.
//! * [`persist`] — versioned binary index snapshots:
//!   [`Searcher::save`]/[`Searcher::load`] make the built searcher a
//!   durable artifact (the loaded searcher is bit-identical in behaviour),
//!   with [`SnapshotHeader`] probing and typed [`SnapshotError`]s.
//! * [`pipeline`] — [`PipelineConfig`], the paper's parameters with
//!   their range checks, and the exact [`pipeline::ground_truth`].
//! * [`metrics`] — recall and estimation-error reports (Tables 3–5).
//!
//! Extensions beyond the paper (built per its own Section 4 recipe):
//!
//! * [`bbit_model`] — BayesLSH over **b-bit minwise hashes** (Li & König,
//!   the paper's reference \[15\]): a truncated posterior over the collision
//!   probability `u = 2⁻ᵇ + (1 − 2⁻ᵇ)·J`.
//! * [`sprt`] — an **adaptive SPRT verifier** (Wald sequential hypothesis
//!   tests over the same agreement streams, after Chakrabarti &
//!   Parthasarathy): per-chunk early-accept/early-prune integer boundaries
//!   replace the fixed concentration schedule, with a bounded exact
//!   fallback at the hash cap.

//! ## Parallelism & determinism
//!
//! Every pipeline stage — signature hashing, banding-index construction,
//! candidate generation, and verification — can fan out across worker
//! threads (built on `std::thread::scope`). The knob is
//! [`pipeline::PipelineConfig::parallelism`] /
//! [`searcher::SearcherBuilder::parallelism`]; `Parallelism::Auto` (the
//! default) resolves to the `BAYESLSH_THREADS` environment variable or the
//! available cores, and `Parallelism::serial()` is the exact serial path.
//! Verification makes the serial/parallel choice once per front (batch
//! join, threshold query): one thread runs the [`engine`] scan driver
//! serially, deepening signatures lazily; more threads extend the
//! candidates' signatures to the scan depth and run the same driver on
//! contiguous chunks of the candidates ([`parallel`]), each worker with its
//! own copy of the decision rule. Whatever the thread count, batch and
//! query output is **bit-identical to serial**: every worker computes a
//! pure function of its chunk and results merge in canonical order
//! (`tests/parallel_equivalence.rs` pins this down for every named
//! composition, the paper's eight plus the SPRT verifier). The only
//! observable deltas are wall-clock time, per-worker concentration-cache
//! hit/miss splits, and — under [`searcher::HashMode::Lazy`] — candidate
//! signatures being pre-extended to the verifier's scan depth before a
//! parallel verification.

pub mod bbit_model;
pub mod cache;
pub mod compose;
pub mod config;
pub mod cosine_model;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod family_model;
pub mod jaccard_model;
pub mod metrics;
pub mod minmatch;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod posterior;
pub mod searcher;
pub mod serving;
pub mod sprt;

pub use bayeslsh_lsh::{FamilyConfig, HashFamily, Measure};
pub use bayeslsh_numeric::Parallelism;
pub use bbit_model::BbitJaccardModel;
pub use cache::ConcentrationCache;
pub use compose::{
    run_composition, CandidateGenerator, Composition, CompositionOutput, GeneratorKind,
    SearchContext, SigPool, Verifier, VerifierKind,
};
pub use config::{BayesLshConfig, LiteConfig, SprtConfig};
pub use cosine_model::CosineModel;
pub use engine::{bayes_verify, bayes_verify_lite, sprt_verify, EngineStats};
pub use error::{ConfigDiff, SearchError};
pub use estimator::mle_verify;
pub use family_model::FamilyModel;
pub use jaccard_model::JaccardModel;
pub use metrics::{estimate_errors, recall_against, ErrorStats};
pub use minmatch::{MinMatchCache, MinMatchTable};
pub use parallel::candidate_ids;
pub use persist::{SnapshotError, SnapshotHeader, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
pub use pipeline::{PipelineConfig, PriorChoice};
pub use posterior::PosteriorModel;
pub use searcher::{
    merge_query_outputs, HashMode, KnnParams, KnnStats, QueryOutput, QueryStats, Searcher,
    SearcherBuilder, TopKOutput,
};
pub use serving::{Epoch, ServingSearcher};
pub use sprt::SprtTable;
