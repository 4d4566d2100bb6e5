//! The build-once/query-many search API.
//!
//! [`Searcher`] owns a corpus together with everything the paper's economy
//! argument says should be paid for once: the signature pool and the LSH
//! banding index. Construction (via [`SearcherBuilder`]) hashes and
//! indexes a single time; afterwards the searcher serves any mix of
//!
//! * [`Searcher::all_pairs`] — the paper's batch join, through the
//!   configured [`Composition`];
//! * [`Searcher::query`] — threshold point queries for one vector;
//! * [`Searcher::top_k`] — k-nearest-neighbour retrieval with Bayesian
//!   candidate pruning against the rising k-th-best similarity (the
//!   paper's future-work item);
//! * [`Searcher::insert`] — incremental corpus growth, extending the
//!   signature pool and banding index in place.
//!
//! Under the default [`HashMode::Eager`], every corpus signature is hashed
//! to the verifier's maximum depth at build (and insert) time, so queries
//! never touch the pool — repeated queries cost zero corpus hashing.
//! [`HashMode::Lazy`] keeps the paper's lazy-extension economy instead:
//! build hashes only to banding depth, and verification deepens exactly
//! the signatures that surviving candidates demand (amortized across
//! queries — a signature is never re-hashed).
//!
//! Builds, batch joins, point queries, and inserts all fan out across the
//! worker budget set by [`SearcherBuilder::parallelism`] (resolved once at
//! build; see [`Searcher::threads`]). Output is bit-identical to the
//! serial path at any thread count. Two cost caveats: under
//! [`HashMode::Lazy`] a parallel verification pre-extends candidate
//! signatures to the verifier's scan depth (eager builds already pay it),
//! and [`Searcher::top_k`]'s rising-threshold prune runs sequentially by
//! design while its hashing/probing phases parallelize.
//!
//! [`Searcher::top_k_across`] runs the same top-k scan over a corpus split
//! across several searchers of one build, bit-identical to one searcher
//! over the whole corpus; the shard router's scatter-gather top-k is that
//! one call.
//!
//! ## Concurrent reads
//!
//! [`Searcher::query`], [`Searcher::top_k`], and [`Searcher::all_pairs`]
//! take `&self`, so a `Searcher` behind an `Arc` serves many reader
//! threads at once. The signature pool sits behind an internal `RwLock`:
//! when the pool already covers a request (always, under the default
//! [`HashMode::Eager`]), queries run entirely under a shared read lock —
//! readers never block each other. Under [`HashMode::Lazy`] a query that
//! must deepen signatures upgrades to the write lock for that call, and
//! results are bit-identical either way (signature bits are a pure
//! function of object and position, so the interleaving of lazily
//! deepening readers cannot change any outcome). Mutation —
//! [`Searcher::insert`], [`Searcher::remove`], [`Searcher::compact`] —
//! still requires `&mut self`; see [`crate::serving::ServingSearcher`]
//! for serving reads concurrently with a writer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use bayeslsh_candgen::{BandingIndex, BandingPlan};
use bayeslsh_lsh::{Measure, SignaturePool};
use bayeslsh_numeric::Parallelism;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::compose::{
    run_in_context, with_rule, Composition, CompositionOutput, GeneratorKind, ScanFront,
    SearchContext, SigPool, VerifierKind,
};
use crate::engine::{scan, DecisionRule, EngineStats, Scratch};
use crate::error::SearchError;
use crate::jaccard_model::JaccardModel;
use crate::minmatch::MinMatchCache;
use crate::parallel::par_scan;
use crate::pipeline::PipelineConfig;
use crate::posterior::{Posterior, PosteriorModel};

/// When corpus signatures are hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashMode {
    /// Hash every vector to the configured verifier's maximum depth at
    /// build/insert time. Queries never extend the pool, so per-query cost
    /// is pure probing + comparison — the right default for a standing
    /// service.
    #[default]
    Eager,
    /// Hash only to banding depth at build/insert time and let
    /// verification extend signatures on demand — the paper's "outlying
    /// points need only be hashed a few times" economy. Extensions are
    /// cached in the pool, so repeated queries still never re-hash.
    Lazy,
}

impl HashMode {
    /// The depth [`SearcherBuilder::build`] hashes every vector to: the
    /// banding depth, and under eager hashing the verifier's depth too.
    /// Snapshot loading holds a snapshot's recorded depth to this rule.
    pub(crate) fn build_depth(self, cfg: &PipelineConfig, composition: Composition) -> u32 {
        let banding = cfg.banding_plan().params.total_hashes();
        match self {
            HashMode::Eager => banding.max(composition.verifier.signature_depth(cfg)),
            HashMode::Lazy => banding,
        }
    }
}

/// Builder for [`Searcher`]: configuration is validated and the corpus
/// hashed/indexed exactly once, in [`SearcherBuilder::build`].
#[derive(Debug, Clone)]
pub struct SearcherBuilder {
    cfg: PipelineConfig,
    composition: Composition,
    mode: HashMode,
}

impl SearcherBuilder {
    /// A builder with the given pipeline configuration, defaulting to the
    /// paper's flagship composition (LSH banding × BayesLSH).
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            composition: Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes),
            mode: HashMode::Eager,
        }
    }

    /// Preset: cosine search (SRP signatures) at similarity threshold `t`,
    /// with every other knob at the paper defaults.
    pub fn cosine(t: f64) -> Self {
        Self::new(PipelineConfig::cosine(t))
    }

    /// Preset: Jaccard search (minwise hashing, binary vectors) at
    /// similarity threshold `t`.
    pub fn jaccard(t: f64) -> Self {
        Self::new(PipelineConfig::jaccard(t))
    }

    /// Preset: L2 proximity search (E2LSH quantized projections with
    /// bucket width `r`) at similarity threshold `t` on the
    /// `s = 1/(1 + d)` scale.
    pub fn l2(t: f64, r: f64) -> Self {
        Self::new(PipelineConfig::l2(t, r))
    }

    /// Preset: maximum-inner-product search at augmented-cosine threshold
    /// `t`. Corpus and queries are expected to already carry the
    /// asymmetric augmentation (see `bayeslsh_sparse::MipsTransform`).
    pub fn mips(t: f64) -> Self {
        Self::new(PipelineConfig::mips(t))
    }

    /// Step-wise multi-probe budget per band for point queries (default 1 =
    /// classic single-probe). See [`PipelineConfig::probes`].
    pub fn probes(mut self, probes: usize) -> Self {
        self.cfg.probes = probes;
        self
    }

    /// Use a generator × verifier composition: one of the paper's eight
    /// ([`Composition::PAPER`]) or an off-grid one the paper never
    /// evaluated.
    pub fn composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Choose when corpus signatures are hashed (default:
    /// [`HashMode::Eager`]).
    pub fn hash_mode(mut self, mode: HashMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the worker-thread budget for build-time hashing/indexing and
    /// for batch and query execution (default: [`Parallelism::Auto`]).
    /// Resolved once, at [`SearcherBuilder::build`]; output is
    /// bit-identical to `Parallelism::serial()` whatever the setting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Validate the configuration, hash the corpus, and build the banding
    /// index.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for out-of-range parameters (see
    /// [`PipelineConfig::validate`]), [`SearchError::NonBinaryData`] when
    /// the measure or generator needs binary vectors and `data` has
    /// weighted ones.
    pub fn build(self, data: Dataset) -> Result<Searcher, SearchError> {
        self.composition.check(&self.cfg, &data)?;
        // Resolve the thread budget once: `Auto` reads the environment /
        // core count here, and every later operation (including the
        // compositions run through `all_pairs`) sees the fixed count.
        let threads = self.cfg.parallelism.resolve();
        let mut cfg = self.cfg;
        cfg.parallelism = Parallelism::threads(threads.min(u32::MAX as usize) as u32);
        let params = cfg.banding_plan().params;
        let sig_depth = self.mode.build_depth(&cfg, self.composition);
        let mut pool = SigPool::for_config(&cfg, &data);
        // Every object is hashed to `sig_depth` right below, so the first
        // extension allocates each signature once. (No hint to the
        // verifier's *cap* under lazy hashing: later deepening is
        // pruning-dominant, so front-loading it would over-reserve.)
        pool.depth_hint(sig_depth);
        // Parallel build: hash the corpus chunk-per-thread (spliced back in
        // id order), then construct the band-sharded index. Bit-identical
        // to the serial per-object ensure/insert loop at any thread count.
        let ids: Vec<u32> = data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        pool.par_ensure_ids(&data, &ids, sig_depth, threads);
        let index = BandingIndex::par_build(params, &ids, threads, |id, band| {
            pool.band_key(id, band, params)
        });
        Ok(Searcher::from_parts(SearcherParts {
            data,
            cfg,
            composition: self.composition,
            mode: self.mode,
            threads,
            sig_depth,
            pool,
            index,
        }))
    }
}

/// Per-query statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates produced by probing the banding index.
    pub candidates: u64,
    /// Candidates pruned by the posterior test (Bayesian verifiers only).
    pub pruned: u64,
    /// Exact similarity computations.
    pub exact: u64,
    /// Hash comparisons performed.
    pub hash_comparisons: u64,
    /// Bucket lookups against the banding index: one per band for
    /// single-probe queries, up to `probes` per band under step-wise
    /// multi-probe (empty probe steps still count — they paid the lookup).
    pub bucket_probes: u64,
}

/// The result of one threshold point query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Matching corpus ids with similarities (exact or estimated,
    /// depending on the composition's verifier), sorted by decreasing
    /// similarity. Under the full-BayesLSH verifier this follows the
    /// paper's output contract: every candidate whose posterior
    /// probability of clearing the threshold stayed ≥ ε is emitted with
    /// its estimate, even if the estimate lands slightly below `t`.
    pub neighbors: Vec<(u32, f64)>,
    /// Query statistics.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Rewrite every neighbour id through `map` (e.g. shard-local →
    /// global), preserving order and statistics. Routers remap before
    /// merging so the merged output speaks global ids throughout.
    pub fn remap_ids(&mut self, map: impl Fn(u32) -> u32) {
        for n in &mut self.neighbors {
            n.0 = map(n.0);
        }
    }
}

/// Merge per-shard threshold-query outputs into the output a single
/// index over the union corpus would produce: neighbours concatenate
/// (candidate sets of disjoint shards partition the global candidate
/// set, and per-candidate verdicts are order-independent on the query
/// path), statistics add, and the merged list is re-sorted by the same
/// total order [`Searcher::query`] uses — decreasing similarity, ties
/// toward the lower id. Call [`QueryOutput::remap_ids`] first so ids
/// are global.
pub fn merge_query_outputs(parts: Vec<QueryOutput>) -> QueryOutput {
    let mut neighbors = Vec::new();
    let mut stats = QueryStats::default();
    for part in parts {
        neighbors.extend(part.neighbors);
        stats.candidates += part.stats.candidates;
        stats.pruned += part.stats.pruned;
        stats.exact += part.stats.exact;
        stats.hash_comparisons += part.stats.hash_comparisons;
        stats.bucket_probes += part.stats.bucket_probes;
    }
    neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    QueryOutput { neighbors, stats }
}

/// Top-k query parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnParams {
    /// Recall parameter: prune a candidate once
    /// `Pr[S ≥ current kth-best | M(m,n)] < ε`.
    pub epsilon: f64,
    /// Hashes compared per pruning iteration.
    pub chunk: u32,
    /// Hash budget per candidate before falling through to the exact
    /// computation (the Lite `h`).
    pub h: u32,
    /// Minimum similarity of interest: used as the pruning threshold while
    /// fewer than `k` neighbours have been found.
    pub floor: f64,
}

impl Default for KnnParams {
    fn default() -> Self {
        Self {
            epsilon: 0.03,
            chunk: 32,
            h: 128,
            floor: 0.1,
        }
    }
}

impl KnnParams {
    /// Check a request for the top `k` neighbours under these parameters:
    /// `k ≥ 1`, `ε ∈ (0, 1)`, `h ≥ chunk ≥ 1`, and a finite `floor` below
    /// 1 (a NaN floor would poison the posterior tail, and a floor of 1 or
    /// more prunes every candidate). [`Searcher::top_k`] and the shard
    /// router's `top_k` both run this check first.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self, k: usize) -> Result<(), SearchError> {
        if k == 0 {
            return Err(SearchError::invalid("k", "need at least one neighbour"));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SearchError::invalid(
                "epsilon",
                format!("must lie in (0, 1), got {}", self.epsilon),
            ));
        }
        if self.chunk < 1 || self.h < self.chunk {
            return Err(SearchError::invalid(
                "chunk",
                format!(
                    "need h >= chunk >= 1, got chunk {} h {}",
                    self.chunk, self.h
                ),
            ));
        }
        if !(self.floor.is_finite() && self.floor < 1.0) {
            return Err(SearchError::invalid(
                "floor",
                format!("must be finite and below 1, got {}", self.floor),
            ));
        }
        Ok(())
    }
}

/// Top-k query statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Candidates produced by the banding probe.
    pub candidates: u64,
    /// Candidates pruned by the posterior test.
    pub pruned: u64,
    /// Exact similarity computations.
    pub exact: u64,
    /// Hash comparisons performed.
    pub hash_comparisons: u64,
}

/// Total-ordered (similarity, id) pair for the top-k heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem(f64, u32);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The result of one top-k query.
#[derive(Debug, Clone)]
pub struct TopKOutput {
    /// Up to `k` most similar corpus ids, sorted by decreasing similarity;
    /// similarities are exact.
    pub neighbors: Vec<(u32, f64)>,
    /// Query statistics.
    pub stats: KnnStats,
}

/// A persistent similarity searcher: one corpus, one signature pool, one
/// banding index — many operations. See the [module docs](crate::searcher)
/// for the full story and [`SearcherBuilder`] for construction.
#[derive(Debug)]
pub struct Searcher {
    data: Dataset,
    cfg: PipelineConfig,
    composition: Composition,
    mode: HashMode,
    /// Worker-thread budget, resolved once at build.
    threads: usize,
    /// Depth every indexed vector is hashed to at build/insert time.
    sig_depth: u32,
    /// The signature pool, behind a lock so `&self` queries can share it:
    /// fully-covered requests run under the read lock, lazy deepening
    /// upgrades to the write lock per call.
    pool: RwLock<SigPool>,
    index: BandingIndex,
    plan: BandingPlan,
    /// Tombstones: `removed[id]` marks a vector deleted by
    /// [`Searcher::remove`] but not yet rewritten out by
    /// [`Searcher::compact`].
    removed: Vec<bool>,
    /// Count of set tombstones.
    n_removed: usize,
    /// Point-query pruning tables, memoized per query shape
    /// `(threshold, ε, k, max_hashes)`; thread-safe, so verification
    /// workers and alternating query shapes share it without eviction or
    /// corruption.
    minmatch_cache: MinMatchCache,
}

impl Clone for Searcher {
    fn clone(&self) -> Self {
        Searcher {
            data: self.data.clone(),
            cfg: self.cfg,
            composition: self.composition,
            mode: self.mode,
            threads: self.threads,
            sig_depth: self.sig_depth,
            pool: RwLock::new(self.pool_read().clone()),
            index: self.index.clone(),
            plan: self.plan,
            removed: self.removed.clone(),
            n_removed: self.n_removed,
            minmatch_cache: self.minmatch_cache.clone(),
        }
    }
}

/// The state a snapshot must capture to reconstruct a [`Searcher`]; the
/// derived fields (banding plan, pruning-table memo, pool allocation hint)
/// are recomputed on [`Searcher::from_parts`].
pub(crate) struct SearcherParts {
    pub data: Dataset,
    pub cfg: PipelineConfig,
    pub composition: Composition,
    pub mode: HashMode,
    pub threads: usize,
    pub sig_depth: u32,
    pub pool: SigPool,
    pub index: BandingIndex,
}

impl Searcher {
    /// Start building a searcher for `cfg`.
    pub fn builder(cfg: PipelineConfig) -> SearcherBuilder {
        SearcherBuilder::new(cfg)
    }

    /// The standing signature pool (snapshot serialization), under the
    /// shared read lock.
    pub(crate) fn pool(&self) -> RwLockReadGuard<'_, SigPool> {
        self.pool_read()
    }

    fn pool_read(&self) -> RwLockReadGuard<'_, SigPool> {
        self.pool.read().expect("signature pool lock poisoned")
    }

    fn pool_write(&self) -> RwLockWriteGuard<'_, SigPool> {
        self.pool.write().expect("signature pool lock poisoned")
    }

    /// The standing banding index (snapshot serialization).
    pub(crate) fn index(&self) -> &BandingIndex {
        &self.index
    }

    /// The depth every indexed vector is hashed to at build/insert time.
    pub(crate) fn sig_depth(&self) -> u32 {
        self.sig_depth
    }

    /// Assemble a searcher from its parts, freshly built by
    /// [`SearcherBuilder::build`] or read from a snapshot, recomputing what
    /// a snapshot does not carry: the banding plan is a pure function of
    /// the config, the pruning-table memo starts empty (it is rebuilt
    /// deterministically on demand), and the pool gets the allocation hint
    /// future inserts see.
    pub(crate) fn from_parts(parts: SearcherParts) -> Self {
        let SearcherParts {
            data,
            cfg,
            composition,
            mode,
            threads,
            sig_depth,
            mut pool,
            index,
        } = parts;
        let plan = cfg.banding_plan();
        pool.depth_hint(sig_depth);
        if mode == HashMode::Eager {
            // Materialize the hasher bank to query depth so `&self` queries
            // run entirely under the pool's read lock from the first call
            // (even when the corpus had nothing to hash, e.g. all-empty
            // vectors).
            pool.prepare_query(sig_depth, threads);
        }
        let removed = vec![false; data.len()];
        Searcher {
            data,
            cfg,
            composition,
            mode,
            threads,
            sig_depth,
            pool: RwLock::new(pool),
            index,
            plan,
            removed,
            n_removed: 0,
            minmatch_cache: MinMatchCache::new(),
        }
    }

    /// The indexed corpus.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The composition batch runs and point queries verify with.
    pub fn composition(&self) -> Composition {
        self.composition
    }

    /// The hashing mode.
    pub fn hash_mode(&self) -> HashMode {
        self.mode
    }

    /// The worker-thread budget, resolved at build time from the
    /// configured [`Parallelism`]. `1` means the exact serial path.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The banding plan the index was built with, including the achieved
    /// (vs. requested) false-negative rate.
    pub fn banding_plan(&self) -> BandingPlan {
        self.plan
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total corpus hashes computed so far — the cost the build-once
    /// design amortizes. Under [`HashMode::Eager`] this is constant across
    /// [`Searcher::query`] and [`Searcher::all_pairs`] calls, changing
    /// only on [`Searcher::insert`] — with one exception:
    /// [`Searcher::top_k`] may deepen candidate signatures up to its
    /// per-call `params.h` budget (cached, so repeated top-k queries add
    /// nothing either).
    pub fn hash_count(&self) -> u64 {
        self.pool_read().total_hashes()
    }

    /// Run the configured composition over the whole corpus, reusing the
    /// standing signature pool and banding index. Preconditions were
    /// enforced at build/insert time, so no per-call corpus scan happens.
    /// Takes the pool's write lock for the duration (batch joins may
    /// lazily deepen signatures), so it serializes against concurrent
    /// point queries but never corrupts them.
    ///
    /// # Errors
    ///
    /// None currently — fallible for forward compatibility.
    pub fn all_pairs(&self) -> Result<CompositionOutput, SearchError> {
        let mut pool = self.pool_write();
        let mut ctx = SearchContext {
            data: &self.data,
            cfg: &self.cfg,
            pool: &mut pool,
            index: Some(&self.index),
        };
        let mut out = run_in_context(self.composition, &mut ctx)?;
        if self.n_removed > 0 {
            // The exact generators (AllPairs, PPJoin+) scan the raw corpus,
            // which keeps tombstoned vectors in place until `compact()`;
            // filter their pairs so every generator agrees with the
            // standing index, where removed ids are already unlinked.
            out.pairs
                .retain(|&(a, b, _)| !self.removed[a as usize] && !self.removed[b as usize]);
        }
        Ok(out)
    }

    /// All corpus vectors whose similarity to `q` clears `threshold`,
    /// verified with the composition's verifier over the standing index.
    ///
    /// Point-query candidates always come from the standing LSH banding
    /// index, whatever the composition's generator — the generator governs
    /// [`Searcher::all_pairs`] batches only; queries share just the
    /// verifier. So even exact compositions (AllPairs, PPJoin+) carry the
    /// banding plan's expected false-negative rate on this path (see
    /// [`Searcher::banding_plan`]). The index was provisioned for
    /// `config().threshold`; that rate holds for
    /// `threshold >= config().threshold` and degrades below it.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for a threshold outside `(0, 1]`,
    /// [`SearchError::NonBinaryData`] for a weighted `q` when the
    /// composition needs binary vectors, and
    /// [`SearchError::DimensionExceeded`] when `q` has feature indices
    /// beyond the indexed space (cosine only — the projection planes are
    /// fixed at build time).
    pub fn query(&self, q: &SparseVector, threshold: f64) -> Result<QueryOutput, SearchError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SearchError::invalid(
                "threshold",
                format!("must lie in (0, 1], got {threshold}"),
            ));
        }
        self.check_query(q)?;
        if q.is_empty() || self.data.is_empty() {
            return Ok(QueryOutput {
                neighbors: Vec::new(),
                stats: QueryStats::default(),
            });
        }
        let scan_cap = self.composition.verifier.signature_depth(&self.cfg);
        let depth = self.plan.params.total_hashes().max(scan_cap);
        let out = self.front(
            q,
            depth,
            scan_cap,
            self.cfg.probes,
            |mut pool, sig, ids, lookups| {
                let mut stats = QueryStats {
                    candidates: ids.len() as u64,
                    bucket_probes: lookups,
                    ..QueryStats::default()
                };
                let neighbors = self.verify_query(&mut pool, q, threshold, sig, ids, &mut stats);
                QueryOutput { neighbors, stats }
            },
        );
        Ok(out)
    }

    /// The query front [`Searcher::query`] and [`Searcher::top_k`] share:
    /// hash `q` to `depth`, probe the standing index (`probes` buckets per
    /// band), and hand `scan` the pool, the query signature, the candidates
    /// and the bucket lookups paid.
    ///
    /// When the hasher bank covers `depth` and every candidate's stored
    /// signature covers `scan_cap` (always under eager hashing, unless a
    /// top-k budget reaches past the build depth), the whole call runs
    /// under the shared read lock, so concurrent readers never block each
    /// other. Otherwise the query is hashed and probed again under the
    /// write lock, where `scan` deepens signatures lazily (and caches them,
    /// so repeat queries come back to the read path). Signature bits are
    /// pure functions of (object, position), so both paths answer
    /// bit-identically.
    fn front<T>(
        &self,
        q: &SparseVector,
        depth: u32,
        scan_cap: u32,
        probes: usize,
        scan: impl FnOnce(PoolRef<'_>, &[u32], &[u32], u64) -> T,
    ) -> T {
        let params = self.plan.params;
        {
            let pool = self.pool_read();
            if pool.query_ready(depth) {
                let sig = pool.hash_query_ready(q, depth, self.threads);
                let keys = pool.query_band_keys(&sig, params);
                let (cand_ids, lookups) = self.probe(&pool, q, &keys, probes);
                if cand_ids.iter().all(|&id| pool.len(id) >= scan_cap) {
                    return scan(PoolRef::Read(&pool), &sig, &cand_ids, lookups);
                }
            }
        }
        let mut pool = self.pool_write();
        let sig = self.hash_query_mut(&mut pool, q, depth);
        let keys = pool.query_band_keys(&sig, params);
        let (cand_ids, lookups) = self.probe(&pool, q, &keys, probes);
        scan(PoolRef::Write(&mut pool), &sig, &cand_ids, lookups)
    }

    /// Hash `q` to `depth` through the mutable pool, growing the hasher
    /// bank if it falls short, split across the thread budget when there
    /// is more than one thread (bit-identical either way).
    fn hash_query_mut(&self, pool: &mut SigPool, q: &SparseVector, depth: u32) -> Vec<u32> {
        if self.threads > 1 {
            pool.hash_query_par(q, depth, self.threads)
        } else {
            pool.hash_query(q, depth)
        }
    }

    /// Probe the standing index with a query's band `keys`: one lookup per
    /// band, or up to `probes` per band under step-wise multi-probe, which
    /// [`PipelineConfig::validate`] admits for bit families only (integer
    /// band keys are FxHash digests with no meaningful single-bit flips).
    /// Returns the deduplicated candidate ids in first-encounter order and
    /// the number of bucket lookups paid.
    fn probe(
        &self,
        pool: &SigPool,
        q: &SparseVector,
        keys: &[u64],
        probes: usize,
    ) -> (Vec<u32>, u64) {
        let params = self.plan.params;
        // The base bucket plus one probe per flippable band bit.
        let probes = probes.min(params.k as usize + 1);
        let bits = match pool {
            SigPool::Bits(bits) if probes > 1 => bits,
            _ => return (self.index.par_probe(keys, self.threads), keys.len() as u64),
        };
        // Per-band probe sequences: the band's own key first, then
        // single-bit flips in ascending-|margin| order — the bit whose
        // projection landed closest to its hyperplane is the likeliest to
        // differ for a true near neighbour, so its flip has the highest
        // expected collision probability.
        let mut margins = Vec::new();
        bits.hasher()
            .project_into(q, 0, params.total_hashes(), &mut margins);
        let seqs: Vec<Vec<u64>> = keys
            .iter()
            .enumerate()
            .map(|(band, &base)| {
                let lo = band * params.k as usize;
                let mut bit_order: Vec<usize> = (0..params.k as usize).collect();
                bit_order.sort_by(|&a, &b| {
                    margins[lo + a]
                        .abs()
                        .total_cmp(&margins[lo + b].abs())
                        .then(a.cmp(&b))
                });
                let mut seq = Vec::with_capacity(probes);
                seq.push(base);
                seq.extend(
                    bit_order
                        .iter()
                        .take(probes - 1)
                        .map(|&bit| base ^ (1u64 << bit)),
                );
                seq
            })
            .collect();
        self.index.probe_multi(&seqs)
    }

    /// Verify a threshold query's candidates with the composition's
    /// verifier (see [`QueryFront`]), folding the scan's counters into
    /// `stats`; neighbours come back sorted by decreasing similarity, ties
    /// toward the lower id.
    fn verify_query(
        &self,
        pool: &mut PoolRef<'_>,
        q: &SparseVector,
        t: f64,
        sig: &[u32],
        cand_ids: &[u32],
        stats: &mut QueryStats,
    ) -> Vec<(u32, f64)> {
        // The fitted prior is a batch concept (it samples candidate
        // *pairs*); point queries use the uniform prior.
        let model = || Posterior::for_family(self.cfg.family, JaccardModel::uniform);
        let front = QueryFront {
            searcher: self,
            pool,
            q,
            sig,
            cand_ids,
        };
        let memo = Some(&self.minmatch_cache);
        let (mut neighbors, engine) =
            with_rule(self.composition.verifier, &self.cfg, t, model, memo, front);
        stats.pruned += engine.pruned;
        stats.exact += engine.exact_verifications;
        stats.hash_comparisons += engine.hash_comparisons;
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        neighbors
    }

    /// Top-`k` most similar corpus vectors to `q`, sorted by decreasing
    /// similarity, with Bayesian candidate pruning against the rising
    /// k-th-best similarity (the paper's future-work recipe). Exact
    /// similarities are returned for every reported neighbour.
    ///
    /// Candidates come from a single-probe lookup of the standing index.
    /// Every candidate's first chunk of agreements is counted up front in
    /// one batched sweep; the pruning scan then runs sequentially in
    /// candidate order, because each verdict depends on the k-th best
    /// similarity found before it, and keeping that order is what makes
    /// the output deterministic. Query hashing, probing and first-chunk
    /// hashing fan out across the thread budget.
    ///
    /// Pruning depth is governed by `params.h` (not the composition's
    /// verifier), so candidates may be lazily deepened up to `params.h`
    /// hashes even under [`HashMode::Eager`]; extensions are cached, so
    /// repeated queries never re-hash.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for `k == 0` or out-of-range
    /// [`KnnParams`], [`SearchError::NonBinaryData`] and
    /// [`SearchError::DimensionExceeded`] as for [`Searcher::query`].
    pub fn top_k(
        &self,
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> Result<TopKOutput, SearchError> {
        params.validate(k)?;
        self.check_query(q)?;
        if q.is_empty() || self.data.is_empty() {
            return Ok(TopKOutput {
                neighbors: Vec::new(),
                stats: KnnStats::default(),
            });
        }
        let scan_cap = (params.h / params.chunk) * params.chunk;
        let depth = self.plan.params.total_hashes().max(scan_cap);
        let out = self.front(q, depth, scan_cap, 1, |mut pool, sig, ids, _| {
            let first = self.first_chunk(&mut pool, sig, ids, params.chunk);
            let scan = TopKScan::new(self, q, sig, k, params);
            let candidates = ids.iter().zip(first).map(|(&id, m1)| (id, (id, m1)));
            scan.run(candidates, |(id, m1), prune_below| {
                scan.candidate(&self.data, &mut pool, id, m1, prune_below)
            })
        });
        Ok(out)
    }

    /// [`Searcher::top_k`] over a corpus split across `shards`, with output
    /// and statistics bit-identical to one searcher over the whole corpus:
    /// the shard router's scatter-gather top-k. Shard `s`'s local id `i` is
    /// global id `globals[s][i]`, and neighbours are reported by global id.
    /// The shards must come from one build recipe (the same config and
    /// hasher feature space), as [`Dataset::partition`] guarantees, so
    /// signatures, band keys and similarities match the single index's.
    ///
    /// Shard 0 hashes the query. Each shard probes its own index and pays
    /// its candidates' first chunk. The candidates then go through the one
    /// rising-threshold scan in the order a single index emits them (first
    /// matching band, then global id), each scanned on the shard that owns
    /// it, which deepens its signature as the single index would. Each
    /// step takes the owning shard's pool lock for that step only.
    ///
    /// # Errors
    ///
    /// As [`Searcher::top_k`], with `q` checked against shard 0; plus
    /// [`SearchError::InvalidConfig`] when `shards` is empty, when
    /// `globals` does not hold one id per vector of each shard, or when
    /// the shards differ in config or feature space.
    pub fn top_k_across(
        shards: &[&Searcher],
        globals: &[Vec<u32>],
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> Result<TopKOutput, SearchError> {
        params.validate(k)?;
        let Some(&lead) = shards.first() else {
            return Err(SearchError::invalid("shards", "need at least one shard"));
        };
        if globals.len() != shards.len()
            || shards.iter().zip(globals).any(|(s, g)| g.len() != s.len())
        {
            return Err(SearchError::invalid(
                "globals",
                "need one global id per vector of every shard",
            ));
        }
        // Shards agree on everything but the thread budget, which never
        // changes results. The feature space compared is the hasher's, fixed
        // at build: a Jaccard insert may widen one shard's dataset, but
        // minhash has no feature space and its signatures stay the same.
        let recipe = |s: &Searcher| {
            let cfg = PipelineConfig {
                parallelism: Parallelism::Auto,
                ..s.cfg
            };
            (cfg, s.pool_read().dim())
        };
        if shards.iter().any(|s| recipe(s) != recipe(lead)) {
            return Err(SearchError::invalid(
                "shards",
                "every shard must share one config and feature space",
            ));
        }
        lead.check_query(q)?;
        if q.is_empty() || shards.iter().all(|s| s.is_empty()) {
            return Ok(TopKOutput {
                neighbors: Vec::new(),
                stats: KnnStats::default(),
            });
        }
        let banding = lead.plan.params;
        let depth = banding
            .total_hashes()
            .max((params.h / params.chunk) * params.chunk);
        let sig = lead.hash_query_mut(&mut lead.pool_write(), q, depth);

        // Scatter: probe every shard and pay its first chunk up front,
        // annotating each candidate with its first matching band.
        let mut candidates = Vec::new();
        for (s, (shard, globals)) in shards.iter().zip(globals).enumerate() {
            let mut pool = shard.pool_write();
            let keys = pool.query_band_keys(&sig, banding);
            let locals = shard.index.par_probe(&keys, shard.threads);
            let first =
                shard.first_chunk(&mut PoolRef::Write(&mut pool), &sig, &locals, params.chunk);
            for (&local, m1) in locals.iter().zip(first) {
                let band =
                    (0..banding.l).find(|&b| pool.band_key(local, b, banding) == keys[b as usize]);
                candidates.push((band, globals[local as usize], (s, local, m1)));
            }
        }
        // Gather: a single index probes bands in order and each bucket in
        // ascending id order, deduplicating on first encounter; per-shard
        // candidate sets partition its buckets without reordering either,
        // so sorting on (first band, global id) restores its order.
        candidates.sort_by_key(|&(band, global, _)| (band, global));
        let scan = TopKScan::new(lead, q, &sig, k, params);
        let candidates = candidates.into_iter().map(|(_, global, c)| (global, c));
        Ok(scan.run(candidates, |(s, local, m1), prune_below| {
            let shard = shards[s];
            let mut pool = shard.pool_write();
            scan.candidate(
                &shard.data,
                &mut PoolRef::Write(&mut pool),
                local,
                m1,
                prune_below,
            )
        }))
    }

    /// Agreement counts between `sig` and each of `ids` over the first
    /// `chunk` hashes, deepening the signatures first (fanned out across
    /// the thread budget). Every top-k candidate pays at least one chunk
    /// and these counts do not depend on the rising threshold, so they are
    /// taken in one batched word-parallel sweep, leaving only the
    /// order-dependent verdicts and deeper chunks to the sequential scan.
    /// Only the first chunk is hashed ahead: a candidate the scan prunes
    /// there never needs deeper hashes, so hashing every candidate to
    /// `params.h` up front would waste them.
    fn first_chunk(
        &self,
        pool: &mut PoolRef<'_>,
        sig: &[u32],
        ids: &[u32],
        chunk: u32,
    ) -> Vec<u32> {
        pool.ensure_ids(&self.data, ids, chunk, self.threads);
        let mut first = Vec::new();
        pool.get()
            .query_agreements_batched(sig, ids, 0, chunk, &mut first);
        first
    }

    /// Append a vector to the corpus, extending the signature pool and
    /// banding index in place. Returns the new vector's id.
    ///
    /// An **empty** vector is accepted: it takes up an id and lives in the
    /// corpus, but is never hashed or indexed, so it cannot appear as a
    /// candidate of any query, top-k, or batch join (its similarity to
    /// everything is zero/undefined). It remains [`Searcher::remove`]-able
    /// and round-trips through snapshots like any other id.
    ///
    /// # Errors
    ///
    /// [`SearchError::NonBinaryData`] when the composition needs binary
    /// vectors, [`SearchError::DimensionExceeded`] when `v` has feature
    /// indices beyond the indexed space (cosine only).
    pub fn insert(&mut self, v: SparseVector) -> Result<u32, SearchError> {
        self.check_query(&v)?;
        let id = self.data.push(v);
        self.removed.push(false);
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        pool.grow_to(self.data.len());
        if !self.data.vector(id).is_empty() {
            // One object, many hashes: on more than one thread the new
            // signature's hash range is split across the budget.
            PoolRef::Write(pool).ensure_ids(&self.data, &[id], self.sig_depth, self.threads);
            self.index.insert(id, &pool.band_keys(id, self.plan.params));
        }
        Ok(id)
    }

    /// Remove vector `id` from search: it stops appearing in any query,
    /// top-k, or batch output immediately. The vector's storage and
    /// signature stay in place — ids are stable — until
    /// [`Searcher::compact`] rewrites them out. Returns `Ok(true)` when
    /// the id was live, `Ok(false)` when it was already removed.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for an id outside the corpus.
    pub fn remove(&mut self, id: u32) -> Result<bool, SearchError> {
        if (id as usize) >= self.data.len() {
            return Err(SearchError::invalid(
                "id",
                format!("no such vector: {id} (corpus holds {})", self.data.len()),
            ));
        }
        if self.removed[id as usize] {
            return Ok(false);
        }
        if !self.data.vector(id).is_empty() {
            let pool = self.pool.get_mut().expect("signature pool lock poisoned");
            let keys = pool.band_keys(id, self.plan.params);
            self.index.remove(id, &keys);
        }
        self.removed[id as usize] = true;
        self.n_removed += 1;
        Ok(true)
    }

    /// True when `id` has been [`Searcher::remove`]d and not yet
    /// rewritten out by [`Searcher::compact`] (which clears tombstones
    /// while keeping ids stable).
    pub fn is_removed(&self, id: u32) -> bool {
        self.removed.get(id as usize).copied().unwrap_or(false)
    }

    /// Number of tombstoned vectors awaiting [`Searcher::compact`].
    pub fn pending_removals(&self) -> usize {
        self.n_removed
    }

    /// Rewrite removed vectors out of the standing state: their vector
    /// data and signatures are dropped (reclaiming memory and hash
    /// accounting) and the banding index is rebuilt over the survivors.
    /// Ids are **stable** — a removed id keeps its slot as a permanently
    /// empty vector, exactly the representation an empty
    /// [`Searcher::insert`] produces — so snapshots and shard manifests
    /// round-trip unchanged. Returns the number of vectors compacted away.
    pub fn compact(&mut self) -> usize {
        if self.n_removed == 0 {
            return 0;
        }
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        for id in 0..self.data.len() as u32 {
            if self.removed[id as usize] {
                self.data.clear_vector(id);
                pool.clear(id);
            }
        }
        // Rebuild the index from scratch over the survivors: removal left
        // emptied buckets behind (to keep probe order stable mid-flight),
        // and a fresh build sheds them exactly as `SearcherBuilder::build`
        // would lay the survivors out.
        let ids: Vec<u32> = self
            .data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        let plan = self.plan;
        let threads = self.threads;
        self.index = BandingIndex::par_build(plan.params, &ids, threads, |id, band| {
            pool.band_key(id, band, plan.params)
        });
        let count = self.n_removed;
        self.removed.iter_mut().for_each(|r| *r = false);
        self.n_removed = 0;
        count
    }

    /// Enforce the preconditions every incoming vector (query or insert)
    /// must meet: binary support when the composition demands it, and —
    /// for the projection families (SRP for cosine/MIPS, E2LSH for L2),
    /// whose projection banks fix the feature space at build time — no
    /// feature indices beyond the indexed dimensionality.
    fn check_query(&self, v: &SparseVector) -> Result<(), SearchError> {
        let measure = self.cfg.family.measure();
        if self.composition.requires_binary(measure) && !v.is_binary() {
            return Err(SearchError::NonBinaryData {
                requires: self.composition.binary_requirement(measure),
            });
        }
        if let Some(dim) = self.pool_read().dim().filter(|&dim| v.min_dim() > dim) {
            return Err(SearchError::DimensionExceeded {
                dim,
                needed: v.min_dim(),
            });
        }
        Ok(())
    }
}

/// The signature pool as one query holds it. Under the read lock every
/// signature the query touches is already deep enough, so ensures are
/// no-ops (checked in debug builds); under the write lock they deepen
/// signatures lazily. The scans run against this one handle, so both
/// paths run the same code and stay bit-identical by construction.
enum PoolRef<'a> {
    Read(&'a SigPool),
    Write(&'a mut SigPool),
}

impl PoolRef<'_> {
    fn get(&self) -> &SigPool {
        match self {
            PoolRef::Read(pool) => pool,
            PoolRef::Write(pool) => pool,
        }
    }

    /// Extend the signatures of `ids` to at least `n` hashes: one by one
    /// on one thread, fanned out on more (bit-identical either way).
    fn ensure_ids(&mut self, data: &Dataset, ids: &[u32], n: u32, threads: usize) {
        match self {
            PoolRef::Read(pool) => debug_assert!(
                ids.iter().all(|&id| pool.len(id) >= n),
                "read-path ensure must be a no-op"
            ),
            PoolRef::Write(pool) if threads > 1 => pool.par_ensure_ids(data, ids, n, threads),
            PoolRef::Write(pool) => {
                for &id in ids {
                    pool.ensure(id, data.vector(id), n);
                }
            }
        }
    }
}

/// One top-k request, shared by [`Searcher::top_k`] and
/// [`Searcher::top_k_across`]: the query and its signature, the
/// parameters, and the posterior and measure every candidate is scanned
/// with (the same on every shard of one build).
struct TopKScan<'a> {
    q: &'a SparseVector,
    sig: &'a [u32],
    k: usize,
    params: &'a KnnParams,
    model: Posterior,
    measure: Measure,
}

impl<'a> TopKScan<'a> {
    fn new(
        searcher: &Searcher,
        q: &'a SparseVector,
        sig: &'a [u32],
        k: usize,
        params: &'a KnnParams,
    ) -> Self {
        TopKScan {
            q,
            sig,
            k,
            params,
            model: Posterior::for_family(searcher.cfg.family, JaccardModel::uniform),
            measure: searcher.cfg.family.measure(),
        }
    }

    /// Scan one candidate of `data`: resume from its first-chunk agreement
    /// count `m1`, compare `params.chunk` more hashes at a time up to
    /// `params.h` (deepening its signature in `pool`), and prune once
    /// `Pr[S ≥ prune_below | M(m, n)] < ε`. Returns the hash comparisons
    /// spent and, for a survivor, its exact similarity to the query.
    fn candidate(
        &self,
        data: &Dataset,
        pool: &mut PoolRef<'_>,
        id: u32,
        m1: u32,
        prune_below: f64,
    ) -> (u32, Option<f64>) {
        let params = self.params;
        let prunes = |m, n| self.model.prob_above_threshold(m, n, prune_below) < params.epsilon;
        let chunk = params.chunk;
        let (mut m, mut n) = (m1, chunk);
        for _ in 1..params.h / chunk {
            if prunes(m, n) {
                return (n, None);
            }
            pool.ensure_ids(data, &[id], n + chunk, 1);
            m += pool.get().query_agreements(self.sig, id, n, n + chunk);
            n += chunk;
        }
        if prunes(m, n) {
            (n, None)
        } else {
            (n, Some(self.measure.eval(self.q, data.vector(id))))
        }
    }

    /// The rising-threshold scan. `candidates` come in scan order as
    /// (reported id, scan input), and `scan(input, prune_below)` runs one
    /// of them through [`TopKScan::candidate`] against the k-th best
    /// similarity found before it (`params.floor` until `k` survive).
    /// Survivors compete in a min-heap of the current top `k`.
    fn run<C>(
        &self,
        candidates: impl ExactSizeIterator<Item = (u32, C)>,
        mut scan: impl FnMut(C, f64) -> (u32, Option<f64>),
    ) -> TopKOutput {
        let floor = self.params.floor;
        let mut stats = KnnStats {
            candidates: candidates.len() as u64,
            ..KnnStats::default()
        };
        let mut heap = BinaryHeap::with_capacity(self.k + 1);
        let mut kth_best = floor;
        for (id, c) in candidates {
            let (comparisons, similarity) = scan(c, kth_best);
            stats.hash_comparisons += comparisons as u64;
            let Some(s) = similarity else {
                stats.pruned += 1;
                continue;
            };
            stats.exact += 1;
            if heap.len() < self.k {
                heap.push(Reverse(HeapItem(s, id)));
            } else if heap.peek().is_some_and(|Reverse(worst)| s > worst.0) {
                heap.pop();
                heap.push(Reverse(HeapItem(s, id)));
            }
            if heap.len() == self.k {
                kth_best = heap.peek().map_or(floor, |Reverse(kth)| kth.0.max(floor));
            }
        }
        let mut neighbors: Vec<(u32, f64)> = heap
            .into_iter()
            .map(|Reverse(HeapItem(s, id))| (id, s))
            .collect();
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        TopKOutput { neighbors, stats }
    }
}

/// The threshold-query front of the scan driver: the query signature
/// against its candidates. One thread scans serially, deepening candidate
/// signatures lazily through the pool handle (a no-op on the read path);
/// more threads extend every candidate to the rule's depth, then fan out
/// over the read-only pool. Either way verdicts and counters are
/// bit-identical.
struct QueryFront<'s, 'p> {
    searcher: &'s Searcher,
    pool: &'s mut PoolRef<'p>,
    q: &'s SparseVector,
    sig: &'s [u32],
    cand_ids: &'s [u32],
}

impl ScanFront for QueryFront<'_, '_> {
    type Output = (Vec<(u32, f64)>, EngineStats);

    fn run<R: DecisionRule + Clone + Sync>(self, mut rule: R) -> Self::Output {
        let QueryFront {
            searcher,
            pool,
            q,
            sig,
            cand_ids,
        } = self;
        let (data, threads) = (&searcher.data, searcher.threads);
        let measure = searcher.cfg.family.measure();
        let exact = |id: u32| measure.eval(q, data.vector(id));
        let mut stats = EngineStats::for_rule(cand_ids.len(), &rule);
        if threads <= 1 {
            let mut out = Vec::new();
            let count = |ids: &[u32], lo, hi, counts: &mut Vec<u32>| {
                pool.ensure_ids(data, ids, hi, 1);
                pool.get()
                    .query_agreements_batched(sig, ids, lo, hi, counts);
            };
            let scratch = &mut Scratch::default();
            scan(
                &mut rule,
                cand_ids,
                scratch,
                &mut stats,
                count,
                exact,
                |id, s| out.push((id, s)),
            );
            return (out, stats);
        }
        if rule.depth() > 0 {
            pool.ensure_ids(data, cand_ids, rule.depth(), threads);
        }
        let pool = pool.get();
        let out = par_scan(
            cand_ids.len(),
            threads,
            &rule,
            &mut stats,
            |range, rule, stats| {
                let mut out = Vec::new();
                let count = |ids: &[u32], lo, hi, counts: &mut Vec<u32>| {
                    pool.query_agreements_batched(sig, ids, lo, hi, counts)
                };
                let scratch = &mut Scratch::default();
                scan(
                    rule,
                    &cand_ids[range],
                    scratch,
                    stats,
                    count,
                    exact,
                    |id, s| out.push((id, s)),
                );
                out
            },
        );
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::cosine;
    use GeneratorKind::LshBanding;
    use VerifierKind::{Bayes, BayesLite, Exact};

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(3000);
        for c in 0..10 {
            let center: Vec<(u32, f32)> = (0..35)
                .map(|_| {
                    (
                        (c * 250 + rng.next_below(230) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..6 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(3000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    #[test]
    fn build_validates_config() {
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.epsilon = 0.0;
        let err = Searcher::builder(cfg).build(corpus(1)).unwrap_err();
        assert!(matches!(
            err,
            SearchError::InvalidConfig {
                param: "epsilon",
                ..
            }
        ));
    }

    #[test]
    fn build_rejects_non_binary_jaccard() {
        let err = Searcher::builder(PipelineConfig::jaccard(0.5))
            .build(corpus(2))
            .unwrap_err();
        assert!(matches!(err, SearchError::NonBinaryData { .. }));
        // Binarized data builds fine.
        Searcher::builder(PipelineConfig::jaccard(0.5))
            .build(corpus(2).binarized())
            .unwrap();
    }

    #[test]
    fn query_finds_self_and_respects_threshold() {
        let data = corpus(3);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(Composition::new(LshBanding, BayesLite))
            .build(data)
            .unwrap();
        for qid in [0u32, 13, 47] {
            let q = s.data().vector(qid).clone();
            let out = s.query(&q, 0.7).unwrap();
            assert!(
                out.neighbors.iter().any(|&(id, _)| id == qid),
                "query {qid} must find itself"
            );
            // Lite verification is exact for survivors.
            for &(id, sim) in &out.neighbors {
                assert!(sim >= 0.7);
                assert!((sim - cosine(&q, s.data().vector(id))).abs() < 1e-12);
            }
            assert!(out.stats.candidates >= out.neighbors.len() as u64);
        }
    }

    #[test]
    fn eager_queries_never_touch_the_corpus_pool() {
        let data = corpus(4);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(data)
            .unwrap();
        let built = s.hash_count();
        assert!(built > 0);
        for qid in (0..s.len() as u32).step_by(5) {
            let q = s.data().vector(qid).clone();
            s.query(&q, 0.7).unwrap();
        }
        assert_eq!(
            s.hash_count(),
            built,
            "eager mode: queries must not extend corpus signatures"
        );
    }

    #[test]
    fn lazy_queries_extend_once_and_amortize() {
        let data = corpus(5);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .hash_mode(HashMode::Lazy)
            .build(data)
            .unwrap();
        let built = s.hash_count();
        let q = s.data().vector(7).clone();
        s.query(&q, 0.7).unwrap();
        let after_first = s.hash_count();
        assert!(after_first >= built);
        // The same query again hashes nothing new.
        s.query(&q, 0.7).unwrap();
        assert_eq!(s.hash_count(), after_first);
    }

    #[test]
    fn insert_then_query_finds_the_new_vector() {
        let data = corpus(6);
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(Composition::new(LshBanding, Exact))
            .build(data)
            .unwrap();
        let planted = s.data().vector(11).clone();
        let before = s.len() as u32;
        let id = s.insert(planted.clone()).unwrap();
        assert_eq!(id, before);
        let out = s.query(&planted, 0.7).unwrap();
        assert!(
            out.neighbors
                .iter()
                .any(|&(got, sim)| got == id && sim > 0.999),
            "query must surface the inserted duplicate: {:?}",
            out.neighbors
        );
    }

    #[test]
    fn insert_rejects_outgrown_dimension_for_cosine() {
        let data = corpus(7);
        let dim = data.dim();
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(data)
            .unwrap();
        let err = s
            .insert(SparseVector::from_indices(vec![dim + 10]))
            .unwrap_err();
        assert!(matches!(err, SearchError::DimensionExceeded { .. }));
    }

    #[test]
    fn top_k_returns_sorted_exact_neighbours() {
        let data = corpus(8);
        let s = Searcher::builder(PipelineConfig::cosine(0.5))
            .build(data)
            .unwrap();
        let q = s.data().vector(3).clone();
        let out = s.top_k(&q, 5, &KnnParams::default()).unwrap();
        assert!(!out.neighbors.is_empty());
        assert_eq!(out.neighbors[0].0, 3, "self must rank first");
        for w in out.neighbors.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for &(id, sim) in &out.neighbors {
            assert!((sim - cosine(&q, s.data().vector(id))).abs() < 1e-12);
        }
        assert!(s.top_k(&q, 0, &KnnParams::default()).is_err());
        // The posterior test prunes, so exact computations undercut the
        // candidates.
        assert!(out.stats.pruned > 0, "{:?}", out.stats);
        assert!(out.stats.exact < out.stats.candidates, "{:?}", out.stats);
        // k = 1 is the query itself; an empty query has no candidates.
        let one = s.top_k(&q, 1, &KnnParams::default()).unwrap();
        assert_eq!(one.neighbors, out.neighbors[..1]);
        let empty = s.top_k(&SparseVector::empty(), 5, &KnnParams::default());
        assert_eq!(empty.unwrap().stats, KnnStats::default());
        // A higher floor starts the rising threshold higher, so it never
        // needs more exact computations.
        let exact_at = |floor| {
            let params = KnnParams {
                floor,
                ..KnnParams::default()
            };
            s.top_k(&q, 3, &params).unwrap().stats.exact
        };
        assert!(exact_at(0.6) <= exact_at(0.05));
    }

    #[test]
    fn top_k_across_one_shard_is_top_k() {
        // One shard whose local ids are the global ids is the single
        // index: the same neighbours, statistics and hashing, on the read
        // path (eager) and on the lazily deepening one, at any budget.
        let deep = KnnParams {
            h: 4096,
            ..KnnParams::default()
        };
        for mode in [HashMode::Eager, HashMode::Lazy] {
            let build = || {
                Searcher::builder(PipelineConfig::cosine(0.5))
                    .hash_mode(mode)
                    .build(corpus(12))
                    .unwrap()
            };
            let (single, shard) = (build(), build());
            let globals = [(0..shard.len() as u32).collect::<Vec<u32>>()];
            for qid in [3u32, 17, 40] {
                let q = single.data().vector(qid).clone();
                for params in [KnnParams::default(), deep] {
                    let a = single.top_k(&q, 5, &params).unwrap();
                    let b = Searcher::top_k_across(&[&shard], &globals, &q, 5, &params).unwrap();
                    let bits = |n: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        n.iter().map(|&(id, s)| (id, s.to_bits())).collect()
                    };
                    assert_eq!(bits(&a.neighbors), bits(&b.neighbors), "{mode:?} {qid}");
                    assert_eq!(a.stats, b.stats, "{mode:?} {qid}");
                    assert_eq!(single.hash_count(), shard.hash_count(), "{mode:?} {qid}");
                }
            }
        }

        // Malformed shard sets are typed errors, never panics.
        let s = Searcher::builder(PipelineConfig::cosine(0.5))
            .build(corpus(12))
            .unwrap();
        let other = Searcher::builder(PipelineConfig::cosine(0.6))
            .build(corpus(12))
            .unwrap();
        let q = s.data().vector(0).clone();
        let ids: Vec<u32> = (0..s.len() as u32).collect();
        let params = KnnParams::default();
        let invalid = |result: Result<TopKOutput, SearchError>| match result {
            Err(SearchError::InvalidConfig { param, .. }) => param,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let short = [ids[1..].to_vec()];
        assert_eq!(
            invalid(Searcher::top_k_across(&[&s], &short, &q, 5, &params)),
            "globals"
        );
        assert_eq!(
            invalid(Searcher::top_k_across(&[&s], &[], &q, 5, &params)),
            "globals"
        );
        assert_eq!(
            invalid(Searcher::top_k_across(&[], &[], &q, 5, &params)),
            "shards"
        );
        let two = [ids.clone(), ids.clone()];
        assert_eq!(
            invalid(Searcher::top_k_across(&[&s, &other], &two, &q, 5, &params)),
            "shards"
        );
        assert_eq!(
            invalid(Searcher::top_k_across(&[&s], &[ids], &q, 0, &params)),
            "k"
        );
    }

    #[test]
    fn all_pairs_can_run_repeatedly_without_rehashing() {
        let data = corpus(9);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(Composition::new(LshBanding, Bayes))
            .build(data)
            .unwrap();
        let first = s.all_pairs().unwrap();
        let hashes = s.hash_count();
        let second = s.all_pairs().unwrap();
        assert_eq!(s.hash_count(), hashes, "second run must reuse signatures");
        assert_eq!(first.pairs, second.pairs);
        assert!(first.candidates > 0);
    }

    #[test]
    fn alternating_query_shapes_do_not_corrupt_prune_decisions() {
        // Regression: the old single-slot minmatch memo was keyed by the
        // last (threshold, depth) shape only, so interleaving shapes
        // rebuilt it constantly and a stale slot would have handed one
        // shape the other's pruning table. Interleaved queries must match
        // what a fresh searcher (one shape only) produces, bit for bit.
        let data = corpus(20);
        let build = || {
            Searcher::builder(PipelineConfig::cosine(0.7))
                .composition(Composition::new(LshBanding, Bayes))
                .build(corpus(20))
                .unwrap()
        };
        let _ = data;
        let interleaved = build();
        let shapes = [0.7f64, 0.5, 0.7, 0.5, 0.9, 0.7];
        let queries: Vec<SparseVector> = (0..6)
            .map(|i| interleaved.data().vector(i * 7).clone())
            .collect();
        for (q, &t) in queries.iter().zip(&shapes) {
            let got = interleaved.query(q, t).unwrap();
            // Top-k in between changes the access pattern (different
            // pruning machinery, same searcher state).
            interleaved.top_k(q, 3, &KnnParams::default()).unwrap();
            let fresh = build();
            let expect = fresh.query(q, t).unwrap();
            assert_eq!(got.neighbors.len(), expect.neighbors.len());
            for (a, b) in got.neighbors.iter().zip(&expect.neighbors) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "threshold {t}");
            }
            assert_eq!(got.stats, expect.stats, "threshold {t}");
        }
        // Every distinct shape stays memoized instead of thrashing.
        assert_eq!(interleaved.minmatch_cache.len(), 3);
    }

    #[test]
    fn query_threshold_is_validated() {
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(corpus(10))
            .unwrap();
        let q = s.data().vector(0).clone();
        assert!(s.query(&q, 0.0).is_err());
        assert!(s.query(&q, 1.2).is_err());
        assert!(s.query(&q, 1.0).is_ok());
    }

    #[test]
    fn concurrent_queries_match_serial_results() {
        // `query` through `&self`: many threads sharing one searcher must
        // each get the serial answer, on both the eager (read-only) and
        // lazy (write-locked ensure) paths.
        for mode in [HashMode::Eager, HashMode::Lazy] {
            let s = Searcher::builder(PipelineConfig::cosine(0.5))
                .composition(Composition::new(LshBanding, Bayes))
                .hash_mode(mode)
                .build(corpus(21))
                .unwrap();
            let queries: Vec<SparseVector> =
                (0..8).map(|i| s.data().vector(i * 7).clone()).collect();
            let serial: Vec<Vec<(u32, f64)>> = queries
                .iter()
                .map(|q| s.query(q, 0.5).unwrap().neighbors)
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|q| scope.spawn(|| s.query(q, 0.5).unwrap().neighbors))
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    assert_eq!(
                        h.join().unwrap(),
                        serial[i],
                        "{mode:?} concurrent query {i} diverged from serial"
                    );
                }
            });
        }
    }

    #[test]
    fn empty_vector_insert_is_inert_but_removable() {
        // An empty vector takes an id but is never hashed or indexed: it
        // must not surface from queries, top_k, or all_pairs, must survive
        // a snapshot round-trip, and must be removable.
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(Composition::new(LshBanding, Bayes))
            .build(corpus(31))
            .unwrap();
        let id = s.insert(SparseVector::empty()).unwrap();
        assert_eq!(id as usize, s.len() - 1);
        assert_eq!(s.data().vector(id).nnz(), 0);

        let probe = s.data().vector(0).clone();
        let out = s.query(&probe, 0.7).unwrap();
        assert!(out.neighbors.iter().all(|&(got, _)| got != id));
        let top = s.top_k(&probe, s.len(), &KnnParams::default()).unwrap();
        assert!(top.neighbors.iter().all(|&(got, _)| got != id));
        let pairs = s.all_pairs().unwrap();
        assert!(pairs.pairs.iter().all(|&(a, b, _)| a != id && b != id));

        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Searcher::load(&buf[..]).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.data().vector(id).nnz(), 0);
        let reloaded = loaded.query(&probe, 0.7).unwrap();
        assert_eq!(reloaded.neighbors, out.neighbors);

        assert!(s.remove(id).unwrap());
        assert_eq!(s.compact(), 1);
        assert_eq!(s.len(), loaded.len(), "compaction keeps ids stable");
    }

    #[test]
    fn remove_then_compact_round_trips_through_snapshot() {
        let mut s = Searcher::builder(PipelineConfig::cosine(0.5))
            .composition(Composition::new(LshBanding, Bayes))
            .build(corpus(41))
            .unwrap();
        let victim = 13u32;
        let probe = s.data().vector(victim).clone();
        assert!(s
            .query(&probe, 0.99)
            .unwrap()
            .neighbors
            .iter()
            .any(|&(got, _)| got == victim));

        assert!(s.remove(victim).unwrap());
        assert!(!s.remove(victim).unwrap(), "double remove is a no-op");
        assert!(s.is_removed(victim));
        assert_eq!(s.pending_removals(), 1);
        assert!(matches!(
            s.remove(s.len() as u32).unwrap_err(),
            SearchError::InvalidConfig { param: "id", .. }
        ));

        // Tombstoned: hidden from every read path, but not yet persistable.
        assert!(s
            .query(&probe, 0.2)
            .unwrap()
            .neighbors
            .iter()
            .all(|&(got, _)| got != victim));
        assert!(s
            .top_k(&probe, s.len(), &KnnParams::default())
            .unwrap()
            .neighbors
            .iter()
            .all(|&(got, _)| got != victim));
        assert!(s
            .all_pairs()
            .unwrap()
            .pairs
            .iter()
            .all(|&(a, b, _)| a != victim && b != victim));
        let err = s.save(&mut Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("compact"),
            "save must demand compaction"
        );

        // Compaction rewrites index + pool; results are unchanged and the
        // snapshot round-trips bit-identically.
        let before = s.query(&probe, 0.2).unwrap().neighbors;
        assert_eq!(s.compact(), 1);
        assert_eq!(s.pending_removals(), 0);
        assert_eq!(s.len(), corpus(41).len(), "ids stay stable after compact");
        assert_eq!(s.query(&probe, 0.2).unwrap().neighbors, before);

        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Searcher::load(&buf[..]).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.query(&probe, 0.2).unwrap().neighbors, before);
        assert!(loaded
            .all_pairs()
            .unwrap()
            .pairs
            .iter()
            .all(|&(a, b, _)| a != victim && b != victim));
    }
}
