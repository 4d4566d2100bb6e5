//! The traced replay: the program's layers driven one public call at a
//! time, in the order `Searcher` and `ShardedSearcher` make those calls,
//! with a span around each call so every layer is timed from outside.
//!
//! [`Replica`] rebuilds the signature pool (`lsh`) and the banding index
//! (`candgen`) exactly as `SearcherBuilder::build` does, and answers joins,
//! threshold queries and top-k queries through the same pool, index and
//! verifier calls `Searcher` makes inside. The harness compares every
//! replayed answer with the program's bit for bit, so a replay that
//! drifted from the program shows as a failed check rather than as a
//! wrong attribution.
//!
//! Only what the workloads use is mirrored: cosine similarity,
//! single-probe banding and the BayesLSH verifier. The harness takes the
//! point-query scans' time from the program's own wall (see `crate::run`)
//! and uses the replayed scans for the equality checks and the
//! attribution sum.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use bayeslsh_candgen::{BandingIndex, BandingPlan};
use bayeslsh_core::{
    candidate_ids, merge_query_outputs, Composition, ConcentrationCache, CosineModel, EngineStats,
    HashMode, KnnParams, KnnStats, MinMatchCache, MinMatchTable, PipelineConfig, PosteriorModel,
    QueryOutput, QueryStats, SearchContext, Searcher, SigPool, TopKOutput, VerifierKind,
};
use bayeslsh_lsh::SignaturePool;
use bayeslsh_numeric::fan_out;
use bayeslsh_shard::ShardedSearcher;
use bayeslsh_sparse::{cosine, Dataset, SparseVector};

use crate::trace::Tracer;

/// The program's `lsh` and `candgen` state, rebuilt from public parts.
#[derive(Debug, Clone)]
pub struct Replica {
    data: Dataset,
    cfg: PipelineConfig,
    composition: Composition,
    threads: usize,
    plan: BandingPlan,
    /// The signature pool (`lsh`).
    pub pool: SigPool,
    /// The banding index (`candgen`).
    pub index: BandingIndex,
    minmatch: MinMatchCache,
    /// Query signature bits hashed so far, re-hashes included.
    pub query_bits: u64,
}

impl Replica {
    /// Mirror `SearcherBuilder::build` for the searcher `like`: hash the
    /// corpus (`lsh.build_hash`), index it (`candgen.index_build`) and,
    /// for eager searchers, materialize the query bank (`lsh.build_hash`).
    pub fn build(tr: &mut Tracer, data: Dataset, like: &Searcher) -> Replica {
        let cfg = *like.config();
        let composition = like.composition();
        assert!(
            composition.verifier == VerifierKind::Bayes,
            "the replay mirrors the BayesLSH verifier only"
        );
        let threads = like.threads();
        let plan = cfg.banding_plan();
        let eager = like.hash_mode() == HashMode::Eager;
        let banding_depth = plan.params.total_hashes();
        let sig_depth = if eager {
            banding_depth.max(composition.verifier.signature_depth(&cfg))
        } else {
            banding_depth
        };
        let ids: Vec<u32> = data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        let mut pool = tr.span("lsh.build_hash", |_| {
            let mut pool = SigPool::for_config(&cfg, &data);
            pool.depth_hint(sig_depth);
            pool.par_ensure_ids(&data, &ids, sig_depth, threads);
            pool
        });
        let index = tr.span("candgen.index_build", |_| {
            BandingIndex::par_build(plan.params, &ids, threads, |id, band| {
                pool.band_key(id, band, plan.params)
            })
        });
        if eager {
            tr.span("lsh.build_hash", |_| pool.prepare_query(sig_depth, threads));
        }
        Replica {
            data,
            cfg,
            composition,
            threads,
            plan,
            pool,
            index,
            minmatch: MinMatchCache::new(),
            query_bits: 0,
        }
    }

    /// Corpus hashes computed so far (the program's `Searcher::hash_count`).
    pub fn hash_count(&self) -> u64 {
        self.pool.total_hashes()
    }

    /// Hash bits of one threshold-query signature.
    fn query_depth(&self) -> u32 {
        let scan_cap = self.composition.verifier.signature_depth(&self.cfg);
        self.plan.params.total_hashes().max(scan_cap)
    }

    /// Mirror `Searcher::all_pairs` under LSH banding, on `pool` (a copy
    /// of the build-time pool, since lazy verification deepens it):
    /// enumerate the standing index's bucket pairs (`candgen.enumerate`),
    /// deepen the candidates' signatures to the verifier's scan depth
    /// (`lsh.lazy_hash`; the parallel verifiers do this first, and the
    /// serial ones interleave it with verification), then verify
    /// (`verify.batch`). Returns the pairs in canonical order, the
    /// candidate count and the verifier's statistics.
    pub fn all_pairs(
        &self,
        tr: &mut Tracer,
        pool: &mut SigPool,
    ) -> (Vec<(u32, u32, f64)>, u64, Option<EngineStats>) {
        let candidates = tr.span("candgen.enumerate", |_| {
            self.index.par_all_pairs(self.threads)
        });
        if self.threads > 1 {
            let depth = self.composition.verifier.signature_depth(&self.cfg);
            tr.span("lsh.lazy_hash", |_| {
                let ids = candidate_ids(&candidates, self.data.len());
                pool.par_ensure_ids(&self.data, &ids, depth, self.threads);
            });
        }
        let (pairs, engine) = tr.span("verify.batch", |_| {
            let mut ctx = SearchContext {
                data: &self.data,
                cfg: &self.cfg,
                pool,
                index: Some(&self.index),
            };
            let (mut pairs, engine) = self
                .composition
                .verifier
                .instantiate()
                .verify(&mut ctx, &candidates);
            pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
            (pairs, engine)
        });
        (pairs, candidates.len() as u64, engine)
    }

    fn hash_query(
        &mut self,
        tr: &mut Tracer,
        q: &SparseVector,
        depth: u32,
        ready: bool,
    ) -> Vec<u32> {
        self.query_bits += u64::from(depth);
        let (pool, threads) = (&mut self.pool, self.threads);
        tr.span("lsh.query_hash", |_| {
            if ready {
                pool.hash_query_ready(q, depth, threads)
            } else if threads > 1 {
                pool.hash_query_par(q, depth, threads)
            } else {
                pool.hash_query(q, depth)
            }
        })
    }

    fn probe(&self, tr: &mut Tracer, sig: &[u32]) -> Vec<u32> {
        assert!(
            self.cfg.probes <= 1,
            "the replay mirrors single-probe banding only"
        );
        tr.span("candgen.probe", |_| {
            let keys = self.pool.query_band_keys(sig, self.plan.params);
            self.index.par_probe(&keys, self.threads)
        })
    }

    /// Hash and probe as `Searcher::query` and `Searcher::top_k` do: on
    /// the read-only path when the pool already covers the query depth
    /// and every candidate's signature covers `scan_cap`, otherwise again
    /// on the lazily-deepening path.
    fn hash_and_probe(
        &mut self,
        tr: &mut Tracer,
        q: &SparseVector,
        depth: u32,
        scan_cap: u32,
    ) -> (Vec<u32>, Vec<u32>, bool) {
        if self.pool.query_ready(depth) {
            let sig = self.hash_query(tr, q, depth, true);
            let cands = self.probe(tr, &sig);
            if cands.iter().all(|&id| self.pool.len(id) >= scan_cap) {
                return (sig, cands, true);
            }
        }
        let sig = self.hash_query(tr, q, depth, false);
        let cands = self.probe(tr, &sig);
        (sig, cands, false)
    }

    /// Mirror `Searcher::query`: hash, probe, then the verifier's scan
    /// (`verify.query`).
    pub fn query(&mut self, tr: &mut Tracer, q: &SparseVector, t: f64) -> QueryOutput {
        let mut stats = QueryStats::default();
        if q.is_empty() || self.data.is_empty() {
            return QueryOutput {
                neighbors: Vec::new(),
                stats,
            };
        }
        let scan_cap = self.composition.verifier.signature_depth(&self.cfg);
        let (sig, cands, _) = self.hash_and_probe(tr, q, self.query_depth(), scan_cap);
        stats.candidates = cands.len() as u64;
        stats.bucket_probes = self.plan.params.l as u64;
        tr.span("verify.query", |tr| {
            self.verify_query(tr, t, &sig, &cands, stats)
        })
    }

    /// BayesLSH's point-query scan, as the program runs it at the
    /// replica's thread count: the parallel scan deepens every candidate
    /// to the scan cap first (`lsh.lazy_hash`) and merges candidate-order
    /// chunks; the serial scan deepens only the candidates still alive,
    /// one chunk at a time, inside the scan (so inside `verify.query`).
    /// The two answer bit for bit alike but leave the pool at different
    /// depths, which decides whether a later query takes the read-only
    /// path or hashes again.
    fn verify_query(
        &mut self,
        tr: &mut Tracer,
        t: f64,
        sig: &[u32],
        cands: &[u32],
        mut stats: QueryStats,
    ) -> QueryOutput {
        let k = self.cfg.k;
        let max_chunks = (self.cfg.max_hashes / k).max(1);
        let table =
            self.minmatch
                .get_or_build(&CosineModel::new(), t, self.cfg.epsilon, k, max_chunks * k);
        let (pool, data, threads) = (&mut self.pool, &self.data, self.threads);
        let (delta, gamma) = (self.cfg.delta, self.cfg.gamma);
        let parts = if threads > 1 {
            if cands.iter().any(|&id| pool.len(id) < max_chunks * k) {
                tr.span("lsh.lazy_hash", |_| {
                    pool.par_ensure_ids(data, cands, max_chunks * k, threads)
                });
            }
            let pool = &*pool;
            fan_out(cands.len(), threads, |_, range| {
                let mut cache = ConcentrationCache::new(delta, gamma);
                let count = |ids: &[u32], lo, hi, out: &mut Vec<u32>| {
                    pool.query_agreements_batched(sig, ids, lo, hi, out)
                };
                scan(count, &cands[range], k, max_chunks, &table, &mut cache)
            })
        } else {
            let mut cache = ConcentrationCache::new(delta, gamma);
            let count = |ids: &[u32], lo, hi, out: &mut Vec<u32>| {
                for &id in ids {
                    pool.ensure(id, data.vector(id), hi);
                }
                pool.query_agreements_batched(sig, ids, lo, hi, out)
            };
            vec![scan(count, cands, k, max_chunks, &table, &mut cache)]
        };
        let mut neighbors = Vec::new();
        for (found, local) in parts {
            neighbors.extend(found);
            stats.pruned += local.pruned;
            stats.hash_comparisons += local.hash_comparisons;
        }
        neighbors.sort_by(by_similarity);
        QueryOutput { neighbors, stats }
    }

    /// Mirror `Searcher::top_k`: hash and probe, then the sequential
    /// rising-threshold scan (`verify.topk_scan`).
    pub fn top_k(
        &mut self,
        tr: &mut Tracer,
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> TopKOutput {
        let mut stats = KnnStats::default();
        if q.is_empty() || self.data.is_empty() {
            return TopKOutput {
                neighbors: Vec::new(),
                stats,
            };
        }
        let scan_cap = (params.h / params.chunk) * params.chunk;
        let depth = self.plan.params.total_hashes().max(scan_cap);
        let (sig, cands, _) = self.hash_and_probe(tr, q, depth, scan_cap);
        stats.candidates = cands.len() as u64;
        let neighbors = tr.span("verify.topk_scan", |tr| {
            self.top_k_scan(tr, q, &sig, &cands, k, params, &mut stats)
        });
        TopKOutput { neighbors, stats }
    }

    #[allow(clippy::too_many_arguments)]
    fn top_k_scan(
        &mut self,
        tr: &mut Tracer,
        q: &SparseVector,
        sig: &[u32],
        cands: &[u32],
        k: usize,
        params: &KnnParams,
        stats: &mut KnnStats,
    ) -> Vec<(u32, f64)> {
        let (pool, data, threads) = (&mut self.pool, &self.data, self.threads);
        let chunk = params.chunk;
        tr.span("lsh.lazy_hash", |_| {
            if threads > 1 {
                pool.par_ensure_ids(data, cands, chunk, threads);
            } else {
                for &id in cands {
                    pool.ensure(id, data.vector(id), chunk);
                }
            }
        });
        let mut first = Vec::new();
        pool.query_agreements_batched(sig, cands, 0, chunk, &mut first);
        let model = CosineModel::new();
        let max_chunks = params.h / chunk;
        let mut heap: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::with_capacity(k + 1);
        let mut kth_best = params.floor;
        for (idx, &id) in cands.iter().enumerate() {
            let prune_below = kth_best;
            let prune = |m, n| model.prob_above_threshold(m, n, prune_below) < params.epsilon;
            let (mut m, mut n) = (first[idx], chunk);
            let mut pruned = prune(m, n);
            for _ in 1..max_chunks {
                if pruned {
                    break;
                }
                pool.ensure(id, data.vector(id), n + chunk);
                m += pool.query_agreements(sig, id, n, n + chunk);
                n += chunk;
                pruned = prune(m, n);
            }
            stats.hash_comparisons += n as u64;
            if pruned {
                stats.pruned += 1;
                continue;
            }
            stats.exact += 1;
            let s = cosine(q, data.vector(id));
            if heap.len() < k {
                heap.push(Reverse(HeapItem(s, id)));
            } else if heap.peek().is_some_and(|top| s > top.0 .0) {
                heap.pop();
                heap.push(Reverse(HeapItem(s, id)));
            }
            if heap.len() == k {
                if let Some(top) = heap.peek() {
                    kth_best = top.0 .0.max(params.floor);
                }
            }
        }
        let mut neighbors: Vec<(u32, f64)> = heap
            .into_iter()
            .map(|Reverse(HeapItem(s, id))| (id, s))
            .collect();
        neighbors.sort_by(by_similarity);
        neighbors
    }
}

/// Decreasing similarity, ties toward the lower id: the order every
/// `Searcher` answer is sorted in.
pub fn by_similarity(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// One worker's share of a BayesLSH threshold-query scan over `ids`: per
/// chunk of `k` hashes, count agreements for the candidates still
/// undecided, then prune, accept with the posterior estimate, or go on.
/// Candidates still unconcentrated at the cap are accepted with their
/// current estimate.
///
/// `count(alive_ids, lo, hi, counts)` fills `counts` with each alive
/// candidate's agreements with the query over hashes `lo..hi`.
fn scan(
    mut count: impl FnMut(&[u32], u32, u32, &mut Vec<u32>),
    ids: &[u32],
    k: u32,
    max_chunks: u32,
    table: &MinMatchTable,
    cache: &mut ConcentrationCache,
) -> (Vec<(u32, f64)>, QueryStats) {
    let model = CosineModel::new();
    let mut stats = QueryStats::default();
    let mut m = vec![0u32; ids.len()];
    let mut estimate: Vec<Option<f64>> = vec![None; ids.len()];
    let mut alive: Vec<usize> = (0..ids.len()).collect();
    let (mut alive_ids, mut counts) = (Vec::new(), Vec::new());
    let mut n = 0u32;
    for _ in 0..max_chunks {
        if alive.is_empty() {
            break;
        }
        alive_ids.clear();
        alive_ids.extend(alive.iter().map(|&r| ids[r]));
        count(&alive_ids, n, n + k, &mut counts);
        n += k;
        stats.hash_comparisons += k as u64 * alive.len() as u64;
        let mut kept = 0;
        for idx in 0..alive.len() {
            let r = alive[idx];
            m[r] += counts[idx];
            if table.should_prune(m[r], n) {
                stats.pruned += 1;
            } else if cache.is_concentrated(&model, m[r], n) {
                estimate[r] = Some(model.map_estimate(m[r], n));
            } else {
                alive[kept] = r;
                kept += 1;
            }
        }
        alive.truncate(kept);
    }
    for &r in &alive {
        estimate[r] = Some(model.map_estimate(m[r], n));
    }
    let found = ids
        .iter()
        .zip(estimate)
        .filter_map(|(&id, s)| s.map(|s| (id, s)))
        .collect();
    (found, stats)
}

/// The top-k heap entry: ordered by similarity, then id, exactly as the
/// program's, so ties resolve the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem(f64, u32);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The router's scatter-gather, replayed: each shard's threshold query
/// through that shard's own [`Replica`], nested in `shard.fanout`, then
/// the id remap and merge (`shard.merge`). The fan-out span's self time is
/// the routing alone; each shard's hashing, probing and scan land in
/// their layers.
#[derive(Debug)]
pub struct ShardReplay {
    /// `globals[shard][local]` = global id, replayed from the manifest's
    /// partition function.
    globals: Vec<Vec<u32>>,
    /// One replica per shard, rebuilt from the shard's loaded searcher.
    shards: Vec<Replica>,
}

impl ShardReplay {
    /// Replay the partition of `sharded`'s current generation and rebuild
    /// each shard's layers (untimed: this is harness set-up).
    ///
    /// # Errors
    ///
    /// A description when a shard cannot be reached.
    pub fn new(sharded: &ShardedSearcher) -> Result<ShardReplay, String> {
        let generation = sharded.generation();
        let manifest = generation.manifest();
        let n_shards = manifest.shard_count();
        let mut globals = vec![Vec::new(); n_shards];
        for global in 0..manifest.n_total as u32 {
            globals[manifest.partition.shard_of(global, n_shards)].push(global);
        }
        let mut untimed = Tracer::default();
        let shards = (0..n_shards)
            .map(|s| {
                generation
                    .with_searcher(s, |sr| Replica::build(&mut untimed, sr.data().clone(), sr))
                    .map_err(|e| format!("shard {s}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(ShardReplay { globals, shards })
    }

    /// Query signature bits the shard replicas hashed so far.
    pub fn query_bits(&self) -> u64 {
        self.shards.iter().map(|r| r.query_bits).sum()
    }

    /// Mirror `ShardedSearcher::query`.
    ///
    /// # Errors
    ///
    /// A description when a shard cannot be reached.
    pub fn query(
        &mut self,
        tr: &mut Tracer,
        sharded: &ShardedSearcher,
        q: &SparseVector,
        t: f64,
    ) -> Result<QueryOutput, String> {
        let parts = tr.span("shard.fanout", |tr| {
            let generation = sharded.generation();
            self.shards
                .iter_mut()
                .enumerate()
                .map(|(s, replica)| {
                    generation
                        .with_searcher(s, |_| replica.query(tr, q, t))
                        .map_err(|e| format!("shard {s}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(tr.span("shard.merge", |_| {
            let mut parts = parts;
            for (s, part) in parts.iter_mut().enumerate() {
                let globals = &self.globals[s];
                part.remap_ids(|local| globals[local as usize]);
            }
            merge_query_outputs(parts)
        }))
    }
}
