//! The verification loop: one chunk-major scan driver for every verifier.
//!
//! The paper's Algorithms 1 and 2, the classical fixed-`n` MLE, the SPRT
//! verifier and exact verification are one loop with different stopping
//! rules: compare the next `k` hashes of every still-undecided candidate,
//! then let a `DecisionRule` prune it, accept it with an estimate, or
//! keep it going. At the hash cap the rule's fallback settles whoever is
//! left: BayesLSH force-accepts with its MAP estimate, Lite and SPRT run
//! one exact similarity check, MLE (a single chunk of its fixed depth)
//! keeps a pair whose estimate clears the threshold, and exact
//! verification has no chunks at all.
//!
//! `scan` is that loop. It takes an alive set, a rule and a closure that
//! counts agreements, so it serves every caller: batch runs (a probe
//! against its partners, through [`SignaturePool::agreements_batched`]),
//! threshold queries (the query signature against its candidates), serial
//! scans that deepen signatures lazily, and the read-only parallel fan-outs
//! of [`crate::parallel`]. Rules are generic parameters, so the
//! per-candidate loop is monomorphized per rule and makes no `dyn` call;
//! the pruning tests are [`MinMatchTable`] / [`SprtTable`] lookups and
//! concentration checks go through the [`ConcentrationCache`] (the paper's
//! Section 4.3 optimizations).
//!
//! Every verdict is a pure function of a candidate's cumulative `(m, n)`
//! at a chunk boundary, so how candidates are grouped into alive sets and
//! split across workers moves no decision.

use bayeslsh_lsh::SignaturePool;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::cache::ConcentrationCache;
use crate::config::{BayesLshConfig, LiteConfig, SprtConfig};
use crate::minmatch::MinMatchTable;
use crate::posterior::PosteriorModel;
use crate::sprt::SprtTable;

/// Counters describing one verification run; the source of the paper's
/// Figure 4 pruning curves and the cache/hashing cost discussion.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Candidate pairs fed in.
    pub input_pairs: u64,
    /// Pairs pruned by the posterior-tail test.
    pub pruned: u64,
    /// Pairs emitted (with estimates, or exact-verified for Lite).
    pub accepted: u64,
    /// Full-BayesLSH pairs that hit `max_hashes` without reaching
    /// concentration (emitted anyway with their current estimate).
    pub forced_accepts: u64,
    /// Exact similarity computations (Lite only).
    pub exact_verifications: u64,
    /// Total per-pair hash comparisons performed.
    pub hash_comparisons: u64,
    /// Chunk size used.
    pub k: u32,
    /// `pruned_at_chunk[c]` = pairs pruned after examining `(c+1)·k` hashes.
    pub pruned_at_chunk: Vec<u64>,
    /// Concentration cache (hits, misses).
    pub cache_hits: u64,
    /// See [`EngineStats::cache_hits`].
    pub cache_misses: u64,
    /// Bucket lookups performed by the candidate-generation stage (1 per
    /// band for single-probe queries, more under step-wise multi-probe).
    /// 0 for batch joins, which enumerate buckets instead of probing them.
    pub bucket_probes: u64,
}

impl EngineStats {
    /// Empty counters for a scan of `input_pairs` candidates under `rule`.
    pub(crate) fn for_rule<R: DecisionRule>(input_pairs: usize, rule: &R) -> Self {
        EngineStats {
            input_pairs: input_pairs as u64,
            k: rule.chunk(),
            pruned_at_chunk: vec![0; rule.max_chunks() as usize],
            ..Default::default()
        }
    }

    /// Fold another run's counters into this one (used by the parallel
    /// drivers to merge per-worker statistics; `input_pairs` and `k` are
    /// set by the caller, `pruned_at_chunk` adds elementwise up to the
    /// shorter length).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.pruned += other.pruned;
        self.accepted += other.accepted;
        self.forced_accepts += other.forced_accepts;
        self.exact_verifications += other.exact_verifications;
        self.hash_comparisons += other.hash_comparisons;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bucket_probes += other.bucket_probes;
        for (dst, src) in self.pruned_at_chunk.iter_mut().zip(&other.pruned_at_chunk) {
            *dst += src;
        }
    }

    /// Hash comparisons spent per accepted pair — the verification-cost
    /// metric the adaptive (SPRT) verifier optimizes. 0.0 when nothing was
    /// accepted.
    pub fn hashes_per_accepted_pair(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.hash_comparisons as f64 / self.accepted as f64
        }
    }

    /// The Figure 4 curve: `(hashes examined, candidates not yet pruned)`,
    /// starting from the full input set. Accepted pairs count as remaining
    /// (they survive into the output).
    pub fn survivors_curve(&self) -> Vec<(u32, u64)> {
        let mut remaining = self.input_pairs;
        let mut curve = Vec::with_capacity(self.pruned_at_chunk.len() + 1);
        curve.push((0, remaining));
        for (c, &p) in self.pruned_at_chunk.iter().enumerate() {
            remaining -= p;
            curve.push(((c as u32 + 1) * self.k, remaining));
        }
        curve
    }
}

/// A rule's verdict on one candidate at a chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// Drop the candidate (counted as pruned at this chunk).
    Prune,
    /// Emit the candidate with this similarity estimate.
    Accept(f64),
    /// Compare the next chunk.
    Continue,
}

/// What happens to a candidate still undecided at the hash cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cap {
    /// Emit it with this estimate (counted as a forced accept).
    Accept(f64),
    /// Settle it with one exact similarity against the rule's threshold.
    Exact,
    /// Drop it without counting a prune.
    Reject,
}

/// A sequential stopping rule over one candidate's agreement stream:
/// after each chunk of `chunk()` hashes it sees the cumulative agreements
/// `m` out of `n` compared hashes and decides. `&mut self` lets a rule
/// memoize (BayesLSH's concentration cache); parallel scans give each
/// worker its own clone.
pub(crate) trait DecisionRule {
    /// Hashes compared per chunk.
    fn chunk(&self) -> u32;

    /// Chunks before the cap (0 for exact verification).
    fn max_chunks(&self) -> u32;

    /// The threshold an exact fallback check compares against.
    fn threshold(&self) -> f64;

    /// The verdict after `m` agreements in the first `n` hashes (by
    /// default, keep comparing).
    fn step(&mut self, m: u32, n: u32) -> Step {
        let _ = (m, n);
        Step::Continue
    }

    /// The fallback for a candidate still undecided after `max_chunks()`
    /// (by default, one exact check).
    fn at_cap(&mut self, m: u32, n: u32) -> Cap {
        let _ = (m, n);
        Cap::Exact
    }

    /// The deepest signature the rule reads: `chunk() · max_chunks()`.
    fn depth(&self) -> u32 {
        self.chunk() * self.max_chunks()
    }

    /// True when every scanned signature reaches [`DecisionRule::depth`]
    /// (no early exit), so a lazily-extending pool can reserve it up
    /// front.
    fn uniform_depth(&self) -> bool {
        false
    }

    /// Concentration-cache (hits, misses), for rules that keep one.
    fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Exact verification: no hash is compared; every candidate is settled by
/// its exact similarity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExactRule {
    pub t: f64,
}

impl DecisionRule for ExactRule {
    fn chunk(&self) -> u32 {
        1
    }

    fn max_chunks(&self) -> u32 {
        0
    }

    fn threshold(&self) -> f64 {
        self.t
    }
}

/// The classical fixed-`n` MLE ("LSH Approx", paper Section 3): one chunk
/// of `n` hashes, no pruning, and a pair is kept when `estimate(m/n)`
/// clears `t`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MleRule<E> {
    pub n: u32,
    pub t: f64,
    pub estimate: E,
}

impl<E: Fn(f64) -> f64> DecisionRule for MleRule<E> {
    fn chunk(&self) -> u32 {
        self.n
    }

    fn max_chunks(&self) -> u32 {
        1
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn at_cap(&mut self, m: u32, n: u32) -> Cap {
        let s_hat = (self.estimate)(m as f64 / n as f64);
        if s_hat >= self.t {
            Cap::Accept(s_hat)
        } else {
            Cap::Reject
        }
    }

    fn uniform_depth(&self) -> bool {
        true
    }
}

/// BayesLSH (paper Algorithm 1): prune once `Pr[S ≥ t] < ε` (a
/// [`MinMatchTable`] lookup), accept with the MAP estimate once it is
/// `(δ, γ)`-concentrated, and at the cap emit the current estimate anyway
/// (which preserves the recall guarantee).
#[derive(Debug, Clone)]
pub(crate) struct BayesRule<'a, M> {
    pub model: &'a M,
    pub table: &'a MinMatchTable,
    pub cache: ConcentrationCache,
    pub t: f64,
    pub max_chunks: u32,
}

impl<M: PosteriorModel> DecisionRule for BayesRule<'_, M> {
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.max_chunks
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else if self.cache.is_concentrated(self.model, m, n) {
            Step::Accept(self.model.map_estimate(m, n))
        } else {
            Step::Continue
        }
    }

    fn at_cap(&mut self, m: u32, n: u32) -> Cap {
        Cap::Accept(self.model.map_estimate(m, n))
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

/// BayesLSH-Lite (paper Algorithm 2): prune with the same table for at most
/// `max_chunks` chunks, then verify survivors exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiteRule<'a> {
    pub table: &'a MinMatchTable,
    pub t: f64,
    pub max_chunks: u32,
}

impl DecisionRule for LiteRule<'_> {
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.max_chunks
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else {
            Step::Continue
        }
    }
}

/// SPRT: per-chunk early-prune and early-accept boundaries from an
/// [`SprtTable`] (accepting with `estimate(m/n)`, the agreement fraction
/// mapped back to the similarity space), and one exact check for pairs
/// still inside the indifference region at the cap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SprtRule<'a, E> {
    pub table: &'a SprtTable,
    pub estimate: E,
    pub t: f64,
    pub max_chunks: u32,
}

impl<E: Fn(f64) -> f64> DecisionRule for SprtRule<'_, E> {
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.max_chunks
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else if self.table.should_accept(m, n) {
            Step::Accept((self.estimate)(m as f64 / n as f64))
        } else {
            Step::Continue
        }
    }
}

/// Where one alive-set member stands.
#[derive(Debug, Clone, Copy, Default)]
enum Verdict {
    /// Still scanning; after the scan, waiting for its exact check.
    #[default]
    Pending,
    /// Dropped.
    Dropped,
    /// Emitted with this similarity.
    Emit(f64),
}

/// Reusable buffers for [`scan`], so steady-state verification performs no
/// per-pair allocation.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Offsets (into the alive set) of members not yet decided.
    alive: Vec<u32>,
    /// Ids of `alive`, in step: the batched count's id list.
    alive_ids: Vec<u32>,
    /// Per-chunk agreement counts, in step with `alive`.
    counts: Vec<u32>,
    /// Cumulative agreements per member.
    m: Vec<u32>,
    /// Verdict per member, emitted in `ids` order after the scan.
    verdicts: Vec<Verdict>,
}

/// The scan driver: decide every id of one alive set under `rule`.
///
/// Per chunk, `count(alive_ids, lo, hi, out)` writes the agreements in
/// hash positions `lo..hi` of each still-undecided id (a lazy caller
/// deepens those signatures first), and the rule prunes, accepts or keeps
/// each one. At the cap the rule's fallback decides the rest; `exact(id)`
/// supplies an exact similarity when the fallback asks for one. Survivors
/// reach `emit(id, similarity)` in `ids` order, and `stats` collects the
/// counters.
pub(crate) fn scan<R: DecisionRule>(
    rule: &mut R,
    ids: &[u32],
    scratch: &mut Scratch,
    stats: &mut EngineStats,
    mut count: impl FnMut(&[u32], u32, u32, &mut Vec<u32>),
    mut exact: impl FnMut(u32) -> f64,
    mut emit: impl FnMut(u32, f64),
) {
    let Scratch {
        alive,
        alive_ids,
        counts,
        m: matches,
        verdicts,
    } = scratch;
    alive.clear();
    alive.extend(0..ids.len() as u32);
    matches.clear();
    matches.resize(ids.len(), 0);
    verdicts.clear();
    verdicts.resize(ids.len(), Verdict::Pending);
    let k = rule.chunk();
    let mut n = 0u32;
    for c in 0..rule.max_chunks() as usize {
        if alive.is_empty() {
            break;
        }
        alive_ids.clear();
        alive_ids.extend(alive.iter().map(|&r| ids[r as usize]));
        count(alive_ids, n, n + k, counts);
        n += k;
        stats.hash_comparisons += k as u64 * alive.len() as u64;
        let mut kept = 0usize;
        for t in 0..alive.len() {
            let r = alive[t] as usize;
            let m = matches[r] + counts[t];
            matches[r] = m;
            match rule.step(m, n) {
                Step::Prune => {
                    stats.pruned += 1;
                    stats.pruned_at_chunk[c] += 1;
                    verdicts[r] = Verdict::Dropped;
                }
                Step::Accept(s) => {
                    stats.accepted += 1;
                    verdicts[r] = Verdict::Emit(s);
                }
                Step::Continue => {
                    alive[kept] = r as u32;
                    kept += 1;
                }
            }
        }
        alive.truncate(kept);
    }
    for &r in alive.iter() {
        let r = r as usize;
        match rule.at_cap(matches[r], n) {
            Cap::Accept(s) => {
                stats.accepted += 1;
                stats.forced_accepts += 1;
                verdicts[r] = Verdict::Emit(s);
            }
            Cap::Exact => {}
            Cap::Reject => verdicts[r] = Verdict::Dropped,
        }
    }
    for (&id, &verdict) in ids.iter().zip(verdicts.iter()) {
        match verdict {
            Verdict::Emit(s) => emit(id, s),
            Verdict::Pending => {
                stats.exact_verifications += 1;
                let s = exact(id);
                if s >= rule.threshold() {
                    stats.accepted += 1;
                    emit(id, s);
                }
            }
            Verdict::Dropped => {}
        }
    }
}

/// Length of the maximal run of candidates sharing `candidates[i].0`.
#[inline]
fn run_end(candidates: &[(u32, u32)], i: usize) -> usize {
    let a = candidates[i].0;
    let mut j = i + 1;
    while j < candidates.len() && candidates[j].0 == a {
        j += 1;
    }
    j
}

/// Scan a candidate list run-major: each maximal run of pairs sharing a
/// probe `a` (the shape both all-pairs and banding generation emit) is one
/// alive set, counted by `count(a, ids, lo, hi, out)`. Output is in
/// candidate order.
pub(crate) fn scan_runs<R: DecisionRule>(
    data: &Dataset,
    candidates: &[(u32, u32)],
    rule: &mut R,
    stats: &mut EngineStats,
    mut count: impl FnMut(u32, &[u32], u32, u32, &mut Vec<u32>),
    exact: &impl Fn(&SparseVector, &SparseVector) -> f64,
) -> Vec<(u32, u32, f64)> {
    let mut scratch = Scratch::default();
    let mut partners = Vec::new();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < candidates.len() {
        let j = run_end(candidates, i);
        let a = candidates[i].0;
        let va = data.vector(a);
        partners.clear();
        partners.extend(candidates[i..j].iter().map(|&(_, b)| b));
        scan(
            rule,
            &partners,
            &mut scratch,
            stats,
            |ids, lo, hi, counts| count(a, ids, lo, hi, counts),
            |b| exact(va, data.vector(b)),
            |b, s| out.push((a, b, s)),
        );
        i = j;
    }
    out
}

/// The serial batch scan: [`scan_runs`] over a pool that is deepened
/// lazily, one chunk at a time and only for ids that still have a live
/// pair — so a pair pruned at chunk `c` never costs a hash past `c·k`.
pub(crate) fn scan_serial<P: SignaturePool, R: DecisionRule>(
    data: &Dataset,
    pool: &mut P,
    candidates: &[(u32, u32)],
    mut rule: R,
    exact: &impl Fn(&SparseVector, &SparseVector) -> f64,
) -> (Vec<(u32, u32, f64)>, EngineStats) {
    if rule.uniform_depth() {
        pool.depth_hint(rule.depth());
    }
    let mut stats = EngineStats::for_rule(candidates.len(), &rule);
    let out = scan_runs(
        data,
        candidates,
        &mut rule,
        &mut stats,
        |a, ids, lo, hi, counts| {
            pool.ensure(a, data.vector(a), hi);
            for &b in ids {
                pool.ensure(b, data.vector(b), hi);
            }
            pool.agreements_batched(a, ids, lo, hi, counts);
        },
        exact,
    );
    (stats.cache_hits, stats.cache_misses) = rule.cache_stats();
    (out, stats)
}

/// The exact-similarity argument for rules that never fall back to one.
pub(crate) fn no_exact(_: &SparseVector, _: &SparseVector) -> f64 {
    unreachable!("this rule never asks for an exact check")
}

/// BayesLSH (paper Algorithm 1): prune or estimate every candidate pair.
///
/// Returns `(pair, Ŝ)` for every unpruned pair, plus run statistics. Note
/// the output is the paper's: a pair is kept whenever its probability of
/// being a true positive stays ≥ ε, even if the final estimate lands
/// slightly below `t`. Signatures are extended lazily through `pool`.
pub fn bayes_verify<P: SignaturePool, M: PosteriorModel>(
    data: &Dataset,
    pool: &mut P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &BayesLshConfig,
) -> (Vec<(u32, u32, f64)>, EngineStats) {
    cfg.validate();
    let max_chunks = (cfg.max_hashes / cfg.k).max(1);
    // No `depth_hint` here, deliberately: most signatures stay shallow
    // (pruned after a chunk or two), so front-loading the cap would reserve
    // ~max_chunks× the memory actually used.
    let table = MinMatchTable::build(model, cfg.threshold, cfg.epsilon, cfg.k, max_chunks * cfg.k);
    let rule = BayesRule {
        model,
        table: &table,
        cache: ConcentrationCache::new(cfg.delta, cfg.gamma),
        t: cfg.threshold,
        max_chunks,
    };
    scan_serial(data, pool, candidates, rule, &no_exact)
}

/// BayesLSH-Lite (paper Algorithm 2): prune with at most `h` hashes, verify
/// survivors exactly with `exact` and keep pairs with `s ≥ t`.
pub fn bayes_verify_lite<P, M, F>(
    data: &Dataset,
    pool: &mut P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &LiteConfig,
    exact: F,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool,
    M: PosteriorModel,
    F: Fn(&SparseVector, &SparseVector) -> f64,
{
    cfg.validate();
    let max_chunks = (cfg.h / cfg.k).max(1);
    let table = MinMatchTable::build(model, cfg.threshold, cfg.epsilon, cfg.k, max_chunks * cfg.k);
    let rule = LiteRule {
        table: &table,
        t: cfg.threshold,
        max_chunks,
    };
    scan_serial(data, pool, candidates, rule, &exact)
}

/// SPRT verification: a Wald sequential test over each pair's agreement
/// stream, with per-chunk early-accept *and* early-prune boundaries (see
/// [`SprtTable`]) and a bounded exact fallback for pairs still undecided at
/// `cfg.max_hashes` — so output quality is never worse than BayesLSH-Lite
/// while obviously-similar and obviously-junk pairs terminate after a
/// handful of chunks.
///
/// `collision` maps a similarity to the hash family's per-hash agreement
/// probability (`cos_to_r` for SRP bits, identity for minhashes),
/// `estimate` maps an agreement fraction back to the similarity space
/// (`r_to_cos` / identity), and `exact` computes the true similarity for
/// the fallback.
pub fn sprt_verify<P, F>(
    data: &Dataset,
    pool: &mut P,
    candidates: &[(u32, u32)],
    cfg: &SprtConfig,
    collision: impl Fn(f64) -> f64,
    estimate: impl Fn(f64) -> f64,
    exact: F,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool,
    F: Fn(&SparseVector, &SparseVector) -> f64,
{
    let table = SprtTable::build(cfg, collision);
    let rule = SprtRule {
        table: &table,
        estimate,
        t: cfg.threshold,
        max_chunks: (cfg.max_hashes / cfg.k).max(1),
    };
    scan_serial(data, pool, candidates, rule, &exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_model::CosineModel;
    use crate::jaccard_model::JaccardModel;
    use bayeslsh_lsh::{BitSignatures, IntSignatures, MinHasher, SrpHasher};
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::{cosine, jaccard};

    /// Clustered corpus with plenty of similar and dissimilar pairs.
    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(4000);
        for c in 0..12 {
            let center: Vec<(u32, f32)> = (0..40)
                .map(|_| {
                    (
                        (c * 300 + rng.next_below(280) as usize) as u32,
                        (rng.next_f64() + 0.2) as f32,
                    )
                })
                .collect();
            for _ in 0..6 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.15) {
                        *p = (rng.next_below(4000) as u32, (rng.next_f64() + 0.2) as f32);
                    }
                }
                d.push(bayeslsh_sparse::SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    fn all_pairs(n: u32) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                v.push((a, b));
            }
        }
        v
    }

    fn truth(
        data: &Dataset,
        t: f64,
        f: impl Fn(&bayeslsh_sparse::SparseVector, &bayeslsh_sparse::SparseVector) -> f64,
    ) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        for a in 0..data.len() as u32 {
            for b in (a + 1)..data.len() as u32 {
                let s = f(data.vector(a), data.vector(b));
                if s >= t {
                    out.push((a, b, s));
                }
            }
        }
        out
    }

    #[test]
    fn cosine_bayes_meets_recall_and_accuracy_contract() {
        let data = corpus(61);
        let t = 0.7;
        let cfg = BayesLshConfig::cosine(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 62), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);

        // Bookkeeping adds up.
        assert_eq!(stats.input_pairs, cands.len() as u64);
        assert_eq!(stats.pruned + stats.accepted, stats.input_pairs);

        let gt = truth(&data, t, cosine);
        assert!(gt.len() >= 30, "ground truth too small: {}", gt.len());

        // Recall: the paper reports ≥ ~96–99% at ε = 0.03.
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall} ({found}/{})", gt.len());

        // Estimate accuracy: most emitted estimates within δ of the truth.
        let mut big_errors = 0usize;
        for &(a, b, s_hat) in &out {
            let s = cosine(data.vector(a), data.vector(b));
            if (s - s_hat).abs() >= cfg.delta {
                big_errors += 1;
            }
        }
        let frac = big_errors as f64 / out.len().max(1) as f64;
        assert!(frac <= 0.12, "fraction of >delta errors: {frac}");

        // The engine must actually prune: most of the quadratic candidate
        // space is junk.
        assert!(stats.pruned as f64 / stats.input_pairs as f64 > 0.8);
    }

    #[test]
    fn jaccard_bayes_meets_recall_contract() {
        let data = corpus(63).binarized();
        let t = 0.5;
        let cfg = BayesLshConfig::jaccard(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = IntSignatures::new(MinHasher::new(64), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &JaccardModel::uniform(), &cands, &cfg);
        assert_eq!(stats.pruned + stats.accepted, stats.input_pairs);

        let gt = truth(&data, t, jaccard);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn lite_output_is_subset_of_truth() {
        let data = corpus(65);
        let t = 0.7;
        let cfg = LiteConfig::cosine(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 66), data.len());
        let (out, stats) =
            bayes_verify_lite(&data, &mut pool, &CosineModel::new(), &cands, &cfg, cosine);

        // Exact verification ⇒ no false positives at all.
        for &(a, b, s) in &out {
            assert!(s >= t, "({a},{b}) emitted below threshold: {s}");
            assert!((s - cosine(data.vector(a), data.vector(b))).abs() < 1e-12);
        }
        // And high recall.
        let gt = truth(&data, t, cosine);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        assert!(found as f64 / gt.len() as f64 >= 0.9);
        // Lite must examine at most h hashes per pair.
        assert!(stats.hash_comparisons <= cands.len() as u64 * cfg.h as u64);
        // Exact verifications only for unpruned pairs.
        assert_eq!(stats.exact_verifications, stats.input_pairs - stats.pruned);
    }

    #[test]
    fn sprt_meets_recall_with_fewer_hashes_than_bayes() {
        use bayeslsh_lsh::{cos_to_r, r_to_cos};
        let data = corpus(75);
        let t = 0.7;
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 76), data.len());
        let cfg = SprtConfig::cosine(t);
        let (out, stats) = sprt_verify(&data, &mut pool, &cands, &cfg, cos_to_r, r_to_cos, cosine);

        // Bookkeeping: every pair is pruned, accepted early, or settled by
        // the exact fallback (which may reject without counting anywhere).
        assert_eq!(stats.input_pairs, cands.len() as u64);
        assert!(stats.pruned + stats.accepted <= stats.input_pairs);
        assert!(stats.exact_verifications < stats.input_pairs / 10);

        let gt = truth(&data, t, cosine);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall}");

        // The adaptive stopping rule must beat the concentration schedule
        // on hash comparisons over the same candidates.
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 76), data.len());
        let bayes_cfg = BayesLshConfig::cosine(t);
        let (_, bayes_stats) =
            bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &bayes_cfg);
        assert!(
            stats.hash_comparisons < bayes_stats.hash_comparisons,
            "SPRT {} vs Bayes {} hash comparisons",
            stats.hash_comparisons,
            bayes_stats.hash_comparisons
        );
        assert!(stats.hashes_per_accepted_pair() > 0.0);
    }

    #[test]
    fn sprt_jaccard_recall_and_empty_input() {
        let data = corpus(77).binarized();
        let t = 0.5;
        let cfg = SprtConfig::jaccard(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = IntSignatures::new(MinHasher::new(78), data.len());
        let (out, stats) = sprt_verify(&data, &mut pool, &cands, &cfg, |s| s, |f| f, jaccard);
        let gt = truth(&data, t, jaccard);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        assert!(found as f64 / gt.len() as f64 >= 0.9);
        assert!(stats.pruned as f64 / stats.input_pairs as f64 > 0.8);

        let mut pool = IntSignatures::new(MinHasher::new(78), data.len());
        let (out, stats) = sprt_verify(&data, &mut pool, &[], &cfg, |s| s, |f| f, jaccard);
        assert!(out.is_empty());
        assert_eq!(stats.input_pairs, 0);
        assert_eq!(stats.hashes_per_accepted_pair(), 0.0);
    }

    #[test]
    fn survivors_curve_is_monotone_and_complete() {
        let data = corpus(67);
        let cfg = BayesLshConfig::cosine(0.7);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 68), data.len());
        let (_, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);
        let curve = stats.survivors_curve();
        assert_eq!(curve[0], (0, cands.len() as u64));
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "survivors must not increase: {curve:?}");
            assert_eq!(w[1].0, w[0].0 + cfg.k);
        }
        let last = curve.last().unwrap().1;
        assert_eq!(last, stats.input_pairs - stats.pruned);
    }

    #[test]
    fn deeper_pruning_budget_never_hurts_lite_recall_much() {
        // h = 32 prunes more aggressively than h = 128 on uncertain pairs?
        // No: a larger h can only prune MORE pairs (more chances to dip
        // below eps), but every pruned pair had Pr < eps at some depth, so
        // recall stays within the contract for both.
        let data = corpus(69);
        let t = 0.7;
        let cands = all_pairs(data.len() as u32);
        let gt = truth(&data, t, cosine);
        for h in [32u32, 128] {
            let cfg = LiteConfig {
                threshold: t,
                epsilon: 0.03,
                k: 32,
                h,
            };
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 70), data.len());
            let (out, _) =
                bayes_verify_lite(&data, &mut pool, &CosineModel::new(), &cands, &cfg, cosine);
            let out_keys: std::collections::HashSet<(u32, u32)> =
                out.iter().map(|&(a, b, _)| (a, b)).collect();
            let found = gt
                .iter()
                .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
                .count();
            assert!(
                found as f64 / gt.len() as f64 >= 0.9,
                "h={h}: recall {}",
                found as f64 / gt.len() as f64
            );
        }
    }

    #[test]
    fn stricter_epsilon_keeps_more_pairs() {
        let data = corpus(71);
        let cands = all_pairs(data.len() as u32);
        let mut kept = Vec::new();
        for eps in [0.2, 0.01] {
            let cfg = BayesLshConfig {
                epsilon: eps,
                ..BayesLshConfig::cosine(0.7)
            };
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 72), data.len());
            let (out, _) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);
            kept.push(out.len());
        }
        // Lower eps = harder to prune = at least as many survivors.
        assert!(
            kept[1] >= kept[0],
            "eps=0.01 kept {} < eps=0.2 kept {}",
            kept[1],
            kept[0]
        );
    }

    #[test]
    fn empty_candidate_list() {
        let data = corpus(73);
        let cfg = BayesLshConfig::cosine(0.7);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 74), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &[], &cfg);
        assert!(out.is_empty());
        assert_eq!(stats.input_pairs, 0);
        assert_eq!(stats.hash_comparisons, 0);
    }
}
