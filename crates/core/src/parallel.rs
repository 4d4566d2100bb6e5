//! Parallel verification: the candidate fan-out the paper's embarrassing
//! parallelism invites.
//!
//! A parallel scan partitions its items (batch candidates, or a query's
//! candidate ids) into contiguous chunks ([`bayeslsh_numeric::fan_out`]),
//! runs the same `engine::scan` driver on each chunk with its own
//! copy of the decision rule, and merges the outputs in chunk order.
//! Because candidate lists are deterministic and every verdict is a pure
//! function of the (read-only) signature pool, the merged output is
//! **bit-identical to the serial scan** whatever the thread count. The one
//! observable difference is bookkeeping the paper treats as advisory: each
//! worker keeps its own [`crate::cache::ConcentrationCache`], so cache
//! hit/miss counts depend on the partition (decisions do not — the cache
//! memoizes a pure function).
//!
//! Workers read the pool through a shared reference, so every candidate
//! signature must already reach the rule's scan depth: the batch and query
//! fronts first extend the [`candidate_ids`] with
//! [`crate::compose::SigPool::par_ensure_ids`]. Under the `Searcher`'s
//! default eager hashing that pre-extension is a no-op; under lazy hashing
//! it trades some up-front hashing for wall-clock parallelism. The
//! pre-extension itself runs through the feature-major / element-major
//! hash kernels with one scratch buffer per worker, so the whole parallel
//! verification path — hashing included — performs no per-pair heap
//! allocation in steady state.

use std::ops::Range;

use bayeslsh_numeric::fan_out;

use crate::engine::{DecisionRule, EngineStats};

/// The distinct object ids appearing in `candidates`, in first-encounter
/// order — the id set a parallel verification must pre-hash. `n_objects`
/// bounds the id space (ids must be `< n_objects`).
pub fn candidate_ids(candidates: &[(u32, u32)], n_objects: usize) -> Vec<u32> {
    let mut seen = vec![false; n_objects];
    let mut ids = Vec::new();
    for &(a, b) in candidates {
        if !seen[a as usize] {
            seen[a as usize] = true;
            ids.push(a);
        }
        if !seen[b as usize] {
            seen[b as usize] = true;
            ids.push(b);
        }
    }
    ids
}

/// Run `work` over contiguous chunks of `0..n_items` on up to `threads`
/// workers, each with a fresh clone of `rule` and its own counters, then
/// merge in chunk order: outputs concatenate and counters fold into
/// `stats`.
pub(crate) fn par_scan<T, R, W>(
    n_items: usize,
    threads: usize,
    rule: &R,
    stats: &mut EngineStats,
    work: W,
) -> Vec<T>
where
    T: Send,
    R: DecisionRule + Clone + Sync,
    W: Fn(Range<usize>, &mut R, &mut EngineStats) -> Vec<T> + Sync,
{
    let parts = fan_out(n_items, threads, |_, range| {
        let mut rule = rule.clone();
        let mut local = EngineStats::for_rule(0, &rule);
        let out = work(range, &mut rule, &mut local);
        (local.cache_hits, local.cache_misses) = rule.cache_stats();
        (out, local)
    });
    let mut out = Vec::new();
    for (part, local) in parts {
        out.extend(part);
        stats.absorb(&local);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{SearchContext, SigPool, Verifier, VerifierKind};
    use crate::cosine_model::CosineModel;
    use crate::engine::{bayes_verify, bayes_verify_lite, sprt_verify};
    use crate::estimator::mle_verify;
    use crate::pipeline::PipelineConfig;
    use bayeslsh_lsh::{cos_to_r, r_to_cos};
    use bayeslsh_numeric::{Parallelism, Xoshiro256};
    use bayeslsh_sparse::{cosine, Dataset, SparseVector};

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(2000);
        for c in 0..8 {
            let center: Vec<(u32, f32)> = (0..30)
                .map(|_| {
                    (
                        (c * 200 + rng.next_below(180) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..5 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(2000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
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

    #[test]
    fn candidate_ids_first_encounter_order() {
        let ids = candidate_ids(&[(3, 1), (1, 2), (0, 3)], 5);
        assert_eq!(ids, vec![3, 1, 2, 0]);
    }

    #[test]
    fn scans_at_every_thread_count_match_the_serial_engines() {
        let data = corpus(401);
        let cands = all_pairs(data.len() as u32);
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.approx_hashes = 256;
        let model = CosineModel::new();
        let fresh = || SigPool::for_config(&cfg, &data);

        // Serial references: the public engines over lazily extending pools.
        let (bayes, bayes_stats) = bayes_verify(&data, &mut fresh(), &model, &cands, &cfg.bayes());
        let (lite, lite_stats) =
            bayes_verify_lite(&data, &mut fresh(), &model, &cands, &cfg.lite(), cosine);
        let (mle, _) = mle_verify(&data, &mut fresh(), &cands, 256, 0.7, r_to_cos);
        let sprt_cfg = cfg.sprt();
        let (sprt, sprt_stats) = sprt_verify(
            &data,
            &mut fresh(),
            &cands,
            &sprt_cfg,
            cos_to_r,
            r_to_cos,
            cosine,
        );
        let exact: Vec<(u32, u32, f64)> = cands
            .iter()
            .map(|&(a, b)| (a, b, cosine(data.vector(a), data.vector(b))))
            .filter(|&(_, _, s)| s >= 0.7)
            .collect();
        let reference = [
            (VerifierKind::Exact, exact, None),
            (VerifierKind::Mle, mle, None),
            (VerifierKind::Bayes, bayes, Some(bayes_stats)),
            (VerifierKind::BayesLite, lite, Some(lite_stats)),
            (VerifierKind::Sprt, sprt, Some(sprt_stats)),
        ];

        for threads in [1u32, 2, 4, 8] {
            let mut cfg = cfg;
            cfg.parallelism = Parallelism::threads(threads);
            for (kind, pairs, stats) in &reference {
                let mut pool = SigPool::for_config(&cfg, &data);
                let mut ctx = SearchContext {
                    data: &data,
                    cfg: &cfg,
                    pool: &mut pool,
                    index: None,
                };
                let (got, got_stats) = kind.verify(&mut ctx, &cands);
                assert_eq!(&got, pairs, "{kind:?} pairs, threads {threads}");
                assert_eq!(got_stats.is_some(), stats.is_some(), "{kind:?}");
                if let (Some(got), Some(want)) = (got_stats, stats) {
                    assert_eq!(got.input_pairs, want.input_pairs);
                    assert_eq!(got.pruned, want.pruned, "{kind:?}, threads {threads}");
                    assert_eq!(got.accepted, want.accepted);
                    assert_eq!(got.forced_accepts, want.forced_accepts);
                    assert_eq!(got.exact_verifications, want.exact_verifications);
                    assert_eq!(got.hash_comparisons, want.hash_comparisons);
                    assert_eq!(got.pruned_at_chunk, want.pruned_at_chunk);
                }
            }
        }
    }
}
