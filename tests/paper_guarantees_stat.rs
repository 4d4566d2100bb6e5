//! Statistical verification of the paper's two layered guarantees, pooled
//! over many seeds so the assertions test the *bound*, not one lucky run:
//!
//! 1. **Candidate recall** (Section 2): the banding index misses a true
//!    pair with probability at most the [`BandingPlan`]'s achieved
//!    false-negative rate — so the measured candidate-miss rate must be
//!    bounded by `achieved_fnr` (plus sampling slack).
//! 2. **End-to-end recall** (Section 4): BayesLSH prunes a true positive
//!    with probability below ε, so the recall of LSH + BayesLSH[-Lite]
//!    must stay above `(1 − δ) − ε`, where δ is the index's achieved
//!    false-negative rate and ε the Bayesian recall parameter.
//! 3. **SPRT recall**: the sequential verifier's prune schedule false-prunes
//!    a true pair (`S ≥ t`) with probability at most α (mapped from the
//!    same ε knob), so LSH + SPRT recall must also stay above
//!    `(1 − δ) − α`.
//!
//! Plus a property check on the SPRT decision rule itself: verdicts are a
//! pure function of cumulative agreement counts at chunk boundaries, so
//! they cannot depend on how the agreement stream was delivered.
//!
//! Corpora are the scaled synthetic preset stand-ins (RCV1 shape), one per
//! seed, with the hash-family seed varied alongside — deterministic, so
//! the suite is CI-stable while still averaging over 20 independent draws.

use std::collections::HashSet;

use bayeslsh::prelude::*;
use proptest::prelude::*;

const N_SEEDS: u64 = 20;

#[derive(Default)]
struct Pooled {
    truth: usize,
    candidate_misses: usize,
    bayes_hits: usize,
    lite_hits: usize,
    sprt_hits: usize,
}

fn pair_keys(pairs: &[(u32, u32, f64)]) -> HashSet<(u32, u32)> {
    pairs.iter().map(|&(a, b, _)| (a, b)).collect()
}

fn pool_over_seeds(
    measure: Measure,
    threshold: f64,
    base_cfg: PipelineConfig,
    load: impl Fn(u64) -> Dataset,
) -> Pooled {
    let mut pooled = Pooled::default();
    for s in 0..N_SEEDS {
        let data = load(s);
        let mut cfg = base_cfg;
        cfg.seed = 42 + s; // a fresh hash family per trial
        let gt = ground_truth(&data, measure, threshold);
        // LSH × exact keeps every candidate that is a true pair, so its
        // output *is* the candidate set restricted to the truth — the
        // measured candidate-miss events are exactly the banding misses.
        let lsh_keys = |verifier| {
            let comp = Composition::new(GeneratorKind::LshBanding, verifier);
            pair_keys(&run_composition(comp, &data, &cfg).unwrap().pairs)
        };
        let lsh = lsh_keys(VerifierKind::Exact);
        let bayes = lsh_keys(VerifierKind::Bayes);
        let lite = lsh_keys(VerifierKind::BayesLite);
        let sprt = lsh_keys(VerifierKind::Sprt);
        for &(a, b, _) in &gt {
            pooled.truth += 1;
            if !lsh.contains(&(a, b)) {
                pooled.candidate_misses += 1;
            }
            if bayes.contains(&(a, b)) {
                pooled.bayes_hits += 1;
            }
            if lite.contains(&(a, b)) {
                pooled.lite_hits += 1;
            }
            if sprt.contains(&(a, b)) {
                pooled.sprt_hits += 1;
            }
        }
    }
    pooled
}

/// Sampling slack on a pooled rate estimate: three binomial standard
/// deviations at the bound's rate, floored for tiny pools.
fn slack(rate: f64, n: usize) -> f64 {
    (3.0 * (rate * (1.0 - rate) / n as f64).sqrt()).max(0.005)
}

fn check_family(
    measure: Measure,
    threshold: f64,
    cfg: PipelineConfig,
    load: impl Fn(u64) -> Dataset,
) {
    let plan = cfg.banding_plan();
    assert!(
        !plan.clamped,
        "paper-default plans must meet the requested rate"
    );
    assert!(plan.achieved_fnr <= plan.requested_fnr);

    let pooled = pool_over_seeds(measure, threshold, cfg, load);
    assert!(
        pooled.truth >= 200,
        "need statistical power: {} true pairs pooled over {N_SEEDS} seeds",
        pooled.truth
    );

    // (1) The reported achieved-FNR bounds the measured candidate misses.
    let miss_rate = pooled.candidate_misses as f64 / pooled.truth as f64;
    let fnr_bound = plan.achieved_fnr + slack(plan.achieved_fnr, pooled.truth);
    assert!(
        miss_rate <= fnr_bound,
        "{measure:?}: candidate-miss rate {miss_rate:.4} exceeds achieved-FNR bound \
         {:.4} (+{:.4} slack) over {} pairs",
        plan.achieved_fnr,
        fnr_bound - plan.achieved_fnr,
        pooled.truth
    );

    // (2) End-to-end recall ≥ (1 − δ) − ε for both Bayesian verifiers.
    let delta_fnr = plan.achieved_fnr;
    let bound = (1.0 - delta_fnr) - cfg.epsilon;
    let bayes_recall = pooled.bayes_hits as f64 / pooled.truth as f64;
    let lite_recall = pooled.lite_hits as f64 / pooled.truth as f64;
    assert!(
        bayes_recall >= bound,
        "{measure:?}: BayesLSH recall {bayes_recall:.4} below (1 − {delta_fnr:.4}) − {:.2} = {bound:.4}",
        cfg.epsilon
    );
    assert!(
        lite_recall >= bound,
        "{measure:?}: BayesLSH-Lite recall {lite_recall:.4} below {bound:.4}"
    );

    // (3) SPRT recall ≥ (1 − δ) − α. The verifier's α (false-prune bound
    // over all pairs with S ≥ t) is mapped from the same ε knob, so the
    // sequential test must clear the exact bound the Bayesian verifiers do.
    assert_eq!(cfg.sprt().alpha, cfg.epsilon, "α is mapped from ε");
    let sprt_recall = pooled.sprt_hits as f64 / pooled.truth as f64;
    assert!(
        sprt_recall >= bound,
        "{measure:?}: SPRT recall {sprt_recall:.4} below (1 − {delta_fnr:.4}) − α = {bound:.4}"
    );
}

#[test]
fn cosine_recall_meets_the_paper_bound_over_20_seeds() {
    check_family(Measure::Cosine, 0.7, PipelineConfig::cosine(0.7), |s| {
        Preset::Rcv1.load(0.0004, 9000 + s)
    });
}

#[test]
fn jaccard_recall_meets_the_paper_bound_over_20_seeds() {
    check_family(Measure::Jaccard, 0.5, PipelineConfig::jaccard(0.5), |s| {
        Preset::Rcv1.load_binary(0.0004, 9100 + s)
    });
}

/// Clustered weighted corpus with planted L2 near-neighbours: cluster
/// members share their center's support and jitter its values, so
/// within-cluster Euclidean distances are small (`s = 1/(1 + d)` above
/// the threshold) while cross-cluster distances stay large.
fn l2_corpus(seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut d = Dataset::new(2000);
    for c in 0..8 {
        let center: Vec<(u32, f32)> = (0..30)
            .map(|_| {
                (
                    (c * 250 + rng.next_below(240) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for m in 0..6 {
            let spread = 0.01 + 0.03 * m as f64;
            let pairs: Vec<(u32, f32)> = center
                .iter()
                .map(|&(i, x)| (i, x + ((rng.next_f64() - 0.5) * spread) as f32))
                .collect();
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

#[test]
fn l2_recall_meets_the_paper_bound_over_20_seeds() {
    // The E2LSH family rides the same layered guarantee: candidate misses
    // bounded by the plan's achieved FNR, and LSH + {BayesLSH, Lite, SPRT}
    // recall above (1 − δ) − ε / (1 − δ) − α, through the family's
    // collision model instead of the cosine/Jaccard closed forms.
    check_family(Measure::L2, 0.5, PipelineConfig::l2(0.5, 4.0), |s| {
        l2_corpus(9200 + s)
    });
}

// ---------------------------------------------------------------------
// SPRT chunk-boundary invariance: the verdict for a pair is a pure
// function of its cumulative (agreements, hashes) at each chunk
// boundary. Delivering the same agreement stream incrementally (the
// engine's batched path) or recounting every prefix from scratch (what a
// different thread/shard partition amounts to) must produce the same
// verdict at the same depth.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Verdict {
    Accept(u32),
    Prune(u32),
    Undecided,
}

/// First decision the table reaches, checking every chunk boundary with
/// cumulative counts supplied by `m_at`.
fn first_decision(table: &SprtTable, n_chunks: u32, m_at: impl Fn(u32) -> u32) -> Verdict {
    let k = table.chunk();
    for c in 1..=n_chunks {
        let (m, n) = (m_at(c), c * k);
        if table.should_accept(m, n) {
            return Verdict::Accept(n);
        }
        if table.should_prune(m, n) {
            return Verdict::Prune(n);
        }
    }
    Verdict::Undecided
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sprt_verdicts_are_chunk_boundary_invariant(
        per_chunk in proptest::collection::vec(0u32..=32, 1..16),
        family in 0u8..2,
    ) {
        let (cfg, table) = if family == 0 {
            let cfg = PipelineConfig::cosine(0.7).sprt();
            let table = SprtTable::build(&cfg, cos_to_r);
            (cfg, table)
        } else {
            let cfg = PipelineConfig::jaccard(0.5).sprt();
            let table = SprtTable::build(&cfg, |s| s);
            (cfg, table)
        };
        prop_assert_eq!(table.chunk(), cfg.k);
        let n_chunks = (per_chunk.len() as u32).min(table.max_hashes() / table.chunk());

        // (a) Incremental: running total carried across chunks, the way
        // the engine consumes `query_agreements_batched`.
        let mut running = 0u32;
        let mut incremental = Verdict::Undecided;
        for c in 1..=n_chunks {
            running += per_chunk[c as usize - 1];
            let n = c * table.chunk();
            if table.should_accept(running, n) {
                incremental = Verdict::Accept(n);
                break;
            }
            if table.should_prune(running, n) {
                incremental = Verdict::Prune(n);
                break;
            }
        }

        // (b) All-at-once: every prefix recounted from the raw stream.
        let from_scratch = first_decision(&table, n_chunks, |c| {
            per_chunk[..c as usize].iter().sum()
        });

        prop_assert_eq!(incremental, from_scratch);
    }

    #[test]
    fn sprt_accept_and_prune_are_mutually_exclusive(
        m in 0u32..=512,
        chunks in 1u32..=16,
    ) {
        let table = SprtTable::build(&PipelineConfig::cosine(0.7).sprt(), cos_to_r);
        let n = (chunks * table.chunk()).min(table.max_hashes());
        let m = m.min(n);
        prop_assert!(
            !(table.should_accept(m, n) && table.should_prune(m, n)),
            "m={} n={} both accepted and pruned", m, n
        );
    }
}
