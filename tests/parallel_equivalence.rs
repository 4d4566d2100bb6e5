//! The parallel execution layer's core guarantee: for every named
//! composition (the paper's eight algorithms plus the SPRT verifier) and
//! every tested thread count, output is **bit-identical to the serial
//! path** — same pairs, same similarities (exact or Bayesian estimates,
//! compared as raw bits), same candidate and prune counters — including
//! after incremental `insert()`s and across point queries. Parallelism may
//! only change wall-clock time.

use bayeslsh::prelude::*;

mod support;
use support::all_compositions;

const THREADS: [u32; 4] = [1, 2, 4, 8];

/// Clustered corpus with planted near-duplicates (weighted vectors).
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

/// Pairs with bit-exact similarities, for equality assertions.
fn bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

/// The deterministic subset of engine counters (cache hit/miss splits are
/// per-worker and legitimately partition-dependent).
fn engine_counters(stats: &EngineStats) -> (u64, u64, u64, u64, u64, u64, Vec<u64>) {
    (
        stats.input_pairs,
        stats.pruned,
        stats.accepted,
        stats.forced_accepts,
        stats.exact_verifications,
        stats.hash_comparisons,
        stats.pruned_at_chunk.clone(),
    )
}

fn assert_outputs_match(serial: &CompositionOutput, par: &CompositionOutput, label: &str) {
    assert_eq!(
        bits(&serial.pairs),
        bits(&par.pairs),
        "{label}: pairs must be bit-identical"
    );
    assert_eq!(serial.candidates, par.candidates, "{label}: candidates");
    match (&serial.engine, &par.engine) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                engine_counters(a),
                engine_counters(b),
                "{label}: engine counters"
            );
        }
        _ => panic!("{label}: engine stats presence must not depend on threads"),
    }
}

fn check_all_compositions(data: &Dataset, cfg_for: impl Fn() -> PipelineConfig) {
    for comp in all_compositions() {
        let cfg = cfg_for();
        if comp.requires_binary(cfg.family.measure())
            && !data.vectors().iter().all(|v| v.is_binary())
        {
            continue;
        }
        // Serial reference, including an insert mid-life.
        let mut serial_cfg = cfg;
        serial_cfg.parallelism = Parallelism::serial();
        let mut serial = Searcher::builder(serial_cfg)
            .composition(comp)
            .build(data.clone())
            .unwrap();
        let serial_before = serial.all_pairs().unwrap();
        let planted = serial.data().vector(4).clone();
        serial.insert(planted.clone()).unwrap();
        let serial_after = serial.all_pairs().unwrap();

        for threads in THREADS {
            let mut par_cfg = cfg;
            par_cfg.parallelism = Parallelism::threads(threads);
            let mut par = Searcher::builder(par_cfg)
                .composition(comp)
                .build(data.clone())
                .unwrap();
            assert_eq!(par.threads(), threads as usize);
            let out = par.all_pairs().unwrap();
            assert_outputs_match(&serial_before, &out, &format!("{comp} threads={threads}"));
            // Incremental insert must keep the guarantee.
            par.insert(planted.clone()).unwrap();
            let out = par.all_pairs().unwrap();
            assert_outputs_match(
                &serial_after,
                &out,
                &format!("{comp} threads={threads} after insert"),
            );
        }
    }
}

#[test]
fn cosine_compositions_are_thread_count_invariant() {
    let data = corpus(501);
    check_all_compositions(&data, || PipelineConfig::cosine(0.7));
}

#[test]
fn jaccard_compositions_are_thread_count_invariant() {
    let data = corpus(502).binarized();
    check_all_compositions(&data, || PipelineConfig::jaccard(0.5));
}

#[test]
fn one_shot_runs_are_thread_count_invariant_too() {
    // `run_composition` (transient pools, no standing index) goes through
    // the same parallel layer; its output must not depend on the budget.
    let data = corpus(503);
    for verifier in [VerifierKind::Exact, VerifierKind::Mle, VerifierKind::Bayes] {
        let comp = Composition::new(GeneratorKind::LshBanding, verifier);
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.parallelism = Parallelism::serial();
        let serial = run_composition(comp, &data, &cfg).unwrap();
        for threads in THREADS {
            cfg.parallelism = Parallelism::threads(threads);
            let par = run_composition(comp, &data, &cfg).unwrap();
            assert_eq!(
                bits(&serial.pairs),
                bits(&par.pairs),
                "{comp} threads={threads}"
            );
            assert_eq!(serial.candidates, par.candidates);
        }
    }
}

#[test]
fn point_queries_are_thread_count_invariant() {
    let data = corpus(504);
    for verifier in [
        VerifierKind::Exact,
        VerifierKind::Mle,
        VerifierKind::Bayes,
        VerifierKind::BayesLite,
        VerifierKind::Sprt,
    ] {
        let comp = Composition::new(GeneratorKind::LshBanding, verifier);
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.parallelism = Parallelism::serial();
        let serial = Searcher::builder(cfg)
            .composition(comp)
            .build(data.clone())
            .unwrap();
        let queries: Vec<SparseVector> = (0..10)
            .map(|i| serial.data().vector(i * 5).clone())
            .collect();
        let expect: Vec<QueryOutput> = queries
            .iter()
            .map(|q| serial.query(q, 0.7).unwrap())
            .collect();

        for threads in THREADS {
            let mut cfg = PipelineConfig::cosine(0.7);
            cfg.parallelism = Parallelism::threads(threads);
            let par = Searcher::builder(cfg)
                .composition(comp)
                .build(data.clone())
                .unwrap();
            for (q, e) in queries.iter().zip(&expect) {
                let got = par.query(q, 0.7).unwrap();
                let pack = |o: &QueryOutput| {
                    o.neighbors
                        .iter()
                        .map(|&(id, s)| (id, s.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pack(e), pack(&got), "{comp} threads={threads}");
                assert_eq!(e.stats, got.stats, "{comp} threads={threads}");
            }
        }
    }
}

#[test]
fn top_k_is_thread_count_invariant() {
    let data = corpus(505);
    let mut cfg = PipelineConfig::cosine(0.5);
    cfg.parallelism = Parallelism::serial();
    let serial = Searcher::builder(cfg).build(data.clone()).unwrap();
    let q = serial.data().vector(9).clone();
    let expect = serial.top_k(&q, 5, &KnnParams::default()).unwrap();
    for threads in THREADS {
        let mut cfg = PipelineConfig::cosine(0.5);
        cfg.parallelism = Parallelism::threads(threads);
        let par = Searcher::builder(cfg).build(data.clone()).unwrap();
        let got = par.top_k(&q, 5, &KnnParams::default()).unwrap();
        assert_eq!(expect.neighbors.len(), got.neighbors.len());
        for (a, b) in expect.neighbors.iter().zip(&got.neighbors) {
            assert_eq!(a.0, b.0, "threads={threads}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads={threads}");
        }
        assert_eq!(expect.stats, got.stats, "threads={threads}");
    }
}

#[test]
fn hash_counts_match_serial_under_eager_mode() {
    // Under the default eager mode parallelism must not change how much
    // hashing the build pays, either.
    let data = corpus(506);
    let mut cfg = PipelineConfig::cosine(0.7);
    cfg.parallelism = Parallelism::serial();
    let serial = Searcher::builder(cfg).build(data.clone()).unwrap();
    for threads in THREADS {
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.parallelism = Parallelism::threads(threads);
        let par = Searcher::builder(cfg).build(data.clone()).unwrap();
        assert_eq!(par.hash_count(), serial.hash_count(), "threads={threads}");
    }
}
