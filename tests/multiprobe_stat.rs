//! Statistical verification of the step-wise multi-probe trade
//! (Lv et al., VLDB'07): an index built with **half the bands** but
//! queried with a per-band probe budget must recover the recall of the
//! full single-probe index — that is the whole point of multi-probe,
//! buying index memory (bands are the dominant index cost) with cheap
//! extra bucket lookups. Pooled over 12 seeds so the assertion tests the
//! expectation, not one lucky draw, with exact verification (LSH × exact)
//! so every measured miss is a *candidate* miss.
//!
//! Alongside the recall claim, the probe accounting is pinned: a
//! single-probe query pays exactly one bucket lookup per band, and a
//! `probes = P` query on a bit family pays `P` per band (clamped to the
//! `k + 1` meaningful single-bit flips).

use bayeslsh::prelude::*;

const N_SEEDS: u64 = 12;
const THRESHOLD: f64 = 0.6;

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

/// A config whose banding plan lands on exactly `target_bands` bands:
/// `l = ⌈ln fnr / ln(1 − p^k)⌉`, so requesting `fnr = (1 − p^k)^l`
/// (nudged up against rounding) inverts the formula.
fn config_with_bands(target_bands: u32) -> PipelineConfig {
    let mut cfg = PipelineConfig::cosine(THRESHOLD);
    let p = cfg.family.collision_one(THRESHOLD);
    let q = 1.0 - p.powi(cfg.band_width as i32);
    cfg.lsh_fnr = (q.powi(target_bands as i32) * 1.01).min(0.99);
    let plan = cfg.banding_plan();
    assert_eq!(
        plan.params.l, target_bands,
        "fnr inversion must land on the requested band count"
    );
    cfg
}

/// Pooled candidate recall of self-queries against brute-force cosine
/// truth, plus the total probes and queries issued. Exact verification,
/// so the output *is* the candidate set restricted to the truth.
fn pooled_recall(make_cfg: impl Fn() -> PipelineConfig, probes_per_band: u64) -> (usize, usize) {
    let (mut hits, mut truth) = (0, 0);
    for s in 0..N_SEEDS {
        let data = corpus(800 + s);
        let mut cfg = make_cfg();
        cfg.seed = 42 + s; // a fresh hash family per trial
        let bands = cfg.banding_plan().params.l as u64;
        let searcher = Searcher::builder(cfg)
            .composition(Composition::new(
                GeneratorKind::LshBanding,
                VerifierKind::Exact,
            ))
            .build(data.clone())
            .unwrap();
        for qid in 0..data.len() as u32 {
            let q = data.vector(qid).clone();
            let out = searcher.query(&q, THRESHOLD).unwrap();
            assert_eq!(
                out.stats.bucket_probes,
                bands * probes_per_band,
                "seed {s} query {qid}: probe accounting"
            );
            let found: std::collections::HashSet<u32> =
                out.neighbors.iter().map(|&(id, _)| id).collect();
            for (id, v) in data.iter() {
                if id != qid && cosine(&q, v) >= THRESHOLD {
                    truth += 1;
                    if found.contains(&id) {
                        hits += 1;
                    }
                }
            }
        }
    }
    (hits, truth)
}

#[test]
fn multi_probe_at_half_the_bands_matches_single_probe_recall() {
    let full_bands = PipelineConfig::cosine(THRESHOLD).banding_plan().params.l;
    assert!(full_bands >= 8, "paper defaults give a real band count");
    let half_bands = full_bands / 2;
    let probe_budget = |cfg: &PipelineConfig| (cfg.band_width + 1) as u64;

    // Reference: the paper-default index, classic single-probe.
    let (full_hits, full_truth) = pooled_recall(|| PipelineConfig::cosine(THRESHOLD), 1);
    assert!(
        full_truth >= 500,
        "need statistical power: {full_truth} true neighbor events"
    );
    let full_recall = full_hits as f64 / full_truth as f64;

    // Half the bands, single-probe: strictly cheaper index, visibly worse
    // recall — the gap multi-probe must close.
    let (half_hits, half_truth) = pooled_recall(|| config_with_bands(half_bands), 1);
    let half_recall = half_hits as f64 / half_truth as f64;

    // Half the bands, full per-band flip budget.
    let (multi_hits, multi_truth) = pooled_recall(
        || {
            let mut cfg = config_with_bands(half_bands);
            cfg.probes = probe_budget(&cfg) as usize;
            cfg
        },
        probe_budget(&PipelineConfig::cosine(THRESHOLD)),
    );
    let multi_recall = multi_hits as f64 / multi_truth as f64;

    assert_eq!(full_truth, half_truth);
    assert_eq!(full_truth, multi_truth);
    assert!(
        multi_recall > half_recall,
        "the probe budget must buy recall at a fixed band count: \
         multi {multi_recall:.4} vs single {half_recall:.4} at {half_bands} bands"
    );
    // The headline claim: B/2 bands + multi-probe reaches B bands'
    // single-probe recall within ε.
    let epsilon = 0.02;
    assert!(
        multi_recall >= full_recall - epsilon,
        "multi-probe at {half_bands} bands: recall {multi_recall:.4} vs \
         single-probe at {full_bands} bands: {full_recall:.4} (ε = {epsilon})"
    );
}

#[test]
fn probe_budget_is_clamped_to_the_meaningful_flips() {
    // probes beyond k + 1 (the base bucket plus one flip per band bit)
    // cannot produce new keys; the accounting must show the clamp.
    let data = corpus(900);
    let mut cfg = PipelineConfig::cosine(THRESHOLD);
    cfg.probes = 10_000;
    let searcher = Searcher::builder(cfg).build(data.clone()).unwrap();
    let bands = searcher.banding_plan().params.l as u64;
    let q = data.vector(0).clone();
    let out = searcher.query(&q, THRESHOLD).unwrap();
    assert_eq!(out.stats.bucket_probes, bands * (cfg.band_width as u64 + 1));
}

#[test]
fn single_probe_multi_probe_outputs_agree_on_found_neighbors() {
    // Multi-probe only *adds* candidate buckets: every neighbor a
    // single-probe query reports must appear, at the bit-identical
    // similarity, in the multi-probe result.
    let data = corpus(901);
    let mut cfg = PipelineConfig::cosine(THRESHOLD);
    cfg.parallelism = Parallelism::serial();
    let single = Searcher::builder(cfg)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Exact,
        ))
        .build(data.clone())
        .unwrap();
    cfg.probes = 4;
    let multi = Searcher::builder(cfg)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Exact,
        ))
        .build(data.clone())
        .unwrap();
    for qid in (0..data.len() as u32).step_by(5) {
        let q = data.vector(qid).clone();
        let a = single.query(&q, THRESHOLD).unwrap();
        let b = multi.query(&q, THRESHOLD).unwrap();
        assert!(b.stats.candidates >= a.stats.candidates, "query {qid}");
        assert!(b.stats.bucket_probes > a.stats.bucket_probes, "query {qid}");
        let got: std::collections::HashMap<u32, u64> = b
            .neighbors
            .iter()
            .map(|&(id, s)| (id, s.to_bits()))
            .collect();
        for &(id, s) in &a.neighbors {
            assert_eq!(
                got.get(&id),
                Some(&s.to_bits()),
                "query {qid}: single-probe neighbor {id} lost or re-scored"
            );
        }
    }
}
