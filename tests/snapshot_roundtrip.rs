//! Round-trip equivalence suite for index snapshots: for **every named
//! composition** (the paper's eight plus the SPRT verifier), at thread
//! budgets {1, 4}, a searcher that went through `save` → `load` must
//! behave **bit-identically** to the never-persisted searcher it was saved
//! from — batch joins, threshold queries, top-k, and insert-then-query,
//! including every counter.

use bayeslsh::prelude::*;

mod support;
use support::{all_compositions, supports_weighted};

/// Clustered corpus with planted near-duplicates (weighted vectors).
fn corpus(seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut d = Dataset::new(2000);
    for c in 0..8 {
        let center: Vec<(u32, f32)> = (0..25)
            .map(|_| {
                (
                    (c * 240 + rng.next_below(220) as usize) as u32,
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

fn bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

fn neighbor_bits(n: &[(u32, f64)]) -> Vec<(u32, u64)> {
    n.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

/// Run the full operation mix on both searchers and demand bit-identity.
fn assert_equivalent(label: &str, fresh: &mut Searcher, loaded: &mut Searcher, threshold: f64) {
    // Batch join: pairs, similarities, and counters.
    let (a, b) = (fresh.all_pairs().unwrap(), loaded.all_pairs().unwrap());
    assert_eq!(bits(&a.pairs), bits(&b.pairs), "{label}: all_pairs");
    assert_eq!(a.candidates, b.candidates, "{label}: candidate counts");

    // Threshold queries over a spread of corpus vectors.
    for qid in (0..fresh.len() as u32).step_by(7) {
        let q = fresh.data().vector(qid).clone();
        let (x, y) = (
            fresh.query(&q, threshold).unwrap(),
            loaded.query(&q, threshold).unwrap(),
        );
        assert_eq!(
            neighbor_bits(&x.neighbors),
            neighbor_bits(&y.neighbors),
            "{label}: query {qid}"
        );
        assert_eq!(x.stats, y.stats, "{label}: query stats {qid}");
    }

    // Top-k.
    let q = fresh.data().vector(3).clone();
    let (x, y) = (
        fresh.top_k(&q, 5, &KnnParams::default()).unwrap(),
        loaded.top_k(&q, 5, &KnnParams::default()).unwrap(),
    );
    assert_eq!(
        neighbor_bits(&x.neighbors),
        neighbor_bits(&y.neighbors),
        "{label}: top_k"
    );
    assert_eq!(x.stats, y.stats, "{label}: top_k stats");

    // Insert the same vector into both, then query it back: the reloaded
    // hash-function banks must extend signatures and buckets identically.
    let planted = fresh.data().vector(1).clone();
    let (ia, ib) = (
        fresh.insert(planted.clone()).unwrap(),
        loaded.insert(planted.clone()).unwrap(),
    );
    assert_eq!(ia, ib, "{label}: inserted ids");
    assert_eq!(
        fresh.hash_count(),
        loaded.hash_count(),
        "{label}: hash accounting after insert"
    );
    let (x, y) = (
        fresh.query(&planted, threshold).unwrap(),
        loaded.query(&planted, threshold).unwrap(),
    );
    assert_eq!(
        neighbor_bits(&x.neighbors),
        neighbor_bits(&y.neighbors),
        "{label}: insert-then-query"
    );
    assert!(
        x.neighbors.iter().any(|&(id, _)| id == ia),
        "{label}: insert must be findable"
    );
}

fn roundtrip(comp: Composition, cfg: PipelineConfig, data: &Dataset, threads: u32) {
    let label = format!("{comp} (threads {threads})");
    let build = || {
        Searcher::builder(cfg)
            .composition(comp)
            .parallelism(Parallelism::threads(threads))
            .build(data.clone())
            .unwrap()
    };
    let mut fresh = build();
    let mut snapshot = Vec::new();
    build().save(&mut snapshot).unwrap();
    let mut loaded = Searcher::load(&snapshot[..]).unwrap();
    assert_eq!(loaded.threads(), threads as usize, "{label}: saved budget");
    assert_eq!(loaded.composition(), comp, "{label}: saved composition");
    assert_equivalent(&label, &mut fresh, &mut loaded, cfg.threshold);
}

#[test]
fn every_composition_roundtrips_bit_identically_serial() {
    let weighted = corpus(501);
    let binary = corpus(502).binarized();
    for comp in all_compositions() {
        if supports_weighted(comp) {
            roundtrip(comp, PipelineConfig::cosine(0.7), &weighted, 1);
        }
        roundtrip(comp, PipelineConfig::jaccard(0.5), &binary, 1);
    }
}

#[test]
fn every_composition_roundtrips_bit_identically_threaded() {
    let weighted = corpus(503);
    let binary = corpus(504).binarized();
    for comp in all_compositions() {
        if supports_weighted(comp) {
            roundtrip(comp, PipelineConfig::cosine(0.7), &weighted, 4);
        }
        roundtrip(comp, PipelineConfig::jaccard(0.5), &binary, 4);
    }
}

#[test]
fn lazy_mode_with_uneven_signature_depths_roundtrips() {
    // Lazy hashing leaves signatures at different depths (queries deepen
    // only surviving candidates); a snapshot taken mid-life must preserve
    // those depths and keep amortizing afterwards.
    let data = corpus(505);
    let cfg = PipelineConfig::cosine(0.7);
    let build = || {
        Searcher::builder(cfg)
            .composition(Composition::new(
                GeneratorKind::LshBanding,
                VerifierKind::Bayes,
            ))
            .hash_mode(HashMode::Lazy)
            .parallelism(Parallelism::serial())
            .build(data.clone())
            .unwrap()
    };
    let fresh = build();
    let to_save = build();
    // Deepen some signatures on both, identically, before the save.
    for qid in [0u32, 9, 17] {
        let q = data.vector(qid).clone();
        fresh.query(&q, 0.7).unwrap();
        to_save.query(&q, 0.7).unwrap();
    }
    let mut snapshot = Vec::new();
    to_save.save(&mut snapshot).unwrap();
    let loaded = Searcher::load(&snapshot[..]).unwrap();
    assert_eq!(loaded.hash_mode(), HashMode::Lazy);
    assert_eq!(loaded.hash_count(), fresh.hash_count());
    // The same queries again hash nothing new on either side...
    let before = loaded.hash_count();
    for qid in [0u32, 9, 17] {
        let q = data.vector(qid).clone();
        let (x, y) = (
            fresh.query(&q, 0.7).unwrap(),
            loaded.query(&q, 0.7).unwrap(),
        );
        assert_eq!(neighbor_bits(&x.neighbors), neighbor_bits(&y.neighbors));
    }
    assert_eq!(loaded.hash_count(), before, "reloaded memo must persist");
    // ...and a new query extends both pools identically.
    let q = data.vector(23).clone();
    let (x, y) = (
        fresh.query(&q, 0.7).unwrap(),
        loaded.query(&q, 0.7).unwrap(),
    );
    assert_eq!(neighbor_bits(&x.neighbors), neighbor_bits(&y.neighbors));
    assert_eq!(fresh.hash_count(), loaded.hash_count());
}

#[test]
fn snapshot_of_a_grown_index_roundtrips() {
    // Save after inserts: the incremental tail of the banding index must
    // replay exactly.
    let data = corpus(506);
    let cfg = PipelineConfig::cosine(0.7);
    let build = |data: Dataset| {
        Searcher::builder(cfg)
            .composition(Composition::new(
                GeneratorKind::LshBanding,
                VerifierKind::Exact,
            ))
            .parallelism(Parallelism::serial())
            .build(data)
            .unwrap()
    };
    let mut fresh = build(data.clone());
    let mut to_save = build(data.clone());
    for qid in [4u32, 11] {
        let v = data.vector(qid).clone();
        fresh.insert(v.clone()).unwrap();
        to_save.insert(v).unwrap();
    }
    let mut snapshot = Vec::new();
    to_save.save(&mut snapshot).unwrap();
    let mut loaded = Searcher::load(&snapshot[..]).unwrap();
    assert_equivalent("grown index", &mut fresh, &mut loaded, 0.7);
}

#[test]
fn load_with_parallelism_override_is_bit_identical() {
    // Build serial, save, load onto a 4-thread budget: results must not
    // move (the parallel-equals-serial guarantee extends through
    // persistence).
    let data = corpus(507);
    let cfg = PipelineConfig::cosine(0.7);
    let mut fresh = Searcher::builder(cfg)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::BayesLite,
        ))
        .parallelism(Parallelism::serial())
        .build(data.clone())
        .unwrap();
    let mut snapshot = Vec::new();
    fresh.save(&mut snapshot).unwrap();
    let mut wide = Searcher::load_with_parallelism(&snapshot[..], Parallelism::threads(4)).unwrap();
    assert_eq!(wide.threads(), 4);
    assert_equivalent("thread override", &mut fresh, &mut wide, 0.7);
}

#[test]
fn snapshots_are_deterministic_bytes() {
    // Two identical builds serialize to identical bytes — snapshots can be
    // content-addressed / diffed.
    let data = corpus(508);
    let build = || {
        Searcher::builder(PipelineConfig::cosine(0.7))
            .parallelism(Parallelism::serial())
            .build(data.clone())
            .unwrap()
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    build().save(&mut a).unwrap();
    build().save(&mut b).unwrap();
    assert_eq!(a, b);
}
