//! API-equivalence guarantees between the one-shot `run_composition` and
//! the build-once/query-many `Searcher`: for every named composition the
//! two paths must produce identical pair sets (same seeds, same hash
//! streams, same candidate order — so even the Bayesian *estimates* agree
//! bit for bit), and a standing searcher must answer queries without
//! re-hashing the corpus.

use bayeslsh::prelude::*;

mod support;
use support::{all_compositions, supports_weighted};

const LSH_BAYES: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);
const LSH_LITE: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

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

fn sorted(mut pairs: Vec<(u32, u32, f64)>) -> Vec<(u32, u32, u64)> {
    pairs.sort_by_key(|&(a, b, _)| (a, b));
    // Compare estimates bit-for-bit: both paths run the same deterministic
    // code over the same hash streams.
    pairs
        .into_iter()
        .map(|(a, b, s)| (a, b, s.to_bits()))
        .collect()
}

#[test]
fn every_cosine_composition_matches_its_searcher() {
    let data = corpus(301);
    let cfg = PipelineConfig::cosine(0.7);
    for comp in all_compositions() {
        if !supports_weighted(comp) {
            continue; // PPJoin+ is covered by the jaccard test below.
        }
        let one_shot = run_composition(comp, &data, &cfg).unwrap().pairs;
        let searcher = Searcher::builder(cfg)
            .composition(comp)
            .build(data.clone())
            .unwrap();
        let composed = searcher.all_pairs().unwrap();
        assert_eq!(
            sorted(one_shot),
            sorted(composed.pairs),
            "{comp}: one-shot and Searcher must produce identical results"
        );
        assert_eq!(composed.composition, comp);
    }
}

#[test]
fn every_jaccard_composition_matches_its_searcher() {
    let data = corpus(302).binarized();
    let cfg = PipelineConfig::jaccard(0.5);
    for comp in all_compositions() {
        let one_shot = run_composition(comp, &data, &cfg).unwrap().pairs;
        let searcher = Searcher::builder(cfg)
            .composition(comp)
            .build(data.clone())
            .unwrap();
        let composed = searcher.all_pairs().unwrap();
        assert_eq!(
            sorted(one_shot),
            sorted(composed.pairs),
            "{comp}: one-shot and Searcher must produce identical results"
        );
    }
}

#[test]
fn lazy_hash_mode_is_equivalent_too() {
    let data = corpus(303);
    let cfg = PipelineConfig::cosine(0.7);
    let one_shot = run_composition(LSH_BAYES, &data, &cfg).unwrap();
    let searcher = Searcher::builder(cfg)
        .composition(LSH_BAYES)
        .hash_mode(HashMode::Lazy)
        .build(data)
        .unwrap();
    let composed = searcher.all_pairs().unwrap();
    assert_eq!(sorted(one_shot.pairs), sorted(composed.pairs));
}

#[test]
fn queries_do_not_rehash_the_corpus() {
    // The acceptance bar for build-once/query-many: one build pays for all
    // corpus hashing; N point queries add nothing.
    let data = corpus(304);
    let searcher = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(LSH_BAYES)
        .build(data)
        .unwrap();
    let built = searcher.hash_count();
    assert!(built > 0, "build must hash the corpus");
    let queries: Vec<SparseVector> = (0..searcher.len() as u32)
        .step_by(3)
        .map(|id| searcher.data().vector(id).clone())
        .collect();
    let mut answered = 0;
    for q in &queries {
        let out = searcher.query(q, 0.7).unwrap();
        assert!(!out.neighbors.is_empty(), "self-queries must hit");
        answered += 1;
    }
    assert!(answered >= 10);
    assert_eq!(
        searcher.hash_count(),
        built,
        "{answered} queries must not add corpus hashes"
    );
}

#[test]
fn insert_then_query_finds_planted_neighbors() {
    let data = corpus(305);
    let n0 = data.len();
    let mut searcher = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(LSH_LITE)
        .build(data)
        .unwrap();

    // Plant near-duplicates of a few corpus vectors.
    let mut planted = Vec::new();
    for qid in [2u32, 19, 40] {
        let v = searcher.data().vector(qid).clone();
        let id = searcher.insert(v.clone()).unwrap();
        planted.push((qid, id, v));
    }
    assert_eq!(searcher.len(), n0 + planted.len());

    for (qid, id, v) in &planted {
        // Querying with the original finds the planted copy...
        let original = searcher.data().vector(*qid).clone();
        let out = searcher.query(&original, 0.7).unwrap();
        assert!(
            out.neighbors.iter().any(|&(got, _)| got == *id),
            "query {qid} must find planted {id}"
        );
        // ...and querying with the copy finds the original.
        let out = searcher.query(v, 0.7).unwrap();
        assert!(
            out.neighbors.iter().any(|&(got, _)| got == *qid),
            "planted {id} must find original {qid}"
        );
    }
}

#[test]
fn jaccard_insert_and_query_roundtrip() {
    let data = corpus(306).binarized();
    let mut searcher = Searcher::builder(PipelineConfig::jaccard(0.5))
        .composition(LSH_LITE)
        .build(data)
        .unwrap();
    let v = searcher.data().vector(5).clone();
    let id = searcher.insert(v.clone()).unwrap();
    let out = searcher.query(&v, 0.5).unwrap();
    assert!(out.neighbors.iter().any(|&(got, s)| got == id && s > 0.999));
    // Weighted inserts AND weighted queries are rejected with the typed
    // error — the precondition is enforced consistently across methods.
    let weighted = SparseVector::from_pairs(vec![(1, 0.5)]);
    let err = searcher.insert(weighted.clone()).unwrap_err();
    assert!(matches!(err, SearchError::NonBinaryData { .. }));
    let err = searcher.query(&weighted, 0.5).unwrap_err();
    assert!(matches!(err, SearchError::NonBinaryData { .. }));
    let err = searcher
        .top_k(&weighted, 3, &KnnParams::default())
        .unwrap_err();
    assert!(matches!(err, SearchError::NonBinaryData { .. }));
}

#[test]
fn searcher_builder_reports_typed_errors() {
    // Invalid config.
    let mut cfg = PipelineConfig::cosine(0.7);
    cfg.gamma = 1.0;
    match Searcher::builder(cfg).build(corpus(307)) {
        Err(SearchError::InvalidConfig { param, .. }) => assert_eq!(param, "gamma"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Non-binary data under a binary-only composition.
    let err = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(Composition::new(
            GeneratorKind::PpjoinPlus,
            VerifierKind::Exact,
        ))
        .build(corpus(307))
        .unwrap_err();
    assert_eq!(
        err,
        SearchError::NonBinaryData {
            requires: "PPJoin+"
        }
    );
}

#[test]
fn top_k_agrees_with_brute_force_mostly() {
    let data = corpus(308);
    let searcher = Searcher::builder(PipelineConfig::cosine(0.5))
        .build(data)
        .unwrap();
    let k = 5;
    let (mut hits, mut total) = (0usize, 0usize);
    for qid in (0..searcher.len() as u32).step_by(11) {
        let q = searcher.data().vector(qid).clone();
        let out = searcher.top_k(&q, k + 1, &KnnParams::default()).unwrap();
        assert_eq!(out.neighbors[0].0, qid, "self must rank first");
        let got: std::collections::HashSet<u32> =
            out.neighbors.iter().skip(1).map(|&(id, _)| id).collect();
        let mut brute: Vec<(u32, f64)> = searcher
            .data()
            .iter()
            .filter(|&(id, _)| id != qid)
            .map(|(id, v)| (id, cosine(&q, v)))
            .collect();
        brute.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(id, _) in brute.iter().take(k) {
            total += 1;
            if got.contains(&id) {
                hits += 1;
            }
        }
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.75, "top-k recall {recall}");
}
