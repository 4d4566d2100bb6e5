//! Top-k request validation: `Searcher::top_k` and the shard router's
//! `top_k` run the same `KnnParams` check, so a bad request fails with the
//! identical typed error at both entry points — before any posterior is
//! evaluated and before any shard slot is locked. A NaN floor used to panic
//! inside the posterior tail while the router held a shard-slot mutex,
//! poisoning the slot for every later request.

use bayeslsh::prelude::*;

fn corpus() -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(31);
    let mut d = Dataset::new(500);
    for c in 0..5 {
        let center: Vec<(u32, f32)> = (0..20)
            .map(|_| {
                (
                    (c * 100 + rng.next_below(90) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for _ in 0..6 {
            let mut pairs = center.clone();
            for p in pairs.iter_mut() {
                if rng.next_bool(0.2) {
                    *p = (rng.next_below(500) as u32, (rng.next_f64() + 0.3) as f32);
                }
            }
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

/// Bad requests, each with the parameter its error must name.
fn bad_requests() -> Vec<(usize, KnnParams, &'static str)> {
    let with_floor = |floor| KnnParams {
        floor,
        ..KnnParams::default()
    };
    vec![
        (3, with_floor(f64::NAN), "floor"),
        (3, with_floor(f64::INFINITY), "floor"),
        (3, with_floor(f64::NEG_INFINITY), "floor"),
        (3, with_floor(1.0), "floor"),
        (3, with_floor(1.5), "floor"),
        (0, KnnParams::default(), "k"),
        (
            3,
            KnnParams {
                epsilon: 1.0,
                ..KnnParams::default()
            },
            "epsilon",
        ),
        (
            3,
            KnnParams {
                chunk: 64,
                h: 32,
                ..KnnParams::default()
            },
            "chunk",
        ),
    ]
}

fn param_of(err: &SearchError) -> &'static str {
    match err {
        SearchError::InvalidConfig { param, .. } => param,
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn searcher_rejects_bad_top_k_requests_with_typed_errors() {
    let data = corpus();
    for (cfg, data) in [
        (PipelineConfig::cosine(0.7), data.clone()),
        (PipelineConfig::jaccard(0.5), data.binarized()),
    ] {
        let searcher = Searcher::builder(cfg).build(data.clone()).unwrap();
        let q = data.vector(0).clone();
        for (k, params, param) in bad_requests() {
            let err = searcher.top_k(&q, k, &params).unwrap_err();
            assert_eq!(param_of(&err), param, "{params:?}");
        }
        let ok = searcher.top_k(&q, 3, &KnnParams::default()).unwrap();
        assert_eq!(ok.neighbors[0].0, 0, "self must rank first");
    }
}

#[test]
fn router_rejects_bad_top_k_requests_and_keeps_serving() {
    let data = corpus();
    let cfg = PipelineConfig::cosine(0.7);
    let dir = std::env::temp_dir().join(format!("bayeslsh-top-k-params-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ShardBuilder::new(cfg)
        .shards(3)
        .build_to_dir(&data, &dir)
        .unwrap();
    let router = ShardedSearcher::open(&dir.join(MANIFEST_FILE)).unwrap();
    let single = Searcher::builder(cfg).build(data.clone()).unwrap();
    let q = data.vector(7).clone();

    for (k, params, param) in bad_requests() {
        match router.top_k(&q, k, &params) {
            Err(ShardError::Search(err)) => {
                assert_eq!(param_of(&err), param, "{params:?}");
                assert_eq!(Err(err), single.top_k(&q, k, &params).map(|_| ()));
            }
            other => panic!("expected a typed error for {params:?}, got {other:?}"),
        }
    }

    // The router still answers, exactly as the single index does.
    let (a, b) = (
        router.query(&q, 0.7).unwrap(),
        single.query(&q, 0.7).unwrap(),
    );
    assert_eq!(a.neighbors, b.neighbors);
    let params = KnnParams::default();
    let (a, b) = (
        router.top_k(&q, 3, &params).unwrap(),
        single.top_k(&q, 3, &params).unwrap(),
    );
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.stats, b.stats);
    std::fs::remove_dir_all(&dir).ok();
}
