//! Golden-fixture compatibility test: a snapshot committed at format
//! version 1 (`tests/fixtures/snapshot_v1.bin`) must keep loading, and
//! must keep producing results bit-identical to a freshly built searcher
//! over the same corpus and config. Any byte-layout change that forgets to
//! bump `SNAPSHOT_FORMAT_VERSION` — or any drift in the hash families,
//! banding plan, or candidate ordering that would silently invalidate
//! existing snapshots — fails here (and in CI's `snapshot-compat` job).
//!
//! To regenerate after an *intentional* format-version bump:
//!
//! ```text
//! cargo test --test snapshot_golden regenerate_golden_fixture -- --ignored
//! ```

use std::path::PathBuf;

use bayeslsh::prelude::*;

/// LSH banding × BayesLSH-Lite.
const LITE: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("snapshot_v1.bin")
}

/// The fixture's corpus: fixed here, independent of the dataset presets
/// (which are allowed to evolve).
fn fixture_corpus() -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(20_260_730);
    let mut d = Dataset::new(400);
    for c in 0..4 {
        let center: Vec<(u32, f32)> = (0..12)
            .map(|_| {
                (
                    (c * 100 + rng.next_below(90) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for _ in 0..4 {
            let mut pairs = center.clone();
            for p in pairs.iter_mut() {
                if rng.next_bool(0.15) {
                    *p = (rng.next_below(400) as u32, (rng.next_f64() + 0.3) as f32);
                }
            }
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

fn fixture_searcher() -> Searcher {
    Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(LITE)
        .parallelism(Parallelism::serial())
        .build(fixture_corpus())
        .unwrap()
}

#[test]
fn golden_v1_fixture_loads_and_matches_a_fresh_build() {
    let bytes = std::fs::read(fixture_path()).expect(
        "tests/fixtures/snapshot_v1.bin missing — regenerate with \
         `cargo test --test snapshot_golden regenerate_golden_fixture -- --ignored`",
    );

    // Header probe: stable metadata.
    let header = SnapshotHeader::read(&bytes[..]).unwrap();
    assert_eq!(header.format_version, SNAPSHOT_FORMAT_VERSION);
    assert_eq!(header.measure, Measure::Cosine);
    assert_eq!(header.composition, LITE);
    assert_eq!(header.n_vectors, 16);
    assert_eq!(header.threads, 1);

    // Full load, then bit-identical behaviour versus a fresh build.
    let loaded = Searcher::load(&bytes[..]).expect(
        "golden snapshot no longer loads — if the format changed on purpose, bump \
         SNAPSHOT_FORMAT_VERSION and regenerate the fixture",
    );
    let fresh = fixture_searcher();
    assert_eq!(loaded.hash_count(), fresh.hash_count());

    let (a, b) = (fresh.all_pairs().unwrap(), loaded.all_pairs().unwrap());
    assert_eq!(a.pairs.len(), b.pairs.len());
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
    }

    for qid in 0..fresh.len() as u32 {
        let q = fresh.data().vector(qid).clone();
        let (x, y) = (
            fresh.query(&q, 0.7).unwrap(),
            loaded.query(&q, 0.7).unwrap(),
        );
        assert_eq!(x.stats, y.stats, "query {qid}");
        assert_eq!(x.neighbors.len(), y.neighbors.len(), "query {qid}");
        for (p, q) in x.neighbors.iter().zip(&y.neighbors) {
            assert_eq!((p.0, p.1.to_bits()), (q.0, q.1.to_bits()), "query {qid}");
        }
    }
}

/// Strip the trailing config-section fields (the multi-probe budget, and
/// for L2 the bucket width) from a freshly written snapshot, producing the
/// exact byte stream the v1 writer emitted before those fields existed,
/// and fix up the section length and stream checksum accordingly.
fn strip_trailing_config_fields(bytes: &[u8], trailing: usize) -> Vec<u8> {
    // Fixed prefix: magic 8 + version 4 + four u8 tags + threads u32 +
    // sig_depth u32 + n_vectors u64 + dim u32 + total_hashes u64 = 44,
    // then the config section's id u16 + length u64.
    const LEN_AT: usize = 46;
    const PAYLOAD_AT: usize = 54;
    let len = u64::from_le_bytes(bytes[LEN_AT..LEN_AT + 8].try_into().unwrap()) as usize;
    let mut out = bytes[..PAYLOAD_AT + len - trailing].to_vec();
    out[LEN_AT..LEN_AT + 8].copy_from_slice(&((len - trailing) as u64).to_le_bytes());
    out.extend_from_slice(&bytes[PAYLOAD_AT + len..bytes.len() - 8]);
    let sum = bayeslsh::numeric::wire::fnv1a_checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn legacy_fixture_without_trailing_config_fields_still_loads() {
    // The committed pre-multi-probe cosine fixture: genuine bytes from the
    // v1 writer before the trailing probes/family fields existed. They
    // must keep loading (defaulting to single-probe, SRP family) and keep
    // answering bit-identically to a fresh build.
    let legacy_path = fixture_path().with_file_name("snapshot_v1_legacy.bin");
    let bytes = std::fs::read(legacy_path).expect("legacy fixture missing");
    let loaded = Searcher::load(&bytes[..])
        .expect("pre-multi-probe v1 snapshots must keep loading unchanged");
    assert_eq!(loaded.config().probes, 1);
    assert_eq!(loaded.config().family, FamilyConfig::Cosine);
    let fresh = fixture_searcher();
    let (a, b) = (fresh.all_pairs().unwrap(), loaded.all_pairs().unwrap());
    assert_eq!(a.pairs.len(), b.pairs.len());
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
    }
    // And the legacy bytes are exactly today's writer output minus the
    // trailing config fields (8 bytes of probe budget for cosine).
    let mut now = Vec::new();
    fresh.save(&mut now).unwrap();
    assert_eq!(strip_trailing_config_fields(&now, 8), bytes);
}

#[test]
fn legacy_jaccard_snapshot_still_loads() {
    // Same guarantee for the MinHash family: a snapshot byte stream
    // exactly as the pre-multi-probe v1 writer produced it still loads.
    let data = fixture_corpus().binarized();
    let built = Searcher::builder(PipelineConfig::jaccard(0.5))
        .composition(LITE)
        .parallelism(Parallelism::serial())
        .build(data)
        .unwrap();
    let mut now = Vec::new();
    built.save(&mut now).unwrap();
    let legacy = strip_trailing_config_fields(&now, 8);
    let loaded = Searcher::load(&legacy[..]).expect("legacy jaccard snapshot must load");
    assert_eq!(loaded.config().probes, 1);
    assert_eq!(loaded.config().family, FamilyConfig::Jaccard);
    let q = built.data().vector(0).clone();
    let (a, b) = (
        built.query(&q, 0.5).unwrap(),
        loaded.query(&q, 0.5).unwrap(),
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(neighborhood(&a.neighbors), neighborhood(&b.neighbors));
}

fn neighborhood(n: &[(u32, f64)]) -> Vec<(u32, u64)> {
    n.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

#[test]
fn l2_snapshot_round_trips_with_the_new_family_tag() {
    // The new family tag (measure 2, pool tag 2 = quantized projections)
    // round-trips through the same v1 container, carrying the bucket
    // width and probe budget in the config section's trailing fields.
    let built = Searcher::builder(PipelineConfig::l2(0.5, 4.0))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Sprt,
        ))
        .parallelism(Parallelism::serial())
        .build(fixture_corpus())
        .unwrap();
    let mut bytes = Vec::new();
    built.save(&mut bytes).unwrap();
    let header = SnapshotHeader::read(&bytes[..]).unwrap();
    assert_eq!(header.measure, Measure::L2);
    let loaded = Searcher::load(&bytes[..]).unwrap();
    assert_eq!(loaded.config().family, FamilyConfig::L2 { r: 4.0 });
    let q = built.data().vector(3).clone();
    let (a, b) = (
        built.query(&q, 0.5).unwrap(),
        loaded.query(&q, 0.5).unwrap(),
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(neighborhood(&a.neighbors), neighborhood(&b.neighbors));
    // An L2 snapshot that loses its bucket-width trailing field is
    // rejected as corrupt, never guessed at.
    let truncated = strip_trailing_config_fields(&bytes, 8);
    assert!(matches!(
        Searcher::load(&truncated[..]),
        Err(SnapshotError::Corrupt { .. })
    ));
}

#[test]
fn fixture_bytes_are_reproducible() {
    // The committed fixture must be exactly what today's writer emits for
    // the fixture build: if this drifts while the loader still accepts the
    // old bytes, the *writer* changed — which also requires a version bump
    // and a regenerated fixture.
    let bytes = std::fs::read(fixture_path()).expect("fixture missing");
    let mut now = Vec::new();
    fixture_searcher().save(&mut now).unwrap();
    assert_eq!(
        bytes, now,
        "serializer output drifted from the committed v1 fixture"
    );
}

/// `(save length, FNV-1a of the save, hash_count())` for one family × hash
/// mode × verifier at two threads, after one join, three threshold queries
/// and three top-k queries have deepened its pool.
fn pool_digest(cfg: PipelineConfig, data: Dataset, mode: HashMode, v: VerifierKind) -> [u64; 3] {
    let queries: Vec<SparseVector> = [0u32, 5, 10]
        .iter()
        .map(|&id| data.vector(id).clone())
        .collect();
    let t = cfg.threshold;
    let s = Searcher::builder(cfg)
        .composition(Composition::new(GeneratorKind::LshBanding, v))
        .hash_mode(mode)
        .parallelism(Parallelism::threads(2))
        .build(data)
        .unwrap();
    s.all_pairs().unwrap();
    for q in &queries {
        s.query(q, t).unwrap();
        s.top_k(q, 3, &KnnParams::default()).unwrap();
    }
    let mut bytes = Vec::new();
    s.save(&mut bytes).unwrap();
    [
        bytes.len() as u64,
        bayeslsh::numeric::wire::fnv1a_checksum(&bytes),
        s.hash_count(),
    ]
}

#[test]
fn every_pool_family_writes_pinned_snapshot_bytes() {
    // Only the cosine layout has a committed fixture; this pins the bytes
    // of every pool family (SRP bits for cosine and MIPS, minhash integers,
    // E2LSH buckets): hasher header, per-object depths and words, and the
    // hash accounting. Recorded from the per-family pools the generic
    // signature pool replaced.
    // [save length, FNV-1a of the save, hash_count()], in loop order:
    // family, then Eager/Lazy, then BayesLSH-Lite/BayesLSH.
    const EXPECT: [[u64; 3]; 16] = [
        // cosine
        [13739, 16684160050445237503, 9216],
        [20779, 16382625730294620884, 65536],
        [13739, 2547361764762572243, 9216],
        [20779, 11409938240110675766, 65536],
        // Jaccard
        [22594, 16617409054911897016, 3015],
        [76070, 13949697645990830405, 16384],
        [22594, 11403535642238874793, 3015],
        [51934, 7038709808979381578, 10350],
        // L2
        [16954, 2580625528474985673, 3008],
        [70458, 5157184806111182642, 16384],
        [16954, 13767674587433978222, 3008],
        [70458, 10925185321951342360, 16384],
        // MIPS
        [20519, 6235883770488977036, 14784],
        [27119, 15293967779141638945, 67584],
        [20519, 9656013341622976182, 14784],
        [27119, 1609637279551657008, 67584],
    ];
    // The fixture's four clusters plus sixteen unclustered vectors and one
    // empty vector, which no pool hashes. Lazy Jaccard verification leaves
    // uneven depths; the other families' candidate sets cover every
    // vector, and two-thread scans pre-extend candidates to the scan cap.
    let mut corpus = fixture_corpus();
    let mut rng = Xoshiro256::seed_from_u64(19);
    for _ in 0..16 {
        let pairs: Vec<(u32, f32)> = (0..12)
            .map(|_| (rng.next_below(400) as u32, (rng.next_f64() + 0.3) as f32))
            .collect();
        corpus.push(SparseVector::from_pairs(pairs));
    }
    corpus.push(SparseVector::from_pairs(Vec::new()));
    let mips = MipsTransform::fit(&corpus);
    let families = [
        (PipelineConfig::cosine(0.7), corpus.clone()),
        (PipelineConfig::jaccard(0.5), corpus.binarized()),
        (PipelineConfig::l2(0.5, 4.0), corpus.clone()),
        (PipelineConfig::mips(0.6), mips.transform_corpus(&corpus)),
    ];
    let mut got = Vec::new();
    for (cfg, data) in families {
        for mode in [HashMode::Eager, HashMode::Lazy] {
            for v in [VerifierKind::BayesLite, VerifierKind::Bayes] {
                got.push(pool_digest(cfg, data.clone(), mode, v));
            }
        }
    }
    assert_eq!(got, EXPECT, "snapshot bytes drifted: {got:?}");
}

/// Regenerates the committed fixture. Run explicitly (see module docs);
/// never runs in CI.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut bytes = Vec::new();
    fixture_searcher().save(&mut bytes).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    println!("wrote {} ({} bytes)", path.display(), bytes.len());
}
