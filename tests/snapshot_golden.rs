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
