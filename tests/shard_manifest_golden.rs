//! Golden-fixture compatibility test for the sharded-serving artifacts:
//! a shard set committed at manifest format version 1
//! (`tests/fixtures/shard_manifest_v1/`) must keep opening, and must
//! keep serving results bit-identical to a single searcher freshly
//! built over the same corpus. Any layout change to the manifest or the
//! per-shard snapshots that forgets to bump the corresponding format
//! version — or any drift in the partition function, the config
//! fingerprint, or the scatter-gather merge order — fails here (and in
//! CI's `shard-compat` job).
//!
//! To regenerate after an *intentional* format-version bump:
//!
//! ```text
//! cargo test --test shard_manifest_golden regenerate_golden_fixture -- --ignored
//! ```

use std::path::PathBuf;

use bayeslsh::prelude::*;

/// LSH banding × BayesLSH-Lite.
const LITE: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

const FIXTURE_SHARDS: usize = 3;
const FIXTURE_PARTITION: PartitionFn = PartitionFn::Hashed { seed: 9 };

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("shard_manifest_v1")
}

/// The fixture's corpus: fixed here, independent of the dataset presets
/// (which are allowed to evolve).
fn fixture_corpus() -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(20_260_806);
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
        for _ in 0..5 {
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

fn fixture_builder() -> ShardBuilder {
    ShardBuilder::new(PipelineConfig::cosine(0.7))
        .composition(LITE)
        .shards(FIXTURE_SHARDS)
        .partition(FIXTURE_PARTITION)
        .parallelism(Parallelism::serial())
}

#[test]
fn golden_v1_shard_set_opens_and_matches_a_fresh_build() {
    let manifest_path = fixture_dir().join(MANIFEST_FILE);
    let manifest = ShardManifest::load(&manifest_path).expect(
        "tests/fixtures/shard_manifest_v1/ missing or unreadable — regenerate with \
         `cargo test --test shard_manifest_golden regenerate_golden_fixture -- --ignored`",
    );
    assert_eq!(manifest.shard_count(), FIXTURE_SHARDS);
    assert_eq!(manifest.partition, FIXTURE_PARTITION);
    assert_eq!(manifest.n_total, 20);
    assert_eq!(manifest.dim, 400);

    let sharded =
        ShardedSearcher::open_with(&manifest_path, Parallelism::serial(), LoadPolicy::Eager)
            .expect(
                "golden shard set no longer opens — if the manifest or snapshot format changed \
         on purpose, bump the format version and regenerate the fixture",
            );
    let fresh = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(LITE)
        .parallelism(Parallelism::serial())
        .build(fixture_corpus())
        .unwrap();

    let (a, b) = (sharded.all_pairs().unwrap(), fresh.all_pairs().unwrap());
    assert_eq!(a.pairs.len(), b.pairs.len());
    for (x, y) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
    }

    for qid in 0..fresh.len() as u32 {
        let q = fresh.data().vector(qid).clone();
        let (x, y) = (
            sharded.query(&q, 0.7).unwrap(),
            fresh.query(&q, 0.7).unwrap(),
        );
        // Scatter-gather probes every shard's buckets, so the merged
        // probe count is shards × the single index's; everything else
        // matches bit for bit.
        let mut scaled = y.stats;
        scaled.bucket_probes *= FIXTURE_SHARDS as u64;
        assert_eq!(x.stats, scaled, "query {qid}");
        assert_eq!(x.neighbors.len(), y.neighbors.len(), "query {qid}");
        for (p, r) in x.neighbors.iter().zip(&y.neighbors) {
            assert_eq!((p.0, p.1.to_bits()), (r.0, r.1.to_bits()), "query {qid}");
        }

        let (x, y) = (
            sharded.top_k(&q, 4, &KnnParams::default()).unwrap(),
            fresh.top_k(&q, 4, &KnnParams::default()).unwrap(),
        );
        assert_eq!(x.stats, y.stats, "top_k {qid}");
        for (p, r) in x.neighbors.iter().zip(&y.neighbors) {
            assert_eq!((p.0, p.1.to_bits()), (r.0, r.1.to_bits()), "top_k {qid}");
        }
    }
}

#[test]
fn fixture_bytes_are_reproducible() {
    // The committed fixture must be exactly what today's builder emits
    // for the fixture corpus: if this drifts while the opener still
    // accepts the old bytes, a *writer* changed — which also requires a
    // version bump and a regenerated fixture.
    let dir = std::env::temp_dir().join(format!("bayeslsh-shard-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = fixture_builder()
        .build_to_dir(&fixture_corpus(), &dir)
        .unwrap();

    let committed = std::fs::read(fixture_dir().join(MANIFEST_FILE)).expect("fixture missing");
    let now = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
    assert_eq!(
        committed, now,
        "manifest writer output drifted from the committed v1 fixture"
    );
    for entry in &manifest.shards {
        let committed = std::fs::read(fixture_dir().join(&entry.file)).expect("shard missing");
        let now = std::fs::read(dir.join(&entry.file)).unwrap();
        assert_eq!(
            committed, now,
            "shard snapshot {} drifted from the committed v1 fixture",
            entry.file
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates the committed fixture. Run explicitly (see module docs);
/// never runs in CI.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let dir = fixture_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = fixture_builder()
        .build_to_dir(&fixture_corpus(), &dir)
        .unwrap();
    println!(
        "wrote {} ({} shards, {} vectors)",
        dir.display(),
        manifest.shard_count(),
        manifest.n_total
    );
}
