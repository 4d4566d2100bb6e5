//! End-to-end guarantees for the new hash families: the E2LSH (L2)
//! family rides every verifier — the SPRT composition included — with
//! output **bit-identical** across thread counts and shard counts, and
//! the MIPS reduction searches inner products through the cosine
//! machinery. Multi-probe on the integer-hash families (L2, Jaccard) and
//! PPJoin+ on either new measure are typed config errors instead of
//! silent fallbacks or garbage.

use bayeslsh::prelude::*;

/// Clustered weighted corpus with planted L2 near-neighbours: members of
/// a cluster share the center's support and jitter its values, so
/// within-cluster Euclidean distances are small (s = 1/(1 + d) high)
/// while cross-cluster distances are large.
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
            // Jitter magnitude grows with the member index, planting pairs
            // across the whole similarity range above the threshold.
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

fn bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

fn neighborhood(n: &[(u32, f64)]) -> Vec<(u32, u64)> {
    n.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

const SPRT: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::Sprt);

#[test]
fn l2_through_sprt_is_bit_identical_across_thread_counts() {
    let data = l2_corpus(701);
    let mut serial_cfg = PipelineConfig::l2(0.5, 4.0);
    serial_cfg.parallelism = Parallelism::serial();
    let mut serial = Searcher::builder(serial_cfg)
        .composition(SPRT)
        .build(data.clone())
        .unwrap();
    let serial_batch = serial.all_pairs().unwrap();
    assert!(
        !serial_batch.pairs.is_empty(),
        "the planted clusters must produce L2 pairs"
    );
    let queries: Vec<SparseVector> = (0..8).map(|i| data.vector(i * 5).clone()).collect();
    let expect: Vec<QueryOutput> = queries
        .iter()
        .map(|q| serial.query(q, 0.5).unwrap())
        .collect();
    let planted = data.vector(2).clone();
    serial.insert(planted.clone()).unwrap();
    let serial_after = serial.all_pairs().unwrap();

    for threads in [1u32, 4] {
        let mut cfg = PipelineConfig::l2(0.5, 4.0);
        cfg.parallelism = Parallelism::threads(threads);
        let mut par = Searcher::builder(cfg)
            .composition(SPRT)
            .build(data.clone())
            .unwrap();
        let out = par.all_pairs().unwrap();
        assert_eq!(
            bits(&serial_batch.pairs),
            bits(&out.pairs),
            "threads={threads}"
        );
        assert_eq!(serial_batch.candidates, out.candidates);
        for (q, e) in queries.iter().zip(&expect) {
            let got = par.query(q, 0.5).unwrap();
            assert_eq!(
                neighborhood(&e.neighbors),
                neighborhood(&got.neighbors),
                "threads={threads}"
            );
            assert_eq!(e.stats, got.stats, "threads={threads}");
        }
        // Incremental insert keeps the guarantee.
        par.insert(planted.clone()).unwrap();
        let out = par.all_pairs().unwrap();
        assert_eq!(
            bits(&serial_after.pairs),
            bits(&out.pairs),
            "threads={threads} after insert"
        );
    }
}

#[test]
fn l2_through_sprt_is_bit_identical_single_vs_sharded() {
    let data = l2_corpus(702);
    let mut cfg = PipelineConfig::l2(0.5, 4.0);
    cfg.parallelism = Parallelism::serial();
    let single = Searcher::builder(cfg)
        .composition(SPRT)
        .build(data.clone())
        .unwrap();
    let single_batch = single.all_pairs().unwrap();
    assert!(!single_batch.pairs.is_empty());

    for shards in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "bayeslsh-l2-shards-{shards}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ShardBuilder::new(cfg)
            .composition(SPRT)
            .shards(shards)
            .partition(PartitionFn::Hashed { seed: 5 })
            .parallelism(Parallelism::serial())
            .build_to_dir(&data, &dir)
            .unwrap();
        let sharded = ShardedSearcher::open_with(
            &dir.join(MANIFEST_FILE),
            Parallelism::serial(),
            LoadPolicy::Eager,
        )
        .unwrap();

        let merged = sharded.all_pairs().unwrap();
        assert_eq!(
            bits(&single_batch.pairs),
            bits(&merged.pairs),
            "shards={shards}"
        );

        for qid in (0..data.len() as u32).step_by(7) {
            let q = data.vector(qid).clone();
            let (x, y) = (
                sharded.query(&q, 0.5).unwrap(),
                single.query(&q, 0.5).unwrap(),
            );
            // Scatter-gather probes each shard's own index, so the merged
            // probe count scales with the shard count; everything else is
            // bit-identical.
            let mut scaled = y.stats;
            scaled.bucket_probes *= shards as u64;
            assert_eq!(x.stats, scaled, "shards={shards} query {qid}");
            assert_eq!(
                neighborhood(&x.neighbors),
                neighborhood(&y.neighbors),
                "shards={shards} query {qid}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn l2_compositions_recall_ground_truth() {
    let data = l2_corpus(703);
    let cfg = PipelineConfig::l2(0.5, 4.0);
    let gt = ground_truth(&data, Measure::L2, 0.5);
    assert!(gt.len() >= 20, "ground truth too small: {}", gt.len());
    let truth: std::collections::HashSet<(u32, u32)> = gt.iter().map(|&(a, b, _)| (a, b)).collect();
    for comp in [
        Composition::new(GeneratorKind::AllPairs, VerifierKind::Exact),
        Composition::new(GeneratorKind::AllPairs, VerifierKind::Bayes),
        Composition::new(GeneratorKind::AllPairs, VerifierKind::BayesLite),
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Exact),
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Mle),
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes),
        Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite),
        SPRT,
    ] {
        let searcher = Searcher::builder(cfg)
            .composition(comp)
            .build(data.clone())
            .unwrap();
        let out = searcher.all_pairs().unwrap();
        let hits = out
            .pairs
            .iter()
            .filter(|&&(a, b, _)| truth.contains(&(a, b)))
            .count();
        let recall = hits as f64 / gt.len() as f64;
        let min =
            if comp.generator == GeneratorKind::AllPairs && comp.verifier == VerifierKind::Exact {
                1.0
            } else {
                0.85
            };
        assert!(
            recall >= min,
            "{comp}: L2 recall {recall:.3} (output {}, truth {})",
            out.pairs.len(),
            gt.len()
        );
    }
}

#[test]
fn ppjoin_rejects_the_new_measures_with_a_typed_error() {
    let data = l2_corpus(704);
    for cfg in [PipelineConfig::l2(0.5, 4.0), PipelineConfig::mips(0.6)] {
        let err = Searcher::builder(cfg)
            .composition(Composition::new(
                GeneratorKind::PpjoinPlus,
                VerifierKind::Exact,
            ))
            .build(data.clone())
            .unwrap_err();
        assert!(
            matches!(err, SearchError::InvalidConfig { .. }),
            "{:?}: expected InvalidConfig, got {err:?}",
            cfg.family.measure()
        );
    }
}

#[test]
fn integer_hash_families_reject_multi_probe_with_a_typed_error() {
    // Integer band keys are digests of hash tuples, so a single-bit flip
    // means nothing: `probes > 1` on L2 (E2LSH buckets) or Jaccard
    // (minhash) is refused at build.
    let l2 = l2_corpus(705);
    let binary = l2.binarized();
    for (cfg, data) in [
        (PipelineConfig::l2(0.5, 4.0), &l2),
        (PipelineConfig::jaccard(0.5), &binary),
    ] {
        let family = cfg.family.measure();
        assert!(Searcher::builder(cfg).build(data.clone()).is_ok());
        let err = Searcher::builder(cfg)
            .probes(5)
            .build(data.clone())
            .unwrap_err();
        assert!(
            matches!(
                err,
                SearchError::InvalidConfig {
                    param: "probes",
                    ..
                }
            ),
            "{family:?}: expected InvalidConfig(probes), got {err:?}"
        );
    }
}

#[test]
fn mips_reduction_orders_neighbors_by_inner_product() {
    // Raw corpus with deliberately varied norms: plain cosine would rank
    // the *direction* matches first; MIPS must rank by q·x instead.
    let mut rng = Xoshiro256::seed_from_u64(706);
    let mut raw = Dataset::new(500);
    for c in 0..6 {
        let center: Vec<(u32, f32)> = (0..20)
            .map(|_| {
                (
                    (c * 80 + rng.next_below(75) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for m in 0..5 {
            // Same direction, very different magnitudes.
            let scale = 0.5 + m as f32;
            let pairs: Vec<(u32, f32)> = center
                .iter()
                .map(|&(i, x)| {
                    let jittered = x + ((rng.next_f64() - 0.5) * 0.05) as f32;
                    (i, jittered * scale)
                })
                .collect();
            raw.push(SparseVector::from_pairs(pairs));
        }
    }
    let transform = MipsTransform::fit(&raw);
    let augmented = transform.transform_corpus(&raw);
    let searcher = Searcher::builder(PipelineConfig::mips(0.3))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Exact,
        ))
        .build(augmented)
        .unwrap();

    let mut checked = 0;
    for qid in 0..raw.len() as u32 {
        let q = raw.vector(qid).clone();
        let out = searcher
            .top_k(&transform.augment_query(&q), 3, &KnnParams::default())
            .unwrap();
        if out.neighbors.is_empty() {
            continue;
        }
        // The top hit must be the true inner-product argmax.
        let best = raw
            .iter()
            .max_by(|a, b| dot(&q, a.1).total_cmp(&dot(&q, b.1)))
            .unwrap()
            .0;
        assert_eq!(
            out.neighbors[0].0, best,
            "query {qid}: MIPS top-1 must be the inner-product argmax"
        );
        checked += 1;
    }
    assert!(checked >= 25, "only {checked} queries produced neighbors");
}
