//! Golden-output oracle for every verification path.
//!
//! The equivalence suites compare execution paths with each other (serial
//! against parallel, one index against shards, fresh against reloaded), so
//! a verdict that moved the same way on every path passes them all. This
//! suite pins the outputs themselves: for every (family, composition) pair
//! that `SearcherBuilder::build` accepts, at 1 and 2 threads and under
//! both hash modes, it digests
//!
//! * the batch join — pairs with their similarity bits, the candidate
//!   count, and every `EngineStats` field;
//! * a fixed set of threshold queries — neighbours with their bits, plus
//!   stats;
//! * a fixed set of top-k queries — neighbours with their bits, plus
//!   stats;
//!
//! each together with `hash_count()` after the phase, so the lazy hashing
//! schedule is pinned too. The constants were recorded once, from a
//! reference build, and are never regenerated to make a change pass: a
//! mismatch means a verdict, an estimate, a counter or a hash count moved.
//!
//! Recording (only at a commit whose outputs are the reference):
//!
//! ```text
//! cargo test --release --test verifier_golden record_verifier_golden -- --ignored --nocapture
//! ```

use bayeslsh::numeric::wire::fnv1a_checksum;
use bayeslsh::prelude::*;

/// The fixed corpus: clusters whose members jitter the center's weights
/// (small L2 distances) and swap out a growing share of its features
/// (cosine and Jaccard spread), so every family sees pairs on both sides
/// of its threshold. Independent of the dataset presets.
fn corpus() -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(20_261_017);
    let mut d = Dataset::new(600);
    for c in 0..6 {
        let center: Vec<(u32, f32)> = (0..20)
            .map(|_| {
                (
                    (c * 100 + rng.next_below(95) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for m in 0..8 {
            let spread = 0.02 + 0.04 * m as f64;
            let swap = 0.04 * m as f64;
            let pairs: Vec<(u32, f32)> = center
                .iter()
                .map(|&(i, x)| {
                    if rng.next_bool(swap) {
                        (rng.next_below(600) as u32, (rng.next_f64() + 0.3) as f32)
                    } else {
                        (i, x + ((rng.next_f64() - 0.5) * spread) as f32)
                    }
                })
                .collect();
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

/// An out-of-corpus query near cluster 2's members.
fn outside_query(data: &Dataset) -> SparseVector {
    let base = data.vector(17);
    let mut pairs: Vec<(u32, f32)> = base.iter().map(|(i, x)| (i, x * 1.1)).collect();
    pairs.truncate(pairs.len() - 2);
    pairs.push((599, 0.7));
    SparseVector::from_pairs(pairs)
}

fn families() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("cosine", PipelineConfig::cosine(0.7)),
        ("jaccard", PipelineConfig::jaccard(0.5)),
        ("l2", PipelineConfig::l2(0.5, 4.0)),
        ("mips", PipelineConfig::mips(0.7)),
    ]
}

fn compositions() -> Vec<Composition> {
    let mut out = Vec::new();
    for g in [
        GeneratorKind::AllPairs,
        GeneratorKind::LshBanding,
        GeneratorKind::PpjoinPlus,
    ] {
        for v in [
            VerifierKind::Exact,
            VerifierKind::Mle,
            VerifierKind::Bayes,
            VerifierKind::BayesLite,
            VerifierKind::Sprt,
        ] {
            out.push(Composition::new(g, v));
        }
    }
    out
}

/// Little-endian byte sink for one phase's digest.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn neighbors(&mut self, n: &[(u32, f64)]) {
        self.u64(n.len() as u64);
        for &(id, s) in n {
            self.u64(id as u64);
            self.f64(s);
        }
    }

    fn finish(&self) -> u64 {
        fnv1a_checksum(&self.0)
    }
}

/// One case's `[batch, threshold queries, top-k]` digests, or `None` when
/// the builder rejects the pair.
fn case_digests(
    cfg: &PipelineConfig,
    comp: Composition,
    threads: u32,
    mode: HashMode,
) -> Option<[u64; 3]> {
    let weighted = corpus();
    let data = if comp.requires_binary(cfg.family.measure()) {
        weighted.binarized()
    } else {
        weighted
    };
    let searcher = Searcher::builder(*cfg)
        .composition(comp)
        .hash_mode(mode)
        .parallelism(Parallelism::threads(threads))
        .build(data.clone())
        .ok()?;

    let mut batch = Digest::default();
    batch.u64(searcher.hash_count());
    let out = searcher.all_pairs().unwrap();
    batch.u64(out.pairs.len() as u64);
    for &(a, b, s) in &out.pairs {
        batch.u64(a as u64);
        batch.u64(b as u64);
        batch.f64(s);
    }
    batch.u64(out.candidates);
    batch.u64(out.hashes_compared);
    batch.f64(out.hashes_per_accepted_pair);
    match &out.engine {
        None => batch.u64(u64::MAX),
        Some(e) => {
            for x in [
                e.input_pairs,
                e.pruned,
                e.accepted,
                e.forced_accepts,
                e.exact_verifications,
                e.hash_comparisons,
                e.k as u64,
                e.cache_hits,
                e.cache_misses,
                e.bucket_probes,
            ] {
                batch.u64(x);
            }
            batch.u64(e.pruned_at_chunk.len() as u64);
            for &p in &e.pruned_at_chunk {
                batch.u64(p);
            }
        }
    }
    batch.u64(searcher.hash_count());

    let mut queries: Vec<SparseVector> = [0u32, 9, 17, 30, 46]
        .iter()
        .map(|&id| data.vector(id).clone())
        .collect();
    let outside = outside_query(&data);
    queries.push(if data.vector(0).is_binary() {
        outside.binarize()
    } else {
        outside
    });

    let mut threshold = Digest::default();
    for q in &queries {
        for t in [cfg.threshold, 0.85] {
            let out = searcher.query(q, t).unwrap();
            threshold.neighbors(&out.neighbors);
            let s = out.stats;
            for x in [
                s.candidates,
                s.pruned,
                s.exact,
                s.hash_comparisons,
                s.bucket_probes,
            ] {
                threshold.u64(x);
            }
        }
    }
    threshold.u64(searcher.hash_count());

    let mut top_k = Digest::default();
    let narrow = KnnParams {
        epsilon: 0.05,
        chunk: 16,
        h: 256,
        floor: 0.3,
    };
    for q in &queries {
        for (k, params) in [(3usize, KnnParams::default()), (8, narrow)] {
            let out = searcher.top_k(q, k, &params).unwrap();
            top_k.neighbors(&out.neighbors);
            let s = out.stats;
            for x in [s.candidates, s.pruned, s.exact, s.hash_comparisons] {
                top_k.u64(x);
            }
        }
    }
    top_k.u64(searcher.hash_count());

    Some([batch.finish(), threshold.finish(), top_k.finish()])
}

/// Every accepted case, labelled `family/composition/threads/mode`.
fn all_cases() -> Vec<(String, [u64; 3])> {
    let mut out = Vec::new();
    for (name, cfg) in families() {
        for comp in compositions() {
            for threads in [1u32, 2] {
                for mode in [HashMode::Eager, HashMode::Lazy] {
                    if let Some(d) = case_digests(&cfg, comp, threads, mode) {
                        out.push((format!("{name}/{comp}/t{threads}/{mode:?}"), d));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn verifier_outputs_match_the_recorded_reference() {
    let cases = all_cases();
    let labels: Vec<&str> = cases.iter().map(|(l, _)| l.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, golden,
        "the accepted (family, composition) set moved"
    );
    let phases = ["batch", "threshold queries", "top-k"];
    let mut moved = Vec::new();
    for ((label, got), (_, want)) in cases.iter().zip(GOLDEN) {
        for (p, phase) in phases.iter().enumerate() {
            if got[p] != want[p] {
                moved.push(format!("{label}: {phase}"));
            }
        }
    }
    assert!(moved.is_empty(), "outputs moved:\n{}", moved.join("\n"));
}

/// Prints the `GOLDEN` table for the current build. Run explicitly (see
/// the module docs); never in CI.
#[test]
#[ignore]
fn record_verifier_golden() {
    println!("const GOLDEN: &[(&str, [u64; 3])] = &[");
    for (label, d) in all_cases() {
        println!(
            "    (\"{label}\", [{:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2]
        );
    }
    println!("];");
}

/// Recorded by `record_verifier_golden` before the verification paths
/// were unified into one scan driver.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 3])] = &[
    ("cosine/AllPairs × exact/t1/Eager", [0x6e2156ace3d5815b, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/AllPairs × exact/t1/Lazy", [0x6e2156ace3d5815b, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/AllPairs × exact/t2/Eager", [0x6e2156ace3d5815b, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/AllPairs × exact/t2/Lazy", [0x6e2156ace3d5815b, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/AllPairs × MLE/t1/Eager", [0x624206fa8a0585a1, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × MLE/t1/Lazy", [0xa3295d789b75d6c6, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × MLE/t2/Eager", [0x624206fa8a0585a1, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × MLE/t2/Lazy", [0xa3295d789b75d6c6, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × BayesLSH/t1/Eager", [0x68e756688bf87e3c, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × BayesLSH/t1/Lazy", [0xbd9ec1b761fdbc32, 0x663f39c39c16b320, 0x1f5275b040571751]),
    ("cosine/AllPairs × BayesLSH/t2/Eager", [0x4d4c521239faf050, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × BayesLSH/t2/Lazy", [0x9c900da70ccbb98f, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/AllPairs × BayesLSH-Lite/t1/Eager", [0x6d3d49db9a52fc97, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/AllPairs × BayesLSH-Lite/t1/Lazy", [0x6d3d49db9a52fc97, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/AllPairs × BayesLSH-Lite/t2/Eager", [0x6d3d49db9a52fc97, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/AllPairs × BayesLSH-Lite/t2/Lazy", [0x6d3d49db9a52fc97, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/AllPairs × SPRT/t1/Eager", [0xe4970500992e59b8, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/AllPairs × SPRT/t1/Lazy", [0xcf4d3db434a8a4d4, 0x575fee79f020b726, 0x061543b58db11787]),
    ("cosine/AllPairs × SPRT/t2/Eager", [0xe4970500992e59b8, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/AllPairs × SPRT/t2/Lazy", [0xb283aa017a551a22, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/LSH × exact/t1/Eager", [0x4f854f5f6033cfd0, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/LSH × exact/t1/Lazy", [0x4f854f5f6033cfd0, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/LSH × exact/t2/Eager", [0x4f854f5f6033cfd0, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/LSH × exact/t2/Lazy", [0x4f854f5f6033cfd0, 0x8b63d9ea8e1d8498, 0xee73451a122b1813]),
    ("cosine/LSH × MLE/t1/Eager", [0xba82acd4e8e858ec, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × MLE/t1/Lazy", [0x3c7a834c00f48d3b, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × MLE/t2/Eager", [0xba82acd4e8e858ec, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × MLE/t2/Lazy", [0x3c7a834c00f48d3b, 0x0753aed906822b85, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × BayesLSH/t1/Eager", [0xd683779ba767bf35, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × BayesLSH/t1/Lazy", [0x34136a3bec04d6e6, 0xaecd70abe0680b21, 0xd6c43ec7fc05bf50]),
    ("cosine/LSH × BayesLSH/t2/Eager", [0x99665f928c010bbd, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × BayesLSH/t2/Lazy", [0x9d436ed5abb85d3a, 0x74e9d0ffc9f1eafd, 0x05e1d2a8dbdc82cc]),
    ("cosine/LSH × BayesLSH-Lite/t1/Eager", [0x25dde6980193f6bf, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/LSH × BayesLSH-Lite/t1/Lazy", [0x25dde6980193f6bf, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/LSH × BayesLSH-Lite/t2/Eager", [0x25dde6980193f6bf, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/LSH × BayesLSH-Lite/t2/Lazy", [0x25dde6980193f6bf, 0x77ef526d757b4018, 0xee73451a122b1813]),
    ("cosine/LSH × SPRT/t1/Eager", [0xa33ac32ce8399d7a, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/LSH × SPRT/t1/Lazy", [0xac291a920cb5b83e, 0x575fee79f020b726, 0x061543b58db11787]),
    ("cosine/LSH × SPRT/t2/Eager", [0xa33ac32ce8399d7a, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/LSH × SPRT/t2/Lazy", [0xceb47b4a800798e0, 0xcf1307d780afc578, 0x3828c5918f53eda5]),
    ("cosine/PPJoin+ × exact/t1/Eager", [0x5bf405fd0501e59b, 0x25aa6ebdcb6679eb, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × exact/t1/Lazy", [0x5bf405fd0501e59b, 0x25aa6ebdcb6679eb, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × exact/t2/Eager", [0x5bf405fd0501e59b, 0x25aa6ebdcb6679eb, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × exact/t2/Lazy", [0x5bf405fd0501e59b, 0x25aa6ebdcb6679eb, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × MLE/t1/Eager", [0xae876eb7cbedddda, 0xf629d2f1dc26fb3f, 0xc7fbee429bb1359a]),
    ("cosine/PPJoin+ × MLE/t1/Lazy", [0x46d970b654bafcc4, 0x63875471fcfe2610, 0xaf3d4f56efcec189]),
    ("cosine/PPJoin+ × MLE/t2/Eager", [0xae876eb7cbedddda, 0xf629d2f1dc26fb3f, 0xc7fbee429bb1359a]),
    ("cosine/PPJoin+ × MLE/t2/Lazy", [0x46d970b654bafcc4, 0x63875471fcfe2610, 0xaf3d4f56efcec189]),
    ("cosine/PPJoin+ × BayesLSH/t1/Eager", [0x6cbd6586ef02d144, 0xcc4c2ccd8ebdac96, 0xc7fbee429bb1359a]),
    ("cosine/PPJoin+ × BayesLSH/t1/Lazy", [0x7ea2c688a9545b78, 0x154d8120f7c3f857, 0xb817af7c4d7f131b]),
    ("cosine/PPJoin+ × BayesLSH/t2/Eager", [0xc7215cae99d9535e, 0xcc4c2ccd8ebdac96, 0xc7fbee429bb1359a]),
    ("cosine/PPJoin+ × BayesLSH/t2/Lazy", [0x9c94b4e6af2acf48, 0xb49f3a03336c2665, 0xaf3d4f56efcec189]),
    ("cosine/PPJoin+ × BayesLSH-Lite/t1/Eager", [0x6f0762352791e3fa, 0x1813d51ac7582dde, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × BayesLSH-Lite/t1/Lazy", [0x6f0762352791e3fa, 0x1813d51ac7582dde, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × BayesLSH-Lite/t2/Eager", [0x6f0762352791e3fa, 0x1813d51ac7582dde, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × BayesLSH-Lite/t2/Lazy", [0x6f0762352791e3fa, 0x1813d51ac7582dde, 0x9897443741462cc5]),
    ("cosine/PPJoin+ × SPRT/t1/Eager", [0x1f7818f55d86c299, 0xcca9d5434a873351, 0x4ee1c3bfc41d5733]),
    ("cosine/PPJoin+ × SPRT/t1/Lazy", [0x3a84f2aff9f8193e, 0xde1ee92f93077770, 0x602cc8bb8203cbfe]),
    ("cosine/PPJoin+ × SPRT/t2/Eager", [0x1f7818f55d86c299, 0xcca9d5434a873351, 0x4ee1c3bfc41d5733]),
    ("cosine/PPJoin+ × SPRT/t2/Lazy", [0x1345cb78aad43ca4, 0x9b603830e09a6a34, 0xc8465f17b2599112]),
    ("jaccard/AllPairs × exact/t1/Eager", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × exact/t1/Lazy", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × exact/t2/Eager", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × exact/t2/Lazy", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × MLE/t1/Eager", [0x963756d0c1fa9911, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/AllPairs × MLE/t1/Lazy", [0x34990dc5a7ea721d, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/AllPairs × MLE/t2/Eager", [0x963756d0c1fa9911, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/AllPairs × MLE/t2/Lazy", [0x34990dc5a7ea721d, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/AllPairs × BayesLSH/t1/Eager", [0x6b65f290069bd343, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/AllPairs × BayesLSH/t1/Lazy", [0x30ad1a891639f1ae, 0x8ff470a0b1f452de, 0x18b7546b80a48591]),
    ("jaccard/AllPairs × BayesLSH/t2/Eager", [0xee53b915db2ca83d, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/AllPairs × BayesLSH/t2/Lazy", [0xa7f5122e75ecdd1c, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/AllPairs × BayesLSH-Lite/t1/Eager", [0x60165ab134200ee0, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × BayesLSH-Lite/t1/Lazy", [0x60165ab134200ee0, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × BayesLSH-Lite/t2/Eager", [0x60165ab134200ee0, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × BayesLSH-Lite/t2/Lazy", [0x60165ab134200ee0, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/AllPairs × SPRT/t1/Eager", [0x7c3d0e1a553da8a2, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/AllPairs × SPRT/t1/Lazy", [0x594d7b99678c13d4, 0x42256b5512176da7, 0x4c34ead77a6c7142]),
    ("jaccard/AllPairs × SPRT/t2/Eager", [0x7c3d0e1a553da8a2, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/AllPairs × SPRT/t2/Lazy", [0x9ba2b7411bec3af3, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/LSH × exact/t1/Eager", [0xf2b11faac5598226, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × exact/t1/Lazy", [0xf2b11faac5598226, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × exact/t2/Eager", [0xf2b11faac5598226, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × exact/t2/Lazy", [0xf2b11faac5598226, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × MLE/t1/Eager", [0x303591c4cb7616aa, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/LSH × MLE/t1/Lazy", [0x5495af983a3eb3cc, 0x109ce6fb04e35b94, 0xbc5c1a06500b2f36]),
    ("jaccard/LSH × MLE/t2/Eager", [0x303591c4cb7616aa, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/LSH × MLE/t2/Lazy", [0x5495af983a3eb3cc, 0x109ce6fb04e35b94, 0xbc5c1a06500b2f36]),
    ("jaccard/LSH × BayesLSH/t1/Eager", [0xe7239dff7378a965, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/LSH × BayesLSH/t1/Lazy", [0x5286ab29da3ed231, 0x075dca566a21a13e, 0x03435751aebb6ad1]),
    ("jaccard/LSH × BayesLSH/t2/Eager", [0x4651f8ed7a947092, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/LSH × BayesLSH/t2/Lazy", [0xd044a43aa9844214, 0xc8e1ca553340ecb5, 0xc3156e7c8a5148b2]),
    ("jaccard/LSH × BayesLSH-Lite/t1/Eager", [0x0fe3ef8e770c5192, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × BayesLSH-Lite/t1/Lazy", [0x0fe3ef8e770c5192, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × BayesLSH-Lite/t2/Eager", [0x0fe3ef8e770c5192, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × BayesLSH-Lite/t2/Lazy", [0x0fe3ef8e770c5192, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/LSH × SPRT/t1/Eager", [0xfe9598152e15155c, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/LSH × SPRT/t1/Lazy", [0xd72cfeadd60e246a, 0x4f6b3f4dbcca6e26, 0x7095e4a2efc70ee5]),
    ("jaccard/LSH × SPRT/t2/Eager", [0xfe9598152e15155c, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/LSH × SPRT/t2/Lazy", [0xbbae30b57e10cb29, 0x6e29bae90ef599fb, 0xdd8fa2abf962493d]),
    ("jaccard/PPJoin+ × exact/t1/Eager", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × exact/t1/Lazy", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × exact/t2/Eager", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × exact/t2/Lazy", [0x9290cb56b629fea7, 0x79a8a73a9c00d3bf, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × MLE/t1/Eager", [0xdaec3c2a2e7ec139, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/PPJoin+ × MLE/t1/Lazy", [0xde676c2da41d3d7f, 0x8e23b4e6012b7976, 0x396e4ba5c99f39c0]),
    ("jaccard/PPJoin+ × MLE/t2/Eager", [0xdaec3c2a2e7ec139, 0x7c85c695dda62c1e, 0x3fd918311cf6e5f8]),
    ("jaccard/PPJoin+ × MLE/t2/Lazy", [0xde676c2da41d3d7f, 0x8e23b4e6012b7976, 0x396e4ba5c99f39c0]),
    ("jaccard/PPJoin+ × BayesLSH/t1/Eager", [0x2d7e24807c1c0909, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/PPJoin+ × BayesLSH/t1/Lazy", [0x10f22839c5862fd2, 0xd7e367a58c231539, 0x25f8c6faaca71ac7]),
    ("jaccard/PPJoin+ × BayesLSH/t2/Eager", [0xb584f8aafcbfe14e, 0x6474fc8d6e8a743a, 0x681d95006052f2a9]),
    ("jaccard/PPJoin+ × BayesLSH/t2/Lazy", [0x6ff37947f507affa, 0x72a206dd4f58513c, 0xd92349978318633f]),
    ("jaccard/PPJoin+ × BayesLSH-Lite/t1/Eager", [0xc2f117cfcc5ed1e9, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × BayesLSH-Lite/t1/Lazy", [0xc2f117cfcc5ed1e9, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × BayesLSH-Lite/t2/Eager", [0xc2f117cfcc5ed1e9, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × BayesLSH-Lite/t2/Lazy", [0xc2f117cfcc5ed1e9, 0x29b0085ca211c42b, 0x1ee1daf92c63ea3d]),
    ("jaccard/PPJoin+ × SPRT/t1/Eager", [0xcc022466647219ea, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/PPJoin+ × SPRT/t1/Lazy", [0x48b33b513043cec1, 0x4c9309b9c93f6d0f, 0xa61b7f0be3b61b74]),
    ("jaccard/PPJoin+ × SPRT/t2/Eager", [0xcc022466647219ea, 0x8ecedc7fb9a2413b, 0x68a66b11089b6999]),
    ("jaccard/PPJoin+ × SPRT/t2/Lazy", [0x3b6dce32156d104b, 0xa41cc538efc5b5e7, 0xba01a572948e2485]),
    ("l2/AllPairs × exact/t1/Eager", [0xbeb50d769455ac29, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/AllPairs × exact/t1/Lazy", [0xbeb50d769455ac29, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/AllPairs × exact/t2/Eager", [0xbeb50d769455ac29, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/AllPairs × exact/t2/Lazy", [0xbeb50d769455ac29, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/AllPairs × MLE/t1/Eager", [0x87c668a2b63d0320, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/AllPairs × MLE/t1/Lazy", [0xe557482b41090d07, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/AllPairs × MLE/t2/Eager", [0x87c668a2b63d0320, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/AllPairs × MLE/t2/Lazy", [0xe557482b41090d07, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/AllPairs × BayesLSH/t1/Eager", [0x1c5a6f0b35dab495, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/AllPairs × BayesLSH/t1/Lazy", [0xfe51b7f1a86ae2fa, 0xae72269fd0dde506, 0x06b56ccfbe709aad]),
    ("l2/AllPairs × BayesLSH/t2/Eager", [0xc4f915f0a8075e85, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/AllPairs × BayesLSH/t2/Lazy", [0x76861bd8bdc39083, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/AllPairs × BayesLSH-Lite/t1/Eager", [0xd95498d116d6c075, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/AllPairs × BayesLSH-Lite/t1/Lazy", [0x1c57899f68c45d28, 0xeb85234b32234d35, 0xc64ecc43403a4179]),
    ("l2/AllPairs × BayesLSH-Lite/t2/Eager", [0xd95498d116d6c075, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/AllPairs × BayesLSH-Lite/t2/Lazy", [0x179b1231a3fe374f, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/AllPairs × SPRT/t1/Eager", [0xe661d4ff06560b00, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("l2/AllPairs × SPRT/t1/Lazy", [0x62b574bc97d92fd4, 0xd10f9c14ca19929a, 0xd6dc42fec2c3670c]),
    ("l2/AllPairs × SPRT/t2/Eager", [0xe661d4ff06560b00, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("l2/AllPairs × SPRT/t2/Lazy", [0x10599b2211ce4572, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("l2/LSH × exact/t1/Eager", [0x398e21d55ddbe7e9, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/LSH × exact/t1/Lazy", [0x398e21d55ddbe7e9, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/LSH × exact/t2/Eager", [0x398e21d55ddbe7e9, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/LSH × exact/t2/Lazy", [0x398e21d55ddbe7e9, 0xabb28d85356870c4, 0x935740ecd7983406]),
    ("l2/LSH × MLE/t1/Eager", [0x8a98f72e3009b7a8, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/LSH × MLE/t1/Lazy", [0xbcfd2ed5d0710bf7, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/LSH × MLE/t2/Eager", [0x8a98f72e3009b7a8, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/LSH × MLE/t2/Lazy", [0xbcfd2ed5d0710bf7, 0x1025eb580efe6305, 0xe9a940e1e9ab1e77]),
    ("l2/LSH × BayesLSH/t1/Eager", [0xb5e701960ca804c5, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/LSH × BayesLSH/t1/Lazy", [0x4281328d835a3194, 0xf12826af9a56c861, 0xb9962fc4bc802333]),
    ("l2/LSH × BayesLSH/t2/Eager", [0xe2926df01074bfb1, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/LSH × BayesLSH/t2/Lazy", [0x4156b2c7a37e4577, 0x2f0ca7d959bc9e39, 0xdbe7a930fe543c32]),
    ("l2/LSH × BayesLSH-Lite/t1/Eager", [0x88fd0f9c6395fdba, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/LSH × BayesLSH-Lite/t1/Lazy", [0x2c2df5b71420e6bf, 0x898fc6af4bdf1995, 0x9f06f41d08223afe]),
    ("l2/LSH × BayesLSH-Lite/t2/Eager", [0x88fd0f9c6395fdba, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/LSH × BayesLSH-Lite/t2/Lazy", [0x10434e4636d050b8, 0x8e4c3e1d10a53f6e, 0x96fe7882ecd584c8]),
    ("l2/LSH × SPRT/t1/Eager", [0x2d498ea8c8040cbd, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("l2/LSH × SPRT/t1/Lazy", [0x140f5f8735cbf098, 0xc907207aaeccdc64, 0x62e8fc65ebb6785d]),
    ("l2/LSH × SPRT/t2/Eager", [0x2d498ea8c8040cbd, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("l2/LSH × SPRT/t2/Lazy", [0x6673ea10a4cb04db, 0xf58b95306aff55c7, 0xdb5ed320560bc542]),
    ("mips/AllPairs × exact/t1/Eager", [0x6e2156ace3d5815b, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × exact/t1/Lazy", [0x6e2156ace3d5815b, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × exact/t2/Eager", [0x6e2156ace3d5815b, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × exact/t2/Lazy", [0x6e2156ace3d5815b, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × MLE/t1/Eager", [0x474d228e2842e408, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/AllPairs × MLE/t1/Lazy", [0xd6aadfec2cc00ec7, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/AllPairs × MLE/t2/Eager", [0x474d228e2842e408, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/AllPairs × MLE/t2/Lazy", [0xd6aadfec2cc00ec7, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/AllPairs × BayesLSH/t1/Eager", [0x3e8d01545279bc3a, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/AllPairs × BayesLSH/t1/Lazy", [0x646d2c48a21563e0, 0x94d4ac2cbe7e3fc0, 0xf5f55d7186e8cb35]),
    ("mips/AllPairs × BayesLSH/t2/Eager", [0x67cac485724e1e2c, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/AllPairs × BayesLSH/t2/Lazy", [0xd94a94dc9b118337, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/AllPairs × BayesLSH-Lite/t1/Eager", [0x23ee6c7bc03af178, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × BayesLSH-Lite/t1/Lazy", [0x23ee6c7bc03af178, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × BayesLSH-Lite/t2/Eager", [0x23ee6c7bc03af178, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × BayesLSH-Lite/t2/Lazy", [0x23ee6c7bc03af178, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/AllPairs × SPRT/t1/Eager", [0xbdff25c747752ae1, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
    ("mips/AllPairs × SPRT/t1/Lazy", [0xee0fc3c0c83d095f, 0x6b268387bf83a6ef, 0x50a2c120c25b9039]),
    ("mips/AllPairs × SPRT/t2/Eager", [0xbdff25c747752ae1, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
    ("mips/AllPairs × SPRT/t2/Lazy", [0xfc4ddaf8ff83a4cb, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
    ("mips/LSH × exact/t1/Eager", [0x6bf484831acc180c, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/LSH × exact/t1/Lazy", [0x6bf484831acc180c, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/LSH × exact/t2/Eager", [0x6bf484831acc180c, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/LSH × exact/t2/Lazy", [0x6bf484831acc180c, 0xf2eb81356cb55598, 0x945e16c8800ca3ab]),
    ("mips/LSH × MLE/t1/Eager", [0xc200197c999e302e, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/LSH × MLE/t1/Lazy", [0x8ccdd726fd7a2c61, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/LSH × MLE/t2/Eager", [0xc200197c999e302e, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/LSH × MLE/t2/Lazy", [0x8ccdd726fd7a2c61, 0xd0fb3fb9145d60df, 0x017d330d0f43b304]),
    ("mips/LSH × BayesLSH/t1/Eager", [0xe6acd45739c7ec48, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/LSH × BayesLSH/t1/Lazy", [0x1155826b59a3a23a, 0xffee43cd76217863, 0x498d88138b181ad2]),
    ("mips/LSH × BayesLSH/t2/Eager", [0xe36ea7e85799e408, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/LSH × BayesLSH/t2/Lazy", [0xb3ee96472b3dfa4b, 0x72c72d5613a94f51, 0x017d330d0f43b304]),
    ("mips/LSH × BayesLSH-Lite/t1/Eager", [0xc37824cd6ed96276, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/LSH × BayesLSH-Lite/t1/Lazy", [0xc37824cd6ed96276, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/LSH × BayesLSH-Lite/t2/Eager", [0xc37824cd6ed96276, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/LSH × BayesLSH-Lite/t2/Lazy", [0xc37824cd6ed96276, 0xf419f140644d31cc, 0x945e16c8800ca3ab]),
    ("mips/LSH × SPRT/t1/Eager", [0x66ccbd46f83366ef, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
    ("mips/LSH × SPRT/t1/Lazy", [0x4f9df656f1c1c6eb, 0x7867f616eb863c25, 0x489a4586a70eda03]),
    ("mips/LSH × SPRT/t2/Eager", [0x66ccbd46f83366ef, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
    ("mips/LSH × SPRT/t2/Lazy", [0x1aa98df8139fc5d5, 0xe265ce4ced1725fb, 0x8a8660ccd8d1b05d]),
];
