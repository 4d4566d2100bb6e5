//! Near-duplicate document detection — the classic all-pairs use case
//! (web crawling, news wire dedup; paper Section 1).
//!
//! Uses AllPairs candidates + BayesLSH-Lite: Bayesian pruning kills the
//! false positives cheaply, and the few survivors get *exact* similarities
//! — the right trade when near-duplicate decisions feed deletion logic.
//!
//! ```text
//! cargo run --release --example near_duplicates
//! ```

use bayeslsh::prelude::*;

fn main() {
    // A WikiWords-like text corpus with mutation-planted near-duplicates.
    let mut config = Preset::WikiWords100K.config(0.004, 21);
    config.mutation_rate = 0.05; // tighter clusters: true near-dupes
    let raw = generate(&config);
    let data = bayeslsh::sparse::tfidf::tfidf_transform(&raw);
    println!(
        "corpus: {} docs, {} terms, avg {:.0} terms/doc",
        data.len(),
        data.stats().dim,
        data.stats().avg_len
    );

    // Near-duplicate threshold: cosine 0.9.
    let threshold = 0.9;
    let cfg = PipelineConfig::cosine(threshold);
    let ap_lite = Composition::new(GeneratorKind::AllPairs, VerifierKind::BayesLite);
    let out = run_composition(ap_lite, &data, &cfg).expect("valid config");
    println!(
        "\nAP+BayesLSH-Lite: {} candidates -> {} near-duplicate pairs in {:.2}s",
        out.candidates,
        out.pairs.len(),
        out.total_secs
    );
    let engine = out.engine.as_ref().unwrap();
    println!(
        "Bayesian pruning removed {:.2}% of candidates before any exact computation \
         ({} exact similarity computations instead of {})",
        100.0 * engine.pruned as f64 / engine.input_pairs.max(1) as f64,
        engine.exact_verifications,
        engine.input_pairs
    );

    // Group pairs into duplicate clusters with a union-find pass.
    let mut parent: Vec<u32> = (0..data.len() as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for &(a, b, _) in &out.pairs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
        }
    }
    let mut clusters: std::collections::HashMap<u32, Vec<u32>> = Default::default();
    for i in 0..data.len() as u32 {
        let r = find(&mut parent, i);
        clusters.entry(r).or_default().push(i);
    }
    let mut sizes: Vec<usize> = clusters
        .values()
        .map(|c| c.len())
        .filter(|&n| n > 1)
        .collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\nduplicate clusters: {} (sizes of the largest: {:?})",
        sizes.len(),
        &sizes[..sizes.len().min(8)]
    );

    // Every reported pair is exact — BayesLSH-Lite guarantees no false
    // positives.
    let fp = out
        .pairs
        .iter()
        .filter(|&&(a, b, _)| cosine(data.vector(a), data.vector(b)) < threshold)
        .count();
    println!("false positives among reported pairs: {fp}");
    assert_eq!(fp, 0);
}
