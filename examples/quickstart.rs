//! Quickstart: build a `Searcher` once, then serve a batch join and point
//! queries against the same standing signatures and index.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bayeslsh::prelude::*;

fn main() {
    // A scaled-down RCV1-like corpus: tf-idf weighted sparse vectors with
    // planted near-duplicate clusters.
    let data = Preset::Rcv1.load(/* scale */ 0.002, /* seed */ 7);
    let stats = data.stats();
    println!(
        "corpus: {} vectors, {} dims, avg {:.0} non-zeros",
        stats.n_vectors, stats.dim, stats.avg_len
    );

    // Build once: hash signatures and bucket the LSH banding index. The
    // composition picks the algorithm — LSH banding candidates verified by
    // BayesLSH (incremental pruning + concentration-controlled estimates).
    let threshold = 0.7;
    let searcher = Searcher::builder(PipelineConfig::cosine(threshold))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Bayes,
        ))
        .build(data)
        .expect("valid config");
    let plan = searcher.banding_plan();
    println!(
        "index: {} bands x {} bits, target miss rate {:.3} (achieved {:.3}{})",
        plan.params.l,
        plan.params.k,
        plan.requested_fnr,
        plan.achieved_fnr,
        if plan.clamped { ", clamped!" } else { "" }
    );

    // Batch: all pairs with cosine >= 0.7.
    let out = searcher.all_pairs().expect("composition runs");
    println!(
        "\n{}: {} candidates -> {} pairs in {:.2}s ({:.2}s candgen, {:.2}s verify)",
        out.composition,
        out.candidates,
        out.pairs.len(),
        out.total_secs,
        out.candgen_secs,
        out.verify_secs
    );
    if let Some(engine) = &out.engine {
        println!(
            "pruned {} of {} candidates; {} hash comparisons; cache {} hits / {} misses",
            engine.pruned,
            engine.input_pairs,
            engine.hash_comparisons,
            engine.cache_hits,
            engine.cache_misses
        );
    }

    // Show the five most similar pairs.
    let mut ranked = out.pairs.clone();
    ranked.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    println!("\ntop pairs (estimated similarity):");
    for (a, b, s) in ranked.iter().take(5) {
        let exact = cosine(searcher.data().vector(*a), searcher.data().vector(*b));
        println!("  ({a:>4}, {b:>4})  estimate {s:.3}  exact {exact:.3}");
    }

    // Point queries reuse the standing signatures — zero corpus re-hashing.
    let hashed_once = searcher.hash_count();
    let q = searcher.data().vector(0).clone();
    let hits = searcher.query(&q, threshold).expect("in-range threshold");
    println!(
        "\npoint query for vector 0: {} candidates -> {} neighbors \
         (corpus hashes before/after: {hashed_once}/{})",
        hits.stats.candidates,
        hits.neighbors.len(),
        searcher.hash_count()
    );

    // Sanity: compare the batch output against the exact result set.
    let truth = ground_truth(searcher.data(), Measure::Cosine, threshold);
    let recall = recall_against(&truth, &out.pairs);
    let err = estimate_errors(&out.pairs, searcher.data(), Measure::Cosine, 0.05);
    println!(
        "\nvs exact: recall {:.1}% of {} true pairs; {:.1}% of estimates off by > 0.05",
        100.0 * recall,
        truth.len(),
        100.0 * err.frac_above
    );
}
