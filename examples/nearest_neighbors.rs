//! k-nearest-neighbour search with Bayesian candidate pruning — the
//! paper's future-work item, implemented: the current k-th best similarity
//! acts as a rising threshold, and candidates whose posterior chance of
//! beating it drops below ε are discarded after a few hash chunks.
//!
//! Served through the unified `Searcher` API: the same standing index that
//! answers threshold queries and batch joins also answers top-k.
//!
//! ```text
//! cargo run --release --example nearest_neighbors
//! ```

use bayeslsh::prelude::*;

fn main() {
    // A WikiWords-like corpus; queries are held-out members of its planted
    // clusters, so true neighbours exist.
    let data = Preset::WikiWords100K.load(0.004, 77);
    println!("corpus: {} docs, {} dims", data.len(), data.stats().dim);

    // Index once, query many times. The banding comes from the config's
    // threshold: here "similarities below 0.5 are uninteresting".
    let cfg = PipelineConfig::cosine(0.5);
    let build_start = std::time::Instant::now();
    let searcher = Searcher::builder(cfg)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Exact,
        ))
        .build(data)
        .expect("valid config");
    let bands = searcher.banding_plan().params;
    println!(
        "index: {} bands x {} bits built in {:.2}s",
        bands.l,
        bands.k,
        build_start.elapsed().as_secs_f64()
    );

    let k = 5;
    let params = KnnParams::default();
    let mut total_stats = KnnStats::default();
    let mut recall_hits = 0usize;
    let mut recall_total = 0usize;

    for qid in [0u32, 17, 101, 333] {
        let q = searcher.data().vector(qid).clone();
        let out = searcher.top_k(&q, k + 1, &params).expect("valid params");
        let (neighbours, stats) = (out.neighbors, out.stats);
        println!(
            "\nquery {qid}: {} candidates, {} pruned, {} exact computations",
            stats.candidates, stats.pruned, stats.exact
        );
        for &(id, s) in neighbours.iter().take(4) {
            let marker = if id == qid { " (self)" } else { "" };
            println!("  neighbour {id:>5}  cosine {s:.3}{marker}");
        }
        total_stats.candidates += stats.candidates;
        total_stats.pruned += stats.pruned;
        total_stats.exact += stats.exact;

        // Compare against the exact top-k (excluding self).
        let mut brute: Vec<(u32, f64)> = searcher
            .data()
            .iter()
            .filter(|&(id, _)| id != qid)
            .map(|(id, v)| (id, cosine(&q, v)))
            .collect();
        brute.sort_by(|a, b| b.1.total_cmp(&a.1));
        let got: std::collections::HashSet<u32> = neighbours
            .iter()
            .filter(|&&(id, _)| id != qid)
            .map(|&(id, _)| id)
            .collect();
        for &(id, _) in brute.iter().take(k) {
            recall_total += 1;
            if got.contains(&id) {
                recall_hits += 1;
            }
        }
    }

    println!(
        "\noverall: recall@{k} = {:.0}%; pruning avoided {} of {} exact computations",
        100.0 * recall_hits as f64 / recall_total as f64,
        total_stats.pruned,
        total_stats.candidates
    );
}
