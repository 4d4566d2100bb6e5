//! A miniature similarity-search service: one standing `Searcher` answers
//! a stream of point queries, absorbs live inserts, and serves top-k —
//! the regime the build-once/query-many API is designed for.
//!
//! ```text
//! cargo run --release --example search_service
//! ```

use bayeslsh::prelude::*;

fn main() {
    let threshold = 0.7;
    let corpus = Preset::Rcv1.load(/* scale */ 0.002, /* seed */ 11);
    let n = corpus.len();

    // ---- Build phase: pay for hashing and indexing exactly once. ----
    // `Parallelism::Auto` (also the default) fans hashing, indexing, and
    // verification across the available cores — honoring BAYESLSH_THREADS
    // when set — with output bit-identical to `Parallelism::serial()`.
    let t0 = std::time::Instant::now();
    let mut searcher = SearcherBuilder::cosine(threshold)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::BayesLite,
        ))
        .parallelism(Parallelism::Auto)
        .build(corpus)
        .expect("valid config");
    let build_secs = t0.elapsed().as_secs_f64();
    let built_hashes = searcher.hash_count();
    println!(
        "built searcher over {n} vectors in {build_secs:.2}s: \
         {built_hashes} signature hashes, {} bands, {} worker thread(s)",
        searcher.banding_plan().params.l,
        searcher.threads()
    );

    // ---- Serve phase: a stream of threshold queries. ----
    // Queries are noisy copies of corpus vectors, like near-duplicate
    // lookups arriving at a service.
    let mut rng = Xoshiro256::seed_from_u64(99);
    let queries: Vec<(u32, SparseVector)> = (0..n as u32)
        .step_by(7)
        .map(|id| {
            let v = searcher.data().vector(id);
            let kept: Vec<(u32, f32)> = v
                .iter()
                .filter(|_| rng.next_bool(0.9)) // drop ~10% of terms
                .collect();
            (id, SparseVector::from_pairs(kept))
        })
        .collect();

    let t1 = std::time::Instant::now();
    let (mut answered, mut found_origin, mut candidates, mut exact) = (0u64, 0u64, 0u64, 0u64);
    for (origin, q) in &queries {
        let out = searcher.query(q, threshold).expect("in-range threshold");
        answered += 1;
        candidates += out.stats.candidates;
        exact += out.stats.exact;
        if out.neighbors.iter().any(|&(id, _)| id == *origin) {
            found_origin += 1;
        }
    }
    let serve_secs = t1.elapsed().as_secs_f64();
    println!(
        "served {answered} queries in {serve_secs:.2}s \
         ({:.2}ms avg; {:.1} candidates and {:.1} exact checks per query)",
        1000.0 * serve_secs / answered as f64,
        candidates as f64 / answered as f64,
        exact as f64 / answered as f64,
    );
    println!("recovered the noisy query's origin vector in {found_origin}/{answered} cases");

    // The whole point of build-once/query-many: the query stream did not
    // re-hash the corpus.
    assert_eq!(searcher.hash_count(), built_hashes);
    println!(
        "corpus hashes after serving: {} (unchanged)",
        searcher.hash_count()
    );

    // ---- Live inserts: extend the pool and index in place. ----
    let planted = searcher.data().vector(3).clone();
    let new_id = searcher
        .insert(planted.clone())
        .expect("fits indexed space");
    let out = searcher.query(&planted, threshold).unwrap();
    assert!(out.neighbors.iter().any(|&(id, _)| id == new_id));
    println!(
        "\ninserted a near-duplicate as id {new_id}; \
         a follow-up query finds it at similarity {:.3}",
        out.neighbors
            .iter()
            .find(|&&(id, _)| id == new_id)
            .map(|&(_, s)| s)
            .unwrap()
    );

    // ---- Top-k on the same index. ----
    let q = searcher.data().vector(0).clone();
    let top = searcher.top_k(&q, 5, &KnnParams::default()).unwrap();
    println!("\ntop-5 neighbours of vector 0:");
    for (id, s) in &top.neighbors {
        println!("  id {id:>4}  cosine {s:.3}");
    }
    println!(
        "({} candidates, {} pruned by the posterior test, {} exact computations)",
        top.stats.candidates, top.stats.pruned, top.stats.exact
    );
}
