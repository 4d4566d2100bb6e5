//! Shard a corpus, serve it by scatter-gather, hot-swap a rebuild: the
//! scale-out deployment shape. One offline builder partitions the corpus
//! into independent shard snapshots plus a manifest; a serving node opens
//! the manifest and answers queries with results bit-identical to a
//! single index over the whole corpus; and when a fresh build lands on
//! disk, `reload()` swaps it in under live traffic.
//!
//! ```text
//! cargo run --release --example sharded_service
//! ```

use std::time::Instant;

use bayeslsh::prelude::*;

fn main() {
    let threshold = 0.7;
    let dir = std::env::temp_dir().join(format!("bayeslsh_sharded_{}", std::process::id()));
    let cfg = PipelineConfig::cosine(threshold);
    let lite = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

    // ---- Offline: partition, build every shard, persist the set. ----
    let corpus = Preset::Rcv1.load(/* scale */ 0.002, /* seed */ 11);
    let n = corpus.len();
    let t0 = Instant::now();
    let manifest = ShardBuilder::new(cfg)
        .composition(lite)
        .shards(4)
        .partition(PartitionFn::Hashed { seed: 11 })
        .build_to_dir(&corpus, &dir)
        .expect("valid config and writable directory");
    println!(
        "offline: built {n} vectors as {} shards in {:.2}s (sizes: {})",
        manifest.shard_count(),
        t0.elapsed().as_secs_f64(),
        manifest
            .shards
            .iter()
            .map(|s| s.n_vectors.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );

    // ---- Online: open the manifest, serve by scatter-gather. ----
    let manifest_path = dir.join(MANIFEST_FILE);
    let t0 = Instant::now();
    let server = ShardedSearcher::open(&manifest_path).expect("shard set is intact");
    println!(
        "online: opened {} shards in {:.0}ms (generation {})",
        server.shard_count(),
        t0.elapsed().as_secs_f64() * 1e3,
        server.generation().ordinal(),
    );

    // Scatter-gather answers are bit-identical to a single index.
    let single = Searcher::builder(cfg)
        .composition(lite)
        .build(corpus.clone())
        .expect("valid config");
    let q = corpus.vector(0).clone();
    let scattered = server.query(&q, threshold).expect("in-range threshold");
    let direct = single.query(&q, threshold).expect("in-range threshold");
    assert_eq!(scattered.neighbors.len(), direct.neighbors.len());
    for (a, b) in scattered.neighbors.iter().zip(&direct.neighbors) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }
    println!(
        "query: {} neighbours above {threshold} — bit-identical to the single index",
        scattered.neighbors.len()
    );

    // Inserts route through the manifest's partition function and get the
    // same global ids a single index would assign.
    let id = server.insert(q.clone()).expect("fits the indexed space");
    let hits = server.query(&q, threshold).expect("query after insert");
    assert!(hits.neighbors.iter().any(|&(got, _)| got == id));
    println!("insert: vector {id} routed to its shard and immediately findable");

    // ---- Hot swap: a new build lands on disk; reload under traffic. ----
    let fresh = Preset::Rcv1.load(0.002, /* new seed */ 12);
    ShardBuilder::new(cfg)
        .composition(lite)
        .shards(6)
        .partition(PartitionFn::Hashed { seed: 12 })
        .build_to_dir(&fresh, &dir)
        .expect("rebuild the shard set in place");

    // A request in flight keeps its generation across the swap.
    let in_flight = server.generation();
    let generation = server.reload().expect("fresh shard set is intact");
    println!(
        "reload: now serving generation {generation} with {} shards; the in-flight request \
         still holds generation {}",
        server.shard_count(),
        in_flight.ordinal(),
    );
    assert_eq!(in_flight.ordinal() + 1, generation);

    // New queries run against the swapped-in corpus.
    let q = fresh.vector(0).clone();
    let hits = server
        .query(&q, threshold)
        .expect("served by the new generation");
    println!(
        "query after swap: {} neighbours from the new corpus",
        hits.neighbors.len()
    );

    // Damage is refused at reload, and the serving set stays up.
    let mut evil = std::fs::read(&manifest_path).expect("reread manifest");
    let last = evil.len() - 1;
    evil[last] ^= 0x01;
    std::fs::write(&manifest_path, &evil).expect("rewrite manifest");
    match server.reload() {
        Err(e) => println!("tamper check: {e}"),
        Ok(_) => unreachable!("checksummed manifest cannot load corrupted"),
    }
    assert_eq!(server.generation().ordinal(), generation);
    println!("still serving generation {generation} after the failed reload");

    let _ = std::fs::remove_dir_all(&dir);
}
