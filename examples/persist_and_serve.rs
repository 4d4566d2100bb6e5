//! Persist a built index, then serve from the snapshot: the offline
//! build-once / online load-many split a production deployment uses. One
//! process pays for hashing and indexing and writes a versioned snapshot;
//! every serving worker cold-loads it — bit-identical behaviour, none of
//! the build cost — probes the header first, and keeps absorbing inserts.
//!
//! ```text
//! cargo run --release --example persist_and_serve
//! ```

use std::io::{BufReader, BufWriter};
use std::time::Instant;

use bayeslsh::prelude::*;

fn main() {
    let threshold = 0.7;
    let path = std::env::temp_dir().join("bayeslsh_example.snap");

    // ---- Offline: build once, persist the artifact. ----
    let corpus = Preset::Rcv1.load(/* scale */ 0.002, /* seed */ 11);
    let n = corpus.len();
    let t0 = Instant::now();
    let builder_side = Searcher::builder(PipelineConfig::cosine(threshold))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::BayesLite,
        ))
        .build(corpus)
        .expect("valid config");
    let build_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let file = std::fs::File::create(&path).expect("create snapshot");
    builder_side.save(BufWriter::new(file)).expect("serialize");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "offline: built {n} vectors in {build_secs:.2}s, saved {bytes} bytes in {:.0}ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ---- Online: probe cheaply, then cold-load the standing index. ----
    let file = std::fs::File::open(&path).expect("open snapshot");
    let header = SnapshotHeader::read(BufReader::new(file)).expect("probe");
    println!(
        "probe: format v{}, {:?}, {} vectors, {} corpus hashes banked",
        header.format_version, header.measure, header.n_vectors, header.total_hashes
    );

    let t0 = Instant::now();
    let file = std::fs::File::open(&path).expect("open snapshot");
    let mut server = Searcher::load(BufReader::new(file)).expect("snapshot is intact");
    println!(
        "online: cold-loaded in {:.0}ms — no corpus re-hashing ({} hashes restored)",
        t0.elapsed().as_secs_f64() * 1e3,
        server.hash_count()
    );

    // Queries hit the restored index directly.
    let q = server.data().vector(0).clone();
    let hits = server.query(&q, threshold).expect("in-range threshold");
    println!(
        "query: {} neighbours above {threshold} ({} candidates probed)",
        hits.neighbors.len(),
        hits.stats.candidates
    );
    assert!(hits.neighbors.iter().any(|&(id, _)| id == 0));

    // The loaded searcher keeps growing: the rebuilt hash-function banks
    // hash inserts exactly as the original would have.
    let planted = q.clone();
    let id = server.insert(planted).expect("fits the indexed space");
    let hits = server.query(&q, threshold).expect("query after insert");
    assert!(hits.neighbors.iter().any(|&(got, _)| got == id));
    println!("insert: vector {id} indexed and immediately findable");

    // Corruption is detected, not served: flip one byte and reload.
    let mut evil = std::fs::read(&path).expect("reread");
    let mid = evil.len() / 2;
    evil[mid] ^= 0x01;
    match Searcher::load(&evil[..]) {
        Err(e) => println!("tamper check: {e}"),
        Ok(_) => unreachable!("checksummed snapshot cannot load corrupted"),
    }

    let _ = std::fs::remove_file(&path);
}
