//! The online-serving consistency contract: under N concurrent readers
//! and one writer batching inserts and removes into published epochs,
//! every result a reader observes must be **bit-identical to some serial
//! prefix of the write log** — the exact answer a single-threaded
//! searcher gives after applying the first [`Epoch::applied`] write
//! operations and nothing else. Pinned for both the full-BayesLSH and
//! BayesLSH-Lite compositions, on both the threshold-query and top-k
//! surfaces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bayeslsh::prelude::*;

const READERS: usize = 4;
const BATCHES: usize = 10;
const BATCH_INSERTS: usize = 3;

/// Clustered corpus with planted near-duplicates.
fn corpus(seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut d = Dataset::new(2000);
    for c in 0..6 {
        let center: Vec<(u32, f32)> = (0..25)
            .map(|_| {
                (
                    (c * 300 + rng.next_below(280) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for _ in 0..5 {
            let mut pairs = center.clone();
            for p in pairs.iter_mut() {
                if rng.next_bool(0.2) {
                    *p = (rng.next_below(2000) as u32, (rng.next_f64() + 0.3) as f32);
                }
            }
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

/// One operation of the deterministic write log.
#[derive(Debug, Clone)]
enum WriteOp {
    Insert(SparseVector),
    Remove(u32),
    Compact,
}

/// The scripted write log: `BATCHES` batches of `BATCH_INSERTS` inserts
/// plus one remove of a distinct original id, with a compaction pass
/// spliced in halfway. Every remove hits a live id, so each op advances
/// the applied counter by exactly one and epoch boundaries land on known
/// prefix lengths.
fn write_log(extra: &Dataset) -> Vec<Vec<WriteOp>> {
    let mut batches = Vec::new();
    let mut next = 0usize;
    for batch in 0..BATCHES {
        let mut ops = Vec::new();
        for _ in 0..BATCH_INSERTS {
            ops.push(WriteOp::Insert(
                extra.vector((next % extra.len()) as u32).clone(),
            ));
            next += 1;
        }
        ops.push(WriteOp::Remove(batch as u32));
        if batch == BATCHES / 2 {
            ops.push(WriteOp::Compact);
        }
        batches.push(ops);
    }
    batches
}

fn build(comp: Composition, data: Dataset) -> Searcher {
    Searcher::builder(PipelineConfig::cosine(0.5))
        .composition(comp)
        .parallelism(Parallelism::serial())
        .build(data)
        .unwrap()
}

/// Apply ops to a plain searcher, single-threaded — the ground truth.
fn apply_serial(s: &mut Searcher, ops: &[WriteOp]) {
    for op in ops {
        match op {
            WriteOp::Insert(v) => {
                s.insert(v.clone()).unwrap();
            }
            WriteOp::Remove(id) => {
                assert!(s.remove(*id).unwrap(), "scripted remove must hit a live id");
            }
            WriteOp::Compact => {
                assert!(s.compact() > 0, "scripted compact must reclaim");
            }
        }
    }
}

/// Per-probe `(id, similarity bits)` rows — the bit-exact result shape.
type ResultBits = Vec<Vec<(u32, u64)>>;

fn query_bits(s: &Searcher, probes: &[SparseVector]) -> ResultBits {
    probes
        .iter()
        .map(|q| {
            let mut rows: Vec<(u32, u64)> = s
                .query(q, 0.5)
                .unwrap()
                .neighbors
                .iter()
                .map(|&(id, sim)| (id, sim.to_bits()))
                .collect();
            let top: Vec<(u32, u64)> = s
                .top_k(q, 5, &KnnParams::default())
                .unwrap()
                .neighbors
                .iter()
                .map(|&(id, sim)| (id, sim.to_bits()))
                .collect();
            rows.extend(top);
            rows
        })
        .collect()
}

fn stress(comp: Composition) {
    let initial = corpus(501);
    let probes: Vec<SparseVector> = (0..4).map(|i| initial.vector(i * 7).clone()).collect();
    let log = write_log(&corpus(777));
    let serving = Arc::new(ServingSearcher::new(build(comp, initial.clone())));
    let stop = Arc::new(AtomicBool::new(false));

    // Concurrent phase: readers record (applied, result bits) while the
    // writer replays the scripted batches.
    let observations: Vec<(u64, ResultBits)> = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let serving = Arc::clone(&serving);
            let stop = Arc::clone(&stop);
            let probes = &probes;
            readers.push(scope.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let epoch = serving.epoch();
                    seen.push((epoch.applied(), query_bits(epoch.searcher(), probes)));
                    if stop.load(Ordering::Relaxed) {
                        // One final read after the writer finished, so the
                        // terminal epoch is always covered.
                        let last = serving.epoch();
                        seen.push((last.applied(), query_bits(last.searcher(), probes)));
                        return seen;
                    }
                }
            }));
        }
        for ops in &log {
            for op in ops {
                match op {
                    WriteOp::Insert(v) => {
                        serving.insert(v.clone()).unwrap();
                    }
                    WriteOp::Remove(id) => {
                        assert!(serving.remove(*id).unwrap());
                    }
                    WriteOp::Compact => {
                        assert!(serving.compact() > 0);
                    }
                }
            }
            serving.publish();
        }
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });

    // Epochs land only on batch boundaries, so the applied counter must
    // always be a scripted prefix length.
    let flat: Vec<WriteOp> = log.iter().flatten().cloned().collect();
    let mut boundaries = vec![0u64];
    let mut acc = 0u64;
    for ops in &log {
        acc += ops.len() as u64;
        boundaries.push(acc);
    }
    let mut by_prefix: BTreeMap<u64, ResultBits> = BTreeMap::new();
    for (applied, bits) in observations {
        assert!(
            boundaries.contains(&applied),
            "{comp}: reader saw a torn epoch at applied={applied} (boundaries {boundaries:?})"
        );
        if let Some(prev) = by_prefix.get(&applied) {
            assert_eq!(
                prev, &bits,
                "{comp}: two reads of the same epoch (applied={applied}) disagreed"
            );
        } else {
            by_prefix.insert(applied, bits);
        }
    }
    assert!(
        by_prefix.len() > 1,
        "{comp}: readers only ever saw one epoch — no concurrency exercised"
    );
    assert!(
        by_prefix.contains_key(boundaries.last().unwrap()),
        "{comp}: the terminal epoch was never observed"
    );

    // Serial replay: every observed epoch must be bit-identical to a
    // single-threaded searcher that applied exactly that prefix.
    for (&applied, bits) in &by_prefix {
        let mut serial = build(comp, initial.clone());
        apply_serial(&mut serial, &flat[..applied as usize]);
        assert_eq!(
            &query_bits(&serial, &probes),
            bits,
            "{comp}: epoch applied={applied} diverged from its serial prefix"
        );
    }
}

#[test]
fn bayeslsh_epochs_match_serial_prefixes_under_stress() {
    stress(Composition::new(
        GeneratorKind::LshBanding,
        VerifierKind::Bayes,
    ));
}

#[test]
fn bayeslsh_lite_epochs_match_serial_prefixes_under_stress() {
    stress(Composition::new(
        GeneratorKind::LshBanding,
        VerifierKind::BayesLite,
    ));
}
