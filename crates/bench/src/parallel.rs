//! Parallel speedup measurement: all-pairs wall-clock at increasing thread
//! counts, medium preset, with a built-in bit-identity check so a timing
//! run doubles as an equivalence audit.

use std::time::Instant;

use bayeslsh_core::{Composition, GeneratorKind, PipelineConfig, Searcher, VerifierKind};
use bayeslsh_datasets::Preset;
use bayeslsh_numeric::Parallelism;

/// One (composition, thread count) measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Composition measured.
    pub composition: Composition,
    /// Worker threads used.
    pub threads: usize,
    /// Seconds to build the searcher (hashing + banding index).
    pub build_secs: f64,
    /// Seconds for the all-pairs join (candidate generation + verification).
    pub join_secs: f64,
    /// Wall-clock speedup of the join versus the 1-thread row.
    pub join_speedup: f64,
    /// Output pairs (identical across thread counts by construction; the
    /// run asserts it).
    pub output: usize,
}

/// Time `all_pairs` for the LSH-based compositions at thread counts
/// {1, 2, 4, 8} on a medium RCV1-shaped corpus, asserting bit-identical
/// output across thread counts as it goes.
pub fn run(scale: f64, seed: u64) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for verifier in [
        VerifierKind::Exact,
        VerifierKind::Bayes,
        VerifierKind::BayesLite,
    ] {
        let composition = Composition::new(GeneratorKind::LshBanding, verifier);
        let mut serial_secs = 0.0;
        let mut serial_pairs: Option<Vec<(u32, u32, u64)>> = None;
        for threads in [1usize, 2, 4, 8] {
            let data = Preset::Rcv1.load(scale, seed);
            let mut cfg = PipelineConfig::cosine(0.7);
            cfg.parallelism = Parallelism::threads(threads as u32);
            let build_start = Instant::now();
            let searcher = Searcher::builder(cfg)
                .composition(composition)
                .build(data)
                .expect("valid config");
            let build_secs = build_start.elapsed().as_secs_f64();
            let join_start = Instant::now();
            let out = searcher.all_pairs().expect("composition runs");
            let join_secs = join_start.elapsed().as_secs_f64();

            let bits: Vec<(u32, u32, u64)> = out
                .pairs
                .iter()
                .map(|&(a, b, s)| (a, b, s.to_bits()))
                .collect();
            match &serial_pairs {
                None => {
                    serial_secs = join_secs;
                    serial_pairs = Some(bits);
                }
                Some(expect) => assert_eq!(
                    expect, &bits,
                    "{composition}: parallel output diverged at {threads} threads"
                ),
            }
            rows.push(SpeedupRow {
                composition,
                threads,
                build_secs,
                join_secs,
                join_speedup: serial_secs / join_secs.max(1e-12),
                output: out.pairs.len(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_rows_are_consistent() {
        let rows = run(0.0004, 7);
        assert_eq!(rows.len(), 12);
        for chunk in rows.chunks(4) {
            let outputs: Vec<usize> = chunk.iter().map(|r| r.output).collect();
            assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
            assert!((chunk[0].join_speedup - 1.0).abs() < 1e-9);
        }
    }
}
