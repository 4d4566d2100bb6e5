//! Parallel execution benchmarks: the all-pairs join and the searcher
//! build at 1 vs. N worker threads. `cargo bench -p bayeslsh-bench --bench
//! parallel` regenerates the README's speedup table (the `repro parallel`
//! subcommand prints it at larger scales).

use std::hint::black_box;

use bayeslsh_core::{
    Composition, GeneratorKind, Parallelism, PipelineConfig, Searcher, VerifierKind,
};
use bayeslsh_datasets::Preset;
use criterion::{criterion_group, criterion_main, Criterion};

const LSH_BAYES: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);

fn bench_all_pairs_by_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_all_pairs");
    g.sample_size(10);
    for threads in [1u32, 2, 4, 8] {
        g.bench_function(format!("lsh_bayeslsh_t{threads}"), |b| {
            let data = Preset::Rcv1.load(0.0008, 17);
            let mut cfg = PipelineConfig::cosine(0.7);
            cfg.parallelism = Parallelism::threads(threads);
            let searcher = Searcher::builder(cfg)
                .composition(LSH_BAYES)
                .build(data)
                .expect("valid config");
            b.iter(|| black_box(searcher.all_pairs().expect("runs").pairs.len()));
        });
    }
    g.finish();
}

fn bench_build_by_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_build");
    g.sample_size(10);
    for threads in [1u32, 4] {
        g.bench_function(format!("searcher_build_t{threads}"), |b| {
            let data = Preset::Rcv1.load(0.0008, 18);
            let mut cfg = PipelineConfig::cosine(0.7);
            cfg.parallelism = Parallelism::threads(threads);
            b.iter(|| {
                let searcher = Searcher::builder(cfg)
                    .composition(LSH_BAYES)
                    .build(data.clone())
                    .expect("valid config");
                black_box(searcher.hash_count())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_all_pairs_by_threads, bench_build_by_threads);
criterion_main!(benches);
