//! End-to-end pipeline benchmarks: one Figure 3 cell per paper algorithm
//! (WikiWords100K-like, t = 0.7, weighted cosine) under Criterion's
//! statistical machinery.

use std::hint::black_box;

use bayeslsh_core::{run_composition, Composition, Measure, PipelineConfig};
use bayeslsh_datasets::Preset;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pipelines(c: &mut Criterion) {
    let data = Preset::WikiWords100K.load(0.003, 51);
    let cfg = PipelineConfig::cosine(0.7);
    let mut g = c.benchmark_group("pipeline_wikiwords_t07");
    g.sample_size(10);
    for (name, comp) in Composition::PAPER {
        if comp.requires_binary(Measure::Cosine) {
            continue;
        }
        g.bench_function(name.replace(' ', "_"), |b| {
            b.iter(|| black_box(run_composition(comp, &data, &cfg).unwrap().pairs.len()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
