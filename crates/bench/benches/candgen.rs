//! Candidate-generation benchmarks: AllPairs vs LSH banding vs PPJoin+,
//! including **ablation: PPJoin suffix-filter depth** (DESIGN.md §5).

use std::hint::black_box;

use bayeslsh_candgen::ppjoin::ppjoin_jaccard_with_stats;
use bayeslsh_candgen::{
    all_pairs_cosine, all_pairs_cosine_candidates, band_key_bits, lsh_candidates, ppjoin_jaccard,
    BandingParams,
};
use bayeslsh_datasets::Preset;
use bayeslsh_lsh::{cos_to_r, BitSignatures, SignaturePool, SrpHasher};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_cosine_generators(c: &mut Criterion) {
    let data = Preset::Rcv1.load(0.0015, 41);
    let t = 0.7;
    let mut g = c.benchmark_group("candgen_cosine");
    g.sample_size(10);
    g.bench_function("allpairs_exact", |b| {
        b.iter(|| black_box(all_pairs_cosine(&data, black_box(t)).len()));
    });
    g.bench_function("allpairs_candidates", |b| {
        b.iter(|| black_box(all_pairs_cosine_candidates(&data, black_box(t)).len()));
    });
    g.bench_function("lsh_banding", |b| {
        let params = BandingParams::for_threshold(cos_to_r(t), 8, 0.03, 10_000);
        let ids: Vec<u32> = data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        b.iter(|| {
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 3), data.len());
            pool.depth_hint(params.total_hashes());
            for &id in &ids {
                pool.ensure(id, data.vector(id), params.total_hashes());
            }
            let key = |id, band| band_key_bits(pool.raw(id), band, params.k);
            black_box(lsh_candidates(&ids, params, key).len())
        });
    });
    g.finish();
}

fn bench_ppjoin(c: &mut Criterion) {
    let data = Preset::Twitter.load_binary(0.004, 42);
    let mut g = c.benchmark_group("candgen_ppjoin");
    g.sample_size(10);
    g.bench_function("jaccard_t05", |b| {
        b.iter(|| black_box(ppjoin_jaccard(&data, black_box(0.5)).len()));
    });
    for depth in [0u32, 3] {
        g.bench_function(format!("suffix_depth{depth}"), |b| {
            b.iter(|| {
                let (out, stats) = ppjoin_jaccard_with_stats(&data, black_box(0.5), depth);
                black_box((out.len(), stats.verified))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cosine_generators, bench_ppjoin);
criterion_main!(benches);
