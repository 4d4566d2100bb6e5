//! The machine-readable performance baseline (`repro bench-baseline`).
//!
//! The paper's Observation 3 names hashing as the dominant BayesLSH cost;
//! this module measures it directly and writes `BENCH_<n>.json` so later
//! PRs have a trajectory to regress against. Three measurements:
//!
//! 1. **SRP hashing microbench** — the historical plane-major scalar path
//!    (reconstructed here, byte-for-byte, from the pure
//!    [`bayeslsh_lsh::generate_plane`] streams) versus the feature-major
//!    bank kernel, in components/s, with the outputs asserted
//!    bit-identical.
//! 2. **MinHash microbench** — the hash-major scalar path (one
//!    [`bayeslsh_lsh::MinHasher::hash_ready`] walk per slot) versus the
//!    element-major range kernel.
//! 3. **Verification throughput** — cold-pool pairs/s through
//!    `bayes_verify` (lazy hashing included), plus a **batched-verify** row
//!    timing the steady-state path alone: signatures pre-extended, then the
//!    run-major batched engine counts agreements through the word-parallel
//!    XOR + popcount kernels — the popcount-bound ceiling of the system.
//! 4. **SPRT verification throughput** — the same cold-pool workload
//!    through the sequential-test verifier, whose early accept/prune
//!    boundaries and shallow signature cap buy both fewer hash
//!    comparisons per accepted pair and less lazy hashing than the fixed
//!    concentration schedule. Every verify row also reports
//!    `hashes_per_accepted_pair`, the adaptive-verification cost metric.
//! 5. **E2LSH hashing microbench** — the per-slot scalar gather
//!    ([`bayeslsh_lsh::E2lshHasher::hash_ready`]) versus the feature-major
//!    projection kernel, outputs asserted bucket-identical.
//! 6. **Multi-probe query throughput** — a standing cosine `Searcher`
//!    answering point queries with the full step-wise per-band probe
//!    budget, in queries/s, with the probe accounting asserted first.
//! 7. **End-to-end all-pairs wall time** per preset.
//!
//! Everything is returned as structured rows; JSON serialization, the
//! schema check the CI smoke job runs, and the [`assert_floor`] regression
//! gate are hand-rolled (the workspace has no serde).

use std::time::Instant;

use bayeslsh_core::{
    bayes_verify, candidate_ids, run_composition, sprt_verify, BayesLshConfig, Composition,
    CosineModel, GeneratorKind, PipelineConfig, Searcher, VerifierKind,
};
use bayeslsh_datasets::{generate, CorpusConfig, Preset};
use bayeslsh_lsh::{
    cos_to_r, generate_plane, quantized, r_to_cos, BitSignatures, E2lshHasher, MinHasher, SrpHasher,
};
use bayeslsh_sparse::{cosine, Dataset, SparseVector};

use crate::report::label;

/// One side of a kernel comparison.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Hash components processed per pass (Σ nnz(v) · hashes).
    pub components: u64,
    /// Best-of-reps wall time for one pass.
    pub secs: f64,
    /// `components / secs`.
    pub per_s: f64,
}

/// Scalar-versus-kernel microbench result.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// The pre-PR scalar (hash-major) path.
    pub scalar: Throughput,
    /// The feature-/element-major kernel.
    pub kernel: Throughput,
    /// `kernel.per_s / scalar.per_s`.
    pub speedup: f64,
}

/// Verification throughput through the BayesLSH engine.
#[derive(Debug, Clone)]
pub struct VerifyBench {
    /// Candidate pairs fed in.
    pub pairs: u64,
    /// Wall time of the verify call (hashing included, pool cold).
    pub secs: f64,
    /// `pairs / secs`.
    pub pairs_per_s: f64,
    /// Hash comparisons performed (pruning effectiveness context).
    pub hash_comparisons: u64,
    /// Hash comparisons per accepted pair — the adaptive-verification cost
    /// metric (0.0 when nothing was accepted).
    pub hashes_per_accepted_pair: f64,
}

/// Point-query throughput through the step-wise multi-probe path.
#[derive(Debug, Clone)]
pub struct QueryBench {
    /// Point queries issued per pass.
    pub queries: u64,
    /// Best-of-reps wall time for one pass.
    pub secs: f64,
    /// `queries / secs`.
    pub queries_per_s: f64,
    /// Bucket lookups per pass (bands × probe budget × queries).
    pub bucket_probes: u64,
}

/// End-to-end all-pairs wall time for one preset.
#[derive(Debug, Clone)]
pub struct EndToEndRow {
    /// Preset name.
    pub preset: String,
    /// Composition timed.
    pub composition: Composition,
    /// Total wall-clock seconds.
    pub secs: f64,
    /// Output pairs found.
    pub pairs: u64,
}

/// The full baseline report.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Dataset scale factor the verify/end-to-end sections used.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Host CPU cores visible to the process.
    pub cores: usize,
    /// SRP microbench (quantized storage, the default).
    pub srp: KernelBench,
    /// MinHash microbench.
    pub minhash: KernelBench,
    /// E2LSH p-stable projection microbench.
    pub e2lsh_hash: KernelBench,
    /// Step-wise multi-probe point-query throughput.
    pub multiprobe_query: QueryBench,
    /// BayesLSH verification throughput (cold pool, hashing included).
    pub verify: VerifyBench,
    /// Steady-state batched verification throughput (pool pre-extended, so
    /// the engine is pure agreement counting + posterior arithmetic).
    pub verify_batched: VerifyBench,
    /// SPRT sequential-test verification throughput (cold pool, hashing
    /// included — directly comparable to `verify`).
    pub sprt_verify: VerifyBench,
    /// End-to-end preset timings.
    pub end_to_end: Vec<EndToEndRow>,
}

/// The historical plane-major SRP layout, kept verbatim as the measured
/// "before": one `Vec<u16>` per plane, and a per-bit loop gathering one
/// component per nonzero — `h × nnz` random gathers per signature.
struct ScalarSrp {
    planes: Vec<Vec<u16>>,
}

impl ScalarSrp {
    fn new(dim: u32, seed: u64, n: usize) -> Self {
        let planes = (0..n)
            .map(|i| quantized::encode_slice(&generate_plane(dim, seed, i)))
            .collect();
        Self { planes }
    }

    /// The pre-PR `hash_bits_into` body, including its per-word
    /// `push(0)`-inside-the-bit-loop growth.
    fn hash_bits_into(&self, v: &SparseVector, lo: u32, hi: u32, words: &mut Vec<u32>) {
        for i in lo..hi {
            let word_idx = (i / 32) as usize;
            if word_idx >= words.len() {
                words.push(0);
            }
            let plane = &self.planes[i as usize];
            let mut acc = 0.0f64;
            for (idx, val) in v.iter() {
                acc += quantized::decode(plane[idx as usize]) as f64 * val as f64;
            }
            if acc >= 0.0 {
                words[word_idx] |= 1u32 << (i % 32);
            }
        }
    }
}

/// Best-of-`reps` wall time of one full pass.
fn best_of(reps: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

const SRP_DIM: u32 = 8_192;
const SRP_VECTORS: usize = 256;
const SRP_BITS: u32 = 512;
const MH_HASHES: u32 = 256;
const E2_HASHES: u32 = 256;
const REPS: usize = 5;

fn micro_corpus(seed: u64) -> Dataset {
    generate(&CorpusConfig {
        n_vectors: SRP_VECTORS,
        dim: SRP_DIM,
        avg_len: 100,
        seed,
        ..CorpusConfig::default()
    })
}

/// SRP microbench: scalar plane-major vs feature-major kernel, quantized
/// storage. Panics if the two paths ever disagree on a bit — the baseline
/// doubles as an end-to-end bit-identity check.
pub fn srp_bench(seed: u64) -> KernelBench {
    let data = micro_corpus(seed);
    let hash_seed = seed ^ 0x5157;
    let scalar = ScalarSrp::new(SRP_DIM, hash_seed, SRP_BITS as usize);
    let mut hasher = SrpHasher::new(SRP_DIM, hash_seed);
    hasher.ensure_planes(SRP_BITS as usize);

    let components: u64 = data
        .vectors()
        .iter()
        .map(|v| v.nnz() as u64 * SRP_BITS as u64)
        .sum();

    // Bit-identity first: the kernel must reproduce the scalar layout.
    for (_, v) in data.iter() {
        let mut old = Vec::new();
        scalar.hash_bits_into(v, 0, SRP_BITS, &mut old);
        let mut new = Vec::new();
        hasher.hash_bits_into(v, 0, SRP_BITS, &mut new);
        assert_eq!(old, new, "kernel diverged from the scalar plane-major path");
    }

    let mut sink = 0u32;
    let scalar_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut words = Vec::new();
            scalar.hash_bits_into(v, 0, SRP_BITS, &mut words);
            sink ^= words[0];
        }
    });
    let kernel_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut words = Vec::new();
            hasher.hash_bits_into(v, 0, SRP_BITS, &mut words);
            sink ^= words[0];
        }
    });
    std::hint::black_box(sink);
    bench_result(components, scalar_secs, kernel_secs)
}

/// MinHash microbench: hash-major scalar vs element-major kernel.
pub fn minhash_bench(seed: u64) -> KernelBench {
    let data = micro_corpus(seed).binarized();
    let mut hasher = MinHasher::new(seed ^ 0x31A5);
    hasher.ensure_functions(MH_HASHES as usize);

    let components: u64 = data
        .vectors()
        .iter()
        .map(|v| v.nnz() as u64 * MH_HASHES as u64)
        .sum();

    for (_, v) in data.iter() {
        let old: Vec<u32> = (0..MH_HASHES)
            .map(|i| hasher.hash_ready(i as usize, v))
            .collect();
        let new = hasher.hash_range_packed(v, 0, MH_HASHES);
        assert_eq!(old, new, "kernel diverged from the scalar hash-major path");
    }

    let mut sink = 0u32;
    let scalar_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut out = Vec::new();
            for i in 0..MH_HASHES {
                out.push(hasher.hash_ready(i as usize, v));
            }
            sink ^= out[0];
        }
    });
    let kernel_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut out = Vec::new();
            hasher.hash_range_into(v, 0, MH_HASHES, &mut out);
            sink ^= out[0];
        }
    });
    std::hint::black_box(sink);
    bench_result(components, scalar_secs, kernel_secs)
}

/// E2LSH microbench: the per-slot scalar gather (`hash_ready`, one bank
/// stride walk per bucket) vs the feature-major projection kernel, over
/// weighted vectors at the default L2 bucket width. Panics if the two
/// paths ever disagree on a bucket — like the SRP row, the baseline
/// doubles as a bit-identity check.
pub fn e2lsh_bench(seed: u64) -> KernelBench {
    let data = micro_corpus(seed);
    let mut hasher = E2lshHasher::new(SRP_DIM, seed ^ 0x72E2, 4.0);
    hasher.ensure_functions(E2_HASHES as usize);

    let components: u64 = data
        .vectors()
        .iter()
        .map(|v| v.nnz() as u64 * E2_HASHES as u64)
        .sum();

    for (_, v) in data.iter() {
        let old: Vec<u32> = (0..E2_HASHES)
            .map(|i| hasher.hash_ready(i as usize, v))
            .collect();
        let mut new = Vec::new();
        hasher.hash_range_into(v, 0, E2_HASHES, &mut new);
        assert_eq!(old, new, "kernel diverged from the scalar per-slot path");
    }

    let mut sink = 0u32;
    let scalar_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut out = Vec::new();
            for i in 0..E2_HASHES {
                out.push(hasher.hash_ready(i as usize, v));
            }
            sink ^= out[0];
        }
    });
    let kernel_secs = best_of(REPS, || {
        for (_, v) in data.iter() {
            let mut out = Vec::new();
            hasher.hash_range_into(v, 0, E2_HASHES, &mut out);
            sink ^= out[0];
        }
    });
    std::hint::black_box(sink);
    bench_result(components, scalar_secs, kernel_secs)
}

/// Multi-probe query throughput: a standing cosine `Searcher` (LSH
/// banding × exact, paper-default plan) answering point queries with the
/// full per-band flip budget (`band_width + 1` probes per band). The
/// probe accounting is asserted before timing, so the row cannot
/// silently fall back to the single-probe path.
pub fn multiprobe_query_bench(scale: f64, seed: u64) -> QueryBench {
    let data = Preset::Rcv1.load(scale, seed);
    let mut cfg = PipelineConfig::cosine(0.7);
    cfg.probes = cfg.band_width as usize + 1;
    let searcher = Searcher::builder(cfg)
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Exact,
        ))
        .build(data.clone())
        .expect("valid config");
    let bands = searcher.banding_plan().params.l as u64;
    let step = (data.len() / 256).max(1);
    let queries: Vec<SparseVector> = (0..data.len() as u32)
        .step_by(step)
        .map(|id| data.vector(id).clone())
        .collect();

    let mut bucket_probes = 0u64;
    for q in &queries {
        let out = searcher.query(q, 0.7).expect("in-range threshold");
        assert_eq!(
            out.stats.bucket_probes,
            bands * cfg.probes as u64,
            "multi-probe accounting"
        );
        bucket_probes += out.stats.bucket_probes;
    }

    let mut sink = 0usize;
    let secs = best_of(REPS, || {
        for q in &queries {
            sink ^= searcher.query(q, 0.7).unwrap().neighbors.len();
        }
    });
    std::hint::black_box(sink);
    QueryBench {
        queries: queries.len() as u64,
        secs,
        queries_per_s: queries.len() as f64 / secs.max(1e-12),
        bucket_probes,
    }
}

fn bench_result(components: u64, scalar_secs: f64, kernel_secs: f64) -> KernelBench {
    let scalar = Throughput {
        components,
        secs: scalar_secs,
        per_s: components as f64 / scalar_secs.max(1e-12),
    };
    let kernel = Throughput {
        components,
        secs: kernel_secs,
        per_s: components as f64 / kernel_secs.max(1e-12),
    };
    let speedup = kernel.per_s / scalar.per_s.max(1e-12);
    KernelBench {
        scalar,
        kernel,
        speedup,
    }
}

/// The all-pairs candidate set both verify rows run over: a scaled
/// WikiWords100K-like corpus, first 600 vectors, t = 0.7.
fn verify_workload(scale: f64, seed: u64) -> (Dataset, Vec<(u32, u32)>, BayesLshConfig) {
    let data = Preset::WikiWords100K.load(scale, seed);
    let n = data.len().min(600) as u32;
    let candidates: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    (data, candidates, BayesLshConfig::cosine(0.7))
}

/// Verification throughput: `bayes_verify` over the all-pairs candidate
/// set, cold pool (lazy hashing cost included, as in the paper's
/// accounting). Gaussian plane *generation* is excluded — planes are a
/// one-time index-build cost every production path pays at
/// `SearcherBuilder::build`, not per verification.
pub fn verify_bench(scale: f64, seed: u64) -> VerifyBench {
    let (data, candidates, cfg) = verify_workload(scale, seed);
    let depth = (cfg.max_hashes / cfg.k).max(1) * cfg.k;
    let mut hasher = SrpHasher::new(data.dim(), seed ^ 0xBE7);
    hasher.ensure_planes(depth as usize);
    let mut pool = BitSignatures::new(hasher, data.len());
    let start = Instant::now();
    let (_, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &candidates, &cfg);
    let secs = start.elapsed().as_secs_f64();
    VerifyBench {
        pairs: candidates.len() as u64,
        secs,
        pairs_per_s: candidates.len() as f64 / secs.max(1e-12),
        hash_comparisons: stats.hash_comparisons,
        hashes_per_accepted_pair: stats.hashes_per_accepted_pair(),
    }
}

/// SPRT verification throughput: the sequential-test verifier over the
/// identical cold-pool workload as [`verify_bench`] — same corpus, same
/// candidate set, same threshold, signatures hashed lazily as chunks are
/// demanded. The SPRT's Wald boundaries decide most pairs within a few
/// 32-hash chunks and its signature cap is a quarter of the Bayesian
/// schedule's, so both the hashing bill and the per-pair comparison count
/// drop; undecided pairs at the cap fall back to one exact similarity.
pub fn sprt_verify_bench(scale: f64, seed: u64) -> VerifyBench {
    let (data, candidates, _) = verify_workload(scale, seed);
    let cfg = PipelineConfig::cosine(0.7).sprt();
    let depth = (cfg.max_hashes / cfg.k).max(1) * cfg.k;
    let mut hasher = SrpHasher::new(data.dim(), seed ^ 0xBE7);
    hasher.ensure_planes(depth as usize);
    let mut pool = BitSignatures::new(hasher, data.len());
    let start = Instant::now();
    let (_, stats) = sprt_verify(
        &data,
        &mut pool,
        &candidates,
        &cfg,
        cos_to_r,
        r_to_cos,
        |a: &SparseVector, b: &SparseVector| cosine(a, b),
    );
    let secs = start.elapsed().as_secs_f64();
    VerifyBench {
        pairs: candidates.len() as u64,
        secs,
        pairs_per_s: candidates.len() as f64 / secs.max(1e-12),
        hash_comparisons: stats.hash_comparisons,
        hashes_per_accepted_pair: stats.hashes_per_accepted_pair(),
    }
}

/// Steady-state verification throughput: every candidate signature is
/// pre-extended to the scan depth, then the run-major batched engine
/// (`bayes_verify` over the pre-hashed pool, so its lazy extensions are
/// no-ops) is timed alone. This is the popcount-bound ceiling the
/// word-parallel kernels buy; best-of-reps since the pass is repeatable.
pub fn verify_batched_bench(scale: f64, seed: u64) -> VerifyBench {
    let (data, candidates, cfg) = verify_workload(scale, seed);
    let depth = (cfg.max_hashes / cfg.k).max(1) * cfg.k;
    let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), seed ^ 0xBE7), data.len());
    let ids = candidate_ids(&candidates, data.len());
    pool.par_ensure_ids(&data, &ids, depth, 1);
    let model = CosineModel::new();
    let mut hash_comparisons = 0u64;
    let mut hashes_per_accepted_pair = 0.0f64;
    let secs = best_of(REPS, || {
        let (pairs, stats) = bayes_verify(&data, &mut pool, &model, &candidates, &cfg);
        std::hint::black_box(pairs.len());
        hash_comparisons = stats.hash_comparisons;
        hashes_per_accepted_pair = stats.hashes_per_accepted_pair();
    });
    VerifyBench {
        pairs: candidates.len() as u64,
        secs,
        pairs_per_s: candidates.len() as f64 / secs.max(1e-12),
        hash_comparisons,
        hashes_per_accepted_pair,
    }
}

/// End-to-end all-pairs wall time per preset (LSH + BayesLSH, cosine).
pub fn end_to_end(scale: f64, seed: u64) -> Vec<EndToEndRow> {
    [Preset::Rcv1, Preset::WikiWords100K]
        .iter()
        .map(|preset| {
            let data = preset.load(scale, seed);
            let cfg = bayeslsh_core::PipelineConfig::cosine(0.7);
            let composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);
            let out = run_composition(composition, &data, &cfg).expect("paper config runs");
            EndToEndRow {
                preset: preset.name().to_string(),
                composition,
                secs: out.total_secs,
                pairs: out.pairs.len() as u64,
            }
        })
        .collect()
}

/// Run the full baseline.
pub fn run(scale: f64, seed: u64) -> BaselineReport {
    BaselineReport {
        scale,
        seed,
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        srp: srp_bench(seed),
        minhash: minhash_bench(seed),
        e2lsh_hash: e2lsh_bench(seed),
        multiprobe_query: multiprobe_query_bench(scale, seed),
        verify: verify_bench(scale, seed),
        verify_batched: verify_batched_bench(scale, seed),
        sprt_verify: sprt_verify_bench(scale, seed),
        end_to_end: end_to_end(scale, seed),
    }
}

fn json_verify(b: &VerifyBench) -> String {
    format!(
        concat!(
            "{{\"pairs\": {}, \"secs\": {:.4}, \"pairs_per_s\": {:.1}, ",
            "\"hash_comparisons\": {}, \"hashes_per_accepted_pair\": {:.1}}}"
        ),
        b.pairs, b.secs, b.pairs_per_s, b.hash_comparisons, b.hashes_per_accepted_pair
    )
}

fn json_query(b: &QueryBench) -> String {
    format!(
        concat!(
            "{{\"queries\": {}, \"secs\": {:.4}, \"queries_per_s\": {:.1}, ",
            "\"bucket_probes\": {}}}"
        ),
        b.queries, b.secs, b.queries_per_s, b.bucket_probes
    )
}

fn json_kernel(b: &KernelBench) -> String {
    format!(
        concat!(
            "{{\"components\": {}, ",
            "\"scalar_components_per_s\": {:.1}, ",
            "\"kernel_components_per_s\": {:.1}, ",
            "\"scalar_secs\": {:.6}, \"kernel_secs\": {:.6}, ",
            "\"speedup\": {:.3}}}"
        ),
        b.scalar.components,
        b.scalar.per_s,
        b.kernel.per_s,
        b.scalar.secs,
        b.kernel.secs,
        b.speedup
    )
}

impl BaselineReport {
    /// Serialize to the `BENCH_<n>.json` schema (see [`validate_json`]).
    pub fn to_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end
            .iter()
            .map(|r| {
                format!(
                    "    {{\"preset\": \"{}\", \"algorithm\": \"{}\", \"secs\": {:.4}, \"pairs\": {}}}",
                    r.preset,
                    label(r.composition),
                    r.secs,
                    r.pairs
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"bayeslsh-bench-baseline-v4\",\n",
                "  \"scale\": {},\n",
                "  \"seed\": {},\n",
                "  \"cores\": {},\n",
                "  \"srp\": {},\n",
                "  \"minhash\": {},\n",
                "  \"e2lsh_hash\": {},\n",
                "  \"multiprobe_query\": {},\n",
                "  \"verify\": {},\n",
                "  \"verify_batched\": {},\n",
                "  \"sprt_verify\": {},\n",
                "  \"end_to_end\": [\n{}\n  ]\n",
                "}}\n"
            ),
            self.scale,
            self.seed,
            self.cores,
            json_kernel(&self.srp),
            json_kernel(&self.minhash),
            json_kernel(&self.e2lsh_hash),
            json_query(&self.multiprobe_query),
            json_verify(&self.verify),
            json_verify(&self.verify_batched),
            json_verify(&self.sprt_verify),
            e2e.join(",\n")
        )
    }
}

/// Extract the number following `"key":` anywhere in `s`.
fn json_number(s: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The flat object following `section` (e.g. `"\"verify\":"`), bounded at
/// its closing brace — the kernel and verify sections never nest, so a key
/// looked up here cannot be satisfied by an identically-named key in a
/// later section.
fn section_slice<'a>(s: &'a str, section: &str) -> Option<&'a str> {
    let at = s.find(section)?;
    let end = s[at..].find('}').map_or(s.len(), |e| at + e + 1);
    Some(&s[at..end])
}

/// The throughput keys the CI `bench-regression` job holds the line on, as
/// `(section, key)` pairs scoped exactly like [`validate_json`].
const FLOOR_KEYS: [(&str, &str); 7] = [
    ("\"srp\":", "kernel_components_per_s"),
    ("\"minhash\":", "kernel_components_per_s"),
    ("\"e2lsh_hash\":", "kernel_components_per_s"),
    ("\"multiprobe_query\":", "queries_per_s"),
    ("\"verify\":", "pairs_per_s"),
    ("\"verify_batched\":", "pairs_per_s"),
    ("\"sprt_verify\":", "pairs_per_s"),
];

/// Fraction of a committed throughput a fresh run must retain. CI runners
/// are noisy; 0.6 (i.e. a > 40% regression fails) separates real kernel
/// regressions from scheduling jitter on these rows, all of which are
/// best-of-reps or multi-second passes.
pub const FLOOR_TOLERANCE: f64 = 0.6;

/// Perf-regression gate (`repro bench-baseline --assert-floor PATH`): every
/// throughput in `FLOOR_KEYS` of the fresh emit must reach
/// [`FLOOR_TOLERANCE`] × the committed value. Returns one human-readable
/// margin line per key on success, so the CI log shows each kernel's
/// headroom; a violated floor fails with measured-vs-required numbers.
pub fn assert_floor(committed: &str, fresh: &str) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for (section, key) in FLOOR_KEYS {
        let base = section_slice(committed, section)
            .and_then(|sub| json_number(sub, key))
            .ok_or_else(|| format!("committed baseline: missing {section} {key}"))?;
        let got = section_slice(fresh, section)
            .and_then(|sub| json_number(sub, key))
            .ok_or_else(|| format!("fresh baseline: missing {section} {key}"))?;
        let floor = base * FLOOR_TOLERANCE;
        if got < floor {
            return Err(format!(
                "perf regression: {section} {key} = {got:.3e} is below the floor {floor:.3e} \
                 ({FLOOR_TOLERANCE} x committed {base:.3e})"
            ));
        }
        lines.push(format!(
            "{section} {key}: {got:.3e} vs committed {base:.3e} ({:+.1}%)",
            (got / base - 1.0) * 100.0
        ));
    }
    Ok(lines)
}

/// Schema check for an emitted baseline: required keys present, throughputs
/// strictly positive. This is what the CI smoke job (and the subcommand
/// itself, before declaring success) runs, so the perf-reporting pipeline
/// cannot silently rot.
pub fn validate_json(s: &str) -> Result<(), String> {
    if !s.contains("\"schema\": \"bayeslsh-bench-baseline-v4\"") {
        return Err("missing or wrong schema marker".into());
    }
    for section in [
        "\"srp\":",
        "\"minhash\":",
        "\"e2lsh_hash\":",
        "\"multiprobe_query\":",
        "\"verify\":",
        "\"verify_batched\":",
        "\"sprt_verify\":",
        "\"end_to_end\":",
    ] {
        if !s.contains(section) {
            return Err(format!("missing section {section}"));
        }
    }
    // Positional check: both kernel sections carry their own keys; verify
    // each occurrence by scanning per-section substrings.
    for (section, keys) in [
        (
            "\"srp\":",
            &[
                "scalar_components_per_s",
                "kernel_components_per_s",
                "speedup",
            ][..],
        ),
        (
            "\"minhash\":",
            &[
                "scalar_components_per_s",
                "kernel_components_per_s",
                "speedup",
            ][..],
        ),
        (
            "\"e2lsh_hash\":",
            &[
                "scalar_components_per_s",
                "kernel_components_per_s",
                "speedup",
            ][..],
        ),
        (
            "\"multiprobe_query\":",
            &["queries_per_s", "bucket_probes"][..],
        ),
        ("\"verify\":", &["pairs_per_s"][..]),
        ("\"verify_batched\":", &["pairs_per_s"][..]),
        ("\"sprt_verify\":", &["pairs_per_s"][..]),
    ] {
        let sub = section_slice(s, section).ok_or_else(|| format!("missing section {section}"))?;
        for key in keys {
            match json_number(sub, key) {
                Some(v) if v > 0.0 => {}
                Some(v) => return Err(format!("{section} {key} = {v}, expected > 0")),
                None => return Err(format!("{section} missing numeric {key}")),
            }
        }
    }
    // The adaptive-cost metric rides on every verify row; zero is legal
    // (nothing accepted) but absence is schema rot.
    for section in ["\"verify\":", "\"verify_batched\":", "\"sprt_verify\":"] {
        let sub = section_slice(s, section).ok_or_else(|| format!("missing section {section}"))?;
        match json_number(sub, "hashes_per_accepted_pair") {
            Some(v) if v >= 0.0 => {}
            Some(v) => return Err(format!("{section} hashes_per_accepted_pair = {v} < 0")),
            None => return Err(format!("{section} missing hashes_per_accepted_pair")),
        }
    }
    if !s.contains("\"preset\":") {
        return Err("end_to_end has no rows".into());
    }
    Ok(())
}

/// Every distinct `"key":` name occurring in a baseline JSON document —
/// the schema fingerprint the drift check compares.
pub fn schema_keys(s: &str) -> std::collections::BTreeSet<String> {
    let mut keys = std::collections::BTreeSet::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(open) = s[i..].find('"') {
        let start = i + open + 1;
        let Some(close) = s[start..].find('"') else {
            break;
        };
        let end = start + close;
        // A quoted string is a key iff the next non-space byte is ':'.
        let mut j = end + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b':' {
            keys.insert(s[start..end].to_string());
        }
        i = end + 1;
    }
    keys
}

/// Compare the schema (key set) of a committed baseline against a freshly
/// emitted one, so the committed `BENCH_<n>.json` and the emitter cannot
/// drift apart silently. Values are expected to differ (different hosts,
/// different runs); the *keys* are the contract.
pub fn diff_schema(committed: &str, fresh: &str) -> Result<(), String> {
    let (a, b) = (schema_keys(committed), schema_keys(fresh));
    let missing: Vec<&String> = a.difference(&b).collect();
    let added: Vec<&String> = b.difference(&a).collect();
    if missing.is_empty() && added.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "baseline schema drift: keys only in committed file: {missing:?}; \
             keys only in fresh emit: {added:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BaselineReport {
        let t = |per_s: f64| Throughput {
            components: 1000,
            secs: 0.5,
            per_s,
        };
        BaselineReport {
            scale: 0.001,
            seed: 42,
            cores: 1,
            srp: KernelBench {
                scalar: t(100.0),
                kernel: t(250.0),
                speedup: 2.5,
            },
            minhash: KernelBench {
                scalar: t(10.0),
                kernel: t(30.0),
                speedup: 3.0,
            },
            e2lsh_hash: KernelBench {
                scalar: t(40.0),
                kernel: t(120.0),
                speedup: 3.0,
            },
            multiprobe_query: QueryBench {
                queries: 64,
                secs: 0.02,
                queries_per_s: 3200.0,
                bucket_probes: 4096,
            },
            verify: VerifyBench {
                pairs: 10,
                secs: 0.1,
                pairs_per_s: 100.0,
                hash_comparisons: 320,
                hashes_per_accepted_pair: 64.0,
            },
            verify_batched: VerifyBench {
                pairs: 10,
                secs: 0.01,
                pairs_per_s: 1000.0,
                hash_comparisons: 320,
                hashes_per_accepted_pair: 64.0,
            },
            sprt_verify: VerifyBench {
                pairs: 10,
                secs: 0.05,
                pairs_per_s: 200.0,
                hash_comparisons: 160,
                hashes_per_accepted_pair: 32.0,
            },
            end_to_end: vec![EndToEndRow {
                preset: "RCV1".into(),
                composition: Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes),
                secs: 0.2,
                pairs: 3,
            }],
        }
    }

    #[test]
    fn emitted_json_round_trips_the_validator() {
        let json = sample_report().to_json();
        validate_json(&json).expect("schema check");
        assert!((json_number(&json, "speedup").unwrap() - 2.5).abs() < 1e-9);
        assert!((json_number(&json, "pairs_per_s").unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn validator_rejects_broken_payloads() {
        assert!(validate_json("{}").is_err());
        let mut r = sample_report();
        r.srp.scalar.per_s = 0.0;
        assert!(validate_json(&r.to_json()).is_err());
        let json = sample_report().to_json().replace("\"verify\":", "\"v\":");
        assert!(validate_json(&json).is_err());
        // A key missing from the srp section must not be satisfied by the
        // identically-named key in the later minhash section.
        let json = sample_report()
            .to_json()
            .replacen("\"speedup\"", "\"sp\"", 1);
        assert!(validate_json(&json).is_err());
    }

    #[test]
    fn schema_diff_accepts_value_changes_and_rejects_key_changes() {
        let a = sample_report().to_json();
        let mut r = sample_report();
        r.scale = 0.5;
        r.verify.pairs_per_s = 1.0;
        let b = r.to_json();
        diff_schema(&a, &b).expect("value-only changes are not drift");
        let c = a.replace("\"hash_comparisons\"", "\"hash_cmps\"");
        let err = diff_schema(&a, &c).unwrap_err();
        assert!(err.contains("hash_comparisons") && err.contains("hash_cmps"));
        // String *values* (e.g. preset names) are not keys.
        assert!(!schema_keys(&a).contains("RCV1"));
        assert!(schema_keys(&a).contains("end_to_end"));
    }

    #[test]
    fn floor_gate_passes_healthy_runs_and_fails_regressions() {
        let committed = sample_report().to_json();
        // A healthy fresh run (identical numbers) passes with one margin
        // line per gated key.
        let lines = assert_floor(&committed, &committed).expect("identical run passes");
        assert_eq!(lines.len(), FLOOR_KEYS.len());
        // Mild slowdown (within tolerance) still passes.
        let mut r = sample_report();
        r.verify.pairs_per_s = 100.0 * (FLOOR_TOLERANCE + 0.05);
        assert_floor(&committed, &r.to_json()).expect("within-tolerance run passes");
        // A 50% regression on any gated key fails, naming the key.
        let mut r = sample_report();
        r.minhash.kernel.per_s = 15.0;
        let err = assert_floor(&committed, &r.to_json()).unwrap_err();
        assert!(err.contains("minhash") && err.contains("kernel_components_per_s"));
        let mut r = sample_report();
        r.verify_batched.pairs_per_s = 500.0;
        let err = assert_floor(&committed, &r.to_json()).unwrap_err();
        assert!(err.contains("verify_batched"));
        // The SPRT row is gated too.
        let mut r = sample_report();
        r.sprt_verify.pairs_per_s = 50.0;
        let err = assert_floor(&committed, &r.to_json()).unwrap_err();
        assert!(err.contains("sprt_verify"));
        // And the v4 rows: the E2LSH kernel and the multi-probe query path.
        let mut r = sample_report();
        r.e2lsh_hash.kernel.per_s = 10.0;
        let err = assert_floor(&committed, &r.to_json()).unwrap_err();
        assert!(err.contains("e2lsh_hash"));
        let mut r = sample_report();
        r.multiprobe_query.queries_per_s = 100.0;
        let err = assert_floor(&committed, &r.to_json()).unwrap_err();
        assert!(err.contains("multiprobe_query"));
        // A fresh emit missing a gated section is an error, not a pass.
        let truncated = committed.replace("\"verify_batched\":", "\"vb\":");
        assert!(assert_floor(&committed, &truncated).is_err());
    }

    #[test]
    fn microbenches_are_bit_identical_and_positive() {
        // Tiny shapes would distort throughput but the assertions inside
        // the bench (scalar ≡ kernel) are the point here; run the real
        // shapes once — they are sub-second in release, a few seconds in
        // debug.
        let b = srp_bench(7);
        assert!(b.scalar.per_s > 0.0 && b.kernel.per_s > 0.0);
        let b = minhash_bench(7);
        assert!(b.scalar.per_s > 0.0 && b.kernel.per_s > 0.0);
        let b = e2lsh_bench(7);
        assert!(b.scalar.per_s > 0.0 && b.kernel.per_s > 0.0);
    }
}
