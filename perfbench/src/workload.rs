//! The workloads: corpus shape, searcher configuration, how the measuring
//! time splits across phases, and the exact answers outputs are checked
//! against.

use std::time::Duration;

use bayeslsh_core::{
    Composition, GeneratorKind, HashMode, Parallelism, PipelineConfig, VerifierKind,
};
use bayeslsh_datasets::Preset;
use bayeslsh_numeric::derive_seed;
use bayeslsh_sparse::{cosine, Dataset, SparseVector};

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["batch_rcv1", "query_wiki"];

/// Everything that defines one workload. Every workload runs every phase
/// (setup, batch join, point queries, serving), so every end-to-end
/// metric exists on each; what differs is the corpus, the searcher
/// configuration, and which phase gets most of the measuring time.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Corpus shape.
    pub preset: Preset,
    /// Fraction of the preset's paper-sized corpus.
    pub scale: f64,
    /// When corpus signatures are hashed.
    pub mode: HashMode,
    /// Worker threads of the searcher that is set up and joins; point
    /// queries and serving run on a serial searcher.
    pub threads: usize,
    /// Similarity threshold of the join and of threshold queries.
    pub threshold: f64,
    /// Shards behind the scatter-gather router.
    pub shards: usize,
    /// `k` of top-k queries.
    pub top_k: usize,
    /// Shares of the measuring time given to the join, query and serve
    /// phases.
    pub shares: [f64; 3],
    /// Seconds one batch join takes on the reference host (2-core VM).
    /// The join phase runs a fixed number of joins, its share of the
    /// measuring time divided by this, so every run does the same work;
    /// a phase that loops until a deadline would do less work on a slow
    /// run and shift its mix of cold and warm operations.
    pub join_cost_s: f64,
    /// Seconds one threshold + top-k + sharded query triple takes on the
    /// reference host; sizes the query phase the same way.
    pub query_cost_s: f64,
    /// Full set-ups (searcher, shard files, router) per run.
    pub setup_reps: usize,
    /// Fewest batch joins per run.
    pub min_join_reps: usize,
    /// Fewest queries of each kind (threshold, top-k, sharded) per run:
    /// two windows of a thousand, each with ten samples beyond p99.
    pub min_queries: usize,
    /// Fewest serving reads per run.
    pub min_reads: usize,
    /// Fewest writer batches per run: two windows of a hundred, each with
    /// ten samples beyond p90.
    pub min_batches: usize,
    /// Open-loop writer period: one batch is due every interval.
    pub write_interval: Duration,
    /// Inserts per writer batch (each batch also removes one vector).
    pub inserts_per_batch: usize,
    /// One in `holdout_every` generated vectors stays out of the index, to
    /// serve as a query or an insert.
    pub holdout_every: usize,
}

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            preset: Preset::Rcv1,
            scale: 0.005,
            mode: HashMode::Eager,
            threads: 1,
            threshold: 0.7,
            shards: 4,
            top_k: 10,
            shares: [0.2, 0.4, 0.4],
            join_cost_s: 0.2,
            query_cost_s: 0.004,
            setup_reps: 5,
            min_join_reps: 3,
            min_queries: 2000,
            min_reads: 1000,
            min_batches: 200,
            // Staging copies the searcher (5-8 ms here); a 50 ms period
            // keeps the writer's share of a core near a tenth, so reads
            // rarely queue behind it when the host lends the run one core.
            write_interval: Duration::from_millis(50),
            inserts_per_batch: 4,
            holdout_every: 4,
        };
        match name {
            // The paper's headline batch path: lazy hashing, two threads,
            // most of the time in all-pairs joins.
            "batch_rcv1" => Some(Spec {
                name: "batch_rcv1",
                mode: HashMode::Lazy,
                threads: 2,
                scale: 0.006,
                shares: [0.5, 0.2, 0.3],
                join_cost_s: 0.65,
                query_cost_s: 0.006,
                ..base
            }),
            // Long vectors hashed eagerly to 2048 bits: hashing dominates
            // queries and set-up, and the router re-hashes per shard.
            "query_wiki" => Some(Spec {
                name: "query_wiki",
                preset: Preset::WikiWords100K,
                scale: 0.0125,
                shares: [0.1, 0.6, 0.3],
                join_cost_s: 0.02,
                query_cost_s: 0.0075,
                setup_reps: 3,
                ..base
            }),
            _ => None,
        }
    }

    /// The same workload on a corpus a tenth the size with one set-up and
    /// one join, for self-tests. Sample minimums stay, so tail checks
    /// still apply.
    pub fn tiny(self) -> Spec {
        Spec {
            scale: self.scale / 10.0,
            setup_reps: 1,
            min_join_reps: 1,
            write_interval: Duration::from_millis(2),
            ..self
        }
    }

    /// The searcher configuration: cosine at the workload's threshold with
    /// paper defaults, on the workload's thread budget.
    pub fn config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::cosine(self.threshold);
        cfg.parallelism = Parallelism::threads(self.threads as u32);
        cfg
    }

    /// LSH banding candidates, verified by BayesLSH, on every workload.
    pub fn composition(&self) -> Composition {
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes)
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The indexed corpus.
    pub corpus: Dataset,
    /// Held-out query vectors.
    pub queries: Vec<SparseVector>,
    /// Held-out vectors the serving writer inserts.
    pub inserts: Vec<SparseVector>,
}

/// Seed of the corpus generator and of the held-out split, the same for
/// every run. Like a fixed real dataset, the indexed corpus and the
/// held-out vectors stay put; `--seed` orders the queries and inserts and
/// seeds the shard partition. With the corpus or the split drawn afresh
/// per seed, the candidate count, and with it join time and memory, moved
/// by up to a fifth from seed to seed at these scales.
pub const CORPUS_SEED: u64 = 2012;

impl Inputs {
    /// Generate the workload's vector pool and hold out one in
    /// `holdout_every` non-empty vectors, alternately as a query and as an
    /// insert; then order both by `seed`. The held-out ids are drawn by
    /// hashing, not by stride: the generator lays cluster members out
    /// `n_clusters` ids apart, so a stride dividing that period would hold
    /// out whole clusters and leave the queries without neighbours.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let all = spec.preset.load(spec.scale, CORPUS_SEED);
        let mut corpus = Dataset::new(all.dim());
        let (mut queries, mut inserts) = (Vec::new(), Vec::new());
        for (id, v) in all.iter() {
            let held = derive_seed(CORPUS_SEED, u64::from(id)) % spec.holdout_every as u64 == 0;
            if !held || v.is_empty() {
                corpus.push(v.clone());
            } else if queries.len() == inserts.len() {
                queries.push((id, v.clone()));
            } else {
                inserts.push((id, v.clone()));
            }
        }
        let shuffled = |mut held: Vec<(u32, SparseVector)>| {
            held.sort_by_key(|&(id, _)| derive_seed(seed, u64::from(id)));
            held.into_iter().map(|(_, v)| v).collect()
        };
        Inputs {
            corpus,
            queries: shuffled(queries),
            inserts: shuffled(inserts),
        }
    }
}

/// Exact answers, computed before any timed region.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Every corpus pair `(i, j)`, `i < j`, with cosine ≥ t, ascending.
    pub pairs: Vec<(u32, u32)>,
    /// Per query, the ascending corpus ids with cosine ≥ t.
    pub neighbours: Vec<Vec<u32>>,
}

impl Truth {
    /// Exact all-pairs and per-query answers at threshold `t`.
    pub fn compute(inputs: &Inputs, t: f64) -> Truth {
        let data = &inputs.corpus;
        let index = Postings::new(data);
        let mut scratch = Scratch::new(data.len());
        let mut pairs = Vec::new();
        for (i, v) in data.iter() {
            for j in index.matches(data, v, i + 1, t, &mut scratch) {
                pairs.push((i, j));
            }
        }
        let neighbours = inputs
            .queries
            .iter()
            .map(|q| index.matches(data, q, 0, t, &mut scratch))
            .collect();
        Truth { pairs, neighbours }
    }
}

/// Per feature, the `(id, weight)` postings of the corpus in id order.
struct Postings(Vec<Vec<(u32, f32)>>);

/// Dot-product accumulators reused across probes.
struct Scratch {
    acc: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            acc: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::new(),
        }
    }
}

impl Postings {
    fn new(data: &Dataset) -> Self {
        let mut lists = vec![Vec::new(); data.dim() as usize];
        for (id, v) in data.iter() {
            for (f, w) in v.iter() {
                lists[f as usize].push((id, w));
            }
        }
        Postings(lists)
    }

    /// Corpus ids `>= from` whose cosine with `v` is at least `t`,
    /// ascending. Accumulated dot products over the L2-normalized corpus
    /// shortlist the ids; the slack keeps borderline ones for the exact
    /// `cosine` check that decides.
    fn matches(
        &self,
        data: &Dataset,
        v: &SparseVector,
        from: u32,
        t: f64,
        s: &mut Scratch,
    ) -> Vec<u32> {
        for (f, w) in v.iter() {
            let Some(list) = self.0.get(f as usize) else {
                continue;
            };
            let start = list.partition_point(|&(id, _)| id < from);
            for &(id, x) in &list[start..] {
                let id_us = id as usize;
                if !s.seen[id_us] {
                    s.seen[id_us] = true;
                    s.touched.push(id);
                }
                s.acc[id_us] += w as f64 * x as f64;
            }
        }
        let mut out = Vec::new();
        for id in s.touched.drain(..) {
            let id_us = id as usize;
            if s.acc[id_us] >= t - 1e-3 && cosine(v, data.vector(id)) >= t {
                out.push(id);
            }
            s.acc[id_us] = 0.0;
            s.seen[id_us] = false;
        }
        out.sort_unstable();
        out
    }
}

/// Share of the sorted `truth` ids that `found` contains (1 when `truth`
/// is empty), with the counts behind it.
pub fn recall<T: Ord + Copy>(truth: &[T], found: &[T]) -> (usize, usize) {
    let mut found = found.to_vec();
    found.sort_unstable();
    let hits = truth
        .iter()
        .filter(|x| found.binary_search(x).is_ok())
        .count();
    (hits, truth.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_matches_brute_force_on_a_small_corpus() {
        let spec = Spec::named("batch_rcv1").unwrap().tiny();
        let inputs = Inputs::generate(&spec, 3);
        assert!(!inputs.queries.is_empty() && !inputs.inserts.is_empty());
        let truth = Truth::compute(&inputs, spec.threshold);
        let data = &inputs.corpus;
        let mut brute = Vec::new();
        for (i, a) in data.iter() {
            for (j, b) in data.iter().skip(i as usize + 1) {
                if !a.is_empty() && !b.is_empty() && cosine(a, b) >= spec.threshold {
                    brute.push((i, j));
                }
            }
        }
        assert_eq!(truth.pairs, brute);
        assert!(!brute.is_empty(), "the generator plants near duplicates");
    }

    #[test]
    fn recall_counts_hits() {
        assert_eq!(recall(&[1u32, 2, 3], &[3, 1, 9]), (2, 3));
        assert_eq!(recall::<u32>(&[], &[4]), (0, 0));
    }
}
