//! One benchmark run: set up, join, query and serve, each operation timed
//! from outside the program and each answer checked; with tracing on, the
//! setup, join and query operations are also replayed layer by layer (see
//! [`crate::replay`]) and the serving writer's calls are spanned.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bayeslsh_core::{
    EngineStats, KnnParams, Parallelism, QueryOutput, Searcher, SearcherBuilder, ServingSearcher,
    TopKOutput,
};
use bayeslsh_lsh::SignaturePool;
use bayeslsh_shard::{LoadPolicy, PartitionFn, ShardBuilder, ShardedSearcher, MANIFEST_FILE};
use bayeslsh_sparse::{cosine, Dataset, SparseVector};

use crate::replay::{by_similarity, Replica, ShardReplay};
use crate::report::{number, object, quote, result_line, Metric};
use crate::stats::{
    beyond, median, peak_rss_mb, percentile, sorted, us, windowed, windows, MIN_BEYOND,
};
use crate::trace::{layer_of, Tracer};
use crate::workload::{recall, Inputs, Spec, Truth, CORPUS_SEED};

/// Largest share by which the layer self times of a traced run may
/// differ from the untraced wall of the same operations.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.2;

/// The attribution check applies once the replayed operations took this
/// long; shorter runs are dominated by timer and cache noise.
const ATTRIBUTION_MIN_WALL_S: f64 = 1.0;

/// Rounds a run is cut into. Each round runs its share of every phase's
/// operations (joins, queries, serving), so every metric samples the whole
/// run: the shared host has slow and fast stretches several seconds long,
/// and a phase run in one block could sit wholly inside either.
pub const ROUNDS: usize = 10;

/// Operations a phase runs: its share of the measuring time over the
/// reference cost of one operation, and at least `min`.
fn phase_ops(budget_s: f64, cost_s: f64, min: usize) -> usize {
    ((budget_s / cost_s).round() as usize).max(min)
}

/// Round `round`'s share of `total` operations, as a range of indices.
fn share(total: usize, round: usize) -> Range<usize> {
    total * round / ROUNDS..total * (round + 1) / ROUNDS
}

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds, split across phases by [`Spec::shares`].
    pub seconds: f64,
    /// Replay every operation layer by layer and report per-layer metrics.
    pub trace: bool,
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and whole-run checks attempted.
    pub attempted: u64,
    /// Those that failed or answered incorrectly.
    pub failed: u64,
    /// The first failures, described.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation, failed when `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The `end_to_end` metrics.
    pub end_to_end: Vec<Metric>,
    /// The `per_layer` metrics; empty unless tracing was on.
    pub per_layer: Vec<Metric>,
    /// Settings, sizes, sample counts and checks, as one JSON object.
    pub record: String,
}

impl Outcome {
    /// Failed operations per attempted one.
    pub fn error_rate(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The result line: the per-layer metrics of a traced run, the
    /// end-to-end ones otherwise.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        result_line(
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics,
        )
    }
}

/// Run `spec` once.
///
/// # Errors
///
/// A description when the workload cannot be set up at all (a build or a
/// shard write failed); failures of individual operations are counted in
/// the outcome instead.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let inputs = Inputs::generate(spec, opts.seed);
    if inputs.queries.is_empty() || inputs.inserts.is_empty() {
        return Err(format!("{}: no held-out vectors at this scale", spec.name));
    }
    let truth = Truth::compute(&inputs, spec.threshold);
    let work = WorkDir::create(spec.name)?;
    let mut bench = Bench {
        spec,
        opts: *opts,
        inputs,
        truth,
        tally: Tally::default(),
        tracer: Tracer::default(),
        replayed_wall: BTreeMap::new(),
        setup_s: Vec::new(),
        join: JoinLog::default(),
        query: QueryLog::default(),
    };
    let (built, sharded, join_replica) = bench.setup(&work.0)?;
    // Joins run on the searcher as built, at the workload's thread count.
    // Point queries and serving run on a serial searcher over the same
    // corpus, as a server answering one query per core does: a
    // multi-threaded searcher spawns workers on every query, and on a
    // two-core host the tail latency of that fan-out did not repeat from
    // run to run. Neither searcher's lazy deepening reaches the other.
    let searcher = builder(spec)
        .parallelism(Parallelism::serial())
        .build(bench.inputs.corpus.clone())
        .map_err(|e| format!("serial searcher build: {e}"))?;
    let mut replica = opts.trace.then(|| {
        Replica::build(
            &mut Tracer::default(),
            bench.inputs.corpus.clone(),
            &searcher,
        )
    });
    let mut router = bench.warm_queries(&searcher, &sharded, replica.as_mut());
    let serving = ServingSearcher::new(searcher.clone());
    let initial_len = searcher.len();
    let seconds = opts.seconds;
    let joins = phase_ops(
        seconds * spec.shares[0],
        spec.join_cost_s,
        spec.min_join_reps,
    );
    let queries = phase_ops(
        seconds * spec.shares[1],
        spec.query_cost_s,
        spec.min_queries,
    );
    let mut serve = ServeLog {
        batches: ((seconds * spec.shares[2] / spec.write_interval.as_secs_f64()) as usize)
            .max(spec.min_batches)
            .min(initial_len),
        ..ServeLog::default()
    };
    for round in 0..ROUNDS {
        bench.join(&built, join_replica.as_ref(), share(joins, round));
        bench.queries(
            &searcher,
            &sharded,
            replica.as_mut(),
            router.as_mut(),
            share(queries, round),
        );
        bench.serve(&serving, share(serve.batches, round), &mut serve);
    }
    bench.check_final_epoch(&serving, &serve, initial_len);
    Ok(bench.finish(serve))
}

/// Scratch space for shard files, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".perfbench-work";

    fn create(name: &str) -> Result<WorkDir, String> {
        let path = Path::new(Self::ROOT).join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run still uses the root.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

#[derive(Debug, Default)]
struct JoinLog {
    /// The first join's pairs, which every later join must repeat.
    first: Option<Vec<(u32, u32, f64)>>,
    wall_s: Vec<f64>,
    candidates: u64,
    pairs: usize,
    recall: (usize, usize),
    engine: Option<EngineStats>,
    lazy_hashes: u64,
    /// One serial enumeration of the join's candidates, seconds (traced
    /// runs only), beside the searcher's own thread count.
    serial_enumerate_s: f64,
}

#[derive(Debug, Default)]
struct QueryLog {
    single_us: Vec<f64>,
    topk_us: Vec<f64>,
    sharded_us: Vec<f64>,
    recall: (usize, usize),
    candidates: u64,
    pruned: u64,
    topk_exact: u64,
    /// Query signature bits the replayed threshold queries hashed.
    hash_bits: u64,
    /// Query signature bits the replayed router's shards hashed.
    shard_hash_bits: u64,
}

#[derive(Debug, Default)]
struct ServeLog {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    lag_us: Vec<f64>,
    epochs: BTreeSet<u64>,
    /// Writer batches the run publishes, over all rounds.
    batches: usize,
    /// Held-out vectors inserted so far; the next insert takes the next.
    inserted: u64,
    removed: u64,
    reclaimed: usize,
    writer: Tracer,
}

struct Bench<'a> {
    spec: &'a Spec,
    opts: Options,
    inputs: Inputs,
    truth: Truth,
    tally: Tally,
    tracer: Tracer,
    /// Untraced wall, seconds, of the operations the tracer replayed, by
    /// the replay's root span name.
    replayed_wall: BTreeMap<&'static str, f64>,
    setup_s: Vec<f64>,
    join: JoinLog,
    query: QueryLog,
}

fn builder(spec: &Spec) -> SearcherBuilder {
    Searcher::builder(spec.config())
        .composition(spec.composition())
        .hash_mode(spec.mode)
}

/// Partition `corpus`, build every shard and write the shard set to `dir`.
fn write_shards(spec: &Spec, seed: u64, corpus: &Dataset, dir: &Path) -> Result<(), String> {
    ShardBuilder::new(spec.config())
        .composition(spec.composition())
        .hash_mode(spec.mode)
        .shards(spec.shards)
        .partition(PartitionFn::Hashed { seed })
        .build_to_dir(corpus, dir)
        .map(drop)
        .map_err(|e| format!("shard build: {e}"))
}

/// Open the shard set at `dir`; the router queries its shards one after
/// another, each shard searcher serial.
fn open_shards(dir: &Path) -> Result<ShardedSearcher, String> {
    ShardedSearcher::open_with(
        &dir.join(MANIFEST_FILE),
        Parallelism::serial(),
        LoadPolicy::Eager,
    )
    .map_err(|e| format!("shard open: {e}"))
}

impl Bench<'_> {
    /// Set up `setup_reps` times: build the searcher, write the shard set,
    /// open the router. With tracing, replay as many set-ups.
    fn setup(
        &mut self,
        work: &Path,
    ) -> Result<(Searcher, ShardedSearcher, Option<Replica>), String> {
        let (spec, seed) = (self.spec, self.opts.seed);
        let mut built = None;
        for rep in 0..spec.setup_reps {
            let corpus = self.inputs.corpus.clone();
            let dir = work.join(format!("setup{rep}"));
            let start = Instant::now();
            let searcher = builder(spec)
                .build(corpus)
                .map_err(|e| format!("searcher build: {e}"))?;
            write_shards(spec, seed, &self.inputs.corpus, &dir)?;
            let sharded = open_shards(&dir)?;
            self.setup_s.push(start.elapsed().as_secs_f64());
            self.tally.record(Ok(()));
            // The router loaded every shard eagerly; the files are done.
            let _ = std::fs::remove_dir_all(&dir);
            built = Some((searcher, sharded));
        }
        let (searcher, sharded) = built.ok_or("a workload needs at least one set-up")?;
        if !self.opts.trace {
            return Ok((searcher, sharded, None));
        }
        let mut replica = None;
        for rep in 0..spec.setup_reps {
            let corpus = self.inputs.corpus.clone();
            let dir = work.join(format!("trace{rep}"));
            let inputs = &self.inputs;
            let replayed = self.tracer.span("setup", |tr| -> Result<Replica, String> {
                let r = Replica::build(tr, corpus, &searcher);
                tr.span("shard.build", |_| {
                    write_shards(spec, seed, &inputs.corpus, &dir)
                })?;
                tr.span("shard.open", |_| open_shards(&dir))?;
                Ok(r)
            })?;
            let _ = std::fs::remove_dir_all(&dir);
            replica = Some(replayed);
        }
        *self.replayed_wall.entry("setup").or_default() += self.setup_s.iter().sum::<f64>();
        let replica = replica.ok_or("a workload needs at least one set-up")?;
        self.tally
            .record(if replica.hash_count() == searcher.hash_count() {
                Ok(())
            } else {
                Err(format!(
                    "replayed build hashed {} times, the program {}",
                    replica.hash_count(),
                    searcher.hash_count()
                ))
            });
        Ok((searcher, sharded, Some(replica)))
    }

    /// Batch joins `reps`, each on a fresh copy of the built searcher
    /// (lazy hashing deepens signatures, so a reused searcher would get
    /// faster); with tracing, each replayed on a fresh copy of the
    /// replica's signature pool.
    fn join(&mut self, searcher: &Searcher, replica: Option<&Replica>, reps: Range<usize>) {
        for _ in reps {
            let fresh = searcher.clone();
            let start = Instant::now();
            let out = fresh.all_pairs();
            let wall = start.elapsed().as_secs_f64();
            drop(fresh);
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    self.tally.record(Err(format!("all_pairs: {e}")));
                    continue;
                }
            };
            self.join.wall_s.push(wall);
            self.tally.record(match &self.join.first {
                Some(pairs) => same_pairs(pairs, &out.pairs, "repeated join"),
                None => Ok(()),
            });
            if let Some(replica) = replica {
                let mut pool = replica.pool.clone();
                let before = pool.total_hashes();
                let (pairs, candidates, _) = self
                    .tracer
                    .span("join", |tr| replica.all_pairs(tr, &mut pool));
                *self.replayed_wall.entry("join").or_default() += wall;
                self.join.lazy_hashes = pool.total_hashes() - before;
                self.tally.record(
                    same_pairs(&out.pairs, &pairs, "replayed join").and_then(|()| {
                        if candidates == out.candidates {
                            Ok(())
                        } else {
                            Err(format!(
                                "replayed join enumerated {candidates} candidates, the program {}",
                                out.candidates
                            ))
                        }
                    }),
                );
            }
            if self.join.first.is_none() {
                if let Some(replica) = replica {
                    let start = Instant::now();
                    let serial = replica.index.par_all_pairs(1);
                    self.join.serial_enumerate_s = start.elapsed().as_secs_f64();
                    self.tally.record(if serial.len() as u64 == out.candidates {
                        Ok(())
                    } else {
                        Err(format!(
                            "serial enumeration found {} candidates, the program {}",
                            serial.len(),
                            out.candidates
                        ))
                    });
                }
                let found: Vec<(u32, u32)> = out.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
                self.join.recall = recall(&self.truth.pairs, &found);
                self.join.candidates = out.candidates;
                self.join.pairs = out.pairs.len();
                self.join.engine = out.engine;
                self.join.first = Some(out.pairs);
            }
        }
    }

    /// One untimed pass over the held-out queries, on the program and on
    /// the replay: a lazy searcher deepens candidate signatures on a
    /// query's first visit, a one-time cost per corpus that would
    /// otherwise land in the measured tail in proportion to how often a
    /// run revisits each query. With tracing, returns the router's replay.
    fn warm_queries(
        &mut self,
        searcher: &Searcher,
        sharded: &ShardedSearcher,
        mut replica: Option<&mut Replica>,
    ) -> Option<ShardReplay> {
        let t = self.spec.threshold;
        let mut router = match replica {
            Some(_) => match ShardReplay::new(sharded) {
                Ok(router) => Some(router),
                Err(e) => {
                    self.tally.record(Err(e));
                    None
                }
            },
            None => None,
        };
        let mut untimed = Tracer::default();
        for q in &self.inputs.queries {
            let _ = searcher.query(q, t);
            let _ = sharded.query(q, t);
            if let Some(r) = replica.as_deref_mut() {
                r.query(&mut untimed, q, t);
            }
            if let Some(router) = router.as_mut() {
                let _ = router.query(&mut untimed, sharded, q, t);
            }
        }
        router
    }

    /// One closed-loop client sends queries `ops` (indices into the
    /// held-out queries, cycled): per query a threshold query, a top-k
    /// query and a threshold query through the shard router, each sent
    /// when the previous one returned.
    fn queries(
        &mut self,
        searcher: &Searcher,
        sharded: &ShardedSearcher,
        mut replica: Option<&mut Replica>,
        mut router: Option<&mut ShardReplay>,
        ops: Range<usize>,
    ) {
        let (spec, t) = (self.spec, self.spec.threshold);
        let params = KnnParams::default();
        let n_queries = self.inputs.queries.len();
        for i in ops {
            let q = &self.inputs.queries[i % n_queries];
            let start = Instant::now();
            let single = searcher.query(q, t);
            let single_wall = start.elapsed();
            let start = Instant::now();
            let topk = searcher.top_k(q, spec.top_k, &params);
            let topk_wall = start.elapsed();
            let start = Instant::now();
            let scattered = sharded.query(q, t);
            let sharded_wall = start.elapsed();
            self.query.single_us.push(us(single_wall));
            self.query.topk_us.push(us(topk_wall));
            self.query.sharded_us.push(us(sharded_wall));

            let single = single.map_err(|e| format!("query: {e}"));
            let topk = topk.map_err(|e| format!("top_k: {e}"));
            let scattered = scattered.map_err(|e| format!("sharded query: {e}"));
            self.tally.record(
                single
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|o| well_formed(&o.neighbors, searcher)),
            );
            self.tally.record(
                topk.as_ref()
                    .map_err(Clone::clone)
                    .and_then(|o| check_topk(q, o, spec.top_k, searcher)),
            );
            self.tally.record(match (&single, &scattered) {
                (Ok(one), Ok(many)) => matches_single(one, many, spec.shards),
                (_, Err(e)) => Err(e.clone()),
                (Err(_), Ok(_)) => Err("the router answered where the single index failed".into()),
            });
            if let Ok(o) = &single {
                if i < n_queries {
                    let found: Vec<u32> = o.neighbors.iter().map(|&(id, _)| id).collect();
                    let (hits, total) = recall(&self.truth.neighbours[i], &found);
                    self.query.recall.0 += hits;
                    self.query.recall.1 += total;
                }
                self.query.candidates += o.stats.candidates;
                self.query.pruned += o.stats.pruned;
            }
            if let Ok(o) = &topk {
                self.query.topk_exact += o.stats.exact;
            }

            if let (Some(r), Some(router)) = (replica.as_deref_mut(), router.as_deref_mut()) {
                let bits = r.query_bits;
                let out = self.tracer.span("query", |tr| r.query(tr, q, t));
                self.query.hash_bits += r.query_bits - bits;
                self.tally.record(match &single {
                    Ok(o) => same_query(o, &out, "replayed query"),
                    Err(_) => Ok(()),
                });
                let out = self
                    .tracer
                    .span("topk", |tr| r.top_k(tr, q, spec.top_k, &params));
                self.tally.record(match &topk {
                    Ok(o) => same_topk(o, &out),
                    Err(_) => Ok(()),
                });
                let bits = router.query_bits();
                let out = self
                    .tracer
                    .span("sharded", |tr| router.query(tr, sharded, q, t));
                self.query.shard_hash_bits += router.query_bits() - bits;
                self.tally.record(match (&scattered, out) {
                    (Ok(o), Ok(r)) => same_query(o, &r, "replayed scatter-gather"),
                    (_, Err(e)) => Err(e),
                    (Err(_), Ok(_)) => Ok(()),
                });
                for (root, wall) in [
                    ("query", single_wall),
                    ("topk", topk_wall),
                    ("sharded", sharded_wall),
                ] {
                    *self.replayed_wall.entry(root).or_default() += wall.as_secs_f64();
                }
            }
        }
    }

    /// Serving writer batches `batches`: one closed-loop reader thread
    /// sends threshold queries while this thread writes on an open-loop
    /// schedule — every interval a batch of inserts plus one remove,
    /// published as an epoch, with one compaction halfway through the run.
    /// Write latency runs from each batch's due time.
    fn serve(&mut self, serving: &ServingSearcher, batches: Range<usize>, log: &mut ServeLog) {
        let spec = self.spec;
        let compact_at = log.batches / 2;
        let min_reads = spec.min_reads.div_ceil(ROUNDS);
        let done = AtomicBool::new(false);
        let trace = self.opts.trace;
        let (queries, inserts) = (&self.inputs.queries, &self.inputs.inserts);
        let first_read = log.read_us.len();
        let mut writes = Tally::default();
        let reader = std::thread::scope(|scope| {
            let reader =
                scope.spawn(|| read_loop(serving, queries, first_read, min_reads, spec, &done));
            let start = Instant::now();
            let first = batches.start;
            for batch in batches {
                let due = start + spec.write_interval * (batch - first) as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                log.lag_us
                    .push(us(Instant::now().saturating_duration_since(due)));
                let mut write = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
                    if trace {
                        log.writer.span(name, |_| f())
                    } else {
                        f()
                    }
                };
                let mut result = Ok(());
                let (mut inserted, mut removed, mut reclaimed) = (0, 0, 0);
                for j in 0..spec.inserts_per_batch {
                    let v = &inserts[(log.inserted + inserted) as usize % inserts.len()];
                    // The first write after a publish stages a copy of the
                    // live searcher; it is timed as its own span.
                    let name = if j == 0 {
                        "serving.stage"
                    } else {
                        "serving.insert"
                    };
                    let r = write(name, &mut || {
                        serving
                            .insert(v.clone())
                            .map(drop)
                            .map_err(|e| format!("insert: {e}"))
                    });
                    inserted += u64::from(r.is_ok());
                    result = result.and(r);
                }
                let r = write(
                    "serving.remove",
                    &mut || match serving.remove(batch as u32) {
                        Ok(true) => Ok(()),
                        Ok(false) => Err(format!("remove {batch}: already removed")),
                        Err(e) => Err(format!("remove {batch}: {e}")),
                    },
                );
                removed += u64::from(r.is_ok());
                result = result.and(r);
                if batch == compact_at {
                    write("serving.compact", &mut || {
                        reclaimed += serving.compact();
                        Ok(())
                    })
                    .ok();
                }
                write("serving.publish", &mut || {
                    serving.publish();
                    Ok(())
                })
                .ok();
                log.write_us.push(us(due.elapsed()));
                log.inserted += inserted;
                log.removed += removed;
                log.reclaimed += reclaimed;
                writes.record(result);
            }
            done.store(true, Ordering::SeqCst);
            reader.join()
        });
        match reader {
            Ok(read) => {
                log.read_us.extend(read.us);
                log.epochs.extend(read.epochs);
                self.tally.attempted += read.tally.attempted;
                self.tally.failed += read.tally.failed;
                self.tally.problems.extend(read.tally.problems);
            }
            Err(_) => self.tally.record(Err("reader thread panicked".into())),
        }
        self.tally.attempted += writes.attempted;
        self.tally.failed += writes.failed;
        self.tally.problems.extend(writes.problems);
    }

    /// The final epoch must be exactly the write schedule applied.
    fn check_final_epoch(&mut self, serving: &ServingSearcher, log: &ServeLog, initial_len: usize) {
        let last = serving.epoch();
        let want_applied = log.inserted + log.removed + u64::from(log.reclaimed > 0);
        let expect = [
            ("epoch ordinal", last.ordinal(), log.batches as u64),
            ("writes applied", last.applied(), want_applied),
            (
                "corpus size",
                last.searcher().len() as u64,
                (initial_len as u64) + log.inserted,
            ),
            (
                "vectors reclaimed",
                log.reclaimed as u64,
                log.batches as u64 / 2 + 1,
            ),
            (
                "pending removals",
                last.searcher().pending_removals() as u64,
                log.removed - log.reclaimed as u64,
            ),
            ("unpublished writes", serving.pending_writes(), 0),
        ];
        for (what, got, want) in expect {
            self.tally.record(if got == want {
                Ok(())
            } else {
                Err(format!("final epoch: {what} {got}, expected {want}"))
            });
        }
    }

    fn finish(mut self, serve: ServeLog) -> Outcome {
        let spec = self.spec;
        let tally = &mut self.tally;
        let mut e2e = Vec::new();
        let mut push = |name, unit, value: Option<f64>, samples| {
            e2e.push(Metric {
                name,
                unit,
                value: value.unwrap_or(f64::NAN),
                samples,
            })
        };
        push("setup_s", "s", median(&self.setup_s), self.setup_s.len());
        push("peak_rss_mb", "MB", peak_rss_mb(), 1);
        push(
            "join_s",
            "s",
            median(&self.join.wall_s),
            self.join.wall_s.len(),
        );
        let share = |(hits, total): (usize, usize)| {
            Some(if total == 0 {
                1.0
            } else {
                hits as f64 / total as f64
            })
        };
        push(
            "recall",
            "ratio",
            share(self.join.recall),
            self.join.recall.1,
        );
        push(
            "query_recall",
            "ratio",
            share(self.query.recall),
            self.query.recall.1,
        );
        // A latency percentile is the median of that percentile over time
        // windows (see `windowed`); the record lists the windows.
        let mut window_counts = Vec::new();
        let mut tail = |name, sample: &[f64], p| {
            if p > 50 && beyond(sample.len(), p) < MIN_BEYOND {
                tally.record(Err(format!(
                    "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{p}",
                    sample.len()
                )));
            }
            window_counts.push((name, windows(sample.len(), p).to_string()));
            e2e.push(Metric {
                name,
                unit: "us",
                value: windowed(sample, p).unwrap_or(f64::NAN),
                samples: sample.len(),
            });
        };
        tail("query_p50_us", &self.query.single_us, 50);
        tail("query_p99_us", &self.query.single_us, 99);
        tail("topk_p50_us", &self.query.topk_us, 50);
        tail("topk_p99_us", &self.query.topk_us, 99);
        tail("sharded_query_p50_us", &self.query.sharded_us, 50);
        tail("sharded_query_p99_us", &self.query.sharded_us, 99);
        tail("read_p50_us", &serve.read_us, 50);
        tail("read_p99_us", &serve.read_us, 99);
        tail("write_p50_us", &serve.write_us, 50);
        tail("write_p90_us", &serve.write_us, 90);
        for m in &e2e {
            if !m.value.is_finite() {
                tally.record(Err(format!("{} was not measured", m.name)));
            }
        }

        let (per_layer, attribution) = if self.opts.trace {
            self.per_layer(&serve)
        } else {
            (Vec::new(), object(&[]))
        };

        let metrics: Vec<(&str, String)> = e2e
            .iter()
            .chain(&per_layer)
            .map(|m| {
                (
                    m.name,
                    object(&[
                        ("value", number(m.value)),
                        ("unit", quote(m.unit)),
                        ("samples", m.samples.to_string()),
                    ]),
                )
            })
            .collect();
        let stats = self.inputs.corpus.stats();
        let problems: Vec<String> = self.tally.problems.iter().map(|p| quote(p)).collect();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let record = object(&[
            ("record", quote("perfbench-v1")),
            ("workload", quote(spec.name)),
            ("seed", self.opts.seed.to_string()),
            ("seconds", number(self.opts.seconds)),
            ("trace", u8::from(self.opts.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("threads", spec.threads.to_string()),
            ("query_threads", "1".to_string()),
            ("preset", quote(spec.preset.name())),
            ("scale", number(spec.scale)),
            ("corpus_seed", CORPUS_SEED.to_string()),
            ("verifier", quote(spec.composition().verifier.name())),
            ("hash_mode", quote(&format!("{:?}", spec.mode))),
            ("corpus_vectors", self.inputs.corpus.len().to_string()),
            ("dim", self.inputs.corpus.dim().to_string()),
            ("avg_len", number(stats.avg_len)),
            ("held_out_queries", self.inputs.queries.len().to_string()),
            ("held_out_inserts", self.inputs.inserts.len().to_string()),
            ("truth_pairs", self.truth.pairs.len().to_string()),
            ("write_batches", serve.batches.to_string()),
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            (
                "error_rate",
                number(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            ("problems", format!("[{}]", problems.join(", "))),
            ("attribution_tolerance", number(ATTRIBUTION_TOLERANCE)),
            ("percentile_windows", object(&window_counts)),
            ("attribution", attribution),
            ("metrics", object(&metrics)),
        ]);
        Outcome {
            tally: self.tally,
            end_to_end: e2e,
            per_layer,
            record,
        }
    }

    /// The per-layer metrics of a traced run, the attribution check, and
    /// per replayed operation its untraced wall and each layer's self time
    /// (seconds, summed over the run) as a JSON object.
    fn per_layer(&mut self, serve: &ServeLog) -> (Vec<Metric>, String) {
        let tr = &self.tracer;
        let all = tr.summary(None);
        let get = |map: &std::collections::BTreeMap<&str, crate::trace::SpanStats>, name: &str| {
            map.get(name).copied().unwrap_or_default()
        };
        let mut out = Vec::new();
        let mut push = |name, unit, value: f64, samples: u64| {
            out.push(Metric {
                name,
                unit,
                value,
                samples: samples as usize,
            })
        };
        let per = |total: f64, n: u64| total / n.max(1) as f64;

        let setups = get(&all, "setup").calls;
        push(
            "lsh.build_hash_s",
            "s",
            per(get(&all, "lsh.build_hash").self_s, setups),
            setups,
        );
        push(
            "candgen.index_build_s",
            "s",
            per(get(&all, "candgen.index_build").self_s, setups),
            setups,
        );
        push(
            "shard.build_s",
            "s",
            per(get(&all, "shard.build").self_s, setups),
            setups,
        );
        push(
            "shard.open_s",
            "s",
            per(get(&all, "shard.open").self_s, setups),
            setups,
        );

        let joins = get(&all, "join").calls;
        let join = tr.summary(Some("join"));
        push(
            "candgen.enumerate_s",
            "s",
            per(get(&join, "candgen.enumerate").self_s, joins),
            joins,
        );
        push(
            "candgen.enumerate_serial_s",
            "s",
            self.join.serial_enumerate_s,
            1,
        );
        push(
            "verify.batch_s",
            "s",
            per(get(&join, "verify.batch").self_s, joins),
            joins,
        );
        // Lazy deepening runs in parallel joins and in top-k scans (and
        // inside serial scans, where it is verify time); this is its self
        // time over the whole traced run. The record's attribution splits
        // it by operation.
        let lazy = get(&all, "lsh.lazy_hash");
        push("lsh.lazy_hash_s", "s", lazy.self_s, lazy.calls);
        push(
            "lsh.lazy_hashes",
            "count",
            self.join.lazy_hashes as f64,
            joins,
        );
        push(
            "candgen.candidates",
            "count",
            self.join.candidates as f64,
            1,
        );
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        push(
            "candgen.useful_ratio",
            "ratio",
            ratio(self.join.pairs as f64, self.join.candidates as f64),
            1,
        );
        let engine = self.join.engine.clone().unwrap_or_default();
        push(
            "verify.pruned_frac",
            "ratio",
            ratio(engine.pruned as f64, engine.input_pairs as f64),
            engine.input_pairs,
        );
        push(
            "verify.pruned_first_chunk_frac",
            "ratio",
            ratio(
                engine.pruned_at_chunk.first().copied().unwrap_or(0) as f64,
                engine.pruned as f64,
            ),
            engine.pruned,
        );
        push(
            "verify.hashes_per_accepted_pair",
            "count",
            engine.hashes_per_accepted_pair(),
            engine.accepted,
        );
        push(
            "verify.cache_hit_rate",
            "ratio",
            ratio(
                engine.cache_hits as f64,
                (engine.cache_hits + engine.cache_misses) as f64,
            ),
            engine.cache_hits + engine.cache_misses,
        );
        push(
            "verify.forced_accepts",
            "count",
            engine.forced_accepts as f64,
            1,
        );

        // The scans' self times are the program's own untraced wall minus
        // the replayed hashing and probing of the same queries, so they
        // move with the program's scan; the replayed scans serve the
        // equality checks and the attribution sum.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let q = tr.summary(Some("query"));
        let nq = get(&all, "query").calls;
        let query_hash_us = per(get(&q, "lsh.query_hash").self_s * 1e6, nq);
        let query_probe_us = per(get(&q, "candgen.probe").self_s * 1e6, nq);
        push("lsh.query_hash_us", "us", query_hash_us, nq);
        push(
            "lsh.query_hash_bits",
            "bits",
            per(self.query.hash_bits as f64, nq),
            nq,
        );
        push("candgen.probe_us", "us", query_probe_us, nq);
        let queries = self.query.single_us.len() as u64;
        push(
            "candgen.candidates_per_query",
            "count",
            per(self.query.candidates as f64, queries),
            queries,
        );
        push(
            "verify.query_us",
            "us",
            mean(&self.query.single_us) - query_hash_us - query_probe_us,
            queries,
        );
        push(
            "verify.query_pruned_frac",
            "ratio",
            ratio(self.query.pruned as f64, self.query.candidates as f64),
            self.query.candidates,
        );

        let k = tr.summary(Some("topk"));
        let nk = get(&all, "topk").calls;
        let topk_front_us = per(
            (get(&k, "lsh.query_hash").self_s + get(&k, "candgen.probe").self_s) * 1e6,
            nk,
        );
        push(
            "verify.topk_scan_us",
            "us",
            mean(&self.query.topk_us) - topk_front_us,
            queries,
        );
        push(
            "verify.topk_exact_per_query",
            "count",
            per(self.query.topk_exact as f64, queries),
            queries,
        );

        let s = tr.summary(Some("sharded"));
        let ns = get(&all, "sharded").calls;
        push(
            "shard.fanout_us",
            "us",
            per(get(&s, "shard.fanout").self_s * 1e6, ns),
            ns,
        );
        push(
            "shard.merge_us",
            "us",
            per(get(&s, "shard.merge").self_s * 1e6, ns),
            ns,
        );
        // Every shard hashes the query again; counted from the calls.
        push(
            "shard.query_hash_bits",
            "bits",
            per(self.query.shard_hash_bits as f64, ns),
            ns,
        );

        let w = serve.writer.summary(None);
        let mean_us = |name: &str| {
            let st = get(&w, name);
            (per(st.total_s * 1e6, st.calls), st.calls)
        };
        let (stage, n_stage) = mean_us("serving.stage");
        push("serving.stage_us", "us", stage, n_stage);
        let (insert, n_insert) = mean_us("serving.insert");
        push("serving.insert_us", "us", insert, n_insert);
        let (publish, n_publish) = mean_us("serving.publish");
        push("serving.publish_us", "us", publish, n_publish);
        let compact = get(&w, "serving.compact");
        push(
            "serving.compact_s",
            "s",
            per(compact.total_s, compact.calls),
            compact.calls,
        );
        let lag = sorted(&serve.lag_us);
        push(
            "serving.writer_lag_us",
            "us",
            percentile(&lag, 90).unwrap_or(0.0),
            lag.len() as u64,
        );
        push(
            "serving.epochs_observed",
            "count",
            serve.epochs.len() as f64,
            serve.read_us.len() as u64,
        );

        let untraced: f64 = self.replayed_wall.values().sum();
        let traced = tr.root_wall();
        let layers = tr.layer_self();
        let error = ratio(layers, untraced) - 1.0;
        push("trace.overhead_s", "s", traced - untraced, 1);
        push(
            "trace.unattributed_frac",
            "ratio",
            1.0 - ratio(layers, traced),
            1,
        );
        push("trace.attribution_error", "ratio", error, 1);
        if untraced >= ATTRIBUTION_MIN_WALL_S {
            self.tally.record(if error.abs() <= ATTRIBUTION_TOLERANCE {
                Ok(())
            } else {
                Err(format!(
                    "layer self times sum to {layers:.3} s against an untraced wall of {untraced:.3} s"
                ))
            });
        }
        let attribution: Vec<(&str, String)> = self
            .replayed_wall
            .iter()
            .map(|(&root, &wall)| {
                let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
                for (name, st) in tr.summary(Some(root)) {
                    if let Some(layer) = layer_of(name) {
                        *by_layer.entry(layer).or_default() += st.self_s;
                    }
                }
                let mut fields = vec![
                    ("calls", get(&all, root).calls.to_string()),
                    ("untraced_s", number(wall)),
                ];
                fields.extend(by_layer.into_iter().map(|(l, v)| (l, number(v))));
                (root, object(&fields))
            })
            .collect();
        (out, object(&attribution))
    }
}

/// What the reader thread saw.
#[derive(Debug, Default)]
struct ReadLog {
    us: Vec<f64>,
    epochs: BTreeSet<u64>,
    tally: Tally,
}

/// Threshold queries through the live epoch, from query `first` on
/// (cycled), until the writer is done and at least `min_reads` were sent.
fn read_loop(
    serving: &ServingSearcher,
    queries: &[SparseVector],
    first: usize,
    min_reads: usize,
    spec: &Spec,
    done: &AtomicBool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut i = first;
    while !done.load(Ordering::SeqCst) || log.us.len() < min_reads {
        let q = &queries[i % queries.len()];
        i += 1;
        let start = Instant::now();
        let epoch = serving.epoch();
        let out = epoch.searcher().query(q, spec.threshold);
        log.us.push(us(start.elapsed()));
        log.epochs.insert(epoch.ordinal());
        log.tally.record(
            out.map_err(|e| format!("serving read: {e}"))
                .and_then(|o| well_formed(&o.neighbors, epoch.searcher())),
        );
    }
    log
}

/// A threshold answer is well formed when it is sorted by decreasing
/// similarity (ties by id), names each live corpus id at most once and
/// carries finite similarities.
fn well_formed(neighbors: &[(u32, f64)], searcher: &Searcher) -> Result<(), String> {
    if neighbors
        .windows(2)
        .any(|w| by_similarity(&w[0], &w[1]) != std::cmp::Ordering::Less)
    {
        return Err("answer not sorted by similarity".into());
    }
    match neighbors.iter().find(|&&(id, s)| {
        id as usize >= searcher.len() || searcher.is_removed(id) || !s.is_finite()
    }) {
        Some((id, s)) => Err(format!("answer names id {id} with similarity {s}")),
        None => Ok(()),
    }
}

/// A top-k answer holds at most `k` well-formed neighbours, each with its
/// exact cosine similarity.
fn check_topk(
    q: &SparseVector,
    out: &TopKOutput,
    k: usize,
    searcher: &Searcher,
) -> Result<(), String> {
    if out.neighbors.len() > k {
        return Err(format!("top-{k} answer holds {}", out.neighbors.len()));
    }
    well_formed(&out.neighbors, searcher)?;
    match out
        .neighbors
        .iter()
        .find(|&&(id, s)| cosine(q, searcher.data().vector(id)).to_bits() != s.to_bits())
    {
        Some((id, s)) => Err(format!("top-k similarity {s} of id {id} is not exact")),
        None => Ok(()),
    }
}

fn same_neighbours(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.0, x.1.to_bits()) == (y.0, y.1.to_bits()))
}

fn same_pairs(a: &[(u32, u32, f64)], b: &[(u32, u32, f64)], what: &str) -> Result<(), String> {
    let same = a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.0, x.1, x.2.to_bits()) == (y.0, y.1, y.2.to_bits()));
    if same {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} pairs differ from the first {}",
            b.len(),
            a.len()
        ))
    }
}

fn same_query(a: &QueryOutput, b: &QueryOutput, what: &str) -> Result<(), String> {
    if same_neighbours(&a.neighbors, &b.neighbors) && a.stats == b.stats {
        Ok(())
    } else {
        Err(format!("{what} differs: {:?} vs {:?}", b.stats, a.stats))
    }
}

fn same_topk(a: &TopKOutput, b: &TopKOutput) -> Result<(), String> {
    if same_neighbours(&a.neighbors, &b.neighbors) && a.stats == b.stats {
        Ok(())
    } else {
        Err(format!(
            "replayed top-k differs: {:?} vs {:?}",
            b.stats, a.stats
        ))
    }
}

/// The router's answer must equal the single index's bit for bit; only
/// the bucket-probe count scales, since every shard probes its own index.
fn matches_single(
    single: &QueryOutput,
    sharded: &QueryOutput,
    shards: usize,
) -> Result<(), String> {
    let mut want = single.stats;
    want.bucket_probes *= shards as u64;
    if same_neighbours(&single.neighbors, &sharded.neighbors) && want == sharded.stats {
        Ok(())
    } else {
        Err(format!(
            "sharded answer differs from the single index: {:?} vs {:?}",
            sharded.stats, want
        ))
    }
}
