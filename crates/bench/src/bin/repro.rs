//! Regenerate the BayesLSH paper's tables and figures on scaled synthetic
//! datasets.
//!
//! ```text
//! repro <experiment> [--scale S] [--seed N]
//!
//! experiments:
//!   fig1     hashes needed vs similarity (classical estimation)
//!   fig2     runtime vs gamma/delta/epsilon (LSH+BayesLSH)
//!   fig3     timing sweeps: all algorithms x datasets x thresholds
//!   fig4     candidates remaining vs hashes examined
//!   fig5     prior-vs-data posterior convergence
//!   table1   dataset statistics
//!   table2   fastest BayesLSH variant + speedups (runs the fig3 sweeps)
//!   table3   recall of AP+BayesLSH / AP+BayesLSH-Lite
//!   table4   estimate errors: LSH Approx vs LSH+BayesLSH
//!   table5   output quality vs gamma/delta/epsilon
//!   parallel all-pairs speedup vs worker threads (1/2/4/8)
//!   bench-baseline  hashing-kernel + verification throughput baseline,
//!               written as BENCH_<n>.json (--out); --diff-schema holds the
//!               key set against a committed baseline, --assert-floor fails
//!               on throughput regressions past the tolerance
//!   save-index  build a Searcher on the RCV1-shaped preset and persist a
//!               versioned snapshot (--out, default index.snap)
//!   serve       cold-load a snapshot (--from-snapshot) and time it against
//!               a from-scratch rebuild, asserting bit-identical output
//!   inspect-snapshot PATH  decode a snapshot's header (version, measure,
//!               composition, counts) and verify its checksum
//!   shard-build build the preset corpus as N disjoint shards (--shards,
//!               default 4) and save snapshots + manifest under --out
//!               (default shards/)
//!   shard-serve open a shard manifest (--from-manifest) and sweep queries
//!               through scatter-gather vs a single rebuilt index,
//!               asserting bit-identical output and hot-swapping a reload
//!               mid-sweep
//!   serve-loop  drive a ServingSearcher under mixed load — concurrent
//!               readers vs a writer batching inserts/removes into
//!               published epochs — and report p50/p95/p99 latency,
//!               written as SERVE_LOOP.json (--out)
//!   all      everything above
//! ```
//!
//! Use `--release` — the sweeps are CPU-bound.

use bayeslsh_bench::report::{fmt_count, fmt_secs, label, render_table};
use bayeslsh_bench::timing::Family;
use bayeslsh_bench::{
    baseline, fig1, fig5, parallel, params, persist, pruning, quality, serve_loop, shard, table1,
    timing,
};
use bayeslsh_datasets::Preset;

struct Args {
    command: String,
    /// Positional argument after the command (e.g. the snapshot path
    /// for `inspect-snapshot`).
    path: Option<String>,
    scale: f64,
    seed: u64,
    shards: usize,
    out: Option<String>,
    from_snapshot: Option<String>,
    from_manifest: Option<String>,
    diff_schema: Option<String>,
    assert_floor: Option<String>,
}

impl Args {
    /// The output path, with a per-command default.
    fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        path: None,
        scale: 0.004,
        seed: 42,
        shards: 4,
        out: None,
        from_snapshot: None,
        from_manifest: None,
        diff_schema: None,
        assert_floor: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--scale needs a number"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"));
            }
            "--shards" => {
                args.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--shards needs a positive integer"));
            }
            "--out" => {
                args.out = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--out needs a path")),
                );
            }
            "--from-manifest" => {
                args.from_manifest = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--from-manifest needs a path")),
                );
            }
            "--from-snapshot" => {
                args.from_snapshot = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--from-snapshot needs a path")),
                );
            }
            "--diff-schema" => {
                args.diff_schema = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--diff-schema needs a path")),
                );
            }
            "--assert-floor" => {
                args.assert_floor = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--assert-floor needs a path")),
                );
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            cmd if args.command.is_empty() && !cmd.starts_with('-') => {
                args.command = cmd.to_string();
            }
            p if args.path.is_none() && !p.starts_with('-') => {
                args.path = Some(p.to_string());
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if args.command.is_empty() {
        usage_error("missing experiment");
    }
    args
}

/// Runtime failure: report and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Usage failure (bad flag, unknown or missing experiment, missing
/// required option): report, print the subcommand table, exit 2. Every
/// argument error funnels through here so the CLI contract is uniform.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_usage();
    std::process::exit(2);
}

/// Every subcommand `main` dispatches on, in usage order. Kept next to
/// `print_usage` so an arm added to `main` without a row here is caught
/// by the usage test below.
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("fig1", "hashes needed vs similarity (classical estimation)"),
    ("fig2", "runtime vs gamma/delta/epsilon (LSH+BayesLSH)"),
    (
        "fig3",
        "timing sweeps: all algorithms x datasets x thresholds",
    ),
    ("fig4", "candidates remaining vs hashes examined"),
    ("fig5", "prior-vs-data posterior convergence"),
    ("table1", "dataset statistics"),
    ("table2", "fastest BayesLSH variant + speedups"),
    ("table3", "recall of AP+BayesLSH / AP+BayesLSH-Lite"),
    ("table4", "estimate errors: LSH Approx vs LSH+BayesLSH"),
    ("table5", "output quality vs gamma/delta/epsilon"),
    ("parallel", "all-pairs speedup vs worker threads"),
    (
        "bench-baseline",
        "hashing + verification throughput baseline",
    ),
    (
        "save-index",
        "build and persist a versioned snapshot (--out)",
    ),
    (
        "serve",
        "cold-load a snapshot (--from-snapshot) vs a rebuild",
    ),
    (
        "inspect-snapshot",
        "decode a snapshot header + verify its checksum (PATH)",
    ),
    (
        "shard-build",
        "build the corpus as N shards (--shards, --out DIR)",
    ),
    (
        "shard-serve",
        "scatter-gather vs single index (--from-manifest)",
    ),
    (
        "serve-loop",
        "mixed read/write latency harness: p50/p95/p99 (--out JSON)",
    ),
    ("all", "everything above"),
];

fn print_usage() {
    eprintln!(
        "usage: repro <experiment> [PATH] [--scale S] [--seed N] [--shards N] [--out PATH] \
         [--from-snapshot PATH] [--from-manifest PATH] [--diff-schema PATH] \
         [--assert-floor PATH]\n\nexperiments:"
    );
    for (name, what) in SUBCOMMANDS {
        eprintln!("  {name:<16} {what}");
    }
}

fn run_save_index(args: &Args) {
    let out = args.out_or("index.snap");
    banner(&format!(
        "Save index: build once, persist the snapshot (scale {}, -> {out})",
        args.scale
    ));
    match persist::save_index(args.scale, args.seed, &out) {
        Ok(r) => {
            println!(
                "built {} vectors ({} hashes) in {}; saved {} in {}",
                fmt_count(r.n_vectors as u64),
                fmt_count(r.hashes),
                fmt_secs(r.build_secs),
                fmt_count(r.bytes),
                fmt_secs(r.save_secs),
            );
            println!(
                "serve it with: repro serve --from-snapshot {out} --scale {}",
                args.scale
            );
        }
        Err(e) => die(&e),
    }
}

fn run_serve(args: &Args) {
    let Some(path) = args.from_snapshot.as_deref() else {
        usage_error("serve needs --from-snapshot PATH (from a prior save-index)");
    };
    banner(&format!(
        "Serve: cold-load {path} vs rebuild (scale {})",
        args.scale
    ));
    match persist::serve(args.scale, args.seed, path) {
        Ok(r) => {
            let table = vec![
                vec!["probe header".to_string(), fmt_secs(r.probe_secs)],
                vec!["cold load".to_string(), fmt_secs(r.load_secs)],
                vec!["rebuild from scratch".to_string(), fmt_secs(r.rebuild_secs)],
                vec!["load speedup".to_string(), format!("{:.2}x", r.speedup)],
            ];
            print!("{}", render_table(&["phase", "time"], &table));
            println!(
                "{} queries on the loaded index in {} — output asserted bit-identical \
                 to the rebuild ({} vectors)",
                r.queries,
                fmt_secs(r.query_secs),
                fmt_count(r.n_vectors as u64),
            );
            println!(
                "verifier cost: {} hash comparisons ({:.1} per accepted neighbor)",
                fmt_count(r.hashes_compared),
                r.hashes_per_accepted_pair,
            );
            println!(
                "banding FNR: achieved {:.4} vs requested {:.4}{}",
                r.achieved_fnr,
                r.requested_fnr,
                if r.fnr_clamped {
                    " (band cap clamped l — guarantee weakened)"
                } else {
                    ""
                },
            );
        }
        Err(e) => die(&e),
    }
}

fn run_inspect_snapshot(args: &Args) {
    let Some(path) = args.path.as_deref() else {
        usage_error("inspect-snapshot needs a PATH argument");
    };
    banner(&format!("Inspect snapshot: {path}"));
    match persist::inspect(path) {
        Ok(r) => {
            let h = &r.header;
            let table = vec![
                vec!["format version".to_string(), h.format_version.to_string()],
                vec!["measure".to_string(), format!("{:?}", h.measure)],
                vec!["composition".to_string(), format!("{:?}", h.composition)],
                vec!["hash mode".to_string(), format!("{:?}", h.hash_mode)],
                vec!["build threads".to_string(), h.threads.to_string()],
                vec!["signature depth".to_string(), h.sig_depth.to_string()],
                vec!["vectors".to_string(), fmt_count(h.n_vectors)],
                vec!["dimensions".to_string(), h.dim.to_string()],
                vec!["total hashes".to_string(), fmt_count(h.total_hashes)],
                vec!["file size".to_string(), fmt_count(r.bytes)],
            ];
            print!("{}", render_table(&["field", "value"], &table));
            match r.damage {
                None => println!("checksum: OK (full load verified)"),
                Some(reason) => die(&format!("checksum: DAMAGED — {reason}")),
            }
        }
        Err(e) => die(&e),
    }
}

fn run_shard_build(args: &Args) {
    let out = args.out_or("shards");
    banner(&format!(
        "Shard build: partition into {} shards (scale {}, -> {out}/)",
        args.shards, args.scale
    ));
    match shard::shard_build(args.scale, args.seed, args.shards, &out) {
        Ok(r) => {
            println!(
                "built {} vectors as {} shards in {}; {} on disk (sizes: {})",
                fmt_count(r.n_vectors as u64),
                r.n_shards,
                fmt_secs(r.build_secs),
                fmt_count(r.bytes),
                r.shard_sizes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            );
            println!(
                "serve it with: repro shard-serve --from-manifest {} --scale {}",
                r.manifest_path, args.scale
            );
        }
        Err(e) => die(&e),
    }
}

fn run_shard_serve(args: &Args) {
    let Some(path) = args.from_manifest.as_deref() else {
        usage_error("shard-serve needs --from-manifest PATH (from a prior shard-build)");
    };
    banner(&format!(
        "Shard serve: scatter-gather over {path} vs a single rebuilt index (scale {})",
        args.scale
    ));
    match shard::shard_serve(args.scale, args.seed, path) {
        Ok(r) => {
            let table = vec![
                vec!["open + load shards".to_string(), fmt_secs(r.open_secs)],
                vec!["rebuild single index".to_string(), fmt_secs(r.rebuild_secs)],
                vec![
                    format!("{} queries, scatter-gather", r.queries),
                    fmt_secs(r.scatter_secs),
                ],
                vec![
                    format!("{} queries, single index", r.queries),
                    fmt_secs(r.single_secs),
                ],
                vec!["hot-swap reload".to_string(), fmt_secs(r.reload_secs)],
            ];
            print!("{}", render_table(&["phase", "time"], &table));
            println!(
                "{} vectors across {} shards — every answer asserted bit-identical to the \
                 single index; reload mid-sweep served without error (generation {})",
                fmt_count(r.n_vectors as u64),
                r.n_shards,
                r.generation,
            );
        }
        Err(e) => die(&e),
    }
}

fn run_serve_loop(args: &Args) {
    let out = args.out_or("SERVE_LOOP.json");
    let cfg = serve_loop::ServeLoopConfig {
        scale: args.scale,
        seed: args.seed,
        ..serve_loop::ServeLoopConfig::default()
    };
    banner(&format!(
        "Serve loop: {} readers x {} queries vs 1 writer x {} batches (scale {}, -> {out})",
        cfg.readers, cfg.queries_per_reader, cfg.batches, args.scale
    ));
    let report = match serve_loop::run(&cfg) {
        Ok(r) => r,
        Err(e) => die(&e),
    };
    let lat_row = |name: &str, l: &serve_loop::LatencySummary| {
        vec![
            name.to_string(),
            fmt_count(l.count),
            format!("{:.0}us", l.p50_us),
            format!("{:.0}us", l.p95_us),
            format!("{:.0}us", l.p99_us),
            format!("{:.0}us", l.max_us),
        ]
    };
    let table = vec![
        lat_row("read (query)", &report.read),
        lat_row("write (batch+publish)", &report.write),
    ];
    print!(
        "{}",
        render_table(&["op", "count", "p50", "p95", "p99", "max"], &table)
    );
    println!(
        "{} vectors served; {} epochs published ({} observed by readers); \
         {} inserts, {} removes, {} reclaimed by compaction",
        fmt_count(report.n_vectors as u64),
        report.epochs_published,
        report.epochs_observed,
        report.inserts,
        report.removes,
        report.reclaimed,
    );
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        die(&format!("cannot write {out}: {e}"));
    }
    // Validate what was written, exactly like bench-baseline: the CI
    // serving job smoke-tests this path.
    match serve_loop::validate_json(&std::fs::read_to_string(&out).unwrap_or_default()) {
        Ok(()) => println!("wrote {out} (schema OK)"),
        Err(e) => die(&format!(
            "emitted serve-loop report failed schema check: {e}"
        )),
    }
}

fn run_bench_baseline(args: &Args) {
    let out = args.out_or("BENCH_10.json");
    banner(&format!(
        "Perf baseline: hashing kernels + verification (scale {}, -> {out})",
        args.scale
    ));
    let report = baseline::run(args.scale, args.seed);
    let table = vec![
        vec![
            "SRP (quantized)".to_string(),
            fmt_count(report.srp.scalar.per_s as u64),
            fmt_count(report.srp.kernel.per_s as u64),
            format!("{:.2}x", report.srp.speedup),
        ],
        vec![
            "MinHash".to_string(),
            fmt_count(report.minhash.scalar.per_s as u64),
            fmt_count(report.minhash.kernel.per_s as u64),
            format!("{:.2}x", report.minhash.speedup),
        ],
        vec![
            "E2LSH (p-stable)".to_string(),
            fmt_count(report.e2lsh_hash.scalar.per_s as u64),
            fmt_count(report.e2lsh_hash.kernel.per_s as u64),
            format!("{:.2}x", report.e2lsh_hash.speedup),
        ],
    ];
    print!(
        "{}",
        render_table(
            &["kernel", "scalar comp/s", "kernel comp/s", "speedup"],
            &table
        )
    );
    println!(
        "multi-probe queries: {} in {} ({} queries/s, {} bucket probes)",
        fmt_count(report.multiprobe_query.queries),
        fmt_secs(report.multiprobe_query.secs),
        fmt_count(report.multiprobe_query.queries_per_s as u64),
        fmt_count(report.multiprobe_query.bucket_probes),
    );
    println!(
        "verify (cold pool): {} pairs in {} ({} pairs/s, {} hash comparisons, \
         {:.1} hashes/accepted pair)",
        fmt_count(report.verify.pairs),
        fmt_secs(report.verify.secs),
        fmt_count(report.verify.pairs_per_s as u64),
        fmt_count(report.verify.hash_comparisons),
        report.verify.hashes_per_accepted_pair,
    );
    println!(
        "verify (batched, pre-hashed): {} pairs in {} ({} pairs/s)",
        fmt_count(report.verify_batched.pairs),
        fmt_secs(report.verify_batched.secs),
        fmt_count(report.verify_batched.pairs_per_s as u64),
    );
    println!(
        "sprt verify (cold pool): {} pairs in {} ({} pairs/s, {} hash comparisons, \
         {:.1} hashes/accepted pair)",
        fmt_count(report.sprt_verify.pairs),
        fmt_secs(report.sprt_verify.secs),
        fmt_count(report.sprt_verify.pairs_per_s as u64),
        fmt_count(report.sprt_verify.hash_comparisons),
        report.sprt_verify.hashes_per_accepted_pair,
    );
    println!(
        "sprt vs bayes: {:.2}x pairs/s, {:.1} vs {:.1} hashes/accepted pair",
        report.sprt_verify.pairs_per_s / report.verify.pairs_per_s.max(1e-12),
        report.sprt_verify.hashes_per_accepted_pair,
        report.verify.hashes_per_accepted_pair,
    );
    for row in &report.end_to_end {
        println!(
            "end-to-end {} / {}: {} ({} pairs)",
            row.preset,
            label(row.composition),
            fmt_secs(row.secs),
            fmt_count(row.pairs)
        );
    }
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        die(&format!("cannot write {out}: {e}"));
    }
    // The subcommand validates what it wrote: CI smoke-tests this path, so
    // a schema regression fails loudly instead of rotting silently.
    match baseline::validate_json(&std::fs::read_to_string(&out).unwrap_or_default()) {
        Ok(()) => println!("wrote {out} (schema OK)"),
        Err(e) => die(&format!("emitted baseline failed schema check: {e}")),
    }
    // With --diff-schema, also hold the emitted keys against a committed
    // baseline so the two cannot drift apart (values may differ; keys are
    // the contract).
    if let Some(committed) = &args.diff_schema {
        let committed_json = std::fs::read_to_string(committed)
            .unwrap_or_else(|e| die(&format!("cannot read {committed}: {e}")));
        match baseline::diff_schema(&committed_json, &json) {
            Ok(()) => println!("schema matches {committed}"),
            Err(e) => die(&e),
        }
    }
    // With --assert-floor, hold the fresh throughputs against a committed
    // baseline: any gated key regressing past the tolerance fails the run
    // (the CI bench-regression job's contract).
    if let Some(committed) = &args.assert_floor {
        let committed_json = std::fs::read_to_string(committed)
            .unwrap_or_else(|e| die(&format!("cannot read {committed}: {e}")));
        match baseline::assert_floor(&committed_json, &json) {
            Ok(lines) => {
                for line in lines {
                    println!("floor OK: {line}");
                }
            }
            Err(e) => die(&e),
        }
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "fig1" => run_fig1(),
        "fig2" => run_fig2(&args),
        "fig3" => {
            run_fig3(&args);
        }
        "fig4" => run_fig4(&args),
        "fig5" => run_fig5(),
        "table1" => run_table1(&args),
        "table2" => {
            let rows = run_fig3(&args);
            run_table2(&rows);
        }
        "table3" => run_table3(&args),
        "table4" => run_table4(&args),
        "table5" => run_table5(&args),
        "parallel" => run_parallel(&args),
        "bench-baseline" => run_bench_baseline(&args),
        "save-index" => run_save_index(&args),
        "serve" => run_serve(&args),
        "inspect-snapshot" => run_inspect_snapshot(&args),
        "shard-build" => run_shard_build(&args),
        "shard-serve" => run_shard_serve(&args),
        "serve-loop" => run_serve_loop(&args),
        "all" => {
            run_parallel(&args);
            run_fig1();
            run_fig5();
            run_table1(&args);
            run_fig4(&args);
            run_fig2(&args);
            run_table5(&args);
            run_table3(&args);
            run_table4(&args);
            let rows = run_fig3(&args);
            run_table2(&rows);
        }
        other => usage_error(&format!("unknown experiment {other:?}")),
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

fn run_fig1() {
    banner("Figure 1: hashes required for delta=gamma=0.05 vs true similarity");
    let rows = fig1::run(0.05, 0.05, 20_000);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.similarity),
                r.hashes.map_or("-".into(), |h| h.to_string()),
            ]
        })
        .collect();
    print!("{}", render_table(&["similarity", "min hashes"], &table));
}

fn run_fig5() {
    banner("Figure 5: posterior convergence from priors x^-3 / uniform / x^3 (cos=0.70)");
    let rows = fig5::run();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.n),
                format!("{}", r.m),
                format!("{:.4}", r.max_tv),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["hashes", "matches", "max pairwise TV distance"], &table)
    );
}

fn run_table1(args: &Args) {
    banner(&format!("Table 1: dataset details (scale {})", args.scale));
    let rows = table1::run(args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{}", r.ours.n_vectors),
                format!("{}", r.ours.dim),
                format!("{:.0}", r.ours.avg_len),
                fmt_count(r.ours.nnz),
                format!("{:.1}", r.ours.len_std),
                format!("{}x{} avg {}", r.paper.0, r.paper.1, r.paper.2),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "dataset",
                "vectors",
                "dims",
                "avg len",
                "nnz",
                "len std",
                "paper shape"
            ],
            &table
        )
    );
}

fn run_fig2(args: &Args) {
    banner("Figure 2: runtime vs gamma/delta/epsilon (LSH+BayesLSH, WikiWords100K-like, t=0.7)");
    let (rows, refs) = params::run(args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.varied.name().into(),
                format!("{:.2}", r.value),
                fmt_secs(r.secs),
            ]
        })
        .collect();
    print!("{}", render_table(&["varied", "value", "time"], &table));
    for r in &refs {
        println!(
            "reference: {:<12} {}",
            label(r.composition),
            fmt_secs(r.secs)
        );
    }
}

fn run_table5(args: &Args) {
    banner("Table 5: output quality vs gamma/delta/epsilon (WikiWords100K-like, t=0.7)");
    let (rows, _) = params::run(args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.varied.name().into(),
                format!("{:.2}", r.value),
                format!("{:.2}%", 100.0 * r.frac_err_above_005),
                format!("{:.4}", r.mean_err),
                format!("{:.2}%", 100.0 * r.recall),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["varied", "value", "errors > 0.05", "mean error", "recall"],
            &table
        )
    );
}

fn run_fig4(args: &Args) {
    banner("Figure 4: candidates remaining vs hashes examined");
    for c in pruning::run(args.scale, args.seed) {
        println!("{} / {} (output {}):", c.panel, label(c.source), c.output);
        let interesting: Vec<&(u32, u64)> = c
            .points
            .iter()
            .filter(|(h, _)| [0, 32, 64, 96, 128, 256, 512, 1024, 2048].contains(h))
            .collect();
        for (h, n) in interesting {
            println!("  after {h:>5} hashes: {} candidates", fmt_count(*n));
        }
    }
}

fn run_table3(args: &Args) {
    banner("Table 3: recall (%) of AP+BayesLSH and AP+BayesLSH-Lite");
    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9];
    let rows = quality::table3(&Preset::ALL, &thresholds, args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                label(r.composition),
                format!("{:.1}", r.threshold),
                format!("{:.2}", r.recall_pct),
                r.truth_size.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["dataset", "algorithm", "t", "recall %", "truth size"],
            &table
        )
    );
}

fn run_table4(args: &Args) {
    banner("Table 4: % of similarity estimates with error > 0.05");
    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9];
    let rows = quality::table4(&Preset::ALL, &thresholds, args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                label(r.composition),
                format!("{:.1}", r.threshold),
                format!("{:.2}", r.pct_err_above_005),
                format!("{:.4}", r.mean_err),
                r.n_estimates.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "dataset",
                "algorithm",
                "t",
                "% err > 0.05",
                "mean err",
                "estimates"
            ],
            &table
        )
    );
}

fn run_parallel(args: &Args) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    banner(&format!(
        "Parallel all-pairs speedup (RCV1-shaped, t=0.7, scale {}, host cores {host})",
        args.scale
    ));
    let rows = parallel::run(args.scale, args.seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                label(r.composition),
                r.threads.to_string(),
                fmt_secs(r.build_secs),
                fmt_secs(r.join_secs),
                format!("{:.2}x", r.join_speedup),
                r.output.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "algorithm",
                "threads",
                "build",
                "all-pairs",
                "speedup",
                "output"
            ],
            &table
        )
    );
    println!("output is asserted bit-identical across thread counts");
}

fn run_fig3(args: &Args) -> Vec<timing::TimingRow> {
    let mut all = Vec::new();
    for family in [
        Family::WeightedCosine,
        Family::BinaryJaccard,
        Family::BinaryCosine,
    ] {
        banner(&format!(
            "Figure 3 ({}): total seconds, scale {}",
            family.name(),
            args.scale
        ));
        let rows = timing::run_sweep(family, args.scale, args.seed);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    label(r.composition),
                    format!("{:.1}", r.threshold),
                    fmt_secs(r.secs),
                    r.output.to_string(),
                    fmt_count(r.candidates),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["dataset", "algorithm", "t", "time", "output", "candidates"],
                &table
            )
        );
        all.extend(rows);
    }
    all
}

fn run_table2(rows: &[timing::TimingRow]) {
    banner("Table 2: fastest BayesLSH variant and speedups over baselines");
    let t2 = timing::table2_from(rows);
    let fmt_speedup = |s: Option<f64>| s.map_or("-".to_string(), |v| format!("{v:.1}x"));
    let table: Vec<Vec<String>> = t2
        .iter()
        .map(|r| {
            vec![
                r.family.name().into(),
                r.dataset.to_string(),
                label(r.fastest_variant),
                fmt_secs(r.variant_secs),
                fmt_speedup(r.speedup_ap),
                fmt_speedup(r.speedup_lsh),
                fmt_speedup(r.speedup_lsh_approx),
                fmt_speedup(r.speedup_ppjoin),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "family",
                "dataset",
                "fastest variant",
                "time",
                "vs AP",
                "vs LSH",
                "vs LSH-Approx",
                "vs PPJoin+"
            ],
            &table
        )
    );
}
