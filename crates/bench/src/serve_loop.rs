//! The online-serving latency harness (`repro serve-loop`).
//!
//! Drives a [`ServingSearcher`] under mixed load — N reader threads
//! streaming threshold queries while one writer batches inserts and
//! removes into published epochs, with a compaction pass mid-run — and
//! reports p50/p95/p99 read and write latency. The workload is
//! count-based (each reader runs a fixed query budget, the writer a
//! fixed batch schedule), so a run's *work* is reproducible even though
//! its latencies are host-dependent.
//!
//! Like the perf baseline, the report serializes to hand-rolled JSON
//! (`SERVE_LOOP.json`; the workspace has no serde) with a schema marker
//! and a [`validate_json`] check the CI `serving` job runs against the
//! emitted file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bayeslsh_core::serving::ServingSearcher;
use bayeslsh_core::{Composition, GeneratorKind, PipelineConfig, Searcher, VerifierKind};
use bayeslsh_datasets::Preset;
use bayeslsh_numeric::Parallelism;
use bayeslsh_sparse::SparseVector;

/// Workload shape for one harness run.
#[derive(Debug, Clone)]
pub struct ServeLoopConfig {
    /// Dataset scale factor for the RCV1-shaped preset.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Queries each reader issues.
    pub queries_per_reader: usize,
    /// Writer batches; each inserts [`Self::batch_inserts`] vectors and
    /// removes one older id, then publishes an epoch.
    pub batches: usize,
    /// Inserts per writer batch.
    pub batch_inserts: usize,
}

impl Default for ServeLoopConfig {
    fn default() -> Self {
        Self {
            scale: 0.004,
            seed: 42,
            readers: 4,
            queries_per_reader: 200,
            batches: 8,
            batch_inserts: 4,
        }
    }
}

/// Nearest-rank latency percentiles over one operation class.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Operations measured.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Worst observed, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarize a latency sample (microseconds); `count` may be zero,
    /// in which case every percentile is zero.
    pub fn from_samples(mut us: Vec<f64>) -> Self {
        us.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            if us.is_empty() {
                return 0.0;
            }
            // Nearest-rank: ceil(p/100 * N)-th smallest, 1-indexed.
            let rank = ((p / 100.0) * us.len() as f64).ceil().max(1.0) as usize;
            us[rank.min(us.len()) - 1]
        };
        Self {
            count: us.len() as u64,
            p50_us: pct(50.0),
            p95_us: pct(95.0),
            p99_us: pct(99.0),
            max_us: us.last().copied().unwrap_or(0.0),
        }
    }
}

/// The full mixed-load report.
#[derive(Debug, Clone)]
pub struct ServeLoopReport {
    /// Dataset scale factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Reader thread count.
    pub readers: usize,
    /// Corpus size at the end of the run.
    pub n_vectors: usize,
    /// Epochs the writer published (including the compaction epoch).
    pub epochs_published: u64,
    /// Vectors inserted across all batches.
    pub inserts: u64,
    /// Vectors tombstoned across all batches.
    pub removes: u64,
    /// Tombstones reclaimed by the mid-run compaction.
    pub reclaimed: u64,
    /// Distinct epoch ordinals the readers observed (must span more than
    /// one when the writer published — proof the hot swap really served).
    pub epochs_observed: u64,
    /// Threshold-query latency under write load.
    pub read: LatencySummary,
    /// Writer-side latency (staged write + publish, per batch).
    pub write: LatencySummary,
}

/// Run the harness: build the RCV1-shaped preset at `cfg.scale`, wrap it
/// in a [`ServingSearcher`], and drive readers and the writer to their
/// budgets concurrently.
pub fn run(cfg: &ServeLoopConfig) -> Result<ServeLoopReport, String> {
    let data = Preset::Rcv1.load(cfg.scale, cfg.seed);
    if data.len() < cfg.batches + 1 {
        return Err(format!(
            "corpus too small ({} vectors) for {} write batches — raise --scale",
            data.len(),
            cfg.batches
        ));
    }
    // Recycled corpus vectors double as the insert stream and the query
    // stream; every reader walks the corpus at its own stride.
    let inserts: Vec<SparseVector> = data.vectors().to_vec();
    let queries: Vec<SparseVector> = data.vectors().iter().take(64).cloned().collect();
    let searcher = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::BayesLite,
        ))
        .parallelism(Parallelism::serial())
        .build(data)
        .map_err(|e| format!("build failed: {e}"))?;
    let serving = Arc::new(ServingSearcher::new(searcher));

    let epoch_mask = AtomicU64::new(1); // bit per observed ordinal (< 64)
    let mut read_us: Vec<f64> = Vec::new();
    let mut write_us: Vec<f64> = Vec::new();
    let mut inserted = 0u64;
    let mut removed = 0u64;
    let mut reclaimed = 0usize;

    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for r in 0..cfg.readers {
            let serving = Arc::clone(&serving);
            let queries = &queries;
            let epoch_mask = &epoch_mask;
            handles.push(scope.spawn(move || -> Result<Vec<f64>, String> {
                let mut us = Vec::with_capacity(cfg.queries_per_reader);
                for i in 0..cfg.queries_per_reader {
                    let q = &queries[(i * (r + 1)) % queries.len()];
                    let start = Instant::now();
                    let epoch = serving.epoch();
                    epoch
                        .searcher()
                        .query(q, 0.7)
                        .map_err(|e| format!("reader {r}: {e}"))?;
                    us.push(start.elapsed().as_secs_f64() * 1e6);
                    epoch_mask.fetch_or(1 << epoch.ordinal().min(63), Ordering::Relaxed);
                }
                Ok(us)
            }));
        }

        // Writer: insert a batch, tombstone one older id, publish; compact
        // halfway through so readers run over a compacted epoch too.
        for batch in 0..cfg.batches {
            let start = Instant::now();
            for i in 0..cfg.batch_inserts {
                let v = inserts[(batch * cfg.batch_inserts + i) % inserts.len()].clone();
                serving.insert(v).map_err(|e| format!("insert: {e}"))?;
                inserted += 1;
            }
            if serving
                .remove(batch as u32)
                .map_err(|e| format!("remove: {e}"))?
            {
                removed += 1;
            }
            if batch == cfg.batches / 2 {
                reclaimed += serving.compact();
            }
            serving.publish();
            write_us.push(start.elapsed().as_secs_f64() * 1e6);
        }

        for h in handles {
            read_us.extend(h.join().expect("reader thread panicked")?);
        }
        Ok(())
    })?;

    let final_epoch = serving.epoch();
    Ok(ServeLoopReport {
        scale: cfg.scale,
        seed: cfg.seed,
        readers: cfg.readers,
        n_vectors: final_epoch.searcher().len(),
        epochs_published: final_epoch.ordinal(),
        inserts: inserted,
        removes: removed,
        reclaimed: reclaimed as u64,
        epochs_observed: epoch_mask.load(Ordering::Relaxed).count_ones() as u64,
        read: LatencySummary::from_samples(read_us),
        write: LatencySummary::from_samples(write_us),
    })
}

fn json_latency(l: &LatencySummary) -> String {
    format!(
        "{{\"count\": {}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}}}",
        l.count, l.p50_us, l.p95_us, l.p99_us, l.max_us
    )
}

impl ServeLoopReport {
    /// Serialize to the `SERVE_LOOP.json` schema (see [`validate_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"bayeslsh-serve-loop-v1\",\n",
                "  \"scale\": {},\n",
                "  \"seed\": {},\n",
                "  \"readers\": {},\n",
                "  \"n_vectors\": {},\n",
                "  \"epochs_published\": {},\n",
                "  \"epochs_observed\": {},\n",
                "  \"inserts\": {},\n",
                "  \"removes\": {},\n",
                "  \"reclaimed\": {},\n",
                "  \"read\": {},\n",
                "  \"write\": {}\n",
                "}}\n"
            ),
            self.scale,
            self.seed,
            self.readers,
            self.n_vectors,
            self.epochs_published,
            self.epochs_observed,
            self.inserts,
            self.removes,
            self.reclaimed,
            json_latency(&self.read),
            json_latency(&self.write),
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

/// The flat object following `section`, bounded at its closing brace.
fn section_slice<'a>(s: &'a str, section: &str) -> Option<&'a str> {
    let at = s.find(section)?;
    let end = s[at..].find('}').map_or(s.len(), |e| at + e + 1);
    Some(&s[at..end])
}

/// Schema check for an emitted serve-loop report: schema marker present,
/// both latency sections carry positive percentile keys in the right
/// order (p50 ≤ p95 ≤ p99 ≤ max), and the run did real mixed work.
pub fn validate_json(s: &str) -> Result<(), String> {
    if !s.contains("\"schema\": \"bayeslsh-serve-loop-v1\"") {
        return Err("missing or wrong schema marker".into());
    }
    for section in ["\"read\":", "\"write\":"] {
        let sub = section_slice(s, section).ok_or_else(|| format!("missing section {section}"))?;
        let mut prev = 0.0f64;
        for key in ["p50_us", "p95_us", "p99_us", "max_us"] {
            match json_number(sub, key) {
                Some(v) if v > 0.0 && v >= prev => prev = v,
                Some(v) => {
                    return Err(format!(
                        "{section} {key} = {v}, expected positive and >= the lower percentile"
                    ))
                }
                None => return Err(format!("{section} missing numeric {key}")),
            }
        }
        match json_number(sub, "count") {
            Some(v) if v > 0.0 => {}
            _ => return Err(format!("{section} missing a positive count")),
        }
    }
    for key in ["epochs_published", "inserts", "removes"] {
        match json_number(s, key) {
            Some(v) if v > 0.0 => {}
            _ => return Err(format!("no mixed load: {key} must be positive")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let l = LatencySummary::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_us, 50.0);
        assert_eq!(l.p95_us, 95.0);
        assert_eq!(l.p99_us, 99.0);
        assert_eq!(l.max_us, 100.0);
        let empty = LatencySummary::from_samples(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max_us, 0.0);
    }

    #[test]
    fn tiny_run_emits_a_valid_report() {
        let cfg = ServeLoopConfig {
            scale: 0.002,
            readers: 2,
            queries_per_reader: 20,
            batches: 4,
            batch_inserts: 2,
            ..ServeLoopConfig::default()
        };
        let report = run(&cfg).expect("harness run");
        assert_eq!(report.inserts, 8);
        assert!(report.removes >= 1);
        assert!(report.reclaimed >= 1, "mid-run compaction must reclaim");
        assert_eq!(report.epochs_published, 4);
        assert_eq!(report.read.count, 40);
        assert_eq!(report.write.count, 4);
        validate_json(&report.to_json()).expect("schema check");
    }

    #[test]
    fn validator_rejects_broken_payloads() {
        assert!(validate_json("{}").is_err());
        let cfg = ServeLoopConfig {
            scale: 0.002,
            readers: 1,
            queries_per_reader: 5,
            batches: 2,
            batch_inserts: 1,
            ..ServeLoopConfig::default()
        };
        let good = run(&cfg).expect("harness run").to_json();
        validate_json(&good).expect("good payload");
        assert!(validate_json(&good.replace("\"read\":", "\"r\":")).is_err());
        assert!(validate_json(&good.replace("serve-loop-v1", "serve-loop-v0")).is_err());
        // A write section whose p95 regressed below p50 is malformed.
        let sub = section_slice(&good, "\"read\":").unwrap().to_string();
        let broken = good.replace(
            &sub,
            &sub.replace("\"p95_us\":", "\"p95_us\": -1.0, \"x\":"),
        );
        assert!(validate_json(&broken).is_err());
    }
}
