//! The sharded-serving experiment (`repro shard-build` / `repro
//! shard-serve`).
//!
//! Sharding is the scale-out counterpart of the snapshot economics in
//! [`persist`](crate::persist): one offline builder partitions the
//! corpus and writes N independent snapshots plus a manifest, and a
//! serving node opens the manifest and answers by scatter-gather. This
//! module measures that trade on a preset corpus — partitioned build on
//! one side, scatter-gather serving on the other — with every answer
//! asserted **bit-identical** to a single unsharded searcher while the
//! clock runs, and a hot-swap `reload()` exercised mid-sweep.

use std::path::Path;
use std::time::Instant;

use bayeslsh_core::{
    Composition, GeneratorKind, Parallelism, PipelineConfig, Searcher, VerifierKind,
};
use bayeslsh_datasets::Preset;
use bayeslsh_shard::{LoadPolicy, PartitionFn, ShardBuilder, ShardedSearcher, MANIFEST_FILE};

/// The build the experiment shards: the paper's flagship composition
/// over an RCV1-shaped corpus at t = 0.7 (same recipe as `save-index`).
fn config() -> PipelineConfig {
    PipelineConfig::cosine(0.7)
}

/// LSH banding × BayesLSH, the flagship composition.
const FLAGSHIP: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);

fn build_single(scale: f64, seed: u64) -> Searcher {
    Searcher::builder(config())
        .composition(FLAGSHIP)
        .parallelism(Parallelism::Auto)
        .build(Preset::Rcv1.load(scale, seed))
        .expect("preset corpus and paper config are valid")
}

/// What `repro shard-build` measured.
#[derive(Debug, Clone)]
pub struct ShardBuildReport {
    /// Corpus vectors indexed across all shards.
    pub n_vectors: usize,
    /// Shards built and saved.
    pub n_shards: usize,
    /// Wall time of partition + per-shard builds + snapshot writes.
    pub build_secs: f64,
    /// Total bytes on disk (manifest + every shard snapshot).
    pub bytes: u64,
    /// Vectors per shard, in shard order.
    pub shard_sizes: Vec<u64>,
    /// Path of the manifest that `shard-serve` should open.
    pub manifest_path: String,
}

/// Partition the preset corpus into `n_shards`, build every shard, and
/// persist the shard set (snapshots + manifest) under `dir`.
pub fn shard_build(
    scale: f64,
    seed: u64,
    n_shards: usize,
    dir: &str,
) -> Result<ShardBuildReport, String> {
    let data = Preset::Rcv1.load(scale, seed);
    let n_vectors = data.len();
    let start = Instant::now();
    let manifest = ShardBuilder::new(config())
        .composition(FLAGSHIP)
        .shards(n_shards)
        .partition(PartitionFn::Hashed { seed })
        .parallelism(Parallelism::Auto)
        .build_to_dir(&data, Path::new(dir))
        .map_err(|e| e.to_string())?;
    let build_secs = start.elapsed().as_secs_f64();

    let manifest_path = Path::new(dir).join(MANIFEST_FILE);
    let mut bytes = std::fs::metadata(&manifest_path)
        .map_err(|e| e.to_string())?
        .len();
    for entry in &manifest.shards {
        bytes += std::fs::metadata(Path::new(dir).join(&entry.file))
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(ShardBuildReport {
        n_vectors,
        n_shards: manifest.shard_count(),
        build_secs,
        bytes,
        shard_sizes: manifest.shards.iter().map(|s| s.n_vectors).collect(),
        manifest_path: manifest_path.display().to_string(),
    })
}

/// What `repro shard-serve` measured.
#[derive(Debug, Clone)]
pub struct ShardServeReport {
    /// Corpus vectors served.
    pub n_vectors: usize,
    /// Shards behind the router.
    pub n_shards: usize,
    /// Wall time to open the manifest and eagerly load every shard.
    pub open_secs: f64,
    /// Wall time to rebuild the equivalent single searcher from scratch.
    pub rebuild_secs: f64,
    /// Point queries answered while checking equivalence.
    pub queries: usize,
    /// Total wall time of those queries through scatter-gather.
    pub scatter_secs: f64,
    /// Total wall time of the same queries on the single searcher.
    pub single_secs: f64,
    /// Wall time of the mid-sweep hot-swap `reload()`.
    pub reload_secs: f64,
    /// Generation ordinal after the reload (1 before, 2 after).
    pub generation: u64,
}

/// Open the shard set at `manifest_path`, rebuild the equivalent single
/// searcher from scratch, and sweep point queries through both —
/// asserting the scatter-gather answers (neighbours, similarities,
/// statistics) bit-identical — with a hot-swap `reload()` fired halfway
/// through the sweep, after which serving must continue error-free.
/// `scale`/`seed` must match the `shard-build` invocation; a mismatch
/// is reported, not ignored.
pub fn shard_serve(scale: f64, seed: u64, manifest_path: &str) -> Result<ShardServeReport, String> {
    let start = Instant::now();
    let sharded = ShardedSearcher::open_with(
        Path::new(manifest_path),
        Parallelism::Auto,
        LoadPolicy::Eager,
    )
    .map_err(|e| format!("open: {e}"))?;
    let open_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let single = build_single(scale, seed);
    let rebuild_secs = start.elapsed().as_secs_f64();

    if sharded.len() != single.len() {
        return Err(format!(
            "shard set ({} vectors) does not match a --scale {scale} --seed {seed} rebuild \
             ({} vectors); pass the same arguments as shard-build",
            sharded.len(),
            single.len()
        ));
    }

    let qids: Vec<u32> = (0..single.len() as u32).step_by(7).collect();
    let mut scatter_secs = 0.0;
    let mut single_secs = 0.0;
    let mut reload_secs = 0.0;
    for (i, &qid) in qids.iter().enumerate() {
        // Hot swap halfway through the sweep: in-flight serving must
        // carry on without an error, on the freshly opened generation.
        if i == qids.len() / 2 {
            let start = Instant::now();
            sharded.reload().map_err(|e| format!("reload: {e}"))?;
            reload_secs = start.elapsed().as_secs_f64();
        }
        let q = single.data().vector(qid).clone();
        let start = Instant::now();
        let want = single.query(&q, 0.7).map_err(|e| e.to_string())?;
        single_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let got = sharded.query(&q, 0.7).map_err(|e| e.to_string())?;
        scatter_secs += start.elapsed().as_secs_f64();
        // Scatter-gather probes each shard's own index, so the merged
        // probe count is shards × the single index's; everything else
        // must match bit for bit.
        let mut scaled = want.stats;
        scaled.bucket_probes *= sharded.shard_count() as u64;
        if want.neighbors.len() != got.neighbors.len()
            || want
                .neighbors
                .iter()
                .zip(&got.neighbors)
                .any(|(x, y)| (x.0, x.1.to_bits()) != (y.0, y.1.to_bits()))
            || scaled != got.stats
        {
            return Err(format!("query {qid} diverged between sharded and single"));
        }
    }

    Ok(ShardServeReport {
        n_vectors: single.len(),
        n_shards: sharded.shard_count(),
        open_secs,
        rebuild_secs,
        queries: qids.len(),
        scatter_secs,
        single_secs,
        reload_secs,
        generation: sharded.generation().ordinal(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_build_then_serve_round_trips_on_a_tiny_preset() {
        let dir = std::env::temp_dir().join(format!("bayeslsh-bench-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let built = shard_build(0.0005, 42, 3, &dir_s).unwrap();
        assert_eq!(built.n_shards, 3);
        assert!(built.n_vectors > 0 && built.bytes > 0);
        assert_eq!(
            built.shard_sizes.iter().sum::<u64>(),
            built.n_vectors as u64
        );
        let served = shard_serve(0.0005, 42, &built.manifest_path).unwrap();
        assert_eq!(served.n_vectors, built.n_vectors);
        assert_eq!(served.n_shards, 3);
        assert!(served.queries > 0 && served.open_secs > 0.0);
        // The mid-sweep hot swap ran and bumped the generation.
        assert!(served.reload_secs > 0.0);
        assert_eq!(served.generation, 2);
        // A different seed is a detected mismatch, not silent divergence.
        assert!(shard_serve(0.0005, 43, &built.manifest_path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
