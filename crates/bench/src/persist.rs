//! The snapshot cold-load experiment (`repro save-index` / `repro serve`).
//!
//! The point of persistence is economic: an offline build pays the corpus
//! hashing and index construction once, and every serving worker cold-loads
//! the artifact instead of re-paying it. This module measures exactly that
//! trade on a preset corpus — build+save on one side, load on the other,
//! with the loaded searcher's output asserted **bit-identical** to a
//! from-scratch rebuild while the clock runs.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

use bayeslsh_core::{
    Composition, GeneratorKind, Parallelism, PipelineConfig, Searcher, SnapshotHeader, VerifierKind,
};
use bayeslsh_datasets::Preset;

/// The build the experiment persists: the paper's flagship composition
/// over an RCV1-shaped corpus at t = 0.7.
fn build_searcher(scale: f64, seed: u64) -> Searcher {
    let data = Preset::Rcv1.load(scale, seed);
    Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::Bayes,
        ))
        .parallelism(Parallelism::Auto)
        .build(data)
        .expect("preset corpus and paper config are valid")
}

/// What `repro save-index` measured.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// Corpus vectors indexed.
    pub n_vectors: usize,
    /// Corpus hashes the build computed (what a cold load avoids).
    pub hashes: u64,
    /// Wall time of the from-scratch build.
    pub build_secs: f64,
    /// Wall time of serializing the snapshot.
    pub save_secs: f64,
    /// Snapshot size on disk.
    pub bytes: u64,
}

/// Build the standard searcher and persist it to `path`.
pub fn save_index(scale: f64, seed: u64, path: &str) -> Result<SaveReport, String> {
    let start = Instant::now();
    let searcher = build_searcher(scale, seed);
    let build_secs = start.elapsed().as_secs_f64();
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let start = Instant::now();
    searcher
        .save(BufWriter::new(file))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let save_secs = start.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(SaveReport {
        n_vectors: searcher.len(),
        hashes: searcher.hash_count(),
        build_secs,
        save_secs,
        bytes,
    })
}

/// What `repro inspect-snapshot` probes: the cheap header read plus a
/// full checksum pass over the file.
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// The decoded [`SnapshotHeader`] (magic and version already
    /// validated by the read).
    pub header: SnapshotHeader,
    /// File size on disk.
    pub bytes: u64,
    /// `None` when a full load (including the trailing checksum)
    /// verified clean; `Some(reason)` when the body is damaged even
    /// though the header parsed.
    pub damage: Option<String>,
}

/// Probe the snapshot at `path`: decode the header, then run a full
/// checksum-verifying load and report whether the body is intact.
pub fn inspect(path: &str) -> Result<InspectReport, String> {
    let open = || File::open(path).map_err(|e| format!("cannot open {path}: {e}"));
    let header =
        SnapshotHeader::read(BufReader::new(open()?)).map_err(|e| format!("probe: {e}"))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let damage = match Searcher::load(BufReader::new(open()?)) {
        Ok(_) => None,
        Err(e) => Some(e.to_string()),
    };
    Ok(InspectReport {
        header,
        bytes,
        damage,
    })
}

/// What `repro serve --from-snapshot` measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Corpus vectors served.
    pub n_vectors: usize,
    /// Wall time to probe the header (metadata only).
    pub probe_secs: f64,
    /// Wall time to cold-load the snapshot into a ready searcher.
    pub load_secs: f64,
    /// Wall time to rebuild the same searcher from scratch.
    pub rebuild_secs: f64,
    /// `rebuild_secs / load_secs`.
    pub speedup: f64,
    /// Point queries answered while checking equivalence.
    pub queries: usize,
    /// Total wall time of those queries on the loaded searcher.
    pub query_secs: f64,
    /// Hash comparisons the verifier spent across the query sweep.
    pub hashes_compared: u64,
    /// Hash comparisons per accepted neighbor over the sweep — the
    /// adaptive-verification cost metric (0.0 when nothing matched).
    pub hashes_per_accepted_pair: f64,
    /// False-negative rate the banding plan was asked for.
    pub requested_fnr: f64,
    /// Expected false-negative rate the plan actually achieves at the
    /// threshold (`(1 − p^k)^l`); worse than requested when the band cap
    /// clamped `l`.
    pub achieved_fnr: f64,
    /// True when the band cap truncated `l`, so `achieved_fnr` exceeds
    /// `requested_fnr`.
    pub fnr_clamped: bool,
}

/// Cold-load `path`, rebuild the equivalent searcher from scratch, assert
/// the two are bit-identical (batch join + a query sweep), and report the
/// timings. `scale`/`seed` must match the `save-index` invocation that
/// wrote the snapshot — a mismatch is reported, not ignored.
pub fn serve(scale: f64, seed: u64, path: &str) -> Result<ServeReport, String> {
    let open = || File::open(path).map_err(|e| format!("cannot open {path}: {e}"));
    let start = Instant::now();
    let header =
        SnapshotHeader::read(BufReader::new(open()?)).map_err(|e| format!("probe: {e}"))?;
    let probe_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let loaded = Searcher::load(BufReader::new(open()?)).map_err(|e| format!("load: {e}"))?;
    let load_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let rebuilt = build_searcher(scale, seed);
    let rebuild_secs = start.elapsed().as_secs_f64();

    if loaded.len() != rebuilt.len() || loaded.hash_count() != rebuilt.hash_count() {
        return Err(format!(
            "snapshot ({} vectors, {} hashes) does not match a --scale {scale} --seed {seed} \
             rebuild ({} vectors, {} hashes); pass the same arguments as save-index",
            loaded.len(),
            loaded.hash_count(),
            rebuilt.len(),
            rebuilt.hash_count()
        ));
    }
    debug_assert_eq!(header.n_vectors as usize, loaded.len());

    // Bit-identity while the clock runs: the loaded index must not merely
    // work, it must reproduce the rebuild exactly.
    let (a, b) = (
        rebuilt.all_pairs().map_err(|e| e.to_string())?,
        loaded.all_pairs().map_err(|e| e.to_string())?,
    );
    if a.pairs.len() != b.pairs.len()
        || a.pairs
            .iter()
            .zip(&b.pairs)
            .any(|(x, y)| (x.0, x.1, x.2.to_bits()) != (y.0, y.1, y.2.to_bits()))
    {
        return Err("loaded all_pairs diverged from the rebuild".into());
    }

    let qids: Vec<u32> = (0..loaded.len() as u32).step_by(7).collect();
    let mut query_secs = 0.0;
    let mut hashes_compared = 0u64;
    let mut accepted = 0u64;
    for &qid in &qids {
        let q = rebuilt.data().vector(qid).clone();
        let want = rebuilt.query(&q, 0.7).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let got = loaded.query(&q, 0.7).map_err(|e| e.to_string())?;
        query_secs += start.elapsed().as_secs_f64();
        hashes_compared += got.stats.hash_comparisons;
        accepted += got.neighbors.len() as u64;
        if want.neighbors.len() != got.neighbors.len()
            || want
                .neighbors
                .iter()
                .zip(&got.neighbors)
                .any(|(x, y)| (x.0, x.1.to_bits()) != (y.0, y.1.to_bits()))
            || want.stats != got.stats
        {
            return Err(format!("query {qid} diverged from the rebuild"));
        }
    }

    let plan = loaded.banding_plan();
    Ok(ServeReport {
        n_vectors: loaded.len(),
        probe_secs,
        load_secs,
        rebuild_secs,
        speedup: rebuild_secs / load_secs.max(1e-12),
        queries: qids.len(),
        query_secs,
        hashes_compared,
        hashes_per_accepted_pair: if accepted == 0 {
            0.0
        } else {
            hashes_compared as f64 / accepted as f64
        },
        requested_fnr: plan.requested_fnr,
        achieved_fnr: plan.achieved_fnr,
        fnr_clamped: plan.clamped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_then_serve_round_trips_on_a_tiny_preset() {
        let path = std::env::temp_dir().join("bayeslsh_persist_test.snap");
        let path = path.to_str().unwrap().to_string();
        let saved = save_index(0.0005, 42, &path).unwrap();
        assert!(saved.n_vectors > 0 && saved.bytes > 0 && saved.hashes > 0);
        let served = serve(0.0005, 42, &path).unwrap();
        assert_eq!(served.n_vectors, saved.n_vectors);
        assert!(served.load_secs > 0.0 && served.rebuild_secs > 0.0);
        assert!(served.queries > 0);
        // The banding plan's FNR report rides along: both rates are real
        // probabilities, and an unclamped plan meets what was asked.
        assert!(served.requested_fnr > 0.0 && served.requested_fnr < 1.0);
        assert!(served.achieved_fnr > 0.0 && served.achieved_fnr < 1.0);
        assert!(served.fnr_clamped || served.achieved_fnr <= served.requested_fnr);
        // A different seed is a detected mismatch, not silent divergence.
        assert!(serve(0.0005, 43, &path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inspect_reports_header_and_checksum_status() {
        let path = std::env::temp_dir().join("bayeslsh_inspect_test.snap");
        let path = path.to_str().unwrap().to_string();
        let saved = save_index(0.0005, 42, &path).unwrap();

        let clean = inspect(&path).unwrap();
        assert_eq!(clean.header.n_vectors as usize, saved.n_vectors);
        assert_eq!(clean.bytes, saved.bytes);
        assert!(clean.damage.is_none());

        // Flip a byte near the end: the header still parses, but the
        // full checksum pass must flag the damage.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = inspect(&path).unwrap();
        assert_eq!(damaged.header, clean.header);
        assert!(damaged.damage.is_some());

        let _ = std::fs::remove_file(&path);
    }
}
