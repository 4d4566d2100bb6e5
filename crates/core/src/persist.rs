//! Persistent index snapshots: versioned save/load for the [`Searcher`].
//!
//! The paper's pipeline is build-once/verify-many, but without persistence
//! every process restart re-hashes the corpus and re-buckets the banding
//! index. This module makes the built searcher a durable artifact:
//! [`Searcher::save`] writes a versioned, endianness-explicit,
//! length-prefixed, checksummed binary snapshot of everything construction
//! paid for — the validated [`PipelineConfig`] (with its hash-family
//! seeds), the signature pool, the banding index, and the corpus — and
//! [`Searcher::load`] reconstructs a searcher whose every operation
//! (`all_pairs`, `query`, `top_k`, and `insert`-then-query) is
//! **bit-identical** to the searcher it was saved from, at any thread
//! count.
//!
//! # Format (version 1)
//!
//! ```text
//! magic            8 bytes  "BAYESLSH"
//! format_version   u32 LE
//! header           measure, generator, verifier, hash-mode tags (u8 each),
//!                  threads u32, sig_depth u32, n_vectors u64, dim u32,
//!                  total_hashes u64
//! sections         id u16 + byte-length u64 + payload, in fixed order:
//!                    1 config   pipeline parameters (seeds included)
//!                    2 corpus   the sparse vectors, weights bit-exact
//!                    3 pool     per-object signature words/minhashes
//!                    4 index    ascending id list + per-band key streams
//! checksum         u64 LE, FNV-1a over every preceding byte
//! ```
//!
//! All integers and float bit-patterns are little-endian
//! ([`bayeslsh_numeric::wire`]). Two deliberate economies keep snapshots
//! corpus-sized: hash-function banks (SRP hyperplanes, minhash permutation
//! keys) are *re-derived* from their stored seeds at load — they are pure
//! functions, so the rebuilt banks are bit-identical and `insert()` after
//! load hashes exactly as before — and the banding index's bucket maps are
//! *replayed* from per-band id-ordered key streams, reproducing the saved
//! maps' iteration order (and therefore downstream candidate order; see
//! [`bayeslsh_candgen::BandingIndex::write_wire`]).
//!
//! # Versioning policy
//!
//! Any change to the byte layout bumps [`SNAPSHOT_FORMAT_VERSION`];
//! [`Searcher::load`] rejects other versions with
//! [`SnapshotError::UnsupportedVersion`] rather than guessing. The
//! committed golden fixture (`tests/fixtures/snapshot_v1.bin`) holds the
//! CI line: a layout change that forgets the bump fails the
//! `snapshot-compat` job.
//!
//! # Failure modes
//!
//! [`Searcher::load`] never panics on untrusted input: wrong magic is
//! [`SnapshotError::BadMagic`], unknown versions are
//! [`SnapshotError::UnsupportedVersion`], truncation/bit-rot is
//! [`SnapshotError::Corrupt`] (every byte is checksummed, so silent
//! mis-loads are off the table), and internally inconsistent but
//! well-formed content — a Jaccard header over a cosine pool, banding
//! parameters that disagree with the config's plan — is
//! [`SnapshotError::ConfigMismatch`].
//!
//! Loading is also resource-bounded against *crafted* (checksum-valid but
//! adversarial) input: every variable-length read is bounded by the bytes
//! physically present in the stream, and hash-bank regeneration is clamped
//! to what the snapshot's own signatures and its config-revalidated build
//! depth justify — a bare count in the payload can never size an
//! allocation or a compute loop on its own. Memory and CPU at load are
//! therefore bounded by what a *legitimate* build of the declared
//! corpus/config would itself use.

use std::io::{Read, Write};

use bayeslsh_candgen::BandingIndex;
use bayeslsh_lsh::{
    BitSignatures, FamilyConfig, IntSignatures, Measure, ProjSignatures, SignaturePool,
};
use bayeslsh_numeric::wire::{WireError, WireReader, WireWriter};
use bayeslsh_numeric::Parallelism;
use bayeslsh_sparse::Dataset;

use crate::compose::{Composition, GeneratorKind, SigPool, VerifierKind};
use crate::error::ConfigDiff;
use crate::pipeline::{PipelineConfig, PriorChoice};
use crate::searcher::{HashMode, Searcher, SearcherParts};

/// The 8-byte snapshot magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BAYESLSH";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

const SECTION_CONFIG: u16 = 1;
const SECTION_CORPUS: u16 = 2;
const SECTION_POOL: u16 = 3;
const SECTION_INDEX: u16 = 4;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot declares a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A section is truncated, fails the checksum, or decodes to
    /// structurally invalid content.
    Corrupt {
        /// Which part of the snapshot was corrupt.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// Sections are individually well-formed but disagree with each other
    /// (e.g. the header's measure versus the pool's hash family).
    ConfigMismatch {
        /// What disagreed.
        detail: String,
        /// The structured expected-versus-found view of the disagreement,
        /// when it concerns a single nameable field (shared shape with
        /// `SearchError::InvalidConfig` and the shard manifest errors).
        diff: Option<ConfigDiff>,
    },
    /// The underlying reader/writer failed for a non-truncation reason.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a BayesLSH snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 {SNAPSHOT_FORMAT_VERSION})"
            ),
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "corrupt snapshot ({section}): {detail}")
            }
            SnapshotError::ConfigMismatch { detail, .. } => {
                write!(f, "snapshot sections disagree: {detail}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Attribute a wire-level failure to a snapshot section.
fn in_section<T>(section: &'static str, r: Result<T, WireError>) -> Result<T, SnapshotError> {
    r.map_err(|e| match e {
        WireError::Io(e) => SnapshotError::Io(e),
        WireError::Truncated => SnapshotError::Corrupt {
            section,
            detail: "truncated".into(),
        },
        WireError::Corrupt { detail } => SnapshotError::Corrupt { section, detail },
    })
}

fn corrupt(section: &'static str, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        section,
        detail: detail.into(),
    }
}

fn mismatch(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::ConfigMismatch {
        detail: detail.into(),
        diff: None,
    }
}

fn mismatch_diff(diff: ConfigDiff) -> SnapshotError {
    SnapshotError::ConfigMismatch {
        detail: diff.to_string(),
        diff: Some(diff),
    }
}

/// The probe-able snapshot header: everything needed to decide whether (and
/// how) to load a snapshot, readable without touching the bulk payload.
///
/// [`SnapshotHeader::read`] consumes only the fixed-size prefix, so probing
/// a multi-gigabyte snapshot costs a few dozen bytes of I/O. Note the
/// header is *not* checksum-verified on its own — only a full
/// [`Searcher::load`] proves integrity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version the snapshot was written with.
    pub format_version: u32,
    /// Similarity measure the searcher was built for.
    pub measure: Measure,
    /// The composition (candidate generator × verifier) it runs.
    pub composition: Composition,
    /// When corpus signatures are hashed.
    pub hash_mode: HashMode,
    /// Worker-thread budget resolved at build time.
    pub threads: u32,
    /// Depth every indexed vector is hashed to at build/insert time.
    pub sig_depth: u32,
    /// Number of corpus vectors.
    pub n_vectors: u64,
    /// Feature-space dimensionality.
    pub dim: u32,
    /// Total corpus hashes the snapshot carries (the rebuild cost a load
    /// avoids).
    pub total_hashes: u64,
}

impl SnapshotHeader {
    /// Probe a snapshot's header. Fails with [`SnapshotError::BadMagic`] /
    /// [`SnapshotError::UnsupportedVersion`] / [`SnapshotError::Corrupt`]
    /// exactly as [`Searcher::load`] would, but reads only the fixed-size
    /// prefix.
    pub fn read<R: Read>(r: R) -> Result<Self, SnapshotError> {
        let mut r = WireReader::new(r);
        read_header(&mut r)
    }
}

fn measure_tag(m: Measure) -> u8 {
    match m {
        Measure::Cosine => 0,
        Measure::Jaccard => 1,
        Measure::L2 => 2,
        Measure::Mips => 3,
    }
}

fn generator_tag(g: GeneratorKind) -> u8 {
    match g {
        GeneratorKind::AllPairs => 0,
        GeneratorKind::LshBanding => 1,
        GeneratorKind::PpjoinPlus => 2,
    }
}

fn verifier_tag(v: VerifierKind) -> u8 {
    match v {
        VerifierKind::Exact => 0,
        VerifierKind::Mle => 1,
        VerifierKind::Bayes => 2,
        VerifierKind::BayesLite => 3,
        VerifierKind::Sprt => 4,
    }
}

fn read_header<R: Read>(r: &mut WireReader<R>) -> Result<SnapshotHeader, SnapshotError> {
    const S: &str = "header";
    let mut magic = [0u8; 8];
    match r.get_bytes(&mut magic) {
        Ok(()) => {}
        Err(WireError::Truncated) => return Err(SnapshotError::BadMagic),
        Err(e) => return in_section(S, Err(e)),
    }
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let format_version = in_section(S, r.get_u32())?;
    if format_version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: format_version,
        });
    }
    let measure = match in_section(S, r.get_u8())? {
        0 => Measure::Cosine,
        1 => Measure::Jaccard,
        2 => Measure::L2,
        3 => Measure::Mips,
        other => return Err(corrupt(S, format!("unknown measure tag {other}"))),
    };
    let generator = match in_section(S, r.get_u8())? {
        0 => GeneratorKind::AllPairs,
        1 => GeneratorKind::LshBanding,
        2 => GeneratorKind::PpjoinPlus,
        other => return Err(corrupt(S, format!("unknown generator tag {other}"))),
    };
    let verifier = match in_section(S, r.get_u8())? {
        0 => VerifierKind::Exact,
        1 => VerifierKind::Mle,
        2 => VerifierKind::Bayes,
        3 => VerifierKind::BayesLite,
        4 => VerifierKind::Sprt,
        other => return Err(corrupt(S, format!("unknown verifier tag {other}"))),
    };
    let hash_mode = match in_section(S, r.get_u8())? {
        0 => HashMode::Eager,
        1 => HashMode::Lazy,
        other => return Err(corrupt(S, format!("unknown hash-mode tag {other}"))),
    };
    let threads = in_section(S, r.get_u32())?;
    if threads == 0 {
        return Err(corrupt(S, "zero thread budget"));
    }
    let sig_depth = in_section(S, r.get_u32())?;
    let n_vectors = in_section(S, r.get_u64())?;
    let dim = in_section(S, r.get_u32())?;
    let total_hashes = in_section(S, r.get_u64())?;
    Ok(SnapshotHeader {
        format_version,
        measure,
        composition: Composition::new(generator, verifier),
        hash_mode,
        threads,
        sig_depth,
        n_vectors,
        dim,
        total_hashes,
    })
}

/// Stage a section payload, then write it length-prefixed through the
/// checksumming outer writer.
fn write_section<W: Write>(
    w: &mut WireWriter<W>,
    id: u16,
    build: impl FnOnce(&mut WireWriter<Vec<u8>>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut staging = WireWriter::new(Vec::new());
    build(&mut staging)?;
    let payload = staging.into_inner();
    w.put_u16(id)?;
    w.put_u64(payload.len() as u64)?;
    w.put_bytes(&payload)
}

/// Read one length-prefixed section, enforcing the fixed section order.
fn read_section<R: Read>(
    r: &mut WireReader<R>,
    want: u16,
    name: &'static str,
) -> Result<Vec<u8>, SnapshotError> {
    let id = in_section(name, r.get_u16())?;
    if id != want {
        return Err(corrupt(
            name,
            format!("expected section id {want}, found {id}"),
        ));
    }
    let len = in_section(name, r.get_u64())?;
    in_section(name, r.get_byte_vec(len))
}

/// Parse a buffered section payload, requiring it to be consumed exactly.
fn parse_section<T>(
    name: &'static str,
    payload: &[u8],
    f: impl FnOnce(&mut WireReader<&[u8]>) -> Result<T, WireError>,
) -> Result<T, SnapshotError> {
    let mut r = WireReader::new(payload);
    let v = in_section(name, f(&mut r))?;
    if r.bytes_read() != payload.len() as u64 {
        return Err(corrupt(
            name,
            format!(
                "{} trailing bytes after payload",
                payload.len() as u64 - r.bytes_read()
            ),
        ));
    }
    Ok(v)
}

fn write_config<W: Write>(w: &mut WireWriter<W>, cfg: &PipelineConfig) -> Result<(), WireError> {
    w.put_f64(cfg.threshold)?;
    w.put_u64(cfg.seed)?;
    w.put_f64(cfg.epsilon)?;
    w.put_f64(cfg.delta)?;
    w.put_f64(cfg.gamma)?;
    w.put_u32(cfg.k)?;
    w.put_u32(cfg.max_hashes)?;
    w.put_u32(cfg.lite_h)?;
    w.put_u32(cfg.approx_hashes)?;
    w.put_u32(cfg.band_width)?;
    w.put_f64(cfg.lsh_fnr)?;
    w.put_u8(match cfg.prior {
        PriorChoice::Uniform => 0,
        PriorChoice::Fitted => 1,
    })?;
    w.put_u64(cfg.prior_sample as u64)?;
    // Trailing fields, appended after the original v1 layout. Readers take
    // them only when bytes remain in the section, so snapshots written
    // before these fields existed (the committed golden fixtures) still
    // parse: they default to single-probe and the measure's default family.
    w.put_u64(cfg.probes as u64)?;
    if let Some(r) = cfg.family.l2_width() {
        w.put_f64(r)?;
    }
    Ok(())
}

fn read_config<R: Read>(
    r: &mut WireReader<R>,
    measure: Measure,
    threads: usize,
    section_len: u64,
) -> Result<PipelineConfig, WireError> {
    let threshold = r.get_f64()?;
    let seed = r.get_u64()?;
    let epsilon = r.get_f64()?;
    let delta = r.get_f64()?;
    let gamma = r.get_f64()?;
    let k = r.get_u32()?;
    let max_hashes = r.get_u32()?;
    let lite_h = r.get_u32()?;
    let approx_hashes = r.get_u32()?;
    let band_width = r.get_u32()?;
    let lsh_fnr = r.get_f64()?;
    let prior = match r.get_u8()? {
        0 => PriorChoice::Uniform,
        1 => PriorChoice::Fitted,
        other => return Err(WireError::corrupt(format!("unknown prior tag {other}"))),
    };
    let prior_sample = r.get_u64()?;
    if prior_sample > usize::MAX as u64 {
        return Err(WireError::corrupt("prior sample size out of range"));
    }
    let probes = if r.bytes_read() < section_len {
        let p = r.get_u64()?;
        if p == 0 || p > usize::MAX as u64 {
            return Err(WireError::corrupt(format!("probe count {p} out of range")));
        }
        p as usize
    } else {
        1
    };
    let family = match measure {
        Measure::L2 => {
            if r.bytes_read() >= section_len {
                return Err(WireError::corrupt("L2 config is missing its bucket width"));
            }
            FamilyConfig::L2 { r: r.get_f64()? }
        }
        other => FamilyConfig::for_measure(other),
    };
    Ok(PipelineConfig {
        family,
        probes,
        threshold,
        seed,
        epsilon,
        delta,
        gamma,
        k,
        max_hashes,
        lite_h,
        approx_hashes,
        band_width,
        lsh_fnr,
        prior,
        prior_sample: prior_sample as usize,
        parallelism: Parallelism::threads(threads.min(u32::MAX as usize) as u32),
    })
}

impl Searcher {
    /// Write a versioned binary snapshot of this searcher (see the
    /// [module docs](crate::persist) for the format). A subsequent
    /// [`Searcher::load`] reconstructs a searcher whose batch, query,
    /// top-k, and insert-then-query behaviour is bit-identical to this one.
    ///
    /// The writer is used as-is — wrap files in
    /// [`std::io::BufWriter`] for throughput.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the searcher carries
    /// pending tombstones (call [`Searcher::compact`] first — the v1
    /// format has no tombstone notion, and compaction folds removals into
    /// the snapshot-stable empty-vector representation); otherwise only
    /// transport failures, as every serialization step is infallible for
    /// a well-formed searcher.
    pub fn save<W: Write>(&self, w: W) -> std::io::Result<()> {
        if self.pending_removals() > 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "snapshot with {} pending removals: call compact() before save()",
                    self.pending_removals()
                ),
            ));
        }
        let mut w = WireWriter::new(w);
        self.write_snapshot(&mut w)
            .and_then(|()| w.finish().map(|_| ()))
            .map_err(|e| match e {
                WireError::Io(e) => e,
                other => std::io::Error::other(other.to_string()),
            })
    }

    fn write_snapshot<W: Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        w.put_bytes(&SNAPSHOT_MAGIC)?;
        w.put_u32(SNAPSHOT_FORMAT_VERSION)?;
        let cfg = self.config();
        w.put_u8(measure_tag(cfg.family.measure()))?;
        w.put_u8(generator_tag(self.composition().generator))?;
        w.put_u8(verifier_tag(self.composition().verifier))?;
        w.put_u8(match self.hash_mode() {
            HashMode::Eager => 0,
            HashMode::Lazy => 1,
        })?;
        w.put_u32(self.threads().min(u32::MAX as usize) as u32)?;
        w.put_u32(self.sig_depth())?;
        w.put_u64(self.data().len() as u64)?;
        w.put_u32(self.data().dim())?;
        w.put_u64(self.hash_count())?;
        write_section(w, SECTION_CONFIG, |s| write_config(s, cfg))?;
        write_section(w, SECTION_CORPUS, |s| self.data().write_wire(s))?;
        write_section(w, SECTION_POOL, |s| match &*self.pool() {
            SigPool::Bits(p) => {
                s.put_u8(0)?;
                p.write_wire(s)
            }
            SigPool::Ints(p) => {
                s.put_u8(1)?;
                p.write_wire(s)
            }
            SigPool::Projs(p) => {
                s.put_u8(2)?;
                p.write_wire(s)
            }
        })?;
        write_section(w, SECTION_INDEX, |s| self.index().write_wire(s))
    }

    /// Load a snapshot written by [`Searcher::save`], restoring the saved
    /// thread budget. See [`Searcher::load_with_parallelism`] to re-resolve
    /// the budget for the loading host (output is bit-identical either
    /// way).
    ///
    /// The whole stream is checksum-verified before any content is
    /// interpreted, and every section is cross-validated against the
    /// header and the recomputed banding plan — corrupt or inconsistent
    /// input yields a typed [`SnapshotError`], never a panic or a
    /// silently wrong searcher.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn load<R: Read>(r: R) -> Result<Searcher, SnapshotError> {
        Self::load_impl(r, None)
    }

    /// [`Searcher::load`] with the worker-thread budget re-resolved from
    /// `parallelism` instead of the snapshot's saved budget — e.g. load a
    /// snapshot built single-threaded onto a many-core serving host. The
    /// searcher's results are bit-identical whatever the budget (the
    /// workspace-wide parallel-equals-serial guarantee).
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn load_with_parallelism<R: Read>(
        r: R,
        parallelism: Parallelism,
    ) -> Result<Searcher, SnapshotError> {
        Self::load_impl(r, Some(parallelism))
    }

    fn load_impl<R: Read>(
        r: R,
        parallelism: Option<Parallelism>,
    ) -> Result<Searcher, SnapshotError> {
        let mut r = WireReader::new(r);
        let header = read_header(&mut r)?;
        let threads = parallelism.map_or(header.threads as usize, |p| p.resolve());

        // Buffer every section, then verify the stream checksum BEFORE
        // interpreting any content: a flipped byte is reported as corruption
        // up front instead of surfacing as a confusing parse error (or not
        // at all).
        let config_bytes = read_section(&mut r, SECTION_CONFIG, "config")?;
        let corpus_bytes = read_section(&mut r, SECTION_CORPUS, "corpus")?;
        let pool_bytes = read_section(&mut r, SECTION_POOL, "pool")?;
        let index_bytes = read_section(&mut r, SECTION_INDEX, "index")?;
        in_section("checksum", r.verify_checksum())?;

        let cfg = parse_section("config", &config_bytes, |s| {
            read_config(s, header.measure, threads, config_bytes.len() as u64)
        })?;
        cfg.validate()
            .map_err(|e| corrupt("config", e.to_string()))?;
        // Recompute the build depth exactly as `SearcherBuilder::build`
        // would and require the header to agree — this both rejects
        // inconsistent snapshots and turns `sig_depth` into a *validated*
        // bound the pool deserializers may use to clamp hash-bank
        // regeneration (a bare header integer must not size anything).
        let expected_depth = {
            let banding = cfg.banding_plan().params.total_hashes();
            match header.hash_mode {
                HashMode::Eager => banding.max(header.composition.verifier.signature_depth(&cfg)),
                HashMode::Lazy => banding,
            }
        };
        if header.sig_depth != expected_depth {
            return Err(mismatch_diff(ConfigDiff::new(
                "sig_depth",
                expected_depth,
                header.sig_depth,
            )));
        }
        // The closure is not redundant: the bare fn item fixes one
        // concrete reader lifetime and fails the higher-ranked bound.
        #[allow(clippy::redundant_closure)]
        let data = parse_section("corpus", &corpus_bytes, |s| Dataset::read_wire(s))?;
        let pool = parse_section("pool", &pool_bytes, |s| {
            Ok(match s.get_u8()? {
                0 => SigPool::Bits(BitSignatures::read_wire(s, threads, header.sig_depth)?),
                1 => SigPool::Ints(IntSignatures::read_wire(s, header.sig_depth)?),
                2 => SigPool::Projs(ProjSignatures::read_wire(s, threads, header.sig_depth)?),
                other => {
                    return Err(WireError::corrupt(format!("unknown pool tag {other}")));
                }
            })
        })?;
        let id_bound = data.len().min(u32::MAX as usize) as u32;
        let index = parse_section("index", &index_bytes, |s| {
            BandingIndex::read_wire(s, id_bound, threads)
        })?;

        Self::cross_validate(&header, &cfg, &data, &pool, &index)?;
        Ok(Searcher::from_parts(SearcherParts {
            data,
            cfg,
            composition: header.composition,
            mode: header.hash_mode,
            threads,
            sig_depth: header.sig_depth,
            pool,
            index,
        }))
    }

    /// The cross-section consistency checks: sections that parsed cleanly
    /// must also agree with the header and with the banding plan the
    /// loaded config recomputes.
    fn cross_validate(
        header: &SnapshotHeader,
        cfg: &PipelineConfig,
        data: &Dataset,
        pool: &SigPool,
        index: &BandingIndex,
    ) -> Result<(), SnapshotError> {
        if data.len() as u64 != header.n_vectors || data.dim() != header.dim {
            return Err(mismatch(format!(
                "header says {} vectors over dim {}, corpus has {} over {}",
                header.n_vectors,
                header.dim,
                data.len(),
                data.dim()
            )));
        }
        let (pool_objects, pool_name) = match pool {
            SigPool::Bits(p) => (p.n_objects(), "srp-bits"),
            SigPool::Ints(p) => (p.n_objects(), "minhash-ints"),
            SigPool::Projs(p) => (p.n_objects(), "e2lsh-projs"),
        };
        let expected_pool = match header.measure {
            Measure::Cosine | Measure::Mips => "srp-bits",
            Measure::Jaccard => "minhash-ints",
            Measure::L2 => "e2lsh-projs",
        };
        if pool_name != expected_pool {
            return Err(mismatch_diff(ConfigDiff::new(
                "pool",
                expected_pool,
                pool_name,
            )));
        }
        if pool_objects != data.len() {
            return Err(mismatch(format!(
                "pool holds {pool_objects} objects, corpus {}",
                data.len()
            )));
        }
        if pool.total_hashes() != header.total_hashes {
            return Err(mismatch(format!(
                "header accounts {} hashes, pool {}",
                header.total_hashes,
                pool.total_hashes()
            )));
        }
        let hasher_dim = match pool {
            SigPool::Bits(p) => Some(p.hasher().dim()),
            SigPool::Projs(p) => Some(p.hasher().dim()),
            SigPool::Ints(_) => None,
        };
        if let Some(hasher_dim) = hasher_dim {
            if hasher_dim != data.dim() {
                return Err(mismatch(format!(
                    "hasher dim {hasher_dim} versus corpus dim {}",
                    data.dim()
                )));
            }
        }
        if let SigPool::Projs(p) = pool {
            let cfg_r = cfg.family.l2_width().unwrap_or(f64::NAN);
            if p.hasher().r().to_bits() != cfg_r.to_bits() {
                return Err(mismatch_diff(ConfigDiff::new(
                    "family.r",
                    cfg_r,
                    p.hasher().r(),
                )));
            }
        }
        let plan = cfg.banding_plan();
        if index.params() != plan.params {
            return Err(mismatch(format!(
                "index banding {:?} versus the config's plan {:?}",
                index.params(),
                plan.params
            )));
        }
        let non_empty = data.vectors().iter().filter(|v| !v.is_empty()).count();
        if index.len() != non_empty {
            return Err(mismatch(format!(
                "index holds {} ids, corpus has {non_empty} non-empty vectors",
                index.len()
            )));
        }
        for (id, v) in data.iter() {
            if !v.is_empty() && pool.len(id) < plan.params.total_hashes() {
                return Err(corrupt(
                    "pool",
                    format!(
                        "vector {id} hashed to {} of the banding depth {}",
                        pool.len(id),
                        plan.params.total_hashes()
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::SparseVector;

    const LITE: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(600);
        for c in 0..4 {
            let center: Vec<(u32, f32)> = (0..18)
                .map(|_| {
                    (
                        (c * 140 + rng.next_below(130) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..5 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(600) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    fn snapshot_bytes() -> Vec<u8> {
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(LITE)
            .parallelism(Parallelism::serial())
            .build(corpus(77))
            .unwrap();
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn header_probe_matches_searcher_metadata() {
        let bytes = snapshot_bytes();
        let h = SnapshotHeader::read(&bytes[..]).unwrap();
        assert_eq!(h.format_version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(h.measure, Measure::Cosine);
        assert_eq!(h.composition, LITE);
        assert_eq!(h.hash_mode, HashMode::Eager);
        assert_eq!(h.threads, 1);
        assert_eq!(h.n_vectors, 20);
        assert!(h.total_hashes > 0);
    }

    #[test]
    fn load_round_trips_and_preserves_metadata() {
        let bytes = snapshot_bytes();
        let loaded = Searcher::load(&bytes[..]).unwrap();
        assert_eq!(loaded.len(), 20);
        assert_eq!(loaded.threads(), 1);
        assert_eq!(loaded.composition(), LITE);
        // Thread-budget override re-resolves without touching results.
        let wide = Searcher::load_with_parallelism(&bytes[..], Parallelism::threads(4)).unwrap();
        assert_eq!(wide.threads(), 4);
        assert_eq!(wide.hash_count(), loaded.hash_count());
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let bytes = snapshot_bytes();
        let mut evil = bytes.clone();
        evil[0] ^= 0xFF;
        assert!(matches!(
            Searcher::load(&evil[..]),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Searcher::load(&b"hello"[..]),
            Err(SnapshotError::BadMagic)
        ));
        let mut evil = bytes.clone();
        evil[8] = 99; // version LE low byte
        assert!(matches!(
            Searcher::load(&evil[..]),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn checksum_catches_payload_flips() {
        let bytes = snapshot_bytes();
        // Flip one byte deep inside the payload (past the header).
        let mut evil = bytes.clone();
        let at = bytes.len() / 2;
        evil[at] ^= 0x10;
        match Searcher::load(&evil[..]) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_corrupt_not_a_panic() {
        let bytes = snapshot_bytes();
        for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
            let r = Searcher::load(&bytes[..cut]);
            assert!(
                matches!(
                    r,
                    Err(SnapshotError::Corrupt { .. }) | Err(SnapshotError::BadMagic)
                ),
                "cut at {cut}: {r:?}"
            );
        }
    }
}
