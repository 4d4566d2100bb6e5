//! The shard manifest: the small, checksummed file that makes a
//! directory of shard snapshots a *servable set* rather than loose
//! files.
//!
//! A manifest records the partition function (so a router can replay
//! the exact global-id → shard assignment), the serving-wide corpus
//! facts (total vectors, feature-space dimensionality), a fingerprint
//! of the build configuration, and — per shard — the snapshot file
//! name, its vector count, and the FNV-1a checksum of its bytes on
//! disk. Opening a manifest therefore proves, before any query runs,
//! that every shard is present, untampered, and from the same build.
//!
//! ## Wire format (version 1)
//!
//! All integers little-endian, written with [`WireWriter`]:
//!
//! ```text
//! magic            8 bytes  b"BLSHSHRD"
//! format_version   u32      1
//! partition tag    u8       0 = round-robin, 1 = hashed
//! partition seed   u64      0 for round-robin
//! shard_count      u32      >= 1
//! n_total          u64      sum of per-shard vector counts
//! dim              u32      feature-space dimensionality (global)
//! config_fingerprint u64    see [`config_fingerprint`]
//! per shard:
//!   file name      u32 length + UTF-8 bytes (relative to the manifest)
//!   n_vectors      u64
//!   checksum       u64      FNV-1a 64 of the snapshot file's bytes
//! checksum         u64      FNV-1a 64 of everything above
//! ```

use std::path::Path;

use bayeslsh_core::{
    Composition, GeneratorKind, HashMode, Measure, PipelineConfig, PriorChoice, VerifierKind,
};
use bayeslsh_numeric::wire::WireError;
use bayeslsh_numeric::{derive_seed, WireReader, WireWriter};

use crate::error::ShardError;

/// Magic bytes a shard manifest starts with.
pub const MANIFEST_MAGIC: [u8; 8] = *b"BLSHSHRD";

/// Current manifest format version.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// Default manifest file name inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.blsh";

/// Deterministic global-id → shard assignment policies. The policy and
/// its seed are recorded in the manifest, so builders and routers —
/// possibly different processes years apart — replay the identical
/// assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionFn {
    /// `shard = id mod n_shards`: perfectly balanced, locality-blind.
    RoundRobin,
    /// `shard = mix(seed, id) mod n_shards` with a SplitMix64-style
    /// mixer: pseudo-random balance, decorrelated from insertion order.
    Hashed {
        /// Mixer seed.
        seed: u64,
    },
}

impl PartitionFn {
    /// The shard that owns global id `id` among `n_shards` shards.
    pub fn shard_of(&self, id: u32, n_shards: usize) -> usize {
        debug_assert!(n_shards > 0);
        match self {
            PartitionFn::RoundRobin => id as usize % n_shards,
            PartitionFn::Hashed { seed } => {
                (derive_seed(*seed, id as u64) % n_shards as u64) as usize
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            PartitionFn::RoundRobin => 0,
            PartitionFn::Hashed { .. } => 1,
        }
    }

    fn seed(&self) -> u64 {
        match self {
            PartitionFn::RoundRobin => 0,
            PartitionFn::Hashed { seed } => *seed,
        }
    }

    fn from_wire(tag: u8, seed: u64) -> Result<Self, ShardError> {
        match tag {
            0 => Ok(PartitionFn::RoundRobin),
            1 => Ok(PartitionFn::Hashed { seed }),
            other => Err(ShardError::CorruptManifest {
                detail: format!("unknown partition tag {other}"),
            }),
        }
    }
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Snapshot file name, relative to the manifest's directory.
    pub file: String,
    /// Number of corpus vectors the shard holds.
    pub n_vectors: u64,
    /// FNV-1a 64 checksum of the snapshot file's bytes.
    pub checksum: u64,
}

/// A parsed (and checksum-verified) shard manifest. See the
/// [module docs](self) for the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Format version the manifest was written with.
    pub format_version: u32,
    /// The global-id → shard assignment policy.
    pub partition: PartitionFn,
    /// Total corpus vectors across all shards.
    pub n_total: u64,
    /// Feature-space dimensionality (identical on every shard — the
    /// foundation of cross-shard signature identity).
    pub dim: u32,
    /// Fingerprint of the build configuration every shard must match;
    /// see [`config_fingerprint`].
    pub config_fingerprint: u64,
    /// Per-shard entries, in shard order.
    pub shards: Vec<ShardEntry>,
}

/// Map a wire-level failure onto the manifest error vocabulary.
fn wire_err(e: WireError) -> ShardError {
    match e {
        WireError::Io(e) => ShardError::Io(e),
        WireError::Truncated => ShardError::CorruptManifest {
            detail: "truncated".into(),
        },
        WireError::Corrupt { detail } => ShardError::CorruptManifest { detail },
    }
}

impl ShardManifest {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Serialize to bytes (including the trailing stream checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new(Vec::new());
        let r: Result<(), WireError> = (|| {
            w.put_bytes(&MANIFEST_MAGIC)?;
            w.put_u32(self.format_version)?;
            w.put_u8(self.partition.tag())?;
            w.put_u64(self.partition.seed())?;
            w.put_u32(self.shards.len() as u32)?;
            w.put_u64(self.n_total)?;
            w.put_u32(self.dim)?;
            w.put_u64(self.config_fingerprint)?;
            for s in &self.shards {
                w.put_u32(s.file.len() as u32)?;
                w.put_bytes(s.file.as_bytes())?;
                w.put_u64(s.n_vectors)?;
                w.put_u64(s.checksum)?;
            }
            Ok(())
        })();
        r.expect("writing to a Vec cannot fail");
        w.finish().expect("writing to a Vec cannot fail")
    }

    /// Parse a manifest from bytes, verifying the trailing checksum and
    /// the internal count invariants.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadMagic`], [`ShardError::UnsupportedVersion`], or
    /// [`ShardError::CorruptManifest`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShardError> {
        let mut r = WireReader::new(bytes);
        let mut magic = [0u8; 8];
        match r.get_bytes(&mut magic) {
            Ok(()) => {}
            Err(WireError::Truncated) => return Err(ShardError::BadMagic),
            Err(e) => return Err(wire_err(e)),
        }
        if magic != MANIFEST_MAGIC {
            return Err(ShardError::BadMagic);
        }
        let format_version = r.get_u32().map_err(wire_err)?;
        if format_version != MANIFEST_FORMAT_VERSION {
            return Err(ShardError::UnsupportedVersion {
                found: format_version,
            });
        }
        let tag = r.get_u8().map_err(wire_err)?;
        let seed = r.get_u64().map_err(wire_err)?;
        let partition = PartitionFn::from_wire(tag, seed)?;
        let shard_count = r.get_u32().map_err(wire_err)?;
        if shard_count == 0 {
            return Err(ShardError::CorruptManifest {
                detail: "zero shards".into(),
            });
        }
        let n_total = r.get_u64().map_err(wire_err)?;
        let dim = r.get_u32().map_err(wire_err)?;
        let config_fingerprint = r.get_u64().map_err(wire_err)?;
        let mut shards = Vec::with_capacity(shard_count.min(65_536) as usize);
        for _ in 0..shard_count {
            let name_len = r.get_u32().map_err(wire_err)? as u64;
            let name = r.get_byte_vec(name_len).map_err(wire_err)?;
            let file = String::from_utf8(name).map_err(|_| ShardError::CorruptManifest {
                detail: "shard file name is not UTF-8".into(),
            })?;
            let n_vectors = r.get_u64().map_err(wire_err)?;
            let checksum = r.get_u64().map_err(wire_err)?;
            shards.push(ShardEntry {
                file,
                n_vectors,
                checksum,
            });
        }
        r.verify_checksum().map_err(wire_err)?;
        let sum: u64 = shards.iter().map(|s| s.n_vectors).sum();
        if sum != n_total {
            return Err(ShardError::CorruptManifest {
                detail: format!("per-shard counts sum to {sum}, manifest says {n_total}"),
            });
        }
        Ok(ShardManifest {
            format_version,
            partition,
            n_total,
            dim,
            config_fingerprint,
            shards,
        })
    }

    /// Write the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), ShardError> {
        std::fs::write(path, self.to_bytes()).map_err(ShardError::Io)
    }

    /// Read and verify a manifest from `path`.
    pub fn load(path: &Path) -> Result<Self, ShardError> {
        let bytes = std::fs::read(path).map_err(ShardError::Io)?;
        Self::from_bytes(&bytes)
    }
}

/// A 64-bit fingerprint of everything that determines a build's output
/// besides the corpus: the hash family (measure tag plus per-family
/// parameters such as the E2LSH bucket width), the generator × verifier
/// composition, the hash mode, the multi-probe budget, and every
/// [`PipelineConfig`] field *except* `parallelism` (thread budgets change
/// wall-clock, never results — the workspace's parallel-equals-serial
/// guarantee). Two shards fingerprint equal iff a router may merge their
/// results into one bit-identical answer.
pub fn config_fingerprint(cfg: &PipelineConfig, composition: Composition, mode: HashMode) -> u64 {
    let mut w = WireWriter::new(Vec::new());
    let r: Result<(), WireError> = (|| {
        w.put_u8(match cfg.family.measure() {
            Measure::Cosine => 0,
            Measure::Jaccard => 1,
            Measure::L2 => 2,
            Measure::Mips => 3,
        })?;
        w.put_f64(cfg.family.l2_width().unwrap_or(0.0))?;
        w.put_u64(cfg.probes as u64)?;
        w.put_u8(match composition.generator {
            GeneratorKind::AllPairs => 0,
            GeneratorKind::LshBanding => 1,
            GeneratorKind::PpjoinPlus => 2,
        })?;
        w.put_u8(match composition.verifier {
            VerifierKind::Exact => 0,
            VerifierKind::Mle => 1,
            VerifierKind::Bayes => 2,
            VerifierKind::BayesLite => 3,
            VerifierKind::Sprt => 4,
        })?;
        w.put_u8(match mode {
            HashMode::Eager => 0,
            HashMode::Lazy => 1,
        })?;
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
        Ok(())
    })();
    r.expect("writing to a Vec cannot fail");
    w.checksum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            format_version: MANIFEST_FORMAT_VERSION,
            partition: PartitionFn::Hashed { seed: 7 },
            n_total: 5,
            dim: 100,
            config_fingerprint: 0xDEAD_BEEF,
            shards: vec![
                ShardEntry {
                    file: "shard_0000.snap".into(),
                    n_vectors: 3,
                    checksum: 1,
                },
                ShardEntry {
                    file: "shard_0001.snap".into(),
                    n_vectors: 2,
                    checksum: 2,
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let back = ShardManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            ShardManifest::from_bytes(&bytes),
            Err(ShardError::BadMagic)
        ));
        assert!(matches!(
            ShardManifest::from_bytes(b"short"),
            Err(ShardError::BadMagic)
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // format_version low byte
        assert!(matches!(
            ShardManifest::from_bytes(&bytes),
            Err(ShardError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn flipped_body_byte_fails_the_checksum() {
        let bytes = sample().to_bytes();
        for i in 13..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(
                matches!(
                    ShardManifest::from_bytes(&b),
                    Err(ShardError::CorruptManifest { .. })
                ),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for len in 8..bytes.len() {
            assert!(
                matches!(
                    ShardManifest::from_bytes(&bytes[..len]),
                    Err(ShardError::CorruptManifest { .. })
                ),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn count_mismatch_is_detected() {
        let mut m = sample();
        m.n_total = 99;
        assert!(matches!(
            ShardManifest::from_bytes(&m.to_bytes()),
            Err(ShardError::CorruptManifest { .. })
        ));
    }

    #[test]
    fn partition_is_total_and_stable() {
        for n in 1..8usize {
            for id in 0..100u32 {
                let s = PartitionFn::RoundRobin.shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, id as usize % n);
                let h = PartitionFn::Hashed { seed: 42 }.shard_of(id, n);
                assert!(h < n);
                assert_eq!(h, PartitionFn::Hashed { seed: 42 }.shard_of(id, n));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_config_not_parallelism() {
        let cfg = PipelineConfig::cosine(0.7);
        let comp = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);
        let base = config_fingerprint(&cfg, comp, HashMode::Eager);
        let mut par = cfg;
        par.parallelism = bayeslsh_numeric::Parallelism::threads(4);
        assert_eq!(base, config_fingerprint(&par, comp, HashMode::Eager));
        let mut other = cfg;
        other.seed = 43;
        assert_ne!(base, config_fingerprint(&other, comp, HashMode::Eager));
        assert_ne!(base, config_fingerprint(&cfg, comp, HashMode::Lazy));
        let lsh = Composition::new(GeneratorKind::LshBanding, VerifierKind::Exact);
        assert_ne!(base, config_fingerprint(&cfg, lsh, HashMode::Eager));
    }
}
