//! Property tests for snapshot robustness: **no byte-level corruption may
//! panic, hang, or silently mis-load**. Every flipped byte and every
//! truncation of a valid snapshot must surface as a typed
//! [`SnapshotError`] — the checksum covers the whole stream, so there is
//! no byte whose corruption goes unnoticed.

use std::sync::OnceLock;

use bayeslsh_core::{
    Composition, GeneratorKind, Parallelism, PipelineConfig, Searcher, SnapshotError,
    SnapshotHeader, VerifierKind,
};
use bayeslsh_numeric::Xoshiro256;
use bayeslsh_sparse::{Dataset, SparseVector};
use proptest::prelude::*;

fn corpus(seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut d = Dataset::new(500);
    for c in 0..3 {
        let center: Vec<(u32, f32)> = (0..15)
            .map(|_| {
                (
                    (c * 160 + rng.next_below(150) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for _ in 0..4 {
            let mut pairs = center.clone();
            for p in pairs.iter_mut() {
                if rng.next_bool(0.2) {
                    *p = (rng.next_below(500) as u32, (rng.next_f64() + 0.3) as f32);
                }
            }
            d.push(SparseVector::from_pairs(pairs));
        }
    }
    d
}

/// One pristine snapshot, built once and shared across cases.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .composition(Composition::new(
                GeneratorKind::LshBanding,
                VerifierKind::BayesLite,
            ))
            .parallelism(Parallelism::serial())
            .build(corpus(999))
            .unwrap();
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        bytes
    })
}

/// The typed-failure contract: an `Err` of any [`SnapshotError`] variant.
/// (Reaching this function at all means no panic happened.)
fn assert_typed_failure(result: Result<Searcher, SnapshotError>, what: &str) {
    match result {
        Err(
            SnapshotError::BadMagic
            | SnapshotError::UnsupportedVersion { .. }
            | SnapshotError::Corrupt { .. }
            | SnapshotError::ConfigMismatch { .. }
            | SnapshotError::Io(_),
        ) => {}
        Ok(_) => panic!("{what}: corrupt snapshot loaded successfully"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flipping_any_byte_yields_a_typed_error(
        offset in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let pristine = snapshot();
        let at = offset % pristine.len();
        let mut evil = pristine.to_vec();
        evil[at] ^= mask; // mask >= 1, so the byte really changes
        assert_typed_failure(Searcher::load(&evil[..]), "byte flip");
        // Header probing must stay panic-free too (flips past the header
        // leave it readable — that is fine, probing does not verify the
        // checksum).
        let _ = SnapshotHeader::read(&evil[..]);
    }

    #[test]
    fn truncating_anywhere_yields_a_typed_error(cut in 0usize..1_000_000) {
        let pristine = snapshot();
        let at = cut % pristine.len(); // strictly shorter than the full stream
        assert_typed_failure(Searcher::load(&pristine[..at]), "truncation");
        let _ = SnapshotHeader::read(&pristine[..at]);
    }

    #[test]
    fn corrupting_the_trailing_checksum_yields_a_typed_error(
        which in 0usize..8,
        mask in 1u8..=255,
    ) {
        let pristine = snapshot();
        let mut evil = pristine.to_vec();
        let at = pristine.len() - 8 + which;
        evil[at] ^= mask;
        assert_typed_failure(Searcher::load(&evil[..]), "checksum corruption");
    }
}

#[test]
fn pristine_snapshot_still_loads() {
    // Guard against a degenerate pass where everything fails: the
    // unmodified bytes must load.
    let s = Searcher::load(snapshot()).unwrap();
    assert_eq!(s.len(), 12);
}
