//! Shared fixtures for the cross-cutting equivalence suites: the single
//! source of truth for which compositions the parallel / snapshot / shard
//! matrices must cover.
#![allow(dead_code)] // each test binary uses the subset it needs

use bayeslsh::prelude::*;

/// Every named composition the equivalence matrices cover: the paper's
/// eight algorithms plus the off-grid SPRT verifier over LSH banding.
pub fn all_compositions() -> Vec<Composition> {
    let mut comps: Vec<Composition> = Composition::PAPER.iter().map(|&(_, c)| c).collect();
    comps.push(Composition::new(
        GeneratorKind::LshBanding,
        VerifierKind::Sprt,
    ));
    comps
}

/// Whether a composition can verify weighted (non-binary) vectors.
pub fn supports_weighted(comp: Composition) -> bool {
    !comp.requires_binary(Measure::Cosine)
}
