//! Workspace wiring smoke test: every algorithm the paper names must run
//! end-to-end on a tiny preset without panicking, through the facade's
//! re-exported surface alone. This guards the Cargo manifest wiring itself —
//! if a crate is dropped from the workspace or a re-export goes missing,
//! this file stops compiling or running long before the statistical tests
//! notice.

use bayeslsh::prelude::*;

#[test]
fn every_algorithm_smokes_on_weighted_cosine() {
    let data = Preset::Rcv1.load(0.0005, 11);
    assert!(data.len() > 10, "tiny preset unexpectedly empty");
    let cfg = PipelineConfig::cosine(0.7);
    for (name, comp) in Composition::PAPER {
        if comp.requires_binary(Measure::Cosine) {
            continue;
        }
        let out = run_composition(comp, &data, &cfg).unwrap();
        assert_eq!(out.composition, comp);
        sanity_check(name, &out, data.len() as u32);
    }
}

#[test]
fn every_algorithm_smokes_on_binary_jaccard() {
    let data = Preset::Twitter.load_binary(0.0008, 12);
    assert!(data.len() > 10, "tiny preset unexpectedly empty");
    let cfg = PipelineConfig::jaccard(0.4);
    for (name, comp) in Composition::PAPER {
        let out = run_composition(comp, &data, &cfg).unwrap();
        assert_eq!(out.composition, comp);
        sanity_check(name, &out, data.len() as u32);
    }
}

#[test]
fn every_algorithm_smokes_on_binary_cosine() {
    let data = Preset::Orkut.load_binary(0.0003, 13);
    assert!(data.len() > 10, "tiny preset unexpectedly empty");
    let cfg = PipelineConfig::cosine(0.6);
    for (name, comp) in Composition::PAPER {
        let out = run_composition(comp, &data, &cfg).unwrap();
        assert_eq!(out.composition, comp);
        sanity_check(name, &out, data.len() as u32);
    }
}

fn sanity_check(name: &str, out: &CompositionOutput, n: u32) {
    for &(a, b, s) in &out.pairs {
        assert!(a < b, "{name}: unordered pair ({a}, {b})");
        assert!(b < n, "{name}: id {b} out of range");
        assert!(
            (0.0..=1.0 + 1e-9).contains(&s),
            "{name}: similarity {s} out of range"
        );
    }
    assert!(out.total_secs >= 0.0);
}
