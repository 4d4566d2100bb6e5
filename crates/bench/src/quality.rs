//! **Table 3** (recall of the AllPairs+BayesLSH variants) and **Table 4**
//! (fraction of similarity estimates with error > 0.05, LSH Approx vs
//! LSH+BayesLSH).

use bayeslsh_core::pipeline::ground_truth;
use bayeslsh_core::{
    estimate_errors, recall_against, run_composition, Composition, GeneratorKind, PipelineConfig,
    VerifierKind,
};
use bayeslsh_datasets::Preset;
use bayeslsh_lsh::Measure;

/// One recall measurement (Table 3).
#[derive(Debug, Clone)]
pub struct RecallRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Composition measured.
    pub composition: Composition,
    /// Similarity threshold.
    pub threshold: f64,
    /// Recall against the exact result (percent).
    pub recall_pct: f64,
    /// Size of the exact result set.
    pub truth_size: usize,
}

/// Table 3: recall of AP+BayesLSH and AP+BayesLSH-Lite across datasets and
/// thresholds (weighted cosine, as in the paper).
pub fn table3(presets: &[Preset], thresholds: &[f64], scale: f64, seed: u64) -> Vec<RecallRow> {
    let mut rows = Vec::new();
    for &preset in presets {
        let data = preset.load(scale, seed);
        for &t in thresholds {
            let truth = ground_truth(&data, Measure::Cosine, t);
            let mut cfg = PipelineConfig::cosine(t);
            cfg.seed = seed;
            for verifier in [VerifierKind::Bayes, VerifierKind::BayesLite] {
                let composition = Composition::new(GeneratorKind::AllPairs, verifier);
                let out = run_composition(composition, &data, &cfg).expect("paper config runs");
                rows.push(RecallRow {
                    dataset: preset.name(),
                    composition,
                    threshold: t,
                    recall_pct: 100.0 * recall_against(&truth, &out.pairs),
                    truth_size: truth.len(),
                });
            }
        }
    }
    rows
}

/// One estimate-accuracy measurement (Table 4).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Composition measured.
    pub composition: Composition,
    /// Similarity threshold.
    pub threshold: f64,
    /// Percentage of emitted estimates with |error| > 0.05.
    pub pct_err_above_005: f64,
    /// Mean absolute estimate error.
    pub mean_err: f64,
    /// Number of estimates.
    pub n_estimates: usize,
}

/// Table 4: estimate-error comparison between LSH Approx and LSH+BayesLSH
/// (weighted cosine).
pub fn table4(presets: &[Preset], thresholds: &[f64], scale: f64, seed: u64) -> Vec<AccuracyRow> {
    let mut rows = Vec::new();
    for &preset in presets {
        let data = preset.load(scale, seed);
        for &t in thresholds {
            let mut cfg = PipelineConfig::cosine(t);
            cfg.seed = seed;
            for verifier in [VerifierKind::Mle, VerifierKind::Bayes] {
                let composition = Composition::new(GeneratorKind::LshBanding, verifier);
                let out = run_composition(composition, &data, &cfg).expect("paper config runs");
                let stats = estimate_errors(&out.pairs, &data, Measure::Cosine, 0.05);
                rows.push(AccuracyRow {
                    dataset: preset.name(),
                    composition,
                    threshold: t,
                    pct_err_above_005: 100.0 * stats.frac_above,
                    mean_err: stats.mean_abs,
                    n_estimates: stats.n,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_recall_is_high_on_a_small_preset() {
        let rows = table3(&[Preset::Rcv1], &[0.7], 0.0015, 5);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.truth_size > 0, "{}: empty ground truth", r.dataset);
            assert!(
                r.recall_pct >= 90.0,
                "{} {}: recall {}",
                r.dataset,
                r.composition,
                r.recall_pct
            );
        }
    }

    #[test]
    fn table4_bayeslsh_estimates_are_accurate() {
        let rows = table4(&[Preset::Rcv1], &[0.6], 0.0015, 6);
        assert_eq!(rows.len(), 2);
        let bayes = rows
            .iter()
            .find(|r| r.composition.verifier == VerifierKind::Bayes)
            .unwrap();
        assert!(bayes.n_estimates > 0);
        // The (δ=0.05, γ=0.03) contract bounds the error-above-0.05
        // fraction near γ; allow finite-sample slack.
        assert!(
            bayes.pct_err_above_005 <= 12.0,
            "BayesLSH errors > 0.05: {}%",
            bayes.pct_err_above_005
        );
    }
}
