//! **Figure 2** and **Table 5** — the effect of varying γ, δ, ε one at a
//! time (the other two fixed at 0.05) on the running time and output
//! quality of LSH+BayesLSH, on the WikiWords100K-like dataset at t = 0.7
//! (cosine). LSH and LSH Approx reference timings are included, as in
//! Figure 2.

use bayeslsh_core::pipeline::ground_truth;
use bayeslsh_core::{
    estimate_errors, recall_against, run_composition, Composition, GeneratorKind, PipelineConfig,
    VerifierKind,
};
use bayeslsh_datasets::Preset;
use bayeslsh_lsh::Measure;
use bayeslsh_sparse::Dataset;

/// Which parameter a sweep row varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Varied {
    /// Accuracy parameter γ.
    Gamma,
    /// Accuracy parameter δ.
    Delta,
    /// Recall parameter ε.
    Epsilon,
}

impl Varied {
    /// Label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Varied::Gamma => "gamma",
            Varied::Delta => "delta",
            Varied::Epsilon => "epsilon",
        }
    }
}

/// One sweep measurement (a point of Figure 2 plus its Table 5 columns).
#[derive(Debug, Clone)]
pub struct ParamRow {
    /// Parameter being varied.
    pub varied: Varied,
    /// Its value (the other two parameters are fixed at 0.05).
    pub value: f64,
    /// LSH+BayesLSH total seconds.
    pub secs: f64,
    /// Fraction of estimates with error > 0.05 (Table 5, γ column).
    pub frac_err_above_005: f64,
    /// Mean absolute estimate error (Table 5, δ column).
    pub mean_err: f64,
    /// Recall vs the exact result (Table 5, ε column).
    pub recall: f64,
}

/// Reference timings for Figure 2's horizontal lines.
#[derive(Debug, Clone)]
pub struct ReferenceRow {
    /// Baseline composition.
    pub composition: Composition,
    /// Total seconds.
    pub secs: f64,
}

/// The values each parameter sweeps over (paper: 0.01 to 0.09 step 0.02).
pub const SWEEP: [f64; 5] = [0.01, 0.03, 0.05, 0.07, 0.09];

fn base_config(t: f64, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::cosine(t);
    cfg.epsilon = 0.05;
    cfg.delta = 0.05;
    cfg.gamma = 0.05;
    cfg.seed = seed;
    cfg
}

fn measure_row(
    data: &Dataset,
    truth: &[(u32, u32, f64)],
    varied: Varied,
    value: f64,
    cfg: &PipelineConfig,
) -> ParamRow {
    let lsh_bayes = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);
    let out = run_composition(lsh_bayes, data, cfg).expect("paper config runs");
    let err = estimate_errors(&out.pairs, data, Measure::Cosine, 0.05);
    ParamRow {
        varied,
        value,
        secs: out.total_secs,
        frac_err_above_005: err.frac_above,
        mean_err: err.mean_abs,
        recall: recall_against(truth, &out.pairs),
    }
}

/// Run the full sweep on the WikiWords100K-like preset at `t = 0.7`.
pub fn run(scale: f64, seed: u64) -> (Vec<ParamRow>, Vec<ReferenceRow>) {
    let data = Preset::WikiWords100K.load(scale, seed);
    run_on(&data, seed)
}

/// Run the sweep on a caller-provided dataset (used by tests and
/// examples).
pub fn run_on(data: &Dataset, seed: u64) -> (Vec<ParamRow>, Vec<ReferenceRow>) {
    let t = 0.7;
    let truth = ground_truth(data, Measure::Cosine, t);
    let mut rows = Vec::new();
    for &value in &SWEEP {
        let mut cfg = base_config(t, seed);
        cfg.gamma = value;
        rows.push(measure_row(data, &truth, Varied::Gamma, value, &cfg));
    }
    for &value in &SWEEP {
        let mut cfg = base_config(t, seed);
        cfg.delta = value;
        rows.push(measure_row(data, &truth, Varied::Delta, value, &cfg));
    }
    for &value in &SWEEP {
        let mut cfg = base_config(t, seed);
        cfg.epsilon = value;
        rows.push(measure_row(data, &truth, Varied::Epsilon, value, &cfg));
    }
    let references = [VerifierKind::Exact, VerifierKind::Mle]
        .into_iter()
        .map(|verifier| {
            let composition = Composition::new(GeneratorKind::LshBanding, verifier);
            let out = run_composition(composition, data, &base_config(t, seed))
                .expect("paper config runs");
            ReferenceRow {
                composition,
                secs: out.total_secs,
            }
        })
        .collect();
    (rows, references)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_expected_grid_and_quality_trends() {
        let (rows, refs) = run(0.0035, 11);
        assert_eq!(rows.len(), 15);
        assert_eq!(refs.len(), 2);

        // Table 5 trends: mean error grows with delta …
        let delta_rows: Vec<&ParamRow> =
            rows.iter().filter(|r| r.varied == Varied::Delta).collect();
        assert!(
            delta_rows.last().unwrap().mean_err >= delta_rows[0].mean_err,
            "mean error should not shrink as delta loosens: {:?}",
            delta_rows.iter().map(|r| r.mean_err).collect::<Vec<_>>()
        );
        // … and recall does not improve as epsilon grows.
        let eps_rows: Vec<&ParamRow> = rows
            .iter()
            .filter(|r| r.varied == Varied::Epsilon)
            .collect();
        assert!(
            eps_rows.last().unwrap().recall <= eps_rows[0].recall + 0.02,
            "recall should not grow with epsilon"
        );
        // Recall stays within the contract at every epsilon: fnr < eps
        // (with sampling slack).
        for r in &eps_rows {
            assert!(
                r.recall >= 1.0 - r.value - 0.08,
                "eps={}: recall {}",
                r.value,
                r.recall
            );
        }
    }
}
