//! Pipeline configuration and exact ground truth.
//!
//! [`PipelineConfig`] carries every knob of the paper's Section 5.1 setup
//! (threshold, the ε/δ/γ guarantees, hash budgets, the banding plan, the
//! hash family and the thread budget) and derives the engine-level configs
//! from it; [`ground_truth`] is the exact join recall is measured against.
//! The paper's eight algorithms are points of the generator × verifier
//! grid in [`crate::compose`], named by
//! [`crate::compose::Composition::PAPER`]; run one with
//! [`crate::compose::run_composition`], or build a
//! [`crate::searcher::Searcher`] to hash and index a corpus once for many
//! operations.

use bayeslsh_candgen::{all_pairs_cosine, all_pairs_jaccard, BandingParams, BandingPlan};
use bayeslsh_lsh::{FamilyConfig, Measure};
use bayeslsh_numeric::Parallelism;
use bayeslsh_sparse::{l2_similarity, Dataset};

use crate::config::{BayesLshConfig, LiteConfig, SprtConfig};
use crate::error::SearchError;

/// Prior selection for the Jaccard posterior model (paper Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorChoice {
    /// Uniform Beta(1, 1).
    Uniform,
    /// Method-of-moments Beta fit to a random sample of candidate-pair
    /// similarities.
    Fitted,
}

/// Full pipeline configuration; defaults follow the paper's Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// The hash family (and thereby the target similarity measure) this
    /// pipeline runs under, with its per-family parameters.
    pub family: FamilyConfig,
    /// Similarity threshold `t`.
    pub threshold: f64,
    /// Master seed; hash families derive their streams from it.
    pub seed: u64,
    /// Recall parameter ε (paper: 0.03).
    pub epsilon: f64,
    /// Accuracy parameter δ (paper: 0.05).
    pub delta: f64,
    /// Accuracy parameter γ (paper: 0.03).
    pub gamma: f64,
    /// Hashes compared per iteration (paper: 32).
    pub k: u32,
    /// Hash cap per pair for full BayesLSH.
    pub max_hashes: u32,
    /// BayesLSH-Lite budget `h` (paper: 128 cosine / 64 Jaccard).
    pub lite_h: u32,
    /// Fixed hash count for LSH Approx (paper: 2048 cosine / 360 Jaccard).
    pub approx_hashes: u32,
    /// Band width `k` of the LSH index.
    pub band_width: u32,
    /// Expected false-negative rate of the LSH index (paper: 0.03).
    pub lsh_fnr: f64,
    /// Prior for the Jaccard model.
    pub prior: PriorChoice,
    /// Candidate-pair sample size for the fitted prior.
    pub prior_sample: usize,
    /// Buckets probed per band when querying the LSH index (step-wise
    /// multi-probe, Lv et al. VLDB'07): 1 is classical banding; larger
    /// values additionally probe the buckets whose band keys differ in the
    /// lowest-margin bit, letting an index built with fewer bands reach the
    /// same recall. Only bit families (cosine / MIPS) perturb keys;
    /// integer-hash families treat any value as 1.
    pub probes: usize,
    /// Worker-thread budget for hashing, banding-index construction, and
    /// candidate verification. Output is bit-identical to the serial path
    /// whatever the setting (see the crate's "Parallelism & determinism"
    /// docs); the default [`Parallelism::Auto`] resolves to
    /// `BAYESLSH_THREADS` or the available cores.
    pub parallelism: Parallelism,
}

/// Safety cap on the number of LSH bands. When the `l` formula demands
/// more, [`PipelineConfig::banding_plan`] reports the clamp (and the
/// weakened false-negative rate) instead of hiding it.
const MAX_BANDS: u32 = 10_000;

impl PipelineConfig {
    /// Paper defaults for cosine similarity at threshold `t`.
    pub fn cosine(threshold: f64) -> Self {
        Self {
            family: FamilyConfig::Cosine,
            threshold,
            seed: 42,
            epsilon: 0.03,
            delta: 0.05,
            gamma: 0.03,
            k: 32,
            max_hashes: 2048,
            lite_h: 128,
            approx_hashes: 2048,
            band_width: 8,
            lsh_fnr: 0.03,
            prior: PriorChoice::Uniform,
            prior_sample: 1000,
            probes: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// Paper defaults for Jaccard similarity at threshold `t`.
    pub fn jaccard(threshold: f64) -> Self {
        Self {
            family: FamilyConfig::Jaccard,
            threshold,
            seed: 42,
            epsilon: 0.03,
            delta: 0.05,
            gamma: 0.03,
            k: 32,
            max_hashes: 512,
            lite_h: 64,
            approx_hashes: 360,
            band_width: 3,
            lsh_fnr: 0.03,
            prior: PriorChoice::Fitted,
            prior_sample: 1000,
            probes: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// Defaults for L2 similarity `s = 1/(1 + d)` at threshold `t` with
    /// E2LSH bucket width `r`. The integer-valued bucket hashes share the
    /// Jaccard-style verification budgets; the prior is uniform (the
    /// fitted Beta prior is a Jaccard-specific device).
    pub fn l2(threshold: f64, r: f64) -> Self {
        Self {
            family: FamilyConfig::L2 { r },
            threshold,
            seed: 42,
            epsilon: 0.03,
            delta: 0.05,
            gamma: 0.03,
            k: 32,
            max_hashes: 512,
            lite_h: 64,
            approx_hashes: 360,
            band_width: 3,
            lsh_fnr: 0.03,
            prior: PriorChoice::Uniform,
            prior_sample: 1000,
            probes: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// Defaults for maximum inner product at *augmented-cosine* threshold
    /// `t`. The corpus must already be lifted through
    /// [`bayeslsh_lsh::MipsTransform`] (and queries through
    /// `MipsTransform::augment_query`); internally this is the cosine/SRP
    /// machinery on its own seed stream, so all cosine defaults carry over.
    pub fn mips(threshold: f64) -> Self {
        Self {
            family: FamilyConfig::Mips,
            ..Self::cosine(threshold)
        }
    }

    /// Check every parameter against its admissible range, with a
    /// descriptive [`SearchError::InvalidConfig`] on the first violation.
    /// Every entry point that runs a config calls this before it hashes
    /// anything: [`crate::compose::run_composition`],
    /// [`crate::searcher::SearcherBuilder::build`] and snapshot loading.
    pub fn validate(&self) -> Result<(), SearchError> {
        fn unit_open(param: &'static str, v: f64) -> Result<(), SearchError> {
            if v > 0.0 && v < 1.0 {
                Ok(())
            } else {
                Err(SearchError::invalid(
                    param,
                    format!("must lie in (0, 1), got {v}"),
                ))
            }
        }
        if !(self.threshold > 0.0 && self.threshold <= 1.0) {
            return Err(SearchError::invalid(
                "threshold",
                format!("must lie in (0, 1], got {}", self.threshold),
            ));
        }
        unit_open("epsilon", self.epsilon)?;
        unit_open("delta", self.delta)?;
        unit_open("gamma", self.gamma)?;
        unit_open("lsh_fnr", self.lsh_fnr)?;
        if self.k == 0 {
            return Err(SearchError::invalid("k", "chunk size must be positive"));
        }
        if self.band_width == 0 {
            return Err(SearchError::invalid(
                "band_width",
                "band width must be positive",
            ));
        }
        if let Err((param, message)) = self.family.validate() {
            return Err(SearchError::invalid(param, message));
        }
        if self.band_width > 64 && matches!(self.family.measure(), Measure::Cosine | Measure::Mips)
        {
            return Err(SearchError::invalid(
                "band_width",
                format!(
                    "bit band keys are packed into u64 (band_width <= 64), got {}",
                    self.band_width
                ),
            ));
        }
        if self.probes == 0 {
            return Err(SearchError::invalid(
                "probes",
                "at least the base bucket is probed per band (probes >= 1)",
            ));
        }
        if self.max_hashes < self.k {
            return Err(SearchError::invalid(
                "max_hashes",
                format!(
                    "hash cap {} is below one chunk of k = {}",
                    self.max_hashes, self.k
                ),
            ));
        }
        if self.lite_h < self.k {
            return Err(SearchError::invalid(
                "lite_h",
                format!(
                    "Lite budget {} is below one chunk of k = {}",
                    self.lite_h, self.k
                ),
            ));
        }
        if self.approx_hashes == 0 {
            return Err(SearchError::invalid(
                "approx_hashes",
                "fixed MLE hash count must be positive",
            ));
        }
        if self.prior == PriorChoice::Fitted && self.prior_sample == 0 {
            return Err(SearchError::invalid(
                "prior_sample",
                "fitted prior needs a positive sample size",
            ));
        }
        Ok(())
    }

    /// The engine configuration for full BayesLSH verification.
    pub fn bayes(&self) -> BayesLshConfig {
        BayesLshConfig {
            threshold: self.threshold,
            epsilon: self.epsilon,
            delta: self.delta,
            gamma: self.gamma,
            k: self.k,
            max_hashes: self.max_hashes,
        }
    }

    /// The engine configuration for BayesLSH-Lite verification.
    pub fn lite(&self) -> LiteConfig {
        LiteConfig {
            threshold: self.threshold,
            epsilon: self.epsilon,
            k: self.k,
            h: self.lite_h,
        }
    }

    /// The engine configuration for SPRT verification. The Wald error
    /// bounds reuse the Bayesian error budget: α (the probability of
    /// pruning a pair with `S ≥ t`, i.e. the recall knob) is `epsilon`,
    /// β (the probability of accepting a pair with `S ≤ t − δ`, the
    /// precision knob) is `gamma`, and the indifference half-width is
    /// `delta` — so a config tuned for BayesLSH carries the same guarantees
    /// over unchanged. The hash cap is Lite-style shallow (4·`lite_h`,
    /// never above `max_hashes`): a pair the sequential test has not
    /// decided by then is settled by one exact similarity, so the cap
    /// trades hash-comparison cost against exact-verification cost and
    /// has no bearing on the α/β guarantees.
    pub fn sprt(&self) -> SprtConfig {
        SprtConfig {
            threshold: self.threshold,
            alpha: self.epsilon,
            beta: self.gamma,
            delta: self.delta,
            k: self.k,
            max_hashes: (4 * self.lite_h).clamp(self.k, self.max_hashes),
        }
    }

    /// The banding configuration this pipeline indexes with, including the
    /// achieved (vs. requested) false-negative rate — which differ when
    /// the internal band cap truncates the `l` formula.
    pub fn banding_plan(&self) -> BandingPlan {
        let p = self.family.collision_one(self.threshold);
        BandingParams::plan(p, self.band_width, self.lsh_fnr, MAX_BANDS)
    }
}

/// Exact ground truth for `(measure, threshold)` via the fastest exact
/// algorithm (AllPairs).
pub fn ground_truth(data: &Dataset, measure: Measure, threshold: f64) -> Vec<(u32, u32, f64)> {
    match measure {
        Measure::Cosine => all_pairs_cosine(data, threshold),
        Measure::Jaccard => all_pairs_jaccard(data, threshold),
        // MIPS corpora are pre-augmented, so inner-product order *is*
        // cosine order (see `bayeslsh_lsh::mips`).
        Measure::Mips => all_pairs_cosine(data, threshold),
        Measure::L2 => all_pairs_l2(data, threshold),
    }
}

/// Exact L2-similarity join by brute force (no inverted-index bounds apply
/// to `1/(1 + d)`); skips empty vectors like the candidate paths do.
pub(crate) fn all_pairs_l2(data: &Dataset, threshold: f64) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    for a in 0..data.len() as u32 {
        if data.vector(a).is_empty() {
            continue;
        }
        for b in (a + 1)..data.len() as u32 {
            if data.vector(b).is_empty() {
                continue;
            }
            let s = l2_similarity(data.vector(a), data.vector(b));
            if s >= threshold {
                out.push((a, b, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{
        run_composition, Composition, CompositionOutput, GeneratorKind, VerifierKind,
    };
    use crate::metrics::{estimate_errors, recall_against};
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::SparseVector;

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(3000);
        for c in 0..10 {
            let center: Vec<(u32, f32)> = (0..35)
                .map(|_| {
                    (
                        (c * 250 + rng.next_below(230) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..6 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(3000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    /// The one-shot run every test below makes; all configs here are valid.
    fn run(comp: Composition, data: &Dataset, cfg: &PipelineConfig) -> CompositionOutput {
        run_composition(comp, data, cfg).unwrap_or_else(|e| panic!("{comp}: {e}"))
    }

    /// The paper's composition named `name`.
    fn paper(name: &str) -> Composition {
        Composition::PAPER
            .into_iter()
            .find(|&(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap()
    }

    /// AllPairs and PPJoin+ are exact; plain LSH is not (its verification
    /// is, but banding misses an expected ε-fraction of true pairs).
    fn is_exact(comp: Composition) -> bool {
        comp.verifier == VerifierKind::Exact && comp.generator != GeneratorKind::LshBanding
    }

    #[test]
    fn cosine_pipelines_agree_with_ground_truth() {
        let data = corpus(91);
        let cfg = PipelineConfig::cosine(0.7);
        let gt = ground_truth(&data, Measure::Cosine, 0.7);
        assert!(gt.len() >= 20, "ground truth too small: {}", gt.len());

        for (name, comp) in Composition::PAPER {
            if comp.requires_binary(Measure::Cosine) {
                continue;
            }
            let out = run(comp, &data, &cfg);
            let recall = recall_against(&gt, &out.pairs);
            let min_recall = if is_exact(comp) { 1.0 } else { 0.88 };
            assert!(
                recall >= min_recall,
                "{name}: recall {recall} (expected >= {min_recall}), output {} truth {}",
                out.pairs.len(),
                gt.len()
            );
            assert!(out.total_secs >= 0.0);
            if !is_exact(comp) {
                assert!(out.candidates > 0, "{name} should report candidates");
            }
        }
    }

    #[test]
    fn jaccard_pipelines_agree_with_ground_truth() {
        let data = corpus(92).binarized();
        let cfg = PipelineConfig::jaccard(0.5);
        let gt = ground_truth(&data, Measure::Jaccard, 0.5);
        assert!(gt.len() >= 20, "ground truth too small: {}", gt.len());

        for (name, comp) in Composition::PAPER {
            let out = run(comp, &data, &cfg);
            let recall = recall_against(&gt, &out.pairs);
            let min_recall = if is_exact(comp) { 1.0 } else { 0.88 };
            assert!(recall >= min_recall, "{name}: recall {recall}");
        }
    }

    #[test]
    fn binary_cosine_ppjoin_matches_allpairs() {
        let data = corpus(93).binarized();
        let cfg = PipelineConfig::cosine(0.7);
        let ap = run(paper("AllPairs"), &data, &cfg);
        let pp = run(paper("PPJoin+"), &data, &cfg);
        let ids = |v: &[(u32, u32, f64)]| {
            let mut v: Vec<(u32, u32)> = v.iter().map(|&(a, b, _)| (a, b)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&ap.pairs), ids(&pp.pairs));
    }

    #[test]
    fn bayeslsh_estimates_respect_accuracy_contract() {
        let data = corpus(94);
        let cfg = PipelineConfig::cosine(0.6);
        let out = run(paper("LSH+BayesLSH"), &data, &cfg);
        assert!(!out.pairs.is_empty());
        let stats = estimate_errors(&out.pairs, &data, Measure::Cosine, cfg.delta);
        // Pr[error >= delta] < gamma holds in expectation; allow slack for
        // the finite sample.
        assert!(
            stats.frac_above <= cfg.gamma + 0.07,
            "fraction of >delta errors: {} (n={})",
            stats.frac_above,
            stats.n
        );
    }

    #[test]
    fn bayeslsh_prunes_most_false_positives_early() {
        // The Figure 4 story: the candidate set shrinks by orders of
        // magnitude within a few chunks.
        let data = corpus(95);
        let cfg = PipelineConfig::cosine(0.7);
        let out = run(paper("LSH+BayesLSH"), &data, &cfg);
        let stats = out.engine.expect("BayesLSH reports stats");
        let curve = stats.survivors_curve();
        let total = curve[0].1 as f64;
        let after_128 = curve
            .iter()
            .find(|&&(h, _)| h == 128)
            .map(|&(_, c)| c)
            .unwrap() as f64;
        assert!(
            after_128 / total < 0.5,
            "after 128 hashes {} of {} candidates remain",
            after_128,
            total
        );
    }

    #[test]
    fn ppjoin_rejects_weighted_vectors() {
        let data = corpus(96);
        let cfg = PipelineConfig::cosine(0.7);
        assert_eq!(
            run_composition(paper("PPJoin+"), &data, &cfg).unwrap_err(),
            SearchError::NonBinaryData {
                requires: "PPJoin+"
            }
        );
    }

    #[test]
    fn fitted_prior_runs_and_keeps_recall() {
        let data = corpus(97).binarized();
        let mut cfg = PipelineConfig::jaccard(0.5);
        cfg.prior = PriorChoice::Fitted;
        let fitted = run(paper("AP+BayesLSH"), &data, &cfg);
        cfg.prior = PriorChoice::Uniform;
        let uniform = run(paper("AP+BayesLSH"), &data, &cfg);
        let gt = ground_truth(&data, Measure::Jaccard, 0.5);
        assert!(recall_against(&gt, &fitted.pairs) >= 0.88);
        assert!(recall_against(&gt, &uniform.pairs) >= 0.88);
    }

    #[test]
    fn validate_accepts_paper_defaults() {
        PipelineConfig::cosine(0.7).validate().unwrap();
        PipelineConfig::jaccard(0.5).validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_parameters() {
        // Weighted vectors: the config check comes before the binary-input
        // check, so even the Jaccard config below reports its parameter.
        let data = corpus(99);
        let bad_from = |base: PipelineConfig, mutate: fn(&mut PipelineConfig), param: &str| {
            let mut cfg = base;
            mutate(&mut cfg);
            match cfg.validate() {
                Err(SearchError::InvalidConfig { param: p, .. }) => {
                    assert_eq!(p, param, "wrong field reported")
                }
                other => panic!("expected InvalidConfig for {param}, got {other:?}"),
            }
            // The one-shot runner rejects the same config with the same
            // error instead of panicking or silently running it.
            for verifier in [
                VerifierKind::Bayes,
                VerifierKind::BayesLite,
                VerifierKind::Sprt,
            ] {
                let comp = Composition::new(GeneratorKind::LshBanding, verifier);
                match run_composition(comp, &data, &cfg) {
                    Err(SearchError::InvalidConfig { param: p, .. }) => {
                        assert_eq!(p, param, "{comp}: wrong field reported")
                    }
                    other => panic!("{comp}: expected InvalidConfig for {param}, got {other:?}"),
                }
            }
        };
        let bad = |mutate: fn(&mut PipelineConfig), param: &str| {
            bad_from(PipelineConfig::cosine(0.7), mutate, param)
        };
        bad(|c| c.threshold = 0.0, "threshold");
        bad(|c| c.threshold = 1.5, "threshold");
        bad(|c| c.threshold = f64::NAN, "threshold");
        bad(|c| c.epsilon = 0.0, "epsilon");
        bad(|c| c.epsilon = 1.0, "epsilon");
        bad(|c| c.delta = 0.0, "delta");
        bad(|c| c.delta = -0.05, "delta");
        bad(|c| c.gamma = 1.0, "gamma");
        bad(|c| c.gamma = 2.0, "gamma");
        bad(|c| c.lsh_fnr = 0.0, "lsh_fnr");
        bad(|c| c.k = 0, "k");
        bad(|c| c.band_width = 0, "band_width");
        bad(|c| c.band_width = 65, "band_width");
        bad(|c| c.max_hashes = 16, "max_hashes");
        bad(|c| c.lite_h = 8, "lite_h");
        bad(|c| c.approx_hashes = 0, "approx_hashes");
        bad_from(
            PipelineConfig::jaccard(0.5),
            |c| c.prior_sample = 0,
            "prior_sample",
        );
    }

    #[test]
    fn banding_plan_reports_the_clamp() {
        // A jaccard threshold this low with wide bands wants more than
        // MAX_BANDS bands; the plan must say the guarantee was weakened.
        let mut cfg = PipelineConfig::jaccard(0.05);
        cfg.band_width = 8;
        let plan = cfg.banding_plan();
        assert!(plan.clamped);
        assert_eq!(plan.params.l, 10_000);
        assert!(plan.achieved_fnr > plan.requested_fnr);
        // Defaults are unclamped and meet the requested rate.
        let plan = PipelineConfig::cosine(0.7).banding_plan();
        assert!(!plan.clamped);
        assert!(plan.achieved_fnr <= plan.requested_fnr);
    }
}
