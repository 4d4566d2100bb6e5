//! The posterior-inference interface shared by all BayesLSH instantiations,
//! and the one place a hash family picks its model.

use bayeslsh_lsh::{FamilyConfig, Measure};

use crate::cosine_model::CosineModel;
use crate::family_model::FamilyModel;
use crate::jaccard_model::JaccardModel;

/// Bayesian inference over a pair's similarity after observing hash
/// agreements.
///
/// `M(m, n)` denotes the event "m of the first n hashes matched". The
/// likelihood is `Pr[M(m,n) | S] = C(n,m) p^m (1−p)^{n−m}` where `p` is the
/// *hash collision* similarity; implementations relate `p` to the *target*
/// similarity (identity for Jaccard, `r = 1 − θ/π` for cosine) and place a
/// prior on it. All three queries are posed in the target similarity space.
pub trait PosteriorModel {
    /// `Pr[S ≥ t | M(m, n)]` — paper Equation 3. BayesLSH prunes a pair as
    /// soon as this drops below the recall parameter ε.
    fn prob_above_threshold(&self, m: u32, n: u32, t: f64) -> f64;

    /// The maximum-a-posteriori similarity estimate `Ŝ` — paper Equation 4.
    /// Requires `n > 0`.
    fn map_estimate(&self, m: u32, n: u32) -> f64;

    /// `Pr[|S − Ŝ| < δ | M(m, n)]` — paper Equation 6. BayesLSH stops
    /// comparing hashes once this reaches `1 − γ`.
    fn concentration(&self, m: u32, n: u32, delta: f64) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The posterior model a pipeline's hash family verifies with: the cosine
/// model for SRP bits (cosine, and MIPS on augmented vectors), a Jaccard
/// model for minhashes, and the family-generic model for L2. Batch joins,
/// threshold queries and top-k all choose their model here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Posterior {
    Cosine(CosineModel),
    Jaccard(JaccardModel),
    Family(FamilyModel),
}

impl Posterior {
    /// The model for `family`. `jaccard` supplies the Jaccard prior (fitted
    /// from a batch's candidates, uniform for point queries); it runs only
    /// for the Jaccard family.
    pub(crate) fn for_family(family: FamilyConfig, jaccard: impl FnOnce() -> JaccardModel) -> Self {
        match family.measure() {
            Measure::Cosine | Measure::Mips => Posterior::Cosine(CosineModel::new()),
            Measure::Jaccard => Posterior::Jaccard(jaccard()),
            Measure::L2 => Posterior::Family(FamilyModel::new(family)),
        }
    }
}

/// Forwards one call to the model inside a [`Posterior`], by static
/// dispatch (the verification loop makes no `dyn` call).
macro_rules! forward {
    ($self:ident, $m:ident => $call:expr) => {
        match $self {
            Posterior::Cosine($m) => $call,
            Posterior::Jaccard($m) => $call,
            Posterior::Family($m) => $call,
        }
    };
}

impl PosteriorModel for Posterior {
    fn prob_above_threshold(&self, m: u32, n: u32, t: f64) -> f64 {
        forward!(self, model => model.prob_above_threshold(m, n, t))
    }

    fn map_estimate(&self, m: u32, n: u32) -> f64 {
        forward!(self, model => model.map_estimate(m, n))
    }

    fn concentration(&self, m: u32, n: u32, delta: f64) -> f64 {
        forward!(self, model => model.concentration(m, n, delta))
    }

    fn name(&self) -> &'static str {
        forward!(self, model => model.name())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::PosteriorModel;

    /// Shared sanity battery run against every model implementation.
    pub fn check_model_invariants<M: PosteriorModel>(model: &M, t: f64) {
        // Monotone in m: more agreements, higher belief in S >= t.
        for n in [32u32, 64, 128, 256] {
            let mut prev = -1.0;
            for m in 0..=n {
                let p = model.prob_above_threshold(m, n, t);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&p),
                    "{}: prob out of range at m={m} n={n}: {p}",
                    model.name()
                );
                assert!(
                    p >= prev - 1e-9,
                    "{}: prob not monotone in m at m={m} n={n}: {p} < {prev}",
                    model.name()
                );
                prev = p;
            }
        }
        // MAP estimates live in [0, 1] and increase with m.
        for n in [32u32, 128] {
            let mut prev = -1.0;
            for m in 0..=n {
                let s = model.map_estimate(m, n);
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{}: MAP {s} at m={m} n={n}",
                    model.name()
                );
                assert!(
                    s >= prev - 1e-9,
                    "{}: MAP not monotone at m={m}",
                    model.name()
                );
                prev = s;
            }
        }
        // Concentration improves with evidence at a fixed agreement rate,
        // and wider delta never hurts.
        for &rate in &[0.6f64, 0.8, 0.95] {
            let c_small = model.concentration((rate * 64.0) as u32, 64, 0.05);
            let c_large = model.concentration((rate * 1024.0) as u32, 1024, 0.05);
            assert!(
                c_large >= c_small - 1e-6,
                "{}: concentration should grow with n at rate {rate}: {c_large} < {c_small}",
                model.name()
            );
            let narrow = model.concentration((rate * 256.0) as u32, 256, 0.01);
            let wide = model.concentration((rate * 256.0) as u32, 256, 0.10);
            assert!(
                wide >= narrow - 1e-9,
                "{}: concentration must be monotone in delta",
                model.name()
            );
        }
    }
}
