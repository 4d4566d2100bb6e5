//! **Figure 3** (timing sweeps) and **Table 2** (fastest BayesLSH variant
//! and speedups).
//!
//! The paper times seven algorithms on six tf-idf/cosine datasets
//! (Figures 3a–f) and eight algorithms on the binary versions of the three
//! largest datasets under Jaccard (3g–i) and cosine (3j–l), sweeping the
//! similarity threshold. Table 2 aggregates the same sweeps: total time per
//! algorithm across thresholds, the fastest BayesLSH variant, and its
//! speedup over each baseline.

use std::collections::{BTreeMap, HashMap};

use bayeslsh_core::{run_composition, Composition, GeneratorKind, PipelineConfig, VerifierKind};
use bayeslsh_datasets::Preset;
use bayeslsh_lsh::Measure;
use bayeslsh_sparse::Dataset;
use GeneratorKind::{AllPairs, LshBanding, PpjoinPlus};
use VerifierKind::{Bayes, BayesLite, Exact, Mle};

/// Which of the paper's three experiment families to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Figures 3(a)–(f): tf-idf weighted vectors, cosine.
    WeightedCosine,
    /// Figures 3(g)–(i): binary vectors, Jaccard.
    BinaryJaccard,
    /// Figures 3(j)–(l): binary vectors, cosine.
    BinaryCosine,
}

impl Family {
    /// Family label used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Family::WeightedCosine => "Tf-Idf, Cosine",
            Family::BinaryJaccard => "Binary, Jaccard",
            Family::BinaryCosine => "Binary, Cosine",
        }
    }

    /// Threshold sweep (paper: cosine 0.5–0.9, Jaccard 0.3–0.7).
    pub fn thresholds(&self) -> &'static [f64] {
        match self {
            Family::BinaryJaccard => &[0.3, 0.4, 0.5, 0.6, 0.7],
            _ => &[0.5, 0.6, 0.7, 0.8, 0.9],
        }
    }

    /// Datasets (paper: all six for weighted; the three largest-nnz for
    /// binary).
    pub fn presets(&self) -> &'static [Preset] {
        match self {
            Family::WeightedCosine => &Preset::ALL,
            _ => &[Preset::WikiWords500K, Preset::Orkut, Preset::Twitter],
        }
    }

    /// The paper's algorithms, in its order (PPJoin+ applies only to
    /// binary data).
    pub fn compositions(&self) -> Vec<Composition> {
        let weighted = *self == Family::WeightedCosine;
        Composition::PAPER
            .iter()
            .map(|&(_, c)| c)
            .filter(|c| !(weighted && c.requires_binary(self.measure())))
            .collect()
    }

    /// Target similarity measure.
    pub fn measure(&self) -> Measure {
        match self {
            Family::BinaryJaccard => Measure::Jaccard,
            _ => Measure::Cosine,
        }
    }

    /// Load a preset dataset in this family's representation.
    pub fn load(&self, preset: Preset, scale: f64, seed: u64) -> Dataset {
        match self {
            Family::WeightedCosine => preset.load(scale, seed),
            _ => preset.load_binary(scale, seed),
        }
    }

    /// Pipeline configuration at threshold `t`.
    pub fn config(&self, t: f64, seed: u64) -> PipelineConfig {
        let mut cfg = match self.measure() {
            Measure::Jaccard => PipelineConfig::jaccard(t),
            _ => PipelineConfig::cosine(t),
        };
        cfg.seed = seed;
        cfg
    }
}

/// One timing measurement.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Experiment family.
    pub family: Family,
    /// Dataset name.
    pub dataset: &'static str,
    /// Composition timed.
    pub composition: Composition,
    /// Similarity threshold.
    pub threshold: f64,
    /// Total wall-clock seconds.
    pub secs: f64,
    /// Output pairs.
    pub output: usize,
    /// Candidate pairs (0 for single-phase algorithms).
    pub candidates: u64,
}

/// Run the full sweep for one family.
pub fn run_sweep(family: Family, scale: f64, seed: u64) -> Vec<TimingRow> {
    let mut rows = Vec::new();
    for &preset in family.presets() {
        let data = family.load(preset, scale, seed);
        for &t in family.thresholds() {
            let cfg = family.config(t, seed);
            for composition in family.compositions() {
                let out = run_composition(composition, &data, &cfg).expect("paper config runs");
                rows.push(TimingRow {
                    family,
                    dataset: preset.name(),
                    composition,
                    threshold: t,
                    secs: out.total_secs,
                    output: out.pairs.len(),
                    candidates: out.candidates,
                });
            }
        }
    }
    rows
}

/// One Table 2 line: fastest BayesLSH variant for a dataset and its
/// speedups over the baselines.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Experiment family.
    pub family: Family,
    /// Dataset name.
    pub dataset: &'static str,
    /// Fastest BayesLSH variant by total time across thresholds.
    pub fastest_variant: Composition,
    /// Its total seconds.
    pub variant_secs: f64,
    /// Speedups vs (AllPairs, LSH, LSH Approx, PPJoin+); `None` if the
    /// baseline was not run for this family.
    pub speedup_ap: Option<f64>,
    /// See [`Table2Row::speedup_ap`].
    pub speedup_lsh: Option<f64>,
    /// See [`Table2Row::speedup_ap`].
    pub speedup_lsh_approx: Option<f64>,
    /// See [`Table2Row::speedup_ap`].
    pub speedup_ppjoin: Option<f64>,
}

const BAYES_VARIANTS: [Composition; 4] = [
    Composition::new(AllPairs, Bayes),
    Composition::new(AllPairs, BayesLite),
    Composition::new(LshBanding, Bayes),
    Composition::new(LshBanding, BayesLite),
];

/// Aggregate sweep rows into Table 2.
pub fn table2_from(rows: &[TimingRow]) -> Vec<Table2Row> {
    // (family name, dataset) -> composition -> total secs.
    let mut totals: BTreeMap<(&str, &str), HashMap<Composition, f64>> = BTreeMap::new();
    let mut meta: BTreeMap<(&str, &str), (Family, &'static str)> = BTreeMap::new();
    for r in rows {
        let key = (r.family.name(), r.dataset);
        *totals
            .entry(key)
            .or_default()
            .entry(r.composition)
            .or_default() += r.secs;
        meta.insert(key, (r.family, r.dataset));
    }
    let mut out = Vec::new();
    for (key, per_comp) in &totals {
        let (family, dataset) = meta[key];
        let (fastest_variant, variant_secs) = BAYES_VARIANTS
            .iter()
            .filter_map(|c| per_comp.get(c).map(|&s| (*c, s)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("sweep must include the BayesLSH variants");
        let speedup = |generator, verifier| {
            let baseline = Composition::new(generator, verifier);
            per_comp.get(&baseline).map(|&s| s / variant_secs)
        };
        out.push(Table2Row {
            family,
            dataset,
            fastest_variant,
            variant_secs,
            speedup_ap: speedup(AllPairs, Exact),
            speedup_lsh: speedup(LshBanding, Exact),
            speedup_lsh_approx: speedup(LshBanding, Mle),
            speedup_ppjoin: speedup(PpjoinPlus, Exact),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_metadata_matches_paper() {
        assert_eq!(Family::WeightedCosine.presets().len(), 6);
        assert_eq!(Family::BinaryJaccard.presets().len(), 3);
        assert_eq!(Family::WeightedCosine.compositions().len(), 7);
        assert_eq!(Family::BinaryJaccard.compositions().len(), 8);
        assert_eq!(
            Family::BinaryJaccard.thresholds(),
            &[0.3, 0.4, 0.5, 0.6, 0.7]
        );
        assert_eq!(
            Family::BinaryCosine.thresholds(),
            &[0.5, 0.6, 0.7, 0.8, 0.9]
        );
        assert_eq!(Family::WeightedCosine.measure(), Measure::Cosine);
        assert_eq!(Family::BinaryJaccard.measure(), Measure::Jaccard);
    }

    #[test]
    fn tiny_sweep_produces_complete_grid() {
        // One dataset, one threshold — just exercise the plumbing.
        let family = Family::BinaryJaccard;
        let data = family.load(Preset::Twitter, 0.002, 3);
        let cfg = family.config(0.5, 3);
        let mut rows = Vec::new();
        for composition in family.compositions() {
            let out = run_composition(composition, &data, &cfg).unwrap();
            rows.push(TimingRow {
                family,
                dataset: Preset::Twitter.name(),
                composition,
                threshold: 0.5,
                secs: out.total_secs.max(1e-9),
                output: out.pairs.len(),
                candidates: out.candidates,
            });
        }
        assert_eq!(rows.len(), 8);
        let t2 = table2_from(&rows);
        assert_eq!(t2.len(), 1);
        let row = &t2[0];
        assert!(BAYES_VARIANTS.contains(&row.fastest_variant));
        assert!(row.speedup_ap.unwrap() > 0.0);
        assert!(row.speedup_ppjoin.is_some());
    }

    #[test]
    fn table2_picks_the_minimum_variant() {
        let mk = |generator, verifier, secs: f64| TimingRow {
            family: Family::WeightedCosine,
            dataset: "RCV1",
            composition: Composition::new(generator, verifier),
            threshold: 0.5,
            secs,
            output: 0,
            candidates: 0,
        };
        let rows = vec![
            mk(AllPairs, Exact, 10.0),
            mk(LshBanding, Exact, 8.0),
            mk(LshBanding, Mle, 4.0),
            mk(AllPairs, Bayes, 2.0),
            mk(AllPairs, BayesLite, 3.0),
            mk(LshBanding, Bayes, 1.0),
            mk(LshBanding, BayesLite, 5.0),
        ];
        let t2 = table2_from(&rows);
        assert_eq!(t2[0].fastest_variant, Composition::new(LshBanding, Bayes));
        assert!((t2[0].speedup_ap.unwrap() - 10.0).abs() < 1e-12);
        assert!((t2[0].speedup_lsh.unwrap() - 8.0).abs() < 1e-12);
        assert!((t2[0].speedup_lsh_approx.unwrap() - 4.0).abs() < 1e-12);
        assert!(t2[0].speedup_ppjoin.is_none());
    }
}
