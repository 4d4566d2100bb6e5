//! **Figure 4** — candidate pairs remaining vs hashes examined.
//!
//! The paper's key mechanism plot: BayesLSH prunes the vast majority of
//! false-positive candidates within the first few 32-hash chunks. Three
//! panels: (a) WikiWords100K, t=0.7 cosine; (b) WikiLinks, t=0.7 cosine;
//! (c) WikiWords100K, t=0.7 binary cosine — each with both AllPairs- and
//! LSH-generated candidate sets.

use bayeslsh_core::{run_composition, Composition, GeneratorKind, PipelineConfig, VerifierKind};
use bayeslsh_datasets::Preset;

/// One pruning curve.
#[derive(Debug, Clone)]
pub struct PruningCurve {
    /// Panel label, e.g. "WikiWords100K t=0.7 Cosine".
    pub panel: String,
    /// The composition run: BayesLSH over this panel's candidate
    /// generator.
    pub source: Composition,
    /// `(hashes examined, candidates remaining)`, starting at 0 hashes.
    pub points: Vec<(u32, u64)>,
    /// Size of the final output (the floor the curve approaches).
    pub output: u64,
}

fn curve(
    panel: &str,
    generator: GeneratorKind,
    data: &bayeslsh_sparse::Dataset,
    cfg: &PipelineConfig,
) -> PruningCurve {
    let source = Composition::new(generator, VerifierKind::Bayes);
    let out = run_composition(source, data, cfg).expect("paper config runs");
    let stats = out.engine.expect("BayesLSH pipelines report engine stats");
    PruningCurve {
        panel: panel.to_string(),
        source,
        points: stats.survivors_curve(),
        output: out.pairs.len() as u64,
    }
}

/// Run the three panels at `scale`.
pub fn run(scale: f64, seed: u64) -> Vec<PruningCurve> {
    let mut curves = Vec::new();
    let t = 0.7;

    // Panel (a): WikiWords100K, weighted cosine.
    {
        let data = Preset::WikiWords100K.load(scale, seed);
        let mut cfg = PipelineConfig::cosine(t);
        cfg.seed = seed;
        curves.push(curve(
            "WikiWords100K t=0.7 Cosine",
            GeneratorKind::AllPairs,
            &data,
            &cfg,
        ));
        curves.push(curve(
            "WikiWords100K t=0.7 Cosine",
            GeneratorKind::LshBanding,
            &data,
            &cfg,
        ));
    }
    // Panel (b): WikiLinks, weighted cosine.
    {
        let data = Preset::WikiLinks.load(scale, seed);
        let mut cfg = PipelineConfig::cosine(t);
        cfg.seed = seed;
        curves.push(curve(
            "WikiLinks t=0.7 Cosine",
            GeneratorKind::AllPairs,
            &data,
            &cfg,
        ));
        curves.push(curve(
            "WikiLinks t=0.7 Cosine",
            GeneratorKind::LshBanding,
            &data,
            &cfg,
        ));
    }
    // Panel (c): WikiWords100K, binary cosine.
    {
        let data = Preset::WikiWords100K.load_binary(scale, seed);
        let mut cfg = PipelineConfig::cosine(t);
        cfg.seed = seed;
        curves.push(curve(
            "WikiWords100K t=0.7 Binary Cosine",
            GeneratorKind::AllPairs,
            &data,
            &cfg,
        ));
        curves.push(curve(
            "WikiWords100K t=0.7 Binary Cosine",
            GeneratorKind::LshBanding,
            &data,
            &cfg,
        ));
    }
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_shrink_fast_toward_output() {
        let curves = run(0.003, 13);
        assert_eq!(curves.len(), 6);
        for c in &curves {
            let total = c.points[0].1;
            assert!(total > 0, "{}: empty candidate set", c.panel);
            // Monotone non-increasing.
            for w in c.points.windows(2) {
                assert!(w[1].1 <= w[0].1);
            }
            // The paper's headline: most false positives die within the
            // first few chunks.
            let at_128 = c
                .points
                .iter()
                .find(|&&(h, _)| h >= 128)
                .map(|&(_, n)| n)
                .unwrap_or(c.points.last().unwrap().1);
            assert!(
                (at_128 as f64) < 0.6 * total as f64 || total < 50,
                "{} ({}): {at_128} of {total} remain after 128 hashes",
                c.panel,
                c.source
            );
            // The curve floor cannot be below the output size.
            assert!(c.points.last().unwrap().1 >= c.output);
        }
    }
}
