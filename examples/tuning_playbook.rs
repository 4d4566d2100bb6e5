//! The BayesLSH tuning playbook: what ε, δ and γ actually buy you.
//!
//! The paper's selling point is that these three knobs *directly* control
//! output quality — no "number of hashes" to tune. This example sweeps each
//! knob on one dataset and prints the measured recall / error / time so you
//! can see the contracts holding.
//!
//! ```text
//! cargo run --release --example tuning_playbook
//! ```

use bayeslsh::prelude::*;

fn main() {
    let data = Preset::WikiWords100K.load(0.003, 55);
    let t = 0.7;
    let lsh = |verifier| Composition::new(GeneratorKind::LshBanding, verifier);
    let run = |comp, cfg: &PipelineConfig| run_composition(comp, &data, cfg).expect("valid config");
    let truth = ground_truth(&data, Measure::Cosine, t);
    println!(
        "dataset: {} docs; exact result at cosine >= {t}: {} pairs\n",
        data.len(),
        truth.len()
    );

    println!("-- recall knob: epsilon (prune when Pr[S >= t] < eps) --");
    println!(
        "{:>8} {:>10} {:>10} {:>9}",
        "epsilon", "recall", "output", "time"
    );
    for eps in [0.01, 0.05, 0.10, 0.20] {
        let mut cfg = PipelineConfig::cosine(t);
        cfg.epsilon = eps;
        let out = run(lsh(VerifierKind::Bayes), &cfg);
        println!(
            "{:>8.2} {:>9.1}% {:>10} {:>8.2}s",
            eps,
            100.0 * recall_against(&truth, &out.pairs),
            out.pairs.len(),
            out.total_secs
        );
    }

    println!("\n-- accuracy knob: delta (estimate within delta of truth) --");
    println!(
        "{:>8} {:>11} {:>12} {:>9}",
        "delta", "mean err", "hash cmps", "time"
    );
    for delta in [0.01, 0.03, 0.05, 0.09] {
        let mut cfg = PipelineConfig::cosine(t);
        cfg.delta = delta;
        let out = run(lsh(VerifierKind::Bayes), &cfg);
        let err = estimate_errors(&out.pairs, &data, Measure::Cosine, delta);
        println!(
            "{:>8.2} {:>11.4} {:>12} {:>8.2}s",
            delta,
            err.mean_abs,
            out.engine.as_ref().unwrap().hash_comparisons,
            out.total_secs
        );
    }

    println!("\n-- confidence knob: gamma (Pr[error > delta] < gamma) --");
    println!("{:>8} {:>14} {:>9}", "gamma", "err > 0.05", "time");
    for gamma in [0.01, 0.03, 0.05, 0.09] {
        let mut cfg = PipelineConfig::cosine(t);
        cfg.gamma = gamma;
        let out = run(lsh(VerifierKind::Bayes), &cfg);
        let err = estimate_errors(&out.pairs, &data, Measure::Cosine, 0.05);
        println!(
            "{:>8.2} {:>13.1}% {:>8.2}s",
            gamma,
            100.0 * err.frac_above,
            out.total_secs
        );
    }

    println!("\nreference points:");
    for comp in [
        lsh(VerifierKind::Exact),
        lsh(VerifierKind::Mle),
        Composition::new(GeneratorKind::AllPairs, VerifierKind::Exact),
    ] {
        let out = run(comp, &PipelineConfig::cosine(t));
        println!(
            "  {:<12} {:>8.2}s  recall {:>5.1}%",
            comp.paper_name().unwrap(),
            out.total_secs,
            100.0 * recall_against(&truth, &out.pairs)
        );
    }
}
