//! Running BayesLSH on your own data: the plain-text corpus format.
//!
//! Vectors are stored one per line as `index:weight` pairs (0-based,
//! whitespace-separated, `#` comments) — the SVM-light convention minus the
//! label. This example writes a corpus, reads it back, and runs the full
//! pipeline, which is exactly what you would do with a real dataset.
//!
//! ```text
//! cargo run --release --example custom_corpus
//! ```

use bayeslsh::datasets::io;
use bayeslsh::prelude::*;
use bayeslsh::sparse::tfidf::tfidf_transform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pretend this is your data: write a small corpus to disk.
    let path = std::env::temp_dir().join("bayeslsh_custom_corpus.txt");
    {
        let demo = generate(&CorpusConfig {
            n_vectors: 500,
            dim: 5_000,
            avg_len: 40,
            seed: 99,
            ..CorpusConfig::default()
        });
        io::save_path(&demo, &path)?;
        println!("wrote {} vectors to {}", demo.len(), path.display());
    }

    // Load raw term counts, apply the standard preprocessing.
    let raw = io::load_path(&path)?;
    let data = tfidf_transform(&raw);
    println!(
        "loaded {} vectors ({} dims, {} non-zeros)",
        data.len(),
        data.stats().dim,
        data.stats().nnz
    );

    // Run two pipelines and cross-check them.
    let t = 0.6;
    let cfg = PipelineConfig::cosine(t);
    let run = |verifier| {
        let comp = Composition::new(GeneratorKind::AllPairs, verifier);
        run_composition(comp, &data, &cfg)
    };
    let exact = run(VerifierKind::Exact)?;
    let bayes = run(VerifierKind::Bayes)?;
    println!(
        "\nAllPairs (exact):   {} pairs in {:.3}s",
        exact.pairs.len(),
        exact.total_secs
    );
    println!(
        "AP+BayesLSH:        {} pairs in {:.3}s (recall {:.1}%)",
        bayes.pairs.len(),
        bayes.total_secs,
        100.0 * recall_against(&exact.pairs, &bayes.pairs)
    );

    // The low-level API: verify your own candidate list against any
    // threshold with direct control of the signature pool.
    let candidates: Vec<(u32, u32)> = (0..20).map(|i| (i, i + 1)).collect();
    let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 2024), data.len());
    let (pairs, stats) = bayes_verify(
        &data,
        &mut pool,
        &CosineModel::new(),
        &candidates,
        &BayesLshConfig::cosine(t),
    );
    println!(
        "\nlow-level bayes_verify on {} hand-picked pairs: {} kept, {} pruned",
        candidates.len(),
        pairs.len(),
        stats.pruned
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
