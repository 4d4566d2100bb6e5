//! Friend recommendation on a social graph — link prediction via all-pairs
//! similarity over adjacency vectors (paper Section 1 / the Orkut
//! dataset).
//!
//! Each user is the binary set of their friends; users whose friend sets
//! have Jaccard similarity above a threshold are "structurally equivalent",
//! and each one's friends are recommendation candidates for the other.
//!
//! ```text
//! cargo run --release --example friend_recommendation
//! ```

use bayeslsh::prelude::*;

fn main() {
    // An Orkut-like friendship graph (binary adjacency, heavy-tailed
    // degrees).
    let data = Preset::Orkut.load_binary(0.0006, 33);
    let stats = data.stats();
    println!(
        "graph: {} users, avg degree {:.0}, max degree {}",
        stats.n_vectors, stats.avg_len, stats.max_len
    );

    // Find all user pairs with Jaccard >= 0.4 over their friend sets.
    let threshold = 0.4;
    let cfg = PipelineConfig::jaccard(threshold);
    let lsh_bayes = Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes);
    let out = run_composition(lsh_bayes, &data, &cfg).expect("valid config, binary corpus");
    println!(
        "\nLSH+BayesLSH: {} candidates -> {} similar user pairs in {:.2}s",
        out.candidates,
        out.pairs.len(),
        out.total_secs
    );

    // Pick the user with the most similar peers and recommend the friends
    // of those peers that the user lacks.
    let mut peer_count = vec![0usize; data.len()];
    for &(a, b, _) in &out.pairs {
        peer_count[a as usize] += 1;
        peer_count[b as usize] += 1;
    }
    let user = peer_count
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .map(|(i, _)| i as u32)
        .unwrap();
    println!(
        "\nuser {user} has {} structurally similar peers; their friends:",
        peer_count[user as usize]
    );

    let friends: std::collections::HashSet<u32> =
        data.vector(user).indices().iter().copied().collect();
    let mut votes: std::collections::HashMap<u32, (usize, f64)> = Default::default();
    for &(a, b, s) in &out.pairs {
        let peer = if a == user {
            b
        } else if b == user {
            a
        } else {
            continue;
        };
        for &f in data.vector(peer).indices() {
            if f != user && !friends.contains(&f) {
                let e = votes.entry(f).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += s;
            }
        }
    }
    let mut ranked: Vec<(u32, usize, f64)> =
        votes.into_iter().map(|(f, (n, w))| (f, n, w)).collect();
    ranked.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    println!("top recommendations (candidate, peer votes, similarity-weighted score):");
    for (f, n, w) in ranked.iter().take(5) {
        println!("  user {f:>5}: {n} votes, score {w:.2}");
    }
    if ranked.is_empty() {
        println!("  (none — the chosen user's peers add no new friends)");
    }

    // Quality check against the exact join.
    let truth = ground_truth(&data, Measure::Jaccard, threshold);
    println!(
        "\nrecall vs exact all-pairs join: {:.1}% of {} pairs",
        100.0 * recall_against(&truth, &out.pairs),
        truth.len()
    );
}
