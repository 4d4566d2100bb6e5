//! The sharded-serving contract: a [`ShardedSearcher`] over N disjoint
//! shards must be **bit-identical** — pairs, similarities, statistics,
//! all in global ids — to a single [`Searcher`] built over the
//! unpartitioned corpus, for every algorithm composition, at any shard
//! count, at any thread budget. Plus: inserts route to the right shard
//! and stay equivalent, hot-swap reload serves the old generation until
//! the swap and the new one after, a failed reload leaves serving
//! untouched, and corrupting any byte of the manifest or any shard
//! snapshot yields a typed [`ShardError`] — never a panic, never a
//! silent mis-merge.

use std::path::PathBuf;
use std::sync::OnceLock;

use bayeslsh::prelude::*;
use proptest::prelude::*;

mod support;
use support::{all_compositions, supports_weighted};

/// LSH banding × BayesLSH-Lite.
const LITE: Composition = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const THREAD_BUDGETS: [u32; 2] = [1, 4];

/// Clustered corpus with planted near-duplicates (weighted vectors).
fn corpus(seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut d = Dataset::new(3000);
    for c in 0..8 {
        let center: Vec<(u32, f32)> = (0..30)
            .map(|_| {
                (
                    (c * 300 + rng.next_below(280) as usize) as u32,
                    (rng.next_f64() + 0.3) as f32,
                )
            })
            .collect();
        for _ in 0..5 {
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

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bayeslsh-shard-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn neighbor_bits(n: &[(u32, f64)]) -> Vec<(u32, u64)> {
    n.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

fn pair_bits(p: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    p.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

/// Scatter-gather sends the query's band keys to every shard, so the
/// merged bucket-probe count is exactly `n_shards ×` the single index's;
/// every other counter partitions and must match bit for bit.
fn assert_query_stats_match(sharded: QueryStats, single: QueryStats, n_shards: u64, ctx: &str) {
    let mut scaled = single;
    scaled.bucket_probes *= n_shards;
    assert_eq!(sharded, scaled, "{ctx}");
}

/// Build `data` into `n_shards` shards and assert every serving surface
/// (batch join, threshold queries, top-k) is bit-identical to a single
/// index over the same corpus at the given thread budget.
fn assert_equivalent(
    comp: Composition,
    data: &Dataset,
    cfg: PipelineConfig,
    n_shards: usize,
    threads: u32,
    tag: &str,
) {
    let ctx = format!("{comp} × {n_shards} shards × {threads} threads");
    let slug: String = comp
        .to_string()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = scratch(&format!("{tag}-{slug}-{n_shards}-{threads}"));
    let par = Parallelism::threads(threads);
    ShardBuilder::new(cfg)
        .composition(comp)
        .shards(n_shards)
        .partition(PartitionFn::Hashed { seed: 11 })
        .parallelism(par)
        .build_to_dir(data, &dir)
        .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"));
    let sharded =
        ShardedSearcher::open_with(&dir.join(MANIFEST_FILE), par, LoadPolicy::Eager).unwrap();
    let single = Searcher::builder(cfg)
        .composition(comp)
        .parallelism(par)
        .build(data.clone())
        .unwrap();

    // Batch join: pairs in canonical order, bit for bit, same
    // candidate count.
    let a = sharded.all_pairs().unwrap();
    let b = single.all_pairs().unwrap();
    assert_eq!(pair_bits(&a.pairs), pair_bits(&b.pairs), "{ctx}: all_pairs");
    assert_eq!(a.candidates, b.candidates, "{ctx}: all_pairs candidates");

    // Point queries: neighbours and statistics.
    for qid in [0u32, 17, 33] {
        let q = data.vector(qid).clone();
        let sa = sharded.query(&q, cfg.threshold).unwrap();
        let sb = single.query(&q, cfg.threshold).unwrap();
        assert_eq!(
            neighbor_bits(&sa.neighbors),
            neighbor_bits(&sb.neighbors),
            "{ctx}: query {qid}"
        );
        assert_query_stats_match(
            sa.stats,
            sb.stats,
            n_shards as u64,
            &format!("{ctx}: query {qid} stats"),
        );

        let ka = sharded.top_k(&q, 5, &KnnParams::default()).unwrap();
        let kb = single.top_k(&q, 5, &KnnParams::default()).unwrap();
        assert_eq!(
            neighbor_bits(&ka.neighbors),
            neighbor_bits(&kb.neighbors),
            "{ctx}: top_k {qid}"
        );
        assert_eq!(ka.stats, kb.stats, "{ctx}: top_k {qid} stats");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every named composition (the paper's eight plus the SPRT verifier) ×
/// every shard count × every thread budget, under Jaccard (the only
/// measure every composition supports).
#[test]
fn jaccard_all_compositions_bit_identical_across_shards_and_threads() {
    let data = corpus(401).binarized();
    let cfg = PipelineConfig::jaccard(0.5);
    for comp in all_compositions() {
        for n_shards in SHARD_COUNTS {
            for threads in THREAD_BUDGETS {
                assert_equivalent(comp, &data, cfg, n_shards, threads, "jac");
            }
        }
    }
}

/// The weighted-cosine compositions across the same grid (reduced shard
/// axis — the full one runs under Jaccard above).
#[test]
fn cosine_compositions_bit_identical_across_shards_and_threads() {
    let data = corpus(402);
    let cfg = PipelineConfig::cosine(0.7);
    for comp in all_compositions() {
        if !supports_weighted(comp) {
            continue; // PPJoin+ is binary-only; covered by the Jaccard grid.
        }
        for n_shards in [2usize, 7] {
            for threads in THREAD_BUDGETS {
                assert_equivalent(comp, &data, cfg, n_shards, threads, "cos");
            }
        }
    }
}

/// Inserts route through the manifest's partition function to the
/// owning shard, receive the same global ids a single index would
/// assign, and leave every surface — including the batch join's merged
/// index, built *before* the inserts — bit-identical.
#[test]
fn insert_into_shard_then_query_stays_equivalent() {
    let data = corpus(403);
    let cfg = PipelineConfig::cosine(0.7);
    let dir = scratch("insert");
    let par = Parallelism::threads(4);
    ShardBuilder::new(cfg)
        .composition(LITE)
        .shards(3)
        .partition(PartitionFn::Hashed { seed: 5 })
        .parallelism(par)
        .build_to_dir(&data, &dir)
        .unwrap();
    let sharded =
        ShardedSearcher::open_with(&dir.join(MANIFEST_FILE), par, LoadPolicy::Eager).unwrap();
    let mut single = Searcher::builder(cfg)
        .composition(LITE)
        .parallelism(par)
        .build(data.clone())
        .unwrap();

    // Force the merged batch-join index to exist before inserting, so
    // the insert-sync path is what's under test.
    assert_eq!(
        pair_bits(&sharded.all_pairs().unwrap().pairs),
        pair_bits(&single.all_pairs().unwrap().pairs)
    );

    for qid in [2u32, 19, 33] {
        let v = data.vector(qid).clone();
        let a = sharded.insert(v.clone()).unwrap();
        let b = single.insert(v).unwrap();
        assert_eq!(a, b, "sharded and single must assign the same global id");
    }
    assert_eq!(sharded.len(), single.len());

    for qid in [2u32, 19, 33, 39] {
        let q = data.vector(qid).clone();
        let sa = sharded.query(&q, 0.7).unwrap();
        let sb = single.query(&q, 0.7).unwrap();
        assert_eq!(neighbor_bits(&sa.neighbors), neighbor_bits(&sb.neighbors));
        assert_query_stats_match(sa.stats, sb.stats, 3, &format!("insert: query {qid}"));
        let ka = sharded.top_k(&q, 4, &KnnParams::default()).unwrap();
        let kb = single.top_k(&q, 4, &KnnParams::default()).unwrap();
        assert_eq!(neighbor_bits(&ka.neighbors), neighbor_bits(&kb.neighbors));
        assert_eq!(ka.stats, kb.stats);
    }

    // The merged join index was kept in sync by the inserts.
    let a = sharded.all_pairs().unwrap();
    let b = single.all_pairs().unwrap();
    assert_eq!(pair_bits(&a.pairs), pair_bits(&b.pairs));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Removes route through the id map to the owning shard, stay
/// bit-identical to a single index applying the same removals, and the
/// compacted shards round-trip through their snapshots under the same
/// manifest partition (ids are stable across compaction).
#[test]
fn remove_and_compact_stay_equivalent_and_roundtrip_snapshots() {
    let data = corpus(409);
    let cfg = PipelineConfig::cosine(0.7);
    let dir = scratch("remove");
    let par = Parallelism::threads(2);
    ShardBuilder::new(cfg)
        .composition(LITE)
        .shards(3)
        .partition(PartitionFn::Hashed { seed: 5 })
        .parallelism(par)
        .build_to_dir(&data, &dir)
        .unwrap();
    let sharded =
        ShardedSearcher::open_with(&dir.join(MANIFEST_FILE), par, LoadPolicy::Eager).unwrap();
    let mut single = Searcher::builder(cfg)
        .composition(LITE)
        .parallelism(par)
        .build(data.clone())
        .unwrap();

    // Build the merged batch-join index first so the remove-sync path is
    // exercised too.
    assert_eq!(
        pair_bits(&sharded.all_pairs().unwrap().pairs),
        pair_bits(&single.all_pairs().unwrap().pairs)
    );

    for victim in [4u32, 17, 31] {
        assert!(sharded.remove(victim).unwrap());
        assert!(single.remove(victim).unwrap());
        assert!(!sharded.remove(victim).unwrap(), "double remove is a no-op");
    }
    assert_eq!(sharded.pending_removals(), 3);
    assert!(matches!(
        sharded.remove(data.len() as u32 + 50),
        Err(ShardError::Search(_))
    ));

    let compare = |sharded: &ShardedSearcher, single: &Searcher, what: &str| {
        for qid in [0u32, 4, 17, 31, 39] {
            let q = data.vector(qid).clone();
            let sa = sharded.query(&q, 0.7).unwrap();
            let sb = single.query(&q, 0.7).unwrap();
            assert_eq!(
                neighbor_bits(&sa.neighbors),
                neighbor_bits(&sb.neighbors),
                "{what}: query {qid}"
            );
            let ka = sharded.top_k(&q, 4, &KnnParams::default()).unwrap();
            let kb = single.top_k(&q, 4, &KnnParams::default()).unwrap();
            assert_eq!(
                neighbor_bits(&ka.neighbors),
                neighbor_bits(&kb.neighbors),
                "{what}: top_k {qid}"
            );
        }
    };
    compare(&sharded, &single, "tombstoned");

    // Compaction reclaims the tombstones on every surface, including the
    // merged join index, and results are unchanged.
    assert_eq!(sharded.compact(), 3);
    assert_eq!(single.compact(), 3);
    assert_eq!(sharded.pending_removals(), 0);
    assert_eq!(sharded.len(), single.len(), "ids stay stable");
    compare(&sharded, &single, "compacted");
    assert_eq!(
        pair_bits(&sharded.all_pairs().unwrap().pairs),
        pair_bits(&single.all_pairs().unwrap().pairs)
    );

    // Round-trip: save the compacted shards under the same manifest and
    // reopen; the reloaded set must serve the same bits.
    let manifest = ShardManifest::load(&dir.join(MANIFEST_FILE)).unwrap();
    let mut doctored = manifest.clone();
    let generation = sharded.generation();
    for (s, entry) in doctored.shards.iter_mut().enumerate() {
        let mut buf = Vec::new();
        // Write each compacted shard searcher back out via the public
        // snapshot API, exactly as a re-shard job would.
        generation
            .with_searcher(s, |sr| sr.save(&mut buf))
            .unwrap()
            .unwrap();
        entry.checksum = bayeslsh::numeric::fnv1a_checksum(&buf);
        std::fs::write(dir.join(&entry.file), &buf).unwrap();
    }
    std::fs::write(dir.join(MANIFEST_FILE), doctored.to_bytes()).unwrap();
    let reopened =
        ShardedSearcher::open_with(&dir.join(MANIFEST_FILE), par, LoadPolicy::Eager).unwrap();
    compare(&reopened, &single, "reopened");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot swap: a sweep that grabs its generation keeps serving the old
/// corpus across a reload, new requests see the old corpus until the
/// swap, and the new generation's answers are bit-identical to a single
/// index over the new corpus.
#[test]
fn reload_mid_sweep_swaps_generations_atomically() {
    let cfg = PipelineConfig::cosine(0.7);
    let old_data = corpus(404);
    let new_data = corpus(405);
    let dir = scratch("reload");
    let par = Parallelism::threads(2);
    let build = |data: &Dataset, shards: usize| {
        ShardBuilder::new(cfg)
            .composition(LITE)
            .shards(shards)
            .parallelism(par)
            .build_to_dir(data, &dir)
            .unwrap()
    };
    build(&old_data, 3);
    let sharded =
        ShardedSearcher::open_with(&dir.join(MANIFEST_FILE), par, LoadPolicy::Eager).unwrap();
    let old_single = Searcher::builder(cfg)
        .composition(LITE)
        .parallelism(par)
        .build(old_data.clone())
        .unwrap();

    // First half of the sweep: old generation.
    for qid in [0u32, 9] {
        let q = old_data.vector(qid).clone();
        assert_eq!(
            neighbor_bits(&sharded.query(&q, 0.7).unwrap().neighbors),
            neighbor_bits(&old_single.query(&q, 0.7).unwrap().neighbors),
        );
    }

    // An in-flight holder of the old generation (what a query thread
    // owns mid-request).
    let held = sharded.generation();
    assert_eq!(held.ordinal(), 1);
    let old_manifest = held.manifest().clone();

    // Rebuild on disk with a different corpus AND shard count; the
    // serving set must not change until reload().
    build(&new_data, 5);
    assert_eq!(sharded.generation().ordinal(), 1);
    assert_eq!(sharded.shard_count(), 3);

    assert_eq!(sharded.reload().unwrap(), 2);
    assert_eq!(sharded.shard_count(), 5);

    // Second half of the sweep: new generation, still bit-identical.
    let new_single = Searcher::builder(cfg)
        .composition(LITE)
        .parallelism(par)
        .build(new_data.clone())
        .unwrap();
    for qid in [0u32, 9, 21] {
        let q = new_data.vector(qid).clone();
        let sa = sharded.query(&q, 0.7).unwrap();
        let sb = new_single.query(&q, 0.7).unwrap();
        assert_eq!(neighbor_bits(&sa.neighbors), neighbor_bits(&sb.neighbors));
        assert_query_stats_match(sa.stats, sb.stats, 5, &format!("reload: query {qid}"));
    }

    // The held (old) generation is untouched by the swap.
    assert_eq!(held.ordinal(), 1);
    assert_eq!(held.manifest(), &old_manifest);
    assert_eq!(held.shards_loaded(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A reload that hits damage on disk must fail typed and leave the
/// current generation serving, bit-identically.
#[test]
fn failed_reload_keeps_the_current_generation_serving() {
    let cfg = PipelineConfig::cosine(0.7);
    let data = corpus(406);
    let dir = scratch("badreload");
    let par = Parallelism::threads(2);
    ShardBuilder::new(cfg)
        .composition(LITE)
        .shards(2)
        .parallelism(par)
        .build_to_dir(&data, &dir)
        .unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let sharded = ShardedSearcher::open_with(&manifest_path, par, LoadPolicy::Eager).unwrap();
    let single = Searcher::builder(cfg)
        .composition(LITE)
        .parallelism(par)
        .build(data.clone())
        .unwrap();

    // Damage the manifest on disk; reload must fail typed...
    let mut bytes = std::fs::read(&manifest_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&manifest_path, &bytes).unwrap();
    assert!(matches!(
        sharded.reload(),
        Err(ShardError::CorruptManifest { .. })
    ));

    // ...and the old generation keeps serving, still equivalent.
    assert_eq!(sharded.generation().ordinal(), 1);
    let q = data.vector(3).clone();
    assert_eq!(
        neighbor_bits(&sharded.query(&q, 0.7).unwrap().neighbors),
        neighbor_bits(&single.query(&q, 0.7).unwrap().neighbors),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Lazy loading serves the same bits as eager, loading shards only as
/// queries touch them.
#[test]
fn lazy_load_policy_is_equivalent_and_lazy() {
    let cfg = PipelineConfig::cosine(0.7);
    let data = corpus(407);
    let dir = scratch("lazy");
    ShardBuilder::new(cfg)
        .composition(LITE)
        .shards(4)
        .build_to_dir(&data, &dir)
        .unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let lazy =
        ShardedSearcher::open_with(&manifest_path, Parallelism::threads(2), LoadPolicy::Lazy)
            .unwrap();
    let eager =
        ShardedSearcher::open_with(&manifest_path, Parallelism::threads(2), LoadPolicy::Eager)
            .unwrap();
    assert_eq!(lazy.generation().shards_loaded(), 0);
    assert_eq!(eager.generation().shards_loaded(), 4);

    let q = data.vector(0).clone();
    let a = lazy.query(&q, 0.7).unwrap();
    let b = eager.query(&q, 0.7).unwrap();
    assert_eq!(neighbor_bits(&a.neighbors), neighbor_bits(&b.neighbors));
    assert_eq!(a.stats, b.stats);
    assert_eq!(lazy.generation().shards_loaded(), 4);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Corruption properties: every flipped byte and every truncation of the
// manifest or any shard snapshot must surface as a typed ShardError at
// open — never a panic, never a successfully opened (mis-merging) set.
// ---------------------------------------------------------------------

/// A pristine sharded build, kept in memory: manifest bytes plus each
/// shard file's (name, bytes).
type PristineSet = (Vec<u8>, Vec<(String, Vec<u8>)>);

fn pristine() -> &'static PristineSet {
    static SET: OnceLock<PristineSet> = OnceLock::new();
    SET.get_or_init(|| {
        let dir = scratch("pristine");
        let manifest = ShardBuilder::new(PipelineConfig::cosine(0.7))
            .composition(LITE)
            .shards(3)
            .parallelism(Parallelism::serial())
            .build_to_dir(&corpus(408), &dir)
            .unwrap();
        let manifest_bytes = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let shards = manifest
            .shards
            .iter()
            .map(|s| (s.file.clone(), std::fs::read(dir.join(&s.file)).unwrap()))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (manifest_bytes, shards)
    })
}

/// Write the pristine set into a fresh directory, then apply `mutate`
/// to the chosen file (0 = manifest, 1.. = shards) and try to open.
fn open_mutated(
    target: usize,
    mutate: impl FnOnce(&mut Vec<u8>),
    tag: &str,
) -> Result<ShardedSearcher, ShardError> {
    let (manifest_bytes, shards) = pristine();
    let dir = scratch(tag);
    let mut manifest_bytes = manifest_bytes.clone();
    let mut shards = shards.clone();
    if target == 0 {
        mutate(&mut manifest_bytes);
    } else {
        let s = (target - 1) % shards.len();
        mutate(&mut shards[s].1);
    }
    std::fs::write(dir.join(MANIFEST_FILE), &manifest_bytes).unwrap();
    for (name, bytes) in &shards {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let result = ShardedSearcher::open_with(
        &dir.join(MANIFEST_FILE),
        Parallelism::serial(),
        LoadPolicy::Eager,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The typed-failure contract: reaching this function at all means no
/// panic happened; the result must be an `Err` of a typed variant.
fn assert_typed_failure(result: Result<ShardedSearcher, ShardError>, what: &str) {
    match result {
        Err(
            ShardError::BadMagic
            | ShardError::UnsupportedVersion { .. }
            | ShardError::CorruptManifest { .. }
            | ShardError::ShardChecksum { .. }
            | ShardError::ConfigFingerprint { .. }
            | ShardError::MissingShard { .. }
            | ShardError::Snapshot { .. }
            | ShardError::Io(_),
        ) => {}
        Err(ShardError::Search(e)) => panic!("{what}: corruption surfaced as a search error: {e}"),
        Ok(_) => panic!("{what}: corrupt shard set opened successfully"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flipping_any_byte_fails_typed(
        target in 0usize..4,
        offset in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let len = if target == 0 {
            pristine().0.len()
        } else {
            pristine().1[(target - 1) % pristine().1.len()].1.len()
        };
        let at = offset % len;
        let result = open_mutated(target, |bytes| bytes[at] ^= mask, "prop-flip");
        assert_typed_failure(result, &format!("flip target {target} byte {at} mask {mask:#04x}"));
    }

    #[test]
    fn truncating_any_file_fails_typed(
        target in 0usize..4,
        keep in 0usize..1_000_000,
    ) {
        let len = if target == 0 {
            pristine().0.len()
        } else {
            pristine().1[(target - 1) % pristine().1.len()].1.len()
        };
        let at = keep % len;
        let result = open_mutated(target, |bytes| bytes.truncate(at), "prop-trunc");
        assert_typed_failure(result, &format!("truncate target {target} to {at} bytes"));
    }
}

/// A missing shard file is its own typed error.
#[test]
fn missing_shard_file_fails_typed() {
    let (manifest_bytes, shards) = pristine();
    let dir = scratch("missing");
    std::fs::write(dir.join(MANIFEST_FILE), manifest_bytes).unwrap();
    // Write all shards but the last.
    for (name, bytes) in &shards[..shards.len() - 1] {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let err = ShardedSearcher::open_with(
        &dir.join(MANIFEST_FILE),
        Parallelism::serial(),
        LoadPolicy::Eager,
    )
    .unwrap_err();
    assert!(matches!(err, ShardError::MissingShard { shard: 2, .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mixing a shard from a different build is caught by the config
/// fingerprint (after its checksum is made to match, as an attacker or
/// a botched deploy script might).
#[test]
fn foreign_shard_is_caught() {
    let (manifest_bytes, shards) = pristine();
    // A shard built under a *different seed* — same corpus slice sizes.
    let dir = scratch("foreign");
    let mut cfg = PipelineConfig::cosine(0.7);
    cfg.seed = 999;
    ShardBuilder::new(cfg)
        .composition(LITE)
        .shards(3)
        .parallelism(Parallelism::serial())
        .build_to_dir(&corpus(408), &dir)
        .unwrap();
    let foreign = std::fs::read(dir.join("shard_0001.snap")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Splice it into the pristine set with a *corrected* manifest
    // checksum entry, so only the fingerprint can catch the drift.
    let dir = scratch("foreign2");
    let manifest = ShardManifest::from_bytes(manifest_bytes).unwrap();
    let mut doctored = manifest.clone();
    doctored.shards[1].checksum = bayeslsh::numeric::fnv1a_checksum(&foreign);
    std::fs::write(dir.join(MANIFEST_FILE), doctored.to_bytes()).unwrap();
    for (s, (name, bytes)) in shards.iter().enumerate() {
        if s == 1 {
            std::fs::write(dir.join(name), &foreign).unwrap();
        } else {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    let err = ShardedSearcher::open_with(
        &dir.join(MANIFEST_FILE),
        Parallelism::serial(),
        LoadPolicy::Eager,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ShardError::ConfigFingerprint { shard: 1, .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
