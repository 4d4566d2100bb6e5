//! The public facade: everything a downstream user touches compiles and
//! behaves through `bayeslsh::prelude`.

use bayeslsh::prelude::*;

#[test]
fn sparse_vector_api() {
    let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0)]);
    assert_eq!(v.indices(), &[1, 3]);
    let w = SparseVector::from_indices(vec![3, 5]);
    assert!(dot(&v, &w) > 0.0);
    assert!(overlap(&v, &w) == 1);
    assert!((0.0..=1.0).contains(&cosine(&v, &w)));
    assert!((0.0..=1.0).contains(&jaccard(&v, &w)));
}

#[test]
fn numeric_api() {
    let b = BetaDist::new(2.0, 3.0);
    assert!((b.mean() - 0.4).abs() < 1e-12);
    let bin = Binomial::new(10, 0.5);
    assert!((bin.mean() - 5.0).abs() < 1e-12);
    let mut rng = Xoshiro256::seed_from_u64(1);
    assert!(rng.next_f64() < 1.0);
}

#[test]
fn lsh_api() {
    assert!((r_to_cos(cos_to_r(0.7)) - 0.7).abs() < 1e-12);
    let mut hasher = MinHasher::new(1);
    let v = SparseVector::from_indices(vec![1, 2, 3]);
    let _ = hasher.hash(0, &v);
    let params = BandingParams::for_threshold(0.5, 4, 0.03, 100);
    assert!(params.l >= 1);
}

#[test]
fn posterior_models_via_trait_object() {
    // The PosteriorModel trait is object-safe enough for generic use.
    fn tail<M: PosteriorModel>(m: &M) -> f64 {
        m.prob_above_threshold(30, 32, 0.7)
    }
    assert!(tail(&JaccardModel::uniform()) > 0.9);
    assert!(tail(&CosineModel::new()) > 0.9);
}

#[test]
fn minmatch_table_via_facade() {
    let table = MinMatchTable::build(&JaccardModel::uniform(), 0.7, 0.03, 32, 128);
    assert!(table.min_matches(32) > 0);
    assert!(table.min_matches(128) > table.min_matches(32));
}

#[test]
fn config_constructors() {
    BayesLshConfig::cosine(0.7).validate();
    BayesLshConfig::jaccard(0.5).validate();
    LiteConfig::cosine(0.7).validate();
    LiteConfig::jaccard(0.5).validate();
    let cfg = PipelineConfig::jaccard(0.4);
    assert_eq!(cfg.family, FamilyConfig::Jaccard);
    assert_eq!(cfg.family.measure(), Measure::Jaccard);
    assert_eq!(cfg.prior, PriorChoice::Fitted);
    let l2 = PipelineConfig::l2(0.5, 2.0);
    assert_eq!(l2.family.measure(), Measure::L2);
    assert_eq!(l2.family.l2_width(), Some(2.0));
    assert_eq!(PipelineConfig::mips(0.6).family.measure(), Measure::Mips);
}

#[test]
fn corpus_generation_via_facade() {
    let data = generate(&CorpusConfig {
        n_vectors: 50,
        dim: 500,
        avg_len: 10,
        ..Default::default()
    });
    assert_eq!(data.len(), 50);
    let stats = data.stats();
    assert!(stats.nnz > 0);
}

#[test]
fn searcher_surface() {
    let data = Preset::Rcv1.load(0.0006, 5);
    let dim = data.dim();
    let lite = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);
    let mut s: Searcher = Searcher::builder(PipelineConfig::cosine(0.7))
        .composition(lite)
        .hash_mode(HashMode::Eager)
        .build(data)
        .expect("builds");
    assert!(!s.is_empty());
    assert_eq!(s.config().threshold, 0.7);
    assert_eq!(s.composition(), lite);
    assert_eq!(s.hash_mode(), HashMode::Eager);
    assert_eq!(s.data().dim(), dim);
    let plan: BandingPlan = s.banding_plan();
    assert!(plan.params.l >= 1 && !plan.clamped);
    let batch: CompositionOutput = s.all_pairs().expect("runs");
    assert!(batch.total_secs >= 0.0);
    let q = s.data().vector(0).clone();
    let out: QueryOutput = s.query(&q, 0.7).expect("queries");
    let _stats: QueryStats = out.stats;
    let top: TopKOutput = s.top_k(&q, 3, &KnnParams::default()).expect("top-k");
    assert!(top.neighbors.len() <= 3);
    let id = s.insert(q).expect("inserts");
    assert_eq!(id as usize, s.len() - 1);
}

#[test]
fn snapshot_surface() {
    let data = Preset::Rcv1.load(0.0006, 5);
    let s = Searcher::builder(PipelineConfig::cosine(0.7))
        .build(data)
        .expect("builds");
    let mut bytes = Vec::new();
    s.save(&mut bytes).expect("serializes");
    let header: SnapshotHeader = SnapshotHeader::read(&bytes[..]).expect("probes");
    assert_eq!(header.format_version, SNAPSHOT_FORMAT_VERSION);
    assert_eq!(header.n_vectors as usize, s.len());
    let loaded = Searcher::load(&bytes[..]).expect("loads");
    assert_eq!(loaded.len(), s.len());
    let wide = Searcher::load_with_parallelism(&bytes[..], Parallelism::threads(2));
    assert_eq!(wide.expect("loads with override").threads(), 2);
    // The typed error surface.
    let err: SnapshotError = Searcher::load(&bytes[..10]).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt { .. }));
    assert!(matches!(
        Searcher::load(&b"12345678"[..]),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn sharded_surface() {
    let data = Preset::Rcv1.load(0.0006, 5);
    let dir = std::env::temp_dir().join(format!("bayeslsh-api-shards-{}", std::process::id()));
    let manifest: ShardManifest = ShardBuilder::new(PipelineConfig::cosine(0.7))
        .composition(Composition::new(
            GeneratorKind::LshBanding,
            VerifierKind::BayesLite,
        ))
        .shards(2)
        .partition(PartitionFn::RoundRobin)
        .build_to_dir(&data, &dir)
        .expect("builds");
    assert_eq!(manifest.shard_count(), 2);
    assert_eq!(manifest.n_total as usize, data.len());
    let path = dir.join(MANIFEST_FILE);
    let s = ShardedSearcher::open_with(&path, Parallelism::serial(), LoadPolicy::Lazy)
        .expect("opens lazily");
    assert_eq!(s.generation().shards_loaded(), 0);
    assert_eq!(s.len(), data.len());
    let q = data.vector(0).clone();
    let out: QueryOutput = s.query(&q, 0.7).expect("queries");
    assert!(out.neighbors.iter().any(|&(id, _)| id == 0));
    let top: TopKOutput = s.top_k(&q, 3, &KnnParams::default()).expect("top-k");
    assert!(top.neighbors.len() <= 3);
    let id = s.insert(q).expect("inserts");
    assert_eq!(id as usize, s.len() - 1);
    assert_eq!(s.reload().expect("reloads"), 2);
    // The typed error surface.
    let err: ShardError = ShardedSearcher::open(&dir.join("nope.blsh")).unwrap_err();
    assert!(matches!(err, ShardError::Io(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_names() {
    let names: Vec<&str> = Composition::PAPER.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "AllPairs",
            "AP+BayesLSH",
            "AP+BayesLSH-Lite",
            "LSH",
            "LSH Approx",
            "LSH+BayesLSH",
            "LSH+BayesLSH-Lite",
            "PPJoin+"
        ]
    );
    for (name, comp) in Composition::PAPER {
        assert_eq!(comp.paper_name(), Some(name));
    }
    let sprt = Composition::new(GeneratorKind::LshBanding, VerifierKind::Sprt);
    assert_eq!(sprt.paper_name(), None);
}

#[test]
fn composition_surface() {
    // Custom compositions instantiate as trait objects and run over a
    // caller-held context.
    let comp = Composition::new(GeneratorKind::LshBanding, VerifierKind::Exact);
    let g: Box<dyn CandidateGenerator> = comp.generator.instantiate();
    let v: Box<dyn Verifier> = comp.verifier.instantiate();
    assert_eq!(g.name(), "LSH");
    assert_eq!(v.name(), "exact");
    let data = Preset::Rcv1.load(0.0006, 6);
    let cfg = PipelineConfig::cosine(0.7);
    let mut pool = SigPool::for_config(&cfg, &data);
    let mut ctx = SearchContext {
        data: &data,
        cfg: &cfg,
        pool: &mut pool,
        index: None,
    };
    let candidates = g.generate(&mut ctx);
    let (mut pairs, engine) = v.verify(&mut ctx, &candidates);
    assert!(engine.is_none());
    // The one-shot runner is the same pipeline, in canonical pair order.
    let out: CompositionOutput = run_composition(comp, &data, &cfg).expect("runs");
    assert_eq!(out.composition, comp);
    assert_eq!(out.candidates, candidates.len() as u64);
    pairs.sort_by_key(|&(a, b, _)| (a, b));
    assert_eq!(out.pairs, pairs);
    // And the typed error type is part of the facade.
    let mut bad = cfg;
    bad.k = 0;
    let err: SearchError = bad.validate().unwrap_err();
    assert!(err.to_string().contains("invalid config"));
    assert_eq!(run_composition(comp, &data, &bad).unwrap_err(), err);
}

#[test]
fn run_output_shape() {
    let data = Preset::Rcv1.load(0.0006, 3);
    let comp = Composition::new(GeneratorKind::AllPairs, VerifierKind::Exact);
    let out: CompositionOutput =
        run_composition(comp, &data, &PipelineConfig::cosine(0.8)).expect("runs");
    assert_eq!(out.composition, comp);
    assert_eq!(out.composition.paper_name(), Some("AllPairs"));
    assert!(out.total_secs >= 0.0);
    assert!(out.engine.is_none());
    let err: ErrorStats = estimate_errors(&out.pairs, &data, Measure::Cosine, 0.05);
    // Exact similarities → estimation error at f32-normalization noise.
    assert!(err.max_abs < 1e-6);
}

#[test]
fn direct_engine_use() {
    let data = Preset::Rcv1.load(0.0006, 4);
    let cands = vec![(0u32, 1u32), (1, 2), (2, 3)];
    let mut pool = IntSignatures::new(MinHasher::new(9), data.len());
    let bin = data.binarized();
    let (pairs, stats): (Vec<(u32, u32, f64)>, EngineStats) = bayes_verify(
        &bin,
        &mut pool,
        &JaccardModel::uniform(),
        &cands,
        &BayesLshConfig::jaccard(0.5),
    );
    assert_eq!(stats.input_pairs, 3);
    assert!(pairs.len() <= 3);
    let (lite_pairs, _) = bayes_verify_lite(
        &bin,
        &mut pool,
        &JaccardModel::uniform(),
        &cands,
        &LiteConfig::jaccard(0.5),
        jaccard,
    );
    assert!(lite_pairs.len() <= 3);
    // mle_verify with identity transform (Jaccard).
    let (mle_pairs, comps) = mle_verify(&bin, &mut pool, &cands, 64, 0.5, |f| f);
    assert_eq!(comps, 3 * 64);
    assert!(mle_pairs.len() <= 3);
}
