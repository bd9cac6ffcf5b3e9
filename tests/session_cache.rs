//! Cache semantics of [`AlignmentSession`]: which configuration changes
//! invalidate which pipeline stages, equivalence with the one-shot
//! [`Aligner`], and clean errors on degenerate inputs.

use cualign::{
    cone_align_session, AlignError, Aligner, AlignerConfig, AlignmentSession, GraphSide,
    SparsityChoice, StageCounters,
};
use cualign_bp::{BpConfig, MatcherKind};
use cualign_embed::{SpectralConfig, SubspaceAlignConfig};
use cualign_graph::generators::{duplication_divergence, erdos_renyi_gnm};
use cualign_graph::permutation::AlignmentInstance;
use cualign_graph::CsrGraph;
use cualign_linalg::SinkhornOptions;
use cualign_rt::Rng;

fn test_cfg() -> AlignerConfig {
    let mut cfg = AlignerConfig {
        embedding: SpectralConfig {
            dim: 20,
            oversample: 10,
            ..Default::default()
        },
        sparsity: SparsityChoice::K(6),
        ..AlignerConfig::default()
    };
    cfg.bp.max_iters = 8;
    cfg.subspace.anchors = 0;
    cfg
}

fn instance(seed: u64, n: usize, m: usize) -> AlignmentInstance {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, m, &mut rng);
    AlignmentInstance::permuted_pair(a, &mut rng)
}

/// The tentpole contract: changing `sparsity` must NOT recompute the
/// embeddings or the subspace alignment.
#[test]
fn changing_sparsity_reuses_embeddings_and_subspace() {
    let inst = instance(1, 120, 360);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    s.align().unwrap();

    for (i, k) in [8, 10, 12].into_iter().enumerate() {
        s.update_config(|c| c.sparsity = SparsityChoice::K(k))
            .unwrap();
        let r = s.align().unwrap();
        // Embedding + subspace are served from cache every time.
        assert_eq!(r.timings.cache_hits, 2, "sweep step {i}");
        assert_eq!(r.timings.embedding_s, 0.0);
        assert_eq!(r.timings.subspace_s, 0.0);
    }
    let c = s.counters();
    assert_eq!(c.embedding_builds, 1);
    assert_eq!(c.subspace_builds, 1);
    assert_eq!(c.sparsify_builds, 4);
    assert_eq!(c.overlap_builds, 4);
    assert_eq!(c.optimize_builds, 4);
}

/// Changing only the BP budget reuses everything through `S`.
#[test]
fn changing_bp_iters_reuses_through_overlap() {
    let inst = instance(2, 100, 300);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    s.align().unwrap();

    s.update_config(|c| c.bp.max_iters = 16).unwrap();
    let r = s.align().unwrap();
    assert_eq!(r.timings.cache_hits, 4);
    assert_eq!(r.timings.init_s(), 0.0);
    let c = s.counters();
    assert_eq!(c.embedding_builds, 1);
    assert_eq!(c.sparsify_builds, 1);
    assert_eq!(c.overlap_builds, 1);
    assert_eq!(c.optimize_builds, 2);
    // A longer budget extends the history past the shared prefix.
    assert_eq!(r.bp.history.len(), 17);
}

/// Changing the embedding seed invalidates the whole chain.
#[test]
fn changing_embedding_seed_invalidates_everything() {
    let inst = instance(3, 100, 300);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    s.align().unwrap();

    s.update_config(|c| {
        c.embedding.seed = c.embedding.seed.wrapping_add(1);
    })
    .unwrap();
    let r = s.align().unwrap();
    assert_eq!(r.timings.cache_hits, 0);
    let c = s.counters();
    assert_eq!(c.embedding_builds, 2);
    assert_eq!(c.subspace_builds, 2);
    assert_eq!(c.sparsify_builds, 2);
    assert_eq!(c.overlap_builds, 2);
    assert_eq!(c.optimize_builds, 2);
}

/// Round-tripping a config change back to the original value still
/// rebuilds (the cache holds one artifact per stage, not a history), and
/// the rebuilt result is bit-identical to the first.
#[test]
fn config_round_trip_rebuilds_deterministically() {
    let inst = instance(4, 90, 240);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    let r1 = s.align().unwrap();
    s.update_config(|c| c.sparsity = SparsityChoice::K(9))
        .unwrap();
    s.align().unwrap();
    s.update_config(|c| c.sparsity = SparsityChoice::K(6))
        .unwrap();
    let r3 = s.align().unwrap();
    assert_eq!(r1.mapping, r3.mapping);
    assert_eq!(r1.scores, r3.scores);
    assert_eq!(s.counters().sparsify_builds, 3);
    assert_eq!(s.counters().embedding_builds, 1);
}

/// Session results equal the one-shot `Aligner::align` results exactly,
/// for every density in a sweep.
#[test]
fn session_sweep_matches_oneshot_sweep() {
    let mut rng = Rng::new(5);
    let a = duplication_divergence(130, 0.45, 0.3, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut session = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    for density in [0.02, 0.05, 0.10] {
        session
            .update_config(|c| c.sparsity = SparsityChoice::Density(density))
            .unwrap();
        let from_session = session.align().unwrap();

        let mut cfg = test_cfg();
        cfg.sparsity = SparsityChoice::Density(density);
        let oneshot = Aligner::new(cfg).align(&inst.a, &inst.b).unwrap();

        assert_eq!(from_session.mapping, oneshot.mapping, "density {density}");
        assert_eq!(from_session.scores, oneshot.scores);
        assert_eq!(from_session.l_edges, oneshot.l_edges);
        assert_eq!(from_session.s_nnz, oneshot.s_nnz);
        assert_eq!(from_session.bp.best_score, oneshot.bp.best_score);
    }
}

/// Partial pipelines: the stage accessors expose usable artifacts and
/// `cone_align_session` rounds the cached `L` without rebuilding.
#[test]
fn partial_pipeline_artifacts_are_consistent() {
    let inst = instance(6, 80, 220);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    let dim = {
        let emb = s.embeddings().unwrap();
        assert_eq!(emb.y1.rows(), inst.a.num_vertices());
        assert_eq!(emb.y2.rows(), inst.b.num_vertices());
        emb.y1.cols()
    };
    assert_eq!(dim, 20);
    let (l_edges, s_rows) = {
        let (l, sm) = s.artifacts().unwrap();
        (l.num_edges(), sm.num_rows())
    };
    assert_eq!(l_edges, s_rows);
    let cone = cone_align_session(&mut s).unwrap();
    assert!(!cone.matching.is_empty());
    assert_eq!(s.counters().optimize_builds, 0, "cone must not trigger BP");
    assert_eq!(s.counters().sparsify_builds, 1);
}

/// Degenerate inputs and configs surface as typed errors, not panics.
#[test]
fn degenerate_inputs_and_configs_error() {
    let empty = CsrGraph::from_edges(0, &[]);
    let mut rng = Rng::new(7);
    let g = erdos_renyi_gnm(40, 100, &mut rng);

    match AlignmentSession::new(&empty, &g, test_cfg()) {
        Err(AlignError::EmptyGraph { side }) => assert_eq!(side, GraphSide::A),
        other => panic!("expected EmptyGraph, got {:?}", other.err()),
    }
    match AlignmentSession::new(&g, &empty, test_cfg()) {
        Err(AlignError::EmptyGraph { side }) => assert_eq!(side, GraphSide::B),
        other => panic!("expected EmptyGraph, got {:?}", other.err()),
    }

    let tiny = erdos_renyi_gnm(8, 16, &mut rng);
    assert!(matches!(
        AlignmentSession::new(&tiny, &g, test_cfg()),
        Err(AlignError::DimExceedsVertices {
            dim: 20,
            vertices: 8
        })
    ));

    let mut bad = test_cfg();
    bad.sparsity = SparsityChoice::Density(0.0);
    assert!(matches!(
        AlignmentSession::new(&g, &g, bad),
        Err(AlignError::InvalidConfig {
            field: "sparsity.density",
            ..
        })
    ));

    // One 32-bit LSH band without probes pairs two rows only on an exact
    // signature match. On two independent graphs no row pair matches and
    // no WL label agrees, so stage 3 yields EmptySparsification.
    let h = erdos_renyi_gnm(40, 100, &mut rng);
    let mut strict = test_cfg();
    strict.sparsity = SparsityChoice::Ann {
        k: 4,
        bands: 1,
        bits: 32,
        probes: 0,
    };
    let mut s2 = AlignmentSession::new(&g, &h, strict).unwrap();
    match s2.align() {
        Err(AlignError::EmptySparsification) => {}
        Ok(r) => panic!("expected EmptySparsification, got {} L edges", r.l_edges),
        Err(other) => panic!("unexpected error {other:?}"),
    }

    // Rejected reconfiguration leaves the session usable.
    let inst = instance(8, 60, 150);
    let mut s3 = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    assert!(s3
        .update_config(|c| c.sparsity = SparsityChoice::Density(2.0))
        .is_err());
    assert!(s3.align().is_ok(), "session must survive a rejected config");
}

/// ANN knobs are sparsify-stage fingerprint ingredients: flipping only
/// `probes` rebuilds the sparsify suffix (L → S → BP) while embeddings
/// and subspace stay cached — exactly like sweeping `k` on the exact
/// path.
#[test]
fn changing_ann_probes_invalidates_sparsify_suffix_only() {
    let inst = instance(10, 120, 360);
    let mut cfg = test_cfg();
    cfg.sparsity = SparsityChoice::Ann {
        k: 6,
        bands: 8,
        bits: 10,
        probes: 2,
    };
    let mut s = AlignmentSession::new(&inst.a, &inst.b, cfg).unwrap();
    s.align().unwrap();

    s.update_config(|c| {
        if let SparsityChoice::Ann { probes, .. } = &mut c.sparsity {
            *probes = 3;
        }
    })
    .unwrap();
    let r = s.align().unwrap();
    // Embedding + subspace served from cache; sparsify onward rebuilt.
    assert_eq!(r.timings.cache_hits, 2);
    assert_eq!(r.timings.embedding_s, 0.0);
    assert_eq!(r.timings.subspace_s, 0.0);
    let c = s.counters();
    assert_eq!(c.embedding_builds, 1);
    assert_eq!(c.subspace_builds, 1);
    assert_eq!(c.sparsify_builds, 2);
    assert_eq!(c.overlap_builds, 2);
    assert_eq!(c.optimize_builds, 2);

    // A no-op reconfiguration must not invalidate anything.
    s.update_config(|_| {}).unwrap();
    let r2 = s.align().unwrap();
    assert_eq!(r2.timings.cache_hits, 5);
    assert_eq!(s.counters().sparsify_builds, 2);
}

/// `set_config` swaps whole configurations and still only rebuilds what
/// changed relative to the *cached artifacts*, not the previous config.
#[test]
fn set_config_invalidates_by_artifact_fingerprint() {
    let inst = instance(9, 100, 280);
    let cfg_a = test_cfg();
    let mut cfg_b = test_cfg();
    cfg_b.sparsity = SparsityChoice::K(10);

    let mut s = AlignmentSession::new(&inst.a, &inst.b, cfg_a.clone()).unwrap();
    s.align().unwrap();
    s.set_config(cfg_b).unwrap();
    s.align().unwrap();
    // Swapping back to A: the cache holds B's artifacts, so the back half
    // rebuilds, but the front half (identical in A and B) is reused.
    s.set_config(cfg_a).unwrap();
    let r = s.align().unwrap();
    assert_eq!(r.timings.cache_hits, 2);
    assert_eq!(s.counters().embedding_builds, 1);
    assert_eq!(s.counters().sparsify_builds, 3);
}

/// Builds per stage, in pipeline order.
fn builds(c: StageCounters) -> [usize; 5] {
    [
        c.embedding_builds,
        c.subspace_builds,
        c.sparsify_builds,
        c.overlap_builds,
        c.optimize_builds,
    ]
}

/// One field at a time, on a warm session: a change to a stage's
/// configuration slice rebuilds that stage and every stage after it, and
/// nothing before it. Rows cover every field of every stage's slice and
/// every sparsity rule; re-setting the unchanged config rebuilds nothing.
#[test]
fn every_config_field_invalidates_exactly_its_suffix() {
    type Edit = fn(&mut AlignerConfig);
    const EMBED: [usize; 5] = [1, 1, 1, 1, 1];
    const SUBSPACE: [usize; 5] = [0, 1, 1, 1, 1];
    const SPARSIFY: [usize; 5] = [0, 0, 1, 1, 1];
    const OPTIMIZE: [usize; 5] = [0, 0, 0, 0, 1];

    fn exact(_: &mut AlignerConfig) {}
    fn density(c: &mut AlignerConfig) {
        c.sparsity = SparsityChoice::Density(0.1);
    }
    fn mutual(c: &mut AlignerConfig) {
        c.sparsity = SparsityChoice::MutualK(6);
    }
    fn ann(c: &mut AlignerConfig) {
        c.sparsity = SparsityChoice::Ann {
            k: 6,
            bands: 8,
            bits: 10,
            probes: 2,
        };
    }
    fn ann_field(c: &mut AlignerConfig, edit: impl FnOnce(&mut [&mut usize; 4])) {
        if let SparsityChoice::Ann {
            k,
            bands,
            bits,
            probes,
        } = &mut c.sparsity
        {
            edit(&mut [k, bands, bits, probes]);
        }
    }

    // (row, base sparsity rule, edit, stages rebuilt)
    let rows: &[(&str, Edit, Edit, [usize; 5])] = &[
        ("embedding.dim", exact, |c| c.embedding.dim += 1, EMBED),
        ("embedding.iters", exact, |c| c.embedding.iters += 1, EMBED),
        (
            "embedding.oversample",
            exact,
            |c| c.embedding.oversample += 1,
            EMBED,
        ),
        ("embedding.seed", exact, |c| c.embedding.seed += 1, EMBED),
        (
            "embedding.normalize",
            exact,
            |c| c.embedding.normalize ^= true,
            EMBED,
        ),
        (
            "subspace.anchors",
            exact,
            |c| c.subspace.anchors = 40,
            SUBSPACE,
        ),
        (
            "subspace.iterations",
            exact,
            |c| c.subspace.iterations += 1,
            SUBSPACE,
        ),
        (
            "subspace.sinkhorn.epsilon",
            exact,
            |c| c.subspace.sinkhorn.epsilon *= 1.5,
            SUBSPACE,
        ),
        (
            "subspace.sinkhorn.max_iters",
            exact,
            |c| c.subspace.sinkhorn.max_iters += 1,
            SUBSPACE,
        ),
        (
            "subspace.sinkhorn.tolerance",
            exact,
            |c| c.subspace.sinkhorn.tolerance *= 2.0,
            SUBSPACE,
        ),
        (
            "subspace.epsilon_start",
            exact,
            |c| c.subspace.epsilon_start *= 1.5,
            SUBSPACE,
        ),
        (
            "sparsity K.k",
            exact,
            |c| c.sparsity = SparsityChoice::K(7),
            SPARSIFY,
        ),
        ("sparsity K -> Density", exact, density, SPARSIFY),
        (
            "sparsity Density.density",
            density,
            |c| c.sparsity = SparsityChoice::Density(0.12),
            SPARSIFY,
        ),
        ("sparsity K -> MutualK, same k", exact, mutual, SPARSIFY),
        (
            "sparsity MutualK.k",
            mutual,
            |c| c.sparsity = SparsityChoice::MutualK(7),
            SPARSIFY,
        ),
        ("sparsity K -> Ann, same k", exact, ann, SPARSIFY),
        (
            "sparsity Ann.k",
            ann,
            |c| ann_field(c, |f| *f[0] += 1),
            SPARSIFY,
        ),
        (
            "sparsity Ann.bands",
            ann,
            |c| ann_field(c, |f| *f[1] += 1),
            SPARSIFY,
        ),
        (
            "sparsity Ann.bits",
            ann,
            |c| ann_field(c, |f| *f[2] += 1),
            SPARSIFY,
        ),
        (
            "sparsity Ann.probes",
            ann,
            |c| ann_field(c, |f| *f[3] += 1),
            SPARSIFY,
        ),
        ("bp.alpha", exact, |c| c.bp.alpha *= 1.5, OPTIMIZE),
        ("bp.beta", exact, |c| c.bp.beta *= 1.5, OPTIMIZE),
        ("bp.gamma", exact, |c| c.bp.gamma *= 0.9, OPTIMIZE),
        ("bp.max_iters", exact, |c| c.bp.max_iters += 1, OPTIMIZE),
        (
            "bp.matcher",
            exact,
            |c| c.bp.matcher = MatcherKind::Serial,
            OPTIMIZE,
        ),
        (
            "bp.warm_start",
            exact,
            |c| c.bp.warm_start ^= true,
            OPTIMIZE,
        ),
    ];

    // Destructured without `..`: a field added to a stage's config fails
    // to compile here until it gets a row above.
    let cfg = test_cfg();
    let SpectralConfig {
        dim: _,
        iters: _,
        oversample: _,
        seed: _,
        normalize: _,
    } = cfg.embedding;
    let SubspaceAlignConfig {
        anchors: _,
        iterations: _,
        sinkhorn:
            SinkhornOptions {
                epsilon: _,
                max_iters: _,
                tolerance: _,
            },
        epsilon_start: _,
    } = cfg.subspace;
    let BpConfig {
        alpha: _,
        beta: _,
        gamma: _,
        max_iters: _,
        matcher: _,
        warm_start: _,
    } = cfg.bp;
    match cfg.sparsity {
        SparsityChoice::K(_)
        | SparsityChoice::Density(_)
        | SparsityChoice::MutualK(_)
        | SparsityChoice::Ann { .. } => {}
    }

    let inst = instance(17, 80, 240);
    let mut s = AlignmentSession::new(&inst.a, &inst.b, cfg.clone()).unwrap();
    for &(row, base, edit, rebuilt) in rows {
        let mut from = cfg.clone();
        base(&mut from);
        s.set_config(from.clone()).unwrap();
        s.align().unwrap();
        let warm = builds(s.counters());

        s.set_config(from.clone()).unwrap();
        s.align().unwrap();
        assert_eq!(
            builds(s.counters()),
            warm,
            "{row}: unchanged config rebuilt"
        );

        let mut to = from;
        edit(&mut to);
        s.set_config(to).unwrap();
        let r = s.align().unwrap();
        let after = builds(s.counters());
        let delta: [usize; 5] = std::array::from_fn(|i| after[i] - warm[i]);
        assert_eq!(delta, rebuilt, "{row}");
        assert_eq!(
            r.timings.cache_hits,
            5 - rebuilt.iter().sum::<usize>(),
            "{row}"
        );
    }
}
