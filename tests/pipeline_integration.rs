//! End-to-end integration tests of the full cuAlign pipeline across
//! graph families, configurations, and degenerate inputs.

use cualign::{cone_align, Aligner, AlignerConfig, SparsityChoice};
use cualign_bp::MatcherKind;
use cualign_embed::{spectral_embedding, SpectralConfig};
use cualign_graph::generators::{
    barabasi_albert, duplication_divergence, erdos_renyi_gnm, watts_strogatz,
};
use cualign_graph::permutation::AlignmentInstance;
use cualign_graph::CsrGraph;
use cualign_rt::Rng;

fn test_cfg() -> AlignerConfig {
    let mut cfg = AlignerConfig {
        embedding: SpectralConfig {
            dim: 24,
            oversample: 12,
            ..Default::default()
        },
        sparsity: SparsityChoice::K(8),
        ..AlignerConfig::default()
    };
    cfg.bp.max_iters = 12;
    cfg.subspace.anchors = 0;
    cfg
}

/// Self-alignment under a hidden permutation should score highly on every
/// standard graph family.
#[test]
fn aligns_across_graph_families() {
    let mut rng = Rng::new(1);
    let graphs: Vec<(&str, CsrGraph, f64)> = vec![
        ("erdos-renyi", erdos_renyi_gnm(200, 600, &mut rng), 0.55),
        ("barabasi-albert", barabasi_albert(200, 3, &mut rng), 0.5),
        ("watts-strogatz", watts_strogatz(200, 6, 0.1, &mut rng), 0.5),
        (
            "duplication-divergence",
            duplication_divergence(200, 0.45, 0.3, &mut rng),
            0.5,
        ),
    ];
    for (name, g, threshold) in graphs {
        let inst = AlignmentInstance::permuted_pair(g, &mut rng);
        let r = Aligner::new(test_cfg()).align(&inst.a, &inst.b).unwrap();
        assert!(
            r.scores.ncv_gs3 > threshold,
            "{name}: NCV-GS3 {} below {threshold}",
            r.scores.ncv_gs3
        );
    }
}

/// The central quality claim (Fig. 6): cuAlign's BP refinement never loses
/// to cone-align's direct rounding, given the shared front half.
#[test]
fn cualign_dominates_conealign_across_seeds() {
    for seed in 0..3 {
        let mut rng = Rng::new(100 + seed);
        let a = duplication_divergence(150, 0.42, 0.3, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let cfg = test_cfg();
        let cu = Aligner::new(cfg.clone()).align(&inst.a, &inst.b).unwrap();
        let cone = cone_align(&inst.a, &inst.b, &cfg).unwrap();
        assert!(
            cu.scores.conserved_edges >= cone.scores.conserved_edges,
            "seed {seed}: cuAlign conserved {} < cone-align {}",
            cu.scores.conserved_edges,
            cone.scores.conserved_edges
        );
    }
}

/// BP's reported best overlap count must agree with the independent
/// scoring module's conserved-edge count.
#[test]
fn bp_overlaps_agree_with_scoring() {
    let mut rng = Rng::new(5);
    let a = erdos_renyi_gnm(120, 360, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let r = Aligner::new(test_cfg()).align(&inst.a, &inst.b).unwrap();
    assert_eq!(
        r.bp.best_overlaps, r.scores.conserved_edges,
        "S-based overlap count and mapping-based conserved count disagree"
    );
}

/// All four rounding matchers drive the pipeline to the same best
/// objective (the locally dominant matching is unique; greedy and Suitor
/// coincide with it under the shared preference order).
#[test]
fn matcher_choice_is_equivalent() {
    let mut rng = Rng::new(6);
    let a = erdos_renyi_gnm(100, 300, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut results = Vec::new();
    for matcher in [
        MatcherKind::Serial,
        MatcherKind::Parallel,
        MatcherKind::Greedy,
        MatcherKind::Suitor,
    ] {
        let mut cfg = test_cfg();
        cfg.bp.matcher = matcher;
        results.push(
            Aligner::new(cfg)
                .align(&inst.a, &inst.b)
                .unwrap()
                .bp
                .best_score,
        );
    }
    assert!(results.iter().all(|r| r.to_bits() == results[0].to_bits()));
}

/// Density and k sparsification agree when they resolve to the same k.
#[test]
fn density_and_k_equivalence() {
    let mut rng = Rng::new(7);
    let a = erdos_renyi_gnm(100, 250, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut cfg_k = test_cfg();
    cfg_k.sparsity = SparsityChoice::K(5);
    let mut cfg_d = test_cfg();
    cfg_d.sparsity = SparsityChoice::Density(0.05); // 0.05 · 100 = 5
    let rk = Aligner::new(cfg_k).align(&inst.a, &inst.b).unwrap();
    let rd = Aligner::new(cfg_d).align(&inst.a, &inst.b).unwrap();
    assert_eq!(rk.l_edges, rd.l_edges);
    assert_eq!(rk.scores, rd.scores);
}

/// Degenerate input: a graph with no edges aligns without panicking and
/// scores zero.
#[test]
fn edgeless_graphs_do_not_panic() {
    let a = CsrGraph::from_edges(30, &[(0, 1)]); // nearly edgeless
    let b = a.clone();
    let mut cfg = test_cfg();
    cfg.embedding = SpectralConfig {
        dim: 4,
        oversample: 4,
        ..Default::default()
    };
    let r = Aligner::new(cfg).align(&a, &b).unwrap();
    assert!(r.scores.ncv_gs3 >= 0.0);
}

/// Rectangular instances (|V_A| ≠ |V_B|) flow through every stage.
#[test]
fn different_sized_graphs() {
    let mut rng = Rng::new(8);
    let a = erdos_renyi_gnm(80, 200, &mut rng);
    let b = erdos_renyi_gnm(120, 300, &mut rng);
    let r = Aligner::new(test_cfg()).align(&a, &b).unwrap();
    assert_eq!(r.mapping.len(), 80);
    assert!(r.matching.len() <= 80);
    for m in r.mapping.iter().flatten() {
        assert!((*m as usize) < 120);
    }
}

/// The alternative sparsifier (mutual kNN, a future-work extension) runs
/// end-to-end and still recovers a permuted instance.
#[test]
fn alternative_sparsifiers_align() {
    let mut rng = Rng::new(21);
    let a = erdos_renyi_gnm(120, 360, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut cfg = test_cfg();
    cfg.sparsity = SparsityChoice::MutualK(8);
    let r = Aligner::new(cfg).align(&inst.a, &inst.b).unwrap();
    assert!(
        r.scores.ncv_gs3 > 0.4,
        "mutual kNN: NCV-GS3 only {}",
        r.scores.ncv_gs3
    );
    assert!(!r.matching.is_empty());
}

/// The baseline suite runs end-to-end and the expected quality ordering
/// holds: cuAlign ≥ cone-align, and both comfortably beat unseeded
/// IsoRank on a permuted PPI-like instance (IsoRank without priors
/// cannot break symmetries).
#[test]
fn baseline_quality_ordering() {
    use cualign::baselines::isorank::IsoRankConfig;
    use cualign::baselines::seed_expand::{seed_and_expand, truth_seeds, SeedExpandConfig};
    let mut rng = Rng::new(31);
    let a = duplication_divergence(150, 0.42, 0.3, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let cfg = test_cfg();
    let cu = Aligner::new(cfg.clone()).align(&inst.a, &inst.b).unwrap();
    let cone = cone_align(&inst.a, &inst.b, &cfg).unwrap();
    let iso = cualign::isorank_align(&inst.a, &inst.b, &IsoRankConfig::default()).unwrap();
    assert!(cu.scores.conserved_edges >= cone.scores.conserved_edges);
    assert!(
        cu.scores.ncv_gs3 > iso.scores.ncv_gs3,
        "cuAlign {} ≤ IsoRank {}",
        cu.scores.ncv_gs3,
        iso.scores.ncv_gs3
    );
    // Seed-and-extend with generous ground-truth seeds is a strong
    // comparator; cuAlign without any seeds should still be in its league.
    let seeds = truth_seeds(&inst.truth, 10);
    let se = seed_and_expand(&inst.a, &inst.b, &seeds, &SeedExpandConfig::default());
    assert!(se.scores.conserved_edges > 0);
}

/// BP's objective on tiny instances is close to the exact optimum.
#[test]
fn bp_near_exact_on_tiny_instances() {
    use cualign::exact_alignment;
    for seed in 0..5 {
        let mut rng = Rng::new(500 + seed);
        let a = erdos_renyi_gnm(9, 14, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let exact = exact_alignment(&inst.a, &inst.b);
        let mut cfg = test_cfg();
        cfg.embedding = SpectralConfig {
            dim: 4,
            oversample: 4,
            ..Default::default()
        };
        cfg.sparsity = SparsityChoice::K(9); // complete candidate graph
        cfg.bp.max_iters = 20;
        let cu = Aligner::new(cfg).align(&inst.a, &inst.b).unwrap();
        assert!(
            cu.scores.conserved_edges * 2 >= exact.conserved,
            "seed {seed}: BP conserved {} < half of exact {}",
            cu.scores.conserved_edges,
            exact.conserved
        );
    }
}

/// More BP iterations never reduce the best objective (monotone running
/// max over a longer candidate sequence with a shared prefix).
#[test]
fn more_iterations_never_hurt_objective() {
    let mut rng = Rng::new(9);
    let a = erdos_renyi_gnm(100, 280, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut short = test_cfg();
    short.bp.max_iters = 4;
    let mut long = test_cfg();
    long.bp.max_iters = 16;
    let rs = Aligner::new(short).align(&inst.a, &inst.b).unwrap();
    let rl = Aligner::new(long).align(&inst.a, &inst.b).unwrap();
    assert!(rl.bp.best_score >= rs.bp.best_score);
}

/// The whole pipeline — embedding, sparsification, overlap build, BP and
/// matching — gives the same matching and objective bits at 1, 2 and 4
/// threads.
#[test]
fn alignment_is_identical_at_every_thread_count() {
    let mut rng = Rng::new(8);
    let inst = AlignmentInstance::permuted_pair(erdos_renyi_gnm(250, 1000, &mut rng), &mut rng);
    let run = |threads: usize| {
        cualign_rt::par::with_threads(threads, || {
            Aligner::new(test_cfg()).align(&inst.a, &inst.b).unwrap()
        })
    };
    let one = run(1);
    for t in [2, 4] {
        let r = run(t);
        assert_eq!(r.matching, one.matching, "{t} threads");
        assert_eq!(r.mapping, one.mapping, "{t} threads");
        assert_eq!(
            r.bp.best_score.to_bits(),
            one.bp.best_score.to_bits(),
            "{t} threads"
        );
        assert_eq!(r.s_nnz, one.s_nnz, "{t} threads");
    }
}

/// The spectral embedding — parallel propagation and GEMM around the
/// row-streaming QR — returns the same bits at any thread count. The
/// average degree of 40 makes the propagation split into parallel runs
/// at n = 400.
#[test]
fn spectral_embedding_is_identical_at_every_thread_count() {
    let g = erdos_renyi_gnm(400, 8000, &mut Rng::new(9));
    let run = |threads: usize| {
        cualign_rt::par::with_threads(threads, || {
            spectral_embedding(&g, &SpectralConfig::default()).unwrap()
        })
    };
    let one = run(1);
    for t in [2, 4] {
        let e = run(t);
        assert_eq!((e.rows(), e.cols()), (one.rows(), one.cols()));
        assert!(
            e.data()
                .iter()
                .zip(one.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{t} threads"
        );
    }
}
