//! Invariants that span crate boundaries: the contracts each stage's
//! output must satisfy for the next stage, checked on realistic
//! pipeline-produced data rather than synthetic unit fixtures.

use cualign::{AlignerConfig, SparsityChoice};
use cualign_bp::{evaluate_matching, BpConfig, BpEngine};
use cualign_embed::{align_subspaces, spectral_embedding, SpectralConfig};
use cualign_graph::generators::{duplication_divergence, erdos_renyi_gnm};
use cualign_graph::permutation::AlignmentInstance;
use cualign_graph::{BipartiteGraph, CsrGraph, VertexId};
use cualign_matching::{
    greedy_matching, hungarian_matching, locally_dominant_parallel, locally_dominant_serial,
    suitor_matching,
};
use cualign_overlap::OverlapMatrix;
use cualign_rt::Rng;
use cualign_sparsify::build_alignment_graph;

/// Builds the pipeline front half on a permuted pair, returning
/// `(A, B, L, truth)`.
fn front_half(
    n: usize,
    seed: u64,
    k: usize,
) -> (CsrGraph, CsrGraph, BipartiteGraph, AlignmentInstance) {
    let mut rng = Rng::new(seed);
    let a = duplication_divergence(n, 0.42, 0.3, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a.clone(), &mut rng);
    let cfg = AlignerConfig {
        sparsity: SparsityChoice::K(k),
        ..Default::default()
    };
    let y1 = spectral_embedding(&inst.a, &cfg.embedding).expect("valid embedding config");
    let cfg_b = SpectralConfig {
        seed: cfg.embedding.seed.wrapping_add(1),
        ..cfg.embedding
    };
    let y2 = spectral_embedding(&inst.b, &cfg_b).expect("valid embedding config");
    let sub = align_subspaces(&y1, &y2, &inst.a, &inst.b, &cfg.subspace).expect("valid inputs");
    let l = build_alignment_graph(&sub.ya, &sub.yb, k);
    (inst.a.clone(), inst.b.clone(), l, inst)
}

/// The bipartite graph produced by the sparsifier upholds its structural
/// invariants, and the overlap matrix built on it upholds its own.
#[test]
fn pipeline_structures_validate() {
    let (a, b, l, _) = front_half(150, 1, 6);
    l.check_invariants().expect("L invariants");
    let s = OverlapMatrix::build(&a, &b, &l);
    s.check_invariants().expect("S invariants");
    assert_eq!(s.num_rows(), l.num_edges());
}

/// On pipeline-produced weights (real similarity distributions, many
/// near-ties), the four heuristic matchers agree exactly and the oracle
/// confirms the ½-approximation.
#[test]
fn matchers_agree_on_pipeline_weights() {
    let (_, _, l, _) = front_half(120, 2, 5);
    let serial = locally_dominant_serial(&l);
    let parallel = locally_dominant_parallel(&l);
    let greedy = greedy_matching(&l);
    assert_eq!(serial, parallel);
    assert_eq!(serial, greedy);
    assert_eq!(serial, suitor_matching(&l));
    serial.check_valid(&l).expect("valid matching");
    assert!(serial.is_maximal(&l));
    let opt = hungarian_matching(&l);
    assert!(serial.weight(&l) >= 0.5 * opt.weight(&l) - 1e-9);
}

/// The ground-truth alignment, expressed as a matching on L (where its
/// pairs survived sparsification), conserves exactly the edges the
/// overlap matrix says it does.
#[test]
fn ground_truth_overlap_consistency() {
    let (a, b, l, inst) = front_half(150, 3, 8);
    let s = OverlapMatrix::build(&a, &b, &l);
    // Collect the true pairs that survived kNN sparsification.
    let ids: Vec<u32> = (0..a.num_vertices() as VertexId)
        .filter_map(|u| l.edge_id(u, inst.truth.apply(u)))
        .collect();
    let survived = ids.len();
    let m = cualign_matching::Matching::from_edge_ids(&l, ids);
    let (_, _, overlaps) = evaluate_matching(l.weights(), &s, &m, 1.0, 1.0);
    // Count conserved edges directly from the mapping.
    let mapping: Vec<Option<VertexId>> = (0..a.num_vertices() as VertexId)
        .map(|u| m.mate_of_a(u))
        .collect();
    let direct = a
        .edges()
        .filter(|&(u, v)| {
            matches!(
                (mapping[u as usize], mapping[v as usize]),
                (Some(fu), Some(fv)) if b.has_edge(fu, fv)
            )
        })
        .count();
    assert_eq!(overlaps, direct, "S-based and mapping-based counts differ");
    // Most true pairs survive sparsification at k = 8 (the property that
    // makes sparsification safe, Fig. 4).
    assert!(
        survived as f64 > 0.85 * a.num_vertices() as f64,
        "only {survived} true pairs survived"
    );
}

/// BP on pipeline structures: message finiteness, history completeness,
/// and the outcome's internal consistency.
#[test]
fn bp_outcome_consistency_on_pipeline_data() {
    let (a, b, l, _) = front_half(120, 4, 6);
    let s = OverlapMatrix::build(&a, &b, &l);
    let cfg = BpConfig {
        max_iters: 10,
        ..Default::default()
    };
    let out = BpEngine::new(&l, &s, &cfg).run();
    assert_eq!(out.history.len(), 11); // 10 + iteration-0 direct rounding
    out.best_matching
        .check_valid(&l)
        .expect("best matching valid");
    // Re-evaluate the reported best matching; numbers must agree.
    let (score, weight, overlaps) =
        evaluate_matching(l.weights(), &s, &out.best_matching, cfg.alpha, cfg.beta);
    assert_eq!(score, out.best_score);
    assert_eq!(weight, out.best_weight);
    assert_eq!(overlaps, out.best_overlaps);
    // History's max is the best.
    let hist_max = out
        .history
        .iter()
        .map(|r| r.score)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(hist_max, out.best_score);
}

/// Increasing k strictly enlarges L and never decreases how many true
/// pairs survive sparsification.
#[test]
fn sparsification_monotonicity() {
    let mut rng = Rng::new(5);
    let a = erdos_renyi_gnm(120, 360, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let cfg = AlignerConfig::default();
    let y1 = spectral_embedding(&inst.a, &cfg.embedding).expect("valid embedding config");
    let cfg_b = SpectralConfig {
        seed: cfg.embedding.seed.wrapping_add(1),
        ..cfg.embedding
    };
    let y2 = spectral_embedding(&inst.b, &cfg_b).expect("valid embedding config");
    let sub = align_subspaces(&y1, &y2, &inst.a, &inst.b, &cfg.subspace).expect("valid inputs");
    let mut last_edges = 0;
    let mut last_survivors = 0;
    for k in [2, 4, 8, 16] {
        let l = build_alignment_graph(&sub.ya, &sub.yb, k);
        let survivors = (0..120u32)
            .filter(|&u| l.edge_id(u, inst.truth.apply(u)).is_some())
            .count();
        assert!(l.num_edges() >= last_edges, "L shrank as k grew");
        assert!(survivors >= last_survivors, "survivors dropped as k grew");
        last_edges = l.num_edges();
        last_survivors = survivors;
    }
}
