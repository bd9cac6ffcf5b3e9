//! Pins the merge-balanced BP sweep (`BpEngine::iterate`, routed through
//! `linalg::sparse`) to the original serial loops (`iterate_reference`,
//! whose exclusion steps are `sparse::exclusion_max_reference` scattered
//! per edge), bit for bit — message state and the recorded sweep
//! statistics, with span capture off and on. Also checks the full
//! pipeline: the fast and reference overlap builds plus BP runs agree on
//! `overlap.nnz` and produce identical matchings on a fixed seed pair.
//!
//! Both sweeps select exclusion maxima with the same private helper of
//! `linalg::sparse`, so this suite cannot see a fault in that selection;
//! the `sparse` unit tests check it against a naive recompute.

use cualign_bp::{evaluate_matching, BpConfig, BpEngine, SweepStats};
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::{BipartiteGraph, CsrGraph, Permutation, VertexId};
use cualign_matching::locally_dominant_parallel;
use cualign_overlap::OverlapMatrix;
use cualign_rt::Rng;
use cualign_telemetry::Registry;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file that run BP sweeps: the telemetry
/// switch is process-global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sets the global telemetry switch for a scope and turns it back off
/// on drop, even when an assertion unwinds.
struct Telemetry;

impl Telemetry {
    fn set(on: bool) -> Self {
        cualign_telemetry::set_enabled(on);
        Telemetry
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        cualign_telemetry::set_enabled(false);
    }
}

/// Ground-truthed instance: B = P(A); L holds all true pairs plus random
/// decoys (same construction as the engine's unit tests).
fn planted_instance(
    n: usize,
    edges: usize,
    decoys_per_vertex: usize,
    seed: u64,
) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, edges, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        triples.push((i, p.apply(i), 0.5));
        for _ in 0..decoys_per_vertex {
            triples.push((i, rng.below(n) as VertexId, 0.5));
        }
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

/// Skewed L: one vertex of A is a candidate for *every* vertex of B, so
/// both the side CSRs and the overlap CSR get hot rows that straddle
/// merge chunks.
fn skewed_instance(n: usize, edges: usize, seed: u64) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, edges, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        triples.push((i, p.apply(i), 0.5));
    }
    for j in 0..n as VertexId {
        triples.push((0, j, 0.5));
        triples.push((j, 0, 0.5));
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drive a fast engine and a reference engine in lockstep and demand
/// bitwise-identical message state and [`SweepStats`] after every
/// sweep; the fast engine's transposed `Sᵖ` must equal the reference's
/// `Sᵖ` gathered through the transpose permutation. Each sweep must
/// also record exactly its statistics — one `bp.residual` sample and
/// its `bp.clamp_saturations` increment, in the caller's registry — so
/// the two engines' recorded samples are equal, whether `telemetry`
/// (span capture) is on or off.
fn assert_lockstep(
    a: &CsrGraph,
    b: &CsrGraph,
    l: &BipartiteGraph,
    cfg: &BpConfig,
    iters: usize,
    telemetry: bool,
) {
    let _serial = serial();
    let _telemetry = Telemetry::set(telemetry);
    let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
    cualign_telemetry::with_registry(registry, || lockstep(registry, a, b, l, cfg, iters));
}

fn lockstep(
    registry: &Registry,
    a: &CsrGraph,
    b: &CsrGraph,
    l: &BipartiteGraph,
    cfg: &BpConfig,
    iters: usize,
) {
    let saturations = registry.counter("bp.clamp_saturations");
    let residuals = registry.histogram("bp.residual");
    let s = OverlapMatrix::build(a, b, l);
    let perm = s.transpose_perm();
    let mut fast = BpEngine::new(l, &s, cfg);
    let mut slow = BpEngine::new(l, &s, cfg);
    // Runs one sweep, checks it recorded exactly the statistics it
    // returns, and returns the residual sample's bucket delta.
    let recorded = |sweep: &mut dyn FnMut() -> SweepStats| {
        let (count0, hist0) = (saturations.get(), residuals.snapshot());
        let st = sweep();
        let (count1, hist1) = (saturations.get(), residuals.snapshot());
        assert_eq!(count1 - count0, st.saturated, "recorded saturation count");
        assert_eq!(
            hist1.count - hist0.count,
            1,
            "one residual sample per sweep"
        );
        assert_eq!(
            hist1.sum.to_bits(),
            (hist0.sum + st.residual).to_bits(),
            "recorded residual sample"
        );
        let buckets: Vec<u64> = hist1
            .buckets
            .iter()
            .zip(&hist0.buckets)
            .map(|(x, y)| x - y)
            .collect();
        (
            buckets,
            hist1.underflow - hist0.underflow,
            hist1.overflow - hist0.overflow,
        )
    };
    for k in 0..iters {
        let fast_sample = recorded(&mut || {
            fast.iterate();
            fast.last_sweep()
        });
        let slow_sample = recorded(&mut || {
            slow.iterate_reference();
            slow.last_sweep()
        });
        assert_eq!(
            fast_sample, slow_sample,
            "residual bucket diverged at iter {k}"
        );
        let (fs, ss) = (fast.last_sweep(), slow.last_sweep());
        assert_eq!(
            fs.residual.to_bits(),
            ss.residual.to_bits(),
            "residual diverged at iter {k}"
        );
        assert_eq!(
            fs.saturated, ss.saturated,
            "saturations diverged at iter {k}"
        );
        assert_eq!(bits(fast.yc()), bits(slow.yc()), "yc diverged at iter {k}");
        assert_eq!(bits(fast.zc()), bits(slow.zc()), "zc diverged at iter {k}");
        assert_eq!(bits(fast.dc()), bits(slow.dc()), "dc diverged at iter {k}");
        assert_eq!(bits(fast.sp()), bits(slow.sp()), "sp diverged at iter {k}");
        // The carried transpose is the reference's Sᵖ gathered through
        // the transpose permutation (which feeds its next F).
        let slow_st: Vec<f64> = perm.iter().map(|&p| slow.sp()[p as usize]).collect();
        assert_eq!(
            bits(fast.sp_transposed()),
            bits(&slow_st),
            "transposed sp diverged at iter {k}"
        );
    }
}

#[test]
fn iterate_matches_iterate_reference_bitwise_fused() {
    let (a, b, l) = planted_instance(40, 100, 4, 11);
    let cfg = BpConfig::default();
    assert_lockstep(&a, &b, &l, &cfg, 8, false);
}

#[test]
fn iterate_matches_iterate_reference_bitwise_warm_start() {
    let (a, b, l) = planted_instance(30, 70, 5, 13);
    let cfg = BpConfig {
        warm_start: true,
        ..Default::default()
    };
    assert_lockstep(&a, &b, &l, &cfg, 6, false);
}

/// A β whose multiples are not exact (Σ of `deg` copies of 0.1 is not
/// `0.1·deg`), so the first sweep's `dᶜ` must be the reference's chained
/// row sum, not a product.
#[test]
fn iterate_matches_iterate_reference_at_inexact_beta() {
    let (a, b, l) = planted_instance(40, 100, 4, 17);
    let cfg = BpConfig {
        alpha: 0.3,
        beta: 0.1,
        gamma: 0.9,
        ..Default::default()
    };
    assert_lockstep(&a, &b, &l, &cfg, 6, false);
}

#[test]
fn iterate_matches_iterate_reference_on_skewed_degrees() {
    let (a, b, l) = skewed_instance(60, 150, 14);
    let cfg = BpConfig::default();
    assert_lockstep(&a, &b, &l, &cfg, 6, false);
}

/// Telemetry on must not change what the sweep executes or records: the
/// same three instances, in lockstep with the reference, with span
/// capture on.
#[test]
fn iterate_matches_iterate_reference_with_telemetry_on() {
    let (a, b, l) = planted_instance(40, 100, 4, 11);
    assert_lockstep(&a, &b, &l, &BpConfig::default(), 8, true);
    let (a, b, l) = planted_instance(30, 70, 5, 13);
    let warm = BpConfig {
        warm_start: true,
        ..Default::default()
    };
    assert_lockstep(&a, &b, &l, &warm, 6, true);
    let (a, b, l) = skewed_instance(60, 150, 14);
    assert_lockstep(&a, &b, &l, &BpConfig::default(), 6, true);
}

/// Fixed seed pair, end to end: the SpGEMM-style overlap build and the
/// reference build agree on nnz (and full structure), and BP over either
/// produces the identical matching with the identical score.
#[test]
fn fixed_seed_pair_identical_matchings_and_overlap_nnz() {
    let _serial = serial();
    let (a, b, l) = planted_instance(40, 100, 4, 2026);
    let s = OverlapMatrix::build(&a, &b, &l);
    let s_ref = OverlapMatrix::build_reference(&a, &b, &l);
    assert_eq!(s.nnz(), s_ref.nnz(), "overlap.nnz must match the reference");
    assert_eq!(s.row_offsets(), s_ref.row_offsets());
    assert_eq!(s.col_indices(), s_ref.col_indices());
    assert_eq!(s.transpose_perm(), s_ref.transpose_perm());

    let cfg = BpConfig {
        max_iters: 15,
        ..Default::default()
    };
    let out_fast = BpEngine::new(&l, &s, &cfg).run();
    let out_ref = {
        // Reference trajectory: same run() schedule (iteration-0 direct
        // rounding of the original weights, then sweep+round), with the
        // sweeps replaced by the pinned serial loops.
        let mut eng = BpEngine::new(&l, &s_ref, &cfg);
        let mut l0 = l.clone();
        l0.set_weights(eng.original_weights());
        let m0 = locally_dominant_parallel(&l0);
        let (score0, _, _) =
            evaluate_matching(eng.original_weights(), &s_ref, &m0, cfg.alpha, cfg.beta);
        let mut best = (m0, score0);
        let mut best_iter = 0usize;
        for k in 1..=cfg.max_iters {
            eng.iterate_reference();
            let (m, score, _, _) = eng.round();
            if score > best.1 {
                best = (m, score);
                best_iter = k;
            }
        }
        (best, best_iter)
    };
    assert_eq!(out_fast.best_matching, out_ref.0 .0);
    assert_eq!(out_fast.best_score.to_bits(), out_ref.0 .1.to_bits());
    assert_eq!(out_fast.best_iteration, out_ref.1);
}

/// The sweep's state after a few iterations is the same bits at 1, 2
/// and 4 threads. The candidate set (each vertex's true mate plus the
/// mate's neighbors) makes the overlap pattern large enough that the
/// merge-chunk kernels really split across threads.
#[test]
fn iterate_is_identical_at_every_thread_count() {
    let n = 400usize;
    let mut rng = Rng::new(21);
    let a = erdos_renyi_gnm(n, 8 * n, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        let mate = p.apply(i);
        triples.push((i, mate, 0.5));
        triples.extend(b.neighbors(mate).iter().map(|&v| (i, v, rng.f64())));
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    let run = |threads: usize| {
        cualign_rt::par::with_threads(threads, || {
            let s = OverlapMatrix::build(&a, &b, &l);
            assert!(
                s.nnz() > cualign_rt::par::WORK_PER_RUN / 2,
                "instance too small to split: {}",
                s.nnz()
            );
            let mut e = BpEngine::new(&l, &s, &BpConfig::default());
            for _ in 0..6 {
                e.iterate();
            }
            let st = e.last_sweep();
            let state = [e.yc(), e.zc(), e.dc(), e.sp_transposed(), e.sp()].map(bits);
            (state, st.residual.to_bits(), st.saturated)
        })
    };
    let one = run(1);
    for t in [2, 4] {
        assert!(run(t) == one, "BP state differs at {t} threads");
    }
}
