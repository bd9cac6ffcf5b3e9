//! Property tests pinning the subspace stage's fast kernels to their
//! in-tree reference oracles (the `prop_gemm.rs` pattern, adapted):
//!
//! * [`pairwise_cost`] vs [`pairwise_cost_reference`] — the GEMM
//!   expansion `‖x‖² + ‖z‖² − 2·x·z` reassociates the per-pair sums, so
//!   the pin is a tight tolerance (1e-10 on unit-scale Gaussians), not
//!   bitwise, over random shapes including tile-edge and degenerate
//!   dimensions.
//! * scaling-domain [`sinkhorn`] vs [`sinkhorn_reference`] — mat-vec
//!   sweeps over a cached Gibbs kernel plus the polynomial `exp` differ
//!   from the seed sweep only in floating-point association; plans must
//!   agree element-wise to 1e-9 on random cost matrices spanning the
//!   annealing schedule's ε range, and on pipeline-scale costs that
//!   drive the solver through its log-domain stabilizing sweeps.
//! * [`align_subspaces`] vs [`align_subspaces_reference`] — the full
//!   alternation stays glued end-to-end on planted permuted pairs.
//! * thread-count identity — an annealed warm-started Sinkhorn sequence
//!   and a full [`align_subspaces`] give the same bits at 1, 2 and 4
//!   threads.

use cualign_embed::{
    align_subspaces, align_subspaces_reference, pairwise_cost, pairwise_cost_reference,
    SubspaceAlignConfig,
};
use cualign_graph::generators::barabasi_albert;
use cualign_linalg::{
    sinkhorn, sinkhorn_reference, sinkhorn_warm_with, DenseMatrix, SinkhornOptions,
    SinkhornWorkspace,
};
use cualign_rt::check::cases;
use cualign_rt::{par, Rng};

fn gaussian(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::gaussian(rows, cols, &mut Rng::new(seed))
}

fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// GEMM-based cost ≡ scalar reference on random rectangular shapes,
/// including non-multiple-of-tile edges, single rows/columns, and the
/// zero-dimensional embedding (every distance 0).
#[test]
fn gemm_cost_matches_reference() {
    cases(64, 1, |rng| {
        let (n, m, d) = (rng.range(1..40), rng.range(1..40), rng.below(20));
        let seed = rng.below(10_000) as u64;
        let x = gaussian(n, d, seed);
        let z = gaussian(m, d, seed.wrapping_add(1));
        let fast = pairwise_cost(&x, &z);
        let oracle = pairwise_cost_reference(&x, &z);
        assert_eq!((fast.rows(), fast.cols()), (n, m));
        let worst = max_abs_diff(&fast, &oracle);
        assert!(worst < 1e-10, "cost kernels diverge by {worst:e}");
    });
}

/// Identical rows must cost (numerically) zero under both kernels —
/// the tie case where the GEMM expansion is most cancellation-prone
/// (and where its zero-clamp engages).
#[test]
fn gemm_cost_ties_are_clamped_nonnegative() {
    cases(64, 2, |rng| {
        let (n, d) = (rng.range(1..24), rng.range(1..16));
        let x = gaussian(n, d, rng.below(10_000) as u64);
        let fast = pairwise_cost(&x, &x);
        for i in 0..n {
            assert!(fast[(i, i)] >= 0.0);
            assert!(fast[(i, i)] < 1e-10, "self-cost {:e}", fast[(i, i)]);
        }
        assert!(fast.data().iter().all(|&c| c >= 0.0));
    });
}

fn bits(a: &DenseMatrix) -> Vec<u64> {
    a.data().iter().map(|x| x.to_bits()).collect()
}

/// `scale · |g|` for a Gaussian draw `g`: a non-negative cost matrix
/// whose spread grows with `scale`, like the pipeline's squared
/// distances do with the embedding dimension.
fn abs_cost(n: usize, m: usize, scale: f64, seed: u64) -> DenseMatrix {
    let g = gaussian(n, m, seed);
    DenseMatrix::from_fn(n, m, |i, j| scale * g[(i, j)].abs())
}

/// Scaling Sinkhorn ≡ the seed sweep on random cost matrices, across
/// the ε range the annealed schedule actually visits, rectangular
/// shapes, and column counts straddling the COL_BLOCK panel edge.
#[test]
fn blocked_sinkhorn_matches_reference() {
    cases(64, 3, |rng| {
        let (n, m, eps_scaled) = (rng.range(1..30), rng.range(1..30), rng.range(1..12));
        let mut rng = Rng::new(rng.below(10_000) as u64);
        let cost = DenseMatrix::gaussian(n, m, &mut rng);
        // Costs are squared distances in the pipeline: keep them ≥ 0.
        let cost = DenseMatrix::from_fn(n, m, |i, j| cost[(i, j)].abs());
        let opts = SinkhornOptions {
            epsilon: 0.05 * eps_scaled as f64, // 0.05 ..= 0.55
            max_iters: 200,
            tolerance: 1e-7,
        };
        let fast = sinkhorn(&cost, &opts);
        let oracle = sinkhorn_reference(&cost, &opts);
        let worst = max_abs_diff(&fast.plan, &oracle.plan);
        assert!(worst < 1e-9, "plans diverge by {worst:e}");
        assert!(
            (fast.marginal_error - oracle.marginal_error).abs() < 1e-9,
            "marginal errors diverge: {} vs {}",
            fast.marginal_error,
            oracle.marginal_error
        );
    });
}

/// Scaling Sinkhorn ≡ the seed sweep where the scaling domain needs its
/// stabilizer: up to 300 columns (one and two COL_BLOCK panels) and
/// costs up to 300 at the pipeline's final ε = 0.05. At that ratio the
/// cached Gibbs kernel underflows far enough that the scalings leave
/// their range, so the solver must redo sweeps in the log domain — at
/// least one case has to, or the fallback is untested. A unit-scale cost
/// stays inside the range and must not take one.
#[test]
fn scaling_sinkhorn_matches_reference_through_stabilization() {
    let opts = SinkhornOptions {
        epsilon: 0.05,
        max_iters: 60,
        tolerance: 1e-7,
    };
    let pin = |cost: &DenseMatrix| {
        let fast = sinkhorn(cost, &opts);
        let oracle = sinkhorn_reference(cost, &opts);
        let worst = max_abs_diff(&fast.plan, &oracle.plan);
        assert!(worst < 1e-9, "plans diverge by {worst:e}");
        assert!(
            (fast.marginal_error - oracle.marginal_error).abs() < 1e-9,
            "marginal errors diverge: {} vs {}",
            fast.marginal_error,
            oracle.marginal_error
        );
        assert_eq!(oracle.stabilized_sweeps, 0);
        fast.stabilized_sweeps
    };
    let mut stabilized = 0;
    cases(8, 5, |rng| {
        let (n, m) = (rng.range(1..48), rng.range(100..301));
        let scale = rng.range_f64(30.0, 300.0);
        stabilized += pin(&abs_cost(n, m, scale, rng.below(10_000) as u64));
    });
    assert!(stabilized > 0, "no case took a stabilizing sweep");
    assert_eq!(pin(&abs_cost(40, 300, 1.0, 7)), 0);
}

/// The subspace stage gives the same bits at any thread count: an
/// annealed, warm-started Sinkhorn sequence over a three-panel cost
/// matrix, and a full alignment at 400 anchors.
#[test]
fn subspace_stage_is_thread_count_invariant() {
    let cost = abs_cost(300, 600, 4.0, 21);
    let anneal = || {
        let mut ws = SinkhornWorkspace::new();
        let mut out = Vec::new();
        for round in 0..4 {
            let opts = SinkhornOptions {
                epsilon: 0.5 * 0.46f64.powi(round),
                max_iters: 16,
                tolerance: 1e-6,
            };
            let tp = sinkhorn_warm_with(&cost, &opts, &mut ws);
            out.push((
                bits(&tp.plan),
                tp.iterations,
                tp.stabilized_sweeps,
                tp.marginal_error.to_bits(),
            ));
        }
        out
    };

    let n = 400;
    let mut rng = Rng::new(22);
    let ga = barabasi_albert(n, 4, &mut rng);
    let p = cualign_graph::Permutation::random(n, &mut rng);
    let gb = p.apply_to_graph(&ga);
    let y1 = gaussian(n, 64, 23);
    let noise = gaussian(n, 64, 24);
    let mut y2 = DenseMatrix::zeros(n, 64);
    for i in 0..n {
        let dst = y2.row_mut(p.apply(i as u32) as usize);
        for ((o, &y), &e) in dst.iter_mut().zip(y1.row(i)).zip(noise.row(i)) {
            *o = y + 0.3 * e;
        }
    }
    let cfg = SubspaceAlignConfig {
        anchors: n,
        ..Default::default()
    };
    let align = || {
        let a = align_subspaces(&y1, &y2, &ga, &gb, &cfg).unwrap();
        let costs: Vec<u64> = a.round_costs.iter().map(|c| c.to_bits()).collect();
        (bits(&a.rotation), costs)
    };

    let (anneal1, align1) = par::with_threads(1, || (anneal(), align()));
    for t in [2, 4] {
        let (anneal_t, align_t) = par::with_threads(t, || (anneal(), align()));
        assert!(
            anneal_t == anneal1,
            "annealed Sinkhorn differs at {t} threads"
        );
        assert!(align_t == align1, "align_subspaces differs at {t} threads");
    }
}

/// The fast alternation and the seed (all-reference) alternation stay
/// glued end-to-end on planted instances: the two paths seed the
/// alternation differently (the fast path caps the stalled init
/// solve), so the pin is the *fixed point* — on a planted permuted
/// pair the annealed rounds must converge to the same rotation from
/// either seed, without kernel-level 1e-12 disagreements or the
/// coarser seed being amplified into a different matching.
#[test]
fn fast_alignment_tracks_reference_alignment() {
    // End-to-end alternation runs two full alignments per case; keep the
    // case count small.
    cases(6, 4, |rng| {
        let n = rng.range(40..80);
        let seed = rng.below(1_000) as u64;
        let mut rng = Rng::new(seed);
        let ga = barabasi_albert(n, 3, &mut rng);
        let p = cualign_graph::Permutation::random(n, &mut rng);
        let gb = p.apply_to_graph(&ga);
        let y1 = gaussian(n, 8, seed.wrapping_add(2));
        let q0 = cualign_linalg::qr::orthonormalize(&gaussian(8, 8, seed.wrapping_add(3)));
        let rotated = y1.matmul(&q0);
        let mut y2 = DenseMatrix::zeros(n, 8);
        for i in 0..n {
            y2.row_mut(p.apply(i as u32) as usize)
                .copy_from_slice(rotated.row(i));
        }
        let cfg = SubspaceAlignConfig {
            anchors: 0,
            iterations: 6,
            ..Default::default()
        };
        let fast = align_subspaces(&y1, &y2, &ga, &gb, &cfg).unwrap();
        let oracle = align_subspaces_reference(&y1, &y2, &ga, &gb, &cfg).unwrap();
        // Full-anchor planted instances have an unambiguous fixed point:
        // both seeds must snap to the planted rotation, so the residual
        // gap is pure annealed-convergence slack. A different matching
        // would put the rotations O(0.1)–O(1) apart.
        let dq = max_abs_diff(&fast.rotation, &oracle.rotation);
        assert!(dq < 1e-3, "rotations diverge by {dq:e}");
        assert_eq!(fast.round_costs.len(), oracle.round_costs.len());
        let (fa, oa) = (
            fast.round_costs.last().unwrap(),
            oracle.round_costs.last().unwrap(),
        );
        // Same-matching plans still differ in entropic smoothing at the
        // final ε, so pin the final cost relatively: a wrong matching
        // shifts it by tens of percent, the seed difference by ≲ 0.2%.
        assert!(
            (fa - oa).abs() < 1e-2 * (1.0 + oa.abs()),
            "final round costs diverge: {fa} vs {oa}"
        );
    });
}
