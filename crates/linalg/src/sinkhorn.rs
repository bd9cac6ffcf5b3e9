//! Entropic optimal transport via Sinkhorn–Knopp scaling.
//!
//! The subspace-alignment stage (Eq. 2, per Chen et al.'s cone-align) needs
//! a soft correspondence between the two embeddings: a doubly-(sub)stochastic
//! plan `T` minimizing `⟨T, C⟩ − ε·H(T)` for a pairwise cost matrix `C`.
//! Sinkhorn alternates row/column scalings of the Gibbs kernel
//! `K = exp(−C/ε)`.
//!
//! Two implementations live here:
//!
//! * [`sinkhorn`] / [`sinkhorn_with`] — the **stabilized scaling** solver
//!   the pipeline runs (Schmitzer, "Stabilized sparse scaling algorithms
//!   for entropy regularized transport problems", arXiv:1610.06519). The
//!   dual potentials are split into absorbed parts `F`, `G` (in `/ε`
//!   units) and scalings `u`, `v`: the solver caches the Gibbs kernel
//!   relative to the absorbed parts, `K̃ᵢⱼ = exp(Fᵢ + Gⱼ − Cᵢⱼ/ε)`, once
//!   per solve, so each sweep is two mat-vecs — `v = ν ⊘ K̃ᵀu` streamed
//!   row-major over [`COL_BLOCK`]-wide column panels (the naive column
//!   walk strides by the row length and misses cache on every element
//!   once the matrix outgrows L2), then `r = K̃v` — with no `exp` at all.
//!   The first row update runs in the log domain, so `F` starts as the
//!   exact first row potential. Whenever a scaling or a row sum leaves
//!   `[SCALING_MIN, SCALING_MAX]` (or is non-finite), the solver redoes
//!   that sweep in the log domain from the last good potentials, absorbs
//!   the result into `F`, `G`, rebuilds `K̃` and resets `u = v = 1`: the
//!   range keeps every entry `K̃` flushes to zero below `1e-200` of plan
//!   mass, and the redo keeps an underflowed row (`u = ∞`) from ever
//!   being absorbed. Every `exp` — the `K̃` build, the log-domain passes,
//!   the final plan — is [`exp_fast`] with its strips skipped below the
//!   [`EXP_UNDERFLOW`] cutoff (exact: those terms are hard zeros under
//!   `exp_fast`'s flush-to-zero contract), and `−C/ε` is recomputed
//!   inline from the borrowed cost, so the workspace holds a single `n·m`
//!   buffer. Every buffer is reused across iterations and, through a
//!   caller-supplied [`SinkhornWorkspace`], across solves. Annealed solve
//!   sequences can additionally warm-start each round from the previous
//!   round's rescaled potentials ([`sinkhorn_warm_with`]), replacing the
//!   slow cold-start transient at small `ε` with a handful of corrective
//!   sweeps. Row chunks and column panels are disjoint and every sum runs
//!   in a fixed order, so parallelism never changes the result: it is
//!   bit-identical under any thread count.
//! * [`sinkhorn_reference`] — the seed log-domain implementation, kept
//!   verbatim as the exactness oracle. `embed/tests/prop_subspace.rs` pins
//!   the scaling solver against it on random cost matrices.
//!
//! The two take the same mathematical sweeps and differ only in
//! floating-point association (scaling-domain sums, the polynomial `exp`),
//! so plans agree to ~1e-12 — far inside the entropic smoothing of any `ε`
//! the pipeline uses.

use crate::fastexp::{exp_fast, EXP_UNDERFLOW};
use crate::DenseMatrix;
use cualign_rt::par;

/// Column-panel width of the blocked column update: 256 lanes = 2 KiB of
/// kernel row per stream step, a full prefetch-friendly stride.
pub const COL_BLOCK: usize = 256;

/// Lower end of the range a scaling or row sum may take before the solver
/// stabilizes. An entry `exp_fast` flushes to zero (`< e⁻⁷⁰⁸ ≈ 1e-307`)
/// then weighs at most `1e-307 · SCALING_MAX²` = `1e-207` in the plan.
const SCALING_MIN: f64 = 1e-50;

/// Upper end of the scaling range; see [`SCALING_MIN`].
const SCALING_MAX: f64 = 1e50;

/// Sinkhorn solver parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SinkhornOptions {
    /// Entropic regularization strength `ε` (> 0). Smaller values give
    /// sharper (more permutation-like) plans but need more iterations.
    pub epsilon: f64,
    /// Maximum scaling iterations.
    pub max_iters: usize,
    /// Convergence threshold on the L1 marginal violation.
    pub tolerance: f64,
}

impl Default for SinkhornOptions {
    fn default() -> Self {
        SinkhornOptions {
            epsilon: 0.05,
            max_iters: 500,
            tolerance: 1e-6,
        }
    }
}

/// An optimal transport plan between uniform marginals.
pub struct TransportPlan {
    /// The `n × m` plan; rows sum to `1/n`, columns to `1/m` at convergence.
    pub plan: DenseMatrix,
    /// Iterations actually used.
    pub iterations: usize,
    /// Of those, the sweeps the scaling solver redid in the log domain
    /// because a scaling left its safe range (always 0 for
    /// [`sinkhorn_reference`], which runs in the log domain throughout).
    pub stabilized_sweeps: usize,
    /// Final L1 marginal violation.
    pub marginal_error: f64,
}

/// Reusable buffers for [`sinkhorn_with`].
///
/// One Sinkhorn-annealed subspace alignment solves `iterations + 1`
/// transport problems of identical shape; routing them through one
/// workspace means the `n·m` Gibbs buffer and the potential/scaling
/// vectors are allocated once per alignment instead of once per solve.
#[derive(Debug, Default)]
pub struct SinkhornWorkspace {
    /// `K̃ = exp(F + G − C/ε)`, the Gibbs kernel relative to the absorbed
    /// potentials (`n·m`).
    gibbs: Vec<f64>,
    /// Absorbed row potentials `F` in `/ε` units; the final `f/ε` once a
    /// solve has folded its scalings in.
    fs: Vec<f64>,
    /// Absorbed column potentials `G` in `/ε` units; the final `g/ε` once
    /// a solve has folded its scalings in.
    gs: Vec<f64>,
    /// Row scalings `u`.
    u: Vec<f64>,
    /// Column scalings `v` of the last good sweep.
    v: Vec<f64>,
    /// Column scalings of the sweep in flight, kept apart from `v` until
    /// the range check accepts them.
    v_next: Vec<f64>,
    /// Row sums `rᵢ = Σⱼ K̃ᵢⱼ vⱼ`; the row log-sum-exp during a log-domain
    /// sweep.
    r: Vec<f64>,
    /// `ε` of the last completed solve — the rescaling anchor for
    /// [`sinkhorn_warm_with`]; `0` means no usable potentials.
    last_eps: f64,
}

impl SinkhornWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SinkhornWorkspace::default()
    }

    /// Drops the carried potentials: the next [`sinkhorn_warm_with`]
    /// cold-starts. Call between solve sequences whose cost matrices are
    /// unrelated (different scale or structure) — continuation only pays
    /// off when consecutive fixed points are close.
    pub fn forget_potentials(&mut self) {
        self.last_eps = 0.0;
    }
}

/// Lane width of the strip-structured reductions. Eight f64 lanes break
/// the serial `max`/`sum` dependency chains (and the 13-step Horner chain
/// of [`exp_fast`]) into independent streams the core can overlap, and
/// give the SLP vectorizer a fixed shape to pack.
const STRIP: usize = 8;

/// Element operations per log-sum-exp term (a max, an add and a
/// polynomial `exp`), for sizing parallel runs.
const LSE_COST: usize = 8;

/// Element operations per mat-vec term (a multiply and an add).
const MATVEC_COST: usize = 2;

/// Pairwise (tree-shaped) fold of one strip of accumulators — three
/// dependent steps instead of seven.
#[inline(always)]
fn strip_max(a: &[f64; STRIP]) -> f64 {
    (a[0].max(a[1]).max(a[2].max(a[3]))).max(a[4].max(a[5]).max(a[6].max(a[7])))
}

#[inline(always)]
fn strip_sum(a: &[f64; STRIP]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// Log-domain row pass: `row_lse[i] = log Σ_j exp(gs[j] − C_ij/ε)`, with
/// `−C/ε` formed inline as `cost · neg_inv_eps`.
/// Each row is a two-sweep (max, then exp-sum) reduction over contiguous
/// memory, run [`STRIP`] lanes at a time; the parallel split is across
/// rows only.
/// The exp-sum sweep skips any strip whose arguments all sit below the
/// [`EXP_UNDERFLOW`] cutoff — eight compares replace eight polynomials
/// wherever the kernel is negligible. The skip is exact: skipped terms
/// are hard zeros under [`exp_fast`]'s flush-to-zero contract.
fn row_lse_pass(cost: &[f64], neg_inv_eps: f64, gs: &[f64], row_lse: &mut [f64]) {
    let m = gs.len();
    let main = m - m % STRIP;
    par::map(row_lse, par::min_len_for(LSE_COST * m), |i| {
        let crow = &cost[i * m..(i + 1) * m];
        let mut mx = [f64::NEG_INFINITY; STRIP];
        for (c8, g8) in crow[..main]
            .chunks_exact(STRIP)
            .zip(gs[..main].chunks_exact(STRIP))
        {
            for l in 0..STRIP {
                mx[l] = mx[l].max(g8[l] + c8[l] * neg_inv_eps);
            }
        }
        let mut maxv = strip_max(&mx);
        for (&c, &g) in crow[main..].iter().zip(&gs[main..]) {
            maxv = maxv.max(g + c * neg_inv_eps);
        }
        if maxv == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let mut acc = [0.0f64; STRIP];
        for (c8, g8) in crow[..main]
            .chunks_exact(STRIP)
            .zip(gs[..main].chunks_exact(STRIP))
        {
            let mut a = [0.0f64; STRIP];
            for l in 0..STRIP {
                a[l] = g8[l] + c8[l] * neg_inv_eps - maxv;
            }
            if strip_max(&a) > EXP_UNDERFLOW {
                for l in 0..STRIP {
                    acc[l] += exp_fast(a[l]);
                }
            }
        }
        let mut sum = strip_sum(&acc);
        for (&c, &g) in crow[main..].iter().zip(&gs[main..]) {
            let a = g + c * neg_inv_eps - maxv;
            if a > EXP_UNDERFLOW {
                sum += exp_fast(a);
            }
        }
        maxv + sum.ln()
    });
}

/// Log-domain column pass: `gs[j] = log ν − log Σ_i exp(fs[i] − C_ij/ε)`,
/// streamed row-major over [`COL_BLOCK`]-wide panels so every cost
/// element arrives on a fully-used cache line. Per-column accumulation
/// still runs in strictly increasing `i` order: deterministic under any
/// parallel split.
fn col_pass(cost: &[f64], neg_inv_eps: f64, fs: &[f64], gs: &mut [f64], log_nu: f64) {
    let n = fs.len();
    let m = gs.len();
    let blocks: Vec<&mut [f64]> = gs.chunks_mut(COL_BLOCK).collect();
    par::for_each(
        blocks,
        par::min_len_for(LSE_COST * COL_BLOCK * n),
        |bi, gblock| {
            let j0 = bi * COL_BLOCK;
            // A panel is at most COL_BLOCK wide; restating the bound lets
            // the compiler drop the bounds checks in the lane loops below.
            let w = gblock.len().min(COL_BLOCK);
            let mut maxs = [f64::NEG_INFINITY; COL_BLOCK];
            for (i, &fi) in fs.iter().enumerate().take(n) {
                let crow = &cost[i * m + j0..i * m + j0 + w];
                for (mx, &c) in maxs[..w].iter_mut().zip(crow) {
                    *mx = mx.max(fi + c * neg_inv_eps);
                }
            }
            let mut sums = [0.0f64; COL_BLOCK];
            let wmain = w - w % STRIP;
            for (i, &fi) in fs.iter().enumerate().take(n) {
                let crow = &cost[i * m + j0..i * m + j0 + w];
                // Same strip-level underflow skip as the row pass, eight
                // panel lanes at a time.
                for b in (0..wmain).step_by(STRIP) {
                    let mut a = [0.0f64; STRIP];
                    for l in 0..STRIP {
                        a[l] = fi + crow[b + l] * neg_inv_eps - maxs[b + l];
                    }
                    if strip_max(&a) > EXP_UNDERFLOW {
                        for l in 0..STRIP {
                            sums[b + l] += exp_fast(a[l]);
                        }
                    }
                }
                for j in wmain..w {
                    let a = fi + crow[j] * neg_inv_eps - maxs[j];
                    if a > EXP_UNDERFLOW {
                        sums[j] += exp_fast(a);
                    }
                }
            }
            for ((g, &mx), &s) in gblock.iter_mut().zip(&maxs[..w]).zip(&sums[..w]) {
                *g = if mx == f64::NEG_INFINITY {
                    f64::INFINITY
                } else {
                    log_nu - (mx + s.ln())
                };
            }
        },
    );
}

/// `out[i·m + j] = exp(fs[i] + gs[j] − C_ij/ε)`: builds the relative
/// Gibbs kernel `K̃` and materializes the final plan. Strips whose
/// arguments all sit below [`EXP_UNDERFLOW`] are written as exact zeros
/// without evaluating the polynomial — a converged plan is a near-
/// permutation, so that is almost every strip, and the zeros keep the
/// downstream Procrustes projection free of subnormal operands.
fn gibbs_pass(cost: &[f64], neg_inv_eps: f64, fs: &[f64], gs: &[f64], out: &mut [f64]) {
    let m = gs.len();
    let main = m - m % STRIP;
    let rows: Vec<&mut [f64]> = out.chunks_mut(m).collect();
    par::for_each(rows, par::min_len_for(LSE_COST * m), |i, row| {
        let crow = &cost[i * m..(i + 1) * m];
        let fi = fs[i];
        for b in (0..main).step_by(STRIP) {
            let mut a = [0.0f64; STRIP];
            for l in 0..STRIP {
                a[l] = fi + gs[b + l] + crow[b + l] * neg_inv_eps;
            }
            let strip = &mut row[b..b + STRIP];
            if strip_max(&a) > EXP_UNDERFLOW {
                for l in 0..STRIP {
                    strip[l] = exp_fast(a[l]);
                }
            } else {
                strip.fill(0.0);
            }
        }
        for j in main..m {
            row[j] = exp_fast(fi + gs[j] + crow[j] * neg_inv_eps);
        }
    });
}

/// Column scaling: `v[j] = ν / Σ_i K̃_ij u[i]`, streamed over
/// [`COL_BLOCK`]-wide panels like [`col_pass`], accumulating each column
/// in strictly increasing `i`.
fn col_scale_pass(gibbs: &[f64], u: &[f64], v: &mut [f64], nu: f64) {
    let m = v.len();
    let blocks: Vec<&mut [f64]> = v.chunks_mut(COL_BLOCK).collect();
    par::for_each(
        blocks,
        par::min_len_for(MATVEC_COST * COL_BLOCK * u.len()),
        |bi, vblock| {
            let j0 = bi * COL_BLOCK;
            let w = vblock.len().min(COL_BLOCK);
            let mut sums = [0.0f64; COL_BLOCK];
            for (i, &ui) in u.iter().enumerate() {
                let krow = &gibbs[i * m + j0..i * m + j0 + w];
                for (s, &k) in sums[..w].iter_mut().zip(krow) {
                    *s += k * ui;
                }
            }
            for (vj, &s) in vblock.iter_mut().zip(&sums[..w]) {
                *vj = nu / s;
            }
        },
    );
}

/// Row sums: `r[i] = Σ_j K̃_ij v[j]`, a contiguous dot per row in
/// [`STRIP`] lanes; the parallel split is across rows only.
fn row_scale_pass(gibbs: &[f64], v: &[f64], r: &mut [f64]) {
    let m = v.len();
    let main = m - m % STRIP;
    par::map(r, par::min_len_for(MATVEC_COST * m), |i| {
        let krow = &gibbs[i * m..(i + 1) * m];
        let mut acc = [0.0f64; STRIP];
        for (k8, v8) in krow[..main]
            .chunks_exact(STRIP)
            .zip(v[..main].chunks_exact(STRIP))
        {
            for l in 0..STRIP {
                acc[l] += k8[l] * v8[l];
            }
        }
        let mut sum = strip_sum(&acc);
        for (&k, &vj) in krow[main..].iter().zip(&v[main..]) {
            sum += k * vj;
        }
        sum
    });
}

/// Whether every value is finite and inside `[SCALING_MIN, SCALING_MAX]`.
fn in_range(xs: &[f64]) -> bool {
    xs.iter().all(|x| (SCALING_MIN..=SCALING_MAX).contains(x))
}

/// Runs stabilized scaling Sinkhorn on cost matrix `cost` (`n × m`) with
/// uniform marginals `1/n`, `1/m`. Allocates a fresh workspace; callers
/// solving many same-shaped problems should hold a [`SinkhornWorkspace`]
/// and call [`sinkhorn_with`].
///
/// # Panics
/// Panics if the cost matrix is empty or `epsilon <= 0` (the pipeline
/// validates both at configuration time — see `AlignerConfig::builder`).
pub fn sinkhorn(cost: &DenseMatrix, opts: &SinkhornOptions) -> TransportPlan {
    sinkhorn_with(cost, opts, &mut SinkhornWorkspace::new())
}

/// As [`sinkhorn`], reusing the buffers in `ws` across calls.
///
/// # Panics
/// Panics if the cost matrix is empty or `epsilon <= 0`.
pub fn sinkhorn_with(
    cost: &DenseMatrix,
    opts: &SinkhornOptions,
    ws: &mut SinkhornWorkspace,
) -> TransportPlan {
    sinkhorn_impl(cost, opts, ws, false)
}

/// As [`sinkhorn_with`], but warm-started from the potentials of the
/// workspace's previous solve when one of matching column count exists:
/// the carried `g/ε_prev` potentials are rescaled by `ε_prev/ε` (the
/// standard ε-scaling continuation), so an annealed sequence of solves
/// over a slowly-moving cost matrix starts each round near its fixed
/// point instead of at zero. Converges to the same plan as a cold solve
/// (the entropic fixed point is unique; only the iteration trajectory
/// differs), typically in a handful of sweeps per round instead of the
/// full budget. Falls back to a cold start on the first solve or after a
/// shape change.
///
/// # Panics
/// Panics if the cost matrix is empty or `epsilon <= 0`.
pub fn sinkhorn_warm_with(
    cost: &DenseMatrix,
    opts: &SinkhornOptions,
    ws: &mut SinkhornWorkspace,
) -> TransportPlan {
    sinkhorn_impl(cost, opts, ws, true)
}

/// Clears `buf` and refills it with `len` copies of `value`.
fn reset(buf: &mut Vec<f64>, len: usize, value: f64) {
    buf.clear();
    buf.resize(len, value);
}

fn sinkhorn_impl(
    cost: &DenseMatrix,
    opts: &SinkhornOptions,
    ws: &mut SinkhornWorkspace,
    warm: bool,
) -> TransportPlan {
    let (n, m) = (cost.rows(), cost.cols());
    assert!(n > 0 && m > 0, "empty cost matrix");
    assert!(opts.epsilon > 0.0, "epsilon must be positive");
    let eps = opts.epsilon;
    let log_mu = -(n as f64).ln(); // log(1/n)
    let log_nu = -(m as f64).ln(); // log(1/m)
    let (mu, nu) = (log_mu.exp(), log_nu.exp());
    // −C/ε is formed inline as cost · neg_inv_eps: ε is inverted once and
    // applied as a multiply (the per-element quotient differs from a true
    // divide by ≤ 1 ulp, far inside the oracle tolerance).
    let neg_inv_eps = -1.0 / eps;
    let cost = cost.data();
    let SinkhornWorkspace {
        gibbs,
        fs,
        gs,
        u,
        v,
        v_next,
        r,
        last_eps,
    } = ws;

    if warm && *last_eps > 0.0 && gs.len() == m && gs.iter().all(|g| g.is_finite()) {
        // gs holds g/ε_prev; the same g in the new solve's units is
        // gs · (ε_prev/ε).
        let scale = *last_eps / eps;
        for g in gs.iter_mut() {
            *g *= scale;
        }
    } else {
        reset(gs, m, 0.0);
    }
    // The first row update runs in the log domain, so F is exactly the
    // first row potential and the first sweep starts from u = 1.
    reset(fs, n, 0.0);
    reset(r, n, 0.0);
    row_lse_pass(cost, neg_inv_eps, gs, r);
    for (f, &lse) in fs.iter_mut().zip(r.iter()) {
        *f = log_mu - lse;
    }
    reset(gibbs, n * m, 0.0);
    gibbs_pass(cost, neg_inv_eps, fs, gs, gibbs);
    reset(u, n, 1.0);
    reset(v, m, 1.0);
    reset(v_next, m, 1.0);
    // r = μ makes the first u exactly 1.
    reset(r, n, mu);

    let mut iterations = 0;
    let mut stabilized_sweeps = 0;
    let mut marginal_error = f64::INFINITY;
    for it in 0..opts.max_iters {
        iterations = it + 1;
        for (ui, &ri) in u.iter_mut().zip(r.iter()) {
            *ui = mu / ri;
        }
        col_scale_pass(gibbs, u, v_next, nu);
        row_scale_pass(gibbs, v_next, r);
        if in_range(u) && in_range(v_next) && in_range(r) {
            std::mem::swap(v, v_next);
            // Row marginal violation (columns are exact right after their
            // update). Summed sequentially so the convergence cutoff — and
            // thus the whole pipeline — is run-to-run stable.
            marginal_error = u
                .iter()
                .zip(r.iter())
                .map(|(&ui, &ri)| (ui * ri - mu).abs())
                .sum();
        } else {
            // Stabilizing sweep: redo this sweep in the log domain from
            // the last good potentials, then absorb the result. The row
            // update reads only the column side, G + ln v; absorbing the
            // out-of-range scalings themselves would carry their error
            // (an underflowed row's u = ∞) into F and G.
            stabilized_sweeps += 1;
            for (g, &vj) in gs.iter_mut().zip(v.iter()) {
                *g += vj.ln();
            }
            row_lse_pass(cost, neg_inv_eps, gs, r);
            for (f, &lse) in fs.iter_mut().zip(r.iter()) {
                *f = log_mu - lse;
            }
            col_pass(cost, neg_inv_eps, fs, gs, log_nu);
            row_lse_pass(cost, neg_inv_eps, gs, r);
            marginal_error = 0.0;
            for (ri, &f) in r.iter_mut().zip(fs.iter()) {
                // Row sum of the rebuilt K̃ at v = 1.
                *ri = (*ri + f).exp();
                marginal_error += (*ri - mu).abs();
            }
            gibbs_pass(cost, neg_inv_eps, fs, gs, gibbs);
            u.fill(1.0);
            v.fill(1.0);
        }
        if marginal_error < opts.tolerance {
            break;
        }
    }
    // Fold the scalings into the potentials: f/ε = F + ln u, g/ε = G + ln v.
    for (f, &ui) in fs.iter_mut().zip(u.iter()) {
        *f += ui.ln();
    }
    for (g, &vj) in gs.iter_mut().zip(v.iter()) {
        *g += vj.ln();
    }
    *last_eps = eps;

    let mut plan = DenseMatrix::zeros(n, m);
    gibbs_pass(cost, neg_inv_eps, fs, gs, plan.data_mut());

    TransportPlan {
        plan,
        iterations,
        stabilized_sweeps,
        marginal_error,
    }
}

/// The seed log-domain Sinkhorn, kept verbatim as the exactness oracle
/// for the scaling solver (`embed/tests/prop_subspace.rs`) and as the
/// `bench_subspace` baseline. Same marginals, same convergence criterion.
///
/// # Panics
/// Panics if the cost matrix is empty or `epsilon <= 0`.
pub fn sinkhorn_reference(cost: &DenseMatrix, opts: &SinkhornOptions) -> TransportPlan {
    let (n, m) = (cost.rows(), cost.cols());
    assert!(n > 0 && m > 0, "empty cost matrix");
    assert!(opts.epsilon > 0.0, "epsilon must be positive");
    let eps = opts.epsilon;
    let log_mu = -(n as f64).ln(); // log(1/n)
    let log_nu = -(m as f64).ln(); // log(1/m)

    // Dual potentials f (rows) and g (cols), in units of cost.
    let mut f = vec![0.0; n];
    let mut g = vec![0.0; m];

    // logsumexp over a row of (-C(i,·) + f_i + g_·)/eps is what the updates
    // need; we fold f in afterwards, so define:
    //   row_lse(i) = log Σ_j exp((g_j − C(i,j)) / eps)
    let row_lse = |f_unused: &[f64], g: &[f64], i: usize| -> f64 {
        let _ = f_unused;
        let crow = cost.row(i);
        let mut maxv = f64::NEG_INFINITY;
        for j in 0..m {
            maxv = maxv.max((g[j] - crow[j]) / eps);
        }
        if maxv == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = (0..m).map(|j| ((g[j] - crow[j]) / eps - maxv).exp()).sum();
        maxv + sum.ln()
    };
    let col_lse = |f: &[f64], i_col: usize| -> f64 {
        let mut maxv = f64::NEG_INFINITY;
        for i in 0..n {
            maxv = maxv.max((f[i] - cost[(i, i_col)]) / eps);
        }
        if maxv == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = (0..n)
            .map(|i| ((f[i] - cost[(i, i_col)]) / eps - maxv).exp())
            .sum();
        maxv + sum.ln()
    };

    let mut iterations = 0;
    let mut marginal_error = f64::INFINITY;
    for it in 0..opts.max_iters {
        iterations = it + 1;
        // f_i ← ε (log μ_i − row_lse_i)
        let mut new_f = vec![0.0; n];
        par::map(&mut new_f, par::min_len_for(LSE_COST * m), |i| {
            eps * (log_mu - row_lse(&f, &g, i))
        });
        f = new_f;
        // g_j ← ε (log ν_j − col_lse_j)
        let mut new_g = vec![0.0; m];
        par::map(&mut new_g, par::min_len_for(LSE_COST * n), |j| {
            eps * (log_nu - col_lse(&f, j))
        });
        g = new_g;

        // Row marginal violation (columns are exact right after their
        // update). Collected then summed sequentially: a float sum split
        // across threads would depend on the split, which would make the
        // convergence cutoff — and thus the whole pipeline — vary with
        // the thread count.
        let mut errs = vec![0.0; n];
        par::map(&mut errs, par::min_len_for(LSE_COST * m), |i| {
            let lse = row_lse(&f, &g, i) + f[i] / eps;
            (lse.exp() - log_mu.exp()).abs()
        });
        marginal_error = errs.iter().sum();
        if marginal_error < opts.tolerance {
            break;
        }
    }

    // Materialize the plan T(i,j) = exp((f_i + g_j − C(i,j))/ε).
    let mut plan = DenseMatrix::zeros(n, m);
    let rows: Vec<&mut [f64]> = plan.data_mut().chunks_mut(m.max(1)).collect();
    par::for_each(rows, par::min_len_for(LSE_COST * m), |i, row| {
        let crow = cost.row(i);
        for j in 0..m {
            row[j] = ((f[i] + g[j] - crow[j]) / eps).exp();
        }
    });

    TransportPlan {
        plan,
        iterations,
        stabilized_sweeps: 0,
        marginal_error,
    }
}

impl TransportPlan {
    /// Hard correspondence: for each row, the column with maximum mass.
    ///
    /// Total-order fold with an explicit NaN policy: a NaN entry never
    /// beats the running best (`v > best` is false for NaN), so a
    /// NaN-poisoned plan degrades to column 0 instead of panicking
    /// mid-run the way `partial_cmp().expect()` used to.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.plan.rows())
            .map(|i| {
                let row = self.plan.row(i);
                let mut arg = 0usize;
                let mut best = f64::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best {
                        arg = j;
                        best = v;
                    }
                }
                arg
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_cost(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |_, _| 1.0)
    }

    #[test]
    fn argmax_rows_survives_nan_poisoned_plan() {
        // Regression: the old partial_cmp().expect("plan entries finite")
        // panicked the moment one plan entry went NaN. The total-order
        // fold treats NaN as smaller than everything instead.
        let mut plan = DenseMatrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.1 });
        plan[(0, 1)] = f64::NAN;
        plan[(2, 0)] = f64::NAN;
        let tp = TransportPlan {
            plan,
            iterations: 0,
            stabilized_sweeps: 0,
            marginal_error: 0.0,
        };
        assert_eq!(tp.argmax_rows(), vec![0, 1, 2]);

        // Fully poisoned rows degrade to column 0 rather than panicking.
        let tp = TransportPlan {
            plan: DenseMatrix::from_fn(2, 2, |_, _| f64::NAN),
            iterations: 0,
            stabilized_sweeps: 0,
            marginal_error: 0.0,
        };
        assert_eq!(tp.argmax_rows(), vec![0, 0]);
    }

    #[test]
    fn uniform_cost_gives_uniform_plan() {
        let c = uniform_cost(4);
        let tp = sinkhorn(&c, &SinkhornOptions::default());
        for i in 0..4 {
            for j in 0..4 {
                assert!((tp.plan[(i, j)] - 1.0 / 16.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn marginals_are_satisfied() {
        let c = DenseMatrix::from_fn(5, 7, |i, j| ((i * 3 + j * 5) % 11) as f64 / 11.0);
        let tp = sinkhorn(
            &c,
            &SinkhornOptions {
                epsilon: 0.1,
                max_iters: 2000,
                tolerance: 1e-10,
            },
        );
        for i in 0..5 {
            let rs: f64 = tp.plan.row(i).iter().sum();
            assert!((rs - 0.2).abs() < 1e-6, "row {i} sums to {rs}");
        }
        for j in 0..7 {
            let cs: f64 = (0..5).map(|i| tp.plan[(i, j)]).sum();
            assert!((cs - 1.0 / 7.0).abs() < 1e-6, "col {j} sums to {cs}");
        }
    }

    #[test]
    fn sharp_epsilon_recovers_permutation() {
        // Cost is a permuted identity-ish matrix: zero cost on the planted
        // permutation, high elsewhere.
        let perm = [2usize, 0, 3, 1];
        let c = DenseMatrix::from_fn(4, 4, |i, j| if perm[i] == j { 0.0 } else { 1.0 });
        let tp = sinkhorn(
            &c,
            &SinkhornOptions {
                epsilon: 0.02,
                max_iters: 3000,
                tolerance: 1e-9,
            },
        );
        assert_eq!(tp.argmax_rows(), perm.to_vec());
    }

    #[test]
    fn converges_and_reports_iterations() {
        let c = uniform_cost(3);
        let tp = sinkhorn(&c, &SinkhornOptions::default());
        assert!(tp.iterations <= 500);
        assert!(tp.marginal_error < 1e-5);
    }

    #[test]
    fn rectangular_plan_mass_is_one() {
        let c = DenseMatrix::from_fn(3, 8, |i, j| (i as f64 - j as f64).abs());
        let tp = sinkhorn(&c, &SinkhornOptions::default());
        let total: f64 = tp.plan.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "total mass {total}");
    }

    #[test]
    fn blocked_matches_reference_plan() {
        // The real equivalence suite lives in embed/tests/prop_subspace.rs;
        // this is the fast smoke version, on a shape that exercises both
        // the aligned and ragged column-panel paths.
        let c = DenseMatrix::from_fn(9, 300, |i, j| ((i * 7 + j * 3) % 13) as f64 / 13.0);
        let opts = SinkhornOptions {
            epsilon: 0.08,
            max_iters: 400,
            tolerance: 1e-9,
        };
        let fast = sinkhorn(&c, &opts);
        let oracle = sinkhorn_reference(&c, &opts);
        let worst = fast
            .plan
            .data()
            .iter()
            .zip(oracle.plan.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-10, "plans diverge by {worst:e}");
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let mut ws = SinkhornWorkspace::new();
        let opts = SinkhornOptions::default();
        // Different shapes through one workspace: buffers resize cleanly
        // and results match fresh-workspace solves.
        for (n, m) in [(4usize, 6usize), (8, 3), (4, 6)] {
            let c = DenseMatrix::from_fn(n, m, |i, j| ((i * 5 + j * 11) % 7) as f64);
            let reused = sinkhorn_with(&c, &opts, &mut ws);
            let fresh = sinkhorn(&c, &opts);
            assert_eq!(reused.plan.data(), fresh.plan.data());
            assert_eq!(reused.iterations, fresh.iterations);
        }
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point_faster() {
        // An annealed ε sequence over a fixed cost matrix: each warm
        // solve must land on the same plan as a cold solve at that ε
        // (the fixed point is unique) while spending fewer sweeps on the
        // later, slower rounds.
        let c = DenseMatrix::from_fn(24, 24, |i, j| ((i * 7 + j * 3) % 13) as f64 / 13.0);
        let mut ws = SinkhornWorkspace::new();
        let mut warm_total = 0;
        let mut cold_total = 0;
        for k in 0..6 {
            let opts = SinkhornOptions {
                epsilon: 0.3 * 0.7f64.powi(k),
                max_iters: 4000,
                tolerance: 1e-9,
            };
            let warm = sinkhorn_warm_with(&c, &opts, &mut ws);
            let cold = sinkhorn(&c, &opts);
            let worst = warm
                .plan
                .data()
                .iter()
                .zip(cold.plan.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(worst < 1e-7, "plans diverge by {worst:e} at round {k}");
            warm_total += warm.iterations;
            cold_total += cold.iterations;
        }
        assert!(
            warm_total < cold_total,
            "warm starts took {warm_total} sweeps vs {cold_total} cold"
        );
    }

    #[test]
    fn warm_start_falls_back_cold_on_shape_change() {
        let mut ws = SinkhornWorkspace::new();
        let opts = SinkhornOptions::default();
        let a = DenseMatrix::from_fn(5, 6, |i, j| ((i + 2 * j) % 5) as f64);
        let _ = sinkhorn_warm_with(&a, &opts, &mut ws);
        // New column count: carried potentials are unusable; the solve
        // must silently cold-start and match a fresh workspace exactly.
        let b = DenseMatrix::from_fn(4, 9, |i, j| ((i * 3 + j) % 7) as f64);
        let warm = sinkhorn_warm_with(&b, &opts, &mut ws);
        let fresh = sinkhorn(&b, &opts);
        assert_eq!(warm.plan.data(), fresh.plan.data());
        assert_eq!(warm.iterations, fresh.iterations);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nonpositive_epsilon() {
        let c = uniform_cost(2);
        let _ = sinkhorn(
            &c,
            &SinkhornOptions {
                epsilon: 0.0,
                max_iters: 10,
                tolerance: 1e-6,
            },
        );
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn reference_rejects_nonpositive_epsilon() {
        let c = uniform_cost(2);
        let _ = sinkhorn_reference(
            &c,
            &SinkhornOptions {
                epsilon: -1.0,
                max_iters: 10,
                tolerance: 1e-6,
            },
        );
    }
}
