//! The belief-propagation engine: message state, the damped iteration of
//! Algorithm 2, and per-iteration rounding via approximate matching.

use crate::evaluate_matching;
use cualign_graph::{BipartiteGraph, Side};
use cualign_linalg::sparse::{self, MergePlan, Monoid};
use cualign_matching::{
    greedy_matching, locally_dominant_parallel, locally_dominant_serial, suitor_matching, Matching,
};
use cualign_overlap::OverlapMatrix;
use cualign_rt::par;
use cualign_telemetry::{Counter, Histogram};
use std::sync::Arc;

/// Edges per block of the sweep's edge-indexed gather pass.
const EDGE_BLOCK: usize = 4096;

/// Rows per parallel run in the reference sweep's per-row loops.
const MIN_ROWS: usize = 1024;

/// Telemetry handles, resolved from the current registry once per
/// engine so the per-sweep updates in [`BpEngine::iterate`] touch only
/// atomics.
struct BpTele {
    runs: Arc<Counter>,
    iterations: Arc<Counter>,
    messages_updated: Arc<Counter>,
    clamp_saturations: Arc<Counter>,
    residual: Arc<Histogram>,
    sweep_seconds: Arc<Histogram>,
}

impl BpTele {
    fn current() -> Self {
        let r = cualign_telemetry::current();
        BpTele {
            runs: r.counter("bp.runs"),
            iterations: r.counter("bp.iterations"),
            messages_updated: r.counter("bp.messages_updated"),
            clamp_saturations: r.counter("bp.clamp_saturations"),
            residual: r.histogram("bp.residual"),
            sweep_seconds: r.histogram("bp.sweep_seconds"),
        }
    }
}

/// Which matcher rounds the messages each iteration (Algorithm 2,
/// lines 17–20). All four compute the same unique matching under the
/// shared preference order; they differ in execution strategy, and
/// [`MatcherKind::Suitor`], the fastest, is the default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// Sequential locally-dominant (the pinned oracle).
    Serial,
    /// Two-queue parallel locally-dominant (the paper's §4.3).
    Parallel,
    /// Globally-sorted greedy.
    Greedy,
    /// One-sided Suitor (deferred acceptance, A side proposing) — after
    /// Manne & Halappanavar. The production matcher.
    Suitor,
}

/// Belief propagation configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BpConfig {
    /// Weight of the linear (matching-weight) objective term.
    pub alpha: f64,
    /// Weight of the quadratic (overlap) objective term.
    pub beta: f64,
    /// Damping base γ ∈ (0, 1]; iteration `k` mixes with factor `γᵏ`
    /// (Algorithm 2, lines 14–16), so the update weight decays and the
    /// messages are forced to converge.
    pub gamma: f64,
    /// Number of BP iterations (BP has no natural stopping criterion; the
    /// paper fixes the count and keeps the best rounding seen).
    pub max_iters: usize,
    /// Rounding matcher.
    pub matcher: MatcherKind,
    /// Warm start: initialize the damped exclusivity messages `yᵖ`/`zᵖ`
    /// from the similarity prior `α·w` instead of zero, so the very
    /// first sweep already penalizes contested pairs by their
    /// competitors' similarity. Used by the multilevel refinement, where
    /// `w` encodes the confidence of the projected coarse matching and
    /// only a few sweeps run per level. Cold start (`false`, the
    /// default) is Algorithm 2 lines 1–5 verbatim.
    pub warm_start: bool,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            alpha: 1.0,
            beta: 2.0,
            gamma: 0.99,
            max_iters: 25,
            matcher: MatcherKind::Suitor,
            warm_start: false,
        }
    }
}

/// Convergence statistics of one message update, computed by reductions
/// folded into the sweep's own passes (no extra scan), and recorded as
/// `bp.residual` and `bp.clamp_saturations` after every sweep.
///
/// The passes fold the undamped `|c − p|` and [`BpEngine::iterate`]
/// scales the max by `γ` once per sweep: rounding is monotone, so
/// `γ·max|c − p|` is bitwise `max|γ·(c − p)|` for every `γ > 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// L∞ norm of the damped update `γ·(c − p)` over `yᶜ`, `zᶜ` and
    /// `Sᶜ` — the quantity whose decay under γᵏ forces convergence; the
    /// `bp.residual` sample.
    pub residual: f64,
    /// Entries of `F` at a clamp bound (`≤ 0` or `≥ β`); the
    /// `bp.clamp_saturations` increment.
    pub saturated: u64,
}

impl SweepStats {
    /// Folds one update magnitude `|c − p|` into the running max. A
    /// compare-and-update rather than `f64::max`: the same value here
    /// (the max starts at `0.0` and a NaN never compares greater, so
    /// NaNs are skipped exactly as `f64::max` skips them), but one
    /// `maxsd` instead of `f64::max`'s NaN-handling sequence in the hot
    /// passes.
    #[inline]
    fn observe(&mut self, step: f64) {
        if step > self.residual {
            self.residual = step;
        }
    }

    /// Scales a max of undamped magnitudes `|c − p|` to the damped
    /// residual `max|γ·(c − p)|`. `γ = 0` (`γᵏ` underflows after about
    /// 70 000 sweeps at γ = 0.99) gives `0`, as every damped step is
    /// then `0` or NaN, and NaNs are skipped — where `0·∞` would be NaN.
    fn damped(self, g: f64) -> Self {
        SweepStats {
            residual: if g == 0.0 { 0.0 } else { g * self.residual },
            ..self
        }
    }
}

impl Monoid for SweepStats {
    fn combine(self, other: Self) -> Self {
        SweepStats {
            residual: self.residual.max(other.residual),
            saturated: self.saturated + other.saturated,
        }
    }
}

/// One iteration's rounding record.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Iteration index (1-based).
    pub iteration: usize,
    /// Objective `α·weight + β·overlaps` of the better of the two
    /// roundings this iteration.
    pub score: f64,
    /// Matched weight (under the original `w`) of that rounding.
    pub weight: f64,
    /// Conserved-edge count of that rounding.
    pub overlaps: usize,
}

/// Result of a BP run.
#[derive(Clone, Debug)]
pub struct BpOutcome {
    /// Best matching found over all iterations (`bestM`).
    pub best_matching: Matching,
    /// Its objective score.
    pub best_score: f64,
    /// Its matched weight under the original `w`.
    pub best_weight: f64,
    /// Its conserved-edge count.
    pub best_overlaps: usize,
    /// Iteration at which the best was found (0 = the pre-BP direct
    /// rounding of the similarity weights).
    pub best_iteration: usize,
    /// Per-iteration records.
    pub history: Vec<IterationRecord>,
}

/// Message state and iteration of Algorithm 2. The sparsity structure of
/// all matrices is borrowed from the [`OverlapMatrix`]; messages live in
/// flat arrays parallel to its CSR (`sp`, `st`) or to `E_L` (`yc`, `zc`,
/// `yp`, `zp`, `dc`).
///
/// `Sᵖ` is carried in both orientations: `st[j] = sp[perm[j]]`, with
/// `perm` the [transpose permutation](OverlapMatrix::transpose_perm).
/// Listing 1 reads `F = clamp(β + Sᵖᵀ)` through `perm` every sweep; the
/// engine reads `st[j]` in place instead, and updates `st` by the same
/// expression on the same operands as the mirrored `sp` entry, so the
/// sweep is one sequential pass over `S` and no nonzero-sized `F` or
/// `Sᶜ` array exists.
pub struct BpEngine<'a> {
    /// Working copy of `L` whose weights get overwritten during rounding.
    l: BipartiteGraph,
    /// Pristine similarity weights (the `w` of Eq. 1).
    w0: Vec<f64>,
    s: &'a OverlapMatrix,
    cfg: BpConfig,
    iter: usize,
    // Edge-indexed messages.
    yc: Vec<f64>,
    zc: Vec<f64>,
    yp: Vec<f64>,
    zp: Vec<f64>,
    dc: Vec<f64>,
    /// Next sweep's `dᶜ`, summed by this sweep's pass over `S` (by
    /// [`BpEngine::new`] for the first sweep) and swapped in when the
    /// next sweep starts.
    dc_next: Vec<f64>,
    /// Row scalar `yᶜ + zᶜ − dᶜ` of the `Sᶜ` update, per edge.
    v: Vec<f64>,
    // Nonzero-indexed messages: `Sᵖ` and its transpose.
    sp: Vec<f64>,
    st: Vec<f64>,
    /// Merge-path plan over the overlap CSR, for the pass over `S`.
    plan: MergePlan,
    /// Inverse of the B-side incidence array: `pos_b[e]` is the
    /// position of edge `e` in `l.eids(Side::B)`.
    pos_b: Vec<u32>,
    /// B-side exclusion output, positional (entry `p` belongs to edge
    /// `l.eids(Side::B)[p]`); the `yᶜ`/`yᵖ` pass reads it back per edge.
    scratch_b: Vec<f64>,
    /// Merge-path plans over the A-side and B-side CSRs of `L`, for the
    /// two exclusion passes.
    plan_a: MergePlan,
    plan_b: MergePlan,
    /// Statistics of the most recent sweep.
    last_sweep: SweepStats,
    tele: BpTele,
}

impl<'a> BpEngine<'a> {
    /// Creates an engine over `l` and its overlap matrix. All messages
    /// start at zero (Algorithm 2, lines 1–5) unless
    /// [`BpConfig::warm_start`] seeds the damped exclusivity messages
    /// with the similarity prior `α·w`.
    ///
    /// # Panics
    /// Panics if `s` was not built for `l` (row count mismatch), or on a
    /// non-positive `gamma` / zero iteration count at run time.
    pub fn new(l: &BipartiteGraph, s: &'a OverlapMatrix, cfg: &BpConfig) -> Self {
        assert_eq!(s.num_rows(), l.num_edges(), "S rows must index E_L");
        assert!(
            cfg.gamma > 0.0 && cfg.gamma <= 1.0,
            "gamma must be in (0, 1]"
        );
        assert!(
            l.weights().iter().all(|w| w.is_finite()),
            "similarity weights must be finite: NaN/∞ would poison every message"
        );
        // The fused A-side tail of `iterate` treats the positional
        // exclusion outputs as edge-indexed arrays.
        debug_assert!(
            l.eids(Side::A)
                .iter()
                .enumerate()
                .all(|(p, &e)| p == e as usize),
            "side-A incidence positions must be edge ids"
        );
        let m = l.num_edges();
        let nnz = s.nnz();
        // Warm start seeds the damped exclusivity messages with the
        // similarity prior; everything else still starts at zero.
        let prior: Vec<f64> = if cfg.warm_start {
            l.weights().iter().map(|w| cfg.alpha * w).collect()
        } else {
            vec![0.0; m]
        };
        // The first sweep's dᶜ: `α·w + Σ clamp(β + Sᵖᵀ)` over the zero
        // `Sᵖ`, the same left-to-right chain later sweeps sum.
        let (alpha, offsets, w0) = (cfg.alpha, s.row_offsets(), l.weights());
        let f0 = clamped_min_first(cfg.beta, 0.0);
        let mut dc_next = vec![0.0; m];
        // A row costs its degree in adds: split only when that work pays
        // for the spawn.
        let min_rows = par::min_len_for(nnz.div_ceil(m.max(1)));
        par::map(&mut dc_next, min_rows, |r| {
            let mut sum = 0.0;
            for _ in offsets[r]..offsets[r + 1] {
                sum += f0;
            }
            alpha * w0[r] + sum
        });
        BpEngine {
            l: l.clone(),
            w0: l.weights().to_vec(),
            s,
            cfg: *cfg,
            iter: 0,
            yc: vec![0.0; m],
            zc: vec![0.0; m],
            yp: prior.clone(),
            zp: prior,
            dc: vec![0.0; m],
            dc_next,
            v: vec![0.0; m],
            sp: vec![0.0; nnz],
            st: vec![0.0; nnz],
            plan: MergePlan::new(offsets),
            pos_b: {
                let mut pos = vec![0u32; m];
                for (p, &e) in l.eids(Side::B).iter().enumerate() {
                    pos[e as usize] = p as u32;
                }
                pos
            },
            scratch_b: vec![0.0; m],
            plan_a: MergePlan::new(l.offsets(Side::A)),
            plan_b: MergePlan::new(l.offsets(Side::B)),
            last_sweep: SweepStats::default(),
            tele: BpTele::current(),
        }
    }

    /// `yᶜ` messages (A-side exclusivity).
    pub fn yc(&self) -> &[f64] {
        &self.yc
    }

    /// `zᶜ` messages (B-side exclusivity).
    pub fn zc(&self) -> &[f64] {
        &self.zc
    }

    /// `dᶜ` totals.
    pub fn dc(&self) -> &[f64] {
        &self.dc
    }

    /// Damped overlap messages `Sᵖ` (nonzero-indexed).
    pub fn sp(&self) -> &[f64] {
        &self.sp
    }

    /// `Sᵖ` in the transposed orientation: entry `j` is `Sᵖ[perm[j]]`,
    /// so the next sweep's `F` is `clamp(β + sp_transposed()[j])`.
    /// Maintained by [`BpEngine::iterate`] only; it stays zero under
    /// [`BpEngine::iterate_reference`].
    pub fn sp_transposed(&self) -> &[f64] {
        &self.st
    }

    /// Original similarity weights `w`.
    pub fn original_weights(&self) -> &[f64] {
        &self.w0
    }

    /// Statistics of the most recent message update (all zero before
    /// the first).
    pub fn last_sweep(&self) -> SweepStats {
        self.last_sweep
    }

    /// One full message update (Algorithm 2, lines 9–16). Does not round.
    ///
    /// Executes on the `linalg::sparse` kernel layer, one path: the
    /// A-side othermax sweep is an
    /// [`sparse::exclusion_max_apply`] writing the damped `zᶜ`/`zᵖ`
    /// directly (side-A positions are edge ids), the B-side is a
    /// positional [exclusion max](sparse::exclusion_max) whose per-edge
    /// gather is fused into the damped `yᶜ`/`yᵖ` pass (which also
    /// writes the row scalar `yᶜ + zᶜ − dᶜ`), and the whole `S` side is
    /// one [`sparse::paired_update_reduce`]: per nonzero it reads this
    /// sweep's `F` from the carried transpose, damps `Sᵖ` and its
    /// transpose in place, and sums the next sweep's `dᶜ` (Listing 1's
    /// row sum, one sweep ahead). The passes fold the sweep's
    /// [`SweepStats`] as max/count reductions. A sweep allocates nothing
    /// proportional to the instance. Bitwise identical to
    /// [`BpEngine::iterate_reference`] (pinned in
    /// `docs/oracle_manifest.txt`).
    pub fn iterate(&mut self) {
        let t0 = std::time::Instant::now();
        self.iter += 1;
        let beta = self.cfg.beta;
        let alpha = self.cfg.alpha;
        let s = self.s;
        // This sweep's dᶜ was summed by the previous sweep's pass over
        // `S` (or by `new`); the pass below overwrites the old buffer
        // with the next sweep's.
        std::mem::swap(&mut self.dc, &mut self.dc_next);

        // B-side exclusion first: its input `zp` is this sweep's
        // *pre-damp* message, and the A-side tail below damps `zp`, so
        // the order is load-bearing. The per-edge gather is fused into
        // the consuming `yᶜ`/`yᵖ` pass.
        sparse::exclusion_max(
            self.l.offsets(Side::B),
            &self.plan_b,
            self.l.eids(Side::B),
            &self.zp,
            &mut self.scratch_b,
        );

        // Damping (lines 14–16): the paper's γᵏ power decay.
        let g = self.cfg.gamma.powi(self.iter as i32);
        // Each damped pass below folds `|c − p|`, taken before `p` is
        // overwritten, into the sweep's max-reduction; the max is
        // scaled by γ once at the end. Here and below the kernel
        // closures capture slices by value (`move`), so their hot loops
        // index them directly instead of through a reference to a `Vec`.

        // A-side exclusion fused with its whole consuming tail: side-A
        // incidence positions coincide with edge ids (the overlap build
        // debug-asserts this invariant), so the positional outputs of
        // the exclusion *are* `zᶜ`/`zᵖ` — one pass computes `om`,
        // `zᶜ = dᶜ − om` and the damped `zᵖ` without materializing the
        // positional scratch. `yᵖ` (the exclusion input) is still
        // pre-damp here.
        let z_stats = {
            let dc = &self.dc[..];
            sparse::exclusion_max_apply(
                self.l.offsets(Side::A),
                &self.plan_a,
                self.l.eids(Side::A),
                &self.yp,
                move |e, om, zcv, zpv, acc: &mut SweepStats| {
                    *zcv = dc[e] - om;
                    acc.observe((*zcv - *zpv).abs());
                    *zpv = g * *zcv + (1.0 - g) * *zpv;
                },
                &mut self.zc,
                &mut self.zp,
            )
        };
        // B-side gather + damping, fused the same way: one pass
        // computes `yᶜ = dᶜ − om` through the position map, immediately
        // damps `yᵖ` with it, and writes the `Sᶜ` row scalar
        // `v = yᶜ + zᶜ − dᶜ` (`zᶜ` is final after the A-side pass).
        // Blocked so each block folds its statistics into a local
        // accumulator.
        let y_stats = {
            let (scratch, pos) = (&self.scratch_b, &self.pos_b);
            let (dc, zc) = (&self.dc, &self.zc);
            let blocks: Vec<_> = self
                .yc
                .chunks_mut(EDGE_BLOCK)
                .zip(self.yp.chunks_mut(EDGE_BLOCK))
                .zip(self.v.chunks_mut(EDGE_BLOCK))
                .collect();
            par::map_reduce(
                blocks,
                par::min_len_for(EDGE_BLOCK),
                |bi, ((ycb, ypb), vb)| {
                    let span = bi * EDGE_BLOCK..bi * EDGE_BLOCK + ycb.len();
                    let mut acc = SweepStats::default();
                    let ins = dc[span.clone()]
                        .iter()
                        .zip(&zc[span.clone()])
                        .zip(&pos[span]);
                    let outs = ycb.iter_mut().zip(ypb.iter_mut()).zip(vb.iter_mut());
                    for (((y, ypv), vv), ((d, zcv), &p)) in outs.zip(ins) {
                        *y = d - scratch[p as usize];
                        acc.observe((*y - *ypv).abs());
                        *ypv = g * *y + (1.0 - g) * *ypv;
                        *vv = *y + zcv - d;
                    }
                    acc
                },
                SweepStats::combine,
            )
            .unwrap_or_default()
        };
        // The S side in one streaming pass. For nonzero j at (r, c),
        // `st[j]` is `Sᵖ` at the mirror `perm[j]`, whose row is `c`: so
        // `F[j] = clamp(β + st[j])`, `Sᶜ[j] = v[r] − F[j]`, and the
        // mirror's own update reads `F[perm[j]] = clamp(β + sp[j])` and
        // `v[c]` — the same expression on the same operands as the
        // reference's damp of `sp[perm[j]]`. The row sums of
        // `clamp(β + st)` over the updated `st` are the next sweep's
        // `dᶜ`. The residual sees every `|Sᶜ − Sᵖ|` twice (max is
        // idempotent); saturation counts each `F[j]` once.
        let s_stats = {
            let w0 = &self.w0[..];
            sparse::paired_update_reduce(
                s.row_offsets(),
                s.col_indices(),
                &self.plan,
                &self.v,
                move |vr, vc, spj, stj, acc: &mut SweepStats| {
                    let (p, t) = (*spj, *stj);
                    let f = clamped(beta, t);
                    // Non-short-circuit `|`: a branch on saturation
                    // would mispredict on mixed clamp patterns.
                    acc.saturated += u64::from((f <= 0.0) | (f >= beta));
                    let c = vr - f;
                    acc.observe((c - p).abs());
                    *spj = g * c + (1.0 - g) * p;
                    let ct = vc - clamped_min_first(beta, p);
                    acc.observe((ct - t).abs());
                    *stj = g * ct + (1.0 - g) * t;
                },
                move |t| clamped_min_first(beta, t),
                move |r| alpha * w0[r],
                &mut self.sp,
                &mut self.st,
                &mut self.dc_next,
            )
        };
        let stats = z_stats.combine(y_stats).combine(s_stats);
        self.finish_sweep(stats.damped(g), t0);
    }

    /// The pre-sparse-layer message update, kept as the pinned bitwise
    /// oracle for [`BpEngine::iterate`] (see
    /// `docs/oracle_manifest.txt`): Listing 1's gather of `Sᵖ` through
    /// the transpose permutation, hand-rolled per-row loops, a fresh
    /// edge-indexed `om` buffer per side and sweep (the serial
    /// [`sparse::exclusion_max_reference`], scattered per edge through
    /// the side's incidence array), separate damping passes, and
    /// [`SweepStats`] from plain scans. Its `F` and `Sᶜ` arrays are
    /// allocated per call, so engines that only run
    /// [`BpEngine::iterate`] never hold them. An engine is advanced by
    /// one of the two throughout: this one leaves the transposed state
    /// of [`BpEngine::sp_transposed`] untouched. Used by the
    /// equivalence property suite and by `bench_bp` as the speedup
    /// baseline.
    pub fn iterate_reference(&mut self) {
        let t0 = std::time::Instant::now();
        self.iter += 1;
        let beta = self.cfg.beta;
        let alpha = self.cfg.alpha;
        let offsets = self.s.row_offsets().to_vec();
        let perm = self.s.transpose_perm();
        let nnz = self.sp.len();

        // Fused kernel (Listing 1): one pass over each row computes the
        // clamped F values and their row sum together.
        let mut f = vec![0.0; nnz];
        let mut dc_out = std::mem::take(&mut self.dc_next);
        {
            let sp = &self.sp;
            let w0 = &self.w0;
            let rows: Vec<_> = split_rows(&mut f, &offsets)
                .into_iter()
                .zip(dc_out.iter_mut())
                .collect();
            par::for_each(rows, MIN_ROWS, |row, ((start, frow), dcv)| {
                let mut sum = 0.0;
                for (j, fv) in frow.iter_mut().enumerate() {
                    let val = (beta + sp[perm[start + j] as usize]).clamp(0.0, beta);
                    *fv = val;
                    sum += val;
                }
                *dcv = alpha * w0[row] + sum;
            });
        }
        self.dc_next = std::mem::replace(&mut self.dc, dc_out);

        // y/z exclusivity messages.
        let dc = &self.dc;
        let om = exclusion_by_edge(&self.l, Side::B, &self.zp);
        par::map(&mut self.yc, par::WORK_PER_RUN, |e| dc[e] - om[e]);
        let om = exclusion_by_edge(&self.l, Side::A, &self.yp);
        par::map(&mut self.zc, par::WORK_PER_RUN, |e| dc[e] - om[e]);

        // Sᶜ = diag(yᶜ + zᶜ − dᶜ)·S − F.
        let mut sc = vec![0.0; nnz];
        {
            let yc = &self.yc;
            let zc = &self.zc;
            let dc = &self.dc;
            let rows = split_rows(&mut sc, &offsets);
            par::for_each(rows, MIN_ROWS, |row, (start, srow)| {
                let v = yc[row] + zc[row] - dc[row];
                for (j, s) in srow.iter_mut().enumerate() {
                    *s = v - f[start + j];
                }
            });
        }

        // Damping (lines 14–16): the paper's γᵏ power decay.
        let g = self.cfg.gamma.powi(self.iter as i32);

        // Sweep statistics: plain scans over the pre-damp messages — the
        // oracle for the reductions `iterate` folds into its passes.
        let linf = |cur: &[f64], prev: &[f64]| {
            cur.iter()
                .zip(prev)
                .map(|(c, p)| (g * (c - p)).abs())
                .fold(0.0f64, f64::max)
        };
        let stats = SweepStats {
            residual: linf(&self.yc, &self.yp)
                .max(linf(&self.zc, &self.zp))
                .max(linf(&sc, &self.sp)),
            saturated: f.iter().filter(|&&v| v <= 0.0 || v >= beta).count() as u64,
        };

        let damp = |cur: &[f64], prev: &mut Vec<f64>| {
            let blocks: Vec<&mut [f64]> = prev.chunks_mut(EDGE_BLOCK).collect();
            par::for_each(blocks, par::min_len_for(EDGE_BLOCK), |bi, block| {
                for (p, c) in block.iter_mut().zip(&cur[bi * EDGE_BLOCK..]) {
                    *p = g * c + (1.0 - g) * *p;
                }
            });
        };
        damp(&self.yc, &mut self.yp);
        damp(&self.zc, &mut self.zp);
        damp(&sc, &mut self.sp);
        self.finish_sweep(stats, t0);
    }

    /// Ends a sweep: keeps its statistics and records them.
    fn finish_sweep(&mut self, stats: SweepStats, t0: std::time::Instant) {
        self.last_sweep = stats;
        let tele = &self.tele;
        tele.iterations.inc();
        tele.messages_updated
            .add((5 * self.yc.len() + 3 * self.sp.len()) as u64);
        tele.clamp_saturations.add(stats.saturated);
        tele.residual.record(stats.residual);
        tele.sweep_seconds.record(t0.elapsed().as_secs_f64());
    }

    fn run_matcher(&self) -> Matching {
        match self.cfg.matcher {
            MatcherKind::Serial => locally_dominant_serial(&self.l),
            MatcherKind::Parallel => locally_dominant_parallel(&self.l),
            MatcherKind::Greedy => greedy_matching(&self.l),
            MatcherKind::Suitor => suitor_matching(&self.l),
        }
    }

    /// Rounds the current messages (Algorithm 2, lines 17–21): matches on
    /// `yᶜ` weights and on `zᶜ` weights, evaluates both against the
    /// original objective, returns the better `(matching, score, weight,
    /// overlaps)`.
    pub fn round(&mut self) -> (Matching, f64, f64, usize) {
        self.l.set_weights(&self.yc);
        let my = self.run_matcher();
        let (score_y, wy, oy) =
            evaluate_matching(&self.w0, self.s, &my, self.cfg.alpha, self.cfg.beta);
        self.l.set_weights(&self.zc);
        let mz = self.run_matcher();
        let (score_z, wz, oz) =
            evaluate_matching(&self.w0, self.s, &mz, self.cfg.alpha, self.cfg.beta);
        if score_y >= score_z {
            (my, score_y, wy, oy)
        } else {
            (mz, score_z, wz, oz)
        }
    }

    /// Runs the full loop: `max_iters` message updates, rounding after
    /// each, tracking the best matching seen.
    ///
    /// Iteration 0 rounds the *original* similarity weights before any
    /// message passing — i.e. the cone-align-style direct rounding enters
    /// the candidate pool, so the BP refinement can only improve on it
    /// ("take the best solution we find in any step of the computation").
    pub fn run(mut self) -> BpOutcome {
        assert!(self.cfg.max_iters > 0, "need at least one iteration");
        self.tele.runs.inc();
        let _span = cualign_telemetry::current().span("bp.run");
        let mut history = Vec::with_capacity(self.cfg.max_iters + 1);
        let mut best: Option<(Matching, f64, f64, usize, usize)> = {
            self.l.set_weights(&self.w0);
            let m0 = self.run_matcher();
            let (score, weight, overlaps) =
                evaluate_matching(&self.w0, self.s, &m0, self.cfg.alpha, self.cfg.beta);
            history.push(IterationRecord {
                iteration: 0,
                score,
                weight,
                overlaps,
            });
            Some((m0, score, weight, overlaps, 0))
        };
        for _ in 0..self.cfg.max_iters {
            self.iterate();
            let (m, score, weight, overlaps) = self.round();
            history.push(IterationRecord {
                iteration: self.iter,
                score,
                weight,
                overlaps,
            });
            let better = match &best {
                None => true,
                Some((_, bs, _, _, _)) => score > *bs,
            };
            if better {
                best = Some((m, score, weight, overlaps, self.iter));
            }
        }
        let (best_matching, best_score, best_weight, best_overlaps, best_iteration) =
            // lint: allow(no-panic): `best` is seeded with the iteration-0 rounding above, so it is always Some
            best.expect("seeded with the iteration-0 rounding");
        BpOutcome {
            best_matching,
            best_score,
            best_weight,
            best_overlaps,
            best_iteration,
            history,
        }
    }
}

/// `clamp(β + x)` to `[0, β]`: the `F` of a transposed `Sᵖ` entry `x`.
/// Panics unless `0 ≤ β`, as [`f64::clamp`] does.
#[inline]
fn clamped(beta: f64, x: f64) -> f64 {
    (beta + x).clamp(0.0, beta)
}

/// [`clamped`] with the upper bound applied first: the same bits
/// whenever `0 ≤ β` (NaN stays NaN, a signed zero keeps its sign). The
/// sweep's pass over `S` clamps three values per nonzero and uses this
/// form for the two that would otherwise share `F`'s shape: the
/// compiler pairs two same-shaped clamps into one vector compare and
/// then picks each lane by a branch, which mispredicts on mixed clamp
/// patterns (the pass ran ~1.5× slower on a cache-resident `S`).
#[inline]
fn clamped_min_first(beta: f64, x: f64) -> f64 {
    let y = beta + x;
    let y = if y > beta { beta } else { y };
    if y < 0.0 {
        0.0
    } else {
        y
    }
}

/// The exclusion max of `values` over each `side` group of `l`, indexed
/// by edge: [`sparse::exclusion_max_reference`] over the side-CSR, with
/// position `p` scattered to edge `eids[p]` — on either side, so the
/// oracle does not assume that side-A positions are edge ids.
fn exclusion_by_edge(l: &BipartiteGraph, side: Side, values: &[f64]) -> Vec<f64> {
    let eids = l.eids(side);
    let mut at_pos = vec![0.0; eids.len()];
    sparse::exclusion_max_reference(l.offsets(side), eids, values, &mut at_pos);
    let mut om = vec![0.0; eids.len()];
    for (&e, v) in eids.iter().zip(at_pos) {
        om[e as usize] = v;
    }
    om
}

/// Splits a flat nonzero array into per-row mutable slices, returning
/// `(row_start_offset, slice)` pairs. Rayon-friendly: the slices are
/// disjoint by construction.
fn split_rows<'v>(values: &'v mut [f64], offsets: &[usize]) -> Vec<(usize, &'v mut [f64])> {
    let mut out = Vec::with_capacity(offsets.len() - 1);
    let mut rest = values;
    let mut consumed = 0usize;
    for r in 0..offsets.len() - 1 {
        let len = offsets[r + 1] - offsets[r];
        let (head, tail) = rest.split_at_mut(len);
        out.push((consumed, head));
        consumed += len;
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::{CsrGraph, Permutation, VertexId};
    use cualign_rt::Rng;

    /// A ground-truthed instance: B = P(A); L contains all true pairs plus
    /// random decoys, with the true pairs *not* distinguished by weight.
    fn planted_instance(
        n: usize,
        edges: usize,
        decoys_per_vertex: usize,
        seed: u64,
    ) -> (CsrGraph, CsrGraph, BipartiteGraph, Permutation) {
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
        (a, b, l, p)
    }

    #[test]
    fn bp_recovers_planted_alignment() {
        let (a, b, l, p) = planted_instance(40, 100, 4, 1);
        let s = OverlapMatrix::build(&a, &b, &l);
        let cfg = BpConfig {
            max_iters: 30,
            ..Default::default()
        };
        let out = BpEngine::new(&l, &s, &cfg).run();
        // The true alignment conserves all |E_A| edges; BP should conserve
        // most of them (weights alone carry no signal here).
        assert!(
            out.best_overlaps as f64 >= 0.8 * a.num_edges() as f64,
            "conserved only {}/{} edges",
            out.best_overlaps,
            a.num_edges()
        );
        // And most matched pairs should be the true ones.
        let correct = (0..40)
            .filter(|&i| out.best_matching.mate_of_a(i as VertexId) == Some(p.apply(i as VertexId)))
            .count();
        assert!(correct >= 30, "only {correct}/40 true pairs recovered");
    }

    #[test]
    fn bp_beats_weight_only_matching() {
        // cone-align-style rounding (match on w directly) vs. BP: with
        // uninformative weights, BP must conserve strictly more edges.
        let (a, b, l, _) = planted_instance(30, 70, 5, 2);
        let s = OverlapMatrix::build(&a, &b, &l);
        let direct = locally_dominant_parallel(&l);
        let direct_overlaps = s.count_matched_overlaps(direct.edge_ids());
        let cfg = BpConfig {
            max_iters: 25,
            ..Default::default()
        };
        let out = BpEngine::new(&l, &s, &cfg).run();
        assert!(
            out.best_overlaps > direct_overlaps,
            "BP {} ≤ direct {}",
            out.best_overlaps,
            direct_overlaps
        );
    }

    #[test]
    fn messages_stay_finite() {
        let (a, b, l, _) = planted_instance(20, 50, 3, 4);
        let s = OverlapMatrix::build(&a, &b, &l);
        let mut e = BpEngine::new(&l, &s, &BpConfig::default());
        for _ in 0..40 {
            e.iterate();
        }
        assert!(e.yc().iter().all(|x| x.is_finite()));
        assert!(e.zc().iter().all(|x| x.is_finite()));
        assert!(e.sp().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn f_values_respect_bounds() {
        let (a, b, l, _) = planted_instance(20, 50, 3, 5);
        let s = OverlapMatrix::build(&a, &b, &l);
        let cfg = BpConfig::default();
        let mut e = BpEngine::new(&l, &s, &cfg);
        for _ in 0..10 {
            e.iterate();
            // The next sweep's F, read from the carried transpose.
            let f = e.sp_transposed().iter().map(|&t| clamped(cfg.beta, t));
            assert!(f.into_iter().all(|x| (0.0..=cfg.beta).contains(&x)));
        }
    }

    /// Both clamp forms give the same bits for every `0 ≤ β` (signed
    /// zeros and infinities included) on finite, infinite, NaN and
    /// signed-zero inputs.
    #[test]
    fn clamp_forms_are_bitwise_equal() {
        let xs = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            -2.0,
            2.0,
            1e-320,
            -1e-320,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for beta in [0.0, -0.0, 1e-320, 0.1, 2.0, 1e308, f64::INFINITY] {
            for x in xs {
                assert_eq!(
                    clamped_min_first(beta, x).to_bits(),
                    clamped(beta, x).to_bits(),
                    "β = {beta:e}, x = {x:e}"
                );
            }
        }
    }

    /// The residual as the sweep computes it — `|c − p|` folded by
    /// `observe`, the max scaled by γ once — is bitwise the reference's
    /// `max|γ·(c − p)|` fold, on finite, infinite, NaN and overflowing
    /// differences, and for γ from 1 down to subnormal and zero.
    #[test]
    fn residual_scaled_once_is_bitwise_reference_expression() {
        let special = [
            0.0,
            -0.0,
            1.0,
            -3.5,
            1e308,
            -1e308,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let gammas = [
            1.0,
            0.99,
            0.5,
            0.99f64.powi(70_000),
            f64::MIN_POSITIVE,
            1e-310,
            5e-324,
            0.99f64.powi(80_000),
        ];
        assert_eq!(0.99f64.powi(80_000), 0.0, "γᵏ underflows to zero");
        let reference = |g: f64, pairs: &[(f64, f64)]| {
            pairs
                .iter()
                .map(|(c, p)| (g * (c - p)).abs())
                .fold(0.0f64, f64::max)
        };
        let folded = |g: f64, pairs: &[(f64, f64)]| {
            let mut st = SweepStats::default();
            for (c, p) in pairs {
                st.observe((c - p).abs());
            }
            st.damped(g).residual
        };
        let mut rng = Rng::new(31);
        for _ in 0..2000 {
            let len = rng.below(6);
            let pairs: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    let mut pick = || {
                        if rng.bool(0.5) {
                            *rng.choose(&special).unwrap()
                        } else {
                            (rng.f64() * 2.0 - 1.0) * 10f64.powi(rng.range(0..600) as i32 - 300)
                        }
                    };
                    (pick(), pick())
                })
                .collect();
            for &g in &gammas {
                assert_eq!(
                    folded(g, &pairs).to_bits(),
                    reference(g, &pairs).to_bits(),
                    "γ = {g:e}, pairs {pairs:?}"
                );
            }
        }
    }

    #[test]
    fn best_score_is_max_of_history() {
        let (a, b, l, _) = planted_instance(25, 55, 4, 6);
        let s = OverlapMatrix::build(&a, &b, &l);
        let out = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                max_iters: 15,
                ..Default::default()
            },
        )
        .run();
        let hist_max = out
            .history
            .iter()
            .map(|r| r.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.best_score, hist_max);
        // 15 BP iterations plus the iteration-0 direct rounding.
        assert_eq!(out.history.len(), 16);
        assert_eq!(out.history[0].iteration, 0);
        assert!(out.best_iteration <= 15);
    }

    #[test]
    fn serial_and_parallel_matchers_agree() {
        let (a, b, l, _) = planted_instance(20, 45, 3, 7);
        let s = OverlapMatrix::build(&a, &b, &l);
        let o1 = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                matcher: MatcherKind::Serial,
                ..Default::default()
            },
        )
        .run();
        let o2 = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                matcher: MatcherKind::Parallel,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(o1.best_score, o2.best_score);
        assert_eq!(o1.best_matching, o2.best_matching);
    }

    #[test]
    fn warm_start_biases_the_first_sweep_and_still_recovers() {
        let (a, b, l, p) = planted_instance(40, 100, 4, 1);
        let s = OverlapMatrix::build(&a, &b, &l);
        let mut cold = BpEngine::new(&l, &s, &BpConfig::default());
        let mut warm = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                warm_start: true,
                ..Default::default()
            },
        );
        cold.iterate();
        warm.iterate();
        // The prior enters through the othermax terms of the first sweep.
        assert_ne!(cold.yc(), warm.yc(), "warm start must change sweep 1");
        // And a short warm-started run still recovers the planted
        // alignment (the multilevel refine depends on this regime).
        let out = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                warm_start: true,
                max_iters: 8,
                ..Default::default()
            },
        )
        .run();
        let correct = (0..40)
            .filter(|&i| out.best_matching.mate_of_a(i as VertexId) == Some(p.apply(i as VertexId)))
            .count();
        assert!(correct >= 28, "only {correct}/40 true pairs recovered");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nonfinite_weights() {
        let (a, b, mut l, _) = planted_instance(5, 6, 1, 9);
        let s = OverlapMatrix::build(&a, &b, &l);
        l.weights_mut()[0] = f64::NAN;
        let _ = BpEngine::new(&l, &s, &BpConfig::default());
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let (a, b, l, _) = planted_instance(5, 6, 1, 8);
        let s = OverlapMatrix::build(&a, &b, &l);
        let _ = BpEngine::new(
            &l,
            &s,
            &BpConfig {
                gamma: 0.0,
                ..Default::default()
            },
        );
    }
}
