//! Subspace alignment across graphs — the paper's Eq. (2):
//!
//! ```text
//! min_{Q ∈ O(d)}  min_{P ∈ Perm(n)}  ‖ Y₁ Q − P Y₂ ‖²
//! ```
//!
//! solved, per Chen et al. (cone-align), by alternating
//!
//! 1. **soft correspondence** — entropic Sinkhorn OT between the current
//!    `Y₁Q` rows and the `Y₂` rows gives a doubly-stochastic relaxation of
//!    `P`, and
//! 2. **rotation** — orthogonal Procrustes against the barycentric
//!    projection of that plan gives the optimal `Q`.
//!
//! For scalability the OT step runs on **anchor subsets**: the top-degree
//! vertices of each graph. Degree sequences are isomorphism-invariant, so
//! the two anchor sets approximately correspond, and `Q` has only `d²`
//! degrees of freedom — a few hundred anchors pin it down (substitution
//! recorded in DESIGN.md §2; `anchors = 0` requests the exact full-matrix
//! procedure).
//!
//! ## Kernel structure (DESIGN.md "Subspace kernels")
//!
//! The alternation's inner loops are expressed as dense-kernel
//! compositions rather than per-pair scalar loops:
//!
//! * the pairwise squared-Euclidean cost matrix is built from the
//!   expansion `‖x − z‖² = ‖x‖² + ‖z‖² − 2·x·z` — one tiled
//!   [`gemm::dot_block`] Gram sweep plus two row-norm vectors — in
//!   [`pairwise_cost`]; the seed scalar loop survives as
//!   [`pairwise_cost_reference`],
//! * the Sinkhorn solve runs the stabilized scaling-domain
//!   [`sinkhorn_with`] through one reused
//!   [`SinkhornWorkspace`] for the whole alternation (the annealed
//!   schedule solves `iterations + 1` same-shape problems),
//! * [`structural_features`] walks the CSR's **sorted** adjacency — merge
//!   dedup for two-hop counts, two-pointer intersection for triangles —
//!   instead of per-vertex hash sets.
//!
//! [`align_subspaces_reference`] chains the two reference kernels through
//! the same alternation; `tests/prop_subspace.rs` pins the fast path
//! against it and against the kernel oracles element-wise.
//!
//! Telemetry (global registry): child spans `subspace.features`,
//! `subspace.cost`, `subspace.sinkhorn`, `subspace.project` (the
//! barycentric projection `T·Z`, a dense GEMM) and `subspace.procrustes`
//! (the SVD of `X₀ᵀ·target`) attribute the alternation's time, and the
//! `subspace.round_cost` histogram records the per-round transport cost
//! ⟨T, C⟩.

use cualign_graph::{CsrGraph, VertexId};
use cualign_linalg::procrustes::orthogonal_procrustes;
use cualign_linalg::sinkhorn::{
    sinkhorn_reference, sinkhorn_warm_with, sinkhorn_with, SinkhornOptions, SinkhornWorkspace,
    TransportPlan,
};
use cualign_linalg::{gemm, vecops, DenseMatrix};
use cualign_rt::par;

/// Error type for the fallible subspace API.
///
/// `cualign-core` wraps this as `AlignError::Subspace`, so session-level
/// callers see one error enum; direct `cualign-embed` users match on this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubspaceError {
    /// The two embeddings have different column counts.
    DimensionMismatch {
        /// `Y₁`'s embedding dimension.
        left: usize,
        /// `Y₂`'s embedding dimension.
        right: usize,
    },
    /// An embedding's row count does not match its graph's vertex count.
    RowCountMismatch {
        /// Which input pair disagrees (`"A"` or `"B"`).
        side: &'static str,
        /// Embedding rows.
        rows: usize,
        /// Graph vertices.
        vertices: usize,
    },
    /// A [`SubspaceAlignConfig`] field is out of range.
    InvalidConfig {
        /// Dotted config path (e.g. `subspace.sinkhorn.epsilon`).
        field: &'static str,
        /// Human-readable constraint violation.
        reason: String,
    },
}

impl std::fmt::Display for SubspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubspaceError::DimensionMismatch { left, right } => {
                write!(f, "embedding dimension mismatch: Y1 has {left} columns, Y2 has {right}")
            }
            SubspaceError::RowCountMismatch {
                side,
                rows,
                vertices,
            } => write!(
                f,
                "embedding/graph size mismatch on side {side}: {rows} embedding rows for {vertices} vertices"
            ),
            SubspaceError::InvalidConfig { field, reason } => {
                write!(f, "invalid config {field}: {reason}")
            }
        }
    }
}

impl std::error::Error for SubspaceError {}

/// Configuration for [`align_subspaces`].
///
/// Construct through `AlignerConfig::builder()` in `cualign-core` (which
/// validates via [`SubspaceAlignConfig::validate`]) or fill the fields
/// directly for standalone use; `align_subspaces` re-validates either way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubspaceAlignConfig {
    /// Anchor count per side; `0` uses every vertex (exact but `O(n²)` per
    /// Sinkhorn iteration).
    pub anchors: usize,
    /// Alternation rounds of (Sinkhorn ⇄ Procrustes); must be ≥ 1.
    pub iterations: usize,
    /// Entropic OT solver options; `sinkhorn.epsilon` is the **final**
    /// regularization and must be positive.
    pub sinkhorn: SinkhornOptions,
    /// Initial entropic regularization (positive). Rounds anneal
    /// geometrically from here down to `sinkhorn.epsilon` — the
    /// coarse-to-fine schedule that keeps early rounds from committing to
    /// a bad correspondence (the role of cone-align's convex
    /// initialization).
    pub epsilon_start: f64,
}

impl Default for SubspaceAlignConfig {
    fn default() -> Self {
        SubspaceAlignConfig {
            anchors: 768,
            iterations: 8,
            sinkhorn: SinkhornOptions {
                epsilon: 0.05,
                max_iters: 150,
                tolerance: 1e-5,
            },
            epsilon_start: 0.3,
        }
    }
}

impl SubspaceAlignConfig {
    /// Checks every field's range constraint. Field names are the dotted
    /// paths the `AlignerConfig` builder reports (`subspace.*`).
    // The negated comparisons are deliberate: NaN fails `x > 0.0`, so
    // `!(x > 0.0)` rejects it along with every non-positive value.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), SubspaceError> {
        // `!(x > 0.0)` rather than `x <= 0.0`: the former also rejects NaN.
        if !(self.sinkhorn.epsilon > 0.0) {
            return Err(SubspaceError::InvalidConfig {
                field: "subspace.sinkhorn.epsilon",
                reason: format!("must be > 0, got {}", self.sinkhorn.epsilon),
            });
        }
        if !(self.epsilon_start > 0.0) {
            return Err(SubspaceError::InvalidConfig {
                field: "subspace.epsilon_start",
                reason: format!("must be > 0, got {}", self.epsilon_start),
            });
        }
        if self.iterations == 0 {
            return Err(SubspaceError::InvalidConfig {
                field: "subspace.iterations",
                reason: "must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Result of subspace alignment.
#[derive(Clone, Debug)]
pub struct SubspaceAlignment {
    /// `Y₁ · Q` — graph A's embedding rotated into B's frame.
    pub ya: DenseMatrix,
    /// `Y₂` unchanged (the paper's Algorithm 1 line 6).
    pub yb: DenseMatrix,
    /// The learned orthogonal rotation `Q` (`d × d`).
    pub rotation: DenseMatrix,
    /// Anchor-set transport cost per round (diagnostic; non-increasing in
    /// well-conditioned instances). Also exported as the
    /// `subspace.round_cost` telemetry histogram.
    pub round_costs: Vec<f64>,
}

/// Indices of the `k` highest-degree vertices in **degree-rank order**
/// (descending degree, ties broken by id); all vertices when `k == 0` or
/// `k ≥ n`.
///
/// The rank ordering matters: because degree sequences are
/// isomorphism-invariant, pairing rank `i` of graph A with rank `i` of
/// graph B gives a serviceable initial correspondence for Eq. (2) — the
/// rotation is then refined by the Sinkhorn/Procrustes alternation.
pub fn top_degree_anchors(g: &CsrGraph, k: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u as VertexId)), u));
    if k != 0 && k < n {
        idx.truncate(k);
    }
    idx
}

/// Epoch-tagged vertex marks: a set over a graph's vertices that empties
/// in O(1) by moving to a new epoch.
struct EpochMarks {
    tags: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    fn new(n: usize) -> Self {
        EpochMarks {
            tags: vec![0; n],
            epoch: 0,
        }
    }

    /// Empties the set.
    fn open(&mut self) {
        self.epoch += 1;
    }

    /// Inserts `v`; true iff it was not in the set yet.
    fn mark(&mut self, v: VertexId) -> bool {
        let tag = &mut self.tags[v as usize];
        let fresh = *tag != self.epoch;
        *tag = self.epoch;
        fresh
    }

    fn is_marked(&self, v: VertexId) -> bool {
        self.tags[v as usize] == self.epoch
    }
}

/// Raw (un-standardized) feature row for vertex `u`: log-degree,
/// mean/max neighbor degree (log), 2-hop size (log), clustering
/// coefficient. `marks` is reusable scratch: the neighbor set of `u` and
/// the two-hop set.
fn feature_row(g: &CsrGraph, u: usize, marks: &mut [EpochMarks; 2], row: &mut [f64]) {
    let nbrs = g.neighbors(u as VertexId);
    let deg = nbrs.len();
    let (mut sum_nd, mut max_nd) = (0usize, 0usize);
    let (mut tri, mut reached) = (0usize, 0usize);
    let [adjacent, two_hop_set] = marks;
    adjacent.open();
    two_hop_set.open();
    for &v in nbrs {
        adjacent.mark(v);
    }
    // One pass over the neighbor lists: the two-hop set is their union,
    // counted through first marks, and a triangle at u is a pair of
    // adjacent neighbors (v, w), counted once at its smaller end.
    for &v in nbrs {
        let vn = g.neighbors(v);
        sum_nd += vn.len();
        max_nd = max_nd.max(vn.len());
        for &w in vn {
            reached += two_hop_set.mark(w) as usize;
            tri += (w > v && adjacent.is_marked(w)) as usize;
        }
    }
    let two_hop = reached - two_hop_set.is_marked(u as VertexId) as usize;
    row[0] = (1.0 + deg as f64).ln();
    row[1] = if deg == 0 {
        0.0
    } else {
        (1.0 + sum_nd as f64 / deg as f64).ln()
    };
    row[2] = (1.0 + max_nd as f64).ln();
    row[3] = (1.0 + two_hop as f64).ln();
    row[4] = if deg >= 2 {
        2.0 * tri as f64 / (deg * (deg - 1)) as f64
    } else {
        0.0
    };
}

/// Output rows per parallel item in the feature and cost sweeps (mirrors the
/// GEMM row blocking).
const ROW_BLOCK: usize = 32;

/// Standardizes each column of `f` in place over all its rows (the
/// feature distributions of isomorphic graphs coincide exactly, so
/// per-graph standardization preserves correspondence).
fn standardize_columns(f: &mut DenseMatrix) {
    let (n, c) = (f.rows(), f.cols());
    for j in 0..c {
        let mean: f64 = (0..n).map(|i| f[(i, j)]).sum::<f64>() / n.max(1) as f64;
        let var: f64 = (0..n).map(|i| (f[(i, j)] - mean).powi(2)).sum::<f64>() / n.max(1) as f64;
        let std = var.sqrt().max(1e-12);
        for i in 0..n {
            f[(i, j)] = (f[(i, j)] - mean) / std;
        }
    }
}

/// Rotation-invariant structural node features used to seed the
/// correspondence: log-degree, mean/max neighbor degree (log), 2-hop
/// neighborhood size (log), and local clustering coefficient — all
/// isomorphism-invariant, so corresponding vertices of `A` and `B = P(A)`
/// get identical feature rows. Columns are standardized per graph.
pub fn structural_features(g: &CsrGraph) -> DenseMatrix {
    let rows: Vec<usize> = (0..g.num_vertices()).collect();
    structural_features_for(g, &rows)
}

/// [`structural_features`] restricted to `rows` (in the given order),
/// standardized **over that subset**. The anchor-initialized alignment
/// only ever consumes anchor rows, so it computes exactly those — on the
/// subset the standardization basis shifts from all vertices to the
/// anchor set, which preserves isomorphism-invariance (anchor sets of
/// isomorphic graphs correspond) and is what the Sinkhorn seeding
/// actually conditions on.
pub fn structural_features_for(g: &CsrGraph, rows: &[usize]) -> DenseMatrix {
    let mut f = DenseMatrix::zeros(rows.len(), 5);
    if rows.is_empty() {
        return f;
    }
    let blocks: Vec<&mut [f64]> = f.data_mut().chunks_mut(5 * ROW_BLOCK).collect();
    // A feature row costs a few hundred operations on typical degrees.
    par::for_each_init(
        blocks,
        par::min_len_for(ROW_BLOCK * 256),
        || {
            [
                EpochMarks::new(g.num_vertices()),
                EpochMarks::new(g.num_vertices()),
            ]
        },
        |marks, ci, chunk| {
            for (r, row) in chunk.chunks_exact_mut(5).enumerate() {
                feature_row(g, rows[ci * ROW_BLOCK + r], marks, row);
            }
        },
    );
    standardize_columns(&mut f);
    f
}

/// Pairwise squared-Euclidean cost between the rows of `x` and `z`, via
/// the expansion `‖x − z‖² = ‖x‖² + ‖z‖² − 2·x·z`: one tiled Gram sweep
/// ([`gemm::dot_block`] over packed `z` rows) plus two row-norm vectors.
/// Entries are clamped at zero (the expansion can go fractionally
/// negative for near-identical rows). Agrees with
/// [`pairwise_cost_reference`] to ~1e-12 absolute on unit-scale
/// embeddings (different floating-point association; pinned in
/// `tests/prop_subspace.rs`). Adds the sweep's `2·n·m·d` to the current
/// registry's `linalg.gemm.flops`.
pub fn pairwise_cost(x: &DenseMatrix, z: &DenseMatrix) -> DenseMatrix {
    assert_eq!(x.cols(), z.cols(), "cost operands disagree in dimension");
    let (n, m) = (x.rows(), z.rows());
    cualign_telemetry::current()
        .counter("linalg.gemm.flops")
        .add(2 * (n * m * x.cols()) as u64);
    if n == 0 || m == 0 {
        return DenseMatrix::zeros(n, m);
    }
    let sq_norms = |mat: &DenseMatrix| -> Vec<f64> {
        (0..mat.rows())
            .map(|i| {
                let r = mat.row(i);
                vecops::dot(r, r)
            })
            .collect()
    };
    let xn = sq_norms(x);
    let zn = sq_norms(z);
    let packed = gemm::pack_rows(z);
    let mut out = vec![0.0; n * m];
    let blocks: Vec<&mut [f64]> = out.chunks_mut(m * ROW_BLOCK).collect();
    par::for_each(
        blocks,
        par::min_len_for(ROW_BLOCK * m * x.cols()),
        |ci, chunk| {
            let i0 = ci * ROW_BLOCK;
            let rows = chunk.len() / m;
            gemm::dot_block(x, i0, i0 + rows, &packed, 0, m, chunk);
            for (r, orow) in chunk.chunks_exact_mut(m).enumerate() {
                let xi = xn[i0 + r];
                for (o, &zj) in orow.iter_mut().zip(&zn) {
                    *o = (xi + zj - 2.0 * *o).max(0.0);
                }
            }
        },
    );
    DenseMatrix::from_vec(n, m, out)
}

/// The seed cost kernel — scalar `‖x_i − z_j‖²` per pair — kept as the
/// exactness oracle for [`pairwise_cost`] and the `bench_subspace`
/// baseline.
pub fn pairwise_cost_reference(x: &DenseMatrix, z: &DenseMatrix) -> DenseMatrix {
    DenseMatrix::from_fn(x.rows(), z.rows(), |i, j| {
        let d = vecops::euclidean_distance(x.row(i), z.row(j));
        d * d
    })
}

fn gather_rows(y: &DenseMatrix, rows: &[usize]) -> DenseMatrix {
    let d = y.cols();
    let mut out = DenseMatrix::zeros(rows.len(), d);
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(y.row(r));
    }
    out
}

/// Which kernel implementations an alignment runs; the reference variant
/// exists so the fast path has an in-tree end-to-end oracle.
#[derive(Clone, Copy)]
enum KernelPath {
    Fast,
    Reference,
}

impl KernelPath {
    fn cost(self, x: &DenseMatrix, z: &DenseMatrix) -> DenseMatrix {
        match self {
            KernelPath::Fast => pairwise_cost(x, z),
            KernelPath::Reference => pairwise_cost_reference(x, z),
        }
    }

    /// Cold-started solve (the init pass, where no useful potentials
    /// exist yet).
    fn sinkhorn(
        self,
        cost: &DenseMatrix,
        opts: &SinkhornOptions,
        ws: &mut SinkhornWorkspace,
    ) -> TransportPlan {
        match self {
            KernelPath::Fast => sinkhorn_with(cost, opts, ws),
            KernelPath::Reference => sinkhorn_reference(cost, opts),
        }
    }

    /// Annealed-round solve. The fast path continues from the previous
    /// solve's rescaled potentials (ε-scaling warm start): consecutive
    /// rounds shrink ε geometrically over a slowly-moving cost matrix,
    /// so each solve starts a few corrective sweeps from its fixed point
    /// instead of paying the full cold-start transient — the dominant
    /// cost of the alternation at small ε. The fixed point is unique, so
    /// the converged plan matches a cold solve; only the trajectory
    /// differs. The reference path stays cold-started (seed behavior).
    fn sinkhorn_round(
        self,
        cost: &DenseMatrix,
        opts: &SinkhornOptions,
        ws: &mut SinkhornWorkspace,
    ) -> TransportPlan {
        match self {
            KernelPath::Fast => sinkhorn_warm_with(cost, opts, ws),
            KernelPath::Reference => sinkhorn_reference(cost, opts),
        }
    }
}

/// Barycentric projection of the anchor embedding `z` through a
/// transport plan: row `i` of the target is `Σ_j T(i,j)·z_j` over the
/// row mass, which is `1/k` under uniform marginals, hence the scale by
/// `k`. A dense GEMM: the plans of the alternation have no zero entries
/// to skip (entropic plans are strictly positive unless an entry
/// underflows).
fn project(plan: &DenseMatrix, z: &DenseMatrix, k: usize) -> DenseMatrix {
    let mut target = plan.matmul(z);
    target.scale(k as f64);
    target
}

/// Solves Eq. (2): finds the orthogonal `Q` aligning `y1`'s subspace to
/// `y2`'s, guided by anchor correspondences from graphs `ga`, `gb`.
///
/// Returns [`SubspaceError`] when the embeddings disagree in dimension,
/// don't match their graphs' vertex counts, or `cfg` fails
/// [`SubspaceAlignConfig::validate`].
pub fn align_subspaces(
    y1: &DenseMatrix,
    y2: &DenseMatrix,
    ga: &CsrGraph,
    gb: &CsrGraph,
    cfg: &SubspaceAlignConfig,
) -> Result<SubspaceAlignment, SubspaceError> {
    align_impl(y1, y2, ga, gb, cfg, KernelPath::Fast)
}

/// As [`align_subspaces`], but running the seed implementation end to
/// end: the pinned reference kernels ([`pairwise_cost_reference`] and
/// [`sinkhorn_reference`]), cold-started solves, and the seed's full
/// sweep budget for the feature-seeded init solve. The barycentric
/// projection and the Procrustes solve are shared with the fast path.
/// This is the end-to-end oracle for
/// `tests/prop_subspace.rs` (pinned on planted instances, where both
/// alternations converge to the same fixed point) and the
/// `bench_subspace` speedup baseline.
pub fn align_subspaces_reference(
    y1: &DenseMatrix,
    y2: &DenseMatrix,
    ga: &CsrGraph,
    gb: &CsrGraph,
    cfg: &SubspaceAlignConfig,
) -> Result<SubspaceAlignment, SubspaceError> {
    align_impl(y1, y2, ga, gb, cfg, KernelPath::Reference)
}

fn align_impl(
    y1: &DenseMatrix,
    y2: &DenseMatrix,
    ga: &CsrGraph,
    gb: &CsrGraph,
    cfg: &SubspaceAlignConfig,
    path: KernelPath,
) -> Result<SubspaceAlignment, SubspaceError> {
    if y1.cols() != y2.cols() {
        return Err(SubspaceError::DimensionMismatch {
            left: y1.cols(),
            right: y2.cols(),
        });
    }
    if y1.rows() != ga.num_vertices() {
        return Err(SubspaceError::RowCountMismatch {
            side: "A",
            rows: y1.rows(),
            vertices: ga.num_vertices(),
        });
    }
    if y2.rows() != gb.num_vertices() {
        return Err(SubspaceError::RowCountMismatch {
            side: "B",
            rows: y2.rows(),
            vertices: gb.num_vertices(),
        });
    }
    cfg.validate()?;
    let d = y1.cols();
    let reg = cualign_telemetry::current();
    let round_cost_hist = reg.histogram("subspace.round_cost");

    let anchors_a = top_degree_anchors(ga, cfg.anchors);
    let anchors_b = top_degree_anchors(gb, cfg.anchors);
    let x0 = gather_rows(y1, &anchors_a); // unrotated anchor embedding of A
    let z = gather_rows(y2, &anchors_b);

    // One workspace for every Sinkhorn solve of the alternation: the
    // annealed schedule runs `iterations + 1` problems of identical shape,
    // so the n·m Gibbs buffer and potential vectors allocate once.
    let mut ws = SinkhornWorkspace::new();

    // Initial rotation from a structural-feature correspondence: vertex
    // features that are rotation-invariant and isomorphism-invariant
    // (degree statistics, 2-hop size, clustering) give a meaningful anchor
    // correspondence before any rotation is known. One Sinkhorn pass over
    // the feature cost seeds the Procrustes. Starting from Q = I instead
    // would have Sinkhorn matching unrotated frames — a near-random
    // correspondence the alternation rarely recovers from. Features are
    // computed lazily: only when this branch runs, and only anchor rows.
    let k = anchors_a.len().min(anchors_b.len());
    let mut q = if k >= d {
        let (fa, fb) = {
            let _span = reg.span("subspace.features");
            (
                structural_features_for(ga, &anchors_a),
                structural_features_for(gb, &anchors_b),
            )
        };
        let feat_cost = {
            let _span = reg.span("subspace.cost");
            path.cost(&fa, &fb)
        };
        // The seed solve only needs a coarse correspondence — and on the
        // feature cost it cannot do better than coarse: vertices with
        // identical degree statistics produce duplicate cost rows, whose
        // flat transport directions stall Sinkhorn well above any tight
        // tolerance (measured: the marginal error plateaus within a few
        // dozen sweeps and then stays put). The fast path caps the sweep
        // count instead of burning the full budget against the plateau;
        // the reference path keeps the seed's full budget, which is why
        // end-to-end fast-vs-reference agreement is pinned on *planted*
        // instances — there the alternation's fixed point absorbs the
        // difference between a coarse and an over-polished seed.
        let init_opts = SinkhornOptions {
            epsilon: 0.5,
            max_iters: match path {
                KernelPath::Fast => cfg.sinkhorn.max_iters.min(32),
                KernelPath::Reference => cfg.sinkhorn.max_iters,
            },
            tolerance: cfg.sinkhorn.tolerance,
        };
        let tp = {
            let _span = reg.span("subspace.sinkhorn");
            path.sinkhorn(&feat_cost, &init_opts, &mut ws)
        };
        // The feature cost lives on a different scale than the embedding
        // costs of the rounds: its potentials are no continuation anchor.
        ws.forget_potentials();
        let target = {
            let _span = reg.span("subspace.project");
            project(&tp.plan, &z, anchors_a.len())
        };
        let _span = reg.span("subspace.procrustes");
        orthogonal_procrustes(&x0, &target)
    } else {
        DenseMatrix::identity(d)
    };
    let mut round_costs = Vec::with_capacity(cfg.iterations);
    for round in 0..cfg.iterations {
        let x = x0.matmul(&q);
        let cost = {
            let _span = reg.span("subspace.cost");
            path.cost(&x, &z)
        };
        // Geometric annealing of the entropic regularization.
        let eps = if cfg.iterations <= 1 {
            cfg.sinkhorn.epsilon
        } else {
            let t = round as f64 / (cfg.iterations - 1) as f64;
            cfg.epsilon_start.powf(1.0 - t) * cfg.sinkhorn.epsilon.powf(t)
        };
        // ε-scaling discipline on the fast path: intermediate levels run
        // a bounded number of corrective sweeps — their plans only seed
        // the next rotation, and the warm-started continuation keeps
        // them near the fixed point — while the final ε gets the full
        // budget, so the plan the caller sees is fully converged. The
        // reference path keeps the seed's full budget at every level.
        let last_round = round + 1 == cfg.iterations;
        let opts = SinkhornOptions {
            epsilon: eps,
            max_iters: match path {
                KernelPath::Fast if !last_round => cfg.sinkhorn.max_iters.min(16),
                _ => cfg.sinkhorn.max_iters,
            },
            ..cfg.sinkhorn
        };
        let tp = {
            let _span = reg.span("subspace.sinkhorn");
            path.sinkhorn_round(&cost, &opts, &mut ws)
        };
        // Transport cost ⟨T, C⟩ as the round diagnostic.
        let tc: f64 = tp
            .plan
            .data()
            .iter()
            .zip(cost.data())
            .map(|(t, c)| t * c)
            .sum();
        round_costs.push(tc);
        round_cost_hist.record(tc);
        let target = {
            let _span = reg.span("subspace.project");
            project(&tp.plan, &z, anchors_a.len())
        };
        let _span = reg.span("subspace.procrustes");
        q = orthogonal_procrustes(&x0, &target);
    }

    Ok(SubspaceAlignment {
        ya: y1.matmul(&q),
        yb: y2.clone(),
        rotation: q,
        round_costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::{spectral_embedding, SpectralConfig};
    use cualign_graph::generators::{barabasi_albert, erdos_renyi_gnm};
    use cualign_graph::Permutation;
    use cualign_linalg::qr::orthonormalize;
    use cualign_rt::Rng;

    /// Builds a planted instance: B = P(A); Y₂ = rows of (Y₁ Q₀) permuted
    /// by P. align_subspaces must recover a rotation close to Q₀.
    #[test]
    fn recovers_planted_rotation() {
        let mut rng = Rng::new(1);
        let ga = barabasi_albert(150, 3, &mut rng);
        let p = Permutation::random(150, &mut rng);
        let gb = p.apply_to_graph(&ga);

        let y1 = spectral_embedding(
            &ga,
            &SpectralConfig {
                dim: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let q0 = orthonormalize(&DenseMatrix::gaussian(16, 16, &mut rng));
        let rotated = y1.matmul(&q0);
        let mut y2 = DenseMatrix::zeros(150, 16);
        for i in 0..150 {
            y2.row_mut(p.apply(i as u32) as usize)
                .copy_from_slice(rotated.row(i));
        }

        let cfg = SubspaceAlignConfig {
            anchors: 0,
            iterations: 8,
            ..Default::default()
        };
        let out = align_subspaces(&y1, &y2, &ga, &gb, &cfg).expect("valid inputs");

        // After alignment, vertex i of A should be near its true image.
        let mut mean_sim = 0.0;
        for i in 0..150 {
            let j = p.apply(i as u32) as usize;
            mean_sim += vecops::cosine_similarity(out.ya.row(i), out.yb.row(j));
        }
        mean_sim /= 150.0;
        assert!(mean_sim > 0.9, "mean true-pair similarity {mean_sim}");
    }

    #[test]
    fn rotation_is_orthogonal() {
        let mut rng = Rng::new(2);
        let ga = barabasi_albert(80, 3, &mut rng);
        let gb = barabasi_albert(80, 3, &mut rng);
        let y1 = spectral_embedding(
            &ga,
            &SpectralConfig {
                dim: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let y2 = spectral_embedding(
            &gb,
            &SpectralConfig {
                dim: 8,
                seed: 99,
                ..Default::default()
            },
        )
        .unwrap();
        let out = align_subspaces(&y1, &y2, &ga, &gb, &SubspaceAlignConfig::default())
            .expect("valid inputs");
        assert!(out.rotation.is_orthonormal(1e-8));
    }

    #[test]
    fn anchor_selection_prefers_hubs() {
        let mut rng = Rng::new(3);
        let g = barabasi_albert(200, 2, &mut rng);
        let anchors = top_degree_anchors(&g, 20);
        assert_eq!(anchors.len(), 20);
        let min_anchor_deg = anchors.iter().map(|&u| g.degree(u as u32)).min().unwrap();
        // Every non-anchor has degree ≤ the smallest anchor degree.
        for u in 0..200usize {
            if !anchors.contains(&u) {
                assert!(g.degree(u as u32) <= min_anchor_deg);
            }
        }
    }

    #[test]
    fn zero_anchors_means_all_vertices() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2)]);
        // Degree-rank order: vertex 1 (deg 2), then 0 and 2 (deg 1), then
        // the isolated 3 and 4.
        assert_eq!(top_degree_anchors(&g, 0), vec![1, 0, 2, 3, 4]);
        assert_eq!(top_degree_anchors(&g, 10), vec![1, 0, 2, 3, 4]);
    }

    #[test]
    fn alignment_reduces_transport_cost() {
        let mut rng = Rng::new(4);
        let ga = barabasi_albert(120, 3, &mut rng);
        let p = Permutation::random(120, &mut rng);
        let gb = p.apply_to_graph(&ga);
        let y1 = spectral_embedding(
            &ga,
            &SpectralConfig {
                dim: 12,
                ..Default::default()
            },
        )
        .unwrap();
        let q0 = orthonormalize(&DenseMatrix::gaussian(12, 12, &mut rng));
        let rotated = y1.matmul(&q0);
        let mut y2 = DenseMatrix::zeros(120, 12);
        for i in 0..120 {
            y2.row_mut(p.apply(i as u32) as usize)
                .copy_from_slice(rotated.row(i));
        }
        let cfg = SubspaceAlignConfig {
            anchors: 0,
            iterations: 6,
            ..Default::default()
        };
        let out = align_subspaces(&y1, &y2, &ga, &gb, &cfg).expect("valid inputs");
        let first = out.round_costs.first().copied().unwrap();
        let last = out.round_costs.last().copied().unwrap();
        assert!(last < first, "cost went {first} → {last}");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let y1 = DenseMatrix::zeros(3, 4);
        let y2 = DenseMatrix::zeros(3, 5);
        let err = align_subspaces(&y1, &y2, &g, &g, &SubspaceAlignConfig::default())
            .expect_err("dimension mismatch");
        assert_eq!(err, SubspaceError::DimensionMismatch { left: 4, right: 5 });
    }

    #[test]
    fn row_count_mismatch_names_the_side() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let good = DenseMatrix::zeros(3, 2);
        let bad = DenseMatrix::zeros(4, 2);
        let err = align_subspaces(&bad, &good, &g, &g, &SubspaceAlignConfig::default())
            .expect_err("row mismatch on A");
        assert_eq!(
            err,
            SubspaceError::RowCountMismatch {
                side: "A",
                rows: 4,
                vertices: 3
            }
        );
        let err = align_subspaces(&good, &bad, &g, &g, &SubspaceAlignConfig::default())
            .expect_err("row mismatch on B");
        assert_eq!(
            err,
            SubspaceError::RowCountMismatch {
                side: "B",
                rows: 4,
                vertices: 3
            }
        );
    }

    #[test]
    fn invalid_config_is_rejected_before_any_work() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let y = DenseMatrix::zeros(2, 2);
        let mut cfg = SubspaceAlignConfig::default();
        cfg.sinkhorn.epsilon = 0.0;
        let err = align_subspaces(&y, &y, &g, &g, &cfg).expect_err("epsilon = 0");
        assert!(matches!(
            err,
            SubspaceError::InvalidConfig {
                field: "subspace.sinkhorn.epsilon",
                ..
            }
        ));
        let cfg = SubspaceAlignConfig {
            iterations: 0,
            ..Default::default()
        };
        let err = align_subspaces(&y, &y, &g, &g, &cfg).expect_err("iterations = 0");
        assert!(matches!(
            err,
            SubspaceError::InvalidConfig {
                field: "subspace.iterations",
                ..
            }
        ));
        let cfg = SubspaceAlignConfig {
            epsilon_start: -0.5,
            ..Default::default()
        };
        let err = align_subspaces(&y, &y, &g, &g, &cfg).expect_err("epsilon_start < 0");
        assert!(matches!(
            err,
            SubspaceError::InvalidConfig {
                field: "subspace.epsilon_start",
                ..
            }
        ));
    }

    #[test]
    fn gemm_cost_matches_reference_closely() {
        let mut rng = Rng::new(5);
        let x = DenseMatrix::gaussian(17, 9, &mut rng);
        let z = DenseMatrix::gaussian(23, 9, &mut rng);
        let fast = pairwise_cost(&x, &z);
        let oracle = pairwise_cost_reference(&x, &z);
        let worst = fast
            .data()
            .iter()
            .zip(oracle.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-10, "cost kernels diverge by {worst:e}");
    }

    #[test]
    fn gemm_cost_records_its_flops_in_the_callers_registry() {
        use cualign_telemetry::{with_registry, Registry};
        let mut rng = Rng::new(6);
        // More rows than one parallel block of the Gram sweep.
        let x = DenseMatrix::gaussian(70, 9, &mut rng);
        let z = DenseMatrix::gaussian(23, 9, &mut rng);
        let reg: &'static Registry = Box::leak(Box::new(Registry::new()));
        with_registry(reg, || pairwise_cost(&x, &z));
        assert_eq!(reg.counter("linalg.gemm.flops").get(), 2 * 70 * 23 * 9);
    }

    #[test]
    fn merged_features_match_hashset_semantics() {
        // Hand-checkable graph: triangle 0-1-2 plus pendant 3 on vertex 2
        // and isolated vertex 4.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let f = structural_features(&g);
        assert_eq!((f.rows(), f.cols()), (5, 5));
        // Raw (pre-standardization) invariants are easiest to verify via
        // ordering: vertex 2 has the largest degree and two-hop count...
        let raw_deg = |u: usize| g.neighbors(u as u32).len();
        assert!(raw_deg(2) > raw_deg(3));
        // ...so after per-column standardization its log-degree feature
        // must be the column maximum, and the isolated vertex the minimum.
        let col0: Vec<f64> = (0..5).map(|i| f[(i, 0)]).collect();
        let max_i = (0..5).max_by(|&a, &b| col0[a].total_cmp(&col0[b])).unwrap();
        let min_i = (0..5).min_by(|&a, &b| col0[a].total_cmp(&col0[b])).unwrap();
        assert_eq!(max_i, 2);
        assert_eq!(min_i, 4);
        // Clustering: vertices 0 and 1 close one triangle over deg-2
        // neighborhoods (coefficient 1.0 raw); vertex 2 closes 1 of 3
        // possible pairs. Standardized column preserves the ordering.
        assert!(f[(0, 4)] > f[(2, 4)]);
        assert_eq!(f[(0, 4)], f[(1, 4)]);
        // Subset variant over all vertices in 0..n order matches the full
        // computation bitwise.
        let rows: Vec<usize> = (0..5).collect();
        assert_eq!(structural_features_for(&g, &rows).data(), f.data());
    }

    #[test]
    fn reference_alignment_agrees_on_planted_instance() {
        let mut rng = Rng::new(6);
        let ga = barabasi_albert(60, 3, &mut rng);
        let p = Permutation::random(60, &mut rng);
        let gb = p.apply_to_graph(&ga);
        let y1 = spectral_embedding(
            &ga,
            &SpectralConfig {
                dim: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let q0 = orthonormalize(&DenseMatrix::gaussian(8, 8, &mut rng));
        let rotated = y1.matmul(&q0);
        let mut y2 = DenseMatrix::zeros(60, 8);
        for i in 0..60 {
            y2.row_mut(p.apply(i as u32) as usize)
                .copy_from_slice(rotated.row(i));
        }
        let cfg = SubspaceAlignConfig {
            anchors: 0,
            iterations: 4,
            ..Default::default()
        };
        let fast = align_subspaces(&y1, &y2, &ga, &gb, &cfg).unwrap();
        let oracle = align_subspaces_reference(&y1, &y2, &ga, &gb, &cfg).unwrap();
        let dq = fast
            .rotation
            .data()
            .iter()
            .zip(oracle.rotation.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // The paths seed and warm-start the alternation differently, so
        // the pin is the shared fixed point: residual convergence slack
        // sits below 1e-4 here, a different matching at O(0.1)–O(1).
        assert!(dq < 1e-3, "rotations diverge by {dq:e}");
    }

    /// Count of elements common to two strictly-sorted slices.
    fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// [`feature_row`] as first written: the two-hop set by concatenating
    /// the neighbor lists, then sort + dedup, and triangles by merging
    /// each neighbor's list with the later neighbors of `u`.
    fn reference_feature_row(g: &CsrGraph, u: usize, row: &mut [f64]) {
        let nbrs = g.neighbors(u as VertexId);
        let deg = nbrs.len();
        let (mut sum_nd, mut max_nd) = (0usize, 0usize);
        let mut tri = 0usize;
        let mut two_hop_set: Vec<VertexId> = Vec::new();
        for (idx, &v) in nbrs.iter().enumerate() {
            let vn = g.neighbors(v);
            sum_nd += vn.len();
            max_nd = max_nd.max(vn.len());
            two_hop_set.extend_from_slice(vn);
            tri += sorted_intersection_count(&nbrs[idx + 1..], vn);
        }
        two_hop_set.sort_unstable();
        two_hop_set.dedup();
        let self_hit = two_hop_set.binary_search(&(u as VertexId)).is_ok() as usize;
        let two_hop = two_hop_set.len() - self_hit;
        row[0] = (1.0 + deg as f64).ln();
        row[1] = if deg == 0 {
            0.0
        } else {
            (1.0 + sum_nd as f64 / deg as f64).ln()
        };
        row[2] = (1.0 + max_nd as f64).ln();
        row[3] = (1.0 + two_hop as f64).ln();
        row[4] = if deg >= 2 {
            2.0 * tri as f64 / (deg * (deg - 1)) as f64
        } else {
            0.0
        };
    }

    #[test]
    fn structural_features_match_sort_dedup_reference() {
        let mut rng = Rng::new(17);
        let n = 40usize;
        let complete: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .flat_map(|u| (u + 1..n as VertexId).map(move |v| (u, v)))
            .collect();
        let star: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
        // Edges among the first half only: the rest are isolated.
        let half: Vec<(VertexId, VertexId)> = (0..60)
            .map(|_| (rng.below(n / 2) as VertexId, rng.below(n / 2) as VertexId))
            .collect();
        let graphs = [
            ("complete", CsrGraph::from_edges(n, &complete)),
            ("star", CsrGraph::from_edges(n, &star)),
            ("empty", CsrGraph::empty(n)),
            ("isolated", CsrGraph::from_edges(n, &half)),
            ("ba", barabasi_albert(700, 3, &mut rng)),
            ("er", erdos_renyi_gnm(9000, 27_000, &mut rng)),
        ];
        for (name, g) in &graphs {
            let mut want = DenseMatrix::zeros(g.num_vertices(), 5);
            for u in 0..g.num_vertices() {
                reference_feature_row(g, u, want.row_mut(u));
            }
            standardize_columns(&mut want);
            for threads in [1, 2] {
                let got = cualign_rt::par::with_threads(threads, || structural_features(g));
                let same = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{name}, {threads} threads");
            }
        }
    }
}
