//! Spectral proximity embedding — the pipeline's embedder.
//!
//! Computes the dominant `d`-dimensional eigenspace of the symmetric
//! normalized adjacency `S = D^{-1/2} A D^{-1/2}` by block power
//! iteration, re-orthonormalized by QR every `QR_INTERVAL` steps and
//! after the last, followed by a Rayleigh–Ritz projection: the
//! eigendecomposition of the small `QᵀSQ` by Householder
//! tridiagonalization and implicit-shift QL
//! ([`symmetric_eigen`]), ≈ 0.6 ms at the default 80-column block,
//! timed by the `embed.rayleigh_ritz` span.
//! [`spectral_embedding_reference`] is the QR-after-every-step loop it is
//! pinned to within a tolerance.
//!
//! Why this embedder for *alignment*: the eigenspace of `S` is a function
//! of the graph alone. For isomorphic graphs `B = P(A)` the embeddings are
//! related by the permutation composed with an orthogonal transform (signs
//! of eigenvectors, rotations inside degenerate eigenvalue blocks) —
//! precisely the ambiguity the subspace-alignment stage (Eq. 2) is built
//! to resolve. A random-projection embedder (FastRP) lacks this property:
//! two independent projections of even the *same* graph are not related by
//! any `d × d` orthogonal map.

use cualign_graph::{CsrGraph, VertexId};
use cualign_linalg::eig::symmetric_eigen;
use cualign_linalg::qr::orthonormalize;
use cualign_linalg::{vecops, DenseMatrix};
use cualign_rt::par;
use cualign_rt::Rng;

/// Configuration for [`spectral_embedding`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralConfig {
    /// Embedding dimension `d` (number of dominant eigenvectors kept).
    pub dim: usize,
    /// Block power iterations: products with `S`, re-orthonormalized by
    /// QR every `QR_INTERVAL` steps and after the last.
    pub iters: usize,
    /// Extra subspace columns carried during iteration for faster
    /// convergence, dropped at the end.
    pub oversample: usize,
    /// Seed for the random starting block.
    pub seed: u64,
    /// Row-normalize the final embedding.
    pub normalize: bool,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            dim: 64,
            iters: 20,
            oversample: 16,
            seed: 0x57ec,
            normalize: true,
        }
    }
}

/// `Y ← D^{-1/2} A D^{-1/2} · X`, parallel over rows.
fn apply_sym_norm_adj(g: &CsrGraph, inv_sqrt_deg: &[f64], x: &DenseMatrix) -> DenseMatrix {
    let n = g.num_vertices();
    let d = x.cols();
    let mut out = DenseMatrix::zeros(n, d);
    if d == 0 {
        return out;
    }
    let per_row = d * (1 + 2 * g.num_edges() / n.max(1));
    let rows: Vec<&mut [f64]> = out.data_mut().chunks_mut(d).collect();
    par::for_each(rows, par::min_len_for(per_row), |u, row| {
        let su = inv_sqrt_deg[u];
        if su == 0.0 {
            return;
        }
        for &v in g.neighbors(u as VertexId) {
            let sv = inv_sqrt_deg[v as usize];
            let src = x.row(v as usize);
            for j in 0..d {
                row[j] += sv * src[j];
            }
        }
        for r in row.iter_mut() {
            *r *= su;
        }
    });
    out
}

/// Power steps between QR re-orthonormalizations of the block.
///
/// In exact arithmetic `span(Sᵗ X₀)` does not depend on where the QRs
/// fall, so the Rayleigh–Ritz pairs are those of the per-step loop
/// ([`spectral_embedding_reference`]); only rounding and Ritz-vector
/// signs differ. Between QRs a kept column can fall behind the leading
/// one by at most `(|λ₁| / |λ_dim|)^QR_INTERVAL`: measured `|λ₆₄|` ≈ 0.48
/// on BA(400, 4) (≤ 40×) and 0.07 on the coarsest multilevel pair of
/// ER(4000, 12 000) (≤ 6·10⁵), both far inside f64. The QR of the `n × (dim + oversample)`
/// block, not the sparse product, is the loop's cost. Median of 9 calls
/// at the default config on BA(400, 4), two runs, 2-vCPU host:
///
/// | QR schedule | QRs at 20 steps | one embedding |
/// |---|---|---|
/// | every step (reference) | 21 | 51–56 ms |
/// | every 4th step | 5 | 25–29 ms |
/// | every 5th step | 4 | 26 ms |
/// | every 10th step | 2 | 19–20 ms |
///
/// At every interval from 2 to 10 the Gram matrix `Y Yᵀ` stays within
/// 1.1·10⁻¹³ of the reference's on the eight n = 400 families of
/// `tests/prop_spectral.rs`; a QR only after the last step drifts to
/// 0.1 on Watts–Strogatz(400, 10, 0.1).
const QR_INTERVAL: usize = 5;

/// Rejected [`SpectralConfig`] / graph combinations.
///
/// `cualign-core` maps both variants onto `AlignError` (`InvalidConfig`
/// and `DimExceedsVertices`), the checks its session runs up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpectralError {
    /// `dim` is 0: there is no eigenspace to keep.
    ZeroDim,
    /// The iterated block `dim + oversample` has more columns than the
    /// graph has vertices.
    BlockExceedsVertices {
        /// Configured embedding dimension.
        dim: usize,
        /// Configured oversampling columns.
        oversample: usize,
        /// Vertex count of the graph.
        vertices: usize,
    },
}

impl std::fmt::Display for SpectralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectralError::ZeroDim => write!(f, "embedding dimension must be positive"),
            SpectralError::BlockExceedsVertices {
                dim,
                oversample,
                vertices,
            } => write!(
                f,
                "dim + oversample = {dim} + {oversample} exceeds vertex count {vertices}"
            ),
        }
    }
}

impl std::error::Error for SpectralError {}

/// Checks the block against the graph and returns its width
/// `dim + oversample`.
fn block_width(g: &CsrGraph, cfg: &SpectralConfig) -> Result<usize, SpectralError> {
    let vertices = g.num_vertices();
    if cfg.dim == 0 {
        return Err(SpectralError::ZeroDim);
    }
    let block = cfg.dim.saturating_add(cfg.oversample);
    if block > vertices {
        return Err(SpectralError::BlockExceedsVertices {
            dim: cfg.dim,
            oversample: cfg.oversample,
            vertices,
        });
    }
    Ok(block)
}

/// `1/√deg(u)` per vertex, `0` for isolated vertices (their rows of `S`
/// are empty).
fn inv_sqrt_degrees(g: &CsrGraph) -> Vec<f64> {
    (0..g.num_vertices() as VertexId)
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                0.0
            } else {
                1.0 / (d as f64).sqrt()
            }
        })
        .collect()
}

/// Computes the spectral embedding of `g`: `cfg.iters` products with `S`,
/// a QR after every `QR_INTERVAL`th and after the last, then
/// Rayleigh–Ritz. Records the QR count in the `embed.orthonormalizations`
/// counter of [`cualign_telemetry::current`] and times Rayleigh–Ritz in
/// its `embed.rayleigh_ritz` span.
///
/// # Errors
/// [`SpectralError::ZeroDim`] if `dim == 0`;
/// [`SpectralError::BlockExceedsVertices`] if `dim + oversample > n`
/// (subspace larger than the space).
pub fn spectral_embedding(
    g: &CsrGraph,
    cfg: &SpectralConfig,
) -> Result<DenseMatrix, SpectralError> {
    let block = block_width(g, cfg)?;
    let inv_sqrt_deg = inv_sqrt_degrees(g);
    // The Gaussian start is full-rank with probability 1, so its span is
    // that of its Q factor and it needs no QR of its own.
    let mut x = DenseMatrix::gaussian(g.num_vertices(), block, &mut Rng::new(cfg.seed));
    let mut qrs = 0u64;
    for step in 1..=cfg.iters {
        x = apply_sym_norm_adj(g, &inv_sqrt_deg, &x);
        if step % QR_INTERVAL == 0 && step < cfg.iters {
            x = orthonormalize(&x);
            qrs += 1;
        }
    }
    x = orthonormalize(&x);
    qrs += 1;
    let reg = cualign_telemetry::current();
    reg.counter("embed.orthonormalizations").add(qrs);
    let _span = reg.span("embed.rayleigh_ritz");
    Ok(rayleigh_ritz(g, &inv_sqrt_deg, &x, cfg))
}

/// The QR-after-every-step loop [`spectral_embedding`] is pinned to:
/// `cfg.iters + 1` QRs, one for the start block and one per step. Kept
/// as the tolerance oracle (`tests/prop_spectral.rs`); records no
/// telemetry.
///
/// # Errors
/// As [`spectral_embedding`].
pub fn spectral_embedding_reference(
    g: &CsrGraph,
    cfg: &SpectralConfig,
) -> Result<DenseMatrix, SpectralError> {
    let block = block_width(g, cfg)?;
    let inv_sqrt_deg = inv_sqrt_degrees(g);
    let start = DenseMatrix::gaussian(g.num_vertices(), block, &mut Rng::new(cfg.seed));
    let mut x = orthonormalize(&start);
    for _ in 0..cfg.iters {
        x = orthonormalize(&apply_sym_norm_adj(g, &inv_sqrt_deg, &x));
    }
    Ok(rayleigh_ritz(g, &inv_sqrt_deg, &x, cfg))
}

/// Rayleigh–Ritz on the orthonormal block `x`: eigendecompose
/// `T = Xᵀ S X`, lift, keep the `dim` columns of largest `|λ|` scaled by
/// `|λ|` (diffusion weighting, which emphasizes smooth structure), and
/// row-normalize if asked.
fn rayleigh_ritz(
    g: &CsrGraph,
    inv_sqrt_deg: &[f64],
    x: &DenseMatrix,
    cfg: &SpectralConfig,
) -> DenseMatrix {
    let n = g.num_vertices();
    let sx = apply_sym_norm_adj(g, inv_sqrt_deg, x);
    let t = x.transpose_matmul(&sx);
    let eig = symmetric_eigen(&t);
    let lifted = x.matmul(&eig.vectors); // n × block, ordered by |λ|

    let mut out = DenseMatrix::zeros(n, cfg.dim);
    for j in 0..cfg.dim {
        let scale = eig.values[j].abs();
        for i in 0..n {
            out[(i, j)] = lifted[(i, j)] * scale;
        }
    }
    if cfg.normalize {
        vecops::normalize_rows(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::{barabasi_albert, watts_strogatz};
    use cualign_graph::Permutation;

    /// Mean cosine similarity between embedding rows of adjacent vertex
    /// pairs minus that of random pairs — positive and large when the
    /// embedding is proximity-preserving.
    fn neighborhood_coherence(g: &CsrGraph, y: &DenseMatrix, samples: usize, seed: u64) -> f64 {
        let n = g.num_vertices();
        if n < 2 || g.num_edges() == 0 {
            return 0.0;
        }
        let mut rng = Rng::new(seed);
        let edges = g.edge_list();
        let mut adj_sim = 0.0;
        let mut rnd_sim = 0.0;
        for _ in 0..samples {
            let &(u, v) = &edges[rng.below(edges.len())];
            adj_sim += vecops::cosine_similarity(y.row(u as usize), y.row(v as usize));
            let a = rng.below(n);
            let b = rng.below(n);
            rnd_sim += vecops::cosine_similarity(y.row(a), y.row(b));
        }
        (adj_sim - rnd_sim) / samples as f64
    }

    #[test]
    fn shape_and_determinism() {
        let mut rng = Rng::new(1);
        let g = barabasi_albert(200, 3, &mut rng);
        let cfg = SpectralConfig {
            dim: 16,
            ..Default::default()
        };
        let y1 = spectral_embedding(&g, &cfg).unwrap();
        let y2 = spectral_embedding(&g, &cfg).unwrap();
        assert_eq!(y1.rows(), 200);
        assert_eq!(y1.cols(), 16);
        assert_eq!(y1, y2);
    }

    #[test]
    fn proximity_preserving() {
        let mut rng = Rng::new(2);
        let g = watts_strogatz(300, 8, 0.05, &mut rng);
        let y = spectral_embedding(
            &g,
            &SpectralConfig {
                dim: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let c = neighborhood_coherence(&g, &y, 2000, 5);
        assert!(c > 0.2, "coherence only {c}");
    }

    /// The property random projections lack and alignment needs: embeddings of
    /// isomorphic graphs agree up to an orthogonal transform. We verify it
    /// via the Gram matrices, which are rotation-invariant:
    /// `Y_A Y_Aᵀ ≈ Pᵀ (Y_B Y_Bᵀ) P` entrywise.
    #[test]
    fn isomorphic_graphs_have_matching_gram_matrices() {
        let mut rng = Rng::new(3);
        let a = barabasi_albert(80, 3, &mut rng);
        let p = Permutation::random(80, &mut rng);
        let b = p.apply_to_graph(&a);
        // Generous iteration budget; different seeds on purpose.
        let cfg_a = SpectralConfig {
            dim: 8,
            iters: 60,
            oversample: 24,
            seed: 10,
            normalize: false,
        };
        let cfg_b = SpectralConfig { seed: 999, ..cfg_a };
        let ya = spectral_embedding(&a, &cfg_a).unwrap();
        let yb = spectral_embedding(&b, &cfg_b).unwrap();
        let mut max_err = 0.0f64;
        let mut scale = 0.0f64;
        for i in 0..80 {
            for j in 0..80 {
                let ga = vecops::dot(ya.row(i), ya.row(j));
                let gb = vecops::dot(
                    yb.row(p.apply(i as u32) as usize),
                    yb.row(p.apply(j as u32) as usize),
                );
                max_err = max_err.max((ga - gb).abs());
                scale = scale.max(ga.abs());
            }
        }
        assert!(
            max_err < 0.05 * scale.max(1e-12),
            "gram mismatch {max_err} at scale {scale}"
        );
    }

    #[test]
    fn isolated_vertices_zero_rows() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0)]);
        let cfg = SpectralConfig {
            dim: 2,
            oversample: 2,
            normalize: false,
            ..Default::default()
        };
        let y = spectral_embedding(&g, &cfg).unwrap();
        for i in 3..6 {
            assert!(y.row(i).iter().all(|&x| x == 0.0), "row {i} not zero");
        }
    }

    #[test]
    fn rejects_oversized_block() {
        let g = CsrGraph::empty(10);
        let cfg = SpectralConfig {
            dim: 8,
            oversample: 8,
            ..Default::default()
        };
        let expected = SpectralError::BlockExceedsVertices {
            dim: 8,
            oversample: 8,
            vertices: 10,
        };
        assert_eq!(spectral_embedding(&g, &cfg), Err(expected.clone()));
        assert_eq!(
            spectral_embedding_reference(&g, &cfg),
            Err(expected.clone())
        );
        assert!(expected.to_string().contains("exceeds vertex count 10"));
    }

    #[test]
    fn rejects_zero_dim() {
        let g = CsrGraph::empty(10);
        let cfg = SpectralConfig {
            dim: 0,
            oversample: 4,
            ..Default::default()
        };
        assert_eq!(spectral_embedding(&g, &cfg), Err(SpectralError::ZeroDim));
    }

    /// With no power steps the one QR still runs, so Rayleigh–Ritz sees
    /// an orthonormal block.
    #[test]
    fn zero_iterations_still_orthonormalize() {
        let mut rng = Rng::new(4);
        let g = barabasi_albert(60, 3, &mut rng);
        let cfg = SpectralConfig {
            dim: 8,
            iters: 0,
            oversample: 4,
            normalize: false,
            ..Default::default()
        };
        let fast = spectral_embedding(&g, &cfg).unwrap();
        let oracle = spectral_embedding_reference(&g, &cfg).unwrap();
        assert_eq!(fast, oracle);
    }
}
