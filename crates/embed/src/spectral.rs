//! Spectral proximity embedding — the pipeline's embedder.
//!
//! Computes the dominant `d`-dimensional eigenspace of the symmetric
//! normalized adjacency `S = D^{-1/2} A D^{-1/2}` by block power
//! iteration, re-orthonormalized by QR after every step, followed by a
//! Rayleigh–Ritz projection (Jacobi eigendecomposition of the small
//! `QᵀSQ`).
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
#[derive(Clone, Copy, Debug)]
pub struct SpectralConfig {
    /// Embedding dimension `d` (number of dominant eigenvectors kept).
    pub dim: usize,
    /// Block power iterations (with QR re-orthonormalization each step).
    pub iters: usize,
    /// Extra subspace columns carried during iteration for faster
    /// convergence, dropped at the end.
    pub oversample: usize,
    /// Seed for the random starting block.
    pub seed: u64,
    /// Scale eigenvector `j` by `|λ_j|^power` (0 = pure eigenvectors; 1 =
    /// diffusion-weighted). Weighting by eigenvalue magnitude emphasizes
    /// smooth structure.
    pub eigenvalue_power: f64,
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
            eigenvalue_power: 1.0,
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

/// Computes the spectral embedding of `g`.
///
/// # Panics
/// Panics if `dim == 0` or `dim + oversample > n` (subspace larger than
/// the space).
pub fn spectral_embedding(g: &CsrGraph, cfg: &SpectralConfig) -> DenseMatrix {
    let n = g.num_vertices();
    assert!(cfg.dim > 0, "embedding dimension must be positive");
    let block = cfg.dim + cfg.oversample;
    assert!(
        block <= n,
        "dim + oversample = {block} exceeds vertex count {n}"
    );

    let inv_sqrt_deg: Vec<f64> = (0..n as VertexId)
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                0.0
            } else {
                1.0 / (d as f64).sqrt()
            }
        })
        .collect();

    let mut rng = Rng::new(cfg.seed);
    let mut x = orthonormalize(&DenseMatrix::gaussian(n, block, &mut rng));
    for _ in 0..cfg.iters {
        x = orthonormalize(&apply_sym_norm_adj(g, &inv_sqrt_deg, &x));
    }
    // Rayleigh–Ritz: T = Xᵀ S X, eigendecompose, lift.
    let sx = apply_sym_norm_adj(g, &inv_sqrt_deg, &x);
    let t = x.transpose_matmul(&sx);
    let eig = symmetric_eigen(&t);
    let lifted = x.matmul(&eig.vectors); // n × block, ordered by |λ|

    let mut out = DenseMatrix::zeros(n, cfg.dim);
    for j in 0..cfg.dim {
        let scale = eig.values[j].abs().powf(cfg.eigenvalue_power);
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
        let y1 = spectral_embedding(&g, &cfg);
        let y2 = spectral_embedding(&g, &cfg);
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
        );
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
            eigenvalue_power: 1.0,
            normalize: false,
        };
        let cfg_b = SpectralConfig { seed: 999, ..cfg_a };
        let ya = spectral_embedding(&a, &cfg_a);
        let yb = spectral_embedding(&b, &cfg_b);
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
        let y = spectral_embedding(&g, &cfg);
        for i in 3..6 {
            assert!(y.row(i).iter().all(|&x| x == 0.0), "row {i} not zero");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds vertex count")]
    fn rejects_oversized_block() {
        let g = CsrGraph::empty(10);
        let _ = spectral_embedding(
            &g,
            &SpectralConfig {
                dim: 8,
                oversample: 8,
                ..Default::default()
            },
        );
    }
}
