//! One-sided Jacobi singular value decomposition.
//!
//! The subspace-alignment step (Eq. 2) needs the SVD of the `d × d`
//! cross-covariance `Y₁ᵀ P Y₂` between two embeddings; `d` is the embedding
//! dimension (≤ 256). One-sided Jacobi is the right tool at this size: it is
//! simple, numerically robust (it computes small singular values to high
//! relative accuracy), and needs no bidiagonalization machinery.
//!
//! For tall matrices (`m > n`) the input is first reduced by thin QR so the
//! sweeps run on an `n × n` factor.

use crate::qr::householder_qr;
use crate::DenseMatrix;

/// Result of an SVD `A = U · diag(σ) · Vᵀ`.
pub struct Svd {
    /// Left singular vectors, `m × n` (thin).
    pub u: DenseMatrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × n` (**not** transposed).
    pub v: DenseMatrix,
}

/// Computes the thin SVD of an `m × n` matrix (`m ≥ n`) by one-sided Jacobi
/// rotations.
///
/// Convergence: sweeps continue until every column pair is numerically
/// orthogonal (`|aᵢ·aⱼ| ≤ tol·‖aᵢ‖‖aⱼ‖` with `tol = 1e-14`) or 60 sweeps
/// elapse, which in practice is far beyond what `d ≤ 256` needs.
///
/// # Panics
/// Panics if `m < n`.
pub fn jacobi_svd(a: &DenseMatrix) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "jacobi_svd requires rows ≥ cols (got {m} × {n})");

    // Reduce tall inputs: A = Q R, svd(R) = U Σ Vᵀ ⇒ A = (Q U) Σ Vᵀ.
    if m > n {
        let qr = householder_qr(a);
        let inner = jacobi_svd(&qr.r);
        return Svd {
            u: qr.q.matmul(&inner.u),
            sigma: inner.sigma,
            v: inner.v,
        };
    }

    // Work on the *rows* of Wᵀ = Aᵀ (and Vᵀ): a rotation then reads and
    // writes two contiguous `n`-long slices instead of two `n`-strided
    // column walks, where every element of a 128-column matrix lands on
    // its own cache line. Pure layout change — element order inside each
    // loop, and thus every floating-point result, is identical to the
    // column-major formulation. After convergence row `j` of Wᵀ is
    // `σⱼ uⱼ`.
    let mut wt = a.transpose();
    let mut vt = DenseMatrix::identity(n);
    const TOL: f64 = 1e-14;
    const MAX_SWEEPS: usize = 60;

    // Two disjoint rows of a row-major square matrix, borrowed mutably.
    fn row_pair_mut(m: &mut DenseMatrix, p: usize, q: usize, n: usize) -> (&mut [f64], &mut [f64]) {
        debug_assert!(p < q);
        let (lo, hi) = m.data_mut().split_at_mut(q * n);
        (&mut lo[p * n..(p + 1) * n], &mut hi[..n])
    }

    for _sweep in 0..MAX_SWEEPS {
        let mut off_diagonal = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (rp, rq) = row_pair_mut(&mut wt, p, q, n);
                // Gram entries over column pair (p, q) of W.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&wp, &wq) in rp.iter().zip(rq.iter()) {
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= TOL * (app.sqrt() * aqq.sqrt()).max(f64::MIN_POSITIVE) {
                    continue;
                }
                off_diagonal = true;
                // Jacobi rotation zeroing the (p, q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for (wp, wq) in rp.iter_mut().zip(rq.iter_mut()) {
                    let (a, b) = (*wp, *wq);
                    *wp = c * a - s * b;
                    *wq = s * a + c * b;
                }
                let (vp, vq) = row_pair_mut(&mut vt, p, q, n);
                for (vp, vq) in vp.iter_mut().zip(vq.iter_mut()) {
                    let (a, b) = (*vp, *vq);
                    *vp = c * a - s * b;
                    *vq = s * a + c * b;
                }
            }
        }
        if !off_diagonal {
            break;
        }
    }

    // Extract singular values and normalize U columns.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigma_raw = vec![0.0; n];
    for (j, s) in sigma_raw.iter_mut().enumerate() {
        *s = wt.row(j).iter().map(|&w| w * w).sum::<f64>().sqrt();
    }
    // total_cmp: a total order even on NaN, so a degenerate input yields
    // a deterministic ordering instead of a panic. Singular values are
    // non-negative, so the descending order is unchanged.
    order.sort_by(|&x, &y| sigma_raw[y].total_cmp(&sigma_raw[x]));

    let mut u = DenseMatrix::zeros(n, n);
    let mut vv = DenseMatrix::zeros(n, n);
    let mut sigma = vec![0.0; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma_raw[old_j];
        sigma[new_j] = s;
        for i in 0..n {
            // Zero singular value ⇒ leave the U column as an arbitrary unit
            // vector (e_j); any orthonormal completion is valid.
            u[(i, new_j)] = if s > 0.0 {
                wt[(old_j, i)] / s
            } else if i == new_j {
                1.0
            } else {
                0.0
            };
            vv[(i, new_j)] = vt[(old_j, i)];
        }
    }
    Svd { u, sigma, v: vv }
}

impl Svd {
    /// Reconstructs `U · diag(σ) · Vᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        let n = self.sigma.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..n {
                us[(i, j)] *= self.sigma[j];
            }
        }
        us.matmul(&self.v.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_rt::Rng;

    fn assert_valid_svd(a: &DenseMatrix, svd: &Svd, tol: f64) {
        assert!(
            svd.reconstruct().sub(a).max_abs() < tol,
            "reconstruction off"
        );
        assert!(svd.u.is_orthonormal(tol), "U not orthonormal");
        assert!(svd.v.is_orthonormal(tol), "V not orthonormal");
        assert!(
            svd.sigma.windows(2).all(|w| w[0] >= w[1] - tol),
            "σ not sorted: {:?}",
            svd.sigma
        );
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let svd = jacobi_svd(&a);
        assert_valid_svd(&a, &svd, 1e-10);
        assert!((svd.sigma[0] - 3.0).abs() < 1e-10);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-10);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn random_square() {
        let mut rng = Rng::new(1);
        let a = DenseMatrix::gaussian(12, 12, &mut rng);
        let svd = jacobi_svd(&a);
        assert_valid_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn random_tall() {
        let mut rng = Rng::new(2);
        let a = DenseMatrix::gaussian(40, 6, &mut rng);
        let svd = jacobi_svd(&a);
        assert_valid_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn rank_deficient() {
        // Rank-1 outer product.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [1.0, -1.0, 0.5];
        let a = DenseMatrix::from_fn(4, 3, |i, j| u[i] * v[j]);
        let svd = jacobi_svd(&a);
        assert_valid_svd(&a, &svd, 1e-9);
        assert!(svd.sigma[1] < 1e-9, "rank-1 matrix has one nonzero σ");
        assert!(svd.sigma[2] < 1e-9);
    }

    #[test]
    fn orthogonal_input_has_unit_sigmas() {
        let mut rng = Rng::new(3);
        let g = DenseMatrix::gaussian(8, 8, &mut rng);
        let q = crate::qr::orthonormalize(&g);
        let svd = jacobi_svd(&q);
        for &s in &svd.sigma {
            assert!((s - 1.0).abs() < 1e-9, "σ = {s}");
        }
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(4, 3);
        let svd = jacobi_svd(&a);
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert!(svd.reconstruct().max_abs() < 1e-12);
    }
}
