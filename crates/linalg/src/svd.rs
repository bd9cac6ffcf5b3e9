//! One-sided Jacobi singular value decomposition, started from the
//! eigenvectors of `AᵀA`.
//!
//! The subspace-alignment step (Eq. 2) needs the SVD of the `d × d`
//! cross-covariance `Y₁ᵀ P Y₂` between two embeddings; `d` is the
//! embedding dimension (≤ 256). One-sided Jacobi rotates pairs of
//! columns of `W = A·V` until they are mutually orthogonal; then the
//! column norms are the singular values and the normalized columns the
//! left singular vectors.
//!
//! From `V = I` ([`jacobi_svd_reference`]) a 33–64-column cross-covariance
//! needs 9–13 sweeps. [`jacobi_svd`] first takes `V₀` from the
//! eigenvectors of `AᵀA` ([`symmetric_eigen`]), so `W = A·V₀` starts
//! with nearly orthogonal columns, and the same sweeps, tolerance and
//! exit rule finish in 1–3: ≈ 0.6 ms instead of ≈ 2.2 ms at `d = 64` on
//! a 2-vCPU AVX-512 host (`BENCH_subspace.json`, `dense` row). The
//! preconditioner squares the condition number only in the starting
//! guess; the sweeps still orthogonalize `W` to `1e-14`, so `U`, `V` and
//! `σ` are as accurate as the reference's in absolute terms. Small
//! singular values lose the high *relative* accuracy the identity start
//! gives, which no caller relies on. The two are tolerance-pinned, not
//! bitwise (`crates/linalg/tests/prop_linalg.rs`).
//!
//! For tall matrices (`m > n`) the input is first reduced by thin QR so the
//! sweeps run on an `n × n` factor.
//!
//! Singular values at or below `n·ε·σ₀` are rounding noise of a
//! rank-deficient input and are returned as exact zeros; their columns of
//! `U` complete the kept ones to an orthonormal basis, so `U` is
//! orthonormal at every rank.

use crate::eig::symmetric_eigen;
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
/// rotations started from the eigenvectors of `AᵀA` (module docs).
///
/// Convergence: sweeps continue until every column pair is numerically
/// orthogonal (`|aᵢ·aⱼ| ≤ tol·‖aᵢ‖‖aⱼ‖` with `tol = 1e-14`) or 60 sweeps
/// elapse.
///
/// # Panics
/// Panics if `m < n`.
pub fn jacobi_svd(a: &DenseMatrix) -> Svd {
    thin_svd(a, |a| {
        let v0 = symmetric_eigen(&a.transpose_matmul(a)).vectors;
        (a.matmul(&v0).transpose(), v0.transpose())
    })
}

/// The pinned oracle for [`jacobi_svd`]: the same sweeps and exit rule
/// started from `V = I`, i.e. on the columns of `A` itself.
///
/// # Panics
/// Panics if `m < n`.
pub fn jacobi_svd_reference(a: &DenseMatrix) -> Svd {
    thin_svd(a, |a| (a.transpose(), DenseMatrix::identity(a.cols())))
}

/// Reduces tall inputs by QR, then runs the sweeps on the square factor
/// from the start `(Wᵀ, Vᵀ)` that `start` picks for it.
fn thin_svd(a: &DenseMatrix, start: fn(&DenseMatrix) -> (DenseMatrix, DenseMatrix)) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "jacobi_svd requires rows ≥ cols (got {m} × {n})");

    // Reduce tall inputs: A = Q R, svd(R) = U Σ Vᵀ ⇒ A = (Q U) Σ Vᵀ.
    if m > n {
        let qr = householder_qr(a);
        let inner = thin_svd(&qr.r, start);
        return Svd {
            u: qr.q.matmul(&inner.u),
            sigma: inner.sigma,
            v: inner.v,
        };
    }
    let (mut wt, mut vt) = start(a);
    sweep(&mut wt, &mut vt);
    extract(&wt, &vt)
}

/// One-sided Jacobi sweeps on the *rows* of `Wᵀ` (and `Vᵀ`): a rotation
/// reads and writes two contiguous `n`-long slices instead of two
/// `n`-strided column walks. Stops after the first sweep in which every
/// pair is already orthogonal to `TOL`, or after `MAX_SWEEPS`. On exit
/// row `j` of `Wᵀ` is `σⱼ uⱼ`.
fn sweep(wt: &mut DenseMatrix, vt: &mut DenseMatrix) {
    const TOL: f64 = 1e-14;
    const MAX_SWEEPS: usize = 60;
    let n = wt.rows();

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
                let (rp, rq) = row_pair_mut(wt, p, q, n);
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
                let (vp, vq) = row_pair_mut(vt, p, q, n);
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
}

/// Sorts the swept factors by descending `σⱼ = ‖row j of Wᵀ‖` and
/// normalizes `U`. Singular values at or below `n·ε·σ₀` become exact
/// zeros, and their `U` columns are completed against the kept ones.
fn extract(wt: &DenseMatrix, vt: &DenseMatrix) -> Svd {
    let n = wt.rows();
    let norms: Vec<f64> = (0..n)
        .map(|j| wt.row(j).iter().map(|&w| w * w).sum::<f64>().sqrt())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    // total_cmp: a total order even on NaN, so a degenerate input yields
    // a deterministic ordering instead of a panic. Singular values are
    // non-negative, so the descending order is unchanged.
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    let cutoff = order
        .first()
        .map_or(0.0, |&j| n as f64 * f64::EPSILON * norms[j]);

    // Row j of `ut` is column j of U. A NaN σ fails `s <= cutoff` and is
    // kept, so a non-finite input stays visibly non-finite.
    let mut ut = DenseMatrix::zeros(n, n);
    let mut sigma = vec![0.0; n];
    let mut rank = 0;
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = norms[old_j];
        if s <= cutoff {
            break;
        }
        sigma[new_j] = s;
        for (u, &w) in ut.row_mut(new_j).iter_mut().zip(wt.row(old_j)) {
            *u = w / s;
        }
        rank += 1;
    }
    complete_orthonormal_rows(&mut ut, rank);

    let mut v = DenseMatrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        for (i, &x) in vt.row(old_j).iter().enumerate() {
            v[(i, new_j)] = x;
        }
    }
    Svd {
        u: ut.transpose(),
        sigma,
        v,
    }
}

/// Fills rows `rank..` of the square `ut` so that all its rows are
/// orthonormal, given orthonormal rows `..rank`. Each new row is the
/// standard basis vector with the least weight in the span so far
/// (its squared norm outside the span is at least `(n − j)/n ≥ 1/n`),
/// projected off the previous rows twice and normalized.
fn complete_orthonormal_rows(ut: &mut DenseMatrix, rank: usize) {
    let n = ut.rows();
    // weight[k] = Σ_{i<j} u_i[k]², the squared norm of e_k inside the span.
    let mut weight = vec![0.0; n];
    for i in 0..rank {
        for (wk, &x) in weight.iter_mut().zip(ut.row(i)) {
            *wk += x * x;
        }
    }
    for j in rank..n {
        let mut k = 0;
        for (c, &wc) in weight.iter().enumerate() {
            if wc < weight[k] {
                k = c;
            }
        }
        let mut x = vec![0.0; n];
        x[k] = 1.0;
        for _ in 0..2 {
            for i in 0..j {
                let u = ut.row(i);
                let c: f64 = u.iter().zip(&x).map(|(a, b)| a * b).sum();
                for (xk, &uk) in x.iter_mut().zip(u) {
                    *xk -= c * uk;
                }
            }
        }
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        for ((u, &xk), wk) in ut.row_mut(j).iter_mut().zip(&x).zip(&mut weight) {
            *u = xk / norm;
            *wk += *u * *u;
        }
    }
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

    /// Square inputs of rank 1 and 2 whose leading left singular vector
    /// is far from `e₁`; the rank-2 one has a zero column, so the sweeps
    /// leave an exactly zero σ. The dropped σ are exact zeros and both
    /// solvers complete `U` to an orthonormal basis.
    #[test]
    fn rank_deficient_square_has_orthonormal_u() {
        let outer =
            |u: &[f64], v: &[f64]| DenseMatrix::from_fn(u.len(), v.len(), |i, j| u[i] * v[j]);
        let rank1 = outer(&[1.0, 2.0, 3.0], &[1.0, -1.0, 0.5]);
        let rank2 = outer(&[1.0, 2.0, 3.0, -1.0], &[0.5, -1.0, 2.0, 0.0])
            .add(&outer(&[-2.0, 0.5, 1.0, 3.0], &[1.0, 1.0, -0.5, 0.0]));
        for (a, rank) in [(rank1, 1), (rank2, 2)] {
            for svd in [jacobi_svd(&a), jacobi_svd_reference(&a)] {
                assert_valid_svd(&a, &svd, 1e-12);
                assert!(svd.sigma[rank - 1] > 1.0);
                assert!(
                    svd.sigma[rank..].iter().all(|&s| s == 0.0),
                    "{:?}",
                    svd.sigma
                );
            }
        }
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
