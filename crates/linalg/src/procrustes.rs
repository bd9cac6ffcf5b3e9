//! Orthogonal Procrustes: the rotation half of the subspace-alignment
//! problem (Eq. 2 of the paper).
//!
//! Given embeddings `X` (already permuted/weighted by a correspondence) and
//! `Y`, the minimizer of `‖X Q − Y‖_F` over orthogonal `Q` is `Q = U Vᵀ`
//! where `Xᵀ Y = U Σ Vᵀ`. The cross-covariance is only `d × d`, but the
//! one-sided Jacobi SVD of it is not free: at `d = 64` one call takes
//! ≈ 2.3–2.8 ms on a 2-vCPU AVX-512 host built for its CPU (2.7–4.4 ms
//! built for baseline x86-64), and the subspace alternation makes one
//! per round (9 per default op). It is the larger half of the
//! `subspace.procrustes` + `subspace.project` time.

use crate::svd::jacobi_svd;
use crate::DenseMatrix;

/// Solves `min_{Q orthogonal} ‖X Q − Y‖_F` for `X, Y ∈ R^{m × d}`.
///
/// Returns the `d × d` orthogonal matrix `Q`.
///
/// # Panics
/// Panics if shapes disagree.
pub fn orthogonal_procrustes(x: &DenseMatrix, y: &DenseMatrix) -> DenseMatrix {
    assert_eq!(x.rows(), y.rows(), "row mismatch");
    assert_eq!(x.cols(), y.cols(), "column mismatch");
    let m = x.transpose_matmul(y); // d × d cross covariance XᵀY
    let svd = jacobi_svd(&m);
    svd.u.matmul(&svd.v.transpose())
}

/// The residual `‖X Q − Y‖_F` for a candidate rotation.
pub fn procrustes_residual(x: &DenseMatrix, y: &DenseMatrix, q: &DenseMatrix) -> f64 {
    x.matmul(q).sub(y).frobenius_norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormalize;
    use cualign_rt::Rng;

    #[test]
    fn recovers_planted_rotation() {
        let mut rng = Rng::new(1);
        let x = DenseMatrix::gaussian(40, 5, &mut rng);
        let q_true = orthonormalize(&DenseMatrix::gaussian(5, 5, &mut rng));
        let y = x.matmul(&q_true);
        let q = orthogonal_procrustes(&x, &y);
        assert!(q.sub(&q_true).max_abs() < 1e-9, "rotation not recovered");
        assert!(procrustes_residual(&x, &y, &q) < 1e-9);
    }

    #[test]
    fn result_is_orthogonal() {
        let mut rng = Rng::new(2);
        let x = DenseMatrix::gaussian(30, 6, &mut rng);
        let y = DenseMatrix::gaussian(30, 6, &mut rng);
        let q = orthogonal_procrustes(&x, &y);
        assert!(q.is_orthonormal(1e-9));
    }

    #[test]
    fn beats_identity_on_rotated_data() {
        let mut rng = Rng::new(3);
        let x = DenseMatrix::gaussian(50, 4, &mut rng);
        let q_true = orthonormalize(&DenseMatrix::gaussian(4, 4, &mut rng));
        let mut y = x.matmul(&q_true);
        // Perturb Y a little; Procrustes must still beat no rotation.
        let noise = DenseMatrix::gaussian(50, 4, &mut rng);
        for i in 0..50 {
            for j in 0..4 {
                y[(i, j)] += 0.01 * noise[(i, j)];
            }
        }
        let q = orthogonal_procrustes(&x, &y);
        let eye = DenseMatrix::identity(4);
        assert!(
            procrustes_residual(&x, &y, &q) < procrustes_residual(&x, &y, &eye),
            "procrustes worse than identity"
        );
    }

    #[test]
    fn identity_when_already_aligned() {
        let mut rng = Rng::new(4);
        let x = DenseMatrix::gaussian(25, 3, &mut rng);
        let q = orthogonal_procrustes(&x, &x);
        assert!(q.sub(&DenseMatrix::identity(3)).max_abs() < 1e-9);
    }
}
