//! Symmetric eigendecomposition by the cyclic Jacobi method.
//!
//! Used by the spectral embedder's Rayleigh–Ritz step: the projected
//! operator `T = QᵀSQ` is a small (`d × d`) symmetric matrix whose
//! eigenpairs lift to approximate eigenpairs of the graph operator.
//!
//! ## Exit rule
//!
//! A sweep visits every pair `p < q` and rotates only where `|a_pq|`
//! exceeds `TOL·(|a_pp| + |a_qq|)`. A sweep that rotates nothing leaves
//! the matrix as it was, so every later sweep would compute the same
//! off-diagonal norm and make the same skip decisions: nothing would
//! ever change again. [`symmetric_eigen`] therefore stops after the
//! first sweep that applies no rotation, besides the off-diagonal norm
//! test both routines share. On Rayleigh–Ritz matrices of the spectral
//! embedder the last rotating sweep is the 7th or 8th, while the norm
//! test alone (`1e-14` relative) is never met there and
//! [`symmetric_eigen_reference`] runs all 60. The fast path also keeps
//! the eigenvectors as contiguous rows of `Vᵀ` instead of columns of
//! `V`, with the same per-element arithmetic, so its result is
//! bit-identical to the reference (`crates/linalg/tests/prop_linalg.rs`
//! pins it with `to_bits`).

use crate::DenseMatrix;

const TOL: f64 = 1e-14;
const MAX_SWEEPS: usize = 60;

/// Result of a symmetric eigendecomposition `M = V · diag(λ) · Vᵀ`,
/// ordered by **descending absolute eigenvalue** (the order relevant to
/// dominant-subspace methods).
pub struct SymmetricEigen {
    /// Eigenvalues, `|λ₀| ≥ |λ₁| ≥ …`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the columns of `V`.
    pub vectors: DenseMatrix,
    /// Jacobi sweeps run, at most 60. [`symmetric_eigen`] counts the
    /// final sweep that applied no rotation;
    /// [`symmetric_eigen_reference`] runs until the off-diagonal norm
    /// test passes or the budget is spent.
    pub sweeps: usize,
}

/// Computes the eigendecomposition of a symmetric matrix by cyclic Jacobi
/// rotations. The input is symmetrized as `(M + Mᵀ)/2` to absorb
/// round-off asymmetry from callers.
///
/// Stops after the first sweep that applies no rotation (module docs);
/// bit-identical to [`symmetric_eigen_reference`].
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen(m: &DenseMatrix) -> SymmetricEigen {
    let n = m.rows();
    assert_eq!(n, m.cols(), "matrix must be square");
    // Symmetrize defensively.
    let mut a = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
    // Row r of `vt` is column r of V.
    let mut vt = DenseMatrix::identity(n);
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS && !converged(&a) {
        sweeps += 1;
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let Some((c, s)) = rotation(&a, p, q) else {
                    continue;
                };
                rotated = true;
                // Update A = JᵀAJ: columns p, q, then rows p, q.
                for row in a.data_mut().chunks_exact_mut(n) {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                rotate_rows(&mut a, p, q, c, s);
                // Accumulate V = V·J, i.e. rotate rows p, q of Vᵀ.
                rotate_rows(&mut vt, p, q, c, s);
            }
        }
        if !rotated {
            break;
        }
    }

    // Sort by |λ| descending.
    let mut order: Vec<usize> = (0..n).collect();
    let raw: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    // total_cmp: a total order even on NaN, so a non-converged iterate
    // yields a deterministic (if meaningless) ordering, not a panic.
    order.sort_by(|&x, &y| raw[y].abs().total_cmp(&raw[x].abs()));
    let mut values = Vec::with_capacity(n);
    let mut vectors = DenseMatrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        values.push(raw[old_j]);
        for (i, &x) in vt.row(old_j).iter().enumerate() {
            vectors[(i, new_j)] = x;
        }
    }
    SymmetricEigen {
        values,
        vectors,
        sweeps,
    }
}

/// Whether the off-diagonal Frobenius mass is below the exit tolerance.
fn converged(a: &DenseMatrix) -> bool {
    let n = a.rows();
    let mut off = 0.0;
    for i in 0..n {
        for &x in &a.row(i)[i + 1..] {
            off += x * x;
        }
    }
    off.sqrt() <= TOL * (1.0 + a.max_abs())
}

/// The classic Jacobi rotation `(c, s)` annihilating `a[p][q]`, or
/// `None` where `a[p][q]` is already negligible.
fn rotation(a: &DenseMatrix, p: usize, q: usize) -> Option<(f64, f64)> {
    let apq = a[(p, q)];
    if apq.abs() <= TOL * (a[(p, p)].abs() + a[(q, q)].abs() + 1e-300) {
        return None;
    }
    let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    Some((c, c * t))
}

/// Rows `p < q` of `x` ← `(c·x_p − s·x_q, s·x_p + c·x_q)`.
fn rotate_rows(x: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let n = x.cols();
    let (head, tail) = x.data_mut().split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    let rq = &mut tail[..n];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let (apk, aqk) = (*xp, *xq);
        *xp = c * apk - s * aqk;
        *xq = s * apk + c * aqk;
    }
}

/// The pinned oracle for [`symmetric_eigen`]: cyclic Jacobi with the
/// full sweep budget (it stops only on the off-diagonal norm test) and
/// eigenvectors accumulated as columns of `V`.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen_reference(m: &DenseMatrix) -> SymmetricEigen {
    let n = m.rows();
    assert_eq!(n, m.cols(), "matrix must be square");
    // Symmetrize defensively.
    let mut a = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
    let mut v = DenseMatrix::identity(n);
    let mut sweeps = 0;

    for _ in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[(i, j)] * a[(i, j)];
            }
        }
        if off.sqrt() <= TOL * (1.0 + a.max_abs()) {
            break;
        }
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= TOL * (a[(p, p)].abs() + a[(q, q)].abs() + 1e-300) {
                    continue;
                }
                // Classic Jacobi rotation annihilating a[p][q].
                let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Update A = JᵀAJ.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate V = V·J.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort by |λ| descending.
    let mut order: Vec<usize> = (0..n).collect();
    let raw: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    // total_cmp: a total order even on NaN, so a non-converged iterate
    // yields a deterministic (if meaningless) ordering, not a panic.
    order.sort_by(|&x, &y| raw[y].abs().total_cmp(&raw[x].abs()));
    let mut values = Vec::with_capacity(n);
    let mut vectors = DenseMatrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        values.push(raw[old_j]);
        for i in 0..n {
            vectors[(i, new_j)] = v[(i, old_j)];
        }
    }
    SymmetricEigen {
        values,
        vectors,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormalize;
    use cualign_rt::Rng;

    fn assert_valid(m: &DenseMatrix, e: &SymmetricEigen, tol: f64) {
        let n = m.rows();
        assert!(e.vectors.is_orthonormal(tol), "V not orthonormal");
        // M V = V diag(λ).
        let mv = m.matmul(&e.vectors);
        for j in 0..n {
            for i in 0..n {
                let want = e.values[j] * e.vectors[(i, j)];
                assert!((mv[(i, j)] - want).abs() < tol, "eigenpair {j} invalid");
            }
        }
        // Ordered by |λ|.
        assert!(e.values.windows(2).all(|w| w[0].abs() >= w[1].abs() - tol));
    }

    #[test]
    fn diagonal_matrix() {
        let m = DenseMatrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0, 0.0, 1.0]);
        let e = symmetric_eigen(&m);
        assert_valid(&m, &e, 1e-10);
        assert!((e.values[0] + 5.0).abs() < 1e-10, "largest |λ| first");
    }

    #[test]
    fn random_symmetric() {
        let mut rng = Rng::new(1);
        let g = DenseMatrix::gaussian(10, 10, &mut rng);
        let m = DenseMatrix::from_fn(10, 10, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        let e = symmetric_eigen(&m);
        assert_valid(&m, &e, 1e-9);
    }

    #[test]
    fn planted_spectrum_recovered() {
        let mut rng = Rng::new(2);
        let q = orthonormalize(&DenseMatrix::gaussian(6, 6, &mut rng));
        let lambda = [7.0, -4.0, 2.5, 1.0, -0.5, 0.1];
        // M = Q diag(λ) Qᵀ.
        let mut qd = q.clone();
        for i in 0..6 {
            for j in 0..6 {
                qd[(i, j)] *= lambda[j];
            }
        }
        let m = qd.matmul(&q.transpose());
        let e = symmetric_eigen(&m);
        for (got, want) in e.values.iter().zip([7.0, -4.0, 2.5, 1.0, -0.5, 0.1]) {
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn trace_is_preserved() {
        let mut rng = Rng::new(3);
        let g = DenseMatrix::gaussian(8, 8, &mut rng);
        let m = DenseMatrix::from_fn(8, 8, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        let e = symmetric_eigen(&m);
        let trace: f64 = (0..8).map(|i| m[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }
}
