//! Householder QR decomposition and orthonormalization.
//!
//! QR is the dominant cost of the default spectral embedder: its block
//! subspace iteration re-orthonormalizes an `n × (dim + oversample)` block
//! after every fifth sparse propagation and after the last, and thin QR
//! of an `m × k` matrix costs `O(m k²)` against the propagation's
//! `O(nnz · k)`. It is also the NetMF
//! embedder's randomized range finder and the tall-input reduction inside
//! [`jacobi_svd`].
//!
//! [`householder_qr`] streams contiguous rows; [`householder_qr_reference`]
//! is the column-at-a-time routine it is bitwise-pinned to.
//!
//! [`jacobi_svd`]: crate::svd::jacobi_svd

use crate::DenseMatrix;

/// Thin QR decomposition `A = Q · R` of an `m × k` matrix with `m ≥ k`:
/// `Q` is `m × k` with orthonormal columns, `R` is `k × k` upper triangular.
pub struct QrDecomposition {
    /// Orthonormal factor (`m × k`).
    pub q: DenseMatrix,
    /// Upper-triangular factor (`k × k`).
    pub r: DenseMatrix,
}

/// Computes the thin QR factorization by Householder reflections.
///
/// Both phases stream contiguous rows: each reflector goes through one
/// private helper, `reflect`, which sums every column's dot in row order and so keeps
/// the per-element operation order of [`householder_qr_reference`].
/// Building `Q`, reflector `j` touches only columns `c ≥ j`: columns
/// `c < j` are still `e_c` on rows `≥ j`, so their dot is exactly `+0.0`
/// and the skipped update would leave them unchanged. For finite input
/// the result is therefore bit-identical to the reference (an infinite
/// or NaN entry would turn those skipped `0 · v[i]` terms into NaN).
///
/// # Panics
/// Panics if `a.rows() < a.cols()`.
pub fn householder_qr(a: &DenseMatrix) -> QrDecomposition {
    let (m, k) = (a.rows(), a.cols());
    assert!(m >= k, "thin QR requires rows ≥ cols (got {m} × {k})");
    let mut r = a.clone();
    let mut dots = vec![0.0; k];
    // Householder vectors (length m, zero above j) with their squared
    // norms; a norm of 0 marks a skipped reflector.
    let mut vs: Vec<(Vec<f64>, f64)> = Vec::with_capacity(k);
    for j in 0..k {
        // Build the reflector for column j from rows j..m.
        let mut v = vec![0.0; m];
        let mut norm2 = 0.0;
        for i in j..m {
            let x = r[(i, j)];
            v[i] = x;
            norm2 += x * x;
        }
        let norm = norm2.sqrt();
        if norm <= f64::EPSILON {
            vs.push((v, 0.0));
            continue;
        }
        let alpha = if v[j] >= 0.0 { -norm } else { norm };
        v[j] -= alpha;
        let vnorm2: f64 = v[j..].iter().map(|x| x * x).sum();
        if vnorm2 <= f64::EPSILON {
            vs.push((v, 0.0));
            r[(j, j)] = alpha;
            continue;
        }
        reflect(r.data_mut(), k, j, &v, vnorm2, &mut dots);
        vs.push((v, vnorm2));
    }
    // Zero the strict lower triangle of R (numerical dust) and keep k × k.
    let mut rk = DenseMatrix::zeros(k, k);
    for i in 0..k {
        rk.row_mut(i)[i..].copy_from_slice(&r.row(i)[i..]);
    }
    // Q = H_0 H_1 … H_{k-1} · [I_k; 0]  — apply reflectors in reverse to the
    // identity embedding.
    let mut q = DenseMatrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for (j, (v, vnorm2)) in vs.iter().enumerate().rev() {
        if *vnorm2 <= f64::EPSILON {
            continue;
        }
        reflect(q.data_mut(), k, j, v, *vnorm2, &mut dots);
    }
    QrDecomposition { q, r: rk }
}

/// Applies `H = I - 2 v vᵀ / (vᵀ v)` to columns `j..k` of the row-major
/// `m × k` matrix `x`, on rows `j..m`. Each column's dot accumulates in
/// row order, as a column-at-a-time loop would, while the inner loops run
/// over contiguous row tails. `dots` is length-`k` scratch.
fn reflect(x: &mut [f64], k: usize, j: usize, v: &[f64], vnorm2: f64, dots: &mut [f64]) {
    let dots = &mut dots[j..k];
    dots.fill(0.0);
    for (row, &vi) in x[j * k..].chunks_exact(k).zip(&v[j..]) {
        for (d, &xc) in dots.iter_mut().zip(&row[j..]) {
            *d += vi * xc;
        }
    }
    for d in dots.iter_mut() {
        *d = 2.0 * *d / vnorm2;
    }
    for (row, &vi) in x[j * k..].chunks_exact_mut(k).zip(&v[j..]) {
        for (xc, &coef) in row[j..].iter_mut().zip(dots.iter()) {
            *xc -= coef * vi;
        }
    }
}

/// The column-at-a-time Householder QR that [`householder_qr`] is
/// pinned to: it walks the row-major matrix with stride `k` and applies
/// every reflector to all `k` columns of `Q`. Kept as the bitwise oracle.
///
/// # Panics
/// Panics if `a.rows() < a.cols()`.
pub fn householder_qr_reference(a: &DenseMatrix) -> QrDecomposition {
    let (m, k) = (a.rows(), a.cols());
    assert!(m >= k, "thin QR requires rows ≥ cols (got {m} × {k})");
    // Work on a copy; accumulate the reflectors to build Q afterwards.
    let mut r = a.clone();
    // Householder vectors, stored per column (length m, zero above j).
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 0..k {
        // Build the reflector for column j from rows j..m.
        let mut v = vec![0.0; m];
        let mut norm2 = 0.0;
        for i in j..m {
            let x = r[(i, j)];
            v[i] = x;
            norm2 += x * x;
        }
        let norm = norm2.sqrt();
        if norm <= f64::EPSILON {
            vs.push(vec![0.0; m]);
            continue;
        }
        let alpha = if v[j] >= 0.0 { -norm } else { norm };
        v[j] -= alpha;
        let vnorm2: f64 = v[j..].iter().map(|x| x * x).sum();
        if vnorm2 <= f64::EPSILON {
            vs.push(vec![0.0; m]);
            r[(j, j)] = alpha;
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀ v) to the remaining columns of R.
        for c in j..k {
            let mut dot = 0.0;
            for i in j..m {
                dot += v[i] * r[(i, c)];
            }
            let coef = 2.0 * dot / vnorm2;
            for i in j..m {
                r[(i, c)] -= coef * v[i];
            }
        }
        vs.push(v);
    }
    // Zero the strict lower triangle of R (numerical dust) and keep k × k.
    let mut rk = DenseMatrix::zeros(k, k);
    for i in 0..k {
        for j in i..k {
            rk[(i, j)] = r[(i, j)];
        }
    }
    // Q = H_0 H_1 … H_{k-1} · [I_k; 0]  — apply reflectors in reverse to the
    // identity embedding.
    let mut q = DenseMatrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for j in (0..k).rev() {
        let v = &vs[j];
        let vnorm2: f64 = v[j..].iter().map(|x| x * x).sum();
        if vnorm2 <= f64::EPSILON {
            continue;
        }
        for c in 0..k {
            let mut dot = 0.0;
            for i in j..m {
                dot += v[i] * q[(i, c)];
            }
            let coef = 2.0 * dot / vnorm2;
            for i in j..m {
                q[(i, c)] -= coef * v[i];
            }
        }
    }
    QrDecomposition { q, r: rk }
}

/// Returns an orthonormal basis for the column space of `a` (its thin-QR
/// `Q` factor).
pub fn orthonormalize(a: &DenseMatrix) -> DenseMatrix {
    householder_qr(a).q
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_rt::Rng;

    fn reconstruct(qr: &QrDecomposition) -> DenseMatrix {
        qr.q.matmul(&qr.r)
    }

    #[test]
    fn qr_reconstructs_square() {
        let mut rng = Rng::new(1);
        let a = DenseMatrix::gaussian(6, 6, &mut rng);
        let qr = householder_qr(&a);
        assert!(reconstruct(&qr).sub(&a).max_abs() < 1e-10);
        assert!(qr.q.is_orthonormal(1e-10));
    }

    #[test]
    fn qr_reconstructs_tall() {
        let mut rng = Rng::new(2);
        let a = DenseMatrix::gaussian(50, 8, &mut rng);
        let qr = householder_qr(&a);
        assert!(reconstruct(&qr).sub(&a).max_abs() < 1e-10);
        assert!(qr.q.is_orthonormal(1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = Rng::new(3);
        let a = DenseMatrix::gaussian(10, 5, &mut rng);
        let qr = householder_qr(&a);
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(qr.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn handles_rank_deficient() {
        // Two identical columns.
        let a = DenseMatrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        let qr = householder_qr(&a);
        assert!(reconstruct(&qr).sub(&a).max_abs() < 1e-10);
        // Second diagonal of R collapses.
        assert!(qr.r[(1, 1)].abs() < 1e-10);
    }

    #[test]
    fn orthonormalize_gives_basis() {
        let mut rng = Rng::new(4);
        let a = DenseMatrix::gaussian(30, 4, &mut rng);
        let q = orthonormalize(&a);
        assert!(q.is_orthonormal(1e-10));
        assert_eq!(q.rows(), 30);
        assert_eq!(q.cols(), 4);
    }

    #[test]
    fn zero_matrix_qr() {
        let a = DenseMatrix::zeros(5, 3);
        let qr = householder_qr(&a);
        assert!(reconstruct(&qr).max_abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rows ≥ cols")]
    fn rejects_wide() {
        let a = DenseMatrix::zeros(2, 5);
        let _ = householder_qr(&a);
    }
}
