//! Symmetric eigendecomposition: Householder tridiagonalization plus
//! implicit-shift QL.
//!
//! Used by the spectral embedder's Rayleigh–Ritz step, where the
//! projected operator `T = QᵀSQ` is a small (`d × d`) symmetric matrix
//! whose eigenpairs lift to approximate eigenpairs of the graph
//! operator, and by [`crate::svd::jacobi_svd`], which starts its sweeps
//! from the eigenvectors of `AᵀA`.
//!
//! [`symmetric_eigen`] is the EISPACK `tred2`/`tql2` pair (as ported in
//! JAMA): Householder reflections reduce the matrix to tridiagonal form
//! and accumulate the orthogonal factor, then implicitly shifted QL
//! steps drive the off-diagonal to zero, each step a chase of Givens
//! rotations. The orthogonal factor is kept transposed, as the rows of
//! `Vᵀ`: every inner loop of the reduction, the accumulation and each
//! rotation then streams contiguous rows. On the 80 × 80 Rayleigh–Ritz
//! matrix of a default embedding it takes ≈ 0.6 ms on a 2-vCPU AVX-512
//! host, against ≈ 13 ms for the reference's 60 Jacobi sweeps
//! (`BENCH_subspace.json`, `dense` row).
//!
//! ## Exactness
//!
//! The result is tolerance-pinned, not bitwise, to
//! [`symmetric_eigen_reference`], the cyclic Jacobi method with a
//! 60-sweep budget: eigenvalues agree within `1e-12·max|λ|`, each
//! eigenpair's residual `‖Mv − λv‖` is within `1e-12·‖M‖_F` and `V` is
//! orthonormal to `1e-12` (`crates/linalg/tests/prop_linalg.rs`).
//! Eigenvectors of a repeated eigenvalue are a basis of its eigenspace,
//! not the reference's basis, and each vector's sign is arbitrary.
//!
//! Both solvers are serial and use only IEEE-exact operations
//! (`+ − × ÷ √`, no library `hypot`), so they give the same bits on
//! every host, vector ISA and thread count.

use crate::DenseMatrix;

/// Reference Jacobi: off-diagonal tolerance and sweep budget.
const TOL: f64 = 1e-14;
const MAX_SWEEPS: usize = 60;

/// QL steps allowed per eigenvalue (EISPACK's `tql2` limit). Steps
/// converge cubically, so 1–3 suffice; the cap guarantees an exit on
/// any input, non-finite included.
const MAX_QL_STEPS: usize = 30;

/// Result of a symmetric eigendecomposition `M = V · diag(λ) · Vᵀ`,
/// ordered by **descending absolute eigenvalue** (the order relevant to
/// dominant-subspace methods).
pub struct SymmetricEigen {
    /// Eigenvalues, `|λ₀| ≥ |λ₁| ≥ …`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the columns of `V`.
    pub vectors: DenseMatrix,
}

/// Computes the eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization and implicit-shift QL (module docs). The input is
/// symmetrized as `(M + Mᵀ)/2` to absorb round-off asymmetry from
/// callers.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen(m: &DenseMatrix) -> SymmetricEigen {
    let n = m.rows();
    assert_eq!(n, m.cols(), "matrix must be square");
    // Symmetrized input; reduced in place, then overwritten by Vᵀ.
    let mut vt = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n > 0 {
        tridiagonalize(&mut vt, &mut d, &mut e);
        tridiagonal_ql(&mut vt, &mut d, &mut e);
    }
    sorted_by_magnitude(&d, |i, j| vt[(j, i)])
}

/// `tred2` on the rows of `w`: JAMA's `V[r][c]` is `w[(c, r)]` here, so
/// the column walks of the original read and write rows. On entry `w`
/// is the symmetric matrix; on exit it holds `Qᵀ` of `M = Q·T·Qᵀ`, `d`
/// the diagonal of `T` and `e[1..]` its subdiagonal (`e[0] = 0`).
fn tridiagonalize(w: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[(j, n - 1)];
    }
    // Householder reduction, last row first. At step `i`, `d[..i]`
    // holds row `i` of the partly reduced matrix, whose upper triangle
    // lives in the rows of `w`; the reflector is stored in row `i`.
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[(j, i - 1)];
                w[(j, i)] = 0.0;
                w[(i, j)] = 0.0;
            }
        } else {
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e ← (reduced block)·u, reading each row once.
            for j in 0..i {
                let f = d[j];
                w[(i, j)] = f;
                let row = &w.row(j)[j + 1..i];
                let mut g = e[j] + w[(j, j)] * f;
                for ((&wjk, &dk), ek) in row.iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += wjk * dk;
                    *ek += wjk * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-2 update of the upper triangle, row by row.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w.row_mut(j)[j..i];
                for ((wjk, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *wjk -= f * ek + g * dk;
                }
                d[j] = w[(j, i - 1)];
                w[(j, i)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflectors into Qᵀ, first reflector first.
    for i in 0..n - 1 {
        w[(i, n - 1)] = w[(i, i)];
        w[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            let u = w.row(i + 1)[..=i].to_vec();
            for (dk, &uk) in d[..=i].iter_mut().zip(&u) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut w.row_mut(j)[..=i];
                let g: f64 = u.iter().zip(row.iter()).map(|(&uk, &wjk)| uk * wjk).sum();
                for (wjk, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *wjk -= g * dk;
                }
            }
        }
        w.row_mut(i + 1)[..=i].fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[(j, n - 1)];
        w[(j, n - 1)] = 0.0;
    }
    w[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// `tql2`: diagonalizes the tridiagonal `(d, e)` from [`tridiagonalize`]
/// by implicit-shift QL, rotating rows `i, i + 1` of `vt` with each
/// Givens rotation. On exit `d` holds the eigenvalues (unsorted) and row
/// `j` of `vt` the eigenvector of `d[j]`.
fn tridiagonal_ql(vt: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or past `l`;
        // `e[n - 1] = 0` ends the search, as does a NaN.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        // m == l: d[l] is already an eigenvalue.
        if m > l {
            for _ in 0..MAX_QL_STEPS {
                // Implicit shift from the leading 2 × 2 block.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 {
                    -hypot(p, 1.0)
                } else {
                    hypot(p, 1.0)
                };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                shift += h;

                // One QL sweep: a chase of rotations from m − 1 up to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotate_rows(vt, i, c, s);
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 {
                    break;
                }
            }
        }
        d[l] += shift;
        e[l] = 0.0;
    }
}

/// Rows `i, i + 1` of `x` ← `(c·x_i − s·x_{i+1}, s·x_i + c·x_{i+1})`.
fn rotate_rows(x: &mut DenseMatrix, i: usize, c: f64, s: f64) {
    let n = x.cols();
    let (lo, hi) = x.data_mut()[i * n..(i + 2) * n].split_at_mut(n);
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let (xa, xb) = (*a, *b);
        *a = c * xa - s * xb;
        *b = s * xa + c * xb;
    }
}

/// `√(a² + b²)` without overflow or harmful underflow, from IEEE-exact
/// operations only (a library `hypot` may differ between hosts).
fn hypot(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (big, small) = if a >= b { (a, b) } else { (b, a) };
    if big == 0.0 {
        return 0.0;
    }
    let r = small / big;
    big * (1.0 + r * r).sqrt()
}

/// Orders eigenpairs by |λ| descending; `entry(i, j)` is component `i`
/// of the eigenvector of `raw[j]`. Ties keep index order.
fn sorted_by_magnitude(raw: &[f64], entry: impl Fn(usize, usize) -> f64) -> SymmetricEigen {
    let n = raw.len();
    let mut order: Vec<usize> = (0..n).collect();
    // total_cmp: a total order even on NaN, so a non-converged iterate
    // yields a deterministic (if meaningless) ordering, not a panic.
    order.sort_by(|&x, &y| raw[y].abs().total_cmp(&raw[x].abs()));
    let mut values = Vec::with_capacity(n);
    let mut vectors = DenseMatrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        values.push(raw[old_j]);
        for i in 0..n {
            vectors[(i, new_j)] = entry(i, old_j);
        }
    }
    SymmetricEigen { values, vectors }
}

/// The pinned oracle for [`symmetric_eigen`]: cyclic Jacobi rotations,
/// sweeping until the off-diagonal Frobenius norm falls below
/// `1e-14·(1 + max|a|)` or 60 sweeps elapse (on Rayleigh–Ritz matrices
/// the norm test is never met and all 60 run), with eigenvectors
/// accumulated as columns of `V`.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen_reference(m: &DenseMatrix) -> SymmetricEigen {
    let n = m.rows();
    assert_eq!(n, m.cols(), "matrix must be square");
    // Symmetrize defensively.
    let mut a = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
    let mut v = DenseMatrix::identity(n);
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

    let raw: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    sorted_by_magnitude(&raw, |i, j| v[(i, j)])
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
