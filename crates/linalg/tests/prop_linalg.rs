//! Property-based tests for the linear algebra kernels: factorization
//! identities on random matrices of random shapes.

use cualign_graph::{generators, CsrGraph};
use cualign_linalg::eig::{symmetric_eigen, symmetric_eigen_reference, SymmetricEigen};
use cualign_linalg::qr::{householder_qr, householder_qr_reference, orthonormalize};
use cualign_linalg::sinkhorn::{sinkhorn, SinkhornOptions};
use cualign_linalg::svd::{jacobi_svd, jacobi_svd_reference};
use cualign_linalg::{orthogonal_procrustes, vecops, DenseMatrix};
use cualign_rt::check::cases;
use cualign_rt::Rng;

const CASES: u32 = 64;

fn gaussian(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::gaussian(rows, cols, &mut Rng::new(seed))
}

/// QR: reconstruction, orthonormal Q, upper-triangular R — any shape
/// with rows ≥ cols.
#[test]
fn qr_identities() {
    cases(CASES, 1, |rng| {
        let (rows, extra) = (rng.range(1..25), rng.below(15));
        let seed = rng.below(10_000) as u64;
        let cols = rows.min(rows.saturating_sub(extra).max(1));
        let a = gaussian(rows, cols, seed);
        let qr = householder_qr(&a);
        assert!(qr.q.matmul(&qr.r).sub(&a).max_abs() < 1e-9);
        assert!(qr.q.is_orthonormal(1e-9));
        for i in 0..cols {
            for j in 0..i {
                assert_eq!(qr.r[(i, j)], 0.0);
            }
        }
    });
}

fn assert_bits_eq(fast: &DenseMatrix, slow: &DenseMatrix, what: &str) {
    assert_eq!((fast.rows(), fast.cols()), (slow.rows(), slow.cols()));
    for (i, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// The row-streaming QR is bit-identical to the column-at-a-time
/// reference on finite input: square and single-column shapes, tall
/// blocks up to the embedder's 400 × 80, duplicated columns, the zero
/// matrix, and columns scaled below `f64::EPSILON` and to ~1e-9 norm —
/// the last two run both skipped-reflector branches.
#[test]
fn qr_matches_reference_bitwise() {
    cases(48, 7, |rng| {
        let shape = rng.below(6);
        let (rows, cols) = match shape {
            0 => {
                let n = rng.range(1..40);
                (n, n)
            }
            1 => (rng.range(1..200), 1),
            5 => (400, 80),
            _ => {
                let cols = rng.range(1..81);
                (cols + rng.below(321), cols)
            }
        };
        let mut a = gaussian(rows, cols, rng.below(10_000) as u64);
        match shape {
            2 if cols >= 2 => {
                // Rank-deficient: duplicate a column.
                let (src, dst) = (rng.below(cols), rng.below(cols));
                for i in 0..rows {
                    a[(i, dst)] = a[(i, src)];
                }
            }
            3 => a = DenseMatrix::zeros(rows, cols),
            4 => {
                // One column with norm ≤ ε (no reflector) and one whose
                // reflector has ‖v‖² ≤ ε (R's diagonal set, v skipped).
                let (c0, c1) = (rng.below(cols), rng.below(cols));
                for i in 0..rows {
                    a[(i, c0)] *= f64::EPSILON * 1e-3;
                    a[(i, c1)] *= 1e-10;
                }
            }
            _ => {}
        }
        let (fast, slow) = (householder_qr(&a), householder_qr_reference(&a));
        assert_bits_eq(&fast.q, &slow.q, "Q");
        assert_bits_eq(&fast.r, &slow.r, "R");
    });
}

/// SVD: reconstruction, orthonormal factors, sorted non-negative
/// spectrum.
#[test]
fn svd_identities() {
    cases(CASES, 2, |rng| {
        let (rows, extra) = (rng.range(1..20), rng.below(12));
        let seed = rng.below(10_000) as u64;
        let cols = (rows.saturating_sub(extra)).max(1);
        let a = gaussian(rows, cols, seed);
        let svd = jacobi_svd(&a);
        assert!(svd.reconstruct().sub(&a).max_abs() < 1e-8);
        assert!(svd.u.is_orthonormal(1e-8));
        assert!(svd.v.is_orthonormal(1e-8));
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    });
}

/// Symmetric eigendecomposition: M·V = V·Λ and trace preservation.
#[test]
fn eig_identities() {
    cases(CASES, 3, |rng| {
        let n = rng.range(1..15);
        let g = gaussian(n, n, rng.below(10_000) as u64);
        let m = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        let e = symmetric_eigen(&m);
        assert!(e.vectors.is_orthonormal(1e-8));
        let mv = m.matmul(&e.vectors);
        for j in 0..n {
            for i in 0..n {
                assert!((mv[(i, j)] - e.values[j] * e.vectors[(i, j)]).abs() < 1e-8);
            }
        }
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    });
}

/// The QL eigensolver against the Jacobi oracle on the symmetric `m`:
/// eigenvalues within `1e-12·max|λ|`, every residual `‖mv − λv‖₂`
/// within `1e-12·‖m‖_F`, `V` orthonormal to `1e-12`, and the |λ|
/// descending order. Eigenvectors are not compared: a repeated
/// eigenvalue's basis and each vector's sign are arbitrary.
fn assert_eigen_close(m: &DenseMatrix, fast: &SymmetricEigen, slow: &SymmetricEigen, what: &str) {
    let n = m.rows();
    assert_eq!(fast.values.len(), slow.values.len());
    let scale = slow.values.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
    let (mut fv, mut sv) = (fast.values.clone(), slow.values.clone());
    fv.sort_by(f64::total_cmp);
    sv.sort_by(f64::total_cmp);
    for (j, (x, y)) in fv.iter().zip(&sv).enumerate() {
        assert!(
            (x - y).abs() <= 1e-12 * scale,
            "{what}: λ[{j}] {x} vs {y} (max |λ| {scale})"
        );
    }
    assert!(
        fast.values.windows(2).all(|w| w[0].abs() >= w[1].abs()),
        "{what}: not ordered by |λ|"
    );
    let norm = m.frobenius_norm();
    let mv = m.matmul(&fast.vectors);
    for j in 0..n {
        let residual = (0..n)
            .map(|i| (mv[(i, j)] - fast.values[j] * fast.vectors[(i, j)]).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            residual <= 1e-12 * norm,
            "{what}: residual {residual:e} of pair {j} (‖M‖_F {norm})"
        );
    }
    assert!(
        fast.vectors.is_orthonormal(1e-12),
        "{what}: V not orthonormal"
    );
}

/// `Q · diag(λ) · Qᵀ` for a random orthonormal `Q`.
fn planted(lambda: &[f64], seed: u64) -> DenseMatrix {
    let n = lambda.len();
    let q = orthonormalize(&gaussian(n, n, seed));
    let mut qd = q.clone();
    for i in 0..n {
        for (j, &l) in lambda.iter().enumerate() {
            qd[(i, j)] *= l;
        }
    }
    qd.matmul(&q.transpose())
}

/// The Rayleigh–Ritz matrix `XᵀSX` of the spectral embedder: `X` is a
/// `block`-column orthonormal basis after `iters` steps of block power
/// iteration on `S = D^{-1/2}AD^{-1/2}`.
fn rayleigh_ritz(g: &CsrGraph, block: usize, iters: usize, seed: u64) -> DenseMatrix {
    let n = g.num_vertices();
    let inv_sqrt: Vec<f64> = (0..n as u32)
        .map(|u| match g.degree(u) {
            0 => 0.0,
            d => 1.0 / (d as f64).sqrt(),
        })
        .collect();
    let apply = |x: &DenseMatrix| {
        DenseMatrix::from_fn(n, block, |u, j| {
            let sum: f64 = g
                .neighbors(u as u32)
                .iter()
                .map(|&v| inv_sqrt[v as usize] * x[(v as usize, j)])
                .sum();
            inv_sqrt[u] * sum
        })
    };
    let mut x = orthonormalize(&gaussian(n, block, seed));
    for _ in 0..iters {
        x = orthonormalize(&apply(&x));
    }
    x.transpose_matmul(&apply(&x))
}

/// The QL eigensolver agrees with the Jacobi reference to tolerance
/// ([`assert_eigen_close`]): random symmetric matrices of size 1–96,
/// repeated eigenvalues, diagonal, zero and rank-1 matrices.
#[test]
fn eig_matches_reference_to_tolerance() {
    cases(40, 8, |rng| {
        let seed = rng.below(10_000) as u64;
        let n = match rng.below(4) {
            0 => rng.range(1..97),
            _ => rng.range(1..25),
        };
        let m = match rng.below(5) {
            0 | 1 => {
                let g = gaussian(n, n, seed);
                DenseMatrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
            }
            2 => {
                // A few distinct values, each repeated.
                let lambda: Vec<f64> = (0..n).map(|i| [3.0, -1.5, 0.25][i % 3]).collect();
                planted(&lambda, seed)
            }
            3 => {
                let u = gaussian(n, 1, seed);
                u.matmul(&u.transpose())
            }
            _ => match rng.below(2) {
                0 => DenseMatrix::zeros(n, n),
                _ => {
                    let d = gaussian(n, 1, seed);
                    DenseMatrix::from_fn(n, n, |i, j| if i == j { d[(i, 0)] } else { 0.0 })
                }
            },
        };
        let fast = symmetric_eigen(&m);
        let slow = symmetric_eigen_reference(&m);
        assert_eigen_close(&m, &fast, &slow, &format!("n = {n}"));
    });
}

/// The same pin on the matrices the pipeline actually solves: the
/// spectral embedder's Rayleigh–Ritz matrices on every generator family.
#[test]
fn eig_matches_reference_on_rayleigh_ritz_matrices() {
    let mut rng = Rng::new(9);
    let graphs = [
        generators::barabasi_albert(240, 4, &mut rng),
        generators::erdos_renyi_gnm(240, 960, &mut rng),
        generators::watts_strogatz(240, 8, 0.1, &mut rng),
        generators::duplication_divergence(240, 0.4, 0.3, &mut rng),
        generators::powerlaw_configuration(240, 960, 2.5, &mut rng),
    ];
    for (k, g) in graphs.iter().enumerate() {
        let t = rayleigh_ritz(g, 48, 20, k as u64);
        let fast = symmetric_eigen(&t);
        let slow = symmetric_eigen_reference(&t);
        assert_eigen_close(&t, &fast, &slow, &format!("family {k}"));
    }
}

/// The eigenvector-started SVD against the identity-started oracle on
/// full-rank Gaussian inputs up to the subspace stage's `d = 64`,
/// square and tall: singular values within `1e-12·σ₀` and the
/// Procrustes factor `U·Vᵀ` within `1e-10`.
#[test]
fn svd_matches_reference_to_tolerance() {
    cases(40, 10, |rng| {
        let n = match rng.below(3) {
            0 => rng.range(1..65),
            _ => rng.range(1..20),
        };
        let m = if rng.below(2) == 0 {
            n
        } else {
            n + rng.below(30)
        };
        let a = gaussian(m, n, rng.below(10_000) as u64);
        let (fast, slow) = (jacobi_svd(&a), jacobi_svd_reference(&a));
        for (j, (x, y)) in fast.sigma.iter().zip(&slow.sigma).enumerate() {
            assert!(
                (x - y).abs() <= 1e-12 * slow.sigma[0],
                "{m} × {n}: σ[{j}] {x} vs {y}"
            );
        }
        let polar = |s: &cualign_linalg::Svd| s.u.matmul(&s.v.transpose());
        let dq = polar(&fast).sub(&polar(&slow)).max_abs();
        assert!(dq <= 1e-10, "{m} × {n}: |ΔUVᵀ| = {dq:e}");
    });
}

/// `orthogonal_procrustes` agrees with the rotation built from the
/// reference SVD of the same cross-covariance to `1e-10`, on noisy
/// rotated pairs of the subspace stage's shape.
#[test]
fn procrustes_matches_reference_svd() {
    cases(24, 11, |rng| {
        let (m, d) = (rng.range(64..200), rng.range(2..65));
        let seed = rng.below(10_000) as u64;
        let x = gaussian(m, d, seed);
        let q_true = orthonormalize(&gaussian(d, d, seed + 1));
        let y = x.matmul(&q_true).add(&gaussian(m, d, seed + 2));
        let q = orthogonal_procrustes(&x, &y);
        let oracle = jacobi_svd_reference(&x.transpose_matmul(&y));
        let dq = q.sub(&oracle.u.matmul(&oracle.v.transpose())).max_abs();
        assert!(dq <= 1e-10, "{m} × {d}: |ΔQ| = {dq:e}");
    });
}

/// Procrustes returns an orthogonal matrix and exactly recovers a
/// planted rotation.
#[test]
fn procrustes_identities() {
    cases(CASES, 4, |rng| {
        let (m, d) = (rng.range(6..30), rng.range(2..6));
        let seed = rng.below(10_000) as u64;
        let x = gaussian(m, d, seed);
        let q_raw = gaussian(d, d, seed + 1);
        let q_true = cualign_linalg::qr::orthonormalize(&q_raw);
        let y = x.matmul(&q_true);
        let q = orthogonal_procrustes(&x, &y);
        assert!(q.is_orthonormal(1e-8));
        assert!(x.matmul(&q).sub(&y).max_abs() < 1e-7);
    });
}

/// Sinkhorn: total mass 1, non-negative entries, marginal violations
/// below tolerance after convergence.
#[test]
fn sinkhorn_is_a_transport_plan() {
    cases(CASES, 5, |rng| {
        let (n, m) = (rng.range(1..8), rng.range(1..8));
        let seed = rng.below(10_000);
        let cost = DenseMatrix::from_fn(n, m, |i, j| {
            // Deterministic pseudo-random non-negative costs.
            let h = (i * 31 + j * 17 + seed) % 101;
            h as f64 / 25.0
        });
        // Note the generous tolerances: Sinkhorn's contraction factor
        // degrades as exp(-cost_range/ε), so for adversarial cost matrices
        // the marginals converge slowly — the property is approximate
        // feasibility, not exactness.
        let tp = sinkhorn(
            &cost,
            &SinkhornOptions {
                epsilon: 0.4,
                max_iters: 5000,
                tolerance: 1e-9,
            },
        );
        assert!(tp.plan.data().iter().all(|&x| x >= 0.0));
        let total: f64 = tp.plan.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "mass {total}");
        for i in 0..n {
            let rs: f64 = tp.plan.row(i).iter().sum();
            assert!((rs - 1.0 / n as f64).abs() < 2e-3, "row {i} sums to {rs}");
        }
    });
}

/// Cosine similarity is bounded, symmetric, and scale-invariant.
#[test]
fn cosine_properties() {
    cases(CASES, 6, |rng| {
        let a: Vec<f64> = (0..rng.range(1..12))
            .map(|_| rng.range_f64(-5.0, 5.0))
            .collect();
        let scale = rng.range_f64(0.1, 10.0);
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let c = vecops::cosine_similarity(&a, &b);
        assert!((-1.0..=1.0).contains(&c));
        assert!((c - vecops::cosine_similarity(&b, &a)).abs() < 1e-12);
        let scaled: Vec<f64> = a.iter().map(|x| x * scale).collect();
        assert!((c - vecops::cosine_similarity(&scaled, &b)).abs() < 1e-9);
    });
}
