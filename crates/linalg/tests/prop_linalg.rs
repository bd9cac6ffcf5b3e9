//! Property-based tests for the linear algebra kernels: factorization
//! identities on random matrices of random shapes.

use cualign_graph::{generators, CsrGraph};
use cualign_linalg::eig::{symmetric_eigen, symmetric_eigen_reference, SymmetricEigen};
use cualign_linalg::qr::{householder_qr, householder_qr_reference, orthonormalize};
use cualign_linalg::sinkhorn::{sinkhorn, SinkhornOptions};
use cualign_linalg::svd::jacobi_svd;
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

fn assert_eigen_bits_eq(fast: &SymmetricEigen, slow: &SymmetricEigen, what: &str) {
    assert_eq!(fast.values.len(), slow.values.len());
    for (j, (x, y)) in fast.values.iter().zip(&slow.values).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} λ[{j}]: {x} vs {y}");
    }
    assert_bits_eq(&fast.vectors, &slow.vectors, what);
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

/// The early-exit Jacobi eigensolver is bit-identical to the full-budget
/// reference: random symmetric matrices of size 1–96, repeated
/// eigenvalues, diagonal, zero and rank-1 matrices.
#[test]
fn eig_matches_reference_bitwise() {
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
        assert_eigen_bits_eq(&fast, &slow, &format!("n = {n}"));
        assert!(fast.sweeps <= slow.sweeps);
    });
}

/// The same pin on the matrices the pipeline actually solves: the
/// spectral embedder's Rayleigh–Ritz matrices on every generator family.
/// There the norm test never ends the reference early, and the fast path
/// must stop well short of the 60-sweep budget.
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
        assert_eigen_bits_eq(&fast, &slow, &format!("family {k}"));
        assert_eq!(slow.sweeps, 60, "family {k}: the norm test is never met");
        assert!(fast.sweeps < 60, "family {k}: {} sweeps", fast.sweeps);
    }
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
