//! Subspace-alignment hot-path benchmark: the GEMM/scaling-Sinkhorn
//! alternation ([`cualign_embed::align_subspaces`]) against the pinned
//! all-reference path ([`cualign_embed::align_subspaces_reference`]) on
//! planted rotated pairs, sweeping anchors × d. Before timing, each cell
//! asserts kernel-level agreement on the live operands: the GEMM cost
//! matrix against [`cualign_embed::pairwise_cost_reference`] and one
//! scaling-domain Sinkhorn plan against the seed sweep (the end-to-end glue is
//! pinned by `embed/tests/prop_subspace.rs`). The default sink is
//! `BENCH_subspace.json` — one JSONL record per `(anchors, d)` cell,
//! then one `"bench":"embed"` record per vertex count `n` for the front
//! half that feeds the alignment: the row-streaming Householder QR
//! ([`cualign_linalg::qr::householder_qr`]) against its pinned
//! column-at-a-time oracle on an `n × 80` Gaussian block (the default
//! spectral block, `dim + oversample`), each the median of
//! [`REPS`] runs and asserted bit-identical in-process, plus one
//! default [`cualign_embed::spectral_embedding`] of a BA(`n`, 4) graph.
//! A last `"bench":"dense"` record times the two small dense solvers of
//! the front half against their Jacobi oracles, each the median of
//! [`REPS`] runs: [`symmetric_eigen`] on the 80 × 80 Rayleigh–Ritz
//! matrix of a default embedding of BA(400, 4), and [`jacobi_svd`] on a
//! 64 × 64 Procrustes cross-covariance `Xᵀ(X·Q₀ + 0.3·noise)`. It
//! records the largest eigenvalue, eigen-residual, singular value and
//! `U·Vᵀ` deviations and asserts each within its
//! `docs/APPROXIMATION.md` bound before writing:
//!
//! ```text
//! cargo run --release -p cualign-bench --bin bench_subspace
//! ```
//!
//! Knobs: `CUALIGN_BENCH_SUBSPACE_ANCHORS` / `CUALIGN_BENCH_SUBSPACE_DS`
//! (comma-separated grids, defaults `256,768` / `64,128`),
//! `CUALIGN_BENCH_SUBSPACE_ITERS` (alternation rounds, default `8`),
//! `CUALIGN_SUBSPACE_REFERENCE_MAX` (default `768`): above this anchor
//! count the quadratic reference alignment is skipped and the record
//! carries `reference_s: null`. `CUALIGN_BENCH_EMBED_NS` (default
//! `400,4000`) is the embed grid. `CUALIGN_BENCH_SUBSPACE_OUT` overrides
//! the sink path. Every record carries the host provenance of
//! [`JsonRecord::host`]: `host_cores`, `threads`, `peak_rss_mb`, `isa`.

use std::io::Write;
use std::time::Instant;

use cualign_bench::json::JsonRecord;
use cualign_embed::{
    align_subspaces, align_subspaces_reference, pairwise_cost, pairwise_cost_reference,
    spectral_embedding, SpectralConfig, SubspaceAlignConfig,
};
use cualign_graph::generators::barabasi_albert;
use cualign_graph::{CsrGraph, Permutation};
use cualign_linalg::eig::{symmetric_eigen, symmetric_eigen_reference};
use cualign_linalg::qr::{householder_qr, householder_qr_reference, orthonormalize};
use cualign_linalg::svd::{jacobi_svd, jacobi_svd_reference, Svd};
use cualign_linalg::{sinkhorn, sinkhorn_reference, DenseMatrix};
use cualign_rt::Rng;

const SEED: u64 = 42;

/// Timed repetitions per timed kernel; the record keeps the median.
const REPS: usize = 5;

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => v
            .split(',')
            .map(|s| s.trim().parse().expect("grid entries are integers"))
            .collect(),
        _ => default.to_vec(),
    }
}

/// Planted instance: `B = P(A)`, `Y₂` the rows of `Y₁ Q₀` permuted by
/// `P` plus 0.3 σ Gaussian noise — the workload where the alternation
/// has a true rotation to find but the transport plans stay diffuse
/// enough that its Sinkhorn solves see realistic annealing trajectories.
struct Instance {
    ga: CsrGraph,
    gb: CsrGraph,
    y1: DenseMatrix,
    y2: DenseMatrix,
}

fn planted(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    let ga = barabasi_albert(n, 4, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let gb = p.apply_to_graph(&ga);
    let y1 = DenseMatrix::gaussian(n, d, &mut rng);
    let q0 = orthonormalize(&DenseMatrix::gaussian(d, d, &mut rng));
    let rotated = y1.matmul(&q0);
    let noise = DenseMatrix::gaussian(n, d, &mut rng);
    let mut y2 = DenseMatrix::zeros(n, d);
    for i in 0..n {
        let dst = y2.row_mut(p.apply(i as u32) as usize);
        dst.copy_from_slice(rotated.row(i));
        for (v, &e) in dst.iter_mut().zip(noise.row(i)) {
            *v += 0.3 * e;
        }
    }
    Instance { ga, gb, y1, y2 }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Kernel-level agreement on the cell's live operands: cost matrices to
/// 1e-9 absolute, one Sinkhorn plan (final ε of the anneal) to 1e-9.
fn assert_kernels_agree(inst: &Instance, cfg: &SubspaceAlignConfig, anchors: usize, d: usize) {
    let cost = pairwise_cost(&inst.y1, &inst.y2);
    let cost_ref = pairwise_cost_reference(&inst.y1, &inst.y2);
    let dc = max_abs_diff(cost.data(), cost_ref.data());
    assert!(
        dc < 1e-9,
        "cost kernels diverged by {dc:e} at anchors = {anchors}, d = {d}"
    );
    let fast = sinkhorn(&cost, &cfg.sinkhorn);
    let oracle = sinkhorn_reference(&cost_ref, &cfg.sinkhorn);
    let dp = max_abs_diff(fast.plan.data(), oracle.plan.data());
    assert!(
        dp < 1e-9,
        "Sinkhorn plans diverged by {dp:e} at anchors = {anchors}, d = {d}"
    );
}

fn bits_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    (a.rows(), a.cols()) == (b.rows(), b.cols())
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Median wall-clock of [`REPS`] runs of `f`, and the last result.
fn time_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        out = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[REPS / 2], out.expect("REPS > 0"))
}

/// One `"bench":"embed"` record: QR against its oracle on the default
/// spectral block at `n` rows, then one default spectral embedding.
fn embed_record(n: usize) -> String {
    let cfg = SpectralConfig::default();
    let block = cfg.dim + cfg.oversample;
    let mut rng = Rng::new(SEED ^ n as u64);
    let a = DenseMatrix::gaussian(n, block, &mut rng);
    let (qr_s, fast) = time_median(|| householder_qr(&a));
    let (qr_reference_s, oracle) = time_median(|| householder_qr_reference(&a));
    assert!(
        bits_equal(&fast.q, &oracle.q) && bits_equal(&fast.r, &oracle.r),
        "householder_qr diverged bitwise from its reference at {n} × {block}"
    );
    let g = barabasi_albert(n, 4, &mut rng);
    let t = Instant::now();
    let emb = spectral_embedding(&g, &cfg).expect("the default block fits the embed grid");
    let embed_s = t.elapsed().as_secs_f64();
    assert_eq!((emb.rows(), emb.cols()), (n, cfg.dim));
    let speedup = qr_reference_s / qr_s;
    println!(
        "  embed n {n:>6}, block {block}: qr {qr_s:>8.4}s vs reference {qr_reference_s:>8.4}s \
         ({speedup:>4.1}x, bit-identical); spectral embedding {embed_s:>7.3}s"
    );
    JsonRecord::new()
        .str("bench", "embed")
        .int("n", n)
        .int("block", block)
        .host()
        .num("qr_s", qr_s)
        .num("qr_reference_s", qr_reference_s)
        .num("speedup", speedup)
        .num("embed_s", embed_s)
        .str("bit_identical", "yes")
        .finish()
}

/// The Rayleigh–Ritz matrix `XᵀSX` of a default spectral embedding of
/// `g`: `X` is the orthonormal `dim + oversample` block after `iters`
/// QR'd power steps on `S = D^{-1/2}AD^{-1/2}`.
fn rayleigh_ritz_matrix(g: &CsrGraph, cfg: &SpectralConfig, rng: &mut Rng) -> DenseMatrix {
    let n = g.num_vertices();
    let block = cfg.dim + cfg.oversample;
    let inv_sqrt: Vec<f64> = (0..n as u32)
        .map(|u| 1.0 / (g.degree(u).max(1) as f64).sqrt())
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
    let mut x = orthonormalize(&DenseMatrix::gaussian(n, block, rng));
    for _ in 0..cfg.iters {
        x = orthonormalize(&apply(&x));
    }
    x.transpose_matmul(&apply(&x))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `"bench":"dense"` record (module docs).
fn dense_record() -> String {
    let mut rng = Rng::new(SEED);
    let cfg = SpectralConfig::default();
    let g = barabasi_albert(400, 4, &mut rng);
    let t = rayleigh_ritz_matrix(&g, &cfg, &mut rng);
    let n = t.rows();
    let (eig_s, fast) = time_median(|| symmetric_eigen(&t));
    let (eig_reference_s, oracle) = time_median(|| symmetric_eigen_reference(&t));
    let lambda_max = oracle.values.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let dlambda = max_abs_diff(&sorted(&fast.values), &sorted(&oracle.values));
    let tv = t.matmul(&fast.vectors);
    let residual = (0..n)
        .map(|j| {
            (0..n)
                .map(|i| (tv[(i, j)] - fast.values[j] * fast.vectors[(i, j)]).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .fold(0.0, f64::max);
    let t_norm = t.frobenius_norm();
    assert!(
        dlambda <= 1e-12 * lambda_max && residual <= 1e-12 * t_norm,
        "symmetric_eigen off its oracle: |Δλ| {dlambda:e}, residual {residual:e}"
    );

    let d = cfg.dim;
    let x = DenseMatrix::gaussian(400, d, &mut rng);
    let q0 = orthonormalize(&DenseMatrix::gaussian(d, d, &mut rng));
    let mut y = DenseMatrix::gaussian(400, d, &mut rng);
    y.scale(0.3);
    let m = x.transpose_matmul(&x.matmul(&q0).add(&y));
    let (svd_s, fast) = time_median(|| jacobi_svd(&m));
    let (svd_reference_s, oracle) = time_median(|| jacobi_svd_reference(&m));
    let polar = |s: &Svd| s.u.matmul(&s.v.transpose());
    let dsigma = max_abs_diff(&fast.sigma, &oracle.sigma);
    let dq = max_abs_diff(polar(&fast).data(), polar(&oracle).data());
    assert!(
        dsigma <= 1e-12 * oracle.sigma[0] && dq <= 1e-10,
        "jacobi_svd off its oracle: |Δσ| {dsigma:e}, |ΔUVᵀ| {dq:e}"
    );
    println!(
        "  dense: eigen {n}×{n} {eig_s:>8.5}s vs reference {eig_reference_s:>8.5}s \
         (|Δλ| {dlambda:.1e}, residual {residual:.1e}); svd {d}×{d} {svd_s:>8.5}s vs \
         reference {svd_reference_s:>8.5}s (|Δσ| {dsigma:.1e}, |ΔUVᵀ| {dq:.1e})"
    );
    JsonRecord::new()
        .str("bench", "dense")
        .int("eig_n", n)
        .int("svd_n", d)
        .host()
        .num("eig_s", eig_s)
        .num("eig_reference_s", eig_reference_s)
        .num("eig_dlambda_max", dlambda)
        .num("eig_residual_max", residual)
        .num("svd_s", svd_s)
        .num("svd_reference_s", svd_reference_s)
        .num("svd_dsigma_max", dsigma)
        .num("svd_dq_max", dq)
        .str("within_tolerance", "yes")
        .finish()
}

fn main() {
    let anchor_grid = env_list("CUALIGN_BENCH_SUBSPACE_ANCHORS", &[256, 768]);
    let ds = env_list("CUALIGN_BENCH_SUBSPACE_DS", &[64, 128]);
    let iters = cualign_bench::env_u64("CUALIGN_BENCH_SUBSPACE_ITERS", 8) as usize;
    let reference_max = cualign_bench::env_u64("CUALIGN_SUBSPACE_REFERENCE_MAX", 768) as usize;
    let embed_ns = env_list("CUALIGN_BENCH_EMBED_NS", &[400, 4000]);
    let out_path =
        std::env::var("CUALIGN_BENCH_SUBSPACE_OUT").unwrap_or("BENCH_subspace.json".into());

    println!(
        "bench_subspace: anchors grid {anchor_grid:?}, d grid {ds:?}, {iters} rounds \
         (records -> {out_path})"
    );
    let mut lines = Vec::new();
    for &anchors in &anchor_grid {
        for &d in &ds {
            // n = anchors: every vertex is an anchor, so the Sinkhorn
            // problems are exactly anchors × anchors.
            let inst = planted(anchors, d, SEED ^ ((anchors as u64) << 8) ^ d as u64);
            let cfg = SubspaceAlignConfig {
                anchors,
                iterations: iters,
                ..Default::default()
            };
            assert_kernels_agree(&inst, &cfg, anchors, d);

            let t = Instant::now();
            let fast = align_subspaces(&inst.y1, &inst.y2, &inst.ga, &inst.gb, &cfg)
                .expect("planted instance is valid");
            let fast_s = t.elapsed().as_secs_f64();

            let mut rec = JsonRecord::new()
                .str("bench", "subspace")
                .int("anchors", anchors)
                .int("d", d)
                .int("iterations", iters)
                .host()
                .num("fast_s", fast_s)
                .num(
                    "final_round_cost",
                    fast.round_costs.last().copied().unwrap_or(f64::NAN),
                );
            if anchors <= reference_max {
                let t = Instant::now();
                let oracle =
                    align_subspaces_reference(&inst.y1, &inst.y2, &inst.ga, &inst.gb, &cfg)
                        .expect("planted instance is valid");
                let reference_s = t.elapsed().as_secs_f64();
                let dq = max_abs_diff(fast.rotation.data(), oracle.rotation.data());
                rec = rec
                    .num("reference_s", reference_s)
                    .num("speedup", reference_s / fast_s)
                    .num("rotation_dmax", dq)
                    .str("kernels_agree", "yes");
                println!(
                    "  anchors {anchors:>5}, d {d:>4}: fast {fast_s:>8.3}s, reference \
                     {reference_s:>8.3}s, speedup {:>5.1}x, |ΔQ|∞ = {dq:.2e}",
                    reference_s / fast_s
                );
            } else {
                rec = rec
                    .null("reference_s")
                    .null("speedup")
                    .null("rotation_dmax")
                    .str(
                        "kernels_agree",
                        "yes (end-to-end reference skipped above CUALIGN_SUBSPACE_REFERENCE_MAX)",
                    );
                println!(
                    "  anchors {anchors:>5}, d {d:>4}: fast {fast_s:>8.3}s, reference skipped \
                     (anchors > {reference_max})"
                );
            }
            lines.push(rec.finish());
        }
    }
    for &n in &embed_ns {
        lines.push(embed_record(n));
    }
    lines.push(dense_record());

    let mut f = std::fs::File::create(&out_path).expect("record sink is writable");
    for line in &lines {
        writeln!(f, "{line}").expect("record sink is writable");
    }
    println!("wrote {} records to {out_path}", lines.len());
}
