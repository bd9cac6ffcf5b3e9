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
//! [`QR_REPS`] runs and asserted bit-identical in-process, plus one
//! default [`cualign_embed::spectral_embedding`] of a BA(`n`, 4) graph:
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
use cualign_linalg::qr::{householder_qr, householder_qr_reference, QrDecomposition};
use cualign_linalg::{sinkhorn, sinkhorn_reference, DenseMatrix};
use cualign_rt::Rng;

const SEED: u64 = 42;

/// Timed repetitions per QR cell; the record keeps the median.
const QR_REPS: usize = 5;

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
    let q0 = cualign_linalg::qr::orthonormalize(&DenseMatrix::gaussian(d, d, &mut rng));
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

fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// Kernel-level agreement on the cell's live operands: cost matrices to
/// 1e-9 absolute, one Sinkhorn plan (final ε of the anneal) to 1e-9.
fn assert_kernels_agree(inst: &Instance, cfg: &SubspaceAlignConfig, anchors: usize, d: usize) {
    let cost = pairwise_cost(&inst.y1, &inst.y2);
    let cost_ref = pairwise_cost_reference(&inst.y1, &inst.y2);
    let dc = max_abs_diff(&cost, &cost_ref);
    assert!(
        dc < 1e-9,
        "cost kernels diverged by {dc:e} at anchors = {anchors}, d = {d}"
    );
    let fast = sinkhorn(&cost, &cfg.sinkhorn);
    let oracle = sinkhorn_reference(&cost_ref, &cfg.sinkhorn);
    let dp = max_abs_diff(&fast.plan, &oracle.plan);
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

/// Median wall-clock of [`QR_REPS`] runs of `qr(a)`, and the last result.
fn time_qr(a: &DenseMatrix, qr: fn(&DenseMatrix) -> QrDecomposition) -> (f64, QrDecomposition) {
    let mut times = Vec::with_capacity(QR_REPS);
    let mut out = None;
    for _ in 0..QR_REPS {
        let t = Instant::now();
        out = Some(qr(a));
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[QR_REPS / 2], out.expect("QR_REPS > 0"))
}

/// One `"bench":"embed"` record: QR against its oracle on the default
/// spectral block at `n` rows, then one default spectral embedding.
fn embed_record(n: usize) -> String {
    let cfg = SpectralConfig::default();
    let block = cfg.dim + cfg.oversample;
    let mut rng = Rng::new(SEED ^ n as u64);
    let a = DenseMatrix::gaussian(n, block, &mut rng);
    let (qr_s, fast) = time_qr(&a, householder_qr);
    let (qr_reference_s, oracle) = time_qr(&a, householder_qr_reference);
    assert!(
        bits_equal(&fast.q, &oracle.q) && bits_equal(&fast.r, &oracle.r),
        "householder_qr diverged bitwise from its reference at {n} × {block}"
    );
    let g = barabasi_albert(n, 4, &mut rng);
    let t = Instant::now();
    let emb = spectral_embedding(&g, &cfg);
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
                let dq = max_abs_diff(&fast.rotation, &oracle.rotation);
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

    let mut f = std::fs::File::create(&out_path).expect("record sink is writable");
    for line in &lines {
        writeln!(f, "{line}").expect("record sink is writable");
    }
    println!("wrote {} records to {out_path}", lines.len());
}
