//! Register-blocked, cache-tiled `f64` GEMM micro-kernels.
//!
//! Every hot dense multiply in the pipeline — the kNN similarity sweep,
//! spectral block power iteration, NetMF, subspace/Procrustes — reduces
//! to "rows of a row-major matrix against many columns (or rows) of
//! another". The naive kernels stream one scalar column at a time and
//! re-read the B operand from DRAM once per output row. This module is
//! the shared replacement:
//!
//! * **Packing** ([`pack_cols`] / [`pack_rows`]): the B operand is
//!   repacked once into panels of [`NR`] *lanes* (columns for `A·B`,
//!   rows for `A·Bᵀ`), interleaved k-major, so the micro-kernel's inner
//!   loop reads one contiguous, cache-line-aligned stream regardless of
//!   the original stride.
//! * **Micro-kernel** (`micro4`): a 4×[`NR`] register tile — four A-rows
//!   against one panel — with 16 independent scalar accumulators. The
//!   lane loop is a constant-trip-count loop over a 4-wide array, which
//!   LLVM auto-vectorizes to 256-bit FMAs without `unsafe` or
//!   intrinsics.
//! * **Parallelism**: [`matmul`] splits the *output* rows into
//!   `ROW_BLOCK` (32)-row chunks run by `cualign_rt::par`; chunks are
//!   disjoint, so the result is deterministic under any thread count.
//!
//! **Exactness.** Each output element is accumulated over the full `k`
//! extent *sequentially, in index order* — the tiles block over rows and
//! lanes but never split the reduction dimension. Rust/LLVM do not
//! reassociate `f64` addition (no fast-math), so every element's
//! floating-point chain is bit-identical to the naive
//! `acc += a[p] * b[p]` loop in [`vecops::dot`](crate::vecops::dot) and
//! to the seed [`matmul_naive`] kernel. The property tests in
//! `tests/prop_gemm.rs` pin this equality on random shapes.
//!
//! Telemetry, in the caller's current registry: `linalg.gemm.flops`
//! counts `2·m·n·k` per product and `linalg.gemm.block_seconds`
//! histograms [`matmul`]'s per-chunk wall time. [`dot_block`] runs on
//! parallel helpers and records nothing; its callers add their sweep's
//! flops once per call.

use crate::DenseMatrix;
use cualign_rt::par;
use std::time::Instant;

/// Lanes per packed panel (the register-tile width).
pub const NR: usize = 4;
/// A-rows per micro-tile (the register-tile height).
const MR: usize = 4;
/// Output rows per parallel item in [`matmul`].
const ROW_BLOCK: usize = 32;

/// A matrix operand repacked into [`NR`]-lane, k-major panels.
///
/// Panel `j` interleaves lanes `NR·j .. NR·j + NR`: element `(p, lane)`
/// lives at `panel[p * NR + (lane - NR·j)]`. Lanes beyond the matrix
/// edge are zero-padded; their dot products are computed and discarded,
/// which keeps the micro-kernel branch-free.
pub struct PackedPanels {
    lanes: usize,
    depth: usize,
    data: Vec<f64>,
}

impl PackedPanels {
    /// Number of logical lanes (B-columns or B-rows).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reduction-dimension length shared with the A operand.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Panel `j` as a flat `depth × NR` slice.
    #[inline]
    fn panel(&self, j: usize) -> &[f64] {
        &self.data[j * NR * self.depth..(j + 1) * NR * self.depth]
    }
}

fn pack_with<F: Fn(usize, usize) -> f64 + Sync>(lanes: usize, depth: usize, at: F) -> PackedPanels {
    let panels = lanes.div_ceil(NR).max(1);
    let mut data = vec![0.0; panels * NR * depth];
    if depth == 0 {
        // Zero reduction depth: every dot product is the empty sum, and
        // the panels are zero-sized (a chunk size of 0 would panic).
        return PackedPanels { lanes, depth, data };
    }
    let panels: Vec<&mut [f64]> = data.chunks_mut(NR * depth).collect();
    par::for_each(panels, par::min_len_for(NR * depth), |j, panel| {
        let base = j * NR;
        let live = lanes.saturating_sub(base).min(NR);
        for lane in 0..live {
            for p in 0..depth {
                panel[p * NR + lane] = at(base + lane, p);
            }
        }
    });
    PackedPanels { lanes, depth, data }
}

/// Packs the *rows* of `m` as lanes (`depth = m.cols()`), for
/// `A · mᵀ`-shaped similarity sweeps over row embeddings.
pub fn pack_rows(m: &DenseMatrix) -> PackedPanels {
    pack_with(m.rows(), m.cols(), |lane, p| m[(lane, p)])
}

/// Packs the *columns* of `m` as lanes (`depth = m.rows()`), for
/// ordinary `A · m` products.
pub fn pack_cols(m: &DenseMatrix) -> PackedPanels {
    pack_with(m.cols(), m.rows(), |lane, p| m[(p, lane)])
}

/// One A-row against one panel: `NR` in-order dot-product chains.
#[inline(always)]
fn micro1(a: &[f64], panel: &[f64]) -> [f64; NR] {
    let mut acc = [0.0f64; NR];
    for (&v, b) in a.iter().zip(panel.chunks_exact(NR)) {
        for c in 0..NR {
            acc[c] += v * b[c];
        }
    }
    acc
}

/// The 4×`NR` register tile: four A-rows against one panel, 16
/// independent accumulator chains, each strictly in `p` order.
#[inline(always)]
fn micro4(a0: &[f64], a1: &[f64], a2: &[f64], a3: &[f64], panel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    let iter = a0
        .iter()
        .zip(a1)
        .zip(a2)
        .zip(a3)
        .zip(panel.chunks_exact(NR));
    for ((((&v0, &v1), &v2), &v3), b) in iter {
        for c in 0..NR {
            acc[0][c] += v0 * b[c];
            acc[1][c] += v1 * b[c];
            acc[2][c] += v2 * b[c];
            acc[3][c] += v3 * b[c];
        }
    }
    acc
}

/// Writes the dot products of query rows `q0..q1` against packed lanes
/// `t0..t1` into `dest`: row `q - q0` starts at `(q - q0) * stride` and
/// holds `t1 - t0` values. `t0` must be panel-aligned (`NR`-multiple).
#[allow(clippy::too_many_arguments)]
fn block_into(
    queries: &DenseMatrix,
    q0: usize,
    q1: usize,
    packed: &PackedPanels,
    t0: usize,
    t1: usize,
    dest: &mut [f64],
    stride: usize,
) {
    debug_assert_eq!(queries.cols(), packed.depth, "reduction depth mismatch");
    debug_assert_eq!(t0 % NR, 0, "tile start must be panel-aligned");
    let mut q = q0;
    while q + MR <= q1 {
        let (r0, r1, r2, r3) = (
            queries.row(q),
            queries.row(q + 1),
            queries.row(q + 2),
            queries.row(q + 3),
        );
        let mut t = t0;
        while t < t1 {
            let acc = micro4(r0, r1, r2, r3, packed.panel(t / NR));
            let w = (t1 - t).min(NR);
            for (r, lane) in acc.iter().enumerate() {
                let base = (q - q0 + r) * stride + (t - t0);
                dest[base..base + w].copy_from_slice(&lane[..w]);
            }
            t += NR;
        }
        q += MR;
    }
    while q < q1 {
        let row = queries.row(q);
        let mut t = t0;
        while t < t1 {
            let lane = micro1(row, packed.panel(t / NR));
            let w = (t1 - t).min(NR);
            let base = (q - q0) * stride + (t - t0);
            dest[base..base + w].copy_from_slice(&lane[..w]);
            t += NR;
        }
        q += 1;
    }
}

/// Dot-product tile for similarity sweeps: `out[(q - q0)·(t1 - t0) + (t
/// - t0)] = queries.row(q) · lane t`. Rows are full-`depth` in-order
/// chains, bit-identical to [`vecops::dot`](crate::vecops::dot). `t0`
/// must be a multiple of [`NR`].
///
/// # Panics
/// Panics on depth mismatch, unaligned `t0`, or an undersized `out`.
pub fn dot_block(
    queries: &DenseMatrix,
    q0: usize,
    q1: usize,
    packed: &PackedPanels,
    t0: usize,
    t1: usize,
    out: &mut [f64],
) {
    assert_eq!(queries.cols(), packed.depth, "reduction depth mismatch");
    assert_eq!(t0 % NR, 0, "tile start must be panel-aligned");
    assert!(t1 <= packed.lanes, "tile end past packed lanes");
    assert!(out.len() >= (q1 - q0) * (t1 - t0), "output tile too small");
    block_into(queries, q0, q1, packed, t0, t1, out, t1 - t0);
}

/// Cache-tiled `a · b`, parallel over `ROW_BLOCK` (32)-row output chunks.
/// Bit-identical to [`matmul_naive`] on finite inputs (see module docs).
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let reg = cualign_telemetry::current();
    reg.counter("linalg.gemm.flops").add(2 * (m * n * k) as u64);
    if m == 0 || n == 0 {
        return DenseMatrix::zeros(m, n);
    }
    let packed = pack_cols(b);
    let mut out = vec![0.0; m * n];
    let block_seconds = reg.histogram("linalg.gemm.block_seconds");
    let blocks: Vec<&mut [f64]> = out.chunks_mut(n * ROW_BLOCK).collect();
    par::for_each(blocks, par::min_len_for(ROW_BLOCK * n * k), |ci, chunk| {
        let started = Instant::now();
        let i0 = ci * ROW_BLOCK;
        let rows = chunk.len() / n;
        block_into(a, i0, i0 + rows, &packed, 0, n, chunk, n);
        block_seconds.record(started.elapsed().as_secs_f64());
    });
    DenseMatrix::from_vec(m, n, out)
}

/// `aᵀ · b` without materializing the transpose, register-blocked over
/// four input rows at a time. Each output element accumulates its
/// `i`-indexed terms strictly in order, so the result is bit-identical
/// to `matmul(&a.transpose(), &b)` (pinned in `tests/prop_gemm.rs`).
///
/// Stays serial: both output dimensions are embedding dimensions
/// (small); the long `m` extent streams through once.
///
/// # Panics
/// Panics on row-count mismatch.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "row mismatch in AᵀB");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    cualign_telemetry::current()
        .counter("linalg.gemm.flops")
        .add(2 * (m * n * k) as u64);
    let mut out = vec![0.0; k * n];
    let mut i = 0;
    while i + MR <= m {
        let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        let (b0, b1, b2, b3) = (b.row(i), b.row(i + 1), b.row(i + 2), b.row(i + 3));
        for p in 0..k {
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            let orow = &mut out[p * n..(p + 1) * n];
            let lanes = orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3);
            for ((((o, &y0), &y1), &y2), &y3) in lanes {
                let mut v = *o;
                v += x0 * y0;
                v += x1 * y1;
                v += x2 * y2;
                v += x3 * y3;
                *o = v;
            }
        }
        i += MR;
    }
    while i < m {
        let arow = a.row(i);
        let brow = b.row(i);
        for (p, &x) in arow.iter().enumerate() {
            let orow = &mut out[p * n..(p + 1) * n];
            for (o, &y) in orow.iter_mut().zip(brow) {
                *o += x * y;
            }
        }
        i += 1;
    }
    DenseMatrix::from_vec(k, n, out)
}

/// The seed kernel: parallel over output rows, scalar column-at-a-time
/// inner loop. Kept as the reference for the tiled-vs-naive property
/// tests and the `bench_knn` speedup baseline.
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0; m * n];
    if m == 0 || n == 0 {
        return DenseMatrix::zeros(m, n);
    }
    let rows: Vec<&mut [f64]> = out.chunks_mut(n).collect();
    par::for_each(rows, par::min_len_for(n * k), |i, orow| {
        let arow = a.row(i);
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b.data()[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    });
    DenseMatrix::from_vec(m, n, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use cualign_rt::Rng;

    #[test]
    fn tiled_matches_naive_small() {
        let mut rng = Rng::new(1);
        let a = DenseMatrix::gaussian(7, 5, &mut rng);
        let b = DenseMatrix::gaussian(5, 9, &mut rng);
        assert_eq!(matmul(&a, &b).data(), matmul_naive(&a, &b).data());
    }

    #[test]
    fn dot_block_matches_vecops_dot() {
        let mut rng = Rng::new(2);
        let q = DenseMatrix::gaussian(6, 11, &mut rng);
        let t = DenseMatrix::gaussian(10, 11, &mut rng);
        let packed = pack_rows(&t);
        let mut tile = vec![0.0; 6 * 10];
        dot_block(&q, 0, 6, &packed, 0, 10, &mut tile);
        for qi in 0..6 {
            for ti in 0..10 {
                let expect = vecops::dot(q.row(qi), t.row(ti));
                assert_eq!(tile[qi * 10 + ti], expect, "({qi},{ti})");
            }
        }
    }

    #[test]
    fn dot_block_handles_offset_tiles() {
        let mut rng = Rng::new(3);
        let q = DenseMatrix::gaussian(5, 8, &mut rng);
        let t = DenseMatrix::gaussian(13, 8, &mut rng);
        let packed = pack_rows(&t);
        let (t0, t1) = (8, 13); // unaligned upper edge, aligned start
        let mut tile = vec![0.0; 5 * (t1 - t0)];
        dot_block(&q, 1, 5, &packed, t0, t1, &mut tile);
        for qi in 0..4 {
            for ti in 0..(t1 - t0) {
                let expect = vecops::dot(q.row(1 + qi), t.row(t0 + ti));
                assert_eq!(tile[qi * (t1 - t0) + ti], expect);
            }
        }
    }

    #[test]
    fn matmul_tn_matches_transposed_tiled() {
        let mut rng = Rng::new(4);
        let a = DenseMatrix::gaussian(13, 6, &mut rng);
        let b = DenseMatrix::gaussian(13, 7, &mut rng);
        let via_transpose = matmul(&a.transpose(), &b);
        assert_eq!(matmul_tn(&a, &b).data(), via_transpose.data());
    }

    #[test]
    fn degenerate_shapes() {
        let a = DenseMatrix::zeros(3, 0);
        let b = DenseMatrix::zeros(0, 4);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (3, 4));
        assert!(c.data().iter().all(|&x| x == 0.0));
        let e = matmul(&DenseMatrix::zeros(0, 2), &DenseMatrix::zeros(2, 3));
        assert_eq!((e.rows(), e.cols()), (0, 3));
    }
}
