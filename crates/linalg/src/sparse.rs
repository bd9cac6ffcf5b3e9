//! GraphBLAST-style sparse kernels with merge-based row balancing.
//!
//! The BP sweep runs over a CSR whose *pattern* is fixed and whose
//! *values* change every sweep (the paper's Listing 1). Following
//! GraphBLAST's case for a minimal operator set (PAPERS.md), this module
//! holds exactly the kernels the sweep composes, and nothing else:
//!
//! * [`MergePlan`] — merge-path work partitioning: the flat nonzero
//!   range is cut into equal-nnz chunks so a skewed degree distribution
//!   cannot serialize a sweep on one hot row,
//! * [`paired_update_reduce`] — two value arrays updated in place per
//!   nonzero from the row's and the column's scalar, fused with a row
//!   sum of the updated values (BP's one pass over `S`: `Sᵖ`, its
//!   transpose and the next `dᶜ`),
//! * [`exclusion_max`] — grouped othermax, and [`exclusion_max_apply`],
//!   othermax fused with a two-output epilogue.
//!
//! The two epilogue kernels ([`paired_update_reduce`],
//! [`exclusion_max_apply`]) also fold a caller-chosen [`Monoid`]
//! alongside their writes, so a statistic of the values they produce
//! (BP's residual and clamp counts) costs no extra pass over the arrays.
//!
//! # Exactness contract
//!
//! Every kernel here is **bitwise identical** to a `*_reference`
//! oracle (pinned in `docs/oracle_manifest.txt`, property-tested in
//! `tests/prop_sparse.rs`); [`exclusion_max_apply`] shares
//! [`exclusion_max`]'s. f64 addition is not associative, so the
//! merge chunks are never allowed to combine partial sums: each output
//! row's value is always the one sequential left-to-right chain over
//! that row's nonzeros, starting from `0.0`, exactly as the naive loop
//! computes it. Side reductions are exempt only because a [`Monoid`]'s
//! combine is associative and commutative by contract.
//!
//! Two mechanisms keep that true under parallel execution:
//!
//! 1. **Row ownership.** A row is *owned* by the chunk containing its
//!    first nonzero's flat index. The grouped kernels ([`exclusion_max`],
//!    [`exclusion_max_apply`]) have the owner walk the whole group —
//!    reading past its chunk boundary is safe — so a group's selection
//!    never splits.
//! 2. **Straddle fixup.** [`paired_update_reduce`] also *writes* the
//!    values it sums, and a row straddling a chunk boundary has its
//!    segments written by different chunks. The parallel pass reduces
//!    only rows fully contained in their owner's chunk; the few straddle
//!    rows (at most one per interior boundary, recorded in the plan) are
//!    re-summed serially afterwards from the final values — the same
//!    left-to-right chain over the same bits.
//!
//! Load balance: per-chunk work is `chunk_nnz` plus at most one
//! partial row, so a single hot row costs its owner one row-length
//! reduction (inherent: the chain is sequential by contract) while all
//! other chunks stay busy on the rest of the matrix.

use cualign_rt::par;

/// Default minimum nonzeros per merge chunk — below this, task
/// scheduling overhead beats any balancing win.
const MIN_CHUNK_NNZ: usize = 4096;

/// Chunks-per-thread target used by [`MergePlan::new`]; >1 so chunks of
/// unequal cost (partial rows, cache effects) still level out.
const CHUNKS_PER_THREAD: usize = 8;

/// A side reduction folded by the epilogue kernels: each merge chunk
/// starts from `Default::default()` (the identity) and the per-chunk
/// results are combined. `combine` must be associative and commutative
/// — max and integer counts qualify, float sums do not — so the result
/// does not depend on how the plan cuts the work, and matches the
/// single sequential fold of the `*_reference` oracles.
pub trait Monoid: Default + Send {
    /// Merges two partial results.
    fn combine(self, other: Self) -> Self;
}

/// One equal-nnz work chunk of a [`MergePlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeChunk {
    /// First flat nonzero index of the chunk.
    pub begin: usize,
    /// One past the last flat nonzero index.
    pub end: usize,
    /// The row containing flat index `begin` (the last row whose start
    /// offset is ≤ `begin`; empty rows at the boundary are skipped).
    pub head_row: usize,
    /// First row *owned* by this chunk (first row whose start offset
    /// falls in `[begin, end)`).
    pub first_owned: usize,
    /// Number of owned rows. The last chunk also owns any trailing
    /// empty rows. Ownership partitions the row set across chunks.
    pub owned_rows: usize,
}

impl MergeChunk {
    /// Length of the flat nonzero span covered by this chunk's owned
    /// rows (`[offsets[first_owned], offsets[first_owned + owned_rows])`).
    /// Owned spans tile `[0, nnz)` across the plan's chunks.
    #[inline]
    pub fn owned_span_len(&self, offsets: &[usize]) -> usize {
        offsets[self.first_owned + self.owned_rows] - offsets[self.first_owned]
    }
}

/// Merge-path partition of a CSR's flat nonzero range into equal-nnz
/// chunks, precomputed once per (pattern, sweep-loop) pairing so the
/// per-sweep kernels allocate nothing proportional to the problem.
#[derive(Clone, Debug)]
pub struct MergePlan {
    chunks: Vec<MergeChunk>,
    /// Rows split across a chunk boundary, ascending, deduplicated.
    straddle: Vec<usize>,
    num_rows: usize,
    nnz: usize,
}

impl MergePlan {
    /// Builds a plan with a chunk size derived from the executor's
    /// thread count ([`par::threads`]): eight chunks per thread, at
    /// least 4096 nonzeros per chunk.
    ///
    /// # Panics
    /// Panics if `offsets` is not a valid CSR offset array.
    pub fn new(offsets: &[usize]) -> Self {
        let nnz = offsets.last().copied().unwrap_or(0);
        let target = (par::threads() * CHUNKS_PER_THREAD).max(1);
        let chunk = nnz.div_ceil(target).max(MIN_CHUNK_NNZ);
        Self::with_chunk_nnz(offsets, chunk)
    }

    /// Builds a plan with an explicit chunk size (exposed for tests and
    /// for the GPU cost model, which charges per merge chunk).
    ///
    /// # Panics
    /// Panics if `offsets` is not a valid CSR offset array or
    /// `chunk_nnz == 0`.
    pub fn with_chunk_nnz(offsets: &[usize], chunk_nnz: usize) -> Self {
        assert!(!offsets.is_empty(), "offsets must have ≥ 1 entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert!(chunk_nnz > 0, "chunk_nnz must be positive");
        let num_rows = offsets.len() - 1;
        let nnz = offsets[num_rows];
        // Row start offsets — the ownership search domain.
        let starts = &offsets[..num_rows];

        if nnz == 0 {
            return MergePlan {
                chunks: vec![MergeChunk {
                    begin: 0,
                    end: 0,
                    head_row: 0,
                    first_owned: 0,
                    owned_rows: num_rows,
                }],
                straddle: Vec::new(),
                num_rows,
                nnz,
            };
        }

        let n_chunks = nnz.div_ceil(chunk_nnz);
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut straddle = Vec::new();
        for ci in 0..n_chunks {
            let begin = ci * chunk_nnz;
            let end = ((ci + 1) * chunk_nnz).min(nnz);
            // Last row with start ≤ begin; offsets[0] = 0 ≤ begin keeps
            // the subtraction safe, and `partition_point` guarantees
            // offsets[head_row + 1] > begin.
            let head_row = offsets.partition_point(|&o| o <= begin) - 1;
            let first_owned = starts.partition_point(|&o| o < begin);
            let owned_end = if ci == n_chunks - 1 {
                // Trailing empty rows (start == nnz) go to the last chunk.
                num_rows
            } else {
                starts.partition_point(|&o| o < end)
            };
            chunks.push(MergeChunk {
                begin,
                end,
                head_row,
                first_owned,
                owned_rows: owned_end - first_owned,
            });
            if ci > 0 && offsets[head_row] < begin {
                // `begin` falls strictly inside head_row: that row is
                // split across the boundary. A hot row spanning many
                // chunks shows up once (dedup by the ascending walk).
                if straddle.last() != Some(&head_row) {
                    straddle.push(head_row);
                }
            }
        }
        MergePlan {
            chunks,
            straddle,
            num_rows,
            nnz,
        }
    }

    /// The work chunks, in flat-index order.
    #[inline]
    pub fn chunks(&self) -> &[MergeChunk] {
        &self.chunks
    }

    /// Rows split across chunk boundaries (ascending, deduplicated) —
    /// the rows [`paired_update_reduce`] re-sums serially after its
    /// parallel pass.
    #[inline]
    pub fn straddle_rows(&self) -> &[usize] {
        &self.straddle
    }

    /// The `min_len` of parallel loops over [`chunks`](Self::chunks):
    /// enough chunks that one thread's run pays for its spawn, counting
    /// a nonzero as four element operations (a gather, a few flops, a
    /// compare).
    pub fn min_run_chunks(&self) -> usize {
        par::min_len_for(4 * self.nnz.div_ceil(self.chunks.len()))
    }

    /// Number of rows of the planned pattern.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of nonzeros of the planned pattern.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Asserts the plan was built for a pattern with these offsets.
    #[inline]
    fn check_shape(&self, offsets: &[usize]) {
        assert_eq!(
            self.num_rows,
            offsets.len() - 1,
            "plan/pattern row mismatch"
        );
        assert_eq!(
            self.nnz,
            offsets[offsets.len() - 1],
            "plan/pattern nnz mismatch"
        );
    }
}

/// Splits `data` into consecutive mutable parts of the given lengths.
/// The lengths must sum to `data.len()`.
fn split_by_lens<'v, T>(
    mut data: &'v mut [T],
    lens: impl Iterator<Item = usize>,
) -> Vec<&'v mut [T]> {
    let out: Vec<&'v mut [T]> = lens
        .map(|len| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(len);
            data = tail;
            head
        })
        .collect();
    assert!(data.is_empty(), "split lengths must cover the slice");
    out
}

/// Per-owned-row mutable output parts: chunk `i` gets
/// `y[first_owned_i .. first_owned_i + owned_rows_i]`.
fn split_owned_rows<'v, T>(plan: &MergePlan, y: &'v mut [T]) -> Vec<&'v mut [T]> {
    split_by_lens(y, plan.chunks.iter().map(|c| c.owned_rows))
}

/// Per-chunk flat mutable output parts: chunk `i` gets
/// `vals[begin_i .. end_i]`.
fn split_chunk_flat<'v, T>(plan: &MergePlan, vals: &'v mut [T]) -> Vec<&'v mut [T]> {
    split_by_lens(vals, plan.chunks.iter().map(|c| c.end - c.begin))
}

/// Per-owned-span flat mutable output parts: chunk `i` gets the flat
/// span covered by its owned rows (row-aligned, tiles `[0, nnz)`).
fn split_owned_spans<'v, T>(
    plan: &MergePlan,
    offsets: &[usize],
    vals: &'v mut [T],
) -> Vec<&'v mut [T]> {
    split_by_lens(vals, plan.chunks.iter().map(|c| c.owned_span_len(offsets)))
}

/// Paired in-place update with a row reduce — the shape of BP's one
/// streaming pass over `S`, which carries `Sᵖ` and its transpose side
/// by side. For every nonzero `j` at `(r, c)` (`c = cols[j]`), in row
/// order:
///
/// 1. `update(x[r], x[c], &mut a[j], &mut b[j], acc)` rewrites both
///    values in place (`acc` is the calling chunk's [`Monoid`]
///    accumulator; the combined result is returned);
/// 2. row `r`'s sum takes `term(b[j])` of the value just written.
///
/// `y[r] = init(r) + Σ_j term(b[j])`, the sequential left-to-right
/// chain from `0.0`. Parallel pass: each chunk updates its flat
/// `[begin, end)` segment and reduces the rows fully contained in it;
/// rows straddling a boundary are re-summed serially afterwards from
/// the final `b` — same values, same order, so the result matches
/// [`paired_update_reduce_reference`] bitwise.
///
/// # Panics
/// Panics on dimension mismatches, or if a column index is out of
/// range of `x`.
#[allow(clippy::too_many_arguments)]
pub fn paired_update_reduce<A: Monoid>(
    offsets: &[usize],
    cols: &[u32],
    plan: &MergePlan,
    x: &[f64],
    update: impl Fn(f64, f64, &mut f64, &mut f64, &mut A) + Sync,
    term: impl Fn(f64) -> f64 + Sync,
    init: impl Fn(usize) -> f64 + Sync,
    a: &mut [f64],
    b: &mut [f64],
    y: &mut [f64],
) -> A {
    plan.check_shape(offsets);
    assert_eq!(cols.len(), plan.nnz(), "cols length mismatch");
    assert_eq!(a.len(), plan.nnz(), "a length mismatch");
    assert_eq!(b.len(), plan.nnz(), "b length mismatch");
    assert_eq!(x.len(), plan.num_rows(), "x length mismatch");
    assert_eq!(y.len(), plan.num_rows(), "output length mismatch");
    let parts: Vec<_> = split_chunk_flat(plan, a)
        .into_iter()
        .zip(split_chunk_flat(plan, b))
        .zip(split_owned_rows(plan, y))
        .collect();
    let acc = par::map_reduce(
        parts,
        plan.min_run_chunks(),
        |ci, ((ac, bc), yc)| {
            let c = &plan.chunks[ci];
            paired_chunk(offsets, cols, c, x, &update, &term, &init, ac, bc, yc)
        },
        A::combine,
    )
    .unwrap_or_default();
    // Straddle fixup: the sequential chain over the final values.
    for &r in plan.straddle_rows() {
        let mut sum = 0.0;
        for &v in &b[offsets[r]..offsets[r + 1]] {
            sum += term(v);
        }
        y[r] = init(r) + sum;
    }
    acc
}

/// One chunk of [`paired_update_reduce`]. A function of its own so the
/// outputs are `&mut` parameters: their no-alias guarantee lets the
/// compiler keep the closures' captures in registers instead of
/// reloading them after every store.
#[allow(clippy::too_many_arguments)]
#[inline]
fn paired_chunk<A: Monoid>(
    offsets: &[usize],
    cols: &[u32],
    c: &MergeChunk,
    x: &[f64],
    update: &impl Fn(f64, f64, &mut f64, &mut f64, &mut A),
    term: &impl Fn(f64) -> f64,
    init: &impl Fn(usize) -> f64,
    a: &mut [f64],
    b: &mut [f64],
    y: &mut [f64],
) -> A {
    let mut acc = A::default();
    // Head segment: the tail of a row owned by an earlier chunk (or a
    // hot row this chunk merely passes through) — all of it in
    // `head_row`. Values only; the owner or the fixup reduces.
    let own_start = if c.owned_rows == 0 {
        c.end
    } else {
        offsets[c.first_owned]
    };
    let head_len = own_start.min(c.end) - c.begin;
    if head_len > 0 {
        let xr = x[c.head_row];
        let vals = a[..head_len].iter_mut().zip(&mut b[..head_len]);
        for (&col, (av, bv)) in cols[c.begin..c.begin + head_len].iter().zip(vals) {
            update(xr, x[col as usize], av, bv, &mut acc);
        }
    }
    for (i, yv) in y.iter_mut().enumerate() {
        let r = c.first_owned + i;
        let (rs, re) = (offsets[r], offsets[r + 1].min(c.end));
        let xr = x[r];
        let span = rs - c.begin..re - c.begin;
        let vals = a[span.clone()].iter_mut().zip(&mut b[span]);
        let row_cols = cols[rs..re].iter();
        if re == offsets[r + 1] {
            // Fully contained: fuse the update with the reduce.
            let mut sum = 0.0;
            for (&col, (av, bv)) in row_cols.zip(vals) {
                update(xr, x[col as usize], av, bv, &mut acc);
                sum += term(*bv);
            }
            *yv = init(r) + sum;
        } else {
            // Owner of a straddle row: update our segment, leave the
            // reduction to the serial fixup.
            for (&col, (av, bv)) in row_cols.zip(vals) {
                update(xr, x[col as usize], av, bv, &mut acc);
            }
        }
    }
    acc
}

/// Serial oracle for [`paired_update_reduce`]: one accumulator folded
/// in flat order.
///
/// # Panics
/// Panics on dimension mismatches.
#[allow(clippy::too_many_arguments)]
pub fn paired_update_reduce_reference<A: Monoid>(
    offsets: &[usize],
    cols: &[u32],
    x: &[f64],
    update: impl Fn(f64, f64, &mut f64, &mut f64, &mut A),
    term: impl Fn(f64) -> f64,
    init: impl Fn(usize) -> f64,
    a: &mut [f64],
    b: &mut [f64],
    y: &mut [f64],
) -> A {
    let nnz = offsets[offsets.len() - 1];
    assert_eq!(cols.len(), nnz, "cols length mismatch");
    assert_eq!(a.len(), nnz, "a length mismatch");
    assert_eq!(b.len(), nnz, "b length mismatch");
    assert_eq!(x.len(), offsets.len() - 1, "x length mismatch");
    assert_eq!(y.len(), offsets.len() - 1, "output length mismatch");
    let mut acc = A::default();
    for (r, yv) in y.iter_mut().enumerate() {
        let mut sum = 0.0;
        for j in offsets[r]..offsets[r + 1] {
            update(x[r], x[cols[j] as usize], &mut a[j], &mut b[j], &mut acc);
            sum += term(b[j]);
        }
        *yv = init(r) + sum;
    }
    acc
}

/// Grouped exclusion-max (BP's `othermax`): positions are grouped by
/// `offsets` (a side-CSR of the bipartite graph), each position `p`
/// carries value `values[ids[p]]`, and `out[p]` becomes the maximum
/// over the *other* positions of its group — the runner-up for the
/// first argmax, `0.0` for singleton groups. Pure max selection, no FP
/// arithmetic, so parallel and reference agree bitwise by construction;
/// groups are owned whole by the chunk owning their start.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn exclusion_max(
    offsets: &[usize],
    plan: &MergePlan,
    ids: &[u32],
    values: &[f64],
    out: &mut [f64],
) {
    plan.check_shape(offsets);
    assert_eq!(ids.len(), plan.nnz(), "ids length mismatch");
    assert_eq!(out.len(), plan.nnz(), "output length mismatch");
    let parts = split_owned_spans(plan, offsets, out);
    par::for_each(parts, plan.min_run_chunks(), |ci, oc| {
        let c = &plan.chunks[ci];
        let base = offsets[c.first_owned];
        for i in 0..c.owned_rows {
            let g = c.first_owned + i;
            let (gs, ge) = (offsets[g], offsets[g + 1]);
            let outs = oc[gs - base..ge - base].iter_mut();
            for (o, om) in outs.zip(exclusions(&ids[gs..ge], values)) {
                *o = om;
            }
        }
    });
}

/// Fused exclusion-max + positional epilogue: like [`exclusion_max`],
/// but instead of materializing the exclusion values it hands each one
/// to `apply` together with mutable references to the same position of
/// two output arrays — the shape of BP's A-side sweep tail, where
/// `zᶜ = dᶜ − om` and the damped `zᵖ` update consume the exclusion
/// value in place, skipping the scratch round-trip entirely.
///
/// `apply(p, om, o1, o2, acc)` runs once per position `p`
/// (left-to-right within each group; groups are owned whole by their
/// chunk), with `om` carrying the identical bits [`exclusion_max`]
/// would have written at `p` — including the `0.0` of singleton groups
/// — and `acc` the chunk's [`Monoid`] accumulator; the combined result
/// is returned. Its oracle is the unfused route: materialize with
/// [`exclusion_max_reference`], then call `apply` in one serial loop in
/// position order. The two agree bitwise: the max selection does no FP
/// arithmetic, and `apply` sees the same `(p, om)` pairs in both.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn exclusion_max_apply<A: Monoid>(
    offsets: &[usize],
    plan: &MergePlan,
    ids: &[u32],
    values: &[f64],
    apply: impl Fn(usize, f64, &mut f64, &mut f64, &mut A) + Sync,
    out1: &mut [f64],
    out2: &mut [f64],
) -> A {
    plan.check_shape(offsets);
    assert_eq!(ids.len(), plan.nnz(), "ids length mismatch");
    assert_eq!(out1.len(), plan.nnz(), "out1 length mismatch");
    assert_eq!(out2.len(), plan.nnz(), "out2 length mismatch");
    let parts: Vec<(&mut [f64], &mut [f64])> = split_owned_spans(plan, offsets, out1)
        .into_iter()
        .zip(split_owned_spans(plan, offsets, out2))
        .collect();
    par::map_reduce(
        parts,
        plan.min_run_chunks(),
        |ci, (oc1, oc2)| {
            let c = &plan.chunks[ci];
            let mut acc = A::default();
            let base = offsets[c.first_owned];
            for i in 0..c.owned_rows {
                let g = c.first_owned + i;
                let (gs, ge) = (offsets[g], offsets[g + 1]);
                let outs = oc1[gs - base..ge - base]
                    .iter_mut()
                    .zip(&mut oc2[gs - base..ge - base]);
                for ((p, (o1, o2)), om) in (gs..).zip(outs).zip(exclusions(&ids[gs..ge], values)) {
                    apply(p, om, o1, o2, &mut acc);
                }
            }
            acc
        },
        A::combine,
    )
    .unwrap_or_default()
}

/// Serial oracle for [`exclusion_max`], and through it for
/// [`exclusion_max_apply`].
///
/// # Panics
/// Panics on dimension mismatches.
pub fn exclusion_max_reference(offsets: &[usize], ids: &[u32], values: &[f64], out: &mut [f64]) {
    assert_eq!(
        out.len(),
        offsets[offsets.len() - 1],
        "output length mismatch"
    );
    assert_eq!(ids.len(), out.len(), "ids length mismatch");
    for g in 0..offsets.len() - 1 {
        let (gs, ge) = (offsets[g], offsets[g + 1]);
        for (o, om) in out[gs..ge].iter_mut().zip(exclusions(&ids[gs..ge], values)) {
            *o = om;
        }
    }
}

/// The exclusion values of one group, position by position: the
/// group's maximum everywhere except at its first argmax, which gets
/// the runner-up (first-argmax / runner-up semantics matching the BP
/// reference implementation; `0.0` for a singleton group).
#[inline]
fn exclusions(ids: &[u32], values: &[f64]) -> impl Iterator<Item = f64> {
    let mut max1 = f64::NEG_INFINITY;
    let mut pos1 = 0usize;
    let mut max2 = f64::NEG_INFINITY;
    if ids.len() == 1 {
        max2 = 0.0;
    } else {
        for (i, &e) in ids.iter().enumerate() {
            let v = values[e as usize];
            if v > max1 {
                max2 = max1;
                max1 = v;
                pos1 = i;
            } else if v > max2 {
                max2 = v;
            }
        }
    }
    (0..ids.len()).map(move |i| if i == pos1 { max2 } else { max1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::{BipartiteGraph, Side};
    use cualign_rt::Rng;

    fn csr(rows: &[&[u32]]) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize];
        let mut cols = Vec::new();
        for r in rows {
            cols.extend_from_slice(r);
            offsets.push(cols.len());
        }
        (offsets, cols)
    }

    /// Counts updates: the simplest side reduction.
    #[derive(Default)]
    struct Count(usize);

    impl Monoid for Count {
        fn combine(self, other: Self) -> Self {
            Count(self.0 + other.0)
        }
    }

    fn ownership_is_a_partition(plan: &MergePlan) {
        let mut next = 0usize;
        for c in plan.chunks() {
            assert_eq!(c.first_owned, next, "ownership gap");
            next += c.owned_rows;
        }
        assert_eq!(next, plan.num_rows(), "ownership must cover all rows");
        let covered: usize = plan.chunks().iter().map(|c| c.end - c.begin).sum();
        assert_eq!(covered, plan.nnz(), "chunks must tile the nnz range");
    }

    #[test]
    fn plan_handles_empty_matrix() {
        let plan = MergePlan::with_chunk_nnz(&[0], 4);
        assert_eq!(plan.chunks().len(), 1);
        assert_eq!(plan.num_rows(), 0);
        ownership_is_a_partition(&plan);
    }

    #[test]
    fn plan_handles_all_empty_rows() {
        let plan = MergePlan::with_chunk_nnz(&[0, 0, 0, 0], 4);
        assert_eq!(plan.chunks().len(), 1);
        assert_eq!(plan.chunks()[0].owned_rows, 3);
        assert!(plan.straddle_rows().is_empty());
        ownership_is_a_partition(&plan);
    }

    #[test]
    fn plan_assigns_trailing_empty_rows_to_last_chunk() {
        // 2 nonzeros in row 0, then three empty rows.
        let plan = MergePlan::with_chunk_nnz(&[0, 2, 2, 2, 2], 1);
        ownership_is_a_partition(&plan);
        let last = plan.chunks().last().unwrap();
        assert!(last.owned_rows >= 3, "trailing empties must be owned");
    }

    #[test]
    fn plan_splits_hot_row_and_records_straddle() {
        // One hot row of 10 nonzeros between small rows.
        let (offsets, _) = csr(&[&[0], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[0]]);
        let plan = MergePlan::with_chunk_nnz(&offsets, 3);
        ownership_is_a_partition(&plan);
        assert_eq!(plan.straddle_rows(), &[1], "hot row recorded once");
        // The hot row is owned by exactly one chunk.
        let owners: Vec<_> = plan
            .chunks()
            .iter()
            .filter(|c| (c.first_owned..c.first_owned + c.owned_rows).contains(&1))
            .collect();
        assert_eq!(owners.len(), 1);
    }

    #[test]
    fn plan_chunk_nnz_one_is_valid() {
        let (offsets, _) = csr(&[&[0, 1], &[], &[2]]);
        let plan = MergePlan::with_chunk_nnz(&offsets, 1);
        ownership_is_a_partition(&plan);
        assert_eq!(plan.chunks().len(), 3);
    }

    #[test]
    fn head_row_contains_begin() {
        let (offsets, _) = csr(&[&[], &[0, 1, 2, 3, 4], &[], &[5], &[]]);
        for chunk_nnz in 1..=7 {
            let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
            ownership_is_a_partition(&plan);
            for c in plan.chunks() {
                if c.begin < c.end {
                    assert!(offsets[c.head_row] <= c.begin);
                    assert!(offsets[c.head_row + 1] > c.begin);
                }
            }
        }
    }

    #[test]
    fn paired_update_reduce_fixes_up_straddle_rows() {
        // Square pattern: a hot row between short and empty rows.
        let rows: [&[u32]; 8] = [
            &[1],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[0],
            &[],
            &[2],
            &[],
            &[7],
            &[3],
        ];
        let (offsets, cols) = csr(&rows);
        let x: Vec<f64> = (0..8).map(|r| (r as f64 * 0.37).sin()).collect();
        let start: Vec<f64> = (0..cols.len()).map(|j| (j as f64 * 0.61).cos()).collect();
        let update = |xr: f64, xc: f64, a: &mut f64, b: &mut f64, n: &mut Count| {
            *a = xr - 0.5 * *a;
            *b = xc * *b + *a;
            n.0 += 1;
        };
        let term = |v: f64| v * 1.5;
        let init = |r: usize| r as f64 * 0.5;
        let (mut as_, mut bs, mut ys) = (start.clone(), start.clone(), vec![0.0; 8]);
        let ns = paired_update_reduce_reference(
            &offsets, &cols, &x, update, term, init, &mut as_, &mut bs, &mut ys,
        );
        assert_eq!(ns.0, cols.len());
        for chunk_nnz in [1, 2, 3, 64] {
            let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
            let (mut af, mut bf, mut yf) = (start.clone(), start.clone(), vec![0.0; 8]);
            let nf = paired_update_reduce(
                &offsets, &cols, &plan, &x, update, term, init, &mut af, &mut bf, &mut yf,
            );
            assert_eq!(nf.0, ns.0);
            for (fast, slow) in [(&yf, &ys), (&af, &as_), (&bf, &bs)] {
                assert_eq!(
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn exclusion_max_matches_group_semantics() {
        // Groups: {0,1,2}, {3}, {}.
        let offsets = [0usize, 3, 4, 4];
        let ids = [0u32, 1, 2, 3];
        let values = [5.0, 3.0, 4.0, 7.0];
        let mut fast = vec![0.0; 4];
        let mut slow = vec![0.0; 4];
        let plan = MergePlan::with_chunk_nnz(&offsets, 2);
        exclusion_max(&offsets, &plan, &ids, &values, &mut fast);
        exclusion_max_reference(&offsets, &ids, &values, &mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![4.0, 5.0, 5.0, 0.0]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs [`exclusion_max`] (at several chunk sizes) and
    /// [`exclusion_max_reference`] over the same groups, asserts they
    /// agree bitwise and returns the positional result.
    fn exclusion_both(offsets: &[usize], ids: &[u32], values: &[f64]) -> Vec<f64> {
        let mut slow = vec![f64::NAN; ids.len()];
        exclusion_max_reference(offsets, ids, values, &mut slow);
        for chunk_nnz in [1, 2, 3, 64] {
            let plan = MergePlan::with_chunk_nnz(offsets, chunk_nnz);
            let mut fast = vec![f64::NAN; ids.len()];
            exclusion_max(offsets, &plan, ids, values, &mut fast);
            assert_eq!(bits(&fast), bits(&slow), "chunk_nnz {chunk_nnz}");
        }
        slow
    }

    /// The exclusion max over one side's groups of `l` (edges sharing
    /// an A vertex, or a B vertex), scattered from positions to edges.
    fn by_edge(l: &BipartiteGraph, side: Side, values: &[f64]) -> Vec<f64> {
        let eids = l.eids(side);
        let at_pos = exclusion_both(l.offsets(side), eids, values);
        let mut out = vec![f64::NAN; eids.len()];
        for (&e, v) in eids.iter().zip(at_pos) {
            out[e as usize] = v;
        }
        out
    }

    /// The exclusion max of `vals` as one group.
    fn single_group(vals: &[f64]) -> Vec<f64> {
        let ids: Vec<u32> = (0..vals.len() as u32).collect();
        exclusion_both(&[0, vals.len()], &ids, vals)
    }

    /// A0-{B0,B1,B2}, A1-{B0}; edge ids by (a, b): 0:(0,0) 1:(0,1)
    /// 2:(0,2) 3:(1,0).
    fn sample_l() -> BipartiteGraph {
        BipartiteGraph::from_weighted_edges(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)],
        )
    }

    #[test]
    fn rows_exclude_self_max() {
        let l = sample_l();
        let vals = [5.0, 3.0, 4.0, 7.0];
        // A0's group {e0:5, e1:3, e2:4}: the argmax e0 gets the runner-up
        // 4, the others the max 5; A1's group {e3} alone gets 0.
        assert_eq!(by_edge(&l, Side::A, &vals), vec![4.0, 5.0, 5.0, 0.0]);
    }

    #[test]
    fn cols_group_by_b() {
        let l = sample_l();
        let vals = [5.0, 3.0, 4.0, 7.0];
        // B0's group {e0:5, e3:7}: e0 gets 7, e3 gets 5; B1 and B2 are
        // singletons.
        assert_eq!(by_edge(&l, Side::B, &vals), vec![7.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn ties_give_max_to_both() {
        assert_eq!(single_group(&[9.0, 9.0, 1.0]), vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn negative_values_keep_semantics() {
        assert_eq!(single_group(&[-2.0, -5.0]), vec![-5.0, -2.0]);
    }

    #[test]
    fn singleton_and_empty_groups() {
        // A singleton gets +0.0 whatever its own value.
        for v in [-3.0, 0.0, 8.0] {
            assert_eq!(bits(&single_group(&[v])), bits(&[0.0]));
        }
        // Empty groups before, between and after others write nothing.
        let offsets = [0usize, 0, 2, 2, 3, 3];
        let out = exclusion_both(&offsets, &[1, 0, 2], &[1.0, -1.0, 6.0]);
        assert_eq!(out, vec![1.0, -1.0, 0.0]);
        assert!(exclusion_both(&[0, 0, 0], &[], &[]).is_empty());
        assert!(exclusion_both(&[0], &[], &[]).is_empty());
    }

    /// Exact "max over the other members" recomputed naively, on a
    /// random 15 × 15 pattern, for the A side and the B side.
    #[test]
    fn matches_naive_on_random() {
        let mut rng = Rng::new(3);
        let triples: Vec<(u32, u32, f64)> = (0..120)
            .map(|_| (rng.below(15) as u32, rng.below(15) as u32, 1.0))
            .collect();
        let l = BipartiteGraph::from_weighted_edges(15, 15, &triples);
        let vals: Vec<f64> = (0..l.num_edges()).map(|_| rng.f64() * 4.0 - 2.0).collect();
        for side in [Side::A, Side::B] {
            let got = by_edge(&l, side, &vals);
            let (offsets, eids) = (l.offsets(side), l.eids(side));
            for g in 0..offsets.len() - 1 {
                let group = &eids[offsets[g]..offsets[g + 1]];
                for &e in group {
                    let others = group.iter().filter(|&&o| o != e);
                    let want = match others.clone().count() {
                        0 => 0.0,
                        _ => others
                            .map(|&o| vals[o as usize])
                            .fold(f64::NEG_INFINITY, f64::max),
                    };
                    assert_eq!(got[e as usize], want, "{side:?} edge {e}");
                }
            }
        }
    }
}
