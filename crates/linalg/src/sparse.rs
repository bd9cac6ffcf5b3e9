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
//! * [`row_map_reduce`] — fused map + row-sum (Listing 1's `F`+`dᶜ`),
//! * [`row_scaled_map`] — rank-1 row update (the `Sᶜ` update),
//! * [`exclusion_max`] — grouped othermax, and [`exclusion_max_apply`],
//!   othermax fused with a two-output epilogue.
//!
//! The two epilogue kernels ([`row_scaled_map`], [`exclusion_max_apply`])
//! also fold a caller-chosen [`Monoid`] alongside their writes, so a
//! statistic of the values they produce (BP's residual and clamp
//! counts) costs no extra pass over the arrays.
//!
//! # Exactness contract
//!
//! Every kernel here is **bitwise identical** to its `*_reference`
//! oracle (pinned in `docs/oracle_manifest.txt`, property-tested in
//! `tests/prop_sparse.rs`). f64 addition is not associative, so the
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
//! 2. **Straddle fixup.** [`row_map_reduce`] also *writes* the mapped
//!    values, and a row straddling a chunk boundary has its segments
//!    written by different chunks. The parallel pass reduces only rows
//!    fully contained in their owner's chunk; the few straddle rows
//!    (at most one per interior boundary, recorded in the plan) are
//!    re-summed serially afterwards from the materialized values — the
//!    same left-to-right chain over the same bits.
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
    /// the rows [`row_map_reduce`] re-sums serially after its parallel
    /// pass.
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

/// Fused map + row-reduce (the shape of the paper's Listing 1): writes
/// `vals_out[j] = map(j)` for every flat nonzero index and
/// `y[r] = init(r) + Σ_j map(j)` (sequential chain) for every row.
///
/// Parallel pass: each chunk writes its flat `[begin, end)` segment and
/// reduces the rows fully contained in it; rows straddling a boundary
/// are re-summed serially afterwards from the materialized values —
/// same values, same order, so the result matches
/// [`row_map_reduce_reference`] bitwise.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn row_map_reduce(
    offsets: &[usize],
    plan: &MergePlan,
    map: impl Fn(usize) -> f64 + Sync,
    init: impl Fn(usize) -> f64 + Sync,
    vals_out: &mut [f64],
    y: &mut [f64],
) {
    plan.check_shape(offsets);
    assert_eq!(vals_out.len(), plan.nnz(), "vals_out length mismatch");
    assert_eq!(y.len(), plan.num_rows(), "output length mismatch");
    let parts: Vec<(&mut [f64], &mut [f64])> = split_chunk_flat(plan, vals_out)
        .into_iter()
        .zip(split_owned_rows(plan, y))
        .collect();
    par::for_each(parts, plan.min_run_chunks(), |ci, (vc, yc)| {
        let c = &plan.chunks[ci];
        // Head segment: flat indices belonging to a row owned by an
        // earlier chunk (or to a row this chunk merely passes
        // through). Values only; the owner or the fixup reduces.
        let own_start = if c.owned_rows == 0 {
            c.end
        } else {
            offsets[c.first_owned]
        };
        let head_len = own_start.min(c.end) - c.begin;
        for (slot, j) in vc[..head_len].iter_mut().zip(c.begin..) {
            *slot = map(j);
        }
        for (i, yv) in yc.iter_mut().enumerate() {
            let r = c.first_owned + i;
            let rs = offsets[r];
            let re = offsets[r + 1];
            if re <= c.end {
                // Fully contained: fuse the write with the reduce.
                let mut sum = 0.0;
                for (slot, j) in vc[rs - c.begin..re - c.begin].iter_mut().zip(rs..) {
                    let v = map(j);
                    *slot = v;
                    sum += v;
                }
                *yv = init(r) + sum;
            } else {
                // Owner of a straddle row: write our segment, leave
                // the reduction to the serial fixup below.
                for (slot, j) in vc[rs - c.begin..].iter_mut().zip(rs..) {
                    *slot = map(j);
                }
            }
        }
    });
    // Straddle fixup: the sequential chain over the materialized values.
    for &r in plan.straddle_rows() {
        let mut sum = 0.0;
        for &v in &vals_out[offsets[r]..offsets[r + 1]] {
            sum += v;
        }
        y[r] = init(r) + sum;
    }
}

/// Serial oracle for [`row_map_reduce`].
///
/// # Panics
/// Panics on dimension mismatches.
pub fn row_map_reduce_reference(
    offsets: &[usize],
    map: impl Fn(usize) -> f64,
    init: impl Fn(usize) -> f64,
    vals_out: &mut [f64],
    y: &mut [f64],
) {
    assert_eq!(y.len(), offsets.len() - 1, "output length mismatch");
    assert_eq!(
        vals_out.len(),
        offsets[offsets.len() - 1],
        "vals_out length mismatch"
    );
    for (r, yv) in y.iter_mut().enumerate() {
        let mut sum = 0.0;
        let (lo, hi) = (offsets[r], offsets[r + 1]);
        for (j, slot) in (lo..hi).zip(&mut vals_out[lo..hi]) {
            let v = map(j);
            *slot = v;
            sum += v;
        }
        *yv = init(r) + sum;
    }
}

/// Row-scaled elementwise map with a side reduction:
/// `out[j] = map(scalar(r), j, acc)` for every nonzero `j` of row `r` —
/// the shape of BP's `Sᶜ` update, where the per-row scalar `yᶜ+zᶜ−dᶜ`
/// is broadcast down the row. `map` may fold into `acc`, the calling
/// chunk's [`Monoid`] accumulator; the combined result is returned.
/// `scalar` must be pure: chunks sharing a straddle row each recompute
/// it (identical bits, no cross-chunk traffic).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn row_scaled_map<A: Monoid>(
    offsets: &[usize],
    plan: &MergePlan,
    scalar: impl Fn(usize) -> f64 + Sync,
    map: impl Fn(f64, usize, &mut A) -> f64 + Sync,
    out: &mut [f64],
) -> A {
    plan.check_shape(offsets);
    assert_eq!(out.len(), plan.nnz(), "output length mismatch");
    let parts = split_chunk_flat(plan, out);
    par::map_reduce(
        parts,
        plan.min_run_chunks(),
        |ci, oc| row_scaled_chunk(offsets, &plan.chunks[ci], &scalar, &map, oc),
        A::combine,
    )
    .unwrap_or_default()
}

/// One chunk of [`row_scaled_map`]. A function of its own so `out` is a
/// `&mut` parameter: its no-alias guarantee lets the compiler keep the
/// closures' captures in registers instead of reloading them after
/// every store.
#[inline]
fn row_scaled_chunk<A: Monoid>(
    offsets: &[usize],
    c: &MergeChunk,
    scalar: &impl Fn(usize) -> f64,
    map: &impl Fn(f64, usize, &mut A) -> f64,
    out: &mut [f64],
) -> A {
    let mut acc = A::default();
    let mut r = c.head_row;
    let mut j = c.begin;
    while j < c.end {
        while offsets[r + 1] <= j {
            r += 1;
        }
        let seg_end = offsets[r + 1].min(c.end);
        let v = scalar(r);
        for (slot, jj) in out[j - c.begin..seg_end - c.begin].iter_mut().zip(j..) {
            *slot = map(v, jj, &mut acc);
        }
        j = seg_end;
    }
    acc
}

/// Serial oracle for [`row_scaled_map`]: one accumulator folded in
/// flat order.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn row_scaled_map_reference<A: Monoid>(
    offsets: &[usize],
    scalar: impl Fn(usize) -> f64,
    map: impl Fn(f64, usize, &mut A) -> f64,
    out: &mut [f64],
) -> A {
    assert_eq!(
        out.len(),
        offsets[offsets.len() - 1],
        "output length mismatch"
    );
    let mut acc = A::default();
    for r in 0..offsets.len() - 1 {
        let v = scalar(r);
        let (lo, hi) = (offsets[r], offsets[r + 1]);
        for (j, slot) in (lo..hi).zip(&mut out[lo..hi]) {
            *slot = map(v, j, &mut acc);
        }
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
/// is returned. Bitwise identical to [`exclusion_max_apply_reference`]:
/// the max selection does no FP arithmetic, and `apply` sees the same
/// `(p, om)` pairs in both.
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

/// Serial oracle for [`exclusion_max_apply`]: one accumulator folded in
/// position order.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn exclusion_max_apply_reference<A: Monoid>(
    offsets: &[usize],
    ids: &[u32],
    values: &[f64],
    apply: impl Fn(usize, f64, &mut f64, &mut f64, &mut A),
    out1: &mut [f64],
    out2: &mut [f64],
) -> A {
    assert_eq!(
        out1.len(),
        offsets[offsets.len() - 1],
        "out1 length mismatch"
    );
    assert_eq!(out2.len(), out1.len(), "out2 length mismatch");
    assert_eq!(ids.len(), out1.len(), "ids length mismatch");
    let mut acc = A::default();
    for g in 0..offsets.len() - 1 {
        let (gs, ge) = (offsets[g], offsets[g + 1]);
        let outs = out1[gs..ge].iter_mut().zip(&mut out2[gs..ge]);
        for ((p, (o1, o2)), om) in (gs..).zip(outs).zip(exclusions(&ids[gs..ge], values)) {
            apply(p, om, o1, o2, &mut acc);
        }
    }
    acc
}

/// Serial oracle for [`exclusion_max`].
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

    fn csr(rows: &[&[u32]]) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize];
        let mut cols = Vec::new();
        for r in rows {
            cols.extend_from_slice(r);
            offsets.push(cols.len());
        }
        (offsets, cols)
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
    fn row_map_reduce_fixes_up_straddle_rows() {
        let (offsets, _) = csr(&[&[0], &[0, 1, 2, 3, 4, 5, 6, 7], &[0]]);
        for chunk_nnz in [1, 2, 3, 64] {
            let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
            let map = |j: usize| (j as f64 * 0.37).sin();
            let init = |r: usize| r as f64 * 0.5;
            let nnz = plan.nnz();
            let (mut vf, mut yf) = (vec![0.0; nnz], vec![0.0; 3]);
            let (mut vs, mut ys) = (vec![0.0; nnz], vec![0.0; 3]);
            row_map_reduce(&offsets, &plan, map, init, &mut vf, &mut yf);
            row_map_reduce_reference(&offsets, map, init, &mut vs, &mut ys);
            assert_eq!(
                yf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                vf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
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
}
