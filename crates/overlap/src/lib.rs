//! # cualign-overlap
//!
//! Construction of the overlap ("squares") matrix **S** — Algorithm 3 of
//! the paper.
//!
//! Rows and columns of `S` are indexed by the edges of the bipartite graph
//! `L`. Entry `S[(i,i'),(j,j')] = 1` iff `(i,j) ∈ E_A` and `(i',j') ∈ E_B`:
//! the two candidate alignment edges close a "square" through one edge of
//! each input graph, i.e. matching both of them conserves an edge. The
//! number of such conserved edges is the quadratic term of the alignment
//! objective (Eq. 1).
//!
//! Structural properties the rest of the stack leans on:
//!
//! * `S` is **structurally symmetric** (input graphs are undirected), so a
//!   single CSR supports both `S` and `Sᵀ` traversal. The transpose
//!   permutation `perm` (an involution mapping each nonzero to its
//!   mirror) — the `perm[j]` indirection of the paper's fused kernel
//!   (Listing 1) — is computed on demand by
//!   [`OverlapMatrix::transpose_perm`]; BP carries its messages in both
//!   orientations instead of gathering through it.
//! * The sparsity pattern is **fixed** for the whole BP run; only values
//!   attached to the nonzeros change. Belief propagation therefore stores
//!   its message matrices as flat value arrays parallel to `col_idx`.
//!
//! Construction is a parallel two-phase masked-SpGEMM-style pass
//! (count offsets, then fill): row `e = (u, v)` owes one nonzero to
//! every edge `(u', v')` of `L` with `u' ∈ N_A(u)` and `v' ∈ N_B(v)` —
//! "accumulate only where the mask (`L`'s pattern) has a nonzero".
//! Both phases use dense epoch-tagged marker tables over B-vertices
//! (the sparse-accumulator idiom of row-wise SpGEMM) instead of
//! per-pair sorted merges: the count phase tallies, once per shared
//! A-endpoint `u`, the multiset of candidate targets
//! `{v' : (u', v') ∈ E_L, u' ∈ N_A(u)}` into a multiplicity table, so
//! each row then counts its nonzeros with `deg_B(v)` probes; the fill
//! phase marks `N_B(v)` and scans the candidate rows in `(u', v')`
//! order. Because `L`'s edge ids ascend lexicographically by `(a, b)`,
//! that scan emits each row already sorted and duplicate-free, so the
//! fill writes its final CSR slices directly, balanced across workers
//! by `linalg::sparse` merge plans (one over `L`'s A-side CSR for the
//! count, one over the counted offsets for the fill). The original
//! per-row enumerate-sort-dedup construction is kept as
//! [`OverlapMatrix::build_reference`] — the pinned oracle
//! (`docs/oracle_manifest.txt`) that [`OverlapMatrix::build`] must
//! reproduce exactly (same offsets and columns). The transpose
//! permutation takes one counting pass with a cursor per row, no
//! searches; its original binary search per nonzero is kept as
//! [`OverlapMatrix::transpose_perm_reference`].
//!
//! **Place in the pipeline** (paper Fig. 2): stage 3, between
//! sparsification and belief propagation — `S` is rebuilt whenever `L`
//! changes (per density in a sweep, and per refinement band at each
//! multilevel level) and is the structure all BP messages live on.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use cualign_graph::{BipartiteGraph, CsrGraph, EdgeId, Side, VertexId};
use cualign_linalg::sparse::MergePlan;
use cualign_rt::par;

/// Rows per parallel run in the row-at-a-time loops: each row costs
/// one pass over its neighborhood.
const MIN_ROWS: usize = 1024;

/// Splits `data` into consecutive mutable parts covering each plan
/// chunk's owned-row flat span (row-aligned; spans tile `[0, nnz)`).
fn split_owned_spans<'v, T>(
    plan: &MergePlan,
    offsets: &[usize],
    mut data: &'v mut [T],
) -> Vec<&'v mut [T]> {
    plan.chunks()
        .iter()
        .map(|c| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(c.owned_span_len(offsets));
            data = tail;
            head
        })
        .collect()
}

/// The overlap matrix `S` in CSR form (structurally symmetric).
#[derive(Clone, Debug)]
pub struct OverlapMatrix {
    /// Row offsets (`num_rows + 1` entries).
    row_offsets: Vec<usize>,
    /// Column indices per row, ascending (edge ids of `L`).
    col_idx: Vec<EdgeId>,
}

impl OverlapMatrix {
    /// Builds `S` from the two input graphs and the bipartite graph `L`
    /// (Algorithm 3) as a parallel two-phase masked SpGEMM-style pass:
    /// phase 1 counts each row's nonzeros through a per-A-endpoint
    /// multiplicity table, phase 2 marks `N_B(v)` and fills the final
    /// CSR slices directly (already sorted and duplicate-free — see the
    /// module docs), balanced by merge plans. Produces output identical
    /// to [`OverlapMatrix::build_reference`].
    pub fn build(a: &CsrGraph, b: &CsrGraph, l: &BipartiteGraph) -> Self {
        let t0 = std::time::Instant::now();
        let reg = cualign_telemetry::current();
        let _span = reg.span("overlap.build");
        let m = l.num_edges();
        let edges = l.edges();
        // Marker tables are indexed by B-side vertex ids; `L`'s targets
        // and `B`'s adjacency draw from the same vertex universe.
        let marker_len = b.num_vertices().max(l.nb());

        // Phase 1 (count): all rows sharing an A-endpoint `u` draw
        // their candidate columns from the same multiset
        // {(u', v') ∈ E_L : u' ∈ N_A(u)}. Tally it once per `u` into an
        // epoch-tagged multiplicity table over B-vertices; row
        // e = (u, v) then counts its nonzeros with deg_B(v) probes:
        // Σ_{v' ∈ N_B(v)} mult[v']. The probe + tally touches are the
        // "candidate squares checked" telemetry unit. Work is split by
        // a merge plan over `L`'s A-side CSR, whose flat positions are
        // exactly the row ids (edge ids ascend lexicographically by
        // `(a, b)`).
        let a_offsets = l.offsets(Side::A);
        let a_eids = l.eids(Side::A);
        let plan_count = MergePlan::new(a_offsets);
        let mut row_counts = vec![0usize; m];
        let count_parts = split_owned_spans(&plan_count, a_offsets, &mut row_counts);
        let count_chunk = |ci: usize, part: &mut [usize]| {
            let c = &plan_count.chunks()[ci];
            let mut tag = vec![0u32; marker_len];
            let mut mult = vec![0u32; marker_len];
            let mut checks = 0u64;
            let base = a_offsets[c.first_owned];
            let owned = &a_offsets[c.first_owned..c.first_owned + c.owned_rows];
            for (u, &row_start) in (c.first_owned..).zip(owned) {
                let rows = l.targets_a(u as VertexId);
                if rows.is_empty() {
                    continue;
                }
                let epoch = u as u32 + 1;
                for &u2 in a.neighbors(u as VertexId) {
                    let targets = l.targets_a(u2);
                    for &v2 in targets {
                        if tag[v2 as usize] == epoch {
                            mult[v2 as usize] += 1;
                        } else {
                            tag[v2 as usize] = epoch;
                            mult[v2 as usize] = 1;
                        }
                    }
                    checks += targets.len() as u64;
                }
                for (p, &v) in (row_start..).zip(rows) {
                    debug_assert_eq!(a_eids[p] as usize, p, "side-A positions are edge ids");
                    let nbrs = b.neighbors(v);
                    let mut cnt = 0usize;
                    for &v2 in nbrs {
                        if tag[v2 as usize] == epoch {
                            cnt += mult[v2 as usize] as usize;
                        }
                    }
                    checks += nbrs.len() as u64;
                    part[p - base] = cnt;
                }
            }
            checks
        };
        let count_checks = par::map_reduce(
            count_parts,
            plan_count.min_run_chunks(),
            count_chunk,
            |x, y| x + y,
        )
        .unwrap_or(0);

        let mut row_offsets = Vec::with_capacity(m + 1);
        let mut nnz = 0usize;
        row_offsets.push(nnz);
        for c in &row_counts {
            nnz += c;
            row_offsets.push(nnz);
        }

        // Phase 2 (fill): epoch-mark `N_B(v)` per row, then scan the
        // candidate rows in `(u', v')` order writing surviving edge ids
        // straight into each row's final slice (the scan order IS the
        // ascending edge-id order). Work is split by an equal-nnz merge
        // plan; each chunk fills the rows it owns.
        let plan = MergePlan::new(&row_offsets);
        let mut col_idx = vec![0 as EdgeId; nnz];
        let col_parts = split_owned_spans(&plan, &row_offsets, &mut col_idx);
        let fill_chunk = |ci: usize, part: &mut [EdgeId]| {
            let c = &plan.chunks()[ci];
            let mut mark = vec![0u32; marker_len];
            let mut checks = 0u64;
            let base = row_offsets[c.first_owned];
            for r in c.first_owned..c.first_owned + c.owned_rows {
                let le = edges[r];
                let epoch = r as u32 + 1;
                let nbrs = b.neighbors(le.b);
                for &v2 in nbrs {
                    mark[v2 as usize] = epoch;
                }
                let mut k = row_offsets[r] - base;
                for &u2 in a.neighbors(le.a) {
                    let targets = l.targets_a(u2);
                    let eids = l.row_a(u2);
                    for (i, &v2) in targets.iter().enumerate() {
                        if mark[v2 as usize] == epoch {
                            part[k] = eids[i];
                            k += 1;
                        }
                    }
                    checks += targets.len() as u64;
                }
                checks += nbrs.len() as u64;
                debug_assert_eq!(k, row_offsets[r + 1] - base, "fill/count mismatch");
            }
            checks
        };
        let fill_checks =
            par::map_reduce(col_parts, plan.min_run_chunks(), fill_chunk, |x, y| x + y)
                .unwrap_or(0);
        let squares_checked = count_checks + fill_checks;

        reg.counter("overlap.builds").inc();
        reg.counter("overlap.squares_checked").add(squares_checked);
        reg.gauge("overlap.nnz").set(col_idx.len() as f64);
        reg.histogram("overlap.build_seconds")
            .record(t0.elapsed().as_secs_f64());
        OverlapMatrix {
            row_offsets,
            col_idx,
        }
    }

    /// The original serial-shaped construction (per-row candidate
    /// enumeration through `edge_id` probes, then sort + dedup), kept
    /// verbatim as the pinned oracle for [`OverlapMatrix::build`]
    /// (`docs/oracle_manifest.txt`): both must produce identical
    /// offsets and column indices. Records no telemetry — it exists for
    /// equivalence tests and as the `bench_bp` baseline.
    pub fn build_reference(a: &CsrGraph, b: &CsrGraph, l: &BipartiteGraph) -> Self {
        let m = l.num_edges();
        // Row e = (u, v): for every neighbor u' of u and v' of v, the edge
        // (u', v') of L (if present) overlaps e.
        let mut rows: Vec<Vec<EdgeId>> = vec![Vec::new(); m];
        par::map(&mut rows, MIN_ROWS, |e| {
            let le = l.edge(e as EdgeId);
            let mut cols = Vec::new();
            for &u2 in a.neighbors(le.a) {
                for &v2 in b.neighbors(le.b) {
                    if let Some(e2) = l.edge_id(u2, v2) {
                        cols.push(e2);
                    }
                }
            }
            cols.sort_unstable();
            cols.dedup();
            cols
        });

        let mut row_offsets = Vec::with_capacity(m + 1);
        let mut nnz = 0usize;
        row_offsets.push(nnz);
        for r in &rows {
            nnz += r.len();
            row_offsets.push(nnz);
        }
        let col_idx: Vec<EdgeId> = rows.into_iter().flatten().collect();
        OverlapMatrix {
            row_offsets,
            col_idx,
        }
    }

    /// Number of rows (= `|E_L|`).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of structural nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row offsets.
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// All column indices (flat CSR).
    #[inline]
    pub fn col_indices(&self) -> &[EdgeId] {
        &self.col_idx
    }

    /// Column indices of row `e` — the edges overlapping `e`.
    #[inline]
    pub fn row(&self, e: EdgeId) -> &[EdgeId] {
        &self.col_idx[self.row_offsets[e as usize]..self.row_offsets[e as usize + 1]]
    }

    /// Number of overlaps of edge `e` (row degree).
    #[inline]
    pub fn row_degree(&self, e: EdgeId) -> usize {
        self.row_offsets[e as usize + 1] - self.row_offsets[e as usize]
    }

    /// The transpose permutation, computed on demand: `perm[j]` is the
    /// flat index of nonzero `j`'s mirror — if `j` sits at `(e, e')`,
    /// then `perm[j]` sits at `(e', e)`. An involution. One counting
    /// pass: rows are visited in ascending order and the pattern is
    /// symmetric, so the k-th nonzero met in column `col` comes from the
    /// k-th smallest row holding `col`, whose mirror is the k-th entry
    /// of row `col` — a cursor per row, starting at its offset, hands
    /// out the mirrors in order. Identical to
    /// [`OverlapMatrix::transpose_perm_reference`].
    pub fn transpose_perm(&self) -> Vec<u32> {
        let m = self.num_rows();
        let mut cursor: Vec<u32> = self.row_offsets[..m].iter().map(|&o| o as u32).collect();
        let perm: Vec<u32> = self
            .col_idx
            .iter()
            .map(|&col| {
                let slot = &mut cursor[col as usize];
                *slot += 1;
                *slot - 1
            })
            .collect();
        debug_assert!(
            (0..m).all(|r| cursor[r] as usize == self.row_offsets[r + 1]),
            "overlap matrix not structurally symmetric"
        );
        perm
    }

    /// The original transpose construction — a binary search for each
    /// nonzero's mirror in the mirror's row — kept as the pinned oracle
    /// for [`OverlapMatrix::transpose_perm`] (`docs/oracle_manifest.txt`).
    ///
    /// # Panics
    /// Panics if the pattern is not structurally symmetric.
    pub fn transpose_perm_reference(&self) -> Vec<u32> {
        let (row_offsets, col_idx) = (&self.row_offsets, &self.col_idx);
        par::flat_map(self.num_rows(), MIN_ROWS, |row, out| {
            for j in row_offsets[row]..row_offsets[row + 1] {
                let col = col_idx[j] as usize;
                let cs = row_offsets[col];
                let ce = row_offsets[col + 1];
                let pos = col_idx[cs..ce]
                    .binary_search(&(row as EdgeId))
                    // lint: allow(no-panic): both constructions insert (u',v') iff (v',u') is also inserted, so the pattern is structurally symmetric by construction
                    .expect("overlap matrix not structurally symmetric");
                out.push((cs + pos) as u32);
            }
        })
    }

    /// Whether nonzero `(e, e')` exists, i.e. the two edges overlap.
    pub fn overlaps(&self, e: EdgeId, e2: EdgeId) -> bool {
        self.row(e).binary_search(&e2).is_ok()
    }

    /// Counts conserved (overlapped) edges under a matching, given its
    /// edge ids in strictly increasing order (as `Matching::edge_ids`
    /// returns them; a repeated id would be counted twice). Only the
    /// matched rows are scanned — at most `min(na, nb)` of them — against
    /// a one-bit-per-edge membership set, so the random lookups stay in
    /// cache. Each overlapping pair counts once (the CSR stores both
    /// directions, hence the halving): this is the `xᵀSx / 2` term of
    /// Eq. (1).
    pub fn count_matched_overlaps(&self, matched: &[EdgeId]) -> usize {
        debug_assert!(
            matched.windows(2).all(|w| w[0] < w[1]),
            "matched edge ids must be strictly increasing"
        );
        let mut in_matching = vec![0u64; self.num_rows().div_ceil(64)];
        for &e in matched {
            in_matching[e as usize / 64] |= 1 << (e % 64);
        }
        let is_matched = |e2: EdgeId| in_matching[e2 as usize / 64] >> (e2 % 64) & 1 == 1;
        let pairs: usize = matched
            .iter()
            .map(|&e| self.row(e).iter().filter(|&&e2| is_matched(e2)).count())
            .sum();
        pairs / 2
    }

    /// Validates structural symmetry and that
    /// [`transpose_perm`](Self::transpose_perm) is a consistent
    /// involution.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_rows();
        for e in 0..n {
            let row = self.row(e as EdgeId);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row {e} not strictly sorted"));
            }
            for &e2 in row {
                if !self.overlaps(e2, e as EdgeId) {
                    return Err(format!("asymmetric nonzero ({e}, {e2})"));
                }
            }
        }
        // Only a symmetric pattern has a transpose permutation.
        let perm = self.transpose_perm();
        for e in 0..n {
            for j in self.row_offsets[e]..self.row_offsets[e + 1] {
                let p = perm[j] as usize;
                if self.col_idx[p] != e as EdgeId {
                    return Err(format!("perm[{j}] does not point at the mirror"));
                }
                if perm[p] as usize != j {
                    return Err(format!("perm not an involution at {j}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::{Permutation, VertexId};
    use cualign_rt::Rng;

    /// Brute-force S for cross-checking.
    fn brute_overlaps(a: &CsrGraph, b: &CsrGraph, l: &BipartiteGraph) -> Vec<(EdgeId, EdgeId)> {
        let mut pairs = Vec::new();
        for e in 0..l.num_edges() as EdgeId {
            for e2 in 0..l.num_edges() as EdgeId {
                let le = l.edge(e);
                let le2 = l.edge(e2);
                if a.has_edge(le.a, le2.a) && b.has_edge(le.b, le2.b) {
                    pairs.push((e, e2));
                }
            }
        }
        pairs
    }

    fn small_instance() -> (CsrGraph, CsrGraph, BipartiteGraph) {
        // A: path 0-1-2; B: path 0-1-2. L: diagonal + one off-diagonal.
        let a = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let b = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let l = BipartiteGraph::from_weighted_edges(
            3,
            3,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 2, 0.5)],
        );
        (a, b, l)
    }

    #[test]
    fn matches_brute_force_small() {
        let (a, b, l) = small_instance();
        let s = OverlapMatrix::build(&a, &b, &l);
        s.check_invariants().unwrap();
        let brute = brute_overlaps(&a, &b, &l);
        assert_eq!(s.nnz(), brute.len());
        for (e, e2) in brute {
            assert!(s.overlaps(e, e2), "missing overlap ({e}, {e2})");
        }
    }

    #[test]
    fn matches_brute_force_random() {
        let mut rng = Rng::new(5);
        let a = erdos_renyi_gnm(12, 25, &mut rng);
        let b = erdos_renyi_gnm(12, 25, &mut rng);
        let triples: Vec<(VertexId, VertexId, f64)> = (0..60)
            .map(|_| (rng.below(12) as u32, rng.below(12) as u32, rng.f64()))
            .collect();
        let l = BipartiteGraph::from_weighted_edges(12, 12, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        s.check_invariants().unwrap();
        let brute = brute_overlaps(&a, &b, &l);
        assert_eq!(s.nnz(), brute.len());
    }

    #[test]
    fn identity_alignment_conserves_all_edges() {
        // B = A, L = identity diagonal: matching everything conserves every
        // edge of A.
        let mut rng = Rng::new(9);
        let a = erdos_renyi_gnm(20, 50, &mut rng);
        let b = a.clone();
        let triples: Vec<(VertexId, VertexId, f64)> = (0..20).map(|i| (i, i, 1.0)).collect();
        let l = BipartiteGraph::from_weighted_edges(20, 20, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        let all: Vec<EdgeId> = (0..l.num_edges() as EdgeId).collect();
        assert_eq!(s.count_matched_overlaps(&all), a.num_edges());
    }

    #[test]
    fn permuted_diagonal_conserves_all_edges() {
        // B = P(A); L pairs i with P(i): the ground-truth alignment
        // conserves all |E_A| edges.
        let mut rng = Rng::new(10);
        let a = erdos_renyi_gnm(25, 60, &mut rng);
        let p = Permutation::random(25, &mut rng);
        let b = p.apply_to_graph(&a);
        let triples: Vec<(VertexId, VertexId, f64)> =
            (0..25).map(|i| (i, p.apply(i), 1.0)).collect();
        let l = BipartiteGraph::from_weighted_edges(25, 25, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        let all: Vec<EdgeId> = (0..l.num_edges() as EdgeId).collect();
        assert_eq!(s.count_matched_overlaps(&all), a.num_edges());
    }

    #[test]
    fn no_overlap_without_structure() {
        // Edgeless inputs: S is all zero.
        let a = CsrGraph::empty(4);
        let b = CsrGraph::empty(4);
        let l = BipartiteGraph::from_weighted_edges(4, 4, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let s = OverlapMatrix::build(&a, &b, &l);
        assert_eq!(s.nnz(), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn diagonal_has_no_self_overlap() {
        // An edge never overlaps itself (would need a self loop in A and B).
        let (a, b, l) = small_instance();
        let s = OverlapMatrix::build(&a, &b, &l);
        for e in 0..l.num_edges() as EdgeId {
            assert!(!s.overlaps(e, e), "self-overlap at {e}");
        }
    }

    #[test]
    fn empty_mask_counts_zero() {
        let (a, b, l) = small_instance();
        let s = OverlapMatrix::build(&a, &b, &l);
        assert_eq!(s.count_matched_overlaps(&[]), 0);
    }
}
