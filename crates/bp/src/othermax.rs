//! The `othermaxrow` / `othermaxcol` operators of Algorithm 2.
//!
//! Viewing a message vector over `E_L` as a sparse `n_A × n_B` matrix
//! (entry at `(a, b)` for edge `(a, b)`), `othermaxrow` replaces every
//! entry by the maximum of the *other* entries in its row: the maximum for
//! all non-argmax entries, the second maximum for the argmax itself.
//! `othermaxcol` does the same per column. An entry with no siblings gets
//! `0` (the message of an empty competitor set), matching the reference
//! multithreaded implementation.
//!
//! These are the exclusivity messages: for edge `(a, b)`, "the best the
//! rest of `a`'s (resp. `b`'s) candidates could do without me".
//!
//! The BP engine's sweeps execute on the `linalg::sparse` exclusion
//! kernels, one merge-balanced grouped pass over a side-CSR each: the
//! A side on [`cualign_linalg::sparse::exclusion_max_apply`] (side-A
//! positions are edge ids, so the outputs are the message arrays), the
//! B side on [`cualign_linalg::sparse::exclusion_max`] writing
//! *positional* outputs (entry `p` of the side's incidence array) read
//! back per edge id through a precomputed inverse position map. All
//! buffers live in an [`OthermaxWorkspace`] so repeated sweeps allocate
//! nothing. The original collect-and-apply implementation is kept as
//! [`othermax_rows_reference`] / [`othermax_cols_reference`], which
//! `BpEngine::iterate_reference` runs; the selection order is identical,
//! so the engine's sweep agrees bitwise (the `engine::iterate` and
//! `sparse::exclusion_max{,_apply}` rows of `docs/oracle_manifest.txt`).

use cualign_graph::{BipartiteGraph, Side, VertexId};
use cualign_linalg::sparse::{exclusion_max, exclusion_max_apply, MergePlan, Monoid};
use cualign_rt::par;

/// Reusable buffers and merge plans for the othermax sweeps: the
/// B-side positional scratch (sized `|E_L|`; the BP engine parks its
/// B-side exclusion there until the fused `yᶜ`/`yᵖ` gather+damp pass
/// consumes it), the B-side inverse position map, and one
/// [`MergePlan`] per side-CSR. Build once per `L`, reuse every sweep.
pub struct OthermaxWorkspace {
    scratch_b: Vec<f64>,
    pos_b: Vec<u32>,
    plan_a: MergePlan,
    plan_b: MergePlan,
}

impl OthermaxWorkspace {
    /// Builds the workspace for `l`: the B-side inverse position map
    /// (`pos[e]` = position of edge `e` in the B-side incidence array)
    /// and the merge plans over both side-CSRs.
    pub fn new(l: &BipartiteGraph) -> Self {
        let m = l.num_edges();
        let mut pos_b = vec![0u32; m];
        for (p, &e) in l.eids(Side::B).iter().enumerate() {
            pos_b[e as usize] = p as u32;
        }
        OthermaxWorkspace {
            scratch_b: vec![0.0; m],
            pos_b,
            plan_a: MergePlan::new(l.offsets(Side::A)),
            plan_b: MergePlan::new(l.offsets(Side::B)),
        }
    }

    /// Runs the B-side (per-column) exclusion max of `values` into the
    /// B-side positional scratch. Returns `(scratch, pos_b)`: the
    /// othermax of edge `e` is `scratch[pos_b[e]]` — callers fuse the
    /// gather into their consuming pass.
    pub fn cols_positional(&mut self, l: &BipartiteGraph, values: &[f64]) -> (&[f64], &[u32]) {
        exclusion_max(
            l.offsets(Side::B),
            &self.plan_b,
            l.eids(Side::B),
            values,
            &mut self.scratch_b,
        );
        (&self.scratch_b, &self.pos_b)
    }

    /// A-side exclusion max fused with a caller epilogue
    /// ([`exclusion_max_apply`]): for each position `p` of the A-side
    /// incidence array, calls `apply(p, om, &mut out1[p], &mut
    /// out2[p], acc)` where `om` is the exclusion max of `values` over
    /// the other edges of `p`'s A-vertex and `acc` folds the caller's
    /// side reduction, which is returned. Skips the positional scratch
    /// entirely — the BP engine uses this for its `zᶜ`/`zᵖ` tail, where
    /// side-A positions coincide with edge ids, so the positional
    /// outputs *are* the edge-indexed message arrays.
    pub fn rows_apply<A: Monoid>(
        &self,
        l: &BipartiteGraph,
        values: &[f64],
        apply: impl Fn(usize, f64, &mut f64, &mut f64, &mut A) + Sync,
        out1: &mut [f64],
        out2: &mut [f64],
    ) -> A {
        exclusion_max_apply(
            l.offsets(Side::A),
            &self.plan_a,
            l.eids(Side::A),
            values,
            apply,
            out1,
            out2,
        )
    }

    /// The B-side positional scratch and position map as last written
    /// by [`OthermaxWorkspace::cols_positional`] — for callers that run
    /// the exclusion first and fuse the gather into a later pass.
    pub fn cols_result(&self) -> (&[f64], &[u32]) {
        (&self.scratch_b, &self.pos_b)
    }
}

/// `othermaxrow` (groups are the edges sharing an A vertex): the
/// original collect-and-apply implementation (per-group scratch
/// allocation + serial write-back), the oracle of the engine's A-side
/// exclusion pass.
pub fn othermax_rows_reference(l: &BipartiteGraph, values: &[f64], out: &mut [f64]) {
    othermax_side_reference(l, Side::A, values, out)
}

/// `othermaxcol` (groups are the edges sharing a B vertex), the
/// counterpart of [`othermax_rows_reference`].
pub fn othermax_cols_reference(l: &BipartiteGraph, values: &[f64], out: &mut [f64]) {
    othermax_side_reference(l, Side::B, values, out)
}

fn othermax_side_reference(l: &BipartiteGraph, side: Side, values: &[f64], out: &mut [f64]) {
    assert_eq!(values.len(), l.num_edges(), "message length mismatch");
    assert_eq!(out.len(), l.num_edges(), "output length mismatch");
    let n = match side {
        Side::A => l.na(),
        Side::B => l.nb(),
    };
    // Every edge id appears in exactly one group per side, so the groups
    // write disjoint `out` entries. Collect per-group writes, then apply —
    // the simple safe formulation; groups are tiny (k ≈ 10–100 edges).
    let updates: Vec<(u32, f64)> = par::flat_map(n, par::min_len_for(256), |v, out| {
        let ids = match side {
            Side::A => l.row_a(v as VertexId),
            Side::B => l.row_b(v as VertexId),
        };
        let mut local = vec![0.0f64; ids.len()];
        // Compute into a scratch indexed like `ids`.
        match ids.len() {
            0 => {}
            1 => local[0] = 0.0,
            _ => {
                let mut max1 = f64::NEG_INFINITY;
                let mut pos1 = 0usize;
                let mut max2 = f64::NEG_INFINITY;
                for (i, &e) in ids.iter().enumerate() {
                    let x = values[e as usize];
                    if x > max1 {
                        max2 = max1;
                        max1 = x;
                        pos1 = i;
                    } else if x > max2 {
                        max2 = x;
                    }
                }
                for (i, item) in local.iter_mut().enumerate() {
                    *item = if i == pos1 { max2 } else { max1 };
                }
            }
        }
        out.extend(ids.iter().copied().zip(local));
    });
    for (e, v) in updates {
        out[e as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_l() -> BipartiteGraph {
        // A0-{B0,B1,B2}, A1-{B0}: edge ids by (a,b): 0:(0,0) 1:(0,1) 2:(0,2) 3:(1,0)
        BipartiteGraph::from_weighted_edges(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)],
        )
    }

    /// `othermaxrow` of `vals` over one A vertex adjacent to one B vertex
    /// per value: a single group holding every edge.
    fn single_group(vals: &[f64]) -> Vec<f64> {
        let triples: Vec<(u32, u32, f64)> = (0..vals.len() as u32).map(|b| (0, b, 1.0)).collect();
        let l = BipartiteGraph::from_weighted_edges(1, vals.len(), &triples);
        let mut out = vec![0.0; vals.len()];
        othermax_rows_reference(&l, vals, &mut out);
        out
    }

    #[test]
    fn rows_exclude_self_max() {
        let l = sample_l();
        let vals = vec![5.0, 3.0, 4.0, 7.0];
        let mut out = vec![0.0; 4];
        othermax_rows_reference(&l, &vals, &mut out);
        // A0's row = {e0:5, e1:3, e2:4}: argmax e0 → second max 4; others → 5.
        assert_eq!(out[0], 4.0);
        assert_eq!(out[1], 5.0);
        assert_eq!(out[2], 5.0);
        // A1's row = {e3} alone → 0.
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn cols_group_by_b() {
        let l = sample_l();
        let vals = vec![5.0, 3.0, 4.0, 7.0];
        let mut out = vec![0.0; 4];
        othermax_cols_reference(&l, &vals, &mut out);
        // B0's column = {e0:5, e3:7}: e0 → 7, e3 → 5.
        assert_eq!(out[0], 7.0);
        assert_eq!(out[3], 5.0);
        // B1, B2 singletons → 0.
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0);
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
    fn matches_naive_on_random() {
        use cualign_rt::Rng;
        let mut rng = Rng::new(3);
        let triples: Vec<(u32, u32, f64)> = (0..120)
            .map(|_| (rng.below(15) as u32, rng.below(15) as u32, 1.0))
            .collect();
        let l = BipartiteGraph::from_weighted_edges(15, 15, &triples);
        let vals: Vec<f64> = (0..l.num_edges()).map(|_| rng.f64() * 4.0 - 2.0).collect();
        let mut got = vec![0.0; vals.len()];
        othermax_rows_reference(&l, &vals, &mut got);
        // Naive recomputation.
        for a in 0..15u32 {
            let ids = l.row_a(a);
            for &e in ids {
                let other: Vec<f64> = ids
                    .iter()
                    .filter(|&&e2| e2 != e)
                    .map(|&e2| vals[e2 as usize])
                    .collect();
                let want = other.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
                let want = if other.is_empty() { 0.0 } else { want };
                assert!((got[e as usize] - want).abs() < 1e-12);
            }
        }
    }
}
