//! The weighted bipartite alignment graph `L = (V_A ∪ V_B, E_L, w)`.
//!
//! `L` is the central shared data structure of the framework: the
//! sparsification stage constructs it, belief propagation rewrites its edge
//! weights every iteration (Algorithm 2, lines 17–20), and the matching
//! stage rounds it to an alignment.
//!
//! Both orientations are materialized as CSR:
//! * the **A side** maps each `a ∈ V_A` to its incident `(b, edge-id)` pairs,
//! * the **B side** maps each `b ∈ V_B` to its incident `(a, edge-id)` pairs.
//!
//! Edge ids are stable: id `e` always refers to the same `(a, b)` pair. The
//! weight vector is indexed by edge id, so swapping in a new weight vector
//! (as BP rounding does) never touches the topology. This mirrors the
//! paper's observation that "sparse data structures for vectors and matrices
//! remain fixed; only the values change" — the property its GPU kernels
//! exploit.

use crate::{EdgeId, VertexId};

/// One edge of `L`: vertex `a` of graph A, vertex `b` of graph B.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LEdge {
    /// Endpoint in `V_A`.
    pub a: VertexId,
    /// Endpoint in `V_B`.
    pub b: VertexId,
}

/// Which side of the bipartition a CSR view is rooted at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Rows are vertices of graph A.
    A,
    /// Rows are vertices of graph B.
    B,
}

/// Weighted bipartite graph with stable edge ids and dual CSR orientation.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    na: usize,
    nb: usize,
    /// Canonical edge list, sorted by `(a, b)`. `edges[e]` is edge id `e`.
    edges: Vec<LEdge>,
    /// Edge weights indexed by edge id.
    weights: Vec<f64>,
    // A-side CSR.
    a_offsets: Vec<usize>,
    a_targets: Vec<VertexId>,
    a_eids: Vec<EdgeId>,
    // B-side CSR.
    b_offsets: Vec<usize>,
    b_targets: Vec<VertexId>,
    b_eids: Vec<EdgeId>,
}

impl BipartiteGraph {
    /// Builds `L` from `(a, b, weight)` triples.
    ///
    /// Duplicate `(a, b)` pairs keep the **maximum** weight (a duplicate
    /// candidate edge from two kNN directions should not be double counted).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_weighted_edges(
        na: usize,
        nb: usize,
        triples: &[(VertexId, VertexId, f64)],
    ) -> Self {
        let mut sorted: Vec<(VertexId, VertexId, f64)> = triples.to_vec();
        for &(a, b, _) in &sorted {
            assert!(
                (a as usize) < na && (b as usize) < nb,
                "edge ({a}, {b}) out of bounds for ({na}, {nb})"
            );
        }
        sorted.sort_unstable_by_key(|x| (x.0, x.1));
        // Collapse duplicates, keeping the max weight.
        let mut edges: Vec<LEdge> = Vec::with_capacity(sorted.len());
        let mut weights: Vec<f64> = Vec::with_capacity(sorted.len());
        for (a, b, w) in sorted {
            match (edges.last(), weights.last_mut()) {
                (Some(last), Some(lw)) if last.a == a && last.b == b => {
                    if w > *lw {
                        *lw = w;
                    }
                }
                _ => {
                    edges.push(LEdge { a, b });
                    weights.push(w);
                }
            }
        }

        let m = edges.len();
        // A-side CSR: edges are already sorted by (a, b).
        let mut a_offsets = vec![0usize; na + 1];
        for e in &edges {
            a_offsets[e.a as usize + 1] += 1;
        }
        for i in 0..na {
            a_offsets[i + 1] += a_offsets[i];
        }
        let a_targets: Vec<VertexId> = edges.iter().map(|e| e.b).collect();
        let a_eids: Vec<EdgeId> = (0..m as EdgeId).collect();

        // B-side CSR via counting sort on b.
        let mut b_offsets = vec![0usize; nb + 1];
        for e in &edges {
            b_offsets[e.b as usize + 1] += 1;
        }
        for i in 0..nb {
            b_offsets[i + 1] += b_offsets[i];
        }
        let mut cursor = b_offsets.clone();
        let mut b_targets = vec![0 as VertexId; m];
        let mut b_eids = vec![0 as EdgeId; m];
        for (eid, e) in edges.iter().enumerate() {
            let slot = cursor[e.b as usize];
            b_targets[slot] = e.a;
            b_eids[slot] = eid as EdgeId;
            cursor[e.b as usize] += 1;
        }

        BipartiteGraph {
            na,
            nb,
            edges,
            weights,
            a_offsets,
            a_targets,
            a_eids,
            b_offsets,
            b_targets,
            b_eids,
        }
    }

    /// Number of vertices on the A side.
    #[inline]
    pub fn na(&self) -> usize {
        self.na
    }

    /// Number of vertices on the B side.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of edges `|E_L|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> LEdge {
        self.edges[e as usize]
    }

    /// All edges, indexed by edge id.
    #[inline]
    pub fn edges(&self) -> &[LEdge] {
        &self.edges
    }

    /// Edge weights, indexed by edge id.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mutable edge weights — used by BP rounding to substitute message
    /// values for weights without rebuilding topology.
    #[inline]
    pub fn weights_mut(&mut self) -> &mut [f64] {
        &mut self.weights
    }

    /// Replaces the entire weight vector.
    ///
    /// # Panics
    /// Panics if `w.len() != num_edges()`.
    pub fn set_weights(&mut self, w: &[f64]) {
        assert_eq!(w.len(), self.edges.len(), "weight vector length mismatch");
        self.weights.copy_from_slice(w);
    }

    /// Degree of vertex `a` on the A side.
    #[inline]
    pub fn degree_a(&self, a: VertexId) -> usize {
        self.a_offsets[a as usize + 1] - self.a_offsets[a as usize]
    }

    /// Degree of vertex `b` on the B side.
    #[inline]
    pub fn degree_b(&self, b: VertexId) -> usize {
        self.b_offsets[b as usize + 1] - self.b_offsets[b as usize]
    }

    /// Incident `(neighbor, edge-id)` pairs of `a ∈ V_A`. Neighbors are
    /// B-side vertices in increasing order.
    pub fn incident_a(&self, a: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let r = self.a_offsets[a as usize]..self.a_offsets[a as usize + 1];
        self.a_targets[r.clone()]
            .iter()
            .copied()
            .zip(self.a_eids[r].iter().copied())
    }

    /// Incident `(neighbor, edge-id)` pairs of `b ∈ V_B`. Neighbors are
    /// A-side vertices in increasing order.
    pub fn incident_b(&self, b: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let r = self.b_offsets[b as usize]..self.b_offsets[b as usize + 1];
        self.b_targets[r.clone()]
            .iter()
            .copied()
            .zip(self.b_eids[r].iter().copied())
    }

    /// Edge-id slice of the A-side CSR row for `a` (ids of edges incident to
    /// `a`, ordered by B endpoint).
    #[inline]
    pub fn row_a(&self, a: VertexId) -> &[EdgeId] {
        &self.a_eids[self.a_offsets[a as usize]..self.a_offsets[a as usize + 1]]
    }

    /// B-side endpoints of the A-side CSR row for `a`, ascending —
    /// parallel to [`BipartiteGraph::row_a`]. The overlap build's merge
    /// intersections walk this slice against `B`'s adjacency.
    #[inline]
    pub fn targets_a(&self, a: VertexId) -> &[VertexId] {
        &self.a_targets[self.a_offsets[a as usize]..self.a_offsets[a as usize + 1]]
    }

    /// Flat edge-id array of the requested side's CSR, parallel to
    /// [`BipartiteGraph::offsets`] — position `p` of side `s` holds the
    /// id of the `p`-th incidence. The sparse othermax kernel indexes
    /// messages through this slice and writes positional outputs.
    #[inline]
    pub fn eids(&self, side: Side) -> &[EdgeId] {
        match side {
            Side::A => &self.a_eids,
            Side::B => &self.b_eids,
        }
    }

    /// CSR offsets for the requested side.
    pub fn offsets(&self, side: Side) -> &[usize] {
        match side {
            Side::A => &self.a_offsets,
            Side::B => &self.b_offsets,
        }
    }

    /// Looks up the id of edge `(a, b)`, if present (binary search over the
    /// A-side row).
    pub fn edge_id(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        let r = self.a_offsets[a as usize]..self.a_offsets[a as usize + 1];
        let row = &self.a_targets[r.clone()];
        row.binary_search(&b).ok().map(|i| self.a_eids[r.start + i])
    }

    /// Validates structural invariants (dual-CSR consistency, sortedness,
    /// stable edge ids).
    pub fn check_invariants(&self) -> Result<(), String> {
        let m = self.edges.len();
        if self.weights.len() != m {
            return Err("weights length mismatch".into());
        }
        if self.a_offsets[self.na] != m || self.b_offsets[self.nb] != m {
            return Err("CSR offset totals wrong".into());
        }
        // Canonical list sorted by (a, b), no duplicates.
        if !self
            .edges
            .windows(2)
            .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b))
        {
            return Err("edge list not strictly sorted".into());
        }
        // Every A-side entry points back to the canonical edge, and vice versa.
        for a in 0..self.na as VertexId {
            for (b, e) in self.incident_a(a) {
                let le = self.edges[e as usize];
                if le.a != a || le.b != b {
                    return Err(format!("A-side eid {e} inconsistent at vertex {a}"));
                }
            }
        }
        for b in 0..self.nb as VertexId {
            let mut prev: Option<VertexId> = None;
            for (a, e) in self.incident_b(b) {
                let le = self.edges[e as usize];
                if le.a != a || le.b != b {
                    return Err(format!("B-side eid {e} inconsistent at vertex {b}"));
                }
                if let Some(p) = prev {
                    if a <= p {
                        return Err(format!("B-side row {b} not sorted"));
                    }
                }
                prev = Some(a);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        BipartiteGraph::from_weighted_edges(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 0.5),
                (1, 1, 2.0),
                (2, 0, 0.25),
                (2, 2, 3.0),
            ],
        )
    }

    #[test]
    fn builds_and_validates() {
        let g = sample();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.na(), 3);
        assert_eq!(g.nb(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn dual_csr_consistent() {
        let g = sample();
        // Edge (1,1) must be reachable from both sides with the same id.
        let e = g.edge_id(1, 1).unwrap();
        assert!(g.incident_a(1).any(|(b, id)| b == 1 && id == e));
        assert!(g.incident_b(1).any(|(a, id)| a == 1 && id == e));
        assert_eq!(g.edge(e), LEdge { a: 1, b: 1 });
        assert!((g.weights()[e as usize] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_keep_max_weight() {
        let g = BipartiteGraph::from_weighted_edges(2, 2, &[(0, 1, 0.3), (0, 1, 0.9), (0, 1, 0.1)]);
        assert_eq!(g.num_edges(), 1);
        assert!((g.weights()[0] - 0.9).abs() < 1e-12);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.degree_a(0), 2);
        assert_eq!(g.degree_a(1), 1);
        assert_eq!(g.degree_a(2), 2);
        assert_eq!(g.degree_b(0), 2);
        assert_eq!(g.degree_b(1), 2);
        assert_eq!(g.degree_b(2), 1);
    }

    #[test]
    fn set_weights_preserves_topology() {
        let mut g = sample();
        let new_w = vec![9.0; g.num_edges()];
        g.set_weights(&new_w);
        assert_eq!(g.weights(), &new_w[..]);
        g.check_invariants().unwrap();
        assert_eq!(g.edge_id(2, 2), Some(4));
    }

    #[test]
    fn missing_edge_lookup() {
        let g = sample();
        assert_eq!(g.edge_id(1, 0), None);
        assert_eq!(g.edge_id(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_weights_rejects_wrong_length() {
        let mut g = sample();
        g.set_weights(&[1.0, 2.0]);
    }
}
