//! Undirected graphs in compressed sparse row (CSR) form.
//!
//! The CSR layout stores, for every vertex `u`, a contiguous sorted slice of
//! neighbor ids. Every undirected edge `{u, v}` appears twice: once in `u`'s
//! slice and once in `v`'s. This is the memory layout the paper assumes for
//! both input networks and is what the GPU simulator's coalescing model
//! reasons about.

use crate::VertexId;

/// An immutable undirected graph in CSR form.
///
/// Invariants (enforced by all constructors):
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, `offsets` is
///   non-decreasing, and `offsets[n] == targets.len()`.
/// * each adjacency slice is strictly increasing (sorted, deduplicated),
/// * no self loops,
/// * symmetry: `v ∈ adj(u)` iff `u ∈ adj(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a graph from an arbitrary edge list.
    ///
    /// Self loops are dropped; duplicate edges (in either orientation) are
    /// collapsed. Vertex ids must be `< n`.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        // Degree count (both orientations, self loops skipped), then a
        // fill through one cursor per row, then a per-row sort + dedup
        // compacted in place: the same CSR a global sort of the
        // directed pairs would give, without sorting pairs.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of bounds for n = {n}"
            );
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets: Vec<VertexId> = vec![0; offsets[n]];
        for &(u, v) in edges {
            if u != v {
                targets[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
                targets[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        let mut kept = 0usize;
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            let row = &mut targets[start..end];
            row.sort_unstable();
            offsets[u] = kept;
            let mut last = None;
            for i in start..end {
                let v = targets[i];
                if last != Some(v) {
                    targets[kept] = v;
                    kept += 1;
                    last = Some(v);
                }
            }
        }
        offsets[n] = kept;
        targets.truncate(kept);
        CsrGraph {
            n,
            offsets,
            targets,
        }
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The raw CSR offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw CSR target array (length `2 * num_edges`).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n as VertexId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collects the edge list (each undirected edge once, `u < v`).
    pub fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }

    /// Average degree `2|E| / |V|` (0 for the empty vertex set).
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.n as f64
        }
    }

    /// Validates all structural invariants. Used by tests and debug builds;
    /// constructors uphold these by construction.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.len() != self.n + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.offsets[0] != 0 || self.offsets[self.n] != self.targets.len() {
            return Err("offset endpoints wrong".into());
        }
        for u in 0..self.n as VertexId {
            let adj = self.neighbors(u);
            if !adj.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u} not strictly sorted"));
            }
            if adj.contains(&u) {
                return Err(format!("self loop at {u}"));
            }
            for &v in adj {
                if (v as usize) >= self.n {
                    return Err(format!("neighbor {v} out of range"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        for u in 0..5 {
            assert!(g.neighbors(u).is_empty());
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn edge_list_roundtrip() {
        let edges = vec![(0, 3), (1, 2), (2, 3), (0, 1)];
        let g = CsrGraph::from_edges(4, &edges);
        let list = g.edge_list();
        let g2 = CsrGraph::from_edges(4, &list);
        assert_eq!(g, g2);
    }

    #[test]
    fn average_and_max_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_range_vertex() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "edge (3, 3) out of bounds for n = 2")]
    fn rejects_the_first_out_of_range_edge_even_a_self_loop() {
        let _ = CsrGraph::from_edges(2, &[(0, 1), (3, 3), (0, 7)]);
    }

    #[test]
    fn rows_are_sorted_and_deduplicated_from_any_order() {
        let g = CsrGraph::from_edges(5, &[(4, 0), (2, 0), (0, 4), (1, 1), (0, 2), (3, 0), (2, 4)]);
        assert_eq!(g.offsets(), &[0, 3, 3, 5, 6, 8]);
        assert_eq!(g.targets(), &[2, 3, 4, 0, 4, 0, 0, 2]);
        g.check_invariants().unwrap();
        assert_eq!(CsrGraph::from_edges(0, &[]), CsrGraph::empty(0));
        assert_eq!(CsrGraph::from_edges(3, &[(1, 1)]), CsrGraph::empty(3));
    }
}
