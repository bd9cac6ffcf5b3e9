//! Descriptive statistics over graphs — degree distributions, clustering,
//! connectivity. Used to sanity-check that generated stand-ins for the
//! paper's inputs have the right shape, and by examples to describe their
//! inputs.

use crate::{CsrGraph, VertexId};

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Sample standard deviation of the degrees.
    pub std_dev: f64,
}

/// Computes [`DegreeStats`]. Returns zeros for the empty graph.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let degrees: Vec<usize> = (0..n as VertexId).map(|u| g.degree(u)).collect();
    let min = degrees.iter().copied().min().unwrap_or(0);
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let var = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    DegreeStats {
        min,
        max,
        mean,
        std_dev: var.sqrt(),
    }
}

/// Global clustering coefficient: `3 · #triangles / #wedges`.
/// Returns 0 when the graph has no wedges.
pub fn global_clustering(g: &CsrGraph) -> f64 {
    let mut triangles = 0usize;
    let mut wedges = 0usize;
    for u in 0..g.num_vertices() as VertexId {
        let d = g.degree(u);
        wedges += d * d.saturating_sub(1) / 2;
        let adj = g.neighbors(u);
        for (i, &v) in adj.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &adj[i + 1..] {
                if w > v && g.has_edge(v, w) {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

/// Number of connected components (BFS).
pub fn connected_components(g: &CsrGraph) -> usize {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut components = 0;
    let mut queue: Vec<VertexId> = Vec::new();
    for s in 0..n {
        if visited[s] {
            continue;
        }
        components += 1;
        visited[s] = true;
        queue.push(s as VertexId);
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push(v);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{duplication_divergence, erdos_renyi_gnm, watts_strogatz};
    use cualign_rt::Rng;

    #[test]
    fn stats_of_triangle() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.std_dev < 1e-12);
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(global_clustering(&g), 0.0);
    }

    #[test]
    fn components_counts() {
        // Two triangles, disjoint.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_eq!(connected_components(&g), 2);
        let e = CsrGraph::empty(4);
        assert_eq!(connected_components(&e), 4);
    }

    #[test]
    fn small_world_clusters_more_than_random() {
        let mut rng = Rng::new(2);
        let ws = watts_strogatz(300, 6, 0.05, &mut rng);
        let er = erdos_renyi_gnm(300, ws.num_edges(), &mut rng);
        assert!(global_clustering(&ws) > 2.0 * global_clustering(&er));
    }

    #[test]
    fn ppi_model_clusters() {
        let mut rng = Rng::new(3);
        let g = duplication_divergence(500, 0.45, 0.3, &mut rng);
        // Duplication creates shared neighborhoods, hence triangles.
        assert!(global_clustering(&g) > 0.01);
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::empty(0);
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(connected_components(&g), 0);
    }
}
