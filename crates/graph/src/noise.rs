//! Edge-level noise for robustness experiments.
//!
//! Real alignment instances are never exact isomorphisms; the evaluation's
//! discussion of sparsification (§6.2) attributes part of cuAlign's quality
//! advantage to tolerating noisy candidate edges. These helpers perturb a
//! graph by deleting and/or inserting edges so experiments can sweep noise
//! levels.

use crate::{CsrGraph, VertexId};
use cualign_rt::Rng;
use std::collections::HashSet;

/// Removes a uniformly random `⌊fraction · |E|⌋`-subset of edges — the exact
/// noise level the experiment asks for, rather than the binomial
/// approximation of independent per-edge deletion.
pub fn remove_edges(g: &CsrGraph, fraction: f64, rng: &mut Rng) -> CsrGraph {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut edges = g.edge_list();
    let keep = edges.len() - ((edges.len() as f64) * fraction).floor() as usize;
    rng.shuffle(&mut edges);
    edges.truncate(keep);
    CsrGraph::from_edges(g.num_vertices(), &edges)
}

/// Inserts exactly `extra_count` uniformly random non-edges.
pub fn add_edges_count(g: &CsrGraph, extra_count: usize, rng: &mut Rng) -> CsrGraph {
    let n = g.num_vertices();
    let mut edges = g.edge_list();
    let have: HashSet<(VertexId, VertexId)> = edges.iter().copied().collect();
    let max_m = n * (n - 1) / 2;
    assert!(
        edges.len() + extra_count <= max_m,
        "cannot add {extra_count} edges: graph would exceed complete"
    );
    let mut extra: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(extra_count);
    while extra.len() < extra_count {
        let u = rng.below(n) as VertexId;
        let v = rng.below(n) as VertexId;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if !have.contains(&key) {
            extra.insert(key);
        }
    }
    edges.extend(extra);
    CsrGraph::from_edges(n, &edges)
}

/// Applies the standard alignment-benchmark perturbation: remove a fraction
/// of edges, then add exactly as many random edges back, keeping |E|
/// constant.
pub fn rewire(g: &CsrGraph, fraction: f64, rng: &mut Rng) -> CsrGraph {
    let removed = remove_edges(g, fraction, rng);
    let lost = g.num_edges() - removed.num_edges();
    if lost == 0 {
        return removed;
    }
    add_edges_count(&removed, lost, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi_gnm;
    use cualign_rt::Rng;

    #[test]
    fn remove_hits_exact_count() {
        let mut rng = Rng::new(1);
        let g = erdos_renyi_gnm(100, 400, &mut rng);
        let h = remove_edges(&g, 0.25, &mut rng);
        assert_eq!(h.num_edges(), 300);
        h.check_invariants().unwrap();
        // All surviving edges existed before.
        for (u, v) in h.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn remove_zero_is_identity_on_edge_set() {
        let mut rng = Rng::new(2);
        let g = erdos_renyi_gnm(50, 100, &mut rng);
        let h = remove_edges(&g, 0.0, &mut rng);
        assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn add_inserts_fresh_edges() {
        let mut rng = Rng::new(3);
        let g = erdos_renyi_gnm(100, 200, &mut rng);
        let h = add_edges_count(&g, 100, &mut rng);
        assert_eq!(h.num_edges(), 300);
        h.check_invariants().unwrap();
        for (u, v) in g.edges() {
            assert!(h.has_edge(u, v), "original edge ({u},{v}) lost");
        }
    }

    #[test]
    fn rewire_preserves_edge_count() {
        let mut rng = Rng::new(4);
        let g = erdos_renyi_gnm(200, 800, &mut rng);
        let h = rewire(&g, 0.1, &mut rng);
        assert_eq!(h.num_edges(), 800);
        h.check_invariants().unwrap();
        // Some edges must actually have changed.
        let changed = g.edges().filter(|&(u, v)| !h.has_edge(u, v)).count();
        assert!(changed > 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn remove_rejects_bad_fraction() {
        let mut rng = Rng::new(5);
        let g = erdos_renyi_gnm(10, 10, &mut rng);
        let _ = remove_edges(&g, 1.5, &mut rng);
    }
}
