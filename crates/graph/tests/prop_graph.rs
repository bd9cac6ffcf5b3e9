//! Property-based tests for the graph substrate: structural invariants
//! that must hold for *every* edge list, permutation, and generator
//! parameterization, not just hand-picked fixtures.

use cualign_graph::generators::{
    barabasi_albert, duplication_divergence, erdos_renyi_gnm, powerlaw_configuration,
    with_edge_budget,
};
use cualign_graph::{io, noise, BipartiteGraph, CsrGraph, Permutation};
use cualign_rt::check::cases;
use cualign_rt::Rng;

const CASES: u32 = 256;

/// An arbitrary edge list over `2 ≤ n < 40` vertices.
fn edge_list(rng: &mut Rng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.range(2..40);
    let m = rng.below(120);
    let edges = (0..m)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect();
    (n, edges)
}

/// Every constructed CSR graph satisfies its invariants, regardless of
/// duplicates, self loops, or ordering in the input.
#[test]
fn csr_invariants_hold() {
    cases(CASES, 1, |rng| {
        let (n, edges) = edge_list(rng);
        let g = CsrGraph::from_edges(n, &edges);
        assert!(g.check_invariants().is_ok());
        // Edge count is bounded by the distinct non-loop pairs supplied.
        let mut distinct: Vec<(u32, u32)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(g.num_edges(), distinct.len());
    });
}

/// The pair-sorting construction `CsrGraph::from_edges` used to run:
/// both orientations of every non-loop edge, globally sorted and
/// deduplicated, then counted into offsets.
fn from_edges_sort_dedup(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for &(u, v) in edges {
        if u != v {
            pairs.push((u, v));
            pairs.push((v, u));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &pairs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    (offsets, pairs.into_iter().map(|(_, v)| v).collect())
}

/// The degree-count + per-row sort construction gives exactly the CSR
/// of a global sort-dedup of the directed pairs, on edge lists heavy in
/// duplicates (both orientations), self loops and isolated vertices.
#[test]
fn csr_equals_sort_dedup_reference() {
    cases(CASES, 10, |rng| {
        let n = rng.below(40);
        let span = rng.range(1..41).min(n.max(1));
        let m = if n == 0 { 0 } else { rng.below(200) };
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.below(span) as u32, rng.below(span) as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        let (offsets, targets) = from_edges_sort_dedup(n, &edges);
        assert_eq!(g.offsets(), &offsets[..]);
        assert_eq!(g.targets(), &targets[..]);
    });
}

/// from_edges ∘ edge_list is the identity on canonical graphs.
#[test]
fn csr_edge_list_roundtrip() {
    cases(CASES, 2, |rng| {
        let (n, edges) = edge_list(rng);
        let g = CsrGraph::from_edges(n, &edges);
        let g2 = CsrGraph::from_edges(n, &g.edge_list());
        assert_eq!(g, g2);
    });
}

/// Edge-list IO round-trips any graph.
#[test]
fn io_roundtrip() {
    cases(CASES, 3, |rng| {
        let (n, edges) = edge_list(rng);
        let g = CsrGraph::from_edges(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(buf.as_slice(), n).unwrap();
        assert_eq!(g, g2);
    });
}

/// Permutations: inverse composes to the identity; relabeling
/// preserves the degree multiset and edge count.
#[test]
fn permutation_properties() {
    cases(CASES, 4, |rng| {
        let (n, edges) = edge_list(rng);
        let seed = rng.below(1000) as u64;
        let g = CsrGraph::from_edges(n, &edges);
        let p = Permutation::random(n, &mut Rng::new(seed));
        assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
        let h = p.apply_to_graph(&g);
        assert_eq!(g.num_edges(), h.num_edges());
        let mut dg: Vec<usize> = (0..n as u32).map(|u| g.degree(u)).collect();
        let mut dh: Vec<usize> = (0..n as u32).map(|u| h.degree(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    });
}

/// Generators are deterministic under a fixed seed and satisfy
/// invariants across their parameter spaces.
#[test]
fn generators_valid_and_deterministic() {
    cases(CASES, 5, |rng| {
        let n = rng.range(10..120);
        let seed = rng.below(500) as u64;
        let retain = rng.range_f64(0.2, 0.6);

        let er = erdos_renyi_gnm(n, n, &mut Rng::new(seed));
        assert!(er.check_invariants().is_ok());
        assert_eq!(er.num_edges(), n);

        let ba = barabasi_albert(n.max(5), 2, &mut Rng::new(seed));
        assert!(ba.check_invariants().is_ok());
        let ba2 = barabasi_albert(n.max(5), 2, &mut Rng::new(seed));
        assert_eq!(ba, ba2);

        let dd = duplication_divergence(n, retain, 0.3, &mut Rng::new(seed));
        assert!(dd.check_invariants().is_ok());
        for u in 0..n as u32 {
            assert!(dd.degree(u) >= 1, "vertex {u} isolated");
        }

        let pl = powerlaw_configuration(n.max(20), 2 * n, 2.5, &mut Rng::new(seed));
        assert!(pl.check_invariants().is_ok());
    });
}

/// Edge budgeting hits the requested count exactly whenever feasible.
#[test]
fn edge_budget_exact() {
    cases(CASES, 6, |rng| {
        let n = rng.range(10..60);
        let seed = rng.below(200) as u64;
        let target_frac = rng.range_f64(0.2, 0.9);
        let max_m = n * (n - 1) / 2;
        let g = erdos_renyi_gnm(n, max_m / 2, &mut Rng::new(seed));
        let target = ((max_m as f64) * target_frac) as usize;
        let h = with_edge_budget(&g, target, &mut Rng::new(seed + 1));
        assert_eq!(h.num_edges(), target);
        assert!(h.check_invariants().is_ok());
    });
}

/// Noise: removal shrinks to the exact count and never invents edges;
/// rewiring preserves the count.
#[test]
fn noise_properties() {
    cases(CASES, 7, |rng| {
        let n = rng.range(10..60);
        let seed = rng.below(200) as u64;
        let frac = rng.range_f64(0.0, 0.9);
        let g = erdos_renyi_gnm(n, n, &mut Rng::new(seed));
        let removed = noise::remove_edges(&g, frac, &mut Rng::new(seed + 1));
        assert!(removed.check_invariants().is_ok());
        assert_eq!(
            removed.num_edges(),
            g.num_edges() - ((g.num_edges() as f64 * frac).floor() as usize)
        );
        for (u, v) in removed.edges() {
            assert!(g.has_edge(u, v));
        }
        let rewired = noise::rewire(&g, frac, &mut Rng::new(seed + 2));
        assert_eq!(rewired.num_edges(), g.num_edges());
    });
}

/// Bipartite graphs: dual-CSR consistency for arbitrary weighted
/// triples, and weight replacement never disturbs topology.
#[test]
fn bipartite_invariants() {
    cases(CASES, 8, |rng| {
        let na = rng.range(1..20);
        let nb = rng.range(1..20);
        let raw: Vec<(u32, u32, f64)> = (0..rng.below(80))
            .map(|_| {
                (
                    rng.below(20) as u32,
                    rng.below(20) as u32,
                    rng.range_f64(0.0, 10.0),
                )
            })
            .collect();
        let triples: Vec<(u32, u32, f64)> = raw
            .into_iter()
            .filter(|&(a, b, _)| (a as usize) < na && (b as usize) < nb)
            .collect();
        let mut l = BipartiteGraph::from_weighted_edges(na, nb, &triples);
        assert!(l.check_invariants().is_ok());
        let m = l.num_edges();
        let new_w = vec![1.0; m];
        l.set_weights(&new_w);
        assert!(l.check_invariants().is_ok());
        assert_eq!(l.num_edges(), m);
        // Degrees sum to the edge count on both sides.
        let da: usize = (0..na as u32).map(|a| l.degree_a(a)).sum();
        let db: usize = (0..nb as u32).map(|b| l.degree_b(b)).sum();
        assert_eq!(da, m);
        assert_eq!(db, m);
    });
}
