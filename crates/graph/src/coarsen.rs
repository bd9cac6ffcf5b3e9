//! Heavy-edge-matching (HEM) graph coarsening — the contraction half of
//! the multilevel (coarsen–align–project–refine) pipeline.
//!
//! CAPER-style multilevel alignment wraps a base aligner: both input
//! graphs are repeatedly contracted, the expensive aligner runs only on
//! the coarsest pair, and the coarse matching is projected back down and
//! refined level by level (the driver lives in the core crate's
//! `multilevel` module). This module provides the contraction:
//!
//! * [`CoarseningHierarchy::build`] runs up to `L` HEM passes. Each pass
//!   computes a maximal matching that greedily prefers *heavy* edges
//!   (edge weights accumulate the multiplicity of collapsed fine edges,
//!   so later passes keep tightly-connected clusters together — the
//!   classic METIS heuristic) and contracts every matched pair into one
//!   coarse vertex.
//! * [`CoarseLevel`] records one contraction: the coarser graph, the
//!   fine→coarse [`CoarseLevel::merge_map`], its inverse
//!   ([`CoarseLevel::children_of`], at most two children per coarse
//!   vertex), and the accumulated edge/vertex weights the next pass and
//!   the refinement stage consume.
//!
//! Everything here is deterministic *and label-free*: the visit order
//! is `(degree, structural key)` and tie-breaks use
//! Weisfeiler–Lehman-style structural hashes rather than vertex ids, so
//! HEM makes the same decisions on isomorphic graphs regardless of how
//! their vertices are numbered (up to genuinely symmetric vertices).
//! This permutation-equivariance is what makes the multilevel wrapper
//! sound on the paper's self-alignment protocol (`B = P(A)`): both
//! hierarchies contract corresponding vertex pairs, so the coarsest
//! graphs are again a permuted pair. Coarsening stops early when a pass
//! stalls (shrink factor worse than [`CoarsenConfig::min_shrink`]) or
//! the graph falls below [`CoarsenConfig::min_vertices`], so the
//! returned depth can be less than the requested `L`.

use crate::csr::CsrGraph;
use crate::VertexId;

/// Sentinel for "not matched" in a HEM pass.
const UNMATCHED: VertexId = VertexId::MAX;

/// Parameters of a coarsening run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoarsenConfig {
    /// Stop coarsening once a graph has at most this many vertices.
    pub min_vertices: usize,
    /// Stop when a pass shrinks the vertex count by less than this
    /// factor (`coarse_n > min_shrink * fine_n` means the pass stalled —
    /// e.g. on a graph that is mostly isolated vertices).
    pub min_shrink: f64,
    /// Seed for the deterministic visit-order shuffle and tie-breaks.
    pub seed: u64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig {
            min_vertices: 32,
            min_shrink: 0.95,
            seed: 0x5eed_c0a2,
        }
    }
}

/// One contraction step: the coarser graph plus the maps and weights
/// linking it to the finer graph it was built from.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: CsrGraph,
    /// For every fine vertex, the coarse vertex it was merged into.
    pub merge_map: Vec<VertexId>,
    /// Accumulated edge weights, aligned with `graph`'s CSR target
    /// array: a coarse edge's weight is the number of (weighted) fine
    /// edges collapsed onto it. Each undirected edge appears twice, once
    /// per direction, with the same weight.
    pub edge_weights: Vec<f64>,
    /// Number of *original* (level-0) vertices inside each coarse vertex.
    pub vertex_weights: Vec<u32>,
    /// CSR offsets of the inverse merge map.
    child_offsets: Vec<usize>,
    /// Fine children of each coarse vertex, grouped by `child_offsets`.
    children: Vec<VertexId>,
}

impl CoarseLevel {
    /// Fine vertices merged into coarse vertex `c` (one or two; sorted).
    pub fn children_of(&self, c: VertexId) -> &[VertexId] {
        &self.children[self.child_offsets[c as usize]..self.child_offsets[c as usize + 1]]
    }
}

/// A stack of [`CoarseLevel`]s: `levels()[0]` contracts the original
/// graph, `levels()[d-1].graph` is the coarsest graph.
#[derive(Clone, Debug)]
pub struct CoarseningHierarchy {
    levels: Vec<CoarseLevel>,
}

impl CoarseningHierarchy {
    /// Coarsens `g` up to `max_levels` times. May stop early (see the
    /// module docs); [`CoarseningHierarchy::depth`] reports how many
    /// contractions actually happened.
    pub fn build(g: &CsrGraph, max_levels: usize, cfg: &CoarsenConfig) -> Self {
        let mut levels: Vec<CoarseLevel> = Vec::new();
        let mut cur = g.clone();
        let mut edge_w: Vec<f64> = vec![1.0; cur.targets().len()];
        let mut vert_w: Vec<u32> = vec![1; cur.num_vertices()];
        for pass in 0..max_levels {
            let n = cur.num_vertices();
            if n <= cfg.min_vertices {
                break;
            }
            let pass_seed = cfg.seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mate = hem_match(&cur, &edge_w, pass_seed);
            let level = contract(&cur, &edge_w, &vert_w, &mate);
            if level.graph.num_vertices() as f64 > cfg.min_shrink * n as f64 {
                break;
            }
            cur = level.graph.clone();
            edge_w = level.edge_weights.clone();
            vert_w = level.vertex_weights.clone();
            levels.push(level);
        }
        CoarseningHierarchy { levels }
    }

    /// Number of contractions performed (0 = the graph was never
    /// coarsened).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// All levels, finest contraction first.
    pub fn levels(&self) -> &[CoarseLevel] {
        &self.levels
    }

    /// The `i`-th contraction (0-based, finest first).
    pub fn level(&self, i: usize) -> &CoarseLevel {
        &self.levels[i]
    }

    /// The coarsest graph, if any contraction happened.
    pub fn coarsest(&self) -> Option<&CsrGraph> {
        self.levels.last().map(|l| &l.graph)
    }
}

/// One HEM pass: returns `mate[v]` (or [`UNMATCHED`]). Vertices are
/// visited in `(degree, structural key)` order — low-degree fringe
/// first — and each unmatched vertex grabs its heaviest unmatched
/// neighbor (ties: smaller structural key, then smaller id).
fn hem_match(g: &CsrGraph, edge_weights: &[f64], seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    let keys = crate::wl::weighted_keys(g, edge_weights, 2, seed);
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by_key(|&v| (g.degree(v), keys[v as usize], v));
    let mut mate = vec![UNMATCHED; n];
    let offsets = g.offsets();
    for &u in &order {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(f64, u64, VertexId)> = None;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if mate[v as usize] != UNMATCHED {
                continue;
            }
            let w = edge_weights[offsets[u as usize] + i];
            let h = keys[v as usize];
            let better = match best {
                None => true,
                Some((bw, bh, bv)) => w > bw || (w == bw && (h < bh || (h == bh && v < bv))),
            };
            if better {
                best = Some((w, h, v));
            }
        }
        if let Some((_, _, v)) = best {
            mate[u as usize] = v;
            mate[v as usize] = u;
        }
    }
    mate
}

/// Contracts `g` along `mate`, summing edge and vertex weights. Coarse
/// ids are assigned in ascending order of the smaller fine endpoint, so
/// the result is independent of the HEM visit order given the same
/// matching.
fn contract(
    g: &CsrGraph,
    edge_weights: &[f64],
    vertex_weights: &[u32],
    mate: &[VertexId],
) -> CoarseLevel {
    let n = g.num_vertices();
    let mut merge_map = vec![UNMATCHED; n];
    let mut coarse_n = 0usize;
    for u in 0..n {
        if merge_map[u] != UNMATCHED {
            continue;
        }
        let c = coarse_n as VertexId;
        coarse_n += 1;
        merge_map[u] = c;
        let m = mate[u];
        if m != UNMATCHED {
            merge_map[m as usize] = c;
        }
    }

    // Coarse edge contributions, each undirected fine edge once (via
    // u < v), in fine-edge visit order. A stable sort by coarse key
    // keeps that order within a key, so each key's weight sums its fine
    // edges in visit order.
    let offsets = g.offsets();
    let mut contrib: Vec<((VertexId, VertexId), f64)> = Vec::new();
    for u in 0..n {
        for (i, &v) in g.neighbors(u as VertexId).iter().enumerate() {
            if (u as VertexId) >= v {
                continue;
            }
            let (cu, cv) = (merge_map[u], merge_map[v as usize]);
            if cu == cv {
                continue; // collapsed internal edge
            }
            contrib.push(((cu.min(cv), cu.max(cv)), edge_weights[offsets[u] + i]));
        }
    }
    contrib.sort_by_key(|&(key, _)| key);
    let mut acc: Vec<((VertexId, VertexId), f64)> = Vec::new();
    for &(key, w) in &contrib {
        match acc.last_mut() {
            Some((last, sum)) if *last == key => *sum += w,
            // Each sum starts from +0.0, so a lone -0.0 weight reads +0.0.
            _ => acc.push((key, 0.0 + w)),
        }
    }
    let pairs: Vec<(VertexId, VertexId)> = acc.iter().map(|&(key, _)| key).collect();
    let graph = CsrGraph::from_edges(coarse_n, &pairs);

    // Weights aligned to the coarse CSR (both directions), by a counting
    // pass: keys ascend, so coarse vertex c meets its smaller neighbors
    // (keys (x, c), x ascending) before its larger ones (keys (c, y)),
    // which is its sorted CSR order.
    let mut cursor = graph.offsets()[..coarse_n].to_vec();
    let mut cw = vec![0.0; graph.targets().len()];
    for &((cu, cv), w) in &acc {
        for c in [cu, cv] {
            cw[cursor[c as usize]] = w;
            cursor[c as usize] += 1;
        }
    }

    let mut vw = vec![0u32; coarse_n];
    for u in 0..n {
        vw[merge_map[u] as usize] += vertex_weights[u];
    }

    // Inverse map as CSR (counting sort; children come out sorted).
    let mut child_offsets = vec![0usize; coarse_n + 1];
    for &c in &merge_map {
        child_offsets[c as usize + 1] += 1;
    }
    for i in 0..coarse_n {
        child_offsets[i + 1] += child_offsets[i];
    }
    let mut cursor = child_offsets.clone();
    let mut children = vec![0 as VertexId; n];
    for (u, &c) in merge_map.iter().enumerate() {
        children[cursor[c as usize]] = u as VertexId;
        cursor[c as usize] += 1;
    }

    CoarseLevel {
        graph,
        merge_map,
        edge_weights: cw,
        vertex_weights: vw,
        child_offsets,
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi_gnm;
    use cualign_rt::Rng;

    fn er(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = Rng::new(seed);
        erdos_renyi_gnm(n, m, &mut rng)
    }

    fn check_level(fine: &CsrGraph, level: &CoarseLevel) {
        let cn = level.graph.num_vertices();
        assert!(level.graph.check_invariants().is_ok());
        assert_eq!(level.merge_map.len(), fine.num_vertices());
        // merge_map is onto [0, cn) and consistent with children_of.
        for (u, &c) in level.merge_map.iter().enumerate() {
            assert!((c as usize) < cn);
            assert!(level.children_of(c).contains(&(u as VertexId)));
        }
        let mut total_children = 0usize;
        for c in 0..cn as VertexId {
            let kids = level.children_of(c);
            assert!(
                !kids.is_empty() && kids.len() <= 2,
                "HEM merges at most pairs"
            );
            total_children += kids.len();
        }
        assert_eq!(total_children, fine.num_vertices());
        // Edge weights align with the CSR and conserve total weight:
        // every fine edge is either internal or contributes to exactly
        // one coarse edge.
        assert_eq!(level.edge_weights.len(), level.graph.targets().len());
        assert!(level.edge_weights.iter().all(|&w| w >= 1.0));
    }

    #[test]
    fn er_graph_roughly_halves_per_level() {
        let g = er(600, 1800, 1);
        let h = CoarseningHierarchy::build(&g, 3, &CoarsenConfig::default());
        assert_eq!(h.depth(), 3);
        let mut prev = g.num_vertices();
        for level in h.levels() {
            let cn = level.graph.num_vertices();
            assert!(cn >= prev / 2, "HEM can at best halve: {cn} < {prev}/2");
            assert!(
                (cn as f64) < 0.75 * prev as f64,
                "poor shrink: {cn} of {prev}"
            );
            prev = cn;
        }
        check_level(&g, h.level(0));
        for i in 1..h.depth() {
            let fine = &h.level(i - 1).graph;
            check_level(fine, h.level(i));
        }
    }

    #[test]
    fn weight_totals_are_conserved_or_collapsed() {
        let g = er(200, 600, 2);
        let h = CoarseningHierarchy::build(&g, 2, &CoarsenConfig::default());
        // Level 0: fine edge weight total is |E|; the coarse total plus
        // the collapsed (internal) weight must equal it.
        let level = h.level(0);
        let coarse_total: f64 = level.edge_weights.iter().sum::<f64>() / 2.0;
        let internal: usize = g
            .edges()
            .filter(|&(u, v)| level.merge_map[u as usize] == level.merge_map[v as usize])
            .count();
        assert_eq!(coarse_total + internal as f64, g.num_edges() as f64);
        // Vertex weights always sum to the original vertex count.
        for level in h.levels() {
            let vsum: u32 = level.vertex_weights.iter().sum();
            assert_eq!(vsum as usize, g.num_vertices());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = er(300, 900, 3);
        let cfg = CoarsenConfig::default();
        let h1 = CoarseningHierarchy::build(&g, 3, &cfg);
        let h2 = CoarseningHierarchy::build(&g, 3, &cfg);
        assert_eq!(h1.depth(), h2.depth());
        for (a, b) in h1.levels().iter().zip(h2.levels()) {
            assert_eq!(a.merge_map, b.merge_map);
            assert_eq!(a.edge_weights, b.edge_weights);
            assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        }
        // A different seed picks a different matching on a graph this size.
        let other = CoarseningHierarchy::build(&g, 3, &CoarsenConfig { seed: 7, ..cfg });
        assert!(other
            .levels()
            .iter()
            .zip(h1.levels())
            .any(|(x, y)| x.merge_map != y.merge_map));
    }

    #[test]
    fn respects_min_vertices_floor() {
        let g = er(100, 300, 4);
        let cfg = CoarsenConfig {
            min_vertices: 40,
            ..CoarsenConfig::default()
        };
        let h = CoarseningHierarchy::build(&g, 10, &cfg);
        for level in h.levels().iter().rev().skip(1) {
            assert!(level.graph.num_vertices() > 40);
        }
        // The coarsest level is the first to dip to (or below) the floor.
        let coarsest = h.coarsest().expect("at least one level");
        assert!(coarsest.num_vertices() >= 20, "HEM at most halves");
    }

    #[test]
    fn tiny_graph_does_not_coarsen() {
        let g = er(20, 40, 5);
        let h = CoarseningHierarchy::build(&g, 3, &CoarsenConfig::default());
        assert_eq!(h.depth(), 0);
        assert!(h.coarsest().is_none());
    }

    #[test]
    fn path_graph_contracts_to_matched_pairs() {
        // 0-1-2-3: all edge weights 1, so HEM matches disjoint pairs and
        // the coarse graph is a single edge between two 2-vertex blobs.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cfg = CoarsenConfig {
            min_vertices: 1,
            ..CoarsenConfig::default()
        };
        let h = CoarseningHierarchy::build(&g, 1, &cfg);
        assert_eq!(h.depth(), 1);
        let level = h.level(0);
        assert_eq!(level.graph.num_vertices(), 2);
        assert_eq!(level.graph.num_edges(), 1);
        assert_eq!(level.vertex_weights, vec![2, 2]);
        // The surviving coarse edge carries the one uncollapsed fine edge.
        assert_eq!(level.edge_weights, vec![1.0, 1.0]);
    }

    #[test]
    fn heavy_edges_are_preferred() {
        // Triangle 0-1-2 plus pendant 3 on vertex 2. After one level the
        // pair containing the triangle edge with accumulated weight gets
        // kept together on the next pass.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]);
        let cfg = CoarsenConfig {
            min_vertices: 1,
            ..CoarsenConfig::default()
        };
        let h = CoarseningHierarchy::build(&g, 2, &cfg);
        assert!(h.depth() >= 1);
        // Whatever the matching, weights must accumulate: some coarse
        // edge at level 0 has weight >= 1 and totals are conserved.
        let level = h.level(0);
        let total: f64 = level.edge_weights.iter().sum::<f64>() / 2.0;
        assert!((1.0..=5.0).contains(&total));
    }

    /// [`contract`]'s coarse edge weights as first written: a map keyed
    /// by coarse pair, summed in fine-edge visit order, then read off in
    /// the coarse CSR's order.
    fn reference_weights(
        g: &CsrGraph,
        w: &[f64],
        merge_map: &[VertexId],
        coarse: &CsrGraph,
    ) -> Vec<f64> {
        let offsets = g.offsets();
        let mut acc: std::collections::BTreeMap<(VertexId, VertexId), f64> = Default::default();
        for u in 0..g.num_vertices() {
            for (i, &v) in g.neighbors(u as VertexId).iter().enumerate() {
                let (cu, cv) = (merge_map[u], merge_map[v as usize]);
                if (u as VertexId) < v && cu != cv {
                    *acc.entry((cu.min(cv), cu.max(cv))).or_insert(0.0) += w[offsets[u] + i];
                }
            }
        }
        let keys: Vec<(VertexId, VertexId)> = acc.keys().copied().collect();
        assert_eq!(coarse, &CsrGraph::from_edges(coarse.num_vertices(), &keys));
        (0..coarse.num_vertices() as VertexId)
            .flat_map(|cu| coarse.neighbors(cu).iter().map(move |&cv| (cu, cv)))
            .map(|(cu, cv)| acc[&(cu.min(cv), cu.max(cv))])
            .collect()
    }

    #[test]
    fn contract_sums_weights_like_a_map_in_visit_order() {
        for seed in 0..6u64 {
            let g = er(400, 1600 + 300 * seed as usize, 20 + seed);
            // Symmetric, non-integer fine weights, so the order of each
            // coarse edge's sum is observable in its bits.
            let w: Vec<f64> = (0..g.num_vertices() as VertexId)
                .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u.min(v), u.max(v))))
                .map(|(x, y)| {
                    0.1 + (((x as u64 * 2_654_435_761) ^ (y as u64 * 40_503)) % 1000) as f64
                        * 0.0137
                })
                .collect();
            let vw = vec![1u32; g.num_vertices()];
            let mate = hem_match(&g, &w, seed);
            let level = contract(&g, &w, &vw, &mate);
            let want = reference_weights(&g, &w, &level.merge_map, &level.graph);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&level.edge_weights), bits(&want), "seed {seed}");
            // Two levels deep: the second contraction sums non-integer sums.
            let mate2 = hem_match(&level.graph, &level.edge_weights, seed + 1);
            let level2 = contract(
                &level.graph,
                &level.edge_weights,
                &level.vertex_weights,
                &mate2,
            );
            let want2 = reference_weights(
                &level.graph,
                &level.edge_weights,
                &level2.merge_map,
                &level2.graph,
            );
            assert_eq!(
                bits(&level2.edge_weights),
                bits(&want2),
                "seed {seed}, level 2"
            );
        }
    }
}
