//! One-sided Suitor matching: Gale–Shapley deferred acceptance on the
//! bipartite graph `L`, after Manne & Halappanavar's Suitor algorithm.
//!
//! Only A-side vertices propose. Each proposes along its best
//! *acceptable* incident edge: a strictly positive weight (which also
//! excludes NaN) that beats the B endpoint's current suitor under the
//! crate preference order [`prefer`](crate::prefer). A B vertex keeps
//! only its best proposal; the A vertex it displaces proposes again.
//! The matching is the set of held proposals.
//!
//! Preferences derived from one strict total edge order make the stable
//! matching unique, and it is the greedy matching — which is also the
//! locally dominant one. So this computes **exactly** the matching of
//! [`crate::locally_dominant_serial`] (the pinned oracle), while each
//! step scans one contiguous A-side CSR row instead of recomputing
//! candidates on both sides: B-side hubs never rescan their edges.
//! It is the production rounding matcher of the BP loop and of the
//! multilevel repair pass.

use crate::matching::Matching;
use cualign_graph::{BipartiteGraph, EdgeId, VertexId};

const EDGE_NONE: EdgeId = EdgeId::MAX;

/// Computes the locally dominant matching of `l` by one-sided Suitor.
/// Only strictly positive edge weights are eligible.
pub fn suitor_matching(l: &BipartiteGraph) -> Matching {
    let w = l.weights();
    // held[b] = id of the proposal b currently holds, held_w[b] its
    // weight (0 while b holds none, so a positive proposal always wins).
    let mut held: Vec<EdgeId> = vec![EDGE_NONE; l.nb()];
    let mut held_w: Vec<f64> = vec![0.0; l.nb()];
    let mut proposals: u64 = 0;
    for first in 0..l.na() {
        let mut a = first;
        loop {
            // Edge ids ascend within an A-side row (`BipartiteGraph`
            // numbers its edges in (a, b) order), so among equal weights
            // the first edge seen is the preferred one and a strict `>`
            // keeps it. Starting `best_w` at 0 makes the same
            // test reject non-positive and NaN weights.
            let (mut best, mut best_b, mut best_w) = (EDGE_NONE, 0, 0.0);
            let a_id = a as VertexId;
            for (&e, &b) in l.row_a(a_id).iter().zip(l.targets_a(a_id)) {
                let we = w[e as usize];
                if we > best_w {
                    let (hw, b) = (held_w[b as usize], b as usize);
                    if we > hw || (we == hw && e < held[b]) {
                        (best, best_b, best_w) = (e, b, we);
                    }
                }
            }
            if best == EDGE_NONE {
                break; // a stays unmatched
            }
            proposals += 1;
            held_w[best_b] = best_w;
            let displaced = std::mem::replace(&mut held[best_b], best);
            if displaced == EDGE_NONE {
                break;
            }
            // An edge only ever loses acceptability, so the displaced
            // vertex rescans its row for its next-best option.
            a = l.edge(displaced).a as usize;
        }
    }
    let tele = cualign_telemetry::current();
    tele.counter("matching.runs").inc();
    tele.counter("matching.proposals").add(proposals);
    let chosen = held.into_iter().filter(|&e| e != EDGE_NONE).collect();
    Matching::from_edge_ids(l, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locally_dominant::locally_dominant_serial;
    use crate::parallel::locally_dominant_parallel;
    use cualign_rt::Rng;

    fn random_l(na: usize, nb: usize, m: usize, seed: u64) -> BipartiteGraph {
        let mut rng = Rng::new(seed);
        let triples: Vec<(VertexId, VertexId, f64)> = (0..m)
            .map(|_| {
                (
                    rng.below(na) as VertexId,
                    rng.below(nb) as VertexId,
                    rng.f64(),
                )
            })
            .collect();
        BipartiteGraph::from_weighted_edges(na, nb, &triples)
    }

    #[test]
    fn agrees_with_locally_dominant() {
        for seed in 0..20 {
            let l = random_l(40, 40, 300, seed);
            let suitor = suitor_matching(&l);
            let ld = locally_dominant_serial(&l);
            assert_eq!(suitor, ld, "divergence at seed {seed}");
        }
    }

    #[test]
    fn agrees_under_ties() {
        let mut rng = Rng::new(9);
        let triples: Vec<(VertexId, VertexId, f64)> = (0..150)
            .map(|_| (rng.below(15) as u32, rng.below(15) as u32, 1.0))
            .collect();
        let l = BipartiteGraph::from_weighted_edges(15, 15, &triples);
        assert_eq!(suitor_matching(&l), locally_dominant_parallel(&l));
    }

    #[test]
    fn displacement_chain() {
        // B0 receives successively better proposals; displaced vertices
        // must re-propose and settle correctly.
        let l = BipartiteGraph::from_weighted_edges(
            3,
            2,
            &[
                (0, 0, 1.0),
                (1, 0, 2.0),
                (2, 0, 3.0),
                (0, 1, 0.9),
                (1, 1, 0.8),
            ],
        );
        let m = suitor_matching(&l);
        assert_eq!(m.mate_of_b(0), Some(2), "heaviest proposal wins B0");
        // Displaced A1/A0 compete for B1: A0's 0.9 beats A1's 0.8.
        assert_eq!(m.mate_of_b(1), Some(0));
        assert_eq!(m, locally_dominant_serial(&l));
    }

    #[test]
    fn equal_weight_displacement_follows_edge_ids() {
        // Edge ids: 0 = (A0,B0), 1 = (A0,B1), 2 = (A1,B1), 3 = (A2,B0).
        // A2 displaces A0 from B0; A0 then ties A1's hold on B1 and wins
        // it on edge id (1 < 2), leaving A1 unmatched.
        let l = BipartiteGraph::from_weighted_edges(
            3,
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 0, 2.0)],
        );
        let m = suitor_matching(&l);
        assert_eq!(m.mate_of_b(0), Some(2));
        assert_eq!(m.mate_of_b(1), Some(0));
        assert_eq!(m.mate_of_a(1), None);
        assert_eq!(m, locally_dominant_serial(&l));
    }

    #[test]
    fn skips_nonpositive_and_empty() {
        let l = BipartiteGraph::from_weighted_edges(
            3,
            3,
            &[(0, 0, -1.0), (1, 1, 0.0), (2, 2, f64::NAN)],
        );
        assert!(suitor_matching(&l).is_empty());
        let empty = BipartiteGraph::from_weighted_edges(3, 3, &[]);
        assert!(suitor_matching(&empty).is_empty());
    }
}
