//! Parallel locally-dominant matching — the two-queue algorithm of §4.3.
//!
//! Khan et al.'s formulation alternates between a *current* queue `Q_C` of
//! vertices matched in the previous round and a *next* queue `Q_N` being
//! filled in the current round, so reads and writes never contend. Each
//! round:
//!
//! 1. the unmatched neighbors of `Q_C` whose candidate pointer was
//!    invalidated recompute their candidates (in parallel),
//! 2. mutual candidate pairs are committed (they are automatically
//!    vertex-disjoint: a vertex has exactly one candidate), and
//! 3. the endpoints of the committed edges become `Q_N`.
//!
//! Bipartiteness gives a free dedup rule: every edge has exactly one A-side
//! endpoint, so only the A-side thread reports a mutual pair.
//!
//! Because the crate preference order is strictly total, the locally
//! dominant matching is **unique** — this function returns bit-identically
//! the same matching as [`crate::locally_dominant_serial`] regardless of
//! thread schedule (pinned by tests and by the GPU-simulator consistency
//! suite).

use crate::matching::Matching;
use crate::prefer;
use cualign_graph::{BipartiteGraph, EdgeId, VertexId};
use cualign_rt::par;

const EDGE_NONE: EdgeId = EdgeId::MAX;

/// Vertices per parallel run: each costs one scan of its incident
/// edges, so fewer than this do not pay for a thread.
const MIN_VERTICES: usize = 2048;

/// Execution statistics of a parallel matching run, for the benches and
/// the GPU model (which charges per round).
#[derive(Clone, Debug, Default)]
pub struct MatchStats {
    /// Queue-driven rounds after the initial pointer phase.
    pub rounds: usize,
    /// Total candidate recomputations across all rounds.
    pub recomputations: usize,
    /// Per-round breakdown, in execution order.
    pub detail: Vec<RoundDetail>,
}

/// What one queue round did — the unit of work the GPU model charges.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundDetail {
    /// Edges committed this round.
    pub matched: usize,
    /// Vertices whose candidate was recomputed.
    pub recomputed: usize,
    /// Sum of the degrees of those vertices (the round's scan volume).
    pub recomputed_degree_sum: usize,
}

#[inline]
fn other_gv(l: &BipartiteGraph, e: EdgeId, gv: usize) -> usize {
    let le = l.edge(e);
    let ga = le.a as usize;
    let gb = l.na() + le.b as usize;
    if gv == ga {
        gb
    } else {
        ga
    }
}

/// Best eligible edge for global vertex `gv` (positive weight, opposite
/// endpoint unmatched), or `EDGE_NONE`.
fn compute_candidate(l: &BipartiteGraph, matched: &[bool], gv: usize) -> EdgeId {
    let na = l.na();
    let mut best = EDGE_NONE;
    let mut consider = |e: EdgeId, other: usize| {
        // NaN-weighted edges are excluded along with non-positive ones.
        let w = l.weights()[e as usize];
        if w <= 0.0 || w.is_nan() || matched[other] {
            return;
        }
        if best == EDGE_NONE || prefer(l, e, best) {
            best = e;
        }
    };
    if gv < na {
        for (b, e) in l.incident_a(gv as VertexId) {
            consider(e, na + b as usize);
        }
    } else {
        for (a, e) in l.incident_b((gv - na) as VertexId) {
            consider(e, a as usize);
        }
    }
    best
}

/// Computes the locally dominant matching of `l` with the two-queue
/// parallel algorithm. See [`locally_dominant_parallel_with_stats`] for the
/// round/recomputation counters.
pub fn locally_dominant_parallel(l: &BipartiteGraph) -> Matching {
    locally_dominant_parallel_with_stats(l).0
}

/// As [`locally_dominant_parallel`], also returning [`MatchStats`].
pub fn locally_dominant_parallel_with_stats(l: &BipartiteGraph) -> (Matching, MatchStats) {
    let na = l.na();
    let nv = na + l.nb();
    let mut matched = vec![false; nv];
    let mut cand: Vec<EdgeId> = vec![EDGE_NONE; nv];
    par::map(&mut cand, MIN_VERTICES, |gv| {
        compute_candidate(l, &matched, gv)
    });
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut stats = MatchStats {
        rounds: 0,
        recomputations: nv,
        detail: Vec::new(),
    };

    // Initial pointer phase: commit every mutual pair. A-side reports.
    let mut newly: Vec<EdgeId> = par::flat_map(na, MIN_VERTICES, |a, out| {
        let e = cand[a];
        if e != EDGE_NONE && cand[na + l.edge(e).b as usize] == e {
            out.push(e);
        }
    });

    // Queue-driven rounds.
    while !newly.is_empty() {
        stats.rounds += 1;
        // Commit this round's edges and build Q_C from their endpoints.
        let mut qc: Vec<usize> = Vec::with_capacity(newly.len() * 2);
        for &e in &newly {
            let le = l.edge(e);
            let (ga, gb) = (le.a as usize, na + le.b as usize);
            debug_assert!(!matched[ga] && !matched[gb]);
            matched[ga] = true;
            matched[gb] = true;
            chosen.push(e);
            qc.push(ga);
            qc.push(gb);
        }

        // Affected vertices: unmatched neighbors of Q_C whose candidate
        // points at a vertex that just got matched.
        let stale = |w: usize| {
            let e = cand[w];
            !matched[w] && e != EDGE_NONE && matched[other_gv(l, e, w)]
        };
        let mut affected: Vec<usize> = par::flat_map(qc.len(), MIN_VERTICES, |k, out| {
            let gv = qc[k];
            if gv < na {
                let nbrs = l.incident_a(gv as VertexId).map(|(b, _)| na + b as usize);
                out.extend(nbrs.filter(|&w| stale(w)));
            } else {
                let nbrs = l.incident_b((gv - na) as VertexId).map(|(a, _)| a as usize);
                out.extend(nbrs.filter(|&w| stale(w)));
            }
        });
        affected.sort_unstable();
        affected.dedup();
        stats.recomputations += affected.len();
        let degree_of = |gv: usize| {
            if gv < na {
                l.degree_a(gv as VertexId)
            } else {
                l.degree_b((gv - na) as VertexId)
            }
        };
        stats.detail.push(RoundDetail {
            matched: newly.len(),
            recomputed: affected.len(),
            recomputed_degree_sum: affected.iter().map(|&w| degree_of(w)).sum(),
        });

        // Recompute candidates for the affected set, then publish.
        let mut fresh: Vec<(usize, EdgeId)> = vec![(0, EDGE_NONE); affected.len()];
        par::map(&mut fresh, MIN_VERTICES, |k| {
            let w = affected[k];
            (w, compute_candidate(l, &matched, w))
        });
        for &(w, e) in &fresh {
            cand[w] = e;
        }

        // Mutual pairs among vertices with live candidates. Only pairs
        // where at least one side was just recomputed can be new, and the
        // A-side endpoint reports, so scan affected ∪ their candidates'
        // A-endpoints — conservatively: scan the A-endpoints of all fresh
        // candidate edges.
        let mut check: Vec<usize> = fresh
            .iter()
            .filter(|&&(_, e)| e != EDGE_NONE)
            .map(|&(_, e)| l.edge(e).a as usize)
            .collect();
        check.sort_unstable();
        check.dedup();
        newly = par::flat_map(check.len(), MIN_VERTICES, |k, out| {
            let a = check[k];
            let e = cand[a];
            if matched[a] || e == EDGE_NONE {
                return;
            }
            let b_gv = na + l.edge(e).b as usize;
            if !matched[b_gv] && cand[b_gv] == e {
                out.push(e);
            }
        });
        newly.sort_unstable();
        newly.dedup();
    }

    let tele = cualign_telemetry::current();
    tele.counter("matching.runs").inc();
    tele.counter("matching.rounds").add(stats.rounds as u64);
    tele.counter("matching.recomputations")
        .add(stats.recomputations as u64);
    (Matching::from_edge_ids(l, chosen), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locally_dominant::locally_dominant_serial;
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
    fn matches_serial_on_random_instances() {
        for seed in 0..15 {
            let l = random_l(50, 50, 400, seed);
            let serial = locally_dominant_serial(&l);
            let parallel = locally_dominant_parallel(&l);
            assert_eq!(serial, parallel, "divergence at seed {seed}");
        }
    }

    #[test]
    fn matches_serial_with_ties() {
        // All weights equal: tie-breaking alone decides everything.
        let mut rng = Rng::new(7);
        let triples: Vec<(VertexId, VertexId, f64)> = (0..200)
            .map(|_| (rng.below(20) as u32, rng.below(20) as u32, 1.0))
            .collect();
        let l = BipartiteGraph::from_weighted_edges(20, 20, &triples);
        assert_eq!(locally_dominant_serial(&l), locally_dominant_parallel(&l));
    }

    #[test]
    fn valid_and_maximal() {
        let l = random_l(100, 80, 900, 99);
        let (m, stats) = locally_dominant_parallel_with_stats(&l);
        m.check_valid(&l).unwrap();
        assert!(m.is_maximal(&l));
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn chain_instance() {
        // The cascade from the serial tests must round through the queues.
        let l = BipartiteGraph::from_weighted_edges(
            3,
            3,
            &[
                (0, 0, 3.0),
                (1, 0, 2.5),
                (1, 1, 2.0),
                (2, 1, 1.5),
                (2, 2, 1.0),
            ],
        );
        let (m, stats) = locally_dominant_parallel_with_stats(&l);
        assert_eq!(m.len(), 3);
        assert!(stats.rounds >= 2, "cascade must need multiple rounds");
    }

    #[test]
    fn empty_and_nonpositive() {
        let l = BipartiteGraph::from_weighted_edges(4, 4, &[(0, 0, -3.0), (1, 1, 0.0)]);
        let m = locally_dominant_parallel(&l);
        assert!(m.is_empty());
    }

    #[test]
    fn skewed_degree_instance() {
        // One hub on each side touching everything — stress the affected-set
        // bookkeeping.
        let mut triples = Vec::new();
        for i in 0..50u32 {
            triples.push((0, i, 1.0 + i as f64));
            triples.push((i, 0, 2.0 + i as f64));
        }
        let l = BipartiteGraph::from_weighted_edges(50, 50, &triples);
        let serial = locally_dominant_serial(&l);
        let parallel = locally_dominant_parallel(&l);
        assert_eq!(serial, parallel);
    }
}
