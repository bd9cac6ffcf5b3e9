//! Property-based tests for the matchers: the approximation guarantee,
//! serial/parallel equivalence, validity, and maximality on arbitrary
//! weighted bipartite graphs.

use cualign_graph::BipartiteGraph;
use cualign_matching::{
    greedy_matching, hungarian_matching, locally_dominant_parallel, locally_dominant_reference,
    locally_dominant_serial, suitor_matching,
};
use cualign_rt::check::cases;
use cualign_rt::Rng;

const CASES: u32 = 256;

/// An arbitrary weighted bipartite graph, including negative and zero
/// weights and duplicate pairs.
fn bipartite(rng: &mut Rng) -> BipartiteGraph {
    let (na, nb) = (rng.range(1..12), rng.range(1..12));
    let triples: Vec<(u32, u32, f64)> = (0..rng.below(60))
        .map(|_| {
            (
                rng.below(na) as u32,
                rng.below(nb) as u32,
                rng.range_f64(-2.0, 8.0),
            )
        })
        .collect();
    BipartiteGraph::from_weighted_edges(na, nb, &triples)
}

/// Every matcher returns a valid matching; the heuristics are maximal
/// over positive edges.
#[test]
fn matchers_valid_and_maximal() {
    cases(CASES, 1, |rng| {
        let l = bipartite(rng);
        for (name, m) in [
            ("serial", locally_dominant_serial(&l)),
            ("parallel", locally_dominant_parallel(&l)),
            ("greedy", greedy_matching(&l)),
            ("suitor", suitor_matching(&l)),
            ("hungarian", hungarian_matching(&l)),
        ] {
            assert!(m.check_valid(&l).is_ok(), "{name} invalid");
            if name != "hungarian" {
                assert!(m.is_maximal(&l), "{name} not maximal");
            }
        }
    });
}

/// The locally dominant matching is unique under the total preference
/// order, so the three ½-approx algorithms coincide exactly.
#[test]
fn heuristics_coincide() {
    cases(CASES, 2, |rng| {
        let l = bipartite(rng);
        let serial = locally_dominant_serial(&l);
        assert_eq!(&serial, &locally_dominant_parallel(&l));
        assert_eq!(&serial, &greedy_matching(&l));
        assert_eq!(&serial, &suitor_matching(&l));
    });
}

/// A weight from one of the regimes the rounding step can meet: all
/// equal (ties decided by edge id alone), a coarse grid with zeros and
/// negatives (many ties, some ineligible), NaN among positives, or
/// distinct reals.
fn regime_weight(regime: usize, rng: &mut Rng) -> f64 {
    match regime {
        0 => 1.0,
        1 => rng.below(5) as f64 - 1.0,
        2 if rng.bool(0.2) => f64::NAN,
        _ => rng.range_f64(-0.5, 4.0),
    }
}

/// `L` with possibly unequal or empty sides, weights from one regime,
/// and with probability ½ a B-side hub adjacent to every A vertex.
fn rounding_input(rng: &mut Rng) -> BipartiteGraph {
    let (na, nb) = (rng.range(0..14), rng.range(0..14));
    let regime = rng.below(4);
    let mut triples: Vec<(u32, u32, f64)> = Vec::new();
    if na > 0 && nb > 0 {
        for _ in 0..rng.below(80) {
            let (a, b) = (rng.below(na) as u32, rng.below(nb) as u32);
            triples.push((a, b, regime_weight(regime, rng)));
        }
        if rng.bool(0.5) {
            let hub = rng.below(nb) as u32;
            for a in 0..na as u32 {
                triples.push((a, hub, regime_weight(regime, rng)));
            }
        }
    }
    BipartiteGraph::from_weighted_edges(na, nb, &triples)
}

/// The production matcher is pinned to the oracle: one-sided Suitor,
/// the serial locally dominant reference, greedy and the parallel
/// two-queue matcher return the same matching on ties, zero, negative
/// and NaN weights, unequal and empty sides, and B-side hubs.
#[test]
fn suitor_matches_locally_dominant_reference() {
    cases(CASES, 7, |rng| {
        let l = rounding_input(rng);
        let reference = locally_dominant_reference(&l);
        let suitor = suitor_matching(&l);
        assert_eq!(suitor, reference, "suitor vs reference");
        assert_eq!(suitor, greedy_matching(&l), "suitor vs greedy");
        assert_eq!(suitor, locally_dominant_parallel(&l), "suitor vs parallel");
        assert!(suitor.is_maximal(&l));
    });
}

/// Half-approximation against the exact oracle, and the oracle
/// dominates all heuristics.
#[test]
fn half_approximation_certified() {
    cases(CASES, 3, |rng| {
        let l = bipartite(rng);
        let opt = hungarian_matching(&l).weight(&l);
        let heur = locally_dominant_serial(&l).weight(&l);
        assert!(heur <= opt + 1e-9, "heuristic beat the optimum");
        assert!(
            heur >= 0.5 * opt - 1e-9,
            "below 1/2-approx: {heur} vs {opt}"
        );
    });
}

/// No matcher ever selects a non-positive edge.
#[test]
fn no_nonpositive_edges_matched() {
    cases(CASES, 4, |rng| {
        let l = bipartite(rng);
        for m in [
            locally_dominant_serial(&l),
            locally_dominant_parallel(&l),
            greedy_matching(&l),
            suitor_matching(&l),
            hungarian_matching(&l),
        ] {
            for &e in m.edge_ids() {
                assert!(l.weights()[e as usize] > 0.0);
            }
        }
    });
}

/// Scaling all weights by a positive constant leaves the locally
/// dominant matching unchanged (the preference order is invariant).
#[test]
fn matching_is_scale_invariant() {
    cases(CASES, 5, |rng| {
        let l = bipartite(rng);
        let scale = rng.range_f64(0.1, 10.0);
        let base = locally_dominant_serial(&l);
        let mut scaled = l.clone();
        let w: Vec<f64> = l.weights().iter().map(|x| x * scale).collect();
        scaled.set_weights(&w);
        assert_eq!(base, locally_dominant_serial(&scaled));
    });
}

/// Matching size is bounded by min(na, nb) and by the edge count.
#[test]
fn size_bounds() {
    cases(CASES, 6, |rng| {
        let l = bipartite(rng);
        let m = locally_dominant_serial(&l);
        assert!(m.len() <= l.na().min(l.nb()));
        assert!(m.len() <= l.num_edges());
    });
}

/// The two-queue matcher splits its candidate and commit passes across
/// threads on large inputs; the matching is the same at 1, 2 and 4
/// threads (and equals the serial one).
#[test]
fn parallel_matching_is_identical_at_every_thread_count() {
    let n = 6000usize;
    let mut rng = Rng::new(17);
    let triples: Vec<(u32, u32, f64)> = (0..8 * n)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32, rng.f64()))
        .collect();
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    let serial = locally_dominant_serial(&l);
    for t in [1, 2, 4] {
        let m = cualign_rt::par::with_threads(t, || locally_dominant_parallel(&l));
        assert_eq!(m, serial, "{t} threads");
    }
}
