//! Property-based tests for the overlap matrix `S`: agreement with the
//! definitional brute force and the structural-symmetry/involution
//! invariants, over random graph pairs and random `L`.

use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::{BipartiteGraph, CsrGraph, EdgeId, Permutation};
use cualign_overlap::OverlapMatrix;
use cualign_rt::check::cases;
use cualign_rt::Rng;

const CASES: u32 = 64;

/// Random instance: graphs A, B on ≤ 14 vertices and a random candidate
/// graph L.
fn instance(rng: &mut Rng) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let n = rng.range(3..14);
    let seed = rng.below(5000) as u64;
    let triples: Vec<(u32, u32, f64)> = (0..rng.range(1..50))
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32, 1.0))
        .collect();
    let mut graphs = Rng::new(seed);
    let a = erdos_renyi_gnm(n, n.min(n * (n - 1) / 2), &mut graphs);
    let b = erdos_renyi_gnm(n, n.min(n * (n - 1) / 2), &mut graphs);
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

/// S equals the brute-force definition: S[e][e'] = 1 iff the A
/// endpoints are adjacent in A and the B endpoints adjacent in B.
#[test]
fn matches_definition() {
    cases(CASES, 1, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        assert!(s.check_invariants().is_ok());
        for e in 0..l.num_edges() as u32 {
            for e2 in 0..l.num_edges() as u32 {
                let le = l.edge(e);
                let le2 = l.edge(e2);
                let want = a.has_edge(le.a, le2.a) && b.has_edge(le.b, le2.b);
                assert_eq!(s.overlaps(e, e2), want, "entry ({e}, {e2})");
            }
        }
    });
}

/// The transpose permutation is an involution mapping every nonzero to
/// its mirror, and the diagonal is empty (simple graphs).
#[test]
fn perm_involution_and_no_diagonal() {
    cases(CASES, 2, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        let perm = s.transpose_perm();
        for j in 0..s.nnz() {
            assert_eq!(perm[perm[j] as usize] as usize, j);
        }
        for e in 0..l.num_edges() as u32 {
            assert!(!s.overlaps(e, e));
        }
    });
}

/// The ground-truth matching on a permuted pair conserves exactly
/// |E_A| edges when L contains the full truth diagonal.
#[test]
fn truth_conserves_everything() {
    cases(CASES, 3, |rng| {
        let n = rng.range(4..16);
        let mut rng = Rng::new(rng.below(5000) as u64);
        let a = erdos_renyi_gnm(n, (n * 3 / 2).min(n * (n - 1) / 2), &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let triples: Vec<(u32, u32, f64)> = (0..n as u32).map(|i| (i, p.apply(i), 1.0)).collect();
        let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        let all: Vec<EdgeId> = (0..l.num_edges() as EdgeId).collect();
        assert_eq!(s.count_matched_overlaps(&all), a.num_edges());
    });
}

/// Overlap counting is monotone: adding edges to the counted set never
/// decreases the count.
#[test]
fn mask_monotonicity() {
    cases(CASES, 4, |rng| {
        let (a, b, l) = instance(rng);
        let flips: Vec<bool> = (0..rng.range(1..50)).map(|_| rng.bool(0.5)).collect();
        let s = OverlapMatrix::build(&a, &b, &l);
        let m = l.num_edges();
        let small: Vec<EdgeId> = (0..flips.len().min(m))
            .filter(|&i| flips[i])
            .map(|i| i as EdgeId)
            .collect();
        let big: Vec<EdgeId> = (0..m as EdgeId).collect();
        assert!(s.count_matched_overlaps(&small) <= s.count_matched_overlaps(&big));
    });
}
