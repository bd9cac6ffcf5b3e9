//! Pins the two-phase masked-SpGEMM `OverlapMatrix::build` to the
//! original serial `build_reference` — exact equality of the full CSR
//! (row offsets, column indices), not just nnz — and the counting-pass
//! `transpose_perm` to the per-nonzero binary search of
//! `transpose_perm_reference`. Both are pure structure (no floating
//! point), so equality is exact by contract.

use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::{BipartiteGraph, CsrGraph, Permutation, VertexId};
use cualign_overlap::OverlapMatrix;
use cualign_rt::check::cases;
use cualign_rt::{par, Rng};

fn random_instance(
    n: usize,
    edges: usize,
    decoys: usize,
    seed: u64,
) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, edges, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        triples.push((i, p.apply(i), 1.0));
        for _ in 0..decoys {
            triples.push((i, rng.below(n) as VertexId, 1.0));
        }
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

fn assert_builds_agree(a: &CsrGraph, b: &CsrGraph, l: &BipartiteGraph) {
    let fast = OverlapMatrix::build(a, b, l);
    let slow = OverlapMatrix::build_reference(a, b, l);
    assert_eq!(fast.nnz(), slow.nnz());
    assert_eq!(fast.row_offsets(), slow.row_offsets());
    assert_eq!(fast.col_indices(), slow.col_indices());
    assert_eq!(fast.transpose_perm(), slow.transpose_perm_reference());
    fast.check_invariants().expect("fast build invariants");
}

/// Random graphs, random candidate sets: the parallel count+fill
/// build and the serial reference agree exactly.
#[test]
fn build_matches_reference_on_random_instances() {
    cases(32, 1, |rng| {
        let (n, edge_factor, decoys) = (rng.range(2..28), rng.range(1..4), rng.below(5));
        let edges = (n * edge_factor).min(n * (n - 1) / 2);
        let (a, b, l) = random_instance(n, edges, decoys, rng.below(10_000) as u64);
        assert_builds_agree(&a, &b, &l);
    });
}

/// A pattern large enough that the build really splits across threads
/// (its merge plans hold more than one thread's share of chunks): the
/// CSR is identical at 1, 2 and 4 threads.
#[test]
fn build_is_identical_at_every_thread_count() {
    let n = 400usize;
    let mut rng = Rng::new(5);
    let a = erdos_renyi_gnm(n, 8 * n, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    // Each vertex's candidates: its true mate and the mate's neighbors.
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        let mate = p.apply(i);
        triples.push((i, mate, 1.0));
        triples.extend(b.neighbors(mate).iter().map(|&v| (i, v, 1.0)));
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    let one = par::with_threads(1, || OverlapMatrix::build(&a, &b, &l));
    assert!(
        one.nnz() > cualign_rt::par::WORK_PER_RUN / 2,
        "instance too small to split: {}",
        one.nnz()
    );
    for t in [2, 4] {
        let s = par::with_threads(t, || OverlapMatrix::build(&a, &b, &l));
        assert_eq!(s.row_offsets(), one.row_offsets(), "{t} threads");
        assert_eq!(s.col_indices(), one.col_indices(), "{t} threads");
        assert_eq!(s.transpose_perm(), one.transpose_perm(), "{t} threads");
    }
}

/// Hub-skewed shape: a star in A (every edge touches the hub) and a
/// candidate list where the hub pairs with everything, giving the
/// overlap CSR hot rows that straddle merge chunks.
#[test]
fn build_matches_reference_on_hub_skewed_graphs() {
    let n = 80usize;
    let mut rng = Rng::new(99);
    let mut pairs: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|j| (0, j)).collect();
    for _ in 0..n {
        let u = rng.range(1..n) as VertexId;
        let v = rng.range(1..n) as VertexId;
        if u != v {
            pairs.push((u, v));
        }
    }
    let a = CsrGraph::from_edges(n, &pairs);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
    for i in 0..n as VertexId {
        triples.push((i, p.apply(i), 1.0));
        triples.push((0, i, 1.0));
        triples.push((i, 0, 1.0));
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    assert_builds_agree(&a, &b, &l);
}

/// Degenerate shapes: empty candidate sets and edgeless graphs.
#[test]
fn build_matches_reference_on_degenerate_instances() {
    // Edgeless A: no squares exist at all.
    let a = CsrGraph::from_edges(5, &[]);
    let b = CsrGraph::from_edges(5, &[]);
    let l = BipartiteGraph::from_weighted_edges(5, 5, &[(0, 0, 1.0), (1, 1, 1.0), (2, 3, 1.0)]);
    assert_builds_agree(&a, &b, &l);

    // Graphs with edges but an empty candidate list.
    let a = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let b = CsrGraph::from_edges(4, &[(0, 2), (1, 3)]);
    let l = BipartiteGraph::from_weighted_edges(4, 4, &[]);
    assert_builds_agree(&a, &b, &l);
}

/// Dense shape of the coarsest multilevel pair: graphs about 45% dense
/// and a candidate band of a few dozen targets per vertex, so rows hold
/// several hundred nonzeros and every column meets hundreds of rows —
/// the regime where the transpose permutation's per-column cursors do
/// the most work.
#[test]
fn build_matches_reference_on_dense_coarse_shaped_pairs() {
    for seed in [1u64, 2] {
        let n = 80usize;
        let mut rng = Rng::new(seed);
        let a = erdos_renyi_gnm(n, 45 * n * (n - 1) / 200, &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::new();
        for i in 0..n as VertexId {
            triples.push((i, p.apply(i), 1.0));
            for _ in 0..20 {
                triples.push((i, rng.below(n) as VertexId, 1.0));
            }
        }
        let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        let max_row = (0..l.num_edges() as u32)
            .map(|e| s.row_degree(e))
            .max()
            .unwrap_or(0);
        assert!(max_row >= 300, "rows too sparse: max {max_row}");
        assert_builds_agree(&a, &b, &l);
    }
}
