//! # cualign-sparsify
//!
//! Sparsification — stage 2 of the framework and the second half of the
//! paper's Algorithm 1. Instead of the complete (and noisy, and `O(n²)`)
//! bipartite graph between `V_A` and `V_B`, keep for every vertex only its
//! `k` most similar cross-graph partners under the aligned embeddings.
//! The result has `O(k·n)` edges, which in turn bounds the overlap matrix
//! and makes belief propagation tractable (§2: "one of the contributions
//! of this paper is to sparsify the complete graph such that the number of
//! edges remains O(n)").
//!
//! Edge weights are cosine similarities mapped to `(0, 1]` via
//! `w = (1 + cos) / 2`, keeping them strictly positive for the matching
//! stage, which only considers positive-weight edges.
//!
//! The paper's **density** knob (Figures 4–6) is the fraction of the
//! `n_A · n_B` complete graph retained; [`density_to_k`] converts it to a
//! per-vertex `k`, so `density = 1%` on a 10k-vertex instance keeps ~100
//! candidates per vertex.
//!
//! **Place in the pipeline** (paper Fig. 2): stage 2, between the
//! aligned embeddings of `cualign-embed` and the overlap matrix of
//! `cualign-overlap` — its output `L` is the bipartite candidate graph
//! every later stage works on. The multilevel wrapper builds its own
//! candidate graphs at refinement levels (projection bands in
//! `cualign::multilevel`), using this crate's kNN only at the coarsest
//! level.
//!
//! Two candidate-generation regimes live here (the repo's exactness
//! contract for both is `docs/APPROXIMATION.md`):
//!
//! * **Exact** — [`knn_candidates`], the tiled brute-force sweep,
//!   bit-identical to the seed [`knn_candidates_reference`]
//!   (`tests/prop_knn.rs`). `O(n² d)`: the scalability gate.
//! * **Approximate** — [`ann::ann_candidates`], banded multi-probe LSH
//!   ([`ann::AnnConfig`]) whose bucket collisions are rescored with the
//!   exact kernel's arithmetic, so shared pairs carry bit-identical
//!   weights; only *recall* is approximate, measured against the exact
//!   kernel as pinned oracle (`tests/prop_ann.rs`). Near-linear, which
//!   is what lets the multilevel pipeline crack million-vertex pairs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod knn;

pub use ann::{ann_candidates, ann_recall, build_alignment_graph_ann, AnnConfig};
pub use knn::{knn_candidates, knn_candidates_reference, KnnDirection};

use cualign_graph::{BipartiteGraph, VertexId};
use cualign_linalg::DenseMatrix;
use std::collections::HashSet;

/// Converts the paper's density percentage (fraction of the complete
/// bipartite graph, in `(0, 1]`) into the per-vertex neighbor count `k`.
///
/// `k = max(1, round(density · min(na, nb)))` — a per-side kNN union with
/// this `k` retains close to `density · na · nb` edges. `None` for a
/// density outside `(0, 1]`, NaN included.
pub fn density_to_k(na: usize, nb: usize, density: f64) -> Option<usize> {
    if !(density > 0.0 && density <= 1.0) {
        return None;
    }
    let base = na.min(nb) as f64;
    Some(((density * base).round() as usize).max(1))
}

/// Builds the sparsified alignment graph `L` from aligned embeddings:
/// the union of each side's `k` nearest cross-graph neighbors by cosine
/// similarity, weighted `w = (1 + cos)/2`.
///
/// # Panics
/// Panics if the embeddings disagree in dimension or `k == 0`.
pub fn build_alignment_graph(ya: &DenseMatrix, yb: &DenseMatrix, k: usize) -> BipartiteGraph {
    assert!(k > 0, "k must be positive");
    assert_eq!(ya.cols(), yb.cols(), "embedding dimension mismatch");
    let mut triples = knn_candidates(ya, yb, k, KnnDirection::AtoB);
    triples.extend(knn_candidates(ya, yb, k, KnnDirection::BtoA));
    // Duplicate (a, b) pairs carry identical weights; the constructor
    // collapses them.
    BipartiteGraph::from_weighted_edges(ya.rows(), yb.rows(), &triples)
}

/// Builds `L` from the *mutual* `k` nearest neighbors: an edge survives
/// only if both endpoints rank it among their `k` nearest. A subset of
/// [`build_alignment_graph`]'s union with the same weights — fewer,
/// higher-precision candidates for noisy inputs where hubs attract
/// one-sided false candidates.
///
/// # Panics
/// Panics if the embeddings disagree in dimension or `k == 0`.
pub fn build_alignment_graph_mutual(
    ya: &DenseMatrix,
    yb: &DenseMatrix,
    k: usize,
) -> BipartiteGraph {
    assert!(k > 0, "k must be positive");
    assert_eq!(ya.cols(), yb.cols(), "embedding dimension mismatch");
    let ab = knn_candidates(ya, yb, k, KnnDirection::AtoB);
    let ba = knn_candidates(ya, yb, k, KnnDirection::BtoA);
    let ba_set: HashSet<(VertexId, VertexId)> = ba.iter().map(|&(a, b, _)| (a, b)).collect();
    let mutual: Vec<(VertexId, VertexId, f64)> = ab
        .into_iter()
        .filter(|&(a, b, _)| ba_set.contains(&(a, b)))
        .collect();
    BipartiteGraph::from_weighted_edges(ya.rows(), yb.rows(), &mutual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_rt::Rng;

    /// Embeddings where row i of A and row i of B are (noisy) copies, so
    /// the true correspondence is the identity.
    fn planted_embeddings(n: usize, d: usize, noise: f64, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = Rng::new(seed);
        let ya = DenseMatrix::gaussian(n, d, &mut rng);
        let mut yb = ya.clone();
        for x in yb.data_mut() {
            *x += noise * (rng.f64() - 0.5);
        }
        (ya, yb)
    }

    #[test]
    fn density_to_k_basics() {
        assert_eq!(density_to_k(1000, 1000, 0.01), Some(10));
        assert_eq!(density_to_k(1000, 1000, 0.025), Some(25));
        assert_eq!(density_to_k(100, 100, 0.001), Some(1)); // floor at 1
        assert_eq!(density_to_k(4000, 4000, 0.01), Some(40));
        assert_eq!(density_to_k(10, 10, 1.0), Some(10));
    }

    #[test]
    fn density_rejects_out_of_range() {
        for d in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(density_to_k(10, 10, d), None, "density {d}");
        }
    }

    #[test]
    fn planted_pairs_survive_sparsification() {
        let (ya, yb) = planted_embeddings(60, 16, 0.05, 1);
        let l = build_alignment_graph(&ya, &yb, 3);
        l.check_invariants().unwrap();
        // Every true pair (i, i) must be among the kNN edges.
        for i in 0..60 {
            assert!(
                l.edge_id(i, i).is_some(),
                "true pair ({i}, {i}) pruned by kNN"
            );
        }
    }

    #[test]
    fn edge_count_is_linear_in_n() {
        let (ya, yb) = planted_embeddings(100, 8, 0.3, 2);
        let k = 5;
        let l = build_alignment_graph(&ya, &yb, k);
        // Union of two k-NN sets: between k·n and 2k·n edges.
        assert!(l.num_edges() >= k * 100);
        assert!(l.num_edges() <= 2 * k * 100);
    }

    #[test]
    fn k_at_least_n_gives_complete_graph() {
        let (ya, yb) = planted_embeddings(15, 4, 0.3, 3);
        let l = build_alignment_graph(&ya, &yb, 50);
        assert_eq!(l.num_edges(), 15 * 15);
    }

    #[test]
    fn weights_are_positive_and_bounded() {
        let (ya, yb) = planted_embeddings(40, 8, 0.5, 4);
        let l = build_alignment_graph(&ya, &yb, 4);
        for &w in l.weights() {
            assert!(w > 0.0 && w <= 1.0, "weight {w} out of range");
        }
    }

    #[test]
    fn true_pair_weight_dominates_row() {
        // With tiny noise, the planted pair should be each vertex's
        // heaviest incident edge.
        let (ya, yb) = planted_embeddings(30, 16, 0.01, 5);
        let l = build_alignment_graph(&ya, &yb, 5);
        for a in 0..30u32 {
            let true_e = l.edge_id(a, a).expect("planted edge present");
            let true_w = l.weights()[true_e as usize];
            for (_, e) in l.incident_a(a) {
                assert!(l.weights()[e as usize] <= true_w + 1e-12);
            }
        }
    }

    #[test]
    fn mutual_is_subset_of_union() {
        let (ya, yb) = planted_embeddings(60, 12, 0.4, 1);
        let union = build_alignment_graph(&ya, &yb, 4);
        let mutual = build_alignment_graph_mutual(&ya, &yb, 4);
        assert!(mutual.num_edges() <= union.num_edges());
        for le in mutual.edges() {
            assert!(
                union.edge_id(le.a, le.b).is_some(),
                "mutual edge missing from union"
            );
        }
        mutual.check_invariants().unwrap();
    }

    #[test]
    fn mutual_keeps_planted_pairs_with_low_noise() {
        let (ya, yb) = planted_embeddings(50, 16, 0.02, 2);
        let mutual = build_alignment_graph_mutual(&ya, &yb, 3);
        for i in 0..50 {
            assert!(mutual.edge_id(i, i).is_some(), "pair ({i},{i}) dropped");
        }
    }

    #[test]
    fn density_builder_tracks_target() {
        let (ya, yb) = planted_embeddings(200, 8, 0.3, 6);
        let k = density_to_k(200, 200, 0.05).expect("0.05 is in (0, 1]");
        let l = build_alignment_graph(&ya, &yb, k);
        let density = l.num_edges() as f64 / (200.0 * 200.0);
        assert!(
            (0.04..=0.11).contains(&density),
            "realized density {density}"
        );
    }
}
