//! IsoRank-style similarity-flow alignment (Singh, Xu, Berger — the
//! paper's reference \[27\]).
//!
//! The similarity of `(u ∈ A, v ∈ B)` is defined recursively: a pair is
//! similar if its neighbor pairs are similar,
//!
//! ```text
//! R(u, v) = (1 − α)·H(u, v) + α · Σ_{u'∈N(u)} Σ_{v'∈N(v)} R(u', v') / (deg u' · deg v')
//! ```
//!
//! where `H` is a prior (uniform here, or any external similarity). The
//! fixpoint is computed by power iteration on the Kronecker-product
//! operator — materialized lazily, never as an `n² × n²` matrix — and
//! rounded to a one-to-one alignment by the locally dominant matcher.
//!
//! Complexity per iteration is `O(Σ_{(u,v)} deg u · deg v)` over the kept
//! support; like the main pipeline, the support is truncated to the top
//! candidates per vertex to stay `O(n·k)`.

use crate::error::{AlignError, GraphSide};
use crate::scoring::{score_alignment, AlignmentScores};
use cualign_graph::{BipartiteGraph, CsrGraph, VertexId};
use cualign_matching::{suitor_matching, Matching};
use cualign_rt::par;

/// Configuration for [`isorank_align`].
#[derive(Clone, Copy, Debug)]
pub struct IsoRankConfig {
    /// Flow weight α ∈ [0, 1): how much similarity comes from neighbors
    /// vs. the prior.
    pub alpha: f64,
    /// Power iterations.
    pub iterations: usize,
    /// Candidates kept per A-vertex between iterations (support
    /// truncation; `0` keeps the dense `n × n` similarity — small inputs
    /// only).
    pub top_k: usize,
}

impl Default for IsoRankConfig {
    fn default() -> Self {
        IsoRankConfig {
            alpha: 0.85,
            iterations: 12,
            top_k: 20,
        }
    }
}

/// Result of an IsoRank run.
pub struct IsoRankResult {
    /// The rounded one-to-one alignment.
    pub matching: Matching,
    /// Vertex mapping extracted from the matching.
    pub mapping: Vec<Option<VertexId>>,
    /// Quality metrics.
    pub scores: AlignmentScores,
    /// The final candidate graph the similarities lived on.
    pub support_edges: usize,
}

/// Dense row-major similarity buffer; `sim[u * nb + v]`.
struct SimBuffer {
    nb: usize,
    data: Vec<f64>,
}

impl SimBuffer {
    #[inline]
    fn get(&self, u: usize, v: usize) -> f64 {
        self.data[u * self.nb + v]
    }
}

/// Runs IsoRank with a uniform prior and rounds to an alignment.
///
/// Note the documented degeneracy of prior-free IsoRank: similarities are
/// strongly degree-correlated, so on symmetric instances the rounding
/// pairs the high-degree halves of both graphs and strands the rest —
/// the reason the original system feeds sequence-similarity priors.
/// Use [`isorank_align_with_prior`] to supply one.
///
/// # Errors
/// [`AlignError::EmptyGraph`] if either graph has no vertices;
/// [`AlignError::InvalidConfig`] if `alpha ∉ [0, 1)`.
pub fn isorank_align(
    a: &CsrGraph,
    b: &CsrGraph,
    cfg: &IsoRankConfig,
) -> Result<IsoRankResult, AlignError> {
    isorank_align_with_prior(a, b, None, cfg)
}

/// Runs IsoRank with an optional prior `H` (row-major `na × nb`,
/// non-negative; normalized internally) and rounds to an alignment.
///
/// # Errors
/// [`AlignError::EmptyGraph`] if either graph has no vertices;
/// [`AlignError::InvalidConfig`] if `alpha ∉ [0, 1)` or the prior is not
/// `na × nb` finite non-negative entries with positive total mass.
pub fn isorank_align_with_prior(
    a: &CsrGraph,
    b: &CsrGraph,
    prior: Option<&[f64]>,
    cfg: &IsoRankConfig,
) -> Result<IsoRankResult, AlignError> {
    fn bad(field: &'static str, reason: String) -> Result<IsoRankResult, AlignError> {
        Err(AlignError::InvalidConfig { field, reason })
    }
    let na = a.num_vertices();
    let nb = b.num_vertices();
    if na == 0 {
        return Err(AlignError::EmptyGraph { side: GraphSide::A });
    }
    if nb == 0 {
        return Err(AlignError::EmptyGraph { side: GraphSide::B });
    }
    if !(0.0..1.0).contains(&cfg.alpha) {
        return bad(
            "isorank.alpha",
            format!("must be in [0, 1), got {}", cfg.alpha),
        );
    }

    // Normalized prior H (uniform if none supplied).
    let h: Vec<f64> = match prior {
        Some(p) => {
            if p.len() != na * nb {
                return bad(
                    "isorank.prior",
                    format!("must have na × nb = {} entries, got {}", na * nb, p.len()),
                );
            }
            if p.iter().any(|x| !(x.is_finite() && *x >= 0.0)) {
                return bad("isorank.prior", "entries must be finite and >= 0".into());
            }
            let total: f64 = p.iter().sum();
            if !(total > 0.0 && total.is_finite()) {
                return bad(
                    "isorank.prior",
                    format!("must have positive mass, got {total}"),
                );
            }
            p.iter().map(|x| x / total).collect()
        }
        None => vec![1.0 / (na * nb) as f64; na * nb],
    };
    let mut sim = SimBuffer {
        nb,
        data: h.clone(),
    };

    for _ in 0..cfg.iterations {
        // R'(u, v) = (1-α)·prior + α · Σ R(u', v') / (deg u' · deg v').
        let mut next = vec![0.0; na * nb];
        let rows: Vec<&mut [f64]> = next.chunks_mut(nb.max(1)).collect();
        par::for_each(rows, par::min_len_for(nb), |u, row| {
            let a_nbrs = a.neighbors(u as VertexId);
            for (v, out) in row.iter_mut().enumerate() {
                let mut flow = 0.0;
                for &u2 in a_nbrs {
                    let du2 = a.degree(u2).max(1) as f64;
                    for &v2 in b.neighbors(v as VertexId) {
                        let dv2 = b.degree(v2).max(1) as f64;
                        flow += sim.get(u2 as usize, v2 as usize) / (du2 * dv2);
                    }
                }
                *out = (1.0 - cfg.alpha) * h[u * nb + v] + cfg.alpha * flow;
            }
        });
        // Normalize to unit total mass so the iteration neither blows up
        // nor vanishes.
        let total: f64 = next.iter().sum();
        let scale = if total > 0.0 { 1.0 / total } else { 1.0 };
        sim.data = next.into_iter().map(|x| x * scale).collect();
    }

    // Round: keep the union of each side's top-k candidates (all if
    // top_k == 0), then run the locally dominant matcher. The union
    // matters: IsoRank similarities are strongly degree-correlated, so a
    // one-sided top-k would have every A-vertex shortlist the same few
    // hub B's and leave half of both sides uncoverable.
    let ka = if cfg.top_k == 0 {
        nb
    } else {
        cfg.top_k.min(nb)
    };
    let kb = if cfg.top_k == 0 {
        na
    } else {
        cfg.top_k.min(na)
    };
    let mut triples: Vec<(VertexId, VertexId, f64)> =
        par::flat_map(na, par::min_len_for(nb), |u, out| {
            let mut row: Vec<(f64, usize)> = (0..nb).map(|v| (sim.get(u, v), v)).collect();
            row.select_nth_unstable_by(ka - 1, |x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
            row.truncate(ka);
            out.extend(
                row.into_iter()
                    .map(|(w, v)| (u as VertexId, v as VertexId, w.max(f64::MIN_POSITIVE))),
            );
        });
    let b_side = par::flat_map(nb, par::min_len_for(na), |v, out| {
        let mut col: Vec<(f64, usize)> = (0..na).map(|u| (sim.get(u, v), u)).collect();
        col.select_nth_unstable_by(kb - 1, |x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        col.truncate(kb);
        out.extend(
            col.into_iter()
                .map(|(w, u)| (u as VertexId, v as VertexId, w.max(f64::MIN_POSITIVE))),
        );
    });
    triples.extend(b_side);
    let l = BipartiteGraph::from_weighted_edges(na, nb, &triples);
    let matching = suitor_matching(&l);
    let mapping: Vec<Option<VertexId>> =
        (0..na).map(|u| matching.mate_of_a(u as VertexId)).collect();
    let scores = score_alignment(a, b, &mapping);
    Ok(IsoRankResult {
        matching,
        mapping,
        scores,
        support_edges: l.num_edges(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::Permutation;
    use cualign_rt::Rng;

    #[test]
    fn prior_free_isorank_shows_documented_degeneracy() {
        // Without a prior, similarities are degree-dominated: the matcher
        // pairs the two graphs' high-degree halves and strands the rest.
        // This is the known behavior that motivates priors.
        let mut rng = Rng::new(1);
        let a = erdos_renyi_gnm(40, 120, &mut rng);
        let r = isorank_align(&a, &a, &IsoRankConfig::default()).unwrap();
        assert!(
            r.scores.ncv >= 0.45,
            "ncv collapsed entirely: {}",
            r.scores.ncv
        );
        assert!(r.scores.ncv <= 0.95, "degeneracy unexpectedly absent");
    }

    #[test]
    fn identity_prior_fixes_self_alignment() {
        let mut rng = Rng::new(1);
        let a = erdos_renyi_gnm(40, 120, &mut rng);
        let n = a.num_vertices();
        let mut h = vec![1e-6; n * n];
        for i in 0..n {
            h[i * n + i] = 1.0;
        }
        let r = isorank_align_with_prior(&a, &a, Some(&h), &IsoRankConfig::default()).unwrap();
        assert!(r.scores.ncv > 0.9, "ncv {}", r.scores.ncv);
        assert!(r.scores.ec > 0.8, "ec {}", r.scores.ec);
    }

    #[test]
    fn degree_structure_guides_similarity() {
        // A path and its permuted copy: endpoint vertices (degree 1) must
        // be more similar to endpoints than to the middle.
        let a = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = Rng::new(2);
        let p = Permutation::random(3, &mut rng);
        let b = p.apply_to_graph(&a);
        let r = isorank_align(
            &a,
            &b,
            &IsoRankConfig {
                top_k: 0,
                ..Default::default()
            },
        )
        .unwrap();
        // The middle vertex (the only degree-2 one) must map to the middle.
        let mid_a = (0..3u32).find(|&u| a.degree(u) == 2).unwrap();
        let mid_b = (0..3u32).find(|&v| b.degree(v) == 2).unwrap();
        assert_eq!(r.mapping[mid_a as usize], Some(mid_b));
    }

    #[test]
    fn deterministic() {
        let mut rng = Rng::new(3);
        let a = erdos_renyi_gnm(25, 60, &mut rng);
        let b = erdos_renyi_gnm(25, 60, &mut rng);
        let r1 = isorank_align(&a, &b, &IsoRankConfig::default()).unwrap();
        let r2 = isorank_align(&a, &b, &IsoRankConfig::default()).unwrap();
        assert_eq!(r1.mapping, r2.mapping);
    }

    #[test]
    fn rejects_bad_alpha() {
        let a = CsrGraph::from_edges(2, &[(0, 1)]);
        for alpha in [1.0, -0.1, f64::NAN] {
            let cfg = IsoRankConfig {
                alpha,
                ..Default::default()
            };
            assert!(matches!(
                isorank_align(&a, &a, &cfg),
                Err(AlignError::InvalidConfig {
                    field: "isorank.alpha",
                    ..
                })
            ));
        }
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let empty = CsrGraph::from_edges(0, &[]);
        let a = CsrGraph::from_edges(2, &[(0, 1)]);
        let cfg = IsoRankConfig::default();
        for (x, y, side) in [(&empty, &a, GraphSide::A), (&a, &empty, GraphSide::B)] {
            assert!(matches!(
                isorank_align(x, y, &cfg),
                Err(AlignError::EmptyGraph { side: s }) if s == side
            ));
        }
    }

    #[test]
    fn rejects_bad_prior() {
        let a = CsrGraph::from_edges(2, &[(0, 1)]);
        let cfg = IsoRankConfig::default();
        for prior in [
            vec![1.0; 3],
            vec![0.0; 4],
            vec![1.0, -1.0, 1.0, 1.0],
            vec![1.0, f64::NAN, 1.0, 1.0],
        ] {
            assert!(matches!(
                isorank_align_with_prior(&a, &a, Some(&prior), &cfg),
                Err(AlignError::InvalidConfig {
                    field: "isorank.prior",
                    ..
                })
            ));
        }
    }
}
