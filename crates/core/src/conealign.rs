//! The cone-align baseline (Chen et al., CIKM 2020) — the state of the art
//! the paper compares against (Figures 6 and 7).
//!
//! cuAlign and cone-align share the entire front half of the pipeline:
//! proximity embeddings and subspace alignment. They differ in the back
//! half — cone-align rounds the embedding similarities *directly* to an
//! alignment (kNN + matching), while cuAlign iterates belief propagation
//! against the overlap structure first. Implementing both ends on the
//! same embeddings isolates exactly the quality delta the paper reports
//! (up to 22%, Fig. 6) — and [`cone_align_session`] makes the sharing
//! literal: it rounds the `L` cached in an [`AlignmentSession`], so a
//! head-to-head comparison computes the front half exactly once.

use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::scoring::{score_alignment, AlignmentScores};
use crate::session::AlignmentSession;
use cualign_graph::{CsrGraph, VertexId};
use cualign_matching::{suitor_matching, Matching};
use std::borrow::Borrow;
use std::time::Instant;

/// Output of the cone-align baseline.
pub struct ConeAlignResult {
    /// The matching on the kNN similarity graph.
    pub matching: Matching,
    /// Vertex mapping extracted from the matching.
    pub mapping: Vec<Option<VertexId>>,
    /// Quality metrics.
    pub scores: AlignmentScores,
    /// Total wall-clock seconds (0 for the shared stages when the
    /// session already had `L` cached).
    pub seconds: f64,
}

/// Runs cone-align: embeddings → subspace alignment → kNN graph →
/// maximum-similarity matching. Uses the same configuration object as the
/// full aligner so comparisons share every front-half parameter (the `bp`
/// section is ignored).
pub fn cone_align(
    a: &CsrGraph,
    b: &CsrGraph,
    cfg: &AlignerConfig,
) -> Result<ConeAlignResult, AlignError> {
    let mut session = AlignmentSession::new(a, b, cfg.clone())?;
    cone_align_session(&mut session)
}

/// Runs the cone-align back half on a session's cached candidate graph
/// `L`. When the session has already aligned (or is about to), the
/// embeddings, subspace, and sparsification are computed once and shared
/// between cuAlign and the baseline.
pub fn cone_align_session<G: Borrow<CsrGraph>>(
    session: &mut AlignmentSession<G>,
) -> Result<ConeAlignResult, AlignError> {
    let t = Instant::now();
    let matching = {
        let l = session.sparse_l()?;
        suitor_matching(l)
    };
    let (a, b) = session.graphs();
    let mapping: Vec<Option<VertexId>> = (0..a.num_vertices())
        .map(|u| matching.mate_of_a(u as VertexId))
        .collect();
    let scores = score_alignment(a, b, &mapping);
    Ok(ConeAlignResult {
        matching,
        mapping,
        scores,
        seconds: t.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SparsityChoice;
    use crate::pipeline::Aligner;
    use cualign_graph::generators::duplication_divergence;
    use cualign_graph::permutation::AlignmentInstance;
    use cualign_rt::Rng;

    fn cfg() -> AlignerConfig {
        use cualign_embed::SpectralConfig;
        AlignerConfig::builder()
            .embedding(SpectralConfig {
                dim: 24,
                oversample: 12,
                ..Default::default()
            })
            .sparsity(SparsityChoice::K(6))
            .bp_iters(12)
            .subspace_anchors(0)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn baseline_produces_valid_alignment() {
        let mut rng = Rng::new(1);
        let a = duplication_divergence(150, 0.45, 0.35, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let r = cone_align(&inst.a, &inst.b, &cfg()).unwrap();
        assert!(r.scores.ncv > 0.5, "ncv {}", r.scores.ncv);
        assert!(r.seconds > 0.0);
        assert_eq!(r.mapping.len(), 150);
    }

    #[test]
    fn cualign_beats_or_ties_baseline() {
        // The paper's central quality claim (Fig. 6): BP refinement
        // conserves at least as many edges as direct rounding, typically
        // far more.
        let mut rng = Rng::new(2);
        let a = duplication_divergence(180, 0.45, 0.35, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let cone = cone_align(&inst.a, &inst.b, &cfg()).unwrap();
        let cu = Aligner::new(cfg()).align(&inst.a, &inst.b).unwrap();
        assert!(
            cu.scores.ncv_gs3 >= cone.scores.ncv_gs3 - 1e-9,
            "cuAlign {} < cone-align {}",
            cu.scores.ncv_gs3,
            cone.scores.ncv_gs3
        );
    }

    #[test]
    fn session_variant_matches_standalone_and_reuses_l() {
        let mut rng = Rng::new(3);
        let a = duplication_divergence(120, 0.45, 0.35, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let standalone = cone_align(&inst.a, &inst.b, &cfg()).unwrap();

        let mut session = AlignmentSession::new(&inst.a, &inst.b, cfg()).unwrap();
        let _ = session.align().unwrap();
        let shared = cone_align_session(&mut session).unwrap();
        assert_eq!(standalone.mapping, shared.mapping);
        assert_eq!(standalone.scores, shared.scores);
        // Rounding the cached L must not rebuild any pipeline stage.
        assert_eq!(session.counters().sparsify_builds, 1);
        assert_eq!(session.counters().embedding_builds, 1);
    }
}
