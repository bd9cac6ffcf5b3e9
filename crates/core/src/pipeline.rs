//! The end-to-end cuAlign pipeline (paper Fig. 2): embed → align subspaces
//! → sparsify → (belief propagation ⇄ matching)* → score.
//!
//! [`Aligner`] is the one-shot entry point; it opens a fresh
//! [`crate::AlignmentSession`] per call. Callers running the pipeline
//! repeatedly under varying configurations (sweeps, ablations) should
//! hold a session directly so the unchanged stages are reused.

use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::scoring::AlignmentScores;
use crate::session::AlignmentSession;
use cualign_bp::BpOutcome;
use cualign_graph::{CsrGraph, VertexId};
use cualign_matching::Matching;

/// Wall-clock seconds per pipeline stage for one `align` run.
///
/// When a stage's artifact was reused from a session cache it contributes
/// `0 s` here (the build cost was paid by an earlier run) and is counted
/// in [`StageTimings::cache_hits`] instead. A session's lifetime build
/// costs are available via
/// [`crate::AlignmentSession::cumulative_timings`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Proximity embedding of both graphs.
    pub embedding_s: f64,
    /// Subspace alignment (Eq. 2).
    pub subspace_s: f64,
    /// kNN sparsification (constructing `L`).
    pub sparsify_s: f64,
    /// Overlap matrix `S` construction (Algorithm 3).
    pub overlap_s: f64,
    /// BP + matching optimization loop.
    pub optimize_s: f64,
    /// Number of the five stages served from a session cache this run.
    pub cache_hits: usize,
}

impl StageTimings {
    /// Initialization time (the run-once part of Fig. 2).
    pub fn init_s(&self) -> f64 {
        self.embedding_s + self.subspace_s + self.sparsify_s + self.overlap_s
    }

    /// Total pipeline time.
    pub fn total_s(&self) -> f64 {
        self.init_s() + self.optimize_s
    }
}

/// Output of a full cuAlign run.
pub struct AlignmentResult {
    /// The best matching found (on `L`'s edge ids).
    pub matching: Matching,
    /// Vertex mapping `V_A → V_B` extracted from the matching.
    pub mapping: Vec<Option<VertexId>>,
    /// Quality metrics of the mapping.
    pub scores: AlignmentScores,
    /// The BP run's outcome (history, best iteration, objective).
    pub bp: BpOutcome,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Size of the sparsified graph `L`.
    pub l_edges: usize,
    /// Nonzeros of the overlap matrix `S`.
    pub s_nnz: usize,
}

/// The cuAlign aligner. Construct with a config, call
/// [`Aligner::align`].
pub struct Aligner {
    cfg: AlignerConfig,
}

impl Aligner {
    /// Creates an aligner with the given configuration.
    pub fn new(cfg: AlignerConfig) -> Self {
        Aligner { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &AlignerConfig {
        &self.cfg
    }

    /// Runs the full pipeline on graphs `a` and `b`.
    ///
    /// With [`crate::AlignerConfig::multilevel`] unset this is
    /// equivalent to opening an [`AlignmentSession`] and calling
    /// [`AlignmentSession::align`] once; with it set, the run dispatches
    /// through the multilevel coarsen–align–project–refine driver
    /// ([`crate::align_multilevel`]). Errors on degenerate input (empty
    /// graph, embedding dimension exceeding the smaller graph, a
    /// sparsification rule yielding zero candidates) or an invalid
    /// configuration.
    pub fn align(&self, a: &CsrGraph, b: &CsrGraph) -> Result<AlignmentResult, AlignError> {
        if self.cfg.multilevel.is_some() {
            return crate::multilevel::align_multilevel(a, b, &self.cfg);
        }
        AlignmentSession::new(a, b, self.cfg.clone())?.align()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SparsityChoice;
    use cualign_graph::generators::{duplication_divergence, erdos_renyi_gnm};
    use cualign_graph::permutation::AlignmentInstance;
    use cualign_rt::Rng;

    fn small_cfg() -> AlignerConfig {
        use cualign_embed::SpectralConfig;
        let mut cfg = AlignerConfig {
            embedding: SpectralConfig {
                dim: 24,
                oversample: 12,
                ..Default::default()
            },
            sparsity: SparsityChoice::K(6),
            ..AlignerConfig::default()
        };
        cfg.bp.max_iters = 10;
        cfg.subspace.anchors = 0;
        cfg
    }

    #[test]
    fn recovers_permuted_er_graph() {
        let mut rng = Rng::new(1);
        let a = erdos_renyi_gnm(150, 450, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let result = Aligner::new(small_cfg()).align(&inst.a, &inst.b).unwrap();
        assert!(
            result.scores.ncv_gs3 > 0.6,
            "NCV-GS3 only {}",
            result.scores.ncv_gs3
        );
        assert!(result.matching.len() <= inst.a.num_vertices().min(inst.b.num_vertices()));
    }

    #[test]
    fn recovers_ppi_like_graph() {
        let mut rng = Rng::new(2);
        let a = duplication_divergence(200, 0.45, 0.35, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let result = Aligner::new(small_cfg()).align(&inst.a, &inst.b).unwrap();
        assert!(
            result.scores.ncv_gs3 > 0.5,
            "NCV-GS3 only {}",
            result.scores.ncv_gs3
        );
        // Ground-truth recovery should be well above chance.
        let nc = inst.node_correctness(&result.mapping);
        assert!(nc > 0.3, "node correctness {nc}");
    }

    #[test]
    fn timings_and_sizes_populated() {
        let mut rng = Rng::new(3);
        let a = erdos_renyi_gnm(80, 200, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let result = Aligner::new(small_cfg()).align(&inst.a, &inst.b).unwrap();
        assert!(result.timings.total_s() > 0.0);
        assert!(result.timings.init_s() > 0.0);
        // A one-shot align starts from a fresh session: nothing cached.
        assert_eq!(result.timings.cache_hits, 0);
        assert!(result.l_edges >= 80 * 6);
        // 10 BP iterations + the iteration-0 direct rounding.
        assert!(result.bp.history.len() == 11);
    }

    #[test]
    fn deterministic_given_config() {
        let mut rng = Rng::new(4);
        let a = erdos_renyi_gnm(60, 150, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let r1 = Aligner::new(small_cfg()).align(&inst.a, &inst.b).unwrap();
        let r2 = Aligner::new(small_cfg()).align(&inst.a, &inst.b).unwrap();
        assert_eq!(r1.mapping, r2.mapping);
        assert_eq!(r1.scores, r2.scores);

        // The session path is bit-identical to the one-shot path, both on
        // a cold cache and on a warm one.
        use crate::session::AlignmentSession;
        let mut session = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        let s1 = session.align().unwrap();
        let s2 = session.align().unwrap();
        assert_eq!(r1.mapping, s1.mapping);
        assert_eq!(r1.scores, s1.scores);
        assert_eq!(r1.bp.best_score, s1.bp.best_score);
        assert_eq!(s1.mapping, s2.mapping);
        assert_eq!(s2.timings.cache_hits, 5);
    }

    #[test]
    fn degenerate_inputs_error_cleanly() {
        use crate::error::AlignError;
        let empty = CsrGraph::from_edges(0, &[]);
        let mut rng = Rng::new(5);
        let g = erdos_renyi_gnm(40, 90, &mut rng);
        let aligner = Aligner::new(small_cfg());
        assert!(matches!(
            aligner.align(&empty, &g),
            Err(AlignError::EmptyGraph { .. })
        ));
        assert!(matches!(
            aligner.align(&g, &empty),
            Err(AlignError::EmptyGraph { .. })
        ));
        // dim 24 > 10 vertices.
        let tiny = erdos_renyi_gnm(10, 20, &mut rng);
        assert!(matches!(
            aligner.align(&tiny, &g),
            Err(AlignError::DimExceedsVertices {
                dim: 24,
                vertices: 10
            })
        ));
    }
}
