//! Configuration for the end-to-end aligner: the [`AlignerConfig`]
//! struct, a validating [`AlignerConfigBuilder`], and the shared
//! `build_l` sparsification contract.

use crate::error::AlignError;
use crate::multilevel::MultilevelConfig;
use cualign_bp::BpConfig;
use cualign_embed::{SpectralConfig, SubspaceAlignConfig};
use cualign_graph::{wl, BipartiteGraph, CsrGraph};
use cualign_linalg::DenseMatrix;
use cualign_sparsify::AnnConfig;

/// WL refinement rounds for the ANN variant's structural candidates.
const WL_ROUNDS: usize = 2;
/// Seed of the WL label hash (fixed: labels must agree across sessions
/// for the stage cache to be meaningful).
const WL_SEED: u64 = 0x5eed_1abe;
/// Per-label bucket cap on each side; larger buckets are structurally
/// uninformative and would add quadratically many candidates.
const WL_MAX_BUCKET: usize = 4;

/// How to size the sparsified bipartite graph `L`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SparsityChoice {
    /// Keep `k` nearest neighbors per vertex (union over both sides).
    K(usize),
    /// Keep a fraction of the complete bipartite graph — the paper's
    /// density knob (Figures 4–6); converted to a per-vertex `k`.
    Density(f64),
    /// Mutual (intersection) k-nearest neighbors — stricter than the
    /// paper's union rule; a "new approach to sparsification" per the
    /// paper's future work.
    MutualK(usize),
    /// Approximate `k`-nearest neighbors: banded multi-probe LSH
    /// rescored exactly, unioned with Weisfeiler–Lehman label-bucket
    /// candidates when the input graphs are available (see
    /// `docs/APPROXIMATION.md` for the recall contract). The only
    /// sub-quadratic rule — the one that scales to million-vertex pairs.
    Ann {
        /// Neighbors kept per query row.
        k: usize,
        /// Number of independent LSH bands (hash tables).
        bands: usize,
        /// Signature bits per band, in `1..=32`.
        bits: usize,
        /// Low-margin bit-flip probes per band, at most `bits`.
        probes: usize,
    },
}

/// Full pipeline configuration. The defaults mirror the paper's preferred
/// operating point: 2.5% density (quality plateaus at ≤10%, Fig. 4) and a
/// fixed BP iteration budget.
#[derive(Clone, Debug)]
pub struct AlignerConfig {
    /// Spectral embedding of both graphs (graph B's seed is offset).
    pub embedding: SpectralConfig,
    /// Subspace-alignment (Eq. 2) parameters.
    pub subspace: SubspaceAlignConfig,
    /// Sparsification level for `L`.
    pub sparsity: SparsityChoice,
    /// Belief-propagation parameters (Algorithm 2).
    pub bp: BpConfig,
    /// Multilevel coarsen–align–project–refine wrapper. `None` (the
    /// default) runs the flat pipeline; `Some` makes
    /// [`crate::Aligner::align`] dispatch through
    /// [`crate::align_multilevel`]. Sessions always run flat — the
    /// multilevel driver *uses* a session at the coarsest level.
    pub multilevel: Option<MultilevelConfig>,
}

impl Default for AlignerConfig {
    fn default() -> Self {
        AlignerConfig {
            embedding: SpectralConfig::default(),
            subspace: SubspaceAlignConfig::default(),
            sparsity: SparsityChoice::Density(0.025),
            bp: BpConfig::default(),
            multilevel: None,
        }
    }
}

impl AlignerConfig {
    /// Starts a validating builder from the default (paper operating
    /// point) configuration:
    ///
    /// ```
    /// use cualign::AlignerConfig;
    /// let cfg = AlignerConfig::builder().density(0.025).bp_iters(25).build().unwrap();
    /// assert!(AlignerConfig::builder().density(3.0).build().is_err());
    /// ```
    pub fn builder() -> AlignerConfigBuilder {
        AlignerConfigBuilder {
            cfg: AlignerConfig::default(),
        }
    }

    /// Checks every field against its valid range, so errors surface at
    /// construction instead of deep inside a pipeline stage.
    pub fn validate(&self) -> Result<(), AlignError> {
        fn bad(field: &'static str, reason: String) -> Result<(), AlignError> {
            Err(AlignError::InvalidConfig { field, reason })
        }
        if self.embedding.dim == 0 {
            return bad("embedding.dim", "must be at least 1".into());
        }
        match self.sparsity {
            SparsityChoice::Density(d) => {
                if !(d > 0.0 && d <= 1.0) {
                    return Err(invalid_density(d));
                }
            }
            SparsityChoice::K(k) => {
                if k == 0 {
                    return bad("sparsity.k", "must be at least 1".into());
                }
            }
            SparsityChoice::MutualK(k) => {
                if k == 0 {
                    return bad("sparsity.mutual_k", "must be at least 1".into());
                }
            }
            SparsityChoice::Ann {
                k,
                bands,
                bits,
                probes,
            } => {
                if k == 0 {
                    return bad("sparsity.ann.k", "must be at least 1".into());
                }
                if bands == 0 {
                    return bad("sparsity.ann.bands", "must be at least 1".into());
                }
                if !(1..=32).contains(&bits) {
                    return bad(
                        "sparsity.ann.bits",
                        format!("must be in 1..=32, got {bits}"),
                    );
                }
                if probes > bits {
                    return bad(
                        "sparsity.ann.probes",
                        format!("must be <= bits ({bits}), got {probes}"),
                    );
                }
            }
        }
        if self.bp.max_iters == 0 {
            return bad("bp.max_iters", "must be at least 1".into());
        }
        if !(self.bp.gamma > 0.0 && self.bp.gamma <= 1.0) {
            return bad(
                "bp.gamma",
                format!("must be in (0, 1], got {}", self.bp.gamma),
            );
        }
        if !self.bp.alpha.is_finite() || self.bp.alpha < 0.0 {
            return bad(
                "bp.alpha",
                format!("must be finite and >= 0, got {}", self.bp.alpha),
            );
        }
        if !self.bp.beta.is_finite() || self.bp.beta < 0.0 {
            return bad(
                "bp.beta",
                format!("must be finite and >= 0, got {}", self.bp.beta),
            );
        }
        // Subspace range checks live with the config they guard
        // (`SubspaceAlignConfig::validate` in cualign-embed); the `From`
        // impl maps its `InvalidConfig` onto ours, dotted field intact.
        self.subspace.validate().map_err(AlignError::from)?;
        if let Some(ml) = self.multilevel {
            if ml.levels == 0 {
                return bad("multilevel.levels", "must be at least 1".into());
            }
            if ml.band_k == 0 {
                return bad("multilevel.band_k", "must be at least 1".into());
            }
            if ml.refine_bp_iters == 0 {
                return bad("multilevel.refine_bp_iters", "must be at least 1".into());
            }
            if ml.min_coarse_vertices < 2 {
                return bad(
                    "multilevel.min_coarse_vertices",
                    "must be at least 2 (a 1-vertex graph cannot align)".into(),
                );
            }
        }
        Ok(())
    }

    /// Resolves the sparsity choice to a per-vertex `k` for graphs of the
    /// given sizes. Errors as [`AlignerConfig::validate`] does on a
    /// density outside `(0, 1]`, which a config mutated after the
    /// builder can hold.
    pub fn resolve_k(&self, na: usize, nb: usize) -> Result<usize, AlignError> {
        match self.sparsity {
            SparsityChoice::K(k) | SparsityChoice::MutualK(k) | SparsityChoice::Ann { k, .. } => {
                Ok(k.max(1))
            }
            SparsityChoice::Density(d) => {
                cualign_sparsify::density_to_k(na, nb, d).ok_or_else(|| invalid_density(d))
            }
        }
    }

    /// The ANN knobs as a sparsify-crate config, if the ANN rule is
    /// active. [`AlignerConfig::build_l`] builds `L` with it, and the
    /// multilevel driver routes its projection bands' orphan fallback
    /// through the approximate kernel with it.
    pub(crate) fn ann_config(&self) -> Option<AnnConfig> {
        match self.sparsity {
            SparsityChoice::Ann {
                k,
                bands,
                bits,
                probes,
            } => Some(AnnConfig {
                k: k.max(1),
                bands,
                bits,
                probes,
                ..AnnConfig::default()
            }),
            _ => None,
        }
    }

    /// Builds the sparsified alignment graph `L` from aligned embeddings
    /// under the configured rule (the session's sparsify stage). Under
    /// the ANN rule, same-label Weisfeiler–Lehman pairs of the input
    /// graphs ([`cualign_graph::wl::wl_candidates`]) are unioned into `L` with
    /// exactly-scored weights, so structurally pinned pairs survive even
    /// when their embeddings hash apart. Graphs whose vertex counts
    /// disagree with the embedding rows add no WL pairs (defensive: some
    /// baselines re-embed subsets). Exact rules ignore the graphs.
    pub fn build_l(
        &self,
        ya: &DenseMatrix,
        yb: &DenseMatrix,
        ga: &CsrGraph,
        gb: &CsrGraph,
    ) -> Result<BipartiteGraph, AlignError> {
        if let Some(ann) = self.ann_config() {
            let wl_pairs = if ga.num_vertices() == ya.rows() && gb.num_vertices() == yb.rows() {
                wl::wl_candidates(ga, gb, WL_ROUNDS, WL_SEED, WL_MAX_BUCKET)
            } else {
                Vec::new()
            };
            return Ok(cualign_sparsify::build_alignment_graph_ann(
                ya, yb, &ann, &wl_pairs,
            ));
        }
        let k = self.resolve_k(ya.rows(), yb.rows())?;
        Ok(match self.sparsity {
            SparsityChoice::MutualK(_) => cualign_sparsify::build_alignment_graph_mutual(ya, yb, k),
            _ => cualign_sparsify::build_alignment_graph(ya, yb, k),
        })
    }
}

/// The error for a density outside `(0, 1]`, shared by
/// [`AlignerConfig::validate`] and [`AlignerConfig::resolve_k`].
fn invalid_density(d: f64) -> AlignError {
    AlignError::InvalidConfig {
        field: "sparsity.density",
        reason: format!("must be in (0, 1], got {d}"),
    }
}

/// Validating builder for [`AlignerConfig`]. Setters are chainable;
/// [`AlignerConfigBuilder::build`] runs [`AlignerConfig::validate`] so an
/// out-of-range value is rejected at construction, not deep inside a
/// stage. Obtain one via [`AlignerConfig::builder`].
#[derive(Clone, Debug)]
pub struct AlignerConfigBuilder {
    cfg: AlignerConfig,
}

impl AlignerConfigBuilder {
    /// Replaces the spectral-embedding parameters wholesale.
    pub fn embedding(mut self, embedding: SpectralConfig) -> Self {
        self.cfg.embedding = embedding;
        self
    }

    /// Sets the embedding dimension.
    pub fn embedding_dim(mut self, dim: usize) -> Self {
        self.cfg.embedding.dim = dim;
        self
    }

    /// Sets the embedding's RNG seed (graph B's is offset from it).
    pub fn embedding_seed(mut self, seed: u64) -> Self {
        self.cfg.embedding.seed = seed;
        self
    }

    /// Sets the anchor count for subspace alignment (0 = every vertex).
    pub fn subspace_anchors(mut self, anchors: usize) -> Self {
        self.cfg.subspace.anchors = anchors;
        self
    }

    /// Sets the number of Sinkhorn ⇄ Procrustes alternation rounds
    /// (must be ≥ 1; `build()` rejects 0).
    pub fn subspace_iterations(mut self, iterations: usize) -> Self {
        self.cfg.subspace.iterations = iterations;
        self
    }

    /// Sets the **final** entropic regularization of the annealed
    /// Sinkhorn schedule (must be > 0; `build()` rejects otherwise).
    pub fn sinkhorn_epsilon(mut self, epsilon: f64) -> Self {
        self.cfg.subspace.sinkhorn.epsilon = epsilon;
        self
    }

    /// Sets the **initial** entropic regularization the annealing starts
    /// from (must be > 0; `build()` rejects otherwise).
    pub fn epsilon_start(mut self, epsilon: f64) -> Self {
        self.cfg.subspace.epsilon_start = epsilon;
        self
    }

    /// Sets an explicit sparsity rule.
    pub fn sparsity(mut self, sparsity: SparsityChoice) -> Self {
        self.cfg.sparsity = sparsity;
        self
    }

    /// Sparsifies to a fraction of the complete bipartite graph — the
    /// paper's density knob. Must be in `(0, 1]`.
    pub fn density(mut self, density: f64) -> Self {
        self.cfg.sparsity = SparsityChoice::Density(density);
        self
    }

    /// Sparsifies to `k` nearest neighbors per vertex (union rule).
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.sparsity = SparsityChoice::K(k);
        self
    }

    /// Sparsifies to mutual `k` nearest neighbors (intersection rule).
    pub fn mutual_k(mut self, k: usize) -> Self {
        self.cfg.sparsity = SparsityChoice::MutualK(k);
        self
    }

    /// Sparsifies approximately: banded multi-probe LSH candidates
    /// rescored exactly, unioned with WL structural candidates — the
    /// rule for graph pairs too large for exact kNN. `bits` must be in
    /// `1..=32` and `probes <= bits` (`build()` rejects otherwise):
    ///
    /// ```
    /// use cualign::{AlignerConfig, SparsityChoice};
    /// let cfg = AlignerConfig::builder().ann(10, 8, 12, 2).build().unwrap();
    /// assert!(matches!(
    ///     cfg.sparsity,
    ///     SparsityChoice::Ann { k: 10, bands: 8, bits: 12, probes: 2 }
    /// ));
    /// assert!(AlignerConfig::builder().ann(10, 8, 0, 0).build().is_err());
    /// assert!(AlignerConfig::builder().ann(10, 8, 4, 5).build().is_err());
    /// ```
    pub fn ann(mut self, k: usize, bands: usize, bits: usize, probes: usize) -> Self {
        self.cfg.sparsity = SparsityChoice::Ann {
            k,
            bands,
            bits,
            probes,
        };
        self
    }

    /// Replaces the BP parameters wholesale.
    pub fn bp(mut self, bp: BpConfig) -> Self {
        self.cfg.bp = bp;
        self
    }

    /// Sets the BP iteration budget.
    pub fn bp_iters(mut self, iters: usize) -> Self {
        self.cfg.bp.max_iters = iters;
        self
    }

    /// Sets the objective weights `α` (matching weight) and `β` (overlap).
    pub fn objective(mut self, alpha: f64, beta: f64) -> Self {
        self.cfg.bp.alpha = alpha;
        self.cfg.bp.beta = beta;
        self
    }

    /// Enables the multilevel coarsen–align–project–refine wrapper with
    /// `levels` coarsening levels and default refinement knobs:
    ///
    /// ```
    /// use cualign::AlignerConfig;
    /// let cfg = AlignerConfig::builder().multilevel(3).build().unwrap();
    /// assert_eq!(cfg.multilevel.unwrap().levels, 3);
    /// assert!(AlignerConfig::builder().multilevel(0).build().is_err());
    /// ```
    pub fn multilevel(mut self, levels: usize) -> Self {
        self.cfg.multilevel = Some(MultilevelConfig {
            levels,
            ..MultilevelConfig::default()
        });
        self
    }

    /// Replaces the multilevel configuration wholesale (all knobs).
    pub fn multilevel_config(mut self, ml: MultilevelConfig) -> Self {
        self.cfg.multilevel = Some(ml);
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> Result<AlignerConfig, AlignError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_operating_point() {
        let cfg = AlignerConfig::default();
        assert_eq!(cfg.sparsity, SparsityChoice::Density(0.025));
        assert_eq!(cfg.resolve_k(1000, 1000).unwrap(), 25);
    }

    #[test]
    fn explicit_k_wins() {
        let cfg = AlignerConfig {
            sparsity: SparsityChoice::K(7),
            ..Default::default()
        };
        assert_eq!(cfg.resolve_k(10_000, 10_000).unwrap(), 7);
        let zero = AlignerConfig {
            sparsity: SparsityChoice::K(0),
            ..Default::default()
        };
        assert_eq!(zero.resolve_k(10, 10).unwrap(), 1, "k floors at 1");
    }

    #[test]
    fn variant_rules_resolve() {
        let m = AlignerConfig {
            sparsity: SparsityChoice::MutualK(9),
            ..Default::default()
        };
        assert_eq!(m.resolve_k(100, 100).unwrap(), 9);
    }

    #[test]
    fn mutated_density_resolves_to_typed_error() {
        for bad in [0.0, 1.5, f64::NAN] {
            let mut cfg = AlignerConfig::builder().build().unwrap();
            cfg.sparsity = SparsityChoice::Density(bad);
            assert!(matches!(
                cfg.resolve_k(100, 100),
                Err(AlignError::InvalidConfig {
                    field: "sparsity.density",
                    ..
                })
            ));
        }
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let cfg = AlignerConfig::builder()
            .density(0.025)
            .bp_iters(25)
            .embedding_dim(32)
            .subspace_anchors(256)
            .subspace_iterations(6)
            .sinkhorn_epsilon(0.04)
            .epsilon_start(0.25)
            .build()
            .unwrap();
        assert_eq!(cfg.sparsity, SparsityChoice::Density(0.025));
        assert_eq!(cfg.bp.max_iters, 25);
        assert_eq!(cfg.embedding.dim, 32);
        assert_eq!(cfg.subspace.anchors, 256);
        assert_eq!(cfg.subspace.iterations, 6);
        assert_eq!(cfg.subspace.sinkhorn.epsilon, 0.04);
        assert_eq!(cfg.subspace.epsilon_start, 0.25);
    }

    #[test]
    fn builder_rejects_bad_subspace_knobs() {
        for bad in [0.0, -0.1, f64::NAN] {
            let err = AlignerConfig::builder()
                .sinkhorn_epsilon(bad)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                AlignError::InvalidConfig {
                    field: "subspace.sinkhorn.epsilon",
                    ..
                }
            ));
            let err = AlignerConfig::builder()
                .epsilon_start(bad)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                AlignError::InvalidConfig {
                    field: "subspace.epsilon_start",
                    ..
                }
            ));
        }
        let err = AlignerConfig::builder()
            .subspace_iterations(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            AlignError::InvalidConfig {
                field: "subspace.iterations",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = AlignerConfig::builder().density(bad).build().unwrap_err();
            match err {
                crate::AlignError::InvalidConfig { field, .. } => {
                    assert_eq!(field, "sparsity.density")
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
        assert!(AlignerConfig::builder().k(0).build().is_err());
        assert!(AlignerConfig::builder().mutual_k(0).build().is_err());
        assert!(AlignerConfig::builder().ann(0, 8, 12, 2).build().is_err());
        assert!(AlignerConfig::builder().ann(10, 0, 12, 2).build().is_err());
        assert!(AlignerConfig::builder().ann(10, 8, 33, 2).build().is_err());
        assert!(AlignerConfig::builder().ann(10, 8, 12, 13).build().is_err());
        assert!(AlignerConfig::builder().embedding_dim(0).build().is_err());
        assert!(AlignerConfig::builder()
            .objective(-1.0, 2.0)
            .build()
            .is_err());
        assert!(AlignerConfig::builder()
            .objective(1.0, f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn multilevel_knobs_are_validated() {
        let cfg = AlignerConfig::builder().multilevel(3).build().unwrap();
        let ml = cfg.multilevel.unwrap();
        assert_eq!(ml.levels, 3);
        assert!(ml.band_k >= 1 && ml.refine_bp_iters >= 1);
        assert!(AlignerConfig::default().multilevel.is_none());
        for bad in [
            MultilevelConfig {
                levels: 0,
                ..Default::default()
            },
            MultilevelConfig {
                band_k: 0,
                ..Default::default()
            },
            MultilevelConfig {
                refine_bp_iters: 0,
                ..Default::default()
            },
            MultilevelConfig {
                min_coarse_vertices: 1,
                ..Default::default()
            },
        ] {
            let err = AlignerConfig::builder()
                .multilevel_config(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, AlignError::InvalidConfig { field, .. }
                if field.starts_with("multilevel.")));
        }
    }

    #[test]
    fn validate_catches_direct_mutation() {
        let mut cfg = AlignerConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.bp.gamma = 0.0;
        assert!(cfg.validate().is_err());
        cfg.bp.gamma = 1.0;
        cfg.sparsity = SparsityChoice::Density(2.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_bp_iterations_fail_validation() {
        let err = AlignerConfig::builder().bp_iters(0).build().unwrap_err();
        assert!(matches!(
            err,
            AlignError::InvalidConfig {
                field: "bp.max_iters",
                ..
            }
        ));
        let mut cfg = AlignerConfig::default();
        cfg.bp.max_iters = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn build_l_dispatches_rules() {
        use cualign_linalg::DenseMatrix;
        use cualign_rt::Rng;
        let mut rng = Rng::new(5);
        let ya = DenseMatrix::gaussian(30, 8, &mut rng);
        let yb = ya.clone();
        let g = CsrGraph::from_edges(30, &[]);
        let union = AlignerConfig {
            sparsity: SparsityChoice::K(4),
            ..Default::default()
        }
        .build_l(&ya, &yb, &g, &g)
        .unwrap();
        let mutual = AlignerConfig {
            sparsity: SparsityChoice::MutualK(4),
            ..Default::default()
        }
        .build_l(&ya, &yb, &g, &g)
        .unwrap();
        assert!(mutual.num_edges() <= union.num_edges());
        // Identical embeddings: the diagonal (w = 1) must survive any rule.
        for i in 0..30u32 {
            assert!(union.edge_id(i, i).is_some());
            assert!(mutual.edge_id(i, i).is_some());
        }
    }

    #[test]
    fn ann_rule_builds_l_with_and_without_graphs() {
        use cualign_linalg::DenseMatrix;
        use cualign_rt::Rng;
        let mut rng = Rng::new(8);
        let ya = DenseMatrix::gaussian(40, 8, &mut rng);
        let yb = ya.clone();
        let cfg = AlignerConfig::builder().ann(4, 8, 6, 2).build().unwrap();
        assert_eq!(cfg.resolve_k(40, 40).unwrap(), 4);
        // Graphs whose sizes disagree with the embeddings add no WL
        // pairs (and do not panic): `L` is the embedding-only ANN graph.
        let small = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let l = cfg.build_l(&ya, &yb, &small, &small).unwrap();
        let ann = cfg.ann_config().unwrap();
        let embedding_only = cualign_sparsify::build_alignment_graph_ann(&ya, &yb, &ann, &[]);
        assert_eq!(l.num_edges(), embedding_only.num_edges());
        // Identical embeddings hash identically, so every self pair
        // collides in every band and the diagonal survives.
        for i in 0..40u32 {
            assert!(l.edge_id(i, i).is_some(), "diagonal ({i},{i}) pruned");
        }
        // A path graph has small WL buckets near its endpoints; handing
        // the graphs over can only add (structural) candidates.
        let edges: Vec<(u32, u32)> = (0..39u32).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(40, &edges);
        let l2 = cfg.build_l(&ya, &yb, &g, &g).unwrap();
        assert!(l2.num_edges() >= l.num_edges());
    }
}
