//! Stage-cached alignment sessions — the engine behind [`crate::Aligner`].
//!
//! The pipeline of paper Fig. 2 splits into a run-once initialization
//! (embed → subspace → sparsify → overlap) and an iterated optimization
//! (BP ⇄ matching). A one-shot [`crate::Aligner::align`] pays for the
//! whole chain every call, which is wasteful for the sweeps the
//! evaluation runs: a density sweep only changes the sparsifier, a BP
//! budget sweep only changes the last stage.
//!
//! [`AlignmentSession`] materializes the pipeline as five explicit,
//! reusable artifacts —
//!
//! ```text
//! Embeddings → AlignedSubspace → SparseL → Overlap → Optimized
//! ```
//!
//! — each stored under a key: the configuration slice it was built
//! under, chained with its upstream stage's key. A stage is recomputed
//! only when its key changes or its upstream was rebuilt: changing
//! `sparsity` reuses embeddings and subspace; changing `bp.max_iters`
//! reuses everything through the overlap matrix `S`; changing the
//! embedding seed invalidates the whole chain. All five stages run
//! through one cache step, which keeps one ledger of builds and build
//! seconds per stage; [`StageCounters`], the per-run [`StageTimings`]
//! (`0 s` plus a `cache_hits` tick for reused artifacts) and
//! [`AlignmentSession::cumulative_timings`] are views of that ledger.
//!
//! All stage timing flows through the telemetry subsystem: each build
//! runs inside a `session.<stage>` span
//! ([`cualign_telemetry::Registry::timed`]), so with telemetry enabled
//! the span tree carries the same numbers `StageTimings` reports, and
//! the registry's `session.<stage>.hits`/`.misses` counters are the
//! canonical per-stage cache statistics (the per-run `cache_hits` rollup
//! cannot say *which* stage was reused; the counters can). A session
//! records, at each call, into the caller's
//! [`cualign_telemetry::current`] registry, and so does every kernel it
//! runs.

use crate::config::{AlignerConfig, SparsityChoice};
use crate::error::{AlignError, GraphSide};
use crate::pipeline::{AlignmentResult, StageTimings};
use crate::scoring::{score_alignment, AlignmentScores};
use cualign_bp::{BpConfig, BpEngine, BpOutcome};
use cualign_embed::{
    align_subspaces, spectral_embedding, SpectralConfig, SubspaceAlignConfig, SubspaceAlignment,
};
use cualign_graph::{BipartiteGraph, CsrGraph, VertexId};
use cualign_linalg::DenseMatrix;
use cualign_overlap::OverlapMatrix;
use cualign_rt::par;
use cualign_telemetry::SpanContext;
use std::borrow::Borrow;

/// Seed offset separating graph B's embedding randomness from graph A's
/// (the subspace stage must not rely on shared randomness).
pub(crate) const B_SIDE_SEED_OFFSET: u64 = 0x9e3779b97f4a7c15;

// ---------------------------------------------------------------------
// Input-pair fingerprint
// ---------------------------------------------------------------------

/// FNV-1a accumulator over a graph pair's CSR arrays.
struct Fnv(u64);

impl Fnv {
    fn new(tag: u64) -> Self {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.u64(tag);
        h
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Folds one CSR graph's exact structure (vertex count, offsets,
/// targets) into an FNV accumulator.
fn fold_graph(h: &mut Fnv, g: &CsrGraph) {
    h.usize(g.num_vertices());
    for &off in g.offsets() {
        h.usize(off);
    }
    for &t in g.targets() {
        h.u64(t as u64);
    }
}

/// Structural fingerprint of an ordered graph pair: an FNV-1a digest of
/// both CSR layouts (vertex counts, offset arrays, target arrays).
///
/// Two pairs collide only if their CSR representations are bytewise
/// identical, so the digest identifies the *inputs* of a session
/// independently of any configuration — the key a serving layer needs to
/// route repeat queries at the session cache
/// ([`AlignmentSession::fingerprint`] exposes the same value). The pair
/// is ordered: `(a, b)` and `(b, a)` hash differently, matching the
/// asymmetric A→B direction of the pipeline.
pub fn graph_pair_fingerprint(a: &CsrGraph, b: &CsrGraph) -> u64 {
    let mut h = Fnv::new(7);
    fold_graph(&mut h, a);
    fold_graph(&mut h, b);
    h.finish()
}

// ---------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------

/// Stage-1 artifact: the proximity embeddings of both input graphs.
#[derive(Clone, Debug)]
pub struct Embeddings {
    /// Embedding of graph A (`n_A × d`).
    pub y1: DenseMatrix,
    /// Embedding of graph B (`n_B × d`), drawn with offset randomness.
    pub y2: DenseMatrix,
}

/// Stage-5 artifact: the optimization outcome plus derived quality data.
#[derive(Clone, Debug)]
struct Optimized {
    bp: BpOutcome,
    mapping: Vec<Option<VertexId>>,
    scores: AlignmentScores,
}

// ---------------------------------------------------------------------
// The cache step
// ---------------------------------------------------------------------

type SubspaceKey = (SpectralConfig, SubspaceAlignConfig);
type SparsifyKey = (SubspaceKey, SparsityChoice);
type OptimizeKey = (SparsifyKey, BpConfig);

fn sparsify_key(c: &AlignerConfig) -> SparsifyKey {
    ((c.embedding, c.subspace), c.sparsity)
}

/// A built artifact and the key it was built under.
///
/// A stage's key is the configuration slice the stage reads, chained
/// with its upstream stage's key, so equal keys mean equal configuration
/// all the way up the pipeline: `SpectralConfig`, then
/// `(…, SubspaceAlignConfig)`, `(…, SparsityChoice)` (which `S`, having
/// no configuration of its own, reuses) and `(…, BpConfig)`.
///
/// Keys compare with derived `PartialEq`, which compares floats with
/// `==`: −0.0 and +0.0 are equal keys, so a config that only flips the
/// sign of a zero reuses the artifact. Of the fields `validate` checks,
/// only `bp.alpha` and `bp.beta` (set through
/// `AlignerConfigBuilder::objective`) accept a zero of either sign. A
/// NaN never equals itself; `validate` rejects NaN everywhere but the
/// unchecked `subspace.sinkhorn.tolerance`, whose NaN rebuilds the
/// subspace stage and its suffix on every run.
struct Cached<K, T> {
    key: K,
    value: T,
}

/// The artifact of a stage that has just been ensured. Every `ensure_*`
/// step leaves its slot populated, so a `None` here is a session
/// bookkeeping bug — reported as [`AlignError::Internal`] rather than
/// panicking (the library's no-panic contract).
fn cached<'a, K, T>(
    slot: &'a Option<Cached<K, T>>,
    stage: &'static str,
) -> Result<&'a T, AlignError> {
    slot.as_ref()
        .map(|c| &c.value)
        .ok_or(AlignError::Internal { stage })
}

/// The five pipeline stages, in order; a stage's index is its column in
/// the [`Ledger`].
#[derive(Clone, Copy)]
enum Stage {
    Embed,
    Subspace,
    Sparsify,
    Overlap,
    Optimize,
}

const STAGES: usize = 5;

impl Stage {
    /// The `<stage>` of its `session.<stage>.hits`/`.misses` counters.
    fn name(self) -> &'static str {
        ["embed", "subspace", "sparsify", "overlap", "optimize"][self as usize]
    }
}

/// Builds and build seconds per stage over a session's lifetime: the one
/// record behind [`AlignmentSession::counters`],
/// [`AlignmentSession::cumulative_timings`] and each run's
/// [`StageTimings`].
#[derive(Clone, Copy, Default)]
struct Ledger {
    builds: [usize; STAGES],
    seconds: [f64; STAGES],
}

impl Ledger {
    /// What was built since `before`.
    fn since(&self, before: &Ledger) -> Ledger {
        Ledger {
            builds: std::array::from_fn(|i| self.builds[i] - before.builds[i]),
            seconds: std::array::from_fn(|i| self.seconds[i] - before.seconds[i]),
        }
    }

    fn counters(&self) -> StageCounters {
        let [embedding_builds, subspace_builds, sparsify_builds, overlap_builds, optimize_builds] =
            self.builds;
        StageCounters {
            embedding_builds,
            subspace_builds,
            sparsify_builds,
            overlap_builds,
            optimize_builds,
        }
    }

    fn timings(&self, cache_hits: usize) -> StageTimings {
        let [embedding_s, subspace_s, sparsify_s, overlap_s, optimize_s] = self.seconds;
        StageTimings {
            embedding_s,
            subspace_s,
            sparsify_s,
            overlap_s,
            optimize_s,
            cache_hits,
        }
    }
}

/// The cache step every stage runs. The stage hits only when its
/// upstream hit and `slot` holds an artifact built under `key`. Ticks the
/// current registry's `session.<stage>.hits` or `.misses`; on a miss,
/// runs `build` inside the `session.<stage>` span, stores its artifact
/// under `key` and records the build in `ledger`. A failed build leaves
/// the slot and the ledger as they were. Returns whether the stage hit.
fn step<K: PartialEq, T>(
    slot: &mut Option<Cached<K, T>>,
    ledger: &mut Ledger,
    stage: Stage,
    key: K,
    upstream_hit: bool,
    build: impl FnOnce() -> Result<T, AlignError>,
) -> Result<bool, AlignError> {
    let reg = cualign_telemetry::current();
    let name = stage.name();
    if upstream_hit && slot.as_ref().is_some_and(|c| c.key == key) {
        reg.counter(&format!("session.{name}.hits")).inc();
        return Ok(true);
    }
    reg.counter(&format!("session.{name}.misses")).inc();
    let (value, seconds) = reg.timed(
        match stage {
            Stage::Embed => "session.embed",
            Stage::Subspace => "session.subspace",
            Stage::Sparsify => "session.sparsify",
            Stage::Overlap => "session.overlap",
            Stage::Optimize => "session.optimize",
        },
        build,
    );
    *slot = Some(Cached { key, value: value? });
    ledger.builds[stage as usize] += 1;
    ledger.seconds[stage as usize] += seconds;
    Ok(false)
}

/// Embeds A and B concurrently, one per thread. Loops nested in a
/// parallel run execute inline, so each embedding runs the same
/// serial-order code and gives the same bits at any thread count. Each
/// side enters the caller's span path and registry, so both
/// `embed.spectral` spans nest under `session.embed` in the caller's
/// registry.
fn embed_pair(a: &CsrGraph, b: &CsrGraph, cfg_a: SpectralConfig) -> Result<Embeddings, AlignError> {
    let cfg_b = SpectralConfig {
        seed: cfg_a.seed.wrapping_add(B_SIDE_SEED_OFFSET),
        ..cfg_a
    };
    let sides = [(cfg_a, a), (cfg_b, b)];
    let ctx = SpanContext::current();
    let mut ys = [Ok(DenseMatrix::zeros(0, 0)), Ok(DenseMatrix::zeros(0, 0))];
    par::map(&mut ys, 1, |i| {
        let _ctx = ctx.enter();
        let (cfg, g) = &sides[i];
        let reg = cualign_telemetry::current();
        reg.counter("embed.builds").inc();
        let _span = reg.span("embed.spectral");
        spectral_embedding(g, cfg)
    });
    let [y1, y2] = ys;
    Ok(Embeddings { y1: y1?, y2: y2? })
}

/// How many times each pipeline stage has been (re)built over a
/// session's lifetime. Stage accessors and [`AlignmentSession::align`]
/// increment these only on actual builds, so a sweep can assert that the
/// run-once stages really ran once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Builds of the [`Embeddings`] artifact.
    pub embedding_builds: usize,
    /// Builds of the aligned-subspace artifact (Eq. 2).
    pub subspace_builds: usize,
    /// Builds of the sparsified candidate graph `L`.
    pub sparsify_builds: usize,
    /// Builds of the overlap matrix `S` (Algorithm 3).
    pub overlap_builds: usize,
    /// Runs of the BP ⇄ matching optimization loop.
    pub optimize_builds: usize,
}

impl StageCounters {
    /// Total stage builds across the pipeline.
    pub fn total_builds(&self) -> usize {
        self.embedding_builds
            + self.subspace_builds
            + self.sparsify_builds
            + self.overlap_builds
            + self.optimize_builds
    }
}

// ---------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------

/// A stage-cached alignment engine over one pair of input graphs.
///
/// Construct with [`AlignmentSession::new`], then either call
/// [`AlignmentSession::align`] for full results or the individual stage
/// accessors ([`AlignmentSession::embeddings`] …
/// [`AlignmentSession::overlap`]) for partial pipelines (the cone-align
/// baseline stops after `L`). Reconfigure between runs with
/// [`AlignmentSession::update_config`]; only the stages whose
/// configuration slice actually changed are rebuilt:
///
/// ```
/// use cualign::{AlignerConfig, AlignmentSession, SparsityChoice};
/// use cualign_graph::generators::erdos_renyi_gnm;
/// use cualign_graph::permutation::AlignmentInstance;
/// use cualign_rt::Rng;
///
/// let mut rng = Rng::new(7);
/// let a = erdos_renyi_gnm(120, 360, &mut rng);
/// let inst = AlignmentInstance::permuted_pair(a, &mut rng);
///
/// let cfg = AlignerConfig::builder().density(0.01).bp_iters(8).build().unwrap();
/// let mut session = AlignmentSession::new(&inst.a, &inst.b, cfg).unwrap();
/// for density in [0.01, 0.025, 0.05] {
///     session.update_config(|c| c.sparsity = SparsityChoice::Density(density)).unwrap();
///     let r = session.align().unwrap();
///     println!("{density}: {:.3} ({} stages reused)", r.scores.ncv_gs3, r.timings.cache_hits);
/// }
/// // Embeddings and subspace were computed once, not three times.
/// assert_eq!(session.counters().embedding_builds, 1);
/// assert_eq!(session.counters().subspace_builds, 1);
/// assert_eq!(session.counters().sparsify_builds, 3);
/// ```
///
/// The session is generic over how it holds its input graphs: anything
/// that [`Borrow`]s a [`CsrGraph`]. Sweep drivers pass plain references
/// (`AlignmentSession::new(&a, &b, cfg)` as above); long-running
/// embedders that must *own* their sessions — the `cualign-serve`
/// session LRU — pass `Arc<CsrGraph>`, which makes the session
/// `'static` and freely movable across worker threads:
///
/// ```
/// use cualign::{AlignerConfig, AlignmentSession};
/// use cualign_graph::CsrGraph;
/// use std::sync::Arc;
///
/// let ring: Vec<(u32, u32)> = (0..20).map(|i| (i, (i + 1) % 20)).collect();
/// let g = Arc::new(CsrGraph::from_edges(20, &ring));
/// let cfg = AlignerConfig::builder().embedding_dim(2).k(2).bp_iters(2).build().unwrap();
/// let session: AlignmentSession<Arc<CsrGraph>> =
///     AlignmentSession::new(Arc::clone(&g), g, cfg).unwrap();
/// let owned: Box<dyn Send> = Box::new(session); // no borrowed graphs
/// # drop(owned);
/// ```
pub struct AlignmentSession<G: Borrow<CsrGraph>> {
    a: G,
    b: G,
    /// Structural digest of the input pair, fixed at construction.
    pair_fp: u64,
    cfg: AlignerConfig,
    embeddings: Option<Cached<SpectralConfig, Embeddings>>,
    subspace: Option<Cached<SubspaceKey, SubspaceAlignment>>,
    sparse_l: Option<Cached<SparsifyKey, BipartiteGraph>>,
    overlap: Option<Cached<SparsifyKey, OverlapMatrix>>,
    optimized: Option<Cached<OptimizeKey, Optimized>>,
    ledger: Ledger,
}

impl<G: Borrow<CsrGraph>> AlignmentSession<G> {
    /// Opens a session over `a` and `b`. Validates the configuration
    /// and rejects degenerate inputs (empty graphs, embedding dimension
    /// larger than the smaller graph).
    pub fn new(a: G, b: G, cfg: AlignerConfig) -> Result<Self, AlignError> {
        cfg.validate()?;
        Self::check_inputs(a.borrow(), b.borrow(), &cfg)?;
        let pair_fp = graph_pair_fingerprint(a.borrow(), b.borrow());
        Ok(AlignmentSession {
            a,
            b,
            pair_fp,
            cfg,
            embeddings: None,
            subspace: None,
            sparse_l: None,
            overlap: None,
            optimized: None,
            ledger: Ledger::default(),
        })
    }

    fn check_inputs(a: &CsrGraph, b: &CsrGraph, cfg: &AlignerConfig) -> Result<(), AlignError> {
        if a.num_vertices() == 0 {
            return Err(AlignError::EmptyGraph { side: GraphSide::A });
        }
        if b.num_vertices() == 0 {
            return Err(AlignError::EmptyGraph { side: GraphSide::B });
        }
        let smaller = a.num_vertices().min(b.num_vertices());
        // dim plus the oversampling block, not dim alone: the spectral
        // kernel rejects the same bound, and this check reports it before
        // any stage runs.
        let block = cfg.embedding.dim.saturating_add(cfg.embedding.oversample);
        if block > smaller {
            return Err(AlignError::DimExceedsVertices {
                dim: cfg.embedding.dim,
                vertices: smaller,
            });
        }
        Ok(())
    }

    /// The input graphs `(a, b)`.
    pub fn graphs(&self) -> (&CsrGraph, &CsrGraph) {
        (self.a.borrow(), self.b.borrow())
    }

    /// Structural fingerprint of the input graph pair
    /// ([`graph_pair_fingerprint`]), computed once at construction.
    ///
    /// Configuration changes never alter it — it identifies *which
    /// inputs* this session serves, which is exactly the cache key a
    /// serving layer wants: repeat queries for the same pair (under any
    /// config) route to the same resident session and hit its stage
    /// cache.
    pub fn fingerprint(&self) -> u64 {
        self.pair_fp
    }

    /// Drops every cached stage artifact, returning the session to its
    /// freshly-constructed state (configuration, counters, and
    /// cumulative timings are kept).
    ///
    /// This is the eviction hook for embedders that keep sessions
    /// resident — a session LRU under memory pressure can shed the
    /// artifact payload (embeddings, `L`, `S`, the optimized matching)
    /// without discarding the session's identity or statistics; the next
    /// [`AlignmentSession::align`] rebuilds from the graphs.
    pub fn clear_cache(&mut self) {
        self.embeddings = None;
        self.subspace = None;
        self.sparse_l = None;
        self.overlap = None;
        self.optimized = None;
    }

    /// The active configuration.
    pub fn config(&self) -> &AlignerConfig {
        &self.cfg
    }

    /// Replaces the configuration. Cached artifacts stay resident and are
    /// revalidated lazily against their keys on the next stage access, so
    /// switching back and forth between two BP budgets never rebuilds the
    /// front half.
    pub fn set_config(&mut self, cfg: AlignerConfig) -> Result<(), AlignError> {
        cfg.validate()?;
        Self::check_inputs(self.a.borrow(), self.b.borrow(), &cfg)?;
        self.cfg = cfg;
        Ok(())
    }

    /// Edits the configuration in place (clone–mutate–validate).
    ///
    /// ```ignore
    /// session.update_config(|c| c.bp.max_iters = 50)?;
    /// ```
    pub fn update_config(
        &mut self,
        edit: impl FnOnce(&mut AlignerConfig),
    ) -> Result<(), AlignError> {
        let mut cfg = self.cfg.clone();
        edit(&mut cfg);
        self.set_config(cfg)
    }

    /// Per-stage build counters over this session's lifetime.
    pub fn counters(&self) -> StageCounters {
        self.ledger.counters()
    }

    /// Total wall-clock spent building artifacts over this session's
    /// lifetime (reused artifacts contribute nothing; `cache_hits` is 0).
    pub fn cumulative_timings(&self) -> StageTimings {
        self.ledger.timings(0)
    }

    // Each `ensure_*` brings its stage up to date through `step`, after
    // its upstream stage, and returns whether the stage hit.

    fn ensure_embeddings(&mut self) -> Result<bool, AlignError> {
        let (a, b, cfg) = (self.a.borrow(), self.b.borrow(), self.cfg.embedding);
        step(
            &mut self.embeddings,
            &mut self.ledger,
            Stage::Embed,
            cfg,
            true,
            || embed_pair(a, b, cfg),
        )
    }

    fn ensure_subspace(&mut self) -> Result<bool, AlignError> {
        let upstream = self.ensure_embeddings()?;
        let emb = cached(&self.embeddings, "embeddings")?;
        let (a, b, cfg) = (self.a.borrow(), self.b.borrow(), &self.cfg);
        step(
            &mut self.subspace,
            &mut self.ledger,
            Stage::Subspace,
            (cfg.embedding, cfg.subspace),
            upstream,
            || Ok(align_subspaces(&emb.y1, &emb.y2, a, b, &cfg.subspace)?),
        )
    }

    fn ensure_sparse_l(&mut self) -> Result<bool, AlignError> {
        let upstream = self.ensure_subspace()?;
        let sub = cached(&self.subspace, "subspace")?;
        let (a, b, cfg) = (self.a.borrow(), self.b.borrow(), &self.cfg);
        step(
            &mut self.sparse_l,
            &mut self.ledger,
            Stage::Sparsify,
            sparsify_key(cfg),
            upstream,
            || {
                let l = cfg.build_l(&sub.ya, &sub.yb, a, b)?;
                if l.num_edges() == 0 {
                    return Err(AlignError::EmptySparsification);
                }
                Ok(l)
            },
        )
    }

    fn ensure_overlap(&mut self) -> Result<bool, AlignError> {
        let upstream = self.ensure_sparse_l()?;
        let l = cached(&self.sparse_l, "sparse_l")?;
        let (a, b) = (self.a.borrow(), self.b.borrow());
        step(
            &mut self.overlap,
            &mut self.ledger,
            Stage::Overlap,
            sparsify_key(&self.cfg),
            upstream,
            || Ok(OverlapMatrix::build(a, b, l)),
        )
    }

    fn ensure_optimized(&mut self) -> Result<bool, AlignError> {
        let upstream = self.ensure_overlap()?;
        let l = cached(&self.sparse_l, "sparse_l")?;
        let s = cached(&self.overlap, "overlap")?;
        let (a, b, cfg) = (self.a.borrow(), self.b.borrow(), &self.cfg);
        step(
            &mut self.optimized,
            &mut self.ledger,
            Stage::Optimize,
            (sparsify_key(cfg), cfg.bp),
            upstream,
            || {
                let bp = BpEngine::new(l, s, &cfg.bp).run();
                let mapping: Vec<Option<VertexId>> = (0..a.num_vertices())
                    .map(|u| bp.best_matching.mate_of_a(u as VertexId))
                    .collect();
                let scores = score_alignment(a, b, &mapping);
                Ok(Optimized {
                    bp,
                    mapping,
                    scores,
                })
            },
        )
    }

    /// The stage-1 artifact: proximity embeddings of both graphs.
    pub fn embeddings(&mut self) -> Result<&Embeddings, AlignError> {
        self.ensure_embeddings()?;
        cached(&self.embeddings, "embeddings")
    }

    /// The stage-2 artifact: embeddings rotated into a common subspace
    /// (Eq. 2).
    pub fn subspace(&mut self) -> Result<&SubspaceAlignment, AlignError> {
        self.ensure_subspace()?;
        cached(&self.subspace, "subspace")
    }

    /// The stage-3 artifact: the sparsified candidate graph `L`.
    pub fn sparse_l(&mut self) -> Result<&BipartiteGraph, AlignError> {
        self.ensure_sparse_l()?;
        cached(&self.sparse_l, "sparse_l")
    }

    /// The stage-4 artifact: the overlap matrix `S` (Algorithm 3).
    pub fn overlap(&mut self) -> Result<&OverlapMatrix, AlignError> {
        self.ensure_overlap()?;
        cached(&self.overlap, "overlap")
    }

    /// Both structural artifacts at once (`L`, `S`) — for callers that
    /// need them simultaneously (the GPU cost model, the MR baseline).
    pub fn artifacts(&mut self) -> Result<(&BipartiteGraph, &OverlapMatrix), AlignError> {
        self.ensure_overlap()?;
        Ok((
            cached(&self.sparse_l, "sparse_l")?,
            cached(&self.overlap, "overlap")?,
        ))
    }

    /// Runs the full pipeline, reusing every artifact whose configuration
    /// slice is unchanged. The returned [`StageTimings`] charge `0 s` for
    /// reused stages and report how many were reused in `cache_hits`.
    pub fn align(&mut self) -> Result<AlignmentResult, AlignError> {
        // Drive only the last stage: its dependency walk ensures every
        // upstream artifact exactly once, so each run logs exactly one
        // hit-or-miss per stage in the telemetry counters, and this
        // run's timings are what the ledger gained.
        let before = self.ledger;
        self.ensure_optimized()?;
        let run = self.ledger.since(&before);
        let timings = run.timings(STAGES - run.builds.iter().sum::<usize>());

        let l_edges = cached(&self.sparse_l, "sparse_l")?.num_edges();
        let s_nnz = cached(&self.overlap, "overlap")?.nnz();
        let o = cached(&self.optimized, "optimized")?;
        Ok(AlignmentResult {
            matching: o.bp.best_matching.clone(),
            mapping: o.mapping.clone(),
            scores: o.scores,
            bp: o.bp.clone(),
            timings,
            l_edges,
            s_nnz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::permutation::AlignmentInstance;
    use cualign_rt::Rng;
    use std::sync::Arc;

    fn small_cfg() -> AlignerConfig {
        let mut cfg = AlignerConfig {
            embedding: SpectralConfig {
                dim: 16,
                oversample: 8,
                ..Default::default()
            },
            sparsity: SparsityChoice::K(5),
            ..AlignerConfig::default()
        };
        cfg.bp.max_iters = 5;
        cfg.subspace.anchors = 0;
        cfg
    }

    #[test]
    fn repeated_align_hits_every_stage() {
        let mut rng = Rng::new(9);
        let a = erdos_renyi_gnm(60, 150, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let mut s = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        let r1 = s.align().unwrap();
        assert_eq!(r1.timings.cache_hits, 0);
        assert!(r1.timings.total_s() > 0.0);
        let r2 = s.align().unwrap();
        assert_eq!(r2.timings.cache_hits, 5);
        assert_eq!(r2.timings.total_s(), 0.0);
        assert_eq!(r1.mapping, r2.mapping);
        assert_eq!(s.counters().total_builds(), 5);
    }

    #[test]
    fn stage_accessors_build_prefix_only() {
        let mut rng = Rng::new(10);
        let a = erdos_renyi_gnm(50, 120, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let mut s = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        let l_edges = s.sparse_l().unwrap().num_edges();
        assert!(l_edges >= 50 * 5);
        assert_eq!(
            s.counters(),
            StageCounters {
                embedding_builds: 1,
                subspace_builds: 1,
                sparsify_builds: 1,
                ..Default::default()
            }
        );
        // Completing the pipeline afterwards reuses the prefix.
        let r = s.align().unwrap();
        assert_eq!(r.timings.cache_hits, 3);
        assert_eq!(s.counters().embedding_builds, 1);
    }

    #[test]
    fn pair_fingerprint_identifies_inputs_not_config() {
        let mut rng = Rng::new(11);
        let a = erdos_renyi_gnm(40, 90, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);

        let mut s1 = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        let s2 = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(
            s1.fingerprint(),
            graph_pair_fingerprint(&inst.a, &inst.b),
            "accessor and free function agree"
        );
        // Config changes leave the pair identity alone.
        let before = s1.fingerprint();
        s1.update_config(|c| c.bp.max_iters = 9).unwrap();
        assert_eq!(s1.fingerprint(), before);
        // Ordering matters; a different pair hashes differently.
        assert_ne!(
            graph_pair_fingerprint(&inst.a, &inst.b),
            graph_pair_fingerprint(&inst.b, &inst.a)
        );
        let other = erdos_renyi_gnm(40, 90, &mut rng);
        assert_ne!(
            graph_pair_fingerprint(&inst.a, &inst.b),
            graph_pair_fingerprint(&inst.a, &other)
        );
    }

    #[test]
    fn clear_cache_sheds_artifacts_and_rebuilds() {
        let mut rng = Rng::new(12);
        let a = erdos_renyi_gnm(50, 120, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let mut s = AlignmentSession::new(&inst.a, &inst.b, small_cfg()).unwrap();
        let r1 = s.align().unwrap();
        s.clear_cache();
        let r2 = s.align().unwrap();
        assert_eq!(r2.timings.cache_hits, 0, "eviction dropped every artifact");
        assert_eq!(r1.mapping, r2.mapping, "rebuild is deterministic");
        assert_eq!(s.counters().total_builds(), 10);
    }

    #[test]
    fn arc_owned_sessions_are_static_and_send() {
        let mut rng = Rng::new(13);
        let a = erdos_renyi_gnm(50, 120, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let (ga, gb) = (Arc::new(inst.a.clone()), Arc::new(inst.b.clone()));
        let mut owned: AlignmentSession<Arc<CsrGraph>> =
            AlignmentSession::new(Arc::clone(&ga), Arc::clone(&gb), small_cfg()).unwrap();
        // The whole point of Arc ownership: movable to another thread.
        let handle = std::thread::spawn(move || {
            let r = owned.align().unwrap();
            (owned.fingerprint(), r.mapping)
        });
        let (fp, mapping) = handle.join().unwrap();
        assert_eq!(fp, graph_pair_fingerprint(&ga, &gb));
        let borrowed = AlignmentSession::new(&inst.a, &inst.b, small_cfg())
            .unwrap()
            .align()
            .unwrap();
        assert_eq!(mapping, borrowed.mapping, "ownership mode is transparent");
    }
}
