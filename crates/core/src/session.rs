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
//! — each stamped with a fingerprint of the configuration slice it was
//! built under (chained with its upstream fingerprint). A stage is
//! recomputed only when its fingerprint changes: changing `sparsity`
//! reuses embeddings and subspace; changing `bp.max_iters` reuses
//! everything through the overlap matrix `S`; changing the embedding
//! seed invalidates the whole chain. [`StageCounters`] exposes exactly
//! what was rebuilt, and the per-run [`StageTimings`] report `0 s` plus
//! a `cache_hits` tick for reused artifacts.
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

use crate::config::AlignerConfig;
use crate::error::{AlignError, GraphSide};
use crate::pipeline::{AlignmentResult, StageTimings};
use crate::scoring::{score_alignment, AlignmentScores};
use cualign_bp::{BpConfig, BpEngine, BpOutcome, MatcherKind};
use cualign_embed::{
    align_subspaces, spectral_embedding, SpectralConfig, SubspaceAlignConfig, SubspaceAlignment,
};
use cualign_graph::{BipartiteGraph, CsrGraph, VertexId};
use cualign_linalg::DenseMatrix;
use cualign_overlap::OverlapMatrix;
use cualign_rt::par;
use cualign_telemetry::SpanContext;
use std::borrow::Borrow;

use crate::config::SparsityChoice;

/// Seed offset separating graph B's embedding randomness from graph A's
/// (the subspace stage must not rely on shared randomness).
pub(crate) const B_SIDE_SEED_OFFSET: u64 = 0x9e3779b97f4a7c15;

// ---------------------------------------------------------------------
// Config fingerprints
// ---------------------------------------------------------------------

/// FNV-1a accumulator over the config fields a stage depends on. Stable
/// within a process run, which is all cache invalidation needs.
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

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
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

fn embedding_fingerprint(c: &SpectralConfig) -> u64 {
    let mut h = Fnv::new(1);
    h.usize(c.dim);
    h.usize(c.iters);
    h.usize(c.oversample);
    h.u64(c.seed);
    h.f64(c.eigenvalue_power);
    h.bool(c.normalize);
    h.finish()
}

fn subspace_fingerprint(upstream: u64, c: &SubspaceAlignConfig) -> u64 {
    let mut h = Fnv::new(4);
    h.u64(upstream);
    h.usize(c.anchors);
    h.usize(c.iterations);
    h.f64(c.sinkhorn.epsilon);
    h.usize(c.sinkhorn.max_iters);
    h.f64(c.sinkhorn.tolerance);
    h.f64(c.epsilon_start);
    h.finish()
}

fn sparsity_fingerprint(upstream: u64, s: &SparsityChoice) -> u64 {
    let mut h = Fnv::new(5);
    h.u64(upstream);
    match *s {
        SparsityChoice::K(k) => {
            h.u64(1);
            h.usize(k);
        }
        SparsityChoice::Density(d) => {
            h.u64(2);
            h.f64(d);
        }
        SparsityChoice::MutualK(k) => {
            h.u64(3);
            h.usize(k);
        }
        SparsityChoice::Ann {
            k,
            bands,
            bits,
            probes,
        } => {
            h.u64(5);
            h.usize(k);
            h.usize(bands);
            h.usize(bits);
            h.usize(probes);
        }
    }
    h.finish()
}

fn bp_fingerprint(upstream: u64, c: &BpConfig) -> u64 {
    let mut h = Fnv::new(6);
    h.u64(upstream);
    h.f64(c.alpha);
    h.f64(c.beta);
    h.f64(c.gamma);
    h.usize(c.max_iters);
    h.bool(c.warm_start);
    h.u64(match c.matcher {
        MatcherKind::Serial => 1,
        MatcherKind::Parallel => 2,
        MatcherKind::Greedy => 3,
        MatcherKind::Suitor => 4,
    });
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

struct Cached<T> {
    fingerprint: u64,
    value: T,
}

/// The cached artifact for a stage that has just been ensured. Every
/// `ensure_*` step leaves its slot populated, so a `None` here is a
/// session bookkeeping bug — reported as [`AlignError::Internal`]
/// rather than panicking (the library's no-panic contract).
fn cached<'a, T>(
    slot: &'a Option<Cached<T>>,
    stage: &'static str,
) -> Result<&'a Cached<T>, AlignError> {
    slot.as_ref().ok_or(AlignError::Internal { stage })
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

/// Ticks the current registry's `session.<stage>.hits` or `.misses`.
/// These counters are the *canonical* cache statistics: unlike the
/// per-run `cache_hits` rollup in [`StageTimings`], they distinguish
/// which stage was served from cache, across the whole session lifetime.
fn count_lookup(stage: &str, hit: bool) {
    let reg = cualign_telemetry::current();
    if hit {
        reg.counter(&format!("session.{stage}.hits")).inc();
    } else {
        reg.counter(&format!("session.{stage}.misses")).inc();
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
    embeddings: Option<Cached<Embeddings>>,
    subspace: Option<Cached<SubspaceAlignment>>,
    sparse_l: Option<Cached<BipartiteGraph>>,
    overlap: Option<Cached<OverlapMatrix>>,
    optimized: Option<Cached<Optimized>>,
    counters: StageCounters,
    cumulative: StageTimings,
}

/// Outcome of an `ensure_*` step: was the artifact reused? (Build
/// durations live in the cumulative timings and the span tree.)
struct StageOutcome {
    hit: bool,
}

impl StageOutcome {
    fn hit() -> Self {
        StageOutcome { hit: true }
    }

    fn built() -> Self {
        StageOutcome { hit: false }
    }
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
            counters: StageCounters::default(),
            cumulative: StageTimings::default(),
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
    /// revalidated lazily by fingerprint on the next stage access, so
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
        self.counters
    }

    /// Total wall-clock spent building artifacts over this session's
    /// lifetime (reused artifacts contribute nothing).
    pub fn cumulative_timings(&self) -> StageTimings {
        self.cumulative
    }

    // -- stage 1: embeddings ------------------------------------------

    fn ensure_embeddings(&mut self) -> Result<StageOutcome, AlignError> {
        let fp = embedding_fingerprint(&self.cfg.embedding);
        if matches!(&self.embeddings, Some(c) if c.fingerprint == fp) {
            count_lookup("embed", true);
            return Ok(StageOutcome::hit());
        }
        count_lookup("embed", false);
        let (value, seconds) = cualign_telemetry::current().timed("session.embed", || {
            // A and B embed concurrently, one per thread. Loops nested in
            // a parallel run execute inline, so each embedding runs the
            // same serial-order code and gives the same bits at any
            // thread count. Each side enters the caller's span path and
            // registry, so both `embed.spectral` spans nest under
            // `session.embed` in the caller's registry.
            let cfg_a = self.cfg.embedding;
            let cfg_b = SpectralConfig {
                seed: cfg_a.seed.wrapping_add(B_SIDE_SEED_OFFSET),
                ..cfg_a
            };
            let sides = [(cfg_a, self.a.borrow()), (cfg_b, self.b.borrow())];
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
            Ok::<_, AlignError>(Embeddings { y1: y1?, y2: y2? })
        });
        self.embeddings = Some(Cached {
            fingerprint: fp,
            value: value?,
        });
        self.counters.embedding_builds += 1;
        self.cumulative.embedding_s += seconds;
        Ok(StageOutcome::built())
    }

    /// The stage-1 artifact: proximity embeddings of both graphs.
    pub fn embeddings(&mut self) -> Result<&Embeddings, AlignError> {
        self.ensure_embeddings()?;
        Ok(&cached(&self.embeddings, "embeddings")?.value)
    }

    // -- stage 2: subspace alignment ----------------------------------

    fn ensure_subspace(&mut self) -> Result<StageOutcome, AlignError> {
        let upstream = self.ensure_embeddings()?;
        let fp = subspace_fingerprint(
            cached(&self.embeddings, "embeddings")?.fingerprint,
            &self.cfg.subspace,
        );
        if upstream.hit && matches!(&self.subspace, Some(c) if c.fingerprint == fp) {
            count_lookup("subspace", true);
            return Ok(StageOutcome::hit());
        }
        count_lookup("subspace", false);
        let emb = &cached(&self.embeddings, "embeddings")?.value;
        let (sub, seconds) = cualign_telemetry::current().timed("session.subspace", || {
            align_subspaces(
                &emb.y1,
                &emb.y2,
                self.a.borrow(),
                self.b.borrow(),
                &self.cfg.subspace,
            )
        });
        self.subspace = Some(Cached {
            fingerprint: fp,
            value: sub?,
        });
        self.counters.subspace_builds += 1;
        self.cumulative.subspace_s += seconds;
        Ok(StageOutcome::built())
    }

    /// The stage-2 artifact: embeddings rotated into a common subspace
    /// (Eq. 2).
    pub fn subspace(&mut self) -> Result<&SubspaceAlignment, AlignError> {
        self.ensure_subspace()?;
        Ok(&cached(&self.subspace, "subspace")?.value)
    }

    // -- stage 3: sparsification --------------------------------------

    fn ensure_sparse_l(&mut self) -> Result<StageOutcome, AlignError> {
        let upstream = self.ensure_subspace()?;
        let fp = sparsity_fingerprint(
            cached(&self.subspace, "subspace")?.fingerprint,
            &self.cfg.sparsity,
        );
        if upstream.hit && matches!(&self.sparse_l, Some(c) if c.fingerprint == fp) {
            count_lookup("sparsify", true);
            return Ok(StageOutcome::hit());
        }
        count_lookup("sparsify", false);
        let sub = &cached(&self.subspace, "subspace")?.value;
        // Hand the graphs over so the ANN rule can union in its
        // Weisfeiler–Lehman structural candidates; exact rules ignore
        // them.
        let (l, seconds) = cualign_telemetry::current().timed("session.sparsify", || {
            self.cfg
                .build_l_with_graphs(&sub.ya, &sub.yb, Some((self.a.borrow(), self.b.borrow())))
        });
        let l = l?;
        if l.num_edges() == 0 {
            return Err(AlignError::EmptySparsification);
        }
        self.sparse_l = Some(Cached {
            fingerprint: fp,
            value: l,
        });
        self.counters.sparsify_builds += 1;
        self.cumulative.sparsify_s += seconds;
        Ok(StageOutcome::built())
    }

    /// The stage-3 artifact: the sparsified candidate graph `L`.
    pub fn sparse_l(&mut self) -> Result<&BipartiteGraph, AlignError> {
        self.ensure_sparse_l()?;
        Ok(&cached(&self.sparse_l, "sparse_l")?.value)
    }

    // -- stage 4: overlap matrix --------------------------------------

    fn ensure_overlap(&mut self) -> Result<StageOutcome, AlignError> {
        let upstream = self.ensure_sparse_l()?;
        // S depends only on (a, b, L): its fingerprint is L's.
        let fp = cached(&self.sparse_l, "sparse_l")?.fingerprint;
        if upstream.hit && matches!(&self.overlap, Some(c) if c.fingerprint == fp) {
            count_lookup("overlap", true);
            return Ok(StageOutcome::hit());
        }
        count_lookup("overlap", false);
        let l = &cached(&self.sparse_l, "sparse_l")?.value;
        let (s, seconds) = cualign_telemetry::current().timed("session.overlap", || {
            OverlapMatrix::build(self.a.borrow(), self.b.borrow(), l)
        });
        self.overlap = Some(Cached {
            fingerprint: fp,
            value: s,
        });
        self.counters.overlap_builds += 1;
        self.cumulative.overlap_s += seconds;
        Ok(StageOutcome::built())
    }

    /// The stage-4 artifact: the overlap matrix `S` (Algorithm 3).
    pub fn overlap(&mut self) -> Result<&OverlapMatrix, AlignError> {
        self.ensure_overlap()?;
        Ok(&cached(&self.overlap, "overlap")?.value)
    }

    /// Both structural artifacts at once (`L`, `S`) — for callers that
    /// need them simultaneously (the GPU cost model, the MR baseline).
    pub fn artifacts(&mut self) -> Result<(&BipartiteGraph, &OverlapMatrix), AlignError> {
        self.ensure_overlap()?;
        Ok((
            &cached(&self.sparse_l, "sparse_l")?.value,
            &cached(&self.overlap, "overlap")?.value,
        ))
    }

    // -- stage 5: optimization ----------------------------------------

    fn ensure_optimized(&mut self) -> Result<StageOutcome, AlignError> {
        let upstream = self.ensure_overlap()?;
        let fp = bp_fingerprint(cached(&self.overlap, "overlap")?.fingerprint, &self.cfg.bp);
        if upstream.hit && matches!(&self.optimized, Some(c) if c.fingerprint == fp) {
            count_lookup("optimize", true);
            return Ok(StageOutcome::hit());
        }
        count_lookup("optimize", false);
        let l = &cached(&self.sparse_l, "sparse_l")?.value;
        let s = &cached(&self.overlap, "overlap")?.value;
        let (value, seconds) = cualign_telemetry::current().timed("session.optimize", || {
            let bp = BpEngine::new(l, s, &self.cfg.bp).run();
            let mapping: Vec<Option<VertexId>> = (0..self.a.borrow().num_vertices())
                .map(|u| bp.best_matching.mate_of_a(u as VertexId))
                .collect();
            let scores = score_alignment(self.a.borrow(), self.b.borrow(), &mapping);
            Optimized {
                bp,
                mapping,
                scores,
            }
        });
        self.optimized = Some(Cached {
            fingerprint: fp,
            value,
        });
        self.counters.optimize_builds += 1;
        self.cumulative.optimize_s += seconds;
        Ok(StageOutcome::built())
    }

    /// Runs the full pipeline, reusing every artifact whose configuration
    /// slice is unchanged. The returned [`StageTimings`] charge `0 s` for
    /// reused stages and report how many were reused in `cache_hits`.
    pub fn align(&mut self) -> Result<AlignmentResult, AlignError> {
        // Drive only the last stage: its dependency walk ensures every
        // upstream artifact exactly once, so each run logs exactly one
        // hit-or-miss per stage in the telemetry counters. Per-run
        // timings are the cumulative deltas (reused stages charge 0 s).
        let before_t = self.cumulative;
        let before_c = self.counters;
        self.ensure_optimized()?;
        let timings = StageTimings {
            embedding_s: self.cumulative.embedding_s - before_t.embedding_s,
            subspace_s: self.cumulative.subspace_s - before_t.subspace_s,
            sparsify_s: self.cumulative.sparsify_s - before_t.sparsify_s,
            overlap_s: self.cumulative.overlap_s - before_t.overlap_s,
            optimize_s: self.cumulative.optimize_s - before_t.optimize_s,
            cache_hits: 5 - (self.counters.total_builds() - before_c.total_builds()),
        };

        let l_edges = cached(&self.sparse_l, "sparse_l")?.value.num_edges();
        let s_nnz = cached(&self.overlap, "overlap")?.value.nnz();
        let o = &cached(&self.optimized, "optimized")?.value;
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
    fn fingerprints_differ_per_field() {
        let base = small_cfg();
        let base_fp = embedding_fingerprint(&base.embedding);
        let mut seeded = base.clone();
        seeded.embedding.seed += 1;
        assert_ne!(base_fp, embedding_fingerprint(&seeded.embedding));

        let sp = sparsity_fingerprint(7, &SparsityChoice::K(5));
        assert_ne!(sp, sparsity_fingerprint(7, &SparsityChoice::K(6)));
        assert_ne!(sp, sparsity_fingerprint(8, &SparsityChoice::K(5)));
        // Same k under a different rule is a different artifact.
        assert_ne!(sp, sparsity_fingerprint(7, &SparsityChoice::MutualK(5)));

        // Every ANN knob is a fingerprint ingredient.
        let ann = |k, bands, bits, probes| {
            sparsity_fingerprint(
                7,
                &SparsityChoice::Ann {
                    k,
                    bands,
                    bits,
                    probes,
                },
            )
        };
        let base_ann = ann(5, 8, 12, 2);
        assert_ne!(base_ann, sp, "ANN k=5 must differ from exact K(5)");
        assert_ne!(base_ann, ann(6, 8, 12, 2));
        assert_ne!(base_ann, ann(5, 9, 12, 2));
        assert_ne!(base_ann, ann(5, 8, 13, 2));
        assert_ne!(base_ann, ann(5, 8, 12, 3));

        let bp = BpConfig::default();
        let mut bp2 = bp;
        bp2.max_iters += 1;
        assert_ne!(bp_fingerprint(1, &bp), bp_fingerprint(1, &bp2));
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
