//! The telemetry view of session caching: the `session.<stage>.hits` /
//! `.misses` registry counters are the *canonical* per-stage cache
//! statistics (ISSUE 3 satellite — `StageTimings.cache_hits` was a
//! global sum with no per-stage attribution). This file re-runs the
//! invalidation matrix of `session_cache.rs` and asserts it against the
//! counters instead of build counts, plus the `StageTimings` span-tree
//! view.
//!
//! Every test runs its sessions under a fresh leaked [`Registry`]
//! ([`with_registry`]) so parallel-running tests (and the
//! globally-registered sessions of other files) cannot perturb the
//! counts.

use cualign::{AlignerConfig, AlignmentSession, SparsityChoice};
use cualign_embed::SpectralConfig;
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::permutation::AlignmentInstance;
use cualign_rt::{par, Rng};
use cualign_telemetry::{with_registry, Registry};

fn test_cfg() -> AlignerConfig {
    let mut cfg = AlignerConfig {
        embedding: SpectralConfig {
            dim: 20,
            oversample: 10,
            ..Default::default()
        },
        sparsity: SparsityChoice::K(6),
        ..AlignerConfig::default()
    };
    cfg.bp.max_iters = 8;
    cfg.subspace.anchors = 0;
    cfg
}

fn instance(seed: u64, n: usize, m: usize) -> AlignmentInstance {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, m, &mut rng);
    AlignmentInstance::permuted_pair(a, &mut rng)
}

fn fresh_registry() -> &'static Registry {
    Box::leak(Box::new(Registry::new_enabled()))
}

/// Reads the five `(hits, misses)` pairs out of a registry snapshot, in
/// pipeline order.
fn stage_stats(reg: &Registry) -> [(u64, u64); 5] {
    let snap = reg.snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    ["embed", "subspace", "sparsify", "overlap", "optimize"].map(|stage| {
        (
            get(&format!("session.{stage}.hits")),
            get(&format!("session.{stage}.misses")),
        )
    })
}

/// The invalidation matrix, row by row, asserted against the per-stage
/// counters: each config change misses exactly the stages downstream of
/// what it fingerprints and hits everything upstream.
#[test]
fn invalidation_matrix_is_visible_per_stage() {
    let inst = instance(11, 120, 360);
    let reg = fresh_registry();
    with_registry(reg, || invalidation_matrix(&inst, reg));
}

fn invalidation_matrix(inst: &AlignmentInstance, reg: &Registry) {
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();

    // Cold run: every stage misses once, nothing hits.
    s.align().unwrap();
    assert_eq!(stage_stats(reg), [(0, 1); 5]);

    // `align()` on an untouched session serves all five from cache.
    s.align().unwrap();
    assert_eq!(stage_stats(reg), [(1, 1); 5]);

    // Sparsity change: embed + subspace hit, the back half misses.
    s.update_config(|c| c.sparsity = SparsityChoice::K(8))
        .unwrap();
    s.align().unwrap();
    assert_eq!(
        stage_stats(reg),
        [(2, 1), (2, 1), (1, 2), (1, 2), (1, 2)],
        "sparsity change must only invalidate sparsify/overlap/optimize"
    );

    // BP budget change: everything through S hits, only optimize misses.
    s.update_config(|c| c.bp.max_iters = 16).unwrap();
    s.align().unwrap();
    assert_eq!(
        stage_stats(reg),
        [(3, 1), (3, 1), (2, 2), (2, 2), (1, 3)],
        "bp change must only invalidate optimize"
    );

    // Embedding seed change: the whole chain misses.
    s.update_config(|c| {
        c.embedding.seed = c.embedding.seed.wrapping_add(1);
    })
    .unwrap();
    s.align().unwrap();
    assert_eq!(
        stage_stats(reg),
        [(3, 2), (3, 2), (2, 3), (2, 3), (1, 4)],
        "embedding change must invalidate everything"
    );
}

/// Partial pipeline pulls attribute hits to the stage actually asked
/// for — `embeddings()` twice is one miss then one hit, and does not
/// touch downstream counters at all.
#[test]
fn partial_pulls_attribute_to_the_right_stage() {
    let inst = instance(12, 100, 300);
    let reg = fresh_registry();
    with_registry(reg, || {
        let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();

        s.embeddings().unwrap();
        s.embeddings().unwrap();
        assert_eq!(stage_stats(reg), [(1, 1), (0, 0), (0, 0), (0, 0), (0, 0)]);

        // `artifacts()` pulls sparsify + overlap; embed/subspace hit via
        // the dependency walk, optimize stays untouched.
        s.artifacts().unwrap();
        assert_eq!(stage_stats(reg), [(2, 1), (0, 1), (0, 1), (0, 1), (0, 0)]);
    });
}

/// Two sessions on distinct registries cannot see each other's traffic —
/// the property that makes the per-stage counters trustworthy in tests.
#[test]
fn per_registry_counters_are_isolated() {
    let inst = instance(13, 90, 270);
    let (ra, rb) = (fresh_registry(), fresh_registry());
    let mut sa = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    let mut sb = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();

    with_registry(ra, || {
        sa.align().unwrap();
        sa.align().unwrap();
    });
    with_registry(rb, || sb.align().unwrap());

    assert_eq!(stage_stats(ra), [(1, 1); 5]);
    assert_eq!(stage_stats(rb), [(0, 1); 5]);
}

/// The session's timings are a view of the same builds the span tree
/// records: each stage's cumulative seconds match its `session.<stage>`
/// span total, and a run's `cache_hits` is the sum of the per-stage hit
/// counters it ticked.
#[test]
fn stage_timings_are_a_view_of_the_span_tree() {
    let inst = instance(14, 110, 330);
    let reg = fresh_registry();
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    let second = with_registry(reg, || {
        s.align().unwrap();
        s.update_config(|c| c.sparsity = SparsityChoice::K(9))
            .unwrap();
        s.align().unwrap()
    });

    let snap = reg.snapshot();
    let span_s = |stage: &str| {
        snap.spans
            .children
            .get(&format!("session.{stage}"))
            .map_or(0.0, |s| s.total_s)
    };
    let c = s.cumulative_timings();

    // Span totals and the session's cumulative numbers come from the
    // same `Registry::timed` calls; the two clock reads bracket each
    // other within microseconds.
    let close = |a: f64, b: f64| (a - b).abs() < 1e-3;
    assert!(close(span_s("embed"), c.embedding_s), "{c:?}");
    assert!(close(span_s("subspace"), c.subspace_s));
    assert!(close(span_s("sparsify"), c.sparsify_s));
    assert!(close(span_s("overlap"), c.overlap_s));
    assert!(close(span_s("optimize"), c.optimize_s));
    assert!(
        span_s("embed") > 0.0,
        "spectral embedding takes nonzero time"
    );

    let hits: u64 = stage_stats(reg).iter().map(|&(h, _)| h).sum();
    assert_eq!(second.timings.cache_hits as u64, hits);
    assert_eq!(hits, 2, "embed + subspace hit on the second run");
}

/// One embedding stage at the default config orthonormalizes each side's
/// block 4 times over its 20 power steps (after steps 5, 10, 15 and 20),
/// where a QR after every step and of the start block would take 21.
#[test]
fn embedding_stage_counts_its_orthonormalizations() {
    let inst = instance(16, 120, 480);
    let cfg = AlignerConfig::default();
    assert_eq!(cfg.embedding.iters, 20);
    let reg = fresh_registry();
    with_registry(reg, || {
        let mut s = AlignmentSession::new(&inst.a, &inst.b, cfg).unwrap();
        s.embeddings().unwrap();
        s.embeddings().unwrap(); // a cache hit runs no QR
    });
    let snap = reg.snapshot();
    assert_eq!(snap.counters["embed.builds"], 2);
    assert_eq!(snap.counters["embed.orthonormalizations"], 8);
}

/// The embedding stage embeds A and B concurrently, but both
/// `embed.spectral` spans still nest under `session.embed`, in the
/// caller's registry, whichever thread ran them, and at every thread
/// count.
#[test]
fn both_embeddings_record_under_session_embed() {
    let inst = instance(15, 100, 300);
    for threads in [1, 2] {
        let reg = fresh_registry();
        par::with_threads(threads, || {
            with_registry(reg, || {
                let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
                s.embeddings().unwrap();
            })
        });
        let snap = reg.snapshot();
        let embed = snap
            .spans
            .get(&["session.embed"])
            .expect("session.embed path");
        assert_eq!(embed.calls, 1);
        assert_eq!(
            embed.children.get("embed.spectral").map(|s| s.calls),
            Some(2),
            "{threads} threads: both embeddings under session.embed"
        );
        assert_eq!(
            snap.spans.children.len(),
            1,
            "{threads} threads: a span recorded outside session.embed"
        );
        assert_eq!(snap.counters["embed.builds"], 2);
    }
}

/// Each embedding times its Rayleigh–Ritz step in one
/// `embed.rayleigh_ritz` span nested under its own `embed.spectral`, at
/// every thread count, so the small eigenproblem shows in the span tree.
#[test]
fn rayleigh_ritz_records_under_embed_spectral() {
    let inst = instance(15, 100, 300);
    for threads in [1, 2] {
        let reg = fresh_registry();
        par::with_threads(threads, || {
            with_registry(reg, || {
                let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
                s.embeddings().unwrap();
            })
        });
        let snap = reg.snapshot();
        let spectral = snap
            .spans
            .get(&["session.embed", "embed.spectral"])
            .expect("embed.spectral under session.embed");
        let rr = spectral
            .children
            .get("embed.rayleigh_ritz")
            .unwrap_or_else(|| panic!("{threads} threads: no embed.rayleigh_ritz child"));
        assert_eq!(
            rr.calls, 2,
            "{threads} threads: one Rayleigh–Ritz step per side"
        );
        assert!(rr.total_s <= spectral.total_s);
        assert_eq!(spectral.children.len(), 1);
    }
}
