//! End-to-end tests of the multilevel coarsen–align–project–refine
//! pipeline: quality against the flat pipeline, graceful degradation on
//! tiny inputs, determinism, and the per-level telemetry contract.

use cualign::{align_multilevel, Aligner, AlignerConfig};
use cualign_graph::generators::{duplication_divergence, erdos_renyi_gnm};
use cualign_graph::permutation::AlignmentInstance;
use cualign_rt::Rng;
use cualign_telemetry::Registry;

fn fresh_registry() -> &'static Registry {
    Box::leak(Box::new(Registry::new_enabled()))
}

fn cfg(levels: usize) -> AlignerConfig {
    AlignerConfig::builder()
        .k(6)
        .bp_iters(8)
        .multilevel(levels)
        .build()
        .unwrap()
}

/// The headline claim: on a permuted pair the multilevel path recovers
/// the hidden permutation at least as well as chance-free flat quality
/// thresholds, across graph families.
#[test]
fn multilevel_recovers_across_graph_families() {
    let mut rng = Rng::new(3);
    let families = vec![
        ("erdos-renyi", erdos_renyi_gnm(500, 2000, &mut rng), 0.5),
        (
            "duplication-divergence",
            duplication_divergence(400, 0.45, 0.3, &mut rng),
            0.3,
        ),
    ];
    for (name, g, threshold) in families {
        let inst = AlignmentInstance::permuted_pair(g, &mut rng);
        let r = Aligner::new(cfg(2)).align(&inst.a, &inst.b).unwrap();
        let nc = inst.node_correctness(&r.mapping);
        assert!(
            nc > threshold,
            "{name}: node correctness {nc} below {threshold}"
        );
        assert!(
            r.scores.ncv_gs3 > threshold,
            "{name}: NCV-GS3 {} below {threshold}",
            r.scores.ncv_gs3
        );
    }
}

/// Requesting more levels than the coarsening floor allows must degrade
/// gracefully: tiny graphs cannot coarsen (depth 0) and fall back to the
/// flat session inside the same API.
#[test]
fn tiny_inputs_fall_back_to_flat() {
    let mut rng = Rng::new(4);
    let a = erdos_renyi_gnm(60, 150, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let mut c = AlignerConfig::builder()
        .k(6)
        .bp_iters(8)
        .embedding_dim(16)
        .multilevel(4)
        .build()
        .unwrap();
    // Floor above the graph size: no coarsening possible at all.
    c.multilevel.as_mut().unwrap().min_coarse_vertices = 128;
    let r = Aligner::new(c).align(&inst.a, &inst.b).unwrap();
    assert!(r.scores.ncv_gs3 > 0.0);
    assert_eq!(r.mapping.len(), 60);
}

/// Same config, same inputs, same answer — the multilevel path inherits
/// the pipeline's determinism guarantee.
#[test]
fn multilevel_is_deterministic() {
    let mut rng = Rng::new(5);
    let a = erdos_renyi_gnm(300, 1200, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let r1 = Aligner::new(cfg(2)).align(&inst.a, &inst.b).unwrap();
    let r2 = Aligner::new(cfg(2)).align(&inst.a, &inst.b).unwrap();
    assert_eq!(r1.mapping, r2.mapping);
    assert_eq!(r1.scores, r2.scores);
}

/// The telemetry contract: coarsen/coarse-align spans, one refine span
/// per realized level with band/overlap/bp/repair children — the
/// kernels' own `overlap.build` and `bp.run` spans nested in theirs, in
/// the caller's registry — the `multilevel.depth` gauge, and non-zero
/// per-level size counters.
#[test]
fn multilevel_telemetry_spans_and_counters() {
    let mut rng = Rng::new(6);
    let a = erdos_renyi_gnm(400, 1600, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let registry = fresh_registry();
    let r = cualign_telemetry::with_registry(registry, || {
        align_multilevel(&inst.a, &inst.b, &cfg(2)).unwrap()
    });
    assert!(r.scores.ncv_gs3 > 0.0);

    let snap = registry.snapshot();
    let depth = snap.gauges["multilevel.depth"] as usize;
    assert!(
        depth >= 1,
        "a 400-vertex ER graph must coarsen at least once"
    );
    let spans = &snap.spans.children;
    assert!(spans.contains_key("multilevel.coarsen"));
    assert!(spans.contains_key("multilevel.coarse_align"));
    for j in 0..depth {
        let refine = &spans[&format!("multilevel.level{j}.refine")];
        for child in ["band", "overlap", "bp", "repair"] {
            assert!(
                refine
                    .children
                    .contains_key(&format!("multilevel.level{j}.{child}")),
                "missing level{j} child span {child}"
            );
        }
        for (stage, kernel) in [("overlap", "overlap.build"), ("bp", "bp.run")] {
            let stage = &refine.children[&format!("multilevel.level{j}.{stage}")];
            assert!(
                stage.children.contains_key(kernel),
                "level{j}: {kernel} missing under its stage span"
            );
        }
        assert!(snap.counters[&format!("multilevel.level{j}.projected_pairs")] > 0);
        assert!(snap.counters[&format!("multilevel.level{j}.band_edges")] > 0);
        assert!(snap.counters[&format!("multilevel.level{j}.bp_matched")] > 0);
    }
    // The session stages of the coarse alignment nest under its span.
    assert!(spans["multilevel.coarse_align"]
        .children
        .keys()
        .any(|k| k.starts_with("session.")));

    // Timing attribution reaches the returned record.
    assert!(r.timings.total_s() > 0.0);
    assert!(
        r.timings.sparsify_s > 0.0,
        "coarsen+band seconds must be attributed"
    );
    assert!(
        r.timings.optimize_s > 0.0,
        "bp+repair seconds must be attributed"
    );
}
