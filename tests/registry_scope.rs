//! Where a run records: every stage and kernel records into the
//! registry its caller chose with `cualign_telemetry::with_registry`,
//! including work the pipeline hands to helper threads, so a
//! fresh-registry run's snapshot holds the same instrument and span
//! names as a run on the process-global registry.
//!
//! No test here records into the global registry except
//! `fresh_registry_run_records_every_kernel`'s own comparison run, so
//! the global snapshot it reads holds that run alone (plus whatever a
//! scoped run leaked — which the comparison exists to catch).

use cualign::{AlignerConfig, AlignmentSession, SparsityChoice};
use cualign_embed::SpectralConfig;
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::permutation::AlignmentInstance;
use cualign_rt::Rng;
use cualign_telemetry::{with_registry, Registry, Snapshot, SpanSnapshot};
use std::collections::BTreeSet;
use std::sync::Barrier;

fn test_cfg() -> AlignerConfig {
    let mut cfg = AlignerConfig {
        embedding: SpectralConfig {
            dim: 16,
            oversample: 8,
            ..Default::default()
        },
        sparsity: SparsityChoice::K(6),
        ..AlignerConfig::default()
    };
    cfg.bp.max_iters = 6;
    cfg.subspace.anchors = 0;
    cfg
}

fn instance(seed: u64) -> AlignmentInstance {
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(120, 360, &mut rng);
    AlignmentInstance::permuted_pair(a, &mut rng)
}

fn fresh_registry() -> &'static Registry {
    Box::leak(Box::new(Registry::new_enabled()))
}

/// One full alignment on a fresh session, recording wherever the
/// calling thread records.
fn align(inst: &AlignmentInstance) {
    let mut s = AlignmentSession::new(&inst.a, &inst.b, test_cfg()).unwrap();
    s.align().unwrap();
}

/// Every span path in the tree, `/`-joined.
fn span_paths(node: &SpanSnapshot, prefix: &str, out: &mut BTreeSet<String>) {
    for (name, child) in &node.children {
        let path = format!("{prefix}{name}");
        span_paths(child, &format!("{path}/"), out);
        out.insert(path);
    }
}

/// Counter names and span paths of a snapshot.
fn names(snap: &Snapshot) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut spans = BTreeSet::new();
    span_paths(&snap.spans, "", &mut spans);
    (snap.counters.keys().cloned().collect(), spans)
}

#[test]
fn fresh_registry_run_records_every_kernel() {
    let inst = instance(31);
    let reg = fresh_registry();
    with_registry(reg, || align(&inst));
    let snap = reg.snapshot();

    for path in [
        ["session.embed", "embed.spectral"],
        ["session.overlap", "overlap.build"],
        ["session.optimize", "bp.run"],
    ] {
        assert!(
            snap.spans.get(&path).is_some(),
            "span {path:?} missing from the run's own registry"
        );
    }
    for counter in [
        "matching.runs",
        "linalg.gemm.flops",
        "sparsify.candidates_kept",
        "bp.runs",
        "overlap.builds",
        "embed.builds",
    ] {
        let value = snap.counters.get(counter).copied().unwrap_or(0);
        assert!(value > 0, "counter {counter} reads {value}");
    }

    // The same run on the global registry registers the same names: no
    // stage or kernel records anywhere but where its caller chose.
    align(&inst);
    assert_eq!(names(&snap), names(&cualign_telemetry::global().snapshot()));
}

#[test]
fn concurrent_sessions_record_into_their_own_registries() {
    let (ia, ib) = (instance(32), instance(33));
    let start = Barrier::new(2);
    let (ra, rb) = (fresh_registry(), fresh_registry());
    std::thread::scope(|scope| {
        for (reg, inst) in [(ra, &ia), (rb, &ib)] {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                with_registry(reg, || align(inst));
            });
        }
    });
    for reg in [ra, rb] {
        let counters = reg.snapshot().counters;
        assert_eq!(counters["bp.runs"], 1);
        assert_eq!(counters["overlap.builds"], 1);
        assert_eq!(counters["embed.builds"], 2);
    }
}
