//! Consistency of the GPU execution model against the reference
//! implementations, on pipeline-produced structures: the simulator must
//! change *timing*, never *results*, and its cost orderings must reflect
//! the paper's §5 claims.

use cualign::{AlignerConfig, SparsityChoice};
use cualign_bp::{BpConfig, BpEngine};
use cualign_embed::{align_subspaces, spectral_embedding, SpectralConfig};
use cualign_gpusim::bp_gpu::{model_bp_iteration, simulate_bp};
use cualign_gpusim::match_gpu::simulate_matching;
use cualign_gpusim::report::table2_row;
use cualign_gpusim::{DeviceSpec, ExecConfig};
use cualign_graph::generators::duplication_divergence;
use cualign_graph::permutation::AlignmentInstance;
use cualign_graph::BipartiteGraph;
use cualign_matching::locally_dominant_serial;
use cualign_overlap::OverlapMatrix;
use cualign_rt::Rng;
use cualign_sparsify::build_alignment_graph;

fn pipeline_structures(n: usize, seed: u64, k: usize) -> (BipartiteGraph, OverlapMatrix) {
    let mut rng = Rng::new(seed);
    let a = duplication_divergence(n, 0.42, 0.3, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let cfg = AlignerConfig {
        sparsity: SparsityChoice::K(k),
        ..Default::default()
    };
    let y1 = spectral_embedding(&inst.a, &cfg.embedding).expect("valid embedding config");
    let cfg_b = SpectralConfig {
        seed: cfg.embedding.seed.wrapping_add(1),
        ..cfg.embedding
    };
    let y2 = spectral_embedding(&inst.b, &cfg_b).expect("valid embedding config");
    let sub = align_subspaces(&y1, &y2, &inst.a, &inst.b, &cfg.subspace).expect("valid inputs");
    let l = build_alignment_graph(&sub.ya, &sub.yb, k);
    let s = OverlapMatrix::build(&inst.a, &inst.b, &l);
    (l, s)
}

/// Simulated BP produces bit-identical outcomes to the reference engine,
/// under every device/exec combination.
#[test]
fn simulation_never_changes_results() {
    let (l, s) = pipeline_structures(150, 1, 6);
    let cfg = BpConfig {
        max_iters: 6,
        ..Default::default()
    };
    let reference = BpEngine::new(&l, &s, &cfg).run();
    for device in [DeviceSpec::a100(), DeviceSpec::epyc7702p()] {
        for exec in [ExecConfig::optimized(), ExecConfig::naive()] {
            let (out, report) = simulate_bp(&l, &s, &cfg, &device, &exec);
            assert_eq!(out.best_score, reference.best_score);
            assert_eq!(out.best_matching, reference.best_matching);
            assert!(report.seconds > 0.0);
        }
    }
}

/// Simulated matching numerics equal the serial reference (which in turn
/// pins the unique locally dominant matching).
#[test]
fn simulated_matching_is_reference_matching() {
    let (l, _) = pipeline_structures(200, 2, 8);
    let (m, stats, _) = simulate_matching(&l, &DeviceSpec::a100(), &ExecConfig::optimized());
    assert_eq!(m, locally_dominant_serial(&l));
    assert!(stats.rounds >= 1);
    assert_eq!(
        stats.detail.iter().map(|d| d.matched).sum::<usize>(),
        m.len(),
        "per-round commits must sum to the matching size"
    );
}

/// §5 claims as cost-model orderings, on real pipeline structure:
/// fusion helps, each §5 feature never hurts, naive is worst.
#[test]
fn optimization_orderings_hold() {
    let (l, s) = pipeline_structures(250, 3, 8);
    let gpu = DeviceSpec::a100();
    let opt = ExecConfig::optimized();
    let (_, fused) = model_bp_iteration(&l, &s, true, &gpu, &opt);
    let (_, unfused) = model_bp_iteration(&l, &s, false, &gpu, &opt);
    assert!(fused < unfused, "fusion must reduce modeled time");

    let (_, no_streams) = model_bp_iteration(
        &l,
        &s,
        true,
        &gpu,
        &ExecConfig {
            streams: false,
            ..opt
        },
    );
    assert!(fused <= no_streams, "streams must not hurt");

    let (_, naive) = model_bp_iteration(&l, &s, true, &gpu, &ExecConfig::naive());
    assert!(fused <= naive, "optimized must beat naive");
}

/// CPU modeling is insensitive to the SIMT-only toggles (warp width 1 has
/// no idle lanes to save and no warps to split).
#[test]
fn cpu_model_ignores_simt_toggles() {
    let (l, s) = pipeline_structures(150, 4, 6);
    let cpu = DeviceSpec::epyc7702p();
    let (_, a) = model_bp_iteration(&l, &s, true, &cpu, &ExecConfig::optimized());
    let (_, b) = model_bp_iteration(
        &l,
        &s,
        true,
        &cpu,
        &ExecConfig {
            virtual_warps: false,
            binning: false,
            streams: false,
        },
    );
    // Binning only changes launch counts; allow the overhead delta.
    let tol = 64.0 * cpu.launch_overhead_s;
    assert!((a - b).abs() <= tol, "CPU model diverged: {a} vs {b}");
}

/// Table 2's shape on a pipeline instance: both phases gain, BP gains
/// more, total in between.
#[test]
fn table2_shape_on_pipeline_instance() {
    let (l, s) = pipeline_structures(2500, 5, 25);
    let row = table2_row(&l, &s, &BpConfig::default(), &ExecConfig::optimized());
    assert!(row.bp_speedup() > 1.0, "BP speedup {}", row.bp_speedup());
    assert!(
        row.bp_speedup() > row.match_speedup(),
        "BP {} should outpace matching {}",
        row.bp_speedup(),
        row.match_speedup()
    );
    let t = row.total_speedup();
    assert!(t <= row.bp_speedup().max(row.match_speedup()) + 1e-9);
    assert!(t >= row.bp_speedup().min(row.match_speedup()) - 1e-9);
}
