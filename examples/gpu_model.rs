//! Explore the GPU execution model: per-kernel roofline components, the
//! effect of each §5 optimization (binning, virtual warps, fusion,
//! streams), and the resulting CPU-vs-GPU speedups — the machinery behind
//! the Table 2 reproduction.
//!
//! Run with:
//! ```text
//! cargo run --release --example gpu_model
//! ```

use cualign::{Aligner, AlignerConfig, SparsityChoice};
use cualign_bp::BpConfig;
use cualign_embed::{align_subspaces, spectral_embedding, SpectralConfig};
use cualign_gpusim::bp_gpu::model_bp_iteration;
use cualign_gpusim::report::table2_row;
use cualign_gpusim::{DeviceSpec, ExecConfig};
use cualign_graph::generators::duplication_divergence;
use cualign_graph::permutation::AlignmentInstance;
use cualign_overlap::OverlapMatrix;
use cualign_rt::Rng;
use cualign_sparsify::build_alignment_graph;

fn main() {
    // Build a mid-size instance's L and S through the real pipeline
    // front half, so the model is charged with genuine sparsity structure.
    let mut rng = Rng::new(3);
    let a = duplication_divergence(2000, 0.40, 0.28, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let cfg = AlignerConfig {
        sparsity: SparsityChoice::Density(0.01),
        ..Default::default()
    };
    let y1 = spectral_embedding(&inst.a, &cfg.embedding)
        .expect("the default block fits the 2000-vertex graphs");
    let cfg_b = SpectralConfig {
        seed: cfg.embedding.seed.wrapping_add(1),
        ..cfg.embedding
    };
    let y2 =
        spectral_embedding(&inst.b, &cfg_b).expect("the default block fits the 2000-vertex graphs");
    let sub = align_subspaces(&y1, &y2, &inst.a, &inst.b, &cfg.subspace)
        .expect("pipeline-produced embeddings always match their graphs");
    let k = cfg
        .resolve_k(inst.a.num_vertices(), inst.b.num_vertices())
        .expect("the builder checked the density");
    let l = build_alignment_graph(&sub.ya, &sub.yb, k);
    let s = OverlapMatrix::build(&inst.a, &inst.b, &l);
    println!(
        "instance: |V| = {}, |E_L| = {}, nnz(S) = {}",
        inst.a.num_vertices(),
        l.num_edges(),
        s.nnz()
    );

    let gpu = DeviceSpec::a100();
    let cpu = DeviceSpec::epyc7702p();

    // Per-kernel modeled microseconds for one BP iteration on the A100.
    println!("\nBP iteration kernels on {} (µs, fused):", gpu.name);
    let (kernels, total) = model_bp_iteration(&l, &s, true, &gpu, &ExecConfig::optimized());
    for (name, st) in &kernels {
        println!(
            "  {:>16}: {:>8.2} µs  ({} launches, {:.1}% idle lanes)",
            name,
            st.seconds * 1e6,
            st.launches,
            st.idle_fraction() * 100.0
        );
    }
    println!("  {:>16}: {:>8.2} µs", "TOTAL", total * 1e6);

    // Ablate each §5 optimization.
    println!("\nablation of the paper's §5 optimizations (one BP iteration, µs):");
    let configs = [
        ("all optimizations", ExecConfig::optimized(), true),
        ("no fusion", ExecConfig::optimized(), false),
        (
            "no streams",
            ExecConfig {
                streams: false,
                ..ExecConfig::optimized()
            },
            true,
        ),
        (
            "no virtual warps",
            ExecConfig {
                virtual_warps: false,
                ..ExecConfig::optimized()
            },
            true,
        ),
        ("naive (none)", ExecConfig::naive(), false),
    ];
    for (label, exec, fused) in configs {
        let (_, secs) = model_bp_iteration(&l, &s, fused, &gpu, &exec);
        println!("  {:>18}: {:>8.2}", label, secs * 1e6);
    }

    // The Table 2 comparison for this instance.
    let row = table2_row(&l, &s, &BpConfig::default(), &ExecConfig::optimized());
    println!("\nmodeled phase times ({} vs {}):", cpu.name, gpu.name);
    println!(
        "  BP   : {:>9.2} ms vs {:>9.2} ms  → {:>5.2}×",
        row.cpu.bp_s * 1e3,
        row.gpu.bp_s * 1e3,
        row.bp_speedup()
    );
    println!(
        "  match: {:>9.2} ms vs {:>9.2} ms  → {:>5.2}×",
        row.cpu.match_s * 1e3,
        row.gpu.match_s * 1e3,
        row.match_speedup()
    );
    println!(
        "  total: {:>9.2} ms vs {:>9.2} ms  → {:>5.2}×",
        row.cpu.total_s() * 1e3,
        row.gpu.total_s() * 1e3,
        row.total_speedup()
    );

    // Sanity: the simulated numerics are the reference numerics.
    let result = Aligner::new(cfg)
        .align(&inst.a, &inst.b)
        .expect("generated inputs are non-degenerate");
    println!(
        "\nfunctional result unchanged by the model: NCV-GS3 = {:.4} (best BP iter {})",
        result.scores.ncv_gs3, result.bp.best_iteration
    );
}
