//! Extension experiment: the full baseline panel on one instance family.
//!
//! Compares every aligner in the repository on permuted PPI stand-ins:
//! cuAlign (BP refinement), cone-align (direct rounding), the MR
//! relaxation fixed point (the LP-relaxation family of the paper's §3),
//! prior-free IsoRank, and seed-and-extend with 1% ground-truth seeds.
//! Tests the paper's positioning claims: BP ≈ the relaxation methods'
//! quality at better parallelizability, and well above
//! signature/percolation methods without priors. On the fly_Y2H1
//! stand-in MR beats BP on the same `L` and `S` (EXPERIMENTS.md,
//! "Extension: baseline panel").
//!
//! cuAlign, cone-align, and MR all draw `L`/`S` from one
//! [`AlignmentSession`], so the panel shares a single front-half build.
//!
//! ```text
//! cargo run --release -p cualign-bench --bin baselines
//! ```

use cualign::baselines::isorank::IsoRankConfig;
use cualign::baselines::seed_expand::{seed_and_expand, truth_seeds, SeedExpandConfig};
use cualign::{cone_align_session, isorank_align, AlignmentSession, PaperInput};
use cualign_bench::json::JsonRecord;
use cualign_bench::HarnessConfig;
use cualign_bp::{mr_align, MrConfig};
use cualign_graph::VertexId;
use std::time::Instant;

fn main() {
    let telemetry = cualign_bench::telemetry_sink();
    let h = HarnessConfig::from_env();
    let density = 0.025;
    println!(
        "Baseline panel (extension): NCV-GS3 and optimization seconds (scale = {}, density = {}%, seed = {})\n",
        h.scale,
        density * 100.0,
        h.seed
    );
    println!(
        "{:<16} | {:>9} {:>9} {:>9} {:>9} {:>11}",
        "Network", "cuAlign", "cone", "MR", "IsoRank", "seed+expand"
    );
    println!("{}", "-".repeat(72));
    let mut records = Vec::new();
    for input in [PaperInput::FlyY2h1, PaperInput::Synthetic4000] {
        let inst = h.instance(input);
        let mut session = AlignmentSession::new(&inst.a, &inst.b, h.aligner_config(density))
            .expect("harness instances are non-degenerate");

        let cu = session.align().expect("grid density yields non-empty L");
        let cone = cone_align_session(&mut session).expect("L is cached and non-empty");

        // MR on the same L and S the session produced.
        let t = Instant::now();
        let mr = {
            let (l, s) = session.artifacts().expect("artifacts are cached");
            mr_align(
                l,
                s,
                &MrConfig {
                    max_iters: h.bp_iters,
                    ..Default::default()
                },
            )
        };
        let mr_secs = t.elapsed().as_secs_f64();
        let mr_mapping: Vec<Option<VertexId>> = (0..inst.a.num_vertices())
            .map(|u| mr.best_matching.mate_of_a(u as VertexId))
            .collect();
        let mr_scores = cualign::score_alignment(&inst.a, &inst.b, &mr_mapping);

        let iso = isorank_align(&inst.a, &inst.b, &IsoRankConfig::default())
            .expect("harness instances are non-empty");
        let seeds = truth_seeds(&inst.truth, inst.a.num_vertices() / 100);
        let se = seed_and_expand(&inst.a, &inst.b, &seeds, &SeedExpandConfig::default());

        println!(
            "{:<16} | {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.4}",
            input.name(),
            cu.scores.ncv_gs3,
            cone.scores.ncv_gs3,
            mr_scores.ncv_gs3,
            iso.scores.ncv_gs3,
            se.scores.ncv_gs3
        );
        println!(
            "{:<16} | {:>8.1}s {:>8.1}s {:>8.1}s {:>9} {:>11}",
            "  (optimize s)", cu.timings.optimize_s, 0.0, mr_secs, "-", "-"
        );
        records.push(
            JsonRecord::new()
                .str("figure", "baselines")
                .str("input", input.name())
                .num("density", density)
                .num("cualign", cu.scores.ncv_gs3)
                .num("cone", cone.scores.ncv_gs3)
                .num("mr", mr_scores.ncv_gs3)
                .num("isorank", iso.scores.ncv_gs3)
                .num("seed_expand", se.scores.ncv_gs3)
                .num("cualign_optimize_s", cu.timings.optimize_s)
                .num("mr_s", mr_secs)
                .int("cache_hits", cu.timings.cache_hits)
                .finish(),
        );
    }
    println!("\nMeasured shape: MR ≥ cuAlign ≥ cone > prior-free IsoRank; seed+expand");
    println!("depends on percolation (strong on clustered graphs, weak on sparse ones).");
    println!();
    for r in records {
        println!("{r}");
    }
    cualign_bench::emit_telemetry(&telemetry);
}
