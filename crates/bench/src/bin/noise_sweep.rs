//! Extension experiment: robustness to edge noise.
//!
//! The paper's evaluation aligns exact isomorphic pairs (`B = P(A)`); its
//! narrative, however, motivates sparsification and BP by the noisiness
//! of real biological data. This experiment quantifies that story: rewire
//! a fraction of `B`'s edges and compare cuAlign with cone-align across
//! noise levels and sparsifiers. BP's advantage should *grow* with noise
//! (direct rounding degrades faster than overlap-guided refinement).
//!
//! Per (input, noise) instance, one [`AlignmentSession`] serves all three
//! methods: cuAlign aligns, cone-align rounds the cached `L`, and the
//! mutual-kNN variant re-sparsifies on the cached embeddings.
//!
//! ```text
//! cargo run --release -p cualign-bench --bin noise_sweep
//! ```

use cualign::{cone_align_session, AlignmentSession, PaperInput, SparsityChoice};
use cualign_bench::json::JsonRecord;
use cualign_bench::HarnessConfig;
use cualign_graph::noise::rewire;
use cualign_graph::Permutation;
use cualign_rt::Rng;

fn main() {
    let telemetry = cualign_bench::telemetry_sink();
    let h = HarnessConfig::from_env();
    let density = 0.025;
    println!(
        "Noise sweep (extension): NCV-GS3 under rewired edges (scale = {}, density = {}%, seed = {})\n",
        h.scale,
        density * 100.0,
        h.seed
    );
    println!(
        "{:<16} {:>7} | {:>9} {:>9} {:>8} | {:>10}",
        "Network", "noise", "cuAlign", "cone", "delta", "mutual-kNN"
    );
    println!("{}", "-".repeat(72));
    let mut records = Vec::new();
    for input in [PaperInput::FlyY2h1, PaperInput::Synthetic4000] {
        for noise_pct in [0.0, 0.05, 0.10, 0.20] {
            let a = h.generate(input);
            let mut rng = Rng::new(h.seed.wrapping_mul(0x9e37).wrapping_add(17));
            let p = Permutation::random(a.num_vertices(), &mut rng);
            let b = rewire(&p.apply_to_graph(&a), noise_pct, &mut rng);

            let cfg = h.aligner_config(density);
            let k = cfg
                .resolve_k(a.num_vertices(), b.num_vertices())
                .expect("grid density is in (0, 1]");
            let mut session =
                AlignmentSession::new(&a, &b, cfg).expect("harness instances are non-degenerate");
            let cu = session.align().expect("grid density yields non-empty L");
            let cone = cone_align_session(&mut session).expect("L is cached and non-empty");
            let delta = if cone.scores.ncv_gs3 > 0.0 {
                100.0 * (cu.scores.ncv_gs3 - cone.scores.ncv_gs3) / cone.scores.ncv_gs3
            } else {
                0.0
            };

            // The future-work sparsifier on the same embeddings (the
            // session re-sparsifies, but reuses the cached front half).
            session
                .update_config(|c| c.sparsity = SparsityChoice::MutualK(k))
                .expect("k >= 1");
            let mutual = session.align().expect("mutual-kNN yields non-empty L");

            println!(
                "{:<16} {:>6.0}% | {:>9.4} {:>9.4} {:>+7.1}% | {:>10.4}",
                input.name(),
                noise_pct * 100.0,
                cu.scores.ncv_gs3,
                cone.scores.ncv_gs3,
                delta,
                mutual.scores.ncv_gs3
            );
            records.push(
                JsonRecord::new()
                    .str("figure", "noise_sweep")
                    .str("input", input.name())
                    .num("noise", noise_pct)
                    .num("density", density)
                    .num("cualign", cu.scores.ncv_gs3)
                    .num("cone", cone.scores.ncv_gs3)
                    .num("delta_pct", delta)
                    .num("mutual_knn", mutual.scores.ncv_gs3)
                    .int("cache_hits", mutual.timings.cache_hits)
                    .finish(),
            );
        }
    }
    println!("\nExpected shape: cuAlign's delta over cone-align grows with noise;");
    println!("mutual-kNN trades coverage for precision on noisy instances.");
    println!();
    for r in records {
        println!("{r}");
    }
    cualign_bench::emit_telemetry(&telemetry);
}
