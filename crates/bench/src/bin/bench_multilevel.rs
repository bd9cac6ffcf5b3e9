//! Multilevel vs. flat pipeline head-to-head: one seeded permuted-pair
//! instance, the flat pipeline timed against `--multilevel L`, and the
//! speedup / quality deltas written as a single JSON record to
//! `BENCH_multilevel.json` — running this binary with no flags refreshes
//! the checked-in record:
//!
//! ```text
//! cargo run --release -p cualign-bench --bin bench_multilevel
//! ```
//!
//! Knobs (environment): `CUALIGN_ML_VERTICES` (default 20000),
//! `CUALIGN_ML_EDGES` (default 3·n), `CUALIGN_ML_LEVELS` (default 3),
//! `CUALIGN_BP_ITERS` (default 10), `CUALIGN_SEED` (default 1). The
//! record carries both wall-clocks, node correctness and NCV-GS³ for
//! both runs, the realized coarsening depth, and the per-level
//! `multilevel.level<k>.*` counters (band size, BP matches, repairs)
//! harvested from the global registry. `host_cores` and `threads`
//! record the host: both pipelines run on every available thread.
//! `peak_rss_mb` is the process's peak resident set over both runs
//! (`VmHWM`; `null` off Linux).
//! `--telemetry summary|json:PATH` additionally emits the full span-tree
//! snapshot.

use std::time::Instant;

use cualign::{Aligner, AlignerConfig};
use cualign_bench::{env_u64, json::JsonRecord, peak_rss_mb};
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::permutation::AlignmentInstance;
use cualign_rt::{par, Rng};

const RECORD_PATH: &str = "BENCH_multilevel.json";

fn main() {
    let telemetry = cualign_bench::telemetry_sink();
    let n = env_u64("CUALIGN_ML_VERTICES", 20_000) as usize;
    let m = env_u64("CUALIGN_ML_EDGES", 3 * n as u64) as usize;
    let levels = env_u64("CUALIGN_ML_LEVELS", 3) as usize;
    let bp_iters = env_u64("CUALIGN_BP_ITERS", 10) as usize;
    let seed = env_u64("CUALIGN_SEED", 1);

    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(n, m, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    println!("bench_multilevel: ER n = {n}, m = {m}, seed = {seed}, levels = {levels}");

    let flat_cfg = AlignerConfig::builder()
        .k(8)
        .bp_iters(bp_iters)
        .build()
        .expect("fixed flat config is valid");
    let ml_cfg = AlignerConfig::builder()
        .k(8)
        .bp_iters(bp_iters)
        .multilevel(levels)
        .build()
        .expect("fixed multilevel config is valid");

    let start = Instant::now();
    let flat = Aligner::new(flat_cfg)
        .align(&inst.a, &inst.b)
        .expect("the seeded instance aligns flat");
    let flat_s = start.elapsed().as_secs_f64();
    let flat_nc = inst.node_correctness(&flat.mapping);
    println!(
        "  flat:           {flat_s:>8.2}s  nc = {flat_nc:.4}  NCV-GS3 = {:.4}",
        flat.scores.ncv_gs3
    );

    let start = Instant::now();
    let ml = Aligner::new(ml_cfg)
        .align(&inst.a, &inst.b)
        .expect("the seeded instance aligns multilevel");
    let ml_s = start.elapsed().as_secs_f64();
    let ml_nc = inst.node_correctness(&ml.mapping);
    println!(
        "  multilevel({levels}):  {ml_s:>8.2}s  nc = {ml_nc:.4}  NCV-GS3 = {:.4}",
        ml.scores.ncv_gs3
    );

    let speedup = flat_s / ml_s.max(1e-12);
    let quality_ratio = if flat_nc > 0.0 { ml_nc / flat_nc } else { 1.0 };
    println!("  speedup = {speedup:.2}x, quality ratio (nc) = {quality_ratio:.3}");

    // Counters and gauges are always-on atomics, so the realized depth
    // and per-level refinement sizes are available even with spans off.
    let snapshot = cualign_telemetry::global().snapshot();
    let depth = snapshot
        .gauges
        .get("multilevel.depth")
        .copied()
        .unwrap_or(0.0) as usize;
    let mut record = JsonRecord::new()
        .str("bench", "multilevel")
        .int("vertices", n)
        .int("edges", m)
        .int("seed", seed as usize)
        .int("levels_requested", levels)
        .int("depth", depth)
        .int("bp_iters", bp_iters)
        .int("host_cores", par::threads())
        .int("threads", par::threads())
        .num("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN))
        .num("flat_s", flat_s)
        .num("multilevel_s", ml_s)
        .num("speedup", speedup)
        .num("flat_node_correctness", flat_nc)
        .num("multilevel_node_correctness", ml_nc)
        .num("quality_ratio", quality_ratio)
        .num("flat_ncv_gs3", flat.scores.ncv_gs3)
        .num("multilevel_ncv_gs3", ml.scores.ncv_gs3)
        .int("flat_l_edges", flat.l_edges)
        .int("multilevel_l_edges", ml.l_edges);
    for (name, value) in &snapshot.counters {
        if name.starts_with("multilevel.level") {
            record = record.int(name, *value as usize);
        }
    }
    let line = record.finish();
    match std::fs::write(RECORD_PATH, format!("{line}\n")) {
        Ok(()) => println!("  wrote {RECORD_PATH}"),
        Err(e) => eprintln!("warning: failed to write {RECORD_PATH}: {e}"),
    }
    cualign_bench::emit_telemetry(&telemetry);
}
