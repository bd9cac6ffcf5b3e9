//! ANN sparsifier benchmark: recall of the banded multi-probe LSH
//! kernel ([`cualign_sparsify::ann_candidates`]) against the exact
//! blocked-kNN oracle ([`cualign_sparsify::knn_candidates`]) over a
//! bands × bits grid, the downstream node-correctness cost of switching
//! the full pipeline from exact to approximate sparsification, and one
//! end-to-end multilevel alignment of a million-vertex pair — the run
//! the exact `O(n²d)` sweep cannot finish. The sink is
//! `BENCH_ann.json` (JSONL, one record per grid cell / run):
//!
//! ```text
//! cargo run --release -p cualign-bench --bin bench_ann
//! ```
//!
//! Phases and knobs (environment):
//!
//! 1. **Recall grid** — clustered planted embeddings (shared centers,
//!    independent member noise; splitmix64-generated so the workload is
//!    bit-reproducible) at `CUALIGN_BENCH_ANN_NS` sizes (default
//!    `20000,100000,1000000`), full bands × bits grid at the smallest
//!    size, thinned above it. Cells with `n ≤ CUALIGN_ANN_EXACT_MAX`
//!    (default `20000`) are scored against the exact oracle; larger
//!    cells carry `"recall": "unchecked"` — the knobs' recall is pinned
//!    by the checked cells, which is the contract `docs/APPROXIMATION.md`
//!    documents. The best checked recall must reach
//!    `CUALIGN_ANN_RECALL_MIN` (default `0.9`).
//! 2. **Downstream delta** — one seeded permuted-pair ER instance at
//!    `CUALIGN_ANN_PIPE_VERTICES` (default `20000`), the flat pipeline
//!    run once with exact union-kNN and once with `SparsityChoice::Ann`
//!    at the best grid cell's knobs; ANN node correctness may trail the
//!    exact run's by at most `CUALIGN_ANN_NC_TOL` (default `0.02`).
//! 3. **Million-vertex end-to-end** — `--multilevel` alignment of an ER
//!    pair at `CUALIGN_ANN_E2E_VERTICES` (default `1000000`; `0` skips
//!    the phase) with `CUALIGN_ANN_E2E_LEVELS` (default `6`) coarsening
//!    levels and the ANN rule, so every orphan-rescue query at big
//!    levels routes through LSH. Records wall-clock, node correctness,
//!    and the `sparsify.ann.*` counters.

use std::io::Write;
use std::time::Instant;

use cualign::{Aligner, AlignerConfig, MultilevelConfig};
use cualign_bench::{env_f64, env_u64, json::JsonRecord};
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::permutation::AlignmentInstance;
use cualign_linalg::DenseMatrix;
use cualign_rt::rng::splitmix64;
use cualign_rt::Rng;
use cualign_sparsify::{ann_candidates, ann_recall, knn_candidates, AnnConfig, KnnDirection};

const DIM: usize = 32;
const PER_CLUSTER: usize = 16;
const SIGMA: f64 = 0.05;

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => v
            .split(',')
            .map(|s| s.trim().parse().expect("grid entries are integers"))
            .collect(),
        _ => default.to_vec(),
    }
}

fn gauss(state: &mut u64) -> f64 {
    let mut acc = 0.0;
    for _ in 0..12 {
        acc += (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    }
    acc - 6.0
}

/// Clustered planted workload: `n` rows in clusters of [`PER_CLUSTER`]
/// around shared gaussian centers, per-coordinate noise [`SIGMA`]. Both
/// sides draw the *same* centers (pass the same `center_seed`) with
/// independent member noise, so each query's exact top-`k` lives in its
/// own cluster and recall against the exact oracle is meaningful.
fn clustered(n: usize, center_seed: u64, member_seed: u64) -> DenseMatrix {
    let clusters = (n / PER_CLUSTER).max(1);
    let mut cstate = center_seed ^ 0xc1u64;
    let centers: Vec<f64> = (0..clusters * DIM).map(|_| gauss(&mut cstate)).collect();
    let mut mstate = member_seed ^ 0x3fu64;
    let mut data = Vec::with_capacity(n * DIM);
    for r in 0..n {
        let c = r % clusters;
        for j in 0..DIM {
            data.push(centers[c * DIM + j] + SIGMA * gauss(&mut mstate));
        }
    }
    DenseMatrix::from_vec(n, DIM, data)
}

/// The bands × bits grid for one workload size: full at oracle-checked
/// sizes, thinned to the strong corner above (the thin cells' recall is
/// pinned by the checked grid — same knobs, same planted distribution).
fn grid_for(n: usize, exact_max: usize) -> Vec<(usize, usize)> {
    if n <= exact_max {
        let mut g = Vec::new();
        for &bands in &[4usize, 8, 16] {
            for &bits in &[8usize, 12, 16] {
                g.push((bands, bits));
            }
        }
        g
    } else if n <= 200_000 {
        vec![(8, 12), (8, 16), (16, 12), (16, 16)]
    } else {
        vec![(16, 16)]
    }
}

fn ann_counter_deltas(
    reg: &'static cualign_telemetry::Registry,
    before: &[u64; 3],
) -> (u64, u64, u64) {
    (
        reg.counter("sparsify.ann.buckets").get() - before[0],
        reg.counter("sparsify.ann.collisions").get() - before[1],
        reg.counter("sparsify.ann.probed").get() - before[2],
    )
}

fn ann_counters(reg: &'static cualign_telemetry::Registry) -> [u64; 3] {
    [
        reg.counter("sparsify.ann.buckets").get(),
        reg.counter("sparsify.ann.collisions").get(),
        reg.counter("sparsify.ann.probed").get(),
    ]
}

fn main() {
    let telemetry = cualign_bench::telemetry_sink();
    let reg = cualign_telemetry::global();
    let ns = env_list("CUALIGN_BENCH_ANN_NS", &[20_000, 100_000, 1_000_000]);
    let k = env_u64("CUALIGN_BENCH_ANN_K", 8) as usize;
    let probes = env_u64("CUALIGN_BENCH_ANN_PROBES", 2) as usize;
    let exact_max = env_u64("CUALIGN_ANN_EXACT_MAX", 20_000) as usize;
    let recall_min = env_f64("CUALIGN_ANN_RECALL_MIN", 0.9);
    let nc_tol = env_f64("CUALIGN_ANN_NC_TOL", 0.02);
    let pipe_n = env_u64("CUALIGN_ANN_PIPE_VERTICES", 20_000) as usize;
    let e2e_n = env_u64("CUALIGN_ANN_E2E_VERTICES", 1_000_000) as usize;
    let e2e_levels = env_u64("CUALIGN_ANN_E2E_LEVELS", 6) as usize;
    let seed = env_u64("CUALIGN_SEED", 1);
    let out_path = std::env::var("CUALIGN_BENCH_ANN_OUT").unwrap_or("BENCH_ann.json".into());

    println!("bench_ann: n grid {ns:?}, k = {k}, probes = {probes} (records -> {out_path})");
    let mut lines = Vec::new();

    // Phase 1 — recall grid.
    let mut best_checked: Option<(f64, usize, usize)> = None; // (recall, bands, bits)
    for &n in &ns {
        let ya = clustered(n, seed, seed ^ 0xaaaa);
        let yb = clustered(n, seed, seed ^ 0xb0b);
        let exact = if n <= exact_max {
            let t = Instant::now();
            let e = knn_candidates(&ya, &yb, k, KnnDirection::AtoB);
            let exact_s = t.elapsed().as_secs_f64();
            println!(
                "  n {n:>8}: exact oracle {exact_s:>8.2}s ({} triples)",
                e.len()
            );
            Some((e, exact_s))
        } else {
            println!("  n {n:>8}: exact oracle skipped (n > {exact_max}), recall unchecked");
            None
        };
        for (bands, bits) in grid_for(n, exact_max) {
            let cfg = AnnConfig {
                k,
                bands,
                bits,
                probes,
                ..AnnConfig::default()
            };
            let before = ann_counters(reg);
            let t = Instant::now();
            let ann = ann_candidates(&ya, &yb, &cfg, KnnDirection::AtoB);
            let ann_s = t.elapsed().as_secs_f64();
            let (buckets, collisions, probed) = ann_counter_deltas(reg, &before);
            let mut rec = JsonRecord::new()
                .str("bench", "ann_recall")
                .int("n", n)
                .int("d", DIM)
                .int("k", k)
                .int("bands", bands)
                .int("bits", bits)
                .int("probes", probes)
                .num("ann_s", ann_s)
                .int("triples", ann.len())
                .int("buckets", buckets as usize)
                .int("collisions", collisions as usize)
                .int("probed", probed as usize);
            match &exact {
                Some((e, exact_s)) => {
                    let recall = ann_recall(&ann, e);
                    if best_checked.is_none_or(|(r, _, _)| recall > r) {
                        best_checked = Some((recall, bands, bits));
                    }
                    rec = rec.num("recall", recall).num("exact_s", *exact_s);
                    println!(
                        "    bands {bands:>2}, bits {bits:>2}: {ann_s:>8.2}s, \
                         recall {recall:.4} ({} triples)",
                        ann.len()
                    );
                }
                None => {
                    rec = rec.str("recall", "unchecked").null("exact_s");
                    println!(
                        "    bands {bands:>2}, bits {bits:>2}: {ann_s:>8.2}s, \
                         recall unchecked ({} triples)",
                        ann.len()
                    );
                }
            }
            lines.push(rec.finish());
        }
    }
    let (best_recall, best_bands, best_bits) =
        best_checked.expect("at least one oracle-checked grid cell");
    println!(
        "  best checked recall {best_recall:.4} at bands = {best_bands}, bits = {best_bits} \
         (floor {recall_min})"
    );

    // Phase 2 — downstream node-correctness delta, exact vs ANN, same
    // instance, same flat pipeline, best grid knobs.
    let mut rng = Rng::new(seed);
    let a = erdos_renyi_gnm(pipe_n, 3 * pipe_n, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let exact_cfg = AlignerConfig::builder()
        .embedding_dim(DIM.min(pipe_n / 2))
        .k(k)
        .bp_iters(10)
        .build()
        .expect("fixed exact config is valid");
    let ann_cfg = AlignerConfig::builder()
        .embedding_dim(DIM.min(pipe_n / 2))
        .ann(k, best_bands, best_bits, probes)
        .bp_iters(10)
        .build()
        .expect("fixed ann config is valid");

    let t = Instant::now();
    let exact_res = Aligner::new(exact_cfg)
        .align(&inst.a, &inst.b)
        .expect("the seeded instance aligns with exact kNN");
    let exact_pipe_s = t.elapsed().as_secs_f64();
    let exact_nc = inst.node_correctness(&exact_res.mapping);
    let t = Instant::now();
    let ann_res = Aligner::new(ann_cfg)
        .align(&inst.a, &inst.b)
        .expect("the seeded instance aligns with ANN");
    let ann_pipe_s = t.elapsed().as_secs_f64();
    let ann_nc = inst.node_correctness(&ann_res.mapping);
    // One-sided: the contract bounds how much *worse* ANN may be; the WL
    // structural candidates often make it strictly better, which is fine.
    let nc_delta = exact_nc - ann_nc;
    println!(
        "  pipeline @ n = {pipe_n}: exact nc {exact_nc:.4} ({exact_pipe_s:.2}s), \
         ann nc {ann_nc:.4} ({ann_pipe_s:.2}s), delta {nc_delta:.4} (tol {nc_tol})"
    );
    lines.push(
        JsonRecord::new()
            .str("bench", "ann_pipeline")
            .int("n", pipe_n)
            .int("k", k)
            .int("bands", best_bands)
            .int("bits", best_bits)
            .int("probes", probes)
            .num("exact_s", exact_pipe_s)
            .num("ann_s", ann_pipe_s)
            .num("exact_node_correctness", exact_nc)
            .num("ann_node_correctness", ann_nc)
            .num("nc_delta", nc_delta)
            .num("exact_sparsify_s", exact_res.timings.sparsify_s)
            .num("ann_sparsify_s", ann_res.timings.sparsify_s)
            .int("exact_l_edges", exact_res.l_edges)
            .int("ann_l_edges", ann_res.l_edges)
            .finish(),
    );

    // Phase 3 — million-vertex multilevel end-to-end under the ANN rule.
    if e2e_n > 0 {
        let mut rng = Rng::new(seed ^ 0xe2e);
        let a = erdos_renyi_gnm(e2e_n, 3 * e2e_n, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let ml = MultilevelConfig {
            levels: e2e_levels,
            refine_bp_iters: 4,
            ..MultilevelConfig::default()
        };
        let cfg = AlignerConfig::builder()
            .embedding_dim(DIM.min(e2e_n / 2))
            .ann(k, best_bands, best_bits, probes)
            .bp_iters(8)
            .multilevel_config(ml)
            .build()
            .expect("fixed e2e config is valid");
        println!(
            "  e2e: ER n = {e2e_n}, m = {}, levels = {e2e_levels}, ann rule",
            3 * e2e_n
        );
        let before = ann_counters(reg);
        let t = Instant::now();
        let res = Aligner::new(cfg)
            .align(&inst.a, &inst.b)
            .expect("the seeded pair aligns end-to-end under the ANN rule");
        let e2e_s = t.elapsed().as_secs_f64();
        let (buckets, collisions, probed) = ann_counter_deltas(reg, &before);
        let nc = inst.node_correctness(&res.mapping);
        let depth = reg.gauge("multilevel.depth").get() as usize;
        println!(
            "  e2e: {e2e_s:.1}s, depth {depth}, nc = {nc:.4}, NCV-GS3 = {:.4}, \
             L = {} edges",
            res.scores.ncv_gs3, res.l_edges
        );
        lines.push(
            JsonRecord::new()
                .str("bench", "ann_e2e")
                .int("vertices", e2e_n)
                .int("edges", 3 * e2e_n)
                .int("levels_requested", e2e_levels)
                .int("depth", depth)
                .int("k", k)
                .int("bands", best_bands)
                .int("bits", best_bits)
                .int("probes", probes)
                .num("total_s", e2e_s)
                .num("node_correctness", nc)
                .num("ncv_gs3", res.scores.ncv_gs3)
                .int("l_edges", res.l_edges)
                .int("s_nnz", res.s_nnz)
                .int("buckets", buckets as usize)
                .int("collisions", collisions as usize)
                .int("probed", probed as usize)
                .finish(),
        );
    } else {
        println!("  e2e: skipped (CUALIGN_ANN_E2E_VERTICES = 0)");
    }

    let mut f = std::fs::File::create(&out_path).expect("record sink is writable");
    for line in &lines {
        writeln!(f, "{line}").expect("record sink is writable");
    }
    println!("wrote {} records to {out_path}", lines.len());
    cualign_bench::emit_telemetry(&telemetry);

    assert!(
        best_recall >= recall_min,
        "best oracle-checked recall {best_recall:.4} below CUALIGN_ANN_RECALL_MIN {recall_min}"
    );
    assert!(
        nc_delta <= nc_tol,
        "ANN node correctness {ann_nc:.4} trails exact {exact_nc:.4} by more than \
         CUALIGN_ANN_NC_TOL {nc_tol}"
    );
}
