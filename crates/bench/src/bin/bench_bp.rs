//! BP sweep + overlap build benchmark: the merge-balanced sparse-kernel
//! paths ([`cualign_bp::BpEngine::iterate`],
//! [`cualign_overlap::OverlapMatrix::build`]) against their pinned serial
//! references (`iterate_reference`, `build_reference`) on planted
//! instances, verifying bitwise-identical message state and identical
//! CSR structure in-binary. The default sink is `BENCH_bp.json` — one
//! JSONL record per grid cell:
//!
//! ```text
//! cargo run --release -p cualign-bench --bin bench_bp
//! ```
//!
//! Knobs: `CUALIGN_BENCH_BP_NS` (comma-separated vertex grid, default
//! `2000,50000,500000` — overlap nnz ≈ 80k / 1M / 10M at the default
//! degree), `CUALIGN_BENCH_BP_SWEEPS` (timed sweeps per cell, default
//! `3`; two untimed warmup sweeps precede them), `CUALIGN_BENCH_BP_OUT`
//! (default `BENCH_bp.json`). The reference always runs — every
//! record's `bit_identical` is asserted, never sampled.
//!
//! The merge-balanced paths run at 1, 2 and the host's thread count
//! (`cualign_rt::par::with_threads`); each run is asserted against the
//! same reference CSR and state hash, so the scaling columns
//! (`sweep_s_<t>t`, `build_s_<t>t`) carry the bitwise check too. The
//! headline `sweep_s`/`build_s` are the host-thread-count run. Every
//! record carries the host provenance of [`JsonRecord::host`], whose
//! `peak_rss_mb` is the process's peak resident set so far.
//!
//! The matcher column rounds the reference engine's own `yᶜ` and `zᶜ`
//! after its timed sweeps — BP's real rounding inputs — once with each
//! matcher. `round_s_<matcher>` is the time for both matchings,
//! `evaluate_s` the time to score both against Eq. (1). All four
//! matchings are asserted equal (`matchers_agree`).

use std::io::Write;
use std::time::Instant;

use cualign_bench::json::JsonRecord;
use cualign_bp::{evaluate_matching, BpConfig, BpEngine};
use cualign_graph::{BipartiteGraph, CsrGraph, Permutation, VertexId};
use cualign_matching::{
    greedy_matching, locally_dominant_parallel, locally_dominant_serial, suitor_matching, Matching,
};
use cualign_overlap::OverlapMatrix;
use cualign_rt::{par, Rng};

const SEED: u64 = 42;
/// Edges per vertex of the planted graphs (average degree 20): each true
/// candidate pair then contributes ~20 squares, so overlap nnz ≈ 20·n.
const EDGE_FACTOR: usize = 10;
/// Decoy candidates per vertex: L has (1 + DECOYS)·n edges.
const DECOYS: usize = 9;

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => v
            .split(',')
            .map(|s| s.trim().parse().expect("grid entries are integers"))
            .collect(),
        _ => default.to_vec(),
    }
}

fn planted(n: usize, seed: u64) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let mut rng = Rng::new(seed);
    let a = cualign_graph::generators::erdos_renyi_gnm(n, n * EDGE_FACTOR, &mut rng);
    let p = Permutation::random(n, &mut rng);
    let b = p.apply_to_graph(&a);
    let mut triples: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(n * (1 + DECOYS));
    for i in 0..n as VertexId {
        triples.push((i, p.apply(i), 0.5));
        for _ in 0..DECOYS {
            triples.push((i, rng.below(n) as VertexId, 0.5));
        }
    }
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

/// FNV-1a over the raw bits of every message array, with `st` standing
/// for `Sᵖ` in the transposed orientation: two engines whose hashes
/// agree (and whose array lengths agree) carry bitwise-identical state
/// without holding a second copy of it.
fn state_hash(e: &BpEngine, st: impl Iterator<Item = f64>) -> u64 {
    let edge_state = [e.yc(), e.zc(), e.dc()].into_iter().flatten().copied();
    edge_state
        .chain(st)
        .chain(e.sp().iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x1000_0000_01b3)
        })
}

type Matcher = fn(&BipartiteGraph) -> Matching;

/// The matchers timed by the rounding column, by record-key suffix.
const MATCHERS: [(&str, Matcher); 4] = [
    ("serial", locally_dominant_serial),
    ("parallel", locally_dominant_parallel),
    ("greedy", greedy_matching),
    ("suitor", suitor_matching),
];

/// Rounds the engine's `yᶜ` and `zᶜ` with every matcher, asserting that
/// all four agree. Returns each matcher's seconds for the two matchings
/// and the seconds to evaluate both.
fn round_all(
    e: &BpEngine,
    l: &BipartiteGraph,
    s: &OverlapMatrix,
    cfg: &BpConfig,
    n: usize,
) -> (Vec<f64>, f64) {
    let mut inputs = [l.clone(), l.clone()];
    inputs[0].set_weights(e.yc());
    inputs[1].set_weights(e.zc());
    let mut round_s = Vec::new();
    let mut agreed: Vec<Matching> = Vec::new();
    for (name, matcher) in MATCHERS {
        let t = Instant::now();
        let ms: Vec<Matching> = inputs.iter().map(matcher).collect();
        round_s.push(t.elapsed().as_secs_f64());
        if agreed.is_empty() {
            agreed = ms;
        } else {
            assert_eq!(ms, agreed, "{name} rounding diverged at n = {n}");
        }
    }
    let t = Instant::now();
    for m in &agreed {
        std::hint::black_box(evaluate_matching(l.weights(), s, m, cfg.alpha, cfg.beta));
    }
    (round_s, t.elapsed().as_secs_f64())
}

fn main() {
    let ns = env_list("CUALIGN_BENCH_BP_NS", &[2000, 50_000, 500_000]);
    let sweeps = cualign_bench::env_u64("CUALIGN_BENCH_BP_SWEEPS", 3) as usize;
    let out_path = std::env::var("CUALIGN_BENCH_BP_OUT").unwrap_or("BENCH_bp.json".into());
    let cfg = BpConfig::default();
    let host = par::threads();
    let mut thread_counts = vec![1, 2, host];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "bench_bp: n grid {ns:?}, {sweeps} timed sweeps per cell, threads {thread_counts:?} \
         (records -> {out_path})"
    );
    let mut lines = Vec::new();
    for &n in &ns {
        let (a, b, l) = planted(n, SEED ^ (n as u64));

        // Serial references first: the overlap CSR every threaded build
        // must equal exactly, and the state hash every threaded sweep
        // must reproduce. One untimed warmup build precedes the timed
        // ones, so every timed build draws from a warm (already-faulted)
        // allocator arena.
        drop(OverlapMatrix::build(&a, &b, &l));
        let t = Instant::now();
        let s_ref = OverlapMatrix::build_reference(&a, &b, &l);
        let build_reference_s = t.elapsed().as_secs_f64();
        let nnz = s_ref.nnz();
        // Each engine runs two untimed warmup sweeps first: `dᶜ` is
        // double-buffered, so one sweep touches only half of the pair
        // and the second faults in the rest (the reference also
        // allocates its `F` and `Sᶜ` per sweep). The timed sweeps then
        // measure steady state for every path; the hashes compare the
        // same 2 + `sweeps` iterations. The reference engine leaves the
        // transposed `Sᵖ` alone, so its hash gathers `Sᵖ` through the
        // transpose permutation instead.
        let (ref_hash, sweep_reference_s, round_s, evaluate_s) = {
            let mut eng = BpEngine::new(&l, &s_ref, &cfg);
            eng.iterate_reference();
            eng.iterate_reference();
            let t = Instant::now();
            for _ in 0..sweeps {
                eng.iterate_reference();
            }
            let sweep_reference_s = t.elapsed().as_secs_f64();
            let (round_s, evaluate_s) = round_all(&eng, &l, &s_ref, &cfg, n);
            let perm = s_ref.transpose_perm_reference();
            assert_eq!(
                s_ref.transpose_perm(),
                perm,
                "transpose permutation diverged at n = {n}"
            );
            let st = perm.iter().map(|&p| eng.sp()[p as usize]);
            (state_hash(&eng, st), sweep_reference_s, round_s, evaluate_s)
        };

        // The merge-balanced paths at each thread count: the build is
        // checked against the reference CSR, the sweep against the
        // reference state hash. Each engine is dropped before the next
        // starts, so peak memory is one engine plus two overlap CSRs.
        let mut timings = Vec::new();
        for &threads in &thread_counts {
            let (build_s, sweep_s) = par::with_threads(threads, || {
                let t = Instant::now();
                let s = OverlapMatrix::build(&a, &b, &l);
                let build_s = t.elapsed().as_secs_f64();
                assert_eq!(
                    s.row_offsets(),
                    s_ref.row_offsets(),
                    "build offsets diverged at n = {n}, {threads} threads"
                );
                assert_eq!(
                    s.col_indices(),
                    s_ref.col_indices(),
                    "build columns diverged at n = {n}, {threads} threads"
                );
                let mut eng = BpEngine::new(&l, &s, &cfg);
                eng.iterate();
                eng.iterate();
                let t = Instant::now();
                for _ in 0..sweeps {
                    eng.iterate();
                }
                let sweep_s = t.elapsed().as_secs_f64();
                assert_eq!(
                    state_hash(&eng, eng.sp_transposed().iter().copied()),
                    ref_hash,
                    "sparse-kernel sweep diverged bitwise from the reference at n = {n}, {threads} threads"
                );
                (build_s, sweep_s)
            });
            timings.push((threads, build_s, sweep_s));
        }
        drop(s_ref);

        // The headline columns are the host's full thread count.
        let &(_, build_s, sweep_s) = timings.last().expect("at least one thread count");
        let speedup = sweep_reference_s / sweep_s;
        let build_speedup = build_reference_s / build_s;
        println!(
            "  n {n:>7}, nnz {nnz:>9}: sweeps {sweep_s:>8.3}s vs reference \
             {sweep_reference_s:>8.3}s ({speedup:>5.2}x); build {build_s:>8.3}s vs \
             {build_reference_s:>8.3}s ({build_speedup:>5.2}x); bit-identical"
        );
        for &(threads, build_s, sweep_s) in &timings {
            println!("    {threads} threads: sweeps {sweep_s:>8.3}s, build {build_s:>8.3}s");
        }
        let rounding: Vec<String> = MATCHERS
            .iter()
            .zip(&round_s)
            .map(|((name, _), t)| format!("{name} {t:.4}s"))
            .collect();
        println!(
            "    rounding (yc + zc): {}; evaluate {evaluate_s:.4}s; matchers agree",
            rounding.join(", ")
        );
        let mut record = JsonRecord::new()
            .str("bench", "bp")
            .int("n", n)
            .int("l_edges", l.num_edges())
            .int("nnz", nnz)
            .int("sweeps", sweeps)
            .host()
            .num("sweep_s", sweep_s)
            .num("sweep_reference_s", sweep_reference_s)
            .num("speedup", speedup)
            .num("build_s", build_s)
            .num("build_reference_s", build_reference_s)
            .num("build_speedup", build_speedup);
        for &(threads, build_s, sweep_s) in &timings {
            record = record
                .num(&format!("sweep_s_{threads}t"), sweep_s)
                .num(&format!("build_s_{threads}t"), build_s);
        }
        for ((name, _), t) in MATCHERS.iter().zip(&round_s) {
            record = record.num(&format!("round_s_{name}"), *t);
        }
        lines.push(
            record
                .num("evaluate_s", evaluate_s)
                .str("matchers_agree", "yes")
                .str("bit_identical", "yes")
                .finish(),
        );
    }

    let mut f = std::fs::File::create(&out_path).expect("record sink is writable");
    for line in &lines {
        writeln!(f, "{line}").expect("record sink is writable");
    }
    println!("wrote {} records to {out_path}", lines.len());
}
