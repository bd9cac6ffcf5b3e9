//! Load generator for `cualign-serve`: concurrent clients over real
//! sockets against an in-process server, mixing repeat and novel graph
//! pairs, reporting client-observed p50/p99 latency and throughput.
//!
//! The claim under test is the service's reason to exist: a repeated
//! graph pair is served from the session LRU and skips the pipeline
//! front half, so warm requests must be far cheaper than cold ones
//! (the run asserts ≥5× on medians). Running with no flags refreshes
//! the checked-in snapshot:
//!
//! ```text
//! cargo run --release -p cualign-bench --bin bench_serve
//! ```
//!
//! Knobs (env): `CUALIGN_BENCH_N` (vertices per graph),
//! `CUALIGN_BENCH_PAIRS` (distinct pairs), `CUALIGN_BENCH_CLIENTS`
//! (concurrent clients), `CUALIGN_BENCH_REPEATS` (warm requests per
//! client), `CUALIGN_BENCH_WORKERS` (server worker threads),
//! `CUALIGN_BENCH_OUT` (output path, default `BENCH_serve.json`).

use cualign_bench::env_u64;
use cualign_bench::json::JsonRecord;
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::CsrGraph;
use cualign_rt::Rng;
use cualign_serve::{client, Server, ServerConfig};
use cualign_telemetry::Registry;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

const SEED: u64 = 42;

fn graph_to_json(g: &CsrGraph) -> String {
    let mut edges = String::new();
    let offsets = g.offsets();
    let targets = g.targets();
    for u in 0..g.num_vertices() {
        for &t in &targets[offsets[u]..offsets[u + 1]] {
            let v = t as usize;
            if u < v {
                if !edges.is_empty() {
                    edges.push(',');
                }
                edges.push_str(&format!("[{u},{v}]"));
            }
        }
    }
    format!("{{\"n\":{},\"edges\":[{edges}]}}", g.num_vertices())
}

fn align_body(a: &CsrGraph, b: &CsrGraph) -> String {
    format!(
        "{{\"a\":{},\"b\":{},\"config\":{{\"dim\":8,\"k\":4,\"bp_iters\":8,\"subspace_anchors\":0}}}}",
        graph_to_json(a),
        graph_to_json(b),
    )
}

fn post_timed(addr: SocketAddr, body: &str) -> f64 {
    let t = Instant::now();
    let resp = client::post(addr, "/align", body).expect("bench request");
    assert_eq!(resp.status, 200, "bench request failed: {}", resp.body);
    t.elapsed().as_secs_f64()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let n = env_u64("CUALIGN_BENCH_N", 192) as usize;
    let pairs = env_u64("CUALIGN_BENCH_PAIRS", 3) as usize;
    let clients = env_u64("CUALIGN_BENCH_CLIENTS", 4) as usize;
    let repeats = env_u64("CUALIGN_BENCH_REPEATS", 6) as usize;
    let workers = env_u64("CUALIGN_BENCH_WORKERS", 4) as usize;
    let out_path =
        std::env::var("CUALIGN_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());

    let registry: &'static Registry = Box::leak(Box::new(Registry::new_enabled()));
    let server = cualign_telemetry::with_registry(registry, || {
        Server::start(ServerConfig {
            workers,
            sessions: pairs + 1,
            queue_capacity: clients * 4,
            ..ServerConfig::default()
        })
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    println!("bench_serve: server on {addr}, n = {n}, {pairs} pairs, {clients} clients x {repeats} repeats, {workers} workers");

    let mut rng = Rng::new(SEED);
    let bodies: Vec<String> = (0..pairs)
        .map(|_| {
            let a = erdos_renyi_gnm(n, 3 * n, &mut rng);
            let b = erdos_renyi_gnm(n, 3 * n, &mut rng);
            align_body(&a, &b)
        })
        .collect();

    // Phase 1 — cold: first sight of every pair pays the full pipeline.
    let cold: Vec<f64> = bodies.iter().map(|b| post_timed(addr, b)).collect();
    let cold_mean = cold.iter().sum::<f64>() / cold.len() as f64;
    println!("  cold: {pairs} pairs, mean {:.1} ms", cold_mean * 1e3);

    // Phase 2 — warm: concurrent clients hammer the now-resident pairs.
    let load_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                (0..repeats)
                    .map(|r| post_timed(addr, &bodies[(c + r) % bodies.len()]))
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let mut warm: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = load_start.elapsed().as_secs_f64();
    warm.sort_by(|x, y| x.total_cmp(y));

    let p50 = percentile(&warm, 0.50);
    let p99 = percentile(&warm, 0.99);
    let req_per_s = warm.len() as f64 / wall;
    let speedup = cold_mean / p50.max(1e-9);
    println!(
        "  warm: {} requests in {wall:.2} s -> {req_per_s:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, cold/warm {speedup:.1}x",
        warm.len(),
        p50 * 1e3,
        p99 * 1e3,
    );

    let hits = registry.counter("serve.session_hits").get();
    let misses = registry.counter("serve.session_misses").get();
    server.shutdown();

    assert!(
        hits >= (clients * repeats) as u64,
        "warm phase must be served from the session LRU (hits {hits}, misses {misses})"
    );
    assert!(
        speedup >= 5.0,
        "repeat-pair requests must be at least 5x faster than cold (got {speedup:.1}x)"
    );

    let record = JsonRecord::new()
        .str("bench", "serve")
        .int("n", n)
        .int("pairs", pairs)
        .int("clients", clients)
        .int("repeats", repeats)
        .int("workers", workers)
        .num("cold_mean_s", cold_mean)
        .num("warm_p50_s", p50)
        .num("warm_p99_s", p99)
        .num("warm_req_per_s", req_per_s)
        .num("cold_over_warm", speedup)
        .int("session_hits", hits as usize)
        .int("session_misses", misses as usize)
        .finish();
    let mut file = std::fs::File::create(&out_path).expect("open output file");
    writeln!(file, "{record}").expect("write record");
    println!("  wrote {out_path}");
}
