//! End-to-end tests for `cualign-serve`: real sockets on ephemeral
//! ports, concurrent clients, and assertions on the `/metrics`
//! exposition rather than on internals.
//!
//! The saturation and deadline tests avoid timing-dependent "hope the
//! alignment is slow enough" setups: they wedge the single worker with a
//! *stalled client* (a connection that sends half a request and goes
//! quiet), which pins the pool deterministically until the test releases
//! it.

use cualign_serve::json::Json;
use cualign_serve::{client, Server, ServerConfig};
use cualign_telemetry::Registry;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn isolated() -> &'static Registry {
    Box::leak(Box::new(Registry::new_enabled()))
}

fn start(cfg: ServerConfig) -> Server {
    cualign_telemetry::with_registry(isolated(), || Server::start(cfg))
        .expect("bind ephemeral port")
}

/// A ring + chords graph as request JSON; `seed` varies the chord
/// stride so different seeds give different fingerprints.
fn graph_json(n: usize, seed: usize) -> String {
    let mut edges = String::new();
    for i in 0..n {
        if i > 0 {
            edges.push(',');
        }
        let chord = (i + 2 + seed % 5) % n;
        edges.push_str(&format!("[{i},{}],[{i},{chord}]", (i + 1) % n));
    }
    format!("{{\"n\":{n},\"edges\":[{edges}]}}")
}

fn align_body(n: usize, seed: usize) -> String {
    format!(
        "{{\"a\":{},\"b\":{},\"config\":{{\"dim\":6,\"k\":4,\"bp_iters\":5,\"subspace_anchors\":0}}}}",
        graph_json(n, seed),
        graph_json(n, seed + 1),
    )
}

/// Scrapes one metric value off `/metrics` (`None` when not exported).
fn exported(addr: SocketAddr, name: &str) -> Option<f64> {
    let resp = client::get(addr, "/metrics").expect("metrics scrape");
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
        .lines()
        .find(|line| line.split_whitespace().next() == Some(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .map(|v| v.parse().expect("numeric metric"))
}

/// Scrapes one metric value off `/metrics` (0.0 when absent).
fn metric(addr: SocketAddr, name: &str) -> f64 {
    exported(addr, name).unwrap_or(0.0)
}

/// Opens a connection that claims a body it never sends, pinning one
/// worker in its read loop until dropped (or the socket timeout).
fn stall_worker(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /align HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    stream
}

#[test]
fn repeat_pair_hits_session_cache_across_concurrent_clients() {
    let server = start(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"), "{}", health.body);

    // Four concurrent clients, all posting the SAME pair.
    let body = align_body(48, 0);
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || client::post(addr, "/align", &body).unwrap())
        })
        .collect();
    for c in clients {
        let resp = c.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // A fifth request for the pair must reuse a cached session.
    let resp = client::post(addr, "/align", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = Json::parse(&resp.body).unwrap();
    assert_eq!(parsed.get("session_reused"), Some(&Json::Bool(true)));
    assert!(parsed.get("fingerprint").unwrap().as_str().unwrap().len() == 16);
    let cache_hits = parsed
        .get("result")
        .and_then(|r| r.get("timings"))
        .and_then(|t| t.get("cache_hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(cache_hits > 0, "repeat request must hit stage caches");

    assert!(metric(addr, "serve_session_hits") >= 1.0);
    assert!(metric(addr, "serve_session_misses") >= 1.0);
    assert!(metric(addr, "serve_requests") >= 5.0);
    assert!(metric(addr, "serve_request_seconds_count") >= 5.0);
    assert!(metric(addr, "serve_sessions_resident") >= 1.0);
    // The workers run under the server's registry, so the pipeline's
    // own stage and kernel instruments are scraped with it.
    assert!(metric(addr, "bp_runs") >= 1.0);
    assert!(metric(addr, "overlap_builds") >= 1.0);
    assert!(metric(addr, "session_embed_misses") >= 1.0);
    // No request tripped the worker's panic net.
    assert_eq!(exported(addr, "serve_panics"), Some(0.0));
    // The process's peak resident set is read at scrape time.
    if cfg!(target_os = "linux") {
        assert!(metric(addr, "process_peak_rss_bytes") > 0.0);
    }
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_typed_error_bodies() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    // Broken JSON → 400 with the protocol error kind.
    let resp = client::post(addr, "/align", "{not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let parsed = Json::parse(&resp.body).unwrap();
    let kind = parsed.get("error").unwrap().get("kind").unwrap();
    assert_eq!(kind, &Json::Str("protocol".to_string()));

    // Out-of-bounds edge → 400; unknown config field → 400.
    let resp = client::post(
        addr,
        "/align",
        r#"{"a":{"n":3,"edges":[[0,9]]},"b":{"n":3,"edges":[[0,1]]}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("out of bounds"), "{}", resp.body);
    let resp = client::post(
        addr,
        "/align",
        &format!(
            "{{\"a\":{g},\"b\":{g},\"config\":{{\"knn\":4}}}}",
            g = graph_json(12, 0)
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    // Zero BP iterations fails config validation (400), instead of
    // reaching the engine and coming back as a caught-panic 500.
    let resp = client::post(
        addr,
        "/align",
        &format!(
            "{{\"a\":{g},\"b\":{g},\"config\":{{\"bp_iters\":0}}}}",
            g = graph_json(12, 0)
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let parsed = Json::parse(&resp.body).unwrap();
    let kind = parsed.get("error").unwrap().get("kind").unwrap();
    assert_eq!(kind, &Json::Str("invalid_config".to_string()));

    // A graph too small for the spectral oversampling block must be a
    // typed 422, not a worker-killing panic in the embed kernel
    // (regression: the kernel asserts dim + oversample <= n).
    let resp = client::post(
        addr,
        "/align",
        r#"{"a":{"n":3,"edges":[[0,1],[1,2]]},"b":{"n":3,"edges":[[0,2],[1,2]]},"config":{"k":2,"bp_iters":5,"dim":2,"subspace_anchors":0}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    // ...and the worker pool survives to serve the next request.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    // Structurally valid but unalignable (dim > n) → 422.
    let resp = client::post(
        addr,
        "/align",
        &format!(
            "{{\"a\":{g},\"b\":{g},\"config\":{{\"dim\":64,\"subspace_anchors\":0}}}}",
            g = graph_json(10, 0)
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(Json::parse(&resp.body).unwrap().get("error").is_some());

    // Routing errors.
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/align").unwrap().status, 405);
    assert!(metric(addr, "serve_errors") >= 5.0);
    // Every error above was a typed answer, none a caught panic.
    assert_eq!(exported(addr, "serve_panics"), Some(0.0));
    server.shutdown();
}

#[test]
fn saturated_queue_answers_503_busy() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let staller = stall_worker(addr);
    std::thread::sleep(Duration::from_millis(200));

    // One request fits the queue; the rest must be rejected inline.
    let waiters: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || client::get(addr, "/healthz").unwrap().status))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    drop(staller);

    let statuses: Vec<u16> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let busy = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + busy, 4, "unexpected statuses {statuses:?}");
    assert_eq!(ok, 1, "exactly the queued request succeeds: {statuses:?}");
    assert!(busy >= 3, "{statuses:?}");
    assert!(metric(addr, "serve_rejected") >= 3.0);
    server.shutdown();
}

#[test]
fn requests_queued_past_deadline_answer_504() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let staller = stall_worker(addr);
    std::thread::sleep(Duration::from_millis(150));
    let waiter = std::thread::spawn(move || client::get(addr, "/healthz").unwrap());
    // Hold the worker well past the queued request's deadline.
    std::thread::sleep(Duration::from_millis(700));
    drop(staller);

    let resp = waiter.join().unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("deadline"), "{}", resp.body);
    assert!(metric(addr, "serve_timeouts") >= 1.0);
    server.shutdown();
}

#[test]
fn sweep_runs_configs_in_order_on_one_session() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    let body = format!(
        "{{\"a\":{},\"b\":{},\"configs\":[{{\"dim\":6,\"k\":4,\"bp_iters\":4,\"subspace_anchors\":0}},{{\"dim\":6,\"k\":4,\"bp_iters\":8,\"subspace_anchors\":0}},{{\"dim\":6,\"k\":6,\"bp_iters\":8,\"subspace_anchors\":0}}]}}",
        graph_json(40, 2),
        graph_json(40, 3),
    );
    let resp = client::post(addr, "/sweep", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = Json::parse(&resp.body).unwrap();
    let results = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    // Later sweep entries reuse cached stages (only bp/k changed).
    for r in &results[1..] {
        let hits = r
            .get("timings")
            .and_then(|t| t.get("cache_hits"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(hits > 0, "sweep entries after the first must reuse stages");
    }

    // An empty sweep is a protocol error.
    let resp = client::post(
        addr,
        "/sweep",
        &format!(
            "{{\"a\":{g},\"b\":{g},\"configs\":[]}}",
            g = graph_json(12, 0)
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_requests_before_exit() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let handle = server.shutdown_handle();

    // Wedge the worker, then queue two real requests behind it.
    let staller = stall_worker(addr);
    std::thread::sleep(Duration::from_millis(150));
    let queued: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || client::post(addr, "/align", &align_body(32, i)).unwrap())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));

    // Shutdown with work still queued: drain semantics say those
    // clients are answered, not dropped.
    handle.trigger();
    drop(staller);
    for q in queued {
        let resp = q.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("fingerprint"), "{}", resp.body);
    }
    // All threads exit; joins complete.
    server.shutdown();
}

#[test]
fn post_shutdown_endpoint_stops_the_server() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let resp = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.wait();
    // The port is released; new connections fail.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}
