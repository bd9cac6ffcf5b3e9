//! The alignment service: acceptor thread → bounded queue → worker pool
//! → session LRU.
//!
//! Concurrency model, in one paragraph: a single acceptor thread owns
//! the listener and pushes accepted connections onto a bounded
//! [`VecDeque`]; when the queue is full it answers `503` +
//! `Retry-After` inline instead of queueing unbounded work. A fixed pool
//! of worker threads pops connections, reads one HTTP request each, and
//! runs it to completion — alignment work happens only on workers, so
//! the acceptor can never be wedged by a slow Sinkhorn. Each worker's
//! kernels use its share of the cores (`cualign_rt::par::threads()`
//! divided by the worker count), so a full pool never oversubscribes.
//! Requests that sat queued past the configured deadline are answered
//! `504` without running. Shutdown is cooperative and std-only: a flag
//! checked between accepts (a self-connect wakes a blocked `accept`),
//! then workers drain whatever the queue still holds before exiting, so
//! in-flight clients get answers and `Server::shutdown` joins cleanly.

use crate::http::{self, HttpError, Request};
use crate::lru::{OwnedSession, SessionLru};
use crate::protocol;
use cualign::{graph_pair_fingerprint, AlignError, AlignmentResult, AlignmentSession};
use cualign_graph::CsrGraph;
use cualign_rt::par;
use cualign_telemetry::{with_registry, Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Worker threads running alignments.
    pub workers: usize,
    /// Connections allowed to wait for a worker before the acceptor
    /// starts answering 503.
    pub queue_capacity: usize,
    /// Resident [`AlignmentSession`]s (one per distinct graph pair).
    pub sessions: usize,
    /// Requests still queued after this long are answered 504.
    pub deadline: Duration,
    /// Request body cap in bytes.
    pub max_body: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            queue_capacity: 32,
            sessions: 4,
            deadline: Duration::from_secs(60),
            max_body: 16 * 1024 * 1024,
        }
    }
}

/// Limit on `configs` entries per sweep request, so one request cannot
/// monopolize a worker indefinitely.
const MAX_SWEEP_CONFIGS: usize = 32;

/// How long a worker waits on a single socket read/write before giving
/// up on the client.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

struct Metrics {
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    timeouts: Arc<Counter>,
    errors: Arc<Counter>,
    panics: Arc<Counter>,
    session_hits: Arc<Counter>,
    session_misses: Arc<Counter>,
    session_evictions: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    sessions_resident: Arc<Gauge>,
    /// The process's peak resident set (`VmHWM`), read at each scrape.
    peak_rss_bytes: Arc<Gauge>,
    request_seconds: Arc<Histogram>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("serve.requests"),
            rejected: registry.counter("serve.rejected"),
            timeouts: registry.counter("serve.timeouts"),
            errors: registry.counter("serve.errors"),
            panics: registry.counter("serve.panics"),
            session_hits: registry.counter("serve.session_hits"),
            session_misses: registry.counter("serve.session_misses"),
            session_evictions: registry.counter("serve.session_evictions"),
            queue_depth: registry.gauge("serve.queue_depth"),
            sessions_resident: registry.gauge("serve.sessions_resident"),
            peak_rss_bytes: registry.gauge("process.peak_rss_bytes"),
            request_seconds: registry.histogram("serve.request_seconds"),
        }
    }
}

struct Job {
    stream: TcpStream,
    enqueued: Instant,
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    registry: &'static Registry,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    lru: Mutex<SessionLru>,
    metrics: Metrics,
}

/// A clonable handle that asks a running [`Server`] to stop accepting
/// and drain. Safe to call from any thread, including a worker mid-
/// request (`POST /shutdown` does exactly that).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Raises the shutdown flag and wakes every blocked thread.
    pub fn trigger(&self) {
        trigger_shutdown(&self.shared);
    }
}

fn trigger_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    // `accept` has no timeout in std; a throwaway connection to
    // ourselves is the portable way to unblock it so it can observe the
    // flag. Errors are fine — the listener may already be gone.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250));
    shared.job_ready.notify_all();
}

/// A running alignment service. Dropping the server shuts it down and
/// joins its threads; [`Server::shutdown`] does the same explicitly.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the service. It records into the caller's
    /// [`cualign_telemetry::current`] registry, captured here: its own
    /// metrics, and every worker runs its requests under that registry,
    /// so `GET /metrics` also shows the pipeline's stage and kernel
    /// instruments. Tests start each server inside
    /// [`cualign_telemetry::with_registry`] to keep servers apart.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let registry = cualign_telemetry::current();
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            lru: Mutex::new(SessionLru::new(cfg.sessions)),
            metrics: Metrics::new(registry),
            cfg,
            addr,
            registry,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });

        let worker_count = shared.cfg.workers.max(1);
        // Workers run requests concurrently, so each request's parallel
        // kernels get an equal share of the cores rather than all of them.
        let share = (par::threads() / worker_count).max(1);
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    with_registry(shared.registry, || {
                        par::with_threads(share, || worker_loop(&shared))
                    })
                })
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The registry this server's metrics live in.
    pub fn registry(&self) -> &'static Registry {
        self.shared.registry
    }

    /// A handle for triggering shutdown from elsewhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting, drains queued requests, and joins all threads.
    pub fn shutdown(mut self) {
        self.finish();
    }

    /// Blocks until the server shuts down by some *other* path — a
    /// `POST /shutdown`, or a [`ShutdownHandle::trigger`] from another
    /// thread. This is the binary's main-thread parking spot.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn finish(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        trigger_shutdown(&self.shared);
        let _ = acceptor.join();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    for stream in listener.incoming() {
        // Checked between accepts: the trigger's self-connect lands here
        // and is dropped unanswered.
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));

        enqueue(shared, stream);
    }
    shared.job_ready.notify_all();
}

fn enqueue(shared: &Shared, stream: TcpStream) {
    let rejected = {
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.cfg.queue_capacity {
            Some(stream)
        } else {
            queue.push_back(Job {
                stream,
                enqueued: Instant::now(),
            });
            shared.metrics.queue_depth.set(queue.len() as f64);
            None
        }
    };
    match rejected {
        None => shared.job_ready.notify_one(),
        Some(mut stream) => {
            shared.metrics.rejected.inc();
            // Answered off-thread: the drain below can wait on the
            // client for up to its socket timeout, and the acceptor must
            // never block on a client.
            std::thread::spawn(move || respond_busy(&mut stream));
        }
    }
}

/// Answers 503 on a connection whose request was never read. The
/// response goes out first, then the unread request is drained (bounded)
/// before closing — closing a socket with unread data would RST the
/// connection and many clients would drop the response on the floor.
fn respond_busy(stream: &mut TcpStream) {
    let body = protocol::error_body("busy", "request queue is full; retry shortly");
    let _ = http::write_response(
        stream,
        503,
        "application/json",
        body.as_bytes(),
        &[("Retry-After", "1")],
    );
    drain_unread(stream);
}

/// Bounded best-effort read-to-quiet on a connection whose request was
/// never consumed, so the close that follows is a FIN rather than an
/// RST discarding the response in flight.
fn drain_unread(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8192];
    for _ in 0..128 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as f64);
                    break Some(job);
                }
                // Drain-then-exit: the pop above runs first, so jobs
                // enqueued before the flag flipped still get served.
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.job_ready.wait(queue).expect("queue lock");
            }
        };
        let Some(job) = job else { return };
        handle_job(shared, job);
    }
}

fn handle_job(shared: &Shared, mut job: Job) {
    shared.metrics.requests.inc();
    if job.enqueued.elapsed() > shared.cfg.deadline {
        shared.metrics.timeouts.inc();
        respond_error(
            &mut job.stream,
            504,
            "deadline",
            "request spent longer than the deadline waiting for a worker",
        );
        // Like the 503 path, the request was never read; drain it so the
        // close delivers the response instead of an RST.
        drain_unread(&mut job.stream);
        return;
    }

    let request = match http::read_request(&mut job.stream, shared.cfg.max_body) {
        Ok(request) => request,
        Err(HttpError::Malformed(msg)) => {
            shared.metrics.errors.inc();
            let body = protocol::error_body("http", &msg);
            let _ = http::write_response(
                &mut job.stream,
                400,
                "application/json",
                body.as_bytes(),
                &[],
            );
            return;
        }
        Err(HttpError::BodyTooLarge { limit }) => {
            shared.metrics.errors.inc();
            let msg = format!("request body exceeds the {limit}-byte limit");
            let body = protocol::error_body("too_large", &msg);
            let _ = http::write_response(
                &mut job.stream,
                413,
                "application/json",
                body.as_bytes(),
                &[],
            );
            return;
        }
        Err(HttpError::Io(_)) => {
            shared.metrics.errors.inc();
            return;
        }
    };

    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::write_response(
                &mut job.stream,
                200,
                "application/json",
                b"{\"status\":\"ok\"}",
                &[],
            );
        }
        ("GET", "/metrics") => {
            if let Some(bytes) = cualign_telemetry::peak_rss_bytes() {
                shared.metrics.peak_rss_bytes.set(bytes as f64);
            }
            let text = shared.registry.snapshot().to_prometheus();
            let _ = http::write_response(
                &mut job.stream,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                &[],
            );
        }
        ("POST", "/align") => run_work(shared, job, &request, handle_align),
        ("POST", "/sweep") => run_work(shared, job, &request, handle_sweep),
        ("POST", "/shutdown") => {
            let _ = http::write_response(
                &mut job.stream,
                200,
                "application/json",
                b"{\"status\":\"shutting down\"}",
                &[],
            );
            trigger_shutdown(shared);
        }
        (_, "/healthz" | "/metrics" | "/align" | "/sweep" | "/shutdown") => {
            shared.metrics.errors.inc();
            let body = protocol::error_body("method", "method not allowed for this path");
            let _ = http::write_response(
                &mut job.stream,
                405,
                "application/json",
                body.as_bytes(),
                &[],
            );
        }
        (_, target) => {
            shared.metrics.errors.inc();
            let body = protocol::error_body("not_found", &format!("no such endpoint {target:?}"));
            let _ = http::write_response(
                &mut job.stream,
                404,
                "application/json",
                body.as_bytes(),
                &[],
            );
        }
    }
}

/// Runs an alignment endpoint and records its end-to-end latency
/// (accept → response) in `serve.request_seconds`. Only the two work
/// endpoints are timed; health and metrics scrapes would drown the
/// histogram in microsecond samples.
fn run_work(
    shared: &Shared,
    mut job: Job,
    request: &Request,
    endpoint: fn(&Shared, &Request) -> Result<String, AlignError>,
) {
    // Session validation makes algorithm-crate contract panics
    // unreachable from request input, but a panic reaching here must
    // cost one 500, not a worker thread — the pool is fixed-size and a
    // dead worker would shrink it for the life of the process. Each one
    // caught ticks `serve.panics`, so a tripped net shows in `/metrics`.
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| endpoint(shared, request)));
    match outcome {
        Ok(Ok(body)) => {
            let _ = http::write_response(
                &mut job.stream,
                200,
                "application/json",
                body.as_bytes(),
                &[],
            );
        }
        Ok(Err(error)) => {
            shared.metrics.errors.inc();
            let (status, kind) = protocol::status_for(&error);
            respond_error(&mut job.stream, status, kind, &error.to_string());
        }
        Err(payload) => {
            shared.metrics.errors.inc();
            shared.metrics.panics.inc();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "alignment panicked".to_string());
            respond_error(&mut job.stream, 500, "panic", &message);
        }
    }
    shared
        .metrics
        .request_seconds
        .record(job.enqueued.elapsed().as_secs_f64());
}

fn respond_error(stream: &mut TcpStream, status: u16, kind: &str, message: &str) {
    let body = protocol::error_body(kind, message);
    let retry: &[(&str, &str)] = if status == 503 || status == 504 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let _ = http::write_response(stream, status, "application/json", body.as_bytes(), retry);
}

fn handle_align(shared: &Shared, request: &Request) -> Result<String, AlignError> {
    let body = protocol::parse_body(&request.body)?;
    let (a, b) = protocol::parse_pair(&body)?;
    let cfg = protocol::parse_config(body.get("config"))?;
    let fp = graph_pair_fingerprint(&a, &b);
    let (mut session, reused) = checkout(shared, fp, a, b, cfg)?;
    let result = session.align();
    give_back(shared, fp, session);
    Ok(protocol::align_response(fp, reused, &result?))
}

fn handle_sweep(shared: &Shared, request: &Request) -> Result<String, AlignError> {
    let body = protocol::parse_body(&request.body)?;
    let (a, b) = protocol::parse_pair(&body)?;
    let patches = body
        .get("configs")
        .and_then(|v| v.as_array())
        .ok_or_else(|| AlignError::Protocol {
            reason: "\"configs\" must be an array of config objects".to_string(),
        })?;
    if patches.is_empty() || patches.len() > MAX_SWEEP_CONFIGS {
        return Err(AlignError::Protocol {
            reason: format!(
                "\"configs\" must hold between 1 and {MAX_SWEEP_CONFIGS} entries, got {}",
                patches.len()
            ),
        });
    }
    // Parse every config before running any: a sweep is atomic —
    // either the whole request is well-formed or nothing runs.
    let configs = patches
        .iter()
        .map(|p| protocol::parse_config(Some(p)))
        .collect::<Result<Vec<_>, _>>()?;

    let fp = graph_pair_fingerprint(&a, &b);
    let first = configs[0].clone();
    let (mut session, reused) = checkout(shared, fp, a, b, first)?;
    let mut results: Vec<AlignmentResult> = Vec::with_capacity(configs.len());
    let mut failure = None;
    for cfg in configs {
        if let Err(e) = session.set_config(cfg) {
            failure = Some(e);
            break;
        }
        match session.align() {
            Ok(r) => results.push(r),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    give_back(shared, fp, session);
    match failure {
        Some(e) => Err(e),
        None => Ok(protocol::sweep_response(fp, reused, &results)),
    }
}

/// Fetches the session for `fp` from the LRU (hit) or builds a fresh one
/// from the parsed graphs (miss). Runs outside any lock except the brief
/// LRU probe, so concurrent requests for different pairs overlap fully.
fn checkout(
    shared: &Shared,
    fp: u64,
    a: CsrGraph,
    b: CsrGraph,
    cfg: cualign::AlignerConfig,
) -> Result<(OwnedSession, bool), AlignError> {
    let cached = shared.lru.lock().expect("lru lock").take(fp);
    match cached {
        Some(mut session) => {
            shared.metrics.session_hits.inc();
            match session.set_config(cfg) {
                Ok(()) => Ok((session, true)),
                Err(e) => {
                    // The session itself is fine; put it back before
                    // reporting the config problem.
                    give_back(shared, fp, session);
                    Err(e)
                }
            }
        }
        None => {
            shared.metrics.session_misses.inc();
            let session = AlignmentSession::new(Arc::new(a), Arc::new(b), cfg)?;
            Ok((session, false))
        }
    }
}

fn give_back(shared: &Shared, fp: u64, session: OwnedSession) {
    let (evicted, resident) = {
        let mut lru = shared.lru.lock().expect("lru lock");
        let outcome = lru.insert(fp, session);
        (outcome.evicted, lru.len())
    };
    if evicted > 0 {
        shared.metrics.session_evictions.add(evicted as u64);
    }
    shared.metrics.sessions_resident.set(resident as f64);
}
