//! # cualign-serve
//!
//! A long-running alignment service over the `cualign` engine: a
//! std-only HTTP/1.1 server whose whole job is to keep
//! [`cualign::AlignmentSession`]s warm between requests. The first
//! request for a graph pair pays the full pipeline; every later request
//! for the same pair — different config or not — reuses whatever stage
//! artifacts its config keys still fingerprint-match, which is the
//! session cache doing over the network what it already did in-process.
//!
//! ## Shape
//!
//! * [`server`] — acceptor thread, bounded queue, fixed worker pool,
//!   graceful drain-on-shutdown ([`Server`], [`ServerConfig`]).
//! * [`lru`] — the session store keyed by
//!   [`cualign::graph_pair_fingerprint`].
//! * [`protocol`] — request/response JSON and the error → status map.
//! * [`http`] / [`json`] — hand-rolled framing and parsing; the crate
//!   has no external dependencies by design.
//! * [`client`] — the blocking client the e2e tests, bench load
//!   generator, and CI smoke checks share.
//!
//! ## Quickstart
//!
//! ```
//! use cualign_serve::{client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let health = client::get(server.addr(), "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! server.shutdown();
//! ```
//!
//! Endpoints: `POST /align`, `POST /sweep`, `GET /metrics` (Prometheus
//! text; the `process_peak_rss_bytes` gauge is read at each scrape),
//! `GET /healthz`, `POST /shutdown`. Saturation answers `503` +
//! `Retry-After`; requests queued past the deadline answer `504`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod lru;
pub mod protocol;
pub mod server;

pub use lru::{OwnedSession, SessionLru};
pub use server::{Server, ServerConfig, ShutdownHandle};
