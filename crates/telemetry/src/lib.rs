//! # cualign-telemetry
//!
//! A zero-dependency (std-only) metrics and tracing subsystem for the
//! cuAlign pipeline. The paper's whole evaluation is a story about where
//! time and memory go — per-kernel BP timings (Table 2), sparsification
//! counts (Fig. 4), matching rounds (§4.3) — and this crate is the
//! observability layer that makes those quantities visible in every run,
//! not just inside dedicated bench binaries.
//!
//! ## Model
//!
//! A [`Registry`] holds named instruments:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, items).
//! * [`Gauge`] — last-write-wins `f64` (sizes, scores).
//! * [`Histogram`] — log₂-bucketed value distribution with underflow and
//!   overflow buckets (residuals, launch times).
//!
//! plus a hierarchical **span tree**: RAII [`SpanGuard`]s opened via
//! [`Registry::span`] (or the measure-always [`Registry::timed`]) nest
//! through a thread-local stack, and on drop fold `(path, duration)` into
//! the tree — per-path call counts, total time, and (at export) self time.
//! Each thread owns its own stack, so spans opened on parallel helper
//! threads never corrupt the tree; they simply record under the
//! helper's own current path, or under the caller's when the work
//! enters a [`SpanContext`] captured on the caller.
//!
//! All instrument updates are single atomic operations; the span tree
//! takes one short mutex lock per span *exit*. Instruments always
//! record. Only span capture is gated, behind a process-global enabled
//! flag ([`set_enabled`]): when telemetry is off, [`Registry::span`] is
//! fully inert (no clock read, no allocation). No kernel branches on
//! the flag, so turning telemetry on never changes the code that runs.
//!
//! ## Snapshots and exporters
//!
//! [`Registry::snapshot`] freezes everything into a plain-data
//! [`Snapshot`] with three serializations:
//!
//! * [`Snapshot::render_tree`] — human-readable summary for the CLI
//!   (`--telemetry summary`),
//! * [`Snapshot::to_json`] — one JSON line, the `BENCH_*.json` contract,
//! * [`Snapshot::to_prometheus`] — Prometheus text exposition format for
//!   a future serving layer.
//!
//! Every stage and kernel records into [`current`]: the registry chosen
//! by the innermost [`with_registry`] on the calling thread, else the
//! process-global [`global`]. A kernel resolves its handles on the
//! calling thread before it fans out, and work handed to helper threads
//! carries the choice in a [`SpanContext`], so a caller that picks a
//! registry — a test, a server, an embedder — sees the whole stack's
//! instruments and spans in it, and a binary that picks none observes
//! them all in [`global`].
//!
//! **Place in the pipeline** (paper Fig. 2): a cross-cutting layer under
//! every stage rather than a stage itself. Sessions record
//! `session.<stage>` spans and cache counters, the multilevel driver
//! records `multilevel.*` spans and per-level counters, and the CLI and
//! bench binaries choose the sink (`--telemetry off|summary|json:PATH`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;

pub use cli::{TelemetryMode, TelemetrySink};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{current, global, with_registry, Registry, Snapshot};
pub use span::{EnteredContext, SpanContext, SpanGuard, SpanSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span capture is globally enabled. Counters, gauges and
/// histograms record either way.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables span capture. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Peak resident set size of this process in bytes, read from `VmHWM`
/// in `/proc/self/status`; `None` where that file or field is absent
/// (non-Linux hosts).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    kib.checked_mul(1024)
}

/// Serializes this crate's tests that set or depend on the process-global
/// enabled flag: `cargo test` runs a binary's tests on parallel threads,
/// and one test switching the flag off drops another's spans.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_where_reported() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0, "VmHWM read as {bytes} bytes");
        }
    }
}
