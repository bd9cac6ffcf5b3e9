//! The [`Registry`]: named instruments plus the span tree, and the
//! plain-data [`Snapshot`] the exporters consume.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::{SpanGuard, SpanNode, SpanSnapshot};

/// A set of named counters, gauges, histograms, and a span tree.
///
/// Instruments are interned on first use and handed out as `Arc`s, so a
/// kernel looks its handles up once per call (one short `Mutex` lock
/// each, no allocation once the name exists) and then touches only
/// atomics. Libraries record into [`current`]: the process-wide
/// [`global`] registry unless a caller chose another with
/// [`with_registry`] (tests do, for isolation: tests in one binary run
/// concurrently and would otherwise see each other's counts).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<SpanNode>,
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

thread_local! {
    /// Registry chosen by the innermost [`with_registry`] on this thread.
    static CURRENT: Cell<Option<&'static Registry>> = const { Cell::new(None) };
}

/// The registry work on this thread records into: the innermost
/// [`with_registry`] choice, else [`global`].
pub fn current() -> &'static Registry {
    chosen().unwrap_or_else(global)
}

/// Runs `f` with [`current`] returning `registry` on this thread, and
/// restores the previous choice when `f` returns or unwinds. Work `f`
/// hands to other threads records there too when it enters a
/// [`crate::SpanContext`] captured inside `f`.
pub fn with_registry<R>(registry: &'static Registry, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<&'static Registry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_chosen(self.0);
        }
    }
    let _restore = Restore(set_chosen(Some(registry)));
    f()
}

/// This thread's [`with_registry`] choice, if any.
pub(crate) fn chosen() -> Option<&'static Registry> {
    CURRENT.with(Cell::get)
}

/// Replaces this thread's [`with_registry`] choice, returning the old one.
pub(crate) fn set_chosen(registry: Option<&'static Registry>) -> Option<&'static Registry> {
    CURRENT.with(|c| c.replace(registry))
}

/// Returns the instrument called `name`, interning a default one on
/// first use; a name that exists costs one lock and no allocation.
fn intern<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("instrument map poisoned");
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// Creates an empty, isolated registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Test helper: creates a registry *and* flips the global enabled
    /// flag on, so spans record.
    pub fn new_enabled() -> Self {
        crate::set_enabled(true);
        Registry::default()
    }

    /// Interns (or retrieves) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Interns (or retrieves) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Interns (or retrieves) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Opens a span named `name` nested under this thread's currently
    /// open spans. Fully inert (no clock read) when telemetry is
    /// disabled. The guard records on drop.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if crate::enabled() {
            SpanGuard::open(&self.spans, name)
        } else {
            SpanGuard::inert()
        }
    }

    /// Runs `f` inside a span and *always* returns its wall-clock
    /// seconds, recording into the span tree only when telemetry is
    /// enabled. This is the bridge for callers that need the duration
    /// regardless of mode (e.g. `StageTimings`).
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let guard = self.span(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        drop(guard);
        (out, secs)
    }

    /// Freezes every instrument and the span tree into plain data.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("counter map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: self.spans.lock().expect("span tree poisoned").snapshot(),
        }
    }
}

/// A frozen view of a [`Registry`]: plain data, deterministically ordered
/// (BTreeMaps), consumed by the exporters in [`crate::export`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Root of the span tree (the root itself carries no timing; its
    /// children are the top-level spans).
    pub spans: SpanSnapshot,
}

impl Snapshot {
    /// True when nothing was recorded at all: no counters, gauges, or
    /// histograms, and an empty span tree. Sinks use this to skip
    /// emitting husk records for runs where telemetry stayed off.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_interned() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn with_registry_is_scoped() {
        let leak = || -> &'static Registry { Box::leak(Box::new(Registry::new())) };
        let (outer, inner) = (leak(), leak());
        assert!(std::ptr::eq(current(), global()), "no choice means global");
        with_registry(outer, || {
            assert!(std::ptr::eq(current(), outer));
            with_registry(inner, || assert!(std::ptr::eq(current(), inner)));
            assert!(std::ptr::eq(current(), outer), "inner choice leaked");
            // Another thread has its own choice: none.
            let elsewhere = std::thread::spawn(|| std::ptr::eq(current(), global()));
            assert!(elsewhere.join().unwrap(), "the choice crossed threads");
        });
        assert!(std::ptr::eq(current(), global()));
        let _ = std::panic::catch_unwind(|| with_registry(outer, || panic!("inside")));
        assert!(
            std::ptr::eq(current(), global()),
            "a panic leaked the choice"
        );
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _flag = crate::flag_lock();
        crate::set_enabled(false);
        let r = Registry::new();
        let ((), secs) = r.timed("work", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002, "timed() must measure with telemetry off");
        assert!(r.snapshot().spans.children.is_empty(), "but not record");
    }

    #[test]
    fn snapshot_is_deterministic_and_complete() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.counter("a.count").inc();
        r.gauge("z.size").set(7.5);
        r.histogram("h").record(1.0);
        let s = r.snapshot();
        assert_eq!(
            s.counters.keys().collect::<Vec<_>>(),
            vec!["a.count", "b.count"]
        );
        assert_eq!(s.counters["b.count"], 2);
        assert_eq!(s.gauges["z.size"], 7.5);
        assert_eq!(s.histograms["h"].count, 1);
        assert_eq!(s, r.snapshot());
    }
}
