//! RAII span timers and the hierarchical timing tree.
//!
//! A span is opened with [`crate::Registry::span`] (inert when telemetry
//! is disabled) or [`crate::Registry::timed`] (always measures, records
//! only when enabled). Open spans nest through a *thread-local* stack of
//! names; when a guard drops, the full path (`["align", "bp", "sweep"]`)
//! and elapsed time are folded into the registry's span tree under one
//! short mutex lock. Because the stack is thread-local, spans opened on
//! parallel helper threads nest under whatever is open *on that helper* —
//! concurrent spans on different threads can never corrupt each other's
//! paths.
//!
//! Work handed to another thread can keep its caller's place in the
//! tree: [`SpanContext::current`] captures the calling thread's open
//! path and [`crate::with_registry`] choice, and [`SpanContext::enter`]
//! installs both on whichever thread runs the work, restoring that
//! thread's own when the returned guard drops. Spans opened and
//! instruments resolved in between record where the caller's do.
//!
//! Guards are robust to out-of-order drops: each guard remembers the
//! stack depth at which it was opened and truncates the stack back to
//! that depth on drop, so a leaked or late-dropped inner guard cannot
//! poison subsequent paths.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

use crate::Registry;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// One node of the aggregated timing tree. Interior type held by the
/// registry behind a mutex; exported as [`SpanSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct SpanNode {
    pub(crate) calls: u64,
    pub(crate) total_ns: u128,
    pub(crate) children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    fn record(&mut self, path: &[String], elapsed_ns: u128) {
        match path.split_first() {
            None => {
                self.calls += 1;
                self.total_ns += elapsed_ns;
            }
            Some((head, rest)) => {
                self.children
                    .entry(head.clone())
                    .or_default()
                    .record(rest, elapsed_ns);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            calls: self.calls,
            total_s: self.total_ns as f64 * 1e-9,
            children: self
                .children
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Aggregated timing tree rooted at the registry, frozen into plain data.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SpanSnapshot {
    /// Times a span at exactly this path completed.
    pub calls: u64,
    /// Total wall-clock seconds across all those completions.
    pub total_s: f64,
    /// Child spans, keyed by name (sorted for deterministic export).
    pub children: BTreeMap<String, SpanSnapshot>,
}

impl SpanSnapshot {
    /// Seconds spent at this path but not inside any recorded child.
    /// Clamped at zero: children on other threads can overlap the parent.
    pub fn self_s(&self) -> f64 {
        let child_total: f64 = self.children.values().map(|c| c.total_s).sum();
        (self.total_s - child_total).max(0.0)
    }

    /// Looks up a descendant by path (e.g. `&["align", "bp"]`).
    pub fn get(&self, path: &[&str]) -> Option<&SpanSnapshot> {
        match path.split_first() {
            None => Some(self),
            Some((head, rest)) => self.children.get(*head)?.get(rest),
        }
    }
}

/// The calling thread's open span path and registry choice, captured
/// to be entered on another thread (or the same one) so that spans
/// opened there nest under the caller's spans instead of at the root,
/// and instruments resolved there record into the caller's
/// [`crate::current`] registry.
///
/// Capturing and entering do not depend on whether telemetry is enabled;
/// with telemetry off the path is simply empty.
#[derive(Clone, Debug, Default)]
pub struct SpanContext {
    path: Vec<String>,
    registry: Option<&'static Registry>,
}

impl PartialEq for SpanContext {
    fn eq(&self, other: &Self) -> bool {
        let ptr = |r: Option<&'static Registry>| r.map(|r| r as *const Registry);
        self.path == other.path && ptr(self.registry) == ptr(other.registry)
    }
}

impl Eq for SpanContext {}

impl SpanContext {
    /// Captures this thread's open span path and registry choice.
    pub fn current() -> Self {
        SpanContext {
            path: SPAN_STACK.with(|s| s.borrow().clone()),
            registry: crate::registry::chosen(),
        }
    }

    /// Makes the captured path and registry choice this thread's until
    /// the returned guard drops, which restores the thread's own.
    pub fn enter(&self) -> EnteredContext {
        let saved = SPAN_STACK.with(|s| s.replace(self.path.clone()));
        EnteredContext {
            saved,
            saved_registry: crate::registry::set_chosen(self.registry),
            _not_send: PhantomData,
        }
    }
}

/// Guard returned by [`SpanContext::enter`]; restores the thread's own
/// span stack and registry choice on drop. It must drop on the thread
/// that entered it.
pub struct EnteredContext {
    saved: Vec<String>,
    saved_registry: Option<&'static Registry>,
    /// The guard restores thread-locals: keep it on its thread.
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnteredContext {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        SPAN_STACK.with(|s| *s.borrow_mut() = saved);
        crate::registry::set_chosen(self.saved_registry);
    }
}

/// RAII guard for an open span; records into `tree` on drop.
///
/// Created by [`crate::Registry::span`]. When telemetry is disabled at
/// open time the guard is fully inert: no clock read, no stack push, no
/// work on drop.
pub struct SpanGuard<'r> {
    /// `None` when telemetry was disabled at open time.
    active: Option<ActiveSpan<'r>>,
}

struct ActiveSpan<'r> {
    tree: &'r Mutex<SpanNode>,
    start: Instant,
    /// Stack depth *after* pushing our own name; drop truncates to
    /// `depth - 1` so stray inner guards can't corrupt later paths.
    depth: usize,
}

impl<'r> SpanGuard<'r> {
    pub(crate) fn inert() -> Self {
        SpanGuard { active: None }
    }

    pub(crate) fn open(tree: &'r Mutex<SpanNode>, name: &str) -> Self {
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name.to_string());
            s.len()
        });
        SpanGuard {
            active: Some(ActiveSpan {
                tree,
                start: Instant::now(),
                depth,
            }),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed_ns = active.start.elapsed().as_nanos();
        let path = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Snapshot the path down to (and including) this span's own
            // frame, then pop back to the parent. If an inner guard
            // leaked, this also discards its stale frames.
            let path: Vec<String> = s.iter().take(active.depth).cloned().collect();
            s.truncate(active.depth.saturating_sub(1));
            path
        });
        if !path.is_empty() {
            active
                .tree
                .lock()
                .expect("span tree poisoned")
                .record(&path, elapsed_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn spans_nest_into_a_tree() {
        let _flag = crate::flag_lock();
        let r = Registry::new_enabled();
        {
            let _outer = r.span("align");
            for _ in 0..3 {
                let _inner = r.span("bp");
            }
        }
        let snap = r.snapshot();
        let align = snap.spans.get(&["align"]).expect("align span");
        assert_eq!(align.calls, 1);
        let bp = snap.spans.get(&["align", "bp"]).expect("nested bp span");
        assert_eq!(bp.calls, 3);
        assert!(align.total_s >= bp.total_s);
        assert!(align.self_s() >= 0.0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = crate::flag_lock();
        crate::set_enabled(false);
        let r = Registry::new();
        {
            let _g = r.span("ghost");
        }
        let snap = r.snapshot();
        assert!(snap.spans.children.is_empty());
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_later_paths() {
        let _flag = crate::flag_lock();
        let r = Registry::new_enabled();
        {
            let outer = r.span("outer");
            let inner = r.span("inner");
            // Drop outer first: inner's frame must not leak into the next
            // span's path.
            drop(outer);
            drop(inner);
        }
        {
            let _clean = r.span("clean");
        }
        let snap = r.snapshot();
        assert!(snap.spans.get(&["clean"]).is_some(), "clean at root");
        assert_eq!(snap.spans.get(&["outer"]).unwrap().calls, 1);
        // `outer`'s drop discarded `inner`'s stale frame, so `inner`
        // records nothing at all — crucially it can never attach itself
        // under a span opened later.
        assert!(snap.spans.get(&["inner"]).is_none());
        assert!(snap.spans.get(&["clean", "inner"]).is_none());
        assert_eq!(snap.spans.children.len(), 2, "only outer and clean");
    }

    #[test]
    fn threads_have_independent_stacks() {
        use std::sync::Arc;
        let _flag = crate::flag_lock();
        let r: &'static Registry = Box::leak(Box::new(Registry::new_enabled()));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let _outer = r.span(&format!("worker{t}"));
                    barrier.wait(); // all four outer spans open at once
                    for _ in 0..10 {
                        let _inner = r.span("step");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        for t in 0..4 {
            let name = format!("worker{t}");
            let outer = snap.spans.children.get(&name).expect("worker span");
            assert_eq!(outer.calls, 1);
            let inner = outer.children.get("step").expect("nested step");
            assert_eq!(inner.calls, 10, "worker {t} step count");
        }
        // No cross-thread nesting: worker spans only ever at the root.
        assert_eq!(snap.spans.children.len(), 4);
    }

    #[test]
    fn entered_context_nests_helper_spans_under_the_caller() {
        use crate::SpanContext;
        use cualign_rt::par;
        let _flag = crate::flag_lock();
        let r: &'static Registry = Box::leak(Box::new(Registry::new_enabled()));
        let items = vec![(); 64];
        let ends = std::sync::Barrier::new(2);
        {
            let _outer = r.span("caller");
            let ctx = SpanContext::current();
            par::with_threads(4, || {
                par::for_each(items, 1, |i, _| {
                    // The first and last task meet at a barrier, so they
                    // run on different threads: at least one on a helper.
                    if i == 0 || i == 63 {
                        ends.wait();
                    }
                    let own = SpanContext::current();
                    {
                        let _ctx = ctx.enter();
                        let _task = r.span("task");
                    }
                    assert_eq!(SpanContext::current(), own, "stack restored");
                    if i == 0 || i == 63 {
                        // Past the guard, each thread's spans are its own
                        // again: under "caller" on the calling thread, at
                        // the root on a helper.
                        let _after = r.span("after");
                    }
                });
            });
        }
        let snap = r.snapshot();
        let task = snap.spans.get(&["caller", "task"]).expect("nested task");
        assert_eq!(task.calls, 64, "every task, wherever it ran");
        assert!(snap.spans.get(&["task"]).is_none(), "no task at the root");
        let calls = |path: &[&str]| snap.spans.get(path).map_or(0, |s| s.calls);
        let on_helpers = calls(&["after"]);
        assert!(on_helpers > 0, "no helper span recorded at the root");
        assert_eq!(on_helpers + calls(&["caller", "after"]), 2);
        assert_eq!(snap.spans.children.len(), 2, "only caller and after");
    }

    #[test]
    fn entered_context_carries_the_registry_choice() {
        use crate::{current, with_registry, SpanContext};
        let _flag = crate::flag_lock();
        let r: &'static Registry = Box::leak(Box::new(Registry::new_enabled()));
        let ctx = with_registry(r, || {
            let _outer = r.span("caller");
            SpanContext::current()
        });
        let helper = std::thread::spawn(move || {
            {
                let _ctx = ctx.enter();
                current().counter("helper.items").inc();
                let _task = current().span("task");
            }
            std::ptr::eq(current(), crate::global())
        });
        assert!(helper.join().unwrap(), "the choice outlived the guard");
        let snap = r.snapshot();
        assert_eq!(snap.counters["helper.items"], 1);
        assert_eq!(snap.spans.get(&["caller", "task"]).unwrap().calls, 1);
    }

    #[test]
    fn parallel_spans_do_not_corrupt_the_tree() {
        use cualign_rt::par;
        let _flag = crate::flag_lock();
        let r: &'static Registry = Box::leak(Box::new(Registry::new_enabled()));
        let items = vec![(); 64];
        // The first and last task meet at a barrier: the caller blocks in
        // the first, so a helper thread must run the last.
        let ends = std::sync::Barrier::new(2);
        {
            let _outer = r.span("driver");
            par::with_threads(4, || {
                par::for_each(items, 1, |i, _| {
                    if i == 0 || i == 63 {
                        ends.wait();
                    }
                    let _task = r.span("task");
                    let _sub = r.span("sub");
                });
            });
        }
        let snap = r.snapshot();
        // Tasks that ran on the calling thread nest under "driver"; tasks
        // on helper threads record "task" at the root. Either way every
        // task records exactly once and always contains its "sub".
        let mut tasks = 0;
        let mut subs = 0;
        if let Some(t) = snap.spans.get(&["driver", "task"]) {
            tasks += t.calls;
            subs += t.children.get("sub").map_or(0, |s| s.calls);
        }
        let at_root = snap.spans.get(&["task"]).map_or(0, |t| {
            subs += t.children.get("sub").map_or(0, |s| s.calls);
            t.calls
        });
        tasks += at_root;
        assert_eq!(tasks, 64, "every parallel task recorded exactly once");
        assert_eq!(subs, 64, "every sub nested under its own task");
        assert!(at_root > 0, "no task ran on a helper thread");
        assert_eq!(snap.spans.get(&["driver"]).unwrap().calls, 1);
    }
}
