//! A parallel executor over `std::thread::scope`.
//!
//! Four index-based primitives cover every parallel loop in the
//! workspace:
//!
//! * [`map`] — `out[i] = f(i)` into a pre-sized output, order kept;
//! * [`for_each`] — `f(i, items[i])` over owned items, typically
//!   disjoint mutable pieces of one buffer (rows, row blocks,
//!   merge-chunk output spans); [`for_each_init`] adds a scratch
//!   built once per piece;
//! * [`map_reduce`] — `f(i, items[i])` folded with `combine` in item
//!   order;
//! * [`flat_map`] — each index of `0..n` pushes any number of outputs,
//!   concatenated in index order (parallel filter and gather).
//!
//! A call cuts its items into contiguous pieces of near-equal length
//! and starts up to `threads() − 1` scoped helpers ([`threads`]). The
//! caller and the helpers then claim pieces in order from a shared counter until none
//! are left, so a helper the scheduler starts late simply finds less to
//! do instead of holding the caller up. Which thread runs a piece never
//! changes a result: `map` and `for_each` write disjoint outputs,
//! `flat_map` concatenates pieces in index order, and `map_reduce`
//! combines pieces in item order, so with an associative `combine`
//! (integer counts, max/count monoids, concatenation) every thread count
//! gives the same bits. The workspace keeps float sums out of `combine`:
//! kernels that sum floats collect per-item values and sum them
//! sequentially.
//!
//! Spawning and joining a helper costs tens of microseconds, about what
//! a sequential pass over 64k `f64`s takes, so each call site passes
//! `min_len`, the fewest items worth a thread of their own: a call
//! spawns helpers only when it holds at least two `min_len` runs of
//! work. Sites whose item cost depends on the shape derive it with
//! [`min_len_for`]. Calls made from inside a parallel run (nested loops)
//! always run inline, so a nest never has more than [`threads`] threads
//! working.
//!
//! A panic in any piece resurfaces on the caller with its original
//! payload once every thread has stopped.

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

thread_local! {
    /// Thread count set by [`with_threads`] on this thread; 0 = none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread is currently executing a parallel run.
    static IN_RUN: Cell<bool> = const { Cell::new(false) };
}

/// Threads a parallel call may use: the innermost [`with_threads`]
/// override on this thread, else the host's available parallelism.
pub fn threads() -> usize {
    match OVERRIDE.with(Cell::get) {
        0 => host_threads(),
        n => n,
    }
}

fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with [`threads`] fixed at `n` (at least 1) on this thread,
/// restoring the previous value afterwards, also on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(n.max(1))));
    f()
}

/// Element operations one run should hold to pay for its spawn: a
/// spawn and join cost about what one pass over 64k `f64`s does, so a
/// run gets eight times that. Also the `min_len` of element-wise loops.
pub const WORK_PER_RUN: usize = 1 << 19;

/// Pieces per thread: finer than one piece per thread, so threads that
/// start late or run slow still share the work evenly.
const PIECES_PER_THREAD: usize = 4;

/// `min_len` for items costing `work_per_item` element operations each:
/// enough items that a run holds [`WORK_PER_RUN`] operations.
pub fn min_len_for(work_per_item: usize) -> usize {
    (WORK_PER_RUN / work_per_item.max(1)).max(1)
}

/// Marks the current thread as inside a parallel run until dropped.
struct InRun(bool);

impl InRun {
    fn enter() -> Self {
        InRun(IN_RUN.with(|r| r.replace(true)))
    }
}

impl Drop for InRun {
    fn drop(&mut self) {
        IN_RUN.with(|r| r.set(self.0));
    }
}

/// How many runs a call over `len` items with `min_len` uses.
fn runs(len: usize, min_len: usize) -> usize {
    if IN_RUN.with(Cell::get) {
        return 1;
    }
    threads().min(len / min_len.max(1)).max(1)
}

/// Runs `work` on every piece across `threads` threads (this one plus
/// scoped helpers), each claiming the next unclaimed piece until none
/// are left, and returns the results in piece order.
#[inline(never)]
fn execute<P: Send, A: Send>(
    pieces: Vec<P>,
    threads: usize,
    work: &(impl Fn(P) -> A + Sync),
) -> Vec<A> {
    let slots: Vec<Mutex<Option<P>>> = pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<A>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let drain = || {
        let _run = InRun::enter();
        loop {
            // Relaxed: the counter only hands out indices; each slot's
            // mutex publishes its piece and its result.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let piece = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(piece) = piece {
                let a = work(piece);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(a);
            }
        }
    };
    thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
        drain();
        for h in helpers {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
    results
        .into_iter()
        .filter_map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// `len` items cut into `pieces` contiguous near-equal ranges.
fn ranges(len: usize, pieces: usize) -> impl DoubleEndedIterator<Item = Range<usize>> {
    (0..pieces).map(move |k| k * len / pieces..(k + 1) * len / pieces)
}

/// How many pieces a call with `runs` threads over `len` items uses.
fn pieces(len: usize, runs: usize) -> usize {
    (runs * PIECES_PER_THREAD).min(len)
}

/// `items` cut into `pieces(len, runs)` owned pieces, each with the
/// index of its first item.
fn split_vec<T>(items: Vec<T>, runs: usize) -> Vec<(usize, Vec<T>)> {
    let len = items.len();
    let mut rest = items;
    let mut split: Vec<(usize, Vec<T>)> = ranges(len, pieces(len, runs))
        .rev()
        .map(|r| (r.start, rest.split_off(r.start)))
        .collect();
    split.reverse();
    split
}

// Each public function runs its sequential case as a plain loop at the
// call site, so the compiler optimizes a small call exactly like the
// loop it replaces; only the parallel case goes through `execute`.

/// Folds `f(i, items[i])` over all items with `combine`, in item
/// order, splitting the items into contiguous pieces across threads.
/// Returns `None` for no items.
///
/// The result equals the sequential left fold whenever `combine` is
/// associative. A panic in `f` resurfaces here with its payload.
#[inline]
pub fn map_reduce<T, A>(
    items: Vec<T>,
    min_len: usize,
    f: impl Fn(usize, T) -> A + Sync,
    combine: impl Fn(A, A) -> A + Sync,
) -> Option<A>
where
    T: Send,
    A: Send,
{
    let fold = |base: usize, run: Vec<T>| {
        let mut acc = None;
        for (k, item) in run.into_iter().enumerate() {
            let part = f(base + k, item);
            acc = Some(match acc {
                Some(a) => combine(a, part),
                None => part,
            });
        }
        acc
    };
    let n = runs(items.len(), min_len);
    if n <= 1 {
        return fold(0, items);
    }
    execute(split_vec(items, n), n, &|(base, run)| fold(base, run))
        .into_iter()
        .flatten()
        .reduce(&combine)
}

/// Runs `f(i, items[i])` for every item, in parallel. The items are
/// typically disjoint mutable pieces of one buffer: rows, row blocks,
/// or the output spans of a merge plan's chunks.
#[inline]
pub fn for_each<T: Send>(items: Vec<T>, min_len: usize, f: impl Fn(usize, T) + Sync) {
    for_each_init(items, min_len, || (), |(), i, item| f(i, item));
}

/// As [`for_each`], with scratch state: `init()` builds one scratch per
/// piece of consecutive items (at most four per thread, one in all when
/// the call runs inline) and `f(&mut scratch, i, items[i])` reuses it
/// across the piece. For dense accumulators sized by a graph, whose
/// allocation would cost more than the item itself; a result must not
/// depend on what earlier items left in the scratch.
#[inline]
pub fn for_each_init<T: Send, S>(
    items: Vec<T>,
    min_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, T) + Sync,
) {
    let run = |base: usize, run: Vec<T>| {
        if run.is_empty() {
            return;
        }
        let mut scratch = init();
        for (k, item) in run.into_iter().enumerate() {
            f(&mut scratch, base + k, item);
        }
    };
    let n = runs(items.len(), min_len);
    if n <= 1 {
        return run(0, items);
    }
    execute(split_vec(items, n), n, &|(base, items)| run(base, items));
}

/// Writes `out[i] = f(i)` for every index of `out`, in parallel.
#[inline]
pub fn map<T: Send>(out: &mut [T], min_len: usize, f: impl Fn(usize) -> T + Sync) {
    let n = runs(out.len(), min_len);
    if n <= 1 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
        return;
    }
    let len = out.len();
    let mut rest = out;
    let mut split = Vec::new();
    for r in ranges(len, pieces(len, n)) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        split.push((r.start, head));
        rest = tail;
    }
    execute(split, n, &|(base, run): (usize, &mut [T])| {
        for (k, o) in run.iter_mut().enumerate() {
            *o = f(base + k);
        }
    });
}

/// Flat map over `0..n`: `f(i, out)` pushes index `i`'s outputs, and
/// the outputs of all indices come back concatenated in index order.
#[inline]
pub fn flat_map<U: Send>(
    n: usize,
    min_len: usize,
    f: impl Fn(usize, &mut Vec<U>) + Sync,
) -> Vec<U> {
    let run = |r: Range<usize>| {
        let mut out = Vec::new();
        for i in r {
            f(i, &mut out);
        }
        out
    };
    let k = runs(n, min_len);
    if k <= 1 {
        return run(0..n);
    }
    let mut parts = execute(ranges(n, pieces(n, k)).collect(), k, &run).into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
}
