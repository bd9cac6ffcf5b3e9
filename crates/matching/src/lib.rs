//! # cualign-matching
//!
//! Half-approximate maximum weighted matching on the bipartite alignment
//! graph `L` — the rounding step of the cuAlign framework (§4.3).
//!
//! The workhorse is the **locally dominant** algorithm of Preis, in the
//! pointer-based formulation Khan et al. parallelized: an edge that is at
//! least as heavy as every other edge incident on its two endpoints is
//! locally dominant and can be committed immediately; committing it may
//! expose new locally dominant edges, which a worklist propagates. The
//! result is ½-approximate in theory and near-optimal in practice.
//!
//! * [`suitor::suitor_matching`] — the production matcher: one-sided
//!   Suitor (Gale–Shapley deferred acceptance, A side proposing), which
//!   computes the same matching with one scan of a contiguous row per
//!   proposal,
//! * [`locally_dominant::locally_dominant_serial`] — sequential reference,
//!   the pinned oracle (also exported as [`locally_dominant_reference`]),
//! * [`parallel::locally_dominant_parallel`] — the two-queue (`Q_C`/`Q_N`)
//!   parallel version of §4.3, built on the `cualign_rt::par` executor;
//!   the GPU model charges its rounds,
//! * [`greedy::greedy_matching`] — globally-sorted greedy (also ½-approx),
//!   a simpler baseline,
//! * [`hungarian::hungarian_matching`] — exact `O(n³)` oracle used by tests
//!   to certify approximation ratios.
//!
//! All matchers share one **edge preference order** (weight descending,
//! edge id ascending as tie-break) and only consider strictly positive
//! weights. The preference order is total, which makes the locally
//! dominant matching *unique* — the serial and parallel algorithms are
//! bit-for-bit interchangeable, a property the test suite pins down.
//!
//! Telemetry, in the caller's current registry: `matching.runs` counts
//! calls of the Suitor and parallel matchers, `matching.proposals` the
//! Suitor proposals (the production rounding work), and
//! `matching.rounds` / `matching.recomputations` the parallel matcher's
//! queue rounds and candidate recomputations — the quantities the GPU
//! model charges per launch, which read 0 on the default BP and
//! multilevel paths.
//!
//! **Place in the pipeline** (paper Fig. 2): the rounding half of stage
//! 4 — each BP iteration's messages are rounded to a matching here, and
//! the best one wins. The multilevel wrapper adds a second call site:
//! its per-level *repair pass* re-runs [`suitor_matching`] on the
//! residual band (edges of still-unmatched vertices) to complete BP's
//! rounding.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod hungarian;
pub mod locally_dominant;
pub mod matching;
pub mod parallel;
pub mod suitor;

pub use greedy::greedy_matching;
pub use hungarian::hungarian_matching;
pub use locally_dominant::locally_dominant_serial;
pub use locally_dominant::locally_dominant_serial as locally_dominant_reference;
pub use matching::Matching;
pub use parallel::locally_dominant_parallel;
pub use suitor::suitor_matching;

use cualign_graph::{BipartiteGraph, EdgeId};

/// `true` iff edge `e1` is preferred over `e2` for matching: heavier wins,
/// ties break toward the smaller edge id. Strictly total for distinct ids.
#[inline]
pub fn prefer(l: &BipartiteGraph, e1: EdgeId, e2: EdgeId) -> bool {
    let w1 = l.weights()[e1 as usize];
    let w2 = l.weights()[e2 as usize];
    w1 > w2 || (w1 == w2 && e1 < e2)
}
