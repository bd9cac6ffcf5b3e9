//! # cualign-bp
//!
//! Belief propagation for the Network Alignment Quadratic Program —
//! Algorithm 2 of the paper, after Bayati et al.'s message-passing
//! relaxation and Khan et al.'s multithreaded formulation.
//!
//! Per iteration `p` (all steps parallel, structure fixed):
//!
//! ```text
//! F    = bound₀,β[ β·S + Sᵖᵀ ]              (clamped overlap messages)
//! dᶜ   = α·w + F·e                           (row sums)
//! yᶜ   = dᶜ − othermaxcol(zᵖ)                (A-side exclusivity message)
//! zᶜ   = dᶜ − othermaxrow(yᵖ)                (B-side exclusivity message)
//! Sᶜ   = diag(yᶜ + zᶜ − dᶜ)·S − F
//! yᵖ   = γᵏ·yᶜ + (1−γᵏ)·yᵖ   (damping; same for zᵖ, Sᵖ)
//! round: matching on yᶜ weights, matching on zᶜ weights, keep the better
//! ```
//!
//! The overlap structure `S` never changes — only values do — which is the
//! property the paper's GPU kernels exploit and which [`BpEngine`] mirrors
//! by storing all message matrices as flat arrays parallel to the CSR of
//! [`cualign_overlap::OverlapMatrix`].
//!
//! The paper's fused Listing 1 computes `F`+`dᶜ` in one pass that
//! gathers `Sᵖ` through the transpose permutation. [`BpEngine`] goes
//! one step further: it carries `Sᵖ` in both orientations, so the whole
//! `S` side of a sweep — `F`, the `Sᶜ` update, both damps and the next
//! sweep's `dᶜ` — is one sequential pass with no gather.
//! The `othermaxcol`/`othermaxrow` steps are grouped exclusion maxima
//! over the B-side and A-side CSRs of `L`; [`BpEngine::iterate`] calls
//! `cualign_linalg::sparse::exclusion_max` and `exclusion_max_apply` on
//! them directly. [`BpEngine::iterate`] has one code path, pinned
//! bitwise to [`BpEngine::iterate_reference`], which keeps Listing 1's
//! gather and runs the serial `exclusion_max_reference` per side. The
//! unfused two-pass variant survives only as a cost in the GPU
//! simulator's §5 ablation.
//!
//! **Place in the pipeline** (paper Fig. 2): the optimization loop —
//! stage 4, alternating with the matching-based rounding of
//! `cualign-matching` until the objective stops improving. The
//! multilevel wrapper reuses the engine at every refinement level with
//! [`BpConfig::warm_start`], seeding the damped messages from the
//! band's projection confidences instead of from zero.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mr;

pub use engine::{BpConfig, BpEngine, BpOutcome, IterationRecord, MatcherKind, SweepStats};
pub use mr::{mr_align, MrConfig, MrOutcome};

use cualign_matching::Matching;
use cualign_overlap::OverlapMatrix;

/// Evaluates the alignment objective of Eq. (1) for a matching:
/// `α · (matched weight under w) + β · (# conserved edges)`.
///
/// Returns `(score, matched_weight, overlaps)`. `weights` must be the
/// *original* similarity weights of `L` (the rounding step overwrites the
/// live graph's weights with messages, so callers keep a pristine copy).
pub fn evaluate_matching(
    weights: &[f64],
    s: &OverlapMatrix,
    m: &Matching,
    alpha: f64,
    beta: f64,
) -> (f64, f64, usize) {
    let weight: f64 = m.edge_ids().iter().map(|&e| weights[e as usize]).sum();
    let overlaps = s.count_matched_overlaps(m.edge_ids());
    (alpha * weight + beta * overlaps as f64, weight, overlaps)
}
