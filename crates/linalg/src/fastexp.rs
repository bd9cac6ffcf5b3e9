//! Branchless polynomial `exp` for the Sinkhorn solver's `n·m` exp passes.
//!
//! The Sinkhorn solver evaluates `exp` over the whole cost matrix when it
//! builds its Gibbs kernel, when it materializes the plan, and in the
//! `Σ exp(v − max)` reductions of its log-domain sweeps. `f64::exp` is a
//! libm call: accurate, but opaque to the vectorizer, so every pass runs
//! one scalar call per matrix element. [`exp_fast`] is the classic
//! Cody–Waite range reduction (`exp(x) = 2ᵏ · exp(r)`, `|r| ≤ ln2/2`)
//! with a degree-13 Taylor polynomial — straight-line
//! `mul`/`add`/`round`/bit-cast code with no data-dependent branches,
//! which LLVM auto-vectorizes inside the solver's loops.
//!
//! Accuracy: the polynomial truncation error is `r¹⁴/14! ≤ 4·10⁻¹⁸`
//! relative, so results agree with `f64::exp` to a few ulp (pinned by the
//! unit tests below at `1e-13` relative over the whole reduced range).
//! Inputs at or below [`EXP_UNDERFLOW`] flush to **exactly zero**: `exp`
//! of anything that negative is within one part in 10⁹ of zero on any
//! scale the solver measures, and a hard zero keeps the materialized
//! transport plans free of `1e-308`-magnitude residue — one subnormal-
//! operand multiply costs a ~100-cycle microcode assist on x86, and a
//! plan full of them poisons every downstream GEMM it feeds (measured:
//! 12× on the Procrustes projection). Inputs above `708` saturate at
//! `exp(708)` instead of overflowing.

/// Arguments at or below this flush to exactly `0.0` in [`exp_fast`].
/// `exp(−708) ≈ 3.3·10⁻³⁰⁸` is the edge of the normal `f64` range:
/// anything smaller would drag subnormals into the downstream arithmetic.
pub const EXP_UNDERFLOW: f64 = -708.0;

/// `exp(x)` to within a few ulp, as branch-free straight-line code.
///
/// Differences from `f64::exp`: inputs at or below [`EXP_UNDERFLOW`]
/// return exactly `0.0` (std keeps producing subnormals down to `−745`),
/// inputs above `708` saturate at `exp(708)` instead of overflowing to
/// `∞`, and `NaN` flushes to `0.0` like any non-finite comparison — the
/// Sinkhorn sweeps never produce one.
#[inline(always)]
// Not `clamp()`: it propagates NaN, while max/min substitute the bound —
// which is what routes NaN onto the flush-to-zero path below.
#[allow(clippy::manual_clamp)]
pub fn exp_fast(x: f64) -> f64 {
    // The underflow test compiles to cmp + select: still branchless.
    let ftz = if x > EXP_UNDERFLOW { 1.0 } else { 0.0 };
    // Clamp keeps 2ᵏ a normal number (k ∈ [−1022, 1022]); min/max compile
    // to vminsd/vmaxsd.
    let x = x.max(EXP_UNDERFLOW).min(708.0);
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    // ln 2 split high/low (Cody–Waite) so `x − k·ln2` is exact in the
    // high part and the low part mops up the residual.
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // Round-to-nearest-integer via the 2⁵² trick: adding 1.5·2⁵² forces
    // the FPU to round the sum to integer precision, leaving
    // `round(x·log₂e)` in the low mantissa bits. Unlike `f64::round()`
    // (libm) or an `as i64` cast (no packed f64→i64 before AVX-512),
    // every op here has a plain SSE2 packed form, so the whole function
    // vectorizes inside the sweep loops of the callers.
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2⁵²
    let t = x * LOG2_E + SHIFT;
    let k = t - SHIFT; // = round(x·log₂e), exact (|k| ≤ 1022 ≪ 2⁵¹)
    let r = (x - k * LN2_HI) - k * LN2_LO; // |r| ≤ ln2/2 ≈ 0.3466
                                           // exp(r) by degree-13 Taylor, Horner form. Coefficients are 1/n!.
    let mut p = 1.605_904_383_682_161_3e-10; // 1/13!
    p = p * r + 2.087_675_698_786_81e-9; // 1/12!
    p = p * r + 2.505_210_838_544_172e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589_3e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_4e-6; // 1/9!
    p = p * r + 2.480_158_730_158_73e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_7e-1; // 1/3!
    p = p * r + 0.5; // 1/2!
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2ᵏ assembled in the exponent field, still without an int cast: the
    // low 12 mantissa bits of `t` hold `k` (mod 2¹², two's-complement
    // wrapped); shift them into the exponent field and re-bias with a
    // wrapping +1023·2⁵² — for negative `k` the wrap discards the borrow
    // bit and lands on the correct biased exponent. The clamp bounds `k`,
    // so the result is always a normal number.
    let two_k = f64::from_bits((t.to_bits() << 52).wrapping_add(1023u64 << 52));
    p * two_k * ftz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_std_exp_over_sinkhorn_range() {
        // Dense sweep over the magnitudes the LSE reductions produce.
        let mut worst = 0.0f64;
        let mut x = -80.0;
        while x <= 10.0 {
            let got = exp_fast(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.001_7;
        }
        assert!(worst < 1e-13, "worst relative error {worst:e}");
    }

    #[test]
    fn deep_negative_tail_is_accurate() {
        for &x in &[-100.0, -300.0, -700.0] {
            let rel = ((exp_fast(x) - x.exp()) / x.exp()).abs();
            assert!(rel < 1e-13, "x = {x}: rel {rel:e}");
        }
    }

    #[test]
    fn clamps_instead_of_overflowing() {
        assert_eq!(exp_fast(-1.0e9), 0.0, "deep underflow flushes to zero");
        assert_eq!(exp_fast(EXP_UNDERFLOW), 0.0, "cutoff is inclusive");
        assert!(exp_fast(EXP_UNDERFLOW + 1.0) > 0.0);
        assert!(exp_fast(1.0e9).is_finite());
        // NaN fails the underflow comparison and flushes to zero too.
        assert_eq!(exp_fast(f64::NAN), 0.0);
    }

    #[test]
    fn never_produces_subnormals() {
        let mut x = -720.0;
        while x <= -690.0 {
            let y = exp_fast(x);
            assert!(y == 0.0 || y >= f64::MIN_POSITIVE, "subnormal at x = {x}");
            x += 0.01;
        }
    }

    #[test]
    fn exact_at_zero_and_one() {
        assert_eq!(exp_fast(0.0), 1.0);
        let rel = ((exp_fast(1.0) - std::f64::consts::E) / std::f64::consts::E).abs();
        assert!(rel < 1e-15);
    }
}
