//! The exponential for the per-packet hot path.
//!
//! The §5.3 offset weights are the only transcendental on the per-packet
//! path, and the factored-weight estimator (see `offset`) needs just
//! **one** per packet — `exp(−(κ − A)/λc)` for the packet being absorbed
//! into the rolling window sums — plus a handful more on the rare
//! rebuilds. The anchor sits inside the window, so arguments straddle
//! zero and the function must cover the *signed* range.
//!
//! [`exp_clamped`] uses the classic pipeline-friendly construction: clamp,
//! Cody–Waite range reduction with magic-number rounding (no `round()`
//! libcall), a degree-11 Taylor polynomial for `exp(r)`, and direct
//! exponent construction for `2^k`.
//!
//! Accuracy: relative error < 2e-14 over `|x| ≤ 700` (verified against
//! libm in the tests below), far inside the 1e-12 estimate-parity budget
//! the differential property tests enforce. Arguments are clamped to
//! `[−700, 700]`: the low clamp returns `e⁻⁷⁰⁰ ≈ 1e-304`, an absolute
//! error ≤ 1e-304 that is invisible next to any other weight in a sum
//! (the window's best packet always carries weight 1); the high clamp is
//! never reached in correct use — the offset estimator re-anchors (full
//! rebuild) long before a weight could overflow.

// Constants are transcribed at full printed precision; the extra digits
// are deliberate documentation of the exact intended values.
#![allow(clippy::excessive_precision)]

const LOG2_E: f64 = std::f64::consts::LOG2_E;
// Cody–Waite split of ln 2 (high part exact in 32 bits).
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
/// 1.5 × 2⁵², the round-to-nearest magic constant: for |y| < 2⁵¹,
/// `(y + MAGIC) − MAGIC` rounds y to the nearest integer, and the low 52
/// mantissa bits of `y + MAGIC` hold `2⁵¹ + round(y)`.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// Taylor coefficients 1/n!, n = 11 down to 2 (with 1/1! and 1/0! merged
/// into the final two steps of the Horner chain). Degree 11 leaves a
/// truncation error below 7e-15 of the result at |r| ≤ ln2/2 — two orders
/// under the 1e-12 parity budget.
const POLY: [f64; 10] = [
    2.505_210_838_544_171_9e-8,  // 1/11!
    2.755_731_922_398_589_1e-7,  // 1/10!
    2.755_731_922_398_589_1e-6,  // 1/9!
    2.480_158_730_158_730_2e-5,  // 1/8!
    1.984_126_984_126_984_1e-4,  // 1/7!
    1.388_888_888_888_888_9e-3,  // 1/6!
    8.333_333_333_333_333_3e-3,  // 1/5!
    4.166_666_666_666_666_4e-2,  // 1/4!
    1.666_666_666_666_666_6e-1,  // 1/3!
    5e-1,                        // 1/2!
];

/// `exp(x)` clamped to `x ∈ [−700, 700]`, scalar, branch-free but for
/// the zero case.
///
/// Every weight computation in the offset estimator — incremental absorb,
/// full-pass reference, and the rebuild refill — goes through this one
/// function, so the fast and reference pipelines share the exact same
/// exponential (their remaining divergence is argument arithmetic and
/// summation order, covered by the 1e-12 parity budget).
///
/// `exp(±0)` is 1 without the polynomial (the same bits it would give,
/// pinned by `exact_at_zero`): the window's best packet has argument
/// exactly 0 in every full pass, and at coarse polling it is often the
/// only packet in the window.
#[inline]
pub fn exp_clamped(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    let x = x.clamp(-700.0, 700.0);
    // Round x·log2(e) to the nearest integer without a libcall; the biased
    // integer also comes straight out of the magic sum's mantissa bits.
    let t = x * LOG2_E + MAGIC;
    let kf = t - MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO; // |r| ≤ ln2/2
    let mut p = POLY[0];
    for &c in &POLY[1..] {
        p = p * r + c;
    }
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    // low 52 bits of t's mantissa = 2⁵¹ + k; rebias to the IEEE exponent.
    let k_biased = (t.to_bits() & ((1u64 << 52) - 1)) as i64 + (1023 - (1i64 << 51));
    let scale = f64::from_bits((k_biased as u64) << 52);
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_to_2e14_relative_over_signed_domain() {
        let mut worst = 0.0f64;
        let mut i = 0u64;
        let mut x = -699.9f64;
        while x <= 699.9 {
            let a = exp_clamped(x);
            let b = x.exp();
            let rel = ((a - b) / b).abs();
            if rel > worst {
                worst = rel;
            }
            i += 1;
            x += 0.002 + (i % 7) as f64 * 1e-5; // irregular steps
        }
        assert!(worst < 2e-14, "worst relative error {worst:.2e}");
    }

    #[test]
    fn exact_at_zero() {
        assert_eq!(exp_clamped(0.0), 1.0);
        assert_eq!(exp_clamped(-0.0), 1.0);
    }

    #[test]
    fn clamps_beyond_700() {
        let v = exp_clamped(-1e9);
        assert!(v > 0.0 && v < 1e-300, "clamped value {v:e}");
        assert_eq!(exp_clamped(-1e9), exp_clamped(-700.0));
        let v = exp_clamped(1e9);
        assert!(v.is_finite() && v > 1e300, "clamped value {v:e}");
        assert_eq!(exp_clamped(1e9), exp_clamped(700.0));
    }

    #[test]
    fn monotone_on_samples() {
        let mut prev = exp_clamped(-700.0);
        let mut x = -699.0;
        while x <= 700.0 {
            let v = exp_clamped(x);
            assert!(v >= prev, "non-monotone at {x}");
            prev = v;
            x += 0.5;
        }
    }

    #[test]
    fn reciprocal_identity_holds_to_1e13() {
        // exp(x)·exp(−x) ≈ 1: the anchored-weight scheme multiplies
        // exponentials of complementary arguments, so the split error must
        // stay inside the parity budget.
        let mut x = 0.5f64;
        while x <= 600.0 {
            let r = exp_clamped(x) * exp_clamped(-x);
            assert!((r - 1.0).abs() < 1e-13, "split error {} at {x}", r - 1.0);
            x *= 1.7;
        }
    }
}
