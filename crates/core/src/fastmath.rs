//! The exponential for the per-packet hot path.
//!
//! The §5.3 offset weights are the only transcendental on the per-packet
//! path, and the factored-weight estimator (see `offset`) needs just
//! **one** per packet — `exp(−(κ − A)/λc)` for the packet being absorbed
//! into the rolling window sums — plus a handful more on the rare
//! rebuilds. The anchor sits inside the window, so arguments straddle
//! zero and the function must cover the *signed* range. The §6.1 gap
//! blend, `tscclock::reference`, the quorum's trust score and netsim's
//! congestion flip call the same function, so no digest depends on the
//! host's libm `exp`.
//!
//! [`exp_clamped`] is Tang's table-driven construction (P. T. P. Tang,
//! "Table-driven implementation of the exponential function in IEEE
//! floating-point arithmetic", ACM TOMS 15(2), 1989) with 64 table
//! entries. Write `x = (64k + j)·ln2/64 + r`:
//! 1. `n = 64k + j = round(x·64/ln2)` with the magic-number trick (no
//!    `round()` libcall); `n` also comes out of the sum's mantissa bits;
//! 2. Cody–Waite reduction `r = (x − n·L₁) − n·L₂`, where `L₁ + L₂` is
//!    `ln2/64` and `n·L₁` is exact, so `|r| ≤ ln2/128`;
//! 3. `2^(j/64)` from `TABLE`;
//! 4. `q ≈ eʳ − 1` by a degree-5 polynomial, evaluated Estrin-style;
//! 5. `eˣ = 2ᵏ·(T[j] + T[j]·q)`, with `2ᵏ` built from the exponent bits.
//!
//! **Latency.** The reduced range is 64× narrower than a plain `ln2/2`
//! reduction, so degree 5 truncates at 4.4e-18 where degree 11 on
//! `ln2/2` truncates at 6e-15, and the Estrin shape evaluates the pairs
//! `C₂ + C₃r` and `C₄ + C₅r` beside `r²`: `q` is six dependent operations
//! from `r`, where a degree-11 Horner chain is ten dependent
//! multiply-adds (twenty operations without FMA, which baseline x86-64
//! lacks). The table load runs beside the polynomial.
//!
//! **Accuracy.** At most 1.02 ulp from the exact `eˣ` over `|x| ≤ 700`
//! (measured against mpmath at 200 bits over 2²⁰ golden-ratio arguments
//! and 2¹² table edges `m·ln2/128`). The error budget is ≤ 1.04 ulp: the
//! table entry's rounding (≤ 0.5 ulp), the final addition's (≤ 0.5 ulp),
//! and ≤ 0.03 ulp from the polynomial and the reduction. Against the
//! host's libm the tests require ≤ 2 ulp (`ulps`), sampled in tier-1 and
//! at 10⁸ arguments in the ignored dense sweep. Every result is normal
//! (`e⁻⁷⁰⁰ ≈ 9.9e-305`), so the `2ᵏ` scale is exact. Arguments are
//! clamped to `[−700, 700]`: the low clamp returns `e⁻⁷⁰⁰`, an absolute
//! error below 1e-304 that is invisible next to any other weight in a sum
//! (the window's best packet always carries weight 1); the high clamp is
//! never reached in correct use — the offset estimator re-anchors (full
//! rebuild) long before a weight could overflow.
//!
//! **Provenance.** The constants are literals, generated once with
//! mpmath at 200-bit precision and rounded to nearest:
//! `TABLE[j] = float(mpmath.power(2, mpmath.mpf(j)/64))` for `j` in
//! `0..64`, and `C2`…`C5` are `mpmath.chebyfit` of
//! `(expm1(r) − r)/r²` on `|r| ≤ ln2/128` at degree 3 (absolute error of
//! `q` below 4.4e-18, eight times under the Taylor coefficients'). The
//! `table_*` tests pin every entry within 1 ulp of libm `exp2(j/64)`,
//! entry 32 equal to `SQRT_2`, and an FNV-1a digest of the bits.

// Constants are transcribed at full printed precision; the extra digits
// are deliberate documentation of the exact intended values.
#![allow(clippy::excessive_precision)]

/// `64/ln 2`.
const INV_L: f64 = 92.332_482_616_893_66;
// Cody–Waite split of ln 2 (fdlibm's; the high part has 32 significant
// bits, so `n·L1` is exact for |n| < 2²¹), divided by 64 exactly.
const L1: f64 = 6.931_471_803_691_238_16e-1 / 64.0;
const L2: f64 = 1.908_214_929_270_587_70e-10 / 64.0;
/// 1.5 × 2⁵², the round-to-nearest magic constant: for |y| < 2⁵¹,
/// `(y + MAGIC) − MAGIC` rounds y to the nearest integer, and the low 52
/// mantissa bits of `y + MAGIC` hold `2⁵¹ + round(y)`.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// `q(r) = r + r²·(C2 + C3·r + C4·r² + C5·r³) ≈ eʳ − 1` on `|r| ≤ ln2/128`.
const C2: f64 = 0.499_999_999_999_850_73;
const C3: f64 = 0.166_666_666_666_645_34;
const C4: f64 = 0.041_666_707_395_191_96;
const C5: f64 = 0.008_333_339_151_693_497;

/// `2^(j/64)` rounded to nearest, `j = 0..64` (see the module doc).
/// Entry 32 is `SQRT_2`'s bits, written as generated.
#[rustfmt::skip]
#[allow(clippy::approx_constant)]
const TABLE: [f64; 64] = [
    1.0, 1.0108892860517005, 1.0218971486541166, 1.0330248790212284,
    1.0442737824274138, 1.0556451783605572, 1.0671404006768237, 1.0787607977571199,
    1.0905077326652577, 1.102382583307841, 1.1143867425958924, 1.1265216186082418,
    1.1387886347566916, 1.1511892299529827, 1.1637248587775775, 1.1763969916502812,
    1.189207115002721, 1.202156731452703, 1.215247359980469, 1.22848053610687,
    1.241857812073484, 1.255380757024691, 1.2690509571917332, 1.2828700160787783,
    1.2968395546510096, 1.3109612115247644, 1.3252366431597413, 1.339667524053303,
    1.3542555469368927, 1.3690024229745905, 1.383909881963832, 1.3989796725383112,
    1.4142135623730951, 1.42961333839197, 1.4451808069770467, 1.460917794180647,
    1.4768261459394993, 1.4929077282912648, 1.5091644275934228, 1.5255981507445384,
    1.5422108254079407, 1.559004400237837, 1.5759808451078865, 1.593142151342267,
    1.6104903319492543, 1.6280274218573478, 1.645755478153965, 1.6636765803267364,
    1.681792830507429, 1.7001063537185235, 1.718619298122478, 1.7373338352737062,
    1.7562521603732995, 1.7753764925265212, 1.7947090750031072, 1.8142521755003989,
    1.8340080864093424, 1.8539791250833855, 1.8741676341103, 1.8945759815869656,
    1.9152065613971474, 1.9360617934922943, 1.9571441241754002, 1.978456026387951,
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
    let t = x * INV_L + MAGIC;
    let nf = t - MAGIC;
    let r = (x - nf * L1) - nf * L2; // |r| ≤ ln2/128

    // Estrin: the two pairs and r² are independent.
    let r2 = r * r;
    let q = r + r2 * ((C2 + C3 * r) + r2 * (C4 + C5 * r));
    // low 52 bits of t's mantissa = 2⁵¹ + n with n = 64k + j; 2⁵¹ is a
    // multiple of 64, so the low six bits are j and the rest is 2⁴⁵ + k.
    let n_biased = t.to_bits() & ((1u64 << 52) - 1);
    let tj = TABLE[(n_biased & 63) as usize];
    let k_biased = (n_biased >> 6) as i64 + (1023 - (1i64 << 45));
    let scale = f64::from_bits((k_biased as u64) << 52);
    (tj + tj * q) * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two positive finite
    /// doubles (adjacent doubles are 1 apart, across binades too).
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn within_2_ulp_of_libm_over_signed_domain() {
        let mut worst = 0;
        let mut i = 0u64;
        let mut x = -699.9f64;
        while x <= 699.9 {
            worst = worst.max(ulps(exp_clamped(x), x.exp()));
            i += 1;
            x += 0.002 + (i % 7) as f64 * 1e-5; // irregular steps
        }
        assert!(worst <= 2, "worst distance from libm {worst} ulp");
    }

    /// Known answers, as bits. Each is the correctly rounded `eˣ`
    /// (mpmath at 200 bits) except the two marked, which are 1 ulp from
    /// it (0.51 and 0.70 ulp from the exact value).
    #[test]
    fn known_answers() {
        let ln2_64 = std::f64::consts::LN_2 / 64.0;
        let cases: [(f64, u64); 12] = [
            (1.0, 0x4005_bf0a_8b14_5769),  // e
            (-1.0, 0x3fd7_8b56_362c_ef38), // 1/e
            (700.0, 0x7f0d_945d_f4f8_ec8e),
            (-700.0, 0x00d1_4f2b_0fb9_307f),
            (0.5, 0x3ffa_6129_8e1e_069c),
            (-30.0, 0x3d3a_56e0_c2ac_7f75),
            // Table edges: x = m·ln2/64 lands on entry j = m mod 64 with
            // r ≈ 0, and (m + ½)·ln2/64 is where rounding moves j.
            (32.0 * ln2_64, 0x3ff6_a09e_667f_3bcd), // √2; exact is …bcc + 0.49
            (-33.0 * ln2_64, 0x3fe6_6238_8255_2225),
            (6_463.0 * ln2_64, 0x463f_a7c1_819e_90e0),
            (0.5 * ln2_64, 0x3ff0_163d_a9fb_3335),
            (63.5 * ln2_64, 0x3fff_d3c2_2b8f_71f0), // exact is …71f1 − 0.30
            (-64.5 * ln2_64, 0x3fdf_d3c2_2b8f_71f1),
        ];
        for (x, bits) in cases {
            assert_eq!(exp_clamped(x).to_bits(), bits, "exp({x:e})");
        }
    }

    #[test]
    fn table_entries_are_2_to_the_j_over_64() {
        for (j, &t) in TABLE.iter().enumerate() {
            let libm = (j as f64 / 64.0).exp2();
            assert!(ulps(t, libm) <= 1, "entry {j}: {t:e} vs libm {libm:e}");
        }
        assert_eq!(TABLE[0], 1.0);
        assert_eq!(TABLE[32], std::f64::consts::SQRT_2);
    }

    /// FNV-1a over the entries' little-endian bits: a changed literal is
    /// a changed `exp_clamped`, and every digest downstream moves with it.
    #[test]
    fn table_digest() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in TABLE {
            for b in t.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x5397_1ce3_829c_215d);
    }

    /// The accuracy claim at depth: ≥ 10⁸ arguments spread over
    /// `[−700, 700]` by a golden-ratio sequence (every fractional
    /// position of the table reduction is visited), each within 2 ulp of
    /// libm. ~3 s in release:
    /// `cargo test --release -p tscclock --lib dense_exp_sweep -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn dense_exp_sweep_within_2_ulp_of_libm() {
        const N: u64 = 100_000_000;
        const PHI: f64 = 0.618_033_988_749_894_8;
        let (mut worst, mut at, mut frac) = (0, 0.0, 0.0f64);
        for _ in 0..N {
            frac += PHI;
            frac -= frac.floor();
            let x = -700.0 + 1400.0 * frac;
            let d = ulps(exp_clamped(x), x.exp());
            if d > worst {
                (worst, at) = (d, x);
            }
        }
        println!("dense exp sweep: {N} arguments, worst {worst} ulp from libm at x = {at:e}");
        assert!(
            worst <= 2,
            "worst distance from libm {worst} ulp at x = {at:e}"
        );
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
