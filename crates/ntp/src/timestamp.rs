//! NTP timestamp formats.
//!
//! NTP carries time as unsigned fixed-point values relative to the NTP epoch
//! (1 January 1900): the 64-bit *timestamp* format (32.32) used for the four
//! exchange timestamps, and the 32-bit *short* format (16.16) used for root
//! delay/dispersion. The paper's algorithms work in seconds; the conversions
//! here are careful to preserve sub-microsecond precision (the fraction LSB
//! of the 64-bit format is ~233 picoseconds).
//!
//! # One exact, era-wrapping conversion
//!
//! [`NtpTimestamp::from_unix_seconds`] (and [`NtpTimestamp::from_ntp_seconds`],
//! the same conversion with a zero epoch offset) is the tree's one
//! `f64` → 32.32 conversion. It takes the `f64` apart into its integer
//! mantissa and binary exponent and shifts the mantissa into 2⁻³² s units,
//! so the result is the input's exact value plus the epoch offset, rounded
//! once to the nearest unit (ties toward the later time). No intermediate
//! `f64` sum quantises it: near 2036 a seconds-since-1900 `f64` has a
//! 2⁻²¹ s ≈ 477 ns ulp, which is what the conversion used to round through.
//!
//! The result is taken mod 2⁶⁴, that is mod one NTP era of 2³² s (RFC 5905
//! §6): 2036-02-07T06:28:16Z is era 1's second 0, not a timestamp frozen
//! at `u32::MAX`. Which era a stamp belongs to is the reader's to decide
//! (the usual half-era rule, as in [`NtpTimestamp::diff_seconds`]). NaN,
//! ±∞ and instants before 1900 give [`NtpTimestamp::ZERO`], NTP's
//! "unknown".
//!
//! # No libm
//!
//! The serving plane converts once per batch and must not call into a
//! software libm (on baseline x86-64 `f64::floor` / `round` are calls):
//! the mantissa shift needs only integer operations, and
//! [`NtpShort::from_seconds`] rounds with an integer cast — for
//! `0 ≤ x < 2⁶³`, `x as i64` truncates, which *is* `floor`, and
//! `x − (x as i64) as f64` is the exact fractional part. The served bytes
//! are therefore a function of this source, not of the host's libm
//! (`tests/libm_inventory.rs` keeps it so).

/// Seconds between the NTP epoch (1900-01-01) and the Unix epoch (1970-01-01).
pub const NTP_UNIX_OFFSET: f64 = 2_208_988_800.0;

/// [`NTP_UNIX_OFFSET`] in whole seconds.
const UNIX_EPOCH_NTP_SECONDS: u64 = 2_208_988_800;

/// `x.round()` for `0 ≤ x < 2⁶³`, as an integer (see the module docs).
#[inline]
fn round_nonneg(x: f64) -> i64 {
    let i = x as i64;
    i + i64::from(x - i as f64 >= 0.5)
}

/// `s + epoch` seconds as 32.32 fixed point mod 2⁶⁴, rounded once to the
/// nearest 2⁻³² s (ties up); 0 for NaN, ±∞ and `s + epoch < 0`.
#[inline]
fn ntp_bits(s: f64, epoch: u64) -> u64 {
    // Exact: `epoch` is an integer below 2⁵³, and the comparison rounds
    // nothing.
    if !(s.is_finite() && s >= -(epoch as f64)) {
        return 0;
    }
    let bits = s.to_bits();
    let negative = bits >> 63 == 1;
    let biased = ((bits >> 52) & 0x7FF) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // |s| = mantissa · 2^exp, and in 2⁻³² s units mantissa · 2^(exp + 32).
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074) // subnormal
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let shift = exp + 32;
    let units = if shift >= 64 {
        0 // a multiple of 2⁶⁴ units
    } else if shift >= 0 {
        mantissa << shift // keeps the low 64 bits: mod 2⁶⁴
    } else {
        // Round to nearest, ties up: ⌊m/2ᵏ + ½⌋ for s ≥ 0 and, as the
        // magnitude of a negative s, ⌈m/2ᵏ − ½⌉. mantissa < 2⁵³, so any
        // k > 54 rounds to 0 and capping k at 62 changes nothing.
        let k = (-shift).min(62) as u32;
        let half = (1u64 << (k - 1)) - u64::from(negative);
        (mantissa + half) >> k
    };
    let units = if negative {
        units.wrapping_neg()
    } else {
        units
    };
    units.wrapping_add(epoch << 32)
}

/// 64-bit NTP timestamp: 32-bit seconds since the NTP epoch, 32-bit fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NtpTimestamp {
    /// Whole seconds since the start of the timestamp's era (era 0 began
    /// 1900-01-01 00:00:00, era 1 begins 2036-02-07 06:28:16).
    pub seconds: u32,
    /// Binary fraction of a second (units of 2⁻³² s).
    pub fraction: u32,
}

impl NtpTimestamp {
    /// The all-zero timestamp, which NTP interprets as "unknown/invalid".
    pub const ZERO: Self = Self {
        seconds: 0,
        fraction: 0,
    };

    /// Builds from seconds since the *NTP* epoch: the exact value rounded
    /// to the nearest 2⁻³² s, wrapped into its era (see the module docs).
    /// NaN, ±∞ and negative inputs give [`NtpTimestamp::ZERO`].
    #[inline]
    pub fn from_ntp_seconds(s: f64) -> Self {
        Self::from_bits(ntp_bits(s, 0))
    }

    /// Builds from seconds since the *Unix* epoch: `s + 2 208 988 800`
    /// taken exactly, rounded once to the nearest 2⁻³² s and wrapped into
    /// its era. NaN, ±∞ and instants before 1900 give
    /// [`NtpTimestamp::ZERO`].
    #[inline]
    pub fn from_unix_seconds(s: f64) -> Self {
        Self::from_bits(ntp_bits(s, UNIX_EPOCH_NTP_SECONDS))
    }

    /// Seconds since the NTP epoch as `f64`, read as an era-0 stamp
    /// (resolution ≈ 2⁻³² s carried approximately; `f64` has 52 fraction
    /// bits so values up to 2³² s keep ~2⁻²⁰ s = µs-level exactness and
    /// the conversion roundtrips to <1 ns).
    pub fn to_ntp_seconds(self) -> f64 {
        self.seconds as f64 + self.fraction as f64 / 4_294_967_296.0
    }

    /// Seconds since the Unix epoch as `f64`.
    pub fn to_unix_seconds(self) -> f64 {
        self.to_ntp_seconds() - NTP_UNIX_OFFSET
    }

    /// `true` for the NTP "unknown" sentinel.
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Raw 64-bit big-endian wire representation.
    #[inline]
    pub fn to_bits(self) -> u64 {
        ((self.seconds as u64) << 32) | self.fraction as u64
    }

    /// Parses the raw 64-bit representation.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        Self {
            seconds: (bits >> 32) as u32,
            fraction: bits as u32,
        }
    }

    /// Signed difference `self − other` in seconds, assuming the two
    /// timestamps are within half an era of each other (the standard NTP
    /// wraparound rule).
    pub fn diff_seconds(self, other: Self) -> f64 {
        let d = self.to_bits().wrapping_sub(other.to_bits()) as i64;
        d as f64 / 4_294_967_296.0
    }
}

/// 32-bit NTP short format (16.16 fixed point), used for root delay and
/// root dispersion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NtpShort(pub u32);

impl NtpShort {
    /// Converts from seconds (clamped to the representable range).
    #[inline]
    pub fn from_seconds(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Self(0);
        }
        Self(round_nonneg(s.min(65_535.999) * 65_536.0) as u32)
    }

    /// Value in seconds.
    pub fn to_seconds(self) -> f64 {
        self.0 as f64 / 65_536.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_roundtrip() {
        assert!(NtpTimestamp::ZERO.is_zero());
        assert_eq!(NtpTimestamp::from_ntp_seconds(0.0), NtpTimestamp::ZERO);
        assert_eq!(NtpTimestamp::from_ntp_seconds(-5.0), NtpTimestamp::ZERO);
        assert_eq!(NtpTimestamp::from_ntp_seconds(f64::NAN), NtpTimestamp::ZERO);
    }

    #[test]
    fn seconds_roundtrip_sub_nanosecond() {
        for s in [1.0, 123_456.789_012_345, 3_000_000_000.5, 2e9 + 1e-7] {
            let ts = NtpTimestamp::from_ntp_seconds(s);
            let back = ts.to_ntp_seconds();
            assert!(
                (back - s).abs() < 2e-9,
                "roundtrip error for {s}: {}",
                back - s
            );
        }
    }

    #[test]
    fn unix_offset_applied() {
        let ts = NtpTimestamp::from_unix_seconds(0.0);
        assert_eq!(ts.seconds, 2_208_988_800);
        assert!((ts.to_unix_seconds() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_carry_on_rounding() {
        // a value whose fraction rounds up to 1.0 must carry into seconds
        let s = 100.0 + (4_294_967_295.9 / 4_294_967_296.0);
        let ts = NtpTimestamp::from_ntp_seconds(s);
        assert_eq!(ts.seconds, 101);
        assert_eq!(ts.fraction, 0);
    }

    #[test]
    fn bits_roundtrip() {
        let ts = NtpTimestamp {
            seconds: 0xDEAD_BEEF,
            fraction: 0x0123_4567,
        };
        assert_eq!(NtpTimestamp::from_bits(ts.to_bits()), ts);
        assert_eq!(ts.to_bits(), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn diff_seconds_basic_and_wrap() {
        let a = NtpTimestamp::from_ntp_seconds(1000.25);
        let b = NtpTimestamp::from_ntp_seconds(1000.0);
        assert!((a.diff_seconds(b) - 0.25).abs() < 1e-9);
        assert!((b.diff_seconds(a) + 0.25).abs() < 1e-9);
        // wraparound: a just after era rollover, b just before
        let b = NtpTimestamp {
            seconds: u32::MAX,
            fraction: 0,
        };
        let a = NtpTimestamp {
            seconds: 1,
            fraction: 0,
        };
        assert!((a.diff_seconds(b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn short_format_roundtrip() {
        for s in [0.0, 0.001, 1.5, 1000.125] {
            let v = NtpShort::from_seconds(s);
            assert!((v.to_seconds() - s).abs() < 1.0 / 65_536.0);
        }
        assert_eq!(NtpShort::from_seconds(-1.0).0, 0);
        // non-finite values degrade to the zero sentinel
        assert_eq!(NtpShort::from_seconds(f64::INFINITY).0, 0);
        // large finite values clamp to the top of the 16.16 range
        assert_eq!(NtpShort::from_seconds(1e9).0, (65_535.999f64 * 65_536.0).round() as u32);
    }

    /// The exact conversion written with libm `trunc` / `floor` and `i128`
    /// seconds, for `|s| < 2⁹⁰`: `s = trunc(s) + g` splits exactly
    /// (`|g| < 1` keeps `s`'s low bits), `g·2³²` is exact, and
    /// `⌊x⌋ + (x − ⌊x⌋ ≥ ½)` rounds it once, ties up.
    fn reference_bits(s: f64, epoch: i128) -> u64 {
        if !s.is_finite() {
            return 0;
        }
        let whole = s.trunc();
        let x = (s - whole) * 4_294_967_296.0;
        let units = x.floor() as i128 + i128::from(x - x.floor() >= 0.5);
        let total = (((whole as i128) + epoch) << 32) + units;
        if total < 0 {
            return 0;
        }
        total.rem_euclid(1 << 64) as u64
    }

    fn reference_short_from_seconds(s: f64) -> NtpShort {
        if !s.is_finite() || s <= 0.0 {
            return NtpShort(0);
        }
        NtpShort((s.min(65_535.999) * 65_536.0).round() as u32)
    }

    /// The neighbours of `x` one ulp either side, and `x`.
    fn with_neighbours(x: f64) -> [f64; 3] {
        [
            f64::from_bits(x.to_bits() - 1),
            x,
            f64::from_bits(x.to_bits() + 1),
        ]
    }

    #[test]
    fn integer_rounding_equals_the_libm_formulation() {
        let two32 = 4_294_967_296.0;
        let unix = NTP_UNIX_OFFSET;
        let mut inputs = vec![
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -5e-324,
            1e-310,
            two32,
            1e25, // ≈ 2⁸³: the mantissa shifts past bit 64
            -unix,
        ];
        for k in [
            0.0,
            1.0,
            2.0,
            1_000.0,
            65_535.0,
            2_208_988_800.0,
            two32 - 1.0,
            two32,
            3.0 * two32 + 17.0,
        ] {
            for k in [k, -k, k - unix] {
                // Rounding ties, in seconds and in units of either fixed point.
                inputs.extend(with_neighbours(k + 0.5));
                inputs.extend(with_neighbours((k + 0.5) / two32));
                inputs.extend(with_neighbours((k + 0.5) / 65_536.0));
                // Ties one 2⁻³² s unit past the integer, and fractions that
                // round up into a carry.
                inputs.extend(with_neighbours(k + 0.5 / two32));
                inputs.extend(with_neighbours(k + 1.0 - 0.5 / two32));
            }
        }
        inputs.extend(with_neighbours(65_535.999));
        inputs.extend(with_neighbours(-unix + 0.5 / two32));
        // ≥ 10⁵ LCG-drawn values over [0, 2³⁴) (two eras past era 0's end),
        // the same draws over the 70 years before the Unix epoch, and
        // scaled into the short format's range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..120_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            inputs.extend([u * 4.0 * two32, -u * unix, u * 70_000.0]);
        }
        for s in inputs {
            assert_eq!(
                NtpTimestamp::from_ntp_seconds(s).to_bits(),
                reference_bits(s, 0),
                "from_ntp_seconds({s:e})"
            );
            assert_eq!(
                NtpTimestamp::from_unix_seconds(s).to_bits(),
                reference_bits(s, 2_208_988_800),
                "from_unix_seconds({s:e})"
            );
            assert_eq!(
                NtpShort::from_seconds(s),
                reference_short_from_seconds(s),
                "NtpShort::from_seconds({s:e})"
            );
        }
    }

    #[test]
    fn ordering_matches_time() {
        let a = NtpTimestamp::from_ntp_seconds(10.0);
        let b = NtpTimestamp::from_ntp_seconds(10.5);
        assert!(a < b);
    }

    /// Era 0 → 1 (2036-02-07T06:28:16Z, Unix 2 085 978 496) wraps instead
    /// of freezing at `u32::MAX`; what is not a time gives `ZERO`.
    #[test]
    fn era_rollover_wraps_and_non_times_are_zero() {
        let era1 = 2_085_978_496.0; // 2³² − 2 208 988 800
        let half = 1 << 31;
        for (unix, (seconds, fraction)) in [
            (era1 - 1.0, (u32::MAX, 0)),
            (era1 - 0.5, (u32::MAX, half)),
            (era1 + 0.25, (0, 1 << 30)),
            (era1 + 1.5, (1, half)),
            (era1 + 4_294_967_296.0 + 7.0, (7, 0)), // era 2
            (-2_208_988_799.75, (0, 1 << 30)),      // 1900, era 0
            (1.7e9, (3_908_988_800, 0)),
        ] {
            assert_eq!(
                NtpTimestamp::from_unix_seconds(unix),
                NtpTimestamp { seconds, fraction },
                "from_unix_seconds({unix})"
            );
            let ntp = unix + NTP_UNIX_OFFSET; // exact for these inputs
            assert_eq!(
                NtpTimestamp::from_ntp_seconds(ntp),
                NtpTimestamp { seconds, fraction },
                "from_ntp_seconds({ntp})"
            );
        }
        for unix in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2_208_988_800.5, // before 1900
            -1e300,
        ] {
            assert_eq!(NtpTimestamp::from_unix_seconds(unix), NtpTimestamp::ZERO);
        }
    }
}
