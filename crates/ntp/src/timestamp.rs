//! NTP timestamp formats.
//!
//! NTP carries time as unsigned fixed-point values relative to the NTP epoch
//! (1 January 1900): the 64-bit *timestamp* format (32.32) used for the four
//! exchange timestamps, and the 32-bit *short* format (16.16) used for root
//! delay/dispersion. The paper's algorithms work in seconds; the conversions
//! here are careful to preserve sub-microsecond precision (the fraction LSB
//! of the 64-bit format is ~233 picoseconds).
//!
//! # Rounding without libm
//!
//! The float → fixed-point conversions sit on the serving plane's
//! per-request path, and on baseline x86-64 `f64::floor` / `round` are
//! calls into a software libm. They round with integer casts instead,
//! bit-identically: for `0 ≤ x < 2⁶³`, `x as i64` truncates, which *is*
//! `floor`; `x − (x as i64) as f64` is the fractional part and is exact
//! (both operands share an exponent range in which the difference is
//! representable); and adding one when that part is `≥ 0.5` is round
//! half away from zero — what `f64::round` does for `x ≥ 0`. The served
//! bytes are therefore a function of this source, not of the host's libm
//! (`tests/libm_inventory.rs` keeps it so).

/// Seconds between the NTP epoch (1900-01-01) and the Unix epoch (1970-01-01).
pub const NTP_UNIX_OFFSET: f64 = 2_208_988_800.0;

/// `x.round()` for `0 ≤ x < 2⁶³`, as an integer (see the module docs).
#[inline]
fn round_nonneg(x: f64) -> i64 {
    let i = x as i64;
    i + i64::from(x - i as f64 >= 0.5)
}

/// 64-bit NTP timestamp: 32-bit seconds since the NTP epoch, 32-bit fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NtpTimestamp {
    /// Whole seconds since 1900-01-01 00:00:00 (era 0).
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

    /// Builds from seconds since the *NTP* epoch. Values are clamped to the
    /// representable era-0 range `[0, 2³²)`.
    #[inline]
    pub fn from_ntp_seconds(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Self::ZERO;
        }
        let s = s.min(u32::MAX as f64 + 0.999_999_999);
        let secs = s as i64; // floor: 0 < s ≤ 2³²
        let frac = round_nonneg((s - secs as f64) * 4_294_967_296.0);
        Self {
            // A fraction that rounds up to 2³² carries (and truncates to 0
            // below); the seconds saturate at the end of the era.
            seconds: u32::try_from(secs + (frac >> 32)).unwrap_or(u32::MAX),
            fraction: frac as u32,
        }
    }

    /// Builds from seconds since the *Unix* epoch.
    #[inline]
    pub fn from_unix_seconds(s: f64) -> Self {
        Self::from_ntp_seconds(s + NTP_UNIX_OFFSET)
    }

    /// Seconds since the NTP epoch as `f64` (resolution ≈ 2⁻³² s carried
    /// approximately; `f64` has 52 fraction bits so values up to 2³² s keep
    /// ~2⁻²⁰ s = µs-level exactness and the conversion roundtrips to <1 ns).
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

    /// The `floor` / `round` formulation the integer rounding replaced,
    /// kept as the reference the conversions must equal bit for bit.
    fn reference_from_ntp_seconds(s: f64) -> NtpTimestamp {
        if !s.is_finite() || s <= 0.0 {
            return NtpTimestamp::ZERO;
        }
        let s = s.min(u32::MAX as f64 + 0.999_999_999);
        let secs = s.floor();
        let frac = ((s - secs) * 4_294_967_296.0).round();
        let (secs, frac) = if frac >= 4_294_967_296.0 {
            (secs + 1.0, 0.0)
        } else {
            (secs, frac)
        };
        NtpTimestamp {
            seconds: secs as u32,
            fraction: frac as u32,
        }
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
        let mut inputs = vec![
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1e-310,
            two32,
            1e300,
        ];
        for k in [
            0.0,
            1.0,
            2.0,
            1_000.0,
            65_535.0,
            2_208_988_800.0,
            two32 - 1.0,
        ] {
            // Rounding ties, in seconds and in units of either fixed point.
            inputs.extend(with_neighbours(k + 0.5));
            inputs.extend(with_neighbours((k + 0.5) / two32));
            inputs.extend(with_neighbours((k + 0.5) / 65_536.0));
            // Fractions that round up into a carry.
            inputs.extend(with_neighbours(k + 1.0 - 0.5 / two32));
        }
        inputs.extend(with_neighbours(two32 - 1.0));
        inputs.extend(with_neighbours(65_535.999));
        // ≥ 10⁵ LCG-drawn values over [0, 2³³), and the same draws scaled
        // into the short format's range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..120_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            inputs.push(u * 2.0 * two32);
            inputs.push(u * 70_000.0);
        }
        for s in inputs {
            assert_eq!(
                NtpTimestamp::from_ntp_seconds(s),
                reference_from_ntp_seconds(s),
                "from_ntp_seconds({s:e})"
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

    #[test]
    fn clamping_at_era_end() {
        let ts = NtpTimestamp::from_ntp_seconds(1e20);
        assert_eq!(ts.seconds, u32::MAX);
    }
}
