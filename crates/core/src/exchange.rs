//! The raw input record: one completed NTP exchange.

/// The raw data of the i-th exchange (Figure 1): two host TSC readings and
/// two server timestamps. This is *everything* the synchronization
/// algorithms are allowed to see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawExchange {
    /// Host TSC reading just before the request departs (`Ta`, counts).
    pub ta_tsc: u64,
    /// Server receive timestamp (`Tb`, server clock seconds).
    pub tb: f64,
    /// Server transmit timestamp (`Te`, server clock seconds).
    pub te: f64,
    /// Host TSC reading just after the response arrives (`Tf`, counts).
    pub tf_tsc: u64,
}

impl RawExchange {
    /// Round-trip time in TSC counts: `Tf − Ta`. Because both readings come
    /// from the same counter, this is meaningful without any period estimate
    /// — the key decoupling property of §5.1.
    pub fn rtt_counts(&self) -> u64 {
        self.tf_tsc.wrapping_sub(self.ta_tsc)
    }

    /// Midpoint of the server timestamps, `(Tb + Te)/2`.
    pub fn server_midpoint(&self) -> f64 {
        0.5 * (self.tb + self.te)
    }

    /// Midpoint of the host counter readings, `(Ta + Tf)/2`, in counts.
    /// The sum is converted once, in `u64` when it fits and in `u128` (a
    /// `__floatuntidf` libcall) only past an overflow: the same integer
    /// through the same rounding, so the same bits.
    #[inline]
    pub fn host_midpoint_counts(&self) -> f64 {
        match self.ta_tsc.checked_add(self.tf_tsc) {
            Some(sum) => sum as f64 * 0.5,
            None => (self.ta_tsc as u128 + self.tf_tsc as u128) as f64 * 0.5,
        }
    }

    /// Basic structural sanity: the response cannot precede the request and
    /// the server cannot transmit before it receives. Packets failing this
    /// are corrupt and must be discarded before they reach the estimators.
    pub fn is_causal(&self) -> bool {
        self.tf_tsc > self.ta_tsc && self.te >= self.tb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex() -> RawExchange {
        RawExchange {
            ta_tsc: 1_000_000_000,
            tb: 100.0004,
            te: 100.00045,
            tf_tsc: 1_000_890_000,
        }
    }

    #[test]
    fn rtt_counts_is_difference() {
        assert_eq!(ex().rtt_counts(), 890_000);
    }

    #[test]
    fn rtt_counts_survives_wrap() {
        let e = RawExchange {
            ta_tsc: u64::MAX - 10,
            tf_tsc: 100,
            ..ex()
        };
        assert_eq!(e.rtt_counts(), 111);
    }

    /// Server residence time `Te − Tb` in seconds, as reported by the
    /// server's own clock.
    fn residence(e: &RawExchange) -> f64 {
        e.te - e.tb
    }

    #[test]
    fn server_residence() {
        assert!((residence(&ex()) - 5e-5).abs() < 1e-12);
    }

    #[test]
    fn midpoints() {
        let e = ex();
        assert!((e.server_midpoint() - 100.000425).abs() < 1e-9);
        assert_eq!(e.host_midpoint_counts(), 1_000_445_000.0);
    }

    #[test]
    fn host_midpoint_no_overflow_at_extremes() {
        let e = RawExchange {
            ta_tsc: u64::MAX - 1,
            tf_tsc: u64::MAX,
            ..ex()
        };
        let expect = (u64::MAX - 1) as f64 + 0.5;
        assert!((e.host_midpoint_counts() - expect).abs() < 2.0);
    }

    #[test]
    fn host_midpoint_branches_agree_with_the_wide_expression() {
        let wide = |a: u64, f: u64| (a as u128 + f as u128) as f64 * 0.5;
        // (ta, tf) whose sums are 2⁵³ ± 1 (odd: the conversion rounds),
        // 2⁶⁴ − 1 (last sum the narrow branch takes), 2⁶⁴ (first wide one)
        // and the largest possible.
        let cases = [
            ((1u64 << 52) - 1, 1u64 << 52),
            (1u64 << 52, (1u64 << 52) + 1),
            (u64::MAX - 7, 7),
            (u64::MAX - 7, 8),
            (u64::MAX, u64::MAX),
        ];
        for (ta_tsc, tf_tsc) in cases {
            let e = RawExchange {
                ta_tsc,
                tf_tsc,
                ..ex()
            };
            assert_eq!(
                e.host_midpoint_counts().to_bits(),
                wide(ta_tsc, tf_tsc).to_bits(),
                "{ta_tsc} + {tf_tsc}"
            );
        }
    }

    #[test]
    fn causality_check() {
        assert!(ex().is_causal());
        let bad_host = RawExchange {
            tf_tsc: 0,
            ..ex()
        };
        assert!(!bad_host.is_causal());
        let bad_server = RawExchange {
            te: 99.0,
            ..ex()
        };
        assert!(!bad_server.is_causal());
    }
}
