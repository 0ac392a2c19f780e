//! The simulated TSC (TimeStamp Counter) register.
//!
//! §2.2 defines the clock in terms of the raw counter: `C(t) = TSC(t)·p̂ + C̄`
//! where `p` is the true (slowly varying) cycle period. The counter is a
//! 64-bit hardware register incremented every CPU cycle; reading it is the
//! host's raw timestamping primitive. The paper warns that manipulating it
//! through a 32-bit value overflows within seconds on a GHz machine — we
//! keep the full 64 bits throughout.

use crate::oscillator::Oscillator;

/// A simulated 64-bit cycle counter driven by an [`Oscillator`].
///
/// `TSC(t) = TSC0 + round(f_nom · (t + x(t)))` where `x(t)` is the
/// oscillator's accumulated time error — i.e. the counter counts actual
/// oscillator cycles, including skew and drift.
#[derive(Debug)]
pub struct TscCounter {
    freq_hz: f64,
    tsc0: u64,
    osc: Oscillator,
}

impl TscCounter {
    /// Creates a counter of nominal frequency `freq_hz` (cycles per second of
    /// *oscillator* time) starting at counter value `tsc0` at `t = 0`.
    pub fn new(freq_hz: f64, tsc0: u64, osc: Oscillator) -> Self {
        assert!(freq_hz > 0.0, "counter frequency must be positive");
        Self { freq_hz, tsc0, osc }
    }

    /// Nominal counter frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Nominal cycle period in seconds (1 / frequency). This is what a naive
    /// user might assume for `p`; the *true* effective period differs by the
    /// skew, which is exactly what the rate-synchronization algorithm must
    /// estimate.
    pub fn nominal_period(&self) -> f64 {
        1.0 / self.freq_hz
    }

    /// Initial counter value.
    pub fn tsc0(&self) -> u64 {
        self.tsc0
    }

    /// Reads the counter at true time `t` (monotone in `t`).
    ///
    /// The cycle count is rounded half away from zero. Below 2⁵³ that is
    /// done without the `round()` libcall: truncation to an integer and
    /// the remainder `x − trunc(x)` are both exact there, so comparing the
    /// remainder with ½ is `round()` exactly. The integer is an `i64`: in
    /// this range it holds the same value a `u64` would, and both
    /// conversions are one instruction (`cvttsd2si` / `cvtsi2sd`) where the
    /// unsigned ones are branchy sequences on baseline x86-64.
    pub fn read(&mut self, t: f64) -> u64 {
        let local = self.osc.local_time_at(t);
        debug_assert!(local >= 0.0, "negative oscillator time");
        let x = self.freq_hz * local;
        let cycles = if (0.0..9_007_199_254_740_992.0).contains(&x) {
            let i = x as i64;
            (i + i64::from(x - i as f64 >= 0.5)) as u64
        } else {
            x.round() as u64
        };
        self.tsc0.wrapping_add(cycles)
    }

    /// The oscillator's accumulated time error at the last read instant —
    /// ground truth the reference monitor uses, never visible to the
    /// algorithms under test.
    pub fn time_error(&self) -> f64 {
        self.osc.time_error()
    }

    /// Current true time of the underlying oscillator.
    pub fn now(&self) -> f64 {
        self.osc.now()
    }

    /// Immutable access to the oscillator (diagnostics).
    pub fn oscillator(&self) -> &Oscillator {
        &self.osc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ConstantSkew;
    use crate::oscillator::Oscillator;

    /// Converts a difference of counter readings into seconds given a
    /// period estimate: `Δ(t) = Δ(TSC) · p̂` (§1). Uses signed arithmetic so
    /// the difference can be taken in either order.
    fn counter_diff_to_seconds(later: u64, earlier: u64, period: f64) -> f64 {
        (later.wrapping_sub(earlier) as i64) as f64 * period
    }

    fn counter(ppm: f64) -> TscCounter {
        let osc = Oscillator::new(vec![ConstantSkew::from_ppm(ppm).into()], 3);
        TscCounter::new(1e9, 1_000_000, osc)
    }

    #[test]
    fn perfect_counter_counts_nominal() {
        let mut c = counter(0.0);
        assert_eq!(c.read(0.0), 1_000_000);
        assert_eq!(c.read(1.0), 1_000_000 + 1_000_000_000);
    }

    #[test]
    fn skewed_counter_runs_fast() {
        let mut c = counter(50.0);
        let v = c.read(1000.0);
        // 1000 s at 1 GHz + 50 PPM → 10^12 + 5·10^7 cycles
        let expect = 1_000_000u64 + 1_000_000_000_000 + 50_000_000;
        assert_eq!(v, expect);
    }

    #[test]
    fn reads_are_monotone() {
        let mut c = counter(50.0);
        let mut last = 0;
        for i in 0..1000 {
            let v = c.read(i as f64 * 0.5);
            assert!(v >= last, "counter went backwards at i={i}");
            last = v;
        }
    }

    #[test]
    fn diff_to_seconds_recovers_interval() {
        let mut c = counter(0.0);
        let a = c.read(10.0);
        let b = c.read(25.5);
        let dt = counter_diff_to_seconds(b, a, c.nominal_period());
        assert!((dt - 15.5).abs() < 1e-9);
    }

    #[test]
    fn diff_handles_wraparound() {
        // Values straddling u64 wrap still give correct small difference.
        let a = u64::MAX - 5;
        let b = 10u64;
        let dt = counter_diff_to_seconds(b, a, 1e-9);
        assert!((dt - 16e-9).abs() < 1e-18);
    }

    #[test]
    fn diff_negative_direction() {
        let dt = counter_diff_to_seconds(100, 200, 1e-9);
        assert!((dt + 100e-9).abs() < 1e-18);
    }

    #[test]
    fn time_error_tracks_skew() {
        let mut c = counter(100.0);
        c.read(1000.0);
        assert!((c.time_error() - 1e-4 * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn period_estimate_error_shows_up_as_rate_error() {
        // Using the nominal period on a skewed counter misestimates
        // intervals by exactly the skew — the core premise of §4.1.
        let mut c = counter(50.0);
        let a = c.read(0.0);
        let b = c.read(1000.0);
        let measured = counter_diff_to_seconds(b, a, c.nominal_period());
        let rel_err = (measured - 1000.0) / 1000.0;
        assert!((rel_err - 50e-6).abs() < 1e-9);
    }
}
