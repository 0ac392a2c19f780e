//! Algorithm parameters (§5–§6 defaults).
//!
//! Every tunable of the paper's algorithms lives here, under the symbol
//! names the paper uses. The defaults are the values the paper recommends
//! and uses for its headline results; the sensitivity analyses of Figure 9
//! sweep `tau_prime`, `quality_scale` (E) and the polling period.

/// Minimum upward-shift detection window in packets (see
/// [`ClockConfig::ts_packets`]).
pub const MIN_TS_PACKETS: usize = 16;

/// Largest packet count a nominal window (T, τ̄, τ′, Ts) may convert to,
/// and the bound on `w_split` and `warmup_packets`: 2²⁵, which holds the
/// one-week top window T down to 0.02 s polling (30.2 M packets). Every
/// ring the clock sizes from the configuration stays below it.
pub const MAX_WINDOW_PACKETS: usize = 1 << 25;

/// Full parameter set of the TSC-NTP clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    /// δ — the unit of host timestamping error (15 µs, §5.1: "Error will be
    /// calibrated in units of the maximum timestamping error at the host").
    pub delta: f64,
    /// τ* — the SKM validity scale (≈1000 s, §3.1).
    pub tau_star: f64,
    /// τ′ — the offset-weighting window (§5.3; Figure 9(a) shows a broad
    /// optimum around τ*/2 … 2τ*; the robustness experiments use 2τ*).
    pub tau_prime: f64,
    /// τ̄ — the local-rate window (5τ*, §5.2).
    pub tau_bar: f64,
    /// W — the local-rate near/central/far split factor (30, §5.2).
    pub w_split: usize,
    /// E* — rate-estimation point-error acceptance threshold
    /// (20δ = 0.3 ms; Figure 7 also shows 5δ).
    pub e_star: f64,
    /// E — the offset quality-assessment scale (4δ, §5.3(ii)).
    pub quality_scale: f64,
    /// E**/E — the poor-quality fallback multiplier (6, §5.3(iii): "about 3
    /// 'standard deviations' away in the Gaussian-like weight function").
    pub fallback_mult: f64,
    /// ε — the total-error aging rate (0.02 PPM, §5.3(i)): point errors grow
    /// by ε per second of packet age.
    pub aging_rate: f64,
    /// γ* — local-rate target quality (0.05 PPM, §5.2).
    pub gamma_star: f64,
    /// Rate sanity bound: maximum relative step between successive local
    /// rate estimates (3·10⁻⁷, §5.2).
    pub rate_sanity: f64,
    /// Es — offset sanity threshold (1 ms, §5.3(iv); "orders of magnitude
    /// beyond the expected offset increment between neighboring packets").
    pub offset_sanity: f64,
    /// Upward-shift detection threshold multiplier: shift declared when
    /// `r̂l − r̂ > shift_mult · E` (4, §6.2).
    pub shift_mult: f64,
    /// Ts — upward-shift detection window (τ̄/2, §6.2).
    pub ts_window: f64,
    /// T — the top-level sliding history window (1 week, §6.1), slid by T/2.
    pub top_window: f64,
    /// Nominal polling period in seconds; §6.1 converts every nominal time
    /// window into a fixed packet count by dividing by this.
    pub poll_period: f64,
    /// Warm-up length Tw in RTT samples (§6.1).
    pub warmup_packets: usize,
    /// Whether the offset estimator uses the local-rate refinement
    /// (equation (21) instead of (20)).
    pub use_local_rate: bool,
}

impl ClockConfig {
    /// Paper defaults for a given polling period.
    pub fn paper_defaults(poll_period: f64) -> Self {
        let delta = 15e-6;
        let tau_star = 1000.0;
        let tau_bar = 5.0 * tau_star;
        Self {
            delta,
            tau_star,
            tau_prime: tau_star,
            tau_bar,
            w_split: 30,
            e_star: 20.0 * delta,
            quality_scale: 4.0 * delta,
            fallback_mult: 6.0,
            aging_rate: 0.02e-6,
            gamma_star: 0.05e-6,
            rate_sanity: 3e-7,
            offset_sanity: 1e-3,
            shift_mult: 4.0,
            ts_window: tau_bar / 2.0,
            top_window: 7.0 * 86_400.0,
            poll_period,
            warmup_packets: 64,
            use_local_rate: false,
        }
    }

    /// E** — the absolute poor-quality fallback threshold.
    pub fn e_fallback(&self) -> f64 {
        self.fallback_mult * self.quality_scale
    }

    /// Converts a nominal time window to its packet count (≥ 1), per the
    /// §6.1 "Lost Packets" rule.
    pub fn window_packets(&self, window_seconds: f64) -> usize {
        ((window_seconds / self.poll_period).round() as usize).max(1)
    }

    /// Packet count of the offset window τ′.
    pub fn tau_prime_packets(&self) -> usize {
        self.window_packets(self.tau_prime)
    }

    /// Packet count of the local-rate window τ̄ (including the extra far
    /// sub-window, the total span is τ̄(W+1)/W; we size sub-windows from τ̄).
    pub fn tau_bar_packets(&self) -> usize {
        self.window_packets(self.tau_bar)
    }

    /// Packet count of the upward-shift window Ts.
    ///
    /// §6.2 requires detection to be "deliberately slow and conservative":
    /// a window of `Ts = τ̄/2` holds 156 packets at the paper's 16 s
    /// polling. The §6.1 packet-count conversion must not be allowed to
    /// collapse that to a couple of packets at coarse polling periods —
    /// with a 2-packet window *any* two consecutive congested exchanges
    /// (point errors above 4E, a few percent of traffic) confirm a false
    /// upward shift, exactly the misdetection the paper calls "critical"
    /// ("falsely interpreting congestion as an upward shift immediately
    /// corrupts estimates"). At 1024 s polling this fired hundreds of
    /// times per simulated month and the re-basing churn dominated the
    /// replay cost. The floor keeps the false-confirmation probability
    /// negligible (≈ q¹⁶ for per-packet congestion probability q) while
    /// still detecting any shift sustained for 16 polls.
    pub fn ts_packets(&self) -> usize {
        self.window_packets(self.ts_window).max(MIN_TS_PACKETS)
    }

    /// Packet count of the top-level window T.
    pub fn top_packets(&self) -> usize {
        self.window_packets(self.top_window)
    }

    /// Validates parameter consistency; returns a description of the first
    /// problem found.
    ///
    /// The check is total: every float a constructor, a divisor or a
    /// threshold uses must be finite and positive (`aging_rate` may be
    /// zero: ε = 0 turns aging off), and every nominal window must convert
    /// to at most [`MAX_WINDOW_PACKETS`] packets, so a configuration that
    /// passes cannot make [`crate::TscNtpClock::new`] panic or size a ring
    /// past that bound.
    pub fn validate(&self) -> Result<(), String> {
        // NaN fails both comparisons, so NaN parameters fail too
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.delta) {
            return Err("delta must be positive".into());
        }
        if !positive(self.poll_period) {
            return Err("poll_period must be positive".into());
        }
        let windows =
            [self.tau_star, self.tau_prime, self.tau_bar, self.ts_window, self.top_window];
        if !windows.into_iter().all(positive) {
            return Err("time windows must be positive".into());
        }
        if self.w_split < 3 {
            return Err("w_split must be at least 3".into());
        }
        let thresholds = [
            self.e_star,
            self.quality_scale,
            self.gamma_star,
            self.rate_sanity,
            self.offset_sanity,
            self.shift_mult,
            // the §6.2 detection level 4E itself must not underflow
            self.shift_mult * self.quality_scale,
        ];
        if !thresholds.into_iter().all(positive) {
            return Err("error thresholds must be positive".into());
        }
        if !(self.fallback_mult.is_finite() && self.fallback_mult > 1.0) {
            return Err("fallback_mult must exceed 1".into());
        }
        if !(self.aging_rate.is_finite() && self.aging_rate >= 0.0) {
            return Err("aging_rate must be non-negative".into());
        }
        if self.top_window < self.tau_bar {
            return Err("top window must contain the local-rate window".into());
        }
        let max = MAX_WINDOW_PACKETS as f64;
        // T, τ̄, τ′ and Ts (τ* is a scale, never converted)
        if !windows[1..].iter().all(|w| w / self.poll_period <= max) {
            return Err(format!(
                "a window exceeds {MAX_WINDOW_PACKETS} packets at this poll period"
            ));
        }
        if self.w_split > MAX_WINDOW_PACKETS || self.warmup_packets > MAX_WINDOW_PACKETS {
            return Err(format!(
                "w_split and warmup_packets must not exceed {MAX_WINDOW_PACKETS}"
            ));
        }
        Ok(())
    }
}

impl ClockConfig {
    /// Serializes every parameter into a snapshot payload (18 fields,
    /// field order is the struct order and is part of snapshot format v1).
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_f64(self.delta);
        w.put_f64(self.tau_star);
        w.put_f64(self.tau_prime);
        w.put_f64(self.tau_bar);
        w.put_usize(self.w_split);
        w.put_f64(self.e_star);
        w.put_f64(self.quality_scale);
        w.put_f64(self.fallback_mult);
        w.put_f64(self.aging_rate);
        w.put_f64(self.gamma_star);
        w.put_f64(self.rate_sanity);
        w.put_f64(self.offset_sanity);
        w.put_f64(self.shift_mult);
        w.put_f64(self.ts_window);
        w.put_f64(self.top_window);
        w.put_f64(self.poll_period);
        w.put_usize(self.warmup_packets);
        w.put_bool(self.use_local_rate);
    }

    /// Deserializes and **re-validates** a config from a snapshot payload:
    /// corrupt parameters that still checksum (e.g. a pre-checksum bug)
    /// surface as [`crate::SnapshotError::Invalid`], never as a clock
    /// silently running with nonsense windows.
    pub fn load_state(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::SnapshotError> {
        let cfg = Self {
            delta: r.get_f64()?,
            tau_star: r.get_f64()?,
            tau_prime: r.get_f64()?,
            tau_bar: r.get_f64()?,
            w_split: r.get_usize()?,
            e_star: r.get_f64()?,
            quality_scale: r.get_f64()?,
            fallback_mult: r.get_f64()?,
            aging_rate: r.get_f64()?,
            gamma_star: r.get_f64()?,
            rate_sanity: r.get_f64()?,
            offset_sanity: r.get_f64()?,
            shift_mult: r.get_f64()?,
            ts_window: r.get_f64()?,
            top_window: r.get_f64()?,
            poll_period: r.get_f64()?,
            warmup_packets: r.get_usize()?,
            use_local_rate: r.get_bool()?,
        };
        cfg.validate()
            .map_err(|_| crate::SnapshotError::Invalid("clock config fails validation"))?;
        Ok(cfg)
    }
}

impl Default for ClockConfig {
    fn default() -> Self {
        Self::paper_defaults(16.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ClockConfig::paper_defaults(16.0);
        assert_eq!(c.delta, 15e-6);
        assert_eq!(c.tau_star, 1000.0);
        assert_eq!(c.tau_bar, 5000.0);
        assert_eq!(c.w_split, 30);
        assert!((c.e_star - 300e-6).abs() < 1e-15);
        assert!((c.quality_scale - 60e-6).abs() < 1e-15);
        assert!((c.e_fallback() - 360e-6).abs() < 1e-15);
        assert_eq!(c.aging_rate, 0.02e-6);
        assert_eq!(c.gamma_star, 0.05e-6);
        assert_eq!(c.rate_sanity, 3e-7);
        assert_eq!(c.offset_sanity, 1e-3);
        assert_eq!(c.ts_window, 2500.0);
        assert_eq!(c.top_window, 604_800.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn window_packet_counts() {
        let c = ClockConfig::paper_defaults(16.0);
        assert_eq!(c.tau_prime_packets(), 63); // 1000/16 ≈ 62.5 → 63
        assert_eq!(c.tau_bar_packets(), 313);
        assert_eq!(c.ts_packets(), 156);
        assert_eq!(c.top_packets(), 37_800);
        // windows never collapse to zero packets
        let coarse = ClockConfig::paper_defaults(4096.0);
        assert!(coarse.tau_prime_packets() >= 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = ClockConfig { delta: 0.0, ..ClockConfig::default() };
        assert!(c.validate().is_err());
        let c = ClockConfig { w_split: 2, ..ClockConfig::default() };
        assert!(c.validate().is_err());
        let c = ClockConfig { top_window: 10.0, ..ClockConfig::default() };
        assert!(c.validate().is_err());
        let c = ClockConfig { fallback_mult: 0.5, ..ClockConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn poll_period_scales_counts() {
        let fine = ClockConfig::paper_defaults(16.0);
        let coarse = ClockConfig::paper_defaults(256.0);
        assert!(fine.tau_prime_packets() > coarse.tau_prime_packets());
        assert_eq!(coarse.tau_prime_packets(), 4);
    }
}
