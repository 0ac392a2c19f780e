//! The feedback clock discipline (miniature ntpd PLL/FLL).
//!
//! The disciplined clock reads `C(t) = raw(t) + correction(t)`, where `raw`
//! is the host's free-running (skewed, drifting) clock and the correction
//! evolves under feedback: each filtered offset sample nudges the
//! correction *rate* (frequency steering) and slews a fraction of the
//! phase error per time constant. Offsets beyond the step threshold
//! (128 ms) step the clock outright — the "occasional larger reset
//! adjustments" of §1 that the TSC-NTP clock is designed never to need.
//!
//! Crucially, timestamps for later exchanges are read from the *disciplined*
//! clock, closing the feedback loop — the design choice the paper contrasts
//! with its own feed-forward architecture.

use super::filter::{ClockFilter, FilterSample};

/// Configuration of the discipline loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisciplineConfig {
    /// PLL time constant τc (seconds): phase errors are slewed at `θ/τc`.
    pub time_constant: f64,
    /// Frequency integration gain divisor (larger = gentler steering).
    pub freq_gain: f64,
    /// Step threshold (ntpd default 128 ms).
    pub step_threshold: f64,
    /// Maximum |frequency correction| (ntpd: 500 PPM).
    pub max_freq: f64,
}

impl Default for DisciplineConfig {
    fn default() -> Self {
        Self {
            time_constant: 512.0,
            freq_gain: 4.0,
            step_threshold: 0.128,
            max_freq: 500e-6,
        }
    }
}

/// Events from one discipline update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisciplineEvent {
    /// Offset absorbed by the feedback loop.
    Slewed,
    /// Offset exceeded the step threshold; the clock was stepped.
    Stepped,
    /// The clock filter suppressed the sample (stale best).
    FilterSuppressed,
}

/// The feedback-disciplined software clock (the SW-NTP baseline).
#[derive(Debug, Clone)]
pub struct DisciplinedClock {
    cfg: DisciplineConfig,
    filter: ClockFilter,
    /// Correction value at `corr_time` (seconds).
    corr: f64,
    /// Raw time the correction state refers to.
    corr_time: f64,
    /// Current correction slope: frequency steering + phase slew.
    corr_rate: f64,
    /// The persistent frequency part of the slope.
    freq_adj: f64,
    /// Raw time of the previous accepted update.
    last_update: Option<f64>,
    /// Number of step events so far.
    steps: u64,
}

impl DisciplinedClock {
    /// New discipline with the given configuration.
    pub fn new(cfg: DisciplineConfig) -> Self {
        Self {
            cfg,
            filter: ClockFilter::new(),
            corr: 0.0,
            corr_time: 0.0,
            corr_rate: 0.0,
            freq_adj: 0.0,
            last_update: None,
            steps: 0,
        }
    }

    /// The disciplined clock reading at raw host time `raw`.
    pub fn now(&self, raw: f64) -> f64 {
        raw + self.corr + self.corr_rate * (raw - self.corr_time)
    }

    /// Instantaneous total rate correction (frequency + phase slew) — the
    /// quantity whose variability makes the SW-NTP *rate* erratic.
    pub fn rate_correction(&self) -> f64 {
        self.corr_rate
    }

    /// Number of step (reset) events so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Processes one completed exchange. `ta_raw`/`tf_raw` are *raw* host
    /// clock readings around the exchange; `tb`/`te` are the server
    /// timestamps. Returns what the discipline did.
    pub fn process(&mut self, ta_raw: f64, tb: f64, te: f64, tf_raw: f64) -> DisciplineEvent {
        // Timestamps as the daemon would have made them: disciplined clock.
        let ta = self.now(ta_raw);
        let tf = self.now(tf_raw);
        // Classical NTP offset/delay (positive offset = we are behind).
        let offset = 0.5 * ((tb - ta) + (te - tf));
        let delay = (tf - ta) - (te - tb);
        // Commit the correction accumulated so far, then decide.
        self.corr = self.now(tf_raw) - tf_raw;
        self.corr_time = tf_raw;

        let sample = FilterSample {
            offset,
            delay,
            time: tf_raw,
        };
        let Some(best) = self.filter.update(sample) else {
            return DisciplineEvent::FilterSuppressed;
        };

        if best.offset.abs() > self.cfg.step_threshold {
            // Step: apply instantly, clear history (ntpd semantics).
            self.corr += best.offset;
            self.corr_rate = self.freq_adj;
            self.filter.clear();
            self.steps += 1;
            self.last_update = Some(tf_raw);
            return DisciplineEvent::Stepped;
        }

        // Hybrid PLL/FLL: integrate frequency from the offset history and
        // slew the phase over the time constant.
        let mu = self
            .last_update
            .map(|t| (tf_raw - t).max(1.0))
            .unwrap_or(self.cfg.time_constant);
        let tc = self.cfg.time_constant;
        self.freq_adj += best.offset * mu / (self.cfg.freq_gain * tc * tc);
        self.freq_adj = self.freq_adj.clamp(-self.cfg.max_freq, self.cfg.max_freq);
        self.corr_rate = self.freq_adj + best.offset / tc;
        self.last_update = Some(tf_raw);
        DisciplineEvent::Slewed
    }
}

impl Default for DisciplinedClock {
    fn default() -> Self {
        Self::new(DisciplineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates a host whose raw clock runs fast by `skew` against a
    /// perfect server over a symmetric path, feeding the discipline, and
    /// returns (final absolute offset, series of rate corrections).
    fn run(skew: f64, n: usize, poll: f64, queue: impl Fn(usize) -> f64) -> (f64, Vec<f64>) {
        let mut c = DisciplinedClock::default();
        let mut rates = Vec::new();
        let d = 450e-6;
        let mut final_offset = 0.0;
        for k in 0..n {
            let t = (k + 1) as f64 * poll; // true time of send
            let q = queue(k);
            let raw = |tt: f64| tt * (1.0 + skew);
            let ta_raw = raw(t);
            let tb = t + d + q;
            let te = tb + 20e-6;
            let tf_raw = raw(te + d);
            c.process(ta_raw, tb, te, tf_raw);
            rates.push(c.rate_correction());
            // measure the disciplined clock against truth at tf
            final_offset = c.now(tf_raw) - (te + d);
        }
        (final_offset, rates)
    }

    #[test]
    fn converges_on_clean_data() {
        let (off, _) = run(50e-6, 3000, 16.0, |_| 0.0);
        assert!(
            off.abs() < 2e-3,
            "SW-NTP should converge to ms-level: {off}"
        );
    }

    #[test]
    fn rate_is_erratic_compared_to_skew() {
        // the paper's criticism: rate corrections wander by much more than
        // the 0.1 PPM hardware stability
        let (_, rates) = run(50e-6, 2000, 16.0, |k| {
            if k % 7 == 0 {
                3e-3
            } else {
                30e-6
            }
        });
        let tail = &rates[500..];
        let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
        let max = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.1e-6,
            "rate corrections should wander beyond the 0.1 PPM hardware \
             stability: spread {}",
            max - min
        );
    }

    #[test]
    fn large_initial_offset_causes_step() {
        let mut c = DisciplinedClock::default();
        // raw clock 10 s ahead of the server
        let t = 16.0;
        let raw = t + 10.0;
        let ev = c.process(raw, t + 450e-6, t + 470e-6, raw + 920e-6);
        assert_eq!(ev, DisciplineEvent::Stepped);
        assert_eq!(c.steps(), 1);
        // after the step the clock reads near server time
        let now = c.now(raw + 1.0);
        assert!((now - (t + 1.0)).abs() < 0.05, "post-step error {}", now - (t + 1.0));
    }

    #[test]
    fn congestion_can_cause_spurious_steps() {
        // the §1 complaint: offsets "in extreme cases ... of the order of
        // seconds" — a 400 ms asymmetric queueing burst that defeats the
        // 8-stage filter forces a reset
        let mut c = DisciplinedClock::default();
        let d = 450e-6;
        for k in 0..200 {
            let t = (k + 1) as f64 * 16.0;
            let q = if k >= 100 { 0.4 } else { 0.0 }; // sustained congestion
            let ta_raw = t;
            let tb = t + d + q;
            let te = tb + 20e-6;
            let tf_raw = te + d;
            c.process(ta_raw, tb, te, tf_raw);
        }
        assert!(
            c.steps() > 0,
            "sustained 400 ms asymmetric congestion should step SW-NTP"
        );
    }

    #[test]
    fn freq_clamped_to_500_ppm() {
        let mut c = DisciplinedClock::default();
        // absurd 100 ms offsets every poll, same sign
        let d = 450e-6;
        for k in 0..5000 {
            let t = (k + 1) as f64 * 16.0;
            c.process(t, t + d + 0.1, t + d + 0.1 + 2e-5, t + 2.0 * d + 2e-5);
        }
        assert!(c.freq_adj.abs() <= 500e-6 + 1e-12);
    }

    #[test]
    fn now_is_continuous_between_updates() {
        let mut c = DisciplinedClock::default();
        let d = 450e-6;
        for k in 0..50 {
            let t = (k + 1) as f64 * 16.0;
            c.process(t, t + d, t + d + 2e-5, t + 2.0 * d + 2e-5);
        }
        let a = c.now(1000.0);
        let b = c.now(1000.1);
        assert!((b - a - 0.1).abs() < 1e-4, "clock step between reads: {}", b - a);
    }
}
