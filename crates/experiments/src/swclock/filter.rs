//! The NTP clock filter: an 8-stage shift register selecting the sample
//! with minimum delay, on the principle that low-delay exchanges suffer the
//! least queueing asymmetry.

/// One offset/delay measurement derived from an NTP exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterSample {
    /// Measured clock offset θ (seconds).
    pub offset: f64,
    /// Measured round-trip delay δ (seconds).
    pub delay: f64,
    /// Local receive time of the sample (seconds, any monotone base).
    pub time: f64,
}

/// The classic 8-stage minimum-delay clock filter.
///
/// Each new sample shifts into the register; the filter output is the
/// sample with the smallest `delay + age-penalty`, where the small penalty
/// (`dispersion_rate` per second of age) prefers fresh samples among
/// near-equal candidates. A sample is only *used* once (popcorn-suppressor
/// style): repeated selection of the same stale sample is reported.
#[derive(Debug, Clone)]
pub struct ClockFilter {
    stages: Vec<FilterSample>,
    capacity: usize,
    dispersion_rate: f64,
    last_used_time: f64,
}

impl ClockFilter {
    /// Standard 8-stage filter with the ntpd dispersion rate (15 PPM).
    pub fn new() -> Self {
        Self::with_params(8, 15e-6)
    }

    /// Filter with explicit register size and age-penalty rate.
    pub fn with_params(capacity: usize, dispersion_rate: f64) -> Self {
        assert!(capacity >= 1, "filter needs at least one stage");
        Self {
            stages: Vec::with_capacity(capacity),
            capacity,
            dispersion_rate,
            last_used_time: f64::NEG_INFINITY,
        }
    }

    /// Shifts in a new sample and returns the selected (best) sample, or
    /// `None` when the best sample is older than one already consumed (the
    /// anti-replay rule: never apply the same information twice).
    pub fn update(&mut self, sample: FilterSample) -> Option<FilterSample> {
        if self.stages.len() == self.capacity {
            self.stages.remove(0);
        }
        self.stages.push(sample);
        let now = sample.time;
        let best = self
            .stages
            .iter()
            .copied()
            .min_by(|a, b| {
                let score =
                    |s: &FilterSample| s.delay + self.dispersion_rate * (now - s.time).max(0.0);
                score(a).partial_cmp(&score(b)).expect("finite scores")
            })?;
        if best.time <= self.last_used_time {
            return None;
        }
        self.last_used_time = best.time;
        Some(best)
    }

    /// Clears the register (used after a clock step invalidates history).
    pub fn clear(&mut self) {
        self.stages.clear();
        self.last_used_time = f64::NEG_INFINITY;
    }
}

impl Default for ClockFilter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(offset: f64, delay: f64, time: f64) -> FilterSample {
        FilterSample {
            offset,
            delay,
            time,
        }
    }

    #[test]
    fn selects_minimum_delay() {
        let mut f = ClockFilter::new();
        f.update(s(1e-3, 10e-3, 0.0));
        f.update(s(2e-3, 5e-3, 16.0));
        let best = f.update(s(3e-3, 20e-3, 32.0));
        // the 5 ms-delay sample wins, but it was already consumed at t=16
        // when it was itself the best → returns None now
        assert!(best.is_none());
    }

    #[test]
    fn fresh_better_sample_is_used() {
        let mut f = ClockFilter::new();
        f.update(s(1e-3, 10e-3, 0.0));
        let best = f.update(s(2e-3, 5e-3, 16.0)).unwrap();
        assert_eq!(best.offset, 2e-3);
    }

    #[test]
    fn register_is_bounded() {
        let mut f = ClockFilter::with_params(4, 0.0);
        for k in 0..10 {
            f.update(s(0.0, 1e-3 + k as f64 * 1e-4, k as f64 * 16.0));
        }
        assert_eq!(f.stages.len(), 4);
    }

    #[test]
    fn old_minimum_ages_out_of_register() {
        let mut f = ClockFilter::with_params(3, 0.0);
        f.update(s(9e-3, 1e-3, 0.0)); // great delay, will age out
        f.update(s(1e-3, 8e-3, 16.0));
        f.update(s(2e-3, 7e-3, 32.0));
        // pushes the t=0 sample out of the 3-stage register
        let best = f.update(s(3e-3, 6e-3, 48.0)).unwrap();
        assert_eq!(best.offset, 3e-3);
    }

    #[test]
    fn dispersion_prefers_fresh_among_equals() {
        let mut f = ClockFilter::with_params(8, 15e-6);
        f.update(s(1e-3, 5e-3, 0.0));
        // same delay much later: age penalty makes the new one win
        let best = f.update(s(2e-3, 5e-3, 1000.0)).unwrap();
        assert_eq!(best.offset, 2e-3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = ClockFilter::new();
        f.update(s(1e-3, 1e-3, 0.0));
        f.clear();
        assert!(f.stages.is_empty());
        // after clear, an older-timestamped sample can be used again
        let best = f.update(s(5e-4, 2e-3, 0.0)).unwrap();
        assert_eq!(best.offset, 5e-4);
    }
}
