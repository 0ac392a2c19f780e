//! Streaming summary statistics (Welford's algorithm).

/// Numerically stable streaming mean / variance / extrema accumulator.
///
/// Uses Welford's online algorithm so that month-long traces (millions of
/// samples) can be summarized in one pass without catastrophic cancellation.
///
/// ```
/// use tsc_stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored so a stray NaN in
    /// a long trace cannot poison the whole summary.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_infinite());
        assert!(s.max().is_infinite());
    }

    #[test]
    fn single_value() {
        let mut s = RunningStats::new();
        s.push(7.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn nan_is_ignored() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: RunningStats = xs.iter().copied().collect();
        let a: RunningStats = xs[..37].iter().copied().collect();
        let mut b: RunningStats = xs[37..].iter().copied().collect();
        b.merge(&a);
        assert_eq!(b.count(), all.count());
        assert!((b.mean() - all.mean()).abs() < 1e-12);
        assert!((b.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(b.min(), all.min());
        assert_eq!(b.max(), all.max());
    }

    #[test]
    fn merge_into_empty() {
        let a: RunningStats = [1.0, 2.0].into_iter().collect();
        let mut b = RunningStats::new();
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert_eq!(b.mean(), 1.5);
    }

    #[test]
    fn large_offset_numerical_stability() {
        // Welford must survive a huge common offset.
        let base = 1e12;
        let s: RunningStats = (0..1000).map(|i| base + i as f64).collect();
        assert!((s.mean() - (base + 499.5)).abs() < 1e-3);
        let expected_var = (0..1000)
            .map(|i| {
                let d = i as f64 - 499.5;
                d * d
            })
            .sum::<f64>()
            / 999.0;
        assert!((s.variance() - expected_var).abs() / expected_var < 1e-6);
    }
}
