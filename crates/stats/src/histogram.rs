//! Fixed-bin histograms (used for the Figure 12 error histograms and for the
//! §2.4 reference timestamping side-mode analysis).

/// A simple equal-width histogram over `[lo, hi)` with an explicit
/// underflow/overflow count, suitable for rendering the normalized
/// frequency plots of Figure 12.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo` or the bounds are non-finite.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "invalid histogram range [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Builds a histogram whose range covers the (finite) data exactly.
    /// Returns `None` if there are no finite observations.
    pub fn auto(data: &[f64], nbins: usize) -> Option<Self> {
        let finite: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Widen a degenerate range so max lands inside the top bin.
        let span = (hi - lo).max(f64::EPSILON.max(lo.abs() * 1e-12));
        let mut h = Self::new(lo, lo + span * (1.0 + 1e-9), nbins);
        for &x in &finite {
            h.add(x);
        }
        Some(h)
    }

    /// Records an observation. NaN is ignored; out-of-range values go to the
    /// underflow/overflow counters.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Index of the most populated bin, or `None` if the histogram is empty
    /// inside its range.
    pub fn mode_bin(&self) -> Option<usize> {
        let (idx, &cnt) = self
            .bins
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if cnt == 0 {
            None
        } else {
            Some(idx)
        }
    }

    /// Renders an ASCII bar chart, one line per bin: `center  count  bar`.
    /// Used by the `repro` experiment binaries to print Figure-12-style
    /// histograms in a terminal.
    pub fn ascii(&self, max_bar: usize) -> String {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let bar_len = (c as usize * max_bar) / peak as usize;
            out.push_str(&format!(
                "{:>12.6}  {:>8}  {}\n",
                self.bin_center(i),
                c,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        assert_eq!(h.counts(), &[1; 10]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-1.0);
        h.add(2.0);
        h.add(1.0); // hi is exclusive
        h.add(0.0); // lo is inclusive
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn nan_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn auto_covers_data() {
        let data = [-3.0, 5.0, 1.0, 2.0];
        let h = Histogram::auto(&data, 8).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn auto_degenerate_single_value() {
        let h = Histogram::auto(&[7.0, 7.0, 7.0], 4).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn auto_empty_is_none() {
        assert!(Histogram::auto(&[], 4).is_none());
        assert!(Histogram::auto(&[f64::NAN], 4).is_none());
    }

    #[test]
    fn frequencies_sum_to_one_without_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 5);
        for i in 0..100 {
            h.add(i as f64 / 100.0);
        }
        // no under/overflow mass: every observation is in a bin
        assert_eq!(h.bins.iter().sum::<u64>(), h.total);
        assert_eq!(h.total, 100);
    }

    #[test]
    fn mode_bin_finds_peak() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        h.add(1.5);
        h.add(1.5);
        h.add(0.5);
        assert_eq!(h.mode_bin(), Some(1));
        let empty = Histogram::new(0.0, 1.0, 3);
        assert_eq!(empty.mode_bin(), None);
    }

    #[test]
    fn bin_centers_and_width() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.add(0.1);
        let s = h.ascii(10);
        assert_eq!(s.lines().count(), 3);
    }
}
