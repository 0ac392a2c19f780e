//! Sliding-window minimum tracker.
//!
//! §6.2 keeps a *local* minimum `rˆl` over a sliding window of width `Ts`
//! to detect upward level shifts. [`SlidingMin`] implements it with O(1)
//! amortized updates over a monotonic deque — the dense formulation core's
//! shift detector is differentially tested against.

use std::collections::VecDeque;

/// Sliding-window minimum over the last `capacity` observations, with O(1)
/// amortized push via a monotonically increasing deque of candidates.
///
/// The paper's windows are nominally time intervals but are "in practice
/// based on maintaining a fixed number of packets calculated by dividing the
/// nominal interval size by the known polling period" (§6.1 "Lost Packets"),
/// which is exactly the count-based semantics implemented here.
#[derive(Debug, Clone)]
pub struct SlidingMin {
    capacity: usize,
    /// (sequence number, value) candidates in increasing value order.
    deque: VecDeque<(u64, f64)>,
    next_seq: u64,
}

impl SlidingMin {
    /// Creates a window holding up to `capacity` most recent values.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        Self {
            capacity,
            deque: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Pushes a new observation, expiring anything older than `capacity`
    /// samples. NaN is ignored (it still does not consume a slot: NaNs are
    /// treated as missing data).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // Drop candidates that can never be the minimum again.
        while matches!(self.deque.back(), Some(&(_, v)) if v >= x) {
            self.deque.pop_back();
        }
        self.deque.push_back((seq, x));
        // Expire out-of-window entries.
        let min_seq = self.next_seq.saturating_sub(self.capacity as u64);
        while matches!(self.deque.front(), Some(&(s, _)) if s < min_seq) {
            self.deque.pop_front();
        }
    }

    /// Minimum over the current window, or `None` if empty.
    pub fn get(&self) -> Option<f64> {
        self.deque.front().map(|&(_, v)| v)
    }

    /// `true` once at least `capacity` values have been observed, i.e. the
    /// window is fully populated and its minimum is trustworthy.
    pub fn full(&self) -> bool {
        self.next_seq >= self.capacity as u64
    }

    /// Window capacity in samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears all state (used when re-basing after a confirmed level shift).
    pub fn clear(&mut self) {
        self.deque.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_min_expires_old_values() {
        let mut w = SlidingMin::new(3);
        w.push(1.0);
        w.push(5.0);
        w.push(6.0);
        assert_eq!(w.get(), Some(1.0));
        w.push(7.0); // 1.0 falls out
        assert_eq!(w.get(), Some(5.0));
        w.push(8.0);
        w.push(9.0);
        assert_eq!(w.get(), Some(7.0));
    }

    #[test]
    fn sliding_min_matches_naive() {
        // cross-check against a brute-force window for a pseudo-random series
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i as f64 * 1.618).sin() * 100.0).round())
            .collect();
        let cap = 17;
        let mut w = SlidingMin::new(cap);
        for (i, &x) in xs.iter().enumerate() {
            w.push(x);
            let lo = i.saturating_sub(cap - 1);
            let naive = xs[lo..=i]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(w.get(), Some(naive), "mismatch at i={i}");
        }
    }

    #[test]
    fn sliding_min_full_flag() {
        let mut w = SlidingMin::new(2);
        assert!(!w.full());
        w.push(1.0);
        assert!(!w.full());
        w.push(1.0);
        assert!(w.full());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SlidingMin::new(0);
    }

    #[test]
    fn sliding_min_detects_upward_shift() {
        // The level-shift use-case: minimum over the window rises once all
        // pre-shift samples have been expired, even with congestion spikes.
        let mut w = SlidingMin::new(10);
        for _ in 0..20 {
            w.push(1.0 + 0.5); // pre-shift with noise
            w.push(1.0);
        }
        assert_eq!(w.get(), Some(1.0));
        for i in 0..20 {
            w.push(2.0 + (i % 3) as f64 * 0.3); // post-shift
        }
        assert_eq!(w.get(), Some(2.0));
    }

    #[test]
    fn sliding_min_clear() {
        let mut w = SlidingMin::new(4);
        w.push(1.0);
        w.clear();
        assert_eq!(w.get(), None);
        assert!(!w.full());
    }
}
