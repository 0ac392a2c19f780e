//! Log2-bucketed histogram for latency/size distributions.
//!
//! This is the shared bucketing math behind the telemetry plane's
//! lock-free histograms (`tsc-telemetry` snapshots its atomic bucket
//! arrays into this type) and is usable standalone wherever a cheap,
//! merge-friendly distribution summary is wanted.
//!
//! Bucketing: bucket `0` holds exactly the value `0`; bucket `i ≥ 1`
//! holds values in `[2^(i-1), 2^i − 1]`. With 65 buckets the full `u64`
//! range is covered, `bucket_of` is branch-light (`leading_zeros`), and
//! two histograms merge by elementwise addition — order-independent, the
//! same contract the fleet pool's per-worker counters rely on.

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
pub const LOG2_BUCKETS: usize = 65;

/// Bucket index for a value: `0` for `0`, else `64 − leading_zeros(v)`
/// (i.e. one plus the position of the highest set bit).
#[inline]
pub fn log2_bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`: `0` for bucket 0, else `2^i − 1`
/// (saturating to `u64::MAX` for the top bucket).
#[inline]
pub fn log2_bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size log2-bucketed histogram with exact count and sum.
///
/// Quantiles are extracted from bucket boundaries, so they are upper
/// bounds accurate to a factor of two — plenty for the "is seal time
/// microseconds or milliseconds" questions telemetry answers, and the
/// price of an allocation-free, lock-free-mergeable representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Builds a histogram directly from raw bucket counts plus exact
    /// count/sum — the bridge from `tsc-telemetry`'s atomic snapshot.
    pub fn from_parts(counts: [u64; LOG2_BUCKETS], count: u64, sum: u64) -> Self {
        Self { counts, count, sum }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[log2_bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Elementwise merge: afterwards `self` summarizes both inputs.
    /// Addition is commutative and associative, so merge order never
    /// changes the result.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (wrapping) sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64; LOG2_BUCKETS] {
        &self.counts
    }

    /// Quantile upper bound: the inclusive upper boundary of the first
    /// bucket whose cumulative count reaches `q` of the total (`q`
    /// clamped to `[0, 1]`; `0` when empty). `quantile(1.0)` bounds the
    /// maximum recorded value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q=0 maps to rank 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return log2_bucket_bound(i);
            }
        }
        log2_bucket_bound(LOG2_BUCKETS - 1)
    }

    /// Inclusive upper bound of the highest non-empty bucket (`0` when
    /// empty) — a factor-of-two bound on the maximum recorded value.
    pub fn max_bound(&self) -> u64 {
        for i in (0..LOG2_BUCKETS).rev() {
            if self.counts[i] != 0 {
                return log2_bucket_bound(i);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `n` observations of `v`.
    fn record_n(h: &mut Log2Histogram, v: u64, n: u64) {
        for _ in 0..n {
            h.record(v);
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(log2_bucket_of(0), 0);
        assert_eq!(log2_bucket_of(1), 1);
        assert_eq!(log2_bucket_of(2), 2);
        assert_eq!(log2_bucket_of(3), 2);
        assert_eq!(log2_bucket_of(4), 3);
        assert_eq!(log2_bucket_of(1023), 10);
        assert_eq!(log2_bucket_of(1024), 11);
        assert_eq!(log2_bucket_of(u64::MAX), 64);
        // Every value lands in the bucket whose bound contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let b = log2_bucket_of(v);
            assert!(v <= log2_bucket_bound(b));
            if b > 0 {
                assert!(v > log2_bucket_bound(b - 1));
            }
        }
    }

    #[test]
    fn count_sum_mean() {
        let mut h = Log2Histogram::new();
        assert!(h.is_empty());
        for v in [1u64, 2, 3, 10] {
            h.record(v);
        }
        record_n(&mut h, 4, 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 2 + 3 + 10 + 8);
        assert!((h.mean() - 24.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let vals_a = [0u64, 1, 5, 5, 900, 1 << 20];
        let vals_b = [2u64, 2, 7, 1 << 33, u64::MAX];
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut all = Log2Histogram::new();
        for &v in &vals_a {
            a.record(v);
            all.record(v);
        }
        for &v in &vals_b {
            b.record(v);
            all.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Merge equals recording everything into one histogram, in
        // either merge order.
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn quantiles_are_factor_of_two_upper_bounds() {
        let mut h = Log2Histogram::new();
        // 100 observations of 100 ⇒ every quantile sits in bucket 7
        // (64..=127).
        record_n(&mut h, 100, 100);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 127);
        }

        // A skewed distribution: 90 fast (≈1 µs), 10 slow (≈1 ms).
        let mut h = Log2Histogram::new();
        record_n(&mut h, 1_000, 90);
        record_n(&mut h, 1_000_000, 10);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        assert!((1_000..2_048).contains(&p50), "p50 = {p50}");
        assert!((1_000_000..2_097_152).contains(&p95), "p95 = {p95}");
        // And the bound property holds: value ≤ quantile bound.
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(h.max_bound(), h.quantile(1.0));
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        let mut h = Log2Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
