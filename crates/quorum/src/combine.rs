//! Robust combination of per-server estimates.
//!
//! Per-server absolute-time readings are fused in two stages:
//!
//! 1. **Weighted median** over all candidates (weights = trust scores):
//!    the quorum's consensus reading `m`. The median holder always agrees
//!    with itself, so the included set below is never empty.
//! 2. **Hard exclusion**: any candidate whose reading differs from `m` by
//!    more than its *own* tolerance — derived from its own point-error
//!    bound — is dropped. A lying or silently-asymmetric server looks
//!    healthy by every self-reported figure; only this disagreement test
//!    catches it.
//! 3. **Trimmed weighted mean**: the combined value is `m` plus the
//!    trust-weighted mean of the surviving deviations from `m` — smoother
//!    than the raw median between updates, and *exactly* `m` when all
//!    survivors agree bit-for-bit (the K-identical-servers anchor).

use tscclock::snapshot::{SnapshotReader, SnapshotWriter};
use tscclock::SnapshotError;

/// Tunables of the combiner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinerConfig {
    /// Multiplier on a server's point-error bound in its disagreement
    /// tolerance.
    pub tol_mult: f64,
    /// Additive tolerance floor (seconds): two healthy clocks can
    /// legitimately differ by their own absolute errors.
    pub tol_floor: f64,
}

impl Default for CombinerConfig {
    fn default() -> Self {
        Self {
            tol_mult: 2.0,
            tol_floor: 100e-6,
        }
    }
}

impl CombinerConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tol_mult >= 0.0 && self.tol_floor > 0.0) {
            return Err("tol_mult must be ≥ 0 and tol_floor positive".into());
        }
        Ok(())
    }

    /// A server's disagreement tolerance given its point-error bound.
    pub fn tolerance(&self, point_error_bound: f64) -> f64 {
        self.tol_mult * point_error_bound + self.tol_floor
    }

    /// Serializes the config (snapshot payload, no envelope).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.tol_mult);
        w.put_f64(self.tol_floor);
    }

    /// Deserializes and re-validates a config written by
    /// [`CombinerConfig::save_state`].
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = Self {
            tol_mult: r.get_f64()?,
            tol_floor: r.get_f64()?,
        };
        cfg.validate()
            .map_err(|_| SnapshotError::Invalid("combiner config fails validation"))?;
        Ok(cfg)
    }
}

/// One server's entry into a combination round.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Server index (for the exclusion mask).
    pub server: usize,
    /// The server's absolute-time reading at the round's reference
    /// instant.
    pub value: f64,
    /// The server's rate estimate.
    pub rate: f64,
    /// Combination weight (trust; 0 for demoted servers).
    pub weight: f64,
    /// The server's own disagreement tolerance.
    pub tolerance: f64,
}

/// Result of one combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combination {
    /// The fused absolute-time reading (NaN when `included` is 0).
    pub value: f64,
    /// The fused rate (NaN when `included` is 0).
    pub rate: f64,
    /// Bitmask of candidates excluded for disagreement or for a reading
    /// or rate that is not finite.
    pub excluded_mask: u32,
    /// Number of candidates that survived into the trimmed mean; 0 only
    /// when no candidate had a finite reading and rate.
    pub included: usize,
}

/// Weighted median over `(value, weight)` drawn from `items`: the smallest
/// value whose cumulative weight reaches half the total. Returns one of
/// the input values, or `None` for no items. `scratch` is caller-provided
/// to keep the hot path allocation-free; callers pass finite values and
/// non-negative weights with a positive sum (the order is total, so a
/// value that is not finite cannot panic it either).
fn weighted_median(
    items: impl Iterator<Item = (f64, f64)>,
    scratch: &mut Vec<(f64, f64)>,
) -> Option<f64> {
    scratch.clear();
    scratch.extend(items);
    scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = scratch.iter().map(|c| c.1).sum();
    let half = total / 2.0;
    let mut acc = 0.0;
    for &(v, w) in scratch.iter() {
        acc += w;
        if acc >= half {
            return Some(v);
        }
    }
    scratch.last().map(|c| c.0)
}

/// Runs the robust combination over `candidates` (must be non-empty).
/// A candidate whose reading or rate is not finite is excluded first and
/// counted in the mask. When every remaining candidate carries zero weight
/// (all demoted), the median and mean fall back to equal weights — a
/// quorum of the distrusted beats no clock at all, and the exclusion rule
/// still trims the outliers.
pub fn combine(candidates: &[Candidate], scratch: &mut Vec<(f64, f64)>) -> Combination {
    assert!(!candidates.is_empty(), "combine() needs at least one candidate");
    let finite = |c: &&Candidate| c.value.is_finite() && c.rate.is_finite();
    let mut excluded_mask = candidates
        .iter()
        .filter(|c| !finite(c))
        .fold(0u32, |mask, c| mask | 1 << c.server);
    let any_weight = candidates.iter().filter(finite).any(|c| c.weight > 0.0);
    let w_of = |c: &Candidate| if any_weight { c.weight } else { 1.0 };

    let none = |excluded_mask| Combination {
        value: f64::NAN,
        rate: f64::NAN,
        excluded_mask,
        included: 0,
    };
    let Some(m) = weighted_median(
        candidates.iter().filter(finite).filter(|c| w_of(c) > 0.0).map(|c| (c.value, w_of(c))),
        scratch,
    ) else {
        return none(excluded_mask);
    };

    let (mut dev_sum, mut w_sum, mut included) = (0.0f64, 0.0f64, 0usize);
    for c in candidates.iter().filter(finite) {
        if (c.value - m).abs() > c.tolerance {
            excluded_mask |= 1 << c.server;
            continue;
        }
        let w = w_of(c);
        if w > 0.0 {
            dev_sum += w * (c.value - m);
            w_sum += w;
            included += 1;
        }
    }
    // The median holder is within its own tolerance of itself whenever
    // that tolerance is non-negative, so a weighted candidate survives.
    if included == 0 {
        return none(excluded_mask);
    }

    let value = m + dev_sum / w_sum;
    let rate = weighted_median(
        candidates
            .iter()
            .filter(|c| excluded_mask & (1 << c.server) == 0 && w_of(c) > 0.0)
            .map(|c| (c.rate, w_of(c))),
        scratch,
    )
    .unwrap_or(f64::NAN);
    Combination {
        value,
        rate,
        excluded_mask,
        included,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(server: usize, value: f64, weight: f64, tol: f64) -> Candidate {
        Candidate {
            server,
            value,
            rate: 1e-9 + server as f64 * 1e-15,
            weight,
            tolerance: tol,
        }
    }

    fn run(cands: &[Candidate]) -> Combination {
        combine(cands, &mut Vec::new())
    }

    #[test]
    fn identical_candidates_combine_exactly() {
        // the anchor property: all values bit-equal ⇒ output bit-equal
        let v = 123.456_789_012_345_67;
        let c = run(&[
            cand(0, v, 0.9, 1e-4),
            cand(1, v, 0.5, 1e-4),
            cand(2, v, 0.7, 1e-4),
        ]);
        assert_eq!(c.value.to_bits(), v.to_bits());
        assert_eq!(c.excluded_mask, 0);
        assert_eq!(c.included, 3);
    }

    #[test]
    fn single_candidate_passes_through() {
        let c = run(&[cand(2, 42.0, 0.8, 1e-4)]);
        assert_eq!(c.value, 42.0);
        assert_eq!(c.included, 1);
        assert_eq!(c.excluded_mask, 0);
    }

    #[test]
    fn outlier_is_excluded_by_its_own_tolerance() {
        let c = run(&[
            cand(0, 100.000_00, 1.0, 2e-4),
            cand(1, 100.000_05, 1.0, 2e-4),
            cand(2, 100.002_00, 1.0, 2e-4), // 2 ms off, tol 200 µs
        ]);
        assert_eq!(c.excluded_mask, 0b100);
        assert_eq!(c.included, 2);
        assert!((c.value - 100.000_025).abs() < 1e-4);
        // the outlier cannot drag the combined value
        assert!((c.value - 100.002).abs() > 1e-3);
    }

    #[test]
    fn majority_wins_against_two_colluding_outliers() {
        // 3 honest vs 2 biased-the-same-way: the weighted median sits in
        // the honest cluster, so both liars are excluded.
        let c = run(&[
            cand(0, 10.000_00, 1.0, 2e-4),
            cand(1, 10.000_02, 1.0, 2e-4),
            cand(2, 10.000_04, 1.0, 2e-4),
            cand(3, 10.005_00, 1.0, 2e-4),
            cand(4, 10.005_02, 1.0, 2e-4),
        ]);
        assert_eq!(c.excluded_mask, 0b11000);
        assert!((c.value - 10.000_02).abs() < 1e-4);
    }

    #[test]
    fn weights_steer_the_median() {
        // Two clusters; the trusted one holds the median even though the
        // other has more members.
        let c = run(&[
            cand(0, 5.000_0, 0.9, 1e-4),
            cand(1, 5.010_0, 0.1, 1e-4),
            cand(2, 5.010_1, 0.1, 1e-4),
            cand(3, 5.010_2, 0.1, 1e-4),
        ]);
        assert!((c.value - 5.0).abs() < 1e-3, "value {}", c.value);
        assert_eq!(c.excluded_mask, 0b1110);
    }

    #[test]
    fn all_demoted_falls_back_to_equal_weights() {
        let c = run(&[
            cand(0, 7.000_0, 0.0, 2e-4),
            cand(1, 7.000_1, 0.0, 2e-4),
            cand(2, 7.020_0, 0.0, 2e-4),
        ]);
        assert_eq!(c.excluded_mask, 0b100, "outlier still trimmed");
        assert!((c.value - 7.000_05).abs() < 1e-4);
    }

    #[test]
    fn zero_weight_candidate_is_judged_but_not_counted() {
        let c = run(&[
            cand(0, 3.000_00, 1.0, 2e-4),
            cand(1, 3.000_02, 1.0, 2e-4),
            cand(2, 3.000_04, 0.0, 2e-4), // demoted but agreeing
        ]);
        assert_eq!(c.excluded_mask, 0, "agreeing demoted server not 'excluded'");
        assert_eq!(c.included, 2, "but it carries no weight");
    }

    #[test]
    fn a_non_finite_member_is_excluded_not_a_panic() {
        let (a, b) = (cand(0, 7.000_00, 1.0, 2e-4), cand(1, 7.000_02, 1.0, 2e-4));
        let clean = run(&[a, b]);
        for (bad_value, bad_rate) in [(f64::NAN, 1e-9), (7.0, f64::NAN), (f64::INFINITY, 1e-9)] {
            let mut bad = cand(2, bad_value, 1.0, 2e-4);
            bad.rate = bad_rate;
            let c = run(&[a, bad, b]);
            assert_eq!(c.excluded_mask, 0b100, "{bad_value} / {bad_rate}");
            assert_eq!((c.value, c.rate, c.included), (clean.value, clean.rate, 2));
        }
        // nothing finite to combine: no combination, every member counted
        let c = run(&[cand(0, f64::NAN, 1.0, 2e-4), cand(1, f64::NAN, 0.0, 2e-4)]);
        assert_eq!((c.included, c.excluded_mask), (0, 0b11));
        assert!(c.value.is_nan() && c.rate.is_nan());
    }

    #[test]
    fn rate_is_fused_from_survivors_only() {
        let mut bad = cand(2, 100.002, 1.0, 2e-4);
        bad.rate = 2e-9; // wildly wrong rate on the excluded server
        let c = run(&[cand(0, 100.0, 1.0, 2e-4), cand(1, 100.0, 1.0, 2e-4), bad]);
        assert!(c.rate < 1.5e-9, "excluded server's rate must not leak in");
    }

    #[test]
    fn tolerance_formula_scales_with_bound() {
        let cfg = CombinerConfig::default();
        assert!(cfg.validate().is_ok());
        let t = cfg.tolerance(50e-6);
        assert!((t - (2.0 * 50e-6 + 100e-6)).abs() < 1e-12);
        let mut bad = cfg;
        bad.tol_floor = 0.0;
        assert!(bad.validate().is_err());
    }
}
