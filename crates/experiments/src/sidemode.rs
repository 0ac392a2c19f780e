//! Detection and correction of interrupt-latency side modes (§2.4).
//!
//! The histogram of `Tf,i − Tg,i` has a dominant mode centred at zero
//! (width ≈ 5 µs) plus "small but clearly defined side modes" at about
//! +10 µs and +31 µs caused by interrupt latencies, and rare large outliers
//! from scheduling errors. The paper corrects the side modes and excludes
//! the outliers before using `Tf` as "corrected" timestamps. This module
//! reproduces that procedure from the data itself (no hard-coded mode
//! positions): find the dominant mode, then find significant secondary
//! modes, then subtract each sample's mode centre.

/// Result of side-mode detection on a set of `Tf − Tg` differences.
#[derive(Debug, Clone, PartialEq)]
pub struct SideModeReport {
    /// Centre of the dominant mode (seconds).
    primary: f64,
    /// Centres of detected secondary modes, relative to zero (seconds),
    /// sorted ascending.
    side_modes: Vec<f64>,
    /// Number of samples classified as large outliers (scheduling errors).
    outliers: usize,
}

/// Bin width used for the mode histogram (1 µs: fine enough to separate the
/// 10 µs and 31 µs modes, coarse enough to keep modes as single peaks).
const BIN: f64 = 1e-6;

/// Samples farther than this from any detected mode are scheduling-error
/// outliers (the paper's "large departures due to rare scheduling errors").
const OUTLIER_CUTOFF: f64 = 100e-6;

/// A secondary peak must hold at least this fraction of the primary mode's
/// mass to count as a genuine side mode rather than noise.
const SIDE_MODE_MIN_FRACTION: f64 = 0.01;

/// Half-width when associating samples to a mode centre.
const MODE_HALF_WIDTH: f64 = 4e-6;

/// Detects the dominant mode and any significant side modes of `diffs`.
/// Returns `None` when `diffs` is empty or all-NaN.
fn detect_modes(diffs: &[f64]) -> Option<SideModeReport> {
    let finite: Vec<f64> = diffs.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    // Histogram over a window wide enough for the expected modes.
    let lo = -50e-6;
    let hi = 100e-6;
    let nbins = ((hi - lo) / BIN).round() as usize;
    let mut counts = vec![0u64; nbins];
    let mut outliers = 0usize;
    for &d in &finite {
        if d < lo || d >= hi {
            outliers += 1;
            continue;
        }
        counts[((d - lo) / BIN) as usize] += 1;
    }
    // Dominant mode: highest bin, refined by the centroid of its ±4 µs
    // neighbourhood.
    let (peak_idx, &peak_count) = counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
    if peak_count == 0 {
        return Some(SideModeReport {
            primary: 0.0,
            side_modes: vec![],
            outliers,
        });
    }
    let centroid = |idx: usize| -> f64 {
        let w = (MODE_HALF_WIDTH / BIN) as usize;
        let a = idx.saturating_sub(w);
        let b = (idx + w + 1).min(nbins);
        let mut mass = 0.0;
        let mut sum = 0.0;
        for (i, &c) in counts[a..b].iter().enumerate() {
            let centre = lo + (a + i) as f64 * BIN + BIN / 2.0;
            mass += c as f64;
            sum += centre * c as f64;
        }
        if mass > 0.0 {
            sum / mass
        } else {
            lo + idx as f64 * BIN + BIN / 2.0
        }
    };
    let primary = centroid(peak_idx);

    // Side modes: local maxima at least MODE_HALF_WIDTH*2 away from the
    // primary, holding enough relative mass.
    let mut side = Vec::new();
    let min_count = ((peak_count as f64) * SIDE_MODE_MIN_FRACTION).max(3.0) as u64;
    let sep_bins = (2.0 * MODE_HALF_WIDTH / BIN) as usize;
    for i in 1..nbins - 1 {
        if counts[i] >= min_count
            && counts[i] >= counts[i - 1]
            && counts[i] >= counts[i + 1]
            && i.abs_diff(peak_idx) > sep_bins
        {
            let c = centroid(i);
            // merge peaks that refine to nearly the same centre
            if side
                .iter()
                .all(|&s: &f64| (s - c).abs() > 2.0 * MODE_HALF_WIDTH)
                && (c - primary).abs() > 2.0 * MODE_HALF_WIDTH
            {
                side.push(c);
            }
        }
    }
    side.sort_by(|a, b| a.partial_cmp(b).expect("finite centres"));
    Some(SideModeReport {
        primary,
        side_modes: side,
        outliers,
    })
}

/// Corrects `diffs`-style errors out of host timestamps.
///
/// Given raw host timestamps `tf` and reference timestamps `tg` (already
/// first-bit corrected), returns corrected `tf` values: each sample is
/// associated to its nearest detected mode and that mode's offset removed;
/// samples beyond the 100 µs outlier cutoff of every mode are replaced by
/// `tg + primary` (i.e. excluded and reconstructed from the reference, as
/// the paper excludes scheduling errors).
fn correct_side_modes(tf: &[f64], tg: &[f64]) -> (Vec<f64>, SideModeReport) {
    assert_eq!(tf.len(), tg.len(), "timestamp series must align");
    let diffs: Vec<f64> = tf.iter().zip(tg).map(|(&f, &g)| f - g).collect();
    let report = detect_modes(&diffs).unwrap_or(SideModeReport {
        primary: 0.0,
        side_modes: vec![],
        outliers: 0,
    });
    let mut centres = vec![report.primary];
    centres.extend(&report.side_modes);
    let corrected = tf
        .iter()
        .zip(&diffs)
        .map(|(&f, &d)| {
            // nearest mode centre
            let nearest = centres
                .iter()
                .copied()
                .min_by(|a, b| {
                    (d - a)
                        .abs()
                        .partial_cmp(&(d - b).abs())
                        .expect("finite distances")
                })
                .unwrap_or(0.0);
            if (d - nearest).abs() > OUTLIER_CUTOFF {
                // scheduling error: reconstruct from reference + primary mode
                f - d + report.primary
            } else {
                f - (nearest - report.primary)
            }
        })
        .collect();
    (corrected, report)
}

/// Side-mode correction for series where `tf` is measured by a *drifting*
/// clock (the §3.1 use-case: months of trace where the host clock wanders by
/// far more than the latency modes).
///
/// §2.4 examines "the difference, **with respect to i**, of the measured
/// offset discrepancy `Tf,i − Tg,i`" — i.e. the clock wander is removed by
/// differencing before the modes are identified. Equivalently, we remove a
/// rolling-median baseline (the wander is negligible within a ~100-packet
/// window) and classify the residuals exactly as [`correct_side_modes`]
/// does.
pub fn correct_side_modes_drifting(
    tf: &[f64],
    tg: &[f64],
    window: usize,
) -> (Vec<f64>, SideModeReport) {
    assert_eq!(tf.len(), tg.len(), "timestamp series must align");
    let n = tf.len();
    let w = window.max(5) | 1; // odd window
    if n < w {
        return correct_side_modes(tf, tg);
    }
    let diffs: Vec<f64> = tf.iter().zip(tg).map(|(&f, &g)| f - g).collect();
    // rolling median baseline
    let half = w / 2;
    let mut baseline = Vec::with_capacity(n);
    let mut buf: Vec<f64> = Vec::with_capacity(w);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        buf.clear();
        buf.extend_from_slice(&diffs[lo..hi]);
        buf.sort_by(|a, b| a.partial_cmp(b).expect("finite diffs"));
        baseline.push(buf[buf.len() / 2]);
    }
    let residuals: Vec<f64> = diffs
        .iter()
        .zip(&baseline)
        .map(|(&d, &b)| d - b)
        .collect();
    let report = detect_modes(&residuals).unwrap_or(SideModeReport {
        primary: 0.0,
        side_modes: vec![],
        outliers: 0,
    });
    let mut centres = vec![report.primary];
    centres.extend(&report.side_modes);
    let corrected = tf
        .iter()
        .zip(&residuals)
        .zip(&baseline)
        .map(|((&f, &res), &base)| {
            let nearest = centres
                .iter()
                .copied()
                .min_by(|a, b| {
                    (res - a)
                        .abs()
                        .partial_cmp(&(res - b).abs())
                        .expect("finite distances")
                })
                .unwrap_or(0.0);
            let _ = base;
            if (res - nearest).abs() > OUTLIER_CUTOFF {
                // scheduling error: snap back to the local baseline level
                f - res + report.primary
            } else {
                f - (nearest - report.primary)
            }
        })
        .collect();
    (corrected, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic Tf−Tg population mimicking §2.4: a dominant mode
    /// at 0 of width 5 µs, side modes at 10 µs and 31 µs, plus outliers.
    fn synthetic(n: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let u = (i as f64 * 0.754877666) % 1.0; // deterministic pseudo-uniform
            let jitter = ((i as f64 * 0.381966011).fract() - 0.5) * 4e-6;
            if u < 0.90 {
                v.push(jitter); // primary mode, width ~4µs
            } else if u < 0.95 {
                v.push(10e-6 + jitter * 0.4);
            } else if u < 0.99 {
                v.push(31e-6 + jitter * 0.4);
            } else {
                v.push(2e-3 + jitter); // scheduling outlier
            }
        }
        v
    }

    #[test]
    fn detects_primary_and_side_modes() {
        let diffs = synthetic(20_000);
        let r = detect_modes(&diffs).unwrap();
        assert!(r.primary.abs() < 2e-6, "primary at {}", r.primary);
        assert_eq!(r.side_modes.len(), 2, "found {:?}", r.side_modes);
        assert!((r.side_modes[0] - 10e-6).abs() < 3e-6);
        assert!((r.side_modes[1] - 31e-6).abs() < 3e-6);
        assert!(r.outliers > 0);
    }

    #[test]
    fn correction_collapses_modes() {
        let n = 20_000;
        let diffs = synthetic(n);
        let tg: Vec<f64> = (0..n).map(|i| i as f64 * 16.0).collect();
        let tf: Vec<f64> = tg.iter().zip(&diffs).map(|(&g, &d)| g + d).collect();
        let (corrected, _r) = correct_side_modes(&tf, &tg);
        // After correction, residuals should all be within the primary width.
        let mut max_abs: f64 = 0.0;
        for (c, g) in corrected.iter().zip(&tg) {
            max_abs = max_abs.max((c - g).abs());
        }
        assert!(
            max_abs < 6e-6,
            "post-correction residual too large: {max_abs}"
        );
    }

    #[test]
    fn no_side_modes_in_clean_data() {
        let diffs: Vec<f64> = (0..5000)
            .map(|i| ((i as f64 * 0.618).fract() - 0.5) * 3e-6)
            .collect();
        let r = detect_modes(&diffs).unwrap();
        assert!(r.primary.abs() < 2e-6);
        assert!(r.side_modes.is_empty(), "spurious modes: {:?}", r.side_modes);
        assert_eq!(r.outliers, 0);
    }

    #[test]
    fn empty_input() {
        assert!(detect_modes(&[]).is_none());
        assert!(detect_modes(&[f64::NAN]).is_none());
    }

    #[test]
    fn correction_of_identical_series_is_identity_like() {
        let tg: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (c, r) = correct_side_modes(&tg.clone(), &tg);
        for (a, b) in c.iter().zip(&tg) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(r.side_modes.is_empty());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        correct_side_modes(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn drifting_clock_modes_are_corrected() {
        // clock wander of ±2 ms over the trace (≫ the 31 µs mode) plus the
        // three-mode latency structure
        let n = 20_000;
        let tg: Vec<f64> = (0..n).map(|i| i as f64 * 16.0).collect();
        let mut tf = Vec::with_capacity(n);
        for (i, &tg_i) in tg.iter().enumerate() {
            let wander = 2e-3 * (i as f64 / n as f64 * std::f64::consts::TAU).sin();
            let u = (i as f64 * 0.754877666) % 1.0;
            let jitter = ((i as f64 * 0.381966011).fract() - 0.5) * 3e-6;
            let mode = if u < 0.92 {
                0.0
            } else if u < 0.96 {
                10e-6
            } else {
                31e-6
            };
            tf.push(tg_i + wander + mode + jitter);
        }
        let (corr, report) = correct_side_modes_drifting(&tf, &tg, 101);
        assert_eq!(report.side_modes.len(), 2, "{:?}", report.side_modes);
        // after correction, residuals about the wander are within jitter
        for i in 200..n - 200 {
            let wander = 2e-3 * (i as f64 / n as f64 * std::f64::consts::TAU).sin();
            let res = corr[i] - tg[i] - wander;
            assert!(
                res.abs() < 8e-6,
                "uncorrected mode at {i}: {res}"
            );
        }
    }

    #[test]
    fn drifting_variant_falls_back_on_short_input() {
        let tg = vec![0.0, 1.0, 2.0];
        let (c, _) = correct_side_modes_drifting(&tg.clone(), &tg, 101);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn outliers_are_reconstructed() {
        let n = 1000;
        let tg: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut tf = tg.clone();
        tf[500] += 5e-3; // gross scheduling error
        let (c, r) = correct_side_modes(&tf, &tg);
        assert_eq!(r.outliers, 1);
        // reconstruction is exact up to the 1 µs histogram bin quantization
        // of the primary-mode centre
        assert!(
            (c[500] - tg[500]).abs() < 1e-6,
            "outlier not reconstructed: {}",
            c[500] - tg[500]
        );
    }
}
