//! Allan variance and Allan deviation.
//!
//! §3.1 of the paper characterizes oscillator stability through the Allan
//! variance of the time-scale-dependent rate `y_τ(t) = (θ(t+τ) − θ(t))/τ`
//! (equation (4)), computed over a log-spaced sweep of `τ` (Figure 3).
//! The square root — the **Allan deviation** — is read as "the typical size
//! of variations of time-scale dependent rate".
//!
//! Given regularly sampled *phase* (time-error) data `x_i = θ(i·τ0)`, the
//! overlapping Allan variance at `τ = m·τ0` is
//!
//! ```text
//! AVAR(τ) = 1 / (2 τ² (N − 2m)) · Σ_{i=0}^{N-2m-1} (x_{i+2m} − 2 x_{i+m} + x_i)²
//! ```
//!
//! which is exactly the Haar-wavelet spectral estimate the paper cites
//! (footnote ‡ of §3.1).

/// One point of an Allan-deviation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllanPoint {
    /// Averaging time-scale τ in seconds.
    pub tau: f64,
    /// Allan deviation at this τ (dimensionless fractional frequency,
    /// multiply by 1e6 for PPM).
    pub adev: f64,
    /// Number of squared second differences averaged.
    pub samples: usize,
}

/// Overlapping Allan variance of phase data `phase` (seconds of time error)
/// sampled every `tau0` seconds, at multiplier `m` (τ = m·τ0).
///
/// Returns `None` when there are not enough samples (needs `N ≥ 2m + 1`)
/// or the arguments are degenerate.
pub fn allan_variance(phase: &[f64], tau0: f64, m: usize) -> Option<f64> {
    if m == 0 || tau0 <= 0.0 || phase.len() < 2 * m + 1 {
        return None;
    }
    let n_terms = phase.len() - 2 * m;
    let tau = m as f64 * tau0;
    let mut acc = 0.0;
    for i in 0..n_terms {
        let d = phase[i + 2 * m] - 2.0 * phase[i + m] + phase[i];
        acc += d * d;
    }
    Some(acc / (2.0 * tau * tau * n_terms as f64))
}

/// Overlapping Allan deviation (square root of [`allan_variance`]).
pub fn allan_deviation(phase: &[f64], tau0: f64, m: usize) -> Option<f64> {
    allan_variance(phase, tau0, m).map(f64::sqrt)
}

/// Computes an Allan-deviation sweep over approximately log-spaced τ values
/// between `tau0` and `tau0 * (N/2)`, with `points_per_decade` points per
/// decade — the format of Figure 3.
pub fn allan_sweep(phase: &[f64], tau0: f64, points_per_decade: usize) -> Vec<AllanPoint> {
    let mut out = Vec::new();
    if phase.len() < 3 || tau0 <= 0.0 || points_per_decade == 0 {
        return out;
    }
    let max_m = (phase.len() - 1) / 2;
    let mut seen = std::collections::BTreeSet::new();
    let decades = (max_m as f64).log10();
    let total_points = (decades * points_per_decade as f64).ceil() as usize + 1;
    for k in 0..=total_points {
        let m = 10f64
            .powf(k as f64 / points_per_decade as f64)
            .round()
            .max(1.0) as usize;
        if m > max_m || !seen.insert(m) {
            continue;
        }
        if let Some(av) = allan_variance(phase, tau0, m) {
            out.push(AllanPoint {
                tau: m as f64 * tau0,
                adev: av.sqrt(),
                samples: phase.len() - 2 * m,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// White *frequency* noise has ADEV(τ) ∝ τ^{-1/2}; white *phase* noise
    /// (which dominates the paper's small scales via timestamping error)
    /// has ADEV(τ) ∝ τ^{-1}. A pure linear phase ramp (constant skew) has
    /// ADEV = 0. These canonical shapes validate the implementation.
    #[test]
    fn constant_skew_has_zero_adev() {
        let gamma = 50e-6; // 50 PPM, typical CPU skew per §2.1
        let phase: Vec<f64> = (0..1000).map(|i| gamma * i as f64).collect();
        for m in [1, 2, 5, 10, 100] {
            let a = allan_deviation(&phase, 1.0, m).unwrap();
            assert!(a.abs() < 1e-15, "ADEV of linear ramp must vanish, got {a}");
        }
    }

    #[test]
    fn quadratic_drift_has_constant_allan_deviation_equal_to_drift_rate_tau() {
        // x(t) = 0.5 D t² → second difference = D τ², ADEV = D·τ/√2.
        let d = 1e-9;
        let phase: Vec<f64> = (0..2000).map(|i| 0.5 * d * (i as f64).powi(2)).collect();
        for m in [1usize, 4, 16] {
            let tau = m as f64;
            let a = allan_deviation(&phase, 1.0, m).unwrap();
            let expect = d * tau / 2f64.sqrt();
            assert!(
                (a - expect).abs() / expect < 1e-9,
                "m={m}: {a} vs {expect}"
            );
        }
    }

    #[test]
    fn white_phase_noise_scales_inverse_tau() {
        // Deterministic pseudo-noise: a fixed irrational-rotation sequence
        // behaves like white noise for this purpose without needing rand.
        let phase: Vec<f64> = (0..40000)
            .map(|i| ((i as f64 * 0.618033988749895).fract() - 0.5) * 1e-6)
            .collect();
        let a1 = allan_deviation(&phase, 1.0, 4).unwrap();
        let a2 = allan_deviation(&phase, 1.0, 64).unwrap();
        let ratio = a1 / a2;
        // expect ratio ≈ 16 (1/τ scaling); allow generous tolerance
        assert!(
            ratio > 8.0 && ratio < 32.0,
            "white PM should fall ~1/τ, ratio={ratio}"
        );
    }

    #[test]
    fn insufficient_data_returns_none() {
        assert_eq!(allan_variance(&[0.0, 1.0], 1.0, 1), None);
        assert_eq!(allan_variance(&[0.0; 10], 1.0, 5), None);
        assert_eq!(allan_variance(&[0.0; 11], 1.0, 0), None);
        assert_eq!(allan_variance(&[0.0; 11], 0.0, 1), None);
        assert!(allan_variance(&[0.0; 11], 1.0, 5).is_some());
    }

    #[test]
    fn sweep_is_monotone_in_tau_and_dedups() {
        let phase: Vec<f64> = (0..5000)
            .map(|i| ((i as f64 * 0.7548776662).fract() - 0.5) * 1e-6)
            .collect();
        let sweep = allan_sweep(&phase, 1.0, 4);
        assert!(sweep.len() > 5);
        for w in sweep.windows(2) {
            assert!(w[1].tau > w[0].tau, "taus must strictly increase");
        }
        // all sample counts consistent
        for p in &sweep {
            assert_eq!(p.samples, 5000 - 2 * (p.tau as usize));
        }
    }

    #[test]
    fn sweep_of_tiny_input_is_empty() {
        assert!(allan_sweep(&[0.0, 1.0], 1.0, 4).is_empty());
        assert!(allan_sweep(&[0.0; 100], 1.0, 0).is_empty());
    }

    #[test]
    fn constant_frequency_error_roundtrip() {
        // constant y = γ integrates to a ramp whose ADEV vanishes
        let phase: Vec<f64> = (0..=500).map(|i| 2e-7 * i as f64).collect();
        let a = allan_deviation(&phase, 1.0, 10).unwrap();
        assert!(a < 1e-18);
    }
}
