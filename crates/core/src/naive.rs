//! The naive (unfiltered) estimators of §4 — the baselines the robust
//! algorithms are measured against in Figures 5 and 6, and the building
//! blocks (per-packet `θ̂ᵢ`) the weighted offset algorithm filters.

use crate::exchange::RawExchange;

/// Naive per-packet-pair rate estimate from the forward path
/// (equation (17)): `p̂→ = (Tb,i − Tb,j) / (Ta,i − Ta,j)`.
///
/// Returns `None` when the counter baseline is zero (same packet).
pub fn naive_rate_forward(j: &RawExchange, i: &RawExchange) -> Option<f64> {
    let dc = i.ta_tsc.wrapping_sub(j.ta_tsc) as i64 as f64;
    if dc == 0.0 {
        return None;
    }
    Some((i.tb - j.tb) / dc)
}

/// Naive backward-path rate estimate: `p̂← = (Te,i − Te,j) / (Tf,i − Tf,j)`.
pub fn naive_rate_backward(j: &RawExchange, i: &RawExchange) -> Option<f64> {
    let dc = i.tf_tsc.wrapping_sub(j.tf_tsc) as i64 as f64;
    if dc == 0.0 {
        return None;
    }
    Some((i.te - j.te) / dc)
}

/// The combined naive rate estimate of §4.1: the average of the forward and
/// backward estimates, `p̂ = (p̂→ + p̂←)/2`.
pub fn naive_rate(j: &RawExchange, i: &RawExchange) -> Option<f64> {
    match (naive_rate_forward(j, i), naive_rate_backward(j, i)) {
        (Some(f), Some(b)) => Some(0.5 * (f + b)),
        _ => None,
    }
}

/// Naive per-packet offset estimate (equation (19)):
/// `θ̂ᵢ = ½(C(Ta,i) + C(Tf,i)) − ½(Tb,i + Te,i)`
/// where `C(T) = T·p̂ + C̄` is the uncorrected TSC clock. Implicitly assumes
/// path asymmetry Δ = 0 (midpoint alignment).
#[inline]
pub fn naive_offset(e: &RawExchange, p_hat: f64, c_bar: f64) -> f64 {
    e.host_midpoint_counts() * p_hat + c_bar - e.server_midpoint()
}

/// The quality-pair rate estimate used by both the global and local rate
/// algorithms (§5.2): identical to [`naive_rate`] but packaged with its
/// error bound `(Ei + Ej) / Δt` given the two packets' point errors and the
/// elapsed host time `Δt = (Tf,i − Tf,j)·p̄` (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEstimate {
    /// The rate estimate (seconds per count).
    pub p_hat: f64,
    /// Upper bound on its relative error: `(Ei + Ej)/Δt`.
    pub error_bound: f64,
    /// The baseline `Δt` in seconds.
    pub baseline: f64,
}

/// Computes a [`PairEstimate`] from packets `j` (older) and `i` (newer) with
/// point errors `ej`, `ei` (seconds), using `p_ref` to convert the counter
/// baseline to seconds. Returns `None` on a degenerate pair.
pub fn pair_estimate(
    j: &RawExchange,
    i: &RawExchange,
    ej: f64,
    ei: f64,
    p_ref: f64,
) -> Option<PairEstimate> {
    let p_hat = naive_rate(j, i)?;
    if !(p_hat.is_finite() && p_hat > 0.0) {
        return None;
    }
    let baseline = i.tf_tsc.wrapping_sub(j.tf_tsc) as i64 as f64 * p_ref;
    if baseline <= 0.0 {
        return None;
    }
    Some(PairEstimate {
        p_hat,
        error_bound: (ei + ej) / baseline,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an exchange for a host with true period `p` (s/count), skewed
    /// counter, symmetric path of one-way delay `d`, server residence `s`,
    /// polled at true time `t`.
    fn ideal_exchange(t: f64, p: f64, d: f64, s: f64) -> RawExchange {
        let count = |tt: f64| (tt / p).round() as u64;
        RawExchange {
            ta_tsc: count(t),
            tb: t + d,
            te: t + d + s,
            tf_tsc: count(t + 2.0 * d + s),
        }
    }

    const P: f64 = 1.0000501e-9; // ~1 GHz with +50.1 PPM skew

    #[test]
    fn naive_rate_recovers_true_period() {
        let j = ideal_exchange(0.0, P, 500e-6, 20e-6);
        let i = ideal_exchange(1000.0, P, 500e-6, 20e-6);
        let p = naive_rate(&j, &i).unwrap();
        assert!(
            ((p - P) / P).abs() < 1e-9,
            "rate rel error {:.2e}",
            (p - P) / P
        );
    }

    #[test]
    fn queueing_noise_biases_naive_rate_at_small_baseline() {
        // packet i suffers 5 ms of forward queueing: the estimate over a
        // 16 s baseline is off by ~5ms/16s ≈ 300 PPM, as Figure 5 shows.
        let j = ideal_exchange(0.0, P, 500e-6, 20e-6);
        let mut i = ideal_exchange(16.0, P, 500e-6, 20e-6);
        i.tb += 5e-3;
        i.te += 5e-3;
        let pf = naive_rate_forward(&j, &i).unwrap();
        let rel = (pf - P) / P;
        assert!(rel > 100e-6, "expected large positive bias, got {rel:.2e}");
        // over a day the same noise is damped to ~0.06 PPM
        let mut i2 = ideal_exchange(86_400.0, P, 500e-6, 20e-6);
        i2.tb += 5e-3;
        let rel2 = (naive_rate_forward(&j, &i2).unwrap() - P) / P;
        assert!(rel2.abs() < 0.1e-6, "damped error {rel2:.2e}");
    }

    #[test]
    fn degenerate_pairs_are_rejected() {
        let e = ideal_exchange(0.0, P, 1e-3, 1e-5);
        assert!(naive_rate(&e, &e).is_none());
        assert!(pair_estimate(&e, &e, 0.0, 0.0, 1e-9).is_none());
    }

    #[test]
    fn naive_offset_zero_for_aligned_clock() {
        let e = ideal_exchange(100.0, P, 500e-6, 20e-6);
        // choose C̄ so the clock is perfectly aligned at this packet
        let c_bar = e.server_midpoint() - e.host_midpoint_counts() * P;
        let th = naive_offset(&e, P, c_bar);
        assert!(th.abs() < 1e-12);
    }

    #[test]
    fn naive_offset_sees_asymmetric_queueing() {
        let e0 = ideal_exchange(100.0, P, 500e-6, 20e-6);
        let c_bar = e0.server_midpoint() - e0.host_midpoint_counts() * P;
        // 2 ms of *forward* queueing delays tb/te by 2 ms → server midpoint
        // moves late → θ̂ decreases by ~1 ms (the negative bias of Figure 6)
        let mut e1 = ideal_exchange(200.0, P, 500e-6, 20e-6);
        e1.tb += 2e-3;
        e1.te += 2e-3;
        // tf also late by 2ms of wait: rebuild with total path 2d+s+2ms
        e1.tf_tsc = ((200.0 + 2.0 * 500e-6 + 20e-6 + 2e-3) / P).round() as u64;
        let th = naive_offset(&e1, P, c_bar);
        assert!(
            (th + 1e-3).abs() < 30e-6,
            "expected ≈ −1 ms bias, got {th}"
        );
    }

    #[test]
    fn pair_estimate_error_bound_scales_inversely_with_baseline() {
        let j = ideal_exchange(0.0, P, 500e-6, 20e-6);
        let i_near = ideal_exchange(100.0, P, 500e-6, 20e-6);
        let i_far = ideal_exchange(10_000.0, P, 500e-6, 20e-6);
        let near = pair_estimate(&j, &i_near, 1e-4, 1e-4, P).unwrap();
        let far = pair_estimate(&j, &i_far, 1e-4, 1e-4, P).unwrap();
        assert!(near.error_bound > far.error_bound * 50.0);
        assert!((far.baseline - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn backward_and_forward_agree_on_clean_data() {
        let j = ideal_exchange(0.0, P, 500e-6, 20e-6);
        let i = ideal_exchange(5000.0, P, 500e-6, 20e-6);
        let f = naive_rate_forward(&j, &i).unwrap();
        let b = naive_rate_backward(&j, &i).unwrap();
        assert!(((f - b) / P).abs() < 1e-9);
    }
}
