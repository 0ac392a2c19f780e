//! Quasi-local rate estimation `p̂l(t)` (§5.2).
//!
//! Local rates serve two optional purposes: extending the usable range of
//! the difference clock, and linear prediction inside the offset estimator
//! (equation (21)). Unlike the global `p̂`, the estimation *time-scale must
//! stay fixed* at `τ̄ = 5τ*`: the window is split into near / central / far
//! sub-windows of widths `τ̄/W`, `τ̄(W−2)/W` and `2τ̄/W`, the best-quality
//! packet is selected in the near and far sub-windows, and the pair
//! estimate is accepted only if its error bound beats the target quality
//! `γ*`; otherwise — and whenever the result would contradict the 0.1 PPM
//! hardware bound (the `3·10⁻⁷` step sanity check) — "the previous value
//! will be duplicated".
//!
//! Each packet scans both sub-windows afresh (≈30 records at poll 16 with
//! the paper's τ̄ and W); nothing but the estimate itself is carried from
//! one packet to the next.

use crate::history::{History, PacketRecord};
use crate::naive::pair_estimate;

/// Events from a local-rate update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalRateEvent {
    /// New estimate accepted.
    Updated,
    /// Candidate exceeded γ* — previous value duplicated (§5.2).
    QualityDuplicated,
    /// Candidate violated the 3·10⁻⁷ step bound — previous value duplicated.
    SanityDuplicated,
    /// Not yet activated (window not full after warm-up).
    Inactive,
}

/// The quasi-local rate estimator.
#[derive(Debug, Clone)]
pub struct LocalRate {
    /// Window length in packets (τ̄ / poll).
    n_bar: usize,
    /// Near sub-window width in packets, τ̄/W (precomputed: pure config).
    near_n: usize,
    /// Far sub-window width in packets, 2τ̄/W (precomputed).
    far_n: usize,
    /// Total span τ̄(W+1)/W in packets (precomputed).
    span: usize,
    /// Target quality γ*.
    gamma_star: f64,
    /// Step sanity bound (3·10⁻⁷).
    rate_sanity: f64,
    /// Activation threshold: packets that must have been admitted
    /// (warm-up + a full window).
    activate_after: u64,
    /// Freshness horizon in seconds (τ̄/2): a data gap longer than this
    /// makes the local rate "out of date and ... not used" (§6.1).
    freshness: f64,
    p_l: Option<f64>,
    /// `Tf` (counts) of the packet at the last update.
    updated_at_tfc: f64,
}

impl LocalRate {
    /// Creates the estimator.
    pub fn new(
        n_bar: usize,
        w_split: usize,
        gamma_star: f64,
        rate_sanity: f64,
        activate_after: u64,
        freshness_seconds: f64,
    ) -> Self {
        assert!(w_split >= 3, "W must be at least 3");
        let n_bar = n_bar.max(w_split);
        let near_n = (n_bar / w_split).max(1);
        let far_n = (2 * n_bar / w_split).max(1);
        Self {
            n_bar,
            near_n,
            far_n,
            span: n_bar + n_bar / w_split,
            gamma_star,
            rate_sanity,
            activate_after,
            freshness: freshness_seconds,
            p_l: None,
            updated_at_tfc: f64::NAN,
        }
    }

    /// Current quasi-local period estimate, if any.
    pub fn p_local(&self) -> Option<f64> {
        self.p_l
    }

    /// Residual rate error `γ̂l = p̂l/p̄ − 1` relative to the global estimate,
    /// or `None` when unavailable or stale at host counter reading `tf_c`
    /// (the §6.1 gap rule).
    pub fn gamma_l(&self, p_bar: f64, tf_c: f64) -> Option<f64> {
        let p_l = self.p_l?;
        if !self.updated_at_tfc.is_finite() {
            return None;
        }
        let age = (tf_c - self.updated_at_tfc) * p_bar;
        if age > self.freshness {
            return None;
        }
        Some(p_l / p_bar - 1.0)
    }

    /// Runs the per-packet update for packet `k`, the newest record of
    /// `history`. `p_ref` is the current global rate estimate.
    pub fn process(&mut self, history: &History, k: &PacketRecord, p_ref: f64) -> LocalRateEvent {
        let len = history.len();
        if history.total_admitted() < self.activate_after || len < self.n_bar {
            return LocalRateEvent::Inactive;
        }
        // Sub-window sizes in packets (§5.2): near τ̄/W, far 2τ̄/W; the far
        // window is the *oldest* part of the (τ̄(W+1)/W)-long span.
        let w = len.min(self.span);
        if w < self.near_n + self.far_n + 1 {
            return LocalRateEvent::Inactive;
        }
        let (far_idx, far_key) = earliest_min(history, len - w, self.far_n);
        let (near_idx, near_key) = earliest_min(history, len - self.near_n, self.near_n);
        if near_idx == far_idx {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        let far_ex = history.get(far_idx).expect("retained").ex;
        let near_ex = history.get(near_idx).expect("retained").ex;
        let (far_pe, near_pe) = (far_key * p_ref, near_key * p_ref);
        let Some(pe) = pair_estimate(&far_ex, &near_ex, far_pe, near_pe, p_ref) else {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        };
        // Quality gate against γ*.
        if pe.error_bound > self.gamma_star {
            return self.duplicate(k, LocalRateEvent::QualityDuplicated);
        }
        // Step sanity against the hardware bound.
        if let Some(prev) = self.p_l {
            if ((pe.p_hat - prev) / prev).abs() > self.rate_sanity {
                return self.duplicate(k, LocalRateEvent::SanityDuplicated);
            }
        }
        self.p_l = Some(pe.p_hat);
        self.updated_at_tfc = k.tf_c();
        LocalRateEvent::Updated
    }

    /// "Conservative" duplication: keep the previous value but refresh its
    /// timestamp (the estimate was re-affirmed at packet `k`).
    fn duplicate(&mut self, k: &PacketRecord, ev: LocalRateEvent) -> LocalRateEvent {
        if self.p_l.is_some() {
            self.updated_at_tfc = k.tf_c();
            ev
        } else {
            LocalRateEvent::Inactive
        }
    }

    /// Serializes the estimator's state: the current estimate and the
    /// counter reading it was last affirmed at. The window geometry and
    /// thresholds are the configuration's.
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_opt_f64(self.p_l);
        w.put_f64(self.updated_at_tfc);
    }

    /// Overwrites this estimator's state with one written by
    /// [`LocalRate::save_state`]; `self` comes from the configuration's
    /// [`LocalRate::new`]. An estimate that is not a positive, finite
    /// period is refused.
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::SnapshotError> {
        self.p_l = r.get_opt_f64()?;
        if self.p_l.is_some_and(|p| !(p.is_finite() && p > 0.0)) {
            return Err(crate::SnapshotError::Invalid("local rate not a positive period"));
        }
        self.updated_at_tfc = r.get_f64()?;
        Ok(())
    }
}

/// The sub-window's best-quality packet: the earliest minimum of the
/// counts-domain key `rtt − r̂base` over history positions `start..start+n`.
/// Ordering by the key is ordering by point error (the positive factor `p̂`
/// preserves order), and the winner's point error is `key · p̂`.
fn earliest_min(history: &History, start: usize, n: usize) -> (u64, f64) {
    let mut keys = history.range(start, start + n).map(|r| (r.idx, r.rtt_c() - r.rbase_c));
    let first = keys.next().expect("non-empty sub-window");
    keys.fold(first, |best, c| if c.1 < best.1 { c } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::RawExchange;
    use crate::history::History;

    const P0: f64 = 1.0000524e-9;

    /// Exchange at time t for a host whose true period drifts linearly:
    /// p(t) = P0 · (1 + drift·t).
    fn ex_drift(t: f64, drift_per_s: f64, q: f64) -> RawExchange {
        // counter reading = ∫ dt/p(t) ≈ (t − drift t²/2)/P0
        let count = |tt: f64| ((tt - drift_per_s * tt * tt / 2.0) / P0).round() as u64;
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: count(t),
            tb: t + d,
            te: t + d + s,
            tf_tsc: count(t + 2.0 * d + s + q),
        }
    }

    fn setup(n_bar: usize) -> (History, LocalRate) {
        (
            History::new(100_000),
            LocalRate::new(n_bar, 30, 0.05e-6, 3e-7, 8, 2500.0),
        )
    }

    #[test]
    fn inactive_until_window_full() {
        let (mut h, mut lr) = setup(100);
        for k in 0..50u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            assert_eq!(lr.process(&h, &r, P0), LocalRateEvent::Inactive);
        }
        assert!(lr.p_local().is_none());
    }

    #[test]
    fn recovers_constant_rate() {
        let (mut h, mut lr) = setup(100);
        let mut updated = false;
        for k in 0..400u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            if lr.process(&h, &r, P0) == LocalRateEvent::Updated {
                updated = true;
            }
        }
        assert!(updated);
        let p = lr.p_local().unwrap();
        assert!(((p - P0) / P0).abs() < 0.05e-6, "rel {:.2e}", (p - P0) / P0);
    }

    #[test]
    fn tracks_slow_drift_within_sanity_bound() {
        // 0.02 PPM per 1000 s drift — well inside 0.1 PPM at window scale
        let drift = 2e-11 / 1000.0 * 1000.0; // 2e-11 per second
        let (mut h, mut lr) = setup(100);
        let mut estimates = Vec::new();
        for k in 0..2000u64 {
            let t = k as f64 * 16.0;
            h.push(ex_drift(t, drift, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
            if let Some(p) = lr.p_local() {
                estimates.push((t, p));
            }
        }
        let (t0, p_first) = estimates[0];
        let (t1, p_last) = *estimates.last().unwrap();
        // true period grows: p(t) = P0(1+drift t); estimates must follow
        let expect_growth = drift * (t1 - t0);
        let seen_growth = (p_last - p_first) / P0;
        assert!(
            (seen_growth - expect_growth).abs() < 0.5 * expect_growth.abs() + 2e-8,
            "seen {seen_growth:.2e} vs expected {expect_growth:.2e}"
        );
    }

    #[test]
    fn congestion_triggers_quality_duplication() {
        let (mut h, mut lr) = setup(100);
        for k in 0..300u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_before = lr.p_local().unwrap();
        // sustained congestion: every packet +8 ms
        let mut saw_duplicate = false;
        for k in 300..330u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 8e-3));
            let r = h.last().unwrap();
            let ev = lr.process(&h, &r, P0);
            if ev == LocalRateEvent::QualityDuplicated || ev == LocalRateEvent::SanityDuplicated {
                saw_duplicate = true;
            }
        }
        assert!(saw_duplicate, "congestion must force duplication");
        // estimate essentially unchanged through the congestion episode
        // (the first packet or two may still legitimately update from the
        // remaining clean packets in the near window)
        let p_after = lr.p_local().unwrap();
        assert!(
            ((p_after - p_before) / p_before).abs() < 1e-9,
            "local rate moved under congestion: {:.3e}",
            (p_after - p_before) / p_before
        );
    }

    #[test]
    fn server_fault_cannot_move_local_rate_beyond_sanity() {
        let (mut h, mut lr) = setup(100);
        for k in 0..300u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_before = lr.p_local().unwrap();
        // server clock error: +150 ms on Tb/Te, RTT untouched
        for k in 300..320u64 {
            let mut e = ex_drift(k as f64 * 16.0, 0.0, 0.0);
            e.tb += 0.150;
            e.te += 0.150;
            h.push(e);
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let p_after = lr.p_local().unwrap();
        assert!(
            ((p_after - p_before) / p_before).abs() <= 3e-7 * 20.0,
            "local rate moved too far under server fault"
        );
    }

    #[test]
    fn staleness_gap_rule() {
        let (mut h, mut lr) = setup(50);
        for k in 0..200u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let last_tfc = h.last().unwrap().tf_c();
        assert!(lr.gamma_l(P0, last_tfc).is_some());
        // 3000 s later (> τ̄/2 = 2500 s): stale
        let future_tfc = last_tfc + 3000.0 / P0;
        assert!(lr.gamma_l(P0, future_tfc).is_none());
    }

    #[test]
    fn gamma_l_is_relative_rate() {
        let (mut h, mut lr) = setup(50);
        for k in 0..200u64 {
            h.push(ex_drift(k as f64 * 16.0, 0.0, 0.0));
            let r = h.last().unwrap();
            lr.process(&h, &r, P0);
        }
        let tfc = h.last().unwrap().tf_c();
        // against a p̄ deliberately 1 PPM off, γ̂l should be ≈ −1 PPM
        let g = lr.gamma_l(P0 * (1.0 + 1e-6), tfc).unwrap();
        assert!((g + 1e-6).abs() < 0.1e-6, "gamma_l {g:.2e}");
    }
}
