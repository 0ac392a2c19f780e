//! Per-server health scoring with hysteresis.
//!
//! Each server's [`HealthTracker`] folds the signals its clock already
//! produces — point-error quality, upward-shift confirmations, delivery /
//! staleness, and the combiner's disagreement verdict — into one scalar
//! **trust score** in `[0, 1]`, smoothed by an exponential moving average.
//! Demotion and re-admission are hysteretic: a server is demoted only
//! after its trust stays below the demotion threshold for a streak of
//! rounds, and re-admitted only after it stays above a *higher* threshold
//! for a longer streak — a flapping server loses its vote quickly and
//! earns it back slowly.
//!
//! The tracker also maintains the server's **point-error bound**: an EMA
//! of its per-packet point errors `Eᵢ` (capped so congestion bursts cannot
//! inflate it without limit). The combiner derives each server's
//! disagreement tolerance from this bound — a server is judged against
//! the quality *it itself claims*, so a clean low-jitter server is held
//! to a tight tolerance while a noisy long-path server gets a wider one.

use tscclock::fastmath::exp_clamped;
use tscclock::snapshot::{SnapshotReader, SnapshotWriter};
use tscclock::SnapshotError;

/// Tunables of the health model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EMA gain of the trust score (per round).
    pub alpha: f64,
    /// Trust below this demotes (after `demote_rounds` of persistence).
    pub demote_below: f64,
    /// Trust above this re-admits (after `readmit_rounds`); must exceed
    /// `demote_below` — the hysteresis band.
    pub readmit_above: f64,
    /// Consecutive below-threshold rounds required to demote.
    pub demote_rounds: usize,
    /// Consecutive above-threshold rounds required to re-admit.
    pub readmit_rounds: usize,
    /// Health sample of a round whose poll went unanswered (loss or
    /// outage): staleness pulls trust toward this level.
    pub miss_score: f64,
    /// Health penalty of a confirmed upward RTT shift (route degradation).
    pub shift_penalty: f64,
    /// Floor of the point-error quality term. Congestion is *noise the
    /// per-server filter already handles*, not evidence of a bad server,
    /// so quality alone must not be able to demote: keep this floor above
    /// `demote_below` and only disagreement (`excluded`), staleness and
    /// shift penalties can take trust below it.
    pub quality_floor: f64,
    /// Point-error → quality scale: a delivered packet scores
    /// `quality_floor + (1 − quality_floor)·exp(−Eᵢ/pe_scale)`.
    pub pe_scale: f64,
    /// EMA gain of the point-error bound for *improving* samples (new
    /// point error below the EMA): the bound tracks a clean server down
    /// quickly, tightening its disagreement tolerance.
    pub pe_alpha: f64,
    /// EMA gain for *degrading* samples (new point error above the EMA);
    /// must not exceed `pe_alpha`. The asymmetry is a security property
    /// on top of [`HealthConfig::pe_cap`]: the disagreement tolerance
    /// derives from the server's own bound, so a server sliding into a
    /// fault must not be able to widen its own exclusion tolerance in the
    /// rounds *before* the cap bites — its bound rises a few times slower
    /// than it falls, keeping the tolerance anchored to its recent healthy
    /// self while the combiner judges the degradation.
    pub pe_alpha_up: f64,
    /// Cap on the per-packet point error folded into the bound. This is a
    /// security property as much as a noise clamp: the disagreement
    /// tolerance derives from the server's *own* bound, so a degrading
    /// (or lying) server must not be able to widen its own tolerance
    /// arbitrarily by reporting noisy exchanges.
    pub pe_cap: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            demote_below: 0.35,
            readmit_above: 0.6,
            demote_rounds: 8,
            readmit_rounds: 32,
            miss_score: 0.3,
            shift_penalty: 0.5,
            quality_floor: 0.65,
            pe_scale: 300e-6,
            pe_alpha: 0.05,
            pe_alpha_up: 0.0125,
            pe_cap: 400e-6,
        }
    }
}

impl HealthConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("alpha must be in (0, 1]".into());
        }
        if !(self.pe_alpha > 0.0 && self.pe_alpha <= 1.0) {
            return Err("pe_alpha must be in (0, 1]".into());
        }
        if !(self.pe_alpha_up > 0.0 && self.pe_alpha_up <= self.pe_alpha) {
            return Err(
                "pe_alpha_up must be in (0, pe_alpha] (the bound must not rise faster than it falls)"
                    .into(),
            );
        }
        if !(0.0 <= self.demote_below && self.demote_below < self.readmit_above
            && self.readmit_above <= 1.0)
        {
            return Err("need 0 ≤ demote_below < readmit_above ≤ 1 (hysteresis band)".into());
        }
        if !(self.pe_scale > 0.0 && self.pe_cap > 0.0) {
            return Err("pe_scale and pe_cap must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.miss_score) {
            return Err("miss_score must be in [0, 1]".into());
        }
        if !(self.quality_floor > self.demote_below && self.quality_floor <= 1.0) {
            return Err("quality_floor must exceed demote_below (congestion must not demote)".into());
        }
        Ok(())
    }

    /// Serializes the config (snapshot payload, no envelope).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.alpha);
        w.put_f64(self.demote_below);
        w.put_f64(self.readmit_above);
        w.put_usize(self.demote_rounds);
        w.put_usize(self.readmit_rounds);
        w.put_f64(self.miss_score);
        w.put_f64(self.shift_penalty);
        w.put_f64(self.quality_floor);
        w.put_f64(self.pe_scale);
        w.put_f64(self.pe_alpha);
        w.put_f64(self.pe_alpha_up);
        w.put_f64(self.pe_cap);
    }

    /// Deserializes and re-validates a config written by
    /// [`HealthConfig::save_state`].
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = Self {
            alpha: r.get_f64()?,
            demote_below: r.get_f64()?,
            readmit_above: r.get_f64()?,
            demote_rounds: r.get_usize()?,
            readmit_rounds: r.get_usize()?,
            miss_score: r.get_f64()?,
            shift_penalty: r.get_f64()?,
            quality_floor: r.get_f64()?,
            pe_scale: r.get_f64()?,
            pe_alpha: r.get_f64()?,
            pe_alpha_up: r.get_f64()?,
            pe_cap: r.get_f64()?,
        };
        cfg.validate()
            .map_err(|_| SnapshotError::Invalid("health config fails validation"))?;
        Ok(cfg)
    }
}

/// What one round looked like from one server (the tracker's input).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundObservation {
    /// The poll was answered.
    pub delivered: bool,
    /// Point error `Eᵢ` of the delivered packet, when the clock produced
    /// an estimate for it.
    pub point_error: Option<f64>,
    /// The clock confirmed an upward RTT shift this round.
    pub upward_shift: bool,
    /// The combiner excluded this server for disagreeing with the quorum.
    pub excluded: bool,
}

/// Rolling health state of one server.
#[derive(Debug, Clone, Copy)]
pub struct HealthTracker {
    trust: f64,
    /// EMA of capped point errors; NaN until the first delivered packet.
    pe_ema: f64,
    demoted: bool,
    below_streak: usize,
    above_streak: usize,
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthTracker {
    /// A fresh tracker: fully trusted (the clock's own warm-up covers the
    /// early rounds), no point-error history.
    pub fn new() -> Self {
        Self {
            trust: 1.0,
            pe_ema: f64::NAN,
            demoted: false,
            below_streak: 0,
            above_streak: 0,
        }
    }

    /// Current trust score in `[0, 1]`.
    pub fn trust(&self) -> f64 {
        self.trust
    }

    /// Whether the server is currently demoted (zero combination weight).
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// The server's own point-error bound (seconds). Until the first
    /// delivered packet this is the cap — an unknown server gets the
    /// widest tolerance, not a spuriously tight one.
    pub fn point_error_bound(&self, cfg: &HealthConfig) -> f64 {
        if self.pe_ema.is_nan() {
            cfg.pe_cap
        } else {
            self.pe_ema
        }
    }

    /// Folds one round into the score and runs the hysteresis machine.
    pub fn observe(&mut self, cfg: &HealthConfig, obs: RoundObservation) {
        let health = if !obs.delivered {
            cfg.miss_score
        } else if obs.excluded {
            // Disagreeing with the quorum beyond tolerance is the gravest
            // signal: the server's *own* quality figures cannot be
            // trusted (a lying or silently-asymmetric server looks
            // perfectly healthy to itself).
            0.0
        } else {
            // `exp_clamped`, not libm: trust feeds the combiner weights,
            // so this is digested once per delivered server per round.
            let quality = match obs.point_error {
                Some(pe) => {
                    cfg.quality_floor
                        + (1.0 - cfg.quality_floor) * exp_clamped(-pe.max(0.0) / cfg.pe_scale)
                }
                None => cfg.miss_score,
            };
            let penalty = if obs.upward_shift { cfg.shift_penalty } else { 0.0 };
            (quality - penalty).max(0.0)
        };
        self.trust += cfg.alpha * (health - self.trust);

        if obs.delivered {
            if let Some(pe) = obs.point_error {
                let pe = pe.max(0.0).min(cfg.pe_cap);
                if self.pe_ema.is_nan() {
                    self.pe_ema = pe;
                } else {
                    // Asymmetric EMA: fast down, slow up (see
                    // `HealthConfig::pe_alpha_up`).
                    let alpha = if pe > self.pe_ema {
                        cfg.pe_alpha_up
                    } else {
                        cfg.pe_alpha
                    };
                    self.pe_ema += alpha * (pe - self.pe_ema);
                }
            }
        }

        // Hysteresis: sustained low trust demotes; sustained high trust
        // (a strictly higher bar) re-admits.
        if self.trust < cfg.demote_below {
            self.below_streak = self.below_streak.saturating_add(1);
            self.above_streak = 0;
            if !self.demoted && self.below_streak >= cfg.demote_rounds {
                self.demoted = true;
            }
        } else if self.trust > cfg.readmit_above {
            self.above_streak = self.above_streak.saturating_add(1);
            self.below_streak = 0;
            if self.demoted && self.above_streak >= cfg.readmit_rounds {
                self.demoted = false;
            }
        } else {
            // inside the hysteresis band: streaks do not advance
            self.below_streak = 0;
            self.above_streak = 0;
        }
    }

    /// Serializes the tracker (snapshot payload, no envelope). `pe_ema`'s
    /// NaN "no history yet" sentinel round-trips via the raw bit pattern.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.trust);
        w.put_f64(self.pe_ema);
        w.put_bool(self.demoted);
        w.put_usize(self.below_streak);
        w.put_usize(self.above_streak);
    }

    /// Deserializes a tracker written by [`HealthTracker::save_state`].
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let t = Self {
            trust: r.get_f64()?,
            pe_ema: r.get_f64()?,
            demoted: r.get_bool()?,
            below_streak: r.get_usize()?,
            above_streak: r.get_usize()?,
        };
        if !(0.0..=1.0).contains(&t.trust) {
            return Err(SnapshotError::Invalid("trust score out of [0, 1]"));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> RoundObservation {
        RoundObservation {
            delivered: true,
            point_error: Some(30e-6),
            upward_shift: false,
            excluded: false,
        }
    }

    #[test]
    fn defaults_validate() {
        assert!(HealthConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_rejected() {
        let d = HealthConfig::default();
        let c = HealthConfig { alpha: 0.0, ..d };
        assert!(c.validate().is_err());
        // no hysteresis band
        let c = HealthConfig { readmit_above: d.demote_below, ..d };
        assert!(c.validate().is_err());
        let c = HealthConfig { pe_cap: 0.0, ..d };
        assert!(c.validate().is_err());
        // congestion quality able to demote
        let c = HealthConfig { quality_floor: d.demote_below, ..d };
        assert!(c.validate().is_err());
    }

    #[test]
    fn healthy_server_stays_trusted() {
        let cfg = HealthConfig::default();
        let mut t = HealthTracker::new();
        for _ in 0..500 {
            t.observe(&cfg, good());
        }
        assert!(t.trust() > 0.8, "trust {}", t.trust());
        assert!(!t.demoted());
        let b = t.point_error_bound(&cfg);
        assert!((b - 30e-6).abs() < 1e-6, "bound {b}");
    }

    #[test]
    fn sustained_exclusion_demotes_then_recovery_readmits() {
        let cfg = HealthConfig::default();
        let mut t = HealthTracker::new();
        for _ in 0..100 {
            t.observe(&cfg, good());
        }
        // fault: quorum exclusion every round
        let mut demoted_after = None;
        for i in 0..200 {
            t.observe(
                &cfg,
                RoundObservation {
                    excluded: true,
                    ..good()
                },
            );
            if t.demoted() && demoted_after.is_none() {
                demoted_after = Some(i + 1);
            }
        }
        let demoted_after = demoted_after.expect("must demote under sustained exclusion");
        assert!(
            demoted_after <= 40,
            "demotion must be prompt, took {demoted_after} rounds"
        );
        // recovery: healthy again, must re-admit — but slower than it fell
        let mut readmitted_after = None;
        for i in 0..500 {
            t.observe(&cfg, good());
            if !t.demoted() && readmitted_after.is_none() {
                readmitted_after = Some(i + 1);
            }
        }
        let readmitted_after = readmitted_after.expect("must re-admit after recovery");
        assert!(
            readmitted_after >= demoted_after,
            "re-admission ({readmitted_after}) must be slower than demotion ({demoted_after})"
        );
    }

    #[test]
    fn brief_glitch_does_not_demote() {
        let cfg = HealthConfig::default();
        let mut t = HealthTracker::new();
        for _ in 0..100 {
            t.observe(&cfg, good());
        }
        // a glitch shorter than the demote streak requirement
        for _ in 0..3 {
            t.observe(
                &cfg,
                RoundObservation {
                    excluded: true,
                    ..good()
                },
            );
        }
        for _ in 0..50 {
            t.observe(&cfg, good());
        }
        assert!(!t.demoted(), "3-round glitch must not demote");
        assert!(t.trust() > 0.8);
    }

    #[test]
    fn staleness_decays_trust_toward_miss_score() {
        let cfg = HealthConfig::default();
        let mut t = HealthTracker::new();
        for _ in 0..100 {
            t.observe(&cfg, good());
        }
        for _ in 0..200 {
            t.observe(&cfg, RoundObservation::default()); // missed polls
        }
        assert!((t.trust() - cfg.miss_score).abs() < 0.02);
        assert!(t.demoted(), "a long outage must demote");
    }

    #[test]
    fn ramping_fault_cannot_widen_its_own_tolerance_quickly() {
        // Regression for the asymmetric EMA: a server whose point errors
        // *ramp* toward the cap (a degrading route, or an attacker easing
        // into a fault to stretch its disagreement tolerance) must see its
        // bound rise several times slower than a symmetric EMA would
        // allow, and recover (fall) at full speed afterwards.
        let cfg = HealthConfig::default();
        let mut asym = HealthTracker::new();
        for _ in 0..200 {
            asym.observe(&cfg, good()); // settle at ~30 µs
        }
        let settled = asym.point_error_bound(&cfg);
        // mirror tracker with a symmetric EMA (pe_alpha both ways)
        let mut sym_ema = settled;
        // 40-round ramp from 30 µs to the 400 µs cap
        let mut worst_ratio: f64 = 0.0;
        for i in 0..40 {
            let pe = 30e-6 + (i as f64 + 1.0) / 40.0 * 370e-6;
            asym.observe(
                &cfg,
                RoundObservation {
                    delivered: true,
                    point_error: Some(pe),
                    ..Default::default()
                },
            );
            sym_ema += cfg.pe_alpha * (pe.min(cfg.pe_cap) - sym_ema);
            let a = asym.point_error_bound(&cfg);
            worst_ratio = worst_ratio.max((a - settled) / (sym_ema - settled));
        }
        assert!(
            worst_ratio < 0.45,
            "asymmetric bound rose at {worst_ratio:.2}× the symmetric rate (want < 0.45×)"
        );
        // the rise stayed well below the cap during the whole ramp
        assert!(
            asym.point_error_bound(&cfg) < 150e-6,
            "bound after the ramp: {}",
            asym.point_error_bound(&cfg)
        );
        // recovery is fast: clean rounds pull the bound back down at the
        // full pe_alpha rate
        for _ in 0..60 {
            asym.observe(&cfg, good());
        }
        let b = asym.point_error_bound(&cfg);
        assert!((b - 30e-6).abs() < 15e-6, "bound must fall promptly, got {b}");
    }

    #[test]
    fn congestion_cannot_blow_up_the_point_error_bound() {
        let cfg = HealthConfig::default();
        let mut t = HealthTracker::new();
        for _ in 0..500 {
            t.observe(
                &cfg,
                RoundObservation {
                    delivered: true,
                    point_error: Some(50e-3), // monster bursts every round
                    ..Default::default()
                },
            );
        }
        assert!(t.point_error_bound(&cfg) <= cfg.pe_cap + 1e-12);
    }

    #[test]
    fn unknown_server_gets_widest_bound() {
        let cfg = HealthConfig::default();
        let t = HealthTracker::new();
        assert_eq!(t.point_error_bound(&cfg), cfg.pe_cap);
    }
}
