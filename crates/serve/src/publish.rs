//! The writer side of the serving plane: turning a live discipline loop
//! (a [`TscNtpClock`]) into sealed [`ClockSnapshot`]s in a
//! [`SnapshotCell`].
//!
//! The publisher owns the seal-time estimator of the bound, so the clocks
//! themselves stay policy-free: it smooths the per-exchange |point error|
//! with an EMA (α = 1/8) and seals four times that. Everything else about
//! the bound is [`tscclock::bound`]'s one policy, shared with the client
//! lifecycle: a seal floors its bound at [`BOUND_FLOOR`] — the one place
//! the serve path floors — and readers age it with
//! [`tscclock::bound::aged`].

use crate::cell::{ClockSnapshot, SnapshotCell};
use std::sync::Arc;
use tscclock::bound::BOUND_FLOOR;
use tscclock::clock::{ProcessOutput, TscNtpClock};
use tsc_telemetry as telemetry;

/// EMA smoothing factor for |point error| (per accepted exchange).
const EMA_ALPHA: f64 = 0.125;
/// Multiplier on the smoothed point error: the seal-time bound is
/// `max(BOUND_FLOOR, BOUND_MULT · EMA(|point_error|))`.
const BOUND_MULT: f64 = 4.0;

/// What a publisher stamps into the responses it enables.
#[derive(Debug, Clone, Copy)]
pub struct PublishPolicy {
    /// Reference id stamped into responses (e.g. `b"TSC\0"`).
    pub reference_id: [u8; 4],
}

impl Default for PublishPolicy {
    fn default() -> Self {
        Self {
            reference_id: *b"TSC\0",
        }
    }
}

#[derive(Debug)]
pub struct Publisher {
    cell: Arc<SnapshotCell>,
    policy: PublishPolicy,
    era: u64,
    pe_ema: Option<f64>,
}

impl Publisher {
    pub fn new(cell: Arc<SnapshotCell>, policy: PublishPolicy) -> Self {
        Self {
            cell,
            policy,
            era: 0,
            pe_ema: None,
        }
    }

    /// Folds one processed exchange's point error into the bound EMA.
    pub fn observe(&mut self, out: &ProcessOutput) {
        self.observe_point_error(out.point_error);
    }

    /// Same as [`Publisher::observe`] from a bare point error (loops that
    /// don't carry a full `ProcessOutput`).
    pub fn observe_point_error(&mut self, point_error: f64) {
        let e = point_error.abs();
        if !e.is_finite() {
            return;
        }
        self.pe_ema = Some(match self.pe_ema {
            Some(ema) => ema + EMA_ALPHA * (e - ema),
            None => e,
        });
    }

    /// Seals the clock's current estimate at counter reading `tsc`.
    /// Returns `false` (and publishes an *unsynchronized* snapshot) when
    /// the clock cannot produce an absolute time yet or is still inside
    /// rate warmup — readers then refuse rather than serve estimates the
    /// bound policy can't vouch for.
    pub fn publish_clock(&mut self, clock: &TscNtpClock, tsc: u64) -> bool {
        let warmed = clock.status().warmed_up;
        match (clock.absolute_time(tsc), clock.p_hat()) {
            (Some(base), Some(rate)) if warmed => self.seal(tsc, base, rate, true),
            _ => self.seal(tsc, 0.0, 0.0, false),
        }
    }

    /// Seals an explicit `(base, rate)` estimate — the building block
    /// under [`Publisher::publish_clock`]; public for discipline loops that
    /// are not a `TscNtpClock` (a quorum, a lifecycle client).
    pub fn seal(&mut self, tsc: u64, base: f64, rate: f64, synced: bool) -> bool {
        let bound = self.pe_ema.map_or(0.0, |ema| BOUND_MULT * ema);
        self.seal_with_bound(tsc, base, rate, bound, synced)
    }

    /// Seals with an explicitly supplied bound, bypassing the point-error
    /// EMA — for discipline loops that carry their own bound, e.g.
    /// `LifecycleClient`'s verdict bounds. Every seal floors its bound
    /// here, at [`BOUND_FLOOR`].
    pub fn seal_with_bound(
        &mut self,
        tsc: u64,
        base: f64,
        rate: f64,
        bound: f64,
        synced: bool,
    ) -> bool {
        self.era += 1;
        self.cell.publish(&ClockSnapshot {
            era: self.era,
            tsc0: tsc,
            base,
            rate,
            bound: bound.max(BOUND_FLOOR),
            synced,
            reference_id: self.policy.reference_id,
        });
        telemetry::add(telemetry::Ctr::SnapshotsPublished, 1);
        synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publisher() -> (Arc<SnapshotCell>, Publisher) {
        let cell = Arc::new(SnapshotCell::new());
        let p = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
        (cell, p)
    }

    #[test]
    fn bound_floor_applies_before_any_observation() {
        let (cell, mut p) = publisher();
        p.seal(0, 1e9, 1e-9, true);
        assert_eq!(cell.read().unwrap().bound, BOUND_FLOOR);
        // a tight explicit bound is floored too: the seal is the one floor
        p.seal_with_bound(0, 1e9, 1e-9, 1e-9, true);
        assert_eq!(cell.read().unwrap().bound, BOUND_FLOOR);
    }

    #[test]
    fn ema_tracks_point_errors_and_mult_scales() {
        let (cell, mut p) = publisher();
        p.observe_point_error(100e-6);
        assert!((p.pe_ema.unwrap() - 100e-6).abs() < 1e-12);
        p.seal(0, 1e9, 1e-9, true);
        assert!((cell.read().unwrap().bound - 400e-6).abs() < 1e-12);
        // NaN/inf observations are ignored, not absorbed.
        p.observe_point_error(f64::NAN);
        p.observe_point_error(f64::INFINITY);
        assert!((p.pe_ema.unwrap() - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn unwarmed_clock_publishes_unsynced() {
        let clock = TscNtpClock::new(tscclock::ClockConfig::paper_defaults(16.0));
        let (cell, mut p) = publisher();
        assert!(!p.publish_clock(&clock, 12345));
        let snap = cell.read().expect("published");
        assert!(!snap.synced);
        assert_eq!(snap.era, 1);
    }

    #[test]
    fn eras_are_strictly_increasing() {
        let (cell, mut p) = publisher();
        for i in 1..=5 {
            p.seal(i * 100, 1e9, 1e-9, true);
            assert_eq!(cell.read().unwrap().era, i);
        }
    }
}
