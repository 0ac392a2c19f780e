//! The writer side of the serving plane: turning a live discipline loop
//! (a [`TscNtpClock`]) into sealed [`ClockSnapshot`]s in a
//! [`SnapshotCell`].
//!
//! The publisher owns the *policy* part of the published state — how the
//! per-exchange point errors are smoothed into a seal-time bound, what
//! floor and widening rate the bound carries — so the clocks themselves
//! stay policy-free. The defaults (50 µs floor, 1e-7 s/s widening ≈ the
//! paper's γ* oscillator stability) are `LifecycleConfig`'s on the client
//! side, so both sides degrade alike; the equality is pinned by
//! `tests/edge_cases.rs::serve_and_lifecycle_bound_policies_agree`.

use crate::cell::{ClockSnapshot, SnapshotCell};
use std::sync::Arc;
use tscclock::clock::{ProcessOutput, TscNtpClock};
use tsc_telemetry as telemetry;

/// How seal-time error bounds are derived and how they age.
#[derive(Debug, Clone, Copy)]
pub struct PublishPolicy {
    /// Floor of the published bound (seconds). Never publish tighter than
    /// this no matter how good the point errors look.
    pub bound_floor: f64,
    /// Multiplier on the smoothed point error: the published bound is
    /// `max(bound_floor, bound_mult · EMA(|point_error|))`.
    pub bound_mult: f64,
    /// EMA smoothing factor for |point error| (per accepted exchange).
    pub ema_alpha: f64,
    /// Bound widening per second of snapshot staleness (s/s), carried in
    /// the snapshot for readers to apply.
    pub widen_rate: f64,
    /// Reference id stamped into responses (e.g. `b"TSC\0"`).
    pub reference_id: [u8; 4],
}

impl Default for PublishPolicy {
    fn default() -> Self {
        Self {
            bound_floor: 50e-6,
            bound_mult: 4.0,
            ema_alpha: 0.125,
            widen_rate: 1e-7,
            reference_id: *b"TSC\0",
        }
    }
}

/// Seals snapshots from a discipline loop into a shared [`SnapshotCell`].
///
/// One publisher per cell: the discipline loop that owns the clock also
/// owns the publisher, calls [`Publisher::observe`] per processed
/// exchange, and [`Publisher::publish_clock`] at its republish cadence.
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

    /// Eras published so far.
    pub fn era(&self) -> u64 {
        self.era
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
            Some(ema) => ema + self.policy.ema_alpha * (e - ema),
            None => e,
        });
    }

    /// The bound the next seal will carry.
    pub fn current_bound(&self) -> f64 {
        match self.pe_ema {
            Some(ema) => (self.policy.bound_mult * ema).max(self.policy.bound_floor),
            None => self.policy.bound_floor,
        }
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
            _ => self.seal_unsynced(tsc),
        }
    }

    /// Seals an explicit `(base, rate)` estimate — the building block
    /// under [`Publisher::publish_clock`]; public for discipline loops that
    /// are not a `TscNtpClock` (a quorum, a lifecycle client).
    pub fn seal(&mut self, tsc: u64, base: f64, rate: f64, synced: bool) -> bool {
        self.seal_with_bound(tsc, base, rate, self.current_bound(), synced)
    }

    /// Seals with an explicitly supplied bound, bypassing the point-error
    /// EMA (still floored by policy) — for discipline loops that carry
    /// their own bound, e.g. `LifecycleClient`'s verdict bounds.
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
            bound: bound.max(self.policy.bound_floor),
            widen_rate: self.policy.widen_rate,
            synced,
            reference_id: self.policy.reference_id,
        });
        telemetry::add(telemetry::Ctr::SnapshotsPublished, 1);
        synced
    }

    fn seal_unsynced(&mut self, tsc: u64) -> bool {
        self.seal(tsc, 0.0, 0.0, false);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_floor_applies_before_any_observation() {
        let p = Publisher::new(Arc::new(SnapshotCell::new()), PublishPolicy::default());
        assert_eq!(p.current_bound(), 50e-6);
    }

    #[test]
    fn ema_tracks_point_errors_and_mult_scales() {
        let mut p = Publisher::new(Arc::new(SnapshotCell::new()), PublishPolicy::default());
        p.observe_point_error(100e-6);
        assert!((p.pe_ema.unwrap() - 100e-6).abs() < 1e-12);
        assert!((p.current_bound() - 400e-6).abs() < 1e-12);
        // NaN/inf observations are ignored, not absorbed.
        p.observe_point_error(f64::NAN);
        p.observe_point_error(f64::INFINITY);
        assert!((p.pe_ema.unwrap() - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn unwarmed_clock_publishes_unsynced() {
        let clock = TscNtpClock::new(tscclock::ClockConfig::paper_defaults(16.0));
        let cell = Arc::new(SnapshotCell::new());
        let mut p = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
        assert!(!p.publish_clock(&clock, 12345));
        let snap = cell.read().expect("published");
        assert!(!snap.synced);
        assert_eq!(snap.era, 1);
    }

    #[test]
    fn eras_are_strictly_increasing() {
        let cell = Arc::new(SnapshotCell::new());
        let mut p = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
        for i in 1..=5 {
            p.seal(i * 100, 1e9, 1e-9, true);
            assert_eq!(cell.read().unwrap().era, i);
        }
    }
}
