//! Route-change level shifts.
//!
//! §6.2: "By level shift we mean principally a change in any of the minimum
//! delays d→, d↑ or d← ... which results in a change in minimum level in
//! some or all of the observed" series. Figure 11(c) injects artificial
//! +0.9 ms shifts in the host→server direction only (one temporary, one
//! permanent — changing the asymmetry Δ); Figure 11(d) shows a natural
//! −0.36 ms shift occurring equally in both directions (Δ unchanged).

use crate::delay::PathDelay;

/// One level-shift event on the path minima.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelShift {
    /// Onset (true time, seconds).
    pub at: f64,
    /// End of the shift, or `None` for a permanent change.
    pub until: Option<f64>,
    /// Change to the forward (host→server) minimum (seconds; may be negative).
    pub fwd: f64,
    /// Change to the backward (server→host) minimum (seconds).
    pub back: f64,
}

impl LevelShift {
    /// A permanent shift applied equally in both directions (asymmetry Δ
    /// preserved) — the Figure 11(d) pattern.
    pub fn symmetric(at: f64, delta: f64) -> Self {
        Self {
            at,
            until: None,
            fwd: delta / 2.0,
            back: delta / 2.0,
        }
    }

    /// A shift in the forward direction only (changes Δ by `delta`) — the
    /// Figure 11(c) pattern.
    pub fn forward_only(at: f64, until: Option<f64>, delta: f64) -> Self {
        Self {
            at,
            until,
            fwd: delta,
            back: 0.0,
        }
    }

    /// An **asymmetry step**: `+delta/2` forward, `−delta/2` backward, so
    /// the RTT (and every RTT-derived quality signal) is unchanged while
    /// the asymmetry Δ moves by `delta` — a route change that silently
    /// biases the server's apparent offset by `delta/2`. §4.3 proves this
    /// is unobservable from the exchanges of the affected server alone
    /// ("the error due to path asymmetry cannot be measured"); only
    /// disagreement with *other* servers can expose it, which is exactly
    /// what the quorum combiner's exclusion rule tests against.
    pub fn asymmetric(at: f64, until: Option<f64>, delta: f64) -> Self {
        Self {
            at,
            until,
            fwd: delta / 2.0,
            back: -delta / 2.0,
        }
    }

    fn active_at(&self, t: f64) -> bool {
        t >= self.at && self.until.is_none_or(|u| t < u)
    }
}

/// A set of level shifts; queries return the total active deltas at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShiftSchedule {
    shifts: Vec<LevelShift>,
}

impl ShiftSchedule {
    /// Empty schedule (no route changes).
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedule from a list of events.
    pub fn new(shifts: Vec<LevelShift>) -> Self {
        Self { shifts }
    }

    /// Adds an event.
    pub fn push(&mut self, s: LevelShift) {
        self.shifts.push(s);
    }

    /// Total (forward, backward) minimum-delay deltas active at true time `t`.
    pub fn deltas_at(&self, t: f64) -> (f64, f64) {
        let mut fwd = 0.0;
        let mut back = 0.0;
        for s in &self.shifts {
            if s.active_at(t) {
                fwd += s.fwd;
                back += s.back;
            }
        }
        (fwd, back)
    }

    /// All registered events.
    pub fn events(&self) -> &[LevelShift] {
        &self.shifts
    }
}

/// Recomputes one path's piecewise-constant anomaly state for the segment
/// containing poll time `t`: applies the shift deltas to `fwd` / `back` and
/// returns `(outage, until)` — whether `t` falls inside an outage window,
/// and the next boundary, after which it must be recomputed. Between
/// boundaries the simulators pay one float compare per packet instead of a
/// schedule scan.
#[cold]
pub(crate) fn refresh_segment(
    shifts: &ShiftSchedule,
    outages: &[(f64, f64)],
    t: f64,
    fwd: &mut PathDelay,
    back: &mut PathDelay,
) -> (bool, f64) {
    let (df, db) = shifts.deltas_at(t);
    fwd.set_shift(df);
    back.set_shift(db);
    let outage = outages.iter().any(|&(a, b)| t >= a && t < b);
    let mut until = f64::INFINITY;
    for s in shifts.events() {
        if s.at > t {
            until = until.min(s.at);
        }
        if let Some(u) = s.until {
            if u > t {
                until = until.min(u);
            }
        }
    }
    for &(a, b) in outages {
        if a > t {
            until = until.min(a);
        }
        if b > t {
            until = until.min(b);
        }
    }
    (outage, until)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Change in path asymmetry Δ = d→ − d← at time `t` relative to the
    /// unshifted configuration.
    fn asymmetry_change_at(s: &ShiftSchedule, t: f64) -> f64 {
        let (f, b) = s.deltas_at(t);
        f - b
    }

    #[test]
    fn empty_schedule_is_identity() {
        let s = ShiftSchedule::none();
        assert_eq!(s.deltas_at(1e6), (0.0, 0.0));
        assert_eq!(asymmetry_change_at(&s, 0.0), 0.0);
    }

    #[test]
    fn symmetric_shift_preserves_asymmetry() {
        let s = ShiftSchedule::new(vec![LevelShift::symmetric(100.0, -0.36e-3)]);
        assert_eq!(s.deltas_at(50.0), (0.0, 0.0));
        let (f, b) = s.deltas_at(150.0);
        assert!((f + 0.18e-3).abs() < 1e-12 && (b + 0.18e-3).abs() < 1e-12);
        assert_eq!(asymmetry_change_at(&s, 150.0), 0.0);
    }

    #[test]
    fn forward_only_shift_changes_asymmetry() {
        let s = ShiftSchedule::new(vec![LevelShift::forward_only(100.0, None, 0.9e-3)]);
        assert!((asymmetry_change_at(&s, 200.0) - 0.9e-3).abs() < 1e-12);
        assert_eq!(asymmetry_change_at(&s, 99.0), 0.0);
    }

    #[test]
    fn asymmetric_shift_preserves_rtt_and_moves_delta() {
        let s = ShiftSchedule::new(vec![LevelShift::asymmetric(100.0, None, 2e-3)]);
        let (f, b) = s.deltas_at(150.0);
        assert!((f - 1e-3).abs() < 1e-12 && (b + 1e-3).abs() < 1e-12);
        // RTT delta is f + b = 0: invisible to RTT-based detectors
        assert!((f + b).abs() < 1e-15);
        assert!((asymmetry_change_at(&s, 150.0) - 2e-3).abs() < 1e-12);
        assert_eq!(s.deltas_at(50.0), (0.0, 0.0));
    }

    #[test]
    fn temporary_shift_expires() {
        let s = ShiftSchedule::new(vec![LevelShift::forward_only(
            100.0,
            Some(200.0),
            0.9e-3,
        )]);
        assert_eq!(s.deltas_at(99.9).0, 0.0);
        assert!((s.deltas_at(150.0).0 - 0.9e-3).abs() < 1e-12);
        assert_eq!(s.deltas_at(200.0).0, 0.0, "until is exclusive");
    }

    #[test]
    fn overlapping_shifts_accumulate() {
        let mut s = ShiftSchedule::none();
        s.push(LevelShift::forward_only(0.0, None, 1e-3));
        s.push(LevelShift::forward_only(10.0, Some(20.0), 2e-3));
        assert!((s.deltas_at(15.0).0 - 3e-3).abs() < 1e-12);
        assert!((s.deltas_at(25.0).0 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn onset_is_inclusive() {
        let s = ShiftSchedule::new(vec![LevelShift::forward_only(100.0, None, 1e-3)]);
        assert!((s.deltas_at(100.0).0 - 1e-3).abs() < 1e-12);
    }
}
