//! The compiled-out telemetry plane (default, without
//! `feature = "enabled"`).
//!
//! Mirrors the public surface of the real implementation with
//! `#[inline(always)]` no-ops, so instrumented call sites need no
//! `cfg` guards and the optimizer deletes them entirely: counters,
//! timers and events cost literally nothing in the default build.

use crate::ids::{Ctr, EventKind, Gauge, Hist};

/// `false`: this build compiled telemetry out.
pub const TELEMETRY_COMPILED: bool = false;

/// Always `false` when compiled out.
#[inline(always)]
pub fn recording() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn set_recording(_on: bool) {}

/// No-op counter add.
#[inline(always)]
pub fn add(_c: Ctr, _n: u64) {}

/// No-op gauge store.
#[inline(always)]
pub fn gauge_set(_g: Gauge, _v: u64) {}

/// No-op histogram record.
#[inline(always)]
pub fn record_ns(_h: Hist, _ns: u64) {}

/// No-op histogram merge.
#[inline(always)]
pub fn merge_hist(_h: Hist, _local: &tsc_stats::Log2Histogram) {}

/// No-op.
#[inline(always)]
pub fn reset_global() {}

/// Zero-sized inert stage timer.
#[derive(Debug)]
pub struct StageTimer;

impl StageTimer {
    /// No-op start.
    #[inline(always)]
    pub fn start(_h: Hist) -> Self {
        StageTimer
    }

    /// No-op stop.
    #[inline(always)]
    pub fn stop(self) {}
}

/// No-op event push.
#[inline(always)]
pub fn event(_kind: EventKind, _at: u64, _a: u64, _b: u64) {}

/// No-op.
#[inline(always)]
pub fn clear_flight_recorder() {}

/// Marker string: nothing was recorded in this build.
pub fn flight_dump() -> String {
    "--- flight recorder (telemetry compiled out) ---\n".to_string()
}

/// No-op.
#[inline(always)]
pub fn install_panic_dump() {}

/// Marker exposition: telemetry compiled out.
pub fn prometheus() -> String {
    "# tsc-telemetry exposition (compiled=off)\n".to_string()
}

/// Marker JSON: telemetry compiled out.
pub fn to_json() -> String {
    "{\"compiled\":false}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_surface_is_inert() {
        assert!(!recording());
        set_recording(true);
        assert!(!recording());
        add(Ctr::PacketsIngested, 1);
        gauge_set(Gauge::PoolWorkers, 8);
        record_ns(Hist::SealNs, 123);
        event(EventKind::WarmupExit, 0, 0, 0);
        StageTimer::start(Hist::SealNs).stop();
        install_panic_dump();
        assert!(prometheus().contains("compiled=off"));
        assert!(to_json().contains("\"compiled\":false"));
        assert!(flight_dump().contains("compiled out"));
    }
}
