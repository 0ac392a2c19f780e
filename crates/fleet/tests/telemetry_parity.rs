//! Telemetry-plane acceptance: with the `telemetry` feature compiled in,
//! the plane must be **digest-transparent** (recording on, recording off,
//! and compiled-out builds all produce bit-identical fleet results) and
//! **honest** (a failed restore leaves a flight-recorder trail naming the
//! typed error; bounded buffers report their drops instead of truncating
//! silently).
//!
//! This suite only builds with `--features telemetry`; the compiled-out
//! half of the transparency proof is the ordinary parity suites, which CI
//! runs in both feature states.
#![cfg(feature = "telemetry")]

mod common;

use common::{eventful_fleet, eventful_population, CorruptingStore, ParityWorkload};
use std::sync::Mutex;
use tsc_fleet::{
    replay, replay_interrupted, replay_item, ClientState, CrashPlan, LifecycleClient,
    LifecycleConfig, WorkerPool,
};
use tsc_telemetry as telemetry;
use tscclock::ClockConfig;

/// Tests here flip the global recording switch and read shared global
/// counters; serialize them against each other (the cargo test harness
/// runs tests on parallel threads within this binary).
static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn recording_switch_cannot_change_fleet_digests() {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = eventful_fleet(10);
    let expected = replay(None, &cfg);
    let mut pool = WorkerPool::new(3);
    telemetry::set_recording(false);
    let silent = replay(Some(&mut pool), &cfg);
    telemetry::set_recording(true);
    let recorded = replay(Some(&mut pool), &cfg);
    drop(guard);
    assert_eq!(silent, expected, "recording=off diverged");
    assert_eq!(recorded, expected, "recording=on diverged");
}

#[test]
fn fleet_replay_populates_the_registry() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reg = telemetry::global();
    let cfg = eventful_fleet(8);
    let mut pool = WorkerPool::new(2);
    // an interrupted replay ingests through the same counted loop
    for cadence in [0, 64] {
        let packets0 = reg.counter(telemetry::Ctr::PacketsIngested);
        let batches0 = reg.counter(telemetry::Ctr::BatchesIngested);
        let (got, _) = replay_interrupted(Some(&mut pool), &cfg, cadence, &CrashPlan::none());
        let delivered: u64 = got.iter().map(|s| s.delivered).sum();
        assert!(delivered > 0);
        // Counted per ingest batch; the per-packet total must still be exact.
        assert!(
            reg.counter(telemetry::Ctr::PacketsIngested) >= packets0 + delivered,
            "cadence {cadence}: packet counter undercounts"
        );
        assert!(
            reg.counter(telemetry::Ctr::BatchesIngested) > batches0,
            "cadence {cadence}: fleet replay ran but counted no ingest batches"
        );
    }
    assert!(reg.gauge(telemetry::Gauge::FleetClocks) >= 8);
}

/// Item 0 of `w` crashes once at `crash_at` against a store corrupting in
/// both modes: the cold restart must stay exact, be counted, and leave a
/// flight trail naming the typed error.
fn assert_failed_restore_leaves_a_trail<W: ParityWorkload>(w: &W, cadence: u64, crash_at: u64) {
    let expected = replay(None, w);
    for (mode, want_err) in [(0u8, "SnapshotError::Checksum"), (1u8, "SnapshotError::Truncated")] {
        telemetry::clear_flight_recorder();
        let reg = telemetry::global();
        let errs0 = reg.counter(telemetry::Ctr::SnapshotRestoreErrors);
        let cold0 = reg.counter(telemetry::Ctr::ColdRestarts);
        let mut store = CorruptingStore { mode, ..Default::default() };
        let (got, stats) = replay_item(w, 0, cadence, &[crash_at], &mut store);
        assert_eq!(got, expected[0], "mode {mode}: cold restart diverged");
        assert_eq!(stats.cold_restarts, 1, "mode {mode}");
        assert!(
            reg.counter(telemetry::Ctr::SnapshotRestoreErrors) > errs0,
            "mode {mode}: restore error not counted"
        );
        assert!(
            reg.counter(telemetry::Ctr::ColdRestarts) > cold0,
            "mode {mode}: cold restart not counted"
        );
        // The replay runs on this thread, so the events are in this
        // thread's ring: the dump must name the typed error.
        let dump = telemetry::flight_dump();
        assert!(dump.contains("restore-failed"), "mode {mode}: no restore-failed event:\n{dump}");
        assert!(dump.contains(want_err), "mode {mode}: dump lacks {want_err}:\n{dump}");
        assert!(dump.contains("cold-restart"), "mode {mode}: no cold-restart event:\n{dump}");
    }
}

#[test]
fn failed_restore_dumps_flight_trail_naming_the_typed_error() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_failed_restore_leaves_a_trail(&eventful_fleet(1), 50, 130);
    assert_failed_restore_leaves_a_trail(&eventful_population(1), 30, 90);
}

#[test]
fn capped_lifecycle_trace_drops_are_counted_and_exposed() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reg = telemetry::global();
    let dropped0 = reg.counter(telemetry::Ctr::LifecycleTraceDropped);
    let mut cfg = LifecycleConfig::defaults(16.0);
    cfg.max_retries = 1; // every timeout → Failed{cooldown}
    cfg.cooldown = 8.0;
    cfg.max_trace = 1; // room for one transition, then drops
    let mut client = LifecycleClient::new(cfg, ClockConfig::paper_defaults(16.0), 3, 0.0);
    let mut t = 1.0;
    for _ in 0..5 {
        client.on_timeout(t); // → Failed
        t += 20.0;
        client.end_cooldown(t); // → Unsynced
        t += 1.0;
    }
    assert_eq!(client.state(), ClientState::Unsynced);
    assert_eq!(client.trace().len(), 1, "trace cap not honored");
    assert_eq!(client.transition_count(), 10, "transitions still counted past the cap");
    let dropped = reg.counter(telemetry::Ctr::LifecycleTraceDropped);
    assert!(dropped >= dropped0 + 9, "only {} drops counted", dropped - dropped0);
    // The no-silent-truncation contract: both drop counters appear in the
    // exposition unconditionally (zero or not).
    let prom = telemetry::prometheus();
    assert!(prom.contains("tsc_lifecycle_trace_dropped_total"));
    assert!(prom.contains("tsc_flight_recorder_dropped_total"));
    let json = telemetry::to_json();
    assert!(json.contains("\"lifecycle_trace_dropped\""));
    assert!(json.contains("\"flight_recorder_dropped\""));
}
