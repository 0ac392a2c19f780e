//! Crash-injected replay parity: checkpointed fleet, quorum and
//! population replays must reproduce the uninterrupted digests bit for
//! bit, for any crash schedule, at every thread count — and a checkpoint
//! that fails to restore must degrade to a cold start (typed error, never
//! a panic, never a silently wrong clock).
//!
//! This is the fleet-scale acceptance bar of the snapshot PR: snapshots
//! are only trustworthy if *resume ≡ uninterrupted* survives being
//! exercised by an adversarial schedule, not just a hand-picked point.

mod common;

use common::{
    assert_replay_parity, eventful_fleet, eventful_population, eventful_quorum_fleet,
    CorruptingStore, ParityWorkload,
};
use tsc_fleet::{compare_herd, replay, replay_item, CrashPlan, PopulationConfig, WorkerPool};
use tsc_netsim::{ProfileMix, Scenario};
use tscclock::ClockConfig;

/// A crash schedule that actually bites most of the fleet, with points
/// spread across the whole 600-packet stream (including before the first
/// checkpoint and inside the outage window).
fn biting_crash_plan() -> CrashPlan {
    CrashPlan {
        seed: 5,
        crash_frac: 0.75,
        max_crashes: 3,
        horizon_packets: 560,
    }
}

#[test]
fn crash_injected_fleet_replay_reproduces_uninterrupted_digests() {
    let crash = biting_crash_plan();
    // the schedule is nontrivial: most clocks crash at least once
    let crashing = (0..24).filter(|&i| !crash.points(i).is_empty()).count();
    assert!(crashing >= 12, "only {crashing}/24 clocks scheduled to crash");
    let (_, runs) = assert_replay_parity(&eventful_fleet(24), &crash, &[64], &[0]);
    for (_, stats) in runs {
        // the faults fired and warm recovery was actually exercised
        assert!(stats.crashes >= crashing as u64, "stats: {stats:?}");
        assert!(stats.checkpoints > 0 && stats.warm_restores > 0, "stats: {stats:?}");
    }
}

#[test]
fn checkpoint_cadence_cannot_change_results() {
    assert_replay_parity(&eventful_fleet(8), &biting_crash_plan(), &[1, 17, 64, 100_000], &[0]);
}

/// The crash and cadence rows of the quorum column: crash points and
/// cadences count rounds (500 per entry), each checkpoint seals three
/// per-server clocks plus the health and combiner state.
#[test]
fn crash_injected_quorum_replay_reproduces_uninterrupted_digests() {
    let crash = CrashPlan {
        seed: 3,
        crash_frac: 0.75,
        max_crashes: 3,
        horizon_packets: 480,
    };
    let crashing = (0..6).filter(|&i| !crash.points(i).is_empty()).count();
    assert!(crashing >= 3, "only {crashing}/6 entries scheduled to crash");
    let (_, runs) = assert_replay_parity(&eventful_quorum_fleet(6), &crash, &[7, 64, 100_000], &[0]);
    for (cadence, stats) in runs {
        assert!(stats.crashes >= crashing as u64, "cadence {cadence}: {stats:?}");
        assert!(cadence > 64 || stats.warm_restores > 0, "cadence {cadence}: {stats:?}");
    }
}

#[test]
fn crash_injected_population_replay_reproduces_uninterrupted_digests() {
    let crash = CrashPlan {
        seed: 11,
        crash_frac: 0.7,
        max_crashes: 3,
        horizon_packets: 450, // request counts; clients send ~600 requests
    };
    let crashing = (0..12).filter(|&i| !crash.points(i).is_empty()).count();
    assert!(crashing >= 5, "only {crashing}/12 clients scheduled to crash");
    let (_, runs) = assert_replay_parity(&eventful_population(12), &crash, &[40], &[0]);
    for (_, stats) in runs {
        assert!(stats.crashes >= crashing as u64, "stats: {stats:?}");
        assert!(stats.warm_restores > 0, "warm path never exercised: {stats:?}");
    }
}

/// Every item of `w` replayed against a store that corrupts (`modes`:
/// 0 = bit flip, 1 = truncate) every checkpoint: each restore must fail
/// cleanly, and correctness must survive anyway.
fn assert_corruption_degrades_to_cold<W: ParityWorkload>(
    w: &W,
    modes: &[u8],
    cadence: u64,
    crash_points: &[u64],
) {
    let expected = replay(None, w);
    for &mode in modes {
        for (i, want) in expected.iter().enumerate() {
            let mut store = CorruptingStore { mode, ..Default::default() };
            let (got, stats) = replay_item(w, i, cadence, crash_points, &mut store);
            assert_eq!(&got, want, "item {i}, corruption mode {mode}");
            assert_eq!(stats.crashes, crash_points.len() as u64, "mode {mode}");
            assert_eq!(stats.cold_restarts, stats.crashes, "mode {mode}");
            assert_eq!(stats.warm_restores, 0, "mode {mode}");
        }
    }
}

#[test]
fn corrupted_checkpoints_degrade_to_cold_starts_and_stay_exact() {
    assert_corruption_degrades_to_cold(&eventful_fleet(2), &[0, 1], 50, &[130, 410]);
    assert_corruption_degrades_to_cold(&eventful_quorum_fleet(2), &[0, 1], 50, &[130, 410]);
    assert_corruption_degrades_to_cold(&eventful_population(3), &[0], 30, &[90, 250]);
}

/// The PR 6 herd scenario, verbatim: a synced fleet, a 10-minute outage,
/// naive fixed-interval retry vs jittered exponential backoff.
fn herd_cfg(clients: usize) -> PopulationConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(2.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 600.0);
    let mut cfg = PopulationConfig::new(clients, 5, scenario, ClockConfig::paper_defaults(16.0));
    cfg.mix = ProfileMix::single(tsc_netsim::PathProfile::Wifi);
    cfg.naive_retry = 2.0;
    cfg
}

/// The restart-mid-cooldown arm of the herd ablation: every client is
/// snapshotted and restored through bytes while the fleet sits in
/// backoff/cooldown during the outage. Because restores preserve the
/// backoff-ladder position and the jitter-stream phase, the restart is a
/// digest no-op and the post-outage spike stays capped ≥ 3× — a restart
/// that reseeded the jitter RNG or reset the ladder would re-phase-lock
/// the fleet and fail both assertions.
#[test]
fn restart_mid_cooldown_keeps_the_herd_suppressed() {
    let cfg = herd_cfg(48);
    let mut pool = WorkerPool::new(4);
    let drilled = PopulationConfig {
        restart_at: Some(3600.0 + 300.0), // mid-outage: deepest into the ladder
        ..cfg.clone()
    };
    let restarted = compare_herd(&mut pool, &drilled, 16.0);
    assert!(
        restarted.naive_peak > 0,
        "naive arm sent nothing post-outage — scenario broken"
    );
    assert!(
        restarted.ratio() >= 3.0,
        "restart mid-cooldown must not unleash the herd: naive {} vs jittered {} (ratio {:.2})",
        restarted.naive_peak,
        restarted.jittered_peak,
        restarted.ratio()
    );
    // stronger: the restart drill is a bit-exact no-op on both arms
    let plain = compare_herd(&mut pool, &cfg, 16.0);
    assert_eq!(
        restarted.jittered.digest(),
        plain.jittered.digest(),
        "restart mid-cooldown changed the jittered arm's replay"
    );
    assert_eq!(restarted.naive.digest(), plain.naive.digest());
    assert_eq!(restarted.jittered_peak, plain.jittered_peak);
}
