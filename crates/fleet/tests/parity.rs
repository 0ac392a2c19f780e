//! Fleet parity: parallel replay must equal sequential per-item replay,
//! bit for bit, for every item, at every thread count and shard geometry.
//!
//! The digest in each summary folds the bit pattern of every per-packet
//! (per-round, per-request) output, so digest equality here means the
//! parallel engine reproduced each item's entire output stream exactly —
//! not just its final estimates. The thread × chunk matrix itself lives in
//! `common::assert_replay_parity`; each test below hands it one fixture
//! and asserts that the fixture's faults actually bit.

mod common;

use common::{
    assert_replay_parity, divergent_fleet, eventful_fleet, eventful_population,
    eventful_quorum_fleet, parity_thread_counts,
};
use proptest::prelude::*;
use tsc_fleet::{replay, CrashPlan, FleetConfig, QuorumFleetConfig, WorkerPool};
use tsc_netsim::{LevelShift, MultiServerScenario, Scenario, ServerKind, ServerPath};
use tsc_quorum::QuorumConfig;
use tscclock::ClockConfig;

#[test]
fn fleet_replay_is_bit_exact_at_every_thread_count_and_chunk() {
    let counts = parity_thread_counts();
    assert!(counts.len() >= 2 || std::env::var("FLEET_PARITY_THREADS").is_ok());
    // (fleet, delivered floor): loss keeps the divergent fleet's delivery
    // well under its duration's packet count
    for (cfg, min_delivered) in [(eventful_fleet(24), 500), (divergent_fleet(21), 300)] {
        let (expected, _) =
            assert_replay_parity(&cfg, &CrashPlan::none(), &[0], &[0, 1, 3, 7, 1000]);
        // sanity: the scenario actually produced work for every clock
        for s in &expected {
            assert!(s.delivered > min_delivered, "clock {}: {}", s.clock, s.delivered);
            assert!(s.p_hat.is_some() && s.theta_hat.is_some());
        }
    }
}

#[test]
fn quorum_fleet_replay_is_bit_exact_at_every_thread_count_and_chunk() {
    let (expected, _) = assert_replay_parity(
        &eventful_quorum_fleet(12),
        &CrashPlan::none(),
        &[0],
        &[0, 1, 2, 5, 100],
    );
    for s in &expected {
        assert_eq!(s.rounds, 500, "entry {}", s.entry);
        assert!(s.combined_rounds > 400, "entry {}", s.entry);
        assert!(s.p_hat.is_some());
    }
    // the scenario's faults actually bite: the dark and lying servers are
    // demoted in (at least most) entries
    let demotions = expected.iter().filter(|s| s.demoted_mask != 0).count();
    assert!(demotions > 8, "faults inert in {demotions}/12 entries");
}

/// The paper's Table-2 testbed (Loc + Int + Ext,
/// `MultiServerScenario::paper_testbed`) as a fleet template, with a
/// silent asymmetry step on the Ext path: every entry's quorum must
/// demote the faulted far server while the heterogeneous-but-healthy
/// Loc/Int pair keeps its vote, and replay must stay bit-exact across
/// thread counts.
#[test]
fn paper_testbed_quorum_fleet_excludes_faulted_ext() {
    let scenario = MultiServerScenario::paper_testbed(0)
        .with_duration(16.0 * 600.0)
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(16.0 * 300.0, None, 2e-3)),
        );
    let cfg = QuorumFleetConfig::new(6, 7, scenario, QuorumConfig::paper_defaults(16.0));
    let (expected, _) = assert_replay_parity(&cfg, &CrashPlan::none(), &[0], &[0]);
    let demoted = expected
        .iter()
        .filter(|s| s.demoted_mask & 0b100 != 0)
        .count();
    assert!(demoted >= 5, "Ext fault demoted in only {demoted}/6 entries");
    for s in &expected {
        assert_eq!(
            s.demoted_mask & 0b011,
            0,
            "healthy Loc/Int demoted in entry {}",
            s.entry
        );
        assert!(s.combined_rounds > 500, "entry {}", s.entry);
    }
}

#[test]
fn population_replay_is_bit_exact_at_every_thread_count_and_chunk() {
    let cfg = eventful_population(16);
    let (expected, _) = assert_replay_parity(&cfg, &CrashPlan::none(), &[0], &[0, 1, 3, 7, 1000]);
    // sanity: the scenario bites — outage timeouts happened fleet-wide,
    // and churn actually moved some member windows
    let timeouts: u64 = expected.iter().map(|c| c.counters.3).sum();
    assert!(timeouts > 16, "outage inert: {timeouts} timeouts");
    assert!(expected.iter().any(|c| c.joined_at > 0.0));
    assert!(expected.iter().any(|c| c.left_at < cfg.scenario.duration));
    // the fleet-level digest is a pure fold of the per-client ones
    let mut pool = WorkerPool::new(3);
    assert_eq!(
        cfg.summarize(replay(Some(&mut pool), &cfg)).digest(),
        cfg.summarize(expected).digest()
    );
}

proptest! {
    /// Shard geometry — fleet size, chunk size, ingest batch, thread
    /// count — must never influence any clock's replay.
    #[test]
    fn parity_over_shard_geometry(
        clocks in 1usize..7,
        chunk in 1usize..9,
        ingest_batch in 1usize..80,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let scenario = Scenario::baseline(0)
            .with_poll_period(1024.0)
            .with_duration(1024.0 * 150.0);
        let mut cfg = FleetConfig::new(
            clocks,
            seed,
            scenario,
            ClockConfig::paper_defaults(1024.0),
        );
        cfg.chunk = chunk;
        cfg.ingest_batch = ingest_batch;
        let expected = replay(None, &cfg);
        let mut pool = WorkerPool::new(threads);
        let got = replay(Some(&mut pool), &cfg);
        prop_assert_eq!(got, expected);
    }
}
