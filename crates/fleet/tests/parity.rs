//! Fleet parity: parallel replay must equal sequential per-clock replay,
//! bit for bit, for every clock, at every thread count and shard geometry.
//!
//! The digest in [`ClockSummary`] folds the bit pattern of every
//! per-packet output, so digest equality here means the parallel engine
//! reproduced each clock's entire output stream exactly — not just its
//! final estimates.

use proptest::prelude::*;
use tsc_fleet::{
    replay_fleet, replay_population, replay_population_sequential, replay_quorum_fleet,
    replay_quorum_sequential, replay_sequential, ChurnPlan, FleetConfig, PopulationConfig,
    QuorumFleetConfig, WorkerPool,
};
use tsc_netsim::{
    LevelShift, MultiServerScenario, Scenario, ServerKind, ServerPath,
};
use tsc_quorum::QuorumConfig;
use tscclock::ClockConfig;

/// Thread counts to exercise: env `FLEET_PARITY_THREADS` (e.g. "1,4"), or
/// {1, 2, 4, 8} by default — at least three counts, per the PR acceptance
/// criteria.
fn parity_thread_counts() -> Vec<usize> {
    match std::env::var("FLEET_PARITY_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FLEET_PARITY_THREADS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn eventful_fleet(clocks: usize) -> FleetConfig {
    // A scenario with enough going on to exercise loss, outage recovery and
    // level-shift re-basing inside every clock's replay.
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 600.0)
        .with_server(ServerKind::Int)
        .with_outage(64.0 * 200.0, 64.0 * 230.0)
        .with_shift(LevelShift::forward_only(64.0 * 350.0, None, 0.9e-3));
    let mut cfg = FleetConfig::new(clocks, 7, scenario, ClockConfig::paper_defaults(64.0));
    cfg.ingest_batch = 97; // deliberately not a divisor of the stream length
    cfg
}

/// Hard traffic: a storm of level shifts (detection windows and
/// upward-shift rebases at a different packet index per seeded clock),
/// two outages and 30% loss (constant ragged admission).
fn divergent_fleet(clocks: usize) -> FleetConfig {
    let p = 64.0;
    let mut scenario = Scenario::baseline(7)
        .with_poll_period(p)
        .with_duration(p * 600.0)
        .with_server(ServerKind::Int)
        .with_outage(p * 120.0, p * 150.0)
        .with_outage(p * 400.0, p * 420.0)
        .with_shift(LevelShift::forward_only(p * 180.0, None, 0.9e-3))
        .with_shift(LevelShift::forward_only(p * 250.0, Some(p * 280.0), 1.4e-3))
        .with_shift(LevelShift::asymmetric(p * 320.0, None, 2e-3))
        .with_shift(LevelShift::forward_only(p * 480.0, None, 0.7e-3));
    scenario.loss_prob = 0.30;
    let mut cfg = FleetConfig::new(clocks, 13, scenario, ClockConfig::paper_defaults(p));
    cfg.ingest_batch = 61; // not a divisor of anything relevant
    cfg
}

#[test]
fn fleet_parallel_replay_is_bit_exact_at_every_thread_count() {
    let counts = parity_thread_counts();
    assert!(counts.len() >= 2 || std::env::var("FLEET_PARITY_THREADS").is_ok());
    // (fleet, delivered floor): loss keeps the divergent fleet's delivery
    // well under its duration's packet count
    for (cfg, min_delivered) in [(eventful_fleet(24), 500), (divergent_fleet(21), 300)] {
        let expected = replay_sequential(&cfg);
        assert_eq!(expected.len(), cfg.clocks);
        // sanity: the scenario actually produced work for every clock
        for s in &expected {
            assert!(s.delivered > min_delivered, "clock {}: {}", s.clock, s.delivered);
            assert!(s.p_hat.is_some() && s.theta_hat.is_some());
        }
        for &threads in &counts {
            let mut pool = WorkerPool::new(threads);
            let got = replay_fleet(&mut pool, &cfg);
            assert_eq!(got.len(), expected.len(), "threads {threads}");
            for (g, e) in got.iter().zip(&expected) {
                // ClockSummary is PartialEq, but compare digests explicitly
                // so a mismatch names the clock and both digests
                assert_eq!(
                    g.digest, e.digest,
                    "clock {} diverged at {} threads",
                    e.clock, threads
                );
                assert_eq!(g, e, "summary mismatch at {threads} threads");
            }
        }
    }
}

#[test]
fn chunk_size_cannot_change_results() {
    for cfg0 in [eventful_fleet(10), divergent_fleet(11)] {
        let expected = replay_sequential(&cfg0);
        for chunk in [1, 2, 3, 7, 10, 1000] {
            let mut cfg = cfg0.clone();
            cfg.chunk = chunk;
            let mut pool = WorkerPool::new(3);
            assert_eq!(replay_fleet(&mut pool, &cfg), expected, "chunk {chunk}");
        }
    }
}

/// Multi-source replay: one fleet entry = K clocks + health + combiner.
/// An eventful template (per-server outage, one silently-asymmetric
/// server, loss) exercises demotion and exclusion inside every entry.
fn eventful_quorum_fleet(entries: usize) -> QuorumFleetConfig {
    let scenario = MultiServerScenario::baseline(3, 0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 500.0)
        .with_server_path(
            1,
            ServerPath::new(ServerKind::Int).with_outage(64.0 * 150.0, 64.0 * 250.0),
        )
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(64.0 * 300.0, None, 2e-3)),
        );
    QuorumFleetConfig::new(entries, 99, scenario, QuorumConfig::paper_defaults(64.0))
}

#[test]
fn quorum_fleet_replay_is_bit_exact_at_every_thread_count() {
    let cfg = eventful_quorum_fleet(12);
    let expected = replay_quorum_sequential(&cfg);
    assert_eq!(expected.len(), 12);
    for s in &expected {
        assert_eq!(s.rounds, 500, "entry {}", s.entry);
        assert!(s.combined_rounds > 400, "entry {}", s.entry);
        assert!(s.p_hat.is_some());
    }
    // the scenario's faults actually bite: the dark and lying servers are
    // demoted in (at least most) entries
    let demotions = expected.iter().filter(|s| s.demoted_mask != 0).count();
    assert!(demotions > 8, "faults inert in {demotions}/12 entries");
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        let got = replay_quorum_fleet(&mut pool, &cfg);
        assert_eq!(got.len(), expected.len(), "threads {threads}");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(
                g.digest, e.digest,
                "entry {} diverged at {} threads",
                e.entry, threads
            );
            assert_eq!(g, e, "summary mismatch at {threads} threads");
        }
    }
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
    let expected = replay_quorum_sequential(&cfg);
    assert_eq!(expected.len(), 6);
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
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        assert_eq!(replay_quorum_fleet(&mut pool, &cfg), expected, "threads {threads}");
    }
}

#[test]
fn quorum_fleet_chunk_size_cannot_change_results() {
    let cfg0 = eventful_quorum_fleet(6);
    let expected = replay_quorum_sequential(&cfg0);
    for chunk in [1, 2, 5, 100] {
        let mut cfg = cfg0.clone();
        cfg.chunk = chunk;
        let mut pool = WorkerPool::new(3);
        assert_eq!(replay_quorum_fleet(&mut pool, &cfg), expected, "chunk {chunk}");
    }
}

/// An eventful lifecycle population: heterogeneous profiles, a server
/// outage mid-replay (backoff + cooldown churn inside every client), and
/// join/leave churn on top.
fn eventful_population(clients: usize) -> PopulationConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(3.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 900.0)
        .with_shift(LevelShift::forward_only(2.0 * 3600.0, None, 0.9e-3));
    let mut cfg = PopulationConfig::new(clients, 31, scenario, ClockConfig::paper_defaults(16.0));
    cfg.churn = ChurnPlan {
        join_frac: 0.3,
        join_window: (600.0, 1800.0),
        leave_frac: 0.2,
        leave_window: (2.0 * 3600.0, 2.5 * 3600.0),
    };
    cfg
}

#[test]
fn population_replay_is_bit_exact_at_every_thread_count() {
    let cfg = eventful_population(16);
    let expected = replay_population_sequential(&cfg);
    assert_eq!(expected.clients.len(), 16);
    // sanity: the scenario bites — outage timeouts happened fleet-wide,
    // and churn actually moved some member windows
    let timeouts: u64 = expected.clients.iter().map(|c| c.counters.3).sum();
    assert!(timeouts > 16, "outage inert: {timeouts} timeouts");
    assert!(expected.clients.iter().any(|c| c.joined_at > 0.0));
    assert!(expected.clients.iter().any(|c| c.left_at < cfg.scenario.duration));
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        let got = replay_population(&mut pool, &cfg);
        assert_eq!(got.clients.len(), expected.clients.len(), "threads {threads}");
        for (g, e) in got.clients.iter().zip(&expected.clients) {
            assert_eq!(
                g.digest, e.digest,
                "client {} diverged at {} threads",
                e.client, threads
            );
            assert_eq!(g, e, "summary mismatch at {threads} threads");
        }
        assert_eq!(got.digest(), expected.digest(), "threads {threads}");
    }
}

#[test]
fn population_chunk_size_cannot_change_results() {
    let cfg0 = eventful_population(8);
    let expected = replay_population_sequential(&cfg0);
    for chunk in [1, 2, 3, 7, 8, 1000] {
        let mut cfg = cfg0.clone();
        cfg.chunk = chunk;
        let mut pool = WorkerPool::new(3);
        let got = replay_population(&mut pool, &cfg);
        assert_eq!(got, expected, "chunk {chunk}");
    }
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
        let expected = replay_sequential(&cfg);
        let mut pool = WorkerPool::new(threads);
        let got = replay_fleet(&mut pool, &cfg);
        prop_assert_eq!(got, expected);
    }
}
