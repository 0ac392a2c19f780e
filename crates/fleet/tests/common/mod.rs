//! Fixtures and the one parity check shared by the fleet suites: each
//! suite uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use std::fmt::Debug;
use tsc_fleet::{
    replay, replay_interrupted, CheckpointStore, ChurnPlan, ClientSummary, ClockCheckpoint,
    ClockSummary, CrashPlan, FleetConfig, LatestCheckpoint, PopulationConfig, QuorumFleetConfig,
    QuorumSummary, RecoveryStats, WorkerPool, Workload,
};
use tsc_netsim::{LevelShift, MultiServerScenario, Scenario, ServerKind, ServerPath};
use tsc_quorum::QuorumConfig;
use tscclock::ClockConfig;

/// Thread counts to exercise: env `FLEET_PARITY_THREADS` (e.g. "1,4"), or
/// {1, 2, 4, 8} by default.
pub fn parity_thread_counts() -> Vec<usize> {
    match std::env::var("FLEET_PARITY_THREADS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FLEET_PARITY_THREADS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// A scenario with enough going on to exercise loss, outage recovery and
/// level-shift re-basing inside every clock's replay — so crashes land on
/// clocks whose state is genuinely nontrivial (mid-warmup, mid-outage,
/// post-shift rebuild).
pub fn eventful_fleet(clocks: usize) -> FleetConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 600.0)
        .with_server(ServerKind::Int)
        .with_outage(64.0 * 200.0, 64.0 * 230.0)
        .with_shift(LevelShift::forward_only(64.0 * 350.0, None, 0.9e-3));
    let mut cfg = FleetConfig::new(clocks, 7, scenario, ClockConfig::paper_defaults(64.0));
    cfg.ingest_batch = 97; // not a divisor of the stream length or any cadence
    cfg
}

/// Hard traffic: a storm of level shifts (detection windows and
/// upward-shift rebases at a different packet index per seeded clock),
/// two outages and 30% loss (constant ragged admission).
pub fn divergent_fleet(clocks: usize) -> FleetConfig {
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
    scenario.path.loss_prob = 0.30;
    let mut cfg = FleetConfig::new(clocks, 13, scenario, ClockConfig::paper_defaults(p));
    cfg.ingest_batch = 61; // not a divisor of anything relevant
    cfg
}

/// Multi-source replay: one fleet entry = K clocks + health + combiner.
/// An eventful template (per-server outage, one silently-asymmetric
/// server, loss) exercises demotion and exclusion inside every entry.
pub fn eventful_quorum_fleet(entries: usize) -> QuorumFleetConfig {
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

/// An eventful lifecycle population: heterogeneous profiles, a server
/// outage mid-replay (backoff + cooldown churn inside every client), a
/// level shift, and join/leave churn on top.
pub fn eventful_population(clients: usize) -> PopulationConfig {
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

/// A store that corrupts every blob it is given — bit flip (checksum
/// failure) or truncation (short read). The restore must fail with a
/// typed error and the worker must degrade to a cold start.
#[derive(Default)]
pub struct CorruptingStore {
    pub inner: LatestCheckpoint,
    /// 0 = bit flip, anything else = truncate.
    pub mode: u8,
}

impl CheckpointStore for CorruptingStore {
    fn save(&mut self, mut ck: ClockCheckpoint) {
        match self.mode {
            0 => {
                let mid = ck.blob.len() / 2;
                ck.blob[mid] ^= 0x10;
            }
            _ => ck.blob.truncate(ck.blob.len() / 2),
        }
        self.inner.save(ck);
    }
    fn last(&self) -> Option<&ClockCheckpoint> {
        self.inner.last()
    }
}

/// A workload the parity check can reshard, whose summaries carry the
/// bit-exactness digest.
pub trait ParityWorkload: Workload<Summary: PartialEq + Debug> {
    fn with_chunk(&self, chunk: usize) -> Self;
    fn digest(summary: &Self::Summary) -> u64;
}

macro_rules! parity_workload {
    ($cfg:ty, $summary:ty) => {
        impl ParityWorkload for $cfg {
            fn with_chunk(&self, chunk: usize) -> Self {
                Self {
                    chunk,
                    ..self.clone()
                }
            }
            fn digest(summary: &$summary) -> u64 {
                summary.digest
            }
        }
    };
}
parity_workload!(FleetConfig, ClockSummary);
parity_workload!(QuorumFleetConfig, QuorumSummary);
parity_workload!(PopulationConfig, ClientSummary);

/// The determinism contract, checked once: at every thread count × chunk
/// × cadence × {no crash, `crash`}, the pooled replay of `w` equals the
/// sequential reference item for item. A mismatch names the item and
/// both digests. Returns the reference summaries and, for each
/// crash-injected run, its cadence and [`RecoveryStats`], so callers can
/// assert that the scenario and the schedule actually bit.
pub fn assert_replay_parity<W: ParityWorkload>(
    w: &W,
    crash: &CrashPlan,
    cadences: &[u64],
    chunks: &[usize],
) -> (Vec<W::Summary>, Vec<(u64, RecoveryStats)>) {
    let expected = replay(None, w);
    assert_eq!(expected.len(), w.items());
    let none = CrashPlan::none();
    let arms = if *crash == none { vec![none] } else { vec![none, *crash] };
    let mut crash_stats = Vec::new();
    for threads in parity_thread_counts() {
        let mut pool = WorkerPool::new(threads);
        for &chunk in chunks {
            let w = w.with_chunk(chunk);
            for &cadence in cadences {
                for arm in &arms {
                    let crashing = *arm != none;
                    let at = format!(
                        "{threads} threads, chunk {chunk}, cadence {cadence}, crash seed {}",
                        arm.seed
                    );
                    let (got, stats) = replay_interrupted(Some(&mut pool), &w, cadence, arm);
                    assert_eq!(got.len(), expected.len(), "{at}");
                    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                        assert_eq!(
                            W::digest(g),
                            W::digest(e),
                            "item {i} diverged at {at}: got {:016x}, want {:016x}",
                            W::digest(g),
                            W::digest(e)
                        );
                        assert_eq!(g, e, "item {i}: summary mismatch at {at}");
                    }
                    if crashing {
                        crash_stats.push((cadence, stats));
                    }
                }
            }
        }
    }
    (expected, crash_stats)
}
