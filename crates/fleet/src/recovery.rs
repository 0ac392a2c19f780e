//! Interruptible replay with deterministic crash injection: the
//! fleet-scale half of the crash-safety story.
//!
//! [`crate::replay`] computes each work item — a clock, a quorum entry, a
//! lifecycle client — as a pure function of `(config, index)`. Handing the
//! same loop an active [`Interrupts`] re-runs that computation
//! **interruptibly**: every `checkpoint_every` units of progress the
//! item's full state is sealed into a snapshot and handed to a
//! [`CheckpointStore`]; a deterministic [`CrashPlan`] then kills the
//! worker at chosen counts, forcing a restore from the last checkpoint
//! and a replay forward. The acceptance bar is the repo's standing
//! determinism contract: **the crash-injected replay reproduces the
//! uninterrupted digests bit for bit**, for every crash schedule, at
//! every thread count (`tests/crash_recovery.rs`).
//!
//! ## Restore-or-degrade
//!
//! A checkpoint that fails to restore — truncated, bit-flipped, foreign,
//! version-mismatched — yields a typed [`tscclock::SnapshotError`], never
//! a panic. The worker then **degrades to a cold start**: it discards the
//! warm state and replays the stream from zero. Slower, but the digest is
//! still exact, because the stream itself is a deterministic function of
//! the seed. [`RecoveryStats`] counts how often each path was taken so
//! tests can assert the faults actually fired. That policy, its counters
//! and its flight events live in [`Interrupts::recover`] and nowhere else.
//!
//! ## Why the sub-batch capping is bit-safe
//!
//! Checkpoints and crash points land at arbitrary counts, so a batching
//! loop caps each batch at the next boundary ([`Interrupts::budget`]).
//! Batch geometry provably cannot change results — `replay::tests::
//! ingest_batch_size_does_not_change_results` and the shard-geometry
//! property test pin exactly that invariance.

use tsc_netsim::multi::splitmix64;
use tsc_telemetry as telemetry;
use tscclock::snapshot::{self, SnapshotReader};
use tscclock::SnapshotError;

/// Salt of the per-clock crash draws (distinct from the churn and jitter
/// salts so crash schedules never correlate with client behavior).
const CRASH_SALT: u64 = 0x5E_C0_7E_5A_FE_CA_11_0B;

/// One durable per-clock checkpoint: the component snapshot blob plus the
/// replay-progress sidecar a resume needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockCheckpoint {
    /// Packets delivered when the checkpoint was taken.
    pub delivered: u64,
    /// Output digest accumulated up to that point.
    pub digest: u64,
    /// The sealed snapshot envelope (clock or composite checkpoint).
    pub blob: Vec<u8>,
}

/// Where checkpoints go and come back from. The replay engine only ever
/// needs the most recent one; tests inject stores that corrupt blobs to
/// exercise the restore-or-degrade path.
pub trait CheckpointStore {
    /// Persists a checkpoint (replacing any earlier one).
    fn save(&mut self, ck: ClockCheckpoint);
    /// The most recent checkpoint, if any survived.
    fn last(&self) -> Option<&ClockCheckpoint>;
}

/// The default store: keeps the latest checkpoint in memory, faithfully.
#[derive(Debug, Default)]
pub struct LatestCheckpoint(Option<ClockCheckpoint>);

impl CheckpointStore for LatestCheckpoint {
    fn save(&mut self, ck: ClockCheckpoint) {
        self.0 = Some(ck);
    }
    fn last(&self) -> Option<&ClockCheckpoint> {
        self.0.as_ref()
    }
}

/// What the recovery machinery did during one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints sealed and saved.
    pub checkpoints: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Crashes recovered from a checkpoint (warm restart).
    pub warm_restores: u64,
    /// Crashes where no checkpoint existed or the restore failed with a
    /// typed error — the worker degraded to a cold start from packet zero.
    pub cold_restarts: u64,
    /// Packets regenerated (not re-processed) to fast-forward the stream
    /// to the resume point after a restore.
    pub replayed: u64,
}

impl RecoveryStats {
    /// Elementwise accumulation (for fleet-level aggregation).
    pub fn merge(&mut self, other: RecoveryStats) {
        self.checkpoints += other.checkpoints;
        self.crashes += other.crashes;
        self.warm_restores += other.warm_restores;
        self.cold_restarts += other.cold_restarts;
        self.replayed += other.replayed;
    }
}

/// Deterministic crash schedule: which clocks die, and at which delivered
/// packet counts. Every draw is a pure splitmix64 function of
/// `(seed, clock)`, so the schedule is identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Seed of the crash draws (independent of the fleet's `base_seed`).
    pub seed: u64,
    /// Fraction of clocks that crash at least once.
    pub crash_frac: f64,
    /// Crashes per crashing clock are drawn from `1..=max_crashes`.
    pub max_crashes: u32,
    /// Crash packet counts are drawn uniformly from `[1, horizon_packets]`;
    /// points beyond the actual stream length simply never fire.
    pub horizon_packets: u64,
}

impl CrashPlan {
    /// No crashes at all.
    pub fn none() -> Self {
        Self {
            seed: 0,
            crash_frac: 0.0,
            max_crashes: 0,
            horizon_packets: 0,
        }
    }

    fn draw(&self, clock: usize, k: u64) -> u64 {
        splitmix64(
            self.seed
                ^ CRASH_SALT
                ^ (clock as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// The sorted, deduplicated crash points of `clock` (delivered packet
    /// counts at which the worker dies). Empty for clocks the plan spares.
    pub fn points(&self, clock: usize) -> Vec<u64> {
        if self.crash_frac <= 0.0 || self.max_crashes == 0 || self.horizon_packets == 0 {
            return Vec::new();
        }
        let u0 = (self.draw(clock, 0) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u0 >= self.crash_frac {
            return Vec::new();
        }
        let n = 1 + (self.draw(clock, 1) % self.max_crashes as u64);
        let mut pts: Vec<u64> = (0..n)
            .map(|j| 1 + self.draw(clock, 2 + j) % self.horizon_packets)
            .collect();
        pts.sort_unstable();
        pts.dedup();
        pts
    }
}

/// The interruption schedule of one work item and the only owner of the
/// recovery policy: where the next checkpoint or crash boundary is, when
/// to seal, how a crash is recovered (last checkpoint, else cold), and
/// every counter, flight event and post-mortem dump that goes with it.
///
/// A workload's replay loop makes three calls per step: [`budget`] before
/// advancing, then [`checkpoint`] and [`recover`] — in that order, so a
/// crash at a cadence multiple restores the checkpoint just written.
/// With `checkpoint_every == 0` and no crash points all three are no-ops
/// and the loop is the plain uninterrupted replay.
///
/// [`budget`]: Interrupts::budget
/// [`checkpoint`]: Interrupts::checkpoint
/// [`recover`]: Interrupts::recover
pub struct Interrupts<'a> {
    checkpoint_every: u64,
    crash_points: &'a [u64],
    next_crash: usize,
    store: &'a mut dyn CheckpointStore,
    stats: RecoveryStats,
}

impl<'a> Interrupts<'a> {
    /// `crash_points` must be strictly ascending (as [`CrashPlan::points`]
    /// returns); each fires once, when the item's progress count reaches
    /// it. `checkpoint_every == 0` disables checkpointing.
    pub fn new(
        checkpoint_every: u64,
        crash_points: &'a [u64],
        store: &'a mut dyn CheckpointStore,
    ) -> Self {
        Self {
            checkpoint_every,
            crash_points,
            next_crash: 0,
            store,
            stats: RecoveryStats::default(),
        }
    }

    /// What the recovery machinery has done so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// How many of the `want` units after `done` the loop may take before
    /// the next checkpoint or crash boundary (at least 1 for `want >= 1`).
    pub fn budget(&self, done: u64, want: u64) -> u64 {
        let mut cap = want;
        if self.checkpoint_every > 0 {
            cap = cap.min(self.checkpoint_every - done % self.checkpoint_every);
        }
        match self.crash_points.get(self.next_crash) {
            Some(&cp) if cp > done => cap.min(cp - done),
            _ => cap,
        }
    }

    /// Seals and saves a checkpoint when `done` is on the cadence. `digest`
    /// travels beside the blob so clock checkpoints stay bare snapshots.
    pub fn checkpoint(&mut self, done: u64, digest: u64, seal: impl FnOnce() -> Vec<u8>) {
        if self.checkpoint_every == 0 || !done.is_multiple_of(self.checkpoint_every) {
            return;
        }
        let blob = seal();
        telemetry::event(telemetry::EventKind::CheckpointSealed, done, blob.len() as u64, 0);
        self.store.save(ClockCheckpoint {
            delivered: done,
            digest,
            blob,
        });
        self.stats.checkpoints += 1;
    }

    /// Fires every crash scheduled at `done`: the worker dies and
    /// everything in flight is lost. `restore` is handed the last durable
    /// checkpoint and must rebuild the item's whole state from it —
    /// progress count, digest and a stream fast-forwarded without feeding
    /// the restored state — returning the count it resumed at. On a typed
    /// error, or when no checkpoint exists, it is called again with `None`
    /// and must cold-start from zero: a failed restore costs warm state,
    /// never correctness.
    pub fn recover(
        &mut self,
        mut done: u64,
        mut restore: impl FnMut(Option<&ClockCheckpoint>) -> Result<u64, SnapshotError>,
    ) {
        while self.crash_points.get(self.next_crash) == Some(&done) {
            // advance first: a cold restart from 0 must not re-fire this point
            self.next_crash += 1;
            self.stats.crashes += 1;
            telemetry::add(telemetry::Ctr::CrashesInjected, 1);
            telemetry::event(telemetry::EventKind::CrashInjected, done, self.stats.crashes, 0);
            let resumed = match self.store.last().map(|ck| restore(Some(ck))) {
                Some(Ok(at)) => {
                    self.stats.warm_restores += 1;
                    telemetry::add(telemetry::Ctr::WarmRestores, 1);
                    telemetry::event(telemetry::EventKind::WarmRestore, done, at, 0);
                    at
                }
                _ => {
                    // A failed restore was already recorded, with the typed
                    // `SnapshotError` named, by the component that refused
                    // the bytes; the fallback to cold is counted and
                    // flight-recorded here for the caller's post-mortem.
                    self.stats.cold_restarts += 1;
                    telemetry::add(telemetry::Ctr::ColdRestarts, 1);
                    telemetry::event(telemetry::EventKind::ColdRestart, done, 0, 0);
                    restore(None).expect("a cold start restores nothing and cannot fail")
                }
            };
            self.stats.replayed += resumed;
            telemetry::add(telemetry::Ctr::ReplayedPackets, resumed);
            done = resumed;
        }
    }
}

/// Opens a composite [`snapshot::kind::CHECKPOINT`] envelope — a
/// component snapshot plus the replay sidecar its workload needs — and
/// parses the sidecar. A failure is recorded the way every component
/// restore records its own, so the flight trail names the typed error
/// whichever layer refused the bytes.
pub(crate) fn open_sidecar<'b, T>(
    blob: &'b [u8],
    parse: impl FnOnce(&mut SnapshotReader<'b>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let parsed = snapshot::open_envelope(blob, snapshot::kind::CHECKPOINT).and_then(|payload| {
        let mut r = SnapshotReader::new(payload);
        let sidecar = parse(&mut r)?;
        r.finish()?;
        Ok(sidecar)
    });
    if let Err(e) = &parsed {
        snapshot::record_restore_failure(e, blob.len());
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, replay_item, FleetConfig};
    use tsc_netsim::Scenario;
    use tscclock::ClockConfig;

    fn small_cfg(clocks: usize) -> FleetConfig {
        let scenario = Scenario::baseline(0)
            .with_poll_period(256.0)
            .with_duration(256.0 * 200.0);
        FleetConfig::new(clocks, 42, scenario, ClockConfig::paper_defaults(256.0))
    }

    #[test]
    fn crash_plan_is_deterministic_and_sorted() {
        let plan = CrashPlan {
            seed: 9,
            crash_frac: 0.7,
            max_crashes: 4,
            horizon_packets: 500,
        };
        let mut crashed = 0;
        for i in 0..100 {
            let a = plan.points(i);
            assert_eq!(a, plan.points(i), "clock {i}");
            if !a.is_empty() {
                crashed += 1;
                assert!(a.windows(2).all(|w| w[0] < w[1]), "unsorted: {a:?}");
                assert!(a.iter().all(|&p| (1..=500).contains(&p)));
                assert!(a.len() <= 4);
            }
        }
        assert!((45..95).contains(&crashed), "{crashed}/100 clocks crashed");
        assert!(CrashPlan::none().points(3).is_empty());
    }

    #[test]
    fn checkpointed_replay_without_faults_matches_plain() {
        let cfg = small_cfg(3);
        let plain = replay(None, &cfg);
        for every in [0u64, 1, 17, 1000] {
            for (i, want) in plain.iter().enumerate() {
                let mut store = LatestCheckpoint::default();
                let (got, stats) = replay_item(&cfg, i, every, &[], &mut store);
                assert_eq!(&got, want, "clock {i}, every {every}");
                assert_eq!(stats.crashes, 0);
                if every > 0 {
                    assert!(stats.checkpoints > 0 || want.delivered < every);
                }
            }
        }
    }

    #[test]
    fn crash_without_any_checkpoint_cold_starts_and_stays_exact() {
        let cfg = small_cfg(1);
        let want = &replay(None, &cfg)[0];
        let mut store = LatestCheckpoint::default();
        // checkpointing disabled: the crashes have nothing to restore
        let (got, stats) = replay_item(&cfg, 0, 0, &[50, 120], &mut store);
        assert_eq!(&got, want);
        assert_eq!(stats.crashes, 2);
        assert_eq!(stats.cold_restarts, 2);
        assert_eq!(stats.warm_restores, 0);
    }
}
