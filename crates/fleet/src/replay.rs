//! The replay driver, and its first workload: N independent TSC-NTP
//! clocks, each driven by its own seeded netsim scenario.
//!
//! A [`Workload`] is a fleet of independent, totally ordered, stateful
//! work items (a clock is an online filter), so an item is never split
//! across threads — parallelism comes from the fleet axis, which is
//! exactly how the paper's algorithm scales in production (one cheap
//! clock per host, millions of hosts). [`replay`] fans the items out over
//! the worker pool, or runs them in order when given no pool;
//! [`replay_interrupted`] does the same under a checkpoint cadence and a
//! [`CrashPlan`]; [`replay_item`] runs one item against explicit crash
//! points and a caller-owned store. Each workload's `item` is one
//! straight-line loop that asks its [`Interrupts`] where to stop.
//!
//! A clock's replay runs the allocation-free loop: borrow-streamed
//! scenario generation ([`tsc_netsim::Scenario::stream`]) → batched ingest
//! ([`tscclock::TscNtpClock::process_batch`]) → output digesting, with two
//! reused buffers and no per-packet allocation.
//!
//! Because every item is computed by a pure function of `(config, index)`
//! and lands in its own result slot, the fleet result is **bit-identical
//! for every thread count, shard size, checkpoint cadence and crash
//! schedule** — `tests/parity.rs` and `tests/crash_recovery.rs` enforce
//! this.

use crate::pool::WorkerPool;
use crate::recovery::{CheckpointStore, CrashPlan, Interrupts, LatestCheckpoint, RecoveryStats};
use std::sync::Arc;
use tsc_netsim::Scenario;
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, ProcessOutput, TscNtpClock};

/// A fleet of independent work items the driver can replay.
pub trait Workload: Clone + Send + Sync + 'static {
    /// Result of replaying one item.
    type Summary: Send + 'static;

    /// Gauge that reports the fleet size of the most recent replay.
    const SIZE_GAUGE: Option<telemetry::Gauge> = None;

    /// Number of items.
    fn items(&self) -> usize;

    /// Items claimed from the shared pile per steal; `0` = auto.
    fn chunk(&self) -> usize;

    /// Replays item `i` start to finish: a pure function of `(self, i)`,
    /// whatever `intr` schedules.
    fn item(&self, i: usize, intr: &mut Interrupts<'_>) -> Self::Summary;
}

/// Replays every item of `w` — across `pool`, or in order on the calling
/// thread when `pool` is `None` (the sequential reference the parity
/// suites compare against). Summaries are in item order and bit-identical
/// for every thread count and chunk.
pub fn replay<W: Workload>(pool: Option<&mut WorkerPool>, w: &W) -> Vec<W::Summary> {
    replay_interrupted(pool, w, 0, &CrashPlan::none()).0
}

/// [`replay`] with per-item checkpointing every `checkpoint_every` units
/// of progress and the given crash schedule. The summaries are
/// bit-identical to [`replay`]'s for **any** schedule; the aggregated
/// [`RecoveryStats`] witness that the schedule actually fired.
pub fn replay_interrupted<W: Workload>(
    pool: Option<&mut WorkerPool>,
    w: &W,
    checkpoint_every: u64,
    crash: &CrashPlan,
) -> (Vec<W::Summary>, RecoveryStats) {
    if let Some(gauge) = W::SIZE_GAUGE {
        telemetry::gauge_set(gauge, w.items() as u64);
    }
    let crash = *crash;
    let one = move |w: &W, i: usize| {
        let mut store = LatestCheckpoint::default();
        replay_item(w, i, checkpoint_every, &crash.points(i), &mut store)
    };
    let results: Vec<_> = match pool {
        None => (0..w.items()).map(|i| one(w, i)).collect(),
        Some(pool) => {
            let chunk = match w.chunk() {
                0 => (w.items() / (8 * pool.threads())).max(1),
                chunk => chunk,
            };
            let shared = Arc::new(w.clone());
            pool.run(w.items(), chunk, move |i| one(&shared, i))
        }
    };
    let mut stats = RecoveryStats::default();
    let summaries = results
        .into_iter()
        .map(|(summary, st)| {
            stats.merge(st);
            summary
        })
        .collect();
    (summaries, stats)
}

/// Replays item `i` of `w` alone, crashing at `crash_points` (strictly
/// ascending progress counts) and recovering through `store` — the form
/// that lets a test hand in a store that corrupts what it is given.
pub fn replay_item<W: Workload>(
    w: &W,
    i: usize,
    checkpoint_every: u64,
    crash_points: &[u64],
    store: &mut dyn CheckpointStore,
) -> (W::Summary, RecoveryStats) {
    let mut intr = Interrupts::new(checkpoint_every, crash_points, store);
    let summary = w.item(i, &mut intr);
    (summary, intr.stats())
}

/// Configuration of one fleet replay.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent clocks.
    pub clocks: usize,
    /// Clock `i` runs the scenario template with seed `base_seed + i`.
    pub base_seed: u64,
    /// Scenario template (seed field is overridden per clock).
    pub scenario: Scenario,
    /// Algorithm parameters, identical for every clock.
    pub clock: ClockConfig,
    /// Exchanges handed to [`TscNtpClock::process_batch`] per call.
    pub ingest_batch: usize,
    /// Clocks claimed from the shared pile per steal; `0` = auto
    /// (`clocks / (8 · threads)`, at least 1).
    pub chunk: usize,
}

impl FleetConfig {
    /// A fleet of `clocks` clones of `scenario` with per-clock seeds.
    pub fn new(clocks: usize, base_seed: u64, scenario: Scenario, clock: ClockConfig) -> Self {
        Self {
            clocks,
            base_seed,
            scenario,
            clock,
            ingest_batch: 256,
            chunk: 0,
        }
    }
}

/// Result of replaying one clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSummary {
    /// Fleet index of this clock.
    pub clock: usize,
    /// Exchanges delivered to the clock (lost packets excluded).
    pub delivered: u64,
    /// Packets accepted into the clock's history.
    pub packets: u64,
    /// Final global rate estimate.
    pub p_hat: Option<f64>,
    /// Final offset estimate.
    pub theta_hat: Option<f64>,
    /// FNV-1a digest over the bit patterns of every [`ProcessOutput`] the
    /// clock produced — the bit-exactness witness the parity tests compare.
    pub digest: u64,
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
pub(crate) fn fnv(mut h: u64, word: u64) -> u64 {
    for shift in [0u32, 32] {
        h ^= (word >> shift) & 0xffff_ffff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one per-packet output into a digest.
pub(crate) fn fold_output(mut h: u64, o: &ProcessOutput) -> u64 {
    h = fnv(h, o.idx);
    h = fnv(h, o.rtt.to_bits());
    h = fnv(h, o.point_error.to_bits());
    h = fnv(h, o.theta_naive.to_bits());
    h = fnv(h, o.theta_hat.to_bits());
    h = fnv(h, o.p_hat.to_bits());
    h = fnv(h, o.p_local.map_or(u64::MAX, f64::to_bits));
    let events: u64 = o.events.iter().map(|e| 1u64 << (e as u16)).sum();
    fnv(h, events)
}

impl Workload for FleetConfig {
    type Summary = ClockSummary;

    const SIZE_GAUGE: Option<telemetry::Gauge> = Some(telemetry::Gauge::FleetClocks);

    fn items(&self) -> usize {
        self.clocks
    }

    fn chunk(&self) -> usize {
        self.chunk
    }

    /// Streams the scenario template, reseeded for clock `i`, into the
    /// batched ingest path. Nothing is cloned from the template, and the
    /// loop is allocation-free after the two buffers reach `ingest_batch`
    /// capacity. Progress is counted in delivered packets.
    fn item(&self, i: usize, intr: &mut Interrupts<'_>) -> ClockSummary {
        let seed = self.base_seed.wrapping_add(i as u64);
        let batch = self.ingest_batch.max(1);
        let mut clock = TscNtpClock::new(self.clock);
        let mut stream = self.scenario.stream_with_seed(seed).raw();
        let mut buf = Vec::with_capacity(batch);
        let mut out: Vec<ProcessOutput> = Vec::with_capacity(batch);
        let mut digest = FNV_OFFSET;
        let mut delivered = 0u64;
        loop {
            buf.clear();
            // Batched generation: one call fills the whole ingest buffer
            // (bit-identical to a `next()` loop, without per-item
            // dispatch), capped at the next checkpoint or crash boundary.
            stream.fill_batch(&mut buf, intr.budget(delivered, batch as u64) as usize);
            if buf.is_empty() {
                break;
            }
            delivered += buf.len() as u64;
            out.clear();
            let tm = telemetry::StageTimer::start(telemetry::Hist::IngestBatchNs);
            clock.process_batch(&buf, &mut out);
            tm.stop();
            telemetry::add(telemetry::Ctr::PacketsIngested, buf.len() as u64);
            telemetry::add(telemetry::Ctr::BatchesIngested, 1);
            for o in &out {
                digest = fold_output(digest, o);
            }
            intr.checkpoint(delivered, digest, || clock.snapshot());
            intr.recover(delivered, |ck| {
                (clock, delivered, digest) = match ck {
                    Some(ck) => (TscNtpClock::restore(&ck.blob)?, ck.delivered, ck.digest),
                    None => (TscNtpClock::new(self.clock), 0, FNV_OFFSET),
                };
                // Regenerate the stream and fast-forward to the resume
                // point without feeding the clock (its state covers it).
                stream = self.scenario.stream_with_seed(seed).raw();
                let mut skipped = 0;
                while skipped < delivered {
                    buf.clear();
                    stream.fill_batch(&mut buf, ((delivered - skipped) as usize).min(batch));
                    if buf.is_empty() {
                        break;
                    }
                    skipped += buf.len() as u64;
                }
                Ok(delivered)
            });
        }
        let status = clock.status();
        ClockSummary {
            clock: i,
            delivered,
            packets: status.packets,
            p_hat: status.p_hat,
            theta_hat: status.theta_hat,
            digest,
        }
    }
}

/// Total exchanges delivered across the fleet (the numerator of the
/// aggregate packets/s figure the benches report).
pub fn total_delivered(summaries: &[ClockSummary]) -> u64 {
    summaries.iter().map(|s| s.delivered).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(clocks: usize) -> FleetConfig {
        let scenario = Scenario::baseline(0)
            .with_poll_period(256.0)
            .with_duration(256.0 * 200.0);
        FleetConfig::new(clocks, 42, scenario, ClockConfig::paper_defaults(256.0))
    }

    #[test]
    fn replay_produces_estimates_and_distinct_digests() {
        let cfg = small_cfg(4);
        let summaries = replay(None, &cfg);
        assert_eq!(summaries.len(), 4);
        for (i, s) in summaries.iter().enumerate() {
            assert_eq!(s.clock, i);
            assert!(s.delivered > 150, "clock {i}: {} delivered", s.delivered);
            assert_eq!(s.packets, s.delivered, "all causal packets admitted");
            let p = s.p_hat.expect("rate estimate");
            assert!((p - 1e-9).abs() / 1e-9 < 1e-3, "clock {i} p̂ {p}");
            assert!(s.theta_hat.is_some());
        }
        // distinct seeds → distinct streams → distinct digests
        let mut digests: Vec<u64> = summaries.iter().map(|s| s.digest).collect();
        digests.dedup();
        assert_eq!(digests.len(), 4);
    }

    #[test]
    fn ingest_batch_size_does_not_change_results() {
        let mut cfg = small_cfg(3);
        let baseline = replay(None, &cfg);
        for batch in [1, 7, 64, 10_000] {
            cfg.ingest_batch = batch;
            assert_eq!(replay(None, &cfg), baseline, "batch {batch}");
        }
    }

    #[test]
    fn fleet_runs_on_a_pool() {
        let cfg = small_cfg(9);
        let mut pool = WorkerPool::new(3);
        let got = replay(Some(&mut pool), &cfg);
        assert_eq!(got, replay(None, &cfg));
        assert_eq!(total_delivered(&got), got.iter().map(|s| s.delivered).sum::<u64>());
    }
}
