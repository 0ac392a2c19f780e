//! Sharded multi-clock replay: N independent TSC-NTP clocks, each driven
//! by its own seeded netsim scenario, executed across the worker pool.
//!
//! The unit of work is one whole clock: its packet stream is totally
//! ordered and stateful (the clock is an online filter), so a clock is
//! never split across threads — parallelism comes from the fleet axis,
//! which is exactly how the paper's algorithm scales in production (one
//! cheap clock per host, millions of hosts). Each clock's replay runs the
//! allocation-free loop: borrow-streamed scenario generation
//! ([`tsc_netsim::Scenario::stream`]) → batched ingest
//! ([`tscclock::TscNtpClock::process_batch`]) → output digesting, with two
//! reused buffers and no per-packet allocation.
//!
//! Because every clock is computed by a pure function of `(template,
//! base_seed + clock id)` and lands in its own result slot, the fleet
//! result is **bit-identical for every thread count and shard size** — the
//! parity tests in `tests/parity.rs` enforce this.

use crate::pool::WorkerPool;
use std::sync::Arc;
use tsc_netsim::Scenario;
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, ProcessOutput, TscNtpClock};

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

/// Replays a single clock against the scenario `template` with the master
/// seed overridden by `seed`, streaming generation into the batched ingest
/// path. Nothing is cloned from the template, and the loop is
/// allocation-free after the two buffers reach `ingest_batch` capacity.
pub fn replay_clock(
    fleet_index: usize,
    template: &Scenario,
    seed: u64,
    clock_cfg: &ClockConfig,
    ingest_batch: usize,
) -> ClockSummary {
    let batch = ingest_batch.max(1);
    let mut clock = TscNtpClock::new(*clock_cfg);
    let mut stream = template.stream_with_seed(seed).raw();
    let mut buf = Vec::with_capacity(batch);
    let mut out: Vec<ProcessOutput> = Vec::with_capacity(batch);
    let mut digest = FNV_OFFSET;
    let mut delivered = 0u64;
    loop {
        buf.clear();
        // Batched generation: one call fills the whole ingest buffer
        // (bit-identical to a `next()` loop, without per-item dispatch).
        stream.fill_batch(&mut buf, batch);
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
    }
    let status = clock.status();
    ClockSummary {
        clock: fleet_index,
        delivered,
        packets: status.packets,
        p_hat: status.p_hat,
        theta_hat: status.theta_hat,
        digest,
    }
}

/// Replays the whole fleet across `pool`, one clock per work item.
/// Summaries are returned in clock order and are bit-identical for every
/// thread count and `chunk`.
pub fn replay_fleet(pool: &mut WorkerPool, cfg: &FleetConfig) -> Vec<ClockSummary> {
    telemetry::install_panic_dump();
    telemetry::gauge_set(telemetry::Gauge::FleetClocks, cfg.clocks as u64);
    let chunk = if cfg.chunk == 0 {
        (cfg.clocks / (8 * pool.threads())).max(1)
    } else {
        cfg.chunk
    };
    let shared = Arc::new(cfg.clone());
    pool.run(cfg.clocks, chunk, move |i| {
        replay_clock(
            i,
            &shared.scenario,
            shared.base_seed.wrapping_add(i as u64),
            &shared.clock,
            shared.ingest_batch,
        )
    })
}

/// Sequential reference replay (no pool): the ground truth the parity
/// tests compare every parallel configuration against.
pub fn replay_sequential(cfg: &FleetConfig) -> Vec<ClockSummary> {
    (0..cfg.clocks)
        .map(|i| {
            replay_clock(
                i,
                &cfg.scenario,
                cfg.base_seed.wrapping_add(i as u64),
                &cfg.clock,
                cfg.ingest_batch,
            )
        })
        .collect()
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
        let summaries = replay_sequential(&cfg);
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
        let baseline = replay_sequential(&cfg);
        for batch in [1, 7, 64, 10_000] {
            cfg.ingest_batch = batch;
            assert_eq!(replay_sequential(&cfg), baseline, "batch {batch}");
        }
    }

    #[test]
    fn fleet_runs_on_a_pool() {
        let cfg = small_cfg(9);
        let mut pool = WorkerPool::new(3);
        let got = replay_fleet(&mut pool, &cfg);
        assert_eq!(got, replay_sequential(&cfg));
        assert_eq!(total_delivered(&got), got.iter().map(|s| s.delivered).sum::<u64>());
    }
}
