//! Population replay: a heterogeneous fleet of *lifecycle* clients
//! surviving a hostile network together.
//!
//! Where [`crate::replay`] replays bare clocks on fixed-cadence streams,
//! this module replays [`LifecycleClient`]s on client-driven
//! [`OnDemandSim`] timelines: every client gets a path profile drawn from
//! a [`ProfileMix`] (datacenter / DSL / Wi-Fi / mobile / satellite), its
//! own deterministic join/leave times from the churn plan, and schedules
//! its own requests through timeouts, backoff, cooldown and recovery.
//! The fleet-level observables are the ones a provider's postmortems care
//! about: per-profile clock error percentiles, time-in-state, and the
//! **request-rate timeline** — the thundering-herd witness.
//!
//! ## Determinism contract (same as [`crate::replay`])
//!
//! Client `i` is a pure function of `(config, i)`: profile assignment is
//! `mix.assign(base_seed, i)`, the scenario seed is `base_seed + i`, churn
//! times are splitmix64 draws off `(base_seed, i)`, and the lifecycle
//! jitter stream is seeded from the same per-client seed. Each result
//! lands in its own slot, so population summaries — including every
//! per-client digest — are **bit-identical across thread counts and chunk
//! geometries**; `tests/parity.rs` extends the digest-equality proof to
//! this engine.
//!
//! ## The herd ablation
//!
//! [`compare_herd`] replays the *same* population twice against a
//! scenario with a server outage: once with the jittered exponential
//! backoff policy, once with the naive fixed-interval retry
//! ([`LifecycleConfig::naive`]). The request-rate buckets are merged
//! elementwise (order-independent, so parallel-safe) and the peak rates
//! in the post-outage window are compared — the jittered policy must cap
//! the re-sync spike, and the acceptance test pins the ratio.

use crate::lifecycle::{
    ClientState, ExchangeOutcome, LifecycleClient, LifecycleConfig, STATE_COUNT,
};
use crate::pool::WorkerPool;
use crate::recovery::{open_sidecar, Interrupts};
use crate::replay::{fnv, replay, Workload, FNV_OFFSET};
use tsc_netsim::multi::splitmix64;
use tsc_netsim::profile::{PathProfile, ProfileMix};
use tsc_netsim::{OnDemandSim, Scenario};
use tsc_telemetry as telemetry;
use tscclock::snapshot::{self, SnapshotWriter};
use tscclock::{ClockConfig, RawExchange, SnapshotError};

/// Salt of the per-client churn draws.
const CHURN_SALT: u64 = 0x7A_31_9C_4E_D2_58_0B_F1;

/// Mid-replay churn: which clients join late and which leave early, all
/// decided deterministically per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Fraction of clients that join mid-replay instead of at `t = 0`.
    pub join_frac: f64,
    /// Window `(start, end)` the late joiners' join times are drawn from.
    pub join_window: (f64, f64),
    /// Fraction of clients that leave before the horizon.
    pub leave_frac: f64,
    /// Window the leavers' departure times are drawn from.
    pub leave_window: (f64, f64),
}

impl ChurnPlan {
    /// No churn: everyone runs start to finish.
    pub fn none() -> Self {
        Self {
            join_frac: 0.0,
            join_window: (0.0, 0.0),
            leave_frac: 0.0,
            leave_window: (0.0, 0.0),
        }
    }

    /// The deterministic `(join, leave)` times of client `i`; `leave` is
    /// the scenario horizon for stayers. A draw that would order leave
    /// before join keeps the client until the horizon instead.
    pub fn times(&self, base_seed: u64, i: usize, horizon: f64) -> (f64, f64) {
        let u = |k: u64| -> f64 {
            let x = splitmix64(
                base_seed ^ CHURN_SALT ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k,
            );
            // 53-bit mantissa uniform in [0, 1)
            (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let join = if u(1) < self.join_frac {
            self.join_window.0 + u(2) * (self.join_window.1 - self.join_window.0)
        } else {
            0.0
        };
        let leave = if u(3) < self.leave_frac {
            self.leave_window.0 + u(4) * (self.leave_window.1 - self.leave_window.0)
        } else {
            horizon
        };
        if leave <= join {
            (join, horizon)
        } else {
            (join, leave.min(horizon))
        }
    }
}

/// Configuration of one population replay.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of lifecycle clients.
    pub clients: usize,
    /// Client `i` derives everything from `base_seed` and `i`.
    pub base_seed: u64,
    /// Scenario template: duration, poll period, and the shared fault
    /// schedule (outages / shifts / server faults) every client sees.
    /// The per-client profile reshapes the *path* on top of it.
    pub scenario: Scenario,
    /// Algorithm parameters, identical for every client.
    pub clock: ClockConfig,
    /// Profile mix the fleet is drawn from.
    pub mix: ProfileMix,
    /// Churn plan.
    pub churn: ChurnPlan,
    /// `false` replays the naive fixed-retry ablation (herd-prone);
    /// `true` the jittered exponential-backoff policy.
    pub jittered: bool,
    /// Fixed retry interval of the naive ablation (seconds).
    pub naive_retry: f64,
    /// Width of the request-rate histogram buckets (seconds).
    pub bucket_width: f64,
    /// Clocks claimed per steal; `0` = auto.
    pub chunk: usize,
    /// Warm-restart drill: at each client's first scheduled send at or
    /// after this time, the client is snapshotted and restored **through
    /// bytes** — a simulated process restart mid-run. Resume exactness
    /// makes the drill a digest no-op, which is precisely what the
    /// restart-mid-cooldown herd arm asserts: restored clients keep their
    /// backoff-ladder position and jitter-stream phase, so the re-sync
    /// spike stays suppressed.
    pub restart_at: Option<f64>,
}

impl PopulationConfig {
    /// A population of `clients` over `scenario` with the consumer mix,
    /// no churn, jittered backoff.
    pub fn new(clients: usize, base_seed: u64, scenario: Scenario, clock: ClockConfig) -> Self {
        let bucket_width = (scenario.poll_period / 4.0).max(1.0);
        Self {
            clients,
            base_seed,
            scenario,
            clock,
            mix: ProfileMix::consumer(),
            churn: ChurnPlan::none(),
            jittered: true,
            naive_retry: 2.0,
            bucket_width,
            chunk: 0,
            restart_at: None,
        }
    }

    fn buckets_len(&self) -> usize {
        (self.scenario.duration / self.bucket_width).ceil() as usize + 1
    }

    /// The fleet-level view of this population's per-client results.
    pub fn summarize(&self, clients: Vec<ClientSummary>) -> PopulationSummary {
        PopulationSummary {
            clients,
            bucket_width: self.bucket_width,
        }
    }
}

/// Result of replaying one lifecycle client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSummary {
    /// Fleet index.
    pub client: usize,
    /// Assigned path profile.
    pub profile: PathProfile,
    /// Final lifecycle state.
    pub final_state: ClientState,
    /// Seconds spent in each state (`ClientState as usize` indexed).
    pub time_in_state: [f64; STATE_COUNT],
    /// `(requests, accepted, rejected, timeouts)`.
    pub counters: (u64, u64, u64, u64),
    /// Total lifecycle transitions.
    pub transitions: u64,
    /// Join / leave times actually used.
    pub joined_at: f64,
    pub left_at: f64,
    /// Request counts per time bucket (fixed geometry across the fleet,
    /// so summaries merge elementwise).
    pub buckets: Vec<u32>,
    /// `|Ca(Tf) − true Tf|` at every accepted exchange once aligned.
    pub errors: Vec<f64>,
    /// FNV-1a digest over the full outcome/state trajectory — the
    /// bit-exactness witness the parity tests compare.
    pub digest: u64,
}

/// Seals a population-client checkpoint: the client's snapshot plus the
/// replay sidecar (progress count, digest, sim re-drive script, buckets,
/// errors) in one [`snapshot::kind::CHECKPOINT`] envelope.
fn encode_client_checkpoint(
    client: &LifecycleClient,
    n: u64,
    digest: u64,
    sent: &[f64],
    buckets: &[u32],
    errors: &[f64],
) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_u64(n);
    w.put_u64(digest);
    w.put_bytes(&client.snapshot());
    w.put_usize(sent.len());
    for &t in sent {
        w.put_f64(t);
    }
    w.put_usize(buckets.len());
    for &b in buckets {
        w.put_u32(b);
    }
    w.put_usize(errors.len());
    for &e in errors {
        w.put_f64(e);
    }
    w.seal(snapshot::kind::CHECKPOINT)
}

#[allow(clippy::type_complexity)]
fn decode_client_checkpoint(
    blob: &[u8],
) -> Result<(LifecycleClient, u64, u64, Vec<f64>, Vec<u32>, Vec<f64>), SnapshotError> {
    let (n, digest, client, sent, buckets, errors) = open_sidecar(blob, |r| {
        let n = r.get_u64()?;
        let digest = r.get_u64()?;
        let client = r.get_bytes()?;
        let n_sent = r.get_len(8)?;
        let mut sent = Vec::with_capacity(n_sent);
        for _ in 0..n_sent {
            sent.push(r.get_f64()?);
        }
        let n_buckets = r.get_len(4)?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            buckets.push(r.get_u32()?);
        }
        let n_errors = r.get_len(8)?;
        let mut errors = Vec::with_capacity(n_errors);
        for _ in 0..n_errors {
            errors.push(r.get_f64()?);
        }
        if n != sent.len() as u64 {
            return Err(SnapshotError::Invalid("checkpoint request count mismatch"));
        }
        // every request counts in at most one bucket (a hostile count
        // would overflow on the next request)
        if buckets.iter().map(|&b| u64::from(b)).sum::<u64>() > n {
            return Err(SnapshotError::Invalid("checkpoint buckets count unsent requests"));
        }
        Ok((n, digest, client, sent, buckets, errors))
    })?;
    Ok((LifecycleClient::restore(client)?, n, digest, sent, buckets, errors))
}

impl Workload for PopulationConfig {
    type Summary = ClientSummary;

    const SIZE_GAUGE: Option<telemetry::Gauge> = Some(telemetry::Gauge::PopulationClients);

    fn items(&self) -> usize {
        self.clients
    }

    fn chunk(&self) -> usize {
        self.chunk
    }

    /// Replays lifecycle client `i` on its own client-driven timeline.
    /// Progress is counted in requests; a checkpoint that fails to
    /// restore degrades to a cold re-run from the join time.
    fn item(&self, i: usize, intr: &mut Interrupts<'_>) -> ClientSummary {
        let seed = self.base_seed.wrapping_add(i as u64);
        let profile = self.mix.assign(self.base_seed, i);
        let scenario = profile.apply(&self.scenario, seed);
        let horizon = scenario.duration;
        let (joined_at, left_at) = self.churn.times(self.base_seed, i, horizon);

        let lc = if self.jittered {
            LifecycleConfig::for_profile(profile, scenario.poll_period)
        } else {
            LifecycleConfig::for_profile(profile, scenario.poll_period).naive(self.naive_retry)
        };
        let mut client = LifecycleClient::new(lc, self.clock, seed, joined_at);
        let mut sim = OnDemandSim::new(&scenario);
        let nominal_period = 1.0 / sim.tsc_freq_hz();

        let mut buckets = vec![0u32; self.buckets_len()];
        let mut errors = Vec::new();
        let mut digest = FNV_OFFSET;
        // Every send time issued so far — the sim re-drive script a restore
        // needs (OnDemandSim is stateful; its state is a pure function of the
        // issued t sequence).
        let mut sent: Vec<f64> = Vec::new();
        let mut n = 0u64;
        let mut restart_pending = self.restart_at;

        loop {
            let t = client.next_send().max(sim.earliest_next());
            if t >= left_at {
                break;
            }
            if restart_pending.is_some_and(|rt| t >= rt) {
                restart_pending = None;
                // the warm-restart drill: a snapshot/restore round trip
                // through bytes mid-run — resume exactness makes it invisible
                let blob = client.snapshot();
                client = LifecycleClient::restore(&blob)
                    .expect("snapshot of a live client must restore");
            }
            client.end_cooldown(t);
            client.note_request();
            let b = (t / self.bucket_width) as usize;
            if let Some(slot) = buckets.get_mut(b) {
                *slot += 1;
            }
            let e = sim.exchange_at(t);
            let outcome = if e.lost || e.truth.tf - t > lc.timeout {
                // lost outright, or the response arrived after the client
                // already gave up — either way the client sees a timeout
                client.on_timeout(t + lc.timeout)
            } else {
                let raw = RawExchange {
                    ta_tsc: e.ta_tsc,
                    tb: e.tb,
                    te: e.te,
                    tf_tsc: e.tf_tsc,
                };
                let out = client.on_response(e.truth.tf, raw, nominal_period);
                if matches!(out, ExchangeOutcome::Accepted(_)) {
                    if let Some(ca) = client.clock().absolute_time(e.tf_tsc) {
                        errors.push((ca - e.truth.tf).abs());
                    }
                }
                out
            };
            let code: u64 = match outcome {
                ExchangeOutcome::Accepted(Some(_)) => 1,
                ExchangeOutcome::Accepted(None) => 2,
                ExchangeOutcome::Rejected { .. } => 3,
                ExchangeOutcome::TimedOut => 4,
            };
            digest = fnv(digest, t.to_bits());
            digest = fnv(digest, code | (client.state() as u64) << 8);
            n += 1;
            sent.push(t);
            intr.checkpoint(n, digest, || {
                encode_client_checkpoint(&client, n, digest, &sent, &buckets, &errors)
            });
            intr.recover(n, |ck| {
                if let Some(ck) = ck {
                    (client, n, digest, sent, buckets, errors) =
                        decode_client_checkpoint(&ck.blob)?;
                } else {
                    client = LifecycleClient::new(lc, self.clock, seed, joined_at);
                    (n, digest) = (0, FNV_OFFSET);
                    buckets = vec![0u32; self.buckets_len()];
                    errors.clear();
                    sent.clear();
                }
                sim = OnDemandSim::new(&scenario);
                for &ts in &sent {
                    let _ = sim.exchange_at(ts);
                }
                Ok(n)
            });
        }
        client.finish(left_at);

        let (requests, accepted, rejected, timeouts) = client.counters();
        digest = fnv(digest, requests);
        digest = fnv(digest, accepted);
        digest = fnv(digest, rejected);
        digest = fnv(digest, timeouts);
        digest = fnv(digest, client.transition_count());
        for s in client.time_in_state() {
            digest = fnv(digest, s.to_bits());
        }
        for e in &errors {
            digest = fnv(digest, e.to_bits());
        }

        ClientSummary {
            client: i,
            profile,
            final_state: client.state(),
            time_in_state: client.time_in_state(),
            counters: (requests, accepted, rejected, timeouts),
            transitions: client.transition_count(),
            joined_at,
            left_at,
            buckets,
            errors,
            digest,
        }
    }
}

/// Fleet-level view of a population replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSummary {
    /// Per-client results, in client order.
    pub clients: Vec<ClientSummary>,
    /// Histogram geometry the per-client buckets share.
    pub bucket_width: f64,
}

impl PopulationSummary {
    /// Elementwise sum of every client's request buckets. Merge order is
    /// irrelevant (integer addition commutes), which is what makes the
    /// herd metric parallel-safe.
    pub fn merged_buckets(&self) -> Vec<u32> {
        let len = self.clients.iter().map(|c| c.buckets.len()).max().unwrap_or(0);
        let mut merged = vec![0u32; len];
        for c in &self.clients {
            for (m, b) in merged.iter_mut().zip(&c.buckets) {
                *m += b;
            }
        }
        merged
    }

    /// Peak per-bucket request count inside the `(start, end)` window.
    pub fn peak_in(&self, window: (f64, f64)) -> u32 {
        let merged = self.merged_buckets();
        let lo = (window.0 / self.bucket_width).floor().max(0.0) as usize;
        let hi = ((window.1 / self.bucket_width).ceil() as usize).min(merged.len());
        merged[lo.min(merged.len())..hi].iter().copied().max().unwrap_or(0)
    }

    /// All accepted-read clock errors of one profile's clients, sorted.
    pub fn profile_errors(&self, profile: PathProfile) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.profile == profile)
            .flat_map(|c| c.errors.iter().copied())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Fleet-wide seconds per state.
    pub fn time_in_state(&self) -> [f64; STATE_COUNT] {
        let mut total = [0.0; STATE_COUNT];
        for c in &self.clients {
            for (t, s) in total.iter_mut().zip(c.time_in_state) {
                *t += s;
            }
        }
        total
    }

    /// One digest over the whole population, in client order.
    pub fn digest(&self) -> u64 {
        self.clients.iter().fold(FNV_OFFSET, |h, c| fnv(h, c.digest))
    }
}

/// Outcome of the thundering-herd ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HerdComparison {
    /// Peak post-outage bucket count with naive fixed-interval retry.
    pub naive_peak: u32,
    /// Peak post-outage bucket count with jittered exponential backoff.
    pub jittered_peak: u32,
    /// The post-outage window compared.
    pub window: (f64, f64),
    /// The full summaries, for deeper inspection.
    pub naive: PopulationSummary,
    pub jittered: PopulationSummary,
}

impl HerdComparison {
    /// `naive_peak / jittered_peak` — how much the jittered policy caps
    /// the re-sync spike. The acceptance bar is ≥ 3.
    pub fn ratio(&self) -> f64 {
        self.naive_peak as f64 / (self.jittered_peak.max(1)) as f64
    }
}

/// Runs the herd ablation: the same population twice, naive vs jittered,
/// against `cfg.scenario` which must contain at least one outage. The
/// compared window starts when the *last* outage ends and spans
/// `window_periods` poll periods.
pub fn compare_herd(
    pool: &mut WorkerPool,
    cfg: &PopulationConfig,
    window_periods: f64,
) -> HerdComparison {
    let outage_end = cfg
        .scenario
        .path
        .outages
        .iter()
        .map(|&(_, end)| end)
        .fold(f64::NAN, f64::max);
    assert!(
        outage_end.is_finite(),
        "herd comparison needs an outage in the scenario"
    );
    let window = (
        outage_end,
        (outage_end + window_periods * cfg.scenario.poll_period).min(cfg.scenario.duration),
    );
    let jittered_cfg = PopulationConfig {
        jittered: true,
        ..cfg.clone()
    };
    let naive_cfg = PopulationConfig {
        jittered: false,
        ..cfg.clone()
    };
    let jittered = cfg.summarize(replay(Some(&mut *pool), &jittered_cfg));
    let naive = cfg.summarize(replay(Some(pool), &naive_cfg));
    HerdComparison {
        naive_peak: naive.peak_in(window),
        jittered_peak: jittered.peak_in(window),
        window,
        naive,
        jittered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(clients: usize) -> PopulationConfig {
        let scenario = Scenario::baseline(0).with_duration(2.0 * 3600.0);
        PopulationConfig::new(clients, 77, scenario, ClockConfig::paper_defaults(16.0))
    }

    #[test]
    fn clients_get_profiles_and_make_progress() {
        let cfg = small_cfg(8);
        let s = cfg.summarize(replay(None, &cfg));
        assert_eq!(s.clients.len(), 8);
        let profiles: std::collections::HashSet<_> =
            s.clients.iter().map(|c| c.profile).collect();
        assert!(profiles.len() >= 2, "a mix, not a monoculture: {profiles:?}");
        for c in &s.clients {
            let (req, acc, _, _) = c.counters;
            assert!(req > 100, "client {} sent {req}", c.client);
            assert!(acc > 0, "client {} accepted nothing", c.client);
            assert!(!c.errors.is_empty(), "client {} never aligned", c.client);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = small_cfg(5);
        let a = replay(None, &cfg);
        assert_eq!(a, replay(None, &cfg));
        assert_ne!(a[0].digest, a[1].digest);
    }

    #[test]
    fn pool_matches_sequential() {
        let cfg = small_cfg(6);
        let mut pool = WorkerPool::new(3);
        let par = cfg.summarize(replay(Some(&mut pool), &cfg));
        let seq = cfg.summarize(replay(None, &cfg));
        assert_eq!(par.digest(), seq.digest());
        assert_eq!(par, seq);
    }

    #[test]
    fn churn_times_are_deterministic_and_ordered() {
        let plan = ChurnPlan {
            join_frac: 0.5,
            join_window: (100.0, 500.0),
            leave_frac: 0.5,
            leave_window: (600.0, 900.0),
        };
        let mut late = 0;
        let mut leavers = 0;
        for i in 0..200 {
            let (j, l) = plan.times(9, i, 1000.0);
            assert_eq!((j, l), plan.times(9, i, 1000.0));
            assert!(j < l, "client {i}: join {j} !< leave {l}");
            if j > 0.0 {
                late += 1;
                assert!((100.0..=500.0).contains(&j));
            }
            if l < 1000.0 {
                leavers += 1;
                assert!((600.0..=900.0).contains(&l));
            }
        }
        assert!((60..140).contains(&late), "{late} late joiners of 200");
        assert!((60..140).contains(&leavers), "{leavers} leavers of 200");
    }

    #[test]
    fn churned_clients_respect_their_windows() {
        let mut cfg = small_cfg(8);
        cfg.churn = ChurnPlan {
            join_frac: 1.0,
            join_window: (600.0, 1200.0),
            leave_frac: 1.0,
            leave_window: (3600.0, 5400.0),
        };
        let s = cfg.summarize(replay(None, &cfg));
        for c in &s.clients {
            assert!(c.joined_at >= 600.0 && c.left_at <= 5400.0);
            // no requests outside the member window
            let first = c.buckets.iter().position(|&b| b > 0).unwrap() as f64
                * s.bucket_width;
            let last = (c.buckets.iter().rposition(|&b| b > 0).unwrap() + 1) as f64
                * s.bucket_width;
            assert!(first >= c.joined_at - s.bucket_width, "client {}", c.client);
            assert!(last <= c.left_at + s.bucket_width, "client {}", c.client);
            let total: f64 = c.time_in_state.iter().sum();
            assert!(
                (total - (c.left_at - c.joined_at)).abs() < 1e-6,
                "time accounting of client {}: {total}",
                c.client
            );
        }
    }

    #[test]
    fn herd_needs_an_outage() {
        let cfg = small_cfg(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pool = WorkerPool::new(1);
            compare_herd(&mut pool, &cfg, 8.0)
        }));
        assert!(result.is_err(), "must refuse an outage-free scenario");
    }
}
