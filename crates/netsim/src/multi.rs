//! Multi-server polling: K independent server paths from **one** host
//! timeline.
//!
//! The paper synchronizes against a single NTP server and repeatedly flags
//! server-side quality — upward RTT shifts, path asymmetry, outages — as
//! the dominant error source. A production host polls *several* servers
//! and must detect and exclude the bad ones. This module supplies the
//! measurement side of that setup: a [`MultiServerScenario`] describes one
//! host (one TSC counter, one oscillator, one timestamping model) polling
//! K [`ServerPath`]s, each with its own path delays, congestion, loss,
//! outages, route shifts and clock faults; a [`MultiServerStream`] steps it
//! one *round* (one poll of every server) at a time, each server through
//! the single-server simulator's path state and draw sequence.
//!
//! ## Seed derivation contract
//!
//! Every stochastic element derives its stream from the scenario's master
//! seed, with **documented, collision-free derivation** so that streams
//! are independent (no cross-correlation between servers) and stable under
//! fleet reseeding:
//!
//! * The host (oscillator `seed · 0x9E37_79B9 + 1`, timestamping
//!   `seed + 3`) is built by the same constructor as the single-server
//!   [`crate::Scenario`]'s, so the host timeline for a given master seed
//!   does not depend on how many servers are polled.
//! * Server `k = 0`: sub-master `b₀ = seed`; server `k ≥ 1`: sub-master
//!   `bₖ = splitmix64(seed XOR k·0x9E37_79B9_7F4A_7C15)`. Each server's
//!   state is the single-server path state built from its sub-master
//!   (server model `bₖ+2`, forward path `bₖ+4`, backward path `bₖ+5`, loss
//!   `bₖ+7`) and runs the same departure sequence and stamp pair. Keeping
//!   `b₀ = seed` makes a 1-server scenario with no shared bottleneck
//!   **bit-identical** to the single-server [`crate::Scenario::stream`]
//!   raw path by construction (and tested), anchoring the whole
//!   multi-server layer to the validated single-server generator.
//! * Shared bottleneck: `splitmix64(seed XOR 0xB0_77_1E_5E_C4_0F_6E_57)`.
//!
//! `splitmix64` is a full-avalanche permutation, so distinct `(seed, k)`
//! pairs yield distinct ChaCha12 seeds except with probability `2⁻⁶⁴` —
//! there is no structural correlation between server streams.
//!
//! ## Shared-bottleneck correlated congestion
//!
//! Real multi-server deployments share the host's access link: congestion
//! there inflates the delays of *every* server path at once, which is
//! precisely the failure mode a quorum must not misread as "all servers
//! disagree". [`MultiServerScenario::with_bottleneck`] adds a two-state
//! congestion chain (same episode model as [`crate::delay::PathDelay`])
//! whose on/off state is **shared by all K paths** in both directions;
//! the per-packet excess draws inside an episode stay independent.
//!
//! ## Counter-read ordering
//!
//! All K polls of a round read the one shared TSC counter. Reads are
//! performed in true-time order (send reads at `t + k·stagger`, receive
//! reads sorted by arrival), so the oscillator is advanced monotonically
//! within a round exactly as the single-server simulator advances it.

use crate::delay::CongestionParams;
use crate::host::{seeded_host, HostTimestamping};
use crate::scenario::{ServerKind, ServerPath};
use crate::sim::{cadenced, PathState};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, Pareto};
use tsc_osc::{Environment, TscCounter};
use tscclock::fastmath::exp_clamped;
use tscclock::RawExchange;

/// Maximum servers per scenario (quorum layers pack per-server flags into
/// `u32` masks).
pub const MAX_SERVERS: usize = 32;

/// SplitMix64 finalizer: the documented sub-seed derivation primitive.
/// Public because fleet engines must use it too — *additive* reseeding
/// (`base + i`) would collide with the additive per-stream offsets of
/// the contract above (entry `i`'s backward path `bᵢ+5` = entry `i+1`'s
/// forward path `bᵢ₊₁+4`, etc.), handing adjacent entries bit-identical
/// keystreams in different roles.
#[inline]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-master seed of server `k` (see the module docs for the contract).
pub fn server_sub_seed(master: u64, k: usize) -> u64 {
    if k == 0 {
        master
    } else {
        splitmix64(master ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A complete multi-server experiment: one host timeline, K server paths.
#[derive(Debug, Clone)]
pub struct MultiServerScenario {
    /// Host temperature environment (selects the oscillator model).
    pub environment: Environment,
    /// Master seed; see the module docs for the derivation contract.
    pub seed: u64,
    /// Polling period of each server in seconds (every server is polled
    /// once per period).
    pub poll_period: f64,
    /// Total simulated duration in seconds.
    pub duration: f64,
    /// Nominal TSC frequency in Hz.
    pub tsc_freq_hz: f64,
    /// Spacing between the K send timestamps of one round (seconds): the
    /// host fires its polls back-to-back, not simultaneously.
    pub poll_stagger: f64,
    /// The server paths (1 ..= [`MAX_SERVERS`]).
    pub servers: Vec<ServerPath>,
    /// Shared access-link congestion applied to every path when present.
    pub bottleneck: Option<CongestionParams>,
}

impl MultiServerScenario {
    /// A machine-room host polling `k` ServerInt paths every 16 s — the
    /// multi-server analogue of [`crate::Scenario::baseline`].
    pub fn baseline(k: usize, seed: u64) -> Self {
        Self {
            environment: Environment::MachineRoom,
            seed,
            poll_period: 16.0,
            duration: 86_400.0,
            tsc_freq_hz: 1e9,
            poll_stagger: 10e-6,
            servers: (0..k).map(|_| ServerPath::new(ServerKind::Int)).collect(),
            bottleneck: None,
        }
    }

    /// The paper's actual three-server testbed: one host polling
    /// **ServerLoc** (same LAN, GPS-referenced), **ServerInt** (same
    /// organization, the paper's recommended "nearby" server) and
    /// **ServerExt** (another city, ~1000 km, atomic-clock referenced)
    /// every 16 s — the configuration behind Table 2 and the §7 robustness
    /// experiments. Server index 0 = Loc, 1 = Int, 2 = Ext.
    pub fn paper_testbed(seed: u64) -> Self {
        Self {
            servers: vec![
                ServerPath::new(ServerKind::Loc),
                ServerPath::new(ServerKind::Int),
                ServerPath::new(ServerKind::Ext),
            ],
            ..Self::baseline(3, seed)
        }
    }

    /// Sets the duration (chainable).
    pub fn with_duration(mut self, seconds: f64) -> Self {
        self.duration = seconds;
        self
    }

    /// Sets the polling period (chainable).
    pub fn with_poll_period(mut self, seconds: f64) -> Self {
        self.poll_period = seconds;
        self
    }

    /// Enables shared-bottleneck congestion (chainable).
    pub fn with_bottleneck(mut self, params: CongestionParams) -> Self {
        self.bottleneck = Some(params);
        self
    }

    /// Replaces server path `k` (chainable).
    pub fn with_server_path(mut self, k: usize, path: ServerPath) -> Self {
        self.servers[k] = path;
        self
    }

    /// Number of servers polled per round.
    pub fn k(&self) -> usize {
        self.servers.len()
    }

    /// Builds a borrowing round stream.
    ///
    /// # Panics
    /// Panics on an invalid scenario (no servers, more than
    /// [`MAX_SERVERS`], non-positive period/duration, negative stagger, or
    /// a stagger so large the K sends of a round would not fit the period).
    pub fn stream(&self) -> MultiServerStream<'_> {
        MultiServerStream::new(self, self.seed)
    }

    /// A borrowing stream with the master seed overridden — the fleet
    /// path, deriving thousands of distinct streams from one shared
    /// template without cloning it.
    pub fn stream_with_seed(&self, seed: u64) -> MultiServerStream<'_> {
        MultiServerStream::new(self, seed)
    }

    /// Polls per server over the whole duration.
    pub fn rounds(&self) -> usize {
        (self.duration / self.poll_period) as usize
    }
}

/// What one round produced for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// `false` when the poll was lost (path loss or outage window). Lost
    /// samples still carry a real `raw.ta_tsc` — the host always reads
    /// the counter on send — but the remaining observables are NaN/0 and
    /// the truth fields NaN; test `delivered`, not the field values.
    pub delivered: bool,
    /// The observables a real client would hand to its per-server clock.
    pub raw: RawExchange,
    /// Ground truth: the true time at the instant of the `Tf` counter
    /// read — `raw.tf_tsc` is the counter's value at exactly this time, so
    /// `|Ca(raw.tf_tsc) − tf_read|` is a clock's exact absolute error.
    pub tf_read: f64,
    /// Ground truth: the oscillator's accumulated time error at the read.
    pub host_err: f64,
}

impl RoundSample {
    fn lost() -> Self {
        Self {
            delivered: false,
            raw: RawExchange {
                ta_tsc: 0,
                tb: f64::NAN,
                te: f64::NAN,
                tf_tsc: 0,
            },
            tf_read: f64::NAN,
            host_err: f64::NAN,
        }
    }
}

/// Shared access-link congestion: one on/off chain for all K paths.
struct Bottleneck {
    burst: Pareto<f64>,
    in_burst: bool,
    /// Cadenced flip probabilities (one round = one tick).
    p_on: f64,
    p_off: f64,
    rng: ChaCha12Rng,
}

/// Scratch entry of the per-round counter-read schedule.
#[derive(Clone, Copy)]
struct ReadReq {
    /// True time of the read.
    t: f64,
    /// Server index.
    k: usize,
    /// `true` for the `Tf` read, `false` for the `Ta` read.
    is_tf: bool,
}

/// The borrowing multi-server round stream; see the module docs.
pub struct MultiServerStream<'a> {
    sc: &'a MultiServerScenario,
    counter: TscCounter,
    host: HostTimestamping,
    servers: Vec<PathState>,
    bottleneck: Option<Bottleneck>,
    t_next: f64,
    round: u64,
    /// Reused per-round scratch (event times, read schedule).
    events: Vec<PollEvents>,
    reads: Vec<ReadReq>,
    /// Shared-bottleneck `(d→, d←)` excess per path; all zero outside a
    /// shared episode.
    shared_excess: Vec<(f64, f64)>,
}

/// Per-server event record of one round: true event times after phase 1,
/// observable stamps and the read instant after phase 2.
#[derive(Clone, Copy, Default)]
struct PollEvents {
    lost: bool,
    tb: f64,
    te: f64,
    tf_read: f64,
}

impl<'a> MultiServerStream<'a> {
    fn new(sc: &'a MultiServerScenario, seed: u64) -> Self {
        assert!(!sc.servers.is_empty(), "scenario needs at least one server");
        assert!(
            sc.servers.len() <= MAX_SERVERS,
            "at most {MAX_SERVERS} servers per scenario"
        );
        assert!(sc.poll_period > 0.0, "poll period must be positive");
        assert!(sc.duration > 0.0, "duration must be positive");
        assert!(
            sc.poll_stagger >= 0.0
                && sc.poll_stagger * (sc.servers.len() as f64) < sc.poll_period,
            "poll stagger must be non-negative and fit the period"
        );
        let (counter, host) = seeded_host(sc.environment, sc.tsc_freq_hz, seed, Environment::build);
        let servers = sc
            .servers
            .iter()
            .enumerate()
            .map(|(k, path)| PathState::new(path, server_sub_seed(seed, k), sc.poll_period))
            .collect();
        let bottleneck = sc.bottleneck.map(|params| {
            assert!(
                params.shape > 1.0 && params.scale > 0.0,
                "invalid bottleneck congestion params"
            );
            Bottleneck {
                burst: Pareto::new(params.scale, params.shape).expect("valid pareto"),
                in_burst: false,
                p_on: 1.0 - exp_clamped(-sc.poll_period / params.mean_on),
                p_off: 1.0 - exp_clamped(-sc.poll_period / params.mean_off),
                rng: ChaCha12Rng::seed_from_u64(splitmix64(
                    seed ^ 0xB0_77_1E_5E_C4_0F_6E_57,
                )),
            }
        });
        let k = sc.servers.len();
        Self {
            sc,
            counter,
            host,
            servers,
            bottleneck,
            t_next: sc.poll_period,
            round: 0,
            events: vec![PollEvents::default(); k],
            reads: Vec::with_capacity(2 * k),
            shared_excess: vec![(0.0, 0.0); k],
        }
    }

    /// Number of servers polled per round.
    pub fn k(&self) -> usize {
        self.servers.len()
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Nominal TSC frequency of the simulated host.
    pub fn tsc_freq_hz(&self) -> f64 {
        self.counter.freq_hz()
    }

    /// Runs one round (one poll of every server), overwriting `out` with
    /// exactly K [`RoundSample`]s. Returns `false` (leaving `out` empty)
    /// when the scenario duration is exhausted.
    ///
    /// Draw order is fixed per round — host send latencies and path/server
    /// draws for server 0..K−1 in index order, then stamps and the host
    /// receive latency for each *delivered* server in index order, with
    /// counter reads performed separately in true-time order — so the
    /// streams of different servers never interleave data-dependently.
    pub fn next_round(&mut self, out: &mut Vec<RoundSample>) -> bool {
        out.clear();
        if self.t_next > self.sc.duration {
            return false;
        }
        let t = self.t_next;
        self.t_next += self.sc.poll_period;
        self.round += 1;
        let k_total = self.servers.len();

        // Shared bottleneck: advance the chain one round-tick, then draw
        // the per-path excesses (independent inside the shared episode).
        // Draws happen for every path every round the chain is on, so the
        // bottleneck stream never depends on per-server loss outcomes.
        self.shared_excess.fill((0.0, 0.0));
        if let Some(b) = &mut self.bottleneck {
            let p_flip = if b.in_burst { b.p_on } else { b.p_off };
            if b.rng.random::<f64>() < p_flip {
                b.in_burst = !b.in_burst;
            }
            if b.in_burst {
                for e in self.shared_excess.iter_mut() {
                    *e = (b.burst.sample(&mut b.rng), b.burst.sample(&mut b.rng));
                }
            }
        }

        // Phase 1: per-server event times (no counter reads yet).
        self.reads.clear();
        for k in 0..k_total {
            let t_send = t + self.sc.poll_stagger * k as f64;
            self.reads.push(ReadReq {
                t: t_send,
                k,
                is_tf: false,
            });
            let ta = t_send + self.host.send_latency();
            let (truth, lost) =
                self.servers[k].depart(&self.sc.servers[k], t, ta, cadenced, self.shared_excess[k]);
            self.events[k] = PollEvents {
                lost,
                tb: truth.tb,
                te: truth.te,
                tf_read: truth.tf,
            };
        }

        // Phase 2: delivered-packet observables — server stamps and the
        // host receive latency — in server order.
        for k in 0..k_total {
            let ev = self.events[k];
            if ev.lost {
                continue;
            }
            let (tb, te) = self.servers[k].stamps(ev.tb, ev.te);
            let tf_read = ev.tf_read + self.host.recv_latency();
            self.events[k] = PollEvents {
                lost: false,
                tb,
                te,
                tf_read,
            };
            self.reads.push(ReadReq {
                t: tf_read,
                k,
                is_tf: true,
            });
        }

        // Phase 3: counter reads in true-time order, advancing the shared
        // oscillator monotonically within the round. Lost packets keep
        // their `Ta` read (the host always reads on send) but expose no
        // other observables.
        self.reads
            .sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite read times"));
        out.resize(k_total, RoundSample::lost());
        for req in &self.reads {
            let tsc = self.counter.read(req.t);
            let sample = &mut out[req.k];
            if req.is_tf {
                sample.delivered = true;
                sample.raw.tf_tsc = tsc;
                sample.raw.tb = self.events[req.k].tb;
                sample.raw.te = self.events[req.k].te;
                sample.tf_read = req.t;
                sample.host_err = self.counter.time_error();
            } else {
                sample.raw.ta_tsc = tsc;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::shifts::LevelShift;

    fn short(k: usize, seed: u64) -> MultiServerScenario {
        MultiServerScenario::baseline(k, seed).with_duration(4.0 * 3600.0)
    }

    /// Collects every round of a scenario.
    fn run(sc: &MultiServerScenario) -> Vec<Vec<RoundSample>> {
        let mut stream = sc.stream();
        let mut rounds = Vec::new();
        let mut buf = Vec::new();
        while stream.next_round(&mut buf) {
            rounds.push(buf.clone());
        }
        rounds
    }

    /// Bit pattern of a sample (lost samples carry NaNs, so `==` on the
    /// floats would be always-false).
    fn bits(s: &RoundSample) -> [u64; 7] {
        [
            u64::from(s.delivered),
            s.raw.ta_tsc,
            s.raw.tf_tsc,
            s.raw.tb.to_bits(),
            s.raw.te.to_bits(),
            s.tf_read.to_bits(),
            s.host_err.to_bits(),
        ]
    }

    fn all_bits(rounds: &[Vec<RoundSample>]) -> Vec<[u64; 7]> {
        rounds.iter().flatten().map(bits).collect()
    }

    #[test]
    fn one_server_no_bottleneck_is_bit_identical_to_single_server_raw() {
        // The K=1 anchor of the seed-derivation contract: identical host
        // timeline, identical per-stream seeds, identical draw order ⇒ the
        // multi-server stream reproduces Scenario::stream().raw() exactly.
        for seed in [1u64, 99, 0xDEAD_BEEF] {
            let multi = short(1, seed);
            let single = Scenario::baseline(seed).with_duration(multi.duration);
            let raws: Vec<RawExchange> = single.stream().raw().collect();
            let rounds = run(&multi);
            let delivered: Vec<RawExchange> = rounds
                .iter()
                .filter(|r| r[0].delivered)
                .map(|r| r[0].raw)
                .collect();
            assert_eq!(delivered.len(), raws.len(), "seed {seed}");
            for (i, (m, s)) in delivered.iter().zip(&raws).enumerate() {
                assert_eq!(m.ta_tsc, s.ta_tsc, "seed {seed} packet {i}");
                assert_eq!(m.tf_tsc, s.tf_tsc, "seed {seed} packet {i}");
                assert_eq!(m.tb.to_bits(), s.tb.to_bits(), "seed {seed} packet {i}");
                assert_eq!(m.te.to_bits(), s.te.to_bits(), "seed {seed} packet {i}");
            }
        }
    }

    #[test]
    fn rounds_poll_every_server_and_are_causal() {
        let sc = short(3, 2);
        let rounds = run(&sc);
        assert_eq!(rounds.len(), sc.rounds());
        for (i, r) in rounds.iter().enumerate() {
            assert_eq!(r.len(), 3);
            for (k, s) in r.iter().enumerate() {
                if s.delivered {
                    assert!(s.raw.is_causal(), "round {i} server {k} not causal");
                    assert!(s.raw.tb <= s.raw.te);
                    assert!(s.tf_read.is_finite() && s.host_err.is_finite());
                }
            }
        }
    }

    #[test]
    fn server_streams_are_independent() {
        // Distinct sub-seeds: per-server RTT series must be uncorrelated.
        // (Identical streams would give correlation ≈ 1.)
        let sc = short(2, 7);
        let rounds = run(&sc);
        let rtt = |k: usize| {
            rounds
                .iter()
                .filter(|r| r[0].delivered && r[1].delivered)
                .map(|r| (r[k].raw.tf_tsc - r[k].raw.ta_tsc) as f64 * 1e-9)
                .collect::<Vec<f64>>()
        };
        let (a, b) = (rtt(0), rtt(1));
        let n = a.len() as f64;
        assert!(n > 500.0);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ma, mb) = (mean(&a), mean(&b));
        let cov = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / n;
        let var = |v: &[f64], m: f64| v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        let corr = cov / (var(&a, ma) * var(&b, mb)).sqrt();
        assert!(corr.abs() < 0.2, "independent paths correlated: r = {corr}");
    }

    #[test]
    fn shared_bottleneck_correlates_paths() {
        // With a heavy shared bottleneck, congested rounds inflate every
        // server's delay at once. The excesses are heavy-tailed (infinite
        // variance at shape 1.6), so test co-occurrence of inflated RTTs
        // instead of a Pearson correlation: P(both high) must far exceed
        // the product of the marginals.
        let sc = short(2, 7).with_bottleneck(CongestionParams {
            mean_off: 600.0,
            mean_on: 300.0,
            scale: 5e-3,
            shape: 1.6,
        });
        let rounds = run(&sc);
        let high: Vec<(bool, bool)> = rounds
            .iter()
            .filter(|r| r[0].delivered && r[1].delivered)
            .map(|r| {
                let rtt = |k: usize| (r[k].raw.tf_tsc - r[k].raw.ta_tsc) as f64 * 1e-9;
                (rtt(0) > 4e-3, rtt(1) > 4e-3)
            })
            .collect();
        let n = high.len() as f64;
        let p0 = high.iter().filter(|h| h.0).count() as f64 / n;
        let p1 = high.iter().filter(|h| h.1).count() as f64 / n;
        let both = high.iter().filter(|h| h.0 && h.1).count() as f64 / n;
        assert!(p0 > 0.05 && p1 > 0.05, "bottleneck episodes absent: {p0}, {p1}");
        // shared episodes: inflated rounds coincide almost surely
        // (P(1|0) ≈ 1), far above the independent-path baseline (≈ p1)
        assert!(
            both / p0 > 0.8 && both / p0 > 2.0 * p1,
            "shared bottleneck must co-inflate paths: P(1|0)={} vs marginal {p1}",
            both / p0
        );
    }

    #[test]
    fn per_server_outage_hits_only_that_server() {
        let mut sc = short(3, 4);
        sc.servers[1] = ServerPath::new(ServerKind::Int).with_outage(3600.0, 7200.0);
        let mut stream = sc.stream();
        let mut buf = Vec::new();
        let mut t = 0.0;
        let (mut in_outage, mut others_delivered) = (0usize, 0usize);
        while stream.next_round(&mut buf) {
            t += sc.poll_period;
            if (3600.0..7200.0).contains(&t) {
                assert!(!buf[1].delivered, "server 1 must be out at t={t}");
                in_outage += 1;
                others_delivered += usize::from(buf[0].delivered) + usize::from(buf[2].delivered);
            }
        }
        assert!(in_outage > 200);
        // other servers keep delivering through server 1's outage
        assert!(others_delivered as f64 > 1.9 * in_outage as f64);
    }

    #[test]
    fn asymmetry_step_preserves_rtt_but_biases_offset() {
        // The silent fault: RTT statistics unchanged, per-server naive
        // offset biased by delta/2. Host clock drift swamps any absolute
        // offset median, so measure the *differential* offset between the
        // faulted server and a clean one — same-round differences cancel
        // the host clock exactly (this is also precisely the signal the
        // quorum combiner keys on).
        // ServerExt: its backward minimum (≈6.8 ms) has room for the
        // −delta/2 leg — on short LAN paths the PathDelay floor would clamp
        // it and the step would leak into the RTT.
        let delta = 2e-3;
        let mut sc = short(2, 11);
        sc.servers[0] = ServerPath::new(ServerKind::Ext).with_loss(0.0);
        sc.servers[1] = ServerPath::new(ServerKind::Ext)
            .with_loss(0.0)
            .with_shift(LevelShift::asymmetric(7200.0, None, delta));
        let rounds = run(&sc);
        let p = 1e-9;
        let theta = |s: &RoundSample| {
            (s.raw.tb + s.raw.te) / 2.0
                - (s.raw.ta_tsc as f64 + s.raw.tf_tsc as f64) / 2.0 * p
        };
        let rtt =
            |s: &RoundSample| (s.raw.tf_tsc - s.raw.ta_tsc) as f64 * p - (s.raw.te - s.raw.tb);
        let window = |lo: f64, hi: f64| {
            let in_window: Vec<&Vec<RoundSample>> = rounds
                .iter()
                .enumerate()
                .filter(|(i, r)| {
                    let t = (*i as f64 + 1.0) * sc.poll_period;
                    t >= lo && t < hi && r[0].delivered && r[1].delivered
                })
                .map(|(_, r)| r)
                .collect();
            let min_rtt = |k: usize| {
                in_window
                    .iter()
                    .map(|r| rtt(&r[k]))
                    .fold(f64::INFINITY, f64::min)
            };
            let (m0, m1) = (min_rtt(0), min_rtt(1));
            // Heavy Ext congestion swamps a plain median; restrict to
            // uncongested rounds (both RTTs near their window minima),
            // where the remaining noise is tens of µs.
            let mut diffs: Vec<f64> = in_window
                .iter()
                .filter(|r| rtt(&r[0]) - m0 < 1.5e-3 && rtt(&r[1]) - m1 < 1.5e-3)
                .map(|r| theta(&r[1]) - theta(&r[0]))
                .collect();
            assert!(diffs.len() > 50, "too few uncongested rounds");
            diffs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (m1, diffs[diffs.len() / 2])
        };
        let (rtt_before, diff_before) = window(0.0, 7200.0);
        let (rtt_after, diff_after) = window(7200.0, 14_400.0);
        assert!(
            (rtt_after - rtt_before).abs() < 100e-6,
            "asymmetry step must not move the RTT minimum: {rtt_before} vs {rtt_after}"
        );
        assert!(
            ((diff_after - diff_before) - delta / 2.0).abs() < 300e-6,
            "differential offset must shift by delta/2: {}",
            diff_after - diff_before
        );
    }

    #[test]
    fn paper_testbed_matches_table2_paths() {
        // Loc + Int + Ext in index order, each path carrying its Table-2
        // RTT floor (observed min RTT within queueing slack of the preset
        // minimum) and the default 16 s polling.
        let sc = MultiServerScenario::paper_testbed(5).with_duration(6.0 * 3600.0);
        assert_eq!(sc.k(), 3);
        assert_eq!(sc.poll_period, 16.0);
        let kinds = [ServerKind::Loc, ServerKind::Int, ServerKind::Ext];
        for (k, kind) in kinds.iter().enumerate() {
            assert_eq!(sc.servers[k].kind, *kind, "server {k}");
        }
        let rounds = run(&sc);
        for (k, kind) in kinds.iter().enumerate() {
            let min_rtt = rounds
                .iter()
                .filter(|r| r[k].delivered)
                .map(|r| (r[k].raw.tf_tsc - r[k].raw.ta_tsc) as f64 * 1e-9)
                .fold(f64::INFINITY, f64::min);
            let (fwd, back) = kind.min_delays();
            let floor = fwd + back;
            assert!(
                min_rtt >= floor && min_rtt < floor + 1e-3,
                "server {k} min RTT {min_rtt} vs floor {floor}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let sc = short(3, 21);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(all_bits(&a), all_bits(&b));
        let c = run(&short(3, 22));
        assert_ne!(all_bits(&a), all_bits(&c));
    }

    #[test]
    fn seed_override_equals_reseeded_scenario() {
        let template = short(2, 30);
        let reseeded = run(&MultiServerScenario { seed: 31, ..template.clone() });
        let mut overridden = Vec::new();
        let mut stream = template.stream_with_seed(31);
        let mut buf = Vec::new();
        while stream.next_round(&mut buf) {
            overridden.push(buf.clone());
        }
        assert_eq!(all_bits(&reseeded), all_bits(&overridden));
    }

    #[test]
    fn sub_seed_derivation_is_stable_and_collision_free() {
        // the documented contract: k=0 passes the master through; k≥1 are
        // splitmix-derived and all distinct
        assert_eq!(server_sub_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..MAX_SERVERS).map(|k| server_sub_seed(42, k)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), MAX_SERVERS, "sub-seed collision");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_scenario_rejected() {
        MultiServerScenario::baseline(0, 1).stream();
    }
}
