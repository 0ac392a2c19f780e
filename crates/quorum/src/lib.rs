//! # tsc-quorum — multi-server quorum synchronization
//!
//! The paper's TSCclock synchronizes against a *single* NTP server and
//! §6 catalogues everything that can go wrong on the server side: upward
//! RTT shifts, path-asymmetry changes, server clock faults, outages. A
//! production host polls **K servers** and must detect and exclude the
//! bad ones. This crate is that layer: it runs K independent, unmodified
//! [`tscclock::TscNtpClock`] instances — one per server, all reading the
//! same TSC/oscillator timeline — and fuses them into one combined clock.
//!
//! ```text
//!   round r: [Option<RawExchange>; K]   (one poll of every server)
//!        │ per-server, unchanged §5–§6 pipeline
//!        ▼
//!   TscNtpClock k  ──►  y_k = Ca_k(TSC_ref)   per-server absolute time
//!        │                    │
//!        │   HealthTracker k  │  trust w_k, point-error bound
//!        ▼                    ▼
//!   weighted median m ── exclude |y_k − m| > tol_k ── trimmed mean
//!        │
//!        ▼
//!   combined clock: Ca(t) = y* + (TSC(t) − TSC_ref)·p̂*
//! ```
//!
//! Two mechanisms cover the two classes of server failure:
//!
//! * **Self-evident degradation** (congestion, upward shifts, loss,
//!   outages) is visible in the server's own outputs; the
//!   [`health::HealthTracker`] folds those signals into a trust score
//!   with hysteresis, and trust weights the combination.
//! * **Silent lying** (a server whose path asymmetry stepped, or whose
//!   clock is simply wrong) is *invisible* in every self-reported figure —
//!   §4.3 proves asymmetry error cannot be measured from one server. The
//!   [`combine`] stage catches it by disagreement: a reading further from
//!   the quorum's weighted median than the server's own point-error-derived
//!   tolerance is excluded outright, and sustained exclusion demotes.
//!
//! Offsets of different clocks are **not** directly comparable — each
//! clock's `θ̂` is relative to its own alignment constant `C̄` — so the
//! combiner fuses *absolute-time readings* `Ca_k(TSC_ref)` evaluated at a
//! common counter instant (the round's latest receive timestamp), which
//! are comparable by construction.
//!
//! Everything is deterministic: a `QuorumClock` is a pure function of its
//! input rounds, so fleet replays digest bit-identically at any thread
//! count (see `tsc-fleet`).

pub mod combine;
pub mod health;

pub use combine::{Candidate, Combination, CombinerConfig};
pub use health::{HealthConfig, HealthTracker, RoundObservation};

use tsc_telemetry as telemetry;
use tscclock::snapshot::{self, SnapshotReader, SnapshotWriter};
use tscclock::{ClockConfig, ClockEvent, RawExchange, SnapshotError, TscNtpClock};

/// Maximum quorum size (per-server flags live in `u32` masks). Must stay
/// equal to `tsc_netsim::MAX_SERVERS` — this crate deliberately does not
/// depend on the simulator, so the invariant is enforced by a dev-test
/// instead of a re-export.
pub const MAX_SERVERS: usize = 32;

/// Full parameter set of a quorum clock.
#[derive(Debug, Clone, Copy)]
pub struct QuorumConfig {
    /// Per-server clock parameters (identical for every member).
    pub clock: ClockConfig,
    /// Health-scoring parameters.
    pub health: HealthConfig,
    /// Combiner parameters.
    pub combiner: CombinerConfig,
}

impl QuorumConfig {
    /// Paper-default clocks with default health/combiner tuning.
    pub fn paper_defaults(poll_period: f64) -> Self {
        Self {
            clock: ClockConfig::paper_defaults(poll_period),
            health: HealthConfig::default(),
            combiner: CombinerConfig::default(),
        }
    }

    /// Validates all three parameter groups.
    pub fn validate(&self) -> Result<(), String> {
        self.clock.validate()?;
        self.health.validate()?;
        self.combiner.validate()
    }
}

/// Last successful combination: the combined clock's state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Combined {
    tsc_ref: u64,
    utc_ref: f64,
    p_hat: f64,
}

/// One server slot: its clock and its health state.
struct ServerSlot {
    clock: TscNtpClock,
    health: HealthTracker,
}

/// Per-round output of [`QuorumClock::process_round`]. Per-server flags
/// are bitmasks over server indices (bit `k` = server `k`), so the output
/// is `Copy` and digest-friendly at any quorum size up to [`MAX_SERVERS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumOutput {
    /// Round counter (1-based after the first call).
    pub round: u64,
    /// Servers whose poll was answered this round.
    pub delivered_mask: u32,
    /// Servers whose clock was bootstrapped enough to offer a reading.
    pub candidate_mask: u32,
    /// Candidates excluded for disagreeing with the quorum median.
    pub excluded_mask: u32,
    /// Servers currently demoted (after this round's health update).
    pub demoted_mask: u32,
    /// `true` when a combination was produced this round.
    pub combined: bool,
    /// Reference counter instant of the combination (0 when `!combined`).
    pub tsc_ref: u64,
    /// Combined absolute time at `tsc_ref` (NaN when `!combined`).
    pub utc_ref: f64,
    /// Combined rate estimate (NaN when `!combined`).
    pub p_hat: f64,
}

/// K per-server TSC-NTP clocks plus health scoring and robust
/// combination; see the crate docs.
pub struct QuorumClock {
    cfg: QuorumConfig,
    servers: Vec<ServerSlot>,
    round: u64,
    last: Option<Combined>,
    /// Reused per-round scratch.
    candidates: Vec<Candidate>,
    scratch: Vec<(f64, f64)>,
    /// This round's observation row, one entry per server.
    obs: Vec<RoundObservation>,
}

impl QuorumClock {
    /// A quorum of `k` identically-configured clocks.
    ///
    /// # Panics
    /// Panics when `k` is 0 or exceeds [`MAX_SERVERS`], or when the
    /// configuration fails [`QuorumConfig::validate`].
    pub fn new(k: usize, cfg: QuorumConfig) -> Self {
        assert!(
            (1..=MAX_SERVERS).contains(&k),
            "quorum size must be 1..={MAX_SERVERS}"
        );
        if let Err(e) = cfg.validate() {
            panic!("invalid quorum configuration: {e}");
        }
        Self {
            cfg,
            servers: (0..k)
                .map(|_| ServerSlot {
                    clock: TscNtpClock::new(cfg.clock),
                    health: HealthTracker::new(),
                })
                .collect(),
            round: 0,
            last: None,
            candidates: Vec::with_capacity(k),
            scratch: Vec::with_capacity(k),
            obs: vec![RoundObservation::default(); k],
        }
    }

    /// Quorum size K.
    pub fn k(&self) -> usize {
        self.servers.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &QuorumConfig {
        &self.cfg
    }

    /// Server `k`'s clock (read-only; the quorum owns its ingestion).
    pub fn server(&self, k: usize) -> &TscNtpClock {
        &self.servers[k].clock
    }

    /// Server `k`'s current trust score.
    pub fn trust(&self, k: usize) -> f64 {
        self.servers[k].health.trust()
    }

    /// Whether server `k` is currently demoted.
    pub fn demoted(&self, k: usize) -> bool {
        self.servers[k].health.demoted()
    }

    /// Server `k`'s point-error bound (the basis of its disagreement
    /// tolerance).
    pub fn point_error_bound(&self, k: usize) -> f64 {
        self.servers[k].health.point_error_bound(&self.cfg.health)
    }

    /// The combined **absolute clock**: `Ca(t) = y* + (TSC(t) − TSC_ref)·p̂*`,
    /// extrapolated from the last combination. `None` before the first one.
    pub fn absolute_time(&self, tsc: u64) -> Option<f64> {
        let c = self.last?;
        Some(c.utc_ref + (tsc.wrapping_sub(c.tsc_ref) as i64) as f64 * c.p_hat)
    }

    /// The combined rate estimate. `None` before the first combination.
    pub fn p_hat(&self) -> Option<f64> {
        self.last.map(|c| c.p_hat)
    }

    /// Feeds one round — one `Option<RawExchange>` per server, `None` for
    /// an unanswered poll — through every member clock, updates health,
    /// and re-combines.
    ///
    /// # Panics
    /// Panics when `round.len() != self.k()`.
    pub fn process_round(&mut self, round: &[Option<RawExchange>]) -> QuorumOutput {
        assert_eq!(round.len(), self.servers.len(), "one entry per server");
        self.round += 1;

        // 1. Per-server ingestion (the unchanged §5–§6 pipeline).
        let mut delivered_mask = 0u32;
        let mut tsc_ref: Option<u64> = None;
        let obs = &mut self.obs;
        obs.fill(RoundObservation::default());
        for (k, ex) in round.iter().enumerate() {
            let Some(ex) = ex else { continue };
            delivered_mask |= 1 << k;
            obs[k].delivered = true;
            tsc_ref = Some(tsc_ref.map_or(ex.tf_tsc, |t: u64| t.max(ex.tf_tsc)));
            if let Some(out) = self.servers[k].clock.process(*ex) {
                obs[k].point_error = Some(out.point_error);
                obs[k].upward_shift = out.events.contains(ClockEvent::UpwardShift);
            }
        }

        // 2. Candidates: every bootstrapped clock's absolute reading at
        // the shared reference instant, weighted by (pre-update) trust.
        let mut candidate_mask = 0u32;
        let mut excluded_mask = 0u32;
        let mut combined: Option<Combined> = None;
        if let Some(tsc_ref) = tsc_ref {
            self.candidates.clear();
            for (k, s) in self.servers.iter().enumerate() {
                let (Some(y), Some(p)) = (s.clock.absolute_time(tsc_ref), s.clock.p_hat())
                else {
                    continue;
                };
                candidate_mask |= 1 << k;
                self.candidates.push(Candidate {
                    server: k,
                    value: y,
                    rate: p,
                    weight: if s.health.demoted() { 0.0 } else { s.health.trust() },
                    tolerance: self
                        .cfg
                        .combiner
                        .tolerance(s.health.point_error_bound(&self.cfg.health)),
                });
            }
            // 3. Robust combination (none when no candidate's reading is
            // finite).
            if !self.candidates.is_empty() {
                let c = combine::combine(&self.candidates, &mut self.scratch);
                excluded_mask = c.excluded_mask;
                if excluded_mask != 0 {
                    telemetry::add(
                        telemetry::Ctr::QuorumExclusions,
                        excluded_mask.count_ones() as u64,
                    );
                    telemetry::event(
                        telemetry::EventKind::CombinerExclusion,
                        self.round,
                        excluded_mask as u64,
                        0,
                    );
                }
                if c.included > 0 {
                    combined = Some(Combined {
                        tsc_ref,
                        utc_ref: c.value,
                        p_hat: c.rate,
                    });
                    self.last = combined;
                }
            }
        }

        // 4. Health update (uses this round's exclusion verdicts).
        let mut demoted_mask = 0u32;
        for (k, s) in self.servers.iter_mut().enumerate() {
            obs[k].excluded = excluded_mask & (1 << k) != 0;
            let was_demoted = s.health.demoted();
            s.health.observe(&self.cfg.health, obs[k]);
            if s.health.demoted() {
                demoted_mask |= 1 << k;
                if !was_demoted {
                    telemetry::add(telemetry::Ctr::QuorumDemotions, 1);
                    telemetry::event(
                        telemetry::EventKind::TrustDemoted,
                        self.round,
                        k as u64,
                        s.health.trust().to_bits(),
                    );
                }
            } else if was_demoted {
                telemetry::add(telemetry::Ctr::QuorumReadmissions, 1);
                telemetry::event(
                    telemetry::EventKind::TrustReadmitted,
                    self.round,
                    k as u64,
                    s.health.trust().to_bits(),
                );
            }
        }

        QuorumOutput {
            round: self.round,
            delivered_mask,
            candidate_mask,
            excluded_mask,
            demoted_mask,
            combined: combined.is_some(),
            tsc_ref: combined.map_or(0, |c| c.tsc_ref),
            utc_ref: combined.map_or(f64::NAN, |c| c.utc_ref),
            p_hat: combined.map_or(f64::NAN, |c| c.p_hat),
        }
    }

    /// Serializes the full quorum state — config (the members' clock
    /// configuration once, for all K), every member clock's state and its
    /// health tracker, the round counter and the last combination — into a
    /// versioned, checksummed snapshot envelope
    /// ([`tscclock::snapshot::kind::QUORUM`]).
    ///
    /// [`QuorumClock::restore`] of the result resumes **bit-identically**:
    /// feeding the restored quorum the same remaining rounds produces the
    /// same [`QuorumOutput`] bits as the uninterrupted run. Per-round
    /// scratch (`candidates`, the combiner sort buffer) is rebuilt empty —
    /// it is dead between rounds.
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot::seal_component(snapshot::kind::QUORUM, 0, |w| self.save_state(w))
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.cfg.clock.save_state(w);
        self.cfg.health.save_state(w);
        self.cfg.combiner.save_state(w);
        w.put_usize(self.servers.len());
        for s in &self.servers {
            s.clock.save_state(w);
            s.health.save_state(w);
        }
        w.put_u64(self.round);
        match self.last {
            Some(c) => {
                w.put_u8(1);
                w.put_u64(c.tsc_ref);
                w.put_f64(c.utc_ref);
                w.put_f64(c.p_hat);
            }
            None => w.put_u8(0),
        }
    }

    /// Restores a quorum from a [`QuorumClock::snapshot`] blob.
    ///
    /// Every corruption — truncation, bit flips, foreign or
    /// version-mismatched envelopes, semantically inconsistent state —
    /// yields a typed [`SnapshotError`]; callers degrade to a cold
    /// [`QuorumClock::new`] instead of running a wrong clock.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::restore_component(bytes, snapshot::kind::QUORUM, Self::load_state)
    }

    fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let clock_cfg = ClockConfig::load_state(r)?;
        let health_cfg = HealthConfig::load_state(r)?;
        let combiner_cfg = CombinerConfig::load_state(r)?;
        let cfg = QuorumConfig {
            clock: clock_cfg,
            health: health_cfg,
            combiner: combiner_cfg,
        };
        let k = r.get_usize()?;
        if !(1..=MAX_SERVERS).contains(&k) {
            return Err(SnapshotError::Invalid("quorum size out of range"));
        }
        let mut servers = Vec::with_capacity(k);
        for _ in 0..k {
            servers.push(ServerSlot {
                clock: TscNtpClock::load_state(clock_cfg, r)?,
                health: HealthTracker::load_state(r)?,
            });
        }
        let round = r.get_count()?;
        let last = match r.get_u8()? {
            0 => None,
            1 => Some(Combined {
                tsc_ref: r.get_u64()?,
                utc_ref: r.get_f64()?,
                p_hat: r.get_f64()?,
            }),
            _ => return Err(SnapshotError::Invalid("option tag not 0/1")),
        };
        Ok(Self {
            cfg,
            servers,
            round,
            last,
            candidates: Vec::with_capacity(k),
            scratch: Vec::with_capacity(k),
            obs: vec![RoundObservation::default(); k],
        })
    }

    /// Batched ingest: feeds `rounds.len() / K` consecutive rounds — a
    /// flattened row-major slice, `K` entries per round — appending one
    /// [`QuorumOutput`] per round to `out`; returns how many were
    /// appended.
    ///
    /// Results are **bit-identical** to calling
    /// [`QuorumClock::process_round`] in a loop. This is the fleet-replay
    /// ingest path: one output buffer is reused across a whole entry, the
    /// flat input keeps consecutive rounds contiguous in cache, and the
    /// per-round scratch (candidates, combiner sort buffer, observation
    /// row) is already reused inside `process_round`, so a warmed-up
    /// replay makes no allocation at all.
    ///
    /// # Panics
    /// Panics when `rounds.len()` is not a multiple of the quorum size.
    pub fn process_batch(
        &mut self,
        rounds: &[Option<RawExchange>],
        out: &mut Vec<QuorumOutput>,
    ) -> usize {
        let k = self.servers.len();
        assert_eq!(rounds.len() % k, 0, "flattened batch must be whole rounds");
        let before = out.len();
        out.reserve(rounds.len() / k);
        for round in rounds.chunks_exact(k) {
            let o = self.process_round(round);
            out.push(o);
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_TRUE: f64 = 1.0000524e-9;

    /// Ideal symmetric exchange at true time `t` with optional extra
    /// one-way bias `asym` added to the forward path (server stamps late).
    fn ex(t: f64, asym: f64) -> RawExchange {
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: (t / P_TRUE).round() as u64,
            tb: t + d + asym + 20e-6,
            te: t + d + asym + 20e-6 + s,
            tf_tsc: ((t + 2.0 * d + s + 40e-6) / P_TRUE).round() as u64,
        }
    }

    fn quorum(k: usize) -> QuorumClock {
        QuorumClock::new(k, QuorumConfig::paper_defaults(16.0))
    }

    #[test]
    fn identical_members_match_single_clock_exactly() {
        let mut q = quorum(3);
        let mut single = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
        for i in 0..600u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            let out = q.process_round(&[Some(e), Some(e), Some(e)]);
            single.process(e);
            if out.combined {
                let want = single.absolute_time(out.tsc_ref).expect("aligned");
                assert_eq!(
                    out.utc_ref.to_bits(),
                    want.to_bits(),
                    "round {i}: combined {} vs single {want}",
                    out.utc_ref
                );
            }
        }
        assert!(q.absolute_time(1_000_000).is_some());
    }

    #[test]
    fn lying_server_is_excluded_and_demoted() {
        let mut q = quorum(3);
        // healthy warm-up
        for i in 0..400u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            q.process_round(&[Some(e), Some(e), Some(e)]);
        }
        assert!((0..3).all(|k| !q.demoted(k)));
        // server 2 develops a 2 ms asymmetry (its stamps shift silently)
        let mut first_excluded = None;
        let mut first_demoted = None;
        for i in 400..800u64 {
            let t = i as f64 * 16.0;
            let good = ex(t, 0.0);
            let bad = ex(t, 2.0e-3);
            let out = q.process_round(&[Some(good), Some(good), Some(bad)]);
            if out.excluded_mask & 0b100 != 0 && first_excluded.is_none() {
                first_excluded = Some(i - 400);
            }
            if out.demoted_mask & 0b100 != 0 && first_demoted.is_none() {
                first_demoted = Some(i - 400);
            }
            assert_eq!(out.excluded_mask & 0b011, 0, "healthy servers must survive");
        }
        let exc = first_excluded.expect("lying server must be excluded");
        let dem = first_demoted.expect("lying server must be demoted");
        assert!(dem <= 200, "demotion took {dem} rounds");
        assert!(exc <= dem);
        assert!(q.trust(2) < 0.2, "trust {}", q.trust(2));
        assert!(q.trust(0) > 0.7 && q.trust(1) > 0.7);
        // the combined clock still tracks the healthy pair
        let t = 800.0 * 16.0;
        let e = ex(t, 0.0);
        let ca = q.absolute_time(e.tf_tsc).unwrap();
        let t_true = e.tf_tsc as f64 * P_TRUE;
        assert!(
            (ca - t_true).abs() < 300e-6,
            "combined clock dragged by liar: err {}",
            ca - t_true
        );
    }

    #[test]
    fn missing_polls_are_tolerated_and_outage_demotes() {
        let mut q = quorum(2);
        for i in 0..300u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            q.process_round(&[Some(e), Some(e)]);
        }
        // server 1 goes dark
        for i in 300..500u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            let out = q.process_round(&[Some(e), None]);
            assert!(out.combined, "quorum must keep combining through the outage");
        }
        assert!(q.demoted(1), "a 200-round outage must demote");
        assert!(!q.demoted(0));
        // recovery: the server returns healthy and is eventually re-admitted
        for i in 500..800u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            q.process_round(&[Some(e), Some(e)]);
        }
        assert!(!q.demoted(1), "recovered server must be re-admitted");
    }

    #[test]
    fn no_combination_before_bootstrap_or_without_deliveries() {
        let mut q = quorum(2);
        let out = q.process_round(&[None, None]);
        assert!(!out.combined);
        assert!(q.absolute_time(0).is_none());
        assert!(q.p_hat().is_none());
        // one round delivers: clocks hold their first packet (bootstrap
        // needs two), so still no candidates
        let out = q.process_round(&[Some(ex(16.0, 0.0)), Some(ex(16.0, 0.0))]);
        assert!(!out.combined);
        // second delivery bootstraps both clocks
        let out = q.process_round(&[Some(ex(32.0, 0.0)), Some(ex(32.0, 0.0))]);
        assert!(out.combined);
        assert_eq!(out.candidate_mask, 0b11);
    }

    #[test]
    #[should_panic(expected = "one entry per server")]
    fn wrong_round_width_panics() {
        quorum(2).process_round(&[None]);
    }

    #[test]
    fn process_batch_is_bit_identical_to_round_loop() {
        // same rounds (including losses and a lying server), fed per-round
        // vs flattened in various batch sizes: outputs and final state
        // must match bit-for-bit
        let k = 3usize;
        let rounds: Vec<Option<RawExchange>> = (0..500u64)
            .flat_map(|i| {
                let t = i as f64 * 16.0;
                let asym = if i > 250 { 2e-3 } else { 0.0 };
                [
                    Some(ex(t, 0.0)),
                    (!i.is_multiple_of(11)).then_some(ex(t, 0.0)),
                    Some(ex(t, asym)),
                ]
            })
            .collect();
        let mut seq = quorum(k);
        let expected: Vec<QuorumOutput> =
            rounds.chunks_exact(k).map(|r| seq.process_round(r)).collect();
        for chunk_rounds in [1usize, 7, 64, 500] {
            let mut batched = quorum(k);
            let mut out = Vec::new();
            let mut appended = 0;
            for chunk in rounds.chunks(chunk_rounds * k) {
                appended += batched.process_batch(chunk, &mut out);
            }
            assert_eq!(appended, expected.len(), "batch {chunk_rounds}");
            for (a, b) in out.iter().zip(&expected) {
                assert_eq!(a.round, b.round);
                assert_eq!(a.delivered_mask, b.delivered_mask);
                assert_eq!(a.excluded_mask, b.excluded_mask);
                assert_eq!(a.demoted_mask, b.demoted_mask);
                assert_eq!(a.utc_ref.to_bits(), b.utc_ref.to_bits());
                assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits());
            }
            for s in 0..k {
                assert_eq!(batched.trust(s).to_bits(), seq.trust(s).to_bits());
                assert_eq!(batched.demoted(s), seq.demoted(s));
            }
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Drive a 3-server quorum through losses and a developing liar,
        // snapshot mid-fault, restore, and replay the rest on both: every
        // output and every health figure must match bit-for-bit.
        let k = 3usize;
        let round_at = |i: u64| {
            let t = i as f64 * 16.0;
            let asym = if i > 250 { 2e-3 } else { 0.0 };
            [
                Some(ex(t, 0.0)),
                (!i.is_multiple_of(11)).then_some(ex(t, 0.0)),
                Some(ex(t, asym)),
            ]
        };
        let mut live = quorum(k);
        for i in 0..300u64 {
            live.process_round(&round_at(i));
        }
        let blob = live.snapshot();
        let mut warm = QuorumClock::restore(&blob).expect("clean snapshot must restore");
        assert_eq!(warm.k(), k);
        for i in 300..600u64 {
            let a = live.process_round(&round_at(i));
            let b = warm.process_round(&round_at(i));
            assert_eq!(a.round, b.round, "round {i}");
            assert_eq!(a.delivered_mask, b.delivered_mask);
            assert_eq!(a.candidate_mask, b.candidate_mask);
            assert_eq!(a.excluded_mask, b.excluded_mask, "round {i}");
            assert_eq!(a.demoted_mask, b.demoted_mask, "round {i}");
            assert_eq!(a.combined, b.combined);
            assert_eq!(a.tsc_ref, b.tsc_ref);
            assert_eq!(a.utc_ref.to_bits(), b.utc_ref.to_bits(), "round {i}");
            assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(), "round {i}");
        }
        for s in 0..k {
            assert_eq!(live.trust(s).to_bits(), warm.trust(s).to_bits());
            assert_eq!(live.demoted(s), warm.demoted(s));
            assert_eq!(
                live.point_error_bound(s).to_bits(),
                warm.point_error_bound(s).to_bits()
            );
        }
    }

    #[test]
    fn corrupted_quorum_snapshot_is_a_typed_error() {
        let mut q = quorum(2);
        for i in 0..150u64 {
            let e = ex(i as f64 * 16.0, 0.0);
            q.process_round(&[Some(e), Some(e)]);
        }
        let blob = q.snapshot();
        assert!(QuorumClock::restore(&blob).is_ok());
        for cut in (0..blob.len()).step_by(17) {
            assert!(QuorumClock::restore(&blob[..cut]).is_err(), "cut {cut}");
        }
        for i in (0..blob.len()).step_by(29) {
            let mut m = blob.clone();
            m[i] ^= 0x04;
            assert!(QuorumClock::restore(&m).is_err(), "flip at {i}");
        }
        // a clock envelope is not a quorum envelope
        let clock_blob = q.server(0).snapshot();
        assert!(matches!(
            QuorumClock::restore(&clock_blob),
            Err(SnapshotError::KindMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "whole rounds")]
    fn ragged_batch_panics() {
        quorum(2).process_batch(&[None, None, None], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "quorum size")]
    fn zero_servers_rejected() {
        quorum(0);
    }
}
