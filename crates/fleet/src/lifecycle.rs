//! Client lifecycle state machine: how one host *survives the network*.
//!
//! The paper's algorithm assumes exchanges keep arriving; a production
//! client must decide what to do when they don't. This module wraps
//! [`TscNtpClock`] in the operational state machine a deployed time
//! client runs — sync cadence, delay-threshold sample rejection, bounded
//! exponential backoff with deterministic jitter, failure cooldown, and
//! graceful degradation of the served time:
//!
//! ```text
//!                    accepted sample,            accepted sample,
//!                    clock not yet aligned       clock aligned
//!   ┌──────────┐  ───────────────────────►  ┌─────────┐ ────────► ┌────────┐
//!   │ Unsynced │                            │ Syncing │           │ Synced │
//!   └──────────┘  ◄───── cooldown ──┐       └─────────┘ ◄──┐      └────────┘
//!        ▲               expired    │            │         │        │    ▲
//!        │                          │   max consecutive    │  ≥ degrade_after
//!        │                    ┌──────────┐   timeouts      │  consecutive
//!   (start here)              │  Failed  │ ◄───────────────┼─ rejects/timeouts
//!                             │{cooldown}│                 │        │
//!                             └──────────┘ ◄───────┐   accepted     ▼
//!                                   ▲              │   sample  ┌──────────┐
//!                                   └── max consec.└───────────│ Degraded │
//!                                       timeouts               └──────────┘
//!
//!   Degraded serves the last-good Ca(t) with a bound that widens with
//!   age; past `tscclock::bound::STALE_HORIZON` every read returns a
//!   Stale verdict.
//! ```
//!
//! The shape mirrors the embedded `TimeSynchronizer` exemplar
//! (`SyncStatus` Unsynced/Synced/Failed{cooldown}, delay-threshold
//! rejection, max-retry → cooldown), extended with the Syncing/Degraded
//! distinction a serving clock needs: the paper's clock takes a long
//! warm-up (τ′ ≈ 1000 s windows) before `Ca(t)` is trustworthy, and once
//! warm it can keep serving *stale* estimates with honestly widening
//! error bounds long after the network turned hostile.
//!
//! # Determinism
//!
//! The machine consumes no wall clock and no entropy beyond a private
//! ChaCha stream seeded by `splitmix64(seed ^ JITTER_SALT)`: the same
//! `(config, seed)` and the same outcome sequence reproduce the same
//! retry schedule bit for bit — the backoff-determinism tests pin this,
//! and the fleet parity suite relies on it.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use tsc_telemetry as telemetry;
use tsc_netsim::profile::PathProfile;
use tsc_netsim::multi::splitmix64;
use tsc_ntp::{NtpPacket, PacketError};
use tscclock::bound::{self, BOUND_FLOOR, STALE_HORIZON};
use tscclock::snapshot::{self, SnapshotReader, SnapshotWriter};
use tscclock::{ClockConfig, ProcessOutput, RawExchange, SnapshotError, TscNtpClock};

/// Salt of the per-client jitter stream.
const JITTER_SALT: u64 = 0xC0_0F_EE_15_7E_A2_B4_D6;

/// Operational state of a lifecycle client. `repr(u8)` indices are stable
/// (used by the time-in-state accounting and the fleet digests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ClientState {
    /// No usable clock yet (cold start, or back from cooldown).
    Unsynced = 0,
    /// Exchanging and filtering, but the clock is not yet aligned.
    Syncing = 1,
    /// Aligned and fed by fresh accepted samples.
    Synced = 2,
    /// Was synced; recent samples rejected or lost. Serves last-good
    /// `Ca(t)` with a widening bound.
    Degraded = 3,
    /// Max consecutive timeouts exhausted; in cooldown, not polling.
    Failed = 4,
}

/// Number of states (size of time-in-state arrays).
pub const STATE_COUNT: usize = 5;

impl ClientState {
    /// Decodes a snapshot state tag.
    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        Ok(match tag {
            0 => ClientState::Unsynced,
            1 => ClientState::Syncing,
            2 => ClientState::Synced,
            3 => ClientState::Degraded,
            4 => ClientState::Failed,
            _ => return Err(SnapshotError::Invalid("unknown client state tag")),
        })
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClientState::Unsynced => "Unsynced",
            ClientState::Syncing => "Syncing",
            ClientState::Synced => "Synced",
            ClientState::Degraded => "Degraded",
            ClientState::Failed => "Failed",
        }
    }
}

/// Why a transition fired (carried in the trace for demos/diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// An accepted sample warmed the clock into alignment.
    Aligned,
    /// An accepted sample arrived while not yet aligned.
    Sampling,
    /// Too many consecutive rejected/lost samples while serving.
    DegradedByLosses,
    /// Consecutive timeouts reached `max_retries`.
    CooldownEntered,
    /// The cooldown expired; polling resumes from scratch.
    CooldownExpired,
    /// An accepted sample ended a degraded spell.
    Recovered,
}

impl TransitionCause {
    fn to_tag(self) -> u8 {
        match self {
            TransitionCause::Aligned => 0,
            TransitionCause::Sampling => 1,
            TransitionCause::DegradedByLosses => 2,
            TransitionCause::CooldownEntered => 3,
            TransitionCause::CooldownExpired => 4,
            TransitionCause::Recovered => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        Ok(match tag {
            0 => TransitionCause::Aligned,
            1 => TransitionCause::Sampling,
            2 => TransitionCause::DegradedByLosses,
            3 => TransitionCause::CooldownEntered,
            4 => TransitionCause::CooldownExpired,
            5 => TransitionCause::Recovered,
            _ => return Err(SnapshotError::Invalid("unknown transition cause tag")),
        })
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// True time of the event (seconds since scenario start).
    pub t: f64,
    /// State before.
    pub from: ClientState,
    /// State after.
    pub to: ClientState,
    /// Why.
    pub cause: TransitionCause,
}

/// Lifecycle policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// Nominal sync cadence while healthy (seconds).
    pub poll_period: f64,
    /// How long to wait for a response before declaring the exchange
    /// lost (seconds).
    pub timeout: f64,
    /// Delay-threshold rejection: a delivered exchange whose network RTT
    /// (turnaround minus server residence) exceeds this is discarded
    /// *before* it reaches the clock (seconds).
    pub delay_threshold: f64,
    /// Consecutive bad samples (rejected or lost) that push a Synced
    /// client into Degraded.
    pub degrade_after: u32,
    /// First retry delay after a timeout (seconds); doubles per
    /// consecutive timeout.
    pub backoff_base: f64,
    /// Retry delay ceiling (seconds).
    pub backoff_max: f64,
    /// Jitter fraction `j`: each retry delay is multiplied by a
    /// deterministic uniform draw from `[1 − j/2, 1 + j/2]`. `0` disables
    /// jitter — the naive herd-prone client.
    pub jitter_frac: f64,
    /// Consecutive timeouts before entering Failed{cooldown}.
    pub max_retries: u32,
    /// Cooldown length after max retries (seconds); also jittered.
    pub cooldown: f64,
    /// Transition-trace capacity (older entries are kept, newer dropped,
    /// so the interesting cold-start/outage structure survives).
    pub max_trace: usize,
}

impl LifecycleConfig {
    /// Defaults for a given poll period: timeout of a quarter period,
    /// retries starting at a half period capped at 32 periods, jitter
    /// fraction 1 (retry delays spread over ±50 %), 1-hour cooldown.
    pub fn defaults(poll_period: f64) -> Self {
        Self {
            poll_period,
            timeout: (poll_period * 0.25).clamp(1.0, 30.0),
            delay_threshold: 0.1,
            degrade_after: 4,
            backoff_base: poll_period * 0.5,
            backoff_max: poll_period * 32.0,
            jitter_frac: 1.0,
            max_retries: 8,
            cooldown: 3600.0,
            max_trace: 4096,
        }
    }

    /// Profile-aware defaults: the delay threshold must scale with the
    /// access path (100 ms would reject *every* satellite exchange and
    /// *no* datacenter outlier), set at 3× the profile's nominal RTT
    /// plus a congestion allowance.
    pub fn for_profile(profile: PathProfile, poll_period: f64) -> Self {
        let params = profile.params();
        Self {
            delay_threshold: 3.0 * params.nominal_rtt()
                + 4.0 * (params.fwd_queue_mean + params.back_queue_mean),
            ..Self::defaults(poll_period)
        }
    }

    /// The naive variant of this config for herd ablations: fixed
    /// `retry` delay (no exponential growth), no jitter, and no give-up
    /// — it hammers the server until it answers. This is the client
    /// every thundering-herd postmortem blames.
    pub fn naive(mut self, retry: f64) -> Self {
        self.backoff_base = retry;
        self.backoff_max = retry;
        self.jitter_frac = 0.0;
        self.max_retries = u32::MAX;
        self
    }

    /// Validates the policy: every duration, threshold and rate finite;
    /// the poll period, timeout and first backoff positive, the ceiling at
    /// least the first backoff; jitter within `[0, 2]` (a delay factor of
    /// `1 ± j/2` stays non-negative); the cooldown non-negative; at least
    /// one retry and one bad sample before degrading.
    pub fn validate(&self) -> Result<(), String> {
        let floats = [
            self.poll_period,
            self.timeout,
            self.delay_threshold,
            self.backoff_base,
            self.backoff_max,
            self.jitter_frac,
            self.cooldown,
        ];
        if !floats.iter().all(|x| x.is_finite()) {
            return Err("lifecycle durations and rates must be finite".into());
        }
        if !(self.poll_period > 0.0
            && self.timeout > 0.0
            && self.backoff_base > 0.0
            && self.backoff_max >= self.backoff_base
            && (0.0..=2.0).contains(&self.jitter_frac)
            && self.cooldown >= 0.0
            && self.max_retries >= 1
            && self.degrade_after >= 1)
        {
            return Err("lifecycle config out of range".into());
        }
        Ok(())
    }

    /// Serializes the config (snapshot payload, no envelope).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.poll_period);
        w.put_f64(self.timeout);
        w.put_f64(self.delay_threshold);
        w.put_u32(self.degrade_after);
        w.put_f64(self.backoff_base);
        w.put_f64(self.backoff_max);
        w.put_f64(self.jitter_frac);
        w.put_u32(self.max_retries);
        w.put_f64(self.cooldown);
        w.put_usize(self.max_trace);
    }

    /// Deserializes a config written by [`LifecycleConfig::save_state`],
    /// re-checking the invariants the driver relies on.
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = Self {
            poll_period: r.get_f64()?,
            timeout: r.get_f64()?,
            delay_threshold: r.get_f64()?,
            degrade_after: r.get_u32()?,
            backoff_base: r.get_f64()?,
            backoff_max: r.get_f64()?,
            jitter_frac: r.get_f64()?,
            max_retries: r.get_u32()?,
            cooldown: r.get_f64()?,
            max_trace: r.get_usize()?,
        };
        cfg.validate()
            .map_err(|_| SnapshotError::Invalid("lifecycle config fails validation"))?;
        Ok(cfg)
    }
}

/// Outcome of handing one exchange (or its absence) to the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExchangeOutcome {
    /// Fed to the clock; carries the clock's per-packet output when the
    /// pipeline produced one.
    Accepted(Option<ProcessOutput>),
    /// Delivered but over the delay threshold; not fed to the clock.
    Rejected { rtt: f64 },
    /// Never delivered (loss or outage); noticed at the timeout.
    TimedOut,
}

/// What a read of the served clock returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadVerdict {
    /// Healthy: absolute time plus the current error bound.
    Fresh { time: f64, bound: f64 },
    /// Serving last-good state with an age-widened bound.
    Degraded { time: f64, bound: f64, age: f64 },
    /// Last accepted sample is beyond the staleness horizon; the client
    /// refuses to vouch for a time.
    Stale { age: f64 },
    /// Never aligned — no time to serve at all.
    Unavailable,
}

/// The lifecycle wrapper around one [`TscNtpClock`]. See the module docs
/// for the state diagram; schedule requests off
/// [`LifecycleClient::next_send`], hand each received datagram to
/// [`LifecycleClient::on_datagram`] (or an already-decoded exchange to
/// [`LifecycleClient::on_response`]) and call
/// [`LifecycleClient::on_timeout`] when the wait runs out.
#[derive(Debug)]
pub struct LifecycleClient {
    cfg: LifecycleConfig,
    clock: TscNtpClock,
    state: ClientState,
    /// Scheduled send time of the next request (true seconds); `None`
    /// while in cooldown until [`LifecycleClient::next_send`] re-arms.
    next_send: f64,
    /// End of the current cooldown (only meaningful in Failed).
    cooldown_until: f64,
    /// Consecutive timeouts (drives backoff and Failed).
    consecutive_timeouts: u32,
    /// Consecutive bad samples of any kind (drives Degraded).
    consecutive_bad: u32,
    /// Send time of the last accepted sample.
    last_good_t: f64,
    /// Error bound at the last accepted sample: the running minimum of
    /// the floored point errors (`∞` before the first), never below
    /// [`BOUND_FLOOR`].
    last_good_bound: f64,
    /// Whether any sample was ever accepted with the clock aligned.
    ever_aligned: bool,
    rng: ChaCha12Rng,
    trace: Vec<Transition>,
    transitions: u64,
    time_in_state: [f64; STATE_COUNT],
    last_change_t: f64,
    requests: u64,
    accepted: u64,
    rejected: u64,
    timeouts: u64,
}

impl LifecycleClient {
    /// A cold client joining at `join_t` (its first request is jittered
    /// across one poll period so fleets don't start phase-locked).
    ///
    /// # Panics
    /// Panics when `cfg` fails [`LifecycleConfig::validate`] (a restore
    /// refuses such a policy, so the client could never be restored) or
    /// `clock_cfg` fails [`ClockConfig::validate`].
    pub fn new(cfg: LifecycleConfig, clock_cfg: ClockConfig, seed: u64, join_t: f64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid lifecycle configuration: {e}");
        }
        let mut rng = ChaCha12Rng::seed_from_u64(splitmix64(seed ^ JITTER_SALT));
        let phase: f64 = rng.random::<f64>() * cfg.poll_period;
        Self {
            cfg,
            clock: TscNtpClock::new(clock_cfg),
            state: ClientState::Unsynced,
            next_send: join_t + phase,
            cooldown_until: 0.0,
            consecutive_timeouts: 0,
            consecutive_bad: 0,
            last_good_t: f64::NEG_INFINITY,
            last_good_bound: f64::INFINITY,
            ever_aligned: false,
            rng,
            trace: Vec::new(),
            transitions: 0,
            time_in_state: [0.0; STATE_COUNT],
            last_change_t: join_t,
            requests: 0,
            accepted: 0,
            rejected: 0,
            timeouts: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// The wrapped clock (read-only).
    pub fn clock(&self) -> &TscNtpClock {
        &self.clock
    }

    /// Scheduled send time of the next request. In cooldown this is the
    /// cooldown expiry: the driver should simply not send before it.
    pub fn next_send(&self) -> f64 {
        self.next_send
    }

    /// Records that a request was sent at `t` (for the request-rate
    /// accounting the herd analysis aggregates).
    pub fn note_request(&mut self) {
        self.requests += 1;
    }

    /// Handles a delivered exchange whose response arrived at true time
    /// `now`. `nominal_period` converts the counter turnaround to
    /// seconds for the delay-threshold test (the client knows its
    /// nominal frequency; p̂ refines it but must not gate admission —
    /// a cold clock has no p̂ yet).
    pub fn on_response(
        &mut self,
        now: f64,
        raw: RawExchange,
        nominal_period: f64,
    ) -> ExchangeOutcome {
        // leaving cooldown is handled by next_send(); a response can only
        // arrive for a request we sent, so state is not Failed here
        self.consecutive_timeouts = 0;
        let rtt = (raw.tf_tsc.wrapping_sub(raw.ta_tsc)) as f64 * nominal_period
            - (raw.te - raw.tb);
        if rtt > self.cfg.delay_threshold {
            self.rejected += 1;
            self.consecutive_bad = self.consecutive_bad.saturating_add(1);
            self.maybe_degrade(now);
            self.schedule_next(now, self.cfg.poll_period);
            return ExchangeOutcome::Rejected { rtt };
        }
        let out = self.clock.process(raw);
        self.accepted += 1;
        self.consecutive_bad = 0;
        let aligned = self.clock.absolute_time(raw.tf_tsc).is_some();
        self.last_good_t = now;
        // the one place the lifecycle floors its bound
        self.last_good_bound = out
            .map_or(0.0, |o| o.point_error.abs())
            .max(BOUND_FLOOR)
            .min(self.last_good_bound);
        if aligned {
            self.ever_aligned = true;
        }
        let target = if aligned {
            ClientState::Synced
        } else {
            ClientState::Syncing
        };
        if self.state != target {
            let cause = match (self.state, target) {
                (ClientState::Degraded, ClientState::Synced) => TransitionCause::Recovered,
                (_, ClientState::Synced) => TransitionCause::Aligned,
                _ => TransitionCause::Sampling,
            };
            self.transition(now, target, cause);
        }
        self.schedule_next(now, self.cfg.poll_period);
        ExchangeOutcome::Accepted(out)
    }

    /// The wire step: handles one datagram `bytes` that arrived at true
    /// time `now` (counter reading `tf_tsc`) while `request`, sent at
    /// counter reading `ta_tsc`, was outstanding. The datagram is decoded
    /// and checked with [`NtpPacket::validate_response`]:
    ///
    /// - a valid response is the exchange `{Ta, Tb, Te, Tf}` of Figure 1
    ///   and goes to [`LifecycleClient::on_response`];
    /// - a Kiss-o'-Death (stratum 0, origin echoed) is the server refusing
    ///   to answer, so it counts as no answer: it goes to
    ///   [`LifecycleClient::on_timeout`], which backs off and, after
    ///   `max_retries`, cools down. The clock never sees it, and
    ///   [`LifecycleClient::counters`] counts it as a timeout;
    /// - anything else (truncated, malformed, wrong mode, origin mismatch —
    ///   including a spoofed Kiss-o'-Death) returns `None` and leaves the
    ///   client untouched: the caller keeps waiting for the real answer
    ///   until its deadline.
    pub fn on_datagram(
        &mut self,
        now: f64,
        request: &NtpPacket,
        ta_tsc: u64,
        bytes: &[u8],
        tf_tsc: u64,
        nominal_period: f64,
    ) -> Option<ExchangeOutcome> {
        let response = NtpPacket::decode(bytes).ok()?;
        match response.validate_response(request) {
            Ok(()) => {
                let raw = RawExchange {
                    ta_tsc,
                    tb: response.receive_ts.to_unix_seconds(),
                    te: response.transmit_ts.to_unix_seconds(),
                    tf_tsc,
                };
                Some(self.on_response(now, raw, nominal_period))
            }
            Err(PacketError::KissOfDeath(_)) => Some(self.on_timeout(now)),
            Err(_) => None,
        }
    }

    /// Handles a request that got no response: `now` is the moment the
    /// timeout fired (send time + `timeout`).
    pub fn on_timeout(&mut self, now: f64) -> ExchangeOutcome {
        self.timeouts += 1;
        self.consecutive_timeouts += 1;
        self.consecutive_bad = self.consecutive_bad.saturating_add(1);
        if self.consecutive_timeouts >= self.cfg.max_retries {
            // max-retry → cooldown; the retry counter resets so the
            // post-cooldown attempt starts a fresh backoff ladder
            self.consecutive_timeouts = 0;
            let cd = self.cfg.cooldown * self.jitter();
            self.cooldown_until = now + cd;
            self.transition(now, ClientState::Failed, TransitionCause::CooldownEntered);
            self.next_send = self.cooldown_until;
            return ExchangeOutcome::TimedOut;
        }
        self.maybe_degrade(now);
        // bounded exponential backoff with deterministic jitter
        let exp = (self.consecutive_timeouts - 1).min(30);
        let backoff = (self.cfg.backoff_base * (1u64 << exp) as f64).min(self.cfg.backoff_max);
        let delay = backoff * self.jitter();
        self.schedule_next(now, delay);
        ExchangeOutcome::TimedOut
    }

    /// Called by the driver when it observes `now` has passed the
    /// cooldown expiry: Failed → Unsynced, polling resumes.
    pub fn end_cooldown(&mut self, now: f64) {
        if self.state == ClientState::Failed && now >= self.cooldown_until {
            self.transition(now, ClientState::Unsynced, TransitionCause::CooldownExpired);
        }
    }

    /// Reads the served clock at counter value `tsc`, `now` seconds into
    /// the run. See [`ReadVerdict`] for the grades; the bound ages by
    /// [`bound::aged`] with the sample's age, and past
    /// [`STALE_HORIZON`] the read is Stale.
    pub fn read(&self, tsc: u64, now: f64) -> ReadVerdict {
        let Some(time) = self.clock.absolute_time(tsc) else {
            return ReadVerdict::Unavailable;
        };
        if !self.ever_aligned {
            return ReadVerdict::Unavailable;
        }
        let age = (now - self.last_good_t).max(0.0);
        if age > STALE_HORIZON {
            return ReadVerdict::Stale { age };
        }
        let bound = bound::aged(self.last_good_bound, age);
        match self.state {
            ClientState::Synced | ClientState::Syncing => ReadVerdict::Fresh { time, bound },
            _ => ReadVerdict::Degraded { time, bound, age },
        }
    }

    /// The transition trace (capped at `max_trace`; the total count is
    /// [`LifecycleClient::transition_count`]).
    pub fn trace(&self) -> &[Transition] {
        &self.trace
    }

    /// Total transitions, including any the capped trace dropped.
    pub fn transition_count(&self) -> u64 {
        self.transitions
    }

    /// Seconds spent in each state (indexed by `ClientState as usize`),
    /// up to the last transition; call
    /// [`LifecycleClient::finish`] to account the tail.
    pub fn time_in_state(&self) -> [f64; STATE_COUNT] {
        self.time_in_state
    }

    /// Closes the books at `horizon`: accounts the time since the last
    /// transition to the current state.
    pub fn finish(&mut self, horizon: f64) {
        let dt = (horizon - self.last_change_t).max(0.0);
        self.time_in_state[self.state as usize] += dt;
        self.last_change_t = horizon;
    }

    /// `(requests, accepted, rejected, timeouts)` counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.requests, self.accepted, self.rejected, self.timeouts)
    }

    fn maybe_degrade(&mut self, now: f64) {
        if self.state == ClientState::Synced && self.consecutive_bad >= self.cfg.degrade_after {
            self.transition(now, ClientState::Degraded, TransitionCause::DegradedByLosses);
        }
    }

    /// One deterministic jitter multiplier from `[1 − j/2, 1 + j/2]`.
    fn jitter(&mut self) -> f64 {
        if self.cfg.jitter_frac == 0.0 {
            return 1.0;
        }
        1.0 + self.cfg.jitter_frac * (self.rng.random::<f64>() - 0.5)
    }

    fn schedule_next(&mut self, now: f64, delay: f64) {
        self.next_send = now + delay.max(1e-3);
    }

    fn transition(&mut self, now: f64, to: ClientState, cause: TransitionCause) {
        let dt = (now - self.last_change_t).max(0.0);
        self.time_in_state[self.state as usize] += dt;
        self.last_change_t = now;
        // Deterministic event time: simulated seconds in microseconds.
        let at = (now.max(0.0) * 1e6) as u64;
        let edge = ((self.state as u64) << 8) | to as u64;
        telemetry::add(telemetry::Ctr::LifecycleTransitions, 1);
        if self.trace.len() < self.cfg.max_trace {
            self.trace.push(Transition {
                t: now,
                from: self.state,
                to,
                cause,
            });
            telemetry::event(
                telemetry::EventKind::LifecycleTransition,
                at,
                edge,
                cause.to_tag() as u64,
            );
        } else {
            // The bounded trace is full: the edge still *happened* (the
            // `transitions` counter and `time_in_state` keep counting),
            // but its trace record is dropped. That drop used to be
            // silent; now it is counted and flight-recorded, and the
            // exposition dump always carries the counter.
            telemetry::add(telemetry::Ctr::LifecycleTraceDropped, 1);
            telemetry::event(
                telemetry::EventKind::LifecycleTraceDropped,
                at,
                edge,
                cause.to_tag() as u64,
            );
        }
        self.transitions += 1;
        self.state = to;
    }

    /// Serializes the complete client — policy config, wrapped clock,
    /// state machine position, **backoff-ladder and cooldown position**,
    /// jitter-RNG stream position, last-good serve state, trace, and all
    /// counters — into a versioned, checksummed snapshot envelope
    /// ([`tscclock::snapshot::kind::LIFECYCLE`]).
    ///
    /// The RNG is captured as its `(key, counter, index)` stream position
    /// — a restart does **not** reseed, so the retry schedule after a
    /// restore is the exact schedule the uninterrupted client would have
    /// drawn. That is what keeps a restarted fleet herd-safe: restored
    /// clients stay spread across the jitter window instead of
    /// re-phase-locking.
    pub fn snapshot(&self) -> Vec<u8> {
        let tm = telemetry::StageTimer::start(telemetry::Hist::SealNs);
        let mut w = SnapshotWriter::new();
        self.cfg.save_state(&mut w);
        self.clock.config().save_state(&mut w);
        self.clock.save_state(&mut w);
        w.put_u8(self.state as u8);
        w.put_f64(self.next_send);
        w.put_f64(self.cooldown_until);
        w.put_u32(self.consecutive_timeouts);
        w.put_u32(self.consecutive_bad);
        w.put_f64(self.last_good_t);
        w.put_f64(self.last_good_bound);
        w.put_bool(self.ever_aligned);
        let (key, counter, idx) = self.rng.export_state();
        for word in key {
            w.put_u32(word);
        }
        w.put_u64(counter);
        w.put_usize(idx);
        w.put_usize(self.trace.len());
        for tr in &self.trace {
            w.put_f64(tr.t);
            w.put_u8(tr.from as u8);
            w.put_u8(tr.to as u8);
            w.put_u8(tr.cause.to_tag());
        }
        w.put_u64(self.transitions);
        for t in self.time_in_state {
            w.put_f64(t);
        }
        w.put_f64(self.last_change_t);
        w.put_u64(self.requests);
        w.put_u64(self.accepted);
        w.put_u64(self.rejected);
        w.put_u64(self.timeouts);
        let blob = w.seal(snapshot::kind::LIFECYCLE);
        tm.stop();
        telemetry::add(telemetry::Ctr::SnapshotSeals, 1);
        blob
    }

    /// Restores a client from a [`LifecycleClient::snapshot`] blob.
    ///
    /// Corruption of any kind yields a typed [`SnapshotError`] — never a
    /// panic, never a silently wrong client. Use
    /// [`LifecycleClient::restore_or_cold`] for the degrade-to-cold-start
    /// policy.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let tm = telemetry::StageTimer::start(telemetry::Hist::RestoreNs);
        let result = Self::restore_inner(bytes);
        tm.stop();
        match &result {
            Ok(_) => telemetry::add(telemetry::Ctr::SnapshotRestores, 1),
            Err(e) => snapshot::record_restore_failure(e, bytes.len()),
        }
        result
    }

    fn restore_inner(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = snapshot::open_envelope(bytes, snapshot::kind::LIFECYCLE)?;
        let mut r = SnapshotReader::new(payload);
        let cfg = LifecycleConfig::load_state(&mut r)?;
        let clock_cfg = ClockConfig::load_state(&mut r)?;
        let clock = TscNtpClock::load_state(clock_cfg, &mut r)?;
        let state = ClientState::from_tag(r.get_u8()?)?;
        let next_send = r.get_f64()?;
        let cooldown_until = r.get_f64()?;
        let consecutive_timeouts = r.get_u32()?;
        if consecutive_timeouts >= cfg.max_retries {
            // reaching the retry limit resets the count (cooldown)
            return Err(SnapshotError::Invalid("timeout run past the retry limit"));
        }
        let consecutive_bad = r.get_u32()?;
        let last_good_t = r.get_f64()?;
        let last_good_bound = r.get_f64()?;
        if last_good_bound.is_nan() || last_good_bound < BOUND_FLOOR {
            // every bound this client stores is floored
            return Err(SnapshotError::Invalid("last-good bound below the floor"));
        }
        let ever_aligned = r.get_bool()?;
        let mut key = [0u32; 8];
        for word in &mut key {
            *word = r.get_u32()?;
        }
        let counter = r.get_u64()?;
        let idx = r.get_usize()?;
        if idx > rand_chacha::BUF_WORDS {
            return Err(SnapshotError::Invalid("rng buffer index out of range"));
        }
        let rng = ChaCha12Rng::from_state(key, counter, idx);
        let n_trace = r.get_len(11)?;
        if n_trace > cfg.max_trace {
            return Err(SnapshotError::Invalid("trace longer than its cap"));
        }
        let mut trace = Vec::with_capacity(n_trace);
        for _ in 0..n_trace {
            trace.push(Transition {
                t: r.get_f64()?,
                from: ClientState::from_tag(r.get_u8()?)?,
                to: ClientState::from_tag(r.get_u8()?)?,
                cause: TransitionCause::from_tag(r.get_u8()?)?,
            });
        }
        let transitions = r.get_count()?;
        let mut time_in_state = [0.0; STATE_COUNT];
        for t in &mut time_in_state {
            *t = r.get_f64()?;
        }
        let c = Self {
            cfg,
            clock,
            state,
            next_send,
            cooldown_until,
            consecutive_timeouts,
            consecutive_bad,
            last_good_t,
            last_good_bound,
            ever_aligned,
            rng,
            trace,
            transitions,
            time_in_state,
            last_change_t: r.get_f64()?,
            requests: r.get_count()?,
            accepted: r.get_count()?,
            rejected: r.get_count()?,
            timeouts: r.get_count()?,
        };
        r.finish()?;
        Ok(c)
    }

    /// Restore-or-degrade: tries [`LifecycleClient::restore`]; on any
    /// snapshot error falls back to a **cold** client (`new` with the
    /// given parameters — state machine back at
    /// [`ClientState::Unsynced`]), returning the error alongside so the
    /// caller can log the degradation. A corrupted checkpoint costs warm
    /// state, never correctness.
    pub fn restore_or_cold(
        bytes: &[u8],
        cfg: LifecycleConfig,
        clock_cfg: ClockConfig,
        seed: u64,
        join_t: f64,
    ) -> (Self, Option<SnapshotError>) {
        match Self::restore(bytes) {
            Ok(c) => (c, None),
            Err(e) => {
                // The typed error was recorded (and named) by `restore`;
                // the degradation is counted and flight-recorded here, and
                // the caller decides whether to print `flight_dump()`.
                telemetry::add(telemetry::Ctr::ColdRestarts, 1);
                telemetry::event(
                    telemetry::EventKind::ColdRestart,
                    (join_t.max(0.0) * 1e6) as u64,
                    0,
                    0,
                );
                (Self::new(cfg, clock_cfg, seed, join_t), Some(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_ntp::NtpTimestamp;

    fn cfg() -> LifecycleConfig {
        LifecycleConfig::defaults(16.0)
    }

    fn client(seed: u64) -> LifecycleClient {
        LifecycleClient::new(cfg(), ClockConfig::paper_defaults(16.0), seed, 0.0)
    }

    /// A synthetic good exchange at true time `t` for a 1 GHz counter.
    fn good_raw(t: f64) -> RawExchange {
        let rtt = 0.9e-3;
        RawExchange {
            ta_tsc: (t * 1e9) as u64,
            tb: t + rtt / 2.0,
            te: t + rtt / 2.0 + 12e-6,
            tf_tsc: ((t + rtt) * 1e9) as u64,
        }
    }

    #[test]
    fn the_wire_step_equals_its_parts() {
        // Twin clients see the same exchanges: one as datagrams through
        // `on_datagram`, the other as the `RawExchange` at wire precision
        // through `on_response`, a refusal as `on_timeout`. Datagrams the
        // wire step ignores change no byte of its client.
        let (mut wire, mut parts) = (client(12), client(12));
        let stamp = NtpTimestamp::from_unix_seconds;
        let answer = |req: &NtpPacket, raw: RawExchange| {
            NtpPacket::server_response(req, stamp(raw.tb), stamp(raw.te), *b"SIM\0").encode()
        };
        let mut t = 16.0;
        for i in 0..240 {
            let req = NtpPacket::client_request(stamp(t), 4);
            let stranger = NtpPacket::client_request(stamp(t - 16.0), 4);
            let mut raw = good_raw(t);
            if i % 12 == 7 {
                raw.tf_tsc += 400_000_000; // over the delay threshold
            }
            let good = answer(&req, raw);
            let mut echo = req.encode();
            echo[0] = (echo[0] & !0x7) | 4; // our own request as mode 4: zero origin
            let stray = answer(&stranger, raw);
            let spoofed = NtpPacket::refusal_response(&stranger, *b"RATE").encode();
            let before = wire.snapshot();
            for bytes in [&[1, 2, 3], &good[..47], &[0; 48], &echo, &stray, &spoofed] {
                assert_eq!(wire.on_datagram(t, &req, raw.ta_tsc, bytes, raw.tf_tsc, 1e-9), None);
            }
            assert_eq!(wire.snapshot(), before, "exchange {i}");
            let (got, want) = if i % 12 == 9 {
                let kod = NtpPacket::refusal_response(&req, *b"RATE").encode();
                let got = wire.on_datagram(t, &req, raw.ta_tsc, &kod, raw.tf_tsc, 1e-9);
                (got, parts.on_timeout(t))
            } else {
                let at_wire = |s| stamp(s).to_unix_seconds();
                let twin = RawExchange { tb: at_wire(raw.tb), te: at_wire(raw.te), ..raw };
                let got = wire.on_datagram(t, &req, raw.ta_tsc, &good, raw.tf_tsc, 1e-9);
                (got, parts.on_response(t, twin, 1e-9))
            };
            assert_eq!(got, Some(want), "exchange {i}");
            t = wire.next_send();
        }
        // a refusal counts as a timeout
        assert_eq!(wire.counters(), (0, 200, 20, 20));
        assert_eq!(wire.state(), ClientState::Synced);
        assert_eq!(wire.snapshot(), parts.snapshot());
    }

    #[test]
    fn starts_unsynced_with_jittered_phase() {
        let c = client(1);
        assert_eq!(c.state(), ClientState::Unsynced);
        assert!(c.next_send() >= 0.0 && c.next_send() < 16.0);
        // phase jitter is seed-dependent
        assert_ne!(client(1).next_send(), client(2).next_send());
        assert_eq!(client(1).next_send(), client(1).next_send());
    }

    #[test]
    fn accepted_samples_move_through_syncing() {
        let mut c = client(3);
        let out = c.on_response(16.0, good_raw(16.0), 1e-9);
        assert!(matches!(out, ExchangeOutcome::Accepted(_)));
        assert_eq!(c.state(), ClientState::Syncing, "not aligned after 1 sample");
        assert_eq!(c.trace().len(), 1);
        assert_eq!(c.trace()[0].to, ClientState::Syncing);
    }

    #[test]
    fn delay_threshold_rejects_before_the_clock() {
        let mut c = client(4);
        let mut raw = good_raw(16.0);
        // 400 ms turnaround: way over the 100 ms default threshold
        raw.tf_tsc = raw.ta_tsc + (0.4e9) as u64;
        let out = c.on_response(16.4, raw, 1e-9);
        assert!(matches!(out, ExchangeOutcome::Rejected { .. }));
        assert_eq!(c.clock().status().packets, 0, "rejected samples never reach the clock");
        let (_, accepted, rejected, _) = c.counters();
        assert_eq!((accepted, rejected), (0, 1));
    }

    #[test]
    fn timeouts_backoff_exponentially_and_cap() {
        let mut c = client(5);
        let mut now = 16.0;
        let mut delays = Vec::new();
        for _ in 0..6 {
            c.on_timeout(now);
            let d = c.next_send() - now;
            delays.push(d);
            now = c.next_send() + cfg().timeout;
        }
        // jitter is ±50 %, doubling is ×2: consecutive delays must grow
        // until the cap bites
        for w in delays.windows(2) {
            assert!(
                w[1] > w[0] * 1.0 || w[0] >= cfg().backoff_max * 0.5,
                "backoff should grow: {delays:?}"
            );
        }
        assert!(delays[5] <= cfg().backoff_max * 1.5, "cap: {delays:?}");
        assert!(delays[0] >= cfg().backoff_base * 0.5 && delays[0] <= cfg().backoff_base * 1.5);
    }

    #[test]
    fn max_retries_enter_cooldown_then_unsynced() {
        let mut c = client(6);
        let mut now = 16.0;
        for _ in 0..cfg().max_retries - 1 {
            let out = c.on_timeout(now);
            assert_eq!(out, ExchangeOutcome::TimedOut);
            assert_ne!(c.state(), ClientState::Failed);
            now = c.next_send() + 1.0;
        }
        let entry = now;
        c.on_timeout(entry);
        assert_eq!(c.state(), ClientState::Failed);
        let resume = c.next_send();
        assert!(resume >= entry + cfg().cooldown * 0.5, "{resume} vs {entry}");
        c.end_cooldown(resume);
        assert_eq!(c.state(), ClientState::Unsynced);
        // the ladder restarts small after cooldown
        c.on_timeout(resume + 1.0);
        assert!(c.next_send() - (resume + 1.0) <= cfg().backoff_base * 1.5);
    }

    #[test]
    fn degraded_after_consecutive_bad_and_recovers() {
        let mut c = client(7);
        // warm the clock to alignment with a long run of good samples
        let mut t = 16.0;
        for _ in 0..200 {
            c.on_response(t, good_raw(t), 1e-9);
            t += 16.0;
        }
        assert_eq!(c.state(), ClientState::Synced);
        for _ in 0..cfg().degrade_after {
            c.on_timeout(t);
            t = c.next_send() + 1.0;
        }
        assert_eq!(c.state(), ClientState::Degraded);
        // a fresh good sample recovers
        c.on_response(t, good_raw(t), 1e-9);
        assert_eq!(c.state(), ClientState::Synced);
        assert_eq!(
            c.trace().last().unwrap().cause,
            TransitionCause::Recovered
        );
    }

    #[test]
    fn reads_grade_fresh_degraded_stale() {
        let mut c = client(8);
        let mut t = 16.0;
        for _ in 0..200 {
            c.on_response(t, good_raw(t), 1e-9);
            t += 16.0;
        }
        let tsc = (t * 1e9) as u64;
        let fresh = c.read(tsc, t);
        let ReadVerdict::Fresh { time, bound } = fresh else {
            panic!("expected fresh read, got {fresh:?}");
        };
        assert!((time - t).abs() < 1e-2, "served time near truth: {time} vs {t}");
        assert!(bound > 0.0 && bound < 1e-3);

        // degrade, then check the bound widens with age
        for _ in 0..cfg().degrade_after {
            c.on_timeout(t);
        }
        assert_eq!(c.state(), ClientState::Degraded);
        let age1 = 600.0;
        let age2 = 3600.0;
        let b = |age: f64| match c.read(tsc, t + age) {
            ReadVerdict::Degraded { bound, .. } => bound,
            v => panic!("expected degraded read, got {v:?}"),
        };
        assert!(b(age2) > b(age1), "bound must widen with age");
        assert!((b(age2) - b(age1) - bound::WIDEN_RATE * (age2 - age1)).abs() < 1e-12);

        // and past the horizon the client refuses
        let verdict = c.read(tsc, t + STALE_HORIZON + 1.0);
        assert!(matches!(verdict, ReadVerdict::Stale { .. }), "{verdict:?}");
    }

    #[test]
    fn unavailable_before_alignment() {
        let c = client(9);
        assert_eq!(c.read(1_000_000, 1.0), ReadVerdict::Unavailable);
    }

    #[test]
    fn time_in_state_accounts_every_second() {
        let mut c = client(10);
        let mut t = 16.0;
        for _ in 0..100 {
            c.on_response(t, good_raw(t), 1e-9);
            t += 16.0;
        }
        c.finish(t);
        let total: f64 = c.time_in_state().iter().sum();
        assert!((total - t).abs() < 1e-9, "accounted {total} of {t}");
    }

    #[test]
    #[should_panic(expected = "invalid lifecycle configuration")]
    fn a_policy_a_restore_would_refuse_builds_no_client() {
        // "never retry again" is an infinite cooldown: the sealed policy
        // could not be restored
        let never_retry = LifecycleConfig { cooldown: f64::INFINITY, ..cfg() };
        LifecycleClient::new(never_retry, ClockConfig::paper_defaults(16.0), 1, 0.0);
    }

    #[test]
    fn naive_config_has_fixed_retry_and_no_jitter() {
        let naive = cfg().naive(4.0);
        let mut c = LifecycleClient::new(naive, ClockConfig::paper_defaults(16.0), 11, 0.0);
        let mut now = 16.0;
        for _ in 0..5 {
            c.on_timeout(now);
            assert!((c.next_send() - now - 4.0).abs() < 1e-12, "fixed 4 s retry");
            now = c.next_send() + naive.timeout;
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Warm through alignment, a degraded spell, and part of a backoff
        // ladder (so the RNG stream is mid-flight), snapshot, restore, and
        // drive both through the same outcome sequence: every scheduled
        // send time, state, verdict and counter must match bit-for-bit.
        let mut live = client(42);
        let mut t = 16.0;
        for _ in 0..220 {
            live.on_response(t, good_raw(t), 1e-9);
            t += 16.0;
        }
        for _ in 0..2 {
            live.on_timeout(t);
            t = live.next_send() + cfg().timeout;
        }
        let blob = live.snapshot();
        let mut warm = LifecycleClient::restore(&blob).expect("clean snapshot must restore");
        assert_eq!(warm.state(), live.state());
        assert_eq!(warm.next_send().to_bits(), live.next_send().to_bits());
        // identical future: more timeouts (jitter draws must agree), a
        // recovery, then a full ladder into cooldown
        for _ in 0..3 {
            let a = live.on_timeout(t);
            let b = warm.on_timeout(t);
            assert_eq!(a, b);
            assert_eq!(
                live.next_send().to_bits(),
                warm.next_send().to_bits(),
                "jitter streams must resume in phase"
            );
            t = live.next_send() + cfg().timeout;
        }
        let a = live.on_response(t, good_raw(t), 1e-9);
        let b = warm.on_response(t, good_raw(t), 1e-9);
        assert!(matches!(a, ExchangeOutcome::Accepted(_)));
        assert_eq!(a, b);
        for _ in 0..cfg().max_retries {
            live.on_timeout(t);
            warm.on_timeout(t);
            assert_eq!(live.next_send().to_bits(), warm.next_send().to_bits());
            t = live.next_send().max(t) + 1.0;
        }
        assert_eq!(live.state(), warm.state());
        assert_eq!(live.counters(), warm.counters());
        assert_eq!(live.transition_count(), warm.transition_count());
        assert_eq!(live.trace().len(), warm.trace().len());
        for (x, y) in live.trace().iter().zip(warm.trace()) {
            assert_eq!(x, y);
        }
        let tis_a = live.time_in_state();
        let tis_b = warm.time_in_state();
        for s in 0..STATE_COUNT {
            assert_eq!(tis_a[s].to_bits(), tis_b[s].to_bits());
        }
        let tsc = (t * 1e9) as u64;
        assert_eq!(live.read(tsc, t), warm.read(tsc, t));
    }

    #[test]
    fn restore_or_cold_degrades_on_corruption() {
        let mut c = client(7);
        let mut t = 16.0;
        for _ in 0..50 {
            c.on_response(t, good_raw(t), 1e-9);
            t += 16.0;
        }
        let blob = c.snapshot();
        // clean restore: no error, warm state
        let (warm, err) =
            LifecycleClient::restore_or_cold(&blob, cfg(), ClockConfig::paper_defaults(16.0), 7, t);
        assert!(err.is_none());
        assert_eq!(warm.state(), c.state());
        // every corruption degrades to a cold Unsynced client, never panics
        for cut in (0..blob.len()).step_by(13) {
            let (cold, err) = LifecycleClient::restore_or_cold(
                &blob[..cut],
                cfg(),
                ClockConfig::paper_defaults(16.0),
                7,
                t,
            );
            assert!(err.is_some(), "cut {cut}");
            assert_eq!(cold.state(), ClientState::Unsynced);
            assert_eq!(cold.counters(), (0, 0, 0, 0));
        }
        for i in (0..blob.len()).step_by(19) {
            let mut m = blob.clone();
            m[i] ^= 0x40;
            let (cold, err) = LifecycleClient::restore_or_cold(
                &m,
                cfg(),
                ClockConfig::paper_defaults(16.0),
                7,
                t,
            );
            assert!(err.is_some(), "flip at {i}");
            assert_eq!(cold.state(), ClientState::Unsynced);
        }
    }

    #[test]
    fn profile_aware_threshold_scales_with_rtt() {
        let dc = LifecycleConfig::for_profile(PathProfile::Datacenter, 16.0);
        let sat = LifecycleConfig::for_profile(PathProfile::Satellite, 16.0);
        assert!(dc.delay_threshold < 5e-3);
        assert!(
            sat.delay_threshold > 3.0 * 0.5,
            "satellite threshold must clear the propagation floor"
        );
    }
}
