//! The composed TSC-NTP clock: difference and absolute clocks plus the
//! full online synchronization pipeline.
//!
//! §2.2 defines *two* clocks from the same counter, and insists on the
//! distinction:
//!
//! * the **difference clock** `Cd(t) = TSC(t)·p̂(t)` — for time differences
//!   up to the SKM scale, never disturbed by offset corrections;
//! * the **absolute clock** `Ca(t) = TSC(t)·p̂(t) + C̄ − θ̂(t)` — for
//!   absolute timestamps, paying for offset correction with a less smooth
//!   rate.
//!
//! [`TscNtpClock::process`] runs one packet through the whole §5–§6
//! pipeline: history admission and `r̂` maintenance, global rate, local
//! rate, naive offset, weighted offset with sanity checks, upward-shift
//! detection, top-window sliding with pair replacement, and the §6.1
//! clock-offset consistency rule that keeps `C(t)` continuous across `p̂`
//! updates.

use crate::config::ClockConfig;
use crate::exchange::RawExchange;
use crate::history::History;
use crate::local_rate::{LocalRate, LocalRateEvent};
use crate::offset::{OffsetEstimator, OffsetEvent};
use crate::rate::{GlobalRate, RateEvent};
use crate::shift::ShiftDetector;
use tsc_telemetry as telemetry;

/// Everything notable that happened while processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ClockEvent {
    /// Packet discarded before processing (failed causality checks).
    DiscardedMalformed,
    /// The global rate estimate changed.
    RateUpdated,
    /// The global-rate consistency guard rejected an update.
    RateSanity,
    /// The local rate estimate changed.
    LocalRateUpdated,
    /// The local-rate sanity rule duplicated the previous value.
    LocalRateSanity,
    /// The offset sanity check duplicated the previous value.
    OffsetSanity,
    /// The offset estimator fell back to carrying its estimate forward.
    OffsetFallback,
    /// An upward level shift was confirmed and the history re-based.
    UpwardShift,
    /// A new RTT minimum was observed (includes downward level shifts).
    NewRttMinimum,
    /// The top-level window slid (oldest half of history discarded).
    WindowSlid,
}

impl ClockEvent {
    /// Every event, in declaration (= bit) order.
    pub const ALL: [ClockEvent; 10] = [
        ClockEvent::DiscardedMalformed,
        ClockEvent::RateUpdated,
        ClockEvent::RateSanity,
        ClockEvent::LocalRateUpdated,
        ClockEvent::LocalRateSanity,
        ClockEvent::OffsetSanity,
        ClockEvent::OffsetFallback,
        ClockEvent::UpwardShift,
        ClockEvent::NewRttMinimum,
        ClockEvent::WindowSlid,
    ];

    #[inline]
    const fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A set of [`ClockEvent`]s as a copyable bitflag word — the per-packet
/// event list without a heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventSet(u16);

impl EventSet {
    /// The empty set.
    pub const fn empty() -> Self {
        EventSet(0)
    }

    /// Adds an event to the set.
    #[inline]
    pub fn insert(&mut self, e: ClockEvent) {
        self.0 |= e.bit();
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, e: ClockEvent) -> bool {
        self.0 & e.bit() != 0
    }

    /// `true` when no events were raised.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of events in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the contained events in declaration order.
    pub fn iter(self) -> impl Iterator<Item = ClockEvent> {
        ClockEvent::ALL.into_iter().filter(move |e| self.contains(*e))
    }
}

impl FromIterator<ClockEvent> for EventSet {
    fn from_iter<I: IntoIterator<Item = ClockEvent>>(iter: I) -> Self {
        let mut s = EventSet::empty();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

/// Per-packet output of [`TscNtpClock::process`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessOutput {
    /// Global index assigned to this packet.
    pub idx: u64,
    /// Round-trip time in seconds (via the current rate estimate).
    pub rtt: f64,
    /// Point error `Eᵢ` in seconds.
    pub point_error: f64,
    /// The naive per-packet offset `θ̂ᵢ` (equation (19)).
    pub theta_naive: f64,
    /// The filtered offset estimate `θ̂(t)` after this packet.
    pub theta_hat: f64,
    /// Current global rate estimate `p̂` (seconds per count).
    pub p_hat: f64,
    /// Current local rate estimate `p̂l`, when active.
    pub p_local: Option<f64>,
    /// Events raised by this packet.
    pub events: EventSet,
}

/// A snapshot of the clock's estimates (enough to resume
/// timestamping — though not filtering history — after a restart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockStatus {
    /// Packets processed (accepted into history).
    pub packets: u64,
    /// `true` once the warm-up phase has completed.
    pub warmed_up: bool,
    /// Global rate estimate, seconds per count.
    pub p_hat: Option<f64>,
    /// Quality bound on `p̂`.
    pub p_quality: f64,
    /// Local rate estimate.
    pub p_local: Option<f64>,
    /// Current offset estimate.
    pub theta_hat: Option<f64>,
    /// Minimum RTT `r̂` in seconds.
    pub rtt_min: Option<f64>,
    /// The clock-alignment constant C̄.
    pub c_bar: f64,
}

/// The TSC-NTP software clock.
#[derive(Debug)]
pub struct TscNtpClock {
    cfg: ClockConfig,
    history: History,
    rate: GlobalRate,
    local_rate: LocalRate,
    offset: OffsetEstimator,
    shift: ShiftDetector,
    /// Clock alignment constant: `C(t) = TSC(t)·p̂ + C̄`, set together
    /// with the first rate estimate.
    c_bar: f64,
    /// First exchange, held until `p̂₂,₁` exists.
    pending_first: Option<RawExchange>,
}

impl TscNtpClock {
    /// Creates a clock with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration fails [`ClockConfig::validate`].
    pub fn new(cfg: ClockConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid clock configuration: {e}");
        }
        let top = cfg.top_packets().max(8);
        Self {
            cfg,
            history: History::new(top),
            rate: GlobalRate::new(cfg.e_star, cfg.warmup_packets),
            local_rate: LocalRate::new(
                cfg.tau_bar_packets(),
                cfg.w_split,
                cfg.gamma_star,
                cfg.rate_sanity,
                (cfg.warmup_packets + cfg.tau_bar_packets()) as u64,
                cfg.tau_bar / 2.0,
            ),
            offset: OffsetEstimator::new(&cfg),
            shift: ShiftDetector::new(cfg.ts_packets(), cfg.shift_mult * cfg.quality_scale),
            c_bar: 0.0,
            pending_first: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClockConfig {
        &self.cfg
    }

    /// Current global rate estimate `p̂` (seconds per count), if
    /// bootstrapped — the cheap accessor the quorum layer polls every
    /// round (a full [`TscNtpClock::status`] snapshot walks the history).
    #[inline]
    pub fn p_hat(&self) -> Option<f64> {
        self.rate.p_hat()
    }

    /// Overrides the offset estimator's incremental rebuild cadence.
    /// Differential-test hook — see `OffsetEstimator::set_rebuild_cadence`.
    #[doc(hidden)]
    pub fn set_offset_rebuild_cadence(&mut self, every: u32) {
        self.offset.set_rebuild_cadence(every);
    }

    /// Feeds one completed exchange through the pipeline.
    ///
    /// Returns `None` for malformed packets (not causal, or a server stamp
    /// that is not finite: the rule a restore checks stored records by) and
    /// for the very first packet (two packets are needed before any
    /// estimate exists; the first packet is then processed retroactively).
    pub fn process(&mut self, ex: RawExchange) -> Option<ProcessOutput> {
        if !crate::history::admissible(&ex) {
            return None;
        }
        // Bootstrap: hold the first packet until p̂₂,₁ can be formed.
        if self.rate.p_hat().is_none() && self.history.is_empty() {
            if let Some(first) = self.pending_first.take() {
                // Second packet: bootstrap the rate, align the clock, then
                // run both packets through the pipeline.
                // (a period `seed` would refuse bootstraps nothing)
                let p0 = crate::naive::naive_rate(&first, &ex)
                    .filter(|p| p.is_finite() && *p > 0.0)?;
                // Align C(t) to the server at the first packet's midpoint:
                // "The first estimate is just the server timestamp Tb,1".
                self.c_bar = first.server_midpoint() - first.host_midpoint_counts() * p0;
                self.rate.seed(p0);
                self.process_admitted(first);
                return Some(self.process_admitted(ex));
            }
            self.pending_first = Some(ex);
            return None;
        }
        Some(self.process_admitted(ex))
    }

    /// Feeds a batch of completed exchanges through the pipeline, appending
    /// one [`ProcessOutput`] per produced estimate to `out`; returns how
    /// many were appended.
    ///
    /// Results are **bit-identical** to calling [`TscNtpClock::process`] in
    /// a loop — the batch form is the fleet-replay ingest path: it reuses
    /// one output buffer across a whole shard (allocation-free once `out`
    /// has warmed up to the batch size) and keeps the per-packet fixed
    /// costs (the rate-pair refresh, the parked shift detector) in cache
    /// across consecutive packets of the same clock.
    pub fn process_batch(&mut self, exchanges: &[RawExchange], out: &mut Vec<ProcessOutput>) -> usize {
        let before = out.len();
        out.reserve(exchanges.len());
        for ex in exchanges {
            if let Some(o) = self.process(*ex) {
                out.push(o);
            }
        }
        out.len() - before
    }

    /// The main pipeline for a packet once estimates can exist.
    fn process_admitted(&mut self, ex: RawExchange) -> ProcessOutput {
        let mut events = EventSet::empty();
        let p_before = self.rate.p_hat().expect("rate bootstrapped");

        // θ̂ᵢ with the *current* clock (p̂, C̄): equation (19).
        let theta_naive = crate::naive::naive_offset(&ex, p_before, self.c_bar);

        // 1. Admit to history; r̂ maintenance; top-window slide.
        let (idx, outcome) = self.history.push(ex);
        if outcome.new_minimum {
            events.insert(ClockEvent::NewRttMinimum);
        }
        if outcome.window_slid {
            events.insert(ClockEvent::WindowSlid);
            // §6.1: replace the rate pair's j if it was discarded.
            let oldest = self.history.first().map(|r| r.idx).unwrap_or(0);
            let candidate = self.find_j_candidate(p_before);
            self.rate.replace_j_if_dropped(oldest, candidate);
            telemetry::add(telemetry::Ctr::WindowSlides, 1);
            telemetry::event(telemetry::EventKind::WindowSlid, idx, oldest, 0);
        }
        let record = self.history.last().expect("just pushed");
        let (tf_c, rtt_c) = (record.tf_c(), record.rtt_c());

        // 2. Global rate.
        match self.rate.process(&self.history, &record) {
            RateEvent::Updated => {
                let p_after = self.rate.p_hat().expect("updated");
                if p_after != p_before {
                    events.insert(ClockEvent::RateUpdated);
                    // §6.1 "Clock Offset Consistency": C̄ += TSC(t⁻)(p̂⁻ − p̂)
                    // keeps C(t) continuous across the rate update.
                    self.c_bar += tf_c * (p_before - p_after);
                }
            }
            RateEvent::SanityRejected => {
                events.insert(ClockEvent::RateSanity);
                telemetry::add(telemetry::Ctr::RateSanity, 1);
            }
            RateEvent::RejectedQuality => {}
        }
        let p_hat = self.rate.p_hat().expect("rate exists");

        // 3. Upward-shift detection (downward is automatic via r̂).
        if let Some(shift) = self.shift.observe(
            idx,
            rtt_c,
            self.history.rtt_min_c(),
            p_hat,
        ) {
            telemetry::add(telemetry::Ctr::UpwardShifts, 1);
            telemetry::event(telemetry::EventKind::UpwardShift, idx, shift.start_idx, 0);
            self.history
                .apply_upward_shift(shift.new_min_c, shift.start_idx);
            self.shift.reset();
            events.insert(ClockEvent::UpwardShift);
        }

        // 4. Local rate (needs the re-based history — refetch only if a
        // shift actually re-based it; nothing else mutates the record).
        // §5.2 introduces the local rate for two *optional* purposes; when
        // the configuration disables the equation-(21) refinement, the
        // estimator is not called at all — its two sub-window scans would
        // be spent on a diagnostic nobody reads (`p_local` is `None`
        // throughout).
        let record = if events.contains(ClockEvent::UpwardShift) {
            self.history.last().expect("present")
        } else {
            record
        };
        if self.cfg.use_local_rate {
            match self.local_rate.process(&self.history, &record, p_hat) {
                LocalRateEvent::Updated => events.insert(ClockEvent::LocalRateUpdated),
                LocalRateEvent::SanityDuplicated => events.insert(ClockEvent::LocalRateSanity),
                _ => {}
            }
        }

        // 5. Weighted offset.
        // The previous packet's `Tf`: the offset stage has not seen this one.
        let prev_tfc = self.offset.last_tfc();
        let gap_large = prev_tfc.is_finite() && (tf_c - prev_tfc) * p_hat > self.cfg.tau_bar / 2.0;
        let gamma_l = if self.cfg.use_local_rate && !gap_large {
            self.local_rate.gamma_l(p_hat, tf_c)
        } else {
            None
        };
        // Read after step 2 has counted this packet: the offset stage
        // leaves warm-up on the same packet the rate estimator does.
        let warmup = self.rate.in_warmup();
        let (theta_hat, off_ev) = self.offset.process(
            &self.cfg,
            &self.history,
            &record,
            p_hat,
            self.c_bar,
            gamma_l,
            warmup,
            gap_large,
        );
        match off_ev {
            OffsetEvent::SanityDuplicated => {
                events.insert(ClockEvent::OffsetSanity);
                telemetry::add(telemetry::Ctr::OffsetSanity, 1);
            }
            OffsetEvent::PoorQualityFallback | OffsetEvent::GapBlend => {
                events.insert(ClockEvent::OffsetFallback);
                telemetry::add(telemetry::Ctr::OffsetFallbacks, 1);
            }
            _ => {}
        }

        ProcessOutput {
            idx,
            rtt: rtt_c * p_hat,
            point_error: record.point_error(p_hat),
            theta_naive,
            theta_hat,
            p_hat,
            p_local: self.local_rate.p_local(),
            events,
        }
    }

    /// §6.1: after a slide, the j-replacement candidate is "the first packet
    /// in the new window of similar or better point quality" — we take the
    /// earliest retained packet whose point error is below E*.
    fn find_j_candidate(&self, p_hat: f64) -> Option<crate::history::PacketRecord> {
        self.history
            .iter()
            .find(|r| r.point_error(p_hat) < self.cfg.e_star)
    }

    // ------------------------------------------------------------------
    // Reading the clocks
    // ------------------------------------------------------------------

    /// The **difference clock** (equation (6)): converts an interval of raw
    /// counter readings into seconds using the current `p̂`. `None` before
    /// the clock is bootstrapped.
    pub fn difference_seconds(&self, tsc_from: u64, tsc_to: u64) -> Option<f64> {
        let p = self.rate.p_hat()?;
        Some(tsc_to.wrapping_sub(tsc_from) as i64 as f64 * p)
    }

    /// The **absolute clock** (equation (7)): `Ca = TSC·p̂ + C̄ − θ̂(t)`,
    /// with θ̂ linearly predicted via the local rate when enabled.
    pub fn absolute_time(&self, tsc: u64) -> Option<f64> {
        let p = self.rate.p_hat()?;
        let tf_c = tsc as f64;
        let gamma_l = if self.cfg.use_local_rate {
            self.local_rate.gamma_l(p, tf_c)
        } else {
            None
        };
        let theta = self.offset.predict(tf_c, p, gamma_l)?;
        Some(tf_c * p + self.c_bar - theta)
    }

    /// The uncorrected clock `C(t) = TSC·p̂ + C̄` (the thing whose offset is
    /// being estimated).
    pub fn uncorrected_time(&self, tsc: u64) -> Option<f64> {
        let p = self.rate.p_hat()?;
        Some(tsc as f64 * p + self.c_bar)
    }

    /// Current estimates snapshot.
    pub fn status(&self) -> ClockStatus {
        let p = self.rate.p_hat();
        ClockStatus {
            packets: self.history.total_admitted(),
            warmed_up: !self.rate.in_warmup(),
            p_hat: p,
            p_quality: self.rate.quality(),
            p_local: self.local_rate.p_local(),
            theta_hat: self.offset.theta(),
            rtt_min: p.map(|p| self.history.rtt_min_c() * p).filter(|r| r.is_finite()),
            c_bar: self.c_bar,
        }
    }

    /// Immutable access to the packet history (diagnostics, experiments).
    pub fn history(&self) -> &History {
        &self.history
    }

    // ------------------------------------------------------------------
    // Crash-safe snapshots
    // ------------------------------------------------------------------

    /// Serializes the clock's evolving state into a snapshot payload: no
    /// envelope and no configuration. Every word is state, never a function
    /// of the configuration or of other words; the composition layers (the
    /// quorum clock, the lifecycle client) write the configuration once
    /// beside it. Use [`TscNtpClock::snapshot`] for a standalone blob.
    #[doc(hidden)]
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        self.history.save_state(w);
        self.rate.save_state(w);
        self.local_rate.save_state(w);
        self.offset.save_state(w);
        self.shift.save_state(w);
        w.put_f64(self.c_bar);
        match self.pending_first {
            Some(ex) => {
                w.put_u8(1);
                w.put_u64(ex.ta_tsc);
                w.put_f64(ex.tb);
                w.put_f64(ex.te);
                w.put_u64(ex.tf_tsc);
            }
            None => w.put_u8(0),
        }
    }

    /// Restores a clock of configuration `cfg` (valid, as
    /// [`ClockConfig::load_state`] leaves it) from state written by
    /// [`TscNtpClock::save_state`]: builds every component as
    /// [`TscNtpClock::new`] does, then overwrites its evolving state, so
    /// every ring has its configured length and every derived count is the
    /// configuration's. A history without a rate estimate, a `C̄` that is
    /// not finite, or a held first exchange the clock could not have
    /// admitted, is refused.
    #[doc(hidden)]
    pub fn load_state(
        cfg: ClockConfig,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::SnapshotError> {
        use crate::SnapshotError as E;
        // The shift ring is allocated at its configured length before it is
        // read: a payload too short to hold it is refused first, so the
        // allocation stays within the blob's size.
        if cfg.ts_packets() * 8 > r.remaining() {
            return Err(E::Truncated);
        }
        let mut clock = Self::new(cfg);
        clock.history.load_state(r)?;
        clock.rate.load_state(r, clock.history.total_admitted())?;
        if clock.rate.p_hat().is_none() && !clock.history.is_empty() {
            // a record is admitted only once the rate is bootstrapped
            return Err(E::Invalid("history without a rate estimate"));
        }
        clock.local_rate.load_state(r)?;
        clock.offset.load_state(r, &cfg, &clock.history)?;
        clock.shift.load_state(r)?;
        clock.c_bar = r.get_f64()?;
        if !clock.c_bar.is_finite() {
            return Err(E::Invalid("clock alignment not finite"));
        }
        clock.pending_first = match r.get_u8()? {
            0 => None,
            1 => {
                let ex = RawExchange {
                    ta_tsc: r.get_u64()?,
                    tb: r.get_f64()?,
                    te: r.get_f64()?,
                    tf_tsc: r.get_u64()?,
                };
                if !crate::history::admissible(&ex) {
                    return Err(crate::history::INADMISSIBLE);
                }
                Some(ex)
            }
            _ => return Err(E::Invalid("option tag not 0/1")),
        };
        Ok(clock)
    }

    /// Serializes the complete clock — its configuration once, then the
    /// state of the history ring and baseline runs, both rate estimators,
    /// the factored-weight offset window with its rebuild position, the
    /// shift detector, and the alignment — into a standalone versioned,
    /// checksummed snapshot blob.
    ///
    /// The **resume-exactness contract**: a clock restored from this blob
    /// produces bit-identical outputs to the uninterrupted clock for every
    /// subsequent packet (see `crates/core/README.md` and the
    /// `snapshot_resume` differential suite).
    pub fn snapshot(&self) -> Vec<u8> {
        let tm = telemetry::StageTimer::start(telemetry::Hist::SealNs);
        // Size the buffer once instead of doubling up to it: the history
        // records are all of the payload but the configuration and the
        // estimators' own state, a few KB, most of it the shift detector's
        // ring (a miss only costs a reallocation).
        let records = self.history.len() * crate::history::EXCHANGE_WIRE_BYTES;
        let mut w = crate::snapshot::SnapshotWriter::with_capacity(records + (16 << 10));
        self.cfg.save_state(&mut w);
        self.save_state(&mut w);
        let blob = w.seal(crate::snapshot::kind::CLOCK);
        tm.stop();
        telemetry::add(telemetry::Ctr::SnapshotSeals, 1);
        blob
    }

    /// Restores a clock from a [`TscNtpClock::snapshot`] blob.
    ///
    /// Any corruption — truncation, bit flips, a foreign or
    /// version-mismatched envelope, or parameters that fail validation —
    /// returns a typed [`crate::SnapshotError`]; this never panics on
    /// untrusted bytes. Callers are expected to fall back to a cold
    /// [`TscNtpClock::new`] on error (restore-or-degrade).
    pub fn restore(bytes: &[u8]) -> Result<Self, crate::SnapshotError> {
        let tm = telemetry::StageTimer::start(telemetry::Hist::RestoreNs);
        let result = (|| {
            let payload = crate::snapshot::open_envelope(bytes, crate::snapshot::kind::CLOCK)?;
            let mut r = crate::snapshot::SnapshotReader::new(payload);
            let cfg = ClockConfig::load_state(&mut r)?;
            let clock = Self::load_state(cfg, &mut r)?;
            r.finish()?;
            Ok(clock)
        })();
        tm.stop();
        match &result {
            Ok(_) => telemetry::add(telemetry::Ctr::SnapshotRestores, 1),
            Err(e) => crate::snapshot::record_restore_failure(e, bytes.len()),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_TRUE: f64 = 1.0000524e-9; // 1 GHz, +52.4 PPM skew

    /// Ideal exchange generator: symmetric path, optional forward queueing
    /// `qf` and backward queueing `qb`, optional server timestamp error.
    fn ex(t: f64, qf: f64, qb: f64, server_err: f64) -> RawExchange {
        let d = 450e-6;
        let s = 20e-6;
        RawExchange {
            ta_tsc: (t / P_TRUE).round() as u64,
            tb: t + d + qf + server_err,
            te: t + d + qf + s + server_err,
            tf_tsc: ((t + 2.0 * d + s + qf + qb) / P_TRUE).round() as u64,
        }
    }

    fn clock() -> TscNtpClock {
        TscNtpClock::new(ClockConfig::paper_defaults(16.0))
    }

    #[test]
    fn bootstrap_requires_two_packets() {
        let mut c = clock();
        assert!(c.process(ex(0.0, 0.0, 0.0, 0.0)).is_none());
        assert!(c.status().p_hat.is_none());
        let out = c.process(ex(16.0, 0.0, 0.0, 0.0)).unwrap();
        assert!(out.p_hat > 0.0);
        assert_eq!(c.status().packets, 2);
    }

    #[test]
    fn malformed_packets_rejected() {
        let mut c = clock();
        let mut bad = ex(0.0, 0.0, 0.0, 0.0);
        bad.tf_tsc = bad.ta_tsc; // zero RTT
        assert!(c.process(bad).is_none());
        assert_eq!(c.status().packets, 0);
    }

    #[test]
    fn rate_converges_below_0_1_ppm() {
        let mut c = clock();
        for k in 0..2000u64 {
            let q = if k % 11 == 0 { 3e-3 } else { 20e-6 };
            c.process(ex(k as f64 * 16.0, q * 0.6, q * 0.4, 0.0));
        }
        let p = c.status().p_hat.unwrap();
        let rel = ((p - P_TRUE) / P_TRUE).abs();
        assert!(rel < 1e-7, "rate rel error {rel:.2e}");
    }

    #[test]
    fn difference_clock_measures_intervals_to_microseconds() {
        let mut c = clock();
        for k in 0..1000u64 {
            c.process(ex(k as f64 * 16.0, 10e-6, 10e-6, 0.0));
        }
        // a 2-second interval in counter units
        let a = (5000.0 / P_TRUE) as u64;
        let b = ((5000.0 + 2.0) / P_TRUE) as u64;
        let dt = c.difference_seconds(a, b).unwrap();
        assert!(
            (dt - 2.0).abs() < 1e-6,
            "2 s interval measured as {dt} (err {})",
            dt - 2.0
        );
    }

    #[test]
    fn absolute_clock_tracks_server_time() {
        let mut c = clock();
        let mut last_tf = 0u64;
        for k in 0..1000u64 {
            let e = ex(k as f64 * 16.0, 15e-6, 10e-6, 0.0);
            last_tf = e.tf_tsc;
            c.process(e);
        }
        let t_true = last_tf as f64 * P_TRUE; // truth: counter built from truth
        let ca = c.absolute_time(last_tf).unwrap();
        assert!(
            (ca - t_true).abs() < 200e-6,
            "absolute clock error {}",
            ca - t_true
        );
    }

    #[test]
    fn offset_estimate_filters_congestion() {
        // θ̂ itself converges to the (unobservable, constant) C̄ anchoring
        // error; what must stay small is the *absolute clock* error vs
        // truth, which cancels that constant. The first packet is heavily
        // congested on purpose, so the anchor error is large (~5 ms).
        let mut c = clock();
        let mut worst = 0.0f64;
        for k in 0..1500u64 {
            // asymmetric congestion: naive estimates biased by up to −2.5 ms
            let qf = if k % 4 == 0 { 5e-3 } else { 30e-6 };
            let t = k as f64 * 16.0;
            let e = ex(t, qf, 20e-6, 0.0);
            let tf_true = t + 2.0 * 450e-6 + 20e-6 + qf + 20e-6;
            let tf_tsc = e.tf_tsc;
            if c.process(e).is_some() && k > 300 {
                let ca = c.absolute_time(tf_tsc).unwrap();
                worst = worst.max((ca - tf_true).abs());
            }
        }
        assert!(
            worst < 150e-6,
            "absolute clock must stay ≪ naive bias, worst {worst}"
        );
    }

    #[test]
    fn server_fault_triggers_sanity_and_is_contained() {
        let mut c = clock();
        for k in 0..500u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        let theta_before = c.status().theta_hat.unwrap();
        let mut sanity_fired = false;
        for k in 500..515u64 {
            if let Some(out) = c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.150)) {
                if out.events.contains(ClockEvent::OffsetSanity) {
                    sanity_fired = true;
                }
            }
        }
        assert!(sanity_fired, "offset sanity must fire during the fault");
        let theta_during = c.status().theta_hat.unwrap();
        assert!(
            (theta_during - theta_before).abs() < 1.5e-3,
            "damage must be ≲1 ms (paper §6.1), got {}",
            theta_during - theta_before
        );
        // recovery after the fault clears
        for k in 515..700u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        let theta_after = c.status().theta_hat.unwrap();
        assert!(
            (theta_after - theta_before).abs() < 200e-6,
            "post-fault recovery failed: {}",
            theta_after - theta_before
        );
    }

    #[test]
    fn downward_shift_absorbed_silently() {
        let mut c = clock();
        for k in 0..400u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        // −0.36 ms symmetric downward shift: build exchanges with smaller d
        let mut saw_new_min = false;
        let mut theta_tail = 0.0;
        for k in 400..900u64 {
            let t = k as f64 * 16.0;
            let d = 450e-6 - 180e-6;
            let s = 20e-6;
            let e = RawExchange {
                ta_tsc: (t / P_TRUE).round() as u64,
                tb: t + d + 20e-6,
                te: t + d + 20e-6 + s,
                tf_tsc: ((t + 2.0 * d + s + 40e-6) / P_TRUE).round() as u64,
            };
            if let Some(out) = c.process(e) {
                if out.events.contains(ClockEvent::NewRttMinimum) {
                    saw_new_min = true;
                }
                theta_tail = out.theta_hat;
            }
        }
        assert!(saw_new_min, "downward shift must register as new minimum");
        // Δ unchanged → offset estimate unaffected (Figure 11d)
        assert!(
            theta_tail.abs() < 150e-6,
            "downward shift must not disturb offset: {theta_tail}"
        );
    }

    #[test]
    fn upward_shift_detected_and_rebased() {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        cfg.ts_window = 640.0; // 40 packets, to keep the test fast
        let mut c = TscNtpClock::new(cfg);
        for k in 0..300u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        // permanent +0.9 ms forward shift
        let mut shift_seen = false;
        for k in 300..600u64 {
            let t = k as f64 * 16.0;
            let e = RawExchange {
                ta_tsc: (t / P_TRUE).round() as u64,
                tb: t + 450e-6 + 0.9e-3 + 20e-6,
                te: t + 450e-6 + 0.9e-3 + 40e-6,
                tf_tsc: ((t + 2.0 * 450e-6 + 0.9e-3 + 60e-6) / P_TRUE).round() as u64,
            };
            if let Some(out) = c.process(e) {
                if out.events.contains(ClockEvent::UpwardShift) {
                    shift_seen = true;
                }
            }
        }
        assert!(shift_seen, "permanent upward shift must be detected");
        // after re-basing, fresh packets have small point errors again
        let last = c.history().last().unwrap();
        assert!(
            last.point_error(c.status().p_hat.unwrap()) < 300e-6,
            "post-shift point errors must be re-based"
        );
    }

    #[test]
    fn outage_recovery_without_warmup() {
        let mut c = clock();
        for k in 0..500u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        let p_before = c.status().p_hat.unwrap();
        // 2-day gap (simulating the Figure 11a server unavailability)
        let resume = 500.0 * 16.0 + 2.0 * 86_400.0;
        let mut first_after = None;
        for k in 0..200u64 {
            if let Some(out) = c.process(ex(resume + k as f64 * 16.0, 20e-6, 20e-6, 0.0)) {
                if first_after.is_none() {
                    first_after = Some(out.theta_hat);
                }
            }
        }
        // "the current value of p̂ remains valid ... no warm-up required"
        let p_after = c.status().p_hat.unwrap();
        assert!(
            ((p_after - p_before) / p_before).abs() < 1e-6,
            "rate must survive the outage"
        );
        let theta = c.status().theta_hat.unwrap();
        assert!(
            theta.abs() < 500e-6,
            "offset must recover promptly after the gap: {theta}"
        );
    }

    #[test]
    fn clock_continuity_across_rate_updates() {
        // C(t) = TSC·p̂ + C̄ must not jump when p̂ updates.
        let mut c = clock();
        let mut prev_c: Option<f64> = None;
        for k in 0..800u64 {
            let e = ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0);
            let tf = e.tf_tsc;
            if let Some(out) = c.process(e) {
                let ct = c.uncorrected_time(tf).unwrap();
                if let Some(prev) = prev_c {
                    let step = ct - prev;
                    // 16 s of clock time ± 1 ms of slack
                    assert!(
                        (step - 16.0).abs() < 1e-3,
                        "clock jumped by {} at packet {}",
                        step - 16.0,
                        out.idx
                    );
                }
                prev_c = Some(ct);
            }
        }
    }

    #[test]
    fn status_snapshot_is_consistent() {
        let mut c = clock();
        for k in 0..300u64 {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        let s = c.status();
        assert_eq!(s.packets, 300);
        assert!(s.warmed_up);
        assert!(s.p_hat.is_some());
        assert!(s.theta_hat.is_some());
        let rtt_min = s.rtt_min.unwrap();
        assert!(rtt_min > 900e-6 && rtt_min < 1e-3, "rtt min {rtt_min}");
    }

    #[test]
    #[should_panic(expected = "invalid clock configuration")]
    fn invalid_config_panics() {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        cfg.delta = -1.0;
        TscNtpClock::new(cfg);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Core resume-exactness check (the cross-crate differential suite
        // in tests/snapshot_resume.rs covers poll rates and wrappers):
        // replay 400 packets, snapshot, restore, replay 300 more on both
        // clocks — every output and the final status must match exactly.
        let mut live = clock();
        for k in 0..400u64 {
            let q = if k % 7 == 0 { 2e-3 } else { 25e-6 };
            live.process(ex(k as f64 * 16.0, q * 0.7, q * 0.3, 0.0));
        }
        let blob = live.snapshot();
        let mut warm = TscNtpClock::restore(&blob).expect("restore");
        assert_eq!(warm.status(), live.status());
        for k in 400..700u64 {
            let q = if k % 5 == 0 { 1e-3 } else { 30e-6 };
            let e = ex(k as f64 * 16.0, q * 0.6, q * 0.4, 0.0);
            let a = live.process(e);
            let b = warm.process(e);
            assert_eq!(a, b, "diverged at packet {k}");
        }
        assert_eq!(warm.status(), live.status());
    }

    #[test]
    fn corrupted_snapshot_is_a_typed_error_never_a_panic() {
        let mut c = clock();
        for k in 0..50u64 {
            c.process(ex(k as f64 * 16.0, 25e-6, 20e-6, 0.0));
        }
        let blob = c.snapshot();
        assert!(TscNtpClock::restore(&blob).is_ok());
        // truncation at every prefix length
        for n in (0..blob.len()).step_by(7) {
            assert!(TscNtpClock::restore(&blob[..n]).is_err());
        }
        // single-bit flips across the blob
        for i in (0..blob.len()).step_by(11) {
            let mut m = blob.clone();
            m[i] ^= 0x10;
            assert!(TscNtpClock::restore(&m).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn event_set_insert_contains_iter() {
        let mut s = EventSet::empty();
        assert!(s.is_empty());
        s.insert(ClockEvent::RateUpdated);
        s.insert(ClockEvent::WindowSlid);
        s.insert(ClockEvent::WindowSlid); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(ClockEvent::RateUpdated));
        assert!(s.contains(ClockEvent::WindowSlid));
        assert!(!s.contains(ClockEvent::UpwardShift));
        let listed: Vec<ClockEvent> = s.iter().collect();
        assert_eq!(listed, vec![ClockEvent::RateUpdated, ClockEvent::WindowSlid]);
        let rebuilt: EventSet = listed.into_iter().collect();
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn process_batch_is_bit_identical_to_loop() {
        // the batched ingest path must be indistinguishable from per-packet
        // calls: same outputs (bit-for-bit), same final state, across
        // varied batch sizes and with malformed packets interleaved
        let exchanges: Vec<RawExchange> = (0..700u64)
            .map(|k| {
                let q = if k % 7 == 0 { 2e-3 } else { 25e-6 };
                let mut e = ex(k as f64 * 16.0, q * 0.7, q * 0.3, 0.0);
                if k % 97 == 0 {
                    e.tf_tsc = e.ta_tsc; // malformed: rejected by causality
                }
                e
            })
            .collect();
        let mut seq = clock();
        let expected: Vec<ProcessOutput> =
            exchanges.iter().filter_map(|e| seq.process(*e)).collect();
        for chunk in [1usize, 3, 64, 700] {
            let mut batched = clock();
            let mut out = Vec::new();
            let mut appended = 0;
            for c in exchanges.chunks(chunk) {
                appended += batched.process_batch(c, &mut out);
            }
            assert_eq!(appended, out.len());
            assert_eq!(out.len(), expected.len(), "chunk {chunk}");
            for (a, b) in out.iter().zip(&expected) {
                assert_eq!(a, b, "chunk {chunk}");
            }
            assert_eq!(batched.status(), seq.status(), "chunk {chunk}");
        }
    }

    #[test]
    fn local_rate_activates_with_enough_history() {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        cfg.use_local_rate = true;
        let mut c = TscNtpClock::new(cfg);
        let need = cfg.warmup_packets + cfg.tau_bar_packets();
        for k in 0..(need as u64 + 100) {
            c.process(ex(k as f64 * 16.0, 20e-6, 20e-6, 0.0));
        }
        let pl = c.status().p_local.expect("local rate active");
        assert!(((pl - P_TRUE) / P_TRUE).abs() < 0.1e-6);
    }
}
