//! The exchange simulator: one NTP poll at a time, end to end.
//!
//! Implements the Figure-1 timeline. For poll `i` at true time `t`:
//!
//! 1. the host reads its TSC (`Ta`), then the frame departs at
//!    `ta = t + send_latency`;
//! 2. the frame crosses the forward path, arriving at `tb = ta + d→`; the
//!    server stamps `Tb` with its own (imperfect, possibly faulted) clock;
//! 3. the server holds the packet for its residence time, departing at
//!    `te = tb + d↑` and stamping `Te`;
//! 4. the frame crosses the backward path, arriving at the DAG tap and then
//!    the host NIC at `tf = te + d←`; the DAG records `Tg` (first-bit
//!    corrected); the host's interrupt fires after `recv_latency` and the
//!    raw `Tf` TSC read happens;
//! 5. loss and outage windows may make the exchange yield no data.
//!
//! Every record carries the complete ground truth, so experiments can
//! compute both the paper's DAG-mediated "actual performance" metrics and
//! exact errors.

use crate::dag::{DagCard, FIRST_BIT_CORRECTION};
use crate::delay::PathDelay;
use crate::host::HostTimestamping;
use crate::scenario::Scenario;
use crate::server::ServerModel;
use crate::shifts::{refresh_segment, ShiftSchedule};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use tsc_osc::TscCounter;
use tscclock::RawExchange;

/// Ground truth behind one exchange (never visible to the algorithms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// True departure time from the host.
    pub ta: f64,
    /// True arrival time at the server.
    pub tb: f64,
    /// True departure time from the server.
    pub te: f64,
    /// True full-arrival time at the host NIC.
    pub tf: f64,
    /// Forward one-way delay `d→`.
    pub d_fwd: f64,
    /// Server residence `d↑`.
    pub d_srv: f64,
    /// Backward one-way delay `d←`.
    pub d_back: f64,
    /// Host oscillator time error `x(t)` at the moment of the `Tf` read.
    pub host_err_at_tf: f64,
}

impl Truth {
    /// True round-trip time `r_i = d→ + d↑ + d←` (equation (11)).
    pub fn rtt(&self) -> f64 {
        self.d_fwd + self.d_srv + self.d_back
    }
}

/// One simulated NTP exchange: the observables plus the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimExchange {
    /// Packet index.
    pub i: usize,
    /// Scheduled poll time (true seconds since scenario start).
    pub poll_time: f64,
    /// `true` when the packet (or its response) never arrived — lost,
    /// or inside an outage window. Observables are NaN/0 in that case.
    pub lost: bool,
    /// Host raw send timestamp `Ta` (TSC counts).
    pub ta_tsc: u64,
    /// Host raw receive timestamp `Tf` (TSC counts).
    pub tf_tsc: u64,
    /// Server receive timestamp `Tb` (server clock seconds).
    pub tb: f64,
    /// Server transmit timestamp `Te` (server clock seconds).
    pub te: f64,
    /// Reference (DAG, first-bit corrected) timestamp of host arrival.
    pub tg: f64,
    /// Ground truth.
    pub truth: Truth,
}

/// The owned stepping state shared by the two simulator front-ends: every
/// stochastic element and the poll schedule, but *not* the anomaly
/// schedules (level shifts, outages), which [`ExchangeStream`] borrows from
/// the scenario and [`OnDemandSim`] owns.
struct SimCore {
    counter: TscCounter,
    host: HostTimestamping,
    fwd: PathDelay,
    back: PathDelay,
    server: ServerModel,
    dag: DagCard,
    loss_prob: f64,
    poll_period: f64,
    duration: f64,
    t_next: f64,
    i: usize,
    loss_rng: ChaCha12Rng,
    /// End (exclusive) of the current anomaly segment: the anomaly
    /// schedules are piecewise-constant, so shift deltas and the outage
    /// flag are recomputed only when the poll time crosses this boundary
    /// instead of on every packet. `-inf` forces a refresh on first use.
    seg_until: f64,
    /// Whether polls in the current segment fall inside an outage window.
    seg_outage: bool,
    /// Run every sampler in its original (pre-optimization) formulation.
    #[cfg(feature = "reference")]
    reference: bool,
}

/// Everything one poll produces before the loss decision branches the
/// pipeline (see [`SimCore::poll_core`]).
struct PollCore {
    t: f64,
    i: usize,
    ta_tsc: u64,
    ta: f64,
    d_fwd: f64,
    tb: f64,
    d_srv: f64,
    te: f64,
    d_back: f64,
    tf: f64,
    lost: bool,
}

impl SimCore {
    fn new(sc: &Scenario) -> Self {
        Self::new_seeded(sc, sc.seed)
    }

    /// Like [`SimCore::new`] with the master seed overridden — the fleet
    /// path, where thousands of streams differ from a shared template
    /// only by seed and must not clone it.
    fn new_seeded(sc: &Scenario, seed: u64) -> Self {
        assert!(sc.poll_period > 0.0, "poll period must be positive");
        assert!(sc.duration > 0.0, "duration must be positive");
        let path = sc.effective_path();
        let osc = sc.environment.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut server = ServerModel::new(seed.wrapping_add(2));
        for f in &sc.server_faults {
            server.add_fault(*f);
        }
        let mut fwd = PathDelay::new(
            path.fwd_min,
            path.fwd_queue_mean,
            path.fwd_congestion,
            seed.wrapping_add(4),
        );
        let mut back = PathDelay::new(
            path.back_min,
            path.back_queue_mean,
            path.back_congestion,
            seed.wrapping_add(5),
        );
        fwd.set_cadence(sc.poll_period);
        back.set_cadence(sc.poll_period);
        Self {
            counter: TscCounter::new(sc.tsc_freq_hz, 0, osc),
            host: HostTimestamping::new(seed.wrapping_add(3)),
            fwd,
            back,
            server,
            dag: DagCard::dag32e(seed.wrapping_add(6)),
            loss_prob: sc.loss_prob,
            poll_period: sc.poll_period,
            duration: sc.duration,
            t_next: sc.poll_period, // first poll after one period
            i: 0,
            loss_rng: ChaCha12Rng::seed_from_u64(seed.wrapping_add(7)),
            seg_until: f64::NEG_INFINITY,
            seg_outage: false,
            #[cfg(feature = "reference")]
            reference: false,
        }
    }

    /// Shared per-poll pipeline up to the loss decision: schedule/segment
    /// bookkeeping, the `Ta` counter read, and the send/path/server delay
    /// draws. Both [`SimCore::step`] and [`SimCore::step_raw`] consume
    /// this, so their sampler draw order is lockstep *by construction* —
    /// the bit-identity of the raw path's observables cannot silently
    /// drift. `None` when the scenario duration is exhausted.
    #[inline]
    fn poll_core(&mut self, shifts: &ShiftSchedule, outages: &[(f64, f64)]) -> Option<PollCore> {
        if self.t_next > self.duration {
            return None;
        }
        let t = self.t_next;
        self.t_next += self.poll_period;
        let i = self.i;
        self.i += 1;

        // Route changes / outages active in this segment.
        if t >= self.seg_until {
            (self.seg_outage, self.seg_until) =
                refresh_segment(shifts, outages, t, &mut self.fwd, &mut self.back);
        }

        // Host sends: raw read first, then true departure.
        let ta_tsc = self.counter.read(t);
        let ta = t + self.host.send_latency();

        let d_fwd = self.fwd.sample_cadenced();
        let tb = ta + d_fwd;
        let d_srv = self.server.residence(tb);
        let te = tb + d_srv;
        let d_back = self.back.sample_cadenced();
        let tf = te + d_back;

        // A lost packet never reaches the server's stamping, the DAG or
        // the host receive path; the host's counter already advanced via
        // the `Ta` read and nothing else did.
        let lost = self.seg_outage || self.loss_rng.random::<f64>() < self.loss_prob;
        Some(PollCore {
            t,
            i,
            ta_tsc,
            ta,
            d_fwd,
            tb,
            d_srv,
            te,
            d_back,
            tf,
            lost,
        })
    }

    /// Shared delivered-packet observables: server stamps, host receive
    /// latency and the `Tf` counter read (everything a [`RawExchange`]
    /// carries beyond `Ta`). Returns `(Tb, Te, Tf_tsc)`.
    #[inline]
    fn deliver_observables(&mut self, tb: f64, te: f64, tf: f64) -> (f64, f64, u64) {
        let tb_stamp = self.server.stamp_rx(tb);
        let te_stamp = self.server.stamp_tx(te);
        let tf_read = tf + self.host.recv_latency();
        let tf_tsc = self.counter.read(tf_read);
        (tb_stamp, te_stamp, tf_tsc)
    }

    /// One poll against the given anomaly schedules; `None` when the
    /// scenario duration is exhausted. Allocation-free.
    fn step(&mut self, shifts: &ShiftSchedule, outages: &[(f64, f64)]) -> Option<SimExchange> {
        #[cfg(feature = "reference")]
        if self.reference {
            return self.step_reference(shifts, outages);
        }
        let core = self.poll_core(shifts, outages)?;
        if core.lost {
            return Some(SimExchange {
                i: core.i,
                poll_time: core.t,
                lost: true,
                ta_tsc: core.ta_tsc,
                tf_tsc: 0,
                tb: f64::NAN,
                te: f64::NAN,
                tg: f64::NAN,
                truth: Truth {
                    ta: core.ta,
                    tb: core.tb,
                    te: core.te,
                    tf: core.tf,
                    d_fwd: core.d_fwd,
                    d_srv: core.d_srv,
                    d_back: core.d_back,
                    host_err_at_tf: f64::NAN,
                },
            });
        }

        let (tb_stamp, te_stamp, tf_tsc) =
            self.deliver_observables(core.tb, core.te, core.tf);
        let host_err = self.counter.time_error();

        // DAG taps the wire just before the host NIC: first bit passes the
        // tap one frame-time before full arrival. (Its jitter is an
        // independent RNG stream, so sampling it after the host-side
        // observables changes nothing.)
        let tg = self.dag.timestamp_corrected(core.tf - FIRST_BIT_CORRECTION);

        Some(SimExchange {
            i: core.i,
            poll_time: core.t,
            lost: false,
            ta_tsc: core.ta_tsc,
            tf_tsc,
            tb: tb_stamp,
            te: te_stamp,
            tg,
            truth: Truth {
                ta: core.ta,
                tb: core.tb,
                te: core.te,
                tf: core.tf,
                d_fwd: core.d_fwd,
                d_srv: core.d_srv,
                d_back: core.d_back,
                host_err_at_tf: host_err,
            },
        })
    }

    /// One poll, observables only: the [`RawExchange`] a delivered packet
    /// hands to the clock, `Some(None)` for a lost packet, `None` at end
    /// of scenario. Runs the same [`SimCore::poll_core`] and
    /// [`SimCore::deliver_observables`] as the full step but *skips* the
    /// DAG reference card: its jitter lives on an independent RNG stream
    /// that nothing else reads, so the emitted observables are
    /// bit-identical to the full step's — the raw-path tests prove it.
    /// This is the fleet generation path, where no consumer looks at `Tg`
    /// or the truth.
    #[allow(clippy::option_option)]
    fn step_raw(
        &mut self,
        shifts: &ShiftSchedule,
        outages: &[(f64, f64)],
    ) -> Option<Option<RawExchange>> {
        #[cfg(feature = "reference")]
        if self.reference {
            return self.step_reference(shifts, outages).map(|e| {
                (!e.lost).then_some(RawExchange {
                    ta_tsc: e.ta_tsc,
                    tb: e.tb,
                    te: e.te,
                    tf_tsc: e.tf_tsc,
                })
            });
        }
        let core = self.poll_core(shifts, outages)?;
        if core.lost {
            return Some(None);
        }
        let (tb, te, tf_tsc) = self.deliver_observables(core.tb, core.te, core.tf);
        Some(Some(RawExchange {
            ta_tsc: core.ta_tsc,
            tb,
            te,
            tf_tsc,
        }))
    }

    /// One poll at a *caller-chosen* send time `t` — the client-driven
    /// front-end behind [`OnDemandSim`]. Uses the exact-time samplers
    /// ([`PathDelay::sample`]) because on-demand schedules are irregular
    /// (backoff, jitter), so the precomputed-cadence fast path does not
    /// apply. Returns the full record; `t` must be ≥ the previous
    /// exchange's true arrival time (enforced by the wrapper).
    fn poll_at(
        &mut self,
        t: f64,
        shifts: &ShiftSchedule,
        outages: &[(f64, f64)],
    ) -> SimExchange {
        let i = self.i;
        self.i += 1;
        if t >= self.seg_until {
            (self.seg_outage, self.seg_until) =
                refresh_segment(shifts, outages, t, &mut self.fwd, &mut self.back);
        }
        let ta_tsc = self.counter.read(t);
        let ta = t + self.host.send_latency();
        let d_fwd = self.fwd.sample(ta);
        let tb = ta + d_fwd;
        let d_srv = self.server.residence(tb);
        let te = tb + d_srv;
        let d_back = self.back.sample(te);
        let tf = te + d_back;
        let lost = self.seg_outage || self.loss_rng.random::<f64>() < self.loss_prob;
        if lost {
            return SimExchange {
                i,
                poll_time: t,
                lost: true,
                ta_tsc,
                tf_tsc: 0,
                tb: f64::NAN,
                te: f64::NAN,
                tg: f64::NAN,
                truth: Truth {
                    ta,
                    tb,
                    te,
                    tf,
                    d_fwd,
                    d_srv,
                    d_back,
                    host_err_at_tf: f64::NAN,
                },
            };
        }
        let (tb_stamp, te_stamp, tf_tsc) = self.deliver_observables(tb, te, tf);
        let host_err = self.counter.time_error();
        let tg = self.dag.timestamp_corrected(tf - FIRST_BIT_CORRECTION);
        SimExchange {
            i,
            poll_time: t,
            lost: false,
            ta_tsc,
            tf_tsc,
            tb: tb_stamp,
            te: te_stamp,
            tg,
            truth: Truth {
                ta,
                tb,
                te,
                tf,
                d_fwd,
                d_srv,
                d_back,
                host_err_at_tf: host_err,
            },
        }
    }

    /// Runs up to `max` polls, appending the records to `out`; returns how
    /// many were produced (fewer only when the duration ran out). Output is
    /// bit-identical to `max` calls of [`SimCore::step`] — the batch only
    /// amortizes the per-call dispatch; all per-packet state (anomaly
    /// segment cache, cadenced burst chains) is shared with the stepwise
    /// path, so any interleaving of `step` and `step_batch` agrees.
    fn step_batch(
        &mut self,
        shifts: &ShiftSchedule,
        outages: &[(f64, f64)],
        max: usize,
        out: &mut Vec<SimExchange>,
    ) -> usize {
        let remaining = if self.t_next > self.duration {
            0
        } else {
            ((self.duration - self.t_next) / self.poll_period) as usize + 1
        };
        out.reserve(max.min(remaining));
        let mut n = 0;
        while n < max {
            match self.step(shifts, outages) {
                Some(e) => {
                    out.push(e);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// The pre-optimization pipeline, end to end: per-packet schedule
    /// scans, exact-time burst evolution, draw-per-call Box-Muller
    /// samplers, and the reference oscillator stepping — bit-identical to
    /// the original implementation for the same scenario and seed.
    #[cfg(feature = "reference")]
    fn new_reference(sc: &Scenario, seed: u64) -> Self {
        let osc = sc
            .environment
            .build_reference(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut core = Self::new_seeded(sc, seed);
        core.counter = TscCounter::new(sc.tsc_freq_hz, 0, osc);
        core.reference = true;
        core
    }

    /// Original [`SimCore::step`]: the exact formulation at the time the
    /// generation fast path was introduced.
    #[cfg(feature = "reference")]
    fn step_reference(
        &mut self,
        shifts: &ShiftSchedule,
        outages: &[(f64, f64)],
    ) -> Option<SimExchange> {
        if self.t_next > self.duration {
            return None;
        }
        let t = self.t_next;
        self.t_next += self.poll_period;
        let i = self.i;
        self.i += 1;

        // Route changes active at this instant.
        let (df, db) = shifts.deltas_at(t);
        self.fwd.set_shift(df);
        self.back.set_shift(db);

        // Host sends: raw read first, then true departure.
        let ta_tsc = self.counter.read(t);
        let ta = t + self.host.send_latency_reference();

        let d_fwd = self.fwd.sample_reference(ta);
        let tb = ta + d_fwd;
        let d_srv = self.server.residence(tb);
        let te = tb + d_srv;
        let d_back = self.back.sample_reference(te);
        let tf = te + d_back;

        let lost = outages.iter().any(|&(a, b)| t >= a && t < b)
            || self.loss_rng.random::<f64>() < self.loss_prob;
        if lost {
            return Some(SimExchange {
                i,
                poll_time: t,
                lost: true,
                ta_tsc,
                tf_tsc: 0,
                tb: f64::NAN,
                te: f64::NAN,
                tg: f64::NAN,
                truth: Truth {
                    ta,
                    tb,
                    te,
                    tf,
                    d_fwd,
                    d_srv,
                    d_back,
                    host_err_at_tf: f64::NAN,
                },
            });
        }

        let tb_stamp = self.server.stamp_rx_reference(tb);
        let te_stamp = self.server.stamp_tx_reference(te);

        let tg = self.dag.timestamp_corrected(tf - FIRST_BIT_CORRECTION);

        let tf_read = tf + self.host.recv_latency_reference();
        let tf_tsc = self.counter.read(tf_read);
        let host_err = self.counter.time_error();

        Some(SimExchange {
            i,
            poll_time: t,
            lost: false,
            ta_tsc,
            tf_tsc,
            tb: tb_stamp,
            te: te_stamp,
            tg,
            truth: Truth {
                ta,
                tb,
                te,
                tf,
                d_fwd,
                d_srv,
                d_back,
                host_err_at_tf: host_err,
            },
        })
    }
}

/// The fixed-cadence simulator; see the module docs for the event
/// pipeline. The anomaly schedules are read straight out of the scenario —
/// no per-stream clones, no allocations in steady-state stepping — so
/// thousands of streams can be built against shared scenario templates
/// (fleet replay) without generation bottlenecking the consumers.
pub struct ExchangeStream<'a> {
    core: SimCore,
    scenario: &'a Scenario,
}

impl<'a> ExchangeStream<'a> {
    /// Builds a stream borrowing `sc`'s schedules.
    pub fn new(sc: &'a Scenario) -> Self {
        Self {
            core: SimCore::new(sc),
            scenario: sc,
        }
    }

    /// Builds the pre-optimization stream: every sampler and the
    /// oscillator run their original formulation. The differential tests
    /// compare its traces against the fast path statistically.
    #[cfg(feature = "reference")]
    pub(crate) fn new_reference(sc: &'a Scenario) -> Self {
        Self {
            core: SimCore::new_reference(sc, sc.seed),
            scenario: sc,
        }
    }

    /// Builds a stream for `sc` with its master seed replaced by `seed` —
    /// equivalent to (but cheaper than) cloning the scenario with a new
    /// seed: nothing is copied, so a fleet can fan thousands of distinct
    /// streams out of one shared template.
    pub fn with_seed(sc: &'a Scenario, seed: u64) -> Self {
        Self {
            core: SimCore::new_seeded(sc, seed),
            scenario: sc,
        }
    }

    /// Runs one poll; `None` when the scenario duration is exhausted.
    pub fn step(&mut self) -> Option<SimExchange> {
        self.core
            .step(&self.scenario.shifts, &self.scenario.outages)
    }

    /// Runs up to `max` polls, appending to `out`; returns the count
    /// produced. Bit-identical to calling [`ExchangeStream::step`] `max`
    /// times — the batch amortizes per-call dispatch, nothing else.
    pub fn next_batch(&mut self, out: &mut Vec<SimExchange>, max: usize) -> usize {
        self.core
            .step_batch(&self.scenario.shifts, &self.scenario.outages, max, out)
    }

    /// Nominal TSC frequency of the simulated host.
    pub fn tsc_freq_hz(&self) -> f64 {
        self.core.counter.freq_hz()
    }

    /// Adapts the stream to yield only the observables of *delivered*
    /// exchanges — the [`RawExchange`]s a real client would hand to the
    /// clock — skipping lost packets.
    pub fn raw(self) -> RawExchanges<'a> {
        RawExchanges { inner: self }
    }
}

impl Iterator for ExchangeStream<'_> {
    type Item = SimExchange;
    fn next(&mut self) -> Option<SimExchange> {
        self.step()
    }
}

/// See [`ExchangeStream::raw`].
pub struct RawExchanges<'a> {
    inner: ExchangeStream<'a>,
}

impl RawExchanges<'_> {
    /// Appends up to `max` *delivered* exchanges to `buf`, skipping lost
    /// packets; returns the count produced (fewer only at end of
    /// scenario). The fleet ingest path: one call fills a whole
    /// `process_batch` buffer without per-item iterator dispatch, on the
    /// observables-only step (no DAG sampling, no truth record).
    pub fn fill_batch(&mut self, buf: &mut Vec<RawExchange>, max: usize) -> usize {
        let sc = self.inner.scenario;
        let mut n = 0;
        while n < max {
            match self.inner.core.step_raw(&sc.shifts, &sc.outages) {
                Some(Some(r)) => {
                    buf.push(r);
                    n += 1;
                }
                Some(None) => {}
                None => break,
            }
        }
        n
    }
}

impl Iterator for RawExchanges<'_> {
    type Item = RawExchange;
    fn next(&mut self) -> Option<RawExchange> {
        let sc = self.inner.scenario;
        loop {
            match self.inner.core.step_raw(&sc.shifts, &sc.outages)? {
                Some(r) => return Some(r),
                None => continue,
            }
        }
    }
}

/// A client-driven simulator: the caller picks every send time, as a real
/// client with its own sync cadence, retry backoff and failure cooldown
/// does — the measurement substrate of the fleet lifecycle layer.
///
/// Unlike [`ExchangeStream`] there is no fixed poll grid and no
/// duration cutoff (the caller owns the horizon). The stochastic state is
/// the same [`SimCore`], so loss, outages, level shifts, server faults
/// and the oscillator all behave identically; the path queueing uses the
/// exact-time samplers since the schedule is irregular.
///
/// # Determinism
///
/// Every draw is consumed in call order, so the exchange stream is a pure
/// function of `(scenario, seed, sequence of requested send times)`. A
/// deterministic client schedule therefore yields a bit-reproducible
/// trace — the property the fleet population parity tests pin.
///
/// Send times must be non-decreasing and past the previous exchange's
/// true arrival; [`OnDemandSim::exchange_at`] clamps to
/// [`OnDemandSim::earliest_next`] (a client cannot transmit a new request
/// while the previous response is still in flight — and the underlying
/// counter and path states are monotone in time).
pub struct OnDemandSim {
    core: SimCore,
    shifts: ShiftSchedule,
    outages: Vec<(f64, f64)>,
    duration: f64,
    /// Earliest admissible next send time (previous true arrival).
    t_floor: f64,
}

impl OnDemandSim {
    /// Builds the simulator from a scenario (its `poll_period` is unused;
    /// the caller schedules).
    pub fn new(sc: &Scenario) -> Self {
        Self::with_seed(sc, sc.seed)
    }

    /// Like [`OnDemandSim::new`] with the master seed overridden.
    pub fn with_seed(sc: &Scenario, seed: u64) -> Self {
        Self {
            core: SimCore::new_seeded(sc, seed),
            shifts: sc.shifts.clone(),
            outages: sc.outages.clone(),
            duration: sc.duration,
            t_floor: 0.0,
        }
    }

    /// One exchange with the request sent at true time `t` (clamped to
    /// [`OnDemandSim::earliest_next`]). A `lost` record means the client
    /// will learn nothing until its own timeout fires.
    pub fn exchange_at(&mut self, t: f64) -> SimExchange {
        let t = t.max(self.t_floor);
        let e = self.core.poll_at(t, &self.shifts, &self.outages);
        // Even a lost packet's delay draws happened (the frame travelled
        // until it was dropped); the path/counter clocks sit at tf.
        self.t_floor = e.truth.tf + 1e-9;
        e
    }

    /// Earliest send time the next exchange may use.
    pub fn earliest_next(&self) -> f64 {
        self.t_floor
    }

    /// The scenario duration this simulator was built from (a convenience
    /// horizon for replay drivers; nothing enforces it).
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Nominal TSC frequency of the simulated host.
    pub fn tsc_freq_hz(&self) -> f64 {
        self.core.counter.freq_hz()
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, ServerKind};
    use crate::server::ServerFault;
    use crate::shifts::LevelShift;

    fn short_scenario(seed: u64) -> Scenario {
        Scenario::baseline(seed).with_duration(4.0 * 3600.0)
    }

    #[test]
    fn produces_expected_packet_count() {
        let sc = short_scenario(1);
        let ex = sc.run();
        let expect = (sc.duration / sc.poll_period) as usize;
        assert!(ex.len() == expect, "{} vs {expect}", ex.len());
    }

    #[test]
    fn event_times_are_causally_ordered() {
        for e in short_scenario(2).run().iter().filter(|e| !e.lost) {
            let t = &e.truth;
            assert!(t.ta < t.tb && t.tb < t.te && t.te < t.tf, "ordering at {}", e.i);
            // server stamps never precede the events
            assert!(e.tb >= t.tb);
            assert!(e.te >= t.te);
            // TSC reads bracket the true interval: Ta read before departure,
            // Tf read after arrival.
            assert!(e.tf_tsc > e.ta_tsc);
        }
    }

    #[test]
    fn rtt_matches_table2_minimum() {
        let ex = short_scenario(3).run();
        let p = 1e-9; // nominal period of the 1 GHz counter
        let min_rtt = ex
            .iter()
            .filter(|e| !e.lost)
            .map(|e| (e.tf_tsc - e.ta_tsc) as f64 * p)
            .fold(f64::INFINITY, f64::min);
        let expect = ServerKind::Int.facts().rtt;
        // minimum observed RTT should be within ~60 µs above the true
        // minimum (host latencies add a few µs; skew adds ~50 PPM)
        assert!(
            min_rtt > expect && min_rtt < expect + 100e-6,
            "min rtt {min_rtt} vs {expect}"
        );
    }

    #[test]
    fn dag_reference_tracks_truth() {
        for e in short_scenario(4).run().iter().filter(|e| !e.lost) {
            assert!(
                (e.tg - e.truth.tf).abs() < 1e-6,
                "DAG ref must track truth to µs: {}",
                e.tg - e.truth.tf
            );
        }
    }

    #[test]
    fn loss_probability_is_respected() {
        let sc = Scenario {
            loss_prob: 0.1,
            ..short_scenario(5)
        }
        .with_duration(16.0 * 20_000.0);
        let ex = sc.run();
        let lost = ex.iter().filter(|e| e.lost).count() as f64 / ex.len() as f64;
        assert!((lost - 0.1).abs() < 0.02, "loss rate {lost}");
    }

    #[test]
    fn outage_window_loses_everything_inside() {
        let sc = short_scenario(6).with_outage(3600.0, 7200.0);
        for e in sc.run() {
            if e.poll_time >= 3600.0 && e.poll_time < 7200.0 {
                assert!(e.lost, "packet inside outage must be lost");
            }
        }
    }

    #[test]
    fn server_fault_offsets_stamps() {
        let sc = short_scenario(7).with_server_fault(ServerFault {
            start: 3600.0,
            end: 3900.0,
            offset: 0.150,
        });
        let ex = sc.run();
        let in_fault: Vec<_> = ex
            .iter()
            .filter(|e| !e.lost && e.poll_time >= 3600.0 && e.poll_time < 3890.0)
            .collect();
        assert!(!in_fault.is_empty());
        for e in in_fault {
            assert!(
                e.tb - e.truth.tb > 0.149,
                "fault must offset Tb: {}",
                e.tb - e.truth.tb
            );
        }
    }

    #[test]
    fn level_shift_raises_min_rtt() {
        let p = 1e-9;
        let sc = short_scenario(8).with_shift(LevelShift::forward_only(7200.0, None, 0.9e-3));
        let ex = sc.run();
        let min_rtt = |lo: f64, hi: f64| {
            ex.iter()
                .filter(|e| !e.lost && e.poll_time >= lo && e.poll_time < hi)
                .map(|e| (e.tf_tsc - e.ta_tsc) as f64 * p)
                .fold(f64::INFINITY, f64::min)
        };
        let before = min_rtt(0.0, 7200.0);
        let after = min_rtt(7200.0, 14_400.0);
        assert!(
            (after - before - 0.9e-3).abs() < 100e-6,
            "shift not visible: before {before}, after {after}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = short_scenario(9).run();
        let b = short_scenario(9).run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn seed_override_stream_equals_reseeded_scenario() {
        // loss-free so delivered records are NaN-free and directly
        // comparable
        let template = Scenario {
            loss_prob: 0.0,
            ..short_scenario(20)
        };
        for seed in [0u64, 21, u64::MAX] {
            let reseeded: Vec<_> = Scenario { seed, ..template.clone() }.stream().collect();
            let overridden: Vec<_> = template.stream_with_seed(seed).collect();
            assert_eq!(reseeded.len(), overridden.len());
            for (x, y) in reseeded.iter().zip(&overridden) {
                assert_eq!(x, y, "seed {seed} diverged at packet {}", x.i);
            }
        }
    }

    #[test]
    fn raw_adapter_skips_lost_and_keeps_observables() {
        let sc = crate::scenario::Scenario {
            loss_prob: 0.05,
            ..short_scenario(14)
        };
        let all: Vec<_> = sc.stream().collect();
        let raw: Vec<_> = sc.stream().raw().collect();
        let delivered: Vec<_> = all.iter().filter(|e| !e.lost).collect();
        assert_eq!(raw.len(), delivered.len());
        assert!(raw.len() < all.len(), "some packets must have been lost");
        for (r, e) in raw.iter().zip(&delivered) {
            assert_eq!(r.ta_tsc, e.ta_tsc);
            assert_eq!(r.tf_tsc, e.tf_tsc);
            assert_eq!(r.tb, e.tb);
            assert_eq!(r.te, e.te);
        }
    }

    #[test]
    fn batched_stepping_matches_stepwise_bit_for_bit() {
        // step_batch must be pure dispatch amortization: any chunking —
        // including chunk boundaries landing inside anomaly segments —
        // yields the records a step() loop yields.
        let sc = short_scenario(15)
            .with_outage(3600.0, 4000.0)
            .with_shift(LevelShift::forward_only(7200.0, Some(9000.0), 0.9e-3));
        let stepwise: Vec<_> = sc.stream().collect();
        for chunk in [1usize, 7, 64, 4096, usize::MAX] {
            let mut stream = sc.stream();
            let mut batched = Vec::new();
            while stream.next_batch(&mut batched, chunk.min(8192)) > 0 {}
            assert_eq!(stepwise.len(), batched.len(), "chunk {chunk}");
            for (x, y) in stepwise.iter().zip(&batched) {
                assert!(
                    x.i == y.i
                        && x.lost == y.lost
                        && x.ta_tsc == y.ta_tsc
                        && x.tf_tsc == y.tf_tsc
                        && x.tb.to_bits() == y.tb.to_bits()
                        && x.te.to_bits() == y.te.to_bits()
                        && x.tg.to_bits() == y.tg.to_bits(),
                    "chunk {chunk}: divergence at packet {}",
                    x.i
                );
            }
        }
    }

    #[test]
    fn raw_fill_batch_matches_iterator() {
        let sc = crate::scenario::Scenario {
            loss_prob: 0.05,
            ..short_scenario(16)
        };
        let via_iter: Vec<_> = sc.stream().raw().collect();
        let mut via_fill = Vec::new();
        let mut raw = sc.stream().raw();
        while raw.fill_batch(&mut via_fill, 100) > 0 {}
        assert_eq!(via_iter.len(), via_fill.len());
        for (x, y) in via_iter.iter().zip(&via_fill) {
            assert_eq!((x.ta_tsc, x.tf_tsc), (y.ta_tsc, y.tf_tsc));
            assert_eq!(x.tb.to_bits(), y.tb.to_bits());
            assert_eq!(x.te.to_bits(), y.te.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = short_scenario(10).run();
        let b = short_scenario(11).run();
        assert!(a.iter().zip(&b).any(|(x, y)| x != y));
    }

    #[test]
    fn on_demand_is_deterministic_and_causal() {
        let sc = short_scenario(30);
        let schedule: Vec<f64> = (1..200).map(|i| i as f64 * 16.0).collect();
        let run = |sc: &Scenario| {
            let mut sim = crate::sim::OnDemandSim::new(sc);
            schedule.iter().map(|&t| sim.exchange_at(t)).collect::<Vec<_>>()
        };
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a, b, "same schedule, same seed ⇒ bit-identical trace");
        for e in a.iter().filter(|e| !e.lost) {
            let t = &e.truth;
            assert!(t.ta < t.tb && t.tb < t.te && t.te < t.tf);
            assert!(e.tf_tsc > e.ta_tsc);
        }
        // irregular schedules work too, and respect the in-flight floor
        let mut sim = crate::sim::OnDemandSim::new(&sc);
        let first = sim.exchange_at(16.0);
        let second = sim.exchange_at(0.0); // before the response: clamped
        assert!(second.poll_time >= first.truth.tf, "in-flight clamp");
    }

    #[test]
    fn on_demand_respects_outages_and_shifts() {
        let sc = short_scenario(31)
            .with_outage(1000.0, 2000.0)
            .with_shift(LevelShift::forward_only(3000.0, None, 0.9e-3));
        let mut sim = crate::sim::OnDemandSim::new(&sc);
        let inside = sim.exchange_at(1500.0);
        assert!(inside.lost, "requests inside the outage are lost");
        let before_min = sc.effective_path().fwd_min;
        let after = sim.exchange_at(3500.0);
        assert!(
            after.truth.d_fwd >= before_min + 0.9e-3,
            "shift applies to on-demand paths"
        );
    }

    #[test]
    fn on_demand_profile_changes_path() {
        let sc = short_scenario(32).with_profile(crate::PathProfile::Satellite);
        let mut sim = crate::sim::OnDemandSim::new(&sc);
        let e = sim.exchange_at(100.0);
        assert!(!e.lost || e.truth.rtt() > 0.5);
        assert!(e.truth.rtt() > 0.5, "satellite floor must dominate");
    }

    /// Regression (PR 4 note): an asymmetric step whose negative leg
    /// exceeds the backward minimum is *half-applied* — the PathDelay
    /// floor clamps the backward leg at zero and the "RTT-silent" fault
    /// leaks into the RTT. Pin the clamped floor value and the leak so a
    /// future preset cannot ship this silently.
    #[test]
    fn asymmetric_clamp_on_short_path_leaks_into_rtt_and_is_pinned() {
        // ServerLoc's backward minimum ≈ (0.38 ms − 12 µs − 50 µs)/2 =
        // 159 µs; delta/2 = 1 ms swamps it.
        let delta = 2e-3;
        let (_, back_min) = ServerKind::Loc.min_delays();
        assert!(back_min < delta / 2.0, "premise: the short path clamps");
        let sc = Scenario {
            loss_prob: 0.0,
            ..short_scenario(33)
        }
        .with_server(ServerKind::Loc)
        .with_shift(LevelShift::asymmetric(7200.0, None, delta));

        // the warning path fires, naming the clamped leg
        let warnings = sc.clamp_warnings();
        assert_eq!(warnings.len(), 1, "exactly the backward leg: {warnings:?}");
        assert!(warnings[0].contains("backward"), "{}", warnings[0]);

        // pin the clamped value: the backward minimum floors at exactly 0
        let mut back = crate::PathDelay::new(
            back_min,
            1e-6,
            crate::CongestionParams::light(),
            1,
        );
        back.set_shift(-delta / 2.0);
        assert_eq!(back.current_min(), 0.0, "floor pins at zero");
        assert!(
            (back.shift_clamped_by() - (delta / 2.0 - back_min)).abs() < 1e-15,
            "clamp deficit is the RTT leak: {}",
            back.shift_clamped_by()
        );

        // and the leak is visible in the simulated RTT: the minimum RTT
        // rises by delta/2 − back_min (fwd +1 ms, back −159 µs only)
        let ex = sc.run();
        let p = 1e-9;
        let min_rtt = |lo: f64, hi: f64| {
            ex.iter()
                .filter(|e| !e.lost && e.poll_time >= lo && e.poll_time < hi)
                .map(|e| (e.tf_tsc - e.ta_tsc) as f64 * p)
                .fold(f64::INFINITY, f64::min)
        };
        let leak = delta / 2.0 - back_min;
        let (before, after) = (min_rtt(0.0, 7200.0), min_rtt(7200.0, 14_400.0));
        assert!(
            (after - before - leak).abs() < 60e-6,
            "half-applied fault must leak {leak} into the RTT: before \
             {before}, after {after}"
        );

        // a path long enough for the negative leg stays warning-free and
        // RTT-silent — the clean preset contract
        let clean = Scenario {
            loss_prob: 0.0,
            ..short_scenario(34)
        }
        .with_server(ServerKind::Ext)
        .with_shift(LevelShift::asymmetric(7200.0, None, delta));
        assert!(clean.clamp_warnings().is_empty());
    }

    #[test]
    fn multi_server_clamp_warnings_flag_short_path_presets() {
        let delta = 2e-3;
        let mut sc = crate::MultiServerScenario::baseline(2, 40);
        sc.servers[1] = crate::ServerPath::new(ServerKind::Loc)
            .with_shift(LevelShift::asymmetric(7200.0, None, delta));
        let warnings = sc.clamp_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("server 1"), "{}", warnings[0]);
        // the paper testbed presets are clean
        assert!(crate::MultiServerScenario::paper_testbed(1)
            .clamp_warnings()
            .is_empty());
    }

    #[test]
    fn host_error_truth_is_recorded() {
        let ex = short_scenario(12).run();
        let last = ex.iter().rev().find(|e| !e.lost).unwrap();
        // machine-room skew 52.4 PPM over ~4 h ≈ 0.75 s of accumulated error
        let expect = 52.4e-6 * last.truth.tf;
        assert!(
            (last.truth.host_err_at_tf - expect).abs() < 0.05 * expect,
            "host error truth {} vs ~{expect}",
            last.truth.host_err_at_tf
        );
    }
}
