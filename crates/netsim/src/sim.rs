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
//! Steps 2–5 are one server path's business: `PathState` holds a path's
//! seeded state and runs its departure sequence and stamp pair for all
//! three front ends — the fixed-cadence [`ExchangeStream`], the
//! client-driven [`OnDemandSim`] and the K-server
//! [`crate::MultiServerStream`] — which differ only in the delay draw
//! (cadenced or exact-time) and the shared-bottleneck excess they pass in.
//!
//! Every record carries the complete ground truth, so experiments can
//! compute both the paper's DAG-mediated "actual performance" metrics and
//! exact errors.

use crate::dag::{DagCard, FIRST_BIT_CORRECTION};
use crate::delay::PathDelay;
use crate::host::{seeded_host, HostTimestamping};
use crate::scenario::{Scenario, ServerPath};
use crate::server::ServerModel;
use crate::shifts::refresh_segment;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use tsc_osc::{Environment, Oscillator, TscCounter};
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

/// The seeded state of one server path: both delay chains, the server
/// model, the loss stream and the anomaly-segment cache. The schedules
/// themselves stay in the [`ServerPath`] it was built from, which every
/// call borrows.
pub(crate) struct PathState {
    fwd: PathDelay,
    back: PathDelay,
    server: ServerModel,
    loss_rng: ChaCha12Rng,
    /// End (exclusive) of the current anomaly segment: the anomaly
    /// schedules are piecewise-constant, so shift deltas and the outage
    /// flag are recomputed (by [`refresh_segment`]) only when the poll time
    /// crosses this boundary instead of on every packet. `-inf` forces a
    /// refresh on first use.
    seg_until: f64,
    /// Whether polls in the current segment fall inside an outage window.
    seg_outage: bool,
}

impl PathState {
    /// Builds `path`'s state from the base seed `base`: server model
    /// `base + 2`, forward path `base + 4`, backward path `base + 5`, loss
    /// `base + 7` (wrapping), both delay chains on the poll cadence.
    pub(crate) fn new(path: &ServerPath, base: u64, cadence: f64) -> Self {
        let p = path.effective_params();
        let mut server = ServerModel::new(base.wrapping_add(2));
        for f in &path.faults {
            server.add_fault(*f);
        }
        let mut fwd = PathDelay::new(
            p.fwd_min,
            p.fwd_queue_mean,
            p.fwd_congestion,
            base.wrapping_add(4),
        );
        let mut back = PathDelay::new(
            p.back_min,
            p.back_queue_mean,
            p.back_congestion,
            base.wrapping_add(5),
        );
        fwd.set_cadence(cadence);
        back.set_cadence(cadence);
        Self {
            fwd,
            back,
            server,
            loss_rng: ChaCha12Rng::seed_from_u64(base.wrapping_add(7)),
            seg_until: f64::NEG_INFINITY,
            seg_outage: false,
        }
    }

    /// The departure sequence of a poll sent at `t` whose frame leaves the
    /// host at `ta`: segment refresh, forward draw, residence, backward
    /// draw, then the loss decision. `draw` is the delay chains' front end
    /// (cadenced or exact-time, given the entry time) and `excess` the
    /// shared-bottleneck `(d→, d←)` additions. Returns the truth (host
    /// error unset) and whether the packet is lost: inside an outage the
    /// loss stream is not drawn, and a lost packet never reaches the
    /// server's stamping.
    #[inline]
    pub(crate) fn depart(
        &mut self,
        path: &ServerPath,
        t: f64,
        ta: f64,
        draw: impl Fn(&mut PathDelay, f64) -> f64,
        excess: (f64, f64),
    ) -> (Truth, bool) {
        if t >= self.seg_until {
            (self.seg_outage, self.seg_until) = refresh_segment(
                &path.shifts,
                &path.outages,
                t,
                &mut self.fwd,
                &mut self.back,
            );
        }
        let d_fwd = draw(&mut self.fwd, ta) + excess.0;
        let tb = ta + d_fwd;
        let d_srv = self.server.residence(tb);
        let te = tb + d_srv;
        let d_back = draw(&mut self.back, te) + excess.1;
        let tf = te + d_back;
        let lost = self.seg_outage || self.loss_rng.random::<f64>() < path.loss_prob;
        let truth = Truth {
            ta,
            tb,
            te,
            tf,
            d_fwd,
            d_srv,
            d_back,
            host_err_at_tf: f64::NAN,
        };
        (truth, lost)
    }

    /// The server's stamp pair `(Tb, Te)` of a delivered packet.
    #[inline]
    pub(crate) fn stamps(&mut self, tb: f64, te: f64) -> (f64, f64) {
        (self.server.stamp_rx(tb), self.server.stamp_tx(te))
    }
}

/// The fixed-cadence front ends' delay draw: one precomputed chain tick.
pub(crate) fn cadenced(path: &mut PathDelay, _: f64) -> f64 {
    path.sample_cadenced()
}

/// The stepping state of the single-server front ends: the host, the one
/// path's state, the DAG card and the poll schedule — but *not* the
/// path's schedules, which [`ExchangeStream`] borrows from the scenario
/// and [`OnDemandSim`] owns.
struct SimCore {
    counter: TscCounter,
    host: HostTimestamping,
    path: PathState,
    dag: DagCard,
    poll_period: f64,
    duration: f64,
    t_next: f64,
    i: usize,
    /// Run every sampler in its original (pre-optimization) formulation.
    #[cfg(feature = "reference")]
    reference: bool,
}

impl SimCore {
    /// Builds the core for `sc` with master seed `seed` — the fleet path
    /// overrides the seed, since thousands of streams differ from a shared
    /// template only by seed and must not clone it. `build` is the
    /// oscillator formulation.
    fn new(sc: &Scenario, seed: u64, build: fn(Environment, u64) -> Oscillator) -> Self {
        assert!(sc.poll_period > 0.0, "poll period must be positive");
        assert!(sc.duration > 0.0, "duration must be positive");
        let (counter, host) = seeded_host(sc.environment, sc.tsc_freq_hz, seed, build);
        Self {
            counter,
            host,
            path: PathState::new(&sc.path, seed, sc.poll_period),
            dag: DagCard::dag32e(seed.wrapping_add(6)),
            poll_period: sc.poll_period,
            duration: sc.duration,
            t_next: sc.poll_period, // first poll after one period
            i: 0,
            #[cfg(feature = "reference")]
            reference: false,
        }
    }

    /// Next point of the poll grid `(i, t)`; `None` once the scenario
    /// duration is exhausted.
    #[inline]
    fn next_poll(&mut self) -> Option<(usize, f64)> {
        if self.t_next > self.duration {
            return None;
        }
        let t = self.t_next;
        self.t_next += self.poll_period;
        let i = self.i;
        self.i += 1;
        Some((i, t))
    }

    /// A poll sent at `t` up to the loss decision: the `Ta` read, the send
    /// latency and the path's departure sequence. The full, raw and
    /// on-demand steps all run this, so their draw order is lockstep by
    /// construction.
    #[inline]
    fn send(
        &mut self,
        path: &ServerPath,
        t: f64,
        draw: impl Fn(&mut PathDelay, f64) -> f64,
    ) -> (u64, Truth, bool) {
        let ta_tsc = self.counter.read(t);
        let ta = t + self.host.send_latency();
        let (truth, lost) = self.path.depart(path, t, ta, draw, (0.0, 0.0));
        (ta_tsc, truth, lost)
    }

    /// A delivered packet's observables beyond `Ta`: the server stamps and
    /// the `Tf` read after the host's receive latency. Returns
    /// `(Tb, Te, Tf_tsc)`.
    #[inline]
    fn deliver(&mut self, truth: &Truth) -> (f64, f64, u64) {
        let (tb, te) = self.path.stamps(truth.tb, truth.te);
        let tf_tsc = self.counter.read(truth.tf + self.host.recv_latency());
        (tb, te, tf_tsc)
    }

    /// The full record of a poll whose send side is done. A lost packet's
    /// observables are NaN/0; a delivered one adds the host error and the
    /// DAG's `Tg`, which taps the wire one frame-time before full arrival
    /// (its jitter is an independent RNG stream, so drawing it after the
    /// host-side observables changes nothing).
    #[inline]
    fn record(&mut self, i: usize, t: f64, ta_tsc: u64, truth: Truth, lost: bool) -> SimExchange {
        let mut e = SimExchange {
            i,
            poll_time: t,
            lost,
            ta_tsc,
            tf_tsc: 0,
            tb: f64::NAN,
            te: f64::NAN,
            tg: f64::NAN,
            truth,
        };
        if !lost {
            (e.tb, e.te, e.tf_tsc) = self.deliver(&truth);
            e.truth.host_err_at_tf = self.counter.time_error();
            e.tg = self
                .dag
                .timestamp_corrected(truth.tf - FIRST_BIT_CORRECTION);
        }
        e
    }

    /// One grid poll; `None` when the scenario duration is exhausted.
    /// Allocation-free.
    fn step(&mut self, path: &ServerPath) -> Option<SimExchange> {
        #[cfg(feature = "reference")]
        if self.reference {
            return self.step_reference(path);
        }
        let (i, t) = self.next_poll()?;
        let (ta_tsc, truth, lost) = self.send(path, t, cadenced);
        Some(self.record(i, t, ta_tsc, truth, lost))
    }

    /// One grid poll, observables only: the [`RawExchange`] a delivered
    /// packet hands to the clock, `Some(None)` for a lost packet, `None` at
    /// end of scenario. Runs the same [`SimCore::send`] and
    /// [`SimCore::deliver`] as the full step but *skips* the DAG reference
    /// card: its jitter lives on an independent RNG stream that nothing
    /// else reads, so the emitted observables are bit-identical to the full
    /// step's — the raw-path tests prove it. This is the fleet generation
    /// path, where no consumer looks at `Tg` or the truth.
    #[allow(clippy::option_option)]
    #[inline]
    fn step_raw(&mut self, path: &ServerPath) -> Option<Option<RawExchange>> {
        #[cfg(feature = "reference")]
        if self.reference {
            return self.step_reference(path).map(|e| {
                (!e.lost).then_some(RawExchange {
                    ta_tsc: e.ta_tsc,
                    tb: e.tb,
                    te: e.te,
                    tf_tsc: e.tf_tsc,
                })
            });
        }
        let (_, t) = self.next_poll()?;
        let (ta_tsc, truth, lost) = self.send(path, t, cadenced);
        if lost {
            return Some(None);
        }
        let (tb, te, tf_tsc) = self.deliver(&truth);
        Some(Some(RawExchange {
            ta_tsc,
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
    fn poll_at(&mut self, t: f64, path: &ServerPath) -> SimExchange {
        let i = self.i;
        self.i += 1;
        let (ta_tsc, truth, lost) = self.send(path, t, PathDelay::sample);
        self.record(i, t, ta_tsc, truth, lost)
    }

    /// The pre-optimization pipeline, end to end: per-packet schedule
    /// scans, exact-time burst evolution, draw-per-call Box-Muller
    /// samplers, and the reference oscillator stepping — bit-identical to
    /// the original implementation for the same scenario and seed.
    #[cfg(feature = "reference")]
    fn new_reference(sc: &Scenario, seed: u64) -> Self {
        Self {
            reference: true,
            ..Self::new(sc, seed, Environment::build_reference)
        }
    }

    /// Original [`SimCore::step`]: the exact formulation at the time the
    /// generation fast path was introduced.
    #[cfg(feature = "reference")]
    fn step_reference(&mut self, path: &ServerPath) -> Option<SimExchange> {
        let (i, t) = self.next_poll()?;
        let s = &mut self.path;

        // Route changes active at this instant.
        let (df, db) = path.shifts.deltas_at(t);
        s.fwd.set_shift(df);
        s.back.set_shift(db);

        // Host sends: raw read first, then true departure.
        let ta_tsc = self.counter.read(t);
        let ta = t + self.host.send_latency_reference();

        let d_fwd = s.fwd.sample_reference(ta);
        let tb = ta + d_fwd;
        let d_srv = s.server.residence(tb);
        let te = tb + d_srv;
        let d_back = s.back.sample_reference(te);
        let tf = te + d_back;

        let lost = path.outages.iter().any(|&(a, b)| t >= a && t < b)
            || s.loss_rng.random::<f64>() < path.loss_prob;
        let mut e = SimExchange {
            i,
            poll_time: t,
            lost,
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
        if !lost {
            e.tb = s.server.stamp_rx_reference(tb);
            e.te = s.server.stamp_tx_reference(te);
            e.tg = self.dag.timestamp_corrected(tf - FIRST_BIT_CORRECTION);
            e.tf_tsc = self.counter.read(tf + self.host.recv_latency_reference());
            e.truth.host_err_at_tf = self.counter.time_error();
        }
        Some(e)
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
        Self::with_seed(sc, sc.seed)
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
            core: SimCore::new(sc, seed, Environment::build),
            scenario: sc,
        }
    }

    /// Runs one poll; `None` when the scenario duration is exhausted.
    pub fn step(&mut self) -> Option<SimExchange> {
        self.core.step(&self.scenario.path)
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
        let path = &self.inner.scenario.path;
        let mut n = 0;
        while n < max {
            match self.inner.core.step_raw(path) {
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
        let path = &self.inner.scenario.path;
        loop {
            match self.inner.core.step_raw(path)? {
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
/// the same host and `PathState`, so loss, outages, level shifts, server
/// faults and the oscillator all behave identically; the path queueing
/// uses the exact-time samplers since the schedule is irregular.
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
    path: ServerPath,
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
            core: SimCore::new(sc, seed, Environment::build),
            path: sc.path.clone(),
            duration: sc.duration,
            t_floor: 0.0,
        }
    }

    /// One exchange with the request sent at true time `t` (clamped to
    /// [`OnDemandSim::earliest_next`]). A `lost` record means the client
    /// will learn nothing until its own timeout fires.
    pub fn exchange_at(&mut self, t: f64) -> SimExchange {
        let t = t.max(self.t_floor);
        let e = self.core.poll_at(t, &self.path);
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
        let mut sc = short_scenario(5).with_duration(16.0 * 20_000.0);
        sc.path.loss_prob = 0.1;
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
        let mut template = short_scenario(20);
        template.path.loss_prob = 0.0;
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
        let mut sc = short_scenario(14);
        sc.path.loss_prob = 0.05;
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
    fn raw_fill_batch_matches_iterator() {
        let mut sc = short_scenario(16);
        sc.path.loss_prob = 0.05;
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
        let before_min = sc.path.effective_params().fwd_min;
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
        let mut sc = short_scenario(33)
            .with_server(ServerKind::Loc)
            .with_shift(LevelShift::asymmetric(7200.0, None, delta));
        sc.path.loss_prob = 0.0;

        // the warning path fires, naming the clamped leg
        let warnings = sc.path.clamp_warnings();
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
        let clean = short_scenario(34)
            .with_server(ServerKind::Ext)
            .with_shift(LevelShift::asymmetric(7200.0, None, delta));
        assert!(clean.path.clamp_warnings().is_empty());
        // the paper testbed presets are clean
        let testbed = crate::MultiServerScenario::paper_testbed(1);
        assert!(testbed
            .servers
            .iter()
            .all(|p| p.clamp_warnings().is_empty()));
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
