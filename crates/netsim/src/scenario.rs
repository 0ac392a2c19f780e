//! Scenario presets: Table 2's three servers, the one description of a
//! server path, and full experiment configs.
//!
//! A [`ServerPath`] is everything about one server as the host sees it:
//! which Table-2 server, an optional [`PathParams`] override (what
//! [`crate::PathProfile`] installs), and its loss, outage, shift and fault
//! schedules. A [`Scenario`] polls one of them; a
//! [`crate::MultiServerScenario`] polls K from the same host. Both
//! simulators build each path's seeded state from it the same way (see
//! [`crate::multi`] for the seed contract).

use crate::delay::CongestionParams;
use crate::profile::PathParams;
use crate::server::ServerFault;
use crate::shifts::{LevelShift, ShiftSchedule};
use crate::sim::ExchangeStream;
use tsc_osc::Environment;

/// The three stratum-1 servers of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// In the host's laboratory, same local network: 3 m, RTT 0.38 ms,
    /// 2 hops, Δ ≈ 50 µs, GPS-referenced.
    Loc,
    /// Same organization, distinct network: 300 m, RTT 0.89 ms, 5 hops,
    /// Δ ≈ 50 µs, GPS-referenced. The paper's recommended "nearby" server.
    Int,
    /// Another city, ~1000 km: RTT 14.2 ms, ~10 hops, Δ ≈ 500 µs,
    /// atomic-clock referenced.
    Ext,
}

/// Static per-server facts (for reproducing Table 2's fixed columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFacts {
    /// Reference source name.
    pub reference: &'static str,
    /// Physical distance description.
    pub distance: &'static str,
    /// Minimum round-trip time (seconds).
    pub rtt: f64,
    /// IP hop count.
    pub hops: u32,
    /// Path asymmetry Δ = d→ − d← (seconds).
    pub asymmetry: f64,
}

impl ServerKind {
    /// Table 2's row for this server.
    pub fn facts(self) -> ServerFacts {
        match self {
            ServerKind::Loc => ServerFacts {
                reference: "GPS",
                distance: "3 m",
                rtt: 0.38e-3,
                hops: 2,
                asymmetry: 50e-6,
            },
            ServerKind::Int => ServerFacts {
                reference: "GPS",
                distance: "300 m",
                rtt: 0.89e-3,
                hops: 5,
                asymmetry: 50e-6,
            },
            ServerKind::Ext => ServerFacts {
                reference: "Atomic",
                distance: "1000 km",
                rtt: 14.2e-3,
                hops: 10,
                asymmetry: 500e-6,
            },
        }
    }

    /// Minimum one-way delays `(d→, d←)` consistent with Table 2's RTT and
    /// Δ, after accounting for the server's 12 µs minimum residence:
    /// `d→ + d← = RTT − d↑` and `d→ − d← = Δ`.
    pub fn min_delays(self) -> (f64, f64) {
        let f = self.facts();
        let paths = f.rtt - crate::server::ServerParams::default().min_residence;
        let fwd = (paths + f.asymmetry) / 2.0;
        let back = (paths - f.asymmetry) / 2.0;
        (fwd, back)
    }

    /// Background queueing means `(fwd, back)`; the forward path is more
    /// heavily utilised (§4.2 observes the naive offset histogram "is biased
    /// towards negative values ... because the forward path is more heavily
    /// utilised than the backward one"), and noise grows with hop count.
    pub fn queue_means(self) -> (f64, f64) {
        match self {
            ServerKind::Loc => (45e-6, 25e-6),
            ServerKind::Int => (80e-6, 45e-6),
            ServerKind::Ext => (300e-6, 180e-6),
        }
    }

    /// Congestion-episode parameters `(fwd, back)`.
    pub fn congestion(self) -> (CongestionParams, CongestionParams) {
        let scale_back = |c: CongestionParams| CongestionParams {
            scale: c.scale * 0.6,
            ..c
        };
        match self {
            ServerKind::Loc => (CongestionParams::light(), scale_back(CongestionParams::light())),
            ServerKind::Int => (
                CongestionParams::moderate(),
                scale_back(CongestionParams::moderate()),
            ),
            ServerKind::Ext => (CongestionParams::heavy(), scale_back(CongestionParams::heavy())),
        }
    }

    /// The full path parameterisation this server's Table-2 row implies —
    /// the counterpart of [`crate::PathProfile::params`].
    pub fn params(self) -> PathParams {
        let (fwd_min, back_min) = self.min_delays();
        let (fwd_queue_mean, back_queue_mean) = self.queue_means();
        let (fwd_congestion, back_congestion) = self.congestion();
        PathParams {
            fwd_min,
            back_min,
            fwd_queue_mean,
            back_queue_mean,
            fwd_congestion,
            back_congestion,
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ServerKind::Loc => "ServerLoc",
            ServerKind::Int => "ServerInt",
            ServerKind::Ext => "ServerExt",
        }
    }
}

/// One server path as the host sees it: which Table-2 server it is, how
/// the path is shaped, and its private anomaly schedules.
#[derive(Debug, Clone)]
pub struct ServerPath {
    /// Which Table 2 server preset shapes the path (minima, queueing,
    /// congestion severity) and answers.
    pub kind: ServerKind,
    /// Explicit path parameterisation overriding the server's Table-2
    /// derived one — how heterogeneous access profiles
    /// ([`crate::PathProfile`]) reshape the path while keeping the same
    /// server model. `None` = [`ServerKind::params`].
    pub params: Option<PathParams>,
    /// Independent per-packet loss probability on this path.
    pub loss_prob: f64,
    /// Server unavailability windows `(start, end)`.
    pub outages: Vec<(f64, f64)>,
    /// Route-change level shifts on this path (including
    /// [`LevelShift::asymmetric`] steps).
    pub shifts: ShiftSchedule,
    /// Server clock faults (Figure 11b-style).
    pub faults: Vec<ServerFault>,
}

impl ServerPath {
    /// A clean path to the given server with the baseline loss rate.
    pub fn new(kind: ServerKind) -> Self {
        Self {
            kind,
            params: None,
            loss_prob: 1.5e-3,
            outages: Vec::new(),
            shifts: ShiftSchedule::none(),
            faults: Vec::new(),
        }
    }

    /// Sets the loss probability (chainable).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_prob = p;
        self
    }

    /// Adds an outage window (chainable).
    pub fn with_outage(mut self, start: f64, end: f64) -> Self {
        self.outages.push((start, end));
        self
    }

    /// Adds a level shift (chainable).
    pub fn with_shift(mut self, shift: LevelShift) -> Self {
        self.shifts.push(shift);
        self
    }

    /// Adds a server clock fault (chainable).
    pub fn with_fault(mut self, fault: ServerFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The path parameterisation in effect: the override when present,
    /// otherwise the server's Table-2 derived parameters.
    pub fn effective_params(&self) -> PathParams {
        self.params.unwrap_or_else(|| self.kind.params())
    }

    /// Checks every level shift in the schedule against the path minima
    /// and reports the ones that would be clamped by the [`PathDelay`]
    /// floor (effective minimum < 0 snaps to 0) — a *half-applied* fault:
    /// an [`LevelShift::asymmetric`] step relies on both legs moving by
    /// ±delta/2, and a clamped leg leaks the step into the RTT, silently
    /// changing what the fault injects. Presets and fleet configs should
    /// assert this is empty; the regression tests pin both the clamped
    /// sample floor and this warning path.
    ///
    /// [`PathDelay`]: crate::PathDelay
    pub fn clamp_warnings(&self) -> Vec<String> {
        let path = self.effective_params();
        let mut warnings = Vec::new();
        for (idx, s) in self.shifts.events().iter().enumerate() {
            // cumulative deltas at the event's onset (all overlapping
            // shifts included — clamping applies to the *total* shift)
            let (df, db) = self.shifts.deltas_at(s.at);
            let legs = [
                ("forward", path.fwd_min, df),
                ("backward", path.back_min, db),
            ];
            for (leg, min, delta) in legs {
                if min + delta < 0.0 {
                    warnings.push(format!(
                        "shift {idx} at t={}: {leg} min {min}s + delta {delta}s < 0 — \
                         clamped to 0, shift half-applied",
                        s.at
                    ));
                }
            }
        }
        warnings
    }
}

/// A complete experiment configuration: host environment, the server path
/// with its schedule of anomalies, polling parameters. `stream()` yields
/// the event simulator.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Host temperature environment (selects the oscillator model).
    pub environment: Environment,
    /// The server polled and the path to it.
    pub path: ServerPath,
    /// Master seed; every stochastic element derives its stream from it.
    pub seed: u64,
    /// NTP polling period in seconds (paper uses 16 for analysis, 64/256 as
    /// standard defaults).
    pub poll_period: f64,
    /// Total simulated duration in seconds.
    pub duration: f64,
    /// Nominal TSC frequency in Hz.
    pub tsc_freq_hz: f64,
}

impl Scenario {
    /// A machine-room host polling ServerInt every 16 s — the paper's main
    /// data-collection configuration (§2.3).
    pub fn baseline(seed: u64) -> Self {
        Self {
            environment: Environment::MachineRoom,
            path: ServerPath::new(ServerKind::Int),
            seed,
            poll_period: 16.0,
            duration: 86_400.0,
            tsc_freq_hz: 1e9,
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

    /// Sets the server (chainable).
    pub fn with_server(mut self, server: ServerKind) -> Self {
        self.path.kind = server;
        self
    }

    /// Sets the host environment (chainable).
    pub fn with_environment(mut self, environment: Environment) -> Self {
        self.environment = environment;
        self
    }

    /// Adds an outage window (chainable).
    pub fn with_outage(mut self, start: f64, end: f64) -> Self {
        self.path = self.path.with_outage(start, end);
        self
    }

    /// Adds a level shift (chainable).
    pub fn with_shift(mut self, shift: LevelShift) -> Self {
        self.path = self.path.with_shift(shift);
        self
    }

    /// Adds a server fault (chainable).
    pub fn with_server_fault(mut self, fault: ServerFault) -> Self {
        self.path = self.path.with_fault(fault);
        self
    }

    /// Applies an access-path profile (chainable): overrides the path
    /// parameterisation and loss rate, and appends the profile's
    /// generated shift schedule (mobile handovers) derived from the
    /// scenario's current seed. See [`crate::PathProfile::apply`].
    pub fn with_profile(self, profile: crate::profile::PathProfile) -> Self {
        let seed = self.seed;
        profile.apply(&self, seed)
    }

    /// Builds the fixed-cadence exchange stream, borrowing the anomaly
    /// schedules.
    pub fn stream(&self) -> ExchangeStream<'_> {
        ExchangeStream::new(self)
    }

    /// A borrowing stream with the master seed overridden — what a fleet
    /// uses to derive thousands of distinct streams from one shared
    /// template without cloning it.
    pub fn stream_with_seed(&self, seed: u64) -> ExchangeStream<'_> {
        ExchangeStream::with_seed(self, seed)
    }

    /// Runs the whole scenario, returning every exchange record (including
    /// lost ones, flagged).
    pub fn run(&self) -> Vec<crate::sim::SimExchange> {
        self.stream().collect()
    }

    /// Runs the whole scenario through the pre-optimization pipeline
    /// (draw-per-call samplers, exact-time burst evolution, reference
    /// oscillator) — the ground truth of the statistical-equivalence
    /// differential tests.
    #[cfg(feature = "reference")]
    pub fn run_reference(&self) -> Vec<crate::sim::SimExchange> {
        ExchangeStream::new_reference(self).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_delays_reconstruct_table2() {
        for k in [ServerKind::Loc, ServerKind::Int, ServerKind::Ext] {
            let f = k.facts();
            let (fwd, back) = k.min_delays();
            let r = fwd + back + crate::server::ServerParams::default().min_residence;
            assert!(
                (r - f.rtt).abs() < 1e-12,
                "{}: RTT mismatch {r} vs {}",
                k.name(),
                f.rtt
            );
            assert!(
                (fwd - back - f.asymmetry).abs() < 1e-12,
                "{}: asymmetry mismatch",
                k.name()
            );
            assert!(back > 0.0);
        }
    }

    #[test]
    fn forward_paths_are_busier() {
        for k in [ServerKind::Loc, ServerKind::Int, ServerKind::Ext] {
            let (f, b) = k.queue_means();
            assert!(f > b, "{}: forward must be busier", k.name());
        }
    }

    #[test]
    fn builder_chains() {
        let s = Scenario::baseline(1)
            .with_duration(3600.0)
            .with_poll_period(64.0)
            .with_server(ServerKind::Loc)
            .with_environment(Environment::Laboratory)
            .with_outage(100.0, 200.0);
        assert_eq!(s.duration, 3600.0);
        assert_eq!(s.poll_period, 64.0);
        assert_eq!(s.path.kind, ServerKind::Loc);
        assert_eq!(s.environment, Environment::Laboratory);
        assert_eq!(s.path.outages.len(), 1);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ServerKind::Loc.name(), "ServerLoc");
        assert_eq!(ServerKind::Int.name(), "ServerInt");
        assert_eq!(ServerKind::Ext.name(), "ServerExt");
    }
}
