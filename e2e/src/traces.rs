//! Pre-generated single-source traces with ground truth, shared by
//! `clock_ingest` and `checkpoint_replay`.

use crate::harness::{sub_seed, unit};
use tsc_netsim::{LevelShift, Scenario, SimExchange};
use tscclock::{ClockConfig, ClockEvent, ProcessOutput, RawExchange};

/// Seed tag of the trace set (both workloads read the same traces).
const TAG: u64 = 0x7261_6365; // "race"

/// Packets skipped before errors are scored and a `None` read counts as
/// a failure: past the 64-packet rate warm-up and the first τ′ window.
pub const WARM: usize = 256;

/// The delivered exchanges of one scenario, with the truth beside them.
pub struct Trace {
    pub cfg: ClockConfig,
    pub raw: Vec<RawExchange>,
    /// Reference (DAG) timestamp of each arrival: the truth for
    /// `absolute_time(tf_tsc)`.
    pub tg: Vec<f64>,
    /// True arrival time, the `now` a lifecycle client is driven with.
    pub tf: Vec<f64>,
}

/// The observables of a delivered exchange: what a client hands its clock.
pub fn observables(e: &SimExchange) -> RawExchange {
    RawExchange {
        ta_tsc: e.ta_tsc,
        tb: e.tb,
        te: e.te,
        tf_tsc: e.tf_tsc,
    }
}

/// True time at which the host read `e.tf_tsc`. The simulated counter
/// counts oscillator time from zero, so the reading over the nominal
/// frequency is the oscillator's local time, and taking off its error
/// leaves the true time — exact to the counter's 1 ns rounding, and free
/// of the host's timestamping latency that separates it from `tg`.
pub fn read_time(e: &SimExchange, tsc_freq_hz: f64) -> f64 {
    e.tf_tsc as f64 / tsc_freq_hz - e.truth.host_err_at_tf
}

/// Baseline trace `index` at `poll` seconds over `days`: one permanent
/// symmetric level shift (the upward-shift detector re-bases, the
/// asymmetry and hence the truth-relative offset stay put) and one outage
/// longer than τ̄/2 (the gap rule and the offset fallback run).
pub fn baseline(seed: u64, index: u64, poll: f64, days: f64) -> Trace {
    let s = sub_seed(seed, TAG, index);
    let duration = days * 86_400.0;
    let shift_at = duration * (0.30 + 0.15 * unit(s ^ 1));
    let outage_at = duration * (0.60 + 0.15 * unit(s ^ 2));
    let outage_len = (6.0 * poll).max(3600.0);
    let sc = Scenario::baseline(s)
        .with_poll_period(poll)
        .with_duration(duration)
        .with_shift(LevelShift::symmetric(shift_at, 0.6e-3))
        .with_outage(outage_at, outage_at + outage_len);
    let mut trace = Trace {
        cfg: ClockConfig::paper_defaults(poll),
        raw: Vec::new(),
        tg: Vec::new(),
        tf: Vec::new(),
    };
    for e in sc.stream().filter(|e| !e.lost) {
        trace.raw.push(observables(&e));
        trace.tg.push(e.tg);
        trace.tf.push(e.truth.tf);
    }
    trace
}

/// The words of a clock output a timed rep folds into its digest: the
/// two estimates and the event set. Any estimator change moves them.
#[inline]
pub fn fold_output(h: u64, o: &ProcessOutput) -> u64 {
    use crate::harness::fold;
    let events = o.events.iter().fold(0u64, |m, e| m | 1 << (e as u16));
    fold(
        fold(fold(h, o.theta_hat.to_bits()), o.p_hat.to_bits()),
        events,
    )
}

/// What the oracle pass counts over clock outputs.
#[derive(Debug, Default)]
pub struct OutputAudit {
    pub outputs: u64,
    pub non_finite: u64,
    pub shifts: u64,
    pub rebuilds: u64,
}

impl OutputAudit {
    pub fn see(&mut self, o: &ProcessOutput) {
        self.outputs += 1;
        if !(o.theta_hat.is_finite() && o.p_hat.is_finite() && o.rtt.is_finite()) {
            self.non_finite += 1;
        }
        self.shifts += u64::from(o.events.contains(ClockEvent::UpwardShift));
        // The paths that leave the incremental estimators: the top window
        // sliding, and the offset fallback after a gap.
        self.rebuilds += u64::from(
            o.events.contains(ClockEvent::WindowSlid)
                || o.events.contains(ClockEvent::OffsetFallback),
        );
    }
}
