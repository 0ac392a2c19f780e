//! Shared experiment driver: scenario → clock → per-packet measurements.

use tsc_netsim::{Scenario, SimExchange};
use tscclock::{ClockConfig, ClockEvent, RawExchange, TscNtpClock};

/// Per-packet measurement extracted from one processed exchange.
#[derive(Debug, Clone, Copy)]
pub struct PacketOut {
    /// Packet index within the run (counting non-lost packets).
    pub i: usize,
    /// Scheduled poll time (true seconds).
    pub t: f64,
    /// RTT in seconds (clock's view).
    pub rtt: f64,
    /// Point error Eᵢ (seconds).
    pub point_error: f64,
    /// Absolute-clock error vs the DAG reference: `Ca(Tf) − Tg` (seconds).
    /// This is the paper's "actual performance" metric; its sign convention
    /// makes a clock *ahead* of true time positive.
    pub err_abs: f64,
    /// Error of the *naive* per-packet estimate used the same way:
    /// `(C(Tf) − θ̂ᵢ) − Tg`.
    pub err_naive: f64,
    /// Current global rate estimate (s/count).
    pub p_hat: f64,
    /// Current filtered offset estimate (seconds).
    pub theta_hat: f64,
    /// Reference offset of the uncorrected clock: `C(Tf) − Tg` (seconds).
    pub theta_ref: f64,
    /// True one-way forward delay (diagnostics).
    pub d_fwd: f64,
    /// True backward delay.
    pub d_back: f64,
    /// Server residence.
    pub d_srv: f64,
    /// Events raised.
    pub sanity_fired: bool,
    /// An upward shift was confirmed at this packet.
    pub shift_fired: bool,
}

/// Result of driving a clock over a scenario.
#[derive(Debug, Clone)]
pub struct ClockRun {
    /// Per-packet outputs (non-lost packets that produced estimates).
    pub packets: Vec<PacketOut>,
    /// Total exchanges attempted (including lost).
    pub attempted: usize,
    /// Lost exchanges.
    pub lost: usize,
    /// Final clock status.
    pub status: tscclock::ClockStatus,
}

impl ClockRun {
    /// Absolute errors from packet `skip` on (skipping warm-up transients).
    pub fn abs_errors(&self, skip: usize) -> Vec<f64> {
        self.packets
            .iter()
            .filter(|p| p.i >= skip)
            .map(|p| p.err_abs)
            .collect()
    }

    /// Naive errors from packet `skip` on.
    pub fn naive_errors(&self, skip: usize) -> Vec<f64> {
        self.packets
            .iter()
            .filter(|p| p.i >= skip)
            .map(|p| p.err_naive)
            .collect()
    }
}

/// Drives a [`TscNtpClock`] over every exchange of `scenario`.
pub fn run_clock(scenario: &Scenario, cfg: ClockConfig) -> ClockRun {
    let mut clock = TscNtpClock::new(cfg);
    let mut packets = Vec::new();
    let mut attempted = 0usize;
    let mut lost = 0usize;
    let mut i = 0usize;
    for e in scenario.stream() {
        attempted += 1;
        if e.lost {
            lost += 1;
            continue;
        }
        let raw = to_raw(&e);
        let Some(out) = clock.process(raw) else {
            continue;
        };
        let ca = clock.absolute_time(e.tf_tsc).unwrap_or(f64::NAN);
        let c_uncorr = clock.uncorrected_time(e.tf_tsc).unwrap_or(f64::NAN);
        let theta_ref = c_uncorr - e.tg;
        packets.push(PacketOut {
            i,
            t: e.poll_time,
            rtt: out.rtt,
            point_error: out.point_error,
            err_abs: ca - e.tg,
            err_naive: (c_uncorr - out.theta_naive) - e.tg,
            p_hat: out.p_hat,
            theta_hat: out.theta_hat,
            theta_ref,
            d_fwd: e.truth.d_fwd,
            d_back: e.truth.d_back,
            d_srv: e.truth.d_srv,
            sanity_fired: out.events.contains(ClockEvent::OffsetSanity),
            shift_fired: out.events.contains(ClockEvent::UpwardShift),
        });
        i += 1;
    }
    ClockRun {
        packets,
        attempted,
        lost,
        status: clock.status(),
    }
}

/// Maps a simulated exchange to the clock's input type.
pub fn to_raw(e: &SimExchange) -> RawExchange {
    RawExchange {
        ta_tsc: e.ta_tsc,
        tb: e.tb,
        te: e.te,
        tf_tsc: e.tf_tsc,
    }
}

/// Reference ("DAG") rate over a packet pair: `p̂g = (Tg,i − Tg,j) /
/// (Tf,i − Tf,j)` in seconds per count — the paper's reference for
/// Figures 5 and 7.
pub fn reference_rate(tf_j: u64, tg_j: f64, tf_i: u64, tg_i: f64) -> Option<f64> {
    let dc = tf_i.wrapping_sub(tf_j) as i64 as f64;
    if dc <= 0.0 {
        return None;
    }
    Some((tg_i - tg_j) / dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_produces_consistent_measurements() {
        let sc = Scenario::baseline(7).with_duration(6.0 * 3600.0);
        let run = run_clock(&sc, ClockConfig::paper_defaults(16.0));
        assert!(run.packets.len() > 1000);
        assert!(run.attempted >= run.packets.len());
        // after warm-up, absolute errors are small
        let errs = run.abs_errors(500);
        let med = tsc_stats::median(&errs).unwrap();
        assert!(
            med.abs() < 200e-6,
            "post-warmup median error {med} too large"
        );
        // naive errors are much noisier than filtered ones
        let naive = run.naive_errors(500);
        let iqr_naive = tsc_stats::iqr(&naive).unwrap();
        let iqr_algo = tsc_stats::iqr(&errs).unwrap();
        assert!(
            iqr_naive > 2.0 * iqr_algo,
            "filtering must shrink the IQR: naive {iqr_naive} vs {iqr_algo}"
        );
    }

    #[test]
    fn reference_rate_math() {
        let p = reference_rate(0, 0.0, 1000, 1e-6).unwrap();
        assert!((p - 1e-9).abs() < 1e-18);
        assert!(reference_rate(5, 0.0, 5, 1.0).is_none());
    }

    #[test]
    fn lost_packets_are_counted() {
        let mut sc = Scenario::baseline(9).with_duration(3600.0);
        sc.path.loss_prob = 0.2;
        let run = run_clock(&sc, ClockConfig::paper_defaults(16.0));
        assert!(run.lost > 10);
        assert_eq!(run.attempted, 225);
    }
}
