//! Extension X1: the SW-NTP (ntpd-style feedback) baseline vs the TSC-NTP
//! clock on identical traces.
//!
//! Quantifies the paper's §1 motivation: the feedback clock's offset is
//! ms-scale and its *rate* wanders far beyond the 0.1 PPM hardware
//! stability, while the feed-forward clock holds tens-of-µs offsets with a
//! smooth rate.

use crate::fmt::{fmt_time, table, Report};
use crate::runner::run_clock;
use crate::swclock::DisciplinedClock;
use crate::ExpOptions;
use tsc_netsim::Scenario;
use tsc_stats::{Percentiles, RunningStats};
use tscclock::ClockConfig;

/// Runs both clocks over the same scenario.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new("baseline", "X1 — SW-NTP feedback baseline vs TSC-NTP clock");
    let days = if opt.full { 14.0 } else { 5.0 };
    let sc = Scenario::baseline(opt.seed).with_duration(days * 86_400.0);

    // --- TSC-NTP (this paper) ---
    let run_tsc = run_clock(&sc, ClockConfig::paper_defaults(sc.poll_period));
    let skip = (run_tsc.packets.len() / 5).min(2000);
    let p_tsc = Percentiles::from_data(&run_tsc.abs_errors(skip)).expect("data");

    // --- SW-NTP baseline on the *same* trace ---
    // The daemon sees raw host clock readings (counter · nominal period)
    // and the same server timestamps.
    let p_nom = 1.0 / sc.tsc_freq_hz;
    let mut sw = DisciplinedClock::default();
    let mut sw_errs = Vec::new();
    let mut sw_rates = RunningStats::new();
    let mut n = 0usize;
    for e in sc.stream() {
        if e.lost {
            continue;
        }
        let ta_raw = e.ta_tsc as f64 * p_nom;
        let tf_raw = e.tf_tsc as f64 * p_nom;
        sw.process(ta_raw, e.tb, e.te, tf_raw);
        n += 1;
        if n > skip {
            sw_errs.push(sw.now(tf_raw) - e.tg);
            sw_rates.push(sw.rate_correction());
        }
    }
    let p_sw = Percentiles::from_data(&sw_errs).expect("data");

    let rows = vec![
        vec![
            "TSC-NTP (paper)".to_string(),
            fmt_time(p_tsc.p50),
            fmt_time(p_tsc.iqr()),
            fmt_time(p_tsc.spread_98()),
            "smooth (0.1 PPM bound)".to_string(),
        ],
        vec![
            "SW-NTP (ntpd-like)".to_string(),
            fmt_time(p_sw.p50),
            fmt_time(p_sw.iqr()),
            fmt_time(p_sw.spread_98()),
            format!(
                "{:.2} PPM swing",
                (sw_rates.max() - sw_rates.min()) * 1e6
            ),
        ],
    ];
    r.line(table(
        &["clock", "median err", "IQR", "p1..p99 spread", "rate behaviour"],
        &rows,
    ));
    r.line(format!("SW-NTP step (reset) events: {}", sw.steps()));
    r.line("Paper §1: SW-NTP offsets exceed RTTs in practice with occasional");
    r.line("resets; its rate is deliberately varied. The TSC-NTP clock decouples");
    r.line("rate from offset and wins on both.");
    r.metric("tsc_iqr_us", p_tsc.iqr() * 1e6);
    r.metric("sw_iqr_us", p_sw.iqr() * 1e6);
    r.metric("sw_rate_swing_ppm", (sw_rates.max() - sw_rates.min()) * 1e6);
    r.metric("improvement_factor", p_sw.iqr() / p_tsc.iqr());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_clock_beats_feedback_baseline() {
        let r = run(ExpOptions {
            seed: 47,
            full: false,
        });
        // The short (non-full) run's margin is RNG-stream dependent and
        // hovers around 2.6–3.2x across seeds; 2x is still the "wide
        // margin" the comparison exists to demonstrate.
        assert!(
            r.get("improvement_factor").unwrap() > 2.0,
            "TSC-NTP should beat SW-NTP by a wide margin"
        );
        assert!(
            r.get("sw_rate_swing_ppm").unwrap() > 0.1,
            "SW-NTP rate must wander beyond hardware stability"
        );
        assert!(
            r.get("tsc_iqr_us").unwrap() < 100.0,
            "TSC-NTP IQR must be tens of µs"
        );
    }
}
