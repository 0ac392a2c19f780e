//! Figure 7: relative error of the robust rate estimates for
//! E* = 20δ (0.3 ms) and E* = 5δ (0.075 ms).
//!
//! The paper's headline rate result: for both thresholds the errors
//! "rapidly fall below the desired bound of 0.1 PPM and do not return",
//! tracking the expected bound `2E*/Δ(t)` — and the scheme is insensitive
//! to E* even though the acceptance fraction changes drastically (72% vs
//! 3.9% of packets).

use crate::fmt::{table, Report};
use crate::runner::{reference_rate, to_raw};
use crate::ExpOptions;
use tsc_netsim::Scenario;
use tscclock::{GlobalRate, History};

/// One threshold's trajectory: relative errors sampled at marks.
fn trajectory(
    sc: &Scenario,
    e_star: f64,
    marks_days: &[f64],
) -> (Vec<(f64, f64, f64)>, f64) {
    let exchanges: Vec<_> = sc.run().into_iter().filter(|e| !e.lost).collect();
    let mut rate = GlobalRate::new(e_star, 16);
    let mut hist = History::new(200_000);
    let first = &exchanges[0];
    let mut out = Vec::new();
    let mut accepted = 0usize;
    let mut mark = 0usize;
    for e in &exchanges {
        hist.push(to_raw(e));
        let rec = hist.last().unwrap();
        let ev = rate.process(&hist, &rec);
        if ev == tscclock::RateEvent::Updated {
            accepted += 1;
        }
        if mark < marks_days.len() && e.poll_time >= marks_days[mark] * 86_400.0 {
            if let Some(p) = rate.p_hat() {
                let p_ref = reference_rate(first.tf_tsc, first.tg, e.tf_tsc, e.tg)
                    .expect("reference rate");
                let rel = ((p - p_ref) / p_ref).abs();
                let bound = 2.0 * e_star / (e.poll_time - first.poll_time);
                out.push((marks_days[mark], rel, bound));
            }
            mark += 1;
        }
    }
    (out, accepted as f64 / exchanges.len() as f64)
}

/// Runs both E* settings over one day.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new("fig7", "Figure 7 — robust rate error for E* = 20d and 5d");
    // one day in both modes, exactly as the paper's Figure 7 trace
    let _ = opt.full;
    let sc = Scenario::baseline(opt.seed).with_duration(86_400.0);
    let marks = [0.003, 0.01, 0.03, 0.1, 0.3, 0.9];
    let delta = 15e-6;
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for (label, e_star) in [("20d", 20.0 * delta), ("5d", 5.0 * delta)] {
        let (traj, frac) = trajectory(&sc, e_star, &marks);
        for &(d, rel, bound) in &traj {
            rows.push(vec![
                label.to_string(),
                format!("{d:.3}"),
                format!("{:.5}", rel * 1e6),
                format!("{:.5}", bound * 1e6),
            ]);
        }
        let last = traj.last().map(|&(_, rel, _)| rel).unwrap_or(f64::NAN);
        metrics.push((format!("final_rel_ppm_{label}"), last * 1e6));
        metrics.push((format!("accept_frac_{label}"), frac));
    }
    r.line(table(
        &["E*", "T_e [day]", "|rel err| [PPM]", "bound 2E*/dt [PPM]"],
        &rows,
    ));
    r.line("Paper: both settings fall below 0.1 PPM and stay; acceptance");
    r.line("fractions were 72% (20d) and 3.9% (5d) on their trace.");
    for (k, v) in metrics {
        r.metric(k, v);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_fall_below_01_ppm_for_both_thresholds() {
        let r = run(ExpOptions {
            seed: 23,
            full: false,
        });
        for label in ["20d", "5d"] {
            let rel = r.get(&format!("final_rel_ppm_{label}")).unwrap();
            assert!(
                rel < 0.1,
                "E*={label}: final error {rel} PPM must be < 0.1 PPM"
            );
        }
        // the tighter threshold accepts far fewer packets
        let f20 = r.get("accept_frac_20d").unwrap();
        let f5 = r.get("accept_frac_5d").unwrap();
        assert!(f20 > 2.0 * f5, "acceptance ordering: {f20} vs {f5}");
        assert!(f20 > 0.3, "20d should accept a large fraction: {f20}");
    }
}
