//! Table 2: measured characteristics of the three stratum-1 servers.
//!
//! The fixed columns (reference, distance, hops) are scenario facts; the
//! *measured* columns — minimum RTT over ≥ a week and the path asymmetry Δ
//! (estimated with the reference monitor per §4.2) — are produced by
//! actually running the simulation and measuring, exactly as the paper did.

use crate::asym::{estimate_asymmetry, RefExchange};
use crate::fmt::{fmt_time, table, Report};
use crate::ExpOptions;
use tsc_netsim::{Scenario, ServerKind};
use tscclock::RawExchange;

/// Runs a trace per server and measures min RTT and Δ.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new("table2", "Table 2 — characteristics of the stratum-1 NTP servers");
    let days = if opt.full { 7.0 } else { 2.0 };
    let mut rows = Vec::new();
    for kind in [ServerKind::Loc, ServerKind::Int, ServerKind::Ext] {
        let facts = kind.facts();
        let sc = Scenario::baseline(opt.seed)
            .with_server(kind)
            .with_poll_period(16.0)
            .with_duration(days * 86_400.0);
        let mut min_rtt = f64::INFINITY;
        let mut refs = Vec::new();
        let p_nom = 1.0 / sc.tsc_freq_hz;
        for e in sc.stream() {
            if e.lost {
                continue;
            }
            let rtt = e.tf_tsc.wrapping_sub(e.ta_tsc) as f64 * p_nom;
            min_rtt = min_rtt.min(rtt);
            refs.push(RefExchange {
                ex: RawExchange {
                    ta_tsc: e.ta_tsc,
                    tb: e.tb,
                    te: e.te,
                    tf_tsc: e.tf_tsc,
                },
                tg: e.tg,
            });
        }
        let delta = estimate_asymmetry(&refs, p_nom, 0.005).unwrap_or(f64::NAN);
        rows.push(vec![
            kind.name().to_string(),
            facts.reference.to_string(),
            facts.distance.to_string(),
            fmt_time(min_rtt),
            facts.hops.to_string(),
            fmt_time(delta),
        ]);
        let tag = kind.name().to_lowercase();
        r.metrics.push((format!("{tag}_rtt_ms"), min_rtt * 1e3));
        r.metrics.push((format!("{tag}_delta_us"), delta * 1e6));
    }
    r.line(table(
        &["Server", "Reference", "Distance", "RTT(min)", "Hops", "Delta"],
        &rows,
    ));
    r.line("Paper: Loc 0.38ms/50us, Int 0.89ms/50us, Ext 14.2ms/500us");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_values_match_table2() {
        let r = run(ExpOptions {
            seed: 5,
            full: false,
        });
        // RTT within 10% of the paper's values (host latencies add a bit)
        assert!((r.get("serverloc_rtt_ms").unwrap() - 0.38).abs() < 0.05);
        assert!((r.get("serverint_rtt_ms").unwrap() - 0.89).abs() < 0.09);
        assert!((r.get("serverext_rtt_ms").unwrap() - 14.2).abs() < 1.0);
        // asymmetry: right order of magnitude and ordering
        let d_int = r.get("serverint_delta_us").unwrap();
        let d_ext = r.get("serverext_delta_us").unwrap();
        assert!((d_int - 50.0).abs() < 40.0, "Int delta {d_int}");
        assert!((d_ext - 500.0).abs() < 150.0, "Ext delta {d_ext}");
        assert!(d_ext > d_int);
    }
}
