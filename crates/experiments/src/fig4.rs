//! Figure 4: backward network delay and server delay time series
//! (1000 successive ServerLoc packets).
//!
//! The paper's observation: both series look like a deterministic minimum
//! plus positive noise; the server's minimum and mean are in the
//! *microsecond* range while the network's are in the *millisecond* range
//! (for this short route, sub-ms minimum with ms-scale congestion).

use crate::fmt::{fmt_time, table, Report};
use crate::ExpOptions;
use tsc_netsim::{Scenario, ServerKind};
use tsc_stats::{percentile, RunningStats};

/// Runs the 1000-packet ServerLoc observation.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new("fig4", "Figure 4 — backward network delay and server delay series");
    let n = if opt.full { 4000 } else { 1000 };
    let sc = Scenario::baseline(opt.seed)
        .with_server(ServerKind::Loc)
        .with_poll_period(16.0)
        .with_duration(n as f64 * 16.0 + 32.0);
    let mut d_back = Vec::new();
    let mut d_srv = Vec::new();
    for e in sc.stream().take(n) {
        if e.lost {
            continue;
        }
        // measured exactly as the paper does: d← = Tg − Te, d↑ = Te − Tb
        d_back.push(e.tg - e.te);
        d_srv.push(e.te - e.tb);
    }
    let mut rows = Vec::new();
    for (name, series) in [("backward d<-", &d_back), ("server d^", &d_srv)] {
        let st: RunningStats = series.iter().copied().collect();
        rows.push(vec![
            name.to_string(),
            fmt_time(st.min()),
            fmt_time(percentile(series, 50.0).unwrap()),
            fmt_time(st.mean()),
            fmt_time(percentile(series, 99.0).unwrap()),
            fmt_time(st.max()),
        ]);
    }
    r.line(table(&["series", "min", "median", "mean", "p99", "max"], &rows));
    r.line("Paper: server delay minima/means are µs-scale; network delays are");
    r.line("larger with ms-scale congestion excursions.");
    let sb: RunningStats = d_back.iter().copied().collect();
    let ss: RunningStats = d_srv.iter().copied().collect();
    // the raw minima can be *negative*: §4.2 observes reference backward
    // delays {Tg − Te} with outliers where Te > te by up to 1 ms — robust
    // floors use the 5th percentile instead
    r.metric("net_min_us", sb.min() * 1e6);
    r.metric("srv_min_us", ss.min() * 1e6);
    r.metric("net_floor_us", percentile(&d_back, 5.0).unwrap() * 1e6);
    r.metric("srv_floor_us", percentile(&d_srv, 5.0).unwrap() * 1e6);
    r.metric("net_mean_us", sb.mean() * 1e6);
    r.metric("srv_mean_us", ss.mean() * 1e6);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_delay_is_smaller_scale_than_network() {
        let r = run(ExpOptions {
            seed: 13,
            full: false,
        });
        let net_floor = r.get("net_floor_us").unwrap();
        let srv_floor = r.get("srv_floor_us").unwrap();
        let srv_mean = r.get("srv_mean_us").unwrap();
        // network floor ≈ the ServerLoc backward minimum (~0.16 ms)
        assert!(net_floor > 100.0 && net_floor < 300.0, "net floor {net_floor}");
        // server: tens of µs
        assert!(srv_floor > 5.0 && srv_floor < 60.0, "srv floor {srv_floor}");
        assert!(srv_mean < 150.0, "srv mean {srv_mean}");
        assert!(net_floor > 3.0 * srv_floor);
    }
}
