//! Extension X4: fleet survival report — a heterogeneous lifecycle
//! population under outage, churn, and the thundering-herd ablation.
//!
//! Replays a fleet of lifecycle clients ([`tsc_fleet::LifecycleClient`])
//! whose access paths are drawn from the consumer [`ProfileMix`]
//! (datacenter / DSL / Wi-Fi / mobile / satellite), with a mid-run server
//! outage, late joiners and early leavers. Reports, per profile:
//!
//! * median / p99 absolute clock error at accepted exchanges,
//! * fleet time-in-state fractions (the lifecycle diagram as numbers),
//! * the herd ablation: peak post-outage request rate under naive
//!   fixed-interval retry vs jittered exponential backoff.
//!
//! Everything derives from the committed seed (`ExpOptions::seed`,
//! default 42): rerunning `repro population` reproduces every number.

use crate::fmt::{table, Report};
use crate::ExpOptions;
use tsc_fleet::{
    compare_herd, replay, ChurnPlan, PopulationConfig, WorkerPool, STATE_COUNT,
};
use tsc_netsim::{ProfileMix, Scenario, ALL_PROFILES};
use tsc_stats::Percentiles;
use tscclock::ClockConfig;

/// State names in `ClientState as usize` order.
const STATE_NAMES: [&str; STATE_COUNT] = ["Unsynced", "Syncing", "Synced", "Degraded", "Failed"];

/// Runs the population replay and the herd ablation.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new(
        "population",
        "X4 — fleet survival: per-profile accuracy, lifecycle occupancy, thundering herd",
    );
    let hours = if opt.full { 12.0 } else { 4.0 };
    let clients = if opt.full { 128 } else { 48 };
    let duration = hours * 3600.0;
    let outage = (duration * 0.5, duration * 0.5 + 600.0);

    let scenario = Scenario::baseline(opt.seed)
        .with_poll_period(16.0)
        .with_duration(duration)
        .with_outage(outage.0, outage.1);
    let mut cfg = PopulationConfig::new(
        clients,
        opt.seed,
        scenario,
        ClockConfig::paper_defaults(16.0),
    );
    cfg.mix = ProfileMix::consumer();
    cfg.churn = ChurnPlan {
        join_frac: 0.25,
        join_window: (duration * 0.05, duration * 0.25),
        leave_frac: 0.15,
        leave_window: (duration * 0.75, duration * 0.95),
    };

    r.line(format!(
        "{clients} lifecycle clients, consumer profile mix, poll 16 s, {hours} h; \
         server outage {:.0}–{:.0} min; 25% late joiners, 15% leavers",
        outage.0 / 60.0,
        outage.1 / 60.0
    ));
    r.line("");

    let mut pool = WorkerPool::new(4);
    let summary = cfg.summarize(replay(Some(&mut pool), &cfg));

    // --- per-profile accuracy ---------------------------------------
    r.line("per-profile absolute clock error at accepted exchanges:");
    let mut rows = Vec::new();
    for profile in ALL_PROFILES {
        let errs = summary.profile_errors(profile);
        let n = summary
            .clients
            .iter()
            .filter(|c| c.profile == profile)
            .count();
        if errs.is_empty() {
            rows.push(vec![
                format!("{profile:?}"),
                n.to_string(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let p = Percentiles::from_data(&errs).expect("data");
        rows.push(vec![
            format!("{profile:?}"),
            n.to_string(),
            format!("{:.1}", p.p50 * 1e6),
            format!("{:.1}", p.p99 * 1e6),
        ]);
        let key = format!("{profile:?}").to_lowercase();
        r.metrics.push((format!("{key}_median_us"), p.p50 * 1e6));
        r.metrics.push((format!("{key}_p99_us"), p.p99 * 1e6));
    }
    r.body
        .push_str(&table(&["profile", "clients", "median µs", "p99 µs"], &rows));
    r.line("");

    // --- lifecycle occupancy ----------------------------------------
    let tis = summary.time_in_state();
    let total: f64 = tis.iter().sum();
    r.line("fleet time-in-state:");
    let rows: Vec<Vec<String>> = STATE_NAMES
        .iter()
        .zip(tis)
        .map(|(name, s)| {
            vec![
                name.to_string(),
                format!("{:.1}", s / 3600.0),
                format!("{:.2}", 100.0 * s / total),
            ]
        })
        .collect();
    r.body.push_str(&table(&["state", "hours", "%"], &rows));
    for (name, s) in STATE_NAMES.iter().zip(tis) {
        r.metrics
            .push((format!("{}_frac", name.to_lowercase()), s / total));
    }
    r.line("");

    // --- the herd ablation ------------------------------------------
    let herd = compare_herd(&mut pool, &cfg, 16.0);
    r.line(format!(
        "thundering herd, post-outage window {:.0}–{:.0} min (bucket {:.0} s):",
        herd.window.0 / 60.0,
        herd.window.1 / 60.0,
        summary.bucket_width
    ));
    r.line(format!(
        "  naive fixed-retry peak    {:>5} req/bucket",
        herd.naive_peak
    ));
    r.line(format!(
        "  jittered backoff peak     {:>5} req/bucket",
        herd.jittered_peak
    ));
    r.metric("herd_naive_peak", herd.naive_peak as f64);
    r.metric("herd_jittered_peak", herd.jittered_peak as f64);
    r.metric("herd_suppression_ratio", herd.ratio());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_by_path_and_herd_is_suppressed() {
        let rep = run(ExpOptions::default());
        // accuracy tracks the access path: datacenter beats satellite
        let dc = rep.get("datacenter_median_us").unwrap();
        let sat = rep.get("satellite_median_us").unwrap();
        assert!(dc < sat, "datacenter {dc} µs !< satellite {sat} µs");
        // the fleet spends most of its life healthy
        let synced = rep.get("synced_frac").unwrap();
        assert!(synced > 0.5, "synced fraction {synced}");
        let occupancy: f64 = ["unsynced", "syncing", "synced", "degraded", "failed"]
            .iter()
            .map(|s| rep.get(&format!("{s}_frac")).unwrap())
            .sum();
        assert!((occupancy - 1.0).abs() < 1e-9);
        // acceptance bar: jittered backoff caps the herd ≥3×
        let ratio = rep.get("herd_suppression_ratio").unwrap();
        assert!(ratio >= 3.0, "herd suppression ratio {ratio}");
    }

    #[test]
    fn report_is_reproducible_from_the_committed_seed() {
        let a = run(ExpOptions::default()).render();
        let b = run(ExpOptions::default()).render();
        assert_eq!(a, b);
    }
}
