//! Cross-crate integration tests: the full simulator → clock pipeline.

use tscclock_repro::clock::{ClockConfig, ClockEvent, RawExchange, TscNtpClock};
use tscclock_repro::netsim::{LevelShift, Scenario, ServerFault, ServerKind};
use tscclock_repro::stats::{median, Percentiles};

fn to_raw(e: &tscclock_repro::netsim::SimExchange) -> RawExchange {
    RawExchange {
        ta_tsc: e.ta_tsc,
        tb: e.tb,
        te: e.te,
        tf_tsc: e.tf_tsc,
    }
}

/// Runs a scenario, returning (abs errors after warmup, clock, events).
fn run(scenario: &Scenario, cfg: ClockConfig) -> (Vec<f64>, TscNtpClock, Vec<(f64, ClockEvent)>) {
    let mut clock = TscNtpClock::new(cfg);
    let mut errs = Vec::new();
    let mut events = Vec::new();
    let mut n = 0;
    for e in scenario.stream() {
        if e.lost {
            continue;
        }
        if let Some(out) = clock.process(to_raw(&e)) {
            n += 1;
            for ev in out.events.iter() {
                events.push((e.poll_time, ev));
            }
            if n > 1500 {
                if let Some(ca) = clock.absolute_time(e.tf_tsc) {
                    errs.push(ca - e.tg);
                }
            }
        }
    }
    (errs, clock, events)
}

#[test]
fn headline_result_median_error_tens_of_microseconds() {
    // The paper's headline: ~30 µs median absolute error with a nearby
    // stratum-1 server (§1, Figure 12).
    let sc = Scenario::baseline(1001).with_duration(7.0 * 86_400.0);
    let (errs, clock, _) = run(&sc, ClockConfig::paper_defaults(16.0));
    let p = Percentiles::from_data(&errs).unwrap();
    assert!(
        p.p50.abs() < 60e-6,
        "median error {:.1} µs should be tens of µs",
        p.p50 * 1e6
    );
    assert!(p.iqr() < 60e-6, "IQR {:.1} µs", p.iqr() * 1e6);
    // rate accuracy: ~0.02 PPM class (§7 claims 0.02 PPM achieved)
    assert!(clock.status().p_quality < 0.1e-6);
}

#[test]
fn difference_clock_sub_microsecond_on_short_intervals() {
    let sc = Scenario::baseline(1002).with_duration(2.0 * 86_400.0);
    let (_, clock, _) = run(&sc, ClockConfig::paper_defaults(16.0));
    // 1e9 counts ≈ 1 s: true duration with the +52.4 PPM machine-room skew
    let dt = clock.difference_seconds(0, 1_000_000_000).unwrap();
    let true_dt = 1.0 / (1.0 + 52.4e-6);
    assert!(
        (dt - true_dt).abs() < 1e-6,
        "1 s interval error {:.3} µs",
        (dt - true_dt).abs() * 1e6
    );
}

#[test]
fn works_with_all_three_servers() {
    for (kind, budget_us) in [
        (ServerKind::Loc, 60.0),
        (ServerKind::Int, 80.0),
        (ServerKind::Ext, 600.0), // Δ/2 = 250 µs dominates
    ] {
        let sc = Scenario::baseline(1003)
            .with_server(kind)
            .with_duration(4.0 * 86_400.0);
        let (errs, _, _) = run(&sc, ClockConfig::paper_defaults(16.0));
        let med = median(&errs).unwrap().abs() * 1e6;
        assert!(
            med < budget_us,
            "{}: median {med:.1} µs over budget {budget_us}",
            kind.name()
        );
    }
}

#[test]
fn heavy_loss_degrades_gracefully() {
    // 30% packet loss: the paper's count-based windows shrink but the
    // algorithms must keep working.
    let mut sc = Scenario::baseline(1004).with_duration(4.0 * 86_400.0);
    sc.path.loss_prob = 0.30;
    let (errs, _, _) = run(&sc, ClockConfig::paper_defaults(16.0));
    let p = Percentiles::from_data(&errs).unwrap();
    assert!(
        p.p50.abs() < 100e-6,
        "median under 30% loss: {:.1} µs",
        p.p50 * 1e6
    );
}

#[test]
fn server_fault_is_contained_and_recovered() {
    let sc = Scenario::baseline(1005)
        .with_duration(3.0 * 86_400.0)
        .with_server_fault(ServerFault {
            start: 1.5 * 86_400.0,
            end: 1.5 * 86_400.0 + 600.0,
            offset: 0.150,
        });
    let (errs, _, events) = run(&sc, ClockConfig::paper_defaults(16.0));
    assert!(
        events
            .iter()
            .any(|(t, e)| *e == ClockEvent::OffsetSanity && *t >= 1.5 * 86_400.0),
        "sanity must fire during the fault"
    );
    // overall error distribution still healthy
    let p = Percentiles::from_data(&errs).unwrap();
    assert!(p.p99.abs() < 2e-3, "worst case {:.3} ms", p.p99 * 1e3);
    assert!(p.p50.abs() < 80e-6);
}

#[test]
fn route_change_cycle_detect_and_rebase() {
    // up-shift then later a downward shift back: the clock must detect the
    // first and silently absorb the second.
    let mut cfg = ClockConfig::paper_defaults(64.0);
    cfg.tau_prime = 2.0 * cfg.tau_star;
    let sc = Scenario::baseline(1006)
        .with_poll_period(64.0)
        .with_duration(6.0 * 86_400.0)
        .with_shift(LevelShift::forward_only(2.0 * 86_400.0, None, 0.9e-3))
        .with_shift(LevelShift {
            at: 4.0 * 86_400.0,
            until: None,
            fwd: -0.9e-3,
            back: 0.0,
        });
    let (_, _, events) = run(&sc, cfg);
    let upshifts: Vec<f64> = events
        .iter()
        .filter(|(_, e)| *e == ClockEvent::UpwardShift)
        .map(|(t, _)| *t)
        .collect();
    assert!(
        upshifts.iter().any(|&t| t > 2.0 * 86_400.0 && t < 2.3 * 86_400.0),
        "upward shift must be detected shortly after day 2: {upshifts:?}"
    );
    let newmins_after_day4 = events
        .iter()
        .filter(|(t, e)| *e == ClockEvent::NewRttMinimum && *t > 4.0 * 86_400.0)
        .count();
    assert!(
        newmins_after_day4 >= 1,
        "the downward return must register as a new minimum"
    );
}

#[test]
fn long_run_with_window_slides_stays_accurate() {
    // Use a small top window so slides happen many times in a short run.
    let mut cfg = ClockConfig::paper_defaults(16.0);
    cfg.top_window = 6.0 * 3600.0; // slide every 3 h
    let sc = Scenario::baseline(1007).with_duration(3.0 * 86_400.0);
    let (errs, _, events) = run(&sc, cfg);
    let slides = events
        .iter()
        .filter(|(_, e)| *e == ClockEvent::WindowSlid)
        .count();
    assert!(slides >= 10, "expected many slides, got {slides}");
    let p = Percentiles::from_data(&errs).unwrap();
    assert!(
        p.p50.abs() < 80e-6,
        "median with frequent slides: {:.1} µs",
        p.p50 * 1e6
    );
}

#[test]
fn deterministic_end_to_end() {
    let sc = Scenario::baseline(1008).with_duration(86_400.0);
    let (a, _, _) = run(&sc, ClockConfig::paper_defaults(16.0));
    let (b, _, _) = run(&sc, ClockConfig::paper_defaults(16.0));
    assert_eq!(a, b, "identical seeds must give identical results");
}

#[test]
fn local_rate_configuration_also_converges() {
    let mut cfg = ClockConfig::paper_defaults(16.0);
    cfg.use_local_rate = true;
    let sc = Scenario::baseline(1009).with_duration(4.0 * 86_400.0);
    let (errs, clock, _) = run(&sc, cfg);
    assert!(clock.status().p_local.is_some(), "local rate must activate");
    let p = Percentiles::from_data(&errs).unwrap();
    assert!(p.p50.abs() < 60e-6);
}

#[test]
fn swclock_baseline_is_worse_on_the_same_trace() {
    use tscclock_repro::experiments::{baseline, ExpOptions};
    // Under calm conditions SW-NTP is serviceable ("for many purposes this
    // SW-NTP clock ... works well", §1) — but on the same trace the
    // feed-forward clock must still be clearly tighter.
    let r = baseline::run(ExpOptions {
        seed: 1010,
        full: false,
    });
    let sw_iqr = r.get("sw_iqr_us").unwrap();
    let tsc_iqr = r.get("tsc_iqr_us").unwrap();
    assert!(
        sw_iqr > 2.0 * tsc_iqr,
        "feed-forward clock must beat the feedback baseline: {sw_iqr:.1} vs {tsc_iqr:.1} µs"
    );
}
