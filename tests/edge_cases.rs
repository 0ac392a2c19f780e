//! Edge-case and failure-injection tests across the workspace.

use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::netsim::Scenario;
use tscclock_repro::osc::{Environment, Oscillator, TscCounter};

const P_TRUE: f64 = 1.0000524e-9;

fn ex(t: f64, q: f64) -> RawExchange {
    let d = 450e-6;
    RawExchange {
        ta_tsc: (t / P_TRUE).round() as u64,
        tb: t + d + q,
        te: t + d + q + 20e-6,
        tf_tsc: ((t + 2.0 * d + 20e-6 + q) / P_TRUE).round() as u64,
    }
}

#[test]
fn clock_reads_are_none_before_alignment() {
    let clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    assert!(clock.absolute_time(123).is_none());
    assert!(clock.uncorrected_time(123).is_none());
    assert!(clock.difference_seconds(0, 1).is_none());
    assert!(clock.status().theta_hat.is_none());
}

#[test]
fn duplicate_exchanges_do_not_poison_the_clock() {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let e = ex(16.0, 0.0);
    clock.process(e);
    clock.process(ex(32.0, 0.0));
    // replay the same packet several times (e.g. a buggy feeder)
    for _ in 0..5 {
        clock.process(ex(48.0, 0.0));
    }
    for k in 4..200 {
        clock.process(ex(k as f64 * 16.0, 10e-6));
    }
    let p = clock.status().p_hat.unwrap();
    assert!(
        ((p - P_TRUE) / P_TRUE).abs() < 1e-6,
        "duplicates must not derail the rate"
    );
}

#[test]
fn non_monotone_counter_exchange_is_rejected() {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    clock.process(ex(16.0, 0.0));
    clock.process(ex(32.0, 0.0));
    let before = clock.status().packets;
    // tf before ta: impossible packet
    let bad = RawExchange {
        ta_tsc: 1_000_000,
        tb: 50.0,
        te: 50.1,
        tf_tsc: 999_999,
    };
    assert!(clock.process(bad).is_none());
    assert_eq!(clock.status().packets, before);
}

#[test]
fn extreme_polling_periods_work() {
    for poll in [1.0, 4096.0] {
        let cfg = ClockConfig::paper_defaults(poll);
        assert!(cfg.validate().is_ok(), "poll {poll}");
        let mut clock = TscNtpClock::new(cfg);
        for k in 1..200u64 {
            clock.process(ex(k as f64 * poll, 5e-6));
        }
        let p = clock.status().p_hat.expect("estimates exist");
        assert!(((p - P_TRUE) / P_TRUE).abs() < 1e-5, "poll {poll}");
    }
}

#[test]
fn scenario_shorter_than_poll_yields_nothing() {
    let sc = Scenario::baseline(7)
        .with_poll_period(64.0)
        .with_duration(32.0);
    assert!(sc.run().is_empty());
}

#[test]
fn oscillator_counter_is_monotone_across_environment_presets() {
    for env in [
        Environment::Laboratory,
        Environment::MachineRoom,
        Environment::Airconditioned,
    ] {
        let mut counter = TscCounter::new(1e9, 0, env.build(3));
        let mut last = 0u64;
        for i in 1..2000 {
            let v = counter.read(i as f64 * 7.3);
            assert!(v > last, "{}: counter not monotone", env.name());
            last = v;
        }
    }
}

#[test]
fn perfect_oscillator_means_perfect_difference_clock() {
    // all-zero noise components: the clock should nail intervals exactly
    let mut osc = Oscillator::new(vec![], 0);
    assert_eq!(osc.advance_to(1e5), 0.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let mk = |t: f64| RawExchange {
        ta_tsc: (t * 1e9) as u64,
        tb: t + 450e-6,
        te: t + 470e-6,
        tf_tsc: ((t + 940e-6) * 1e9) as u64,
    };
    for k in 1..100 {
        clock.process(mk(k as f64 * 16.0));
    }
    let dt = clock.difference_seconds(0, 1_000_000_000).unwrap();
    assert!((dt - 1.0).abs() < 1e-9, "perfect counter interval: {dt}");
}

#[test]
fn all_lost_after_warmup_keeps_last_estimates() {
    // total connectivity loss: "the current value of p̂ remains valid"
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    for k in 1..300u64 {
        clock.process(ex(k as f64 * 16.0, 10e-6));
    }
    let before = clock.status();
    // nothing arrives for a long time; reading the clock must still work
    let far_future_tsc = (1e6 / P_TRUE) as u64;
    let ca = clock.absolute_time(far_future_tsc).unwrap();
    assert!(ca.is_finite());
    assert_eq!(clock.status().p_hat, before.p_hat);
}

#[test]
fn negative_server_residence_rejected() {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    clock.process(ex(16.0, 0.0));
    clock.process(ex(32.0, 0.0));
    let n = clock.status().packets;
    let mut bad = ex(48.0, 0.0);
    bad.te = bad.tb - 1.0; // server "transmitted before receiving"
    assert!(clock.process(bad).is_none());
    assert_eq!(clock.status().packets, n);
}

#[test]
fn asymmetry_estimator_tracks_configured_delta() {
    use tscclock_repro::clock::asym::{estimate_asymmetry, RefExchange};
    use tscclock_repro::netsim::ServerKind;
    // cross-validate the §4.2 estimator against all three presets
    for kind in [ServerKind::Loc, ServerKind::Ext] {
        let sc = Scenario::baseline(99)
            .with_server(kind)
            .with_duration(86_400.0);
        let refs: Vec<RefExchange> = sc
            .run()
            .iter()
            .filter(|e| !e.lost)
            .map(|e| RefExchange {
                ex: RawExchange {
                    ta_tsc: e.ta_tsc,
                    tb: e.tb,
                    te: e.te,
                    tf_tsc: e.tf_tsc,
                },
                tg: e.tg,
            })
            .collect();
        let d = estimate_asymmetry(&refs, 1e-9, 0.01).unwrap();
        let expect = kind.facts().asymmetry;
        assert!(
            (d - expect).abs() < 0.5 * expect + 30e-6,
            "{}: estimated {d}, expected {expect}",
            kind.name()
        );
    }
}

#[test]
fn histogram_and_percentiles_agree_on_simulated_errors() {
    use tscclock_repro::stats::{Histogram, Percentiles};
    let sc = Scenario::baseline(123).with_duration(86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let mut errs = Vec::new();
    for e in sc.stream() {
        if e.lost {
            continue;
        }
        if clock
            .process(RawExchange {
                ta_tsc: e.ta_tsc,
                tb: e.tb,
                te: e.te,
                tf_tsc: e.tf_tsc,
            })
            .is_some()
        {
            if let Some(ca) = clock.absolute_time(e.tf_tsc) {
                errs.push(ca - e.tg);
            }
        }
    }
    let p = Percentiles::from_data(&errs).unwrap();
    let h = Histogram::auto(&errs, 50).unwrap();
    // the histogram's modal bin must sit inside the inter-quartile range
    let mode_centre = h.bin_center(h.mode_bin().unwrap());
    assert!(
        mode_centre >= p.p01 && mode_centre <= p.p99,
        "mode {mode_centre} outside [{}, {}]",
        p.p01,
        p.p99
    );
}

/// The serving plane and the client lifecycle state one bound policy in
/// two config types (ROADMAP 3(d)); until they share one, the defaults
/// must not drift apart.
#[test]
fn serve_and_lifecycle_bound_policies_agree() {
    use tscclock_repro::fleet::LifecycleConfig;
    use tscclock_repro::serve::{PublishPolicy, ServeConfig};

    let client = LifecycleConfig::defaults(16.0);
    let publish = PublishPolicy::default();
    assert_eq!(client.bound_floor, publish.bound_floor);
    assert_eq!(client.widen_rate, publish.widen_rate);
    assert_eq!(client.stale_horizon, ServeConfig::default().stale_horizon);
}
