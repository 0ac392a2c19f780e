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

/// The configurations the hostile-word restore sweep reached, and their
/// neighbours: each must fail `validate()`. Before validation was total,
/// `poll_period: 1e-300` passed and `TscNtpClock::new` then panicked on
/// capacity overflow, and a negative `shift_mult` panicked the shift
/// detector's constructor.
#[test]
fn hostile_configs_fail_validation() {
    type Edit = fn(&mut ClockConfig);
    let hostile: [(&str, Edit); 26] = [
        ("poll 1e-300", |c| c.poll_period = 1e-300),
        ("poll subnormal", |c| c.poll_period = f64::from_bits(1)),
        ("poll 0", |c| c.poll_period = 0.0),
        ("poll -16", |c| c.poll_period = -16.0),
        ("poll NaN", |c| c.poll_period = f64::NAN),
        ("poll ∞", |c| c.poll_period = f64::INFINITY),
        ("shift_mult -4", |c| c.shift_mult = -4.0),
        ("shift_mult NaN", |c| c.shift_mult = f64::NAN),
        ("4E underflows", |c| {
            c.shift_mult = f64::from_bits(1);
            c.quality_scale = 1e-300;
        }),
        ("ts_window -1", |c| c.ts_window = -1.0),
        ("ts_window NaN", |c| c.ts_window = f64::NAN),
        ("ts_window 1e300", |c| c.ts_window = 1e300),
        ("aging_rate -ε", |c| c.aging_rate = -0.02e-6),
        ("aging_rate NaN", |c| c.aging_rate = f64::NAN),
        ("gamma_star 0", |c| c.gamma_star = 0.0),
        ("rate_sanity NaN", |c| c.rate_sanity = f64::NAN),
        ("offset_sanity -1", |c| c.offset_sanity = -1.0),
        ("fallback_mult NaN", |c| c.fallback_mult = f64::NAN),
        ("fallback_mult ∞", |c| c.fallback_mult = f64::INFINITY),
        ("tau_prime 1e300", |c| c.tau_prime = 1e300),
        ("tau_bar NaN", |c| c.tau_bar = f64::NAN),
        ("top_window ∞", |c| c.top_window = f64::INFINITY),
        ("delta NaN", |c| c.delta = f64::NAN),
        ("e_star -E*", |c| c.e_star = -300e-6),
        ("warmup usize::MAX", |c| c.warmup_packets = usize::MAX),
        ("w_split usize::MAX", |c| c.w_split = usize::MAX),
    ];
    for (what, edit) in hostile {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        edit(&mut cfg);
        assert!(cfg.validate().is_err(), "{what} passed validation");
    }
}

/// A grid of configurations at the edges of what validation accepts —
/// polls from the live demo's 0.02 s to 10⁶ s, thresholds near zero and
/// large, the smallest and larger splits and warm-ups — all build a clock
/// that takes a few hundred packets without a panic.
#[test]
fn every_accepted_config_in_a_grid_builds_and_runs() {
    type Edit = fn(&mut ClockConfig);
    let edits: [Edit; 6] = [
        |_| {},
        |c| c.use_local_rate = true,
        |c| {
            c.shift_mult = 1e-9;
            c.gamma_star = f64::MIN_POSITIVE;
            c.rate_sanity = 1e3;
            c.offset_sanity = f64::MIN_POSITIVE;
            c.aging_rate = 0.0;
        },
        |c| {
            c.w_split = 3;
            c.warmup_packets = 0;
            c.tau_prime = f64::MIN_POSITIVE;
        },
        |c| {
            c.w_split = 1 << 20;
            c.warmup_packets = 1 << 20;
            c.use_local_rate = true;
        },
        |c| {
            c.fallback_mult = 1e9;
            c.e_star = 1e6;
            c.quality_scale = 1e-12;
        },
    ];
    for poll in [0.02, 1.0, 16.0, 1024.0, 1e6] {
        for (k, edit) in edits.iter().enumerate() {
            let mut cfg = ClockConfig::paper_defaults(poll);
            edit(&mut cfg);
            assert!(cfg.validate().is_ok(), "poll {poll}, edit {k}");
            let mut clock = TscNtpClock::new(cfg);
            for i in 1..300u64 {
                clock.process(ex(i as f64 * poll, (i % 7) as f64 * 30e-6));
            }
            let _ = clock.absolute_time(ex(300.0 * poll, 0.0).tf_tsc);
        }
    }
}

/// An infinite server stamp passes `is_causal` (`Te ≥ Tb` holds) but not
/// admission: a cold clock must wait for a usable pair, not process a
/// packet without a period.
#[test]
fn an_infinite_server_stamp_cannot_panic_a_cold_clock() {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let mut inf = ex(16.0, 0.0);
    (inf.tb, inf.te) = (f64::INFINITY, f64::INFINITY);
    assert!(clock.process(ex(0.0, 0.0)).is_none());
    assert!(clock.process(inf).is_none(), "no bootstrap from an infinite period");
    for k in 2..40 {
        clock.process(ex(k as f64 * 16.0, 10e-6));
    }
    assert!(clock.absolute_time(ex(40.0 * 16.0, 0.0).tf_tsc).is_some_and(f64::is_finite));
}

/// A warm clock refuses an exchange with a server stamp that is not
/// finite (`history::admissible`, the rule a restore checks records by),
/// and goes on exactly as if the exchange had never arrived. Admitted, a
/// `Tb = Te = +∞` record froze θ̂ by sanity duplication for a whole τ′
/// window.
#[test]
fn a_warm_clock_refuses_an_infinite_server_stamp_and_runs_on_unchanged() {
    let (inf, neg) = (Some(f64::INFINITY), Some(f64::NEG_INFINITY));
    for (tb, te) in [(inf, inf), (neg, None), (neg, neg), (None, inf)] {
        let cfg = ClockConfig::paper_defaults(16.0);
        let (mut clock, mut clean) = (TscNtpClock::new(cfg), TscNtpClock::new(cfg));
        for k in 0..500u64 {
            if k == 300 {
                let mut bad = ex(k as f64 * 16.0 - 8.0, 0.0);
                (bad.tb, bad.te) = (tb.unwrap_or(bad.tb), te.unwrap_or(bad.te));
                assert!(clock.process(bad).is_none(), "({tb:?}, {te:?}) admitted");
            }
            let e = ex(k as f64 * 16.0, (k % 7) as f64 * 20e-6);
            assert_eq!(clock.process(e), clean.process(e), "packet {k} after ({tb:?}, {te:?})");
        }
    }
}
