//! Quickstart: build a TSC-NTP clock from a day of simulated NTP exchanges
//! and read both of its faces.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The scenario reproduces the paper's main configuration: a machine-room
//! host polling the nearby stratum-1 ServerInt every 16 seconds (§2.3). The
//! example prints the clock's convergence and final accuracy against the
//! simulated DAG reference — the paper's "actual performance" metric.

use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::netsim::Scenario;

fn main() {
    // One simulated day, 16 s polling, deterministic seed.
    let scenario = Scenario::baseline(2004).with_duration(86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(scenario.poll_period));

    println!("feeding one day of NTP exchanges through the TSC-NTP clock...\n");
    let mut errors = Vec::new();
    let mut last_tf = 0u64;
    for e in scenario.stream() {
        if e.lost {
            continue; // §6.1: lost packets are simply excluded
        }
        let raw = RawExchange {
            ta_tsc: e.ta_tsc,
            tb: e.tb,
            te: e.te,
            tf_tsc: e.tf_tsc,
        };
        if clock.process(raw).is_none() {
            continue; // first packet: estimates need two
        }
        last_tf = e.tf_tsc;
        // Absolute-clock error vs the (simulated) GPS-synchronized DAG card.
        if let Some(ca) = clock.absolute_time(e.tf_tsc) {
            errors.push(ca - e.tg);
        }
        let n = errors.len();
        if n.is_power_of_two() && n >= 8 {
            println!(
                "after {n:5} packets: clock error = {:8.1} µs",
                errors.last().unwrap() * 1e6
            );
        }
    }

    let status = clock.status();
    println!("\n--- final clock state ---");
    println!("rate estimate p̂        : {:.9e} s/count", status.p_hat.unwrap());
    println!("rate quality bound     : {:.2e} (relative)", status.p_quality);
    println!("offset estimate θ̂      : {:.1} µs", status.theta_hat.unwrap() * 1e6);
    println!("minimum RTT r̂          : {:.3} ms", status.rtt_min.unwrap() * 1e3);

    // The difference clock: a 10-second interval measured in counter units.
    let ten_s_earlier = last_tf - 10_000_000_000; // 1e10 counts at ~1 GHz
    let dt = clock.difference_seconds(ten_s_earlier, last_tf).unwrap();
    // truth: the counter runs at 1 GHz · (1 + 52.4 PPM), so 1e10 counts
    // really took 10 / 1.0000524 seconds
    let true_dt = 10.0 / (1.0 + 52.4e-6);
    println!(
        "difference clock: 1e10 counts read as {:.9} s (error {:.3} µs — \
         sub-µs interval accuracy, §5.2)",
        dt,
        (dt - true_dt).abs() * 1e6
    );

    // Steady-state accuracy, skipping warm-up.
    let steady = &errors[errors.len() / 4..];
    let mut sorted = steady.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = sorted[sorted.len() / 2];
    let iqr = sorted[sorted.len() * 3 / 4] - sorted[sorted.len() / 4];
    println!("\n--- accuracy vs reference (steady state) ---");
    println!("median error : {:.1} µs   (paper: ~30 µs, §5.3/Figure 12)", med * 1e6);
    println!("IQR          : {:.1} µs   (paper: 15-25 µs)", iqr * 1e6);
}
