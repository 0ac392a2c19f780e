//! One-way delay measurement — the paper's motivating application (§1).
//!
//! ```sh
//! cargo run --release --example oneway_delay
//! ```
//!
//! Measuring a one-way delay needs an *absolute* clock ("the SW-NTP clock
//! is an absolute clock only" — and the difference clock fundamentally
//! cannot do it, §2.2). Here the host measures the forward one-way delay of
//! each NTP packet, `d→ᵢ = Tb,i − Ca(Ta,i)`, and we compare against the
//! simulator's ground truth — exactly the measurement RIPE-NCC-style
//! testboxes buy GPS hardware for. We also show why the *difference* clock
//! is the right tool for round-trip times.

use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::netsim::Scenario;
use tscclock_repro::stats::Percentiles;

fn main() {
    let scenario = Scenario::baseline(77).with_duration(3.0 * 86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(scenario.poll_period));

    let mut owd_errors = Vec::new();
    let mut rtt_errors = Vec::new();
    let mut n = 0usize;
    for e in scenario.stream() {
        if e.lost {
            continue;
        }
        let raw = RawExchange {
            ta_tsc: e.ta_tsc,
            tb: e.tb,
            te: e.te,
            tf_tsc: e.tf_tsc,
        };
        if clock.process(raw).is_none() {
            continue;
        }
        n += 1;
        if n < 2000 {
            continue; // let the clock warm up
        }
        // One-way delay via the ABSOLUTE clock: d→ = Tb − Ca(Ta).
        if let Some(ca_ta) = clock.absolute_time(e.ta_tsc) {
            let owd = e.tb - ca_ta;
            // truth: the send latency consumed part of the gap Ta→departure
            let true_owd = e.truth.tb - e.poll_time;
            owd_errors.push(owd - true_owd);
        }
        // Round-trip time via the DIFFERENCE clock: no offset needed.
        let rtt = clock.difference_seconds(e.ta_tsc, e.tf_tsc).unwrap();
        let true_rtt = e.truth.tf + (e.tg - e.truth.tf) - e.poll_time; // ≈ tf − ta + latencies
        let _ = true_rtt;
        let exact_rtt = e.truth.rtt();
        // measured rtt includes host send/recv latencies; compare loosely
        rtt_errors.push(rtt - exact_rtt);
    }

    let po = Percentiles::from_data(&owd_errors).expect("data");
    let pr = Percentiles::from_data(&rtt_errors).expect("data");
    println!("--- one-way delay measurement (absolute clock) ---");
    println!("samples          : {}", owd_errors.len());
    println!("median error     : {:8.1} µs", po.p50 * 1e6);
    println!("IQR              : {:8.1} µs", po.iqr() * 1e6);
    println!("p1..p99          : [{:.1}, {:.1}] µs", po.p01 * 1e6, po.p99 * 1e6);
    println!();
    println!("--- round-trip measurement (difference clock) ---");
    println!("median excess    : {:8.1} µs (host timestamping latencies)", pr.p50 * 1e6);
    println!("IQR              : {:8.1} µs", pr.iqr() * 1e6);
    println!();
    println!("The OWD errors are dominated by the path-asymmetry ambiguity");
    println!("Δ/2 ≈ 25 µs (§4.2) — far better than the ms-scale errors of the");
    println!("SW-NTP clock, and achieved with zero extra hardware.");
}
