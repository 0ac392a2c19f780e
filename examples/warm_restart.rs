//! Warm restart: survive a daemon crash without losing the clock.
//!
//! ```sh
//! cargo run --release --example warm_restart
//! ```
//!
//! The paper's algorithm earns its accuracy slowly — the rate estimate p̂
//! sharpens over hours of history windows. A daemon that crashes at noon
//! and cold-starts therefore re-pays the whole warm-up price. This
//! example runs one simulated day, "crashes" halfway through, and
//! restarts twice from the same instant:
//!
//! * **warm** — restored from the snapshot the daemon sealed just before
//!   dying; by the resume-exactness contract it continues *bit-for-bit*
//!   as if the crash never happened;
//! * **cold** — a fresh clock, which must re-learn rate and offset from
//!   scratch while the warm clock keeps serving microsecond time.
//!
//! Act two scales the same story to a fleet: a crash-injected
//! checkpointed replay whose recovery accounting — crashes, warm
//! restores, cold restarts, replayed packets, snapshot seal/restore
//! latency histograms — is read back from the telemetry registry
//! (`cargo run --release --features telemetry --example warm_restart`)
//! rather than ad-hoc prints.

use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::fleet::{replay, replay_interrupted, CrashPlan, FleetConfig, WorkerPool};
use tscclock_repro::netsim::Scenario;
use tscclock_repro::telemetry;

fn main() {
    let scenario = Scenario::baseline(2004).with_duration(86_400.0);
    let crash_t = 43_200.0; // noon
    let mut reference = TscNtpClock::new(ClockConfig::paper_defaults(scenario.poll_period));

    println!("running until the crash at t = {crash_t} s...");
    let mut snapshot: Vec<u8> = Vec::new();
    let mut warm: Option<TscNtpClock> = None;
    let mut cold: Option<TscNtpClock> = None;
    let mut warm_err = Vec::new();
    let mut cold_err = Vec::new();
    let mut divergences = 0u64;
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
        if e.tg >= crash_t && warm.is_none() {
            // The daemon dies here. Its last checkpoint is `snapshot` —
            // sealed bytes with a version header and checksum, exactly
            // what a restart finds on disk.
            println!(
                "crash!  restoring a warm clock from a {} byte snapshot, \
                 and cold-starting a rival\n",
                snapshot.len()
            );
            warm = Some(TscNtpClock::restore(&snapshot).expect("the snapshot is intact"));
            cold = Some(TscNtpClock::new(ClockConfig::paper_defaults(scenario.poll_period)));
        }
        let out = reference.process(raw);
        match (&mut warm, &mut cold) {
            (Some(w), Some(c)) => {
                // the warm clock must shadow the never-crashed reference
                let w_out = w.process(raw);
                divergences += u64::from(format!("{w_out:?}") != format!("{out:?}"));
                c.process(raw);
                if let (Some(wt), Some(n)) = (w.absolute_time(e.tf_tsc), Some(e.tg)) {
                    warm_err.push((n - crash_t, (wt - n).abs()));
                }
                if let Some(ct) = c.absolute_time(e.tf_tsc) {
                    cold_err.push((e.tg - crash_t, (ct - e.tg).abs()));
                }
            }
            _ => {
                // pre-crash: the daemon checkpoints after every exchange
                snapshot = reference.snapshot();
            }
        }
    }

    println!("--- convergence after the restart (absolute clock error) ---");
    println!("{:>12} {:>14} {:>14}", "t since", "warm", "cold");
    for window in [60.0, 600.0, 3600.0, 4.0 * 3600.0, 12.0 * 3600.0] {
        let med = |errs: &[(f64, f64)]| {
            let mut v: Vec<f64> = errs
                .iter()
                .filter(|(dt, _)| *dt <= window && *dt > window / 4.0)
                .map(|(_, e)| e)
                .copied()
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.get(v.len() / 2).copied()
        };
        match (med(&warm_err), med(&cold_err)) {
            (Some(w), Some(c)) => println!(
                "{:>10.0} s {:>11.1} µs {:>11.1} µs",
                window,
                w * 1e6,
                c * 1e6
            ),
            _ => println!("{window:>10.0} s  (no accepted samples yet)"),
        }
    }
    println!(
        "\nwarm clock vs never-crashed reference: {} divergent outputs \
         across {} post-crash packets (resume ≡ uninterrupted)",
        divergences,
        warm_err.len()
    );
    let worst_warm = warm_err
        .iter()
        .filter(|(dt, _)| *dt < 600.0)
        .map(|(_, e)| *e)
        .fold(0.0f64, f64::max);
    println!(
        "worst warm-clock error in the first 10 min after restart: {:.1} µs \
         — the cold clock has no absolute time at all until it re-aligns",
        worst_warm * 1e6
    );
    assert_eq!(divergences, 0, "warm restart must be bit-exact");

    // --- act two: a crash-injected fleet, audited via the telemetry plane ---
    let fleet_scenario = Scenario::baseline(7)
        .with_poll_period(64.0)
        .with_duration(64.0 * 400.0);
    let cfg = FleetConfig::new(32, 11, fleet_scenario, ClockConfig::paper_defaults(64.0));
    let crash = CrashPlan {
        seed: 5,
        crash_frac: 0.75,
        max_crashes: 3,
        horizon_packets: 360,
    };
    println!("\nreplaying a fleet of {} clocks under an adversarial crash schedule...", cfg.clocks);
    let expected = replay(None, &cfg);
    let mut pool = WorkerPool::new(4);
    let (got, stats) = replay_interrupted(Some(&mut pool), &cfg, 64, &crash);
    assert_eq!(got, expected, "checkpointed fleet replay must be bit-exact");
    println!(
        "{} crashes → {} warm restores, {} cold restarts, {} packets replayed; \
         every digest identical to the uninterrupted run",
        stats.crashes, stats.warm_restores, stats.cold_restarts, stats.replayed
    );
    if stats.cold_restarts > 0 {
        // the post-mortem trail of every restart that fell back to cold
        eprintln!("{}", telemetry::flight_dump());
    }
    if telemetry::TELEMETRY_COMPILED {
        // The same accounting, read back from the registry: the recovery
        // counters plus the snapshot seal/restore latency histograms the
        // checkpoint path fed while act one and the fleet ran.
        println!("\n--- telemetry exposition ---");
        print!("{}", telemetry::prometheus());
    } else {
        println!(
            "\n(build with `--features telemetry` to read this accounting back \
             from the metrics registry: recovery counters plus snapshot \
             seal/restore latency histograms)"
        );
    }
}
