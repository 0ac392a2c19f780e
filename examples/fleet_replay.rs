//! Fleet replay demo: drive hundreds of independent TSC-NTP clocks, each
//! against its own seeded network simulation, across the work-claiming
//! thread pool — and verify the run is deterministic.
//!
//!     cargo run --release --example fleet_replay [clocks] [threads]

use tscclock_repro::clock::ClockConfig;
use tscclock_repro::fleet::{replay, total_delivered, FleetConfig, WorkerPool};
use tscclock_repro::netsim::Scenario;

fn main() {
    let mut args = std::env::args().skip(1);
    let clocks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    // Each clock polls ServerInt every 64 s for half a simulated day.
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 675.0);
    let cfg = FleetConfig::new(clocks, 2024, scenario, ClockConfig::paper_defaults(64.0));

    let mut pool = WorkerPool::new(threads);
    let t0 = std::time::Instant::now();
    let summaries = replay(Some(&mut pool), &cfg);
    let dt = t0.elapsed();

    let packets = total_delivered(&summaries);
    println!(
        "replayed {clocks} clocks / {packets} packets on {threads} threads in {:.2?} ({:.2} M packets/s aggregate)",
        dt,
        packets as f64 / dt.as_secs_f64() / 1e6,
    );

    // Fleet-wide view of the final estimates.
    let p_true = 1e-9; // nominal 1 GHz; true skew is per-clock
    let mut worst_rel = 0.0f64;
    for s in &summaries {
        let p = s.p_hat.expect("every clock must converge");
        worst_rel = worst_rel.max(((p - p_true) / p_true).abs());
    }
    println!(
        "every clock converged; worst |p̂ − 1 ns|/1 ns across the fleet: {:.1} PPM (true skew ≈ 52.4 PPM)",
        worst_rel * 1e6
    );

    // Determinism: a second replay — any thread count — matches bit for bit.
    let mut pool2 = WorkerPool::new((threads % 8) + 1);
    let again = replay(Some(&mut pool2), &cfg);
    assert_eq!(summaries, again, "fleet replay must be deterministic");
    println!(
        "re-replay on {} threads: all {} digests identical ✓",
        pool2.threads(),
        again.len()
    );
}
