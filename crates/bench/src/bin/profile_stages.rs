//! Quick stage-level profiler for the per-packet pipeline cost.
//!
//! Prints full-pipeline and per-stage ns/packet rows for each polling
//! period (default: 16 s and 64 s — the paper's setting and the fleet
//! benches' setting; pass explicit periods as arguments to override).
//! The `bench_ingest` criterion target measures the same stages with the
//! harness's statistics; this binary is the one-shot stdout version.
use std::time::Instant;
use tsc_netsim::Scenario;
use tscclock::{
    ClockConfig, GlobalRate, History, LocalRate, OffsetEstimator, RawExchange, TscNtpClock,
};

fn profile(poll: f64) {
    let cfg = ClockConfig::paper_defaults(poll);
    let exchanges: Vec<RawExchange> = Scenario::baseline(1)
        .with_poll_period(poll)
        .with_duration(poll * 30_000.0)
        .stream()
        .raw()
        .collect();
    let n = exchanges.len();

    for round in 0..2 {
        // full pipeline
        let t0 = Instant::now();
        let mut clock = TscNtpClock::new(cfg);
        for e in &exchanges { std::hint::black_box(clock.process(*e)); }
        let full = t0.elapsed();

        // history only
        let t0 = Instant::now();
        let mut h = History::new(cfg.top_packets());
        for e in &exchanges { std::hint::black_box(h.push(*e)); }
        let hist = t0.elapsed();

        // history + offset
        let p = 1.0000524e-9;
        let c_bar = exchanges[0].server_midpoint() - exchanges[0].host_midpoint_counts() * p;
        let t0 = Instant::now();
        let mut h = History::new(cfg.top_packets());
        let mut off = OffsetEstimator::new();
        for e in &exchanges {
            h.push(*e);
            let k = h.last().unwrap();
            std::hint::black_box(off.process(&cfg, &h, &k, p, c_bar, None, false, false));
        }
        let offset = t0.elapsed();

        // history + local rate
        let t0 = Instant::now();
        let mut h = History::new(cfg.top_packets());
        let mut lr = LocalRate::new(cfg.tau_bar_packets(), cfg.w_split, cfg.gamma_star,
            cfg.rate_sanity, (cfg.warmup_packets + cfg.tau_bar_packets()) as u64, cfg.tau_bar / 2.0);
        for e in &exchanges {
            h.push(*e);
            let k = h.last().unwrap();
            std::hint::black_box(lr.process(&h, &k, p));
        }
        let local = t0.elapsed();

        // history + global rate
        let t0 = Instant::now();
        let mut h = History::new(cfg.top_packets());
        let mut gr = GlobalRate::new(cfg.e_star, cfg.warmup_packets);
        for e in &exchanges {
            h.push(*e);
            let k = h.last().unwrap();
            std::hint::black_box(gr.process(&h, &k));
        }
        let rate = t0.elapsed();

        if round == 1 {
            let per = |d: std::time::Duration| d.as_nanos() as f64 / n as f64;
            println!("poll{poll}:");
            println!("  full:          {:7.0} ns/packet", per(full));
            println!("  history only:  {:7.0} ns/packet", per(hist));
            println!("  hist+offset:   {:7.0} ns/packet (offset ≈ {:.0})", per(offset), per(offset) - per(hist));
            println!("  hist+local:    {:7.0} ns/packet (local ≈ {:.0})", per(local), per(local) - per(hist));
            println!("  hist+rate:     {:7.0} ns/packet (rate ≈ {:.0})", per(rate), per(rate) - per(hist));
        }
    }
}

fn main() {
    let polls: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("poll period in seconds"))
        .collect();
    for poll in if polls.is_empty() { vec![16.0, 64.0] } else { polls } {
        profile(poll);
    }
}
