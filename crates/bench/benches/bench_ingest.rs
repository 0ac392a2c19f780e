//! Per-stage clock-ingest benchmarks: the per-packet cost of the §5–§6
//! pipeline and of each estimator stage in isolation, at the polling
//! periods that matter (16 s = the paper's setting, 64 s = the fleet
//! benches, 1024 s = the coarse-poll fast paths).
//!
//! Two families:
//!
//! * `ingest_pipeline/*` — one `TscNtpClock` filtering a pre-generated
//!   delivered-exchange stream via the batched ingest path: the end-to-end
//!   per-packet ingest cost with generation excluded (the number the fleet
//!   `fleet_ingest_*` rows aggregate over 1000 clocks).
//! * `ingest_stage/*` — history admission alone, then history + one
//!   estimator at a time (offset / global rate / local rate), isolating
//!   where the per-packet budget goes. Stage costs are read by
//!   subtracting the `history` row (see also the `profile_stages` binary
//!   for a one-shot stdout version).
//!
//! Set `BENCH_JSON=BENCH_ingest.json` for machine-readable rows
//! (mean + median ns, packets/s).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_netsim::Scenario;
use tscclock::{
    ClockConfig, GlobalRate, History, LocalRate, OffsetEstimator, ProcessOutput, RawExchange,
    TscNtpClock,
};

/// Pre-generates the delivered exchanges of a baseline scenario.
fn stream(poll: f64, packets: usize) -> Vec<RawExchange> {
    Scenario::baseline(7)
        .with_poll_period(poll)
        .with_duration(poll * packets as f64)
        .stream()
        .raw()
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_pipeline");
    g.sample_size(10);
    for (label, poll, packets) in [
        ("poll16", 16.0, 30_000usize),
        ("poll64", 64.0, 30_000),
        ("poll1024", 1024.0, 30_000),
    ] {
        let exchanges = stream(poll, packets);
        let cfg = ClockConfig::paper_defaults(poll);
        g.throughput(Throughput::Elements(exchanges.len() as u64));
        g.bench_function(label, |b| {
            let mut out: Vec<ProcessOutput> = Vec::with_capacity(exchanges.len());
            b.iter(|| {
                let mut clock = TscNtpClock::new(cfg);
                out.clear();
                clock.process_batch(&exchanges, &mut out);
                std::hint::black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    for (plabel, poll) in [("poll16", 16.0), ("poll64", 64.0)] {
        let exchanges = stream(poll, 30_000);
        let cfg = ClockConfig::paper_defaults(poll);
        let n = exchanges.len() as u64;
        let p = 1.0000524e-9;
        let c_bar = exchanges[0].server_midpoint() - exchanges[0].host_midpoint_counts() * p;
        let mut g = c.benchmark_group(format!("ingest_stage_{plabel}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(n));
        g.bench_function("history", |b| {
            b.iter(|| {
                let mut h = History::new(cfg.top_packets());
                for e in &exchanges {
                    std::hint::black_box(h.push(*e));
                }
                h.len()
            })
        });
        g.bench_function("history_offset", |b| {
            b.iter(|| {
                let mut h = History::new(cfg.top_packets());
                let mut off = OffsetEstimator::new();
                for e in &exchanges {
                    h.push(*e);
                    let k = h.last().unwrap();
                    std::hint::black_box(off.process(&cfg, &h, &k, p, c_bar, None, false, false));
                }
                h.len()
            })
        });
        g.bench_function("history_rate", |b| {
            b.iter(|| {
                let mut h = History::new(cfg.top_packets());
                let mut gr = GlobalRate::new(cfg.e_star, cfg.warmup_packets);
                for e in &exchanges {
                    h.push(*e);
                    let k = h.last().unwrap();
                    std::hint::black_box(gr.process(&h, &k));
                }
                h.len()
            })
        });
        g.bench_function("history_local_rate", |b| {
            b.iter(|| {
                let mut h = History::new(cfg.top_packets());
                let mut lr = LocalRate::new(
                    cfg.tau_bar_packets(),
                    cfg.w_split,
                    cfg.gamma_star,
                    cfg.rate_sanity,
                    (cfg.warmup_packets + cfg.tau_bar_packets()) as u64,
                    cfg.tau_bar / 2.0,
                );
                for e in &exchanges {
                    h.push(*e);
                    let k = h.last().unwrap();
                    std::hint::black_box(lr.process(&h, &k, p));
                }
                h.len()
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_pipeline, bench_stages);
criterion_main!(benches);
