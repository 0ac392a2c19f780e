//! Benches the online clock pipeline itself: per-packet processing cost,
//! clock reads, and the component estimators — the numbers that matter for
//! a production daemon (one packet per 16–1024 s leaves enormous headroom,
//! but the library should still be cheap enough for dense offline replay of
//! months of traces).
//!
//! The `*_reference` benches run the preserved pre-optimization pipeline
//! (`tscclock::reference`, naive O(window) rescans) over identical inputs,
//! so the speedup of the O(1)-amortized rework is measured directly. The
//! month-long replays exercise the top-window slides and re-basing paths
//! that a single day at 16 s polling never reaches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tsc_netsim::Scenario;
use tscclock::reference::{RefHistory, ReferenceClock};
use tscclock::{ClockConfig, History, RawExchange, TscNtpClock};

/// Pre-generates `days` of exchanges (the simulator is not measured).
fn days_of_exchanges(seed: u64, poll: f64, days: f64) -> Vec<RawExchange> {
    Scenario::baseline(seed)
        .with_poll_period(poll)
        .with_duration(days * 86_400.0)
        .run()
        .into_iter()
        .filter(|e| !e.lost)
        .map(|e| RawExchange {
            ta_tsc: e.ta_tsc,
            tb: e.tb,
            te: e.te,
            tf_tsc: e.tf_tsc,
        })
        .collect()
}

fn day_of_exchanges(seed: u64, poll: f64) -> Vec<RawExchange> {
    days_of_exchanges(seed, poll, 1.0)
}

fn bench_process(c: &mut Criterion) {
    let exchanges = day_of_exchanges(1, 16.0);
    let mut g = c.benchmark_group("clock_pipeline");
    g.throughput(Throughput::Elements(exchanges.len() as u64));
    g.bench_function("process_one_day_of_packets", |b| {
        b.iter_batched(
            || TscNtpClock::new(ClockConfig::paper_defaults(16.0)),
            |mut clock| {
                for e in &exchanges {
                    std::hint::black_box(clock.process(*e));
                }
                clock.status().packets
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("process_one_day_of_packets_reference", |b| {
        b.iter_batched(
            || ReferenceClock::new(ClockConfig::paper_defaults(16.0)),
            |mut clock| {
                let mut n = 0u64;
                for e in &exchanges {
                    if std::hint::black_box(clock.process(*e)).is_some() {
                        n += 1;
                    }
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Month-of-traces replay: 30 days of polling. At 16 s this is ~162k
/// packets against the paper-default one-week top window (37 800 packets),
/// so the window slides repeatedly and the minimum-maintenance / re-basing
/// machinery is fully engaged; at 1024 s it covers the coarse-polling
/// configuration of Figure 9(c).
fn bench_month_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("clock_pipeline_month");
    g.sample_size(10);
    for (label, poll) in [("poll16", 16.0), ("poll1024", 1024.0)] {
        let exchanges = days_of_exchanges(11, poll, 30.0);
        g.throughput(Throughput::Elements(exchanges.len() as u64));
        g.bench_function(format!("process_one_month_{label}"), |b| {
            b.iter_batched(
                || TscNtpClock::new(ClockConfig::paper_defaults(poll)),
                |mut clock| {
                    for e in &exchanges {
                        std::hint::black_box(clock.process(*e));
                    }
                    clock.status().packets
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("process_one_month_{label}_reference"), |b| {
            b.iter_batched(
                || ReferenceClock::new(ClockConfig::paper_defaults(poll)),
                |mut clock| {
                    let mut n = 0u64;
                    for e in &exchanges {
                        if std::hint::black_box(clock.process(*e)).is_some() {
                            n += 1;
                        }
                    }
                    n
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// `History::push` in isolation, at full window with continuous slides and
/// a worst-case descending-RTT stream (every packet a new minimum: the
/// seed implementation swept the whole deque per packet here).
fn bench_history_push(c: &mut Criterion) {
    let cap = ClockConfig::paper_defaults(16.0).top_packets(); // 37 800
    let n = 8 * cap; // several slides per run
    let mk = |i: u64, rtt: u64| RawExchange {
        ta_tsc: i * 16_000_000_000,
        tb: i as f64 * 16.0 + 0.0005,
        te: i as f64 * 16.0 + 0.00052,
        tf_tsc: i * 16_000_000_000 + rtt,
    };
    let mut g = c.benchmark_group("history_push");
    g.throughput(Throughput::Elements(n as u64));
    // stationary RTTs: the common case
    g.bench_function("stationary", |b| {
        b.iter_batched(
            || History::new(cap),
            |mut h| {
                for i in 0..n as u64 {
                    let rtt = 900_000 + (i * 2_654_435_761) % 300_000; // noise
                    std::hint::black_box(h.push(mk(i, rtt)));
                }
                h.len()
            },
            BatchSize::SmallInput,
        )
    });
    // slowly descending minima: every ~16th packet improves r̂
    g.bench_function("descending_minima", |b| {
        b.iter_batched(
            || History::new(cap),
            |mut h| {
                for i in 0..n as u64 {
                    let base = 2_000_000u64.saturating_sub(i * 4);
                    let rtt = base + if i % 16 == 0 { 0 } else { 500_000 };
                    std::hint::black_box(h.push(mk(i, rtt)));
                }
                h.len()
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("descending_minima_reference", |b| {
        b.iter_batched(
            || RefHistory::new(cap),
            |mut h| {
                for i in 0..n as u64 {
                    let base = 2_000_000u64.saturating_sub(i * 4);
                    let rtt = base + if i % 16 == 0 { 0 } else { 500_000 };
                    std::hint::black_box(h.push(mk(i, rtt)));
                }
                h.len()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_reads(c: &mut Criterion) {
    let exchanges = day_of_exchanges(2, 16.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    for e in &exchanges {
        clock.process(*e);
    }
    let tsc = exchanges.last().unwrap().tf_tsc;
    let mut g = c.benchmark_group("clock_reads");
    g.bench_function("absolute_time", |b| {
        b.iter(|| std::hint::black_box(clock.absolute_time(std::hint::black_box(tsc))))
    });
    g.bench_function("difference_seconds", |b| {
        b.iter(|| {
            std::hint::black_box(
                clock.difference_seconds(std::hint::black_box(tsc - 1_000_000), tsc),
            )
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);
    g.bench_function("one_simulated_day_poll16", |b| {
        b.iter(|| {
            let n = Scenario::baseline(3)
                .with_poll_period(16.0)
                .with_duration(86_400.0)
                .run()
                .len();
            std::hint::black_box(n)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_process,
    bench_month_replay,
    bench_history_push,
    bench_reads,
    bench_simulator
);
criterion_main!(benches);
