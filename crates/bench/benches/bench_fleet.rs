//! Fleet replay benchmarks: aggregate packets/s for fleets of independent
//! clocks at 1/2/4/8 threads.
//!
//! Two families:
//!
//! * `fleet_replay_*` — the full engine: borrow-streamed scenario
//!   generation feeding the batched ingest path, as production fleet
//!   replay runs it. Generation (ChaCha-driven delay/oscillator sampling)
//!   and filtering share the budget.
//! * `fleet_ingest_*` — consumers only: every clock filters the same
//!   pre-generated exchange stream, isolating the per-packet cost of the
//!   clock pipeline itself at fleet scale.
//!
//! Thread scaling requires physical cores: on a single-core host the
//! multi-thread rows measure pool overhead (expect ≈1×), and aggregate
//! throughput equals single-thread throughput.
//!
//! Set `BENCH_JSON=BENCH_fleet.json` to write machine-readable results
//! (bench name, mean ns, packets/s) for cross-PR tracking.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_fleet::{replay, total_delivered, FleetConfig, PopulationConfig, WorkerPool};
use tsc_netsim::Scenario;
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, ProcessOutput, RawExchange, TscNtpClock};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Fleet of `clocks` clocks, each polling every 64 s for `polls` polls.
fn fleet_cfg(clocks: usize, polls: usize) -> FleetConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * polls as f64);
    FleetConfig::new(clocks, 1, scenario, ClockConfig::paper_defaults(64.0))
}

fn bench_fleet_replay(c: &mut Criterion) {
    // (fleet size, polls per clock): total work is held near 300k packets
    // so every row fits the measurement budget.
    for (clocks, polls) in [(100usize, 3000usize), (1000, 300), (10_000, 30)] {
        let cfg = fleet_cfg(clocks, polls);
        let delivered = total_delivered(&replay(None, &cfg));
        let mut g = c.benchmark_group(format!("fleet_replay_{clocks}clocks"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(delivered));
        for threads in THREAD_COUNTS {
            let cfg = cfg.clone();
            let mut pool = WorkerPool::new(threads);
            g.bench_function(format!("{threads}threads"), |b| {
                b.iter(|| {
                    let summaries = replay(Some(&mut pool), &cfg);
                    std::hint::black_box(total_delivered(&summaries))
                })
            });
        }
        g.finish();
    }
}

/// Pre-generates one delivered-exchange stream for the ingest benches.
fn shared_stream(polls: usize, poll_period: f64) -> Vec<RawExchange> {
    Scenario::baseline(3)
        .with_poll_period(poll_period)
        .with_duration(poll_period * polls as f64)
        .stream()
        .raw()
        .collect()
}

/// Exchanges per `process_batch` call in the ingest benches (the fleet
/// engine's default `ingest_batch`).
const INGEST_BATCH: usize = 256;

/// One clock's share of an ingest bench: the shared stream through
/// `process_batch`, wrapped in the batch-granular telemetry calls
/// `FleetConfig`'s replay loop makes.
fn ingest_clock(exchanges: &[RawExchange], cc: ClockConfig) -> u64 {
    let mut clock = TscNtpClock::new(cc);
    let mut out: Vec<ProcessOutput> = Vec::with_capacity(INGEST_BATCH);
    let mut produced = 0u64;
    for batch in exchanges.chunks(INGEST_BATCH) {
        out.clear();
        let tm = telemetry::StageTimer::start(telemetry::Hist::IngestBatchNs);
        produced += clock.process_batch(batch, &mut out) as u64;
        tm.stop();
        telemetry::add(telemetry::Ctr::PacketsIngested, batch.len() as u64);
        telemetry::add(telemetry::Ctr::BatchesIngested, 1);
    }
    produced
}

fn bench_fleet_ingest(c: &mut Criterion) {
    let clocks = 1000usize;
    for (label, poll, polls) in [("poll64", 64.0, 300usize), ("poll1024", 1024.0, 300)] {
        let exchanges = std::sync::Arc::new(shared_stream(polls, poll));
        let total = (clocks * exchanges.len()) as u64;
        let mut g = c.benchmark_group(format!("fleet_ingest_{clocks}clocks_{label}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(total));
        for threads in THREAD_COUNTS {
            let mut pool = WorkerPool::new(threads);
            let exchanges = std::sync::Arc::clone(&exchanges);
            let cc = ClockConfig::paper_defaults(poll);
            g.bench_function(format!("{threads}threads"), |b| {
                b.iter(|| {
                    let exchanges = std::sync::Arc::clone(&exchanges);
                    let produced = pool.run(clocks, (clocks / (8 * threads)).max(1), move |_| {
                        ingest_clock(&exchanges, cc)
                    });
                    std::hint::black_box(produced.iter().sum::<u64>())
                })
            });
        }
        g.finish();
    }
}

/// Lifecycle population replay: heterogeneous profiles, an outage, and
/// client-scheduled (on-demand) exchanges — the robustness engine's cost
/// relative to bare fixed-cadence fleet replay.
fn bench_population_replay(c: &mut Criterion) {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(4.0 * 3600.0)
        .with_outage(7200.0, 7200.0 + 600.0);
    let cfg = PopulationConfig::new(200, 1, scenario, ClockConfig::paper_defaults(16.0));
    let requests: u64 = replay(None, &cfg).iter().map(|cl| cl.counters.0).sum();
    let mut g = c.benchmark_group("population_replay_200clients");
    g.sample_size(10);
    g.throughput(Throughput::Elements(requests));
    for threads in THREAD_COUNTS {
        let cfg = cfg.clone();
        let mut pool = WorkerPool::new(threads);
        g.bench_function(format!("{threads}threads"), |b| {
            b.iter(|| {
                let summary = cfg.summarize(replay(Some(&mut pool), &cfg));
                std::hint::black_box(summary.digest())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fleet_replay,
    bench_fleet_ingest,
    bench_population_replay
);
criterion_main!(benches);
