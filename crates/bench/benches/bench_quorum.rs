//! Quorum-layer benchmarks: multi-server generation, quorum ingestion
//! (per-server clocks + health + combination), and multi-source fleet
//! replay at 1/2/4/8 threads.
//!
//! Throughput is reported in *per-server exchanges* (one round of a
//! K-server quorum = K exchanges), so the numbers are directly comparable
//! to the single-clock `bench_fleet` rows — the quorum layer's overhead
//! over K independent clocks is the combination + health update, measured
//! here by `quorum_ingest` vs the clock-pipeline benches.
//!
//! Set `BENCH_JSON=BENCH_quorum.json` to write machine-readable results.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_fleet::{replay, total_quorum_delivered, QuorumFleetConfig, WorkerPool};
use tsc_netsim::MultiServerScenario;
use tsc_quorum::{QuorumClock, QuorumConfig};
use tscclock::RawExchange;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A fleet of `entries` quorums of `k` servers, `rounds` polls each.
fn fleet_cfg(entries: usize, k: usize, rounds: usize) -> QuorumFleetConfig {
    let scenario = MultiServerScenario::baseline(k, 0)
        .with_poll_period(64.0)
        .with_duration(64.0 * rounds as f64);
    QuorumFleetConfig::new(entries, 1, scenario, QuorumConfig::paper_defaults(64.0))
}

/// Pre-generates the per-round inputs of one quorum (delivered polls
/// only) as a flattened row-major batch for the ingest benches.
fn shared_rounds(k: usize, rounds: usize) -> Vec<Option<RawExchange>> {
    let sc = MultiServerScenario::baseline(k, 7)
        .with_poll_period(64.0)
        .with_duration(64.0 * rounds as f64);
    let mut stream = sc.stream();
    let mut buf = Vec::new();
    let mut out = Vec::with_capacity(rounds * k);
    while stream.next_round(&mut buf) {
        out.extend(buf.iter().map(|s| s.delivered.then_some(s.raw)));
    }
    out
}

fn bench_quorum_generation(c: &mut Criterion) {
    // multi-server generation alone: one host timeline, K paths
    for k in [3usize, 5] {
        let rounds = 6000 / k;
        let sc = MultiServerScenario::baseline(k, 3)
            .with_poll_period(64.0)
            .with_duration(64.0 * rounds as f64);
        let mut g = c.benchmark_group("quorum_generation");
        g.sample_size(20);
        g.throughput(Throughput::Elements((rounds * k) as u64));
        g.bench_function(format!("{k}servers_{rounds}rounds"), |b| {
            let mut buf = Vec::new();
            b.iter(|| {
                let mut stream = sc.stream();
                let mut n = 0u64;
                while stream.next_round(&mut buf) {
                    n += buf.len() as u64;
                }
                std::hint::black_box(n)
            })
        });
        g.finish();
    }
}

fn bench_quorum_ingest(c: &mut Criterion) {
    // consumers only: K clocks + health + combination over pre-generated
    // rounds, through the batched allocation-free ingest path — the
    // quorum layer's per-exchange cost
    for k in [3usize, 5] {
        let rounds = 6000 / k;
        let input = shared_rounds(k, rounds);
        let mut g = c.benchmark_group("quorum_ingest");
        g.sample_size(20);
        g.throughput(Throughput::Elements((rounds * k) as u64));
        g.bench_function(format!("{k}servers_{rounds}rounds"), |b| {
            let mut out = Vec::with_capacity(rounds);
            b.iter(|| {
                let mut q = QuorumClock::new(k, QuorumConfig::paper_defaults(64.0));
                out.clear();
                q.process_batch(&input, &mut out);
                std::hint::black_box(out.iter().filter(|o| o.combined).count())
            })
        });
        g.finish();
    }
}

fn bench_quorum_fleet(c: &mut Criterion) {
    // the full multi-source fleet engine across thread counts
    let (entries, k, rounds) = (60usize, 3usize, 400usize);
    let cfg = fleet_cfg(entries, k, rounds);
    let exchanges = total_quorum_delivered(&replay(None, &cfg));
    let mut g = c.benchmark_group(format!("quorum_fleet_{entries}entries_{k}servers"));
    g.sample_size(10);
    g.throughput(Throughput::Elements(exchanges));
    for threads in THREAD_COUNTS {
        let cfg = cfg.clone();
        let mut pool = WorkerPool::new(threads);
        g.bench_function(format!("{threads}threads"), |b| {
            b.iter(|| {
                let summaries = replay(Some(&mut pool), &cfg);
                std::hint::black_box(summaries.len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_quorum_generation,
    bench_quorum_ingest,
    bench_quorum_fleet
);
criterion_main!(benches);
