//! Telemetry-plane cost benchmarks.
//!
//! Two families, both compile-state aware (bench ids carry a
//! `compiled_on` / `compiled_off` tag so rows from a `--features
//! telemetry` run and a default run can live in one JSON report):
//!
//! * `telemetry_prims_*` — the primitives in isolation: one relaxed
//!   counter add, one log₂ histogram record, one flight-recorder ring
//!   push. Compiled out these measure the no-op surface (≈0 ns).
//! * `fleet_ingest_1000clocks_poll64/…` — the acceptance A/B: a fleet's
//!   ingest loop (1000 clocks × 300 polls through `process_batch` on the
//!   worker pool) with recording **on** vs **off**, arms
//!   interleaved round-robin and the order swapped every round so drift
//!   (thermal, scheduler) cancels; round 0 is warm-up and discarded;
//!   medians are compared. The PR's bar is ≤2 % overhead with telemetry
//!   enabled and recording on.
//!
//! The benchmark of record (`e2e/`) compiles telemetry out, so these rows
//! are the only measure of the plane's cost. Set `BENCH_JSON=<scratch
//! path>` for machine-readable rows; the root `BENCH.json` holds one
//! enabled + one compiled-out run, merged.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;
use tsc_fleet::WorkerPool;
use tsc_netsim::Scenario;
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, ProcessOutput, RawExchange, TscNtpClock};

fn compiled_tag() -> &'static str {
    if telemetry::TELEMETRY_COMPILED {
        "compiled_on"
    } else {
        "compiled_off"
    }
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("telemetry_prims_{}", compiled_tag()));
    g.sample_size(20);
    g.bench_function("counter_add", |b| {
        b.iter(|| telemetry::add(telemetry::Ctr::PacketsIngested, 1))
    });
    g.bench_function("hist_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(0x9e37_79b9);
            telemetry::record_ns(telemetry::Hist::IngestBatchNs, v)
        })
    });
    g.bench_function("ring_event_push", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            telemetry::event(telemetry::EventKind::WindowSlid, i, 1, 2)
        })
    });
    g.finish();
}

/// Exchanges per `process_batch` call (the fleet engine's default
/// `ingest_batch`).
const INGEST_BATCH: usize = 256;

/// One run of the A/B workload: every clock filters the same
/// pre-generated stream through `process_batch`, wrapped in the
/// batch-granular telemetry calls `FleetConfig`'s replay loop makes — the
/// recording the A/B switches.
fn ingest_run(
    pool: &mut WorkerPool,
    exchanges: &std::sync::Arc<Vec<RawExchange>>,
    clocks: usize,
    cc: ClockConfig,
) -> u64 {
    let exchanges = std::sync::Arc::clone(exchanges);
    let produced = pool.run(clocks, (clocks / 8).max(1), move |_| {
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
    });
    produced.iter().sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The acceptance A/B. Interleaved by hand (the harness can't share one
/// workload across two arms), so the rows go to the JSON report through
/// [`criterion::record_custom`].
fn bench_ingest_ab(_c: &mut Criterion) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test" || a == "-t");
    let filter_blocks = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .any(|a| !"fleet_ingest_1000clocks_poll64".contains(a.as_str()));
    if filter_blocks {
        return;
    }
    let (clocks, polls) = if test_mode { (16, 10) } else { (1000, 300) };
    let exchanges: std::sync::Arc<Vec<RawExchange>> = std::sync::Arc::new(
        Scenario::baseline(3)
            .with_poll_period(64.0)
            .with_duration(64.0 * polls as f64)
            .stream()
            .raw()
            .collect(),
    );
    let cc = ClockConfig::paper_defaults(64.0);
    let mut pool = WorkerPool::new(1);
    if test_mode {
        let n = ingest_run(&mut pool, &exchanges, clocks, cc);
        std::hint::black_box(n);
        println!("test bench fleet_ingest_1000clocks_poll64/recording_ab ... ok");
        return;
    }

    let total_packets = (clocks * exchanges.len()) as u64;
    const ROUNDS: usize = 31; // round 0 is warm-up, 30 paired samples
    let mut on_ns: Vec<f64> = Vec::new();
    let mut off_ns: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for round in 0..ROUNDS {
        // Both arms inside every round (paired), order swapped per round:
        // scheduler/thermal drift hits both arms of a pair about equally,
        // so the per-round ratio is far less noisy than arm medians.
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        let mut pair = [0.0f64; 2]; // [off, on]
        for rec in order {
            telemetry::set_recording(rec);
            let t0 = Instant::now();
            let n = ingest_run(&mut pool, &exchanges, clocks, cc);
            let dt = t0.elapsed().as_nanos() as f64;
            std::hint::black_box(n);
            pair[usize::from(rec)] = dt;
            if round > 0 {
                if rec { &mut on_ns } else { &mut off_ns }.push(dt);
            }
        }
        if round > 0 {
            ratios.push(pair[1] / pair[0]);
        }
    }
    telemetry::set_recording(true);

    let (m_on, m_off) = (median(on_ns), median(off_ns));
    let overhead_pct = (median(ratios) - 1.0) * 100.0;
    let tag = compiled_tag();
    for (arm, ns) in [("recording_on", m_on), ("recording_off", m_off)] {
        criterion::record_custom(
            &format!("fleet_ingest_1000clocks_poll64/{tag}_{arm}"),
            ns,
            ns,
            (ROUNDS - 1) as u64,
            Some(Throughput::Elements(total_packets)),
        );
        println!(
            "fleet_ingest_1000clocks_poll64/{tag}_{arm:<13}  median {:.1} ms  ({:.3} M packets/s)",
            ns / 1e6,
            total_packets as f64 / ns * 1e3,
        );
    }
    // The acceptance number itself (median of per-round paired ratios,
    // as a percentage) goes into the report too; the row's "ns" fields
    // carry the percentage — the name says so.
    criterion::record_custom(
        &format!("fleet_ingest_1000clocks_poll64/{tag}_recording_overhead_pct"),
        overhead_pct,
        overhead_pct,
        (ROUNDS - 1) as u64,
        None,
    );
    println!(
        "fleet_ingest_1000clocks_poll64/{tag}: recording-on overhead {overhead_pct:+.2} % \
         (median paired ratio; acceptance bar: <= 2 %)"
    );
}

criterion_group!(benches, bench_primitives, bench_ingest_ab);
criterion_main!(benches);
