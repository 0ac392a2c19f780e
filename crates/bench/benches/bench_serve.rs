//! Serving-plane benchmarks: the PR 10 acceptance numbers.
//!
//! * `serve_inproc_<tag>/batch64` — the headline row: single-threaded
//!   serve loop over the in-process batched transport, answering
//!   pre-encoded client requests off the lock-free snapshot cell **while
//!   a real discipline thread concurrently republishes** (warmed
//!   `TscNtpClock` ingesting a netsim stream, sealing ~2 kHz — two
//!   orders of magnitude above a real 1/16 s discipline cadence).
//!   Acceptance: ≥2 M responses/s.
//! * `serve_inproc_<tag>/batch1` — the same workload one datagram per
//!   batch: the batched-vs-single A/B pair.
//! * `snapshot_read_<tag>/seqlock` — one lock-free cell read under the
//!   same concurrent republisher.
//! * with the `telemetry` feature: `serve_recording_<tag>/{on,off,
//!   overhead_pct}` — interleaved recording-on/off rows on the batch64
//!   workload; the telemetry contract is ≤2 % overhead.
//!
//! `e2e`'s `serve_mixed` measures the plane at its true weight; these rows
//! keep the A/Bs it cannot run. Set `BENCH_JSON=<scratch path>` for
//! machine-readable rows; the root `BENCH.json` holds one compiled-out +
//! one telemetry run, merged.

use criterion::{criterion_group, criterion_main, record_custom, Criterion, Throughput};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsc_netsim::Scenario;
use tsc_ntp::packet::NtpPacket;
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{
    BatchBufs, DatagramBatch, PublishPolicy, Publisher, ServeConfig, ServePlane, SimTransport,
    SnapshotCell,
};
use tsc_telemetry as telemetry;
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

fn compiled_tag() -> &'static str {
    if telemetry::TELEMETRY_COMPILED {
        "compiled_on"
    } else {
        "compiled_off"
    }
}

fn to_raw(e: &tsc_netsim::SimExchange) -> RawExchange {
    RawExchange {
        ta_tsc: e.ta_tsc,
        tb: e.tb,
        te: e.te,
        tf_tsc: e.tf_tsc,
    }
}

/// The concurrent discipline loop: ingests the remainder of a netsim
/// stream into a warmed clock and republishes the snapshot after every
/// exchange, paced at ~2 kHz so the 1-core reference VM still gives the
/// serve thread the CPU (a real loop republishes at 1/16 s).
struct Republisher {
    stop: Arc<AtomicBool>,
    published: Arc<AtomicU64>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Republisher {
    fn start(
        cell: Arc<SnapshotCell>,
        mut clock: TscNtpClock,
        exchanges: Vec<RawExchange>,
        serve_tsc: Arc<AtomicU64>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let published = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let published2 = Arc::clone(&published);
        let join = std::thread::spawn(move || {
            let mut publisher = Publisher::new(cell, PublishPolicy::default());
            let mut i = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let raw = exchanges[i % exchanges.len()];
                i += 1;
                if let Some(out) = clock.process(raw) {
                    publisher.observe(&out);
                }
                publisher.publish_clock(&clock, raw.tf_tsc);
                serve_tsc.store(raw.tf_tsc, Ordering::Relaxed);
                published2.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        Self {
            stop,
            published,
            join: Some(join),
        }
    }

    fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        self.published.load(Ordering::Relaxed)
    }
}

struct Workload {
    cell: Arc<SnapshotCell>,
    serve_tsc: Arc<AtomicU64>,
    requests: Vec<[u8; 48]>,
    republisher: Republisher,
}

/// Warm a clock on a poll-16 baseline stream, hand the tail of the stream
/// to the republisher thread, and pre-encode the request set.
fn setup(n_requests: usize) -> Workload {
    let sc = Scenario::baseline(90)
        .with_poll_period(16.0)
        .with_duration(40.0 * 86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let mut stream = sc.stream();
    let mut warm_tsc = 0u64;
    let mut warmed = 0;
    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    while warmed < 3_000 {
        let e = stream.step().expect("stream long enough");
        if e.lost {
            continue;
        }
        if let Some(out) = clock.process(to_raw(&e)) {
            publisher.observe(&out);
        }
        warm_tsc = e.tf_tsc;
        warmed += 1;
    }
    assert!(publisher.publish_clock(&clock, warm_tsc), "clock must be servable");

    // Remaining deliverable exchanges feed the concurrent republisher.
    let mut tail = Vec::new();
    while let Some(e) = stream.step() {
        if !e.lost {
            tail.push(to_raw(&e));
        }
    }
    assert!(tail.len() > 10_000);

    let requests: Vec<[u8; 48]> = (0..n_requests)
        .map(|i| {
            NtpPacket::client_request(
                NtpTimestamp::from_unix_seconds(1.0e5 + i as f64 * 1e-3),
                4,
            )
            .encode()
        })
        .collect();

    let serve_tsc = Arc::new(AtomicU64::new(warm_tsc));
    let republisher = Republisher::start(Arc::clone(&cell), clock, tail, Arc::clone(&serve_tsc));
    Workload {
        cell,
        serve_tsc,
        requests,
        republisher,
    }
}

/// One pass: push every request through the plane in `batch`-sized
/// batches. Returns (responses, refusals).
fn serve_run(
    plane: &mut ServePlane,
    transport: &mut SimTransport,
    rx: &mut BatchBufs,
    tx: &mut BatchBufs,
    requests: &[[u8; 48]],
    batch: usize,
    tsc_shared: &AtomicU64,
) -> (u64, u64) {
    let before = plane.stats;
    let mut jitter = 0u64;
    let mut tsc = move || {
        jitter = jitter.wrapping_add(97) & 0xFFF;
        tsc_shared.load(Ordering::Relaxed) + jitter
    };
    for chunk in requests.chunks(batch) {
        for r in chunk {
            transport.push_request(r);
        }
        let n = transport.recv_batch(rx, batch).unwrap();
        plane.serve_batch(rx, n, tx, &mut tsc);
        transport.send_batch(tx, n).unwrap();
    }
    (
        plane.stats.responses - before.responses,
        plane.stats.refusals - before.refusals,
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn bench_serve_plane(c: &mut Criterion) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test" || a == "-t");
    let tag = compiled_tag();

    let n_requests = if test_mode { 512 } else { 65_536 };
    let w = setup(n_requests);
    let mut transport = SimTransport::new();
    transport.keep_responses = false;
    let mut rx = BatchBufs::new(64);
    let mut tx = BatchBufs::new(64);

    if test_mode {
        let mut plane = ServePlane::new(Arc::clone(&w.cell), ServeConfig::default());
        let (served, refused) = serve_run(
            &mut plane,
            &mut transport,
            &mut rx,
            &mut tx,
            &w.requests,
            64,
            &w.serve_tsc,
        );
        assert_eq!(refused, 0, "warmed snapshot must serve");
        assert_eq!(served, n_requests as u64);
        assert!(w.cell.read().unwrap().synced);
        w.republisher.stop();
        println!("test bench serve_inproc/batch64 ... ok");
        return;
    }

    // Batched vs single-datagram A/B, same requests, same concurrent
    // republisher. Round 0 of each arm is warm-up and discarded.
    const ROUNDS: usize = 13;
    for batch in [64usize, 1] {
        let mut plane = ServePlane::new(Arc::clone(&w.cell), ServeConfig::default());
        let mut times = Vec::new();
        let mut served_total = 0u64;
        for round in 0..ROUNDS {
            let t0 = Instant::now();
            let (served, refused) = serve_run(
                &mut plane,
                &mut transport,
                &mut rx,
                &mut tx,
                &w.requests,
                batch,
                &w.serve_tsc,
            );
            let dt = t0.elapsed().as_nanos() as f64;
            assert_eq!(refused, 0, "no refusals expected mid-run");
            assert_eq!(served, n_requests as u64);
            served_total = served;
            if round > 0 {
                times.push(dt);
            }
        }
        let med = median(times.clone());
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        record_custom(
            &format!("serve_inproc_{tag}/batch{batch}"),
            mean,
            med,
            times.len() as u64,
            Some(Throughput::Elements(served_total)),
        );
        println!(
            "serve_inproc_{tag}/batch{batch}: {:.2} M responses/s (median)",
            served_total as f64 / med * 1e3
        );
    }

    // Recording-on/off A/B (meaningful with the telemetry feature; the
    // compiled-out rows document the no-op floor). Interleaved, order
    // swapped per round.
    let mut on_ns = Vec::new();
    let mut off_ns = Vec::new();
    let mut plane = ServePlane::new(Arc::clone(&w.cell), ServeConfig::default());
    for round in 0..ROUNDS {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        let mut pair = [0.0f64; 2]; // [off, on]
        for rec in order {
            telemetry::set_recording(rec);
            let t0 = Instant::now();
            serve_run(
                &mut plane,
                &mut transport,
                &mut rx,
                &mut tx,
                &w.requests,
                64,
                &w.serve_tsc,
            );
            pair[rec as usize] = t0.elapsed().as_nanos() as f64;
        }
        telemetry::set_recording(true);
        if round > 0 {
            on_ns.push(pair[1]);
            off_ns.push(pair[0]);
        }
    }
    let on_med = median(on_ns.clone());
    let off_med = median(off_ns.clone());
    let overhead_pct = (on_med / off_med - 1.0) * 100.0;
    record_custom(
        &format!("serve_recording_{tag}/on"),
        on_ns.iter().sum::<f64>() / on_ns.len() as f64,
        on_med,
        on_ns.len() as u64,
        Some(Throughput::Elements(n_requests as u64)),
    );
    record_custom(
        &format!("serve_recording_{tag}/off"),
        off_ns.iter().sum::<f64>() / off_ns.len() as f64,
        off_med,
        off_ns.len() as u64,
        Some(Throughput::Elements(n_requests as u64)),
    );
    record_custom(
        &format!("serve_recording_{tag}/overhead_pct"),
        overhead_pct,
        overhead_pct,
        on_ns.len() as u64,
        None,
    );
    println!("serve_recording_{tag}: overhead {overhead_pct:.2} %");

    // Snapshot read under the live republisher.
    {
        let mut g = c.benchmark_group(format!("snapshot_read_{tag}"));
        g.sample_size(20);
        let cell = Arc::clone(&w.cell);
        g.bench_function("seqlock", |b| {
            b.iter(|| criterion::black_box(cell.read()))
        });
        g.finish();
    }

    let sealed = w.republisher.stop();
    assert!(sealed > 100, "republisher only sealed {sealed} eras");
    println!("concurrent republisher sealed {sealed} snapshots during the bench");
}

criterion_group!(benches, bench_serve_plane);
criterion_main!(benches);
