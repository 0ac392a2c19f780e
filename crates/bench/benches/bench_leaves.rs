//! Leaf kernels below the resolution of the benchmark of record (`e2e/`
//! reports whole workloads and per-layer totals, not these):
//!
//! * `ntp_codec/*` — the 48-byte wire codec alone: encode, decode,
//!   validate, and a server's decode → respond → encode of one datagram.
//! * `stats_kernels/*` — the Allan-variance and sliding-minimum kernels
//!   the experiments lean on.
//! * `snapshot_checksum/1MiB` — the envelope's lane checksum alone, at the
//!   size of a warmed clock's blob. Seal and restore each pay it once.
//! * `ingest_stage_poll{16,64}/*` — history admission alone, then history
//!   plus one estimator at a time (offset / global rate / local rate) over
//!   a pre-generated delivered-exchange stream. Stage costs are read by
//!   subtracting the `history` row. The local rate is off in every e2e
//!   workload (`use_local_rate = false` is the paper default), so its
//!   two per-packet sub-window scans are measured only here.
//! * `history_push/descending_minima` — `History::push` at full window
//!   with continuous slides on an adversarial stream where every 16th
//!   packet is a new RTT minimum, which no simulated trace produces.
//!
//! Set `BENCH_JSON=<scratch path>` for machine-readable rows and merge
//! the labelled ones into the root `BENCH.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_netsim::Scenario;
use tsc_ntp::{NtpPacket, NtpTimestamp};
use tsc_stats::{allan_variance, SlidingMin};
use tscclock::{ClockConfig, GlobalRate, History, LocalRate, OffsetEstimator, RawExchange};

fn bench_ntp_codec(c: &mut Criterion) {
    let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(1.7e9), 4);
    let resp = NtpPacket::server_response(
        &req,
        NtpTimestamp::from_unix_seconds(1.7e9 + 0.5),
        NtpTimestamp::from_unix_seconds(1.7e9 + 0.50002),
        *b"GPS\0",
    );
    let bytes = resp.encode();
    let mut g = c.benchmark_group("ntp_codec");
    g.throughput(Throughput::Bytes(48));
    g.bench_function("encode", |b| {
        b.iter(|| std::hint::black_box(std::hint::black_box(&resp).encode()))
    });
    g.bench_function("encode_into", |b| {
        let mut buf = [0u8; 48];
        b.iter(|| {
            std::hint::black_box(&resp).encode_into(&mut buf);
            std::hint::black_box(&mut buf);
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| NtpPacket::decode(std::hint::black_box(&bytes)).expect("valid"))
    });
    // What a server does to one datagram, codec only: decode the request,
    // build the response, encode it in place.
    g.bench_function("serve_roundtrip", |b| {
        let request = req.encode();
        let (tb, te) = (resp.receive_ts, resp.transmit_ts);
        let mut buf = [0u8; 48];
        b.iter(|| {
            let request = NtpPacket::decode(std::hint::black_box(&request)).expect("valid");
            NtpPacket::server_response(&request, tb, te, *b"GPS\0").encode_into(&mut buf);
            std::hint::black_box(&mut buf);
        })
    });
    g.bench_function("validate_response", |b| {
        b.iter(|| std::hint::black_box(&resp).validate_response(std::hint::black_box(&req)))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    // a week of 16 s phase samples
    let phase: Vec<f64> = (0..37_800)
        .map(|i| ((i as f64 * 0.618).fract() - 0.5) * 1e-6 + i as f64 * 50e-6)
        .collect();
    let mut g = c.benchmark_group("stats_kernels");
    g.bench_function("allan_variance_m64_week", |b| {
        b.iter(|| allan_variance(std::hint::black_box(&phase), 16.0, 64))
    });
    g.bench_function("sliding_min_push_156", |b| {
        let mut w = SlidingMin::new(156);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            w.push(((i as f64 * 0.754).fract()) * 1e-3);
            std::hint::black_box(w.get())
        })
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mib = vec![0xa5u8; 1 << 20];
    let mut g = c.benchmark_group("snapshot_checksum");
    g.throughput(Throughput::Bytes(mib.len() as u64));
    g.bench_function("1MiB", |b| {
        b.iter(|| tscclock::snapshot::checksum(std::hint::black_box(&mib)))
    });
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    for (plabel, poll) in [("poll16", 16.0), ("poll64", 64.0)] {
        let exchanges: Vec<RawExchange> = Scenario::baseline(7)
            .with_poll_period(poll)
            .with_duration(poll * 30_000.0)
            .stream()
            .raw()
            .collect();
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
                let mut off = OffsetEstimator::new(&cfg);
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

fn bench_history_push(c: &mut Criterion) {
    let cap = ClockConfig::paper_defaults(16.0).top_packets(); // 37 800
    let n = 8 * cap as u64; // several slides per run
    let mut g = c.benchmark_group("history_push");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));
    g.bench_function("descending_minima", |b| {
        b.iter(|| {
            let mut h = History::new(cap);
            for i in 0..n {
                let base = 2_000_000u64.saturating_sub(i * 4);
                let rtt = base + if i % 16 == 0 { 0 } else { 500_000 };
                std::hint::black_box(h.push(RawExchange {
                    ta_tsc: i * 16_000_000_000,
                    tb: i as f64 * 16.0 + 0.0005,
                    te: i as f64 * 16.0 + 0.00052,
                    tf_tsc: i * 16_000_000_000 + rtt,
                }));
            }
            h.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ntp_codec,
    bench_stats,
    bench_checksum,
    bench_stages,
    bench_history_push
);
criterion_main!(benches);
