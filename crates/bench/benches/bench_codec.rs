//! Benches the NTP wire codec and the statistics kernels (Allan variance,
//! sliding minima) that the experiments lean on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_ntp::{NtpPacket, NtpTimestamp};
use tsc_stats::{allan_variance, SlidingMin};

fn bench_codec(c: &mut Criterion) {
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

criterion_group!(benches, bench_codec, bench_stats);
criterion_main!(benches);
