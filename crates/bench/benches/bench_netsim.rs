//! Generation-only benchmarks: how fast can netsim produce exchanges?
//!
//! PR 2 measured fleet replay as *generation-bound* (~1.7 µs per packet in
//! the exchange pipeline against ~0.13–0.22 µs for the clock itself), so
//! the generator's throughput is tracked here as a first-class perf
//! series, separate from the consumers:
//!
//! * `netsim_stream_raw_*` — the fleet generation path: observables-only
//!   stepping ([`tsc_netsim::RawExchanges::fill_batch`]), no DAG sampling,
//!   no truth record.
//! * `netsim_stream_full_*` — the experiment path: full [`SimExchange`]
//!   records with ground truth and the DAG reference timestamp.
//! * `netsim_on_demand` — the closed-loop path: client-chosen send times
//!   through [`tsc_netsim::OnDemandSim::exchange_at`] (exact-time samplers,
//!   full record), on a poll-16 schedule. Each of its two congestion chains
//!   settles its flip from the bracket `x − x²/2 ≤ 1 − e^{−dt/mean} ≤ x`
//!   and evaluates the exponential only inside the band between the
//!   bounds (0.3 % of the draws of e2e `closed_loop`).
//! * `osc_advance_*` — the oscillator alone: closed-form deterministic
//!   integration + bridged stochastic sampling, at a dense and a
//!   coarse polling cadence, and at the two-reads-per-poll cadence a
//!   delivered packet makes (`Ta`, then `Tf` a few ms later).
//! * `chacha12_refill` — the keystream alone: 128-word refills by each
//!   eight-block kernel the host can run (a packet draws ~20 words from
//!   seven independent streams); elements are keystream words.
//!
//! End-to-end generation cost is `e2e`'s `netsim.*` per-layer rows; these
//! rows split it into its leaves. Set `BENCH_JSON=<scratch path>` for
//! machine-readable rows and merge the labelled ones into the root
//! `BENCH.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_netsim::{OnDemandSim, Scenario};
use tsc_osc::Environment;
use tscclock::RawExchange;

/// Polls per measured iteration, kept constant across cadences so the
/// per-packet numbers are directly comparable.
const POLLS: usize = 100_000;

fn scenario(poll: f64) -> Scenario {
    Scenario::baseline(7)
        .with_poll_period(poll)
        .with_duration(poll * POLLS as f64)
}

fn bench_stream_raw(c: &mut Criterion) {
    for poll in [16.0f64, 64.0] {
        let sc = scenario(poll);
        let mut g = c.benchmark_group(format!("netsim_stream_raw_poll{poll:.0}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(POLLS as u64));
        g.bench_function("generate", |b| {
            let mut buf: Vec<RawExchange> = Vec::with_capacity(4096);
            b.iter(|| {
                let mut raw = sc.stream().raw();
                let mut total = 0usize;
                loop {
                    buf.clear();
                    let n = raw.fill_batch(&mut buf, 4096);
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                std::hint::black_box(total)
            })
        });
        g.finish();
    }
}

fn bench_stream_full(c: &mut Criterion) {
    for poll in [16.0f64, 64.0] {
        let sc = scenario(poll);
        let mut g = c.benchmark_group(format!("netsim_stream_full_poll{poll:.0}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(POLLS as u64));
        g.bench_function("generate", |b| {
            b.iter(|| std::hint::black_box(sc.stream().count()))
        });
        g.finish();
    }
}

fn bench_on_demand(c: &mut Criterion) {
    let sc = scenario(16.0);
    let mut g = c.benchmark_group("netsim_on_demand");
    g.sample_size(10);
    g.throughput(Throughput::Elements(POLLS as u64));
    g.bench_function("exchange_at", |b| {
        b.iter(|| {
            let mut sim = OnDemandSim::new(&sc);
            let mut delivered = 0usize;
            for i in 1..=POLLS {
                delivered += usize::from(!sim.exchange_at(i as f64 * 16.0).lost);
            }
            std::hint::black_box(delivered)
        })
    });
    g.finish();
}

fn bench_osc_advance(c: &mut Criterion) {
    for (label, poll) in [("poll16", 16.0f64), ("poll1024", 1024.0)] {
        let mut g = c.benchmark_group(format!("osc_advance_{label}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(POLLS as u64));
        g.bench_function("machine_room", |b| {
            b.iter(|| {
                let mut osc = Environment::MachineRoom.build(3);
                let mut x = 0.0;
                for i in 1..=POLLS {
                    x = osc.advance_to(i as f64 * poll);
                }
                std::hint::black_box(x)
            })
        });
        g.finish();
    }
    // Two reads per 16 s poll, the second 1–17 ms later: 2 × POLLS advances.
    let mut g = c.benchmark_group("osc_advance_two_read");
    g.sample_size(10);
    g.throughput(Throughput::Elements(2 * POLLS as u64));
    g.bench_function("machine_room", |b| {
        b.iter(|| {
            let mut osc = Environment::MachineRoom.build(3);
            let mut x = 0.0;
            for i in 1..=POLLS {
                let t = i as f64 * 16.0;
                osc.advance_to(t);
                x = osc.advance_to(t + 1e-3 * (1 + i % 17) as f64);
            }
            std::hint::black_box(x)
        })
    });
    g.finish();
}

fn bench_chacha_refill(c: &mut Criterion) {
    const REFILLS: usize = 10_000;
    let mut g = c.benchmark_group("chacha12_refill");
    g.sample_size(10);
    g.throughput(Throughput::Elements((REFILLS * rand_chacha::BUF_WORDS) as u64));
    for &(name, kernel) in rand_chacha::kernels() {
        g.bench_function(name, |b| {
            let key = [0x9E37_79B9u32, 2, 3, 4, 5, 6, 7, 0x7F4A_7C15];
            let mut out = [0u32; rand_chacha::BUF_WORDS];
            b.iter(|| {
                for i in 0..REFILLS {
                    kernel(&key, 8 * i as u64, &mut out);
                    std::hint::black_box(&mut out);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_chacha_refill,
    bench_stream_raw,
    bench_stream_full,
    bench_on_demand,
    bench_osc_advance
);
criterion_main!(benches);
