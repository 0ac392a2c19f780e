//! Snapshot codec benchmarks: what crash-safety costs.
//!
//! Three families:
//!
//! * `snapshot_checksum/1MiB` — the envelope's lane checksum alone, at
//!   the size of a warmed clock's blob. Seal and restore each pay it once.
//! * `snapshot_seal_*` / `snapshot_restore_*` — per-component cost of
//!   sealing a warmed component into its envelope and of validating +
//!   rebuilding it from bytes (clock, 3-server quorum, lifecycle client).
//!   Throughput is envelope bytes/s; the interesting number for a
//!   checkpointing daemon is the per-call latency.
//! * `fleet_checkpointed_*` — the end-to-end checkpointing tax on fleet
//!   replay: the same 300k-packet fleet replayed through the
//!   crash-recovery engine at checkpoint cadences 0 (disabled), 1k and
//!   10k packets. Cadence 0 bounds the engine's wrapper overhead vs
//!   plain `replay`; the other rows price periodic `snapshot()` calls.
//!
//! Set `BENCH_JSON=BENCH_snapshot.json` to write machine-readable rows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsc_fleet::{
    replay_interrupted, total_delivered, CrashPlan, FleetConfig, LifecycleClient, LifecycleConfig,
    WorkerPool,
};
use tsc_netsim::{MultiServerScenario, OnDemandSim, RoundSample, Scenario};
use tsc_quorum::{QuorumClock, QuorumConfig};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

/// A clock warmed by a simulated day at 16 s polling — rings, deques and
/// rolling sums all populated, so the envelope is full-size.
fn warmed_clock() -> TscNtpClock {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    let mut stream = scenario.stream().raw();
    let mut buf = Vec::new();
    let mut out = Vec::new();
    while stream.fill_batch(&mut buf, 512) > 0 {
        clock.process_batch(&buf, &mut out);
        buf.clear();
    }
    clock
}

fn warmed_quorum() -> QuorumClock {
    let scenario = MultiServerScenario::baseline(3, 0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 500.0);
    let mut q = QuorumClock::new(3, QuorumConfig::paper_defaults(64.0));
    let mut stream = scenario.stream();
    let mut samples: Vec<RoundSample> = Vec::new();
    let mut round: Vec<Option<RawExchange>> = Vec::new();
    while stream.next_round(&mut samples) {
        round.clear();
        round.extend(samples.iter().map(|s| s.delivered.then_some(s.raw)));
        q.process_round(&round);
    }
    q
}

fn warmed_client() -> LifecycleClient {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(4.0 * 3600.0)
        .with_outage(7200.0, 7200.0 + 600.0);
    let lc = LifecycleConfig::defaults(16.0);
    let mut client = LifecycleClient::new(lc, ClockConfig::paper_defaults(16.0), 7, 0.0);
    let mut sim = OnDemandSim::new(&scenario);
    let nominal_period = 1.0 / sim.tsc_freq_hz();
    loop {
        let t = client.next_send().max(sim.earliest_next());
        if t >= scenario.duration {
            break;
        }
        client.end_cooldown(t);
        client.note_request();
        let e = sim.exchange_at(t);
        if e.lost || e.truth.tf - t > lc.timeout {
            client.on_timeout(t + lc.timeout);
        } else {
            let raw = RawExchange {
                ta_tsc: e.ta_tsc,
                tb: e.tb,
                te: e.te,
                tf_tsc: e.tf_tsc,
            };
            client.on_response(e.truth.tf, raw, nominal_period);
        }
    }
    client
}

fn bench_snapshot_codec(c: &mut Criterion) {
    let clock = warmed_clock();
    let quorum = warmed_quorum();
    let client = warmed_client();

    let mib = vec![0xa5u8; 1 << 20];
    let mut g = c.benchmark_group("snapshot_checksum");
    g.throughput(Throughput::Bytes(mib.len() as u64));
    g.bench_function("1MiB", |b| {
        b.iter(|| tscclock::snapshot::checksum(std::hint::black_box(&mib)))
    });
    g.finish();

    let mut g = c.benchmark_group("snapshot_seal");
    for (name, blob_len, seal) in [
        ("clock", clock.snapshot().len(), &(|| clock.snapshot()) as &dyn Fn() -> Vec<u8>),
        ("quorum3", quorum.snapshot().len(), &(|| quorum.snapshot())),
        ("lifecycle", client.snapshot().len(), &(|| client.snapshot())),
    ] {
        g.throughput(Throughput::Bytes(blob_len as u64));
        g.bench_function(name, |b| b.iter(|| std::hint::black_box(seal().len())));
    }
    g.finish();

    let clock_blob = clock.snapshot();
    let quorum_blob = quorum.snapshot();
    let client_blob = client.snapshot();
    let mut g = c.benchmark_group("snapshot_restore");
    g.throughput(Throughput::Bytes(clock_blob.len() as u64));
    g.bench_function("clock", |b| {
        b.iter(|| std::hint::black_box(TscNtpClock::restore(&clock_blob).unwrap()))
    });
    g.throughput(Throughput::Bytes(quorum_blob.len() as u64));
    g.bench_function("quorum3", |b| {
        b.iter(|| std::hint::black_box(QuorumClock::restore(&quorum_blob).unwrap()))
    });
    g.throughput(Throughput::Bytes(client_blob.len() as u64));
    g.bench_function("lifecycle", |b| {
        b.iter(|| std::hint::black_box(LifecycleClient::restore(&client_blob).unwrap()))
    });
    g.finish();
}

/// The checkpointing tax on fleet replay: 20 clocks × 15k polls ≈ 300k
/// packets, replayed through the crash-recovery engine (no crashes) at
/// three checkpoint cadences.
fn bench_fleet_checkpointing(c: &mut Criterion) {
    let scenario = Scenario::baseline(0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 15_000.0);
    let cfg = FleetConfig::new(20, 1, scenario, ClockConfig::paper_defaults(64.0));
    let mut pool = WorkerPool::new(4);
    let (summaries, _) = replay_interrupted(Some(&mut pool), &cfg, 0, &CrashPlan::none());
    let delivered = total_delivered(&summaries);
    let mut g = c.benchmark_group("fleet_checkpointed_20clocks");
    g.sample_size(10);
    g.throughput(Throughput::Elements(delivered));
    for (label, every) in [("cadence0", 0u64), ("cadence1k", 1_000), ("cadence10k", 10_000)] {
        let cfg = cfg.clone();
        g.bench_function(label, |b| {
            b.iter(|| {
                let (summaries, stats) =
                    replay_interrupted(Some(&mut pool), &cfg, every, &CrashPlan::none());
                std::hint::black_box((total_delivered(&summaries), stats.checkpoints))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_snapshot_codec, bench_fleet_checkpointing);
criterion_main!(benches);
