//! "Allocation-free" as a pin (ROADMAP 5(c)): the READMEs have said it of
//! the generator's and the estimator's per-packet calls since PR 1, and of
//! the serve plane and the lifecycle client since PR 10, and nothing
//! asserted it. Each test warms one of them up — buffers at their working
//! size, the clock's history ring past its window — and then counts heap
//! allocations over thousands of further calls: zero.
//!
//! The counter (`tests/common`) is per thread (the harness runs every
//! `#[test]` on a thread of its own, beside its own bookkeeping), and
//! counts `alloc` and `realloc`; frees are not the claim.

mod common;

use common::allocations_in;
use std::sync::Arc;

use tsc_fleet::{ClientState, LifecycleClient, LifecycleConfig};
use tsc_netsim::{MultiServerScenario, OnDemandSim, RoundSample, Scenario};
use tsc_ntp::{NtpPacket, NtpTimestamp};
use tsc_quorum::{QuorumClock, QuorumConfig};
use tsc_serve::{
    BatchBufs, DatagramBatch, PublishPolicy, Publisher, ServeConfig, ServePlane, SimTransport,
    SnapshotCell,
};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

const POLL: f64 = 16.0;

fn scenario(polls: usize) -> Scenario {
    Scenario::baseline(7)
        .with_poll_period(POLL)
        .with_duration(POLL * polls as f64)
}

#[test]
fn the_counter_sees_an_allocation() {
    assert_eq!(allocations_in(|| drop(std::hint::black_box(Box::new(1u8)))), 1);
    let mut v: Vec<u64> = Vec::with_capacity(4);
    assert_eq!(allocations_in(|| v.extend(0..64)), 1, "one realloc");
}

#[test]
fn fill_batch_into_a_reserved_vec_does_not_allocate() {
    let sc = scenario(40_000);
    let mut raw = sc.stream().raw();
    let mut buf: Vec<RawExchange> = Vec::with_capacity(256);
    assert_eq!(raw.fill_batch(&mut buf, 256), 256);
    let mut produced = 0;
    let n = allocations_in(|| loop {
        buf.clear();
        match raw.fill_batch(&mut buf, 256) {
            0 => break,
            k => produced += k,
        }
    });
    assert!(produced > 30_000, "{produced} packets");
    assert_eq!(n, 0, "allocations over {produced} packets");
}

#[test]
fn exchange_at_does_not_allocate() {
    let sc = scenario(20_100);
    let mut sim = OnDemandSim::new(&sc);
    for i in 1..=100 {
        sim.exchange_at(i as f64 * POLL);
    }
    let mut delivered = 0;
    let n = allocations_in(|| {
        for i in 101..=20_100 {
            delivered += usize::from(!sim.exchange_at(i as f64 * POLL).lost);
        }
    });
    assert!(delivered > 15_000, "{delivered} delivered");
    assert_eq!(n, 0, "allocations over 20 000 exchanges");
}

#[test]
fn next_round_does_not_allocate() {
    let sc = MultiServerScenario::baseline(3, 7)
        .with_poll_period(POLL)
        .with_duration(POLL * 20_000.0);
    let mut stream = sc.stream();
    let mut round: Vec<RoundSample> = Vec::new();
    assert!(stream.next_round(&mut round));
    let mut rounds = 0;
    let n = allocations_in(|| {
        while stream.next_round(&mut round) {
            rounds += 1;
        }
    });
    assert!(rounds > 15_000, "{rounds} rounds");
    assert_eq!(n, 0, "allocations over {rounds} rounds");
}

/// More packets than the top window holds at this poll period, so the
/// history ring has reached its final capacity and slid at least once.
const WARM: usize = 80_000;
const MEASURED: usize = 20_000;

#[test]
fn a_warm_clocks_process_does_not_allocate() {
    let sc = scenario(WARM + MEASURED);
    let mut input: Vec<RawExchange> = Vec::with_capacity(WARM + MEASURED);
    sc.stream().raw().fill_batch(&mut input, WARM + MEASURED);
    assert!(input.len() > WARM + MEASURED / 2, "{} delivered", input.len());
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(POLL));
    let (warm, measured) = input.split_at(WARM);
    for &ex in warm {
        clock.process(ex);
    }
    let mut outputs = 0;
    let n = allocations_in(|| {
        for &ex in measured {
            outputs += usize::from(clock.process(ex).is_some());
        }
    });
    assert_eq!(outputs, measured.len());
    assert_eq!(n, 0, "allocations over {} packets", measured.len());
}

#[test]
fn a_warm_quorums_process_round_does_not_allocate() {
    const K: usize = 3;
    let sc = MultiServerScenario::baseline(K, 7)
        .with_poll_period(POLL)
        .with_duration(POLL * (WARM + MEASURED) as f64);
    let mut stream = sc.stream();
    let mut round: Vec<RoundSample> = Vec::new();
    let mut flat: Vec<Option<RawExchange>> = Vec::with_capacity(K * (WARM + MEASURED));
    while stream.next_round(&mut round) {
        flat.extend(round.iter().map(|s| s.delivered.then_some(s.raw)));
    }
    let mut quorum = QuorumClock::new(K, QuorumConfig::paper_defaults(POLL));
    let (warm, measured) = flat.split_at(K * WARM);
    for r in warm.chunks_exact(K) {
        quorum.process_round(r);
    }
    let mut combined = 0;
    let n = allocations_in(|| {
        for r in measured.chunks_exact(K) {
            combined += usize::from(quorum.process_round(r).combined);
        }
    });
    assert_eq!(combined, measured.len() / K);
    assert_eq!(n, 0, "allocations over {combined} rounds");
}

/// Datagrams per `serve_batch` call: client requests and one malformed
/// datagram, so the drop path runs beside the serve or refusal path.
const SERVE_BATCH: usize = 8;

#[test]
fn a_warm_serve_batch_does_not_allocate() {
    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    // A synced snapshot sealed at counter 0, one count a nanosecond.
    publisher.seal(0, 1.7e9, 1e-9, true);
    let mut plane = ServePlane::new(cell, ServeConfig::default());
    let mut transport = SimTransport::new();
    transport.keep_responses = false;
    let (mut rx, mut tx) = (BatchBufs::new(SERVE_BATCH), BatchBufs::new(SERVE_BATCH));
    let request = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(1.7e9), 4).encode();
    let mut tsc = 0u64;
    let mut tsc_now = move || {
        tsc += 1_000;
        tsc
    };
    let mut serve_one_batch = |plane: &mut ServePlane| {
        for _ in 1..SERVE_BATCH {
            transport.push_request(&request);
        }
        transport.push_request(b"not ntp");
        let n = transport.recv_batch(&mut rx, SERVE_BATCH).unwrap();
        plane.serve_batch(&rx, n, &mut tx, &mut tsc_now);
        transport.send_batch(&tx, n).unwrap();
    };
    serve_one_batch(&mut plane);
    const BATCHES: u64 = 20_000;
    let n = allocations_in(|| {
        for i in 0..BATCHES {
            if i == BATCHES / 2 {
                // The second half is refused (`UNSY`).
                publisher.seal(0, 0.0, 0.0, false);
            }
            serve_one_batch(&mut plane);
        }
    });
    let requests = SERVE_BATCH as u64 - 1;
    assert_eq!(plane.stats.malformed, BATCHES + 1);
    assert_eq!(plane.stats.responses, (BATCHES / 2 + 1) * requests);
    assert_eq!(plane.stats.refusals, BATCHES / 2 * requests);
    assert_eq!(n, 0, "allocations over {BATCHES} batches");
}

#[test]
fn a_snapshot_cell_read_does_not_allocate() {
    let cell = Arc::new(SnapshotCell::new());
    Publisher::new(Arc::clone(&cell), PublishPolicy::default()).seal(0, 1.7e9, 1e-9, true);
    let mut synced = 0;
    let n = allocations_in(|| {
        for _ in 0..MEASURED {
            synced += usize::from(std::hint::black_box(&cell).read().is_some_and(|s| s.synced));
        }
    });
    assert_eq!(synced, MEASURED);
    assert_eq!(n, 0, "allocations over {MEASURED} reads");
}

#[test]
fn a_synced_lifecycle_clients_on_response_does_not_allocate() {
    let sc = scenario(WARM + MEASURED);
    let mut input: Vec<RawExchange> = Vec::with_capacity(WARM + MEASURED);
    sc.stream().raw().fill_batch(&mut input, WARM + MEASURED);
    assert!(input.len() > WARM + MEASURED / 2, "{} delivered", input.len());
    let mut client = LifecycleClient::new(
        LifecycleConfig::defaults(POLL),
        ClockConfig::paper_defaults(POLL),
        7,
        0.0,
    );
    let nominal_period = 1.0 / sc.tsc_freq_hz;
    let (warm, measured) = input.split_at(WARM);
    let mut now = 0.0;
    for &ex in warm {
        now += POLL;
        client.on_response(now, ex, nominal_period);
    }
    assert_eq!(client.state(), ClientState::Synced);
    let transitions = client.transition_count();
    let n = allocations_in(|| {
        for &ex in measured {
            now += POLL;
            client.on_response(now, ex, nominal_period);
        }
    });
    assert_eq!(client.transition_count(), transitions, "left Synced");
    assert_eq!(n, 0, "allocations over {} responses", measured.len());
}
