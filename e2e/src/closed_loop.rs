//! `closed_loop`: the whole loop, assembled from outside. Lifecycle
//! clients on the consumer profile mix, time-ordered by one event heap;
//! each request goes `next_send` → `OnDemandSim::exchange_at` → encode →
//! `SimTransport` → `serve_batch` → `SimTransport` → decode + validate →
//! `on_response` / `on_timeout` → the client's own `TscNtpClock`.
//!
//! The daemon is itself a `TscNtpClock` disciplined off its own upstream
//! stream, republishing after every upstream exchange. A one-hour
//! upstream outage makes it refuse `STAL`, which backs the clients off and
//! brings them back as a herd; a 30-minute client-path outage makes
//! timeouts. Nothing is scripted on the client side: the daemon's outage
//! *causes* what the clients do.
//!
//! Why: every layer does a modest share, so a per-layer saving shows here
//! only at its true end-to-end weight; and it is the only workload with
//! lifecycle, backoff and refusals.

use crate::harness::{
    exceeds, fold, percentile, sort, sub_seed, Chunks, Layers, Measured, Oracle, Rep, Size,
    Workload, FNV_OFFSET,
};
use crate::trace::{Totals, Tracer};
use crate::traces::{self, WARM};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;
use tsc_fleet::{ClientState, ExchangeOutcome, LifecycleClient, LifecycleConfig, ReadVerdict};
use tsc_netsim::{OnDemandSim, PathProfile, ProfileMix, Scenario, SimExchange, ALL_PROFILES};
use tsc_ntp::packet::{NtpPacket, PacketError, PACKET_LEN};
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{
    BatchBufs, DatagramBatch, PublishPolicy, Publisher, ServeConfig, ServePlane, SimTransport,
    SnapshotCell, REFUSE_STALE,
};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

const TAG: u64 = 0x6c6f_6f70; // "loop"
const POLL: f64 = 16.0;
/// The daemon disciplines itself for this long before clients join, so
/// they meet a warmed server instead of an hour of `UNSY`.
const WARM_S: f64 = 7200.0;
/// Requests arriving within this window of the first share a daemon
/// wake-up, i.e. one `serve_batch`.
const WAKE_QUANTUM: f64 = 100e-6;
const BATCH: usize = 64;
/// One request in this many is spanned, all stages.
const SAMPLE: u64 = 64;
/// Requests per `op_ns_p50` chunk.
const CHUNK: u64 = 64;
const STALE_HORIZON: f64 = 900.0;
/// Mean residence of the simulated server, which the wire reports.
const RESIDENCE: f64 = 20e-6;
/// The first this-many profiles of `ALL_PROFILES` (datacenter, DSL) are
/// the wired cohorts the headline accuracy is scored on.
const WIRED: usize = 2;
/// Width of the request-rate buckets behind the herd peak.
const BUCKET_S: f64 = 4.0;

pub struct ClosedLoop {
    clients: usize,
    hours: f64,
    /// Worlds beyond the measured one that the oracle scores accuracy on.
    accuracy_worlds: u64,
}

impl ClosedLoop {
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                clients: 64,
                hours: 24.0,
                accuracy_worlds: 16,
            },
            Size::Smoke => Self {
                clients: 10,
                hours: 5.0,
                accuracy_worlds: 0,
            },
        }
    }
}

struct ClientSpec {
    profile: usize,
    /// Half the path's configured asymmetry, `(d→ − d←)/2`: a client
    /// that takes the server's stamps for the midpoint of its round trip
    /// runs ahead by this much, and cannot observe it from its own
    /// exchanges (§4.3 of the paper). Reads are scored net of it, as the
    /// paper scores its own.
    asymmetry_bias: f64,
    scenario: Scenario,
    lifecycle: LifecycleConfig,
    seed: u64,
}

/// One delivered upstream exchange of the daemon.
struct Upstream {
    /// True arrival time: when the daemon ingests it.
    tf: f64,
    /// True time its `tf_tsc` was read at (see [`traces::read_time`]).
    read_at: f64,
    raw: RawExchange,
}

/// What set-up leaves behind: the world the reps replay, and the seed the
/// oracle derives its accuracy-only worlds from.
pub struct Input {
    seed: u64,
    world: World,
}

/// One daemon, its upstream, and its clients.
struct World {
    upstream: Vec<Upstream>,
    clients: Vec<ClientSpec>,
    clock: ClockConfig,
    /// Absolute times: clients run over `[WARM_S, horizon)`.
    horizon: f64,
    daemon_outage: (f64, f64),
    path_outage: (f64, f64),
}

/// Client counts per profile in the mix's proportions, by largest
/// remainder: the cohorts are the same size under every seed, so the seed
/// moves the paths and oscillators, not who is on which.
fn apportion(mix: ProfileMix, n: usize) -> Vec<usize> {
    let total: u32 = mix.weights.iter().sum();
    let exact: Vec<f64> = mix
        .weights
        .iter()
        .map(|&w| n as f64 * w as f64 / total as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Upstream(u32),
    Send(u32),
    Arrive(u32),
    Deliver(u32),
}

/// Events ordered by time, then by insertion: times are positive, so
/// their bit patterns order as the floats do.
#[derive(Default)]
struct Schedule {
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    pushed: u64,
}

impl Schedule {
    fn push(&mut self, t: f64, event: Event) {
        self.pushed += 1;
        self.heap.push(Reverse((t.to_bits(), self.pushed, event)));
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, e))| (f64::from_bits(t), e))
    }

    /// Pops the next event if it is an arrival no later than `until`.
    fn pop_arrival_until(&mut self, until: f64) -> Option<u32> {
        match self.heap.peek() {
            Some(Reverse((t, _, Event::Arrive(c)))) if f64::from_bits(*t) <= until => {
                let c = *c;
                self.heap.pop();
                Some(c)
            }
            _ => None,
        }
    }
}

/// A request in flight: one per client at most.
struct Pending {
    sent_at: f64,
    e: SimExchange,
    request: NtpPacket,
    wire: [u8; PACKET_LEN],
    response: ([u8; PACKET_LEN], usize),
    id: u64,
    sampled: bool,
}

/// What the audited pass collects beyond the digest.
#[derive(Default)]
struct Audit {
    /// Client read errors in µs, per profile.
    errs_us: [Vec<f64>; 5],
    bounds_us: Vec<f64>,
    stal_in_outage: u64,
    stal_outside: u64,
    served_after_outage: u64,
    buckets: Vec<u32>,
    non_finite: u64,
    /// Per client: samples accepted so far. Reads are scored past the
    /// first [`WARM`], as in the single-clock workloads — so the reads of
    /// a client coming back from an outage count.
    accepted: Vec<usize>,
}

/// Counters every pass keeps (they feed the digest).
#[derive(Default, Clone, Copy)]
struct Counts {
    requests: u64,
    accepted: u64,
    rejected: u64,
    timeouts: u64,
    refused: u64,
    protocol_errors: u64,
    bound_violations: u64,
    batches: u64,
    batched: u64,
    publishes: u64,
}

struct Outcome {
    digest: u64,
    counts: Counts,
    secs: f64,
    transitions: u64,
    synced_share: f64,
    state_kb_per_clock: f64,
}

/// The daemon's counter at true time `t`, interpolated between the
/// neighbouring upstream readings, whose true times are known. `at` only
/// moves forward.
fn daemon_tsc(upstream: &[Upstream], at: &mut usize, t: f64) -> u64 {
    while *at + 2 < upstream.len() && upstream[*at + 1].read_at <= t {
        *at += 1;
    }
    let (a, b) = (&upstream[*at], &upstream[*at + 1]);
    let slope = b.raw.tf_tsc.wrapping_sub(a.raw.tf_tsc) as f64 / (b.read_at - a.read_at);
    (a.raw.tf_tsc as f64 + (t - a.read_at) * slope) as u64
}

/// One pass of the loop: the measured unit. `audit` is `None` in a rep.
fn run_loop(
    world: &World,
    tracer: &mut Tracer,
    chunks: &mut Chunks,
    mut audit: Option<&mut Audit>,
) -> Outcome {
    // -- untimed: a fresh daemon, warmed, and cold clients ---------------
    let mut daemon = TscNtpClock::new(world.clock);
    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    let mut next_up = 0usize;
    while world.upstream[next_up].tf < WARM_S {
        let u = &world.upstream[next_up];
        if let Some(o) = daemon.process(u.raw) {
            publisher.observe(&o);
        }
        publisher.publish_clock(&daemon, u.raw.tf_tsc);
        next_up += 1;
    }
    let mut plane = ServePlane::new(
        Arc::clone(&cell),
        ServeConfig {
            stale_horizon: STALE_HORIZON,
            residence: RESIDENCE,
            batch: BATCH,
        },
    );
    let mut transport = SimTransport::new();
    let (mut rx, mut tx) = (BatchBufs::new(BATCH), BatchBufs::new(BATCH));

    let mut clients: Vec<LifecycleClient> = world
        .clients
        .iter()
        .map(|c| LifecycleClient::new(c.lifecycle, world.clock, c.seed, WARM_S))
        .collect();
    let mut sims: Vec<OnDemandSim> = world
        .clients
        .iter()
        .map(|c| OnDemandSim::new(&c.scenario))
        .collect();
    let nominal_period = 1.0 / sims[0].tsc_freq_hz();
    let mut pending: Vec<Option<Pending>> = world.clients.iter().map(|_| None).collect();
    let mut schedule = Schedule::default();
    for (c, client) in clients.iter().enumerate() {
        schedule.push(client.next_send(), Event::Send(c as u32));
    }
    schedule.push(world.upstream[next_up].tf, Event::Upstream(next_up as u32));
    if let Some(audit) = audit.as_deref_mut() {
        audit.buckets = vec![0; ((world.horizon - WARM_S) / BUCKET_S) as usize + 1];
        audit.accepted = vec![0; clients.len()];
    }

    let mut counts = Counts::default();
    let mut digest = FNV_OFFSET;
    let mut tsc_at = next_up.saturating_sub(1);
    let mut batch: Vec<u32> = Vec::with_capacity(BATCH);
    let mut stamps: Vec<u64> = Vec::with_capacity(BATCH);
    let (mut events, mut done) = (0u64, 0u64);

    // -- timed: the event loop -------------------------------------------
    let started = Instant::now();
    let mut chunk_started = started;
    loop {
        events += 1;
        let span = tracer.open_if(events % SAMPLE == 0, "bench.sched_pop", 0);
        let next = schedule.pop();
        tracer.close(span);
        let Some((t, event)) = next else { break };
        // A request's last stage: fold its outcome, schedule the next.
        let mut finished: Option<(usize, u64, bool, u64)> = None;
        match event {
            Event::Upstream(j) => {
                let u = &world.upstream[j as usize];
                if !(world.daemon_outage.0..world.daemon_outage.1).contains(&u.tf) {
                    let span = tracer.open("core.process", 0);
                    let out = daemon.process(u.raw);
                    tracer.close(span);
                    if let Some(o) = out {
                        publisher.observe(&o);
                    }
                    let span = tracer.open("serve.publish", 0);
                    publisher.publish_clock(&daemon, u.raw.tf_tsc);
                    tracer.close(span);
                    counts.publishes += 1;
                }
                if let Some(next) = world
                    .upstream
                    .get(j as usize + 1)
                    .filter(|n| n.tf < world.horizon)
                {
                    schedule.push(next.tf, Event::Upstream(j + 1));
                }
            }
            Event::Send(c) => {
                let c = c as usize;
                counts.requests += 1;
                let id = counts.requests;
                let sampled = id % SAMPLE == 0;
                let root = tracer.open_if(sampled, "bench.send", id);
                let span = tracer.open_if(sampled, "fleet.next_send", id);
                clients[c].end_cooldown(t);
                clients[c].note_request();
                tracer.close(span);
                let span = tracer.open_if(sampled, "netsim.exchange_at", id);
                let e = sims[c].exchange_at(t);
                tracer.close(span);
                if let Some(audit) = audit.as_deref_mut() {
                    audit.buckets[((t - WARM_S) / BUCKET_S) as usize] += 1;
                }
                let timeout = world.clients[c].lifecycle.timeout;
                if e.lost || e.truth.tf - t > timeout {
                    // lost, or answered after the client gave up
                    let span = tracer.open_if(sampled, "fleet.on_timeout", id);
                    clients[c].on_timeout(t + timeout);
                    tracer.close(span);
                    counts.timeouts += 1;
                    finished = Some((c, id, sampled, 4));
                } else {
                    let span = tracer.open_if(sampled, "ntp.encode", id);
                    let request =
                        NtpPacket::client_request(NtpTimestamp::from_unix_seconds(e.truth.ta), 4);
                    let mut wire = [0u8; PACKET_LEN];
                    request.encode_into(&mut wire);
                    tracer.close(span);
                    let span = tracer.open_if(sampled, "bench.sched", id);
                    schedule.push(e.truth.tb, Event::Arrive(c as u32));
                    tracer.close(span);
                    pending[c] = Some(Pending {
                        sent_at: t,
                        e,
                        request,
                        wire,
                        response: ([0; PACKET_LEN], 0),
                        id,
                        sampled,
                    });
                }
                tracer.close(root);
            }
            Event::Arrive(first) => {
                // Whatever else arrives within the wake-up joins the batch.
                batch.clear();
                batch.push(first);
                while batch.len() < BATCH {
                    match schedule.pop_arrival_until(t + WAKE_QUANTUM) {
                        Some(c) => batch.push(c),
                        None => break,
                    }
                }
                let (id, sampled) = pending[first as usize]
                    .as_ref()
                    .map_or((0, false), |p| (p.id, p.sampled));
                let root = tracer.open_if(sampled, "bench.arrive", id);
                stamps.clear();
                for &c in &batch {
                    let p = pending[c as usize]
                        .as_ref()
                        .expect("arrival has a pending request");
                    stamps.push(daemon_tsc(&world.upstream, &mut tsc_at, p.e.truth.tb));
                }
                let span = tracer.open_if(sampled, "serve.transport", id);
                for &c in &batch {
                    transport.push_request(&pending[c as usize].as_ref().expect("pending").wire);
                }
                let n = transport.recv_batch(&mut rx, BATCH).expect("sim transport");
                tracer.close(span);
                let mut stamp = stamps.iter();
                let span = tracer.open_if(sampled, "serve.serve_batch", id);
                plane.serve_batch(&rx, n, &mut tx, &mut || {
                    *stamp.next().expect("one stamp a request")
                });
                tracer.close(span);
                let span = tracer.open_if(sampled, "serve.transport", id);
                transport.send_batch(&tx, n).expect("sim transport");
                for &c in &batch {
                    let p = pending[c as usize].as_mut().expect("pending");
                    p.response = transport
                        .pop_response()
                        .expect("every valid request is answered");
                }
                tracer.close(span);
                let span = tracer.open_if(sampled, "bench.sched", id);
                for &c in &batch {
                    let tf = pending[c as usize].as_ref().expect("pending").e.truth.tf;
                    schedule.push(tf, Event::Deliver(c));
                }
                tracer.close(span);
                tracer.close(root);
                counts.batches += 1;
                counts.batched += n as u64;
            }
            Event::Deliver(c) => {
                let c = c as usize;
                let p = pending[c].take().expect("delivery has a pending request");
                let (id, sampled, e) = (p.id, p.sampled, &p.e);
                let root = tracer.open_if(sampled, "bench.deliver", id);
                let span = tracer.open_if(sampled, "ntp.decode", id);
                let decoded = NtpPacket::decode(&p.response.0[..p.response.1]);
                tracer.close(span);
                let span = tracer.open_if(sampled, "ntp.validate", id);
                let verdict = decoded.and_then(|r| r.validate_response(&p.request).map(|()| r));
                tracer.close(span);
                let code = match verdict {
                    Ok(r) => {
                        let (tb, te) = (
                            r.receive_ts.to_unix_seconds(),
                            r.transmit_ts.to_unix_seconds(),
                        );
                        let bound = r.root_dispersion.to_seconds();
                        // the served time against the true arrival time
                        counts.bound_violations +=
                            u64::from(exceeds((tb - e.truth.tb).abs(), bound));
                        let raw = RawExchange {
                            ta_tsc: e.ta_tsc,
                            tb,
                            te,
                            tf_tsc: e.tf_tsc,
                        };
                        let span = tracer.open_if(sampled, "fleet.on_response", id);
                        let outcome = clients[c].on_response(e.truth.tf, raw, nominal_period);
                        tracer.close(span);
                        let span = tracer.open_if(sampled, "fleet.read", id);
                        let read = clients[c].read(e.tf_tsc, e.truth.tf);
                        tracer.close(span);
                        if let Some(audit) = audit.as_deref_mut() {
                            audit.bounds_us.push(bound * 1e6);
                            audit.served_after_outage +=
                                u64::from(e.truth.tb >= world.daemon_outage.1);
                            audit.accepted[c] +=
                                usize::from(matches!(outcome, ExchangeOutcome::Accepted(_)));
                            if let ReadVerdict::Fresh { time, .. }
                            | ReadVerdict::Degraded { time, .. } = read
                            {
                                audit.non_finite += u64::from(!time.is_finite());
                                if audit.accepted[c] > WARM {
                                    let bias = world.clients[c].asymmetry_bias;
                                    let err = (time - e.truth.tf - bias).abs() * 1e6;
                                    audit.errs_us[world.clients[c].profile].push(err);
                                }
                            }
                        }
                        match outcome {
                            ExchangeOutcome::Accepted(Some(_)) => {
                                counts.accepted += 1;
                                1
                            }
                            ExchangeOutcome::Accepted(None) => {
                                counts.accepted += 1;
                                2
                            }
                            ExchangeOutcome::Rejected { .. } => {
                                counts.rejected += 1;
                                3
                            }
                            ExchangeOutcome::TimedOut => {
                                unreachable!("on_response never times out")
                            }
                        }
                    }
                    Err(err) => {
                        // A refusal tells the client nothing about the
                        // time: it waits out its timeout and backs off.
                        match err {
                            PacketError::KissOfDeath(code) => {
                                counts.refused += 1;
                                if let Some(audit) = audit.as_deref_mut() {
                                    // The daemon hears again one poll after
                                    // the outage ends, give or take a loss.
                                    let window =
                                        world.daemon_outage.0..world.daemon_outage.1 + 4.0 * POLL;
                                    let inside = window.contains(&e.truth.tb);
                                    if code == REFUSE_STALE && inside {
                                        audit.stal_in_outage += 1;
                                    } else {
                                        audit.stal_outside += 1;
                                    }
                                }
                            }
                            _ => counts.protocol_errors += 1,
                        }
                        let span = tracer.open_if(sampled, "fleet.on_timeout", id);
                        clients[c].on_timeout(p.sent_at + world.clients[c].lifecycle.timeout);
                        tracer.close(span);
                        5
                    }
                };
                finished = Some((c, id, sampled, code));
                tracer.close(root);
            }
        }
        if let Some((c, id, sampled, code)) = finished {
            let span = tracer.open_if(sampled, "fleet.next_send", id);
            let next = clients[c].next_send().max(sims[c].earliest_next());
            tracer.close(span);
            digest = fold(digest, next.to_bits());
            digest = fold(
                digest,
                code | (clients[c].state() as u64) << 8 | (c as u64) << 16,
            );
            if next < world.horizon {
                let span = tracer.open_if(sampled, "bench.sched", id);
                schedule.push(next, Event::Send(c as u32));
                tracer.close(span);
            }
            done += 1;
            if done % CHUNK == 0 {
                chunks.push(chunk_started, CHUNK as usize);
                chunk_started = Instant::now();
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();

    // -- untimed: close the books ----------------------------------------
    let (mut transitions, mut synced, mut total) = (0u64, 0.0f64, 0.0f64);
    for client in &mut clients {
        client.finish(world.horizon);
        transitions += client.transition_count();
        let in_state = client.time_in_state();
        synced += in_state[ClientState::Synced as usize];
        total += in_state.iter().sum::<f64>();
        for s in in_state {
            digest = fold(digest, s.to_bits());
        }
    }
    for word in [
        counts.requests,
        counts.accepted,
        counts.rejected,
        counts.timeouts,
        counts.refused,
        counts.protocol_errors,
        counts.bound_violations,
        counts.batches,
        counts.publishes,
        transitions,
    ] {
        digest = fold(digest, word);
    }
    // What the clients alone hold, each with its warmed clock: the bytes
    // the allocator gets back when they go.
    let n = clients.len() as f64;
    let held = crate::live_bytes();
    drop(clients);
    let state_kb_per_clock = (held - crate::live_bytes()) as f64 / 1024.0 / n;
    Outcome {
        digest,
        counts,
        secs,
        transitions,
        synced_share: synced / total,
        state_kb_per_clock,
    }
}

impl ClosedLoop {
    fn world(&self, seed: u64, world: u64) -> World {
        let span = self.hours * 3600.0;
        let horizon = WARM_S + span;
        // Outages are the harness dropping exchanges, not the simulator's
        // outage windows: the upstream's counter stamps then run through
        // the gap, and the daemon's counter stays known to within one
        // poll's interpolation while it hears nothing.
        let daemon_outage = (WARM_S + span / 4.0, WARM_S + span / 4.0 + 3600.0);
        let path_outage = (WARM_S + span / 2.0, WARM_S + span / 2.0 + 1800.0);
        let up = Scenario::baseline(sub_seed(seed, TAG + world, u64::MAX))
            .with_poll_period(POLL)
            .with_duration(horizon + 10.0 * POLL);
        let upstream = up
            .stream()
            .filter(|e| !e.lost)
            .map(|e| Upstream {
                tf: e.truth.tf,
                read_at: traces::read_time(&e, up.tsc_freq_hz),
                raw: traces::observables(&e),
            })
            .collect();
        let template = Scenario::baseline(0)
            .with_poll_period(POLL)
            .with_duration(horizon)
            .with_outage(path_outage.0, path_outage.1);
        let mut clients = Vec::with_capacity(self.clients);
        for (profile, &count) in apportion(ProfileMix::consumer(), self.clients)
            .iter()
            .enumerate()
        {
            // An accuracy-only world keeps just the cohorts it is scored
            // on: the daemon's behaviour does not depend on its load.
            if world > 0 && profile >= WIRED {
                continue;
            }
            for _ in 0..count {
                let client_seed = sub_seed(seed, TAG + world, clients.len() as u64);
                let path: PathProfile = ALL_PROFILES[profile];
                let params = path.params();
                clients.push(ClientSpec {
                    profile,
                    asymmetry_bias: (params.fwd_min - params.back_min) / 2.0,
                    scenario: path.apply(&template, client_seed),
                    lifecycle: LifecycleConfig::for_profile(path, POLL),
                    seed: client_seed,
                });
            }
        }
        World {
            upstream,
            clients,
            clock: ClockConfig::paper_defaults(POLL),
            horizon,
            daemon_outage,
            path_outage,
        }
    }
}

impl Workload for ClosedLoop {
    type Input = Input;
    const NAME: &'static str = "closed_loop";

    fn setup(&self, seed: u64) -> Input {
        Input {
            seed,
            world: self.world(seed, 0),
        }
    }

    fn oracle(&self, input: &mut Input) -> Oracle {
        let mut oracle = Oracle::default();
        let world = &input.world;
        let mut audit = Audit::default();
        let out = run_loop(
            world,
            &mut Tracer::disabled(),
            &mut Chunks::default(),
            Some(&mut audit),
        );
        let c = out.counts;
        oracle.digest = out.digest;
        oracle.attempted = c.requests;
        oracle.failed = c.bound_violations + c.protocol_errors + audit.non_finite;
        oracle.unserved = c.timeouts + c.refused + c.rejected;
        oracle.check(
            "0 served responses outside their wire bound",
            c.bound_violations == 0,
        );
        oracle.check(
            "no malformed or mismatched response",
            c.protocol_errors == 0,
        );
        oracle.check("no non-finite time read", audit.non_finite == 0);
        oracle.check(
            "STAL refusals inside the daemon-outage window",
            audit.stal_in_outage > 0,
        );
        oracle.check(
            "no refusal outside the daemon-outage window",
            audit.stal_outside == 0,
        );
        oracle.check(
            "serving resumed after the daemon outage",
            audit.served_after_outage > 0,
        );
        oracle.check("timeouts during the client-path outage", c.timeouts > 0);
        oracle.notes.push(format!(
            "{} clients x {} h: {} requests, {} accepted, {} rejected, {} lost or late, \
             {} refused STAL; path outage {:?}, daemon outage {:?}",
            world.clients.len(),
            self.hours,
            c.requests,
            c.accepted,
            c.rejected,
            c.timeouts,
            c.refused,
            world.path_outage,
            world.daemon_outage
        ));
        sort(&mut audit.bounds_us);
        let recovery = ((world.daemon_outage.1 - WARM_S) / BUCKET_S) as usize;
        let herd_peak = audit.buckets[recovery..].iter().copied().max().unwrap_or(0);
        oracle.layer(
            "serve.bound_us_p50",
            "us",
            percentile(&audit.bounds_us, 0.5),
        );
        oracle.layer(
            "serve.batch_fill_mean",
            "count",
            c.batched as f64 / c.batches as f64,
        );
        oracle.layer("serve.publishes", "count", c.publishes as f64);
        oracle.layer("serve.served", "count", (c.batched - c.refused) as f64);
        oracle.layer("serve.refused_stal", "count", audit.stal_in_outage as f64);
        oracle.layer("core.pkts", "count", (c.accepted + c.publishes) as f64);
        oracle.layer("core.state_kb_per_clock", "KiB", out.state_kb_per_clock);
        oracle.layer("netsim.pkts", "count", c.requests as f64);
        oracle.layer(
            "netsim.lost_share",
            "share",
            c.timeouts as f64 / c.requests as f64,
        );
        oracle.layer(
            "fleet.accept_share",
            "share",
            c.accepted as f64 / c.requests as f64,
        );
        oracle.layer("fleet.rejected", "count", c.rejected as f64);
        oracle.layer("fleet.timeouts", "count", (c.timeouts + c.refused) as f64);
        oracle.layer("fleet.transitions", "count", out.transitions as f64);
        oracle.layer("fleet.herd_peak_per_bucket", "count", f64::from(herd_peak));
        oracle.layer("fleet.synced_time_share", "share", out.synced_share);

        // Every client of a world inherits its one daemon's wander, so one
        // world's median error says as much about that daemon as about the
        // system. The wired cohorts of a few more worlds, run here and
        // dropped, are pooled into the accuracy figures; nothing else about
        // them is reported, but a wrong outcome in one fails the run.
        let mut errs_us = audit.errs_us;
        for w in 1..=self.accuracy_worlds {
            let extra = self.world(input.seed, w);
            let mut audit = Audit::default();
            let out = run_loop(
                &extra,
                &mut Tracer::disabled(),
                &mut Chunks::default(),
                Some(&mut audit),
            );
            oracle.failed +=
                out.counts.bound_violations + out.counts.protocol_errors + audit.non_finite;
            for (all, errs) in errs_us.iter_mut().zip(&mut audit.errs_us).take(WIRED) {
                all.append(errs);
            }
        }
        for errs in &mut errs_us {
            sort(errs);
        }
        oracle.check(
            "datacenter cohort time_err_us_p50 <= 100",
            percentile(&errs_us[0], 0.5) <= 100.0,
        );
        for (k, profile) in ALL_PROFILES.iter().enumerate() {
            let name = format!("fleet.err_us_p50.{}", profile.name());
            oracle.layer(&name, "us", percentile(&errs_us[k], 0.5));
        }
        // The headline error is over the wired cohorts, whose paths let
        // the clock show what it can do.
        oracle.errs_us = errs_us.into_iter().take(WIRED).flatten().collect();
        oracle
    }

    fn rep(&self, input: &mut Input, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep {
        let out = run_loop(&input.world, tracer, chunks, None);
        Rep {
            ops: out.counts.requests,
            secs: out.secs,
            digest: out.digest,
        }
    }

    fn layers(&self, _input: &mut Input, totals: &Totals, traced: &Measured) -> Layers {
        let mut layers = Layers::default();
        // Sampled stages are per sampled request, and read as medians:
        // the op they are reconciled against is a median too, and a few
        // slow requests (a congestion episode, an offset rebuild) pull
        // every stage's mean well above what the median request pays.
        // The daemon's own work is spanned every time and spread over
        // all requests.
        let sampled = totals.count("bench.send");
        let per_sampled = |name: &str| totals.typical_per(name, sampled);
        let events_per_request =
            totals.count("bench.sched_pop") as f64 * SAMPLE as f64 / traced.ops as f64;
        let sched =
            totals.median("bench.sched_pop") * events_per_request + per_sampled("bench.sched");
        let daemon =
            totals.per("core.process", traced.ops) + totals.per("serve.publish", traced.ops);

        layers.metric("fleet.next_send_ns", "ns", per_sampled("fleet.next_send"));
        layers.metric(
            "netsim.exchange_at_ns",
            "ns",
            totals.median("netsim.exchange_at"),
        );
        layers.metric("ntp.encode_ns", "ns", totals.median("ntp.encode"));
        layers.metric("ntp.decode_ns", "ns", totals.median("ntp.decode"));
        layers.metric("ntp.validate_ns", "ns", totals.median("ntp.validate"));
        layers.metric(
            "serve.serve_batch_ns_per_req",
            "ns",
            totals.median("serve.serve_batch"),
        );
        layers.metric(
            "serve.transport_ns_per_req",
            "ns",
            per_sampled("serve.transport"),
        );
        layers.metric("serve.publish_ns.calm", "ns", totals.mean("serve.publish"));
        layers.metric(
            "fleet.on_response_ns",
            "ns",
            totals.median("fleet.on_response"),
        );
        layers.metric(
            "fleet.on_timeout_ns",
            "ns",
            totals.median("fleet.on_timeout"),
        );
        layers.metric("fleet.read_ns", "ns", totals.median("fleet.read"));
        layers.metric("core.process_ns_per_pkt", "ns", totals.mean("core.process"));
        layers.metric("bench.sched_ns_per_req", "ns", sched);

        layers.budget = vec![
            ("bench.sched", sched),
            ("fleet.next_send", per_sampled("fleet.next_send")),
            ("netsim.exchange_at", per_sampled("netsim.exchange_at")),
            ("ntp.encode", per_sampled("ntp.encode")),
            ("serve.transport", per_sampled("serve.transport")),
            ("serve.serve_batch", per_sampled("serve.serve_batch")),
            ("ntp.decode", per_sampled("ntp.decode")),
            ("ntp.validate", per_sampled("ntp.validate")),
            (
                "fleet.on_response (incl. the client's core.process)",
                per_sampled("fleet.on_response"),
            ),
            ("fleet.read", per_sampled("fleet.read")),
            ("fleet.on_timeout", per_sampled("fleet.on_timeout")),
            ("daemon core.process + serve.publish", daemon),
        ];
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_follows_the_weights_and_sums_to_n() {
        let mix = ProfileMix::consumer(); // 5 : 35 : 30 : 25 : 5
        assert_eq!(apportion(mix, 100), vec![5, 35, 30, 25, 5]);
        assert_eq!(apportion(mix, 64), vec![3, 23, 19, 16, 3]);
        for n in [1, 7, 10, 63, 512] {
            assert_eq!(apportion(mix, n).iter().sum::<usize>(), n);
        }
        // every cohort of the full-size run is populated
        assert!(apportion(mix, 64).iter().all(|&c| c > 0));
    }

    #[test]
    fn schedule_orders_by_time_then_insertion() {
        let mut s = Schedule::default();
        s.push(2.0, Event::Send(1));
        s.push(1.0, Event::Arrive(7));
        s.push(1.0, Event::Arrive(8));
        s.push(1.00005, Event::Arrive(9));
        s.push(1.5, Event::Deliver(3));
        assert_eq!(s.pop(), Some((1.0, Event::Arrive(7))));
        // the wake-up window takes later arrivals, not other events
        assert_eq!(s.pop_arrival_until(1.0001), Some(8));
        assert_eq!(s.pop_arrival_until(1.0001), Some(9));
        assert_eq!(s.pop_arrival_until(10.0), None);
        assert_eq!(s.pop(), Some((1.5, Event::Deliver(3))));
        assert_eq!(s.pop(), Some((2.0, Event::Send(1))));
        assert_eq!(s.pop(), None);
    }
}
