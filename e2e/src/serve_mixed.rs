//! `serve_mixed`: the daemon under saturation. Pre-encoded requests —
//! 94 % valid, 3 % truncated or garbage, 3 % non-client mode — cycle
//! through `SimTransport` into `ServePlane::serve_batch`, in batches of 64
//! and of 1, through INIT → UNSY → serving → STAL → recovery, while a
//! second thread republishes the snapshot at ~1 kHz and, for one pair of
//! segments, as fast as it can.
//!
//! Why: `serve` and the `ntp` codec do all the work and `core` none; the
//! storm segments are the same layer used differently, writes beside
//! reads.
//!
//! Truth: every snapshot the daemon's discipline loop would publish over
//! several upstream traces is recorded at set-up, each paired with the
//! *next* upstream exchange's counter reading `tf_tsc` and the true time
//! of that reading — a request stamped there is served one poll period
//! stale, the shape of `crates/serve/tests/ground_truth.rs`. The truth is
//! [`traces::read_time`], not `tg`: a served time answers "when was this
//! counter value read", and `tg` is the packet's arrival, which the
//! host's timestamping latency separates from the read by up to
//! milliseconds.

use crate::harness::{
    exceeds, fold, percentile, sort, sub_seed, Chunks, Layers, Measured, Oracle, Rep, Size,
    Workload, FNV_OFFSET,
};
use crate::trace::{Totals, Tracer};
use crate::traces;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsc_netsim::multi::splitmix64;
use tsc_netsim::Scenario;
use tsc_ntp::packet::{Mode, NtpPacket, PacketError, PACKET_LEN};
use tsc_ntp::timestamp::NtpTimestamp;
use tsc_serve::{
    BatchBufs, ClockSnapshot, DatagramBatch, PublishPolicy, Publisher, ServeConfig, ServePlane,
    SimTransport, SnapshotCell, REFUSE_INIT, REFUSE_STALE, REFUSE_UNSYNC,
};
use tscclock::{ClockConfig, TscNtpClock};

const TAG: u64 = 0x7365_7276; // "serv"
const POLL: f64 = 16.0;
const BATCH: usize = 64;
const POOL: usize = 64 * 1024;
const STALE_HORIZON: f64 = 600.0;

pub struct ServeMixed {
    upstreams: u64,
    upstream_days: f64,
    /// Requests per serving segment at batch 64.
    segment: usize,
}

impl ServeMixed {
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                upstreams: 48,
                upstream_days: 1.0,
                segment: 32 * 1024,
            },
            Size::Smoke => Self {
                upstreams: 1,
                upstream_days: 0.25,
                segment: 1024,
            },
        }
    }
}

/// A published snapshot and the stamp its requests are served at.
#[derive(Clone, Copy)]
struct Seal {
    snap: ClockSnapshot,
    /// Counter reading of the next upstream exchange, and the true time
    /// it was read at.
    tsc: u64,
    truth: f64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Nothing published yet: every request is refused `INIT`.
    Init,
    /// An unsynchronised snapshot: refused `UNSY`.
    Unsynced,
    Serve,
    /// Counter pushed past the stale horizon: refused `STAL`.
    Stale,
}

#[derive(Clone, Copy)]
struct Segment {
    phase: Phase,
    /// Index into `Input::seals` of the snapshot in force.
    seal: usize,
    batch: usize,
    requests: usize,
    storm: bool,
}

/// One pre-encoded datagram of the request pool.
struct Datagram {
    bytes: [u8; PACKET_LEN],
    len: usize,
    /// The request a response must echo; `None` for a datagram the plane
    /// must drop.
    request: Option<NtpPacket>,
}

pub struct Input {
    seals: Vec<Seal>,
    /// Pre-encoded datagrams and, for the valid ones, the request packet
    /// a response must echo.
    pool: Vec<Datagram>,
    plan: Vec<Segment>,
    /// Counts that push a stamp past the stale horizon.
    stale_push: u64,
}

// Republisher modes: paced at ~1 kHz, un-paced, done.
const CALM: u8 = 0;
const STORM: u8 = 1;
const EXIT: u8 = 2;
const NO_SEAL: usize = usize::MAX;

/// Hand-off between the serve thread and the republisher. The serve
/// thread names the seal it wants in force; the republisher — the cell's
/// only writer — publishes it, again and again, and says which seal its
/// last publish carried. Acquire/Release pair `want`→publish and
/// publish→`have`.
struct Handoff {
    mode: AtomicU8,
    want: AtomicUsize,
    have: AtomicUsize,
}

#[derive(Default, Clone, Copy)]
struct PublishStats {
    calm_ns: u64,
    calm: u64,
    storm_ns: u64,
    storm: u64,
}

fn republish(
    handoff: &Handoff,
    seals: &[Seal],
    unsynced: usize,
    mut publisher: Publisher,
) -> PublishStats {
    let mut stats = PublishStats::default();
    loop {
        let mode = handoff.mode.load(Ordering::Acquire);
        let want = handoff.want.load(Ordering::Acquire);
        if mode == EXIT {
            return stats;
        }
        if want == NO_SEAL {
            std::thread::park();
            continue;
        }
        let snap = &seals[want.min(seals.len() - 1)].snap;
        let synced = want != unsynced;
        let started = Instant::now();
        publisher.seal_with_bound(snap.tsc0, snap.base, snap.rate, snap.bound, synced);
        let ns = started.elapsed().as_nanos() as u64;
        handoff.have.store(want, Ordering::Release);
        if mode == STORM {
            stats.storm_ns += ns;
            stats.storm += 1;
        } else {
            stats.calm_ns += ns;
            stats.calm += 1;
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
}

/// The serve thread's side of the hand-off.
struct Control<'a> {
    handoff: &'a Handoff,
    thread: std::thread::Thread,
}

impl Control<'_> {
    fn mode(&self, mode: u8) {
        self.handoff.mode.store(mode, Ordering::Release);
        self.thread.unpark();
    }

    /// Puts `seal` in force and waits until a publish carried it.
    fn put(&self, seal: usize) {
        self.handoff.want.store(seal, Ordering::Release);
        self.thread.unpark();
        while self.handoff.have.load(Ordering::Acquire) != seal {
            std::thread::yield_now();
        }
    }
}

/// Runs `body` with a republisher thread on a fresh cell; returns the
/// body's value and what the republisher measured.
fn with_republisher<T>(
    input: &Input,
    body: impl FnOnce(&Arc<SnapshotCell>, &Control) -> T,
) -> (T, PublishStats) {
    let cell = Arc::new(SnapshotCell::new());
    let publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    let handoff = Handoff {
        mode: AtomicU8::new(CALM),
        want: AtomicUsize::new(NO_SEAL),
        have: AtomicUsize::new(NO_SEAL),
    };
    let unsynced = input.seals.len();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| republish(&handoff, &input.seals, unsynced, publisher));
        let control = Control {
            handoff: &handoff,
            thread: worker.thread().clone(),
        };
        let value = body(&cell, &control);
        control.mode(EXIT);
        let stats = worker.join().expect("republisher panicked");
        (value, stats)
    })
}

/// What the audited pass learns beyond the digest.
#[derive(Default)]
struct Audit {
    errs_us: Vec<f64>,
    bounds_us: Vec<f64>,
    margins: Vec<f64>,
    out_of_bound: u64,
    unanswered: u64,
    wrong_refusal: u64,
    init: u64,
    unsy: u64,
    stal: u64,
    served_after_stale: u64,
}

impl Audit {
    /// Scores one response against the request it answers.
    fn score(
        &mut self,
        phase: Phase,
        after_stale: bool,
        seal: &Seal,
        request: &NtpPacket,
        response: &[u8],
    ) {
        let verdict = NtpPacket::decode(response).map(|p| (p.validate_response(request), p));
        match verdict {
            Ok((Ok(()), p)) if phase == Phase::Serve => {
                let err = (p.receive_ts.to_unix_seconds() - seal.truth).abs();
                let bound = p.root_dispersion.to_seconds();
                self.errs_us.push(err * 1e6);
                self.bounds_us.push(bound * 1e6);
                self.margins.push(err / bound);
                self.out_of_bound += u64::from(exceeds(err, bound));
                self.served_after_stale += u64::from(after_stale);
            }
            Ok((Err(PacketError::KissOfDeath(code)), _)) => match (phase, code) {
                (Phase::Init, REFUSE_INIT) => self.init += 1,
                (Phase::Unsynced, REFUSE_UNSYNC) => self.unsy += 1,
                (Phase::Stale, REFUSE_STALE) => self.stal += 1,
                _ => self.wrong_refusal += 1,
            },
            _ => self.wrong_refusal += 1,
        }
    }
}

/// Per-rep outcome of [`serve_plan`].
struct Served {
    digest: u64,
    responses: u64,
    secs: f64,
    stats: tsc_serve::ServeStats,
}

/// One pass over the plan: the measured unit. `audit` is `None` in a
/// timed rep.
fn serve_plan(
    input: &Input,
    cell: &Arc<SnapshotCell>,
    control: &Control,
    tracer: &mut Tracer,
    chunks: &mut Chunks,
    mut audit: Option<&mut Audit>,
) -> Served {
    let cfg = ServeConfig {
        stale_horizon: STALE_HORIZON,
        ..ServeConfig::default()
    };
    let mut plane = ServePlane::new(Arc::clone(cell), cfg);
    let mut transport = SimTransport::new();
    let mut rx = BatchBufs::new(BATCH);
    let mut tx = BatchBufs::new(BATCH);
    let mut digest = FNV_OFFSET;
    let (mut responses, mut secs) = (0u64, 0.0f64);
    let mut cursor = 0usize;
    let mut after_stale = false;
    for segment in &input.plan {
        // Hand-offs are the harness's, not the plane's: outside the clock.
        match segment.phase {
            Phase::Init => {}
            Phase::Unsynced => control.put(input.seals.len()),
            Phase::Serve | Phase::Stale => control.put(segment.seal),
        }
        control.mode(if segment.storm { STORM } else { CALM });
        let seal = &input.seals[segment.seal];
        let tsc = match segment.phase {
            Phase::Stale => seal.tsc + input.stale_push,
            _ => seal.tsc,
        };
        let mut tsc_now = move || tsc;
        let segment_started = Instant::now();
        for _ in 0..segment.requests / BATCH {
            let chunk_started = Instant::now();
            let first = cursor;
            for _ in 0..BATCH / segment.batch {
                let span = tracer.open("serve.transport", 0);
                for _ in 0..segment.batch {
                    let datagram = &input.pool[cursor % POOL];
                    transport.push_request(&datagram.bytes[..datagram.len]);
                    cursor += 1;
                }
                let n = transport
                    .recv_batch(&mut rx, segment.batch)
                    .expect("sim transport");
                tracer.close(span);
                let span = tracer.open("serve.serve_batch", 0);
                plane.serve_batch(&rx, n, &mut tx, &mut tsc_now);
                tracer.close(span);
                let span = tracer.open("serve.transport", 0);
                transport.send_batch(&tx, n).expect("sim transport");
                tracer.close(span);
            }
            // Responses come back in request order, dropped slots skipped.
            let mut answered =
                (first..cursor).filter_map(|r| input.pool[r % POOL].request.as_ref());
            let span = tracer.open("serve.transport", 0);
            while let Some((bytes, len)) = transport.pop_response() {
                for word in bytes[..len].chunks_exact(8) {
                    digest = fold(
                        digest,
                        u64::from_le_bytes(word.try_into().expect("8 bytes")),
                    );
                }
                responses += 1;
                if let Some(audit) = audit.as_deref_mut() {
                    match answered.next() {
                        Some(request) => {
                            audit.score(segment.phase, after_stale, seal, request, &bytes[..len])
                        }
                        None => audit.wrong_refusal += 1,
                    }
                }
            }
            tracer.close(span);
            if let Some(audit) = audit.as_deref_mut() {
                audit.unanswered += answered.count() as u64;
            }
            chunks.push(chunk_started, BATCH);
        }
        secs += segment_started.elapsed().as_secs_f64();
        after_stale |= segment.phase == Phase::Stale;
    }
    let stats = plane.stats;
    for word in [
        stats.requests,
        stats.responses,
        stats.malformed,
        stats.refusals,
    ] {
        digest = fold(digest, word);
    }
    Served {
        digest,
        responses,
        secs,
        stats,
    }
}

/// Every snapshot the discipline loop would publish over one upstream
/// trace, through the real `Publisher`.
fn record_seals(seed: u64, days: f64, seals: &mut Vec<Seal>) {
    let sc = Scenario::baseline(seed)
        .with_poll_period(POLL)
        .with_duration(days * 86_400.0);
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(POLL));
    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    let mut sealed: Option<ClockSnapshot> = None;
    for e in sc.stream().filter(|e| !e.lost) {
        if let Some(snap) = sealed.take() {
            seals.push(Seal {
                snap,
                tsc: e.tf_tsc,
                truth: traces::read_time(&e, sc.tsc_freq_hz),
            });
        }
        if let Some(o) = clock.process(traces::observables(&e)) {
            publisher.observe(&o);
        }
        if publisher.publish_clock(&clock, e.tf_tsc) {
            sealed = cell.read();
        }
    }
}

/// The request pool: datagram `r`'s kind is a hash of the seed and `r`.
fn request_pool(seed: u64) -> Vec<Datagram> {
    let mut pool = Vec::with_capacity(POOL);
    for r in 0..POOL as u64 {
        let h = sub_seed(seed, TAG, 1 << 40 | r);
        let origin = NtpTimestamp::from_unix_seconds(1.0e6 + r as f64 * 1e-3);
        let mut packet = NtpPacket::client_request(origin, 4);
        let mut bytes = packet.encode();
        let mut len = PACKET_LEN;
        let mut valid = true;
        match h % 100 {
            // truncated: shorter than a header
            0 | 1 => {
                len = (splitmix64(h) % PACKET_LEN as u64) as usize;
                valid = false;
            }
            // garbage: random bytes under a version the codec refuses
            2 => {
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (splitmix64(h ^ i as u64) & 0xff) as u8;
                }
                bytes[0] = (bytes[0] & !0x38) | (7 << 3);
                valid = false;
            }
            // well-formed, but not a client request
            3..=5 => {
                packet.mode =
                    [Mode::Server, Mode::Broadcast, Mode::SymmetricActive][(h >> 8) as usize % 3];
                bytes = packet.encode();
                valid = false;
            }
            _ => {}
        }
        pool.push(Datagram {
            bytes,
            len,
            request: valid.then_some(packet),
        });
    }
    pool
}

impl Workload for ServeMixed {
    type Input = Input;
    const NAME: &'static str = "serve_mixed";

    fn threads(&self) -> usize {
        2
    }

    fn setup(&self, seed: u64) -> Input {
        // One allocation, sized for a lossless upstream: growing by
        // doubling would put a transient copy into the peak RSS on the
        // seeds whose count crosses a power of two.
        let polls = self.upstream_days * 86_400.0 / POLL;
        let mut seals = Vec::with_capacity((self.upstreams as f64 * polls) as usize);
        for u in 0..self.upstreams {
            record_seals(sub_seed(seed, TAG, u), self.upstream_days, &mut seals);
        }
        assert!(seals.len() >= 16, "upstream too short to warm the daemon");
        let pool = request_pool(seed);
        // Ten serving segments over seals spread across the upstream
        // traces: eight at batch 64 (the last two under the publish
        // storm), two at batch 1, around the three refusal phases.
        let at = |k: usize| (2 * k + 1) * seals.len() / 22;
        let seg = |phase, seal, batch, requests, storm| Segment {
            phase,
            seal,
            batch,
            requests,
            storm,
        };
        let refusal = self.segment / 8;
        let mut plan = vec![
            seg(Phase::Init, at(0), BATCH, refusal, false),
            seg(Phase::Unsynced, at(0), BATCH, refusal, false),
        ];
        for k in 0..10 {
            if k == 6 {
                plan.push(seg(Phase::Stale, at(k), BATCH, refusal, false));
            }
            let (batch, requests) = if k == 2 || k == 5 {
                (1, self.segment / 4)
            } else {
                (BATCH, self.segment)
            };
            plan.push(seg(Phase::Serve, at(k), batch, requests, k >= 8));
        }
        let rate = seals[0].snap.rate;
        Input {
            seals,
            pool,
            plan,
            stale_push: ((STALE_HORIZON + 60.0) / rate) as u64,
        }
    }

    fn oracle(&self, input: &mut Input) -> Oracle {
        let mut oracle = Oracle::default();
        let mut audit = Audit::default();
        let (served, publishes) = with_republisher(input, |cell, control| {
            serve_plan(
                input,
                cell,
                control,
                &mut Tracer::disabled(),
                &mut Chunks::default(),
                Some(&mut audit),
            )
        });

        // The accuracy sweep: every recorded seal serves one small batch
        // at its stamp. One writer again — this thread, the republisher
        // having exited.
        let cell = Arc::new(SnapshotCell::new());
        let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
        let cfg = ServeConfig {
            stale_horizon: STALE_HORIZON,
            ..ServeConfig::default()
        };
        let mut plane = ServePlane::new(Arc::clone(&cell), cfg);
        let mut transport = SimTransport::new();
        let (mut rx, mut tx) = (BatchBufs::new(BATCH), BatchBufs::new(BATCH));
        let request = input
            .pool
            .iter()
            .find_map(|d| d.request.as_ref())
            .expect("a valid request");
        let mut sweep = Audit::default();
        for seal in &input.seals {
            let s = &seal.snap;
            publisher.seal_with_bound(s.tsc0, s.base, s.rate, s.bound, true);
            transport.push_request(&request.encode());
            let n = transport.recv_batch(&mut rx, BATCH).expect("sim transport");
            plane.serve_batch(&rx, n, &mut tx, &mut || seal.tsc);
            transport.send_batch(&tx, n).expect("sim transport");
            match transport.pop_response() {
                Some((bytes, len)) => {
                    sweep.score(Phase::Serve, false, seal, request, &bytes[..len])
                }
                None => sweep.unanswered += 1,
            }
        }

        let valid = served.stats.requests - served.stats.malformed;
        oracle.digest = served.digest;
        oracle.attempted = valid + input.seals.len() as u64;
        oracle.failed = audit.out_of_bound
            + audit.unanswered
            + audit.wrong_refusal
            + sweep.out_of_bound
            + sweep.unanswered
            + sweep.wrong_refusal;
        oracle.check(
            "0 served responses outside their wire bound",
            audit.out_of_bound + sweep.out_of_bound == 0,
        );
        oracle.check(
            "every valid request answered",
            audit.unanswered + sweep.unanswered == 0,
        );
        oracle.check(
            "every refusal carries its phase's code",
            audit.wrong_refusal == 0,
        );
        oracle.check(
            "INIT, UNSY and STAL refusals all present",
            audit.init > 0 && audit.unsy > 0 && audit.stal > 0,
        );
        oracle.check("serving resumed after STAL", audit.served_after_stale > 0);
        oracle.check(
            "no non-finite served time",
            sweep
                .errs_us
                .iter()
                .chain(&audit.errs_us)
                .all(|e| e.is_finite()),
        );
        sort(&mut sweep.bounds_us);
        sort(&mut sweep.margins);
        oracle.layer(
            "serve.bound_us_p50",
            "us",
            percentile(&sweep.bounds_us, 0.5),
        );
        oracle.layer(
            "serve.err_over_bound_p50",
            "share",
            percentile(&sweep.margins, 0.5),
        );
        oracle.layer(
            "serve.batch_fill_mean",
            "count",
            served.stats.requests as f64 / served.stats.batches as f64,
        );
        oracle.layer(
            "serve.publishes",
            "count",
            (publishes.calm + publishes.storm) as f64,
        );
        oracle.layer("serve.served", "count", served.stats.responses as f64);
        oracle.layer("serve.malformed", "count", served.stats.malformed as f64);
        oracle.layer("serve.refused_init", "count", audit.init as f64);
        oracle.layer("serve.refused_unsy", "count", audit.unsy as f64);
        oracle.layer("serve.refused_stal", "count", audit.stal as f64);
        oracle.layer(
            "ntp.malformed_share",
            "share",
            served.stats.malformed as f64 / served.stats.requests as f64,
        );
        oracle.notes.push(format!(
            "accuracy sweep over {} published snapshots, each served one poll period stale",
            input.seals.len()
        ));
        oracle.errs_us = sweep.errs_us;
        oracle
    }

    fn rep(&self, input: &mut Input, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep {
        let (served, _) = with_republisher(input, |cell, control| {
            serve_plan(input, cell, control, tracer, chunks, None)
        });
        Rep {
            ops: served.responses,
            secs: served.secs,
            digest: served.digest,
        }
    }

    fn layers(&self, input: &mut Input, totals: &Totals, traced: &Measured) -> Layers {
        let mut layers = Layers::default();
        // Spans cover requests; the op is a response. Requests per rep
        // are fixed by the plan.
        let requests: usize = input.plan.iter().map(|s| s.requests).sum();
        let requests = (requests * traced.reps) as u64;
        layers.metric(
            "serve.serve_batch_ns_per_req",
            "ns",
            totals.per("serve.serve_batch", requests),
        );
        layers.metric(
            "serve.transport_ns_per_req",
            "ns",
            totals.per("serve.transport", requests),
        );
        let mut batch_us: Vec<f64> = traced
            .chunks
            .iter()
            .map(|ns| ns * BATCH as f64 / 1e3)
            .collect();
        sort(&mut batch_us);
        layers.metric("serve.batch_us_p99", "us", percentile(&batch_us, 0.99));

        // Side loop: seqlock reads and publishes, calm and under storm.
        const READS: usize = 2_000_000;
        let ((calm_read, storm_read), publishes) = with_republisher(input, |cell, control| {
            control.put(0);
            let time_reads = || {
                let started = Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(cell.read());
                }
                started.elapsed().as_nanos() as f64 / READS as f64
            };
            let calm = time_reads();
            // Let a few paced publishes land so the calm row has samples.
            std::thread::sleep(Duration::from_millis(20));
            control.mode(STORM);
            let storm = time_reads();
            (calm, storm)
        });
        layers.metric("serve.cell_read_ns.calm", "ns", calm_read);
        layers.metric("serve.cell_read_ns.storm", "ns", storm_read);
        layers.metric(
            "serve.publish_ns.calm",
            "ns",
            publishes.calm_ns as f64 / publishes.calm.max(1) as f64,
        );
        layers.metric(
            "serve.publish_ns.storm",
            "ns",
            publishes.storm_ns as f64 / publishes.storm.max(1) as f64,
        );

        layers.budget = vec![
            (
                "serve.serve_batch",
                totals.per("serve.serve_batch", traced.ops),
            ),
            ("serve.transport", totals.per("serve.transport", traced.ops)),
        ];
        layers
    }
}
