//! `fleet_replay`: the operator's audit — entries replayed over the
//! worker pool with generation fused into ingest. Three in four entries
//! are a single-source `Scenario`; one in four is a 3-server
//! `MultiServerScenario` feeding a `QuorumClock`.
//!
//! Why: `netsim` + `osc` generation is about three quarters of the time
//! and `core` a quarter, and it is the only workload on `WorkerPool`,
//! `quorum` and more than one thread.

use crate::harness::{
    fold, host_cpus, sub_seed, unit, Chunks, Layers, Measured, Oracle, Rep, Size, Workload,
    FNV_OFFSET,
};
use crate::trace::{Totals, Tracer};
use crate::traces::{self, fold_output, OutputAudit, WARM};
use std::sync::Arc;
use std::time::Instant;
use tsc_fleet::WorkerPool;
use tsc_netsim::{LevelShift, MultiServerScenario, RoundSample, Scenario};
use tsc_osc::Environment;
use tsc_quorum::{QuorumClock, QuorumConfig, QuorumOutput};
use tscclock::{ClockConfig, RawExchange, TscNtpClock};

const TAG: u64 = 0x666c_6565; // "flee"
const POLL: f64 = 16.0;
/// Packets per `fill_batch` + `process_batch` chunk.
const CHUNK: usize = 256;
/// Rounds per `QuorumClock::process_batch` call.
const BATCH_ROUNDS: usize = 64;

pub struct FleetReplay {
    entries: usize,
    days: f64,
    threads: usize,
}

impl FleetReplay {
    pub fn new(size: Size) -> Self {
        let threads = host_cpus().min(2);
        match size {
            Size::Full => Self {
                entries: 32,
                days: 2.0,
                threads,
            },
            Size::Smoke => Self {
                entries: 4,
                days: 0.25,
                threads,
            },
        }
    }
}

/// What set-up leaves behind: the templates and a warmed pool.
pub struct Input {
    fleet: Arc<Fleet>,
    pool: WorkerPool,
}

/// Templates shared by every entry; entry `i` overrides only the seed.
pub struct Fleet {
    single: Scenario,
    multi: MultiServerScenario,
    clock: ClockConfig,
    quorum: QuorumConfig,
    seeds: Vec<u64>,
}

fn is_quorum(entry: usize) -> bool {
    entry % 4 == 3
}

/// What one entry's replay hands back to the submitting thread.
struct EntryResult {
    digest: u64,
    pkts: u64,
    chunk_ns: Vec<f64>,
    tracer: Tracer,
    thread: std::thread::ThreadId,
    busy_ns: u64,
}

fn fold_quorum(h: u64, o: &QuorumOutput) -> u64 {
    let masks = u64::from(o.delivered_mask) | u64::from(o.excluded_mask) << 32;
    fold(fold(fold(h, masks), o.utc_ref.to_bits()), o.p_hat.to_bits())
}

/// The timed form of one entry: batched generation into batched ingest.
fn run_entry(fleet: &Fleet, entry: usize, mut tracer: Tracer) -> EntryResult {
    let started = Instant::now();
    let seed = fleet.seeds[entry];
    let mut digest = FNV_OFFSET;
    let mut pkts = 0u64;
    let mut chunk_ns = Chunks::default();
    if is_quorum(entry) {
        let k = fleet.multi.k();
        let mut q = QuorumClock::new(k, fleet.quorum);
        let span = tracer.open("netsim.stream_build", entry as u64);
        let mut stream = fleet.multi.stream_with_seed(seed);
        tracer.close(span);
        let mut samples: Vec<RoundSample> = Vec::with_capacity(k);
        let mut flat: Vec<Option<RawExchange>> = Vec::with_capacity(k * BATCH_ROUNDS);
        let mut outs: Vec<QuorumOutput> = Vec::with_capacity(BATCH_ROUNDS);
        let mut exhausted = false;
        while !exhausted {
            let chunk_started = Instant::now();
            flat.clear();
            let span = tracer.open("netsim.multi_round", entry as u64);
            while flat.len() < k * BATCH_ROUNDS {
                if !stream.next_round(&mut samples) {
                    exhausted = true;
                    break;
                }
                flat.extend(samples.iter().map(|s| s.delivered.then_some(s.raw)));
            }
            tracer.close(span);
            outs.clear();
            let span = tracer.open("quorum.process_batch", entry as u64);
            q.process_batch(&flat, &mut outs);
            tracer.close(span);
            for o in &outs {
                digest = fold_quorum(digest, o);
            }
            let delivered = flat.iter().flatten().count();
            pkts += delivered as u64;
            chunk_ns.push(chunk_started, delivered);
        }
    } else {
        let mut clock = TscNtpClock::new(fleet.clock);
        let span = tracer.open("netsim.stream_build", entry as u64);
        let mut stream = fleet.single.stream_with_seed(seed).raw();
        tracer.close(span);
        let mut buf = Vec::with_capacity(CHUNK);
        let mut out = Vec::with_capacity(CHUNK);
        loop {
            let chunk_started = Instant::now();
            buf.clear();
            let span = tracer.open("netsim.fill_batch", entry as u64);
            stream.fill_batch(&mut buf, CHUNK);
            tracer.close(span);
            if buf.is_empty() {
                break;
            }
            out.clear();
            let span = tracer.open("core.process_batch", entry as u64);
            clock.process_batch(&buf, &mut out);
            tracer.close(span);
            for o in &out {
                digest = fold_output(digest, o);
            }
            pkts += buf.len() as u64;
            chunk_ns.push(chunk_started, buf.len());
        }
    }
    EntryResult {
        digest,
        pkts,
        chunk_ns: chunk_ns.0,
        tracer,
        thread: std::thread::current().id(),
        busy_ns: started.elapsed().as_nanos() as u64,
    }
}

/// What the oracle's truth-carrying pass adds to an entry's digest.
#[derive(Default)]
struct Truth {
    errs_us: Vec<f64>,
    late_none: u64,
    audit: OutputAudit,
    polls: u64,
    lost: u64,
    rounds: u64,
    combined: u64,
    demotions: u64,
    /// Every audited entry's warmed state, held until the audit ends: the
    /// process's peak RSS is then the whole fleet resident at once, which
    /// tracks state size, rather than whichever entries two workers
    /// happened to hold together.
    held_clocks: Vec<TscNtpClock>,
    held_quorums: Vec<QuorumClock>,
}

/// The untimed form of one entry: the same seeds stepped one exchange at
/// a time through the truth-carrying stream, each followed by a read.
/// Its digest equals [`run_entry`]'s, which also shows the batched
/// generation and ingest calls agree with the per-item ones.
fn audit_entry(fleet: &Fleet, entry: usize, truth: &mut Truth) -> u64 {
    let seed = fleet.seeds[entry];
    let mut digest = FNV_OFFSET;
    if is_quorum(entry) {
        let k = fleet.multi.k();
        let mut q = QuorumClock::new(k, fleet.quorum);
        let mut stream = fleet.multi.stream_with_seed(seed);
        let mut samples = Vec::with_capacity(k);
        let mut round: Vec<Option<RawExchange>> = Vec::with_capacity(k);
        while stream.next_round(&mut samples) {
            round.clear();
            round.extend(samples.iter().map(|s| s.delivered.then_some(s.raw)));
            let o = q.process_round(&round);
            digest = fold_quorum(digest, &o);
            truth.rounds += 1;
            truth.combined += u64::from(o.combined);
            truth.polls += k as u64;
            truth.lost += samples.iter().filter(|s| !s.delivered).count() as u64;
            if o.combined && !(o.utc_ref.is_finite() && o.p_hat.is_finite()) {
                truth.audit.non_finite += 1;
            }
            let Some(s) = samples.iter().find(|s| s.delivered) else {
                continue;
            };
            if o.round as usize > WARM {
                match q.absolute_time(s.raw.tf_tsc) {
                    Some(t) if t.is_finite() => truth.errs_us.push((t - s.tf_read).abs() * 1e6),
                    _ => truth.late_none += 1,
                }
            }
        }
        truth.demotions += (0..k).filter(|&s| q.demoted(s)).count() as u64;
        truth.held_quorums.push(q);
    } else {
        let mut clock = TscNtpClock::new(fleet.clock);
        let mut delivered = 0usize;
        for e in fleet.single.stream_with_seed(seed) {
            truth.polls += 1;
            if e.lost {
                truth.lost += 1;
                continue;
            }
            delivered += 1;
            if let Some(o) = clock.process(traces::observables(&e)) {
                digest = fold_output(digest, &o);
                truth.audit.see(&o);
            }
            if delivered > WARM {
                match clock.absolute_time(e.tf_tsc) {
                    Some(t) if t.is_finite() => truth.errs_us.push((t - e.tg).abs() * 1e6),
                    _ => truth.late_none += 1,
                }
            }
        }
        truth.held_clocks.push(clock);
    }
    digest
}

fn run_pool(
    fleet: &Arc<Fleet>,
    entries: usize,
    pool: &mut WorkerPool,
    proto: &Tracer,
) -> Vec<EntryResult> {
    let fleet = Arc::clone(fleet);
    let proto = proto.fork();
    // One entry per claim: entries differ 3× in cost, so finer claims
    // balance better than the few atomics they cost.
    pool.run(entries, 1, move |i| run_entry(&fleet, i, proto.fork()))
}

fn fleet_digest(results: impl Iterator<Item = u64>) -> u64 {
    results.fold(FNV_OFFSET, fold)
}

impl Workload for FleetReplay {
    type Input = Input;
    const NAME: &'static str = "fleet_replay";

    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&self, seed: u64) -> Input {
        let duration = self.days * 86_400.0;
        let s = sub_seed(seed, TAG, u64::MAX);
        let single = Scenario::baseline(0)
            .with_poll_period(POLL)
            .with_duration(duration)
            .with_shift(LevelShift::symmetric(
                duration * (0.3 + 0.2 * unit(s ^ 1)),
                0.6e-3,
            ))
            .with_outage(duration * 0.7, duration * 0.7 + 3600.0);
        let multi = MultiServerScenario::paper_testbed(0)
            .with_poll_period(POLL)
            .with_duration(duration);
        let fleet = Arc::new(Fleet {
            single,
            multi,
            clock: ClockConfig::paper_defaults(POLL),
            quorum: QuorumConfig::paper_defaults(POLL),
            seeds: (0..self.entries as u64)
                .map(|i| sub_seed(seed, TAG, i))
                .collect(),
        });
        // The pool outlives a rep in a real audit, so spawning it and
        // faulting in its threads' working memory with one pass over the
        // entries is set-up, not measured work.
        let mut pool = WorkerPool::new(self.threads);
        run_pool(&fleet, self.entries, &mut pool, &Tracer::disabled());
        Input { fleet, pool }
    }

    fn oracle(&self, input: &mut Input) -> Oracle {
        let mut oracle = Oracle::default();
        let Input { fleet: input, pool } = input;
        let mut truth = Truth::default();
        let audited = fleet_digest((0..self.entries).map(|i| audit_entry(input, i, &mut truth)));
        let off = Tracer::disabled();
        let one = run_pool(input, self.entries, &mut WorkerPool::new(1), &off);
        let pkts: u64 = one.iter().map(|r| r.pkts).sum();
        let one = fleet_digest(one.iter().map(|r| r.digest));
        let many = run_pool(input, self.entries, pool, &off);
        let many = fleet_digest(many.iter().map(|r| r.digest));
        oracle.notes.push(format!(
            "digest audited {audited:016x}, 1 thread {one:016x}, {} threads {many:016x}",
            self.threads
        ));
        oracle.digest = audited;
        oracle.attempted = pkts;
        oracle.failed = truth.audit.non_finite + truth.late_none;
        oracle.errs_us = truth.errs_us;
        oracle.check(
            "1-thread digest equals the per-exchange audit's",
            one == audited,
        );
        oracle.check("N-thread digest equals the 1-thread digest", many == one);
        oracle.check("no non-finite output", truth.audit.non_finite == 0);
        oracle.check(
            "every read after warm-up returns a time",
            truth.late_none == 0,
        );
        oracle.layer("core.pkts", "count", pkts as f64);
        oracle.layer("core.shift_events", "count", truth.audit.shifts as f64);
        oracle.layer("core.rebuild_events", "count", truth.audit.rebuilds as f64);
        oracle.layer("netsim.pkts", "count", truth.polls as f64);
        oracle.layer(
            "netsim.lost_share",
            "share",
            truth.lost as f64 / truth.polls as f64,
        );
        oracle.layer(
            "quorum.combined_share",
            "share",
            truth.combined as f64 / truth.rounds.max(1) as f64,
        );
        oracle.layer("quorum.demotions", "count", truth.demotions as f64);
        oracle
    }

    fn rep(&self, input: &mut Input, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep {
        let started = Instant::now();
        let results = run_pool(&input.fleet, self.entries, &mut input.pool, tracer);
        let secs = started.elapsed().as_secs_f64();
        let digest = fleet_digest(results.iter().map(|r| r.digest));
        let ops = results.iter().map(|r| r.pkts).sum();
        for mut r in results {
            chunks.0.append(&mut r.chunk_ns);
            tracer.absorb(r.tracer);
        }
        Rep { ops, secs, digest }
    }

    fn layers(&self, input: &mut Input, totals: &Totals, traced: &Measured) -> Layers {
        let mut layers = Layers::default();
        let Input { fleet: input, pool } = input;
        // Rounds and single-source packets the traced reps covered (the
        // last chunk of an entry is short; at 42 chunks an entry that is
        // under 1 %).
        let rounds = totals.count("quorum.process_batch") * BATCH_ROUNDS as u64;
        let single_pkts = totals.count("core.process_batch") * CHUNK as u64;
        let fill = totals.per("netsim.fill_batch", single_pkts);
        let process = totals.per("core.process_batch", single_pkts);
        let multi = totals.per("netsim.multi_round", rounds);
        let quorum = totals.per("quorum.process_batch", rounds);
        layers.metric("netsim.fill_batch_ns_per_pkt", "ns", fill);
        layers.metric("core.process_ns_per_pkt", "ns", process);
        layers.metric("netsim.multi_round_ns", "ns", multi);
        layers.metric("quorum.process_round_ns", "ns", quorum);
        layers.metric(
            "netsim.stream_build_us",
            "us",
            totals.mean("netsim.stream_build") / 1e3,
        );

        // Side loops: the pool's dispatch cost over no-op items, and the
        // oscillator alone at the workload's poll period.
        let started = Instant::now();
        const DISPATCHES: usize = 200;
        for _ in 0..DISPATCHES {
            std::hint::black_box(pool.run(self.entries, 1, |i| i));
        }
        layers.metric(
            "fleet.pool_dispatch_us",
            "us",
            started.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64,
        );
        // Max ÷ mean worker busy time over one more pass.
        let results = run_pool(input, self.entries, pool, &Tracer::disabled());
        let mut busy: Vec<(std::thread::ThreadId, u64)> = Vec::new();
        for r in &results {
            match busy.iter_mut().find(|(id, _)| *id == r.thread) {
                Some(slot) => slot.1 += r.busy_ns,
                None => busy.push((r.thread, r.busy_ns)),
            }
        }
        let max = busy.iter().map(|b| b.1).max().unwrap_or(0) as f64;
        let mean = busy.iter().map(|b| b.1).sum::<u64>() as f64 / self.threads as f64;
        layers.metric("fleet.pool_imbalance", "ratio", max / mean);
        let mut osc = Environment::MachineRoom.build(input.seeds[0]);
        const ADVANCES: usize = 100_000;
        let started = Instant::now();
        for i in 1..=ADVANCES {
            std::hint::black_box(osc.advance_to(i as f64 * POLL));
        }
        layers.metric(
            "osc.advance_ns",
            "ns",
            started.elapsed().as_nanos() as f64 / ADVANCES as f64,
        );

        // The op is a delivered packet of either kind, timed inside the
        // thread that replays it: each layer's time is spread over all of
        // them (ops_per_s is then about threads ÷ op time).
        let per_op = |name: &str| totals.per(name, traced.ops);
        layers.budget = vec![
            ("netsim.fill_batch", per_op("netsim.fill_batch")),
            ("core.process", per_op("core.process_batch")),
            ("netsim.multi_round", per_op("netsim.multi_round")),
            ("quorum.process", per_op("quorum.process_batch")),
            ("netsim.stream_build", per_op("netsim.stream_build")),
        ];
        layers
    }
}
