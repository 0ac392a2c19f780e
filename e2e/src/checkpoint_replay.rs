//! `checkpoint_replay`: `clock_ingest`'s poll-16 traces fed through
//! `process`, with `snapshot()` every 1000 packets and `restore()` from
//! every fourth blob; every fourth trace runs inside a `LifecycleClient`
//! and checkpoints through *its* snapshot. The digest must equal an
//! un-checkpointed pass.
//!
//! Why: the same `core` state used differently, serialised instead of
//! updated. A layout change that speeds ingest but bloats or slows
//! seal/restore shows here, and so does the reverse.

use crate::harness::{
    fold, percentile, sort, Chunks, Layers, Measured, Oracle, Rep, Size, Workload, FNV_OFFSET,
};
use crate::trace::{Totals, Tracer};
use crate::traces::{self, fold_output, OutputAudit, Trace, WARM};
use std::time::Instant;
use tsc_fleet::{ExchangeOutcome, LifecycleClient, LifecycleConfig};
use tscclock::{ProcessOutput, RawExchange, TscNtpClock};

const POLL: f64 = 16.0;
/// Packets between checkpoints.
const CADENCE: usize = 1000;
/// Every this-many-th checkpoint is restored from.
const RESTORE_EVERY: usize = 4;
/// Packets per `op_ns_p50` chunk: one whole checkpoint cycle, four seals
/// and a restore, so the median chunk pays for both.
const CHUNK: usize = CADENCE * RESTORE_EVERY;
/// Nominal counter period of the simulated hosts (1 GHz).
const NOMINAL_PERIOD: f64 = 1e-9;

pub struct CheckpointReplay {
    traces: u64,
    days: f64,
}

impl CheckpointReplay {
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                traces: 36,
                days: 2.0,
            },
            Size::Smoke => Self {
                traces: 4,
                days: 1.0,
            },
        }
    }
}

fn in_lifecycle(trace: usize) -> bool {
    trace % 4 == 3
}

/// The state under checkpoint: a bare clock, or one inside a lifecycle
/// client. Both seal to bytes and restore from them.
enum Subject {
    Clock(Box<TscNtpClock>),
    Client(Box<LifecycleClient>),
}

impl Subject {
    fn new(trace: &Trace, lifecycle: bool) -> Self {
        if lifecycle {
            let cfg = LifecycleConfig::defaults(POLL);
            Subject::Client(Box::new(LifecycleClient::new(cfg, trace.cfg, 0, 0.0)))
        } else {
            Subject::Clock(Box::new(TscNtpClock::new(trace.cfg)))
        }
    }

    fn feed(&mut self, raw: RawExchange, now: f64) -> Option<ProcessOutput> {
        match self {
            Subject::Clock(clock) => clock.process(raw),
            Subject::Client(client) => match client.on_response(now, raw, NOMINAL_PERIOD) {
                ExchangeOutcome::Accepted(out) => out,
                _ => None,
            },
        }
    }

    fn clock(&self) -> &TscNtpClock {
        match self {
            Subject::Clock(clock) => clock,
            Subject::Client(client) => client.clock(),
        }
    }

    fn seal(&self, tracer: &mut Tracer, trace: u64) -> Vec<u8> {
        match self {
            Subject::Clock(clock) => {
                let span = tracer.open("core.seal", trace);
                let blob = clock.snapshot();
                tracer.close(span);
                blob
            }
            Subject::Client(client) => {
                let span = tracer.open("fleet.lifecycle_seal", trace);
                let blob = client.snapshot();
                tracer.close(span);
                blob
            }
        }
    }

    fn restore(&mut self, blob: &[u8], tracer: &mut Tracer, trace: u64) {
        match self {
            Subject::Clock(clock) => {
                let span = tracer.open("core.restore", trace);
                **clock = TscNtpClock::restore(blob).expect("a fresh snapshot restores");
                tracer.close(span);
            }
            Subject::Client(client) => {
                let span = tracer.open("fleet.lifecycle_restore", trace);
                **client = LifecycleClient::restore(blob).expect("a fresh snapshot restores");
                tracer.close(span);
            }
        }
    }
}

/// What a pass measured about the blobs it sealed.
#[derive(Default)]
struct Sealed {
    /// Size of each bare clock's last envelope (its state after the run).
    final_bytes: Vec<f64>,
    seals: u64,
    restores: u64,
}

/// One pass over the traces. `checkpoint` off gives the reference digest.
fn replay(
    input: &[Trace],
    checkpoint: bool,
    tracer: &mut Tracer,
    chunks: &mut Chunks,
    sealed: &mut Sealed,
    mut on_output: impl FnMut(&ProcessOutput),
    mut on_read: impl FnMut(&Trace, usize, Option<f64>),
) -> (u64, u64) {
    let mut digest = FNV_OFFSET;
    let mut ops = 0u64;
    for (t, trace) in input.iter().enumerate() {
        let mut subject = Subject::new(trace, in_lifecycle(t));
        let mut last_blob_len = 0usize;
        let mut checkpoints = 0usize;
        for (c, chunk) in trace.raw.chunks(CHUNK).enumerate() {
            let started = Instant::now();
            for (j, raw) in chunk.iter().enumerate() {
                let i = c * CHUNK + j;
                if let Some(o) = subject.feed(*raw, trace.tf[i]) {
                    digest = fold_output(digest, &o);
                    on_output(&o);
                }
                let read = subject.clock().absolute_time(raw.tf_tsc);
                digest = fold(digest, read.map_or(u64::MAX, f64::to_bits));
                on_read(trace, i, read);
                if checkpoint && (i + 1).is_multiple_of(CADENCE) {
                    let blob = subject.seal(tracer, t as u64);
                    sealed.seals += 1;
                    last_blob_len = blob.len();
                    checkpoints += 1;
                    if checkpoints.is_multiple_of(RESTORE_EVERY) {
                        subject.restore(&blob, tracer, t as u64);
                        sealed.restores += 1;
                    }
                }
            }
            ops += chunk.len() as u64;
            chunks.push(started, chunk.len());
        }
        if checkpoint && !in_lifecycle(t) {
            sealed.final_bytes.push(last_blob_len as f64);
        }
        digest = fold(digest, subject.clock().status().packets);
    }
    (digest, ops)
}

impl Workload for CheckpointReplay {
    type Input = Vec<Trace>;
    const NAME: &'static str = "checkpoint_replay";

    fn setup(&self, seed: u64) -> Vec<Trace> {
        (0..self.traces)
            .map(|i| traces::baseline(seed, i, POLL, self.days))
            .collect()
    }

    fn oracle(&self, input: &mut Vec<Trace>) -> Oracle {
        let mut oracle = Oracle::default();
        let off = &mut Tracer::disabled();
        let (plain, _) = replay(
            input,
            false,
            off,
            &mut Chunks::default(),
            &mut Sealed::default(),
            |_| {},
            |_, _, _| {},
        );
        let mut audit = OutputAudit::default();
        let (mut errs, mut late_none) = (Vec::new(), 0u64);
        let mut sealed = Sealed::default();
        let (digest, ops) = replay(
            input,
            true,
            off,
            &mut Chunks::default(),
            &mut sealed,
            |o| audit.see(o),
            |trace, i, read| {
                if i >= WARM {
                    match read {
                        Some(t) if t.is_finite() => errs.push((t - trace.tg[i]).abs() * 1e6),
                        _ => late_none += 1,
                    }
                }
            },
        );
        oracle.notes.push(format!(
            "digest un-checkpointed {plain:016x}, checkpointed {digest:016x}"
        ));
        oracle.digest = digest;
        oracle.attempted = ops;
        oracle.failed = audit.non_finite + late_none;
        oracle.errs_us = errs;
        oracle.check(
            "checkpointed digest equals the un-checkpointed digest",
            digest == plain,
        );
        oracle.check("no non-finite clock output", audit.non_finite == 0);
        oracle.check("every read after warm-up returns a time", late_none == 0);
        oracle.check(
            "snapshots were sealed and restored",
            sealed.seals > 0 && sealed.restores > 0,
        );
        sort(&mut sealed.final_bytes);
        oracle.layer(
            "core.snapshot_bytes",
            "B",
            percentile(&sealed.final_bytes, 0.5),
        );
        oracle.layer("core.pkts", "count", ops as f64);
        oracle.layer(
            "core.none_share",
            "share",
            1.0 - audit.outputs as f64 / ops as f64,
        );
        oracle.layer("core.shift_events", "count", audit.shifts as f64);
        oracle.layer("core.rebuild_events", "count", audit.rebuilds as f64);
        oracle
    }

    fn rep(&self, input: &mut Vec<Trace>, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep {
        let started = Instant::now();
        let (digest, ops) = replay(
            input,
            true,
            tracer,
            chunks,
            &mut Sealed::default(),
            |_| {},
            |_, _, _| {},
        );
        Rep {
            ops,
            secs: started.elapsed().as_secs_f64(),
            digest,
        }
    }

    fn layers(&self, _input: &mut Vec<Trace>, totals: &Totals, traced: &Measured) -> Layers {
        let mut layers = Layers::default();
        layers.metric("core.seal_us", "us", totals.mean("core.seal") / 1e3);
        layers.metric("core.restore_us", "us", totals.mean("core.restore") / 1e3);
        layers.metric(
            "fleet.lifecycle_seal_us",
            "us",
            totals.mean("fleet.lifecycle_seal") / 1e3,
        );
        // Only the snapshot calls are spanned (a span pair per packet would
        // cost as much as `process` itself), so ingest is the remainder —
        // here "unattributed" means process + read, which `clock_ingest`
        // measures directly.
        let per_op = |name: &str| totals.per(name, traced.ops);
        layers.budget = vec![
            ("core.seal", per_op("core.seal")),
            ("core.restore", per_op("core.restore")),
            ("fleet.lifecycle_seal", per_op("fleet.lifecycle_seal")),
            ("fleet.lifecycle_restore", per_op("fleet.lifecycle_restore")),
        ];
        layers
    }
}
