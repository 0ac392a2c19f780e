//! `clock_ingest`: pre-generated traces fed to fresh clocks through
//! `process_batch(256)`, with 256 `absolute_time` reads after each chunk.
//!
//! Why: `core` does all the work and `netsim`, `serve`, `fleet` none, so
//! an estimator optimisation shows here undiluted.

use crate::harness::{
    fold, percentile, sort, Chunks, Layers, Measured, Oracle, Rep, Size, Workload, FNV_OFFSET,
};
use crate::trace::{Totals, Tracer};
use crate::traces::{self, fold_output, OutputAudit, Trace, WARM};
use std::time::Instant;
use tscclock::{ProcessOutput, TscNtpClock};

const CHUNK: usize = 256;
const DENSE_POLL: f64 = 16.0;

pub struct ClockIngest {
    /// `(traces, days)` at poll 16 and at poll 1024.
    dense: (u64, f64),
    coarse: (u64, f64),
}

impl ClockIngest {
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                dense: (64, 2.0),
                coarse: (32, 64.0),
            },
            Size::Smoke => Self {
                dense: (3, 0.5),
                coarse: (1, 16.0),
            },
        }
    }
}

/// The one ingest loop, shared by the oracle and the timed rep: the
/// audit closure is empty in a rep.
fn ingest(
    input: &[Trace],
    tracer: &mut Tracer,
    chunks: &mut Chunks,
    mut on_output: impl FnMut(&ProcessOutput),
) -> (u64, u64) {
    let mut digest = FNV_OFFSET;
    let mut ops = 0u64;
    let mut out = Vec::with_capacity(CHUNK);
    let mut reads = [None; CHUNK];
    for trace in input {
        let mut clock = TscNtpClock::new(trace.cfg);
        for chunk in trace.raw.chunks(CHUNK) {
            let started = Instant::now();
            out.clear();
            let span = tracer.open("core.process_batch", 0);
            clock.process_batch(chunk, &mut out);
            tracer.close(span);
            let span = tracer.open("core.read", 0);
            for (slot, ex) in reads.iter_mut().zip(chunk) {
                *slot = clock.absolute_time(ex.tf_tsc);
            }
            tracer.close(span);
            for o in &out {
                digest = fold_output(digest, o);
                on_output(o);
            }
            for r in &reads[..chunk.len()] {
                digest = fold(digest, r.map_or(u64::MAX, f64::to_bits));
            }
            ops += chunk.len() as u64;
            chunks.push(started, chunk.len());
        }
    }
    (digest, ops)
}

impl Workload for ClockIngest {
    type Input = Vec<Trace>;
    const NAME: &'static str = "clock_ingest";

    fn setup(&self, seed: u64) -> Vec<Trace> {
        let dense = (0..self.dense.0).map(|i| traces::baseline(seed, i, DENSE_POLL, self.dense.1));
        let coarse =
            (0..self.coarse.0).map(|i| traces::baseline(seed, 1 << 32 | i, 1024.0, self.coarse.1));
        dense.chain(coarse).collect()
    }

    fn oracle(&self, input: &mut Vec<Trace>) -> Oracle {
        let mut oracle = Oracle::default();
        let mut audit = OutputAudit::default();
        let (digest, ops) = ingest(
            input,
            &mut Tracer::disabled(),
            &mut Chunks::default(),
            |o| audit.see(o),
        );

        // Accuracy is scored one packet at a time, each read straight
        // after its own packet (a chunk's reads happen up to 255 packets
        // late), and on the poll-16 traces only, the paper's operating
        // point: at poll 1024 the tail is milliseconds wide after an
        // outage and differs several-fold from seed to seed, which would
        // make the tail a statement about the seed. Holding every clock of
        // this pass gives the resident state per clock, from the
        // allocator's own count.
        let (mut errs, mut late_none) = (Vec::new(), 0u64);
        let mut clocks = Vec::with_capacity(input.len());
        let before = crate::live_bytes();
        for trace in input.iter() {
            let mut clock = TscNtpClock::new(trace.cfg);
            for (i, (raw, tg)) in trace.raw.iter().zip(&trace.tg).enumerate() {
                clock.process(*raw);
                if i >= WARM && trace.cfg.poll_period == DENSE_POLL {
                    match clock.absolute_time(raw.tf_tsc) {
                        Some(t) if t.is_finite() => errs.push((t - tg).abs() * 1e6),
                        _ => late_none += 1,
                    }
                }
            }
            clocks.push(clock);
        }
        let state_kb = (crate::live_bytes() - before) as f64 / 1024.0 / clocks.len() as f64;
        drop(clocks);

        oracle.digest = digest;
        oracle.attempted = ops;
        oracle.failed = audit.non_finite + late_none;
        sort(&mut errs);
        oracle.check("time_err_us_p50 <= 100", percentile(&errs, 0.5) <= 100.0);
        oracle.errs_us = errs;
        oracle.check("no non-finite clock output", audit.non_finite == 0);
        oracle.check("every read after warm-up returns a time", late_none == 0);
        oracle.check("upward shifts detected", audit.shifts > 0);
        oracle.layer("core.pkts", "count", ops as f64);
        oracle.layer(
            "core.none_share",
            "share",
            1.0 - audit.outputs as f64 / ops as f64,
        );
        oracle.layer("core.shift_events", "count", audit.shifts as f64);
        oracle.layer("core.rebuild_events", "count", audit.rebuilds as f64);
        oracle.layer("core.state_kb_per_clock", "KiB", state_kb);
        oracle
    }

    fn rep(&self, input: &mut Vec<Trace>, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep {
        let started = Instant::now();
        let (digest, ops) = ingest(input, tracer, chunks, |_| {});
        Rep {
            ops,
            secs: started.elapsed().as_secs_f64(),
            digest,
        }
    }

    fn layers(&self, _input: &mut Vec<Trace>, totals: &Totals, traced: &Measured) -> Layers {
        let mut layers = Layers::default();
        let process = totals.per("core.process_batch", traced.ops);
        let read = totals.per("core.read", traced.ops);
        layers.metric("core.process_ns_per_pkt", "ns", process);
        layers.metric("core.read_ns", "ns", read);
        layers.budget = vec![("core.process", process), ("core.read", read)];
        layers
    }
}
