//! The benchmark's own plumbing: seed derivation, digests, order
//! statistics, the hand-rolled JSON writer (`serde_json` is not a
//! dependency), the set-up and rep loops, and the `Workload` contract the
//! five workloads implement.

use crate::trace::{reconcile, Calibration, Totals, Tracer};
use std::time::Instant;
use tsc_netsim::multi::splitmix64;

// ---------------------------------------------------------------------
// Seeds and digests
// ---------------------------------------------------------------------

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Sub-seed `index` of workload `tag` under the run seed: two splitmix64
/// rounds, so neighbouring run seeds share no sub-seed (a single
/// `splitmix64(seed ^ index)` would hand seed 1 the seed-0 set permuted).
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let base = splitmix64(seed ^ tag.wrapping_mul(GOLDEN));
    splitmix64(base ^ index.wrapping_mul(GOLDEN))
}

/// Uniform draw in `[0, 1)` from a sub-seed.
pub fn unit(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words: one xor and one multiply per word, cheap
/// enough to fold every output inside a timed rep.
#[inline]
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Percentile `p ∈ [0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks. NaN on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `value > limit`, or either is NaN: the comparison every gate uses, so
/// a NaN can never pass one.
pub fn exceeds(value: f64, limit: f64) -> bool {
    value
        .partial_cmp(&limit)
        .is_none_or(|o| o == std::cmp::Ordering::Greater)
}

/// Sorts `values` ascending (total order, so a stray NaN cannot panic).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &mut [f64]) -> Self {
        sort(values);
        Self {
            p25: percentile(values, 0.25),
            p50: percentile(values, 0.5),
            p75: percentile(values, 0.75),
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.p50
    }

    /// The noise guard: a timing whose quartiles sit more than 10 % of
    /// the median apart is not to be trusted to a few percent.
    pub fn noisy(&self) -> bool {
        exceeds(self.spread(), 0.10)
    }
}

/// Share of a run's reps that `ops_per_s`, `op_ns_p50` and `setup_s` are
/// read from: the value is the rate the fastest tenth of reps reach (the
/// time the fastest tenth stay under). This host slows a benchmark down for
/// seconds to minutes at a time and never speeds it up, so the median over
/// reps follows the neighbours (it spread by 0.16–0.22 across ten runs in
/// such a spell) while the fast decile follows the code (0.06–0.10 in the
/// same runs). A change that slows the code moves both alike.
pub const FAST_SHARE: f64 = 0.1;

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Already-serialised JSON, spliced in verbatim (`--all` embeds each
    /// child's result line this way instead of parsing it).
    Raw(String),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn write(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            // `{}` prints the shortest digits that round-trip, i.e. the
            // value as measured; JSON has no NaN/inf, so those are null.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Raw(s) => out.push_str(s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn write_str(s: &str, out: &mut String) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// One reported number. `timing` carries the rep quartiles of a timing
/// metric (printed beside the value; the noise guard reads them).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub timing: Option<Quartiles>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            timing: None,
        }
    }

    pub fn timed(name: &str, unit: &'static str, value: f64, q: Quartiles) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            timing: Some(q),
        }
    }

    /// The `name unit value` row, with quartiles, rep count and the
    /// noise flag for timings.
    pub fn row(&self) -> String {
        match self.timing {
            Some(q) => format!(
                "{} {} {} p25={} p50={} p75={} n={}{}",
                self.name,
                self.unit,
                self.value,
                q.p25,
                q.p50,
                q.p75,
                q.n,
                if q.noisy() { " noisy" } else { "" }
            ),
            None => format!("{} {} {}", self.name, self.unit, self.value),
        }
    }

    pub fn json(&self) -> (String, Json) {
        (
            self.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(self.value)),
                ("unit", Json::str(self.unit)),
            ]),
        )
    }
}

/// The end-to-end metrics every workload reports, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ns_p50", "ns"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("time_err_us_p50", "us"),
    ("time_err_us_p99", "us"),
];

/// The per-layer metrics of the traced run, as `BENCHMARK.json` lists
/// them. A workload reports the ones on its path; the rest read 0 (the
/// layer did no work there).
pub const PER_LAYER: [(&str, &str); 63] = [
    ("core.process_ns_per_pkt", "ns"),
    ("core.read_ns", "ns"),
    ("core.seal_us", "us"),
    ("core.restore_us", "us"),
    ("core.snapshot_bytes", "B"),
    ("core.state_kb_per_clock", "KiB"),
    ("core.pkts", "count"),
    ("core.none_share", "share"),
    ("core.shift_events", "count"),
    ("core.rebuild_events", "count"),
    ("netsim.fill_batch_ns_per_pkt", "ns"),
    ("netsim.multi_round_ns", "ns"),
    ("netsim.exchange_at_ns", "ns"),
    ("netsim.stream_build_us", "us"),
    ("netsim.pkts", "count"),
    ("netsim.lost_share", "share"),
    ("osc.advance_ns", "ns"),
    ("ntp.encode_ns", "ns"),
    ("ntp.decode_ns", "ns"),
    ("ntp.validate_ns", "ns"),
    ("ntp.malformed_share", "share"),
    ("serve.serve_batch_ns_per_req", "ns"),
    ("serve.transport_ns_per_req", "ns"),
    ("serve.cell_read_ns.calm", "ns"),
    ("serve.cell_read_ns.storm", "ns"),
    ("serve.publish_ns.calm", "ns"),
    ("serve.publish_ns.storm", "ns"),
    ("serve.bound_us_p50", "us"),
    ("serve.err_over_bound_p50", "share"),
    ("serve.batch_fill_mean", "count"),
    ("serve.publishes", "count"),
    ("serve.batch_us_p99", "us"),
    ("serve.served", "count"),
    ("serve.malformed", "count"),
    ("serve.refused_init", "count"),
    ("serve.refused_unsy", "count"),
    ("serve.refused_stal", "count"),
    ("fleet.next_send_ns", "ns"),
    ("fleet.on_response_ns", "ns"),
    ("fleet.on_timeout_ns", "ns"),
    ("fleet.read_ns", "ns"),
    ("fleet.accept_share", "share"),
    ("fleet.rejected", "count"),
    ("fleet.timeouts", "count"),
    ("fleet.transitions", "count"),
    ("fleet.herd_peak_per_bucket", "count"),
    ("fleet.synced_time_share", "share"),
    ("fleet.err_us_p50.datacenter", "us"),
    ("fleet.err_us_p50.dsl", "us"),
    ("fleet.err_us_p50.wifi", "us"),
    ("fleet.err_us_p50.mobile", "us"),
    ("fleet.err_us_p50.satellite", "us"),
    ("fleet.pool_dispatch_us", "us"),
    ("fleet.pool_imbalance", "ratio"),
    ("fleet.lifecycle_seal_us", "us"),
    ("quorum.process_round_ns", "ns"),
    ("quorum.combined_share", "share"),
    ("quorum.demotions", "count"),
    ("bench.sched_ns_per_req", "ns"),
    ("bench.traced_op_ns_p50", "ns"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("unattributed_ns_per_op", "ns"),
];

// ---------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------

/// Peak resident set (`VmHWM`) of this process in MB; NaN where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a helper command's output, or "unknown" (the driver's
/// checkout is not a git repository, and the host may lack the tool).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------
// The workload contract and the run loop
// ---------------------------------------------------------------------

/// Full or `--smoke` sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What the untimed oracle pass established about a workload's inputs.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Digest every timed rep must reproduce.
    pub digest: u64,
    /// Operations attempted in one rep; how many had a wrong outcome
    /// (must be 0); and how many ended correctly but without what was
    /// asked for: a timeout, a refusal, a rejected sample.
    pub attempted: u64,
    pub failed: u64,
    pub unserved: u64,
    /// |time handed out − ground truth| in µs, one per checked read.
    pub errs_us: Vec<f64>,
    /// Named physical checks; any `false` makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    /// Counts and other layer numbers that need no timer.
    pub layers: Vec<Metric>,
    /// Human-readable notes (digests of sub-passes, cohort sizes …).
    pub notes: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(Metric::new(name, unit, value));
    }
}

/// One timed rep's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub ops: u64,
    pub secs: f64,
    pub digest: u64,
}

/// Per-op wall times of the fixed-size chunks of a rep (the `op_ns_p50`
/// sample).
#[derive(Debug, Default)]
pub struct Chunks(pub Vec<f64>);

impl Chunks {
    #[inline]
    pub fn push(&mut self, started: Instant, ops: usize) {
        if ops > 0 {
            self.0
                .push(started.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
}

/// A benchmark workload: set-up makes the inputs from the seed, the
/// oracle checks them once untimed, and `rep` is the measured unit —
/// identical every time, so every rep folds to the oracle's digest.
pub trait Workload {
    type Input;
    const NAME: &'static str;
    /// Threads the measured phase uses.
    fn threads(&self) -> usize {
        1
    }
    fn setup(&self, seed: u64) -> Self::Input;
    fn oracle(&self, input: &mut Self::Input) -> Oracle;
    fn rep(&self, input: &mut Self::Input, tracer: &mut Tracer, chunks: &mut Chunks) -> Rep;
    /// Per-layer timings from the traced reps' spans plus any side loops.
    fn layers(&self, input: &mut Self::Input, totals: &Totals, traced: &Measured) -> Layers;
}

/// What a workload reads out of its traced reps.
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// The layers' busy time per op, amortised the way the op is counted:
    /// what the traced `op_ns_p50` is reconciled against.
    pub budget: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub reps: usize,
    pub ops: u64,
    pub ops_per_s: Vec<f64>,
    /// Median chunk time per op of each rep.
    pub op_ns: Vec<f64>,
    /// Every chunk's time per op, all reps together; kept for traced reps
    /// only, so an untraced run's memory does not grow with its rep count.
    pub chunks: Vec<f64>,
    pub digest_mismatches: usize,
}

impl Measured {
    fn absorb(&mut self, rep: Rep, chunks: &mut Chunks, want: u64, keep_chunks: bool) {
        self.reps += 1;
        self.ops += rep.ops;
        self.ops_per_s.push(rep.ops as f64 / rep.secs);
        sort(&mut chunks.0);
        self.op_ns.push(percentile(&chunks.0, 0.5));
        if keep_chunks {
            self.chunks.extend_from_slice(&chunks.0);
        }
        chunks.0.clear();
        if rep.digest != want {
            self.digest_mismatches += 1;
        }
    }
}

/// Runs set-up repeatedly — at least 5 times, then until 2 s have gone or
/// 50 runs are in, so a short set-up gets the more samples — and keeps the
/// last product. Returns the run times in run order.
pub fn measure_setup<T>(size: Size, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let started = Instant::now();
    let mut product = None;
    loop {
        // Drop the previous product first, so peak RSS holds one set-up.
        drop(product.take());
        let t = Instant::now();
        product = Some(build());
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= 5 && (started.elapsed().as_secs_f64() >= 2.0 || times.len() >= 50);
        if enough || size == Size::Smoke {
            break;
        }
    }
    (product.expect("at least one set-up ran"), times)
}

/// Parsed command line of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Result of one workload run, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

/// Measures for `seconds`: untraced reps only, or — traced — untraced and
/// traced reps alternating, so both see the same machine state and their
/// ratio is the tracing overhead.
fn measure<W: Workload>(
    w: &W,
    input: &mut W::Input,
    opts: &Opts,
    want: u64,
    tracer: &mut Tracer,
) -> (Measured, Measured) {
    let mut off = Tracer::disabled();
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let mut chunks = Chunks::default();
    let min_reps = if opts.size == Size::Smoke { 1 } else { 5 };
    let started = Instant::now();
    loop {
        let rep = w.rep(input, &mut off, &mut chunks);
        plain.absorb(rep, &mut chunks, want, false);
        if opts.trace {
            let rep = w.rep(input, tracer, &mut chunks);
            traced.absorb(rep, &mut chunks, want, true);
        }
        let timed_out = started.elapsed().as_secs_f64() >= opts.seconds;
        if plain.reps >= min_reps && (timed_out || opts.size == Size::Smoke) {
            break;
        }
    }
    (plain, traced)
}

/// The whole run of one workload: set-up, oracle, measurement, report.
pub fn run<W: Workload>(w: &W, opts: &Opts) -> Report {
    let (mut input, mut setup_runs) = measure_setup(opts.size, || w.setup(opts.seed));
    let setup_series = Json::Arr(setup_runs.iter().map(|x| Json::Num(*x)).collect());
    let setup_q = Quartiles::of(&mut setup_runs);
    let setup_fast = percentile(&setup_runs, FAST_SHARE);
    let mut oracle = w.oracle(&mut input);
    // The error sample is read and let go before the reps run, so the
    // process's peak RSS is the workload's, not the oracle's.
    let mut errs_us = std::mem::take(&mut oracle.errs_us);
    sort(&mut errs_us);
    let (err_p50, err_p99) = (percentile(&errs_us, 0.5), percentile(&errs_us, 0.99));
    oracle.notes.push(format!(
        "time_err_us over {} reads: p90 {:.1}, p95 {:.1}, p99 {:.1}, p99.9 {:.1}, max {:.1}",
        errs_us.len(),
        percentile(&errs_us, 0.90),
        percentile(&errs_us, 0.95),
        err_p99,
        percentile(&errs_us, 0.999),
        percentile(&errs_us, 1.0),
    ));
    drop(errs_us);
    let calibration = Calibration::measure();
    let mut tracer = Tracer::enabled(calibration);
    let (mut plain, mut traced) = measure(w, &mut input, opts, oracle.digest, &mut tracer);

    let mismatches = plain.digest_mismatches + traced.digest_mismatches;
    oracle.check("every rep folds to the oracle digest", mismatches == 0);
    oracle.check("no operation failed", oracle.failed == 0);
    let correct = oracle.checks.iter().all(|(_, ok)| *ok);

    // In run order, before the quartiles sort them: a slow spell of the
    // host shows as a dip here.
    let rep_series = Json::Arr(
        plain
            .ops_per_s
            .iter()
            .map(|x| Json::Int(x.round() as u64))
            .collect(),
    );
    let op_series = Json::Arr(plain.op_ns.iter().map(|x| Json::Num(*x)).collect());
    let ops_q = Quartiles::of(&mut plain.ops_per_s);
    let op_q = Quartiles::of(&mut plain.op_ns);
    let ops_fast = percentile(&plain.ops_per_s, 1.0 - FAST_SHARE);
    let op_fast = percentile(&plain.op_ns, FAST_SHARE);

    let mut metrics = Vec::new();
    if !opts.trace {
        let values = [
            Metric::timed("setup_s", "s", setup_fast, setup_q),
            Metric::timed("ops_per_s", "1/s", ops_fast, ops_q),
            Metric::timed("op_ns_p50", "ns", op_fast, op_q),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
            Metric::new(
                "ok_share",
                "share",
                1.0 - (oracle.failed + oracle.unserved) as f64 / oracle.attempted as f64,
            ),
            Metric::new("time_err_us_p50", "us", err_p50),
            Metric::new("time_err_us_p99", "us", err_p99),
        ];
        for (metric, (name, unit)) in values.into_iter().zip(END_TO_END) {
            assert_eq!(
                (metric.name.as_str(), metric.unit),
                (name, unit),
                "END_TO_END order"
            );
            metrics.push(metric);
        }
    } else {
        let traced_p50 = Quartiles::of(&mut traced.op_ns).p50;
        let mut layers = std::mem::take(&mut oracle.layers);
        let read = w.layers(&mut input, &tracer.totals(), &traced);
        layers.extend(read.metrics);
        let rows: Vec<f64> = read.budget.iter().map(|(_, ns)| *ns).collect();
        let (attributed, unattributed, share) = reconcile(traced_p50, &rows);
        for (name, ns) in &read.budget {
            oracle.notes.push(format!("budget {name} {ns:.1} ns/op"));
        }
        oracle.notes.push(format!(
            "budget attributed {attributed:.1} + unattributed {unattributed:.1} ({:.1} %) = traced op_ns_p50 {traced_p50:.1}; \
             spans {} at {:.1} ns a pair",
            share * 100.0,
            tracer.len(),
            calibration.pair_ns
        ));
        layers.push(Metric::new("bench.traced_op_ns_p50", "ns", traced_p50));
        layers.push(Metric::new("trace.timer_ns", "ns", calibration.pair_ns));
        layers.push(Metric::new(
            "trace.overhead_pct",
            "%",
            (traced_p50 / op_q.p50 - 1.0) * 100.0,
        ));
        layers.push(Metric::new("unattributed_ns_per_op", "ns", unattributed));
        // Every per-layer name, in the table's order; 0 where this
        // workload does not run the layer.
        for (name, unit) in PER_LAYER {
            let value = layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metrics.push(Metric::new(name, unit, value));
        }
        let stray: Vec<&str> = layers
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !PER_LAYER.iter().any(|(p, _)| p == n))
            .collect();
        assert!(
            stray.is_empty(),
            "per-layer metrics missing from PER_LAYER: {stray:?}"
        );
        if let Err(e) = tracer.write_file(W::NAME) {
            oracle.notes.push(format!("trace file not written: {e}"));
        }
    }

    let detail = Json::obj(vec![
        ("workload", Json::str(W::NAME)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.size == Size::Smoke)),
        ("reps", Json::Int(plain.reps as u64)),
        (
            "ops_per_rep",
            Json::Int(plain.ops / plain.reps.max(1) as u64),
        ),
        ("digest", Json::Str(format!("{:016x}", oracle.digest))),
        ("digest_mismatches", Json::Int(mismatches as u64)),
        ("noisy", Json::Bool(ops_q.noisy() || op_q.noisy())),
        ("setup_s_runs", setup_series),
        ("rep_ops_per_s", rep_series),
        ("rep_op_ns", op_series),
        ("threads", Json::Int(w.threads() as u64)),
        ("host_cpus", Json::Int(host_cpus() as u64)),
        (
            "telemetry_compiled",
            Json::Bool(tsc_telemetry::TELEMETRY_COMPILED),
        ),
        (
            "transport",
            Json::str("in-process SimTransport; no socket or loopback is crossed"),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "checks",
            Json::Obj(
                oracle
                    .checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(oracle.notes.iter().map(|n| Json::str(n)).collect()),
        ),
    ]);

    Report {
        correct,
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics,
        detail,
    }
}

impl Report {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(Metric::json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // out-of-range p clamps instead of indexing out of bounds
        assert_eq!(percentile(&v, 1.5), 5.0);
        assert_eq!(percentile(&v, -1.0), 1.0);
    }

    #[test]
    fn quartiles_sort_and_flag_noise() {
        let mut v = vec![104.0, 100.0, 96.0, 98.0, 102.0];
        let q = Quartiles::of(&mut v);
        assert_eq!((q.p25, q.p50, q.p75, q.n), (98.0, 100.0, 102.0, 5));
        assert!((q.spread() - 0.04).abs() < 1e-12);
        assert!(!q.noisy());
        let mut wide = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert!(Quartiles::of(&mut wide).noisy());
        // an empty sample is noisy, not silently fine
        assert!(Quartiles::of(&mut []).noisy());
        assert!(exceeds(2.0, 1.0) && !exceeds(1.0, 1.0) && !exceeds(0.5, 1.0));
        assert!(exceeds(f64::NAN, 1.0) && exceeds(1.0, f64::NAN));
    }

    #[test]
    fn json_writer_escapes_and_keeps_digits() {
        let j = Json::obj(vec![
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("i", Json::Int(u64::MAX)),
            ("x", Json::Num(1.2034)),
            ("tiny", Json::Num(1e-9)),
            ("nan", Json::Num(f64::NAN)),
            ("b", Json::Bool(true)),
            (
                "a",
                Json::Arr(vec![Json::Int(1), Json::Raw("{\"k\": 2}".into())]),
            ),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(
            j.render(),
            "{\"s\": \"a\\\"b\\\\c\\nd\\u0001\", \"i\": 18446744073709551615, \"x\": 1.2034, \
             \"tiny\": 0.000000001, \"nan\": null, \"b\": true, \"a\": [1, {\"k\": 2}], \"e\": {}}"
        );
        // all digits of a measured value survive
        let x = 0.123_456_789_012_345_67_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn sub_seeds_differ_across_seeds_tags_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for tag in 1..4 {
                for index in 0..64 {
                    assert!(seen.insert(sub_seed(seed, tag, index)));
                }
            }
        }
        assert!((0.0..1.0).contains(&unit(sub_seed(1, 2, 3))));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let a = fold(fold(FNV_OFFSET, 1), 2);
        let b = fold(fold(FNV_OFFSET, 2), 1);
        assert_ne!(a, b);
        assert_eq!(a, fold(fold(FNV_OFFSET, 1), 2));
    }

    /// Names under `key` in BENCHMARK.json, by bracket matching — enough
    /// of a parser for a file this benchmark's own PR writes.
    fn benchmark_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_emitted() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(benchmark_names(json, "end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(benchmark_names(json, "per_layer"), layers);
        assert_eq!(benchmark_names(json, "workloads"), crate::WORKLOADS);
    }
}
