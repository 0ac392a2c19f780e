//! Minimal criterion-compatible benchmark harness.
//!
//! Supports the subset this workspace uses: `criterion_group!` /
//! `criterion_main!`, benchmark groups with throughput and sample-size
//! hints, `Bencher::iter`, a substring filter
//! (`cargo bench -- <filter>`), and the `--test` smoke mode that runs every
//! bench exactly once (used by CI).
//!
//! Reported numbers are the mean wall-clock time per iteration over a
//! fixed measurement budget after a short warm-up — adequate for tracking
//! the order-of-magnitude improvements this repo's benches exist to show,
//! with none of real criterion's statistics.
//!
//! # Machine-readable output
//!
//! When the `BENCH_JSON` environment variable names a path, every bench
//! binary writes its measurements there as a JSON array of
//! `{"bench", "mean_ns", "median_ns", "iters", "elements_per_iter",
//! "throughput_per_sec", "threads", "host_cpus", "rustc"}` records on
//! exit (via the `criterion_main!` epilogue). The file is overwritten
//! whole, so point it at a scratch path and merge the rows worth keeping,
//! labelled, into the repo's one ledger, the root `BENCH.json`.
//! `median_ns` is the median of the per-batch sample means: on a
//! single-core host the scheduler can stall one batch for tens of
//! milliseconds, inflating the mean of a short benchmark by double-digit
//! percentages while the median stays put — prefer it when comparing
//! runs. The trailing host columns make rows self-describing: `threads`
//! is the worker count a `<N>threads` bench-id suffix declares (null
//! otherwise), `host_cpus` is [`std::thread::available_parallelism`] at
//! run time, and `rustc` is the compiler that built the binary — a
//! thread-scaling row measured on a 1-CPU host documents pool overhead,
//! not parallel speedup, and the row now says so itself. Smoke runs
//! (`--test`) record nothing.
//!
//! `BenchmarkGroup::sample_size(n)` is honored as a real floor of `n`
//! timed batches (criterion's own contract), not just a hint: noisy
//! benches that set it keep measuring past the wall-clock budget until
//! the median has at least that many samples behind it.

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use self::measurement::black_box;

mod measurement {
    /// Re-export of the std black box under criterion's historical path.
    pub fn black_box<T>(x: T) -> T {
        std::hint::black_box(x)
    }
}

/// Throughput hint attached to a group: scales the per-iteration time into
/// elements/s or bytes/s in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Harness configuration, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    /// Wall-clock budget per benchmark.
    measure_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: false,
            filter: None,
            measure_budget: Duration::from_millis(700),
        }
    }
}

impl Criterion {
    /// Applies `--test` (smoke mode) and a positional substring filter, the
    /// two things `cargo bench` / CI pass through.
    pub fn configure_from_args(mut self) -> Self {
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" | "-t" => self.test_mode = true,
                "--bench" => {}
                s if s.starts_with("--") => {}
                s => self.filter = Some(s.to_string()),
            }
        }
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            throughput: None,
            sample_size: 10,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let cfg = self.clone();
        run_one(&cfg, id.as_ref(), None, 10, f);
        self
    }
}

/// A named group of benchmarks sharing throughput/sample-size settings.
pub struct BenchmarkGroup<'a> {
    c: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.as_ref());
        run_one(self.c, &full, self.throughput, self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

fn run_one<F>(c: &Criterion, id: &str, throughput: Option<Throughput>, min_samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if let Some(filter) = &c.filter {
        if !id.contains(filter.as_str()) {
            return;
        }
    }
    let mut b = Bencher {
        test_mode: c.test_mode,
        budget: c.measure_budget,
        min_samples,
        total: Duration::ZERO,
        iters: 0,
        samples: Vec::new(),
    };
    f(&mut b);
    if c.test_mode {
        println!("test bench {id} ... ok");
        return;
    }
    if b.iters == 0 {
        println!("{id:<50} (no measurements)");
        return;
    }
    let ns = b.total.as_nanos() as f64 / b.iters as f64;
    let median = b.median_ns().unwrap_or(ns);
    record_result(id, ns, median, b.iters, throughput);
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  thrpt: {:>12} elem/s", human(n as f64 / (ns * 1e-9)))
        }
        Some(Throughput::Bytes(n)) => {
            format!("  thrpt: {:>12} B/s", human(n as f64 / (ns * 1e-9)))
        }
        None => String::new(),
    };
    println!("{id:<50} time: {:>12}/iter{rate}", human_time(ns));
}

/// One finished measurement, kept for the JSON report.
struct BenchRecord {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    iters: u64,
    elements_per_iter: Option<u64>,
    bytes_per_iter: Option<u64>,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Records an externally measured result into the JSON report. For
/// benches whose measurement loop the harness cannot drive — e.g.
/// interleaved A/B arms sharing one workload — which still want their
/// rows in `$BENCH_JSON` next to the harness-timed ones.
pub fn record_custom(
    id: &str,
    mean_ns: f64,
    median_ns: f64,
    iters: u64,
    throughput: Option<Throughput>,
) {
    record_result(id, mean_ns, median_ns, iters, throughput);
}

fn record_result(
    id: &str,
    mean_ns: f64,
    median_ns: f64,
    iters: u64,
    throughput: Option<Throughput>,
) {
    let (elements, bytes) = match throughput {
        Some(Throughput::Elements(n)) => (Some(n), None),
        Some(Throughput::Bytes(n)) => (None, Some(n)),
        None => (None, None),
    };
    RESULTS.lock().expect("results lock").push(BenchRecord {
        name: id.to_string(),
        mean_ns,
        median_ns,
        iters,
        elements_per_iter: elements,
        bytes_per_iter: bytes,
    });
}

/// Renders an f64 for JSON (finite by construction here).
fn json_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{x}")
    }
}

/// Worker-thread count declared by a `<N>threads` suffix in the bench id
/// (the workspace's thread-scaling naming convention), if present.
fn threads_from_id(id: &str) -> Option<u64> {
    let tail = id.rsplit('/').next()?;
    let digits = tail.strip_suffix("threads")?;
    digits.parse().ok()
}

/// Writes the collected measurements to `$BENCH_JSON`, if set. Called by
/// the `criterion_main!` epilogue; a no-op without the variable or without
/// measurements (smoke mode).
pub fn write_json_report() {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let results = RESULTS.lock().expect("results lock");
    if results.is_empty() {
        return;
    }
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = env!("SHIM_RUSTC_VERSION");
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let per_unit = r.elements_per_iter.or(r.bytes_per_iter);
        let rate = per_unit
            .map(|n| json_num(n as f64 / (r.mean_ns * 1e-9)))
            .unwrap_or_else(|| "null".into());
        let elems = r
            .elements_per_iter
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into());
        let threads = threads_from_id(&r.name)
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "  {{\"bench\": {:?}, \"mean_ns\": {}, \"median_ns\": {}, \"iters\": {}, \"elements_per_iter\": {}, \"throughput_per_sec\": {}, \"threads\": {}, \"host_cpus\": {}, \"rustc\": {:?}}}{}\n",
            r.name,
            json_num(r.mean_ns),
            json_num(r.median_ns),
            r.iters,
            elems,
            rate,
            threads,
            host_cpus,
            rustc,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("bench report written to {path}"),
        Err(e) => eprintln!("bench report write to {path} failed: {e}"),
    }
}

fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.3} G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.3} M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.3} K", x / 1e3)
    } else {
        format!("{x:.1} ")
    }
}

fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Passed to each benchmark closure; accumulates timing.
pub struct Bencher {
    test_mode: bool,
    budget: Duration,
    /// Floor on timed batches (`sample_size`): measurement continues past
    /// the wall-clock budget until this many samples back the median.
    min_samples: usize,
    total: Duration,
    iters: u64,
    /// Per-batch sample means (ns per iteration), for the median.
    samples: Vec<f64>,
}

impl Bencher {
    /// Median of the per-batch sample means, if any batches were timed.
    fn median_ns(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
        let n = s.len();
        Some(if n % 2 == 1 {
            s[n / 2]
        } else {
            0.5 * (s[n / 2 - 1] + s[n / 2])
        })
    }
    /// Times `f` repeatedly until the measurement budget is exhausted.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Warm-up and batch-size calibration: find an iteration count that
        // takes ~10 ms, so timer overhead stays negligible.
        let mut batch = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(10) || batch >= 1 << 30 {
                break;
            }
            batch *= 2;
        }
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline || self.samples.len() < self.min_samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            self.total += dt;
            self.iters += batch;
            self.samples.push(dt.as_nanos() as f64 / batch as f64);
        }
    }
}

/// Declares a function running a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` for a bench binary (use with `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_report();
        }
    };
}
