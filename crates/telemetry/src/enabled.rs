//! The real telemetry plane (`feature = "enabled"`).
//!
//! Everything here obeys two contracts:
//!
//! * **Digest transparency** — recording only *reads* pipeline state and
//!   mutates private atomics/rings. Nothing here feeds back into clock
//!   arithmetic, RNG streams or replay scheduling, so instrumented runs
//!   are bit-identical to uninstrumented ones.
//! * **Near-zero hot-path cost** — counters are plain relaxed
//!   `fetch_add`s at batch granularity, histograms one `fetch_add` per
//!   timed batch, and the flight recorder only runs on rare
//!   state-transition branches.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use tsc_stats::{Log2Histogram, LOG2_BUCKETS};

use crate::ids::{err_code, Ctr, EventKind, Gauge, Hist, CTR_COUNT, GAUGE_COUNT, HIST_COUNT};

/// `true` in builds where the telemetry feature is compiled in.
pub const TELEMETRY_COMPILED: bool = true;

/// Master runtime switch. Compiled-in telemetry can still be silenced at
/// runtime — the A/B overhead bench interleaves on/off arms within one
/// binary through this.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Is runtime recording currently on?
#[inline(always)]
pub fn recording() -> bool {
    RECORDING.load(Relaxed)
}

/// Flips the runtime master switch (relaxed; takes effect immediately
/// for subsequent recording calls).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One atomic log2 histogram: bucket counts plus exact count/sum.
#[derive(Debug)]
struct AtomicHist {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[tsc_stats::log2_bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    fn snapshot(&self) -> Log2Histogram {
        let counts = std::array::from_fn(|i| self.buckets[i].load(Relaxed));
        Log2Histogram::from_parts(counts, self.count.load(Relaxed), self.sum.load(Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
    }
}

/// Lock-free, fixed-slot metrics registry.
///
/// Every slot is a plain `AtomicU64` touched with relaxed ordering; the
/// hot path never allocates, hashes or locks. Registries merge
/// elementwise (counters/histograms add, gauges take `max`), so
/// per-worker registries can be folded in any order — the same
/// order-independence contract as the fleet's digest folds.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CTR_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    hists: [AtomicHist; HIST_COUNT],
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHist::new()),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.counters[c as usize].fetch_add(n, Relaxed);
    }

    /// Reads a counter.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize].load(Relaxed)
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Relaxed);
    }

    /// Reads a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Relaxed)
    }

    /// Records one histogram observation.
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Adds a locally accumulated histogram into `h` (one `fetch_add` per
    /// non-empty bucket, plus count and sum).
    pub fn merge_hist(&self, h: Hist, local: &Log2Histogram) {
        let dst = &self.hists[h as usize];
        for (d, &n) in dst.buckets.iter().zip(local.counts().iter()) {
            if n > 0 {
                d.fetch_add(n, Relaxed);
            }
        }
        dst.count.fetch_add(local.count(), Relaxed);
        dst.sum.fetch_add(local.sum(), Relaxed);
    }

    /// Snapshots a histogram into the shared mergeable type.
    pub fn hist(&self, h: Hist) -> Log2Histogram {
        self.hists[h as usize].snapshot()
    }

    /// Elementwise merge of `other` into `self`: counters and histogram
    /// buckets add, gauges take the max. Commutative and associative, so
    /// per-worker registries fold in any order.
    pub fn merge_from(&self, other: &Registry) {
        for (dst, src) in self.counters.iter().zip(other.counters.iter()) {
            dst.fetch_add(src.load(Relaxed), Relaxed);
        }
        for (dst, src) in self.gauges.iter().zip(other.gauges.iter()) {
            dst.fetch_max(src.load(Relaxed), Relaxed);
        }
        for (dst, src) in self.hists.iter().zip(other.hists.iter()) {
            for (d, s) in dst.buckets.iter().zip(src.buckets.iter()) {
                d.fetch_add(s.load(Relaxed), Relaxed);
            }
            dst.count.fetch_add(src.count.load(Relaxed), Relaxed);
            dst.sum.fetch_add(src.sum.load(Relaxed), Relaxed);
        }
    }

    /// Zeroes every slot (for tests, benches and per-experiment sections).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all convenience functions write to.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `n` to a global counter (no-op while recording is off).
#[inline]
pub fn add(c: Ctr, n: u64) {
    if recording() {
        global().add(c, n);
    }
}

/// Sets a global gauge (no-op while recording is off).
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if recording() {
        global().gauge_set(g, v);
    }
}

/// Records a global histogram observation (no-op while recording is off).
#[inline]
pub fn record_ns(h: Hist, ns: u64) {
    if recording() {
        global().record(h, ns);
    }
}

/// Adds a locally accumulated histogram into a global one (no-op while
/// recording is off): how a hot loop that batches its observations in
/// plain integers hands them over.
pub fn merge_hist(h: Hist, local: &Log2Histogram) {
    if recording() {
        global().merge_hist(h, local);
    }
}

/// Zeroes the global registry.
pub fn reset_global() {
    global().reset();
}

/// A scoped stage timer: reads the monotonic clock only when recording
/// is on, and records elapsed nanoseconds into a global histogram on
/// [`StageTimer::stop`].
///
/// Wall-clock *durations* are observability data, not pipeline input —
/// they are recorded and never read back, so timers do not break
/// determinism even though `Instant` is non-deterministic.
#[derive(Debug)]
pub struct StageTimer(Option<(Hist, Instant)>);

impl StageTimer {
    /// Starts timing into `h` (inert when recording is off).
    #[inline]
    pub fn start(h: Hist) -> Self {
        if recording() {
            StageTimer(Some((h, Instant::now())))
        } else {
            StageTimer(None)
        }
    }

    /// Stops and records the elapsed nanoseconds.
    #[inline]
    pub fn stop(self) {
        if let Some((h, t0)) = self.0 {
            global().record(h, t0.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Capacity of each per-thread event ring.
pub const RING_CAP: usize = 1024;

/// One compact flight-recorder record.
///
/// `at` is deterministic pipeline time — a packet index, TSC reading or
/// simulated-time encoding — never wall clock, so the recorded stream is
/// identical across reruns and across recording on/off (which is what
/// makes it safe to leave enabled in parity runs).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Deterministic timestamp (packet index / TSC / encoded sim time).
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload word (see [`EventKind`] docs).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

struct Ring {
    buf: Vec<Event>,
    /// Next write position (wraps at [`RING_CAP`]).
    next: usize,
    /// Total events ever pushed on this thread.
    total: u64,
    /// Overwrites not yet folded into [`Ctr::RecorderDropped`] — flushed
    /// in batches of [`DROP_FLUSH`] so a saturated ring doesn't pay one
    /// global atomic per push, and flushed exactly on every dump/clear.
    pending_drops: u32,
}

/// Ring overwrites are folded into the global drop counter in batches of
/// this many; [`flight_dump`] and [`clear_flight_recorder`] flush the
/// remainder, so the counter is exact at every dump point.
const DROP_FLUSH: u32 = 64;

impl Ring {
    const fn new() -> Self {
        Ring {
            buf: Vec::new(),
            next: 0,
            total: 0,
            pending_drops: 0,
        }
    }

    /// Appends `ev`; returns `true` when an old record was overwritten.
    fn push(&mut self, ev: Event) -> bool {
        self.total += 1;
        if self.buf.len() < RING_CAP {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % RING_CAP;
            true
        }
    }

    fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

/// Pushes an event onto this thread's flight-recorder ring (no-op while
/// recording is off). When the ring wraps, the overwritten record is
/// counted in [`Ctr::RecorderDropped`] — truncation is never silent.
/// Overwrite counts reach the global registry in batches (exactly
/// flushed by every dump/clear), so a saturated ring stays cheap.
#[inline]
pub fn event(kind: EventKind, at: u64, a: u64, b: u64) {
    if !recording() {
        return;
    }
    let flush = RING.with(|r| {
        let mut ring = r.borrow_mut();
        if ring.push(Event { at, kind, a, b }) {
            ring.pending_drops += 1;
            if ring.pending_drops >= DROP_FLUSH {
                return std::mem::take(&mut ring.pending_drops);
            }
        }
        0
    });
    if flush > 0 {
        global().add(Ctr::RecorderDropped, u64::from(flush));
    }
}

/// Clears this thread's ring (tests and per-scenario sections), folding
/// any pending overwrite count into the drop counter first.
pub fn clear_flight_recorder() {
    let pending = RING.with(|r| {
        let mut ring = r.borrow_mut();
        let pending = ring.pending_drops;
        *ring = Ring::new();
        pending
    });
    if pending > 0 {
        global().add(Ctr::RecorderDropped, u64::from(pending));
    }
}

fn render_event(out: &mut String, ev: &Event) {
    let _ = write!(out, "  [{:>12}] {:<24}", ev.at, ev.kind.name());
    match ev.kind {
        EventKind::RestoreFailed => {
            let _ = writeln!(
                out,
                " error=SnapshotError::{} blob_len={}",
                err_code::name(ev.a),
                ev.b
            );
        }
        EventKind::LifecycleTransition | EventKind::LifecycleTraceDropped => {
            let _ = writeln!(
                out,
                " from={} to={} cause={}",
                ev.a >> 8,
                ev.a & 0xff,
                ev.b
            );
        }
        _ => {
            let _ = writeln!(out, " a={} b={}", ev.a, ev.b);
        }
    }
}

/// Renders this thread's flight-recorder ring, oldest event first, with
/// an explicit dropped count in the header.
pub fn flight_dump() -> String {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let pending = std::mem::take(&mut ring.pending_drops);
        if pending > 0 {
            global().add(Ctr::RecorderDropped, u64::from(pending));
        }
        let ring = &*ring;
        let mut out = format!(
            "--- flight recorder ({:?}: {} events, {} dropped) ---\n",
            std::thread::current().id(),
            ring.buf.len(),
            ring.dropped()
        );
        let n = ring.buf.len();
        if n == RING_CAP {
            // Ring full: oldest record sits at the write cursor.
            for i in 0..n {
                render_event(&mut out, &ring.buf[(ring.next + i) % RING_CAP]);
            }
        } else {
            for ev in &ring.buf {
                render_event(&mut out, ev);
            }
        }
        out
    })
}

/// Installs (once per process) a panic hook that dumps the panicking
/// thread's flight recorder to stderr before the default handler runs.
/// Panic hooks run on the panicking thread, so the thread-local ring in
/// scope is exactly the one with the events leading up to the crash.
pub fn install_panic_dump() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprintln!("{}", flight_dump());
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Renders a registry as a Prometheus-style text exposition.
///
/// Every counter slot is emitted even when zero — the
/// `flight_recorder_dropped` / `lifecycle_trace_dropped` lines are a
/// contract (truncation is always reported), and fixed rows make diffs
/// between runs trivially comparable.
pub fn prometheus_for(reg: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "# tsc-telemetry exposition (compiled=on recording={})",
        if recording() { "on" } else { "off" }
    );
    for c in Ctr::ALL {
        let _ = writeln!(out, "# TYPE tsc_{}_total counter", c.name());
        let _ = writeln!(out, "tsc_{}_total {}", c.name(), reg.counter(c));
    }
    for g in Gauge::ALL {
        let _ = writeln!(out, "# TYPE tsc_{} gauge", g.name());
        let _ = writeln!(out, "tsc_{} {}", g.name(), reg.gauge(g));
    }
    for h in Hist::ALL {
        let snap = reg.hist(h);
        let _ = writeln!(out, "# TYPE tsc_{} histogram", h.name());
        let _ = writeln!(out, "tsc_{}_count {}", h.name(), snap.count());
        let _ = writeln!(out, "tsc_{}_sum {}", h.name(), snap.sum());
        let mut cum = 0u64;
        for (i, &c) in snap.counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let _ = writeln!(
                out,
                "tsc_{}_bucket{{le=\"{}\"}} {}",
                h.name(),
                tsc_stats::log2_bucket_bound(i),
                cum
            );
        }
        if !snap.is_empty() {
            let _ = writeln!(
                out,
                "tsc_{}_bucket{{le=\"+Inf\"}} {}",
                h.name(),
                snap.count()
            );
        }
    }
    out
}

/// Prometheus-style exposition of the global registry.
pub fn prometheus() -> String {
    prometheus_for(global())
}

/// Renders a registry as a JSON object (counters, gauges, and per-
/// histogram count/sum/mean plus factor-of-two quantile bounds).
pub fn to_json_for(reg: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"compiled\":true,\"recording\":");
    out.push_str(if recording() { "true" } else { "false" });
    out.push_str(",\"counters\":{");
    for (i, c) in Ctr::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), reg.counter(*c));
    }
    out.push_str("},\"gauges\":{");
    for (i, g) in Gauge::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", g.name(), reg.gauge(*g));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in Hist::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let snap = reg.hist(*h);
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            h.name(),
            snap.count(),
            snap.sum(),
            snap.mean(),
            snap.quantile(0.50),
            snap.quantile(0.90),
            snap.quantile(0.99),
            snap.max_bound()
        );
    }
    out.push_str("}}");
    out
}

/// JSON export of the global registry.
pub fn to_json() -> String {
    to_json_for(global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle global recording state.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_and_merge_are_order_independent() {
        let _g = LOCK.lock().unwrap();
        let a = Registry::new();
        let b = Registry::new();
        a.add(Ctr::PacketsIngested, 7);
        a.record(Hist::SealNs, 1_000);
        a.gauge_set(Gauge::PoolWorkers, 4);
        b.add(Ctr::PacketsIngested, 5);
        b.add(Ctr::WarmupExits, 1);
        b.record(Hist::SealNs, 1_000_000);
        b.gauge_set(Gauge::PoolWorkers, 2);

        let ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);

        for c in Ctr::ALL {
            assert_eq!(ab.counter(c), ba.counter(c), "{}", c.name());
        }
        for h in Hist::ALL {
            assert_eq!(ab.hist(h), ba.hist(h), "{}", h.name());
        }
        for g in Gauge::ALL {
            assert_eq!(ab.gauge(g), ba.gauge(g), "{}", g.name());
        }
        assert_eq!(ab.counter(Ctr::PacketsIngested), 12);
        assert_eq!(ab.gauge(Gauge::PoolWorkers), 4);
        assert_eq!(ab.hist(Hist::SealNs).count(), 2);
    }

    #[test]
    fn recording_switch_silences_global_writes() {
        let _g = LOCK.lock().unwrap();
        clear_flight_recorder();
        let before = global().counter(Ctr::CrashesInjected);
        set_recording(false);
        add(Ctr::CrashesInjected, 3);
        event(EventKind::CrashInjected, 1, 0, 0);
        let t = StageTimer::start(Hist::RestoreNs);
        t.stop();
        assert_eq!(global().counter(Ctr::CrashesInjected), before);
        assert!(flight_dump().contains("0 events"));
        set_recording(true);
        add(Ctr::CrashesInjected, 2);
        assert_eq!(global().counter(Ctr::CrashesInjected), before + 2);
    }

    #[test]
    fn ring_wraps_with_counted_drops() {
        let _g = LOCK.lock().unwrap();
        set_recording(true);
        clear_flight_recorder();
        let dropped_before = global().counter(Ctr::RecorderDropped);
        let n = RING_CAP as u64 + 10;
        for i in 0..n {
            event(EventKind::WarmupExit, i, 0, 0);
        }
        let dump = flight_dump();
        assert!(
            dump.contains(&format!("{} events, 10 dropped", RING_CAP)),
            "{}",
            dump.lines().next().unwrap_or("")
        );
        // Oldest surviving event is #10, newest is #(n-1), in order.
        let first = dump
            .lines()
            .nth(1)
            .and_then(|l| l.trim().strip_prefix('['))
            .and_then(|l| l.split(']').next())
            .map(|s| s.trim().to_string());
        assert_eq!(first.as_deref(), Some("10"));
        assert!(dump.contains(&format!("[{:>12}]", n - 1)));
        assert_eq!(global().counter(Ctr::RecorderDropped), dropped_before + 10);
        clear_flight_recorder();
    }

    #[test]
    fn exposition_always_reports_drop_counters() {
        let _g = LOCK.lock().unwrap();
        let reg = Registry::new();
        let text = prometheus_for(&reg);
        assert!(text.contains("tsc_flight_recorder_dropped_total 0"));
        assert!(text.contains("tsc_lifecycle_trace_dropped_total 0"));
        reg.add(Ctr::LifecycleTraceDropped, 4);
        assert!(prometheus_for(&reg).contains("tsc_lifecycle_trace_dropped_total 4"));
        let json = to_json_for(&reg);
        assert!(json.contains("\"lifecycle_trace_dropped\":4"));
        assert!(json.contains("\"flight_recorder_dropped\":0"));
    }

    #[test]
    fn restore_failed_dump_names_the_error() {
        let _g = LOCK.lock().unwrap();
        set_recording(true);
        clear_flight_recorder();
        event(EventKind::RestoreFailed, 42, err_code::CHECKSUM, 512);
        let dump = flight_dump();
        assert!(dump.contains("restore-failed"), "{dump}");
        assert!(dump.contains("error=SnapshotError::Checksum"), "{dump}");
        clear_flight_recorder();
    }

    #[test]
    fn histogram_buckets_cumulate_in_exposition() {
        let _g = LOCK.lock().unwrap();
        let reg = Registry::new();
        reg.record(Hist::SealNs, 100);
        reg.record(Hist::SealNs, 100);
        reg.record(Hist::SealNs, 1_000_000);
        let text = prometheus_for(&reg);
        assert!(text.contains("tsc_snapshot_seal_ns_count 3"));
        assert!(text.contains("tsc_snapshot_seal_ns_bucket{le=\"127\"} 2"));
        assert!(text.contains("tsc_snapshot_seal_ns_bucket{le=\"1048575\"} 3"));
        assert!(text.contains("tsc_snapshot_seal_ns_bucket{le=\"+Inf\"} 3"));
    }
}
