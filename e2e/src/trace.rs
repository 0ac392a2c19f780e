//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: `{name, start_ns, end_ns, parent, request_id}`, kept in
//! memory and written out when the run ends.
//!
//! A layer's **self time** is its span's duration minus what its child
//! spans cover, less the calibrated cost of the timer itself: an empty
//! span still measures `gap_ns` (the gap between its two clock reads),
//! and each child costs its parent `pair_ns − gap_ns` on top of the
//! child's own duration (the part of the open/close pair that falls
//! outside the child's interval).

use crate::harness::{percentile, sort, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans beyond this many are aggregated but not written to the file.
const FILE_SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

/// Measured cost of the timer on this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Duration an empty span records.
    pub gap_ns: f64,
    /// Wall cost of one whole open/close pair.
    pub pair_ns: f64,
}

impl Calibration {
    /// Times empty spans in batches and keeps the fastest batch's cost per
    /// pair: the host can only slow a batch down, and one slow moment here
    /// would be subtracted from every span of the run.
    pub fn measure() -> Self {
        const BATCHES: usize = 20;
        const PER_BATCH: usize = 1_000;
        let mut t = Tracer::enabled(Calibration {
            gap_ns: 0.0,
            pair_ns: 0.0,
        });
        t.spans.reserve(BATCHES * PER_BATCH);
        let mut pair_ns = f64::INFINITY;
        for _ in 0..BATCHES {
            let started = Instant::now();
            for _ in 0..PER_BATCH {
                let id = t.open("calibrate", 0);
                t.close(id);
            }
            pair_ns = pair_ns.min(started.elapsed().as_nanos() as f64 / PER_BATCH as f64);
        }
        let mut durs: Vec<f64> = t
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        sort(&mut durs);
        Self {
            gap_ns: percentile(&durs, 0.5),
            pair_ns,
        }
    }
}

/// Handle of an open span (`None` from a disabled tracer).
pub type Open = Option<u32>;

/// Corrected self times in ns per span name, ascending.
#[derive(Debug, Default)]
pub struct Totals(BTreeMap<&'static str, Vec<f64>>);

impl Totals {
    fn of(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.of(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.of(name).len() as u64
    }

    /// Mean self time per span; 0 when the name never ran.
    pub fn mean(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.sum(name) / n as f64,
        }
    }

    /// Median self time per span; 0 when the name never ran.
    pub fn median(&self, name: &str) -> f64 {
        match self.of(name) {
            [] => 0.0,
            sorted => percentile(sorted, 0.5),
        }
    }

    /// Summed self time per `ops` operations; 0 when `ops` is 0.
    pub fn per(&self, name: &str, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.sum(name) / ops as f64
        }
    }

    /// Typical self time per `ops` operations: the median span times
    /// how many spans an operation has. For per-request stages, whose
    /// means a few slow requests pull well above what the median op pays.
    pub fn typical_per(&self, name: &str, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.median(name) * self.count(name) as f64 / ops as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    calibration: Calibration,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn enabled(calibration: Calibration) -> Self {
        Self {
            on: true,
            t0: Instant::now(),
            calibration,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer whose `open` is one untaken branch: the untraced run
    /// executes the same code as the traced one.
    pub fn disabled() -> Self {
        Self {
            on: false,
            ..Self::enabled(Calibration {
                gap_ns: 0.0,
                pair_ns: 0.0,
            })
        }
    }

    /// A tracer for another thread that shares this one's epoch, so its
    /// spans can be merged back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self {
            on: self.on,
            t0: self.t0,
            calibration: self.calibration,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, request_id: u64) -> Open {
        self.open_if(true, name, request_id)
    }

    /// Opens a span only when `sampled` (per-request stages are spanned on
    /// one request in 64).
    #[inline]
    pub fn open_if(&mut self, sampled: bool, name: &'static str, request_id: u64) -> Open {
        if !(self.on && sampled) {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request_id,
        });
        // Read the clock last on open and first on close, so bookkeeping
        // stays outside the measured interval.
        self.spans[id as usize].start_ns = self.t0.elapsed().as_nanos() as u64;
        Some(id)
    }

    #[inline]
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open {
            let end = self.t0.elapsed().as_nanos() as u64;
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Merges the spans of a forked tracer (parent links re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Corrected self times grouped by span name.
    pub fn totals(&self) -> Totals {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self
            .spans
            .iter()
            .zip(self_times(&self.spans, self.calibration))
        {
            by_name.entry(span.name).or_default().push(self_ns);
        }
        for times in by_name.values_mut() {
            sort(times);
        }
        Totals(by_name)
    }

    /// Writes the spans to `<target dir>/e2e/<workload>.trace.json`.
    pub fn write_file(&self, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        let dir = std::path::PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
        )
        .join("e2e");
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(dir.join(format!("{workload}.trace.json")))?;
        let mut w = std::io::BufWriter::new(file);
        let kept = self.spans.len().min(FILE_SPAN_CAP);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"gap_ns\": {}, \"pair_ns\": {}, \"spans_total\": {}, \"spans_written\": {kept}, \"spans\": [",
            self.calibration.gap_ns,
            self.calibration.pair_ns,
            self.spans.len()
        )?;
        for (i, s) in self.spans[..kept].iter().enumerate() {
            let parent = if s.parent == NO_PARENT || s.parent as usize >= kept {
                Json::Raw("null".into())
            } else {
                Json::Int(s.parent as u64)
            };
            let row = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("parent", parent),
                ("request_id", Json::Int(s.request_id)),
            ]);
            writeln!(w, "{}{}", row.render(), if i + 1 < kept { "," } else { "" })?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time of each span: duration, minus children, minus the timer.
pub fn self_times(spans: &[Span], cal: Calibration) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 - cal.gap_ns)
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let child = s.end_ns.saturating_sub(s.start_ns) as f64;
            out[s.parent as usize] -= child + (cal.pair_ns - cal.gap_ns);
        }
    }
    for d in &mut out {
        *d = d.max(0.0);
    }
    out
}

/// Splits a measured op time into what the layers account for and the
/// rest: `(attributed, unattributed, unattributed share of the op)`.
pub fn reconcile(op_ns: f64, layer_ns: &[f64]) -> (f64, f64, f64) {
    let attributed: f64 = layer_ns.iter().sum();
    let rest = op_ns - attributed;
    (attributed, rest, rest / op_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_timer() {
        let cal = Calibration {
            gap_ns: 30.0,
            pair_ns: 70.0,
        };
        let spans = [
            span("root", 0, 1000, NO_PARENT),
            span("a", 100, 400, 0),
            span("b", 500, 700, 0),
            span("a.inner", 150, 250, 1),
        ];
        let s = self_times(&spans, cal);
        // root: 1000 − 30 − (300 + 40) − (200 + 40) = 390
        assert_eq!(s[0], 390.0);
        // a: 300 − 30 − (100 + 40) = 130
        assert_eq!(s[1], 130.0);
        assert_eq!(s[2], 170.0);
        assert_eq!(s[3], 70.0);
        // With a free timer, self times partition the root exactly.
        let free = self_times(
            &spans,
            Calibration {
                gap_ns: 0.0,
                pair_ns: 0.0,
            },
        );
        assert_eq!(free.iter().sum::<f64>(), 1000.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let cal = Calibration {
            gap_ns: 30.0,
            pair_ns: 70.0,
        };
        let s = self_times(&[span("empty", 10, 20, NO_PARENT)], cal);
        assert_eq!(s, vec![0.0]);
    }

    #[test]
    fn reconcile_reports_the_remainder() {
        let (attributed, rest, share) = reconcile(1000.0, &[300.0, 450.0, 100.0]);
        assert_eq!((attributed, rest), (850.0, 150.0));
        assert!((share - 0.15).abs() < 1e-12);
        // over-attribution shows as a negative remainder, not a clamp
        assert_eq!(reconcile(100.0, &[120.0]).1, -20.0);
    }

    #[test]
    fn tracer_nests_samples_and_merges() {
        let cal = Calibration {
            gap_ns: 0.0,
            pair_ns: 0.0,
        };
        let mut t = Tracer::enabled(cal);
        let root = t.open("root", 1);
        let kid = t.open("kid", 1);
        t.close(kid);
        let skipped = t.open_if(false, "skipped", 1);
        assert!(skipped.is_none());
        t.close(skipped);
        t.close(root);
        assert_eq!(t.len(), 2);
        assert_eq!((t.spans[0].parent, t.spans[1].parent), (NO_PARENT, 0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut other = t.fork();
        let a = other.open("other.root", 2);
        let b = other.open("other.kid", 2);
        other.close(b);
        other.close(a);
        t.absorb(other);
        assert_eq!(t.len(), 4);
        assert_eq!((t.spans[2].parent, t.spans[3].parent), (NO_PARENT, 2));
        let totals = t.totals();
        assert_eq!(
            (
                totals.count("other.kid"),
                totals.count("kid"),
                totals.count("nope")
            ),
            (1, 1, 0)
        );
        assert_eq!(totals.mean("nope"), 0.0);
        assert_eq!(totals.per("kid", 0), 0.0);
        assert_eq!(totals.median("nope"), 0.0);
        assert_eq!(totals.typical_per("kid", 2), totals.median("kid") / 2.0);

        let mut off = Tracer::disabled();
        let id = off.open("x", 0);
        off.close(id);
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let cal = Calibration::measure();
        assert!(cal.gap_ns > 0.0 && cal.pair_ns >= cal.gap_ns, "{cal:?}");
    }
}
