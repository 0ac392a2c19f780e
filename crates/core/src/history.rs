//! Packet history and the RTT-minimum machinery.
//!
//! The decisive idea of §5.1 is that packet quality is judged *only* from
//! round-trip times measured by the host counter: the **point error**
//! `Eᵢ = rᵢ − r̂(t)`, with `r̂(t)` the running RTT minimum. Because `Ta` and
//! `Tf` come from the same clock, neither `θ(t)` nor a precise `p(t)` is
//! needed — "a near complete decoupling of the underlying basis of filtering
//! from the estimation tasks".
//!
//! [`History`] stores the per-packet records inside the top-level sliding
//! window `T` (1 week, slid by `T/2`, §6.1 "Windowing"), maintains `r̂` in
//! counter units, and implements the level-shift re-basing of §6.2:
//! downward shifts are absorbed automatically by the running minimum;
//! upward shifts (detected elsewhere) re-base `r̂` and the stored point
//! errors back to the shift point.
//!
//! # Complexity
//!
//! Every operation is **O(1) amortized per packet**, plus one pass over
//! a table of a handful of entries at each new minimum, and memory is
//! **O(window)**: the four stamps of each retained packet (32 bytes) plus
//! one small side table.
//!
//! * **Window slides** recompute `r̂` from the retained half: one pass
//!   over the retained records at or after the shift floor, the same
//!   order of work as the drain it follows, once every `T/2` (3.5 days
//!   at 16 s polling). Between slides `r̂` only falls, or is set by a
//!   confirmed shift, so a push is one compare: nothing per packet tracks
//!   what a slide will need.
//! * **Point-error re-evaluation** (§6.1: when `r̂` improves, "the past
//!   point errors effectively change ... For the purposes of future
//!   estimates the new point errors are used") and the re-basing after an
//!   upward shift (§6.2) rewrite the baselines of many packets at once.
//!   A baseline is constant over long runs of consecutive packets, so it
//!   is stored once per run, and the rewrite touches runs, not packets.
//!
//! # Baseline runs
//!
//! A packet's baseline is the `r̂` its point error is measured against.
//! The run table holds `(start, baseline)` pairs with strictly increasing
//! starts; a run covers its start up to the next run's start, and every
//! retained packet's baseline is its run's value — always the current
//! one, so a read resolves nothing. The table is re-based eagerly, the
//! way the reference history rewrites its records, a run at a time:
//!
//! * **Push**: a packet whose `r̂` differs from the last run's baseline
//!   opens a run `(idx, r̂)`, and so does the first packet at the shift
//!   floor, so no run straddles the floor; any other packet extends the
//!   last run.
//! * **New minimum `m`**: every run at or after the shift floor whose
//!   baseline exceeds `m` takes `m`, then equal neighbours merge. Those
//!   runs form a suffix when each shift's new level is at most the RTT of
//!   every retained packet from its start — the detector's level is the
//!   minimum of exactly those packets — because baselines at or after the
//!   floor are then non-decreasing. A caller's shift need not be, and a
//!   slide after one can lower `r̂` with no sweep, so the sweep visits
//!   every run at or after the floor rather than stop at the first it
//!   leaves alone.
//! * **Upward shift** `(new_min_c, start)`: runs starting at or after
//!   `start` go, `(start, new_min_c)` takes their place, and `start`
//!   becomes the floor.
//! * **Slide**: runs that end at or before the new front go.
//!
//! After a push the last run's baseline is `r̂`, so a new minimum lowers
//! the last run to itself and never opens one. A run therefore starts
//! only where a slide or a shift moved `r̂` between two pushes, and the
//! window holds at most two slide points (slides are `T/2` apart): the
//! table has **at most three runs plus one per shift start inside the
//! window**. That bounds the new-minimum sweep, and a range read walks
//! the table with a cursor beside the ring.

use crate::exchange::RawExchange;
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::SnapshotError;
use std::collections::VecDeque;

/// One retained packet as the accessors hand it out, by value. `Tf` and
/// the RTT in counts and the two midpoints are methods over `ex`,
/// evaluated where they are read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Global index of this (accepted) packet.
    pub idx: u64,
    /// The raw observables.
    pub ex: RawExchange,
    /// The RTT-minimum baseline (counts) this packet's point error is
    /// measured against — "point errors relative to the r̂ estimate made at
    /// the time" (§6.2), lowered by every later new minimum (§6.1) and
    /// re-based by upward shifts: the current value when handed out.
    pub rbase_c: f64,
}

impl PacketRecord {
    /// `Tf` in counts as `f64` (exact for counters < 2⁵³).
    #[inline(always)]
    pub fn tf_c(&self) -> f64 {
        self.ex.tf_tsc as f64
    }

    /// RTT in counts.
    #[inline(always)]
    pub fn rtt_c(&self) -> f64 {
        self.ex.rtt_counts() as f64
    }

    /// Host midpoint `(Ta+Tf)/2` in counts.
    #[inline(always)]
    pub fn hm_c(&self) -> f64 {
        self.ex.host_midpoint_counts()
    }

    /// Server midpoint `(Tb+Te)/2` in seconds.
    #[inline(always)]
    pub fn sm(&self) -> f64 {
        self.ex.server_midpoint()
    }

    /// Point error `Eᵢ` in seconds, given a period estimate.
    pub fn point_error(&self, p_hat: f64) -> f64 {
        (self.rtt_c() - self.rbase_c) * p_hat
    }

    /// Serializes records held outside the ring (the rate estimator's
    /// copies) as a counted list, each its exchange's four words, its
    /// baseline, then its index.
    pub(crate) fn save_all(records: &[Self], w: &mut SnapshotWriter) {
        w.put_usize(records.len());
        for rec in records {
            w.put_array(&exchange_to_wire(&rec.ex));
            w.put_f64(rec.rbase_c);
            w.put_u64(rec.idx);
        }
    }

    /// Deserializes a list written by [`PacketRecord::save_all`], refusing
    /// one longer than `max`.
    pub(crate) fn load_all(
        r: &mut SnapshotReader<'_>,
        max: usize,
    ) -> Result<Vec<Self>, SnapshotError> {
        let n = r.get_len(EXCHANGE_WIRE_BYTES + 16)?;
        if n > max {
            return Err(SnapshotError::Invalid("more stored records than their holder admits"));
        }
        (0..n)
            .map(|_| {
                let rec = PacketRecord {
                    ex: exchange_from_wire(r.take_array()?),
                    rbase_c: r.get_f64()?,
                    idx: r.get_u64()?,
                };
                let positive = rec.rbase_c.is_finite() && rec.rbase_c > 0.0;
                if admissible(&rec.ex) && positive { Ok(rec) } else { Err(INADMISSIBLE) }
            })
            .collect()
    }
}

/// The ring stores each packet's exchange and nothing else: the global
/// index is its position (see [`History::front_idx`]) and the baseline
/// its run's.
const _: () = assert!(std::mem::size_of::<RawExchange>() == 32);

/// An exchange on the wire is its fields in struct order as four
/// little-endian words, floats as raw bits. Part of the snapshot format.
pub(crate) const EXCHANGE_WIRE_BYTES: usize = 32;

fn exchange_to_wire(ex: &RawExchange) -> [u8; EXCHANGE_WIRE_BYTES] {
    let words = [ex.ta_tsc, ex.tb.to_bits(), ex.te.to_bits(), ex.tf_tsc];
    let mut bytes = [0u8; EXCHANGE_WIRE_BYTES];
    for (dst, word) in bytes.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// The clock's admission rule, which a restore also checks every stored
/// exchange by: causal, with finite server stamps (non-short-circuit, so
/// a record array is checked without a branch a record).
pub(crate) fn admissible(ex: &RawExchange) -> bool {
    ex.is_causal() & ex.tb.is_finite() & ex.te.is_finite()
}

/// The error for a restored record that is not [`admissible`] or has no
/// positive baseline.
pub(crate) const INADMISSIBLE: SnapshotError =
    SnapshotError::Invalid("stored record not admissible");

fn exchange_from_wire(bytes: &[u8; EXCHANGE_WIRE_BYTES]) -> RawExchange {
    let [ta_tsc, tb, te, tf_tsc]: [u64; 4] = std::array::from_fn(|i| {
        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    });
    RawExchange {
        ta_tsc,
        tb: f64::from_bits(tb),
        te: f64::from_bits(te),
        tf_tsc,
    }
}

/// Result of pushing a packet into the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// The top-level window slid (oldest half discarded, `r̂` recomputed).
    pub window_slid: bool,
    /// `r̂` decreased (a new RTT minimum — including downward level shifts,
    /// which are "automatic and immediate when using r̂", §6.2).
    pub new_minimum: bool,
}

/// Bounded packet history with RTT-minimum maintenance.
#[derive(Debug, Clone)]
pub struct History {
    /// Retained packets, oldest first: position `k` is index `front_idx() + k`.
    records: VecDeque<RawExchange>,
    /// Top-level window capacity in packets (T / poll period).
    cap: usize,
    /// Current `r̂` in counts.
    rtt_min_c: f64,
    /// Baseline runs `(start, baseline)`: starts strictly increasing and
    /// below `next_idx`, the first covering the oldest record, none
    /// straddling the floor (see the module docs).
    runs: Vec<(u64, f64)>,
    /// Shift floor: the start of the last confirmed upward shift. New
    /// minima re-base only packets at or after it, and slides recompute
    /// `r̂` from those alone (§6.1, §6.2).
    floor: u64,
    /// Re-basing generation: incremented by every new-minimum event and
    /// every upward shift. Consumers caching baselines (the offset window
    /// cache) compare generations to know when to rebuild.
    rebase_gen: u64,
    next_idx: u64,
}

impl History {
    /// Creates a history holding at most `cap` packets (the top window).
    ///
    /// The ring starts empty and grows geometrically toward `cap` as
    /// records arrive (amortized O(1)), never past it: a poll-16 week is
    /// 37,800 slots, ~1.2 MB, and committing that up front (or doubling to
    /// 65,536) would make every clock's resident footprint the *configured*
    /// window instead of the *used* one, in a fleet of thousands — and a
    /// restore allocate for records its blob does not hold.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 4, "history window too small");
        Self {
            records: VecDeque::new(),
            cap,
            rtt_min_c: f64::INFINITY,
            runs: Vec::new(),
            floor: 0,
            rebase_gen: 0,
            next_idx: 0,
        }
    }

    /// Global index of the oldest retained record (`next_idx` when empty).
    #[inline]
    fn front_idx(&self) -> u64 {
        self.next_idx - self.records.len() as u64
    }

    /// Admits an exchange, assigning it the next global index, computing its
    /// RTT and updating `r̂`.
    ///
    /// Returns the new record's index and what happened to the window.
    pub fn push(&mut self, ex: RawExchange) -> (u64, PushOutcome) {
        let idx = self.next_idx;
        let rtt_c = ex.rtt_counts() as f64;
        // §6.1: "When the window reaches full size, the oldest half of the
        // data is discarded" — slide first, so the new record's baseline is
        // consistent with the recomputed r̂.
        let mut window_slid = false;
        if self.records.len() == self.cap {
            // Bulk expiry: one drain instead of cap/2 pop_front calls
            // (drain drops the elements in place and fixes the ring head
            // once — the per-record call overhead of the pop loop was the
            // slide's dominant cost).
            self.records.drain(..self.cap / 2);
            // §6.1: r̂ recomputed from the retained records at or after the
            // shift floor (left as it is when none is).
            let from = usize::try_from(self.floor.saturating_sub(self.front_idx()))
                .map_or(self.records.len(), |k| k.min(self.records.len()));
            let rtts = self.records.range(from..).map(|ex| ex.rtt_counts() as f64);
            let m = rtts.fold(f64::INFINITY, f64::min);
            if m.is_finite() {
                self.rtt_min_c = m;
            }
            self.drop_dead_runs();
            window_slid = true;
        }
        let new_minimum = rtt_c < self.rtt_min_c;
        if new_minimum {
            self.rtt_min_c = rtt_c;
            // §6.1 "Re-evaluation of Point Errors": when r̂ improves, "the
            // past point errors effectively change ... For the purposes of
            // future estimates the new point errors are used." Every run
            // at or after the floor above the new minimum takes it, and
            // equal neighbours merge (never across the floor).
            let from = self.runs.partition_point(|&(s, _)| s < self.floor);
            let mut kept = from;
            for k in from..self.runs.len() {
                let (start, b) = self.runs[k];
                let b = if b > rtt_c { rtt_c } else { b };
                if kept == from || self.runs[kept - 1].1 != b {
                    self.runs[kept] = (start, b);
                    kept += 1;
                }
            }
            self.runs.truncate(kept);
            self.rebase_gen = self.rebase_gen.wrapping_add(1);
        }
        // The ring never outgrows its window: once doubling would pass
        // `cap`, take exactly the room that is left.
        let room = self.records.capacity();
        if self.records.len() == room && 2 * room > self.cap {
            self.records.reserve_exact(self.cap - room);
        }
        self.records.push_back(ex);
        if idx == self.floor || self.runs.last().is_none_or(|&(_, b)| b != self.rtt_min_c) {
            self.runs.push((idx, self.rtt_min_c));
        }
        self.next_idx += 1;
        (idx, PushOutcome {
            window_slid,
            new_minimum,
        })
    }

    /// Applies a confirmed upward level shift: re-bases `r̂` to `new_min_c`
    /// and the baselines of every packet from `shift_start_idx` on, so
    /// their point errors are "relative to current error level (after any
    /// shifts)" (§6.2), and makes `shift_start_idx` the floor.
    ///
    /// Shift starts must be non-decreasing across calls (the shift
    /// detector guarantees this: its window is cleared after each
    /// confirmation), and cannot pass the next packet to be admitted.
    pub fn apply_upward_shift(&mut self, new_min_c: f64, shift_start_idx: u64) {
        debug_assert!(
            (self.floor..=self.next_idx).contains(&shift_start_idx),
            "shift starts must be non-decreasing and admitted"
        );
        self.rtt_min_c = new_min_c;
        let keep = self.runs.partition_point(|&(s, _)| s < shift_start_idx);
        self.runs.truncate(keep);
        // A shift at the next packet re-bases no retained one: that
        // packet opens its run at the floor when it arrives.
        if shift_start_idx < self.next_idx {
            self.runs.push((shift_start_idx, new_min_c));
            self.drop_dead_runs();
        }
        self.floor = shift_start_idx;
        self.rebase_gen = self.rebase_gen.wrapping_add(1);
    }

    /// Drops the runs that end at or before the oldest retained record.
    fn drop_dead_runs(&mut self) {
        let front_idx = self.front_idx();
        let dead = self.runs.iter().skip(1).take_while(|&&(s, _)| s <= front_idx).count();
        self.runs.drain(..dead);
    }

    /// Position in the run table of the run covering retained index `idx`:
    /// searched from the newest run, where reads cluster.
    #[inline]
    fn run_of(&self, idx: u64) -> usize {
        self.runs.iter().rposition(|&(s, _)| s <= idx).unwrap_or(0)
    }

    /// Current RTT minimum `r̂` in counts (`∞` before the first packet).
    pub fn rtt_min_c(&self) -> f64 {
        self.rtt_min_c
    }

    /// Re-basing generation (bumped by min-events and upward shifts).
    pub(crate) fn rebase_gen(&self) -> u64 {
        self.rebase_gen
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no packets have been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total packets ever admitted.
    pub fn total_admitted(&self) -> u64 {
        self.next_idx
    }

    /// The most recent record, O(1): it lies in the last run.
    pub fn last(&self) -> Option<PacketRecord> {
        let &ex = self.records.back()?;
        Some(PacketRecord {
            idx: self.next_idx - 1,
            ex,
            rbase_c: self.runs.last()?.1,
        })
    }

    /// The record with global index `idx`, if still retained. The offset
    /// is computed in `u64` and checked-converted, so one beyond `usize`
    /// (on 32-bit targets) is a clean `None`, never an aliased lookup.
    pub fn get(&self, idx: u64) -> Option<PacketRecord> {
        let pos = usize::try_from(idx.checked_sub(self.front_idx())?).ok()?;
        let &ex = self.records.get(pos)?;
        Some(PacketRecord {
            idx,
            ex,
            rbase_c: self.runs[self.run_of(idx)].1,
        })
    }

    /// Iterates over the most recent `n` records, oldest first.
    pub fn last_n(&self, n: usize) -> impl Iterator<Item = PacketRecord> + '_ {
        let len = self.records.len();
        self.range(len.saturating_sub(n), len)
    }

    /// Iterates over all retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        self.last_n(self.len())
    }

    /// The earliest retained record, if any.
    pub fn first(&self) -> Option<PacketRecord> {
        self.iter().next()
    }

    /// The records at positions `start..end` (oldest = 0), oldest first:
    /// the ring walked beside a cursor over the run table.
    #[inline]
    pub(crate) fn range(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = PacketRecord> + '_ {
        let first = self.front_idx() + start as u64;
        let mut run = self.run_of(first);
        let next_start = |run: usize| self.runs.get(run + 1).map_or(u64::MAX, |r| r.0);
        let mut rbase_c = self.runs.get(run).map_or(f64::NAN, |r| r.1);
        let mut next = next_start(run);
        self.records.range(start..end).zip(first..).map(move |(&ex, idx)| {
            // Every run covers at least one record, so a step of one
            // record crosses at most one run boundary.
            if idx >= next {
                run += 1;
                rbase_c = self.runs[run].1;
                next = next_start(run);
            }
            PacketRecord { idx, ex, rbase_c }
        })
    }

    /// Serializes the complete history — `r̂`, the retained exchanges and
    /// the run table — into a snapshot payload. Record indices are implied
    /// by `next_idx` and the count, and the window capacity is the
    /// configuration's. The re-basing generation is an in-memory change
    /// token: a restore starts it at 0 and its consumers re-read against
    /// that.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.rtt_min_c);
        w.put_u64(self.next_idx);
        w.put_u64(self.floor);
        w.put_usize(self.records.len());
        for ex in &self.records {
            w.put_array(&exchange_to_wire(ex));
        }
        w.put_usize(self.runs.len());
        for &(start, b) in &self.runs {
            w.put_u64(start);
            w.put_f64(b);
        }
    }

    /// Overwrites this history with one written by [`History::save_state`];
    /// `self` comes from [`History::new`] with the configuration's window.
    /// Re-checks what the rest of the pipeline relies on: record count
    /// within the window and `next_idx` (the implicit index must not
    /// underflow), every record admissible, an `r̂` that is a count (`∞`
    /// only while empty), and a run table whose runs cover every record
    /// with positive baselines, start below `next_idx` and leave the floor
    /// (itself at most `next_idx`) on a run boundary.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        use SnapshotError as E;
        let rtt_min_c = r.get_f64()?;
        let next_idx = r.get_count()?;
        let floor = r.get_u64()?;
        if floor > next_idx {
            return Err(E::Invalid("shift floor beyond the newest packet"));
        }
        let n_rec = r.get_len(EXCHANGE_WIRE_BYTES)?;
        if n_rec > self.cap {
            return Err(E::Invalid("history holds more records than its window"));
        }
        if rtt_min_c.is_nan() || (n_rec > 0 && !rtt_min_c.is_finite()) {
            return Err(E::Invalid("rtt minimum not a count"));
        }
        let front_idx = next_idx
            .checked_sub(n_rec as u64)
            .ok_or(E::Invalid("history holds more records than were admitted"))?;
        let records: VecDeque<_> = r.take_arrays(n_rec)?.iter().map(exchange_from_wire).collect();
        if !records.iter().fold(true, |ok, ex| ok & admissible(ex)) {
            return Err(INADMISSIBLE);
        }
        let n_runs = r.get_len(16)?;
        let mut runs = Vec::<(u64, f64)>::with_capacity(n_runs);
        for _ in 0..n_runs {
            let (start, b) = (r.get_u64()?, r.get_f64()?);
            if start >= next_idx {
                return Err(E::Invalid("baseline run beyond the newest packet"));
            } else if runs.last().is_some_and(|&(s, _)| s >= start) {
                return Err(E::Invalid("baseline runs not increasing"));
            } else if !(b.is_finite() && b > 0.0) {
                return Err(E::Invalid("baseline not a positive count"));
            }
            runs.push((start, b));
        }
        match runs.first() {
            None if n_rec > 0 => return Err(E::Invalid("history records without a baseline run")),
            Some(&(s, _)) if s > front_idx => {
                return Err(E::Invalid("first baseline run starts after the oldest record"))
            }
            _ => {}
        }
        let ends = runs.iter().skip(1).map(|&(s, _)| s).chain([next_idx]);
        if runs.iter().zip(ends).any(|(&(s, _), end)| s < floor && floor < end) {
            return Err(E::Invalid("shift floor inside a baseline run"));
        }
        *self = Self {
            records,
            cap: self.cap,
            rtt_min_c,
            runs,
            floor,
            rebase_gen: 0,
            next_idx,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefHistory;

    fn ex(ta: u64, rtt: u64) -> RawExchange {
        RawExchange {
            ta_tsc: ta,
            tb: ta as f64 * 1e-9 + 0.0005,
            te: ta as f64 * 1e-9 + 0.00052,
            tf_tsc: ta + rtt,
        }
    }

    #[test]
    fn running_minimum_tracks_smallest_rtt() {
        let mut h = History::new(100);
        h.push(ex(0, 900_000));
        assert_eq!(h.rtt_min_c(), 900_000.0);
        h.push(ex(1_000_000_000, 1_200_000));
        assert_eq!(h.rtt_min_c(), 900_000.0);
        let (_, out) = h.push(ex(2_000_000_000, 850_000));
        assert!(out.new_minimum);
        assert_eq!(h.rtt_min_c(), 850_000.0);
    }

    #[test]
    fn point_errors_reevaluated_when_minimum_improves() {
        // §6.1: a better r̂ re-bases the point errors since the floor —
        // otherwise an unlucky congested first packet would carry a spurious
        // zero error forever (the lock-out the paper warns against).
        let mut h = History::new(100);
        h.push(ex(0, 1_000_000));
        h.push(ex(1_000_000_000, 1_100_000));
        h.push(ex(2_000_000_000, 900_000));
        let p = 1e-9;
        let recs: Vec<_> = h.iter().collect();
        assert!((recs[0].point_error(p) - 100e-6).abs() < 1e-12);
        assert!((recs[1].point_error(p) - 200e-6).abs() < 1e-12);
        assert_eq!(recs[2].point_error(p), 0.0);
    }

    #[test]
    fn window_slides_at_capacity_and_discards_half() {
        let mut h = History::new(10);
        for k in 0..10u64 {
            let (_, out) = h.push(ex(k * 1_000_000_000, 1_000_000 + k));
            assert!(!out.window_slid);
        }
        assert_eq!(h.len(), 10);
        let (_, out) = h.push(ex(10_000_000_000, 1_000_500));
        assert!(out.window_slid);
        assert_eq!(h.len(), 6); // 10 − 5 dropped + 1 new
        assert_eq!(h.first().unwrap().idx, 5);
    }

    #[test]
    fn slide_recomputes_minimum_from_retained_half() {
        let mut h = History::new(10);
        // minimum lives in the half that will be discarded
        h.push(ex(0, 500_000));
        for k in 1..10u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000 + k));
        }
        assert_eq!(h.rtt_min_c(), 500_000.0);
        h.push(ex(10_000_000_000, 1_000_500));
        // old minimum forgotten; new minimum from retained records
        assert_eq!(h.rtt_min_c(), 1_000_005.0);
    }

    #[test]
    fn upward_shift_rebases_postshift_records() {
        let mut h = History::new(100);
        for k in 0..10u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000));
        }
        // route change: RTT jumps to 1.9M counts for packets 10..
        for k in 10..20u64 {
            h.push(ex(k * 1_000_000_000, 1_900_000));
        }
        let p = 1e-9;
        // before confirmation, post-shift packets look like 0.9 ms congestion
        assert!((h.get(15).unwrap().point_error(p) - 900e-6).abs() < 1e-9);
        h.apply_upward_shift(1_900_000.0, 10);
        assert_eq!(h.rtt_min_c(), 1_900_000.0);
        assert_eq!(h.get(15).unwrap().point_error(p), 0.0);
        // pre-shift packets keep their original baseline
        assert_eq!(h.get(5).unwrap().point_error(p), 0.0);
    }

    #[test]
    fn shift_floor_respected_on_slide() {
        let mut h = History::new(10);
        for k in 0..5u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000));
        }
        for k in 5..10u64 {
            h.push(ex(k * 1_000_000_000, 1_900_000));
        }
        h.apply_upward_shift(1_900_000.0, 5);
        // slide: drops packets 0..5; min recomputed over idx ≥ 5
        h.push(ex(10_000_000_000, 1_950_000));
        assert_eq!(h.rtt_min_c(), 1_900_000.0);
    }

    #[test]
    fn minimum_after_shift_rebases_new_era_records() {
        // A new minimum after a confirmed shift must lower the baselines of
        // reassigned (pre-shift-confirmation) records too, but leave
        // pre-shift-point packets frozen.
        let mut h = History::new(100);
        for k in 0..5u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000));
        }
        for k in 5..10u64 {
            h.push(ex(k * 1_000_000_000, 1_900_000));
        }
        h.apply_upward_shift(1_900_000.0, 5);
        // better post-shift minimum arrives
        let (_, out) = h.push(ex(10_000_000_000, 1_850_000));
        assert!(out.new_minimum);
        let p = 1e-9;
        // reassigned record 7: baseline 1.9M → 1.85M
        assert!((h.get(7).unwrap().point_error(p) - 50e-6).abs() < 1e-12);
        // pre-shift record 3 keeps its frozen baseline (1.0M)
        assert_eq!(h.get(3).unwrap().point_error(p), 0.0);
    }

    #[test]
    fn ring_never_outgrows_its_window() {
        // 600 is not a power of two: plain doubling would end on 1024.
        let cap = 600;
        let mut h = History::new(cap);
        let mut full = None;
        for k in 0..2 * cap as u64 + 7 {
            let (_, out) = h.push(ex(k * 1_000_000_000, 1_000_000 + k % 5));
            if out.window_slid {
                let room = *full.get_or_insert(h.records.capacity());
                assert_eq!(h.records.capacity(), room, "slide at {k} reallocated");
            }
        }
        let room = h.records.capacity();
        assert!(
            (cap..cap + cap / 8).contains(&room),
            "capacity {room} for a window of {cap}"
        );
    }

    #[test]
    fn get_and_last_n() {
        let mut h = History::new(8);
        for k in 0..6u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000));
        }
        assert_eq!(h.get(3).unwrap().idx, 3);
        assert!(h.get(99).is_none());
        let last3: Vec<u64> = h.last_n(3).map(|r| r.idx).collect();
        assert_eq!(last3, vec![3, 4, 5]);
        let all: Vec<u64> = h.last_n(100).map(|r| r.idx).collect();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn get_is_panic_proof_for_huge_indices() {
        // Regression: the offset `idx - front` is computed in u64 and
        // checked-converted to usize, so an index far beyond the window —
        // past usize::MAX on 32-bit targets — returns None instead of
        // panicking or aliasing into the deque after truncation.
        let mut h = History::new(8);
        for k in 0..6u64 {
            h.push(ex(k * 1_000_000_000, 1_000_000));
        }
        assert!(h.get(u64::MAX).is_none());
        assert!(h.get(6 + (1u64 << 40)).is_none());
        // a 32-bit-truncation alias of a valid offset must also be None:
        // offset = 2^32 + 3 would alias record 3 if cast with `as usize`
        assert!(h.get((1u64 << 32) + 3).is_none());
    }

    #[test]
    fn empty_history_state() {
        let h = History::new(10);
        assert!(h.is_empty());
        assert!(h.last().is_none());
        assert!(h.rtt_min_c().is_infinite());
        assert_eq!(h.total_admitted(), 0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_capacity_rejected() {
        History::new(3);
    }

    #[test]
    fn run_table_stays_bounded_across_shifts_and_slides() {
        // Memory must stay O(window): runs that end before the front are
        // dropped on slides and shifts, so the table holds the three
        // slide runs plus one per shift start inside the window.
        let mut h = History::new(16);
        let mut idx = 0u64;
        for round in 0..200u64 {
            let level = 1_000_000 + round * 10_000;
            for _ in 0..10 {
                h.push(ex(idx * 1_000_000_000, level + idx % 3));
                idx += 1;
            }
            h.apply_upward_shift(level as f64, idx.saturating_sub(5));
        }
        // the window spans 16 packets: shift starts are 10 apart
        assert!(h.runs.len() <= 3 + 2, "run table must be pruned, len {}", h.runs.len());
        for r in h.iter() {
            assert!(r.rbase_c.is_finite() && r.rbase_c <= r.rtt_c());
        }
    }

    /// Checks `h` against the eagerly re-based reference: `r̂` and every
    /// retained record's baseline bit-equal through every view, and the
    /// run table inside the bound of the module docs (`starts`: every
    /// shift start so far).
    fn assert_matches_reference(h: &History, r: &RefHistory, starts: &[u64], at: &str) {
        assert_eq!(h.rtt_min_c().to_bits(), r.rtt_min_c().to_bits(), "r̂ {at}");
        assert_eq!((h.len(), h.total_admitted()), (r.len(), r.total_admitted()), "{at}");
        let want: Vec<_> = r.iter().map(|x| (x.idx, x.ex, x.rbase_c.to_bits())).collect();
        let got = |x: PacketRecord| (x.idx, x.ex, x.rbase_c.to_bits());
        assert_eq!(h.iter().map(got).collect::<Vec<_>>(), want, "iter {at}");
        for &(idx, _, _) in &want {
            assert_eq!(h.get(idx).map(got), want.iter().find(|w| w.0 == idx).copied());
        }
        assert_eq!(h.last().map(got), want.last().copied(), "last {at}");
        let front = h.front_idx();
        let mut inside: Vec<u64> = starts.iter().copied().filter(|&s| s > front).collect();
        inside.sort_unstable();
        inside.dedup();
        assert!(
            h.runs.len() <= 3 + inside.len(),
            "{} runs, {} shift starts inside the window {at}",
            h.runs.len(),
            inside.len()
        );
        let starts_ok = h.runs.iter().zip(h.runs.iter().skip(1)).all(|(a, b)| a.0 < b.0);
        let covered = h.runs.first().is_none_or(|&(s, _)| s <= front);
        assert!(starts_ok && covered && h.runs.last().is_none_or(|&(s, _)| s < h.next_idx));
        // A restore reads back the live records and run table.
        let mut w = SnapshotWriter::new();
        h.save_state(&mut w);
        let blob = w.seal(0);
        let mut back = History::new(h.cap);
        let payload = crate::snapshot::open_envelope(&blob, 0).expect("own envelope");
        back.load_state(&mut SnapshotReader::new(payload)).expect("own state restores");
        assert_eq!((&back.runs, &back.records), (&h.runs, &h.records), "{at}");
    }

    proptest::proptest! {
        /// The run table is the reference's eager sweep: random RTTs,
        /// descending-minimum stretches, slides, and upward shifts at a
        /// detector-like level, the level in force or an arbitrary one,
        /// starting inside the window, before the front (a start the
        /// last slide discarded) or at the next packet.
        #[test]
        fn runs_match_the_eager_reference(
            cap in 8usize..64,
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::for_case("runs_match_the_eager_reference", seed);
            let (mut h, mut r) = (History::new(cap), RefHistory::new(cap));
            let (mut starts, mut rtts) = (Vec::new(), Vec::new());
            let mut descending = 0u64;
            for k in 0..8 * cap as u64 {
                let roll = rng.below(100);
                if roll < 4 && k > 0 {
                    let (floor, front, next) = (h.floor, h.front_idx(), h.total_admitted());
                    let start = match rng.below(3) {
                        0 => {
                            let lo = floor.max(front);
                            lo + rng.below(next + 1 - lo)
                        }
                        1 if floor < front => floor + rng.below(front - floor),
                        _ => next,
                    };
                    let from = rtts.get(start as usize..).unwrap_or(&[]);
                    let level = from.iter().copied().fold(f64::INFINITY, f64::min);
                    // the level in force too, so a shift at the next
                    // packet can leave the last run's baseline unchanged
                    let new_min = match rng.below(3) {
                        0 if level.is_finite() => level,
                        1 => r.rtt_min_c(),
                        _ => r.rtt_min_c() + rng.below(2_000_000) as f64,
                    };
                    h.apply_upward_shift(new_min, start);
                    r.apply_upward_shift(new_min, start);
                    starts.push(start);
                    assert_matches_reference(&h, &r, &starts, &format!("after shift {k}"));
                }
                if descending == 0 && roll >= 90 {
                    descending = 1 + rng.below(12);
                }
                let rtt = if descending > 0 {
                    descending -= 1;
                    (r.rtt_min_c().min(4_000_000.0) as u64).saturating_sub(1 + rng.below(3)).max(1)
                } else {
                    1_000_000 + rng.below(3_000_000)
                };
                rtts.push(rtt as f64);
                let e = ex(k * 1_000_000_000, rtt);
                proptest::prop_assert_eq!(h.push(e), r.push(e));
                assert_matches_reference(&h, &r, &starts, &format!("after push {k}"));
            }
        }
    }

    #[test]
    fn descending_minima_stream_matches_the_eager_reference() {
        // `history_push/descending_minima` of the leaf benches, at small
        // windows: every 16th packet a new minimum, slides throughout.
        for cap in [8, 13, 37, 63] {
            let (mut h, mut r) = (History::new(cap), RefHistory::new(cap));
            for i in 0..8 * cap as u64 {
                let base = 2_000_000u64.saturating_sub(i * 4);
                let rtt = base + if i % 16 == 0 { 0 } else { 500_000 };
                let e = ex(i * 16_000_000_000, rtt);
                assert_eq!(h.push(e), r.push(e));
                assert_matches_reference(&h, &r, &[], &format!("cap {cap}, packet {i}"));
            }
        }
    }
}
