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
//! Every operation is **O(1) amortized per packet** and memory is
//! **O(window)** (one record per retained packet plus three tiny side
//! structures). The seed implementation was O(window) per packet in two
//! places, both eliminated here:
//!
//! * **Window slides** used to rescan the retained half to recompute `r̂`.
//!   A monotonic min-deque (`mono`) now tracks candidate minima as records
//!   are pushed; sliding trims expired candidates from its front and reads
//!   the new `r̂` in O(1). Each record enters and leaves the deque at most
//!   once, so maintenance is O(1) amortized.
//! * **Point-error re-evaluation** (§6.1: when `r̂` improves, "the past
//!   point errors effectively change ... For the purposes of future
//!   estimates the new point errors are used") used to sweep every retained
//!   record and overwrite its stored baseline. Records are now immutable
//!   after admission; the effective baseline is resolved lazily from an
//!   **era/baseline table** (see below).
//!
//! # The era/baseline design
//!
//! Each record stores the baseline in force at admission (`rbase_c`), the
//! id of the *era* it was admitted into (`era`), and the number of
//! new-minimum events its era had seen at that moment (`epoch`).
//!
//! * An **era** is the span between confirmed upward level shifts (§6.2).
//!   [`History::apply_upward_shift`] just appends an era with
//!   `{start_idx, base}` — O(1), no sweep. A record admitted in an older
//!   era but with `idx ≥ start_idx` is *reassigned*: its effective era is
//!   the newest era whose `start_idx` does not exceed its index (found by
//!   binary search over the — tiny — era table), and its baseline restarts
//!   from that era's `base`, exactly as the eager re-basing sweep would
//!   have overwritten it.
//! * Within an era, every new RTT minimum appends a **min-event** to the
//!   era's suffix-minimum table: a monotonic stack of `(seq, value)` pairs
//!   such that the minimum of all events from sequence number `p` onward
//!   can be read with one binary search. The effective baseline of a
//!   record is then `min(initial baseline, suffix-min of events since its
//!   epoch)` — precisely the value the eager sweep (`rbase_c = min(rbase_c,
//!   m)` for each event `m` with `idx ≥ floor`) would have left in place.
//!
//! Resolution has an O(1) fast path (no shift and no new minimum since the
//! record was admitted — the overwhelmingly common case) and an
//! O(log #events + log #eras) slow path; both tables are bounded by the
//! number of *distinct retained minima* and *confirmed route changes*, a
//! handful each in practice.
//!
//! Public accessors ([`History::get`], [`History::last`], [`History::iter`],
//! …) return records *by value with the baseline already resolved*, so
//! `PacketRecord::point_error` on a returned record behaves exactly as it
//! did when baselines were updated in place. Crate-internal hot paths use
//! the raw record views plus `History::baseline_view` to skip the copy.

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
    /// the time" (§6.2). In the crate-internal raw views this is the
    /// baseline *at admission*; records returned by the public accessors
    /// carry the current effective baseline (resolved through the
    /// era/min-event tables, see the module docs).
    pub rbase_c: f64,
    /// Era id at admission (incremented by confirmed upward shifts).
    pub era: u32,
    /// Number of min-events the era had seen when this record was admitted.
    pub epoch: u32,
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

    /// Serializes the record's slot — everything but `idx`, see
    /// [`Slot::WIRE_BYTES`] — into a snapshot payload with one append.
    fn save_slot(&self, w: &mut SnapshotWriter) {
        let words = [
            self.ex.ta_tsc,
            self.ex.tb.to_bits(),
            self.ex.te.to_bits(),
            self.ex.tf_tsc,
            self.rbase_c.to_bits(),
            u64::from(self.era) | u64::from(self.epoch) << 32,
        ];
        let mut bytes = [0u8; Slot::WIRE_BYTES];
        for (dst, word) in bytes.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        w.put_array(&bytes);
    }

    /// Serializes records held outside the ring (the rate estimator's
    /// copies) as a counted list, each the slot's six words, then its index.
    pub(crate) fn save_all(records: &[Self], w: &mut SnapshotWriter) {
        w.put_usize(records.len());
        for rec in records {
            rec.save_slot(w);
            w.put_u64(rec.idx);
        }
    }

    /// Deserializes a list written by [`PacketRecord::save_all`], refusing
    /// one longer than `max`.
    pub(crate) fn load_all(
        r: &mut SnapshotReader<'_>,
        max: usize,
    ) -> Result<Vec<Self>, SnapshotError> {
        let n = r.get_len(8 + Slot::WIRE_BYTES)?;
        if n > max {
            return Err(SnapshotError::Invalid("more stored records than their holder admits"));
        }
        (0..n).map(|_| Ok(Slot::from_wire(r.take_array()?).at(r.get_u64()?))).collect()
    }
}

/// What the ring stores per packet. The global index is the slot's
/// position (see [`History::front_idx`]); the rest is derived on read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    ex: RawExchange,
    rbase_c: f64,
    era: u32,
    epoch: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 48);

impl Slot {
    /// The slot on the wire is its fields in struct order as six
    /// little-endian words, floats as raw bits, `era` and `epoch` sharing
    /// one (low half first, so the bytes are two little-endian `u32`s in
    /// that order). Part of the snapshot format.
    pub(crate) const WIRE_BYTES: usize = 48;

    /// The record view at global index `idx`; unread fields cost nothing.
    #[inline(always)]
    fn at(&self, idx: u64) -> PacketRecord {
        PacketRecord {
            idx,
            ex: self.ex,
            rbase_c: self.rbase_c,
            era: self.era,
            epoch: self.epoch,
        }
    }

    /// Decodes a slot written by [`PacketRecord::save_slot`].
    fn from_wire(bytes: &[u8; Self::WIRE_BYTES]) -> Self {
        let [ta_tsc, tb, te, tf_tsc, rbase_c, era_epoch]: [u64; 6] = std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        });
        Self {
            ex: RawExchange {
                ta_tsc,
                tb: f64::from_bits(tb),
                te: f64::from_bits(te),
                tf_tsc,
            },
            rbase_c: f64::from_bits(rbase_c),
            era: era_epoch as u32,
            epoch: (era_epoch >> 32) as u32,
        }
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

/// One era (the span since a confirmed upward shift), with its suffix-min
/// table of new-minimum events.
#[derive(Debug, Clone)]
struct Era {
    /// First packet index belonging to this era.
    start_idx: u64,
    /// Baseline records reassigned into this era restart from (the
    /// confirmed post-shift minimum; `∞` for the initial era).
    base: f64,
    /// Monotonic suffix-minimum stack: `(seq, v)` means the minimum of all
    /// min-events from sequence number `seq` onward is `v`. Sequence
    /// numbers and values are both strictly increasing across entries.
    events: Vec<(u32, f64)>,
    /// Sequence number the next min-event will get.
    next_seq: u32,
}

impl Era {
    fn new(start_idx: u64, base: f64) -> Self {
        Self {
            start_idx,
            base,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// Appends a new-minimum event with value `m`.
    fn record_event(&mut self, m: f64) {
        let mut start = self.next_seq;
        self.next_seq += 1;
        // Suffix minima from positions whose current minimum is ≥ m all
        // become m; merge them into one entry keeping the earliest seq.
        while let Some(&(s, v)) = self.events.last() {
            if v >= m {
                start = s;
                self.events.pop();
            } else {
                break;
            }
        }
        self.events.push((start, m));
    }

    /// Minimum of all events with sequence number ≥ `epoch` (`∞` if none).
    fn suffix_min(&self, epoch: u32) -> f64 {
        if epoch >= self.next_seq {
            return f64::INFINITY;
        }
        // Last entry with seq ≤ epoch. The table is tiny and queries skew
        // heavily toward recent epochs, so a reverse linear scan beats a
        // binary search here.
        for &(s, v) in self.events.iter().rev() {
            if s <= epoch {
                return v;
            }
        }
        debug_assert!(false, "suffix-min table must cover seq 0");
        f64::INFINITY
    }
}

/// Bounded packet history with RTT-minimum maintenance.
#[derive(Debug, Clone)]
pub struct History {
    /// Retained packets, oldest first: position `k` is index `front_idx() + k`.
    records: VecDeque<Slot>,
    /// Top-level window capacity in packets (T / poll period).
    cap: usize,
    /// Current `r̂` in counts.
    rtt_min_c: f64,
    /// Monotonic min-deque of `(idx, rtt_c)` candidates over the retained
    /// records at or after the shift floor; its front is always the minimum
    /// RTT a slide-time recomputation would find.
    mono: VecDeque<(u64, f64)>,
    /// Era table (never empty; eras have non-decreasing `start_idx`).
    /// Slides prune eras no retained record can resolve to, so the table is
    /// bounded by the number of shift points inside the current window.
    eras: Vec<Era>,
    /// Absolute era id of `eras[0]` (pruned prefix offset).
    era_base: u32,
    /// Re-basing generation: incremented by every new-minimum event and
    /// every upward shift. Consumers caching resolved baselines (the offset
    /// window cache) compare generations to know when to rebuild.
    rebase_gen: u64,
    next_idx: u64,
}

impl History {
    /// Creates a history holding at most `cap` packets (the top window).
    ///
    /// The ring starts small and grows geometrically toward `cap` as
    /// records arrive (amortized O(1)), never past it: a poll-16 week is
    /// 37,800 slots, ~1.8 MB, and committing that up front (or doubling to
    /// 65,536) would make every clock's resident footprint the *configured*
    /// window instead of the *used* one, in a fleet of thousands.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 4, "history window too small");
        Self {
            records: VecDeque::with_capacity(cap.min(256)),
            cap,
            rtt_min_c: f64::INFINITY,
            mono: VecDeque::new(),
            eras: vec![Era::new(0, f64::INFINITY)],
            era_base: 0,
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
            let front_idx = self.front_idx();
            let front = *self.records.front().expect("half retained");
            while matches!(self.mono.front(), Some(&(i, _)) if i < front_idx) {
                self.mono.pop_front();
            }
            // §6.1: r̂ recomputed from the retained records at or after the
            // shift floor — exactly the front of the min-deque (entries
            // below the floor were trimmed when the shift was applied).
            if let Some(&(_, m)) = self.mono.front() {
                self.rtt_min_c = m;
            }
            // Keep memory O(window): drop eras no retained record can
            // resolve to (every retained idx is ≥ the next era's start, so
            // resolution never reaches the dropped one), and fold
            // suffix-min entries no retained record's epoch can query.
            // Both prunes are batched drains (the old remove(0) loops
            // re-shifted the tail once per pruned entry).
            let dead_eras = self.eras[1..]
                .iter()
                .take_while(|e| e.start_idx <= front_idx)
                .count();
            if dead_eras > 0 {
                self.eras.drain(..dead_eras);
                self.era_base += dead_eras as u32;
            }
            if front.era == self.current_era_id() {
                // All retained records resolve into the current era with
                // epochs ≥ the oldest record's, so earlier step entries of
                // the suffix-min table are unreachable.
                let cur = self.current_era_mut();
                if !cur.events.is_empty() {
                    let dead = cur.events[1..]
                        .iter()
                        .take_while(|&&(seq, _)| seq <= front.epoch)
                        .count();
                    cur.events.drain(..dead);
                }
            }
            window_slid = true;
        }
        let new_minimum = rtt_c < self.rtt_min_c;
        if new_minimum {
            self.rtt_min_c = rtt_c;
            // §6.1 "Re-evaluation of Point Errors": when r̂ improves, "the
            // past point errors effectively change ... For the purposes of
            // future estimates the new point errors are used." Recorded as
            // a min-event; resolution applies it to every record of the
            // current era lazily.
            self.current_era_mut().record_event(rtt_c);
            self.rebase_gen += 1;
        }
        while matches!(self.mono.back(), Some(&(_, v)) if v >= rtt_c) {
            self.mono.pop_back();
        }
        self.mono.push_back((idx, rtt_c));
        // The ring never outgrows its window: once doubling would pass
        // `cap`, take exactly the room that is left.
        let room = self.records.capacity();
        if self.records.len() == room && 2 * room > self.cap {
            self.records.reserve_exact(self.cap - room);
        }
        self.records.push_back(Slot {
            ex,
            rbase_c: self.rtt_min_c,
            era: self.current_era_id(),
            epoch: self.current_era().next_seq,
        });
        self.next_idx += 1;
        (idx, PushOutcome {
            window_slid,
            new_minimum,
        })
    }

    /// Applies a confirmed upward level shift: re-bases `r̂` to `new_min_c`
    /// and (lazily) the baselines of every packet from `shift_start_idx`
    /// on, so their point errors are "relative to current error level
    /// (after any shifts)" (§6.2). O(1): appends an era.
    ///
    /// Shift start indices must be non-decreasing across calls (the shift
    /// detector guarantees this: its window is cleared after each
    /// confirmation).
    pub fn apply_upward_shift(&mut self, new_min_c: f64, shift_start_idx: u64) {
        debug_assert!(
            shift_start_idx >= self.current_era().start_idx,
            "shift starts must be non-decreasing"
        );
        self.rtt_min_c = new_min_c;
        // Future r̂ recomputations only use packets at or after the shift
        // point (§6.1): drop older candidates now, in O(dropped).
        while matches!(self.mono.front(), Some(&(i, _)) if i < shift_start_idx) {
            self.mono.pop_front();
        }
        self.eras.push(Era::new(shift_start_idx, new_min_c));
        self.rebase_gen += 1;
    }

    fn current_era(&self) -> &Era {
        self.eras.last().expect("era table never empty")
    }

    /// Absolute id of the current era (stable across prefix pruning).
    fn current_era_id(&self) -> u32 {
        self.era_base + (self.eras.len() - 1) as u32
    }

    fn current_era_mut(&mut self) -> &mut Era {
        self.eras.last_mut().expect("era table never empty")
    }

    /// Effective baseline of a raw record under the era/min-event tables —
    /// the value the eager re-basing sweeps would have left in `rbase_c`.
    /// Takes the four words it reads, so a caller never spills a record.
    #[inline]
    fn resolve(&self, idx: u64, rbase_c: f64, era: u32, epoch: u32) -> f64 {
        if era == self.current_era_id() {
            // Same era: apply min-events recorded since admission, if any.
            rbase_c.min(self.current_era().suffix_min(epoch))
        } else {
            self.resolve_reassigned(idx, rbase_c, era, epoch)
        }
    }

    /// Slow path: the record was admitted in an older era; find its
    /// effective era by start index and re-derive its baseline.
    #[cold]
    fn resolve_reassigned(&self, idx: u64, rbase_c: f64, era: u32, epoch: u32) -> f64 {
        let eff = self.eras.partition_point(|e| e.start_idx <= idx) - 1;
        let eff_era = &self.eras[eff];
        if self.era_base + eff as u32 == era {
            // Still its own era: events since admission apply.
            rbase_c.min(eff_era.suffix_min(epoch))
        } else {
            // Reassigned by an upward shift: baseline restarts from the
            // era's base, then every min-event of that era applies.
            eff_era.base.min(eff_era.suffix_min(0))
        }
    }

    /// A loop-hoistable view of the resolution state: hot paths check the
    /// two-compare fast path against pre-loaded era/epoch values instead of
    /// chasing the era table per record.
    #[inline]
    pub(crate) fn baseline_view(&self) -> BaselineView<'_> {
        BaselineView {
            history: self,
            current_era: self.current_era_id(),
            next_seq: self.current_era().next_seq,
        }
    }

    /// The raw record `r` with its baseline resolved to the current value.
    #[inline]
    fn resolved(&self, r: PacketRecord) -> PacketRecord {
        PacketRecord {
            rbase_c: self.resolve(r.idx, r.rbase_c, r.era, r.epoch),
            ..r
        }
    }

    /// Current RTT minimum `r̂` in counts (`∞` before the first packet).
    pub fn rtt_min_c(&self) -> f64 {
        self.rtt_min_c
    }

    /// Re-basing generation (bumped by min-events and upward shifts).
    pub(crate) fn rebase_gen(&self) -> u64 {
        self.rebase_gen
    }

    /// Raw (unresolved) record by global index, O(1). The offset is
    /// computed in `u64` and checked-converted, so one beyond `usize` (on
    /// 32-bit targets) is a clean `None`, never an aliased lookup.
    #[inline]
    pub(crate) fn get_raw(&self, idx: u64) -> Option<PacketRecord> {
        let pos = usize::try_from(idx.checked_sub(self.front_idx())?).ok()?;
        Some(self.records.get(pos)?.at(idx))
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

    /// The most recent record (baseline resolved).
    pub fn last(&self) -> Option<PacketRecord> {
        self.get(self.next_idx.checked_sub(1)?)
    }

    /// The record with global index `idx`, if still retained (baseline
    /// resolved).
    pub fn get(&self, idx: u64) -> Option<PacketRecord> {
        self.get_raw(idx).map(|r| self.resolved(r))
    }

    /// Iterates over the most recent `n` records, oldest first (baselines
    /// resolved).
    pub fn last_n(&self, n: usize) -> impl Iterator<Item = PacketRecord> + '_ {
        self.tail_raw(n).map(|r| self.resolved(r))
    }

    /// Iterates over all retained records, oldest first (baselines
    /// resolved).
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        self.last_n(self.len())
    }

    /// The earliest retained record, if any (baseline resolved).
    pub fn first(&self) -> Option<PacketRecord> {
        self.iter().next()
    }

    /// Raw (unresolved) view of the most recent `n` records, oldest first —
    /// for crate-internal hot loops that resolve baselines themselves via
    /// [`History::baseline_view`].
    #[inline]
    pub(crate) fn tail_raw(&self, n: usize) -> impl Iterator<Item = PacketRecord> + '_ {
        let len = self.records.len();
        self.range_raw(len.saturating_sub(n), len)
    }

    /// Raw (unresolved) view of positions `start..end` (oldest = 0).
    #[inline]
    pub(crate) fn range_raw(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = PacketRecord> + '_ {
        let first = self.front_idx() + start as u64;
        self.records
            .range(start..end)
            .zip(first..)
            .map(|(slot, idx)| slot.at(idx))
    }

    /// Serializes the complete history — retained slots with their raw
    /// admission-time baselines, the monotonic min-deque, and the full
    /// era/min-event tables — into a snapshot payload. Slots are stored
    /// *unresolved* so lazy baseline resolution replays identically after
    /// restore; their indices are implied by `next_idx` and the count.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.cap);
        w.put_f64(self.rtt_min_c);
        w.put_u32(self.era_base);
        w.put_u64(self.rebase_gen);
        w.put_u64(self.next_idx);
        w.put_usize(self.records.len());
        for r in self.tail_raw(self.len()) {
            r.save_slot(w);
        }
        w.put_usize(self.mono.len());
        for &(i, v) in &self.mono {
            w.put_u64(i);
            w.put_f64(v);
        }
        w.put_usize(self.eras.len());
        for e in &self.eras {
            w.put_u64(e.start_idx);
            w.put_f64(e.base);
            w.put_u32(e.next_seq);
            w.put_usize(e.events.len());
            for &(s, v) in &e.events {
                w.put_u32(s);
                w.put_f64(v);
            }
        }
    }

    /// Deserializes a history written by [`History::save_state`],
    /// re-checking what the rest of the pipeline relies on: capacity floor,
    /// slot count within capacity and `next_idx` (the implicit index must
    /// not underflow), a min-deque strictly increasing in index and value
    /// inside the retained range, non-decreasing era starts up to `next_idx`.
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        use SnapshotError as E;
        let cap = r.get_usize()?;
        if cap < 4 {
            return Err(E::Invalid("history window too small"));
        }
        let rtt_min_c = r.get_f64()?;
        let era_base = r.get_u32()?;
        let rebase_gen = r.get_u64()?;
        let next_idx = r.get_u64()?;
        let n_rec = r.get_len(Slot::WIRE_BYTES)?;
        if n_rec > cap {
            return Err(E::Invalid("history holds more records than its window"));
        }
        let front_idx = next_idx
            .checked_sub(n_rec as u64)
            .ok_or(E::Invalid("history holds more records than were admitted"))?;
        let mut records = VecDeque::with_capacity(cap.min(n_rec.max(256)));
        records.extend(r.take_arrays(n_rec)?.iter().map(Slot::from_wire));
        let n_mono = r.get_len(16)?;
        let mut mono = VecDeque::<(u64, f64)>::with_capacity(n_mono);
        for _ in 0..n_mono {
            let (i, v) = (r.get_u64()?, r.get_f64()?);
            if !(front_idx..next_idx).contains(&i) {
                return Err(E::Invalid("rtt-minimum candidate outside the window"));
            }
            if matches!(mono.back(), Some(&(bi, bv)) if !(bi < i && bv < v)) {
                return Err(E::Invalid("rtt-minimum candidates not increasing"));
            }
            mono.push_back((i, v));
        }
        let n_eras = r.get_len(24)?;
        if n_eras == 0 {
            return Err(E::Invalid("history era table empty"));
        }
        let mut eras = Vec::<Era>::with_capacity(n_eras);
        for _ in 0..n_eras {
            let start_idx = r.get_u64()?;
            if start_idx > next_idx || eras.last().is_some_and(|e| e.start_idx > start_idx) {
                return Err(E::Invalid(
                    "era starts decreasing or beyond the newest packet",
                ));
            }
            let base = r.get_f64()?;
            let next_seq = r.get_u32()?;
            let n_ev = r.get_len(12)?;
            let mut events = Vec::with_capacity(n_ev);
            for _ in 0..n_ev {
                events.push((r.get_u32()?, r.get_f64()?));
            }
            eras.push(Era {
                start_idx,
                base,
                events,
                next_seq,
            });
        }
        Ok(Self {
            records,
            cap,
            rtt_min_c,
            mono,
            eras,
            era_base,
            rebase_gen,
            next_idx,
        })
    }
}

/// See [`History::baseline_view`].
#[derive(Clone, Copy)]
pub(crate) struct BaselineView<'a> {
    history: &'a History,
    current_era: u32,
    next_seq: u32,
}

impl BaselineView<'_> {
    /// Effective baseline of the raw record `r` (see [`History::resolve`]),
    /// with the fast path fully inlined: two integer compares, no memory
    /// indirection.
    #[inline(always)]
    pub(crate) fn resolve(&self, r: &PacketRecord) -> f64 {
        if r.era == self.current_era && r.epoch == self.next_seq {
            r.rbase_c
        } else {
            self.history.resolve(r.idx, r.rbase_c, r.era, r.epoch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // §6.1: a better r̂ re-bases the point errors of the whole era —
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
    fn era_table_stays_bounded_across_shifts_and_slides() {
        // Memory must stay O(window): eras whose records have all been
        // discarded are pruned on slides, and resolution keeps working for
        // the retained records (exercised against point_error values).
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
        assert!(
            h.eras.len() <= 4,
            "era table must be pruned, len {}",
            h.eras.len()
        );
        // resolution still consistent for every retained record
        for r in h.iter() {
            assert!(r.rbase_c.is_finite());
            assert!(r.point_error(1e-9) >= 0.0 || r.point_error(1e-9).abs() < 1.0);
        }
    }

    #[test]
    fn suffix_min_table_matches_brute_force() {
        // Era suffix-min stack vs a naive suffix scan, on a value series
        // with re-rises (slides can raise r̂, so min-events need not be
        // monotone).
        let mut era = Era::new(0, f64::INFINITY);
        let events = [5.0, 3.0, 4.0, 2.0, 6.0, 1.5, 4.5, 1.0];
        let mut recorded: Vec<f64> = Vec::new();
        for &m in &events {
            era.record_event(m);
            recorded.push(m);
            for p in 0..=recorded.len() {
                let naive = recorded[p.min(recorded.len())..]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(era.suffix_min(p as u32), naive, "suffix from {p}");
            }
        }
    }
}
