//! Helpers shared by the allocation and restore tests: a per-thread
//! counting allocator, re-sealing a blob around an edited payload, where a
//! clock's state and its arrays sit in a payload, and which words the
//! hostile-word sweep overwrites.

#![allow(dead_code)] // each test binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tscclock::snapshot::SnapshotWriter;
use tscclock::TscNtpClock;

struct Counting;

thread_local! {
    /// Allocations (`alloc` and `realloc` calls) and the bytes they asked
    /// for, on this thread.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_one(bytes: usize) {
    // `try_with`: an allocation during thread teardown has nowhere to count.
    let _ = ALLOCATIONS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter (a const-initialised `Cell`, so
// touching it never allocates) does not influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` with this layout; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations this thread makes while `f` runs.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get().0;
    f();
    ALLOCATIONS.get().0 - before
}

/// What `f` returns, and the bytes this thread's allocations asked for
/// while it ran (a reallocation counts its whole new size).
pub fn bytes_allocated_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get().1;
    let out = f();
    (out, ALLOCATIONS.get().1 - before)
}

/// Envelope header bytes before the payload, and checksum bytes after it.
pub const HEADER: usize = 15;
pub const TRAILER: usize = 8;

/// The payload of a sealed envelope.
pub fn payload(blob: &[u8]) -> &[u8] {
    &blob[HEADER..blob.len() - TRAILER]
}

/// Seals `payload` in the envelope of `blob` (its magic, version and kind)
/// with the length and checksum it needs, so only the restore's own checks
/// can refuse it.
pub fn resealed_payload(blob: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = blob[..HEADER].to_vec();
    out[7..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = tscclock::snapshot::checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Re-seals `blob` with the eight bytes at payload offset `at` replaced
/// by `word`.
pub fn resealed_with(blob: &[u8], at: usize, word: u64) -> Vec<u8> {
    let mut edited = payload(blob).to_vec();
    edited[at..at + 8].copy_from_slice(&word.to_le_bytes());
    resealed_payload(blob, &edited)
}

/// The payload bytes `save` writes.
pub fn saved_len(save: impl FnOnce(&mut SnapshotWriter)) -> usize {
    let mut w = SnapshotWriter::new();
    save(&mut w);
    w.seal(0).len() - HEADER - TRAILER
}

/// Where a history section's words sit in a payload (format v7): r̂,
/// next_idx, floor, the record count and the 32-byte records; then the run
/// count and (start, baseline) pairs.
pub struct HistoryLayout {
    pub at: usize,
    pub n_rec: usize,
    pub runs_at: usize,
    pub end: usize,
}

impl HistoryLayout {
    /// The history section that starts at payload offset `at`.
    pub fn at(payload: &[u8], at: usize) -> Self {
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
        let n_rec = word(at + 24);
        let runs_at = at + 32 + 32 * n_rec;
        let end = runs_at + 8 + 16 * word(runs_at);
        Self { at, n_rec, runs_at, end }
    }

    /// The history section of a standalone clock payload, which follows
    /// the clock's configuration.
    pub fn of(clock: &TscNtpClock, payload: &[u8]) -> Self {
        Self::at(payload, saved_len(|w| clock.config().save_state(w)))
    }

    /// Every word of the section but the records', by payload offset.
    pub fn non_record_words(&self) -> impl Iterator<Item = usize> {
        (self.at..self.at + 32).chain(self.runs_at..self.end).step_by(8)
    }
}

/// Where a clock's state sits in a payload, with its two arrays of like
/// elements: its history section's records and its shift detector's ring
/// of Ts window minima, 8 bytes each, which the detector's two counters,
/// `C̄` and an empty held-exchange tag follow to the end of the state.
pub struct ClockLayout {
    pub state: std::ops::Range<usize>,
    pub history: HistoryLayout,
    pub ring: std::ops::Range<usize>,
}

impl ClockLayout {
    /// The layout of `clock`'s state, which starts at payload offset `at`
    /// (with its history section).
    pub fn at(clock: &TscNtpClock, payload: &[u8], at: usize) -> Self {
        let history = HistoryLayout::at(payload, at);
        assert_eq!(history.n_rec, clock.history().len(), "history layout moved");
        let end = at + saved_len(|w| clock.save_state(w));
        assert_eq!(payload[end - 1], 0, "a clock holding its first exchange");
        let ring_end = end - 1 - 8 - 16;
        let ring = ring_end - 8 * clock.config().ts_packets()..ring_end;
        Self { state: at..end, history, ring }
    }

    /// Whether the word at payload offset `at` lies wholly between the
    /// first and the last element of one of the clock's arrays.
    fn inside_an_array(&self, at: usize) -> bool {
        let h = &self.history;
        let inner = [h.at + 64..h.runs_at - 32, self.ring.start + 8..self.ring.end - 8];
        inner.iter().any(|r| r.start <= at && at + 8 <= r.end)
    }
}

/// The eight values the sweep writes over a word `w`: 0, 1, all ones,
/// `w ± 1`, `w` with its sign bit flipped, −1.0 and NaN.
pub fn hostile_values(w: u64) -> [u64; 8] {
    [
        0,
        1,
        u64::MAX,
        w.wrapping_add(1),
        w.wrapping_sub(1),
        w ^ (1 << 63),
        (-1f64).to_bits(),
        f64::NAN.to_bits(),
    ]
}

/// The payload offsets the tier-1 sweep overwrites: every byte offset
/// with eight payload bytes after it, but within the state of each of
/// `clocks` only every `clock_stride`-th from its start, and of its arrays
/// only the first and the last element (the restore reads every element
/// of one the same way). A byte stride, not a word one, is what writes
/// each hostile value over each field exactly: fields are packed without
/// alignment, and a one-byte tag or flag shifts all that follows.
pub fn swept_offsets(
    payload_len: usize,
    clocks: &[ClockLayout],
    clock_stride: usize,
) -> Vec<usize> {
    let swept = |at: usize| {
        clocks.iter().all(|c| {
            !c.inside_an_array(at)
                && (!c.state.contains(&at) || (at - c.state.start).is_multiple_of(clock_stride))
        })
    };
    (0..=payload_len - 8).filter(|&at| swept(at)).collect()
}
