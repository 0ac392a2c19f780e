//! The lock-free published clock snapshot: a seqlock cell the discipline
//! loop seals `(Ca(t0), p̂, error bound, era)` into, and the serving hot
//! path reads without ever taking a lock.
//!
//! # Why a seqlock
//!
//! The serving plane answers millions of requests per second while the
//! discipline loop republishes every few hundred microseconds to seconds.
//! Readers vastly outnumber writes, readers must never block the writer
//! (a stalled discipline loop is worse than a retried read), and the
//! payload is a handful of words. That is exactly the seqlock sweet spot:
//! the writer bumps a generation counter to odd, stores the fields, bumps
//! it to even; a reader grabs the generation, copies the fields, and
//! retries only if the generation was odd or moved — a torn read is
//! *detected and discarded*, never returned.
//!
//! Every field lives in its own `AtomicU64` (floats as `to_bits`), so all
//! accesses are atomic and the data race the classic C seqlock relies on
//! never exists — this is the memory-ordering recipe from crossbeam's
//! seqlock discussions: writer `seq += 1 (Relaxed); fence(Release); data
//! stores (Relaxed); seq += 1 (Release)`, reader `s1 = seq (Acquire); data
//! loads (Relaxed); fence(Acquire); s2 = seq (Relaxed); accept iff s1 ==
//! s2 and even`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use tscclock::bound;

/// One sealed clock estimate: everything the response path needs to stamp
/// a timestamp and bound its error, with no access to the clock itself.
///
/// The absolute time at counter reading `tsc` is evaluated as
///
/// ```text
/// Ca(tsc) = base + (tsc − tsc0)·rate
/// ```
///
/// (the serving plane evaluates it in 32.32 fixed point: `base` once per
/// snapshot read, the staleness term per request; see
/// [`Stamper`](crate::plane::Stamper)), and the **served-error bound** is
/// the seal-time `bound` aged by the one rule of [`tscclock::bound`]:
///
/// ```text
/// bound(tsc) = bound + WIDEN_RATE · max(staleness, 0),   staleness = (tsc − tsc0)·rate
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSnapshot {
    /// Publication generation, strictly increasing from 1. A cell that has
    /// never been published reads as `None`, not era 0.
    pub era: u64,
    /// Raw counter reading at seal time (`t0`).
    pub tsc0: u64,
    /// Absolute time `Ca(t0)` in Unix seconds.
    pub base: f64,
    /// Rate estimate `p̂` in seconds per count.
    pub rate: f64,
    /// Clock error bound at seal time, seconds (floored by the
    /// publisher).
    pub bound: f64,
    /// Whether the discipline loop considers itself synchronized; `false`
    /// makes the serving plane refuse rather than stamp.
    pub synced: bool,
    /// Reference identifier to advertise in responses.
    pub reference_id: [u8; 4],
}

impl ClockSnapshot {
    /// Elapsed seconds between the seal and counter reading `tsc`
    /// (negative if `tsc` predates the seal — callers treat that as 0).
    #[inline]
    pub fn staleness(&self, tsc: u64) -> f64 {
        (tsc.wrapping_sub(self.tsc0) as i64) as f64 * self.rate
    }

    /// Served-error bound at `tsc`: the seal-time bound aged by its
    /// staleness ([`bound::aged`]). Monotone in `tsc` between republishes.
    #[inline]
    pub fn bound_at(&self, tsc: u64) -> f64 {
        bound::aged(self.bound, self.staleness(tsc))
    }
}

/// The seqlock cell. One writer (the discipline loop), any number of
/// lock-free readers (the serving hot path, telemetry, tests).
///
/// Writers must be externally serialized — in this system there is exactly
/// one publisher per cell (the discipline loop that owns the clock), which
/// is the deployment the cell is documented and tested for.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    /// Generation: even = stable, odd = write in progress.
    seq: AtomicU64,
    era: AtomicU64,
    tsc0: AtomicU64,
    base: AtomicU64,
    rate: AtomicU64,
    bound: AtomicU64,
    /// bit 0: synced; bits 32–63: reference id (big-endian bytes).
    flags: AtomicU64,
}

impl SnapshotCell {
    /// A fresh, never-published cell; [`SnapshotCell::read`] returns `None`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `snap` (the writer side of the seqlock). The era stored
    /// is forced to `max(snap.era, 1)` so a published cell is always
    /// distinguishable from a fresh one.
    pub fn publish(&self, snap: &ClockSnapshot) {
        let flags = (snap.synced as u64) | ((u32::from_be_bytes(snap.reference_id) as u64) << 32);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.era.store(snap.era.max(1), Ordering::Relaxed);
        self.tsc0.store(snap.tsc0, Ordering::Relaxed);
        self.base.store(snap.base.to_bits(), Ordering::Relaxed);
        self.rate.store(snap.rate.to_bits(), Ordering::Relaxed);
        self.bound.store(snap.bound.to_bits(), Ordering::Relaxed);
        self.flags.store(flags, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Lock-free read: copies the current snapshot, retrying while a write
    /// is in progress or raced the copy. Returns `None` until the first
    /// publish. Never blocks the writer; a reader retries at most as long
    /// as writes keep landing mid-copy.
    #[inline]
    pub fn read(&self) -> Option<ClockSnapshot> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let era = self.era.load(Ordering::Relaxed);
            let tsc0 = self.tsc0.load(Ordering::Relaxed);
            let base = self.base.load(Ordering::Relaxed);
            let rate = self.rate.load(Ordering::Relaxed);
            let bound = self.bound.load(Ordering::Relaxed);
            let flags = self.flags.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) != s1 {
                std::hint::spin_loop();
                continue;
            }
            if era == 0 {
                return None;
            }
            return Some(ClockSnapshot {
                era,
                tsc0,
                base: f64::from_bits(base),
                rate: f64::from_bits(rate),
                bound: f64::from_bits(bound),
                synced: flags & 1 == 1,
                reference_id: ((flags >> 32) as u32).to_be_bytes(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(era: u64) -> ClockSnapshot {
        ClockSnapshot {
            era,
            tsc0: 1_000 * era,
            base: 1.0e9 + era as f64,
            rate: 1e-9,
            bound: 1e-6,
            synced: true,
            reference_id: *b"TSC\0",
        }
    }

    #[test]
    fn fresh_cell_reads_none() {
        assert_eq!(SnapshotCell::new().read(), None);
    }

    #[test]
    fn publish_then_read_roundtrips() {
        let cell = SnapshotCell::new();
        let s = snap(7);
        cell.publish(&s);
        assert_eq!(cell.read(), Some(s));
    }

    #[test]
    fn era_zero_is_promoted_to_one() {
        let cell = SnapshotCell::new();
        cell.publish(&snap(0));
        assert_eq!(cell.read().unwrap().era, 1);
    }

    #[test]
    fn evaluation_math() {
        let s = snap(1);
        // 2000 counts past tsc0 at 1 ns/count = 2 µs.
        let tsc = s.tsc0 + 2_000;
        assert!((s.staleness(tsc) - 2e-6).abs() < 1e-18);
        assert_eq!(s.bound_at(tsc), 1e-6 + bound::WIDEN_RATE * s.staleness(tsc));
        // A reading just *before* the seal must not shrink the bound.
        assert!(s.bound_at(s.tsc0.wrapping_sub(10)) >= s.bound);
    }

    #[test]
    fn unsynced_flag_and_refid_roundtrip() {
        let cell = SnapshotCell::new();
        let mut s = snap(3);
        s.synced = false;
        s.reference_id = *b"GPS1";
        cell.publish(&s);
        let r = cell.read().unwrap();
        assert!(!r.synced);
        assert_eq!(r.reference_id, *b"GPS1");
    }
}
