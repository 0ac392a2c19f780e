//! Snapshot publication hammer: one publisher republishing at full speed,
//! N reader threads evaluating concurrently. Asserts the seqlock's whole
//! contract:
//!
//! - **no torn reads** — every field of every observed snapshot is the
//!   deterministic function of its era that the publisher wrote, so any
//!   cross-era mix of fields is detected;
//! - **eras are monotone** per reader (a reader never observes time going
//!   backwards through publications);
//! - **error bounds are monotone between republishes** — within one
//!   observed era, `bound_at` evaluated at increasing counter readings
//!   never shrinks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsc_serve::{ClockSnapshot, SnapshotCell};

/// The unique snapshot the publisher seals for `era` — every field
/// derives from the era, so readers can verify internal consistency.
fn snapshot_for_era(era: u64) -> ClockSnapshot {
    ClockSnapshot {
        era,
        tsc0: era.wrapping_mul(1_000),
        base: 1.0e9 + era as f64 * 1e-3,
        rate: 1e-9 + (era % 16) as f64 * 1e-13,
        bound: 10e-6 + (era % 8) as f64 * 1e-6,
        synced: era.is_multiple_of(2),
        reference_id: (era as u32).to_be_bytes(),
    }
}

fn assert_consistent(s: &ClockSnapshot) {
    let want = snapshot_for_era(s.era);
    assert_eq!(s, &want, "torn read: era {} fields are mixed", s.era);
}

#[test]
fn hammer_no_torn_reads_and_monotone_bounds() {
    const READERS: usize = 4;
    const RUN: Duration = Duration::from_millis(500);

    let cell = Arc::new(SnapshotCell::new());
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::new(AtomicU64::new(0));

    let pub_cell = Arc::clone(&cell);
    let pub_stop = Arc::clone(&stop);
    let pub_count = Arc::clone(&published);
    let publisher = std::thread::spawn(move || {
        let mut era = 0u64;
        while !pub_stop.load(Ordering::Relaxed) {
            era += 1;
            pub_cell.publish(&snapshot_for_era(era));
        }
        pub_count.store(era, Ordering::Relaxed);
    });

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut last_era = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let Some(s) = cell.read() else { continue };
                    assert_consistent(&s);
                    assert!(
                        s.era >= last_era,
                        "era went backwards: {} after {}",
                        s.era,
                        last_era
                    );
                    last_era = s.era;
                    // Bound monotone in staleness within this snapshot.
                    let t1 = s.tsc0.wrapping_add(100);
                    let t2 = s.tsc0.wrapping_add(100_000);
                    assert!(s.bound_at(t2) >= s.bound_at(t1));
                    assert!(s.bound_at(t1) >= s.bound);
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let t0 = Instant::now();
    while t0.elapsed() < RUN {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();
    let total_reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    let eras = published.load(Ordering::Relaxed);
    // Sanity: the hammer actually hammered — both sides made real progress
    // (thousands of operations even on a 1-core host).
    assert!(eras > 1_000, "publisher only sealed {eras} eras");
    assert!(total_reads > 1_000, "readers only completed {total_reads} reads");
}

/// Same cell exercised single-threaded at era-rollover scale: the seq
/// counter wraps are harmless (the cell uses wrapping arithmetic).
#[test]
fn sequential_republish_is_lossless() {
    let cell = SnapshotCell::new();
    for era in 1..=10_000 {
        cell.publish(&snapshot_for_era(era));
        let s = cell.read().unwrap();
        assert_eq!(s.era, era);
        assert_consistent(&s);
    }
}
