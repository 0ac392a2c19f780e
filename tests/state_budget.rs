//! The state diet's pins: what a clock's history costs per packet, that
//! nothing was lost by storing only the four stamps, and that a restore
//! refuses the payloads an implicit packet index could not survive.
//!
//! The history ring holds 32 bytes a packet — `Ta, Tb, Te, Tf` and
//! nothing else — and a snapshot carries the same four words; the
//! packet's global index is its position, its baseline the value of the
//! run of packets it belongs to (a table of a handful of runs beside the
//! ring), and `Tf`/RTT in counts and the two midpoints are computed from
//! the stamps where they are read.

mod common;

use common::{payload, resealed_payload, resealed_with, HistoryLayout};
use proptest::prelude::*;
use tscclock::{ClockConfig, History, PacketRecord, RawExchange, SnapshotError, TscNtpClock};

/// True period of the synthetic host counter: 1 GHz with +52.4 PPM skew.
const PERIOD: f64 = 1.0000524e-9;

/// 16 s polls over a symmetric path to a perfect server: a fixed minimum
/// delay plus cubed-uniform queueing each way, from a 64-bit LCG; the
/// route lengthens by 0.6 ms at packet `shift_at`.
fn lcg_exchanges(n: usize, shift_at: usize) -> Vec<RawExchange> {
    let mut lcg = 1u64;
    let mut uniform = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let min_delay = if i < shift_at { 450e-6 } else { 1050e-6 };
            let (t, u, v) = (16.0 * i as f64, uniform(), uniform());
            let tb = t + min_delay + 300e-6 * u * u * u;
            let te = tb + 40e-6;
            let tf = te + min_delay + 300e-6 * v * v * v;
            RawExchange {
                ta_tsc: (t / PERIOD) as u64,
                tb,
                te,
                tf_tsc: (tf / PERIOD) as u64,
            }
        })
        .collect()
}

fn fed_clock(input: &[RawExchange]) -> TscNtpClock {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    for &ex in input {
        clock.process(ex);
    }
    clock
}

#[test]
fn a_snapshot_costs_32_bytes_a_packet_and_resumes_bit_identically() {
    const HEAD: usize = 5_000;
    let input = lcg_exchanges(HEAD + 200, usize::MAX);
    let mut clock = fed_clock(&input[..HEAD]);
    let blob = clock.snapshot();
    assert!(
        blob.len() <= 32 * HEAD + (8 << 10),
        "{} B for {HEAD} packets",
        blob.len()
    );
    let mut restored = TscNtpClock::restore(&blob).expect("own snapshot restores");
    for &ex in &input[HEAD..] {
        let (a, b) = (
            clock.process(ex).expect("warm"),
            restored.process(ex).expect("warm"),
        );
        let bits = |x: f64| x.to_bits();
        assert_eq!(
            (
                a.idx,
                bits(a.rtt),
                bits(a.point_error),
                bits(a.theta_naive),
                bits(a.theta_hat)
            ),
            (
                b.idx,
                bits(b.rtt),
                bits(b.point_error),
                bits(b.theta_naive),
                bits(b.theta_hat)
            ),
        );
        assert_eq!(
            (bits(a.p_hat), a.p_local.map(bits), a.events),
            (bits(b.p_hat), b.p_local.map(bits), b.events)
        );
    }
    assert!(
        clock.snapshot() == restored.snapshot(),
        "the two clocks seal different bytes"
    );
}

proptest! {
    /// Every public view hands out the pushed stamps under the right index,
    /// and its derived columns are the `RawExchange` expressions bit for
    /// bit — across two T/2 slides and an upward shift, for counters that
    /// start small, above 2⁵² (midpoint sums above 2⁵³) or just short of
    /// wrapping.
    #[test]
    fn views_derive_columns_and_indices_exactly(
        cap in 8usize..48,
        start in 0usize..3,
        rtts in prop::collection::vec(1u64..4_000_000, 80),
    ) {
        let base = [1_000u64, (1 << 52) + 12_345, u64::MAX - 40_000_000_000][start];
        let pushed: Vec<RawExchange> = rtts
            .iter()
            .take(cap + cap / 2 + 3) // two slides and a few more
            .enumerate()
            .map(|(k, &rtt)| {
                let ta_tsc = base.wrapping_add(k as u64 * 1_000_000_007);
                let tb = k as f64 * 1.0 + rtt as f64 * 0.4e-9;
                RawExchange { ta_tsc, tb, te: tb + 21e-6, tf_tsc: ta_tsc.wrapping_add(rtt) }
            })
            .collect();
        let mut h = History::new(cap);
        let mut slides = 0;
        for (k, &ex) in pushed.iter().enumerate() {
            let (idx, outcome) = h.push(ex);
            prop_assert_eq!(idx, k as u64);
            slides += outcome.window_slid as usize;
            if k == cap + 2 {
                h.apply_upward_shift(h.rtt_min_c() + 5.0, idx - 1);
            }
            let same = |r: PacketRecord| {
                let want = pushed[r.idx as usize];
                r.ex == want
                    && r.tf_c().to_bits() == (want.tf_tsc as f64).to_bits()
                    && r.rtt_c().to_bits() == (want.rtt_counts() as f64).to_bits()
                    && r.hm_c().to_bits() == want.host_midpoint_counts().to_bits()
                    && r.sm().to_bits() == want.server_midpoint().to_bits()
            };
            let front = idx + 1 - h.len() as u64;
            prop_assert_eq!(h.first().map(|r| r.idx), Some(front));
            prop_assert_eq!(h.last().map(|r| r.idx), Some(idx));
            prop_assert!(h.get(front.wrapping_sub(1)).is_none() && h.get(idx + 1).is_none());
            for i in front..=idx {
                let r = h.get(i).expect("retained");
                prop_assert!(r.idx == i && same(r), "get({}) at packet {}", i, k);
            }
            prop_assert!(h.iter().map(|r| r.idx).eq(front..=idx));
            prop_assert!(h.iter().all(same));
            prop_assert!(h.last_n(3).map(|r| r.idx).eq(idx.saturating_sub(2).max(front)..=idx));
            prop_assert!(h.last_n(3).all(same));
        }
        prop_assert_eq!(slides, 2);
    }
}

#[test]
fn restore_refuses_what_the_implicit_index_cannot_survive() {
    // sealed after the detector confirmed the route change: two runs
    let clock = fed_clock(&lcg_exchanges(420, 250));
    let blob = clock.snapshot();
    let payload = &blob[15..blob.len() - 8];
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());

    let layout = HistoryLayout::of(&clock, payload);
    let (next_idx_at, floor_at) = (layout.at + 8, layout.at + 16);
    let (next_idx, n_rec) = (word(next_idx_at), layout.n_rec as u64);
    assert_eq!((next_idx, n_rec), (420, clock.history().len() as u64), "layout moved");
    let (run0_at, run1_at) = (layout.runs_at + 8, layout.runs_at + 24);
    let n_runs = word(layout.runs_at);
    assert!(n_runs == 2, "{n_runs} runs");
    assert_eq!(word(run0_at), 0, "layout moved");
    assert!((2..next_idx - 1).contains(&word(run1_at)), "layout moved");
    assert_eq!(word(floor_at), word(run1_at), "the floor is the shift's start");

    assert!(TscNtpClock::restore(&resealed_with(&blob, next_idx_at, next_idx)).is_ok());
    const ADMITTED: &str = "history holds more records than were admitted";
    const NO_RUNS: &str = "history records without a baseline run";
    const RUN_ORDER: &str = "baseline runs not increasing";
    const FIRST: &str = "first baseline run starts after the oldest record";
    const BEYOND: &str = "baseline run beyond the newest packet";
    const BASELINE: &str = "baseline not a positive count";
    const FLOOR: &str = "shift floor beyond the newest packet";
    const STRADDLE: &str = "shift floor inside a baseline run";
    for (at, bad, why) in [
        (next_idx_at, n_rec - 1, ADMITTED),
        (layout.runs_at, 0, NO_RUNS),             // records present, no runs
        (run1_at, word(run0_at), RUN_ORDER),      // two runs with one start
        (run0_at, 1, FIRST),                      // the oldest record uncovered
        (run1_at, next_idx, BEYOND),              // a run of no admitted packet
        (run1_at + 8, 0f64.to_bits(), BASELINE),
        (run1_at + 8, (-1f64).to_bits(), BASELINE),
        (run0_at + 8, f64::INFINITY.to_bits(), BASELINE),
        (run0_at + 8, f64::NAN.to_bits(), BASELINE),
        (floor_at, next_idx + 1, FLOOR),
        (floor_at, word(run1_at) + 1, STRADDLE), // a run split by the floor
    ] {
        let got = TscNtpClock::restore(&resealed_with(&blob, at, bad)).map(|_| "restored");
        assert_eq!(got, Err(SnapshotError::Invalid(why)), "word {at} := {bad}");
    }
}

/// Every word of the history section outside the records, set to 0, 1,
/// `u64::MAX` or its own value ± 1 and re-sealed: the restore is a typed
/// error, or a clock that takes the next 300 packets without a panic.
#[test]
fn no_history_word_restores_a_clock_that_panics() {
    let input = lcg_exchanges(720, 250);
    let clock = fed_clock(&input[..420]);
    let blob = clock.snapshot();
    let payload = &blob[15..blob.len() - 8];
    let layout = HistoryLayout::of(&clock, payload);
    let (mut refused, mut restored) = (0, 0);
    for at in layout.non_record_words() {
        let w = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        for bad in [0, 1, u64::MAX, w.wrapping_add(1), w.wrapping_sub(1)] {
            match TscNtpClock::restore(&resealed_with(&blob, at, bad)) {
                Err(_) => refused += 1,
                Ok(mut resumed) => {
                    restored += 1;
                    for &ex in &input[420..] {
                        resumed.process(ex);
                    }
                }
            }
        }
    }
    assert!(refused > 0 && restored > 0, "{refused} refused, {restored} restored");
}

/// `blob` with the optional value `v` that follows the history section
/// (tag 1, then its 8 bytes) written as absent (tag 0, the 8 bytes gone),
/// re-sealed: a blob no one-word substitution reaches, since the tag and
/// the length must change together.
fn with_absent(blob: &[u8], after: usize, v: f64) -> Vec<u8> {
    let p = payload(blob);
    let mut tagged = [1u8; 9];
    tagged[1..].copy_from_slice(&v.to_le_bytes());
    let found = p.windows(9).enumerate().skip(after).filter(|(_, w)| *w == tagged);
    let hits: Vec<_> = found.map(|(at, _)| at).collect();
    assert_eq!(hits.len(), 1, "{v} found at {hits:?}");
    let at = hits[0];
    resealed_payload(blob, &[&p[..at], &[0], &p[at + 9..]].concat())
}

#[test]
fn restore_refuses_a_history_without_a_rate_or_a_valid_window_without_an_estimate() {
    let clock = fed_clock(&lcg_exchanges(420, usize::MAX));
    let blob = clock.snapshot();
    let after = HistoryLayout::of(&clock, payload(&blob)).end;
    let (p_hat, theta) = (clock.p_hat().unwrap(), clock.status().theta_hat.unwrap());
    for (v, why) in [
        (p_hat, "history without a rate estimate"),
        (theta, "offset window valid without its inputs"),
    ] {
        let got = TscNtpClock::restore(&with_absent(&blob, after, v)).map(|_| "restored");
        assert_eq!(got, Err(SnapshotError::Invalid(why)), "{v} absent");
    }
}
