//! The window minima without per-packet bookkeeping. `r̂` is recomputed
//! from the retained records only when the top window slides, and the
//! offset window's `κmin` is a running minimum, rescanned only when the
//! slot holding it expires. Each case drives one pattern that takes those
//! rare paths: a strictly rising RTT ramp longer than τ′ (a rescan every
//! packet), a plateau of equal RTTs (ties), the minimum expiring on the
//! packet that brings a new one, slides with the shift floor inside the
//! retained half or past every retained record, and a restore mid-ramp.
//!
//! Clock cases compare against the full-pass reference pipeline packet by
//! packet: θ̂ within the differential suites' budget (1e-12 relative +
//! 50 ps), `p̂` and the point error bit-for-bit, and `r̂` bit-for-bit
//! against the reference's `RefHistory`. History cases compare `History`
//! with `RefHistory` directly.

use tscclock_repro::clock::reference::{RefHistory, ReferenceClock};
use tscclock_repro::clock::{ClockConfig, ClockEvent, History, RawExchange, TscNtpClock};

/// Counter ticks between polls: 16 s at a period of exactly 1 ns.
const POLL_COUNTS: u64 = 16_000_000_000;

/// Exchange `k` with an RTT of exactly `rtt` counts, so equal RTTs are
/// equal to the bit: 20 µs of server time and a 290 µs return path, so all
/// queueing is forward and biases the packet's naive offset by half of it.
fn exchange(k: u64, rtt: u64) -> RawExchange {
    let ta = 1_000_000_000 + k * POLL_COUNTS;
    let te = (ta + rtt) as f64 * 1e-9 - 290e-6;
    RawExchange {
        ta_tsc: ta,
        tb: te - 20e-6,
        te,
        tf_tsc: ta + rtt,
    }
}

/// The differential suites' shrunk windows: an 80-packet top window (a
/// slide every 40), a 20-packet shift window and a 16-packet τ′, so the
/// incremental offset path (not the ≤4-packet full pass) is in play.
fn small_windows(aging_rate: f64) -> ClockConfig {
    let mut cfg = ClockConfig::paper_defaults(16.0);
    cfg.top_window = 80.0 * 16.0;
    cfg.ts_window = 20.0 * 16.0;
    cfg.tau_prime = 16.0 * 16.0;
    cfg.tau_bar = 32.0 * 16.0;
    cfg.w_split = 4;
    cfg.warmup_packets = 16;
    cfg.aging_rate = aging_rate;
    cfg
}

/// A calm lead-in: RTTs within 3 µs of 600 µs, so the rate and the offset
/// window are warm before a pattern starts.
fn calm(n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(|i| 600_000 + (i * 7919) % 3_000)
}

/// Feeds `rtts` to the clock and to the reference clock, checking every
/// packet (the quality gate's fallback too, the one output `κmin` decides
/// alone); when `restore_at` is set, the clock is sealed and restored
/// before that packet and also checked bit-for-bit against a twin that
/// ran uninterrupted. Returns the events seen.
fn against_reference(cfg: ClockConfig, rtts: &[u64], restore_at: Option<usize>) -> Vec<ClockEvent> {
    let (mut clock, mut twin) = (TscNtpClock::new(cfg), TscNtpClock::new(cfg));
    let mut reference = ReferenceClock::new(cfg);
    let mut events = Vec::new();
    for (k, &rtt) in rtts.iter().enumerate() {
        if restore_at == Some(k) {
            clock = TscNtpClock::restore(&clock.snapshot()).expect("own snapshot restores");
        }
        let e = exchange(k as u64, rtt);
        let (a, b, t) = (clock.process(e), reference.process(e), twin.process(e));
        assert_eq!(a, t, "restored clock left its twin at {k}");
        assert_eq!(a.is_some(), b.is_some(), "admission diverged at {k}");
        let r_hat = (clock.history().rtt_min_c(), reference.history().rtt_min_c());
        assert_eq!(r_hat.0.to_bits(), r_hat.1.to_bits(), "r̂ diverged at {k}: {r_hat:?}");
        let (Some(a), Some(b)) = (a, b) else { continue };
        assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(), "p̂ diverged at {k}");
        assert_eq!(a.point_error.to_bits(), b.point_error.to_bits(), "point error at {k}");
        let fallback = ClockEvent::OffsetFallback;
        assert_eq!(a.events.contains(fallback), b.events.contains(&fallback), "gate at {k}");
        let (x, y) = (a.theta_hat, b.theta_hat);
        assert!(
            x == y || (x - y).abs() <= 1e-12 * x.abs().max(y.abs()) + 5e-11,
            "θ̂ diverged at {k}: {x:e} vs {y:e}"
        );
        events.extend(a.events.iter());
    }
    events
}

/// Strictly rising κ for three τ′ windows: the oldest slot is the window
/// minimum on every packet, so every packet rescans. The minimum's point
/// error climbs past E** = 360 µs, so the gate turns poor, a few packets
/// before the shift detector (every sample 4E above r̂ for Ts) re-bases.
fn rising_ramp(aging_rate: f64) -> Vec<u64> {
    let tau = small_windows(aging_rate).tau_prime_packets();
    let ramp = (0..3 * tau as u64).map(|i| 640_000 + 40_000 * i);
    calm(60).chain(ramp).chain(calm(40)).collect()
}

#[test]
fn a_strictly_rising_ramp_longer_than_tau_prime_matches_the_reference() {
    for aging in [0.0, 0.02e-6] {
        let events = against_reference(small_windows(aging), &rising_ramp(aging), None);
        assert!(events.contains(&ClockEvent::OffsetFallback), "the gate never turned poor");
    }
}

#[test]
fn a_plateau_of_equal_rtts_matches_the_reference() {
    // ε = 0 makes equal RTTs equal κ: every slot of the window ties.
    for aging in [0.0, 0.02e-6] {
        let rtts: Vec<u64> = calm(60).chain([650_000; 70]).chain(calm(30)).collect();
        against_reference(small_windows(aging), &rtts, None);
    }
}

#[test]
fn the_minimum_expiring_as_a_new_one_arrives_matches_the_reference() {
    // A rising ramp, then on one packet the RTT of the record leaving the
    // τ′ window (the minimum) again (a tie at ε = 0), then ramps and a
    // packet just below the leaving one.
    for aging in [0.0, 0.02e-6] {
        let tau = small_windows(aging).tau_prime_packets();
        let mut rtts: Vec<u64> = calm(60).collect();
        for below in [0, 0, 500, 0, 500] {
            rtts.extend((0..tau as u64 + 4).map(|i| 640_000 + 2_000 * i));
            let leaving = rtts[rtts.len() - tau];
            rtts.push(leaving - below);
        }
        rtts.extend(calm(30));
        against_reference(small_windows(aging), &rtts, None);
    }
}

#[test]
fn a_slide_after_a_confirmed_shift_matches_the_reference() {
    // A 2 ms upward route change at packet 95 is confirmed a shift window
    // later with its start inside the retained half of the slide at 120:
    // r̂ comes from the post-shift records alone.
    let rtts: Vec<u64> = calm(95).chain(calm(85).map(|r| r + 2_000_000)).collect();
    let events = against_reference(small_windows(0.02e-6), &rtts, None);
    let shift = events.iter().position(|e| *e == ClockEvent::UpwardShift);
    let slid_after = shift.is_some_and(|s| events[s..].contains(&ClockEvent::WindowSlid));
    assert!(slid_after, "no slide after a confirmed shift: {events:?}");
}

#[test]
fn a_restore_mid_ramp_matches_the_reference_and_its_twin() {
    let aging = 0.02e-6;
    let tau = small_windows(aging).tau_prime_packets();
    for at in [60 + tau / 2, 60 + tau + 3, 60 + 2 * tau] {
        against_reference(small_windows(aging), &rising_ramp(aging), Some(at));
    }
}

/// Checks `r̂` and every retained baseline of `h` against `r`.
fn assert_same(h: &History, r: &RefHistory, at: &str) {
    assert_eq!(h.rtt_min_c().to_bits(), r.rtt_min_c().to_bits(), "r̂ {at}");
    let got: Vec<_> = h.iter().map(|x| (x.idx, x.rbase_c.to_bits())).collect();
    let want: Vec<_> = r.iter().map(|x| (x.idx, x.rbase_c.to_bits())).collect();
    assert_eq!(got, want, "baselines {at}");
}

#[test]
fn a_slide_with_the_floor_inside_the_retained_half_rescans_from_the_floor() {
    // cap 16: the slide at packet 16 keeps 8..16. The lowest retained RTT
    // (packet 9) lies before the floor at 11, so r̂ is the minimum of
    // 11..16, not of the retained half.
    let (mut h, mut r) = (History::new(16), RefHistory::new(16));
    let rtt = |k: u64| match k {
        9 => 500_000,
        13 => 900_000,
        _ if k < 11 => 700_000 + k,
        _ => 950_000 + k,
    };
    for k in 0..24u64 {
        if k == 14 {
            h.apply_upward_shift(900_000.0, 11);
            r.apply_upward_shift(900_000.0, 11);
        }
        let e = exchange(k, rtt(k));
        assert_eq!(h.push(e), r.push(e), "push {k}");
        assert_same(&h, &r, &format!("after push {k}"));
    }
    assert_eq!(h.rtt_min_c(), 900_000.0);
}

#[test]
fn a_slide_with_no_record_at_or_after_the_floor_keeps_r_hat() {
    // A shift starting at the next packet: the slide that packet causes
    // finds no retained record at or after the floor and leaves r̂ at the
    // shift's level.
    let (mut h, mut r) = (History::new(16), RefHistory::new(16));
    for k in 0..16u64 {
        let e = exchange(k, 700_000 + 10 * k);
        assert_eq!(h.push(e), r.push(e));
    }
    h.apply_upward_shift(1_500_000.0, 16);
    r.apply_upward_shift(1_500_000.0, 16);
    let e = exchange(16, 1_600_000);
    let (_, out) = h.push(e);
    assert_eq!(r.push(e).1, out);
    assert!(out.window_slid && !out.new_minimum);
    assert_same(&h, &r, "after the slide");
    assert_eq!(h.rtt_min_c(), 1_500_000.0);
}
