//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use tscclock_repro::clock::reference::ReferenceClock;
use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::ntp::{LeapIndicator, Mode, NtpPacket, NtpShort, NtpTimestamp};
use tscclock_repro::stats::{
    allan_variance, percentile, Histogram, RunningStats, SlidingMin,
};

proptest! {
    /// The NTP packet codec roundtrips every representable header.
    #[test]
    fn packet_codec_roundtrip(
        leap_bits in 0u8..4,
        version in 1u8..5,
        mode_bits in 0u8..8,
        stratum in 0u8..=255,
        poll in -10i8..20,
        precision in -30i8..5,
        root_delay in any::<u32>(),
        root_dispersion in any::<u32>(),
        refid in any::<[u8; 4]>(),
        ts in any::<[u64; 4]>(),
    ) {
        let p = NtpPacket {
            leap: match leap_bits { 0 => LeapIndicator::NoWarning, 1 => LeapIndicator::LastMinute61, 2 => LeapIndicator::LastMinute59, _ => LeapIndicator::Unsynchronized },
            version,
            mode: match mode_bits { 0 => Mode::Reserved, 1 => Mode::SymmetricActive, 2 => Mode::SymmetricPassive, 3 => Mode::Client, 4 => Mode::Server, 5 => Mode::Broadcast, 6 => Mode::Control, _ => Mode::Private },
            stratum,
            poll,
            precision,
            root_delay: NtpShort(root_delay),
            root_dispersion: NtpShort(root_dispersion),
            reference_id: refid,
            reference_ts: NtpTimestamp::from_bits(ts[0]),
            origin_ts: NtpTimestamp::from_bits(ts[1]),
            receive_ts: NtpTimestamp::from_bits(ts[2]),
            transmit_ts: NtpTimestamp::from_bits(ts[3]),
        };
        let decoded = NtpPacket::decode(&p.encode()).unwrap();
        prop_assert_eq!(p, decoded);
    }

    /// Timestamp conversion roundtrips to sub-2ns over the whole era.
    #[test]
    fn ntp_timestamp_roundtrip(s in 1.0f64..4.0e9) {
        let ts = NtpTimestamp::from_ntp_seconds(s);
        prop_assert!((ts.to_ntp_seconds() - s).abs() < 2e-9);
    }

    /// Signed timestamp differences respect magnitude and antisymmetry for
    /// spans within half an era.
    #[test]
    fn ntp_timestamp_diff_antisymmetric(a in 0.0f64..1e9, d in -1e8f64..1e8) {
        let ta = NtpTimestamp::from_ntp_seconds(1e9 + a);
        let tb = NtpTimestamp::from_ntp_seconds(1e9 + a + d);
        let fwd = tb.diff_seconds(ta);
        let back = ta.diff_seconds(tb);
        // tolerance: the f64 inputs near 1e9 s carry ~1.2e-7 s of ULP noise
        prop_assert!((fwd - d).abs() < 5e-7);
        prop_assert!((fwd + back).abs() < 5e-7);
    }

    /// SlidingMin always equals the brute-force window minimum.
    #[test]
    fn sliding_min_matches_naive(
        cap in 1usize..50,
        xs in prop::collection::vec(-1e6f64..1e6, 1..300),
    ) {
        let mut w = SlidingMin::new(cap);
        for (i, &x) in xs.iter().enumerate() {
            w.push(x);
            let lo = i.saturating_sub(cap - 1);
            let naive = xs[lo..=i].iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(w.get(), Some(naive));
        }
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn percentile_monotone_and_bounded(
        xs in prop::collection::vec(-1e9f64..1e9, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).unwrap();
        let b = percentile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    /// Allan variance is non-negative and invariant under adding any linear
    /// phase ramp (constant skew is invisible to stability analysis).
    #[test]
    fn allan_invariant_to_linear_ramp(
        xs in prop::collection::vec(-1e-3f64..1e-3, 10..200),
        slope in -1e-3f64..1e-3,
        m in 1usize..5,
    ) {
        prop_assume!(xs.len() > 2 * m);
        let base = allan_variance(&xs, 1.0, m).unwrap();
        prop_assert!(base >= 0.0);
        let ramped: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| x + slope * i as f64).collect();
        let with_ramp = allan_variance(&ramped, 1.0, m).unwrap();
        prop_assert!((base - with_ramp).abs() <= 1e-12 + base * 1e-6);
    }

    /// Histogram conserves counts: total = in-range + under + over.
    #[test]
    fn histogram_conserves_mass(
        xs in prop::collection::vec(-10.0f64..10.0, 0..300),
        nbins in 1usize..40,
    ) {
        let mut h = Histogram::new(-5.0, 5.0, nbins);
        for &x in &xs {
            h.add(x);
        }
        let in_range: u64 = h.counts().iter().sum();
        prop_assert_eq!(h.total(), in_range + h.underflow() + h.overflow());
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    /// RunningStats min ≤ mean ≤ max, and merge equals sequential.
    #[test]
    fn running_stats_invariants(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let all: RunningStats = xs.iter().copied().collect();
        prop_assert!(all.min() <= all.mean() + 1e-9);
        prop_assert!(all.mean() <= all.max() + 1e-9);
        let mut a: RunningStats = xs[..split].iter().copied().collect();
        let b: RunningStats = xs[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
    }

    /// RTT in counts survives arbitrary counter values including wraps.
    #[test]
    fn rtt_counts_wrapping(ta in any::<u64>(), delta in 1u64..1_000_000_000) {
        let e = RawExchange {
            ta_tsc: ta,
            tb: 0.0,
            te: 0.0,
            tf_tsc: ta.wrapping_add(delta),
        };
        prop_assert_eq!(e.rtt_counts(), delta);
    }

    /// Feeding the clock arbitrary well-formed exchange streams never
    /// panics and keeps every estimate finite.
    #[test]
    fn clock_never_panics_on_plausible_streams(
        seed_delays in prop::collection::vec((0.0f64..20e-3, 0.0f64..20e-3, 0.0f64..5e-3), 10..120),
    ) {
        let p_true = 1.0000524e-9;
        let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
        for (k, &(qf, qb, serr)) in seed_delays.iter().enumerate() {
            let t = (k + 1) as f64 * 16.0;
            let d = 450e-6;
            let e = RawExchange {
                ta_tsc: (t / p_true) as u64,
                tb: t + d + qf + serr,
                te: t + d + qf + serr + 20e-6,
                tf_tsc: ((t + 2.0 * d + 20e-6 + qf + qb) / p_true) as u64,
            };
            if let Some(out) = clock.process(e) {
                prop_assert!(out.p_hat.is_finite() && out.p_hat > 0.0);
                prop_assert!(out.theta_hat.is_finite());
                prop_assert!(out.rtt.is_finite() && out.rtt > 0.0);
            }
        }
        let s = clock.status();
        if let Some(p) = s.p_hat {
            // even adversarial queueing cannot push the rate estimate far:
            // the physically-true period is ~1e-9
            prop_assert!(p > 0.5e-9 && p < 2e-9, "rate estimate diverged: {}", p);
        }
    }

    /// The NtpShort 16.16 format roundtrips within one LSB.
    #[test]
    fn ntp_short_roundtrip(s in 0.0f64..65_000.0) {
        let v = NtpShort::from_seconds(s);
        prop_assert!((v.to_seconds() - s).abs() <= 1.0 / 65_536.0);
    }

    /// Differential test: the optimized O(1)-amortized pipeline must produce
    /// the same estimates as the preserved pre-optimization reference
    /// pipeline (naive full-window rescans) on arbitrary plausible streams.
    ///
    /// The configuration shrinks every window so a few hundred packets
    /// exercise all the rework's machinery: top-window slides (min-deque
    /// recomputation + rate-pair j replacement), new-minimum re-basing
    /// (era/min-event suffix tables vs eager sweeps), upward-shift
    /// detection and re-basing (era reassignment), local-rate sub-window
    /// selection, offset fallback/gap paths, and the fused weighted pass.
    #[test]
    fn optimized_pipeline_matches_reference(
        seed_delays in prop::collection::vec(
            (0.0f64..10e-3, 0.0f64..10e-3, 0.0f64..2e-3), 50..400),
        shift_at in 60usize..200,
        shift_ms in 0.5f64..3.0,
        gap_at in 40usize..200,
        gap_s in 0.0f64..40_000.0,
        use_local_rate in any::<bool>(),
    ) {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        // Shrink every window so slides/shifts happen within a short run.
        cfg.top_window = 80.0 * 16.0;      // top window: 80 packets
        cfg.ts_window = 20.0 * 16.0;       // shift window: 20 packets
        cfg.tau_prime = 16.0 * 16.0;       // offset window: 16 packets
        cfg.tau_bar = 32.0 * 16.0;         // local-rate window: 32 packets
        cfg.w_split = 4;
        cfg.warmup_packets = 16;
        cfg.use_local_rate = use_local_rate;
        differential_case(cfg, &seed_delays, shift_at, shift_ms, gap_at, gap_s)?;
    }

    /// Same differential property on a *coarse-poll geometry*: τ′ collapses
    /// to 2 packets (the offset estimator's stack-buffer path instead of
    /// the ring cache), the local-rate sub-windows to near 1 / far 2
    /// packets (the narrowest scans), and the shift window sits at the
    /// `MIN_TS_PACKETS` floor.
    /// The reference pipeline keeps independent dense implementations of
    /// the history, offset and local-rate stages, so this pins those fast
    /// paths' bit-exactness, not just their self-consistency. (The shift
    /// *detector* is shared by both pipelines; its own parked-vs-dense
    /// differential tests — including one with drifting p̂/r̂ — live in
    /// `tscclock::shift`.)
    #[test]
    fn coarse_poll_fast_paths_match_reference(
        seed_delays in prop::collection::vec(
            (0.0f64..10e-3, 0.0f64..10e-3, 0.0f64..2e-3), 50..400),
        shift_at in 60usize..200,
        shift_ms in 0.5f64..3.0,
        gap_at in 40usize..200,
        gap_s in 0.0f64..40_000.0,
        use_local_rate in any::<bool>(),
    ) {
        let mut cfg = ClockConfig::paper_defaults(16.0);
        cfg.top_window = 80.0 * 16.0;      // top window: 80 packets
        cfg.ts_window = 4.0 * 16.0;        // floored up to MIN_TS_PACKETS
        cfg.tau_prime = 2.0 * 16.0;        // offset window: 2 packets
        cfg.tau_bar = 30.0 * 16.0;         // near 1 / far 2 sub-windows
        cfg.w_split = 30;
        cfg.warmup_packets = 16;
        cfg.use_local_rate = use_local_rate;
        differential_case(cfg, &seed_delays, shift_at, shift_ms, gap_at, gap_s)?;
    }
}

/// Drives the optimized and reference pipelines over one generated stream
/// (queueing noise, a permanent upward route change, a data gap) and
/// asserts estimate parity packet by packet.
fn differential_case(
    cfg: ClockConfig,
    seed_delays: &[(f64, f64, f64)],
    shift_at: usize,
    shift_ms: f64,
    gap_at: usize,
    gap_s: f64,
) -> Result<(), proptest::TestCaseError> {
    let p_true = 1.0000524e-9;
    let mut optimized = TscNtpClock::new(cfg);
    let mut reference = ReferenceClock::new(cfg);
    let mut t = 0.0f64;
    for (k, &(qf, qb, serr)) in seed_delays.iter().enumerate() {
        t += 16.0;
        if k == gap_at {
            t += gap_s; // server outage: the §6.1 gap paths
        }
        // permanent upward route change at shift_at
        let d = 450e-6 + if k >= shift_at { shift_ms * 1e-3 / 2.0 } else { 0.0 };
        let e = RawExchange {
            ta_tsc: (t / p_true) as u64,
            tb: t + d + qf + serr,
            te: t + d + qf + serr + 20e-6,
            tf_tsc: ((t + 2.0 * d + 20e-6 + qf + qb) / p_true) as u64,
        };
        let a = optimized.process(e);
        let b = reference.process(e);
        prop_assert_eq!(a.is_some(), b.is_some(), "admission diverged at {}", k);
        let (Some(a), Some(b)) = (a, b) else { continue };
        // Rate, point-error and naive-offset paths contain no
        // reassociated arithmetic, so they must agree BIT-EXACTLY.
        prop_assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(),
            "p_hat diverged at {}: {:e} vs {:e}", k, a.p_hat, b.p_hat);
        prop_assert_eq!(a.point_error.to_bits(), b.point_error.to_bits(),
            "point_error diverged at {}: {:e} vs {:e}", k, a.point_error, b.point_error);
        prop_assert_eq!(a.theta_naive.to_bits(), b.theta_naive.to_bits(),
            "theta_naive diverged at {}", k);
        prop_assert_eq!(a.p_local.is_some(), b.p_local.is_some(),
            "local-rate activation diverged at {}", k);
        if let (Some(pa), Some(pb)) = (a.p_local, b.p_local) {
            prop_assert_eq!(pa.to_bits(), pb.to_bits(), "p_local diverged at {}", k);
        }
        // θ̂ runs through the vectorized weight kernel (reassociated
        // sums, fast exp, FMA contraction) and carries estimates
        // forward across packets, so ulp-level differences accumulate
        // along chains: allow 1e-12 relative with a 50 ps absolute
        // floor — five orders of magnitude below the paper's µs-scale
        // clock errors.
        let close = |x: f64, y: f64| {
            x == y || (x - y).abs() <= 1e-12 * x.abs().max(y.abs()) + 5e-11
        };
        prop_assert!(close(a.theta_hat, b.theta_hat),
            "theta_hat diverged at {}: {:e} vs {:e}", k, a.theta_hat, b.theta_hat);
    }
    // Every retained record's resolved point error must match the
    // eagerly re-based reference history, record by record.
    let p = optimized.status().p_hat.unwrap_or(p_true);
    let opt_hist = optimized.history();
    for rb in reference.history().iter() {
        let ra = opt_hist.get(rb.idx).expect("same retention");
        let (ea, eb) = (ra.point_error(p), rb.point_error(p));
        prop_assert_eq!(
            ea.to_bits(), eb.to_bits(),
            "stored point error diverged at idx {}: {:e} vs {:e}", rb.idx, ea, eb
        );
    }
    Ok(())
}
