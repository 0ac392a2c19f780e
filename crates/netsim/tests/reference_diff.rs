//! Statistical-equivalence differential tests: the generation fast path
//! (`--features reference` builds both) against the retained
//! pre-optimization pipeline.
//!
//! The fast path changes RNG *consumption order* in several samplers —
//! cached Box-Muller pairs in the host and server, cadence-precomputed
//! burst transitions in the paths, bridged/batched oscillator draws — so
//! traces are not bit-comparable. What must hold instead:
//!
//! * the **loss pattern** is bit-identical (the loss RNG is an independent
//!   stream no sampler change touches);
//! * per-sampler distributions match (host latency mode masses);
//! * trace-level statistics match: min-RTT approach, RTT moments, burst
//!   (congestion) fraction, delivered count.

#![cfg(feature = "reference")]

use tsc_netsim::{HostTimestamping, Scenario, SimExchange};

fn fast_and_reference(sc: &Scenario) -> (Vec<SimExchange>, Vec<SimExchange>) {
    (sc.run(), sc.run_reference())
}

fn scenario(seed: u64, poll: f64, polls: usize) -> Scenario {
    Scenario::baseline(seed)
        .with_poll_period(poll)
        .with_duration(poll * polls as f64)
}

#[test]
fn loss_pattern_is_bit_identical() {
    // Loss comes from a dedicated RNG stream keyed only by the scenario
    // seed; none of the fast-path sampler changes may perturb it.
    let mut sc = scenario(3, 16.0, 20_000);
    sc.path.loss_prob = 0.01;
    let (fast, reference) = fast_and_reference(&sc);
    assert_eq!(fast.len(), reference.len());
    for (f, r) in fast.iter().zip(&reference) {
        assert_eq!(f.lost, r.lost, "loss divergence at packet {}", f.i);
        assert_eq!(f.poll_time, r.poll_time);
    }
}

#[test]
fn min_rtt_approach_matches() {
    // §5.1 rests on RTT minima being approached closely; both pipelines
    // must approach the same floor, and the floors must agree to the
    // host-latency scale (µs), far below the paper's δ = 15 µs.
    let sc = scenario(5, 16.0, 50_000);
    let (fast, reference) = fast_and_reference(&sc);
    let min_rtt = |ex: &[SimExchange]| {
        ex.iter()
            .filter(|e| !e.lost)
            .map(|e| e.truth.rtt())
            .fold(f64::INFINITY, f64::min)
    };
    let (mf, mr) = (min_rtt(&fast), min_rtt(&reference));
    assert!(
        (mf - mr).abs() < 5e-6,
        "min-RTT floors diverged: fast {mf}, reference {mr}"
    );
}

#[test]
fn rtt_moments_match() {
    let sc = scenario(7, 16.0, 50_000);
    let (fast, reference) = fast_and_reference(&sc);
    let stats = |ex: &[SimExchange]| {
        let rtts: Vec<f64> = ex.iter().filter(|e| !e.lost).map(|e| e.truth.rtt()).collect();
        let n = rtts.len() as f64;
        let mean = rtts.iter().sum::<f64>() / n;
        let var = rtts.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    };
    let (mean_f, var_f) = stats(&fast);
    let (mean_r, var_r) = stats(&reference);
    let mean_ratio = mean_f / mean_r;
    assert!(
        (0.95..1.05).contains(&mean_ratio),
        "mean RTT ratio fast/reference = {mean_ratio}"
    );
    // Variance is dominated by rare heavy-tailed congestion spikes, so a
    // single path realization concentrates slowly: compare within 3×.
    let var_ratio = var_f / var_r;
    assert!(
        (1.0 / 3.0..3.0).contains(&var_ratio),
        "RTT variance ratio fast/reference = {var_ratio}"
    );
}

#[test]
fn burst_fraction_matches() {
    // The two-state congestion chain's stationary occupancy must survive
    // the precomputed-cadence transition probabilities. Class a packet as
    // congested when its forward queueing excess is implausible for the
    // background Exp(80 µs) alone.
    let sc = scenario(11, 16.0, 200_000);
    let (fast, reference) = fast_and_reference(&sc);
    let frac = |ex: &[SimExchange]| {
        let min = ex
            .iter()
            .map(|e| e.truth.d_fwd)
            .fold(f64::INFINITY, f64::min);
        ex.iter().filter(|e| e.truth.d_fwd > min + 0.8e-3).count() as f64 / ex.len() as f64
    };
    let (ff, fr) = (frac(&fast), frac(&reference));
    assert!(ff > 0.0 && fr > 0.0, "both must see congestion: {ff} vs {fr}");
    let ratio = ff / fr;
    assert!(
        (0.5..2.0).contains(&ratio),
        "burst fraction ratio fast/reference = {ratio} ({ff} vs {fr})"
    );
}

#[test]
fn host_latency_mode_masses_match() {
    // §2.4's three-mode mixture, fast (cached pair, no wasted draw) vs
    // reference (fresh pair per call, wasted draw on the scheduling
    // branch): the mode masses are structural and must agree tightly.
    let n = 400_000;
    let mut fast = HostTimestamping::new(13);
    let mut reference = HostTimestamping::new(13);
    let masses = |lats: &[f64]| {
        let m = |lo: f64, hi: f64| lats.iter().filter(|&&l| l >= lo && l < hi).count() as f64;
        [
            m(0.0, 7e-6) / n as f64,            // dominant mode
            m(7e-6, 20e-6) / n as f64,          // +10 µs side mode
            m(20e-6, 40e-6) / n as f64,         // +31 µs side mode
            m(100e-6, f64::INFINITY) / n as f64, // scheduling tail
        ]
    };
    let lf: Vec<f64> = (0..n).map(|_| fast.recv_latency()).collect();
    let lr: Vec<f64> = (0..n).map(|_| reference.recv_latency_reference()).collect();
    let (mf, mr) = (masses(&lf), masses(&lr));
    for (k, (a, b)) in mf.iter().zip(&mr).enumerate() {
        let tol = match k {
            0 => 0.01,      // ~0.95 mass
            3 => 1.5e-4,    // ~1e-4 mass
            _ => 0.005,     // ~0.01–0.03 masses
        };
        assert!(
            (a - b).abs() < tol,
            "mode {k} mass diverged: fast {a} vs reference {b}"
        );
    }
    // Send side: half-normal either way.
    let sf: f64 = (0..n).map(|_| fast.send_latency()).sum::<f64>() / n as f64;
    let sr: f64 = (0..n)
        .map(|_| reference.send_latency_reference())
        .sum::<f64>()
        / n as f64;
    assert!(
        ((sf / sr) - 1.0).abs() < 0.02,
        "send-latency means diverged: {sf} vs {sr}"
    );
}

#[test]
fn delivered_observables_stay_causal_and_close() {
    // End-to-end sanity at a coarse cadence (exercises the oscillator's
    // bridged long advances): per-packet observables of the fast path stay
    // causally ordered and within the same noise envelope as the
    // reference's.
    let sc = scenario(17, 1024.0, 3_000);
    let (fast, reference) = fast_and_reference(&sc);
    let spread = |ex: &[SimExchange]| {
        ex.iter()
            .filter(|e| !e.lost)
            .map(|e| e.te - e.tb)
            .sum::<f64>()
            / ex.iter().filter(|e| !e.lost).count() as f64
    };
    for e in fast.iter().filter(|e| !e.lost) {
        assert!(e.tb < e.te, "server stamps out of order at {}", e.i);
        assert!(e.tf_tsc > e.ta_tsc, "counter reads out of order at {}", e.i);
    }
    let ratio = spread(&fast) / spread(&reference);
    assert!(
        (0.8..1.25).contains(&ratio),
        "mean server residence ratio fast/reference = {ratio}"
    );
}

mod proptest_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Statistical equivalence across randomized scenario geometry:
        /// for arbitrary seeds, cadences and loss rates, the fast path's
        /// loss pattern is bit-identical and its delivered-trace summary
        /// statistics (min RTT, mean RTT) track the reference formulation.
        #[test]
        fn trace_statistics_track_reference(
            seed in 0u64..1000,
            poll_idx in 0usize..3,
            loss_prob in 0.0f64..0.02,
        ) {
            let poll = [16.0, 64.0, 256.0][poll_idx];
            let polls = (8192.0 / (poll / 16.0)) as usize; // constant CPU budget
            let mut sc = scenario(seed, poll, polls);
            sc.path.loss_prob = loss_prob;
            let (fast, reference) = fast_and_reference(&sc);
            prop_assert_eq!(fast.len(), reference.len());
            let mut min_f = f64::INFINITY;
            let mut min_r = f64::INFINITY;
            let (mut sum_f, mut sum_r, mut n) = (0.0, 0.0, 0usize);
            for (f, r) in fast.iter().zip(&reference) {
                prop_assert_eq!(f.lost, r.lost, "loss divergence at {}", f.i);
                if !f.lost {
                    min_f = min_f.min(f.truth.rtt());
                    min_r = min_r.min(r.truth.rtt());
                    sum_f += f.truth.rtt();
                    sum_r += r.truth.rtt();
                    n += 1;
                }
            }
            if n > 100 {
                prop_assert!((min_f - min_r).abs() < 50e-6,
                    "min RTT diverged: {} vs {}", min_f, min_r);
                let ratio = (sum_f / n as f64) / (sum_r / n as f64);
                prop_assert!((0.8..1.25).contains(&ratio),
                    "mean RTT ratio {}", ratio);
            }
        }
    }
}
