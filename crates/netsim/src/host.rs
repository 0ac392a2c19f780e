//! Host-side timestamping model.
//!
//! §2.2.1: timestamping "early in the driver-code" gives almost no
//! scheduling problems ("1 timestamp per 10,000, and then usually with an
//! error under 1 ms") and noise "dominated by interrupt latency" of at
//! worst ~15 µs — the paper's calibration unit `δ = 15 µs`. §2.4 resolves
//! this noise into a dominant mode at zero of width 5 µs plus side modes at
//! +10 µs and +31 µs.
//!
//! [`HostTimestamping`] reproduces that structure: on send, the raw `Ta`
//! TSC read happens slightly *before* the frame leaves; on receive, the
//! `Tf` read happens an interrupt latency *after* full arrival, with the
//! latency drawn from the three-mode mixture plus rare scheduling outliers.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, StandardNormal};
use tsc_osc::{Environment, Oscillator, TscCounter};

/// The simulated host every front end polls from: its TSC counter, driven
/// by the environment's oscillator (seed `seed · 0x9E37_79B9 + 1`,
/// wrapping), and its timestamping model (seed `seed + 3`). `build` picks
/// the oscillator formulation: [`Environment::build`], or its reference
/// twin.
pub(crate) fn seeded_host(
    environment: Environment,
    tsc_freq_hz: f64,
    seed: u64,
    build: fn(Environment, u64) -> Oscillator,
) -> (TscCounter, HostTimestamping) {
    let osc = build(environment, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    (
        TscCounter::new(tsc_freq_hz, 0, osc),
        HostTimestamping::new(seed.wrapping_add(3)),
    )
}

/// Parameters of the host timestamping latency mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Minimum driver/DMA latency common to all packets (seconds).
    pub base: f64,
    /// Width (std-dev) of the dominant latency mode (seconds).
    pub main_width: f64,
    /// Probability of the +10 µs interrupt-latency side mode.
    pub p_mode_10us: f64,
    /// Probability of the +31 µs interrupt-latency side mode.
    pub p_mode_31us: f64,
    /// Probability of a gross scheduling error (paper: ~1 / 10 000).
    pub p_scheduling: f64,
    /// Mean size of a scheduling error (seconds; paper: "usually under 1 ms").
    pub scheduling_mean: f64,
}

impl Default for HostParams {
    fn default() -> Self {
        Self {
            base: 1.5e-6,
            main_width: 1.8e-6,
            p_mode_10us: 0.030,
            p_mode_31us: 0.012,
            p_scheduling: 1e-4,
            scheduling_mean: 0.4e-3,
        }
    }
}

/// Draws send and receive timestamping latencies for the host.
///
/// The Gaussian draws are the ziggurat [`StandardNormal`] the oscillator
/// uses (one keystream word, one multiply, one table compare — no libm on
/// the per-packet path). The original Box-Muller draw-per-call formulation
/// — including its wasted Gaussian on the scheduling-error branch of
/// [`HostTimestamping::recv_latency`] — is retained behind the `reference`
/// feature for the statistical-equivalence differential tests.
#[derive(Debug)]
pub struct HostTimestamping {
    params: HostParams,
    rng: ChaCha12Rng,
}

impl HostTimestamping {
    /// Host with the default driver-level timestamping quality of the paper.
    pub fn new(seed: u64) -> Self {
        Self::with_params(HostParams::default(), seed)
    }

    /// Host with explicit latency parameters.
    pub fn with_params(params: HostParams, seed: u64) -> Self {
        Self {
            params,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x1057_57A3),
        }
    }

    fn gauss(&mut self) -> f64 {
        StandardNormal.sample(&mut self.rng)
    }

    /// Positive latency from the three-mode mixture. The Gaussian width
    /// term is only drawn on the branches that use it (the original
    /// formulation burned a pair on the scheduling-error path too).
    fn interrupt_latency(&mut self) -> f64 {
        let p = self.params;
        let u: f64 = self.rng.random();
        let centre = if u < p.p_scheduling {
            // gross scheduling error: exponential-ish, up to ~1 ms
            let e: f64 = self.rng.random::<f64>().max(1e-300);
            return p.base + p.scheduling_mean * (-e.ln());
        } else if u < p.p_scheduling + p.p_mode_31us {
            31e-6
        } else if u < p.p_scheduling + p.p_mode_31us + p.p_mode_10us {
            10e-6
        } else {
            0.0
        };
        (p.base + centre + self.gauss() * p.main_width).max(0.2e-6)
    }

    /// Latency between the raw `Ta` read and the frame's true departure.
    /// (Reading happens first, so `ta_true = t_read + send_latency`.)
    pub fn send_latency(&mut self) -> f64 {
        // Sending has no interrupt in the path: just driver + NIC queueing.
        let p = self.params;
        let g = self.gauss().abs();
        p.base + g * p.main_width
    }

    /// Latency between true full arrival and the raw `Tf` read
    /// (`tf_read = tf_true + recv_latency`): the §2.4 mixture.
    pub fn recv_latency(&mut self) -> f64 {
        self.interrupt_latency()
    }

    /// The calibration unit δ: the paper's bound on host timestamping error
    /// (15 µs).
    pub const DELTA: f64 = 15e-6;
}

/// The pre-optimization Gaussian of the host and server models: a fresh
/// Box-Muller pair per call, second value discarded.
#[cfg(feature = "reference")]
pub(crate) fn gauss_reference(rng: &mut ChaCha12Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The pre-optimization formulation, bit-identical to the original
/// implementation: [`gauss_reference`] per call and the Gaussian drawn
/// before the mixture branch.
#[cfg(feature = "reference")]
impl HostTimestamping {
    /// Original [`HostTimestamping::send_latency`].
    pub fn send_latency_reference(&mut self) -> f64 {
        let p = self.params;
        let g = gauss_reference(&mut self.rng).abs();
        p.base + g * p.main_width
    }

    /// Original [`HostTimestamping::recv_latency`], wasted draw included.
    pub fn recv_latency_reference(&mut self) -> f64 {
        let p = self.params;
        let u: f64 = self.rng.random();
        let g = gauss_reference(&mut self.rng);
        let centre = if u < p.p_scheduling {
            let e: f64 = self.rng.random::<f64>().max(1e-300);
            return p.base + p.scheduling_mean * (-e.ln());
        } else if u < p.p_scheduling + p.p_mode_31us {
            31e-6
        } else if u < p.p_scheduling + p.p_mode_31us + p.p_mode_10us {
            10e-6
        } else {
            0.0
        };
        (p.base + centre + g * p.main_width).max(0.2e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_positive() {
        let mut h = HostTimestamping::new(1);
        for _ in 0..50_000 {
            assert!(h.send_latency() > 0.0);
            assert!(h.recv_latency() > 0.0);
        }
    }

    #[test]
    fn dominant_mode_is_small() {
        let mut h = HostTimestamping::new(2);
        let lats: Vec<f64> = (0..50_000).map(|_| h.recv_latency()).collect();
        let below_7us = lats.iter().filter(|&&l| l < 7e-6).count() as f64 / lats.len() as f64;
        assert!(
            below_7us > 0.9,
            "dominant mode should hold >90% of mass, got {below_7us}"
        );
    }

    #[test]
    fn side_modes_present_at_expected_rates() {
        let mut h = HostTimestamping::new(3);
        let n = 200_000;
        let lats: Vec<f64> = (0..n).map(|_| h.recv_latency()).collect();
        let near = |c: f64| {
            lats.iter()
                .filter(|&&l| (l - (c + HostParams::default().base)).abs() < 4e-6)
                .count() as f64
                / n as f64
        };
        let at10 = near(10e-6);
        let at31 = near(31e-6);
        assert!(
            (at10 - 0.030).abs() < 0.01,
            "10µs mode rate {at10} (expected ~0.03)"
        );
        assert!(
            (at31 - 0.012).abs() < 0.006,
            "31µs mode rate {at31} (expected ~0.012)"
        );
    }

    #[test]
    fn scheduling_errors_are_rare_and_large() {
        let mut h = HostTimestamping::new(4);
        let n = 400_000;
        let big = (0..n)
            .map(|_| h.recv_latency())
            .filter(|&l| l > 100e-6)
            .count();
        let rate = big as f64 / n as f64;
        assert!(
            rate > 1e-5 && rate < 1e-3,
            "scheduling error rate {rate} (expected ~1e-4)"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = HostTimestamping::new(5);
        let mut b = HostTimestamping::new(5);
        for _ in 0..100 {
            assert_eq!(a.recv_latency(), b.recv_latency());
            assert_eq!(a.send_latency(), b.send_latency());
        }
    }

    #[test]
    fn delta_constant_matches_paper() {
        assert_eq!(HostTimestamping::DELTA, 15e-6);
    }
}
