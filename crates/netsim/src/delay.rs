//! One-way path delay models.
//!
//! §3.2 decomposes each delay into a deterministic minimum plus a positive
//! variable component (equations (12)–(15)): `d→ = d→_min + q→`, etc. The
//! minimum "could correspond to propagation delay, and the random component
//! to queueing in network switching elements, which ... can take 10's of
//! milliseconds during periods of congestion."
//!
//! [`PathDelay`] implements exactly that: a (shiftable) minimum plus
//! queueing noise drawn from a light-tailed background component and a
//! bursty congestion component — a two-state modulated process so that
//! congestion arrives in *episodes*, as it does on real paths, rather than
//! i.i.d. spikes.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, Exp, Pareto};
use tscclock::fastmath::exp_clamped;

/// Parameters of the bursty congestion component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionParams {
    /// Mean time between congestion episodes (seconds of off time).
    pub mean_off: f64,
    /// Mean episode duration (seconds).
    pub mean_on: f64,
    /// Pareto scale of episode queueing delay (seconds).
    pub scale: f64,
    /// Pareto tail index (1 < shape; smaller = heavier tail).
    pub shape: f64,
}

impl CongestionParams {
    /// A lightly loaded LAN-like path.
    pub fn light() -> Self {
        Self {
            mean_off: 1800.0,
            mean_on: 60.0,
            scale: 0.2e-3,
            shape: 1.8,
        }
    }

    /// A busier multi-hop path.
    pub fn moderate() -> Self {
        Self {
            mean_off: 900.0,
            mean_on: 120.0,
            scale: 0.8e-3,
            shape: 1.5,
        }
    }

    /// A long, congested WAN path.
    pub fn heavy() -> Self {
        Self {
            mean_off: 600.0,
            mean_on: 240.0,
            scale: 2.0e-3,
            shape: 1.4,
        }
    }
}

/// A one-way path: deterministic minimum + positive queueing noise.
///
/// Two sampling front-ends share the same stochastic state:
///
/// * [`PathDelay::sample`] — exact-time evolution: the two-state congestion
///   chain is advanced by the true elapsed time, which costs one
///   `exp_clamped` (core's libm-free exponential) per sample. This is the
///   original formulation and the reference for the differential tests.
/// * [`PathDelay::sample_cadenced`] — the generation fast path: the chain
///   advances by one *fixed* cadence tick whose transition probabilities
///   were precomputed once by [`PathDelay::set_cadence`]. NTP polling is
///   periodic, so the elapsed time between samples differs from the poll
///   period only by µs-scale latency jitter — utterly negligible against
///   episode time constants of minutes — and the per-sample exponential
///   disappears. Statistically equivalent, not bit-identical (the flip
///   thresholds differ in the ~1e-7 relative digit).
#[derive(Debug)]
pub struct PathDelay {
    base_min: f64,
    shift: f64,
    /// Deficit of the last `set_shift` (0 when it applied unclamped).
    shift_clamped_by: f64,
    congestion: CongestionParams,
    bg: Exp<f64>,
    burst: Pareto<f64>,
    in_burst: bool,
    last_t: f64,
    /// The fixed cadence tick length (seconds); NaN until `set_cadence`.
    cad_dt: f64,
    /// Precomputed `1 − exp(−dt/mean_on)` for the fixed cadence.
    cad_p_on: f64,
    /// Precomputed `1 − exp(−dt/mean_off)` for the fixed cadence.
    cad_p_off: f64,
    rng: ChaCha12Rng,
}

impl PathDelay {
    /// Creates a path with minimum delay `min_delay` seconds, background
    /// (always-present) queueing with exponential mean `bg_mean`, and the
    /// given congestion episode parameters.
    pub fn new(min_delay: f64, bg_mean: f64, congestion: CongestionParams, seed: u64) -> Self {
        assert!(min_delay >= 0.0 && bg_mean > 0.0, "invalid path params");
        assert!(
            congestion.shape > 1.0 && congestion.scale > 0.0,
            "invalid congestion params"
        );
        Self {
            base_min: min_delay,
            shift: 0.0,
            shift_clamped_by: 0.0,
            congestion,
            bg: Exp::new(1.0 / bg_mean).expect("valid rate"),
            burst: Pareto::new(congestion.scale, congestion.shape).expect("valid pareto"),
            in_burst: false,
            last_t: 0.0,
            cad_dt: f64::NAN,
            cad_p_on: f64::NAN,
            cad_p_off: f64::NAN,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x9A7D_E1A9),
        }
    }

    /// Precomputes the two-state Markov transition probabilities for a
    /// fixed inter-sample cadence of `dt` seconds, enabling
    /// [`PathDelay::sample_cadenced`].
    pub fn set_cadence(&mut self, dt: f64) {
        assert!(dt > 0.0, "cadence must be positive");
        self.cad_dt = dt;
        self.cad_p_on = 1.0 - exp_clamped(-dt / self.congestion.mean_on);
        self.cad_p_off = 1.0 - exp_clamped(-dt / self.congestion.mean_off);
    }

    /// Samples the one-way delay for the next packet of a fixed-cadence
    /// schedule, advancing the congestion chain by one precomputed tick
    /// ([`PathDelay::set_cadence`] must have been called). Same RNG draw
    /// order as [`PathDelay::sample`]: one uniform for the chain, one
    /// exponential for background queueing, plus a Pareto excess inside
    /// congestion episodes.
    pub fn sample_cadenced(&mut self) -> f64 {
        // Hard assert: with NaN probabilities the `<` below would be
        // always-false and the chain would silently never enter
        // congestion — a model-breaking failure worth one predictable
        // branch per sample.
        assert!(
            !self.cad_p_on.is_nan(),
            "set_cadence must be called before sample_cadenced"
        );
        let p_flip = if self.in_burst { self.cad_p_on } else { self.cad_p_off };
        if self.rng.random::<f64>() < p_flip {
            self.in_burst = !self.in_burst;
        }
        // Keep the exact-time front-end's clock coherent, so interleaving
        // `sample(t)` after cadenced sampling sees the true elapsed time
        // rather than a stale origin.
        self.last_t += self.cad_dt;
        let mut q = self.bg.sample(&mut self.rng);
        if self.in_burst {
            q += self.burst.sample(&mut self.rng);
        }
        self.current_min() + q
    }

    /// Current effective minimum delay (base + any active level shift).
    pub fn current_min(&self) -> f64 {
        self.base_min + self.shift
    }

    /// Applies a level shift of `delta` seconds (may be negative; the
    /// effective minimum is floored at zero). A floored shift is recorded
    /// as *clamped* — [`PathDelay::shift_clamped_by`] reports the deficit
    /// so schedule validators ([`crate::ServerPath::clamp_warnings`]) can
    /// flag half-applied faults instead of shipping them silently.
    pub fn set_shift(&mut self, delta: f64) {
        self.shift = delta.max(-self.base_min);
        self.shift_clamped_by = self.shift - delta;
    }

    /// How much of the last requested shift the zero floor swallowed
    /// (≥ 0; `0` when the shift applied in full). An asymmetric fault
    /// whose negative leg is clamped leaks exactly this amount into the
    /// RTT — the regression tests pin that value.
    pub fn shift_clamped_by(&self) -> f64 {
        self.shift_clamped_by
    }

    /// Evolves the two-state congestion chain from `last_t` to `t`.
    fn update_burst_state(&mut self, t: f64) {
        let dt = (t - self.last_t).max(0.0);
        self.last_t = t;
        // Transition probabilities over dt for a two-state Markov chain.
        let p_flip = if self.in_burst {
            1.0 - exp_clamped(-dt / self.congestion.mean_on)
        } else {
            1.0 - exp_clamped(-dt / self.congestion.mean_off)
        };
        if self.rng.random::<f64>() < p_flip {
            self.in_burst = !self.in_burst;
        }
    }

    /// Samples the one-way delay for a packet entering the path at true
    /// time `t` (must be non-decreasing across calls).
    pub fn sample(&mut self, t: f64) -> f64 {
        self.update_burst_state(t);
        let mut q = self.bg.sample(&mut self.rng);
        if self.in_burst {
            // Pareto(scale, shape) samples are ≥ scale: a heavy-tailed
            // excess on top of an elevated (`scale`) base for the episode.
            q += self.burst.sample(&mut self.rng);
        }
        self.current_min() + q
    }
}

/// The pre-optimization sampler, preserving the original floating-point
/// arithmetic exactly: the burst excess was accumulated as
/// `(q + (burst − scale)) + scale`, which differs from the simplified
/// `q + burst` in the last ulp on ~9% of congested draws — enough to
/// break the reference pipeline's bit-identity claim if shared.
#[cfg(feature = "reference")]
impl PathDelay {
    /// Original [`PathDelay::sample`], bit-identical to the pre-PR
    /// implementation for the same seed and call sequence.
    pub fn sample_reference(&mut self, t: f64) -> f64 {
        self.update_burst_state(t);
        let mut q = self.bg.sample(&mut self.rng);
        if self.in_burst {
            q += self.burst.sample(&mut self.rng) - self.congestion.scale;
            q += self.congestion.scale;
        }
        self.current_min() + q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(seed: u64) -> PathDelay {
        PathDelay::new(1e-3, 50e-6, CongestionParams::moderate(), seed)
    }

    #[test]
    fn delay_never_below_minimum() {
        let mut p = path(1);
        for i in 0..50_000 {
            let d = p.sample(i as f64 * 16.0);
            assert!(d >= 1e-3, "delay {d} below minimum");
        }
    }

    #[test]
    fn minimum_is_approached() {
        let mut p = path(2);
        let mut min_seen = f64::INFINITY;
        for i in 0..20_000 {
            min_seen = min_seen.min(p.sample(i as f64 * 16.0));
        }
        // with Exp(50µs) background the minimum should be approached closely
        assert!(
            min_seen - 1e-3 < 10e-6,
            "minimum not approached: excess {}",
            min_seen - 1e-3
        );
    }

    #[test]
    fn congestion_episodes_occur_and_are_heavy() {
        let mut p = path(3);
        let mut burst_samples = Vec::new();
        let mut calm_samples = Vec::new();
        for i in 0..200_000 {
            let d = p.sample(i as f64 * 16.0);
            if p.in_burst {
                burst_samples.push(d);
            } else {
                calm_samples.push(d);
            }
        }
        assert!(
            !burst_samples.is_empty() && !calm_samples.is_empty(),
            "both regimes must occur"
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&burst_samples) > 3.0 * mean(&calm_samples),
            "congestion should inflate delays: {} vs {}",
            mean(&burst_samples),
            mean(&calm_samples)
        );
        // episodes are sustained: fraction in burst should be near
        // mean_on/(mean_on+mean_off) ≈ 0.12, not ~0 or ~1
        let frac = burst_samples.len() as f64 / 200_000.0;
        assert!(frac > 0.02 && frac < 0.4, "burst fraction {frac}");
    }

    #[test]
    fn level_shift_moves_minimum() {
        let mut p = path(4);
        p.set_shift(0.9e-3);
        assert!((p.current_min() - 1.9e-3).abs() < 1e-12);
        for i in 0..1000 {
            assert!(p.sample(i as f64) >= 1.9e-3);
        }
        p.set_shift(-0.36e-3);
        assert!((p.current_min() - 0.64e-3).abs() < 1e-12);
    }

    #[test]
    fn shift_cannot_make_negative_minimum() {
        let mut p = path(5);
        p.set_shift(-10.0);
        assert_eq!(p.current_min(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = path(6);
        let mut b = path(6);
        for i in 0..100 {
            assert_eq!(a.sample(i as f64 * 16.0), b.sample(i as f64 * 16.0));
        }
    }

    #[test]
    fn cadenced_sampling_matches_exact_time_statistics() {
        // The precomputed-cadence fast path must reproduce the exact-time
        // formulation's stationary behaviour: same burst occupancy, same
        // delay mean, same minimum, to within sampling error over 200k
        // draws at the matching fixed cadence.
        let n = 200_000;
        let stats = |samples: Vec<(f64, bool)>| {
            let mean = samples.iter().map(|(d, _)| d).sum::<f64>() / n as f64;
            let burst = samples.iter().filter(|(_, b)| *b).count() as f64 / n as f64;
            let min = samples.iter().map(|(d, _)| *d).fold(f64::INFINITY, f64::min);
            (mean, burst, min)
        };
        let mut exact = path(8);
        let exact_samples: Vec<_> = (0..n)
            .map(|i| {
                let d = exact.sample(i as f64 * 16.0);
                (d, exact.in_burst)
            })
            .collect();
        let mut cad = path(9);
        cad.set_cadence(16.0);
        let cad_samples: Vec<_> = (0..n)
            .map(|_| {
                let d = cad.sample_cadenced();
                (d, cad.in_burst)
            })
            .collect();
        let (mean_e, burst_e, min_e) = stats(exact_samples);
        let (mean_c, burst_c, min_c) = stats(cad_samples);
        assert!(
            (mean_c / mean_e - 1.0).abs() < 0.25,
            "mean delay diverged: cadenced {mean_c} vs exact {mean_e}"
        );
        assert!(
            (burst_c / burst_e - 1.0).abs() < 0.35,
            "burst occupancy diverged: cadenced {burst_c} vs exact {burst_e}"
        );
        assert!((min_c - min_e).abs() < 5e-6, "minima diverged: {min_c} vs {min_e}");
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_rejected() {
        path(10).set_cadence(0.0);
    }

    #[test]
    fn cadenced_sampling_advances_the_exact_time_clock() {
        // Interleaving the two front-ends must not hand the exact-time
        // chain a stale origin: after N cadenced ticks the internal clock
        // sits at N·dt, so a following `sample(t)` evolves by the true
        // remaining elapsed time only.
        let mut mixed = path(11);
        mixed.set_cadence(16.0);
        for _ in 0..10 {
            mixed.sample_cadenced();
        }
        // Must behave like a path whose chain was advanced to t = 160 s;
        // sampling at 176 s is one further 16 s step either way.
        let d = mixed.sample(176.0);
        assert!(d >= mixed.current_min());
    }

    #[test]
    fn presets_are_ordered_by_severity() {
        let l = CongestionParams::light();
        let m = CongestionParams::moderate();
        let h = CongestionParams::heavy();
        assert!(l.scale < m.scale && m.scale < h.scale);
        assert!(l.mean_on < m.mean_on && m.mean_on < h.mean_on);
        assert!(l.shape > m.shape && m.shape > h.shape);
    }
}
