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
///   chain is advanced by the true elapsed time. The flip is decided by
///   `u < 1 − exp_clamped(−dt/mean)` (core's libm-free exponential), but a
///   certified bracket `x − x²/2 ≤ 1 − e^{−x} ≤ x` settles it without the
///   exponential unless `u` lands in the band between the two bounds,
///   `[x − x²/2 − s, x + s)`, `x = dt/mean`, `s ≈ 1e-12` (`flip_bracket`):
///   0.3 % of the draws of e2e `closed_loop`. Bit-identical to evaluating
///   the exponential every time. This is the original formulation and the
///   reference for the differential tests.
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
    /// `1 / mean_on`, for the exact-time chain's bracket.
    inv_mean_on: f64,
    /// `1 / mean_off`, for the exact-time chain's bracket.
    inv_mean_off: f64,
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
            inv_mean_on: 1.0 / congestion.mean_on,
            inv_mean_off: 1.0 / congestion.mean_off,
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
        let (mean, inv_mean) = if self.in_burst {
            (self.congestion.mean_on, self.inv_mean_on)
        } else {
            (self.congestion.mean_off, self.inv_mean_off)
        };
        if flips(self.rng.random::<f64>(), dt, mean, inv_mean) {
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

/// Whether the chain leaves its state over `dt` seconds, given the uniform
/// `u` and the state's mean sojourn `mean` (`inv_mean = 1 / mean`): the
/// transition probability of a two-state Markov chain, `u < 1 − e^{−dt/mean}`,
/// with the exponential evaluated only when [`flip_bracket`] cannot settle
/// it. Equal to `u < 1.0 - exp_clamped(-dt / mean)` for every input.
#[inline(always)]
fn flips(u: f64, dt: f64, mean: f64, inv_mean: f64) -> bool {
    match flip_bracket(u, dt * inv_mean) {
        Some(flip) => flip,
        None => u < 1.0 - exp_clamped(-dt / mean),
    }
}

/// Settles `u < p̂`, where `p̂ = 1.0 − exp_clamped(−dt/mean)` is the computed
/// flip probability and `x = dt · (1/mean)`, without the exponential:
/// `Some(flip)` when `u` is outside the band `[x − x²/2 − s, x + s)`,
/// `None` (evaluate `p̂`) inside it, with slack `s = 1e-12 + 1e-15·x`.
///
/// Why the answer equals `u < p̂`. In exact arithmetic, for `x ≥ 0`,
/// `x − x²/2 ≤ 1 − e^{−x} ≤ x`. Only `x < 2` matters: `u < 1` never
/// reaches the upper edge once `x ≥ 1`, and the lower edge is ≤ 0 once
/// `x ≥ 2`. There `p̂` is within `3.5e-16 + 4.5e-16·x` of `1 − e^{−x}`:
/// * `exp_clamped` is within 1.04 ulp of `e^{−y}` (`fastmath`), and an
///   ulp of a value ≤ 1 is ≤ 2.2e-16, so it is within 2.4e-16 absolute;
/// * `1 − E` is exact for `E ≥ 1/2` (Sterbenz) and rounds by at most
///   1.1e-16 otherwise;
/// * `y = fl(dt / mean)` and `x = fl(dt · fl(1/mean))` differ by ≤ 2 ulps,
///   `4.5e-16·x`, and both `1 − e^{−x}` and `x − x²/2` are 1-Lipschitz
///   on `[0, 2]`.
///
/// The slack is ≥ 1e-12, over 700× that sum for `x < 2`, and it also
/// absorbs the rounding of the two edges themselves (a few ulps of
/// values ≤ 2). A non-finite `x` (an infinite `dt`, a zero `mean`) makes
/// both edges `∞` or NaN, so both tests fail and the caller evaluates
/// `p̂`. A negative `x` (a negative `mean`) leaves the lower edge negative
/// and the upper one valid (`1 − e^{−x} ≤ x` for every real `x`), where
/// `p̂ ≤ 0 ≤ u` too.
#[inline(always)]
fn flip_bracket(u: f64, x: f64) -> Option<bool> {
    let slack = 1e-12 + 1e-15 * x;
    if u >= x + slack {
        Some(false)
    } else if u < x - 0.5 * x * x - slack {
        Some(true)
    } else {
        None
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

    /// The flip decision as the chain made it before the bracket: the
    /// exponential evaluated every time: the oracle `flips` must equal.
    fn flips_oracle(u: f64, dt: f64, mean: f64) -> bool {
        u < 1.0 - exp_clamped(-dt / mean)
    }

    /// Every congestion parameter set the crate ships: the three presets
    /// and both directions of every profile.
    fn all_congestion() -> Vec<CongestionParams> {
        let mut all = vec![
            CongestionParams::light(),
            CongestionParams::moderate(),
            CongestionParams::heavy(),
        ];
        for profile in crate::profile::ALL_PROFILES {
            let p = profile.params();
            all.extend([p.fwd_congestion, p.back_congestion]);
        }
        all
    }

    /// The mean sojourns of both chain states (`mean_on` in a burst,
    /// `mean_off` outside one) over every shipped parameter set.
    fn all_means() -> Vec<f64> {
        let mut means: Vec<f64> = all_congestion()
            .iter()
            .flat_map(|c| [c.mean_on, c.mean_off])
            .collect();
        means.sort_by(f64::total_cmp);
        means.dedup();
        means
    }

    /// `v` moved by `k` ulps (down for negative `k`).
    fn ulps(mut v: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            v = if k > 0 { v.next_up() } else { v.next_down() };
        }
        v
    }

    /// Checks `flips` against the oracle: for every shipped mean, at 0,
    /// at `n_dt + 1` log-spaced elapsed times from 1 ns to 1e5 s and at
    /// +∞, each with `u` at `p̂ ± k` ulps (k ≤ 8), at both bracket edges
    /// (± k ulps, and ± the slack), at 0 and at 1 − 2⁻⁵³; then at
    /// `n_random` random `(u, dt, mean)`, half of them with `u` drawn
    /// across the band. Returns the number of cases checked.
    fn bracket_sweep(n_dt: usize, n_random: usize) -> u64 {
        let means = all_means();
        let mut dts = vec![0.0];
        dts.extend((0..=n_dt).map(|i| 10f64.powf(-9.0 + 14.0 * i as f64 / n_dt as f64)));
        dts.push(f64::INFINITY);
        let mut cases = 0u64;
        let mut check = |u: f64, dt: f64, mean: f64| {
            if (0.0..1.0).contains(&u) {
                assert_eq!(
                    flips(u, dt, mean, 1.0 / mean),
                    flips_oracle(u, dt, mean),
                    "u {u:e} dt {dt:e} mean {mean}"
                );
                cases += 1;
            }
        };
        let one_below_one = 1.0 - f64::EPSILON / 2.0;
        for &mean in &means {
            for &dt in &dts {
                let p = 1.0 - exp_clamped(-dt / mean);
                let x = dt * (1.0 / mean);
                let slack = 1e-12 + 1e-15 * x;
                let (hi, lo) = (x + slack, x - 0.5 * x * x - slack);
                check(0.0, dt, mean);
                check(one_below_one, dt, mean);
                for centre in [p, hi, lo, hi - slack, hi + slack, lo - slack, lo + slack] {
                    for k in -8..=8 {
                        check(ulps(centre, k), dt, mean);
                    }
                }
            }
        }
        let mut rng = ChaCha12Rng::seed_from_u64(0x0B4A_C4E7);
        for i in 0..n_random {
            let mean = means[i % means.len()];
            let dt = 10f64.powf(-9.0 + 14.0 * rng.random::<f64>());
            let u = if i % 2 == 0 {
                rng.random::<f64>()
            } else {
                // Across the band and a little beyond either edge.
                let x = dt / mean;
                let (lo, hi) = (x - 0.5 * x * x - 2e-12, x + 2e-12);
                lo + (hi - lo) * rng.random::<f64>()
            };
            check(u, dt, mean);
        }
        cases
    }

    #[test]
    fn bracket_decides_the_flip_as_the_exponential_does() {
        assert!(bracket_sweep(100, 1_000_000) > 1_000_000);
    }

    /// The dense sweep, ≥ 10⁸ cases (a CI release step):
    /// `cargo test --release -p tsc-netsim --lib dense_bracket -- --ignored`.
    #[test]
    #[ignore = "dense sweep, ~1e8 cases: run in release"]
    fn dense_bracket_sweep_equals_the_exponential() {
        let cases = bracket_sweep(60_000, 20_000_000);
        assert!(cases >= 100_000_000, "only {cases} cases");
    }

    /// [`PathDelay::sample`] with the chain advanced by [`flips_oracle`].
    fn sample_with_oracle(p: &mut PathDelay, t: f64) -> f64 {
        let dt = (t - p.last_t).max(0.0);
        p.last_t = t;
        let mean = if p.in_burst {
            p.congestion.mean_on
        } else {
            p.congestion.mean_off
        };
        if flips_oracle(p.rng.random::<f64>(), dt, mean) {
            p.in_burst = !p.in_burst;
        }
        let mut q = p.bg.sample(&mut p.rng);
        if p.in_burst {
            q += p.burst.sample(&mut p.rng);
        }
        p.current_min() + q
    }

    #[test]
    fn bracketed_stream_is_bit_identical_to_the_exponential_one() {
        // 10⁶ irregular `sample(t)` calls over every shipped parameter
        // set: polls of 16–1024 s, the few ms between a request and its
        // reply, repeated instants and log-uniform gaps from 1 ns to 1e5 s.
        let sets = all_congestion();
        let per_set = 1_000_000 / sets.len();
        let mut sched = ChaCha12Rng::seed_from_u64(0x7E1A);
        for (i, &c) in sets.iter().enumerate() {
            let mut fast = PathDelay::new(1e-3, 50e-6, c, 40 + i as u64);
            let mut oracle = PathDelay::new(1e-3, 50e-6, c, 40 + i as u64);
            let mut t = 0.0;
            for n in 0..per_set {
                let r = sched.random::<f64>();
                t += if r < 0.45 {
                    16.0 * (1u32 << (n % 7)) as f64 + 1e-3 * sched.random::<f64>()
                } else if r < 0.9 {
                    1e-3 + 0.2 * sched.random::<f64>()
                } else if r < 0.95 {
                    0.0
                } else {
                    10f64.powf(-9.0 + 14.0 * sched.random::<f64>())
                };
                let (a, b) = (fast.sample(t), sample_with_oracle(&mut oracle, t));
                assert_eq!(a.to_bits(), b.to_bits(), "set {i}, call {n}, t {t}");
            }
            assert_eq!(fast.in_burst, oracle.in_burst);
        }
    }

    #[test]
    fn bracket_settles_all_but_a_sliver_at_poll_cadence() {
        // The exponential is left for the band between the two bounds,
        // about x²/2 wide: at 16 s polling that is under 1 % of the draws
        // for every shipped parameter set.
        for c in all_congestion() {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            let (mut in_burst, mut unsettled) = (false, 0u32);
            let n = 100_000;
            for _ in 0..n {
                let mean = if in_burst { c.mean_on } else { c.mean_off };
                let u = rng.random::<f64>();
                unsettled += u32::from(flip_bracket(u, 16.0 * (1.0 / mean)).is_none());
                in_burst ^= flips(u, 16.0, mean, 1.0 / mean);
            }
            let share = f64::from(unsettled) / f64::from(n);
            assert!(share < 0.01, "{c:?}: exponential on {share} of draws");
        }
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
