//! The composite oscillator: integrates frequency components into time error.

use crate::components::Component;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::StandardNormal;

/// A simulated oscillator whose accumulated time error is the integral of a
/// sum of [`Component`]s.
///
/// The oscillator exposes *oscillator time* `t + x(t)` where `x(t)` is the
/// accumulated error. A perfect oscillator has `x(t) = 0`; the paper's
/// general model (equation (3)) is `x(t) = θ0 + γ·t + ω(t)` and the
/// components provide `γ` and `ω`.
///
/// Time only moves forward. [`Oscillator::advance_to`] integrates the
/// *deterministic* components (constant skew, aging, fixed-period sinusoid)
/// in closed form over the whole requested interval, and sub-steps only the
/// *stochastic* components (bounded random walk, wandering-period sinusoid,
/// white FM) at `max_step` seconds, so that their noise is sampled finely
/// enough even when the caller polls rarely (e.g. a 1024 s NTP period).
/// All randomness of a long stochastic advance — ziggurat Gaussian words
/// and the wandering sinusoid's uniforms — is pre-drawn in one batched
/// keystream read (`ChaCha12Rng::fill_u64`).
///
/// An advance of at most `max_step` — every advance of a schedule polling
/// at 16 s or faster, and the second counter read of any packet — takes a
/// single-sub-step fast path: one straight-line pass over the stochastic
/// components with one shared `√Δt` and inline keystream draws, none of
/// the sub-step geometry (`ceil`/`floor`, word counting, batching). It is
/// bit-identical to the general loop, in `x(t)` and in keystream position,
/// because it stands aside wherever that loop would not do exactly one
/// inline-drawn sub-step per component: (1) `Δt > max_step`; (2)
/// `BATCH_THRESHOLD` or more stochastic components, where even one
/// sub-step pre-draws through `fill_u64` and ziggurat wedge/tail
/// completions therefore read the keystream later; (3) `t0 + (t − t0)`
/// rounding below `t`, where the general loop takes a second, ~1e-16 s
/// sub-step and a keystream word with it. `tests/generator_golden.rs`
/// pins the stream across all three.
///
/// The pre-optimization formulation — every component stepped every
/// sub-step, Box-Muller Gaussians — is retained behind the `reference`
/// feature ([`Oscillator::new_reference`]) and is bit-identical to the
/// original implementation; differential tests prove the fast path agrees
/// (bit-near for deterministic component sets, statistically for
/// stochastic ones).
pub struct Oscillator {
    components: Vec<Component>,
    rng: ChaCha12Rng,
    t: f64,
    x: f64,
    max_step: f64,
    /// Indices into `components` of the stochastic members — the fast
    /// integration loop touches only these.
    stoch_idx: Vec<u32>,
    /// Σ of constant-skew `γ` terms (folded at construction; a constant
    /// contributes `γ·dt` per advance with no per-component dispatch).
    gamma_total: f64,
    /// Σ of linear-aging rates (contributes `rate·(t₀ + dt/2)·dt`).
    aging_total: f64,
    /// Indices of fixed-period sinusoids — the only deterministic
    /// components with per-advance state.
    fixed_sin_idx: Vec<u32>,
    /// Reusable buffer for the batched keystream pre-draw.
    words: Vec<u64>,
    #[cfg(feature = "reference")]
    reference: bool,
}

impl std::fmt::Debug for Oscillator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oscillator")
            .field("t", &self.t)
            .field("x", &self.x)
            .field("max_step", &self.max_step)
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Pre-draw keystream words in one batched read only when a single
/// `advance_to` needs at least this many (short advances — the per-poll
/// common case — draw inline; the buffer costs more than it saves there).
const BATCH_THRESHOLD: usize = 8;

impl Oscillator {
    /// Default integration sub-step (seconds). 16 s matches the paper's
    /// densest polling period, so stochastic components are always sampled
    /// at least that finely.
    pub const DEFAULT_MAX_STEP: f64 = 16.0;

    /// Creates an oscillator from components and a deterministic seed.
    pub fn new(components: Vec<Component>, seed: u64) -> Self {
        let stoch_idx = components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_stochastic())
            .map(|(i, _)| i as u32)
            .collect();
        let gamma_total = components
            .iter()
            .filter_map(|c| match c {
                Component::Skew(s) => Some(s.gamma),
                _ => None,
            })
            .sum();
        let aging_total = components
            .iter()
            .filter_map(|c| match c {
                Component::Aging(a) => Some(a.rate),
                _ => None,
            })
            .sum();
        let fixed_sin_idx = components
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Component::Sinusoid(s) if !s.is_wandering()))
            .map(|(i, _)| i as u32)
            .collect();
        Self {
            components,
            rng: ChaCha12Rng::seed_from_u64(seed),
            t: 0.0,
            x: 0.0,
            max_step: Self::DEFAULT_MAX_STEP,
            stoch_idx,
            gamma_total,
            aging_total,
            fixed_sin_idx,
            words: Vec::new(),
            #[cfg(feature = "reference")]
            reference: false,
        }
    }

    /// The pre-optimization oscillator: every component is stepped every
    /// sub-step with Box-Muller Gaussians — bit-identical to the original
    /// implementation for the same components and seed. Exists so the
    /// differential tests can compare the fast path against it.
    #[cfg(feature = "reference")]
    pub fn new_reference(components: Vec<Component>, seed: u64) -> Self {
        Self {
            reference: true,
            ..Self::new(components, seed)
        }
    }

    /// Overrides the integration sub-step (mainly for tests/benches).
    pub fn with_max_step(mut self, max_step: f64) -> Self {
        assert!(max_step > 0.0, "max_step must be positive");
        self.max_step = max_step;
        self
    }

    /// Advances true time to `t` (no-op when `t` is in the past) and returns
    /// the accumulated time error `x(t)`.
    pub fn advance_to(&mut self, t: f64) -> f64 {
        #[cfg(feature = "reference")]
        if self.reference {
            return self.advance_to_reference(t);
        }
        if t <= self.t {
            return self.x;
        }
        let t0 = self.t;
        let dt_total = t - t0;

        // Deterministic components: exact closed-form integral over the
        // whole interval (the per-sub-step means of the reference loop
        // telescope to the same value). Skew and aging terms were folded
        // into two constants at construction — one fused expression, no
        // component scan; only fixed sinusoids carry per-advance state.
        // ∫ rate·s ds over [t0, t] = rate·(t0 + dt/2)·dt.
        self.x += (self.gamma_total + self.aging_total * (t0 + 0.5 * dt_total)) * dt_total;
        for &ci in &self.fixed_sin_idx {
            if let Component::Sinusoid(s) = &mut self.components[ci as usize] {
                self.x += s.integrate_fixed(dt_total);
            }
        }

        // Single-sub-step fast path: what the general loop below does for
        // one inline-drawn sub-step per component, bit for bit. The three
        // guards (see the type docs) are the cases where it does more.
        if dt_total <= self.max_step
            && self.stoch_idx.len() < BATCH_THRESHOLD
            && t0 + dt_total >= t
        {
            let sqrt_dt = dt_total.sqrt();
            let rng = &mut self.rng;
            let mut x_acc = 0.0;
            for &ci in &self.stoch_idx {
                let bits = rng.next_u64();
                x_acc += match &mut self.components[ci as usize] {
                    Component::RandomWalk(w) => {
                        w.apply_z(sqrt_dt, StandardNormal.sample_with_word(rng, bits))
                    }
                    Component::WhiteFm(w) => {
                        w.apply_z(sqrt_dt, StandardNormal.sample_with_word(rng, bits))
                    }
                    Component::Sinusoid(s) => {
                        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        s.step_wander_fast(dt_total, sqrt_dt, u)
                    }
                    _ => unreachable!("stoch_idx holds only stochastic components"),
                } * dt_total;
            }
            self.x += x_acc;
            self.t = t;
            return self.x;
        }

        // Stochastic components, integrated component-major over the whole
        // advance. The reference sub-steps everything at `max_step`; here
        // only the wandering sinusoid still walks sub-step by sub-step
        // (its period state enters nonlinearly) — the white-FM and
        // random-walk integrals over the sub-stepped interval are jointly
        // Gaussian with closed-form (co)variances, so they are drawn
        // exactly with 1 and ≤3 Gaussians per advance respectively,
        // regardless of the number of sub-steps. All keystream words for
        // the advance come from one batched read; rare ziggurat
        // wedge/tail cases complete with direct draws.
        if !self.stoch_idx.is_empty() {
            let ratio = dt_total / self.max_step;
            let substeps = (ratio.ceil() as usize).max(1);
            // Full/partial sub-step decomposition for the bridge draws.
            let m_full = ratio.floor() as usize;
            let dt_p = dt_total - m_full as f64 * self.max_step;
            // `substeps · |stoch|` over-counts (bridged components use ≤3
            // words however long the advance) but is free to compute; the
            // exact per-component count is only needed when it decides to
            // batch.
            if substeps * self.stoch_idx.len() >= BATCH_THRESHOLD {
                let rw_words = if substeps == 1 {
                    1
                } else {
                    1 + usize::from(m_full >= 2) + usize::from(dt_p > 0.0)
                };
                let needed: usize = self
                    .components
                    .iter()
                    .map(|c| match c {
                        Component::RandomWalk(_) => rw_words,
                        Component::WhiteFm(_) => 1,
                        Component::Sinusoid(s) if s.is_wandering() => substeps,
                        _ => 0,
                    })
                    .sum();
                self.words.resize(needed, 0);
                self.rng.fill_u64(&mut self.words);
            } else {
                self.words.clear();
            }
            // Disjoint field borrows so the hot loop indexes straight
            // slices (no repeated bounds/option plumbing through `self`).
            let Self {
                components,
                rng,
                words,
                stoch_idx,
                max_step,
                ..
            } = self;
            let words: &[u64] = words;
            let mut wi = 0usize; // consumed prefix of `words`
            macro_rules! word {
                () => {
                    if wi < words.len() {
                        let w = words[wi];
                        wi += 1;
                        w
                    } else {
                        rng.next_u64()
                    }
                };
            }
            let sqrt_total = dt_total.sqrt();
            let mut x_acc = 0.0;
            for &ci in stoch_idx.iter() {
                match &mut components[ci as usize] {
                    Component::RandomWalk(w) => {
                        if substeps == 1 || w.near_bound(dt_total) {
                            // Single sub-step, or within the 4σ margin of
                            // the reflecting bound: exact per-sub-step
                            // dynamics (reflection included).
                            let mut cur = t0;
                            let (mut last_dt, mut sqrt_dt) = (-1.0f64, 0.0f64);
                            while cur < t {
                                let dt = (t - cur).min(*max_step);
                                if dt != last_dt {
                                    last_dt = dt;
                                    sqrt_dt = dt.sqrt();
                                }
                                let bits = word!();
                                let z = StandardNormal.sample_with_word(rng, bits);
                                x_acc += w.apply_z(sqrt_dt, z) * dt;
                                cur += dt;
                            }
                        } else {
                            let bits = word!();
                            let za = StandardNormal.sample_with_word(rng, bits);
                            let zb = if m_full >= 2 {
                                let bits = word!();
                                StandardNormal.sample_with_word(rng, bits)
                            } else {
                                0.0
                            };
                            let zp = if dt_p > 0.0 {
                                let bits = word!();
                                StandardNormal.sample_with_word(rng, bits)
                            } else {
                                0.0
                            };
                            x_acc += w.advance_bridge(*max_step, m_full, dt_p, za, zb, zp);
                        }
                    }
                    Component::WhiteFm(w) => {
                        // Independent increments: the sub-stepped integral
                        // is N(0, σ²·Δt) however it is chopped — one draw.
                        let bits = word!();
                        let z = StandardNormal.sample_with_word(rng, bits);
                        x_acc += w.apply_z(sqrt_total, z) * dt_total;
                    }
                    Component::Sinusoid(s) => {
                        // Period state is nonlinear: walk the reference
                        // sub-step geometry, one uniform per sub-step.
                        let mut cur = t0;
                        let (mut last_dt, mut sqrt_dt) = (-1.0f64, 0.0f64);
                        while cur < t {
                            let dt = (t - cur).min(*max_step);
                            if dt != last_dt {
                                last_dt = dt;
                                sqrt_dt = dt.sqrt();
                            }
                            let word = word!();
                            let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                            x_acc += s.step_wander_fast(dt, sqrt_dt, u) * dt;
                            cur += dt;
                        }
                    }
                    _ => unreachable!("stoch_idx holds only stochastic components"),
                }
            }
            self.x += x_acc;
        }
        self.t = t;
        self.x
    }

    /// The original integration loop: every component stepped every
    /// sub-step (deterministic ones included), Gaussian increments from
    /// inline Box-Muller pairs.
    #[cfg(feature = "reference")]
    fn advance_to_reference(&mut self, t: f64) -> f64 {
        while self.t < t {
            let dt = (t - self.t).min(self.max_step);
            let mut y = 0.0;
            for c in &mut self.components {
                y += c.step_reference(self.t, dt, &mut self.rng);
            }
            self.x += y * dt;
            self.t += dt;
        }
        self.x
    }

    /// Current true simulation time.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Accumulated time error `x(t)` at the current instant.
    pub fn time_error(&self) -> f64 {
        self.x
    }

    /// Oscillator-local time `t + x(t)` at the current instant.
    pub fn local_time(&self) -> f64 {
        self.t + self.x
    }

    /// Convenience: advance to `t` and return oscillator-local time.
    pub fn local_time_at(&mut self, t: f64) -> f64 {
        self.advance_to(t);
        self.local_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{ConstantSkew, FrequencyRandomWalk, Sinusoid, WhiteFm};

    #[test]
    fn pure_skew_integrates_linearly() {
        let mut o = Oscillator::new(vec![ConstantSkew::from_ppm(50.0).into()], 1);
        let x = o.advance_to(1000.0);
        assert!((x - 50e-6 * 1000.0).abs() < 1e-12);
        assert!((o.local_time() - 1000.05).abs() < 1e-9);
    }

    #[test]
    fn advance_is_monotone_and_idempotent_backwards() {
        let mut o = Oscillator::new(vec![ConstantSkew::from_ppm(10.0).into()], 1);
        o.advance_to(100.0);
        let x100 = o.time_error();
        let x_again = o.advance_to(50.0); // going backwards must be a no-op
        assert_eq!(x100, x_again);
        assert_eq!(o.now(), 100.0);
    }

    #[test]
    fn substeps_match_single_steps_for_deterministic_components() {
        // For deterministic components, coarse and fine stepping must agree.
        let make = || {
            Oscillator::new(
                vec![
                    ConstantSkew::from_ppm(30.0).into(),
                    Sinusoid::fixed(5e-8, 9000.0, 0.3).into(),
                ],
                9,
            )
        };
        let mut fine = make().with_max_step(1.0);
        let mut coarse = make().with_max_step(16.0);
        let xf = fine.advance_to(5000.0);
        let xc = coarse.advance_to(5000.0);
        // exact sinusoid integral is used per step, so they agree closely
        assert!((xf - xc).abs() < 1e-12, "fine {xf} vs coarse {xc}");
    }

    #[test]
    fn deterministic_closed_form_independent_of_advance_granularity() {
        // Closed-form integration must telescope: advancing in many small
        // calls or one big call gives the same deterministic trajectory.
        let make = || {
            Oscillator::new(
                vec![
                    ConstantSkew::from_ppm(52.4).into(),
                    crate::components::Aging { rate: 2e-14 }.into(),
                    Sinusoid::fixed(5.5e-8, 86_400.0, 1.3).into(),
                ],
                3,
            )
        };
        let mut steps = make();
        for i in 1..=1000 {
            steps.advance_to(i as f64 * 100.0);
        }
        let mut one = make();
        one.advance_to(100_000.0);
        let (a, b) = (steps.time_error(), one.time_error());
        assert!(
            (a - b).abs() < 1e-10,
            "granularity changed deterministic integral: {a} vs {b}"
        );
    }

    #[test]
    fn stochastic_trace_is_reproducible() {
        let run = |seed| {
            let mut o = Oscillator::new(vec![FrequencyRandomWalk::new(1e-10, 1e-7).into()], seed);
            (1..100)
                .map(|i| o.advance_to(i as f64 * 16.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn long_advance_batched_draws_are_reproducible() {
        // poll-1024-style advances cross the BATCH_THRESHOLD and use the
        // batched keystream path; determinism per seed must hold there too.
        let run = |seed| {
            let mut o = Oscillator::new(
                vec![
                    FrequencyRandomWalk::new(1.2e-10, 7e-8).into(),
                    WhiteFm { sigma_at_1s: 1e-9 }.into(),
                ],
                seed,
            );
            (1..50)
                .map(|i| o.advance_to(i as f64 * 1024.0).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn nine_stochastic_components_keep_the_batched_draw_order() {
        // From BATCH_THRESHOLD stochastic components up, even a
        // single-sub-step advance pre-draws its words in one `fill_u64`,
        // so a ziggurat wedge/tail completion reads the keystream *after*
        // all nine words. The single-sub-step fast path draws inline and
        // must leave such advances alone: replay both orders by hand.
        let sigmas: Vec<f64> = (1..=9).map(|i| i as f64 * 1e-9).collect();
        let components = sigmas
            .iter()
            .map(|&sigma_at_1s| WhiteFm { sigma_at_1s }.into())
            .collect();
        let mut osc = Oscillator::new(components, 11);
        let mut batched = ChaCha12Rng::seed_from_u64(11);
        let mut inline = ChaCha12Rng::seed_from_u64(11);
        let (mut x_batched, mut x_inline) = (0.0f64, 0.0f64);
        let (dt, sqrt_dt) = (16.0f64, 4.0f64);
        for i in 1..=2000 {
            let x = osc.advance_to(i as f64 * dt);
            let mut words = [0u64; 9];
            batched.fill_u64(&mut words);
            let (mut acc_batched, mut acc_inline) = (0.0, 0.0);
            for (&sigma, &bits) in sigmas.iter().zip(&words) {
                let z = StandardNormal.sample_with_word(&mut batched, bits);
                acc_batched += z * sigma / sqrt_dt * dt;
                let bits = inline.next_u64();
                let z = StandardNormal.sample_with_word(&mut inline, bits);
                acc_inline += z * sigma / sqrt_dt * dt;
            }
            x_batched += acc_batched;
            x_inline += acc_inline;
            assert_eq!(x.to_bits(), x_batched.to_bits(), "advance {i}");
        }
        assert_ne!(x_batched, x_inline, "no wedge/tail completion in 18 000 draws");
    }

    #[test]
    fn empty_oscillator_is_perfect() {
        let mut o = Oscillator::new(vec![], 0);
        assert_eq!(o.advance_to(1e6), 0.0);
        assert_eq!(o.local_time(), 1e6);
    }

    #[test]
    fn local_time_at_advances() {
        let mut o = Oscillator::new(vec![ConstantSkew::from_ppm(100.0).into()], 0);
        let lt = o.local_time_at(10.0);
        assert!((lt - 10.001).abs() < 1e-9);
    }
}
