//! The composite oscillator: integrates frequency components into time error.

use crate::components::Component;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, StandardNormal};

/// A simulated oscillator whose accumulated time error is the integral of a
/// sum of [`Component`]s.
///
/// The oscillator exposes *oscillator time* `t + x(t)` where `x(t)` is the
/// accumulated error. A perfect oscillator has `x(t) = 0`; the paper's
/// general model (equation (3)) is `x(t) = θ0 + γ·t + ω(t)` and the
/// components provide `γ` and `ω`.
///
/// Time only moves forward. A read ([`Oscillator::advance_to`]) splits
/// `x(t)` in two:
///
/// * the *deterministic* components (constant skew, aging, fixed-period
///   sinusoid) are integrated in closed form from the previous read to
///   `t`, so their part `x_det(t)` is exact at every read;
/// * the *stochastic* components (bounded random walk, wandering-period
///   sinusoid, white FM) are stepped only in whole cells of `max_step`
///   seconds on the absolute grid `gₙ = n·max_step`, however often or
///   rarely the caller reads (e.g. a 1024 s NTP period). The oscillator
///   keeps their phase at both ends of the last stepped cell `[gₙ, gₙ₊₁]`:
///   `lo` at `gₙ` and `hi` at `gₙ₊₁` (stored as `hi` and the slope
///   `(hi − lo)/max_step`).
///
/// A read at `t` in that cell returns
/// `x_det(t) + lo + (hi − lo)·(t − gₙ)·(1/max_step)`: inside a cell the
/// stochastic phase is the linear interpolation of its grid values, exact
/// at every grid point (it is evaluated from the `gₙ₊₁` end, so a read on
/// the grid returns `x_det + hi` bit for bit). Below the 16 s default cell
/// that is all §3.1 claims of the oscillator anyway: the simple skew model
/// holds up to τ* ≈ 1000 s.
///
/// A read at or before `gₙ₊₁` draws nothing. A later read steps every cell
/// up to the first grid point at or after `t`, and no further: a poll
/// exactly on the grid needs no look-ahead, and the second counter read of
/// a 16 s poll steps one cell. Every step is exactly `max_step` long, so
/// `√max_step` is a constant. A gap of `m > 1` cells integrates its first
/// `m − 1` cells in one go and steps the last cell alone, which gives `lo`
/// and `hi`. White FM takes one draw for the `m − 1` cells. From
/// `m − 1 ≥ 2` the random walk and the wandering sinusoid each take two,
/// a Gaussian bridge that matches the per-cell loop's first two moments:
/// the walk's end level and trapezoid integral, the period's end level
/// and path mean. Within 4σ of a bound either one steps cell by cell
/// instead. A read's cost therefore does not grow with the gap (8
/// keystream words for the machine-room set from 3 cells up, 3 for one
/// cell), and every draw reads the keystream inline, component by
/// component.
///
/// Which reads fall inside a cell therefore changes nothing about the
/// stochastic stream: the grid values, the keystream position and every
/// counter read on the grid are the same with or without them.
/// `tests/generator_golden.rs` pins the stream, grid edges and gaps of 1,
/// 2, 3, 64 and 225 cells included.
///
/// The pre-optimization formulation — every component stepped every
/// sub-step up to the read time, Box-Muller Gaussians — is retained behind
/// the `reference` feature ([`Oscillator::new_reference`]) and is
/// bit-identical to the original implementation; differential tests prove
/// the grid-stepped oscillator agrees (bit-near for deterministic
/// component sets, statistically for stochastic ones).
pub struct Oscillator {
    components: Vec<Component>,
    rng: ChaCha12Rng,
    /// True time and `x(t)` of the last read.
    t: f64,
    x: f64,
    /// The deterministic components' part of `x` at `t`.
    x_det: f64,
    /// The cell length, its reciprocal and its square root.
    max_step: f64,
    inv_step: f64,
    sqrt_step: f64,
    /// Grid index of `cell_end`: the last stepped cell ends at
    /// `g(cell) = cell_end` (`f64::MAX` without stochastic components, so
    /// nothing is ever stepped).
    cell: i64,
    cell_end: f64,
    /// Stochastic phase at `cell_end`, and its slope over the cell
    /// (`(hi − lo)/max_step`).
    hi: f64,
    slope: f64,
    /// Indices into `components` of the stochastic members — the cell
    /// step touches only these.
    stoch_idx: Vec<u32>,
    /// Σ of constant-skew `γ` terms (folded at construction; a constant
    /// contributes `γ·dt` per advance with no per-component dispatch).
    gamma_total: f64,
    /// Σ of linear-aging rates (contributes `rate·(t₀ + dt/2)·dt`).
    aging_total: f64,
    /// Indices of fixed-period sinusoids — the only deterministic
    /// components with per-advance state.
    fixed_sin_idx: Vec<u32>,
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

impl Oscillator {
    /// Default cell length (seconds). 16 s matches the paper's densest
    /// polling period, so stochastic components are always sampled at
    /// least that finely.
    pub const DEFAULT_MAX_STEP: f64 = 16.0;

    /// Creates an oscillator from components and a deterministic seed.
    pub fn new(components: Vec<Component>, seed: u64) -> Self {
        let stoch_idx: Vec<u32> = components
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
            x_det: 0.0,
            max_step: 0.0,
            inv_step: 0.0,
            sqrt_step: 0.0,
            cell: 0,
            cell_end: if stoch_idx.is_empty() { f64::MAX } else { 0.0 },
            hi: 0.0,
            slope: 0.0,
            stoch_idx,
            gamma_total,
            aging_total,
            fixed_sin_idx,
            #[cfg(feature = "reference")]
            reference: false,
        }
        .with_max_step(Self::DEFAULT_MAX_STEP)
    }

    /// The pre-optimization oscillator: every component is stepped every
    /// sub-step with Box-Muller Gaussians — bit-identical to the original
    /// implementation for the same components and seed. Exists so the
    /// differential tests can compare the grid-stepped oscillator against
    /// it.
    #[cfg(feature = "reference")]
    pub fn new_reference(components: Vec<Component>, seed: u64) -> Self {
        Self {
            reference: true,
            ..Self::new(components, seed)
        }
    }

    /// Overrides the cell length (mainly for tests/benches); only before
    /// the first read.
    pub fn with_max_step(mut self, max_step: f64) -> Self {
        assert!(max_step > 0.0, "max_step must be positive");
        assert!(self.t == 0.0, "the cell length is fixed once reads begin");
        self.max_step = max_step;
        self.inv_step = 1.0 / max_step;
        self.sqrt_step = max_step.sqrt();
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
        let dt = t - t0;

        // Deterministic components: exact closed-form integral from the
        // last read (the per-sub-step means of the reference loop
        // telescope to the same value). Skew and aging terms were folded
        // into two constants at construction — one fused expression, no
        // component scan; only fixed sinusoids carry per-advance state.
        // ∫ rate·s ds over [t0, t] = rate·(t0 + dt/2)·dt.
        self.x_det += (self.gamma_total + self.aging_total * (t0 + 0.5 * dt)) * dt;
        for &ci in &self.fixed_sin_idx {
            if let Component::Sinusoid(s) = &mut self.components[ci as usize] {
                self.x_det += s.integrate_fixed(dt);
            }
        }

        if t > self.cell_end {
            self.step_cells(t);
        }
        self.t = t;
        self.x = self.x_det + self.hi + self.slope * (t - self.cell_end);
        self.x
    }

    /// Steps the stochastic components over the whole cells from
    /// `cell_end` to the first grid point at or after `t`, leaving `hi`
    /// and `slope` describing the last of them.
    fn step_cells(&mut self, t: f64) {
        let h = self.max_step;
        // The first grid index at or after `t`, through `i64` (one
        // instruction each way; see `TscCounter::read`). At least one cell,
        // should rounding of a non-power-of-two `max_step` say otherwise.
        let k = (t * self.inv_step) as i64;
        let end = k + i64::from((k as f64) * h < t);
        let m = (end - self.cell).max(1);
        self.cell += m;
        self.cell_end = self.cell as f64 * h;
        // Cells integrated before the last one, which is stepped alone.
        let m = m as usize;
        let pre = m - 1;

        // Disjoint field borrows so the loop indexes straight slices.
        let Self {
            components,
            rng,
            stoch_idx,
            sqrt_step,
            ..
        } = self;
        let sqrt_h = *sqrt_step;
        let span = pre as f64 * h;
        let (mut x_pre, mut x_last) = (0.0, 0.0);
        for &ci in stoch_idx.iter() {
            match &mut components[ci as usize] {
                Component::RandomWalk(w) => {
                    if pre >= 2 && !w.near_bound(span) {
                        let za = StandardNormal.sample(rng);
                        let zb = StandardNormal.sample(rng);
                        x_pre += w.advance_bridge(h, sqrt_h, pre, za, zb);
                    } else {
                        // One cell, or within the 4σ margin of the
                        // reflecting bound: exact per-cell dynamics.
                        for _ in 0..pre {
                            x_pre += w.apply_z(sqrt_h, StandardNormal.sample(rng)) * h;
                        }
                    }
                    x_last += w.apply_z(sqrt_h, StandardNormal.sample(rng)) * h;
                }
                Component::WhiteFm(w) => {
                    if pre > 0 {
                        x_pre += w.phase(span.sqrt(), StandardNormal.sample(rng));
                    }
                    x_last += w.phase(sqrt_h, StandardNormal.sample(rng));
                }
                Component::Sinusoid(s) => {
                    if pre >= 2 && !s.near_wander_bound(span) {
                        let za = StandardNormal.sample(rng);
                        let zb = StandardNormal.sample(rng);
                        x_pre += s.advance_wander_bridge(h, sqrt_h, pre, za, zb);
                    } else {
                        // One cell, or within 4σ of a period bound: one
                        // uniform per cell.
                        for _ in 0..pre {
                            x_pre += s.step_wander_cell(h, sqrt_h, rng.random::<f64>());
                        }
                    }
                    x_last += s.step_wander_cell(h, sqrt_h, rng.random::<f64>());
                }
                _ => unreachable!("stoch_idx holds only stochastic components"),
            }
        }
        self.hi += x_pre + x_last;
        self.slope = x_last * self.inv_step;
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

    /// True time of the last read.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Accumulated time error `x(t)` at the last read.
    pub fn time_error(&self) -> f64 {
        self.x
    }

    /// Oscillator-local time `t + x(t)` at the last read.
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
    fn long_advances_are_reproducible() {
        // poll-1024-style advances bridge 63 cells of every stochastic
        // component; determinism per seed must hold there too.
        let run = |seed| {
            let mut o = Oscillator::new(
                vec![
                    FrequencyRandomWalk::new(1.2e-10, 7e-8).into(),
                    WhiteFm { sigma_at_1s: 1e-9 }.into(),
                    Sinusoid::wandering(4.5e-8, 6_000.0, 12_000.0, 0.7).into(),
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
    fn stochastic_components_draw_in_order() {
        // Each component draws its words in component order, and a
        // ziggurat wedge/tail completion reads the keystream at once,
        // before the next component's word. Replay that by hand for nine
        // white-FM components over 18 000 draws (~270 completions).
        let sigmas: Vec<f64> = (1..=9).map(|i| i as f64 * 1e-9).collect();
        let components = sigmas
            .iter()
            .map(|&sigma_at_1s| WhiteFm { sigma_at_1s }.into())
            .collect();
        let mut osc = Oscillator::new(components, 11);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let mut x_replay = 0.0f64;
        let sqrt_h = 4.0f64;
        for i in 1..=2000 {
            let x = osc.advance_to(i as f64 * 16.0);
            let mut acc = 0.0;
            for &sigma in &sigmas {
                let z: f64 = StandardNormal.sample(&mut rng);
                acc += z * sigma * sqrt_h;
            }
            x_replay += acc;
            assert_eq!(x.to_bits(), x_replay.to_bits(), "advance {i}");
        }
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
