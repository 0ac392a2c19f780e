//! Differential tests: fast oscillator vs the retained pre-optimization
//! reference formulation (`--features reference`).
//!
//! The fast path integrates deterministic components in closed form and
//! draws its Gaussians from the ziggurat, so for stochastic components the
//! keystream consumption differs from the reference — sample paths are not
//! comparable bit-for-bit. What must hold instead:
//!
//! * deterministic component sets: bit-near agreement (the closed forms
//!   telescope to exactly what the per-sub-step means sum to);
//! * stochastic component sets: statistical equivalence — matching
//!   increment moments and Allan-style error growth across scales.

#![cfg(feature = "reference")]

use tsc_osc::{Aging, Component, ConstantSkew, Environment, FrequencyRandomWalk, Oscillator, Sinusoid, WhiteFm};
use tsc_stats::allan::allan_deviation;

fn deterministic_set() -> Vec<Component> {
    vec![
        ConstantSkew::from_ppm(52.4).into(),
        Sinusoid::fixed(5.5e-8, 86_400.0, 1.3).into(),
        Aging { rate: 2e-14 }.into(),
    ]
}

#[test]
fn deterministic_sets_agree_bit_near() {
    let mut fast = Oscillator::new(deterministic_set(), 11);
    let mut reference = Oscillator::new_reference(deterministic_set(), 11);
    // Irregular advance schedule, including sub-max_step and multi-day hops.
    let mut t = 0.0;
    for (i, step) in [0.3, 16.0, 1.0, 1024.0, 7.5, 86_400.0, 16.0, 200_000.0]
        .iter()
        .cycle()
        .take(200)
        .enumerate()
    {
        t += step;
        let xf = fast.advance_to(t);
        let xr = reference.advance_to(t);
        let scale = xr.abs().max(1.0);
        assert!(
            (xf - xr).abs() / scale < 1e-12,
            "step {i} (t={t}): fast {xf} vs reference {xr}"
        );
    }
}

/// Phase trace sampled every `tau0` seconds.
fn trace(mut osc: Oscillator, tau0: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| osc.advance_to(i as f64 * tau0)).collect()
}

#[test]
fn random_walk_increment_moments_match() {
    // Compare the mean squared *second* difference of the phase — the
    // diffusion term sigma²·dt, an i.i.d.-dominated statistic that
    // concentrates (the raw path variance of a random walk does not).
    // The reflecting bound must also hold on both paths.
    let tau0 = 16.0;
    let n = 4000;
    let spec = || -> Vec<Component> { vec![FrequencyRandomWalk::new(2.5e-10, 9e-8).into()] };
    let (mut d2_f, mut d2_r) = (0.0, 0.0);
    let (mut max_f, mut max_r) = (0.0f64, 0.0f64);
    for seed in 0..8u64 {
        let xf = trace(Oscillator::new(spec(), seed), tau0, n);
        let xr = trace(Oscillator::new_reference(spec(), seed), tau0, n);
        for (xs, d2, max) in [(&xf, &mut d2_f, &mut max_f), (&xr, &mut d2_r, &mut max_r)] {
            for w in xs.windows(3) {
                let d = (w[2] - 2.0 * w[1] + w[0]) / tau0;
                *d2 += d * d;
            }
            for w in xs.windows(2) {
                *max = max.max(((w[1] - w[0]) / tau0).abs());
            }
        }
    }
    let ratio = d2_f / d2_r;
    assert!(
        (0.9..1.12).contains(&ratio),
        "second-difference moment ratio fast/reference = {ratio}"
    );
    assert!(max_f <= 9e-8 * (1.0 + 1e-9), "fast exceeded bound: {max_f}");
    assert!(max_r <= 9e-8 * (1.0 + 1e-9), "reference exceeded bound: {max_r}");
}

#[test]
fn white_fm_increment_moments_match() {
    let tau0 = 16.0;
    let n = 6000;
    let spec = || -> Vec<Component> { vec![WhiteFm { sigma_at_1s: 1e-9 }.into()] };
    let (mut var_f, mut var_r, mut mean_f, mut mean_r) = (0.0, 0.0, 0.0, 0.0);
    for seed in 0..6u64 {
        for (xs, var, mean) in [
            (trace(Oscillator::new(spec(), seed), tau0, n), &mut var_f, &mut mean_f),
            (
                trace(Oscillator::new_reference(spec(), seed), tau0, n),
                &mut var_r,
                &mut mean_r,
            ),
        ] {
            for w in xs.windows(2) {
                let y = (w[1] - w[0]) / tau0;
                *mean += y;
                *var += y * y;
            }
        }
    }
    let ratio = var_f / var_r;
    assert!(
        (0.85..1.18).contains(&ratio),
        "white-FM variance ratio fast/reference = {ratio}"
    );
    let norm = (6 * (n - 1)) as f64;
    assert!((mean_f / norm).abs() < 2e-11, "fast mean {}", mean_f / norm);
    assert!((mean_r / norm).abs() < 2e-11, "reference mean {}", mean_r / norm);
}

#[test]
fn environment_allan_error_growth_matches() {
    // Full machine-room component set: the Allan deviation — the paper's
    // own metric for oscillator quality — must agree between fast and
    // reference across small, SKM and large scales.
    let tau0 = 64.0;
    let n = (4.0 * 86_400.0 / tau0) as usize;
    let spec = Environment::MachineRoom.spec();
    // average ADEV over seeds to tame single-path wander
    for m in [4usize, 16, 64, 512] {
        let (mut af, mut ar) = (0.0, 0.0);
        for seed in 0..4u64 {
            let xf = trace(spec.build(seed), tau0, n);
            let xr = trace(spec.build_reference(seed), tau0, n);
            af += allan_deviation(&xf, tau0, m).unwrap();
            ar += allan_deviation(&xr, tau0, m).unwrap();
        }
        let ratio = af / ar;
        assert!(
            (0.6..1.6).contains(&ratio),
            "ADEV ratio fast/reference at m={m}: {ratio}"
        );
    }
}

#[test]
fn poll1024_bridged_path_statistically_equivalent() {
    // Coarse polling bridges 63 of the 64 cells of every advance; the
    // time-error growth must match the reference.
    let spec = Environment::Laboratory.spec();
    let horizon = 2.0 * 86_400.0;
    let (mut ef, mut er) = (0.0, 0.0);
    for seed in 0..6u64 {
        let mut f = spec.build(seed);
        let mut r = spec.build_reference(seed);
        let mut t = 0.0;
        while t < horizon {
            t += 1024.0;
            f.advance_to(t);
            r.advance_to(t);
        }
        ef += f.time_error().abs();
        er += r.time_error().abs();
    }
    let ratio = ef / er;
    assert!(
        (0.5..2.0).contains(&ratio),
        "|x(2d)| ratio fast/reference = {ratio} (fast {ef}, reference {er})"
    );
}
