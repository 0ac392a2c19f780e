//! Figure 3: Allan-deviation plots of the host oscillator in four
//! host–server environments.
//!
//! The paper computes the offsets from (side-mode corrected) `Tf`
//! timestamps against the DAG reference, then plots the Allan deviation
//! over τ from ~16 s to 10⁵ s: a 1/τ slope at small scales (timestamping
//! white noise), a minimum of order 0.01 PPM near τ* = 1000 s, and a
//! bounded (< 0.1 PPM) rise at day scales.

use crate::fmt::{table, Report};
use crate::sidemode::correct_side_modes_drifting;
use crate::ExpOptions;
use tsc_netsim::{Scenario, ServerKind};
use tsc_osc::Environment;
use tsc_stats::allan::allan_sweep;

/// One environment's sweep: (label, Vec<(tau, adev)>).
fn sweep(env: Environment, server: ServerKind, seed: u64, days: f64) -> (String, Vec<(f64, f64)>) {
    let sc = Scenario::baseline(seed)
        .with_environment(env)
        .with_server(server)
        .with_poll_period(16.0)
        .with_duration(days * 86_400.0);
    // phase = host clock error sampled at packet arrivals: Tf·p̄ − Tg,
    // with p̄ the endpoint-detrending rate the paper uses in §3.1 (it
    // "forces the first and last offset values to be the same").
    let mut tf_counts = Vec::new();
    let mut tg = Vec::new();
    for e in sc.stream() {
        if e.lost {
            continue;
        }
        tf_counts.push(e.tf_tsc as f64);
        tg.push(e.tg);
    }
    let p_bar = (tg[tg.len() - 1] - tg[0]) / (tf_counts[tf_counts.len() - 1] - tf_counts[0]);
    let tf_secs: Vec<f64> = tf_counts.iter().map(|&c| c * p_bar).collect();
    // §2.4/§3.1: corrected Tf timestamps (side modes removed) are essential
    // at small scales.
    let (tf_corr, _report) = correct_side_modes_drifting(&tf_secs, &tg, 101);
    let phase: Vec<f64> = tf_corr.iter().zip(&tg).map(|(f, g)| f - g).collect();
    let sweep = allan_sweep(&phase, 16.0, 2);
    (
        format!("{}-{}", env.name(), server.name()),
        sweep.iter().map(|p| (p.tau, p.adev)).collect(),
    )
}

/// Runs the four environment sweeps of Figure 3.
pub fn run(opt: ExpOptions) -> Report {
    let mut r = Report::new("fig3", "Figure 3 — Allan deviation of y_tau, four environments");
    let days = if opt.full { 14.0 } else { 4.0 };
    let configs = [
        (Environment::Laboratory, ServerKind::Int),
        (Environment::MachineRoom, ServerKind::Int),
        (Environment::MachineRoom, ServerKind::Loc),
        (Environment::MachineRoom, ServerKind::Ext),
    ];
    let sweeps: Vec<(String, Vec<(f64, f64)>)> = configs
        .iter()
        .enumerate()
        .map(|(i, &(env, srv))| sweep(env, srv, opt.seed + i as u64, days))
        .collect();

    // Render at common taus.
    let taus: Vec<f64> = sweeps[0].1.iter().map(|&(t, _)| t).collect();
    let mut rows = Vec::new();
    for (ti, &tau) in taus.iter().enumerate() {
        let mut row = vec![format!("{tau:.0}")];
        for (_, sw) in &sweeps {
            row.push(
                sw.get(ti)
                    .map(|&(_, a)| format!("{:.3}", a * 1e6))
                    .unwrap_or_default(),
            );
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("tau[s]")
        .chain(sweeps.iter().map(|(n, _)| n.as_str()))
        .collect();
    r.line(table(&headers, &rows));
    r.line("(values in PPM; paper: 1/tau slope, minimum ~0.01 PPM near tau*=1000 s,");
    r.line(" all curves below 0.1 PPM at large scales)");
    r.line(
        "(differs-because: ADEV(32 s) sits in one of three regimes per seed, ~0.16 / 0.24 / \
         0.43 PPM, by how far the drifting side-mode correction locks on)",
    );

    // Key shape metrics from the machine-room/Int sweep.
    let mr = &sweeps[1].1;
    let at = |target: f64| {
        mr.iter()
            .min_by(|a, b| {
                (a.0 - target)
                    .abs()
                    .partial_cmp(&(b.0 - target).abs())
                    .expect("finite")
            })
            .map(|&(_, a)| a)
            .unwrap_or(f64::NAN)
    };
    let small = at(32.0);
    let near_star = at(1000.0);
    let large = mr
        .iter()
        .filter(|&&(t, _)| t > 20_000.0)
        .map(|&(_, a)| a)
        .fold(0.0f64, f64::max);
    r.metric("adev_at_32s_ppm", small * 1e6);
    r.metric("adev_at_1000s_ppm", near_star * 1e6);
    r.metric("adev_max_large_ppm", large * 1e6);
    r.metric("slope_ratio_32_to_1000", small / near_star);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Median of one metric over seeds 11..=15: a single seed is a
    /// lottery — ADEV(32 s) lands in one of three regimes (0.16 / 0.24 /
    /// 0.43 PPM) depending on whether the side-mode correction locks on,
    /// and the large-τ maximum of a 4-day trace rests on a handful of
    /// samples — so any new host-noise realisation can flip one.
    #[test]
    fn shape_matches_figure3() {
        let reports: Vec<Report> = (11..=15)
            .map(|seed| run(ExpOptions { seed, full: false }))
            .collect();
        let median = |name: &str| {
            let mut v: Vec<f64> = reports.iter().map(|r| r.get(name).unwrap()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        let small = median("adev_at_32s_ppm");
        let near_star = median("adev_at_1000s_ppm");
        let large = median("adev_max_large_ppm");
        // 1/τ decrease from small scales to the SKM scale
        assert!(
            small > 3.0 * near_star,
            "expected 1/tau fall: {small} vs {near_star}"
        );
        // minimum of order 0.01 PPM near τ*
        assert!(
            near_star > 0.001 && near_star < 0.08,
            "ADEV(1000s) = {near_star} PPM out of band"
        );
        // bounded by ~0.1 PPM at large scales, but above the minimum
        assert!(large < 0.15, "large-scale ADEV {large} PPM exceeds bound");
        assert!(large > near_star * 0.8, "curves should rise at large tau");
    }
}
