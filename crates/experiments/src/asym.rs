//! Path-asymmetry estimation (§4.2).
//!
//! The asymmetry `Δ = d→ − d←` is the fundamental, unremovable ambiguity of
//! two-point synchronization: "differences in the θᵢ due to Δ > 0 are
//! impossible to distinguish from true offset errors", bounded only by the
//! causality relation `Δ ∈ (−(r−d↑), r−d↑)`. With a reference monitor on
//! the return path, §4.2 derives `Δ = r − d↑ − 2d←` and, in timestamps,
//! `Δ̂ᵢ = (Tf,i − Ta,i)·p̂ − 2Tg,i + Tb,i + Te,i`, evaluated at packets of
//! minimal RTT to suppress queueing noise.

use tscclock::RawExchange;

/// One exchange augmented with the reference (DAG) timestamp of the
/// response's arrival — the input the §4.2 estimator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefExchange {
    /// The four raw timestamps.
    pub ex: RawExchange,
    /// Reference timestamp `Tg` of the response's full arrival (seconds).
    pub tg: f64,
}

/// Per-packet asymmetry sample `Δ̂ᵢ` (equation from §4.2).
pub fn asymmetry_sample(r: &RefExchange, p_hat: f64) -> f64 {
    let rtt = r.ex.rtt_counts() as f64 * p_hat;
    rtt - 2.0 * r.tg + r.ex.tb + r.ex.te
}

/// Estimates Δ by evaluating [`asymmetry_sample`] on the packets with
/// minimal RTT (the cleanest `fraction` of the data, e.g. 0.01), then
/// taking their median. Returns `None` when no packets qualify.
pub fn estimate_asymmetry(data: &[RefExchange], p_hat: f64, fraction: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut by_rtt: Vec<&RefExchange> = data.iter().collect();
    by_rtt.sort_by(|a, b| {
        a.ex.rtt_counts()
            .cmp(&b.ex.rtt_counts())
    });
    let keep = ((data.len() as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize)
        .clamp(1, data.len());
    let samples: Vec<f64> = by_rtt[..keep]
        .iter()
        .map(|r| asymmetry_sample(r, p_hat))
        .collect();
    tsc_stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: f64 = 1e-9;

    /// Causality bound on Δ given the measured minimum RTT and server delay:
    /// `|Δ| < r − d↑` (§4.2).
    fn causality_bound(rtt_min: f64, d_srv_min: f64) -> f64 {
        (rtt_min - d_srv_min).max(0.0)
    }

    /// Builds a reference exchange with known asymmetry: d→ = d + Δ/2,
    /// d← = d − Δ/2, plus queueing q on both legs.
    fn rex(t: f64, delta: f64, q: f64) -> RefExchange {
        let d = 450e-6;
        let s = 20e-6;
        let d_fwd = d + delta / 2.0 + q;
        let d_back = d - delta / 2.0 + q;
        let tb = t + d_fwd;
        let te = tb + s;
        let tf = te + d_back;
        RefExchange {
            ex: RawExchange {
                ta_tsc: (t / P).round() as u64,
                tb,
                te,
                tf_tsc: (tf / P).round() as u64,
            },
            tg: tf,
        }
    }

    #[test]
    fn clean_sample_recovers_delta() {
        let r = rex(100.0, 50e-6, 0.0);
        let d = asymmetry_sample(&r, P);
        assert!((d - 50e-6).abs() < 1e-8, "Δ̂ = {d}");
    }

    #[test]
    fn estimate_with_queueing_noise() {
        let data: Vec<RefExchange> = (0..2000)
            .map(|k| {
                // heavy-ish deterministic pseudo-noise on most packets
                let q = if k % 7 == 0 {
                    0.0
                } else {
                    ((k as f64 * 0.618).fract()) * 2e-3
                };
                rex(k as f64 * 16.0, 500e-6, q)
            })
            .collect();
        let d = estimate_asymmetry(&data, P, 0.01).unwrap();
        assert!(
            (d - 500e-6).abs() < 30e-6,
            "estimated Δ = {d}, expected 500 µs"
        );
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(estimate_asymmetry(&[], P, 0.01).is_none());
    }

    #[test]
    fn causality_bound_properties() {
        assert_eq!(causality_bound(1e-3, 20e-6), 980e-6);
        assert_eq!(causality_bound(10e-6, 20e-6), 0.0);
    }

    #[test]
    fn estimated_delta_within_causality_bound() {
        let data: Vec<RefExchange> = (0..500).map(|k| rex(k as f64, 50e-6, 10e-6)).collect();
        let d = estimate_asymmetry(&data, P, 0.05).unwrap();
        let rtt_min = data
            .iter()
            .map(|r| r.ex.rtt_counts() as f64 * P)
            .fold(f64::INFINITY, f64::min);
        assert!(d.abs() < causality_bound(rtt_min, 20e-6));
    }

    /// Cross-validates the estimator against the simulator's presets.
    #[test]
    fn asymmetry_estimator_tracks_configured_delta() {
        use tsc_netsim::{Scenario, ServerKind};
        for kind in [ServerKind::Loc, ServerKind::Ext] {
            let sc = Scenario::baseline(99).with_server(kind).with_duration(86_400.0);
            let refs: Vec<RefExchange> = sc
                .run()
                .iter()
                .filter(|e| !e.lost)
                .map(|e| RefExchange {
                    ex: RawExchange {
                        ta_tsc: e.ta_tsc,
                        tb: e.tb,
                        te: e.te,
                        tf_tsc: e.tf_tsc,
                    },
                    tg: e.tg,
                })
                .collect();
            let d = estimate_asymmetry(&refs, 1e-9, 0.01).unwrap();
            let expect = kind.facts().asymmetry;
            assert!(
                (d - expect).abs() < 0.5 * expect + 30e-6,
                "{}: estimated {d}, expected {expect}",
                kind.name()
            );
        }
    }

    #[test]
    fn symmetric_path_gives_near_zero() {
        let data: Vec<RefExchange> = (0..500).map(|k| rex(k as f64, 0.0, 5e-6)).collect();
        let d = estimate_asymmetry(&data, P, 0.05).unwrap();
        assert!(d.abs() < 15e-6, "symmetric Δ̂ = {d}");
    }
}
