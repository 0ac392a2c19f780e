//! Heterogeneous access-path profiles.
//!
//! The paper's testbed measures three well-provisioned paths (Table 2);
//! a production time service faces *populations* of clients behind very
//! different last miles. [`PathProfile`] names five canonical access
//! technologies as presets over the same §3.2 delay decomposition the
//! Table-2 servers use (minimum + background queueing + bursty
//! congestion episodes), plus per-profile loss rates and — for the
//! mobile profile — generated handover level-shifts.
//!
//! Profiles compose with the existing anomaly machinery: applying a
//! profile to a [`Scenario`] overrides the *path* (minima, queueing,
//! congestion, loss) and appends generated shifts, while the scenario's
//! own outage/shift/fault schedules (the fault-injection axis) are kept
//! untouched.
//!
//! # Determinism
//!
//! Everything derives from seeds via the same `splitmix64` contract as
//! [`crate::multi`]: profile assignment for client `i` of a fleet is
//! `splitmix64(entry_seed ^ PROFILE_SALT)` reduced onto the mix weights,
//! and mobile handover schedules are generated from
//! `splitmix64(seed ^ HANDOVER_SALT)` — so the same `(base_seed, i)`
//! always yields the same profile and the same handover times, no matter
//! which thread replays the client.

use crate::delay::CongestionParams;
use crate::multi::splitmix64;
use crate::scenario::Scenario;
use crate::shifts::LevelShift;

/// Salt for per-client profile assignment (see [`ProfileMix::assign`]).
const PROFILE_SALT: u64 = 0x9E2E_5F0C_AB4D_71D3;
/// Salt for the mobile handover schedule generator.
const HANDOVER_SALT: u64 = 0x51C6_1235_7E0F_88AD;

/// The full path parameterisation a [`crate::ServerPath`] needs beyond
/// its server: one-way minima and the two queueing components per
/// direction. [`crate::ServerKind::params`] derives it from a Table-2 row;
/// profiles (and tests) override it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathParams {
    /// Forward (host→server) minimum one-way delay (seconds).
    pub fwd_min: f64,
    /// Backward (server→host) minimum one-way delay (seconds).
    pub back_min: f64,
    /// Forward background queueing mean (seconds).
    pub fwd_queue_mean: f64,
    /// Backward background queueing mean (seconds).
    pub back_queue_mean: f64,
    /// Forward congestion-episode parameters.
    pub fwd_congestion: CongestionParams,
    /// Backward congestion-episode parameters.
    pub back_congestion: CongestionParams,
}

impl PathParams {
    /// Nominal minimum RTT of this path against a server with the default
    /// minimum residence.
    pub fn nominal_rtt(&self) -> f64 {
        self.fwd_min + self.back_min + crate::server::ServerParams::default().min_residence
    }
}

/// Named access-path presets, ordered roughly by path quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathProfile {
    /// Server in the same facility: sub-ms RTT, tiny queues, rare light
    /// congestion, negligible loss.
    Datacenter,
    /// Wired consumer broadband: ~20 ms RTT, asymmetric (slow upstream),
    /// moderate queueing, buffer-bloat congestion episodes.
    Dsl,
    /// Last-hop 802.11: ~8 ms RTT, MAC-contention queueing that is large
    /// relative to the minimum, frequent short congestion bursts, and the
    /// highest background loss of the wired-ish profiles.
    Wifi,
    /// Cellular with mobility: ~50 ms RTT, deep buffers, heavy episodes,
    /// and **handover level-shifts** — crossing cells re-routes the
    /// bearer, moving both one-way minima (often asymmetrically) in the
    /// way §6.2 describes for route changes. Applied via generated
    /// [`LevelShift`]s (see [`PathProfile::handover_shifts`]).
    Mobile,
    /// Geostationary satellite: ~560 ms propagation floor, long but
    /// shallow congestion episodes, weather-driven loss.
    Satellite,
}

/// All five profiles in display order.
pub const ALL_PROFILES: [PathProfile; 5] = [
    PathProfile::Datacenter,
    PathProfile::Dsl,
    PathProfile::Wifi,
    PathProfile::Mobile,
    PathProfile::Satellite,
];

impl PathProfile {
    /// The path parameterisation of this profile.
    pub fn params(self) -> PathParams {
        match self {
            PathProfile::Datacenter => PathParams {
                fwd_min: 120e-6,
                back_min: 110e-6,
                fwd_queue_mean: 15e-6,
                back_queue_mean: 10e-6,
                fwd_congestion: CongestionParams {
                    mean_off: 3600.0,
                    mean_on: 30.0,
                    scale: 0.1e-3,
                    shape: 2.0,
                },
                back_congestion: CongestionParams {
                    mean_off: 3600.0,
                    mean_on: 30.0,
                    scale: 0.06e-3,
                    shape: 2.0,
                },
            },
            PathProfile::Dsl => PathParams {
                // upstream (host→server) is the slow direction
                fwd_min: 12e-3,
                back_min: 7e-3,
                fwd_queue_mean: 1.2e-3,
                back_queue_mean: 0.5e-3,
                fwd_congestion: CongestionParams {
                    mean_off: 1200.0,
                    mean_on: 180.0,
                    scale: 4e-3, // buffer bloat: episodes add ms-scale queues
                    shape: 1.6,
                },
                back_congestion: CongestionParams {
                    mean_off: 1800.0,
                    mean_on: 120.0,
                    scale: 1.5e-3,
                    shape: 1.7,
                },
            },
            PathProfile::Wifi => PathParams {
                fwd_min: 4e-3,
                back_min: 3.5e-3,
                // MAC contention: background queueing comparable to the minimum
                fwd_queue_mean: 2.0e-3,
                back_queue_mean: 1.5e-3,
                fwd_congestion: CongestionParams {
                    mean_off: 600.0,
                    mean_on: 45.0,
                    scale: 3e-3,
                    shape: 1.5,
                },
                back_congestion: CongestionParams {
                    mean_off: 600.0,
                    mean_on: 45.0,
                    scale: 2e-3,
                    shape: 1.5,
                },
            },
            PathProfile::Mobile => PathParams {
                fwd_min: 28e-3,
                back_min: 22e-3,
                fwd_queue_mean: 5e-3,
                back_queue_mean: 3e-3,
                fwd_congestion: CongestionParams {
                    mean_off: 700.0,
                    mean_on: 200.0,
                    scale: 8e-3, // deep RLC buffers
                    shape: 1.4,
                },
                back_congestion: CongestionParams {
                    mean_off: 900.0,
                    mean_on: 150.0,
                    scale: 4e-3,
                    shape: 1.5,
                },
            },
            PathProfile::Satellite => PathParams {
                fwd_min: 275e-3,
                back_min: 272e-3,
                fwd_queue_mean: 8e-3,
                back_queue_mean: 6e-3,
                fwd_congestion: CongestionParams {
                    mean_off: 1500.0,
                    mean_on: 400.0,
                    scale: 6e-3,
                    shape: 1.6,
                },
                back_congestion: CongestionParams {
                    mean_off: 1500.0,
                    mean_on: 400.0,
                    scale: 5e-3,
                    shape: 1.6,
                },
            },
        }
    }

    /// Background packet-loss probability of this profile.
    pub fn loss_prob(self) -> f64 {
        match self {
            PathProfile::Datacenter => 1e-4,
            PathProfile::Dsl => 1.5e-3,
            PathProfile::Wifi => 8e-3,
            PathProfile::Mobile => 1.2e-2,
            PathProfile::Satellite => 5e-3,
        }
    }

    /// Mean time between handovers for [`PathProfile::Mobile`] (`None`
    /// for the stationary profiles).
    pub fn handover_mean_interval(self) -> Option<f64> {
        match self {
            PathProfile::Mobile => Some(900.0),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PathProfile::Datacenter => "datacenter",
            PathProfile::Dsl => "dsl",
            PathProfile::Wifi => "wifi",
            PathProfile::Mobile => "mobile",
            PathProfile::Satellite => "satellite",
        }
    }

    /// Generates this profile's handover level-shift schedule over
    /// `[0, duration)` — empty for every profile but
    /// [`PathProfile::Mobile`]. Handovers arrive on a deterministic
    /// quasi-Poisson schedule (exponential gaps via inverse CDF on
    /// `splitmix64` words); each one *replaces* the previous cell's route
    /// (shifts are emitted with `until` = next handover), moving the two
    /// minima by a few ms — asymmetrically, so Δ moves too, the §6.2
    /// route-change pattern. Deltas are clamped to ±60 % of the minima so
    /// a generated schedule can never trip the half-applied-shift clamp
    /// (see [`crate::ServerPath::clamp_warnings`]).
    pub fn handover_shifts(self, seed: u64, duration: f64) -> Vec<LevelShift> {
        let Some(mean) = self.handover_mean_interval() else {
            return Vec::new();
        };
        let params = self.params();
        let mut out = Vec::new();
        let mut z = seed ^ HANDOVER_SALT;
        let mut word = move || {
            z = splitmix64(z);
            z
        };
        let unit = |w: u64| (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut t = 0.0;
        // event times first (their stream must not depend on the deltas)
        let mut times = Vec::new();
        loop {
            // Exp(mean) gap, floored: two consecutive handovers within
            // 30 s would model flapping, not mobility.
            let gap = (-mean * (1.0 - unit(word())).ln()).max(30.0);
            t += gap;
            if t >= duration {
                break;
            }
            times.push(t);
        }
        for (i, &at) in times.iter().enumerate() {
            let until = times.get(i + 1).copied();
            // New cell: both minima move within ±60 % of the base minima,
            // independently per direction (asymmetry changes).
            let fwd = (unit(word()) - 0.5) * 1.2 * params.fwd_min;
            let back = (unit(word()) - 0.5) * 1.2 * params.back_min;
            out.push(LevelShift { at, until, fwd, back });
        }
        out
    }

    /// Applies this profile to a scenario template: overrides the path
    /// parameterisation and loss rate, and appends the generated handover
    /// schedule (mobile only, derived from `seed`). The template's own
    /// outages, shifts and server faults are preserved — profiles compose
    /// with the fault-injection schedules rather than replacing them.
    pub fn apply(self, template: &Scenario, seed: u64) -> Scenario {
        let mut sc = template.clone();
        sc.path.params = Some(self.params());
        sc.path.loss_prob = self.loss_prob();
        sc.seed = seed;
        for shift in self.handover_shifts(seed, sc.duration) {
            sc.path.shifts.push(shift);
        }
        sc
    }
}

/// A weighted mix of profiles with deterministic per-client assignment —
/// the fleet-level heterogeneity knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileMix {
    /// Relative weights in [`ALL_PROFILES`] order; at least one non-zero.
    pub weights: [u32; 5],
}

impl ProfileMix {
    /// Every profile equally likely.
    pub fn uniform() -> Self {
        Self { weights: [1; 5] }
    }

    /// All clients on one profile.
    pub fn single(profile: PathProfile) -> Self {
        let mut weights = [0; 5];
        let idx = ALL_PROFILES.iter().position(|&p| p == profile).unwrap();
        weights[idx] = 1;
        Self { weights }
    }

    /// A plausible consumer-heavy population: mostly DSL and Wi-Fi, some
    /// mobile, a little datacenter and satellite.
    pub fn consumer() -> Self {
        Self {
            weights: [5, 35, 30, 25, 5],
        }
    }

    /// Deterministically assigns a profile to client `i` of the fleet
    /// seeded by `base_seed`. The entry seed is hashed (salted splitmix64,
    /// same contract as [`crate::multi::server_sub_seed`]) and reduced
    /// onto the cumulative weights, so assignment is a pure function of
    /// `(base_seed, i)` — independent of replay order and thread count.
    pub fn assign(&self, base_seed: u64, i: usize) -> PathProfile {
        let total: u64 = self.weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "ProfileMix needs at least one non-zero weight");
        let h = splitmix64(
            base_seed ^ PROFILE_SALT ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut pick = h % total;
        for (k, &w) in self.weights.iter().enumerate() {
            if pick < w as u64 {
                return ALL_PROFILES[k];
            }
            pick -= w as u64;
        }
        unreachable!("pick < total by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_positive_params() {
        for p in ALL_PROFILES {
            let params = p.params();
            assert!(params.fwd_min > 0.0 && params.back_min > 0.0, "{}", p.name());
            assert!(
                params.fwd_queue_mean > 0.0 && params.back_queue_mean > 0.0,
                "{}",
                p.name()
            );
            assert!(params.fwd_congestion.shape > 1.0 && params.back_congestion.shape > 1.0);
            assert!(p.loss_prob() > 0.0 && p.loss_prob() < 0.05);
        }
    }

    #[test]
    fn rtts_are_ordered_by_technology() {
        let rtt = |p: PathProfile| p.params().nominal_rtt();
        assert!(rtt(PathProfile::Datacenter) < rtt(PathProfile::Wifi));
        assert!(rtt(PathProfile::Wifi) < rtt(PathProfile::Dsl));
        assert!(rtt(PathProfile::Dsl) < rtt(PathProfile::Mobile));
        assert!(rtt(PathProfile::Mobile) < rtt(PathProfile::Satellite));
        // satellite is dominated by the geostationary propagation floor
        assert!(rtt(PathProfile::Satellite) > 0.5);
    }

    #[test]
    fn only_mobile_generates_handovers() {
        for p in ALL_PROFILES {
            let shifts = p.handover_shifts(7, 86_400.0);
            if p == PathProfile::Mobile {
                assert!(
                    shifts.len() > 50,
                    "a day of mobility should hand over many times: {}",
                    shifts.len()
                );
            } else {
                assert!(shifts.is_empty(), "{} must not hand over", p.name());
            }
        }
    }

    #[test]
    fn handover_schedule_is_deterministic_and_seed_sensitive() {
        let a = PathProfile::Mobile.handover_shifts(1, 86_400.0);
        let b = PathProfile::Mobile.handover_shifts(1, 86_400.0);
        assert_eq!(a, b);
        let c = PathProfile::Mobile.handover_shifts(2, 86_400.0);
        assert_ne!(a, c);
    }

    #[test]
    fn handovers_supersede_rather_than_accumulate() {
        let shifts = PathProfile::Mobile.handover_shifts(3, 86_400.0);
        for w in shifts.windows(2) {
            assert_eq!(
                w[0].until,
                Some(w[1].at),
                "each handover must end when the next begins"
            );
        }
        assert_eq!(shifts.last().unwrap().until, None);
        // deltas stay inside the clamp-safe envelope
        let p = PathProfile::Mobile.params();
        for s in &shifts {
            assert!(s.fwd.abs() <= 0.6 * p.fwd_min + 1e-12);
            assert!(s.back.abs() <= 0.6 * p.back_min + 1e-12);
        }
    }

    #[test]
    fn apply_composes_with_template_schedules() {
        let template = crate::Scenario::baseline(9)
            .with_duration(7200.0)
            .with_outage(100.0, 200.0)
            .with_shift(LevelShift::forward_only(500.0, None, 1e-3));
        let sc = PathProfile::Satellite.apply(&template, 1234);
        assert_eq!(sc.seed, 1234);
        assert_eq!(sc.path.outages, vec![(100.0, 200.0)], "outages preserved");
        assert_eq!(sc.path.shifts.events().len(), 1, "template shift preserved");
        assert_eq!(sc.path.params, Some(PathProfile::Satellite.params()));
        assert_eq!(sc.path.loss_prob, PathProfile::Satellite.loss_prob());
        let mob = PathProfile::Mobile.apply(&template, 1234);
        assert!(
            mob.path.shifts.events().len() > 1,
            "mobile appends handovers to the template shift"
        );
    }

    #[test]
    fn assignment_is_deterministic_and_respects_weights() {
        let mix = ProfileMix::consumer();
        let n = 20_000;
        let mut counts = [0usize; 5];
        for i in 0..n {
            let p = mix.assign(42, i);
            assert_eq!(p, mix.assign(42, i), "assignment must be pure");
            let idx = ALL_PROFILES.iter().position(|&q| q == p).unwrap();
            counts[idx] += 1;
        }
        let total: u32 = mix.weights.iter().sum();
        for (k, &c) in counts.iter().enumerate() {
            let expect = n as f64 * mix.weights[k] as f64 / total as f64;
            if mix.weights[k] == 0 {
                assert_eq!(c, 0);
            } else {
                assert!(
                    (c as f64 - expect).abs() < 5.0 * expect.sqrt() + 5.0,
                    "profile {k}: {c} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn single_mix_assigns_only_that_profile() {
        for p in ALL_PROFILES {
            let mix = ProfileMix::single(p);
            for i in 0..100 {
                assert_eq!(mix.assign(7, i), p);
            }
        }
    }
}
