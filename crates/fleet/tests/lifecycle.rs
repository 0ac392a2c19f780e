//! Lifecycle robustness: backoff determinism, fleet-wide jitter spread,
//! and the thundering-herd ablation the PR's acceptance bar names.

use tsc_fleet::{
    compare_herd, replay, ClientState, ExchangeOutcome, LifecycleClient, LifecycleConfig,
    PopulationConfig, WorkerPool,
};
use tsc_netsim::{ProfileMix, Scenario};
use tscclock::ClockConfig;

fn lc() -> LifecycleConfig {
    LifecycleConfig::defaults(16.0)
}

/// The full retry schedule a client runs when every request times out:
/// first-send phase, then each backoff delay until cooldown.
fn retry_schedule(seed: u64) -> Vec<f64> {
    let mut c = LifecycleClient::new(lc(), ClockConfig::paper_defaults(16.0), seed, 0.0);
    let mut sched = vec![c.next_send()];
    let mut now = c.next_send() + lc().timeout;
    loop {
        let out = c.on_timeout(now);
        assert_eq!(out, ExchangeOutcome::TimedOut);
        sched.push(c.next_send());
        if c.state() == ClientState::Failed {
            break;
        }
        now = c.next_send() + lc().timeout;
    }
    sched
}

#[test]
fn same_seed_same_retry_schedule_bit_for_bit() {
    for seed in [0, 1, 42, u64::MAX] {
        let a = retry_schedule(seed);
        let b = retry_schedule(seed);
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a.len() as u32, lc().max_retries + 1);
    }
    assert_ne!(retry_schedule(1), retry_schedule(2));
}

/// Jitter must actually spread a fleet: the first retry delay across
/// 1000 clients should cover most of the ±50 % jitter band, not cluster.
#[test]
fn jitter_spread_is_non_degenerate_across_1000_clients() {
    let base = lc().backoff_base;
    let mut delays: Vec<f64> = (0..1000u64)
        .map(|seed| {
            let mut c =
                LifecycleClient::new(lc(), ClockConfig::paper_defaults(16.0), seed, 0.0);
            let now = c.next_send() + lc().timeout;
            c.on_timeout(now);
            c.next_send() - now
        })
        .collect();
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lo = delays[0];
    let hi = delays[999];
    // every delay in the documented band
    assert!(lo >= base * 0.5 - 1e-9 && hi <= base * 1.5 + 1e-9, "{lo}..{hi}");
    // spread covers at least 90 % of the band
    assert!(hi - lo > 0.9 * base, "degenerate spread {lo}..{hi}");
    // roughly uniform: each quartile of the band holds 15–35 % of clients
    for q in 0..4 {
        let a = base * (0.5 + 0.25 * q as f64);
        let b = base * (0.5 + 0.25 * (q + 1) as f64);
        let n = delays.iter().filter(|&&d| d >= a && d < b).count();
        assert!((150..=350).contains(&n), "quartile {q}: {n}/1000");
    }
    // and all 1000 schedules are distinct
    delays.dedup();
    assert_eq!(delays.len(), 1000, "duplicate retry delays across seeds");
}

/// The acceptance-bar scenario: a synced fleet hits a server outage; when
/// the server returns, naive fixed-interval retry hammers it while
/// jittered exponential backoff caps the spike — by at least 3×.
fn herd_cfg(clients: usize) -> PopulationConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(2.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 600.0);
    let mut cfg = PopulationConfig::new(clients, 5, scenario, ClockConfig::paper_defaults(16.0));
    // one profile keeps the delay thresholds identical across the two
    // arms, so the ablation isolates the retry policy
    cfg.mix = ProfileMix::single(tsc_netsim::PathProfile::Wifi);
    cfg.naive_retry = 2.0;
    cfg
}

#[test]
fn jittered_backoff_caps_the_thundering_herd_by_3x() {
    let cfg = herd_cfg(64);
    let mut pool = WorkerPool::new(4);
    let herd = compare_herd(&mut pool, &cfg, 16.0);
    // both arms were alive and polling before the outage
    let pre = (0.0, 3600.0);
    assert!(herd.naive.peak_in(pre) > 0 && herd.jittered.peak_in(pre) > 0);
    assert!(
        herd.naive_peak > 0,
        "naive arm sent nothing post-outage — scenario broken"
    );
    assert!(
        herd.ratio() >= 3.0,
        "jittered backoff must cap the post-outage spike ≥3×: naive {} vs jittered {} (ratio {:.2})",
        herd.naive_peak,
        herd.jittered_peak,
        herd.ratio()
    );
}

/// After the outage both arms must actually *recover* — capping the herd
/// by never re-syncing would be cheating.
#[test]
fn both_herd_arms_recover_after_the_outage() {
    let cfg = herd_cfg(32);
    let mut pool = WorkerPool::new(4);
    let herd = compare_herd(&mut pool, &cfg, 16.0);
    for (name, arm) in [("naive", &herd.naive), ("jittered", &herd.jittered)] {
        let recovered = arm
            .clients
            .iter()
            .filter(|c| {
                matches!(c.final_state, ClientState::Synced | ClientState::Syncing)
            })
            .count();
        assert!(
            recovered >= arm.clients.len() * 3 / 4,
            "{name}: only {recovered}/{} clients recovered",
            arm.clients.len()
        );
    }
}

/// The CI scenario matrix: every profile must carry a small population
/// end to end — join, align, serve — on a short run. A profile whose
/// delay threshold, handover schedule, or path parameters are broken
/// shows up here as a fleet that never accepts a sample.
#[test]
fn scenario_matrix_every_profile_sustains_a_fleet() {
    use tsc_netsim::ALL_PROFILES;
    for profile in ALL_PROFILES {
        let scenario = Scenario::baseline(3)
            .with_poll_period(16.0)
            .with_duration(3600.0);
        let mut cfg =
            PopulationConfig::new(4, 11, scenario, ClockConfig::paper_defaults(16.0));
        cfg.mix = ProfileMix::single(profile);
        for c in &replay(None, &cfg) {
            assert_eq!(c.profile, profile);
            let (req, acc, _, _) = c.counters;
            assert!(req > 50, "{profile:?} client {} sent {req}", c.client);
            assert!(
                acc as f64 / req as f64 > 0.5,
                "{profile:?} client {}: only {acc}/{req} accepted",
                c.client
            );
            assert!(!c.errors.is_empty(), "{profile:?} client {} never aligned", c.client);
        }
    }
}

/// Degradation is graceful fleet-wide: during the outage clients keep
/// serving (Degraded) rather than dying, and time-in-state accounts for
/// the whole member window.
#[test]
fn outage_degrades_rather_than_kills() {
    let cfg = herd_cfg(24);
    let summary = cfg.summarize(replay(None, &cfg));
    let t = summary.time_in_state();
    let degraded_or_failed = t[ClientState::Degraded as usize] + t[ClientState::Failed as usize];
    assert!(
        degraded_or_failed > 0.0,
        "a 10-minute outage must push someone out of Synced: {t:?}"
    );
    assert!(
        t[ClientState::Synced as usize] > degraded_or_failed,
        "most of the run is healthy: {t:?}"
    );
    let total: f64 = t.iter().sum();
    let expect: f64 = summary
        .clients
        .iter()
        .map(|c| c.left_at - c.joined_at)
        .sum();
    assert!((total - expect).abs() < 1e-6 * expect.max(1.0), "{total} vs {expect}");
}
