//! Resume ≡ uninterrupted: the snapshot codec's whole contract.
//!
//! Each differential test replays a component straight through, then
//! replays it again with a snapshot/restore round trip through bytes at a
//! chosen split point — including the awkward ones: mid-warmup (pending
//! first packet, unwarmed windows), mid-rebuild (between the offset
//! estimator's incremental rebuild anchors), mid-outage, right after a
//! level shift. Every per-packet output after the split must match the
//! uninterrupted run **bit for bit**, and the final sealed snapshots must
//! be byte-identical.
//!
//! The proptest half fuzzes the restore path: arbitrary truncations and
//! single-bit flips of real envelopes must always yield a typed
//! [`SnapshotError`] — never a panic, never an `Ok` clock built from
//! corrupt bytes.

use proptest::prelude::*;
use std::sync::OnceLock;
use tsc_fleet::{LifecycleClient, LifecycleConfig};
use tsc_netsim::{
    LevelShift, MultiServerScenario, OnDemandSim, RoundSample, Scenario, ServerKind, ServerPath,
};
use tsc_quorum::{QuorumClock, QuorumConfig, QuorumOutput};
use tscclock::{ClockConfig, ClockEvent, ProcessOutput, RawExchange, SnapshotError, TscNtpClock};

/// Every field of a per-packet output as raw bits — `f64` equality would
/// conflate `-0.0` with `0.0` and miss NaN payloads.
fn output_bits(o: &ProcessOutput) -> [u64; 8] {
    [
        o.idx,
        o.rtt.to_bits(),
        o.point_error.to_bits(),
        o.theta_naive.to_bits(),
        o.theta_hat.to_bits(),
        o.p_hat.to_bits(),
        o.p_local.map_or(u64::MAX, f64::to_bits),
        o.events.iter().map(|e| 1u64 << (e as u16)).sum(),
    ]
}

/// An eventful single-server scenario scaled to the poll period: loss,
/// a server outage, and a forward level shift mid-run.
fn eventful_scenario(poll: f64) -> Scenario {
    Scenario::baseline(0)
        .with_poll_period(poll)
        .with_duration(poll * 500.0)
        .with_outage(poll * 150.0, poll * 170.0)
        .with_shift(LevelShift::forward_only(poll * 300.0, None, 0.9e-3))
}

/// Materializes the scenario's delivered exchanges.
fn exchanges(scenario: &Scenario, seed: u64) -> Vec<RawExchange> {
    let mut stream = scenario.stream_with_seed(seed).raw();
    let mut buf = Vec::new();
    let mut all = Vec::new();
    loop {
        buf.clear();
        if stream.fill_batch(&mut buf, 256) == 0 {
            break;
        }
        all.extend_from_slice(&buf);
    }
    all
}

/// Replays `exs` with an optional snapshot/restore round trip before
/// packet `split`; returns every per-packet output (bit patterns) plus
/// the final sealed snapshot.
fn run_clock(
    cfg: &ClockConfig,
    rebuild_cadence: Option<u32>,
    exs: &[RawExchange],
    split: Option<usize>,
) -> (Vec<Option<[u64; 8]>>, Vec<u8>) {
    let mut clock = TscNtpClock::new(*cfg);
    if let Some(every) = rebuild_cadence {
        clock.set_offset_rebuild_cadence(every);
    }
    let mut outs = Vec::with_capacity(exs.len());
    for (i, &ex) in exs.iter().enumerate() {
        if split == Some(i) {
            let blob = clock.snapshot();
            clock = TscNtpClock::restore(&blob).expect("snapshot of a live clock must restore");
        }
        outs.push(clock.process(ex).map(|o| output_bits(&o)));
    }
    (outs, clock.snapshot())
}

#[test]
fn clock_resume_equals_uninterrupted_across_poll_rates_and_split_points() {
    // The §5.2 local rate maintained too, on the windows shrunk as in the
    // differential proptests (τ̄ = 32 polls, W = 4, 16 warm-up packets).
    let mut local_rate = ClockConfig::paper_defaults(16.0);
    local_rate.tau_bar = 32.0 * 16.0;
    local_rate.w_split = 4;
    local_rate.warmup_packets = 16;
    local_rate.use_local_rate = true;
    // A week is 590 polls even at poll 1024, so only a shrunk top window
    // slides inside a 500-packet run: 128 polls (τ̄ and Ts shrunk to fit).
    let mut short_window = ClockConfig::paper_defaults(16.0);
    short_window.top_window = 128.0 * 16.0;
    short_window.tau_bar = 32.0 * 16.0;
    short_window.ts_window = short_window.tau_bar / 2.0;
    let cfgs = [16.0, 64.0, 1024.0].map(ClockConfig::paper_defaults);
    for cfg in cfgs.iter().chain([&local_rate, &short_window]) {
        let poll = cfg.poll_period;
        let exs = exchanges(&eventful_scenario(poll), 3);
        assert!(exs.len() >= 400, "poll {poll}: only {} exchanges", exs.len());
        let (want, want_blob) = run_clock(cfg, None, &exs, None);
        // splits: mid-warmup (1, 2, 5), steady state, inside the outage
        // gap, right after the level shift, and at the very end; with the
        // local rate, the first two splits follow its first estimate
        let mut splits = vec![1usize, 2, 5, 60, 137, 155, 310, exs.len() - 1];
        if cfg.use_local_rate {
            // output_bits()[6] is p_local, u64::MAX while it is None
            let first = want.iter().position(|o| o.is_some_and(|o| o[6] != u64::MAX));
            let first = first.expect("local rate estimated");
            assert!(first + 7 < 137, "first p_local at packet {first}");
            splits.splice(..4, [first + 1, first + 7]);
        }
        if cfg.top_window < ClockConfig::paper_defaults(poll).top_window {
            // one packet before and one after a slide, and right after
            // the upward shift is confirmed
            let at = |e: ClockEvent| {
                let bit = 1u64 << (e as u16);
                want.iter().position(|o| o.is_some_and(|o| o[7] & bit != 0))
            };
            let slide = at(ClockEvent::WindowSlid).expect("the top window slides");
            let shift = at(ClockEvent::UpwardShift).expect("the level shift is confirmed");
            splits.extend([slide, slide + 1, shift + 1]);
        }
        for split in splits {
            let (got, got_blob) = run_clock(cfg, None, &exs, Some(split));
            let lr = cfg.use_local_rate;
            assert_eq!(got, want, "poll {poll}, local rate {lr}, split {split}");
            assert_eq!(got_blob, want_blob, "poll {poll}, local rate {lr}, split {split}: drifted");
        }
    }
}

/// The offset estimator rebuilds its factored-weight sums incrementally
/// every `cadence` packets; with the cadence forced down to 7, most split
/// points land *between* rebuild anchors — the restored sums must carry
/// the partially-accumulated cycle exactly (the cadence override itself
/// rides inside the snapshot).
#[test]
fn clock_resume_is_exact_mid_rebuild_cycle() {
    let poll = 64.0;
    let scenario = eventful_scenario(poll);
    let exs = exchanges(&scenario, 9);
    let cfg = ClockConfig::paper_defaults(poll);
    let (want, want_blob) = run_clock(&cfg, Some(7), &exs, None);
    for split in [3usize, 8, 13, 100, 153, 305, 400] {
        assert_ne!(split % 7, 0, "pick splits that fall mid-cycle");
        let (got, got_blob) = run_clock(&cfg, Some(7), &exs, Some(split));
        assert_eq!(got, want, "split {split}");
        assert_eq!(got_blob, want_blob, "split {split}: final state drifted");
    }
}

/// QuorumOutput as raw bits.
fn quorum_bits(o: &QuorumOutput) -> [u64; 7] {
    [
        o.round,
        (o.delivered_mask as u64) | ((o.candidate_mask as u64) << 32),
        (o.excluded_mask as u64) | ((o.demoted_mask as u64) << 32),
        o.tsc_ref,
        o.utc_ref.to_bits(),
        o.p_hat.to_bits(),
        u64::from(o.combined),
    ]
}

/// An eventful three-server template: one server goes dark mid-run, one
/// develops a silent asymmetry — demotion and readmission both fire.
fn quorum_rounds() -> Vec<Vec<Option<RawExchange>>> {
    let scenario = MultiServerScenario::baseline(3, 0)
        .with_poll_period(64.0)
        .with_duration(64.0 * 450.0)
        .with_server_path(
            1,
            ServerPath::new(ServerKind::Int).with_outage(64.0 * 150.0, 64.0 * 250.0),
        )
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext)
                .with_shift(LevelShift::asymmetric(64.0 * 300.0, None, 2e-3)),
        );
    let mut stream = scenario.stream_with_seed(5);
    let mut samples: Vec<RoundSample> = Vec::new();
    let mut rounds = Vec::new();
    while stream.next_round(&mut samples) {
        rounds.push(samples.iter().map(|s| s.delivered.then_some(s.raw)).collect());
    }
    rounds
}

fn run_quorum(
    rounds: &[Vec<Option<RawExchange>>],
    split: Option<usize>,
) -> (Vec<[u64; 7]>, Vec<u8>) {
    let mut q = QuorumClock::new(3, QuorumConfig::paper_defaults(64.0));
    let mut outs = Vec::with_capacity(rounds.len());
    for (i, round) in rounds.iter().enumerate() {
        if split == Some(i) {
            let blob = q.snapshot();
            q = QuorumClock::restore(&blob).expect("snapshot of a live quorum must restore");
        }
        outs.push(quorum_bits(&q.process_round(round)));
    }
    (outs, q.snapshot())
}

#[test]
fn quorum_resume_equals_uninterrupted() {
    let rounds = quorum_rounds();
    assert!(rounds.len() >= 440, "{} rounds", rounds.len());
    let (want, want_blob) = run_quorum(&rounds, None);
    // mid-warmup, steady, mid-outage (server 1 dark), post-asymmetry
    for split in [1usize, 80, 200, 320, rounds.len() - 1] {
        let (got, got_blob) = run_quorum(&rounds, Some(split));
        assert_eq!(got, want, "split {split}");
        assert_eq!(got_blob, want_blob, "split {split}: final state drifted");
    }
}

/// The lifecycle wrapper, driven on its own request timeline against an
/// on-demand sim with an outage (backoff ladder + cooldown in play). The
/// sim is the *network* — it survives the client's crash — so only the
/// client round-trips through bytes.
fn run_lifecycle(split: Option<u64>) -> (Vec<[u64; 3]>, Vec<u8>) {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(2.0 * 3600.0)
        .with_outage(3600.0, 3600.0 + 600.0);
    let lc = LifecycleConfig::defaults(16.0);
    let mut client = LifecycleClient::new(lc, ClockConfig::paper_defaults(16.0), 7, 0.0);
    let mut sim = OnDemandSim::new(&scenario);
    let nominal_period = 1.0 / sim.tsc_freq_hz();
    let mut steps = Vec::new();
    let mut n = 0u64;
    loop {
        let t = client.next_send().max(sim.earliest_next());
        if t >= scenario.duration {
            break;
        }
        if split == Some(n) {
            let blob = client.snapshot();
            client =
                LifecycleClient::restore(&blob).expect("snapshot of a live client must restore");
        }
        client.end_cooldown(t);
        client.note_request();
        let e = sim.exchange_at(t);
        let code = if e.lost || e.truth.tf - t > lc.timeout {
            client.on_timeout(t + lc.timeout);
            0u64
        } else {
            let raw = RawExchange {
                ta_tsc: e.ta_tsc,
                tb: e.tb,
                te: e.te,
                tf_tsc: e.tf_tsc,
            };
            client.on_response(e.truth.tf, raw, nominal_period);
            1u64
        };
        steps.push([t.to_bits(), code | (client.state() as u64) << 8, client.next_send().to_bits()]);
        n += 1;
    }
    (steps, client.snapshot())
}

#[test]
fn lifecycle_resume_equals_uninterrupted() {
    let (want, want_blob) = run_lifecycle(None);
    assert!(want.len() > 300, "{} steps", want.len());
    // the outage starts at t = 3600 ⇒ request ≈ 3600/16 = 225: split
    // before it, inside the backoff/cooldown churn, and after recovery
    for split in [1u64, 100, 228, 240, 400] {
        let (got, got_blob) = run_lifecycle(Some(split));
        assert_eq!(got, want, "split {split}");
        assert_eq!(got_blob, want_blob, "split {split}: final state drifted");
    }
}

/// Real sealed envelopes of all three component kinds, built once.
fn sample_blobs() -> &'static Vec<Vec<u8>> {
    static BLOBS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let scenario = Scenario::baseline(0)
            .with_poll_period(1024.0)
            .with_duration(1024.0 * 60.0);
        let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(1024.0));
        for &ex in &exchanges(&scenario, 1) {
            clock.process(ex);
        }
        let mut q = QuorumClock::new(3, QuorumConfig::paper_defaults(64.0));
        for round in quorum_rounds().iter().take(60) {
            q.process_round(round);
        }
        let (_, lifecycle_blob) = run_lifecycle(None);
        vec![clock.snapshot(), q.snapshot(), lifecycle_blob]
    })
}

/// Restore of kind `which` (0 = clock, 1 = quorum, 2 = lifecycle): must
/// return a typed error, and must never panic.
fn try_restore(which: usize, bytes: &[u8]) -> Result<(), SnapshotError> {
    match which {
        0 => TscNtpClock::restore(bytes).map(|_| ()),
        1 => QuorumClock::restore(bytes).map(|_| ()),
        _ => LifecycleClient::restore(bytes).map(|_| ()),
    }
}

proptest! {
    /// Any truncation of a valid envelope fails with a typed error.
    #[test]
    fn truncated_snapshots_always_fail_cleanly(which in 0usize..3, cut in 0usize..1 << 20) {
        let blob = &sample_blobs()[which];
        let cut = cut % blob.len(); // strictly shorter than the envelope
        prop_assert!(try_restore(which, &blob[..cut]).is_err(), "kind {which}, cut {cut}");
    }

    /// Any single-bit flip anywhere in a valid envelope — header, payload,
    /// or checksum trailer — fails with a typed error.
    #[test]
    fn bit_flipped_snapshots_always_fail_cleanly(
        which in 0usize..3,
        idx in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let mut blob = sample_blobs()[which].clone();
        let idx = idx % blob.len();
        blob[idx] ^= 1 << bit;
        prop_assert!(try_restore(which, &blob).is_err(), "kind {which}, byte {idx}, bit {bit}");
    }
}

/// A valid envelope of the wrong component kind is rejected *as such* —
/// the checksum passes, so this is the kind check doing its job.
#[test]
fn cross_kind_restore_is_a_kind_mismatch() {
    let blobs = sample_blobs();
    match LifecycleClient::restore(&blobs[0]) {
        Err(SnapshotError::KindMismatch { .. }) => {}
        other => panic!("clock blob into lifecycle restore: {other:?}"),
    }
    match TscNtpClock::restore(&blobs[1]) {
        Err(SnapshotError::KindMismatch { .. }) => {}
        other => panic!("quorum blob into clock restore: {other:?}"),
    }
}
