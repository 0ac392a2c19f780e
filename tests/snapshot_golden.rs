//! Golden snapshot envelopes: format drift is a failing test, not a
//! silent break.
//!
//! `tests/fixtures/*_v<FORMAT_VERSION>.snap` are sealed envelopes of each
//! snapshottable root component — clock, quorum, lifecycle client and a
//! fleet `CHECKPOINT` — committed as bytes, and the only files there
//! ([`fixtures_are_exactly_the_four_of_this_format`]: a stale version's
//! files cannot linger). Each golden test restores one from
//! the *file*, so it keeps passing only while this build still reads what
//! an earlier build wrote: it re-seals the restored state and demands the
//! fixture's bytes back, then resumes a fixed tail of input and pins the
//! digest of everything the component outputs.
//!
//! The clock, quorum and lifecycle inputs come from [`Path`] below (plain
//! arithmetic over an LCG), not from the simulator, so those fixtures move
//! only when the estimator's state or the snapshot format does. The
//! checkpoint fixture is a `PopulationConfig` replay and therefore also
//! depends on `tsc-netsim`'s streams.
//!
//! The fixtures are rewritten only by the `#[ignore]`d
//! [`regenerate_golden_fixtures`], which also prints the digests to pin;
//! CI runs it and `git diff --exit-code tests/fixtures`, which proves the
//! committed bytes are what this source writes. A change that moves them
//! bumps `FORMAT_VERSION` and says how old blobs are treated — today:
//! [`older_format_blobs_are_a_typed_mismatch_and_a_counted_cold_start`].
//!
//! The same fixtures carry the hostile-word restore sweep: a payload word
//! set to each of eight hostile values and re-sealed must restore to a typed
//! error or to a state that runs its golden tail without a panic, reading
//! finite times ([`hostile_words_in_the_clock_fixture_are_refused_or_harmless`]
//! and its quorum, lifecycle and checkpoint twins, where a checkpoint's
//! refusal is a replay's counted cold start; every byte offset in the
//! `#[ignore]`d
//! [`hostile_bytes_at_every_offset_are_refused_or_harmless`]).

mod common;

use common::ClockLayout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::LazyLock;
use tsc_fleet::{
    replay, replay_item, CheckpointStore, ClientSummary, ClockCheckpoint, FleetConfig,
    LifecycleClient, LifecycleConfig, PopulationConfig, ReadVerdict,
};
use tsc_netsim::Scenario;
use tsc_quorum::{HealthTracker, QuorumClock, QuorumConfig};
use tscclock::bound::BOUND_FLOOR;
use tscclock::snapshot::FORMAT_VERSION;
use tscclock::{ClockConfig, RawExchange, SnapshotError, TscNtpClock};

/// Digests of the resumed tails (printed by the regenerator).
const CLOCK_TAIL_DIGEST: u64 = 0xec0a_06ad_8e29_9be1;
const QUORUM_TAIL_DIGEST: u64 = 0x7551_539d_0ca2_f91a;
const LIFECYCLE_TAIL_DIGEST: u64 = 0x15ec_7bfc_4ea6_6ba2;
const CHECKPOINT_RUN_DIGEST: u64 = 0xa9aa_3c07_b368_cb74;

/// Fixtures stay reviewable and cheap to clone.
const MAX_FIXTURE_BYTES: usize = 64 << 10;

const FIXTURES: [&str; 4] = ["checkpoint", "clock", "lifecycle", "quorum"];

fn fixture_dir() -> String {
    format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))
}

fn fixture_path(name: &str) -> String {
    format!("{}/{name}_v{FORMAT_VERSION}.snap", fixture_dir())
}

#[test]
fn fixtures_are_exactly_the_four_of_this_format() {
    let mut found: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("tests/fixtures exists")
        .map(|entry| entry.expect("readable entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    found.sort();
    assert_eq!(found, FIXTURES.map(|name| format!("{name}_v{FORMAT_VERSION}.snap")));
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e} (run regenerate_golden_fixtures)"))
}

/// Per-byte FNV-1a-64: the output digests here, and the trailer of a
/// format-v1 envelope.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(&words.into_iter().flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

/// True period of the synthetic host counter: 1 GHz with +52.4 PPM skew.
const PERIOD: f64 = 1.0000524e-9;

/// A synthetic symmetric path to a perfect server: fixed minimum delay
/// plus cubed-uniform queueing each way, from a 64-bit LCG. Only `+`, `*`
/// and integer conversion, so the stream is the same on every platform.
struct Path {
    lcg: u64,
    min_delay: f64,
}

impl Path {
    fn uniform(&mut self) -> f64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.lcg >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The exchange sent at true time `t`, and the true time it returned.
    fn exchange(&mut self, t: f64) -> (RawExchange, f64) {
        let (u, v) = (self.uniform(), self.uniform());
        let tb = t + self.min_delay + 300e-6 * u * u * u;
        let te = tb + 40e-6;
        let tf = te + self.min_delay + 300e-6 * v * v * v;
        let raw = RawExchange { ta_tsc: (t / PERIOD) as u64, tb, te, tf_tsc: (tf / PERIOD) as u64 };
        (raw, tf)
    }
}

// ---------------------------------------------------------------- clock

const CLOCK_HEAD: usize = 400;
const CLOCK_TAIL: usize = 120;

/// The clock input: 16 s polling, and the route lengthens by 0.6 ms at
/// packet 250 — the fixture is sealed with the shift detector part-way to
/// confirming that, and the tail carries the confirmation and the re-base
/// (packet 404).
fn clock_input() -> Vec<RawExchange> {
    let mut path = Path { lcg: 1, min_delay: 450e-6 };
    (0..CLOCK_HEAD + CLOCK_TAIL)
        .map(|i| {
            if i == 250 {
                path.min_delay += 0.6e-3;
            }
            path.exchange(16.0 * i as f64).0
        })
        .collect()
}

fn build_clock() -> TscNtpClock {
    let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
    for &ex in &clock_input()[..CLOCK_HEAD] {
        clock.process(ex);
    }
    clock
}

fn clock_tail_digest(mut clock: TscNtpClock) -> u64 {
    digest(clock_input()[CLOCK_HEAD..].iter().flat_map(|&ex| {
        let o = clock.process(ex).expect("a warmed clock answers every packet");
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
    }))
}

#[test]
fn golden_clock_restores_reseals_and_resumes() {
    let bytes = fixture("clock");
    let clock = TscNtpClock::restore(&bytes).expect("the committed clock envelope restores");
    assert!(clock.snapshot() == bytes, "re-sealed clock differs from the fixture");
    assert_eq!(clock_tail_digest(clock), CLOCK_TAIL_DIGEST);
}

// --------------------------------------------------------------- quorum

const QUORUM_HEAD: usize = 110;
const QUORUM_TAIL: usize = 50;

/// Three servers at 64 s polling; server 1 is dark for rounds 60..90, so
/// the fixture is sealed with it demoted (round 82) and the tail carries
/// its readmission (round 124).
fn quorum_input() -> Vec<Vec<Option<RawExchange>>> {
    let mut paths =
        [(2u64, 300e-6), (3, 900e-6), (4, 2.5e-3)].map(|(lcg, min_delay)| Path { lcg, min_delay });
    (0..QUORUM_HEAD + QUORUM_TAIL)
        .map(|round| {
            let t = 64.0 * round as f64;
            paths
                .iter_mut()
                .enumerate()
                .map(|(s, path)| {
                    let (raw, _) = path.exchange(t + 0.1 * s as f64);
                    (s != 1 || !(60..90).contains(&round)).then_some(raw)
                })
                .collect()
        })
        .collect()
}

fn build_quorum() -> QuorumClock {
    let mut quorum = QuorumClock::new(3, QuorumConfig::paper_defaults(64.0));
    for round in &quorum_input()[..QUORUM_HEAD] {
        quorum.process_round(round);
    }
    quorum
}

fn quorum_tail_digest(mut quorum: QuorumClock) -> u64 {
    digest(quorum_input()[QUORUM_HEAD..].iter().flat_map(|round| {
        let o = quorum.process_round(round);
        [
            o.round,
            u64::from(o.delivered_mask) | u64::from(o.candidate_mask) << 32,
            u64::from(o.excluded_mask) | u64::from(o.demoted_mask) << 32,
            o.tsc_ref,
            o.utc_ref.to_bits(),
            o.p_hat.to_bits(),
            u64::from(o.combined),
        ]
    }))
}

#[test]
fn golden_quorum_restores_reseals_and_resumes() {
    let bytes = fixture("quorum");
    let quorum = QuorumClock::restore(&bytes).expect("the committed quorum envelope restores");
    assert!(quorum.snapshot() == bytes, "re-sealed quorum differs from the fixture");
    assert_eq!(quorum_tail_digest(quorum), QUORUM_TAIL_DIGEST);
}

// ------------------------------------------------------------ lifecycle

const LIFECYCLE_HEAD: usize = 300;
const LIFECYCLE_TAIL: usize = 120;

/// Drives `client` through requests `range` of its own timeline: the
/// server is unreachable for requests 150..170 (backoff, then cooldown)
/// and again for 320..330, inside the tail. Returns the step digest.
fn drive_lifecycle(
    client: &mut LifecycleClient,
    path: &mut Path,
    range: std::ops::Range<usize>,
) -> u64 {
    let timeout = LifecycleConfig::defaults(16.0).timeout;
    digest(range.flat_map(|n| {
        let t = client.next_send();
        client.end_cooldown(t);
        client.note_request();
        // drawn even when lost, so the path's stream depends on `n` alone
        let (raw, tf) = path.exchange(t);
        let code = if (150..170).contains(&n) || (320..330).contains(&n) {
            client.on_timeout(t + timeout);
            0u64
        } else {
            client.on_response(tf, raw, 1e-9);
            1
        };
        [t.to_bits(), code | (client.state() as u64) << 8, client.next_send().to_bits()]
    }))
}

fn lifecycle_path() -> Path {
    Path { lcg: 5, min_delay: 450e-6 }
}

fn build_lifecycle() -> (LifecycleClient, Path) {
    let mut client = LifecycleClient::new(
        LifecycleConfig::defaults(16.0),
        ClockConfig::paper_defaults(16.0),
        7,
        0.0,
    );
    let mut path = lifecycle_path();
    drive_lifecycle(&mut client, &mut path, 0..LIFECYCLE_HEAD);
    (client, path)
}

#[test]
fn golden_lifecycle_restores_reseals_and_resumes() {
    let bytes = fixture("lifecycle");
    let mut client =
        LifecycleClient::restore(&bytes).expect("the committed lifecycle envelope restores");
    assert!(client.snapshot() == bytes, "re-sealed client differs from the fixture");
    // the path is the network: it is not in the snapshot, so fast-forward
    // a fresh one (two draws per request) to where the client stopped
    let mut path = lifecycle_path();
    for _ in 0..2 * LIFECYCLE_HEAD {
        path.uniform();
    }
    let tail =
        drive_lifecycle(&mut client, &mut path, LIFECYCLE_HEAD..LIFECYCLE_HEAD + LIFECYCLE_TAIL);
    assert_eq!(tail, LIFECYCLE_TAIL_DIGEST);
}

// ----------------------------------------------------- fleet checkpoint

const CHECKPOINT_EVERY: u64 = 125;
/// The fixture is the checkpoint sealed at this request count.
const CHECKPOINT_AT: u64 = 2 * CHECKPOINT_EVERY;

/// One lifecycle client over two simulated hours with a server outage:
/// ~450 requests, checkpoints at 125, 250 and 375.
fn checkpoint_workload() -> PopulationConfig {
    let scenario = Scenario::baseline(0)
        .with_poll_period(16.0)
        .with_duration(2.0 * 3600.0)
        .with_outage(3000.0, 3300.0);
    PopulationConfig::new(1, 77, scenario, ClockConfig::paper_defaults(16.0))
}

/// Keeps every checkpoint it is given; hands back only `serve`.
#[derive(Default)]
struct Recording {
    serve: Option<ClockCheckpoint>,
    saved: Vec<ClockCheckpoint>,
}

impl CheckpointStore for Recording {
    fn save(&mut self, ck: ClockCheckpoint) {
        self.saved.push(ck);
    }
    fn last(&self) -> Option<&ClockCheckpoint> {
        self.serve.as_ref()
    }
}

/// The uninterrupted run's checkpoints, in order.
fn build_checkpoints() -> Vec<ClockCheckpoint> {
    let mut store = Recording::default();
    replay_item(&checkpoint_workload(), 0, CHECKPOINT_EVERY, &[], &mut store);
    assert_eq!(store.saved[1].delivered, CHECKPOINT_AT);
    store.saved
}

#[test]
fn golden_checkpoint_recovers_a_crashed_replay() {
    let bytes = fixture("checkpoint");
    let w = checkpoint_workload();
    let plain = &replay(None, &w)[0];
    let reference = build_checkpoints();
    // crash at 300 with only the committed file to recover from
    let mut store = Recording {
        serve: Some(ClockCheckpoint { delivered: CHECKPOINT_AT, digest: 0, blob: bytes.clone() }),
        ..Default::default()
    };
    let (got, stats) = replay_item(&w, 0, CHECKPOINT_EVERY, &[300], &mut store);
    assert_eq!((stats.warm_restores, stats.cold_restarts), (1, 0), "{stats:?}");
    assert_eq!(stats.replayed, CHECKPOINT_AT);
    assert_eq!(&got, plain, "resuming from the fixture diverged from the uninterrupted run");
    assert_eq!(got.digest, CHECKPOINT_RUN_DIGEST);
    // the live state sealed at the fixture's count, and the state resumed
    // *from* the fixture sealed 125 requests later, are the same bytes the
    // uninterrupted run seals
    assert!(store.saved[1].blob == bytes, "checkpoint at {CHECKPOINT_AT} differs from the fixture");
    assert_eq!(store.saved.len(), reference.len());
    assert!(store.saved[2] == reference[2], "checkpoint after the resume drifted");
}

// ------------------------------------------------------- older formats

/// The envelope an older writer sealed around the same payload bytes:
/// its version in the header and its own trailer over header + payload —
/// per-byte FNV-1a-64 for v1, today's lane checksum from v2 on.
fn as_version(blob: &[u8], version: u16) -> Vec<u8> {
    let mut old = blob[..blob.len() - 8].to_vec();
    old[4..6].copy_from_slice(&version.to_le_bytes());
    let sum = if version == 1 { fnv1a(&old) } else { tscclock::snapshot::checksum(&old) };
    old.extend_from_slice(&sum.to_le_bytes());
    old
}

/// A v1‥v6 blob is intact by its own rules, so the refusal must be the
/// version check speaking — and a replay that finds one where its
/// checkpoint should be must count a cold start and stay exact.
#[test]
fn older_format_blobs_are_a_typed_mismatch_and_a_counted_cold_start() {
    assert_eq!(FORMAT_VERSION, 7, "a bump extends the versions tried below");
    for found in [1, 2, 3, 4, 5, 6] {
        let old = SnapshotError::VersionMismatch { found, expected: 7 };
        let of = |name| as_version(&fixture(name), found);
        assert_eq!(TscNtpClock::restore(&of("clock")).err(), Some(old.clone()));
        assert_eq!(QuorumClock::restore(&of("quorum")).err(), Some(old.clone()));
        assert_eq!(LifecycleClient::restore(&of("lifecycle")).err(), Some(old));
        counted_cold_start(of("clock"));
    }
}

/// A crashed replay whose only checkpoint is `blob` restarts cold, says
/// so, and still ends where the uninterrupted run does.
fn counted_cold_start(blob: Vec<u8>) {
    let scenario = Scenario::baseline(0).with_poll_period(64.0).with_duration(64.0 * 300.0);
    let w = FleetConfig::new(1, 5, scenario, ClockConfig::paper_defaults(64.0));
    let mut store = Recording {
        serve: Some(ClockCheckpoint { delivered: 100, digest: 0, blob }),
        ..Default::default()
    };
    #[cfg(feature = "telemetry")]
    let cold_before = {
        tsc_telemetry::clear_flight_recorder();
        tsc_telemetry::global().counter(tsc_telemetry::Ctr::ColdRestarts)
    };
    let (got, stats) = replay_item(&w, 0, 0, &[150], &mut store);
    assert_eq!((stats.crashes, stats.cold_restarts, stats.warm_restores), (1, 1, 0));
    assert_eq!(got, replay(None, &w)[0], "the cold start diverged");
    #[cfg(feature = "telemetry")]
    {
        let cold = tsc_telemetry::global().counter(tsc_telemetry::Ctr::ColdRestarts);
        assert!(cold > cold_before, "cold restart not counted");
        let dump = tsc_telemetry::flight_dump();
        for want in ["restore-failed", "SnapshotError::VersionMismatch", "cold-restart"] {
            assert!(dump.contains(want), "flight dump lacks {want}:\n{dump}");
        }
    }
}

// ------------------------------------------- the checksum's guarantee

/// The module docs of `tscclock::snapshot` prove that replacing one
/// aligned 8-byte word by *any* other value changes the checksum. Try
/// 10 000 (word, value) pairs on a real clock envelope: every one must be
/// refused, and past the header words by the checksum itself.
#[test]
fn any_substitution_of_one_aligned_word_is_detected() {
    let mut bytes = fixture("clock");
    let blocked_words = (bytes.len() - 8) / 32 * 4;
    let xor_word = |bytes: &mut [u8], word: usize, delta: u64| {
        for (b, d) in bytes[8 * word..8 * word + 8].iter_mut().zip(delta.to_le_bytes()) {
            *b ^= d;
        }
    };
    for case in 0..10_000u64 {
        let mut rng = proptest::TestRng::for_case("one_aligned_word", case);
        let word = rng.below(blocked_words as u64) as usize;
        let delta = rng.next_u64().max(1); // xor with non-zero: a different word
        xor_word(&mut bytes, word, delta);
        let err = TscNtpClock::restore(&bytes).err();
        xor_word(&mut bytes, word, delta); // and back
        if word >= 2 {
            // words 0 and 1 hold magic, version, kind and length
            assert_eq!(err, Some(SnapshotError::Checksum), "word {word} ^ {delta:#x}");
        } else {
            assert!(err.is_some(), "header word {word} ^ {delta:#x} restored");
        }
    }
}

// ------------------------------------------------ hostile-word restore

/// A restore of any swept blob allocates at most this many bytes per byte
/// of the blob. What it allocates is the restored state's rings: the
/// history's records, the shift ring the blob had to hold, and the offset
/// window's ring, sized by the records present, not by the configured
/// window. The largest the full byte-stride sweep saw was 2.82
/// (lifecycle), where a hostile τ′ puts every record into the offset
/// window.
const RESTORE_ALLOC_PER_BLOB_BYTE: u64 = 4;

/// How a sweep's cases came out.
#[derive(Debug, Default)]
struct Sweep {
    refused: usize,
    restored: usize,
    /// `(payload offset, value)` of every case that panicked, read a time
    /// that is not finite, or allocated past the bound.
    failed: Vec<(usize, u64)>,
    /// The most bytes one restore allocated, per byte of its blob.
    alloc_per_byte: f64,
}

/// How one swept blob came out: whether it was refused, whether it met
/// the rule, and the bytes its restore allocated.
struct Case {
    refused: bool,
    ok: bool,
    allocated: u64,
}

/// Overwrites the eight bytes at each of `offsets` in the fixture `name`
/// with each of [`common::hostile_values`], re-seals, and hands each blob
/// to `case`. A case must meet its rule and allocate within the bound.
fn sweep(name: &str, offsets: &[usize], case: impl Fn(&[u8]) -> Case) -> Sweep {
    let bytes = fixture(name);
    let payload = common::payload(&bytes);
    let mut out = Sweep::default();
    for &at in offsets {
        let w = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        for bad in common::hostile_values(w) {
            let blob = common::resealed_with(&bytes, at, bad);
            let Case { refused, ok, allocated } = case(&blob);
            out.alloc_per_byte = out.alloc_per_byte.max(allocated as f64 / blob.len() as f64);
            if refused {
                out.refused += 1;
            } else {
                out.restored += 1;
            }
            if !ok || allocated > RESTORE_ALLOC_PER_BLOB_BYTE * blob.len() as u64 {
                out.failed.push((at, bad));
            }
        }
    }
    out
}

/// The rule for a component blob: a typed refusal, or a state that `run`
/// drives through the golden tail, answering whether every read was
/// finite. A panic anywhere breaks the rule.
fn restore_and_run<T>(
    blob: &[u8],
    restore: fn(&[u8]) -> Result<T, SnapshotError>,
    run: fn(T) -> bool,
) -> Case {
    let (restored, allocated) =
        common::bytes_allocated_in(|| catch_unwind(AssertUnwindSafe(|| restore(blob))));
    let (refused, ok) = match restored {
        Ok(Err(_)) => (true, true),
        Ok(Ok(state)) => (false, catch_unwind(AssertUnwindSafe(|| run(state))).unwrap_or(false)),
        Err(_) => (false, false),
    };
    Case { refused, ok, allocated }
}

/// The tier-1 sweep's offsets for fixture `name`, given the clocks it
/// holds, where each clock's state starts in its payload, and the stride
/// within those states ([`common::swept_offsets`]).
fn swept_offsets(name: &str, clocks: &[(&TscNtpClock, usize)], clock_stride: usize) -> Vec<usize> {
    let bytes = fixture(name);
    let payload = common::payload(&bytes);
    let layouts: Vec<_> =
        clocks.iter().map(|&(clock, at)| ClockLayout::at(clock, payload, at)).collect();
    common::swept_offsets(payload.len(), &layouts, clock_stride)
}

/// The clock and quorum golden tails, built once for all swept cases.
static CLOCK_TAIL_INPUT: LazyLock<Vec<RawExchange>> =
    LazyLock::new(|| clock_input().split_off(CLOCK_HEAD));
static QUORUM_TAIL_INPUT: LazyLock<Vec<Vec<Option<RawExchange>>>> =
    LazyLock::new(|| quorum_input().split_off(QUORUM_HEAD));

/// Whether the restored clock reads finite times over the golden tail.
fn run_clock(mut clock: TscNtpClock) -> bool {
    CLOCK_TAIL_INPUT.iter().all(|&ex| {
        clock.process(ex);
        clock.absolute_time(ex.tf_tsc).is_none_or(f64::is_finite)
    })
}

fn run_quorum(mut quorum: QuorumClock) -> bool {
    QUORUM_TAIL_INPUT.iter().all(|round| {
        let o = quorum.process_round(round);
        !o.combined || quorum.absolute_time(o.tsc_ref).is_some_and(f64::is_finite)
    })
}

fn run_lifecycle(mut client: LifecycleClient) -> bool {
    let mut path = lifecycle_path();
    for _ in 0..2 * LIFECYCLE_HEAD {
        path.uniform();
    }
    (LIFECYCLE_HEAD..LIFECYCLE_HEAD + LIFECYCLE_TAIL).all(|n| {
        drive_lifecycle(&mut client, &mut path, n..n + 1);
        let tsc = client.clock().history().last().map_or(0, |r| r.ex.tf_tsc);
        match client.read(tsc, client.next_send()) {
            ReadVerdict::Fresh { time, bound } | ReadVerdict::Degraded { time, bound, .. } => {
                time.is_finite() && bound.is_finite()
            }
            ReadVerdict::Stale { age } => age.is_finite(),
            ReadVerdict::Unavailable => true,
        }
    })
}

/// Where the checkpoint fixture's sidecar sits around the client blob it
/// carries: the request count and digest, the client envelope, then the
/// send times, histogram buckets and errors, each a count and its elements.
struct CheckpointLayout {
    client: std::ops::Range<usize>,
    /// The element bytes of the three arrays.
    arrays: [std::ops::Range<usize>; 3],
    /// Errors the checkpointed state holds: the reads before it.
    errors: usize,
}

impl CheckpointLayout {
    fn of(payload: &[u8]) -> Self {
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
        let client = 24..24 + word(16);
        let mut at = client.end;
        let arrays = [8, 4, 8].map(|elem| {
            let elems = at + 8..at + 8 + elem * word(at);
            at = elems.end;
            elems
        });
        assert_eq!(at, payload.len(), "checkpoint layout moved");
        let errors = word(arrays[1].end);
        Self { client, arrays, errors }
    }

    /// The tier-1 offsets: the sidecar has no tag or flag to shift its
    /// fields, so each field's start is swept: the request count, digest
    /// and client length, the client envelope's first and last word (the
    /// lifecycle fixture's sweep restores a client; inside its envelope a
    /// word is the checksum's to refuse), and each array's count, first
    /// and last word.
    fn swept(&self) -> Vec<usize> {
        let mut at = vec![0, 8, 16, self.client.start, self.client.end - 8];
        for r in &self.arrays {
            at.extend([r.start - 8, r.start, r.end - 8]);
        }
        at
    }
}

/// The checkpoint fixture's uninterrupted replay, and its layout.
static CHECKPOINT_PLAIN: LazyLock<ClientSummary> =
    LazyLock::new(|| replay(None, &checkpoint_workload()).swap_remove(0));
static CHECKPOINT_LAYOUT: LazyLock<CheckpointLayout> =
    LazyLock::new(|| CheckpointLayout::of(common::payload(&fixture("checkpoint"))));

/// The rule for a checkpoint blob, served to a replay that crashes on its
/// first request (and so resumes at the checkpoint's count, or at zero
/// without one): a typed refusal is a counted cold start, which must
/// still end where the uninterrupted replay does; a warm restore must run
/// the rest of the replay without a panic and read finite times after it
/// resumed. The restore runs inside the replay,
/// whose own allocations it cannot be told from, so none are counted here
/// (the client it carries is the lifecycle fixture's restore).
fn checkpoint_case(blob: &[u8]) -> Case {
    let resumed = catch_unwind(AssertUnwindSafe(|| {
        let mut store = Recording {
            serve: Some(ClockCheckpoint { delivered: CHECKPOINT_AT, digest: 0, blob: blob.to_vec() }),
            ..Default::default()
        };
        replay_item(&checkpoint_workload(), 0, 0, &[1], &mut store)
    }));
    let (refused, ok) = match resumed {
        Ok((got, stats)) if stats.cold_restarts == 1 => (true, got == *CHECKPOINT_PLAIN),
        Ok((got, stats)) => {
            let reads = got.errors.get(CHECKPOINT_LAYOUT.errors..);
            let finite = reads.is_some_and(|e| e.iter().all(|x| x.is_finite()));
            (false, stats.warm_restores == 1 && finite)
        }
        Err(_) => (false, false),
    };
    Case { refused, ok, allocated: 0 }
}

fn assert_swept(name: &str, s: Sweep) {
    assert!(s.refused > 0 && s.restored > 0, "{name}: {s:?}");
    let first = &s.failed[..s.failed.len().min(8)];
    assert!(s.failed.is_empty(), "{name}: {} failed cases, first {first:?}", s.failed.len());
}

/// Every byte offset of the clock fixture (history records and shift ring:
/// the first and the last element) overwritten with each hostile value and
/// re-sealed: a typed refusal, or a clock that runs the golden tail without
/// a panic and reads finite times.
#[test]
fn hostile_words_in_the_clock_fixture_are_refused_or_harmless() {
    let clock = TscNtpClock::restore(&fixture("clock")).unwrap();
    let history_at = common::saved_len(|w| clock.config().save_state(w));
    let offsets = swept_offsets("clock", &[(&clock, history_at)], 1);
    assert_swept("clock", sweep("clock", &offsets, clock_case));
}

/// The quorum's own words byte by byte, its member clocks' states word by
/// word from each state's start (the clock fixture's sweep covers the
/// clock restore byte by byte).
#[test]
fn hostile_words_in_the_quorum_fixture_are_refused_or_harmless() {
    let quorum = QuorumClock::restore(&fixture("quorum")).unwrap();
    let cfg = quorum.config();
    // the three configurations and K, then per member its clock and tracker
    let mut at = common::saved_len(|w| {
        cfg.clock.save_state(w);
        cfg.health.save_state(w);
        cfg.combiner.save_state(w);
        w.put_usize(quorum.k());
    });
    let tracker = common::saved_len(|w| HealthTracker::new().save_state(w));
    let members: Vec<_> = (0..quorum.k())
        .map(|k| {
            let member = (quorum.server(k), at);
            at += common::saved_len(|w| quorum.server(k).save_state(w)) + tracker;
            member
        })
        .collect();
    let offsets = swept_offsets("quorum", &members, 8);
    assert_swept("quorum", sweep("quorum", &offsets, quorum_case));
}

/// The client's own words byte by byte, its clock's state word by word.
#[test]
fn hostile_words_in_the_lifecycle_fixture_are_refused_or_harmless() {
    let client = LifecycleClient::restore(&fixture("lifecycle")).unwrap();
    let history_at = common::saved_len(|w| {
        LifecycleConfig::defaults(16.0).save_state(w);
        client.clock().config().save_state(w);
    });
    let offsets = swept_offsets("lifecycle", &[(client.clock(), history_at)], 8);
    assert_swept("lifecycle", sweep("lifecycle", &offsets, lifecycle_case));
}

/// A restored last-good bound is served as stored (a sample floors it as
/// it sets it), so a restore refuses one below the floor, NaN included,
/// and what it lets in (`∞` is a never-accepted client's) reads no lower.
#[test]
fn a_hostile_last_good_bound_is_refused_or_reads_at_least_the_floor() {
    let bytes = fixture("lifecycle");
    let client = LifecycleClient::restore(&bytes).unwrap();
    // after the configurations and the clock: the state tag, next send,
    // cooldown end, the two runs and last_good_t (33 bytes), the bound
    let at = 33 + common::saved_len(|w| {
        LifecycleConfig::defaults(16.0).save_state(w);
        client.clock().config().save_state(w);
        client.clock().save_state(w);
    });
    let word = |at: usize| {
        common::payload(&bytes)[at..at + 8].try_into().map(f64::from_le_bytes).unwrap()
    };
    let (tsc, t) = (client.clock().history().last().unwrap().ex.tf_tsc, word(at - 8));
    let bound_at_age_0 = |c: &LifecycleClient| match c.read(tsc, t) {
        ReadVerdict::Fresh { bound, .. } | ReadVerdict::Degraded { bound, .. } => bound,
        v => panic!("a warm client reads a bound, got {v:?}"),
    };
    assert_eq!(bound_at_age_0(&client), word(at), "layout moved");
    for bad in [f64::NAN, -1.0, 0.0, 1e-9, f64::INFINITY] {
        match LifecycleClient::restore(&common::resealed_with(&bytes, at, bad.to_bits())) {
            Ok(c) => assert!(bound_at_age_0(&c) >= BOUND_FLOOR, "{bad} reads below the floor"),
            Err(e) => assert!(matches!(e, SnapshotError::Invalid(_)), "{bad}: {e:?}"),
        }
    }
}

/// The checkpoint's sidecar fields, and the edges of the client envelope
/// it carries ([`CheckpointLayout::swept`]).
#[test]
fn hostile_words_in_the_checkpoint_fixture_are_refused_or_harmless() {
    assert_swept("checkpoint", sweep("checkpoint", &CHECKPOINT_LAYOUT.swept(), checkpoint_case));
}

fn clock_case(blob: &[u8]) -> Case {
    restore_and_run(blob, TscNtpClock::restore, run_clock)
}

fn quorum_case(blob: &[u8]) -> Case {
    restore_and_run(blob, QuorumClock::restore, run_quorum)
}

fn lifecycle_case(blob: &[u8]) -> Case {
    restore_and_run(blob, LifecycleClient::restore, run_lifecycle)
}

/// The same sweep at every byte offset of the four payloads, records
/// included. `cargo test --release --test snapshot_golden -- --ignored
/// hostile_bytes`
#[test]
#[ignore = "every byte offset: run in release"]
fn hostile_bytes_at_every_offset_are_refused_or_harmless() {
    let every = |name: &str| (0..=common::payload(&fixture(name)).len() - 8).collect::<Vec<_>>();
    let report = |name: &str, s: Sweep| {
        let (refused, restored, ratio) = (s.refused, s.restored, s.alloc_per_byte);
        println!("{name}: {refused} refused, {restored} restored, {ratio:.2} B/B");
        assert_swept(name, s);
    };
    report("clock", sweep("clock", &every("clock"), clock_case));
    report("quorum", sweep("quorum", &every("quorum"), quorum_case));
    report("lifecycle", sweep("lifecycle", &every("lifecycle"), lifecycle_case));
    report("checkpoint", sweep("checkpoint", &every("checkpoint"), checkpoint_case));
}

// ---------------------------------------------------------- regenerator

/// Rewrites every fixture from source and prints the digests to pin.
/// `cargo test --test snapshot_golden -- --ignored --nocapture`
#[test]
#[ignore = "rewrites tests/fixtures; run on purpose"]
fn regenerate_golden_fixtures() {
    let (client, _) = build_lifecycle();
    let checkpoint = build_checkpoints().swap_remove(1).blob;
    for (name, bytes) in [
        ("clock", build_clock().snapshot()),
        ("quorum", build_quorum().snapshot()),
        ("lifecycle", client.snapshot()),
        ("checkpoint", checkpoint),
    ] {
        assert!(bytes.len() <= MAX_FIXTURE_BYTES, "{name}: {} B", bytes.len());
        std::fs::write(fixture_path(name), &bytes).expect("write fixture");
        println!("{name}: {} B", bytes.len());
    }
    println!("CLOCK_TAIL_DIGEST {:#018x}", clock_tail_digest(build_clock()));
    println!("QUORUM_TAIL_DIGEST {:#018x}", quorum_tail_digest(build_quorum()));
    let (mut client, mut path) = build_lifecycle();
    let tail =
        drive_lifecycle(&mut client, &mut path, LIFECYCLE_HEAD..LIFECYCLE_HEAD + LIFECYCLE_TAIL);
    println!("LIFECYCLE_TAIL_DIGEST {tail:#018x}");
    println!("CHECKPOINT_RUN_DIGEST {:#018x}", replay(None, &checkpoint_workload())[0].digest);
}

