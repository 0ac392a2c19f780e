//! Known-answer pins for the generator's bit-exact layers: the
//! oscillator's `x(t)` stream, the counter's rounding and the simulator's
//! full exchange record.
//!
//! Every netsim trace, fleet digest and e2e digest is a function of
//! `Oscillator::advance_to` and `TscCounter::read`; their differential
//! suites (`crates/osc/tests/reference_diff.rs`) are statistical and run
//! only with the `reference` feature. All six digests were re-pinned once,
//! when the oscillator's stochastic components moved onto a fixed 16 s
//! grid; the `round()`-free counter read and the ziggurat/keystream
//! rewrites before it did not move them. The poll-1024, irregular and
//! record digests moved again when the wandering sinusoid's multi-cell
//! gaps were bridged (a change in distribution only; every one-cell step
//! draws as before). An oscillator or counter "optimisation" that changes
//! one is a stream change and has to say so.
//!
//! The oscillator and counter schedules are plain arithmetic over an LCG
//! (no netsim), so those digests move only when `tsc-osc` (or the
//! keystream / ziggurat shims under it) does. The record pin folds every
//! `SimExchange` field — including `Tg` and the truth, which no e2e digest
//! reads — so it also moves with `tsc-netsim`. The round pin does the same
//! for every `RoundSample` field of the K-server stream, shared bottleneck
//! included, which no e2e workload turns on.

use tsc_netsim::{
    CongestionParams, LevelShift, MultiServerScenario, OnDemandSim, RoundSample, Scenario,
    ServerFault, ServerKind, ServerPath, SimExchange, Truth,
};
use tsc_osc::{Environment, Oscillator, TscCounter};
use tscclock::RawExchange;

const ENVIRONMENTS: [Environment; 3] = [
    Environment::Laboratory,
    Environment::MachineRoom,
    Environment::Airconditioned,
];

/// Two reads per 16 s poll: the cadence a delivered packet makes.
const TWO_READ_DIGEST: u64 = 0x1e3f_5bd5_dc7a_75c2;
/// 1024 s polls: 64 cells per advance, 63 of them bridged.
const POLL1024_DIGEST: u64 = 0xddde_3adf_a30f_f478;
/// Irregular reads around and between the grid points.
const IRREGULAR_DIGEST: u64 = 0x6423_e239_4d78_ce1a;
/// `TscCounter::read` over the two-read cadence and the rounding edges.
const COUNTER_DIGEST: u64 = 0x8441_4073_157e_6d73;
/// Every `SimExchange` field of a fixed-cadence stream and an on-demand run.
const SIM_RECORD_DIGEST: u64 = 0xf644_8e4d_d705_9e66;
/// Every `RoundSample` field of the paper testbed behind a bottleneck.
const MULTI_ROUND_DIGEST: u64 = 0x1dd1_0247_8852_01a2;

/// FNV-1a-64 over the little-endian bytes of `word`, folded into `h`.
fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

struct Lcg(u64);

impl Lcg {
    fn uniform(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 20 000 polls at 16 s, each followed by a second read 0.3–20 ms later.
fn two_read_times() -> Vec<f64> {
    let mut lcg = Lcg(1);
    (1..=20_000)
        .flat_map(|i| {
            let t = 16.0 * i as f64;
            [t, t + 0.3e-3 + 19.7e-3 * lcg.uniform()]
        })
        .collect()
}

const CELL: f64 = Oscillator::DEFAULT_MAX_STEP;

/// Index of the first grid point at or after `t`: the end of the cell a
/// read at `t` needs stepped.
fn end_index(t: f64) -> f64 {
    (t / CELL).ceil()
}

/// An irregular schedule over the oscillator's grid `gₙ = n·16 s`. The
/// first read falls before `g₁`; the body mixes reads exactly on a grid
/// point and one ulp either side of it, reads inside the cell the previous
/// read stepped, the `Tf` cadence a few ms after a read, gaps of exactly
/// 1, 2, 3 (the first that is bridged), 64 and 225 cells (a 3600 s
/// lifecycle cooldown), and gaps of arbitrary length.
fn irregular_times(seed: u64) -> Vec<f64> {
    let mut lcg = Lcg(seed);
    let mut t = CELL * (0.01 + 0.98 * lcg.uniform());
    let mut times = vec![t];
    for _ in 0..400 {
        let u = lcg.uniform();
        let next_grid = |j: f64| ((t / CELL).floor() + j) * CELL;
        t = match (lcg.uniform() * 12.0) as u32 {
            0 => next_grid(1.0),
            1 => f64::from_bits(next_grid(2.0).to_bits() - 1),
            2 => f64::from_bits(next_grid(1.0).to_bits() + 1),
            // Inside the stepped cell, unless the last read (nearly) ended it.
            3 if end_index(t) * CELL - t > 1e-3 => {
                t + (end_index(t) * CELL - t) * (0.01 + 0.98 * u)
            }
            4 => t + 0.3e-3 + 19.7e-3 * u,
            5 => t + CELL,
            6 => t + 2.0 * CELL,
            7 => t + 3.0 * CELL,
            8 => t + 64.0 * CELL,
            9 => t + 225.0 * CELL,
            _ => t + 2000.0 * u,
        };
        times.push(t);
    }
    times
}

/// Oscillators (per environment) driven through [`irregular_times`].
const IRREGULAR_SEEDS: u64 = 8;

fn osc_digest(times_for: impl Fn(u64) -> Vec<f64>, seeds: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for env in ENVIRONMENTS {
        for seed in 1..=seeds {
            let mut osc = env.build(seed);
            for t in times_for(seed) {
                h = fold(h, osc.advance_to(t).to_bits());
            }
        }
    }
    h
}

#[test]
fn two_read_poll16_stream_is_pinned() {
    let times = two_read_times();
    let got = osc_digest(|_| times.clone(), 1);
    assert_eq!(got, TWO_READ_DIGEST, "{got:#018x}");
}

#[test]
fn poll1024_stream_is_pinned() {
    let times: Vec<f64> = (1..=2_000).map(|i| 1024.0 * i as f64).collect();
    let got = osc_digest(|_| times.clone(), 1);
    assert_eq!(got, POLL1024_DIGEST, "{got:#018x}");
}

#[test]
fn irregular_stream_is_pinned_and_hits_the_grid_cases() {
    // The schedule must contain what it is there for, whatever the
    // oscillator does with it: (on gₙ, one ulp below, one ulp above,
    // inside the stepped cell, gaps of 1, 2, 3, 64 and 225 cells).
    let mut hits = [0u32; 9];
    for seed in 1..=IRREGULAR_SEEDS {
        let times = irregular_times(seed);
        assert!(times[0] < CELL, "first read {} is not before g₁", times[0]);
        for w in times.windows(2) {
            let (t0, t) = (w[0], w[1]);
            assert!(t > t0, "schedule not increasing at {t0}");
            let on_grid = |t: f64| t == end_index(t) * CELL;
            hits[0] += u32::from(on_grid(t));
            hits[1] += u32::from(on_grid(f64::from_bits(t.to_bits() + 1)));
            hits[2] += u32::from(on_grid(f64::from_bits(t.to_bits() - 1)));
            match (end_index(t) - end_index(t0)) as i64 {
                0 => hits[3] += 1,
                1 => hits[4] += 1,
                2 => hits[5] += 1,
                3 => hits[6] += 1,
                64 => hits[7] += 1,
                225 => hits[8] += 1,
                _ => {}
            }
        }
    }
    assert!(hits.iter().all(|&n| n >= 100), "grid cases hit: {hits:?}");
    let got = osc_digest(irregular_times, IRREGULAR_SEEDS);
    assert_eq!(got, IRREGULAR_DIGEST, "{got:#018x}");
}

/// Grid reads of [`in_cell_reads_draw_nothing`]: 512 cells, 2.3 h. One
/// extra draw would move `x` by ~1e-9 s at once; the deterministic sum's
/// rounding, which differs between the two read sequences, stays under
/// 1e-15 s this long.
const IN_CELL_GRID_READS: u64 = 512;

#[test]
fn in_cell_reads_draw_nothing() {
    // Two oscillators of one seed read the grid; one also reads inside
    // every cell. Which reads fall inside a cell must change nothing of
    // the stochastic stream: at every grid time the two agree up to the
    // rounding of the deterministic part's running sum, and their
    // counters agree exactly.
    let mut lcg = Lcg(3);
    for env in ENVIRONMENTS {
        let (mut grid, mut dense) = (env.build(5), env.build(5));
        let mut grid_counter = TscCounter::new(1e9, 0, env.build(5));
        let mut dense_counter = TscCounter::new(1e9, 0, env.build(5));
        for k in 1..=IN_CELL_GRID_READS {
            let t = CELL * k as f64;
            let (a, b) = (grid.advance_to(t), dense.advance_to(t));
            assert!((a - b).abs() <= 1e-15, "{}: x({t}) {a} vs {b}", env.name());
            assert_eq!(
                grid_counter.read(t),
                dense_counter.read(t),
                "{} at {t}",
                env.name()
            );
            let inside = t + CELL * (0.01 + 0.98 * lcg.uniform());
            dense.advance_to(inside);
            dense_counter.read(inside);
        }
    }
}

#[test]
fn counter_reads_are_pinned() {
    let mut h = FNV_OFFSET;
    let times = two_read_times();
    for env in ENVIRONMENTS {
        let mut counter = TscCounter::new(1e9, 0x1234_5678, env.build(1));
        for &t in &times {
            h = fold(h, counter.read(t));
        }
    }
    // Rounding edges: a perfect 1 Hz counter reads `round(t)`, so feed it
    // `k + 0.5 ∓ 1 ulp` (round-half-away: k, k + 1, k + 1), then values
    // past 2⁵³ where every f64 is an integer.
    let mut unit = TscCounter::new(1.0, 0, Oscillator::new(vec![], 0));
    for k in [0u64, 1, 2, 3, 1000, 1 << 31, (1 << 51) + 1] {
        let half = k as f64 + 0.5;
        let edges = [
            f64::from_bits(half.to_bits() - 1),
            half,
            f64::from_bits(half.to_bits() + 1),
        ];
        let reads = edges.map(|t| unit.read(t));
        assert_eq!(reads, [k, k + 1, k + 1], "edges of {k}");
        h = reads.into_iter().fold(h, fold);
    }
    for t in [(1u64 << 53) as f64 + 2.0, 1.5e19] {
        let read = unit.read(t);
        assert_eq!(read, t as u64);
        h = fold(h, read);
    }
    assert_eq!(h, COUNTER_DIGEST, "{h:#018x}");
}

/// Folds every field of `e` (destructured, so a new field fails to compile
/// until it is folded too).
fn fold_exchange(h: u64, e: SimExchange) -> u64 {
    let SimExchange {
        i,
        poll_time,
        lost,
        ta_tsc,
        tf_tsc,
        tb,
        te,
        tg,
        truth,
    } = e;
    let Truth {
        ta: true_ta,
        tb: true_tb,
        te: true_te,
        tf: true_tf,
        d_fwd,
        d_srv,
        d_back,
        host_err_at_tf,
    } = truth;
    [i as u64, lost as u64, ta_tsc, tf_tsc]
        .into_iter()
        .chain(
            [
                poll_time,
                tb,
                te,
                tg,
                true_ta,
                true_tb,
                true_te,
                true_tf,
                d_fwd,
                d_srv,
                d_back,
                host_err_at_tf,
            ]
            .map(f64::to_bits),
        )
        .fold(h, fold)
}

#[test]
fn sim_exchange_records_are_pinned() {
    // Loss, an outage, a temporary shift and a server fault: both record
    // shapes and every anomaly-segment boundary kind.
    let mut sc = Scenario::baseline(7)
        .with_duration(6.0 * 3600.0)
        .with_outage(3600.0, 4000.0)
        .with_shift(LevelShift::forward_only(7200.0, Some(9000.0), 0.9e-3))
        .with_server_fault(ServerFault {
            start: 12_000.0,
            end: 12_300.0,
            offset: 0.150,
        });
    sc.path.loss_prob = 0.02;
    let mut h = sc.stream().fold(FNV_OFFSET, fold_exchange);
    let mut sim = OnDemandSim::new(&sc);
    let mut lcg = Lcg(2);
    let mut t = 0.0;
    while t < sc.duration {
        h = fold_exchange(h, sim.exchange_at(t));
        t += 120.0 * lcg.uniform();
    }
    assert_eq!(h, SIM_RECORD_DIGEST, "{h:#018x}");
}

/// Folds every field of `s` (destructured, as in [`fold_exchange`]).
fn fold_round_sample(h: u64, s: &RoundSample) -> u64 {
    let RoundSample {
        delivered,
        raw,
        tf_read,
        host_err,
    } = *s;
    let RawExchange {
        ta_tsc,
        tb,
        te,
        tf_tsc,
    } = raw;
    [delivered as u64, ta_tsc, tf_tsc]
        .into_iter()
        .chain([tb, te, tf_read, host_err].map(f64::to_bits))
        .fold(h, fold)
}

#[test]
fn multi_server_rounds_are_pinned() {
    // Loc + Int + Ext behind a shared bottleneck, each path with its own
    // anomaly: a server fault under non-default loss, an outage, and a
    // temporary asymmetric shift.
    let sc = MultiServerScenario::paper_testbed(11)
        .with_duration(6.0 * 3600.0)
        .with_bottleneck(CongestionParams {
            mean_off: 900.0,
            mean_on: 300.0,
            scale: 1e-3,
            shape: 1.6,
        })
        .with_server_path(
            0,
            ServerPath::new(ServerKind::Loc)
                .with_loss(0.02)
                .with_fault(ServerFault {
                    start: 12_000.0,
                    end: 12_300.0,
                    offset: 0.150,
                }),
        )
        .with_server_path(
            1,
            ServerPath::new(ServerKind::Int).with_outage(3600.0, 4000.0),
        )
        .with_server_path(
            2,
            ServerPath::new(ServerKind::Ext).with_shift(LevelShift::asymmetric(
                7200.0,
                Some(9000.0),
                2e-3,
            )),
        );
    let mut stream = sc.stream();
    let mut round = Vec::new();
    let mut h = FNV_OFFSET;
    while stream.next_round(&mut round) {
        h = round.iter().fold(h, fold_round_sample);
    }
    assert_eq!(h, MULTI_ROUND_DIGEST, "{h:#018x}");
}
