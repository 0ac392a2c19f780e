//! # tsc-fleet — sharded fleet replay engine
//!
//! The paper's TSCclock is engineered to be *cheap enough to run on every
//! host*: one NTP exchange every 16–1024 s, filtered by an O(1)-amortized
//! online pipeline. The scale-out axis of this reproduction is therefore
//! not one faster clock but **many independent clocks** — a fleet, as a
//! provider running the algorithm across millions of hosts would replay
//! and audit it.
//!
//! This crate drives N independent [`tscclock::TscNtpClock`] instances,
//! each against its own deterministically-seeded [`tsc_netsim::Scenario`],
//! across a hand-rolled parked-thread work-claiming pool (no external
//! dependencies — see [`pool`]). One driver ([`replay`],
//! [`replay_interrupted`], [`replay_item`]) serves every [`Workload`]:
//!
//! ```text
//!   FleetConfig { template scenario, N, base_seed }
//!        │  one work item per clock, chunk-claimed by threads
//!        ▼
//!   ┌ clock i ──────────────────────────────────────────────┐
//!   │ Scenario{seed: base+i}.stream().raw()   (allocation-  │
//!   │   → buf[ingest_batch]                    free stream) │
//!   │   → TscNtpClock::process_batch(&buf, &mut out)        │
//!   │   → FNV-1a digest over every ProcessOutput            │
//!   └──────────────────────────────→ ClockSummary (slot i) ─┘
//! ```
//!
//! The multi-source axis ([`quorum`]) replays *quorums* instead of single
//! clocks: one fleet entry = K per-server clocks + health scoring + the
//! robust combiner (`tsc-quorum`), driven by a seeded multi-server
//! scenario (`tsc_netsim::MultiServerScenario`); [`population`] replays
//! lifecycle clients on client-driven timelines. Same driver, same
//! determinism contract — and the same [`Interrupts`]: any of the three
//! can be checkpointed and crash-injected ([`recovery`]).
//!
//! ## Determinism
//!
//! A clock's packet stream is totally ordered *within its shard* (a shard
//! = one clock here: the clock is an online filter and is never split),
//! every clock is a pure function of `(template, base_seed + i)`, and each
//! result lands in its own output slot. Fleet results are therefore
//! **bit-identical across thread counts, chunk sizes, ingest batch
//! sizes, checkpoint cadences and crash schedules** — `tests/parity.rs`
//! and `tests/crash_recovery.rs` prove it with digest equality at several
//! thread counts plus a property test over shard sizes.
//!
//! ## Scaling
//!
//! Clocks are embarrassingly parallel; the engine's only shared state is
//! the claiming cursor (one `fetch_add` per chunk of clocks), so aggregate
//! throughput is *designed* to track physical cores — but that scaling is
//! measured, not assumed. The benchmark of record's `fleet_replay`
//! workload (`e2e/`) drives this engine on up to two threads and reports the
//! pool's own cost as `fleet.pool_dispatch_us` and `fleet.pool_imbalance`;
//! on a host with one or two cores that is all a thread count can show,
//! so measure on a multi-core machine before citing a scaling factor.

pub mod lifecycle;
pub mod pool;
pub mod population;
pub mod quorum;
pub mod recovery;
pub mod replay;

pub use lifecycle::{
    ClientState, ExchangeOutcome, LifecycleClient, LifecycleConfig, ReadVerdict, Transition,
    TransitionCause, STATE_COUNT,
};
pub use pool::WorkerPool;
pub use population::{
    compare_herd, ChurnPlan, ClientSummary, HerdComparison, PopulationConfig, PopulationSummary,
};
pub use quorum::{total_quorum_delivered, total_quorum_rounds, QuorumFleetConfig, QuorumSummary};
pub use recovery::{
    CheckpointStore, ClockCheckpoint, CrashPlan, Interrupts, LatestCheckpoint, RecoveryStats,
};
pub use replay::{
    replay, replay_interrupted, replay_item, total_delivered, ClockSummary, FleetConfig, Workload,
};
