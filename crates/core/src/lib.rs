//! # tscclock — the robust TSC-NTP software clock of Veitch–Babu–Pásztor
//!
//! A faithful implementation of *"Robust Synchronization of Software Clocks
//! Across the Internet"* (IMC 2004): a feed-forward clock built on the CPU
//! cycle counter (TSC), calibrated in **rate** and **offset** from ordinary
//! NTP exchanges, and engineered to stay accurate through congestion, loss,
//! outages, route changes, temperature swings and even faulty server
//! timestamps.
//!
//! ## The two clocks
//!
//! The central design statement of the paper is that a rate-centric clock
//! must come in two forms (§2.2):
//!
//! * [`TscNtpClock::difference_seconds`] — the **difference clock**
//!   `Cd(t) = TSC(t)·p̂(t)`: smooth, never stepped, accurate to ≲ 1 µs for
//!   intervals below the SKM scale τ* ≈ 1000 s;
//! * [`TscNtpClock::absolute_time`] — the **absolute clock**
//!   `Ca(t) = Cd(t) + C̄ − θ̂(t)`: absolute (Unix-like) time, corrected by
//!   the filtered offset estimate.
//!
//! ## Pipeline
//!
//! ```text
//!  RawExchange ──▶ History (r̂, point errors, top window T)   [history]
//!        │               │
//!        │               ├──▶ GlobalRate p̂   (E* gating, Δ(t) damping)
//!        │               ├──▶ LocalRate  p̂l  (τ̄ window, γ* gate, sanity)
//!        │               ├──▶ ShiftDetector  (r̂l vs r̂ + 4E)
//!        │               └──▶ OffsetEstimator θ̂ (weights, fallback, Es)
//!        ▼
//!  ProcessOutput { θ̂, p̂, p̂l, events }
//! ```
//!
//! ## Performance
//!
//! [`TscNtpClock::process`] is **O(1) amortized per packet and
//! allocation-free** in steady state, independent of the top-level history
//! size (one week ≈ 38k packets at 16 s polling):
//!
//! * the RTT minimum `r̂` is a running minimum, recomputed from the
//!   retained records only when the top window slides, and
//!   §6.1 point-error re-evaluation rewrites a small table of baseline
//!   runs instead of sweeping the stored records — see the [`history`]
//!   module docs for the design;
//! * the §5.3 offset estimator is **fully incremental**: its weights are
//!   exponentials of the excess total error over the window's best
//!   packet, which factor into per-packet constants, so the weighted
//!   sums are rolling accumulators (one absorb + one expire + a running
//!   minimum per packet — a single exponential, ~50 ns,
//!   instead of an O(τ′/poll) window pass), exactness bounded by a
//!   periodic rebuild — see the [`offset`] module docs for the math and
//!   the drift-rebuild contract;
//! * the §5.2 local rate scans its two sub-windows (τ̄/W and 2τ̄/W
//!   packets, a few dozen, fixed by τ̄ rather than the history size) when
//!   the estimator is enabled at all — a disabled local rate costs
//!   nothing — and per-packet events are reported as a copyable
//!   [`clock::EventSet`] bitflag word rather than a heap-allocated list.
//!
//! At **coarse polling** (≥ several minutes per exchange) every nominal
//! window collapses to a handful of packets and the *fixed* per-packet
//! costs dominate; those are cut by dedicated fast paths, all
//! bit-identical to the dense machinery they bypass:
//!
//! * the §6.2 upward-shift detector parks itself for a full window
//!   whenever a sample at or below the detection level arrives, reducing
//!   the common case to a ring store plus two compares ([`shift`]) — and
//!   the window length itself is floored at
//!   [`config::MIN_TS_PACKETS`] packets so the packet-count conversion
//!   cannot degrade the deliberately-conservative detector into one that
//!   confirms a false shift on any two congested exchanges;
//! * τ′ windows of at most 4 packets are resolved straight off the
//!   history tail into stack buffers instead of maintaining the rolling
//!   state.
//!
//! Together these put end-to-end ingest at ≈100 ns/packet at 16 s polling
//! on a 2.1 GHz core (≈3.5× over the fused-SIMD window-pass pipeline it
//! replaces; per-stage rows `ingest_stage_*` in the root `BENCH.json`, the
//! whole pipeline as `e2e`'s `core.process_ns_per_pkt`).
//! [`TscNtpClock::process_batch`] is the batched ingest form
//! (one output buffer reused across a shard) used by the `tsc-fleet`
//! replay engine; it is bit-identical to calling
//! [`TscNtpClock::process`] in a loop.
//!
//! Memory is O(window). The pre-optimization pipeline is preserved under
//! the `reference` feature (module [`reference`]) for differential tests;
//! a property test drives both over random
//! scenarios and asserts estimate parity.
//!
//! ## Quick example
//!
//! ```
//! use tscclock::{ClockConfig, RawExchange, TscNtpClock};
//!
//! let mut clock = TscNtpClock::new(ClockConfig::paper_defaults(16.0));
//! // Feed exchanges (here: two synthetic ones from a perfect 1 GHz host).
//! let mk = |t: f64| RawExchange {
//!     ta_tsc: (t * 1e9) as u64,
//!     tb: t + 450e-6,
//!     te: t + 470e-6,
//!     tf_tsc: ((t + 940e-6) * 1e9) as u64,
//! };
//! clock.process(mk(0.0));
//! clock.process(mk(16.0));
//! assert!(clock.status().p_hat.is_some());
//! ```

#![forbid(unsafe_code)]

pub mod bound;
pub mod clock;
pub mod config;
pub mod exchange;
pub mod fastmath;
pub mod history;
pub mod local_rate;
pub mod naive;
pub mod offset;
pub mod rate;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod shift;
pub mod snapshot;
pub mod units;

pub use clock::{ClockEvent, ClockStatus, EventSet, ProcessOutput, TscNtpClock};
pub use config::ClockConfig;
pub use exchange::RawExchange;
pub use history::{History, PacketRecord};
pub use local_rate::{LocalRate, LocalRateEvent};
pub use naive::{naive_offset, naive_rate, naive_rate_backward, naive_rate_forward};
pub use offset::{OffsetEstimator, OffsetEvent};
pub use rate::{GlobalRate, RateEvent};
pub use shift::{ShiftDetector, UpwardShift};
pub use snapshot::SnapshotError;
