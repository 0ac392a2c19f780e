//! # tsc-telemetry — the fleet-wide observability plane
//!
//! A lock-free metrics registry, a per-thread event flight recorder and
//! stage-level profiling hooks for the IMC'04 software-clock
//! reproduction, engineered around two hard constraints:
//!
//! * **Digest transparency.** Instrumentation only *observes*: it reads
//!   pipeline state and mutates private atomics and thread-local rings.
//!   No telemetry value ever feeds back into clock arithmetic, RNG
//!   streams or scheduling, so every parity/digest suite is
//!   bit-identical with telemetry on and off. Flight-recorder events are
//!   timestamped by **packet index / TSC reading / simulated time** —
//!   never wall clock — so even the recorded event stream is
//!   deterministic and replay-stable. (Stage *timers* do read the wall
//!   clock, but durations are write-only observability data.)
//! * **Near-zero cost.** Without `feature = "enabled"` (the default)
//!   the whole public surface compiles to inlined no-ops. With it, the
//!   hot path pays only relaxed atomic adds at batch granularity plus a
//!   runtime `recording()` master-switch check; stage timers wrap
//!   whole batches. Measured: ≤2% on `fleet_ingest_1000clocks`
//!   (`bench_telemetry` rows in the root `BENCH.json`).
//!
//! Consumer crates depend on `tsc-telemetry` unconditionally and expose
//! their own `telemetry` cargo feature forwarding to
//! `tsc-telemetry/enabled`; cargo feature unification then flips the
//! entire workspace with one flag and zero `cfg` noise at call sites.

pub mod ids;

pub use ids::{err_code, Ctr, EventKind, Gauge, Hist, CTR_COUNT, GAUGE_COUNT, HIST_COUNT};
pub use tsc_stats::Log2Histogram;

#[cfg(feature = "enabled")]
mod enabled;
#[cfg(feature = "enabled")]
pub use enabled::*;

#[cfg(not(feature = "enabled"))]
mod disabled;
#[cfg(not(feature = "enabled"))]
pub use disabled::*;
