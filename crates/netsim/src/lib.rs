//! Discrete-event simulation of the host ↔ NTP-server measurement setup.
//!
//! This crate reproduces, as a simulator, the entire experimental apparatus
//! of the paper's evaluation (§2.3–§3.2): a host whose TSC counter is driven
//! by a realistic oscillator (`tsc-osc`), Internet paths with deterministic
//! minimum delays plus positive queueing noise (equations (12)–(15)), a
//! stratum-1 NTP server with its own µs-scale timestamping imperfections and
//! injectable gross faults, a DAG reference monitor on the return path
//! (`dag`), packet loss, outages, and route-change level shifts.
//!
//! One call to [`sim::ExchangeStream::step`] produces everything the
//! paper records for packet *i*: the host's raw TSC timestamps `Ta, Tf`,
//! the server timestamps `Tb, Te`, the reference timestamp `Tg`, and —
//! because this is a simulation — the exact truth behind all of them.
//!
//! The three server presets reproduce Table 2:
//!
//! | Server    | Reference | RTT     | Hops | Δ (asymmetry) |
//! |-----------|-----------|---------|------|----------------|
//! | ServerLoc | GPS       | 0.38 ms | 2    | 50 µs          |
//! | ServerInt | GPS       | 0.89 ms | 5    | 50 µs          |
//! | ServerExt | Atomic    | 14.2 ms | ~10  | 500 µs         |
//!
//! A server and the path to it are one [`ServerPath`]. A [`Scenario`]
//! polls one; the multi-server layer ([`multi`]) drives K of them from one
//! host timeline — the measurement side of quorum synchronization (see
//! `crates/quorum`). Every front end builds the same seeded path state
//! from a `ServerPath` and draws through the same per-poll sequence.

mod dag;
pub mod delay;
pub mod host;
pub mod multi;
pub mod profile;
pub mod scenario;
pub mod server;
pub mod shifts;
pub mod sim;

pub use delay::{CongestionParams, PathDelay};
pub use host::HostTimestamping;
pub use multi::{MultiServerScenario, MultiServerStream, RoundSample, MAX_SERVERS};
pub use profile::{PathParams, PathProfile, ProfileMix, ALL_PROFILES};
pub use scenario::{Scenario, ServerKind, ServerPath};
pub use server::{ServerFault, ServerModel};
pub use shifts::{LevelShift, ShiftSchedule};
pub use sim::{ExchangeStream, OnDemandSim, RawExchanges, SimExchange, Truth};
