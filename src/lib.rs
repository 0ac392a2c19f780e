//! Umbrella crate for the IMC'04 robust software clock reproduction.
//! Re-exports the workspace crates for convenient use in examples and tests.
pub use tsc_fleet as fleet;
pub use tsc_netsim as netsim;
pub use tsc_quorum as quorum;
pub use tsc_ntp as ntp;
pub use tsc_osc as osc;
pub use tsc_serve as serve;
pub use tsc_stats as stats;
pub use tsc_telemetry as telemetry;
pub use tscclock as clock;
pub use tsc_experiments as experiments;
