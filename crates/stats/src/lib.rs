//! Statistics toolkit for the IMC'04 software-clock reproduction.
//!
//! This crate provides the analysis machinery the paper relies on:
//!
//! * [`allan`] — Allan variance / Allan deviation, the oscillator-stability
//!   characterization of §3.1 (Figure 3) which the paper calls "the
//!   fundamental hardware characterization on which the synchronization is
//!   based".
//! * [`quantile`] — percentile/median/IQR summaries used throughout the
//!   evaluation (Figures 9, 10, 12).
//! * [`histogram`] — fixed-bin histograms (Figure 12).
//! * [`log2hist`] — log2-bucketed histograms with elementwise merge; the
//!   bucketing math behind the `tsc-telemetry` latency histograms.
//! * [`window`] — the sliding-window minimum behind the local RTT minimum
//!   `rˆl(t)` of §6.2.
//! * [`regression`] — endpoint detrending of offset traces (Figure 2).
//! * [`summary`] — streaming mean/variance/extrema.
//!
//! Everything here is deterministic, allocation-conscious and free of any
//! dependency on the rest of the workspace, so it can be reused as a small
//! standalone analysis library.

pub mod allan;
pub mod histogram;
pub mod log2hist;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod window;

pub use allan::{allan_deviation, allan_variance, AllanPoint};
pub use histogram::Histogram;
pub use log2hist::{log2_bucket_bound, log2_bucket_of, Log2Histogram, LOG2_BUCKETS};
pub use quantile::{iqr, median, percentile, Percentiles};
pub use summary::RunningStats;
pub use window::SlidingMin;
