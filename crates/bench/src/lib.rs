//! Criterion benchmark harness for the IMC'04 reproduction.
//!
//! One bench target per paper artifact (see `tsc_experiments::ALL_IDS` and
//! the root README for the experiment index):
//! each measures the wall-clock cost of regenerating that table/figure at a
//! reduced-but-representative scale, so `cargo bench` both exercises every
//! experiment end-to-end and tracks the performance of the simulator and
//! the synchronization algorithms themselves.
//!
//! The algorithm-level benches (`bench_clock_pipeline`, `bench_codec`)
//! measure the per-packet cost of the online clock and the NTP packet
//! codec — the numbers that matter for a production daemon.
