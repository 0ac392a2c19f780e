//! Criterion benchmark harness for the IMC'04 reproduction.
//!
//! The benchmark of record is `e2e/` (`BENCHMARK.json`): whole workloads
//! plus per-layer totals. These five targets keep only what it cannot see:
//!
//! * `bench_leaves` — leaf kernels below e2e's layer resolution: the NTP
//!   codec, the statistics kernels, the snapshot checksum, the
//!   per-estimator ingest stages and an adversarial `History::push` stream.
//! * `bench_netsim` — the generator's leaves (stream, on-demand path,
//!   oscillator advance, keystream refill per kernel) that e2e's `netsim.*`
//!   rows add up.
//! * `bench_serve` — the batch-64-vs-batch-1 A/B, the seqlock read under a
//!   live republisher and the serve plane's recording overhead, none of
//!   which e2e runs.
//! * `bench_telemetry` — the ≤2 % recording-overhead contract; e2e compiles
//!   telemetry out.
//! * `bench_experiments` — the wall-clock cost of every `repro` experiment
//!   (`tsc_experiments::ALL_IDS`), which no e2e workload runs.
//!
//! Rows worth keeping live in the root `BENCH.json`.
