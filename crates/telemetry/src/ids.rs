//! Fixed identifier spaces for the registry and the flight recorder.
//!
//! Every metric lives in a compile-time-known slot: counters, gauges and
//! histograms are dense `enum`-indexed arrays, so the hot path is a
//! single relaxed `fetch_add` with no hashing, no interning and no
//! allocation. Adding a metric means adding a variant here — the
//! exposition, merge and reset paths pick it up automatically because
//! they iterate the `ALL` tables.

/// Monotonic counters. Names in the exposition are
/// `tsc_<snake_case>_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Packets folded into clocks by fleet replay (batch-granular).
    PacketsIngested = 0,
    /// Ingest batches processed by fleet replay.
    BatchesIngested,
    /// Chunks claimed off the pool's shared cursor.
    PoolChunksClaimed,
    /// Times a pool worker parked on the condvar waiting for work.
    PoolParkCycles,
    /// §6.2 upward shifts confirmed.
    UpwardShifts,
    /// Suspicious windows fully evaluated and rejected by the §6.2
    /// decision rule.
    ShiftWindowsRejected,
    /// Offset-window slides (coarse-poll fast path).
    WindowSlides,
    /// Rate-estimate sanity rejections.
    RateSanity,
    /// Offset-estimate sanity rejections.
    OffsetSanity,
    /// Offset fallbacks to the naive estimate.
    OffsetFallbacks,
    /// Full factored-weight window rebuilds.
    OffsetRebuilds,
    /// Clocks that completed warm-up.
    WarmupExits,
    /// Quorum servers demoted out of trust.
    QuorumDemotions,
    /// Quorum servers readmitted after demotion.
    QuorumReadmissions,
    /// Per-round combiner exclusions (servers excluded by disagreement).
    QuorumExclusions,
    /// Lifecycle state-machine transitions.
    LifecycleTransitions,
    /// Lifecycle transitions whose trace record was dropped at the
    /// `max_trace` cap (no silent truncation: always exposed).
    LifecycleTraceDropped,
    /// Snapshot envelopes sealed.
    SnapshotSeals,
    /// Snapshot envelopes successfully restored.
    SnapshotRestores,
    /// Snapshot restores that failed with a typed `SnapshotError`.
    SnapshotRestoreErrors,
    /// Crashes injected by the deterministic crash plan.
    CrashesInjected,
    /// Crash recoveries that restored warm from a checkpoint.
    WarmRestores,
    /// Crash recoveries that fell back to a cold restart.
    ColdRestarts,
    /// Packets re-ingested during crash recovery replay.
    ReplayedPackets,
    /// Flight-recorder events overwritten before they could be dumped
    /// (ring wrapped). Always exposed — truncation is never silent.
    RecorderDropped,
    /// Client datagrams received by a serving plane (batch-granular).
    ServeRequests,
    /// Responses stamped and sent by a serving plane.
    ServeResponses,
    /// Datagrams dropped as malformed (short, bad version, non-client
    /// mode). Always exposed — drops are never silent.
    ServeMalformed,
    /// Requests answered with a stratum-0 refusal (snapshot never
    /// published, marked unsynchronized, or past the staleness horizon).
    ServeRefusals,
    /// Datagram batches processed by a serving plane.
    ServeBatches,
    /// Socket errors the serve loop survived — non-transient receive
    /// errors and batches with a failed send (the loop counts and
    /// continues instead of dying silently).
    ServeRecvErrors,
    /// Clock snapshots sealed into a published cell.
    SnapshotsPublished,
}

/// Number of counter slots.
pub const CTR_COUNT: usize = Ctr::SnapshotsPublished as usize + 1;

impl Ctr {
    /// All counters, in slot order.
    pub const ALL: [Ctr; CTR_COUNT] = [
        Ctr::PacketsIngested,
        Ctr::BatchesIngested,
        Ctr::PoolChunksClaimed,
        Ctr::PoolParkCycles,
        Ctr::UpwardShifts,
        Ctr::ShiftWindowsRejected,
        Ctr::WindowSlides,
        Ctr::RateSanity,
        Ctr::OffsetSanity,
        Ctr::OffsetFallbacks,
        Ctr::OffsetRebuilds,
        Ctr::WarmupExits,
        Ctr::QuorumDemotions,
        Ctr::QuorumReadmissions,
        Ctr::QuorumExclusions,
        Ctr::LifecycleTransitions,
        Ctr::LifecycleTraceDropped,
        Ctr::SnapshotSeals,
        Ctr::SnapshotRestores,
        Ctr::SnapshotRestoreErrors,
        Ctr::CrashesInjected,
        Ctr::WarmRestores,
        Ctr::ColdRestarts,
        Ctr::ReplayedPackets,
        Ctr::RecorderDropped,
        Ctr::ServeRequests,
        Ctr::ServeResponses,
        Ctr::ServeMalformed,
        Ctr::ServeRefusals,
        Ctr::ServeBatches,
        Ctr::ServeRecvErrors,
        Ctr::SnapshotsPublished,
    ];

    /// Snake-case metric name (without the `tsc_`/`_total` decoration).
    pub fn name(self) -> &'static str {
        match self {
            Ctr::PacketsIngested => "packets_ingested",
            Ctr::BatchesIngested => "batches_ingested",
            Ctr::PoolChunksClaimed => "pool_chunks_claimed",
            Ctr::PoolParkCycles => "pool_park_cycles",
            Ctr::UpwardShifts => "upward_shifts",
            Ctr::ShiftWindowsRejected => "shift_windows_rejected",
            Ctr::WindowSlides => "window_slides",
            Ctr::RateSanity => "rate_sanity_rejections",
            Ctr::OffsetSanity => "offset_sanity_rejections",
            Ctr::OffsetFallbacks => "offset_fallbacks",
            Ctr::OffsetRebuilds => "offset_rebuilds",
            Ctr::WarmupExits => "warmup_exits",
            Ctr::QuorumDemotions => "quorum_demotions",
            Ctr::QuorumReadmissions => "quorum_readmissions",
            Ctr::QuorumExclusions => "quorum_exclusions",
            Ctr::LifecycleTransitions => "lifecycle_transitions",
            Ctr::LifecycleTraceDropped => "lifecycle_trace_dropped",
            Ctr::SnapshotSeals => "snapshot_seals",
            Ctr::SnapshotRestores => "snapshot_restores",
            Ctr::SnapshotRestoreErrors => "snapshot_restore_errors",
            Ctr::CrashesInjected => "crashes_injected",
            Ctr::WarmRestores => "warm_restores",
            Ctr::ColdRestarts => "cold_restarts",
            Ctr::ReplayedPackets => "replayed_packets",
            Ctr::RecorderDropped => "flight_recorder_dropped",
            Ctr::ServeRequests => "serve_requests",
            Ctr::ServeResponses => "serve_responses",
            Ctr::ServeMalformed => "serve_malformed_drops",
            Ctr::ServeRefusals => "serve_refusals",
            Ctr::ServeBatches => "serve_batches",
            Ctr::ServeRecvErrors => "serve_recv_errors",
            Ctr::SnapshotsPublished => "snapshots_published",
        }
    }
}

/// Point-in-time gauges. Merged across registries by `max` (idempotent
/// and order-independent, matching the elementwise-merge contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Worker threads in the fleet pool.
    PoolWorkers = 0,
    /// Clocks in the most recent fleet replay.
    FleetClocks,
    /// Clients in the most recent population run.
    PopulationClients,
}

/// Number of gauge slots.
pub const GAUGE_COUNT: usize = Gauge::PopulationClients as usize + 1;

impl Gauge {
    /// All gauges, in slot order.
    pub const ALL: [Gauge; GAUGE_COUNT] =
        [Gauge::PoolWorkers, Gauge::FleetClocks, Gauge::PopulationClients];

    /// Snake-case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PoolWorkers => "pool_workers",
            Gauge::FleetClocks => "fleet_clocks",
            Gauge::PopulationClients => "population_clients",
        }
    }
}

/// Log2-bucketed histograms. All record nanoseconds unless a variant
/// documents another unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Snapshot seal (checkpoint write) latency.
    SealNs = 0,
    /// Snapshot restore latency.
    RestoreNs,
    /// Whole-ingest-batch latency (per `ingest_batch` packets per clock).
    IngestBatchNs,
    /// Age of the published snapshot at serve time (nanoseconds of
    /// staleness at the batch's first valid request; a batch with none
    /// records nothing).
    ServeSnapshotAgeNs,
    /// Datagrams per received batch (**unit: datagrams**, not ns) — how
    /// well the batched front-end amortizes its syscalls.
    ServeBatchFill,
}

/// Number of histogram slots.
pub const HIST_COUNT: usize = Hist::ServeBatchFill as usize + 1;

impl Hist {
    /// All histograms, in slot order.
    pub const ALL: [Hist; HIST_COUNT] = [
        Hist::SealNs,
        Hist::RestoreNs,
        Hist::IngestBatchNs,
        Hist::ServeSnapshotAgeNs,
        Hist::ServeBatchFill,
    ];

    /// Snake-case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SealNs => "snapshot_seal_ns",
            Hist::RestoreNs => "snapshot_restore_ns",
            Hist::IngestBatchNs => "ingest_batch_ns",
            Hist::ServeSnapshotAgeNs => "serve_snapshot_age_ns",
            Hist::ServeBatchFill => "serve_batch_fill",
        }
    }
}

/// Compact flight-recorder event kinds (fits in one byte).
///
/// Events carry two generic payload words `a`/`b`; the per-kind meaning
/// is documented here and rendered by the dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Clock finished warm-up. `a` = packets seen.
    WarmupExit = 0,
    /// §6.2 upward shift confirmed. `a` = detection-window start index.
    UpwardShift,
    /// Suspicious window evaluated and rejected. `a` = window length.
    ShiftWindowRejected,
    /// Offset window slid (coarse-poll path). `a` = new window start.
    WindowSlid,
    /// Factored-weight window rebuilt. `a` = window population.
    OffsetRebuild,
    /// Quorum server demoted. `a` = server index, `b` = trust as f64 bits.
    TrustDemoted,
    /// Quorum server readmitted. `a` = server index, `b` = trust bits.
    TrustReadmitted,
    /// Combiner excluded servers this round. `a` = exclusion bitmask.
    CombinerExclusion,
    /// Lifecycle edge. `a` = `(from << 8) | to` state tags, `b` = cause tag.
    LifecycleTransition,
    /// Lifecycle trace hit its cap; this edge was not traced. `a`/`b` as
    /// in [`EventKind::LifecycleTransition`].
    LifecycleTraceDropped,
    /// Snapshot sealed. `a` = blob length in bytes.
    CheckpointSealed,
    /// Snapshot restored warm. `a` = blob length in bytes.
    CheckpointRestored,
    /// Snapshot restore failed. `a` = [`err_code`] for the typed
    /// `SnapshotError`, `b` = blob length in bytes.
    RestoreFailed,
    /// Crash recovery restored warm from a checkpoint. `a` = packets
    /// replayed since the checkpoint.
    WarmRestore,
    /// Crash recovery fell back to a cold restart. `a` = packets
    /// replayed from scratch.
    ColdRestart,
    /// Deterministic crash injected. `a` = crash index within the run.
    CrashInjected,
}

impl EventKind {
    /// Human-readable kind label for the dump.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::WarmupExit => "warmup-exit",
            EventKind::UpwardShift => "upward-shift",
            EventKind::ShiftWindowRejected => "shift-window-rejected",
            EventKind::WindowSlid => "window-slid",
            EventKind::OffsetRebuild => "offset-rebuild",
            EventKind::TrustDemoted => "trust-demoted",
            EventKind::TrustReadmitted => "trust-readmitted",
            EventKind::CombinerExclusion => "combiner-exclusion",
            EventKind::LifecycleTransition => "lifecycle-transition",
            EventKind::LifecycleTraceDropped => "lifecycle-trace-dropped",
            EventKind::CheckpointSealed => "checkpoint-sealed",
            EventKind::CheckpointRestored => "checkpoint-restored",
            EventKind::RestoreFailed => "restore-failed",
            EventKind::WarmRestore => "warm-restore",
            EventKind::ColdRestart => "cold-restart",
            EventKind::CrashInjected => "crash-injected",
        }
    }
}

/// Numeric codes for the typed `SnapshotError` variants, so the flight
/// recorder can carry the error in a POD event word and the dump can
/// name it. `tsc-telemetry` cannot depend on `tscclock` (the dependency
/// runs the other way), so producers map the error to a code at the
/// recording site.
pub mod err_code {
    /// `SnapshotError::BadMagic`.
    pub const BAD_MAGIC: u64 = 1;
    /// `SnapshotError::Truncated`.
    pub const TRUNCATED: u64 = 2;
    /// `SnapshotError::Checksum`.
    pub const CHECKSUM: u64 = 3;
    /// `SnapshotError::VersionMismatch`.
    pub const VERSION_MISMATCH: u64 = 4;
    /// `SnapshotError::KindMismatch`.
    pub const KIND_MISMATCH: u64 = 5;
    /// `SnapshotError::Invalid`.
    pub const INVALID: u64 = 6;

    /// Name for a code (the `SnapshotError` variant name).
    pub fn name(code: u64) -> &'static str {
        match code {
            BAD_MAGIC => "BadMagic",
            TRUNCATED => "Truncated",
            CHECKSUM => "Checksum",
            VERSION_MISMATCH => "VersionMismatch",
            KIND_MISMATCH => "KindMismatch",
            INVALID => "Invalid",
            _ => "Unknown",
        }
    }
}
