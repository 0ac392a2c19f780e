//! The serve loop: decode a received batch, decide serve-or-refuse off
//! one snapshot read, stamp `Tb`/`Te`, encode responses in place.
//!
//! # Serve / refuse semantics
//!
//! Mirrors the client-side `LifecycleClient` verdicts, on the server side:
//!
//! - no snapshot published yet → refuse `INIT`
//! - snapshot marked unsynchronized → refuse `UNSY`
//! - snapshot staleness beyond the horizon → refuse `STAL`
//! - otherwise serve: `Tb = Ca(tsc)`, `Te = Tb + residence`, and the
//!   response's root-dispersion field carries the **served-error bound**
//!   `bound + WIDEN_RATE·staleness` ([`tscclock::bound::aged`]), rounded
//!   *up* to the 16.16 wire format so the bound on the wire never
//!   under-reports.
//!
//! A refusal is a stratum-0 Kiss-o'-Death response (LI unsynchronized,
//! refid = code) — honest unavailability instead of a silently stale
//! timestamp.
//!
//! # Fixed-point stamping
//!
//! `Ca(tsc) = base + (tsc − tsc0)·p̂` is linear in the counter (paper
//! eq. (7)), so the plane splits it where the precision is. Once per
//! snapshot read a [`Stamper`] converts `base` **exactly** to a 64-bit
//! NTP value (`NtpTimestamp::from_unix_seconds`: integer seconds plus the
//! 32-bit fraction, rounded once, era-wrapping) and the residence to
//! 2⁻³² s units. Per request, the one staleness product `(tsc − tsc0)·p̂`
//! that the stale check and the bound need anyway is rounded to a signed
//! offset in 2⁻³² s units, and
//!
//! ```text
//! Tb = base + offset  (mod 2⁶⁴),    Te = Tb + residence  (mod 2⁶⁴)
//! ```
//!
//! No request converts a float to NTP, and no `f64` holds a
//! seconds-since-1900 value, whose 2⁻²¹ s ulp near 2036 quantised `Tb` to
//! ~477 ns.
//!
//! *Exactness.* `Te − Tb` is `round(residence·2³²)` exactly. `Tb` is
//! within one 2⁻³² s unit of `base + (tsc − tsc0)·p̂` evaluated exactly
//! (in `i128`) and rounded to a unit, while `|staleness| < 2¹⁹ s` (six
//! days; the default horizon is 4 h): each of the two roundings is off by
//! at most half a unit (`base` by none once it is past 2²⁰ s, as every
//! real one is), and the `f64` product's relative error of 2⁻⁵² is under
//! a sixteenth of a unit at a 4 h staleness. Past `±2³¹ s` (half an era)
//! the offset saturates.
//!
//! *Eras.* The sum wraps mod 2⁶⁴, one NTP era of 2³² s (RFC 5905 §6): a
//! snapshot sealed before 2036-02-07T06:28:16Z serves stamps of era 1 once
//! its staleness crosses that instant, exactly as a server whose clock
//! read that time would. The snapshot keeps its `f64` Unix `base`; the
//! conversion above is what makes that `f64` exact on the wire.

use crate::cell::{ClockSnapshot, SnapshotCell};
use crate::transport::{BatchBufs, DatagramBatch, DEFAULT_BATCH};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tsc_ntp::packet::{Mode, NtpPacket, PACKET_LEN};
use tsc_ntp::timestamp::{NtpShort, NtpTimestamp};
use tsc_telemetry as telemetry;
use tscclock::bound;

/// Refusal code: no snapshot has ever been published.
pub const REFUSE_INIT: [u8; 4] = *b"INIT";
/// Refusal code: the published snapshot is marked unsynchronized.
pub const REFUSE_UNSYNC: [u8; 4] = *b"UNSY";
/// Refusal code: the snapshot is older than the staleness horizon.
pub const REFUSE_STALE: [u8; 4] = *b"STAL";

/// Serving-plane policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Refuse once the snapshot is staler than this (seconds).
    pub stale_horizon: f64,
    /// Modeled residence `Te − Tb` (seconds). The counter is read once
    /// per request for `Tb` and `Te = Tb + residence` derives from this
    /// model instead of paying (and serializing on) a second read.
    pub residence: f64,
    /// Max datagrams per batch.
    pub batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            // The one policy's horizon, the client lifecycle's too; a
            // deployment may refuse sooner (or never, with `INFINITY`).
            stale_horizon: bound::STALE_HORIZON,
            // The paper's servers answer in ~12 µs minimum residence.
            residence: 10e-6,
            batch: DEFAULT_BATCH,
        }
    }
}

/// What the plane decided for one request at one counter reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Stamp and serve.
    Serve {
        /// Server receive time `Tb`, as it goes on the wire.
        tb: NtpTimestamp,
        /// Server transmit time `Te = Tb + residence`.
        te: NtpTimestamp,
        /// Served-error bound (seconds) before wire quantization.
        bound: f64,
    },
    /// Refuse with this Kiss-o'-Death code.
    Refuse([u8; 4]),
}

/// What one snapshot read fixes for every request stamped off it (see the
/// module docs): the snapshot, its `base` as a 64-bit NTP value, and the
/// policy in the units the per-request path uses.
#[derive(Debug, Clone, Copy)]
pub struct Stamper {
    snap: ClockSnapshot,
    /// `Ca(tsc0)` as 32.32 NTP bits, era-wrapped.
    base: u64,
    /// `Te − Tb` in 2⁻³² s units.
    residence: u64,
    stale_horizon: f64,
}

impl Stamper {
    /// The stamp context of `snap` under `cfg`: one exact NTP conversion.
    #[inline]
    pub fn new(cfg: &ServeConfig, snap: &ClockSnapshot) -> Self {
        Self {
            snap: *snap,
            base: NtpTimestamp::from_unix_seconds(snap.base).to_bits(),
            residence: ntp_units(cfg.residence) as u64,
            stale_horizon: cfg.stale_horizon,
        }
    }
}

/// Seconds in 2⁻³² s units, rounded to nearest (ties away from zero),
/// saturating past `±2³¹ s`. Integer casts only: `x as i64` truncates
/// toward zero, and `x − (x as i64) as f64` is the exact remainder.
#[inline]
fn ntp_units(seconds: f64) -> i64 {
    let x = seconds * 4_294_967_296.0;
    let i = x as i64; // NaN → 0
    let r = x - i as f64;
    i.saturating_add(i64::from(r >= 0.5) - i64::from(r <= -0.5))
}

/// The serve-or-refuse decision for a request arriving at counter reading
/// `tsc`, given the stamp context of the current snapshot (`None`: nothing
/// published yet). Pure — the whole correctness story of the plane,
/// separated from I/O so tests hit it directly.
#[inline]
pub fn decide(stamper: Option<&Stamper>, tsc: u64) -> Decision {
    let Some(stamper) = stamper else {
        return Decision::Refuse(REFUSE_INIT);
    };
    let snap = &stamper.snap;
    if !snap.synced {
        return Decision::Refuse(REFUSE_UNSYNC);
    }
    let staleness = snap.staleness(tsc);
    if staleness > stamper.stale_horizon {
        return Decision::Refuse(REFUSE_STALE);
    }
    let tb = stamper.base.wrapping_add(ntp_units(staleness) as u64);
    Decision::Serve {
        tb: NtpTimestamp::from_bits(tb),
        te: NtpTimestamp::from_bits(tb.wrapping_add(stamper.residence)),
        bound: snap.bound_at(tsc),
    }
}

/// Encodes `bound` seconds into the 16.16 short format **rounding up**,
/// saturating at the format maximum: the wire bound must dominate the
/// internal one. The ceiling is taken with an integer cast, not `ceil()`
/// (a libm call per response on baseline x86-64): below `u32::MAX` the
/// truncation `i` is exact as an `f64`, so `i + (i < x)` is `⌈x⌉`.
#[inline]
pub fn bound_to_wire(bound: f64) -> NtpShort {
    let x = bound * 65536.0;
    if x >= u32::MAX as f64 {
        NtpShort(u32::MAX)
    } else if x > 0.0 {
        let i = x as i64;
        NtpShort((i + i64::from((i as f64) < x)) as u32)
    } else {
        NtpShort(0) // ≤ 0 or NaN
    }
}

/// Plain per-plane counters (always available, telemetry feature or not).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeStats {
    /// Datagrams received (valid or not).
    pub requests: u64,
    /// Timestamped responses sent.
    pub responses: u64,
    /// Datagrams dropped as malformed (decode error / non-client mode).
    pub malformed: u64,
    /// Kiss-o'-Death refusals sent.
    pub refusals: u64,
    /// Batches processed (with ≥1 datagram).
    pub batches: u64,
}

impl std::ops::AddAssign for ServeStats {
    fn add_assign(&mut self, b: Self) {
        self.requests += b.requests;
        self.responses += b.responses;
        self.malformed += b.malformed;
        self.refusals += b.refusals;
        self.batches += b.batches;
    }
}

/// Batches a plane counts in [`Unflushed`] before it adds them to the
/// global telemetry registry.
const TELEMETRY_FLUSH_BATCHES: u64 = 64;

/// Serve telemetry recorded but not yet in the global registry. A batch
/// adds to plain integers here; every [`TELEMETRY_FLUSH_BATCHES`] batches
/// (and when the daemon idles, or the plane drops) one flush hands the
/// five counters and the two histograms over. Eleven atomic adds a batch
/// cost ~3 % of a 64-request batch once stamping got cheap (`bench_serve`
/// recording on vs off), past the ≤2 % telemetry contract; a flush costs
/// about as much, 64 times less often.
#[derive(Debug, Default)]
struct Unflushed {
    stats: ServeStats,
    fill: telemetry::Log2Histogram,
    age_ns: telemetry::Log2Histogram,
}

impl Unflushed {
    fn flush(&mut self) {
        let Self {
            stats,
            fill,
            age_ns,
        } = std::mem::take(self);
        for (ctr, n) in [
            (telemetry::Ctr::ServeRequests, stats.requests),
            (telemetry::Ctr::ServeResponses, stats.responses),
            (telemetry::Ctr::ServeMalformed, stats.malformed),
            (telemetry::Ctr::ServeRefusals, stats.refusals),
            (telemetry::Ctr::ServeBatches, stats.batches),
        ] {
            if n > 0 {
                telemetry::add(ctr, n);
            }
        }
        telemetry::merge_hist(telemetry::Hist::ServeBatchFill, &fill);
        telemetry::merge_hist(telemetry::Hist::ServeSnapshotAgeNs, &age_ns);
    }
}

/// One server's serving state: config + the shared snapshot cell.
#[derive(Debug)]
pub struct ServePlane {
    pub cfg: ServeConfig,
    cell: Arc<SnapshotCell>,
    pub stats: ServeStats,
    unflushed: Unflushed,
}

impl Drop for ServePlane {
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

impl ServePlane {
    pub fn new(cell: Arc<SnapshotCell>, cfg: ServeConfig) -> Self {
        Self {
            cfg,
            cell,
            stats: ServeStats::default(),
            unflushed: Unflushed::default(),
        }
    }

    /// Adds the telemetry this plane has recorded since its last flush to
    /// the global registry (see [`ServePlane::serve_batch`]).
    pub fn flush_telemetry(&mut self) {
        if self.unflushed.stats.batches > 0 {
            self.unflushed.flush();
        }
    }

    /// Serves one received batch: for each of the `n` filled `rx` slots,
    /// decodes, validates, decides, and encodes the response into the
    /// matching `tx` slot (len 0 = drop). Returns the number of non-empty
    /// responses. **One snapshot read per batch**; one `tsc_now()` reading
    /// per datagram.
    ///
    /// Telemetry is batch-granular and deferred: while recording is on, a
    /// batch adds its counters and its batch-fill / snapshot-age samples
    /// to plane-local integers, and every 64th batch flushes them to the
    /// global registry ([`ServePlane::flush_telemetry`] flushes on demand;
    /// the daemon does when idle, and dropping the plane does).
    pub fn serve_batch(
        &mut self,
        rx: &BatchBufs,
        n: usize,
        tx: &mut BatchBufs,
        tsc_now: &mut dyn FnMut() -> u64,
    ) -> usize {
        if n == 0 {
            return 0;
        }
        let stamper = self.cell.read().map(|s| Stamper::new(&self.cfg, &s));
        // What every served response of this batch shares: constants of
        // the one snapshot read, converted once.
        let (reference_id, reference_ts) = match &stamper {
            Some(s) => (s.snap.reference_id, NtpTimestamp::from_bits(s.base)),
            None => ([0; 4], NtpTimestamp::ZERO), // unused: `decide` refuses
        };
        let (mut served, mut malformed, mut refused) = (0u64, 0u64, 0u64);
        // Snapshot age at the batch's first valid request.
        let mut first_age_ns = None;
        for i in 0..n {
            let request = match NtpPacket::decode(rx.slot(i)) {
                Ok(p) if p.mode == Mode::Client => p,
                _ => {
                    tx.set_len(i, 0);
                    malformed += 1;
                    continue;
                }
            };
            let tsc = tsc_now();
            first_age_ns.get_or_insert_with(|| {
                stamper.map_or(0, |s| (s.snap.staleness(tsc).max(0.0) * 1e9) as u64)
            });
            let response = match decide(stamper.as_ref(), tsc) {
                Decision::Serve { tb, te, bound } => {
                    served += 1;
                    NtpPacket {
                        root_dispersion: bound_to_wire(bound),
                        reference_ts,
                        ..NtpPacket::server_response(&request, tb, te, reference_id)
                    }
                }
                Decision::Refuse(code) => {
                    refused += 1;
                    NtpPacket::refusal_response(&request, code)
                }
            };
            response.encode_into(tx.slot_mut(i));
            tx.set_len(i, PACKET_LEN);
        }
        let batch = ServeStats {
            requests: n as u64,
            responses: served,
            malformed,
            refusals: refused,
            batches: 1,
        };
        self.stats += batch;
        if telemetry::recording() {
            let unflushed = &mut self.unflushed;
            unflushed.stats += batch;
            unflushed.fill.record(n as u64);
            if let Some(age_ns) = first_age_ns {
                unflushed.age_ns.record(age_ns);
            }
            if unflushed.stats.batches >= TELEMETRY_FLUSH_BATCHES {
                unflushed.flush();
            }
        }
        (served + refused) as usize
    }
}

/// Counter source for live daemons: nanoseconds since construction via
/// `Instant` — the same "driver-level counter" model `live_ntp` uses.
pub fn instant_counter() -> impl FnMut() -> u64 + Send {
    let t0 = std::time::Instant::now();
    move || t0.elapsed().as_nanos() as u64
}

/// What the daemon thread shows its handle: [`ServeStats`] mirrored batch
/// by batch (the daemon thread is the only writer, so plain stores), and
/// the socket errors the loop survived.
#[derive(Debug, Default)]
struct DaemonShared {
    requests: AtomicU64,
    responses: AtomicU64,
    malformed: AtomicU64,
    refusals: AtomicU64,
    batches: AtomicU64,
    socket_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
}

const LAST_ERROR_LOCK: &str = "nothing panics while holding the last_error lock";

impl DaemonShared {
    fn mirror(&self, s: &ServeStats) {
        self.requests.store(s.requests, Ordering::Relaxed);
        self.responses.store(s.responses, Ordering::Relaxed);
        self.malformed.store(s.malformed, Ordering::Relaxed);
        self.refusals.store(s.refusals, Ordering::Relaxed);
        self.batches.store(s.batches, Ordering::Relaxed);
    }

    /// Never die silently: count the error and remember it; the loop
    /// keeps serving.
    fn survived(&self, what: &str, e: &io::Error) {
        self.socket_errors.fetch_add(1, Ordering::Relaxed);
        telemetry::add(telemetry::Ctr::ServeRecvErrors, 1);
        *self.last_error.lock().expect(LAST_ERROR_LOCK) = Some(format!("{what}: {e}"));
    }
}

/// Handle to a running UDP serve daemon; dropping it (or calling
/// [`ServeDaemonHandle::shutdown`]) stops the loop.
pub struct ServeDaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<DaemonShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServeDaemonHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters (requests, responses, malformed, refusals, batches).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            responses: self.shared.responses.load(Ordering::Relaxed),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            refusals: self.shared.refusals.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Socket errors the loop survived: non-transient receive errors, and
    /// batches in which a send failed (the other slots were still sent).
    /// The loop never dies on one — it counts here (and in the
    /// `serve_recv_errors` telemetry counter), keeps the message for
    /// [`ServeDaemonHandle::last_error`], and continues.
    pub fn recv_errors(&self) -> u64 {
        self.shared.socket_errors.load(Ordering::Relaxed)
    }

    /// The most recent survived socket error (`recv: …` or `send: …`).
    pub fn last_error(&self) -> Option<String> {
        let last = self.shared.last_error.lock().expect(LAST_ERROR_LOCK);
        last.clone()
    }

    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServeDaemonHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Spawns the batched UDP serve daemon on `addr`, answering off `cell`.
/// The discipline loop keeps publishing into `cell` from its own thread;
/// the daemon never blocks it.
pub fn spawn_udp<A: ToSocketAddrs>(
    addr: A,
    cell: Arc<SnapshotCell>,
    cfg: ServeConfig,
    mut tsc_now: impl FnMut() -> u64 + Send + 'static,
) -> io::Result<ServeDaemonHandle> {
    let transport = crate::transport::UdpBatchTransport::bind(addr, cfg.batch)?;
    let local = transport.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let shared = Arc::new(DaemonShared::default());
    let shared2 = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name("tsc-serve".into())
        .spawn(move || {
            let mut transport = transport;
            let mut plane = ServePlane::new(cell, cfg);
            let mut rx = BatchBufs::new(cfg.batch);
            let mut tx = BatchBufs::new(cfg.batch);
            while !stop2.load(Ordering::SeqCst) {
                let n = match transport.recv_batch(&mut rx, cfg.batch) {
                    Ok(n) => n,
                    Err(e) => {
                        shared2.survived("recv", &e);
                        // A persistently broken socket must not busy-spin.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    }
                };
                if n == 0 {
                    plane.flush_telemetry(); // idle: show what was served
                    continue;
                }
                plane.serve_batch(&rx, n, &mut tx, &mut tsc_now);
                if let Err(e) = transport.send_batch(&tx, n) {
                    shared2.survived("send", &e);
                }
                shared2.mirror(&plane.stats);
            }
        })?;
    Ok(ServeDaemonHandle {
        addr: local,
        stop,
        shared,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;

    fn synced_snap(tsc0: u64) -> ClockSnapshot {
        ClockSnapshot {
            era: 1,
            tsc0,
            base: 1.0e9,
            rate: 1e-9, // 1 ns per count
            bound: 20e-6,
            synced: true,
            reference_id: *b"TSC\0",
        }
    }

    #[test]
    fn decide_covers_all_refusal_states() {
        let cfg = ServeConfig {
            stale_horizon: 10.0,
            ..ServeConfig::default()
        };
        assert_eq!(decide(None, 0), Decision::Refuse(REFUSE_INIT));
        let mut s = synced_snap(0);
        s.synced = false;
        let unsynced = Stamper::new(&cfg, &s);
        assert_eq!(decide(Some(&unsynced), 0), Decision::Refuse(REFUSE_UNSYNC));
        let stamper = Stamper::new(&cfg, &synced_snap(0));
        // 11 s past the seal at 1 ns/count.
        let tsc = 11_000_000_000;
        assert_eq!(decide(Some(&stamper), tsc), Decision::Refuse(REFUSE_STALE));
        // Just inside the horizon: serve, with the bound widened.
        let tsc = 9_000_000_000;
        match decide(Some(&stamper), tsc) {
            Decision::Serve { tb, te, bound } => {
                // 1e9 + 9 s, to the 2⁻³² s unit.
                let seconds = (1_000_000_009u64 + 2_208_988_800) as u32;
                assert_eq!(
                    tb,
                    NtpTimestamp {
                        seconds,
                        fraction: 0
                    }
                );
                // round(10 µs · 2³²) = round(42 949.67…).
                assert_eq!(te.to_bits() - tb.to_bits(), 42_950);
                assert!((bound - (20e-6 + bound::WIDEN_RATE * 9.0)).abs() < 1e-12);
            }
            d => panic!("expected serve, got {d:?}"),
        }
    }

    /// `round(x · 2ⁿ)`, ties up, for an exact `i128` `x` in 2⁻⁽³²⁺ⁿ⁾ s units
    /// — the reference's one rounding.
    fn round_shift(x: i128, n: u32) -> i128 {
        if n == 0 {
            x
        } else {
            (x + (1 << (n - 1))) >> n
        }
    }

    /// `(mantissa, exponent)` with `x = mantissa · 2^exponent` exactly.
    fn split(x: f64) -> (i128, i32) {
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7FF) as i32;
        let m = (bits & ((1 << 52) - 1) | (u64::from(biased != 0) << 52)) as i128;
        let e = if biased == 0 { -1074 } else { biased - 1075 };
        (if x < 0.0 { -m } else { m }, e)
    }

    /// `base + (tsc − tsc0)·rate` taken exactly in `i128`, as NTP bits:
    /// both terms are integers in 2⁻⁽³²⁺ᶠ⁾ s units for the `f` below, and
    /// the sum is rounded once. For `|base| < 2³⁴`, `2⁻⁵² ≤ |rate|` and
    /// `|staleness| < 2¹⁹ s`, nothing overflows.
    fn reference_ntp_bits(snap: &ClockSnapshot, tsc: u64) -> u64 {
        let (mb, eb) = split(snap.base);
        let (mr, er) = split(snap.rate);
        let f = (-(eb + 32)).max(-(er + 32)).max(0);
        let base = mb << (eb + 32 + f);
        let delta = i128::from(tsc.wrapping_sub(snap.tsc0) as i64);
        let offset = (delta * mr) << (er + 32 + f);
        let units = round_shift(base + offset, f as u32) + (2_208_988_800i128 << 32);
        units.rem_euclid(1 << 64) as u64
    }

    proptest::proptest! {
        /// On the wire, `Te − Tb` is the rounded residence exactly and `Tb`
        /// is within one 2⁻³² s unit of the exact evaluation, for any base
        /// from 1970 to past era 2's start, 0.1–10 GHz counters, staleness
        /// of either sign up to ~4 days, and counter wraps.
        #[test]
        fn stamps_are_exact_to_one_unit(
            base in 1.0f64..8_589_934_592.0,
            rate in 1e-10f64..1e-8,
            tsc0 in proptest::prelude::any::<u64>(),
            delta in -(1i64 << 45)..(1i64 << 45),
            residence in 0.0f64..1e-3,
        ) {
            let cfg = ServeConfig {
                stale_horizon: f64::INFINITY,
                residence,
                ..ServeConfig::default()
            };
            let snap = ClockSnapshot { base, rate, tsc0, ..synced_snap(0) };
            let tsc = tsc0.wrapping_add(delta as u64);
            let Decision::Serve { tb, te, .. } = decide(Some(&Stamper::new(&cfg, &snap)), tsc)
            else {
                panic!("a synced snapshot under an infinite horizon serves");
            };
            let want = reference_ntp_bits(&snap, tsc);
            let off = tb.to_bits().wrapping_sub(want) as i64;
            proptest::prop_assert!(off.abs() <= 1, "Tb {:#x} vs exact {want:#x}", tb.to_bits());
            let residence_units = (residence * 4_294_967_296.0).round() as u64;
            proptest::prop_assert_eq!(te.to_bits().wrapping_sub(tb.to_bits()), residence_units);
        }
    }

    /// A snapshot sealed 1.5 s before the NTP era 0 → 1 rollover
    /// (2036-02-07T06:28:16Z) serves the true NTP time mod 2⁶⁴ on either
    /// side of it, from the same batch.
    #[test]
    fn serve_batch_stamps_across_the_2036_era_rollover() {
        let era1_unix = 2_085_978_496.0; // 2³² − 2 208 988 800
        let snap = ClockSnapshot {
            base: era1_unix - 1.5,
            ..synced_snap(0)
        };
        let cell = Arc::new(SnapshotCell::new());
        cell.publish(&snap);
        let mut plane = ServePlane::new(cell, ServeConfig::default());
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(era1_unix - 2.0), 4);
        let mut t = SimTransport::new();
        t.push_request(&req.encode());
        t.push_request(&req.encode());
        let mut rx = BatchBufs::new(2);
        let mut tx = BatchBufs::new(2);
        let n = t.recv_batch(&mut rx, 2).unwrap();
        // 1 s, then 3 s, after the seal at 1 ns per count.
        let mut reads = [1_000_000_000u64, 3_000_000_000].into_iter();
        let mut tsc = move || reads.next().expect("one read per request");
        assert_eq!(plane.serve_batch(&rx, n, &mut tx, &mut tsc), 2);
        let half = 1 << 31;
        let residence = 42_950; // round(10 µs · 2³²)
        for (slot, seconds, tsc) in [(0, u32::MAX, 1_000_000_000), (1, 1, 3_000_000_000)] {
            let p = NtpPacket::decode(tx.slot(slot)).unwrap();
            assert!(p.validate_response(&req).is_ok());
            let tb = NtpTimestamp {
                seconds,
                fraction: half,
            };
            assert_eq!(p.receive_ts, tb, "slot {slot}");
            assert_eq!(p.receive_ts.to_bits(), reference_ntp_bits(&snap, tsc));
            assert_eq!(p.transmit_ts.to_bits(), tb.to_bits() + residence);
            // The reference stamp is the seal: era 0's last-but-one second.
            let sealed = NtpTimestamp {
                seconds: u32::MAX - 1,
                fraction: half,
            };
            assert_eq!(p.reference_ts, sealed);
        }
    }

    /// The `ceil()` formulation the integer cast replaced.
    fn reference_bound_to_wire(bound: f64) -> NtpShort {
        let scaled = (bound * 65536.0).ceil();
        if scaled >= u32::MAX as f64 {
            NtpShort(u32::MAX)
        } else {
            NtpShort(scaled.max(0.0) as u32)
        }
    }

    #[test]
    fn wire_bound_rounds_up_never_down() {
        for bound in [0.0, 1e-9, 15e-6, 50e-6, 1.0, 3.7e4] {
            let wire = bound_to_wire(bound).to_seconds();
            assert!(wire >= bound, "wire {wire} < internal {bound}");
            assert!(wire - bound <= 1.0 / 65536.0 + 1e-12);
        }
        assert_eq!(bound_to_wire(1e9).0, u32::MAX); // saturates

        // Bit-equal to the `ceil()` formulation everywhere, and never
        // under-reporting, over the edge cases and 2.4·10⁵ draws.
        let top = u32::MAX as f64 / 65536.0;
        let mut bounds = vec![
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            1e300,
            65_535.0,
            65_536.0,
        ];
        for k in [
            0.0,
            1.0,
            2.0,
            1_000.0,
            65_535.0 * 65_536.0,
            u32::MAX as f64 - 1.0,
        ] {
            for x in [k, k + 0.5, k + 1.0] {
                // Either side of an integer and of a half, in wire units.
                let b = x / 65536.0;
                bounds.extend([f64::from_bits(b.to_bits() + 1), b]);
                if b > 0.0 {
                    bounds.push(f64::from_bits(b.to_bits() - 1));
                }
            }
        }
        bounds.extend([
            top,
            f64::from_bits(top.to_bits() - 1),
            f64::from_bits(top.to_bits() + 1),
        ]);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..120_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            // Uniform over twice the format's range, and log-uniform
            // over 1 ns … 100 s where served bounds live.
            bounds.extend([u * 131_072.0, 1e-9 * 1e11f64.powf(u)]);
        }
        for b in bounds {
            let wire = bound_to_wire(b);
            assert_eq!(wire, reference_bound_to_wire(b), "bound_to_wire({b:e})");
            if (0.0..=65_535.0).contains(&b) {
                assert!(wire.to_seconds() >= b, "wire {wire:?} under-reports {b:e}");
            } else if b > 65_536.0 {
                assert_eq!(wire.0, u32::MAX, "{b:e} saturates");
            }
        }
    }

    /// A batch whose slot 0 is garbage and slot 1 valid records the age the
    /// valid request saw, not 0. The registry is process-wide and other
    /// tests serve concurrently, so the age is one no other test produces
    /// (100 s: log2 bucket 37) and the assertion is on that bucket.
    #[cfg(feature = "telemetry")]
    #[test]
    fn snapshot_age_is_sampled_at_the_first_valid_request() {
        let age_ns = 100_000_000_000u64;
        let in_bucket = || {
            let ages = telemetry::global().hist(telemetry::Hist::ServeSnapshotAgeNs);
            ages.counts()[(u64::BITS - age_ns.leading_zeros()) as usize]
        };
        let cell = Arc::new(SnapshotCell::new());
        cell.publish(&synced_snap(0));
        let mut plane = ServePlane::new(cell, ServeConfig::default());
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(500.0), 4);
        let mut t = SimTransport::new();
        t.push_request(&[0xFF; 48]);
        t.push_request(&req.encode());
        let mut rx = BatchBufs::new(2);
        let mut tx = BatchBufs::new(2);
        let n = t.recv_batch(&mut rx, 2).unwrap();
        let before = in_bucket();
        let mut tsc = move || age_ns; // 1 ns per count, sealed at 0
        assert_eq!(plane.serve_batch(&rx, n, &mut tx, &mut tsc), 1);
        plane.flush_telemetry();
        assert_eq!(in_bucket() - before, 1);
    }

    #[test]
    fn serve_batch_stamps_refuses_and_drops() {
        let cell = Arc::new(SnapshotCell::new());
        cell.publish(&synced_snap(0));
        let cfg = ServeConfig {
            stale_horizon: 10.0,
            ..ServeConfig::default()
        };
        let mut plane = ServePlane::new(Arc::clone(&cell), cfg);
        let mut t = SimTransport::new();
        // Slot 0: valid request. Slot 1: garbage. Slot 2: non-client mode.
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(500.0), 4);
        t.push_request(&req.encode());
        t.push_request(&[0xFF; 48]);
        let mut server_mode = req;
        server_mode.mode = Mode::Server;
        t.push_request(&server_mode.encode());

        let mut rx = BatchBufs::new(8);
        let mut tx = BatchBufs::new(8);
        let n = t.recv_batch(&mut rx, 8).unwrap();
        assert_eq!(n, 3);
        let mut tsc = move || 5_000_000_000u64; // 5 s after seal
        let answered = plane.serve_batch(&rx, n, &mut tx, &mut tsc);
        assert_eq!(answered, 1);
        assert_eq!(t.send_batch(&tx, n).unwrap(), 1);
        assert_eq!(
            (plane.stats.requests, plane.stats.responses, plane.stats.malformed),
            (3, 1, 2)
        );

        let (resp, len) = t.pop_response().unwrap();
        let p = NtpPacket::decode(&resp[..len]).unwrap();
        assert!(p.validate_response(&req).is_ok());
        assert!((p.receive_ts.to_unix_seconds() - (1.0e9 + 5.0)).abs() < 1e-5);
        let bound = p.root_dispersion.to_seconds();
        assert!(bound >= 20e-6 + 1e-7 * 5.0);

        // Past the horizon the same plane refuses with STAL.
        t.push_request(&req.encode());
        let n = t.recv_batch(&mut rx, 8).unwrap();
        let mut tsc = move || 11_000_000_000u64;
        plane.serve_batch(&rx, n, &mut tx, &mut tsc);
        t.send_batch(&tx, n).unwrap();
        let (resp, len) = t.pop_response().unwrap();
        let p = NtpPacket::decode(&resp[..len]).unwrap();
        assert!(matches!(
            p.validate_response(&req),
            Err(tsc_ntp::packet::PacketError::KissOfDeath(code)) if code == REFUSE_STALE
        ));
        assert_eq!(plane.stats.refusals, 1);
    }

    #[test]
    fn unpublished_cell_refuses_init() {
        let cell = Arc::new(SnapshotCell::new());
        let mut plane = ServePlane::new(cell, ServeConfig::default());
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(1.0), 4);
        let mut t = SimTransport::new();
        t.push_request(&req.encode());
        let mut rx = BatchBufs::new(4);
        let mut tx = BatchBufs::new(4);
        let n = t.recv_batch(&mut rx, 4).unwrap();
        let mut tsc = move || 0u64;
        plane.serve_batch(&rx, n, &mut tx, &mut tsc);
        let p = NtpPacket::decode(tx.slot(0)).unwrap();
        assert!(matches!(
            p.validate_response(&req),
            Err(tsc_ntp::packet::PacketError::KissOfDeath(code)) if code == REFUSE_INIT
        ));
    }

    #[test]
    fn udp_daemon_end_to_end() {
        let cell = Arc::new(SnapshotCell::new());
        let daemon = spawn_udp(
            "127.0.0.1:0",
            Arc::clone(&cell),
            ServeConfig::default(),
            instant_counter(),
        )
        .unwrap();
        // Publish a synced snapshot pinned to "counter 0 = base time"; the
        // daemon's instant_counter starts near 0 so staleness stays tiny.
        cell.publish(&ClockSnapshot {
            era: 1,
            tsc0: 0,
            base: 1.7e9,
            rate: 1e-9,
            bound: 30e-6,
            synced: true,
            reference_id: *b"TSC\0",
        });
        // Neither a short garbage datagram nor a non-client mode is answered.
        let rogue = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        rogue.send_to(&[1, 2, 3], daemon.addr()).unwrap();
        let mut server_mode = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(5.0), 4);
        server_mode.mode = Mode::Server;
        rogue.send_to(&server_mode.encode(), daemon.addr()).unwrap();

        let client = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut last_tb = 0.0;
        let residence = ServeConfig::default().residence;
        let mut buf = [0u8; 512];
        for i in 1..=5 {
            let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(i as f64), 4);
            client.send_to(&req.encode(), daemon.addr()).unwrap();
            let (len, from) = client.recv_from(&mut buf).expect("daemon answers");
            assert_eq!(from, daemon.addr());
            let resp = NtpPacket::decode(&buf[..len]).unwrap();
            assert_eq!(resp.validate_response(&req), Ok(()));
            let (tb, te) = (resp.receive_ts.to_unix_seconds(), resp.transmit_ts.to_unix_seconds());
            assert!(tb > 1.7e9 - 1.0 && tb < 1.7e9 + 60.0);
            assert!(tb > last_tb, "server time must advance");
            last_tb = tb;
            // One counter read per request: Te − Tb is the modeled
            // residence, to the f64 ULP (~2.4e-7 s) near 1.7e9.
            assert!((te - tb - residence).abs() < 5e-7, "te - tb = {}", te - tb);
        }
        // The reply can arrive before the daemon mirrors its counters.
        let seen = || {
            let s = daemon.stats();
            (s.requests, s.responses, s.malformed, s.refusals)
        };
        let t0 = std::time::Instant::now();
        while seen() != (7, 5, 2, 0) && t0.elapsed() < std::time::Duration::from_secs(2) {
            std::thread::yield_now();
        }
        assert_eq!(seen(), (7, 5, 2, 0));
        // The socket is FIFO, so both bad datagrams were handled before the
        // queries were: any reply to them would be waiting here by now.
        rogue.set_nonblocking(true).unwrap();
        assert!(rogue.recv_from(&mut [0u8; 64]).is_err());
        assert_eq!(daemon.recv_errors(), 0);
        assert!(daemon.last_error().is_none());
        let t0 = std::time::Instant::now();
        daemon.shutdown();
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }
}
