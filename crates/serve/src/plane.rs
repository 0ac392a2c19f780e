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
//!   `bound + widen_rate·staleness`, rounded *up* to the 16.16 wire
//!   format so the bound on the wire never under-reports.
//!
//! A refusal is a stratum-0 Kiss-o'-Death response (LI unsynchronized,
//! refid = code) — honest unavailability instead of a silently stale
//! timestamp.

use crate::cell::{ClockSnapshot, SnapshotCell};
use crate::transport::{BatchBufs, DatagramBatch, DEFAULT_BATCH};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tsc_ntp::packet::{Mode, NtpPacket, PACKET_LEN};
use tsc_ntp::timestamp::{NtpShort, NtpTimestamp};
use tsc_telemetry as telemetry;

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
            // The client-side horizon of `LifecycleConfig::defaults`; pinned
            // by `tests/edge_cases.rs::serve_and_lifecycle_bound_policies_agree`.
            stale_horizon: 4.0 * 3600.0,
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
        /// Server receive time `Tb` (Unix seconds).
        tb: f64,
        /// Server transmit time `Te = Tb + residence`.
        te: f64,
        /// Served-error bound (seconds) before wire quantization.
        bound: f64,
    },
    /// Refuse with this Kiss-o'-Death code.
    Refuse([u8; 4]),
}

/// The serve-or-refuse decision for a request arriving at counter reading
/// `tsc`, given the current snapshot. Pure — the whole correctness story
/// of the plane, separated from I/O so tests hit it directly.
#[inline]
pub fn decide(cfg: &ServeConfig, snap: Option<&ClockSnapshot>, tsc: u64) -> Decision {
    let Some(snap) = snap else {
        return Decision::Refuse(REFUSE_INIT);
    };
    if !snap.synced {
        return Decision::Refuse(REFUSE_UNSYNC);
    }
    let staleness = snap.staleness(tsc);
    if staleness > cfg.stale_horizon {
        return Decision::Refuse(REFUSE_STALE);
    }
    let tb = snap.time_at(tsc);
    Decision::Serve {
        tb,
        te: tb + cfg.residence,
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

/// One server's serving state: config + the shared snapshot cell.
#[derive(Debug)]
pub struct ServePlane {
    pub cfg: ServeConfig,
    cell: Arc<SnapshotCell>,
    pub stats: ServeStats,
}

impl ServePlane {
    pub fn new(cell: Arc<SnapshotCell>, cfg: ServeConfig) -> Self {
        Self {
            cfg,
            cell,
            stats: ServeStats::default(),
        }
    }

    /// Serves one received batch: for each of the `n` filled `rx` slots,
    /// decodes, validates, decides, and encodes the response into the
    /// matching `tx` slot (len 0 = drop). Returns the number of non-empty
    /// responses. **One snapshot read per batch**; one `tsc_now()` reading
    /// per datagram.
    ///
    /// Telemetry is batch-granular: counters and the batch-fill/snapshot-
    /// age histograms are touched once per batch, never per packet.
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
        let snap = self.cell.read();
        // What every served response of this batch shares: constants of
        // the one snapshot read, converted once.
        let (reference_id, reference_ts) = match &snap {
            Some(s) => (s.reference_id, NtpTimestamp::from_unix_seconds(s.base)),
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
                snap.map_or(0, |s| (s.staleness(tsc).max(0.0) * 1e9) as u64)
            });
            let response = match decide(&self.cfg, snap.as_ref(), tsc) {
                Decision::Serve { tb, te, bound } => {
                    served += 1;
                    NtpPacket {
                        root_dispersion: bound_to_wire(bound),
                        reference_ts,
                        ..NtpPacket::server_response(
                            &request,
                            NtpTimestamp::from_unix_seconds(tb),
                            NtpTimestamp::from_unix_seconds(te),
                            reference_id,
                        )
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
        self.stats.requests += n as u64;
        self.stats.responses += served;
        self.stats.malformed += malformed;
        self.stats.refusals += refused;
        self.stats.batches += 1;
        telemetry::add(telemetry::Ctr::ServeRequests, n as u64);
        telemetry::add(telemetry::Ctr::ServeResponses, served);
        telemetry::add(telemetry::Ctr::ServeMalformed, malformed);
        telemetry::add(telemetry::Ctr::ServeRefusals, refused);
        telemetry::add(telemetry::Ctr::ServeBatches, 1);
        telemetry::record_ns(telemetry::Hist::ServeBatchFill, n as u64);
        if let Some(age_ns) = first_age_ns {
            telemetry::record_ns(telemetry::Hist::ServeSnapshotAgeNs, age_ns);
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
            widen_rate: 1e-7,
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
        assert_eq!(decide(&cfg, None, 0), Decision::Refuse(REFUSE_INIT));
        let mut s = synced_snap(0);
        s.synced = false;
        assert_eq!(decide(&cfg, Some(&s), 0), Decision::Refuse(REFUSE_UNSYNC));
        let s = synced_snap(0);
        // 11 s past the seal at 1 ns/count.
        let tsc = 11_000_000_000;
        assert_eq!(decide(&cfg, Some(&s), tsc), Decision::Refuse(REFUSE_STALE));
        // Just inside the horizon: serve, with the bound widened.
        let tsc = 9_000_000_000;
        match decide(&cfg, Some(&s), tsc) {
            Decision::Serve { tb, te, bound } => {
                assert!((tb - (1.0e9 + 9.0)).abs() < 1e-6);
                // f64 ULP near 1e9 is ~1.2e-7 s; te = tb + residence only
                // resolves to that granularity.
                assert!((te - tb - cfg.residence).abs() < 5e-7);
                assert!((bound - (20e-6 + 1e-7 * 9.0)).abs() < 1e-12);
            }
            d => panic!("expected serve, got {d:?}"),
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
            widen_rate: 1e-7,
            synced: true,
            reference_id: *b"TSC\0",
        });
        // Neither a short garbage datagram nor a non-client mode is answered.
        let rogue = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        rogue.send_to(&[1, 2, 3], daemon.addr()).unwrap();
        let mut server_mode = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(5.0), 4);
        server_mode.mode = Mode::Server;
        rogue.send_to(&server_mode.encode(), daemon.addr()).unwrap();

        let mut client = tsc_ntp::client::SntpClient::connect(daemon.addr()).unwrap();
        client
            .set_timeout(std::time::Duration::from_secs(2))
            .unwrap();
        let mut t = 0.0;
        let mut last_tb = 0.0;
        let residence = ServeConfig::default().residence;
        for _ in 0..5 {
            let ft = client
                .query(|| {
                    t += 0.001;
                    t
                })
                .expect("daemon answers");
            assert!(ft.tb > 1.7e9 - 1.0 && ft.tb < 1.7e9 + 60.0);
            assert!(ft.tb > last_tb, "server time must advance");
            last_tb = ft.tb;
            // One counter read per request: Te − Tb is the modeled
            // residence, to the f64 ULP (~2.4e-7 s) near 1.7e9.
            assert!(
                (ft.te - ft.tb - residence).abs() < 5e-7,
                "te - tb = {}",
                ft.te - ft.tb
            );
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
