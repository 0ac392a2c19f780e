//! The batched datagram front-end: a recvmmsg/sendmmsg-shaped transport
//! trait, a real UDP implementation, and an in-process implementation for
//! benches and deterministic tests.
//!
//! # The batch shape
//!
//! Like `recvmmsg(2)`/`sendmmsg(2)`, a batch is N datagram headers over
//! **one contiguous buffer per direction**: slot `i` occupies bytes
//! `[i·SLOT_LEN, (i+1)·SLOT_LEN)` and `lens[i]` says how many are valid.
//! The serve loop touches exactly two linear buffers per batch — no
//! per-datagram allocation, no pointer chasing.
//!
//! # Slot correspondence
//!
//! Addressing is positional: response slot `i` answers receive slot `i`,
//! and the transport remembers peer `i` internally. A response length of
//! **0 marks a dropped slot** (malformed request — nothing is sent). This
//! keeps peer addresses (socket addrs, sim client ids…) out of the trait
//! entirely.
//!
//! # Slot size
//!
//! `SLOT_LEN` is 48 bytes — the full NTP header, which is all the serving
//! plane reads or writes. A request carrying extension fields is
//! truncated on receive; its header still parses and is answered
//! normally, matching the codec's documented "extensions ignored"
//! behaviour.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;
use tsc_ntp::packet::PACKET_LEN;

/// Bytes per batch slot (one NTP header).
pub const SLOT_LEN: usize = PACKET_LEN;

/// Default maximum datagrams per batch (matches typical mmsg vlen use).
pub const DEFAULT_BATCH: usize = 64;

/// One direction's batch storage: `slots` contiguous `SLOT_LEN` ranges
/// plus per-slot valid lengths. Reused across batches — allocate once.
#[derive(Debug, Clone)]
pub struct BatchBufs {
    data: Vec<u8>,
    lens: Vec<usize>,
}

impl BatchBufs {
    pub fn new(slots: usize) -> Self {
        Self {
            data: vec![0; slots * SLOT_LEN],
            lens: vec![0; slots],
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.lens.len()
    }

    /// Valid length of slot `i` (0 = empty / dropped).
    #[inline]
    pub fn len(&self, i: usize) -> usize {
        self.lens[i]
    }

    #[inline]
    pub fn set_len(&mut self, i: usize, len: usize) {
        debug_assert!(len <= SLOT_LEN);
        self.lens[i] = len;
    }

    /// Slot `i`'s valid bytes.
    #[inline]
    pub fn slot(&self, i: usize) -> &[u8] {
        &self.data[i * SLOT_LEN..i * SLOT_LEN + self.lens[i]]
    }

    /// Slot `i`'s full `SLOT_LEN` range, mutable (set the length after
    /// writing).
    #[inline]
    pub fn slot_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.data[i * SLOT_LEN..(i + 1) * SLOT_LEN]
    }
}

/// A recvmmsg/sendmmsg-shaped datagram transport.
///
/// Contract:
/// - `recv_batch` fills `rx` slots `0..n` and returns `n`; it may block
///   briefly (implementation-defined timeout) and returns `Ok(0)` on an
///   idle interval — callers poll a shutdown flag between batches.
/// - `send_batch(tx, n)` answers the *immediately preceding* `recv_batch`:
///   slot `i` goes to the peer of receive slot `i`; `tx.len(i) == 0`
///   skips the slot. A slot whose send fails does not stop the batch:
///   every slot is tried, then the first error is returned; otherwise the
///   number of datagrams sent.
pub trait DatagramBatch {
    fn recv_batch(&mut self, rx: &mut BatchBufs, max: usize) -> io::Result<usize>;
    fn send_batch(&mut self, tx: &BatchBufs, n: usize) -> io::Result<usize>;
}

/// Real UDP sockets.
///
/// Where `recvmmsg`/`sendmmsg` are unavailable to std (no libc binding in
/// this workspace), the documented fallback applies: one blocking
/// `recv_from` (bounded by a read timeout) latches the batch, then a
/// non-blocking drain packs as many already-queued datagrams as fit — so
/// under load the kernel's receive queue still amortizes into large
/// batches, and when idle the loop wakes at timeout granularity.
#[derive(Debug)]
pub struct UdpBatchTransport {
    socket: UdpSocket,
    peers: Vec<Option<SocketAddr>>,
}

impl UdpBatchTransport {
    /// Binds to `addr` (port 0 for ephemeral) with a 50 ms receive
    /// timeout and room for `slots` peers per batch.
    pub fn bind<A: ToSocketAddrs>(addr: A, slots: usize) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Self {
            socket,
            peers: vec![None; slots],
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl DatagramBatch for UdpBatchTransport {
    fn recv_batch(&mut self, rx: &mut BatchBufs, max: usize) -> io::Result<usize> {
        let max = max.min(rx.slots()).min(self.peers.len());
        if max == 0 {
            return Ok(0);
        }
        // Blocking (timeout-bounded) receive for the first datagram…
        let (len, from) = match self.socket.recv_from(rx.slot_mut(0)) {
            Ok(x) => x,
            Err(ref e) if recv_error_is_transient(e.kind()) => return Ok(0),
            Err(e) => return Err(e),
        };
        rx.set_len(0, len.min(SLOT_LEN));
        self.peers[0] = Some(from);
        let mut n = 1;
        // …then drain whatever else the kernel already queued.
        self.socket.set_nonblocking(true)?;
        while n < max {
            match self.socket.recv_from(rx.slot_mut(n)) {
                Ok((len, from)) => {
                    rx.set_len(n, len.min(SLOT_LEN));
                    self.peers[n] = Some(from);
                    n += 1;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if recv_error_is_transient(e.kind()) => continue,
                Err(e) => {
                    self.socket.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.socket.set_nonblocking(false)?;
        Ok(n)
    }

    fn send_batch(&mut self, tx: &BatchBufs, n: usize) -> io::Result<usize> {
        let mut sent = 0;
        let mut first_err = None;
        for i in 0..n.min(tx.slots()) {
            if tx.len(i) == 0 {
                continue;
            }
            if let Some(peer) = self.peers[i] {
                match self.socket.send_to(tx.slot(i), peer) {
                    Ok(_) => sent += 1,
                    // One bad peer (unroutable or spoofed source, EACCES,
                    // ENOBUFS) must not cost the rest of the batch its
                    // responses.
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        first_err.map_or(Ok(sent), Err)
    }
}

/// Receive-error classification for the serve loop: timeouts and spurious
/// wakeups are the normal idle path; everything else is a survived error.
/// `ConnectionReset`/`ConnectionRefused` show up on connectionless UDP
/// sockets on some platforms when a *previous send* bounced (ICMP port
/// unreachable) — transient by definition.
fn recv_error_is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
    )
}

/// `bytes` as one queue entry: the slot (truncated to `SLOT_LEN`) and its
/// valid length. A whole slot — every well-formed NTP datagram — moves as
/// one fixed-size copy; only a short one is zero-padded.
#[inline]
fn to_slot(bytes: &[u8]) -> ([u8; SLOT_LEN], usize) {
    match bytes.first_chunk() {
        Some(whole) => (*whole, SLOT_LEN),
        None => short_slot(bytes),
    }
}

/// The zero-padded copy of a short datagram. Out of line, so that LLVM
/// cannot merge the two arms of [`to_slot`] into one variable-length
/// `memcpy` libcall per datagram: whether it merges them inline depends
/// on how the crate splits into codegen units, which any edit can move.
#[cold]
#[inline(never)]
fn short_slot(bytes: &[u8]) -> ([u8; SLOT_LEN], usize) {
    let mut slot = [0u8; SLOT_LEN];
    slot[..bytes.len()].copy_from_slice(bytes);
    (slot, bytes.len())
}

/// In-process transport: requests are queued by the driving test/bench
/// (e.g. generated from a netsim client population), responses land in an
/// outbox — no sockets, no root, deterministic.
#[derive(Debug, Default)]
pub struct SimTransport {
    inbox: VecDeque<([u8; SLOT_LEN], usize)>,
    outbox: VecDeque<([u8; SLOT_LEN], usize)>,
    /// When `false`, responses are counted in `responses_sent` but not
    /// retained — benches measure the serve loop, not outbox growth.
    pub keep_responses: bool,
    /// Slots the serve loop explicitly dropped (len 0).
    pub dropped: u64,
    /// Total responses handed to `send_batch` with a non-zero length.
    pub responses_sent: u64,
}

impl SimTransport {
    pub fn new() -> Self {
        Self {
            keep_responses: true,
            ..Self::default()
        }
    }

    /// Queues a raw request datagram (truncated to one slot).
    pub fn push_request(&mut self, bytes: &[u8]) {
        self.inbox.push_back(to_slot(bytes));
    }

    /// Pending (unserved) requests.
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }

    /// Pops the oldest retained response.
    pub fn pop_response(&mut self) -> Option<([u8; SLOT_LEN], usize)> {
        self.outbox.pop_front()
    }
}

impl DatagramBatch for SimTransport {
    fn recv_batch(&mut self, rx: &mut BatchBufs, max: usize) -> io::Result<usize> {
        let max = max.min(rx.slots());
        let mut n = 0;
        while n < max {
            let Some((slot, len)) = self.inbox.pop_front() else {
                break;
            };
            rx.slot_mut(n).copy_from_slice(&slot);
            rx.set_len(n, len);
            n += 1;
        }
        Ok(n)
    }

    fn send_batch(&mut self, tx: &BatchBufs, n: usize) -> io::Result<usize> {
        let mut sent = 0;
        for i in 0..n.min(tx.slots()) {
            let len = tx.len(i);
            if len == 0 {
                self.dropped += 1;
                continue;
            }
            if self.keep_responses {
                self.outbox.push_back(to_slot(tx.slot(i)));
            }
            self.responses_sent += 1;
            sent += 1;
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_transport_fifo_and_slot_correspondence() {
        let mut t = SimTransport::new();
        t.push_request(&[1; 48]);
        t.push_request(&[2; 48]);
        t.push_request(&[3; 48]);
        let mut rx = BatchBufs::new(8);
        let n = t.recv_batch(&mut rx, 2).unwrap();
        assert_eq!(n, 2);
        assert_eq!(rx.slot(0)[0], 1);
        assert_eq!(rx.slot(1)[0], 2);
        assert_eq!(t.pending(), 1);

        let mut tx = BatchBufs::new(8);
        tx.slot_mut(0)[..4].copy_from_slice(&[9; 4]);
        tx.set_len(0, 4);
        tx.set_len(1, 0); // dropped slot
        assert_eq!(t.send_batch(&tx, 2).unwrap(), 1);
        assert_eq!(t.dropped, 1);
        let (resp, len) = t.pop_response().unwrap();
        assert_eq!((len, resp[0]), (4, 9));
    }

    #[test]
    fn oversized_request_is_truncated_and_short_one_keeps_its_length() {
        let mut t = SimTransport::new();
        t.push_request(&[7; 100]);
        t.push_request(&[5; 3]);
        let mut rx = BatchBufs::new(2);
        // A stale slot must not leak into the short datagram that reuses it.
        rx.slot_mut(1).fill(0xEE);
        assert_eq!(t.recv_batch(&mut rx, 2).unwrap(), 2);
        assert_eq!(rx.slot(0), [7; SLOT_LEN]);
        assert_eq!(rx.slot(1), [5; 3]);
        assert_eq!(rx.slot_mut(1)[3..], [0; SLOT_LEN - 3]);
    }

    #[test]
    fn udp_loopback_batch_roundtrip() {
        let mut server = UdpBatchTransport::bind("127.0.0.1:0", 8).unwrap();
        let addr = server.local_addr().unwrap();
        let c1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let c2 = UdpSocket::bind("127.0.0.1:0").unwrap();
        c1.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        c2.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        c1.send_to(&[1; 48], addr).unwrap();
        c2.send_to(&[2; 48], addr).unwrap();

        let mut rx = BatchBufs::new(8);
        let mut got = 0;
        let mut tx = BatchBufs::new(8);
        // Both datagrams may or may not coalesce into one batch; loop.
        while got < 2 {
            let n = server.recv_batch(&mut rx, 8).unwrap();
            for i in 0..n {
                assert_eq!(rx.len(i), 48);
                // Echo the first byte back so each client can check routing.
                tx.slot_mut(i)[0] = rx.slot(i)[0];
                tx.set_len(i, 1);
            }
            server.send_batch(&tx, n).unwrap();
            got += n;
        }
        let mut buf = [0u8; 8];
        let (len, _) = c1.recv_from(&mut buf).unwrap();
        assert_eq!((len, buf[0]), (1, 1));
        let (len, _) = c2.recv_from(&mut buf).unwrap();
        assert_eq!((len, buf[0]), (1, 2));
    }

    #[test]
    fn one_bad_peer_does_not_drop_the_rest_of_the_batch() {
        let mut server = UdpBatchTransport::bind("127.0.0.1:0", 8).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        client
            .send_to(&[2; 48], server.local_addr().unwrap())
            .unwrap();
        let mut rx = BatchBufs::new(8);
        assert_eq!(server.recv_batch(&mut rx, 8).unwrap(), 1);
        // The real client moves to slot 1, behind a source `send_to`
        // rejects: limited broadcast without SO_BROADCAST is EACCES.
        server.peers[1] = server.peers[0];
        server.peers[0] = Some("255.255.255.255:9".parse().unwrap());

        let mut tx = BatchBufs::new(8);
        for i in 0..2 {
            tx.slot_mut(i)[0] = i as u8;
            tx.set_len(i, 1);
        }
        assert!(server.send_batch(&tx, 2).is_err(), "failure is reported");
        let mut buf = [0u8; 8];
        let (len, _) = client
            .recv_from(&mut buf)
            .expect("slot 1 is still answered");
        assert_eq!((len, buf[0]), (1, 1));
    }

    #[test]
    fn transient_error_classification() {
        for k in [
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
            io::ErrorKind::Interrupted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
        ] {
            assert!(recv_error_is_transient(k), "{k:?}");
        }
        for k in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::Other,
        ] {
            assert!(!recv_error_is_transient(k), "{k:?}");
        }
    }

    #[test]
    fn udp_idle_interval_returns_zero() {
        let mut server = UdpBatchTransport::bind("127.0.0.1:0", 4).unwrap();
        let mut rx = BatchBufs::new(4);
        assert_eq!(server.recv_batch(&mut rx, 4).unwrap(), 0);
    }
}
