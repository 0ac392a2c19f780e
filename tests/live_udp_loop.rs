//! End-to-end test over real UDP loopback: a simulated stratum-1 server, a
//! `LifecycleClient` driven through a plain `UdpSocket` by its wire step
//! (`on_datagram`), and the TSC-NTP clock inside it acquiring absolute
//! time; and a rogue server whose Kiss-o'-Death refusals back the client
//! off into cooldown while spoofed ones are ignored.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use tscclock_repro::clock::ClockConfig;
use tscclock_repro::fleet::{ClientState, ExchangeOutcome, LifecycleClient, LifecycleConfig};
use tscclock_repro::ntp::{NtpPacket, NtpTimestamp};
use tscclock_repro::serve::{
    instant_counter, spawn_udp, PublishPolicy, Publisher, ServeConfig, ServeDaemonHandle,
    SnapshotCell,
};

/// Seconds per count of the test's counter (nanoseconds).
const NOMINAL_PERIOD: f64 = 1e-9;

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs_f64()
}

/// The upstream stratum-1: a serve daemon whose one published snapshot is
/// the system clock plus a known offset we expect to acquire, advancing
/// at 1 ns per count of an `Instant` counter started now.
fn spawn_upstream(offset: f64) -> ServeDaemonHandle {
    let cell = Arc::new(SnapshotCell::new());
    let policy = PublishPolicy { reference_id: *b"SIM\0" };
    Publisher::new(Arc::clone(&cell), policy).seal(0, unix_now() + offset, 1e-9, true);
    let cfg = ServeConfig::default();
    spawn_udp("127.0.0.1:0", cell, cfg, instant_counter()).expect("bind server")
}

/// One exchange as a live client runs it, sent now: stamp `Ta`, send,
/// feed every datagram to `on_datagram` until one counts or `timeout`
/// seconds pass. Returns the outcome and how many datagrams the wire step
/// ignored, each of which must leave the schedule alone.
fn exchange(
    client: &mut LifecycleClient,
    socket: &UdpSocket,
    server: SocketAddr,
    timeout: f64,
    tsc: &impl Fn() -> u64,
) -> io::Result<(ExchangeOutcome, u32)> {
    let secs = |c: u64| c as f64 * NOMINAL_PERIOD;
    let request = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(unix_now()), 4);
    let ta_tsc = tsc();
    socket.send_to(&request.encode(), server)?;
    client.note_request();
    let deadline = secs(ta_tsc) + timeout;
    let (mut buf, mut ignored) = ([0u8; 512], 0);
    loop {
        let left = deadline - secs(tsc());
        if left <= 0.0 {
            return Ok((client.on_timeout(deadline), ignored));
        }
        socket.set_read_timeout(Some(Duration::from_secs_f64(left)))?;
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                let (tf_tsc, scheduled) = (tsc(), client.next_send());
                let (now, bytes) = (secs(tf_tsc), &buf[..len]);
                match client.on_datagram(now, &request, ta_tsc, bytes, tf_tsc, NOMINAL_PERIOD) {
                    Some(outcome) => return Ok((outcome, ignored)),
                    None => assert_eq!(client.next_send(), scheduled, "ignored, yet rescheduled"),
                }
                ignored += 1;
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn acquire_absolute_time_over_loopback() {
    let server = spawn_upstream(2.0);
    let socket = UdpSocket::bind("127.0.0.1:0").expect("client socket");

    let t0 = Instant::now();
    let read_tsc = move || t0.elapsed().as_nanos() as u64;

    let policy = LifecycleConfig::defaults(0.02);
    let mut cfg = ClockConfig::paper_defaults(0.02);
    cfg.warmup_packets = 6;
    let mut client = LifecycleClient::new(policy, cfg, 1, 0.0);

    let mut ok = 0;
    for _ in 0..30 {
        // the client schedules its own sends
        let wait = client.next_send() - read_tsc() as f64 * NOMINAL_PERIOD;
        std::thread::sleep(Duration::from_secs_f64(wait.max(0.0)));
        let (outcome, _) = exchange(&mut client, &socket, server.addr(), policy.timeout, &read_tsc)
            .expect("loopback socket");
        ok += u32::from(matches!(outcome, ExchangeOutcome::Accepted(Some(_))));
    }
    assert!(ok >= 20, "most exchanges should succeed, got {ok}");

    let now_tsc = read_tsc();
    let ca = client.clock().absolute_time(now_tsc).expect("clock aligned");
    let server_now = unix_now() + 2.0;
    let err = (ca - server_now).abs();
    // Loopback RTTs are ~50-500 µs; scheduling noise in CI can be worse.
    // Acquiring the 2-second offset to within 5 ms demonstrates the loop.
    assert!(
        err < 5e-3,
        "absolute time error {err} s after loopback sync (offset was 2 s)"
    );
}

#[test]
fn client_rejects_kiss_of_death() {
    let policy = LifecycleConfig::defaults(16.0);
    let rounds = policy.max_retries;

    // A rogue "server": each request first draws a spoofed RATE refusal
    // (an off-path sender who cannot see the request nonce), then the
    // server's own RATE refusal, which echoes the nonce.
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = sock.local_addr().unwrap();
    let rogue = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for _ in 0..rounds {
            let Ok((len, from)) = sock.recv_from(&mut buf) else {
                return;
            };
            let req = NtpPacket::decode(&buf[..len]).unwrap();
            let mut blind = req;
            blind.transmit_ts = NtpTimestamp::from_bits(req.transmit_ts.to_bits() ^ 1);
            for answered in [blind, req] {
                let kod = NtpPacket::refusal_response(&answered, *b"RATE");
                sock.send_to(&kod.encode(), from).unwrap();
            }
        }
    });

    let t0 = Instant::now();
    let read_tsc = move || t0.elapsed().as_nanos() as u64;
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut client = LifecycleClient::new(policy, ClockConfig::paper_defaults(16.0), 3, 0.0);
    // the lowest first rung the jitter can draw
    let first_rung = policy.backoff_base * (1.0 - policy.jitter_frac / 2.0);
    for round in 1..=rounds {
        let sent = read_tsc() as f64 * NOMINAL_PERIOD;
        let (outcome, ignored) =
            exchange(&mut client, &socket, addr, 2.0, &read_tsc).expect("loopback socket");
        assert_eq!(ignored, 1, "round {round}: the spoofed refusal is ignored");
        assert_eq!(outcome, ExchangeOutcome::TimedOut, "round {round}: a refusal is no answer");
        assert!(client.next_send() >= sent + first_rung, "round {round}: no backoff");
        let failed = client.state() == ClientState::Failed;
        assert_eq!(failed, round == rounds, "round {round}: {:?}", client.state());
    }
    assert_eq!(client.clock().status().packets, 0, "no refusal reaches the clock");
    let n = u64::from(rounds);
    assert_eq!(client.counters(), (n, 0, 0, n));
    rogue.join().unwrap();
}
