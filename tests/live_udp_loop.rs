//! End-to-end test over real UDP loopback: simulated stratum-1 server,
//! SNTP client, and the TSC-NTP clock acquiring absolute time.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::ntp::SntpClient;
use tscclock_repro::serve::{
    instant_counter, spawn_udp, PublishPolicy, Publisher, ServeConfig, ServeDaemonHandle,
    SnapshotCell,
};

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
    let policy = PublishPolicy {
        reference_id: *b"SIM\0",
        ..PublishPolicy::default()
    };
    Publisher::new(Arc::clone(&cell), policy).seal(0, unix_now() + offset, 1e-9, true);
    let cfg = ServeConfig::default();
    spawn_udp("127.0.0.1:0", cell, cfg, instant_counter()).expect("bind server")
}

#[test]
fn acquire_absolute_time_over_loopback() {
    let server = spawn_upstream(2.0);
    let mut client = SntpClient::connect(server.addr()).expect("client");
    client.set_timeout(Duration::from_secs(1)).unwrap();

    let t0 = Instant::now();
    let read_tsc = move || t0.elapsed().as_nanos() as u64;

    let mut cfg = ClockConfig::paper_defaults(0.02);
    cfg.warmup_packets = 6;
    let mut clock = TscNtpClock::new(cfg);

    let mut ok = 0;
    for _ in 0..30 {
        let mut ta = 0u64;
        let mut tf = 0u64;
        let res = client.query(|| {
            let c = read_tsc();
            if ta == 0 {
                ta = c;
            } else {
                tf = c;
            }
            c as f64 * 1e-9
        });
        if let Ok(ft) = res {
            if clock
                .process(RawExchange {
                    ta_tsc: ta,
                    tb: ft.tb,
                    te: ft.te,
                    tf_tsc: tf,
                })
                .is_some()
            {
                ok += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ok >= 20, "most exchanges should succeed, got {ok}");

    let now_tsc = read_tsc();
    let ca = clock.absolute_time(now_tsc).expect("clock aligned");
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
    use tscclock_repro::ntp::NtpPacket;
    use tscclock_repro::ntp::packet::PACKET_LEN;
    use std::net::UdpSocket;

    // A rogue "server" that always answers with stratum 0 (KoD).
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = sock.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        if let Ok((len, from)) = sock.recv_from(&mut buf) {
            if len >= PACKET_LEN {
                let req = NtpPacket::decode(&buf[..len]).unwrap();
                let mut resp = NtpPacket::server_response(
                    &req,
                    tscclock_repro::ntp::NtpTimestamp::from_unix_seconds(1e9),
                    tscclock_repro::ntp::NtpTimestamp::from_unix_seconds(1e9),
                    *b"RATE",
                );
                resp.stratum = 0;
                let _ = sock.send_to(&resp.encode(), from);
            }
        }
    });
    let mut client = SntpClient::connect(addr).unwrap();
    client.set_timeout(Duration::from_millis(500)).unwrap();
    let res = client.query(|| 1.0);
    assert!(res.is_err(), "KoD must abort the exchange");
    t.join().unwrap();
}
