//! Live NTP over real UDP sockets: a simulated stratum-1 server on
//! localhost (a `tsc-serve` daemon answering off one published snapshot),
//! a `LifecycleClient` polling it from a plain `UdpSocket` — the same
//! delay gate, backoff and cooldown the simulated fleets run — and the
//! TSC-NTP clock inside it fed from real exchanges; then **daemon mode**:
//! the acquired clock is published into a second snapshot cell and served
//! back out by a second daemon, which a second client probes.
//!
//! ```sh
//! cargo run --release --example live_ntp                  # demo, exits
//! cargo run --release --example live_ntp -- 127.0.0.1:8123  # keep serving
//! ```
//!
//! With an address argument the daemon keeps answering on that socket
//! (Ctrl-C to stop) while the discipline loop republishes every 200 ms.
//!
//! The host's "TSC" is a nanosecond counter derived from `Instant` (the
//! paper's driver-level counter read, minus the kernel), and the client's
//! schedule runs on the same counter. The server answers from a
//! deliberately *offset* clock so the convergence of the offset estimate
//! is visible. Polling is accelerated (200 ms instead of 16 s) so the demo
//! finishes in seconds — the algorithms only see timestamps, not
//! wall-clock patience.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tscclock_repro::clock::ClockConfig;
use tscclock_repro::fleet::{ExchangeOutcome, LifecycleClient, LifecycleConfig, ReadVerdict};
use tscclock_repro::ntp::{NtpPacket, NtpTimestamp};
use tscclock_repro::serve::{
    instant_counter, spawn_udp, PublishPolicy, Publisher, ServeConfig, SnapshotCell,
};

/// Seconds per count of the host counter (nanoseconds).
const NOMINAL_PERIOD: f64 = 1e-9;

fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// One exchange the way a deployed client runs it: wait for the client's
/// scheduled send, stamp `Ta` right before the send and `Tf` right after
/// each receive (the driver-adjacent timestamping of §2.2.1), and feed
/// every datagram from `server` to the wire step until one counts or
/// `timeout` seconds pass, which is a timeout.
fn exchange(
    client: &mut LifecycleClient,
    socket: &UdpSocket,
    server: SocketAddr,
    timeout: f64,
    tsc: impl Fn() -> u64,
) -> io::Result<ExchangeOutcome> {
    let secs = |c: u64| c as f64 * NOMINAL_PERIOD;
    let wait = client.next_send() - secs(tsc());
    if wait > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(wait));
    }
    client.end_cooldown(secs(tsc()));
    // The nonce the server must echo: the host's own reading of Unix time.
    let request = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(unix_now()), 4);
    let ta_tsc = tsc();
    socket.send_to(&request.encode(), server)?;
    client.note_request();
    let deadline = secs(ta_tsc) + timeout;
    let mut buf = [0u8; 512];
    loop {
        let left = deadline - secs(tsc());
        if left <= 0.0 {
            return Ok(client.on_timeout(deadline));
        }
        socket.set_read_timeout(Some(Duration::from_secs_f64(left)))?;
        match socket.recv_from(&mut buf) {
            Ok((len, from)) => {
                let tf_tsc = tsc();
                if from != server {
                    continue; // unrelated datagram
                }
                // `None`: malformed or not an answer to `request`; keep waiting
                let (now, bytes) = (secs(tf_tsc), &buf[..len]);
                let out = client.on_datagram(now, &request, ta_tsc, bytes, tf_tsc, NOMINAL_PERIOD);
                if let Some(out) = out {
                    return Ok(out);
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A stratum-1 server on an ephemeral localhost port, 3.5 s ahead:
    //    one published snapshot — the system clock shifted by a fixed
    //    offset, advancing at 1 ns per count of its own `Instant` counter —
    //    stands in for a remote server whose absolute time we must acquire.
    let upstream = Arc::new(SnapshotCell::new());
    let sim = PublishPolicy { reference_id: *b"SIM\0" };
    Publisher::new(Arc::clone(&upstream), sim).seal(0, unix_now() + 3.5, 1e-9, true);
    let server = spawn_udp(
        "127.0.0.1:0",
        upstream,
        ServeConfig::default(),
        instant_counter(),
    )?;
    println!("simulated stratum-1 server listening on {}", server.addr());

    // 2. The host's raw counter: nanoseconds since program start (~1 GHz).
    let t0 = Instant::now();
    let read_tsc = move || t0.elapsed().as_nanos() as u64;

    // 3. Client + clock. The poll period entering the clock config matters
    //    only for the window-to-packet-count conversions.
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    let policy = LifecycleConfig::defaults(0.2);
    let mut clock_cfg = ClockConfig::paper_defaults(0.2);
    clock_cfg.warmup_packets = 8;
    let mut client = LifecycleClient::new(policy, clock_cfg, 1, 0.0);

    println!("polling every 200 ms (accelerated stand-in for the 16 s period)...\n");
    for i in 0..40 {
        match exchange(&mut client, &socket, server.addr(), policy.timeout, read_tsc)? {
            ExchangeOutcome::Accepted(Some(out)) if i % 5 == 0 => println!(
                "poll {i:2}: rtt = {:7.1} µs   point error = {:7.1} µs   θ̂ = {:.6} s",
                out.rtt * 1e6,
                out.point_error * 1e6,
                out.theta_hat
            ),
            ExchangeOutcome::Accepted(_) => {}
            other => println!("poll {i:2}: {other:?}, client now {}", client.state().name()),
        }
    }

    // 4. Read the served clock and compare with the server's clock.
    let now_tsc = read_tsc();
    let (requests, accepted, rejected, timeouts) = client.counters();
    println!(
        "\nclient {}: {requests} requests, {accepted} accepted, {rejected} rejected, \
         {timeouts} timed out or refused",
        client.state().name()
    );
    let now = now_tsc as f64 * NOMINAL_PERIOD;
    if let ReadVerdict::Fresh { time, bound } = client.read(now_tsc, now) {
        let server_now = unix_now() + 3.5;
        println!("absolute clock reads : {time:.6} (Unix s), bound {:.1} µs", bound * 1e6);
        println!("server clock reads   : {server_now:.6}");
        println!(
            "difference           : {:.1} µs  (loopback RTT is ~50-200 µs,\n\
             so tens of µs is the expected acquisition accuracy)",
            (time - server_now) * 1e6
        );
    }

    // 5. Daemon mode: publish the disciplined clock into a lock-free
    //    snapshot cell and serve it over the batched UDP front-end.
    let listen = std::env::args().nth(1);
    let forever = listen.is_some();
    let listen = listen.unwrap_or_else(|| "127.0.0.1:0".into());

    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    publisher.publish_clock(client.clock(), read_tsc());
    let daemon = spawn_udp(
        listen.as_str(),
        Arc::clone(&cell),
        ServeConfig::default(),
        read_tsc,
    )?;
    println!("\nserve daemon listening on {} (lock-free snapshot, batched UDP)", daemon.addr());

    if forever {
        println!("republishing every 200 ms; Ctrl-C to stop");
        loop {
            std::thread::sleep(Duration::from_millis(200));
            publisher.publish_clock(client.clock(), read_tsc());
        }
    }

    // Demo: a second client polls our own daemon a few times while the
    // discipline loop republishes between polls.
    let mut probe = LifecycleClient::new(policy, clock_cfg, 2, now);
    for _ in 0..3 {
        publisher.publish_clock(client.clock(), read_tsc());
        match exchange(&mut probe, &socket, daemon.addr(), policy.timeout, read_tsc)? {
            ExchangeOutcome::Accepted(Some(out)) => {
                println!("daemon answered: rtt = {:.1} µs", out.rtt * 1e6)
            }
            ExchangeOutcome::Accepted(None) => println!("daemon answered (first sample)"),
            other => println!("daemon answered: {other:?}"),
        }
    }
    let stats = daemon.stats();
    println!(
        "daemon stats: {} responses, {} refusals, {} batches",
        stats.responses, stats.refusals, stats.batches
    );
    daemon.shutdown();
    server.shutdown();
    Ok(())
}
