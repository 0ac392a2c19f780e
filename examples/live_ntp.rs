//! Live NTP over real UDP sockets: a simulated stratum-1 server on
//! localhost (a `tsc-serve` daemon answering off one published snapshot),
//! the blocking SNTP client, and the TSC-NTP clock fed from real exchanges
//! — then **daemon mode**: the acquired clock is published into a second
//! snapshot cell and served back out by a second daemon.
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
//! paper's driver-level counter read, minus the kernel); the server answers
//! from a deliberately *offset* clock so the convergence of the offset
//! estimate is visible. Polling is accelerated (200 ms instead of 16 s) so
//! the demo finishes in seconds — the algorithms only see timestamps, not
//! wall-clock patience.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tscclock_repro::clock::{ClockConfig, RawExchange, TscNtpClock};
use tscclock_repro::ntp::SntpClient;
use tscclock_repro::serve::{
    instant_counter, spawn_udp, PublishPolicy, Publisher, ServeConfig, SnapshotCell,
};

fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A stratum-1 server on an ephemeral localhost port, 3.5 s ahead:
    //    one published snapshot — the system clock shifted by a fixed
    //    offset, advancing at 1 ns per count of its own `Instant` counter —
    //    stands in for a remote server whose absolute time we must acquire.
    let upstream = Arc::new(SnapshotCell::new());
    let sim = PublishPolicy {
        reference_id: *b"SIM\0",
        ..PublishPolicy::default()
    };
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

    // 3. Client + clock. The poll period entering the config matters only
    //    for the window-to-packet-count conversions.
    let mut client = SntpClient::connect(server.addr())?;
    client.set_timeout(Duration::from_secs(1))?;
    let mut cfg = ClockConfig::paper_defaults(0.2);
    cfg.warmup_packets = 8;
    let mut clock = TscNtpClock::new(cfg);

    println!("polling every 200 ms (accelerated stand-in for the 16 s period)...\n");
    for i in 0..40 {
        // Raw counter readings bracket the exchange, like the driver-level
        // timestamping of §2.2.1.
        let mut ta_tsc = 0u64;
        let mut tf_tsc = 0u64;
        let four = client.query(|| {
            let c = read_tsc();
            if ta_tsc == 0 {
                ta_tsc = c;
            } else {
                tf_tsc = c;
            }
            c as f64 * 1e-9
        });
        match four {
            Ok(ft) => {
                let raw = RawExchange {
                    ta_tsc,
                    tb: ft.tb,
                    te: ft.te,
                    tf_tsc,
                };
                if let Some(out) = clock.process(raw) {
                    if i % 5 == 0 {
                        println!(
                            "poll {i:2}: rtt = {:7.1} µs   point error = {:7.1} µs   θ̂ = {:.6} s",
                            out.rtt * 1e6,
                            out.point_error * 1e6,
                            out.theta_hat
                        );
                    }
                }
            }
            Err(e) => println!("poll {i:2}: exchange failed: {e}"),
        }
        std::thread::sleep(Duration::from_millis(200));
    }

    // 4. Read the absolute clock and compare with the server's clock.
    let now_tsc = read_tsc();
    if let Some(ca) = clock.absolute_time(now_tsc) {
        let server_now = unix_now() + 3.5;
        println!("\nabsolute clock reads : {ca:.6} (Unix s)");
        println!("server clock reads   : {server_now:.6}");
        println!(
            "difference           : {:.1} µs  (loopback RTT is ~50-200 µs,\n\
             so tens of µs is the expected acquisition accuracy)",
            (ca - server_now) * 1e6
        );
    }

    // 5. Daemon mode: publish the disciplined clock into a lock-free
    //    snapshot cell and serve it over the batched UDP front-end.
    let listen = std::env::args().nth(1);
    let forever = listen.is_some();
    let listen = listen.unwrap_or_else(|| "127.0.0.1:0".into());

    let cell = Arc::new(SnapshotCell::new());
    let mut publisher = Publisher::new(Arc::clone(&cell), PublishPolicy::default());
    publisher.publish_clock(&clock, read_tsc());
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
            publisher.publish_clock(&clock, read_tsc());
        }
    }

    // Demo: query our own daemon a few times while republishing between
    // queries, like the discipline loop would.
    let mut probe = SntpClient::connect(daemon.addr())?;
    probe.set_timeout(Duration::from_secs(1))?;
    for _ in 0..3 {
        publisher.publish_clock(&clock, read_tsc());
        let ft = probe.query(|| read_tsc() as f64 * 1e-9)?;
        println!(
            "daemon served tb = {:.6} (Unix s), residence te−tb = {:.1} µs",
            ft.tb,
            (ft.te - ft.tb) * 1e6
        );
        std::thread::sleep(Duration::from_millis(50));
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
