//! A blocking SNTP client over UDP.
//!
//! Performs the host side of the Figure-1 exchange: send a mode-3 request
//! carrying `Ta`, receive the mode-4 response carrying `{Ta, Tb, Te}`, and
//! timestamp the arrival as `Tf`. The raw timestamps — *not* any derived
//! offset — are handed to the caller, because the paper's whole point is
//! that filtering and estimation happen elsewhere, against raw data.

use crate::packet::{NtpPacket, PacketError, PACKET_LEN};
use crate::timestamp::NtpTimestamp;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// The four timestamps of one completed exchange (Figure 1), plus the raw
/// host counter readings when the caller supplied a raw timestamper.
///
/// `ta`/`tf` are in the *host clock's* units (seconds of whatever clock the
/// caller reads — for the TSC-NTP clock these are raw counter readings
/// converted by the caller); `tb`/`te` are the server's NTP timestamps in
/// Unix seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourTimestamps {
    /// Host send timestamp `Ta` (host clock units).
    pub ta: f64,
    /// Server receive timestamp `Tb` (Unix seconds).
    pub tb: f64,
    /// Server transmit timestamp `Te` (Unix seconds).
    pub te: f64,
    /// Host receive timestamp `Tf` (host clock units).
    pub tf: f64,
}

/// Errors from an SNTP query.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (including receive timeout).
    Io(io::Error),
    /// Protocol-level failure.
    Packet(PacketError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Packet(e) => write!(f, "packet: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<PacketError> for ClientError {
    fn from(e: PacketError) -> Self {
        ClientError::Packet(e)
    }
}

/// The poll exponent every request advertises (log₂ seconds): 16 s.
const POLL_EXPONENT: i8 = 4;

/// Blocking SNTP client bound to one server address.
pub struct SntpClient {
    socket: UdpSocket,
    server: SocketAddr,
    timeout: Duration,
}

impl SntpClient {
    /// Creates a client talking to `server` (e.g. `"127.0.0.1:12300"`),
    /// with a 2-second receive timeout by default.
    pub fn connect<A: ToSocketAddrs>(server: A) -> io::Result<Self> {
        let server = server
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let bind_addr: SocketAddr = if server.is_ipv4() {
            "0.0.0.0:0".parse().expect("static addr parses")
        } else {
            "[::]:0".parse().expect("static addr parses")
        };
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_read_timeout(Some(Duration::from_secs(2)))?;
        Ok(Self {
            socket,
            server,
            timeout: Duration::from_secs(2),
        })
    }

    /// Sets the receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.timeout = timeout;
        self.socket.set_read_timeout(Some(timeout))
    }

    /// The server this client queries.
    pub fn server(&self) -> SocketAddr {
        self.server
    }

    /// Performs one exchange. `now` is the host's raw clock — it is read
    /// immediately before send (`Ta`) and immediately after receive (`Tf`),
    /// mirroring the paper's driver-adjacent timestamping discipline (the
    /// closer to the wire, the smaller the "system noise" of §2.2.1).
    ///
    /// Responses that fail the origin/mode/KoD validation are *discarded
    /// silently* and the receive loop continues until the timeout, so stray
    /// datagrams cannot poison an exchange.
    pub fn query<F: FnMut() -> f64>(&mut self, mut now: F) -> Result<FourTimestamps, ClientError> {
        // A nonce in the transmit field: NTP only requires that the server
        // echo it. We use the host's own reading (standard practice).
        let ta = now();
        let nonce = NtpTimestamp::from_unix_seconds(ta.max(1.0));
        let request = NtpPacket::client_request(nonce, POLL_EXPONENT);
        self.socket.send_to(&request.encode(), self.server)?;

        let deadline = std::time::Instant::now() + self.timeout;
        let mut buf = [0u8; 512];
        loop {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "ntp receive timeout"))?;
            self.socket
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            let (len, from) = self.socket.recv_from(&mut buf)?;
            let tf = now();
            if from != self.server || len < PACKET_LEN {
                continue; // unrelated datagram
            }
            let packet = match NtpPacket::decode(&buf[..len]) {
                Ok(p) => p,
                Err(_) => continue,
            };
            match packet.validate_response(&request) {
                Ok(()) => {
                    return Ok(FourTimestamps {
                        ta,
                        tb: packet.receive_ts.to_unix_seconds(),
                        te: packet.transmit_ts.to_unix_seconds(),
                        tf,
                    })
                }
                // KoD must abort, not retry: the server asked us to stop.
                Err(e @ PacketError::KissOfDeath(_)) => return Err(e.into()),
                Err(_) => continue,
            }
        }
    }
}

impl FourTimestamps {
    /// Round-trip time as seen by the host clock: `r = Tf − Ta − (Te − Tb)`
    /// removes the server residence time `d↑` when desired; the paper's
    /// filtering uses the *full* RTT `Tf − Ta` (§5.1 argues the server's
    /// timestamps only add noise), so both are provided.
    pub fn rtt_full(&self) -> f64 {
        self.tf - self.ta
    }

    /// RTT minus server residence time (the classical NTP delay).
    pub fn rtt_less_server(&self) -> f64 {
        (self.tf - self.ta) - (self.te - self.tb)
    }

    /// The classical NTP midpoint offset estimate (equation (19) of the
    /// paper): `θ̂ = ½(Ta + Tf) − ½(Tb + Te)`. Only meaningful when `ta`/`tf`
    /// are in seconds of a comparable clock.
    pub fn naive_offset(&self) -> f64 {
        0.5 * (self.ta + self.tf) - 0.5 * (self.tb + self.te)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_timestamps_arithmetic() {
        let ft = FourTimestamps {
            ta: 10.0,
            tb: 10.4,
            te: 10.45,
            tf: 11.0,
        };
        assert!((ft.rtt_full() - 1.0).abs() < 1e-12);
        assert!((ft.rtt_less_server() - 0.95).abs() < 1e-12);
        // midpoints: host 10.5, server 10.425 → offset +0.075
        assert!((ft.naive_offset() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn connect_rejects_unresolvable() {
        assert!(SntpClient::connect("no-such-host.invalid:123").is_err());
    }

    #[test]
    fn timeout_error_when_no_server() {
        // Bind a socket, learn a port with nobody listening, expect timeout.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let mut c = SntpClient::connect(addr).unwrap();
        c.set_timeout(Duration::from_millis(50)).unwrap();
        let t0 = std::time::Instant::now();
        let r = c.query(|| 100.0);
        assert!(r.is_err());
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
