//! NTP wire protocol: timestamp formats, the 48-byte packet codec, and a
//! blocking SNTP client.
//!
//! §2.3 of the paper describes the data source: "NTP packets ... are User
//! Datagram Packets (UDP) with a 48 byte payload including four 8-byte Unix
//! timestamp fields". Each host↔server exchange yields the four timestamps
//! `{Ta, Tb, Te, Tf}` of Figure 1 — the only remote input the synchronization
//! algorithms consume. This crate implements that packet format faithfully
//! (NTP v3/v4 header layout), plus a small client so the clock can be driven
//! over real sockets (see the `live_ntp` example) as well as from the
//! discrete-event simulator. The server side of the exchange is `tsc-serve`.
//!
//! Design per the project guides: the codec is a plain, allocation-free,
//! state-less transformation over byte slices; the client is a simple
//! blocking state machine with explicit timeouts — no async runtime is
//! required for a 1-packet-per-16-seconds protocol.

pub mod client;
pub mod packet;
pub mod timestamp;

pub use client::{FourTimestamps, SntpClient};
pub use packet::{LeapIndicator, Mode, NtpPacket, PacketError};
pub use timestamp::{NtpShort, NtpTimestamp, NTP_UNIX_OFFSET};
