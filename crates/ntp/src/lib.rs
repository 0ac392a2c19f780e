//! NTP wire protocol: timestamp formats and the 48-byte packet codec.
//!
//! §2.3 of the paper describes the data source: "NTP packets ... are User
//! Datagram Packets (UDP) with a 48 byte payload including four 8-byte Unix
//! timestamp fields". Each host↔server exchange yields the four timestamps
//! `{Ta, Tb, Te, Tf}` of Figure 1 — the only remote input the synchronization
//! algorithms consume. This crate implements that packet format faithfully
//! (NTP v3/v4 header layout) and nothing else: the server side of the
//! exchange is `tsc-serve`, and the client side — the wire step, delay gate,
//! backoff and cooldown — is `tsc-fleet`'s `LifecycleClient::on_datagram`.
//!
//! Design per the project guides: the codec is a plain, allocation-free,
//! state-less transformation over byte slices, so a socket and an
//! in-process transport feed it the same way.

pub mod packet;
pub mod timestamp;

pub use packet::{LeapIndicator, Mode, NtpPacket, PacketError};
pub use timestamp::{NtpShort, NtpTimestamp, NTP_UNIX_OFFSET};
