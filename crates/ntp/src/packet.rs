//! The 48-byte NTP packet header (RFC 1305 / RFC 5905 layout).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |LI | VN  |Mode |    Stratum    |     Poll      |   Precision   |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                          Root Delay                           |
//! +---------------------------------------------------------------+
//! |                       Root Dispersion                         |
//! +---------------------------------------------------------------+
//! |                        Reference ID                           |
//! +---------------------------------------------------------------+
//! |                   Reference Timestamp (64)                    |
//! +---------------------------------------------------------------+
//! |                   Origin Timestamp (64)    ← Ta               |
//! +---------------------------------------------------------------+
//! |                   Receive Timestamp (64)   ← Tb               |
//! +---------------------------------------------------------------+
//! |                   Transmit Timestamp (64)  ← Te               |
//! +---------------------------------------------------------------+
//! ```
//!
//! The fourth timestamp of the exchange, `Tf`, is taken by the host on
//! arrival and never travels on the wire.
//!
//! The layout is fixed, so the codec is no stream: [`NtpPacket::decode`]
//! and [`NtpPacket::encode_into`] take the header as one `[u8; 48]` and
//! read / write each big-endian field at its byte offset —
//!
//! | offset | bytes | field                      |
//! |-------:|------:|----------------------------|
//! |      0 |     1 | LI (2) · VN (3) · Mode (3) |
//! |      1 |     1 | stratum                    |
//! |      2 |     1 | poll (`i8`)                |
//! |      3 |     1 | precision (`i8`)           |
//! |      4 |     4 | root delay (16.16)         |
//! |      8 |     4 | root dispersion (16.16)    |
//! |     12 |     4 | reference id               |
//! |     16 |     8 | reference timestamp        |
//! |     24 |     8 | origin timestamp           |
//! |     32 |     8 | receive timestamp          |
//! |     40 |     8 | transmit timestamp         |
//!
//! — one length check, then constant-index loads and stores. Both are
//! `#[inline]`: a caller in another crate that reads three fields of a
//! decoded packet pays for three loads.

use crate::timestamp::{NtpShort, NtpTimestamp};

/// Wire size of the NTP header (the paper's "48 byte payload").
pub const PACKET_LEN: usize = 48;

/// The `N` header bytes at byte offset `at` (a constant at every call
/// site, so the range check folds away).
#[inline(always)]
fn field<const N: usize>(d: &[u8; PACKET_LEN], at: usize) -> [u8; N] {
    let mut bytes = [0; N];
    bytes.copy_from_slice(&d[at..at + N]);
    bytes
}

/// Leap indicator field (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeapIndicator {
    /// No warning.
    NoWarning,
    /// Last minute of the day has 61 seconds.
    LastMinute61,
    /// Last minute of the day has 59 seconds.
    LastMinute59,
    /// Clock unsynchronized (also the Kiss-o'-Death marker state).
    Unsynchronized,
}

impl LeapIndicator {
    #[inline]
    fn from_bits(b: u8) -> Self {
        match b & 0x3 {
            0 => Self::NoWarning,
            1 => Self::LastMinute61,
            2 => Self::LastMinute59,
            _ => Self::Unsynchronized,
        }
    }
    #[inline]
    fn to_bits(self) -> u8 {
        match self {
            Self::NoWarning => 0,
            Self::LastMinute61 => 1,
            Self::LastMinute59 => 2,
            Self::Unsynchronized => 3,
        }
    }
}

/// Association mode field (3 bits). Only client/server matter here; the
/// others are parsed for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Reserved (0).
    Reserved,
    /// Symmetric active (1).
    SymmetricActive,
    /// Symmetric passive (2).
    SymmetricPassive,
    /// Client request (3) — what the host sends.
    Client,
    /// Server response (4) — what the stratum-1 server returns.
    Server,
    /// Broadcast (5).
    Broadcast,
    /// NTP control message (6).
    Control,
    /// Private use (7).
    Private,
}

impl Mode {
    #[inline]
    fn from_bits(b: u8) -> Self {
        match b & 0x7 {
            0 => Self::Reserved,
            1 => Self::SymmetricActive,
            2 => Self::SymmetricPassive,
            3 => Self::Client,
            4 => Self::Server,
            5 => Self::Broadcast,
            6 => Self::Control,
            _ => Self::Private,
        }
    }
    #[inline]
    fn to_bits(self) -> u8 {
        match self {
            Self::Reserved => 0,
            Self::SymmetricActive => 1,
            Self::SymmetricPassive => 2,
            Self::Client => 3,
            Self::Server => 4,
            Self::Broadcast => 5,
            Self::Control => 6,
            Self::Private => 7,
        }
    }
}

/// Errors from packet decoding / validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Datagram shorter than 48 bytes.
    TooShort(usize),
    /// Version outside the 1–4 range we accept.
    BadVersion(u8),
    /// Response's origin timestamp does not echo our request (possible
    /// spoof/cross-talk; the standard NTP loopback test).
    OriginMismatch,
    /// Response was not a server-mode packet.
    UnexpectedMode(Mode),
    /// Server signalled Kiss-o'-Death (stratum 0).
    KissOfDeath([u8; 4]),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::TooShort(n) => write!(f, "datagram too short: {n} < {PACKET_LEN} bytes"),
            PacketError::BadVersion(v) => write!(f, "unsupported NTP version {v}"),
            PacketError::OriginMismatch => write!(f, "origin timestamp does not match request"),
            PacketError::UnexpectedMode(m) => write!(f, "unexpected packet mode {m:?}"),
            PacketError::KissOfDeath(code) => {
                write!(f, "kiss-o'-death: {}", String::from_utf8_lossy(code))
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// A decoded NTP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpPacket {
    /// Leap indicator.
    pub leap: LeapIndicator,
    /// Protocol version (1–4).
    pub version: u8,
    /// Association mode.
    pub mode: Mode,
    /// Stratum (1 = primary reference; 0 in requests / KoD).
    pub stratum: u8,
    /// log₂ of the poll interval in seconds.
    pub poll: i8,
    /// log₂ of the clock precision in seconds.
    pub precision: i8,
    /// Total round-trip delay to the reference clock.
    pub root_delay: NtpShort,
    /// Total dispersion to the reference clock.
    pub root_dispersion: NtpShort,
    /// Reference identifier (e.g. b"GPS\0" for a GPS-disciplined stratum-1).
    pub reference_id: [u8; 4],
    /// Time the system clock was last set or corrected.
    pub reference_ts: NtpTimestamp,
    /// Origin timestamp — the client's transmit time `Ta`, echoed by the server.
    pub origin_ts: NtpTimestamp,
    /// Receive timestamp — server arrival time `Tb`.
    pub receive_ts: NtpTimestamp,
    /// Transmit timestamp — client send time `Ta` (requests) or server
    /// departure time `Te` (responses).
    pub transmit_ts: NtpTimestamp,
}

impl Default for NtpPacket {
    fn default() -> Self {
        Self {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Client,
            stratum: 0,
            poll: 4,
            precision: -20,
            root_delay: NtpShort(0),
            root_dispersion: NtpShort(0),
            reference_id: [0; 4],
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts: NtpTimestamp::ZERO,
        }
    }
}

impl NtpPacket {
    /// Builds a client (mode 3) request carrying `transmit` as the transmit
    /// timestamp — the value the server will echo back as `origin_ts`.
    pub fn client_request(transmit: NtpTimestamp, poll: i8) -> Self {
        Self {
            mode: Mode::Client,
            poll,
            transmit_ts: transmit,
            ..Self::default()
        }
    }

    /// Builds a server (mode 4) response to `request`: echoes the request's
    /// transmit timestamp into `origin_ts` and stamps `receive`/`transmit`
    /// with the server clock readings `Tb`/`Te`.
    pub fn server_response(
        request: &NtpPacket,
        receive: NtpTimestamp,
        transmit: NtpTimestamp,
        reference_id: [u8; 4],
    ) -> Self {
        Self {
            leap: LeapIndicator::NoWarning,
            version: request.version,
            mode: Mode::Server,
            stratum: 1,
            poll: request.poll,
            precision: -20,
            root_delay: NtpShort::from_seconds(0.0),
            root_dispersion: NtpShort::from_seconds(10e-6),
            reference_id,
            reference_ts: receive,
            origin_ts: request.transmit_ts,
            receive_ts: receive,
            transmit_ts: transmit,
        }
    }

    /// Builds a stratum-0 **refusal** (Kiss-o'-Death-style) response: the
    /// serving plane sends this instead of a timestamp when its published
    /// snapshot is missing, marked unsynchronized, or older than the
    /// staleness horizon — a refusal is honest, a stale timestamp is not.
    /// The leap indicator is [`LeapIndicator::Unsynchronized`] and
    /// `reference_id` carries the refusal code (e.g. `b"STAL"`); clients
    /// surface it as [`PacketError::KissOfDeath`].
    pub fn refusal_response(request: &NtpPacket, code: [u8; 4]) -> Self {
        Self {
            leap: LeapIndicator::Unsynchronized,
            version: request.version,
            mode: Mode::Server,
            stratum: 0,
            poll: request.poll,
            precision: -20,
            root_delay: NtpShort(0),
            root_dispersion: NtpShort(0),
            reference_id: code,
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: request.transmit_ts,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts: NtpTimestamp::ZERO,
        }
    }

    /// Encodes into the first [`PACKET_LEN`] bytes of `buf` without
    /// allocating or copying through a temporary — the batched serving
    /// plane encodes straight into its contiguous transmit buffer.
    ///
    /// # Panics
    /// Panics when `buf` is shorter than [`PACKET_LEN`].
    #[inline]
    pub fn encode_into(&self, buf: &mut [u8]) {
        let b: &mut [u8; PACKET_LEN] = buf
            .first_chunk_mut()
            .expect("encode_into needs a PACKET_LEN-byte buffer");
        b[0] = (self.leap.to_bits() << 6) | ((self.version & 0x7) << 3) | self.mode.to_bits();
        b[1] = self.stratum;
        b[2] = self.poll as u8;
        b[3] = self.precision as u8;
        b[4..8].copy_from_slice(&self.root_delay.0.to_be_bytes());
        b[8..12].copy_from_slice(&self.root_dispersion.0.to_be_bytes());
        b[12..16].copy_from_slice(&self.reference_id);
        b[16..24].copy_from_slice(&self.reference_ts.to_bits().to_be_bytes());
        b[24..32].copy_from_slice(&self.origin_ts.to_bits().to_be_bytes());
        b[32..40].copy_from_slice(&self.receive_ts.to_bits().to_be_bytes());
        b[40..48].copy_from_slice(&self.transmit_ts.to_bits().to_be_bytes());
    }

    /// Encodes into exactly [`PACKET_LEN`] bytes.
    pub fn encode(&self) -> [u8; PACKET_LEN] {
        let mut buf = [0u8; PACKET_LEN];
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes a datagram. Extension fields / MACs beyond the 48-byte header
    /// are ignored, as the algorithms only need the header timestamps.
    #[inline]
    pub fn decode(data: &[u8]) -> Result<Self, PacketError> {
        let Some(d) = data.first_chunk::<PACKET_LEN>() else {
            return Err(PacketError::TooShort(data.len()));
        };
        let flags = d[0];
        let version = (flags >> 3) & 0x7;
        if !(1..=4).contains(&version) {
            return Err(PacketError::BadVersion(version));
        }
        let ts_at = |at| NtpTimestamp::from_bits(u64::from_be_bytes(field(d, at)));
        Ok(Self {
            leap: LeapIndicator::from_bits(flags >> 6),
            version,
            mode: Mode::from_bits(flags),
            stratum: d[1],
            poll: d[2] as i8,
            precision: d[3] as i8,
            root_delay: NtpShort(u32::from_be_bytes(field(d, 4))),
            root_dispersion: NtpShort(u32::from_be_bytes(field(d, 8))),
            reference_id: field(d, 12),
            reference_ts: ts_at(16),
            origin_ts: ts_at(24),
            receive_ts: ts_at(32),
            transmit_ts: ts_at(40),
        })
    }

    /// Validates a server response against the request we sent: mode must be
    /// server, origin must echo our transmit (the anti-spoofing loopback
    /// test), and stratum 0 means Kiss-o'-Death.
    ///
    /// The origin is checked before the stratum: a Kiss-o'-Death is only
    /// believed from a sender that saw the request, so an off-path spoofer
    /// who cannot read the nonce cannot make a client back off (the
    /// spoofed-KoD attack, CVE-2015-7704).
    pub fn validate_response(&self, request: &NtpPacket) -> Result<(), PacketError> {
        if self.mode != Mode::Server {
            return Err(PacketError::UnexpectedMode(self.mode));
        }
        if self.origin_ts != request.transmit_ts || self.origin_ts.is_zero() {
            return Err(PacketError::OriginMismatch);
        }
        if self.stratum == 0 {
            return Err(PacketError::KissOfDeath(self.reference_id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> NtpPacket {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: 1,
            poll: 4,
            precision: -20,
            root_delay: NtpShort::from_seconds(0.001),
            root_dispersion: NtpShort::from_seconds(0.002),
            reference_id: *b"GPS\0",
            reference_ts: NtpTimestamp::from_unix_seconds(1.7e9),
            origin_ts: NtpTimestamp::from_unix_seconds(1.7e9 + 1.0),
            receive_ts: NtpTimestamp::from_unix_seconds(1.7e9 + 1.0005),
            transmit_ts: NtpTimestamp::from_unix_seconds(1.7e9 + 1.00051),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample_packet();
        let bytes = p.encode();
        assert_eq!(bytes.len(), PACKET_LEN);
        let q = NtpPacket::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn first_byte_layout() {
        let p = NtpPacket {
            leap: LeapIndicator::Unsynchronized,
            version: 3,
            mode: Mode::Client,
            ..NtpPacket::default()
        };
        let bytes = p.encode();
        // LI=3 (11), VN=3 (011), Mode=3 (011) → 0b11_011_011
        assert_eq!(bytes[0], 0b1101_1011);
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(
            NtpPacket::decode(&[0u8; 47]),
            Err(PacketError::TooShort(47))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_packet().encode();
        bytes[0] = (bytes[0] & !0b0011_1000) | (7 << 3);
        assert_eq!(NtpPacket::decode(&bytes), Err(PacketError::BadVersion(7)));
        let mut bytes0 = sample_packet().encode();
        bytes0[0] &= !0b0011_1000;
        assert_eq!(NtpPacket::decode(&bytes0), Err(PacketError::BadVersion(0)));
    }

    #[test]
    fn extension_bytes_ignored() {
        let p = sample_packet();
        let mut data = p.encode().to_vec();
        data.extend_from_slice(&[0xAA; 20]); // fake extension field
        assert_eq!(NtpPacket::decode(&data).unwrap(), p);
    }

    #[test]
    fn server_response_echoes_origin() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(100.0), 4);
        let resp = NtpPacket::server_response(
            &req,
            NtpTimestamp::from_unix_seconds(100.2),
            NtpTimestamp::from_unix_seconds(100.21),
            *b"GPS\0",
        );
        assert_eq!(resp.origin_ts, req.transmit_ts);
        assert_eq!(resp.mode, Mode::Server);
        assert_eq!(resp.stratum, 1);
        assert!(resp.validate_response(&req).is_ok());
    }

    #[test]
    fn validate_rejects_origin_mismatch() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(100.0), 4);
        let other = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(200.0), 4);
        let resp = NtpPacket::server_response(
            &other,
            NtpTimestamp::from_unix_seconds(200.2),
            NtpTimestamp::from_unix_seconds(200.21),
            *b"GPS\0",
        );
        assert_eq!(
            resp.validate_response(&req),
            Err(PacketError::OriginMismatch)
        );
    }

    #[test]
    fn validate_rejects_zero_origin() {
        let req = NtpPacket::client_request(NtpTimestamp::ZERO, 4);
        let resp = NtpPacket::server_response(
            &req,
            NtpTimestamp::from_unix_seconds(1.0),
            NtpTimestamp::from_unix_seconds(1.1),
            *b"GPS\0",
        );
        assert_eq!(
            resp.validate_response(&req),
            Err(PacketError::OriginMismatch)
        );
    }

    #[test]
    fn validate_rejects_wrong_mode() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(5.0), 4);
        let mut resp = NtpPacket::server_response(
            &req,
            NtpTimestamp::from_unix_seconds(5.1),
            NtpTimestamp::from_unix_seconds(5.2),
            *b"GPS\0",
        );
        resp.mode = Mode::Broadcast;
        assert!(matches!(
            resp.validate_response(&req),
            Err(PacketError::UnexpectedMode(Mode::Broadcast))
        ));
    }

    #[test]
    fn validate_detects_kiss_of_death() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(5.0), 4);
        let mut resp = NtpPacket::server_response(
            &req,
            NtpTimestamp::from_unix_seconds(5.1),
            NtpTimestamp::from_unix_seconds(5.2),
            *b"RATE",
        );
        resp.stratum = 0;
        assert!(matches!(
            resp.validate_response(&req),
            Err(PacketError::KissOfDeath(code)) if &code == b"RATE"
        ));
    }

    #[test]
    fn a_kiss_of_death_with_the_wrong_origin_is_an_origin_mismatch() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(5.0), 4);
        let other = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(6.0), 4);
        let spoofed = NtpPacket::refusal_response(&other, *b"RATE");
        assert_eq!(spoofed.stratum, 0);
        assert_eq!(
            spoofed.validate_response(&req),
            Err(PacketError::OriginMismatch)
        );
    }

    #[test]
    fn encode_into_matches_encode() {
        let p = sample_packet();
        let mut buf = [0u8; PACKET_LEN + 16];
        p.encode_into(&mut buf);
        assert_eq!(&buf[..PACKET_LEN], &p.encode()[..]);
        assert_eq!(&buf[PACKET_LEN..], &[0u8; 16][..], "tail untouched");
    }

    #[test]
    fn refusal_response_reads_as_kiss_of_death() {
        let req = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(9.0), 6);
        let r = NtpPacket::refusal_response(&req, *b"STAL");
        assert_eq!(r.stratum, 0);
        assert_eq!(r.leap, LeapIndicator::Unsynchronized);
        assert_eq!(r.origin_ts, req.transmit_ts);
        let wire = NtpPacket::decode(&r.encode()).unwrap();
        assert!(matches!(
            wire.validate_response(&req),
            Err(PacketError::KissOfDeath(code)) if &code == b"STAL"
        ));
    }

    /// Parses a hex dump (whitespace ignored) into bytes.
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    const TA: NtpTimestamp = NtpTimestamp {
        seconds: 0xE9A1_2345,
        fraction: 0x89AB_CDEF,
    };

    /// Literal wire images, asserted both ways: a round trip cannot see a
    /// byte-order slip that encode and decode share. Each is also decoded
    /// one byte short and with an extension field appended.
    #[test]
    fn known_answer_wire_vectors() {
        let request = NtpPacket::client_request(TA, 6);
        let response = NtpPacket {
            leap: LeapIndicator::LastMinute61,
            version: 3,
            mode: Mode::Server,
            stratum: 2,
            poll: -3,
            precision: -23,
            root_delay: NtpShort(0x0001_8000),
            root_dispersion: NtpShort(0x0000_02A0),
            reference_id: *b"GPS\0",
            reference_ts: NtpTimestamp::from_bits(0xE9A1_0000_1111_2222),
            origin_ts: TA,
            receive_ts: NtpTimestamp::from_bits(0xE9A1_2346_0000_0001),
            transmit_ts: NtpTimestamp::from_bits(0xE9A1_2346_0002_9F17),
        };
        let refusal = NtpPacket::refusal_response(&request, *b"STAL");
        let vectors = [
            (
                request,
                "23 00 06 EC  00000000 00000000 00000000
                 0000000000000000 0000000000000000 0000000000000000 E9A1234589ABCDEF",
            ),
            (
                response,
                "5C 02 FD E9  00018000 000002A0 47505300
                 E9A1000011112222 E9A1234589ABCDEF E9A1234600000001 E9A1234600029F17",
            ),
            (
                refusal,
                "E4 00 06 EC  00000000 00000000 5354414C
                 0000000000000000 E9A1234589ABCDEF 0000000000000000 0000000000000000",
            ),
        ];
        for (packet, image) in vectors {
            let mut bytes = hex(image);
            assert_eq!(packet.encode()[..], bytes[..], "encode {packet:?}");
            assert_eq!(NtpPacket::decode(&bytes), Ok(packet), "decode {image}");
            assert_eq!(
                NtpPacket::decode(&bytes[..47]),
                Err(PacketError::TooShort(47))
            );
            // 68 bytes: a 20-byte extension field after the header, ignored.
            bytes.extend(hex("0104 0014 DEADBEEF DEADBEEF DEADBEEF DEADBEEF"));
            assert_eq!(NtpPacket::decode(&bytes), Ok(packet), "68-byte {image}");
        }
    }

    #[test]
    fn all_modes_roundtrip() {
        for m in [
            Mode::Reserved,
            Mode::SymmetricActive,
            Mode::SymmetricPassive,
            Mode::Client,
            Mode::Server,
            Mode::Broadcast,
            Mode::Control,
            Mode::Private,
        ] {
            assert_eq!(Mode::from_bits(m.to_bits()), m);
        }
    }

    #[test]
    fn all_leap_indicators_roundtrip() {
        for l in [
            LeapIndicator::NoWarning,
            LeapIndicator::LastMinute61,
            LeapIndicator::LastMinute59,
            LeapIndicator::Unsynchronized,
        ] {
            assert_eq!(LeapIndicator::from_bits(l.to_bits()), l);
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(PacketError::TooShort(3).to_string().contains("48"));
        assert!(PacketError::KissOfDeath(*b"DENY").to_string().contains("DENY"));
    }
}
