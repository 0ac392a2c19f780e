//! Property tests for the NTP packet codec: encode∘decode = id over
//! random valid headers, and a malformed-input sweep (truncations, random
//! bytes, every flag-byte combination) asserting the decoder returns
//! *typed* errors and never panics.

use proptest::prelude::*;
use tsc_ntp::packet::{LeapIndicator, Mode, NtpPacket, PacketError, PACKET_LEN};
use tsc_ntp::timestamp::{NtpShort, NtpTimestamp};

fn leap_from(bits: u8) -> LeapIndicator {
    match bits & 0x3 {
        0 => LeapIndicator::NoWarning,
        1 => LeapIndicator::LastMinute61,
        2 => LeapIndicator::LastMinute59,
        _ => LeapIndicator::Unsynchronized,
    }
}

fn mode_from(bits: u8) -> Mode {
    match bits & 0x7 {
        0 => Mode::Reserved,
        1 => Mode::SymmetricActive,
        2 => Mode::SymmetricPassive,
        3 => Mode::Client,
        4 => Mode::Server,
        5 => Mode::Broadcast,
        6 => Mode::Control,
        _ => Mode::Private,
    }
}

proptest! {
    /// Every representable valid header survives encode → decode intact,
    /// and `encode_into` writes the identical wire image.
    #[test]
    fn roundtrip_is_identity(
        leap_bits in 0u8..4,
        version in 1u8..5,
        mode_bits in 0u8..8,
        stratum in 0u8..=255,
        poll in -128i8..=127,
        precision in -128i8..=127,
        root_delay in any::<u32>(),
        root_dispersion in any::<u32>(),
        refid in any::<[u8; 4]>(),
        ts in any::<[u64; 4]>(),
    ) {
        let p = NtpPacket {
            leap: leap_from(leap_bits),
            version,
            mode: mode_from(mode_bits),
            stratum,
            poll,
            precision,
            root_delay: NtpShort(root_delay),
            root_dispersion: NtpShort(root_dispersion),
            reference_id: refid,
            reference_ts: NtpTimestamp::from_bits(ts[0]),
            origin_ts: NtpTimestamp::from_bits(ts[1]),
            receive_ts: NtpTimestamp::from_bits(ts[2]),
            transmit_ts: NtpTimestamp::from_bits(ts[3]),
        };
        let wire = p.encode();
        prop_assert_eq!(NtpPacket::decode(&wire).unwrap(), p);
        let mut buf = [0xAAu8; PACKET_LEN + 8];
        p.encode_into(&mut buf);
        prop_assert_eq!(&buf[..PACKET_LEN], &wire[..]);
        prop_assert_eq!(&buf[PACKET_LEN..], &[0xAAu8; 8][..]);
    }

    /// Truncations of a valid packet decode to `TooShort`, never panic.
    #[test]
    fn truncations_are_typed_errors(
        cut in 0usize..PACKET_LEN,
        ts in any::<u64>(),
    ) {
        let wire = NtpPacket::client_request(NtpTimestamp::from_bits(ts), 6).encode();
        prop_assert_eq!(
            NtpPacket::decode(&wire[..cut]),
            Err(PacketError::TooShort(cut))
        );
    }

    /// Arbitrary byte soup either decodes or fails with a typed error —
    /// decode() is total over `&[u8]`, and every success re-encodes to the
    /// same 48-byte prefix (decode is a retraction of encode).
    #[test]
    fn random_bytes_never_panic(
        len in 0usize..80,
        bytes in any::<[u8; 80]>(),
    ) {
        match NtpPacket::decode(&bytes[..len]) {
            Ok(p) => {
                prop_assert!(len >= PACKET_LEN);
                prop_assert_eq!(&p.encode()[..], &bytes[..PACKET_LEN]);
            }
            Err(PacketError::TooShort(n)) => prop_assert_eq!(n, len),
            Err(PacketError::BadVersion(v)) => {
                prop_assert_eq!(v, (bytes[0] >> 3) & 0x7);
                prop_assert!(v == 0 || v > 4);
            }
            Err(other) => prop_assert!(false, "unexpected decode error {other:?}"),
        }
    }

    /// `validate_response` over random response/request pairs is total and
    /// only ever returns the documented error taxonomy.
    #[test]
    fn validate_response_is_total(
        mode_bits in 0u8..8,
        server in any::<bool>(),
        stratum in 0u8..=255,
        refusal in any::<bool>(),
        origin in any::<u64>(),
        echo in any::<bool>(),
        request_tx in any::<u64>(),
        refid in any::<[u8; 4]>(),
    ) {
        let req = NtpPacket::client_request(NtpTimestamp::from_bits(request_tx), 4);
        // Half the responses are mode 4, half stratum 0 and half echo the
        // request, so every arm is reached, a foreign-origin refusal too.
        let mode = if server { Mode::Server } else { mode_from(mode_bits) };
        let stratum = if refusal { 0 } else { stratum };
        let origin = if echo { request_tx } else { origin };
        let resp = NtpPacket {
            mode,
            stratum,
            reference_id: refid,
            origin_ts: NtpTimestamp::from_bits(origin),
            ..NtpPacket::default()
        };
        match resp.validate_response(&req) {
            Ok(()) => {
                prop_assert_eq!(resp.mode, Mode::Server);
                prop_assert!(stratum != 0);
                prop_assert_eq!(resp.origin_ts, req.transmit_ts);
                prop_assert!(!resp.origin_ts.is_zero());
            }
            Err(PacketError::UnexpectedMode(m)) => prop_assert!(m != Mode::Server),
            Err(PacketError::KissOfDeath(code)) => {
                prop_assert_eq!(stratum, 0);
                prop_assert_eq!(code, refid);
                // only a sender that saw the request may refuse it
                prop_assert_eq!(resp.origin_ts, req.transmit_ts);
                prop_assert!(!resp.origin_ts.is_zero());
            }
            Err(PacketError::OriginMismatch) => prop_assert!(
                resp.origin_ts != req.transmit_ts || resp.origin_ts.is_zero()
            ),
            Err(other) => prop_assert!(false, "unexpected validate error {other:?}"),
        }
    }
}

/// Exhaustive flag-byte sweep: all 256 LI/VN/mode combinations over a
/// fixed valid tail. Versions 1–4 decode and roundtrip; 0 and 5–7 are
/// `BadVersion`. (Small enough to enumerate, so no sampling.)
#[test]
fn every_flag_byte_decodes_or_rejects() {
    let mut wire = NtpPacket::client_request(NtpTimestamp::from_unix_seconds(1.5e9), 6).encode();
    for flags in 0u16..=255 {
        wire[0] = flags as u8;
        let version = (wire[0] >> 3) & 0x7;
        match NtpPacket::decode(&wire) {
            Ok(p) => {
                assert!((1..=4).contains(&version), "flags {flags:#04x}");
                assert_eq!(p.encode()[0], wire[0], "flags {flags:#04x}");
            }
            Err(PacketError::BadVersion(v)) => {
                assert_eq!(v, version, "flags {flags:#04x}");
                assert!(!(1..=4).contains(&v), "flags {flags:#04x}");
            }
            Err(other) => panic!("flags {flags:#04x}: unexpected error {other:?}"),
        }
    }
}
