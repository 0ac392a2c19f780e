//! Crash-safe snapshot codec: the versioned, checksummed envelope and the
//! little-endian binary writer/reader every snapshottable component in
//! this workspace serializes through.
//!
//! # Why a hand-rolled binary codec
//!
//! The resume contract is **bit-exactness**: a clock restored from a
//! snapshot must continue producing the *same bits* as the uninterrupted
//! run (the fleet digests are FNV folds over every output's bit pattern,
//! so even a 1-ulp wobble is a test failure). Floats are therefore stored
//! as raw `to_bits()` words — NaN sentinels (`prev_tfc`, `pe_ema`, frozen
//! `rho`, …) and signed zeros round-trip exactly, which no decimal text
//! encoding guarantees. The format is append-only per version and has no
//! self-description overhead, so per-clock checkpointing inside fleet
//! replay stays cheap (one `Vec<u8>` write, no allocation-per-field
//! value tree). It is the workspace's only persisted format.
//!
//! # Envelope (format v7)
//!
//! ```text
//!   offset  size  field
//!   0       4     magic  b"TSNP"
//!   4       2     format version (little-endian u16, currently 7)
//!   6       1     payload kind (what component the payload encodes)
//!   7       8     payload length (little-endian u64)
//!   15      n     payload (component-defined, written via SnapshotWriter)
//!   15+n    8     lane checksum over bytes [0, 15+n) (little-endian u64)
//! ```
//!
//! [`SnapshotWriter`] reserves the header when it is created and
//! [`SnapshotWriter::seal`] patches kind and length into it and appends
//! the trailer, so the payload is written once, into the `Vec` the caller
//! receives.
//!
//! # The lane checksum
//!
//! [`checksum`] is FNV-style — `h ← (h ⊕ x)·prime` with FNV-1a-64's
//! offset and prime — but takes `x` eight bytes at a time over four
//! independent lanes, because the byte-serial form spends one dependent
//! 64-bit multiply per byte and was four fifths of sealing a 1 MB clock:
//!
//! 1. four lanes start at the offset basis; each whole 32-byte block feeds
//!    its four little-endian words to lanes 0‥3, one step per lane;
//! 2. a fresh accumulator takes the four lanes in order, one step each;
//! 3. then the ≤ 31 bytes no block covered, one step per byte;
//! 4. then the input length, one step.
//!
//! Version 1 envelopes carried per-byte FNV-1a-64 instead; version 2 has
//! this checksum but thirteen words a history record where v3 and v4 have
//! six and v5 and v6 four (the stamps alone; v5 carries the baselines as a
//! run table beside them); v3 also carried the local-rate estimator's
//! rolling sub-window state and verdict memo, which v4 drops (the estimator
//! keeps only its geometry and estimate). v6 persists state only: a clock
//! payload is its configuration once, then words none of which is a
//! function of the configuration or of other words (no window lengths,
//! thresholds or memo stamps), and a quorum writes one configuration for
//! all its member clocks. v7 drops the three bound-policy words (stale
//! horizon, bound floor, widening rate) from a lifecycle client's
//! configuration: they are the constants of `crate::bound` now. The
//! version says which sum and which payload layout follow, so it is
//! checked first; this build reads and writes only v7, and a v1‥v6 blob is
//! a typed [`SnapshotError::VersionMismatch`] (a cold start).
//!
//! # What corruption is detected, and why that is deterministic
//!
//! [`open_envelope`] validates in this order: truncation (total and
//! declared payload length), magic, version, checksum, kind — so every
//! corrupted, truncated or foreign blob yields a typed [`SnapshotError`],
//! never a panic and never a silently-wrong restore.
//!
//! Every step `h ← (h ⊕ x)·prime` is a bijection of `h` for a fixed `x`
//! and of `x` for a fixed `h`: xor with a constant is one, and so is
//! multiplication by an odd number modulo 2⁶⁴. Take two bodies of equal
//! length that differ only inside one aligned 8-byte word of the blocked
//! part (offset a multiple of 8 from the envelope start). The lane that
//! word feeds reaches it in the same state and leaves it in different
//! ones (bijection in `x`); every later step of that lane sees equal
//! words, so the states stay different (bijection in `h`) and the lane
//! ends different while the other three end equal. The fold of step 2 is
//! equal up to that lane, different after it, and every remaining step —
//! later lanes, tail bytes, length — takes equal input, so the sums
//! differ. The same argument covers a change confined to one tail byte.
//! A single-bit flip is confined to one word or one tail byte (or hits
//! the trailer itself, or a header field an earlier check rejects), so
//! **every single-bit flip, and every other substitution of one aligned
//! word, is detected with certainty**; wider damage is caught the way
//! any 64-bit sum catches it, almost always rather than provably.
//! Truncation fails the length checks before the sum is looked at, and
//! the length is folded into the sum as well. Restores additionally
//! re-validate semantic invariants (config validation, every ring's length
//! against the one its configuration gives, enum tags, finite estimates),
//! returning [`SnapshotError::Invalid`] on anything that gets past the
//! structural checks, so a restore that succeeds leaves a clock that runs
//! without a panic and reads finite times.
//!
//! Failure handling is **restore-or-degrade**: callers fall back to a
//! cold start on any error (the fleet engines re-enter the lifecycle
//! machine at `Unsynced`), trading warm state for a guaranteed-correct
//! clock.

use std::fmt;

/// Envelope magic bytes.
pub const MAGIC: [u8; 4] = *b"TSNP";

/// Current snapshot format version.
pub const FORMAT_VERSION: u16 = 7;

/// Payload kinds (one per snapshottable root component).
pub mod kind {
    /// A [`crate::TscNtpClock`].
    pub const CLOCK: u8 = 1;
    /// A `tsc_quorum::QuorumClock`.
    pub const QUORUM: u8 = 2;
    /// A `tsc_fleet::LifecycleClient`.
    pub const LIFECYCLE: u8 = 3;
    /// A fleet replay checkpoint (component snapshot + replay sidecar:
    /// digest, progress counters, sim re-drive script).
    pub const CHECKPOINT: u8 = 4;
}

/// Envelope header length in bytes (magic + version + kind + payload len).
const HEADER_LEN: usize = 4 + 2 + 1 + 8;

/// Checksum trailer length in bytes.
const TRAILER_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes per checksum block: one little-endian word for each of 4 lanes.
const BLOCK_LEN: usize = 32;

/// One checksum step; see the module docs for why it is a bijection of
/// `h` and of `x`.
#[inline(always)]
fn step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The envelope checksum (formats v2 to v7): four word-wide FNV-style lanes
/// over the 32-byte blocks, folded in order, then the tail bytes, then
/// the length. The module docs give the definition and the detection
/// argument; `tests::checksum_known_answers` pins the values.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = bytes.chunks_exact(BLOCK_LEN);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            *lane = step(*lane, word);
        }
    }
    let h = lanes.into_iter().fold(FNV_OFFSET, step);
    let h = blocks.remainder().iter().fold(h, |h, &b| step(h, b as u64));
    step(h, bytes.len() as u64)
}

/// Why a snapshot failed to open or decode. Every variant is a clean,
/// typed refusal — restore paths never panic on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with the envelope magic.
    BadMagic,
    /// The blob is shorter than its header + declared payload + checksum,
    /// or a field read ran off the end of the payload.
    Truncated,
    /// The trailing checksum does not match the content.
    Checksum,
    /// The envelope was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The payload encodes a different component than the caller expected
    /// (e.g. a quorum snapshot handed to `TscNtpClock::restore`).
    KindMismatch {
        /// Kind byte found in the envelope.
        found: u8,
        /// Kind the caller required.
        expected: u8,
    },
    /// The bytes parsed but violate a semantic invariant of the restored
    /// component (bad enum tag, inconsistent ring geometry, invalid
    /// configuration, trailing garbage, …).
    Invalid(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found} (this build reads v{expected})")
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "snapshot kind {found} (expected kind {expected})")
            }
            SnapshotError::Invalid(what) => write!(f, "snapshot invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Numeric code for the flight recorder (see
    /// [`tsc_telemetry::err_code`]): the recorder carries POD words, so
    /// the typed error travels as a code and the dump names the variant.
    pub fn telemetry_code(&self) -> u64 {
        match self {
            SnapshotError::BadMagic => tsc_telemetry::err_code::BAD_MAGIC,
            SnapshotError::Truncated => tsc_telemetry::err_code::TRUNCATED,
            SnapshotError::Checksum => tsc_telemetry::err_code::CHECKSUM,
            SnapshotError::VersionMismatch { .. } => tsc_telemetry::err_code::VERSION_MISMATCH,
            SnapshotError::KindMismatch { .. } => tsc_telemetry::err_code::KIND_MISMATCH,
            SnapshotError::Invalid(_) => tsc_telemetry::err_code::INVALID,
        }
    }
}

/// Seals one component snapshot of `kind`: `save` writes the payload
/// into a writer with room for `payload_bytes`. The seal is timed into
/// the telemetry plane's `SealNs` histogram and counted. Every
/// component's `snapshot` (clock, quorum, lifecycle) goes through here.
pub fn seal_component(
    kind: u8,
    payload_bytes: usize,
    save: impl FnOnce(&mut SnapshotWriter),
) -> Vec<u8> {
    let tm = tsc_telemetry::StageTimer::start(tsc_telemetry::Hist::SealNs);
    let mut w = SnapshotWriter::with_capacity(payload_bytes);
    save(&mut w);
    let blob = w.seal(kind);
    tm.stop();
    tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotSeals, 1);
    blob
}

/// Opens an envelope of `kind` and parses its payload with `load`, which
/// must consume it whole.
pub fn open_payload<'b, T>(
    bytes: &'b [u8],
    kind: u8,
    load: impl FnOnce(&mut SnapshotReader<'b>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = SnapshotReader::new(open_envelope(bytes, kind)?);
    let parsed = load(&mut r)?;
    r.finish()?;
    Ok(parsed)
}

/// Restores one component from a snapshot of `kind` ([`open_payload`]).
/// The restore is timed into the telemetry plane's `RestoreNs` histogram;
/// a success is counted and a failure recorded
/// ([`record_restore_failure`]). Every component's `restore` (clock,
/// quorum, lifecycle) goes through here.
pub fn restore_component<'b, T>(
    bytes: &'b [u8],
    kind: u8,
    load: impl FnOnce(&mut SnapshotReader<'b>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let tm = tsc_telemetry::StageTimer::start(tsc_telemetry::Hist::RestoreNs);
    let result = open_payload(bytes, kind, load);
    tm.stop();
    match &result {
        Ok(_) => tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotRestores, 1),
        Err(e) => record_restore_failure(e, bytes.len()),
    }
    result
}

/// Records a failed restore in the telemetry plane: bumps the error
/// counter and pushes a [`tsc_telemetry::EventKind::RestoreFailed`]
/// flight-recorder event naming the typed error.
pub fn record_restore_failure(e: &SnapshotError, blob_len: usize) {
    tsc_telemetry::add(tsc_telemetry::Ctr::SnapshotRestoreErrors, 1);
    tsc_telemetry::event(
        tsc_telemetry::EventKind::RestoreFailed,
        0,
        e.telemetry_code(),
        blob_len as u64,
    );
}

/// Little-endian binary writer for snapshot payloads. The buffer starts
/// with the envelope header, so [`SnapshotWriter::seal`] finishes the
/// envelope in place.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// An empty payload writer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty payload writer with room for `payload_bytes` and the
    /// envelope around them, so a payload of known size is written and
    /// sealed without reallocating.
    pub fn with_capacity(payload_bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_bytes + TRAILER_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.resize(HEADER_LEN, 0); // kind and length: patched by `seal`
        Self { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (sizes are platform-independent on
    /// the wire).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern — NaN payloads and signed
    /// zeros survive exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a fixed-layout record its caller has already encoded, under
    /// one capacity check.
    pub(crate) fn put_array<const N: usize>(&mut self, b: &[u8; N]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed byte string (e.g. a nested envelope).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends `Some(f64)` as `1 + bits`, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Seals the payload into a versioned, checksummed envelope: patches
    /// kind and payload length into the reserved header and appends the
    /// trailer to the same buffer.
    pub fn seal(self, kind: u8) -> Vec<u8> {
        let mut out = self.buf;
        let payload_len = (out.len() - HEADER_LEN) as u64;
        out[6] = kind;
        out[7..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Validates an envelope and returns its payload slice.
///
/// Check order: truncation → magic → version → checksum → kind (the
/// version says which checksum the trailer holds). See the module docs
/// for the corruption-detection guarantees.
pub fn open_envelope(bytes: &[u8], expected_kind: u8) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let payload_len = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .ok_or(SnapshotError::Truncated)?;
    if (bytes.len() as u64) != expected_total {
        return Err(SnapshotError::Truncated);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    if checksum(body) != u64::from_le_bytes(trailer.try_into().unwrap()) {
        return Err(SnapshotError::Checksum);
    }
    if bytes[6] != expected_kind {
        return Err(SnapshotError::KindMismatch {
            found: bytes[6],
            expected: expected_kind,
        });
    }
    Ok(&bytes[HEADER_LEN..HEADER_LEN + payload_len as usize])
}

/// Little-endian binary reader over a snapshot payload. Every getter is
/// bounds-checked and returns [`SnapshotError::Truncated`] instead of
/// panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `data` (normally the slice [`open_envelope`] returned).
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly — trailing garbage
    /// means the payload does not encode what the caller thinks it does.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Invalid("trailing bytes in payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `N` bytes under one bounds check; a fixed-layout
    /// record decodes its fields from the array without further checks.
    pub(crate) fn take_array<const N: usize>(&mut self) -> Result<&'a [u8; N], SnapshotError> {
        Ok(&self.take_arrays(1)?[0])
    }

    /// [`SnapshotReader::take_array`] for `count` records under one check.
    pub(crate) fn take_arrays<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<&'a [[u8; N]], SnapshotError> {
        let bytes = self.take(count.checked_mul(N).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes.as_chunks().0)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(*self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(*self.take_array()?))
    }

    /// Reads a `u64` packet index or event count, refusing one of 2⁶³ or
    /// more: no component reaches that many, and below it every later
    /// increment has room.
    pub fn get_count(&mut self) -> Result<u64, SnapshotError> {
        match self.get_u64()? {
            n if n < 1 << 63 => Ok(n),
            _ => Err(SnapshotError::Invalid("count out of range")),
        }
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("size exceeds platform usize"))
    }

    /// Reads a `usize` meant to bound an upcoming sequence: rejects any
    /// value whose *minimum* encoding (`elem_bytes` per element) could not
    /// fit in the remaining payload, so a corrupted length can never
    /// drive a huge allocation.
    pub fn get_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string written by
    /// [`SnapshotWriter::put_bytes`]. The length is bounded by the
    /// remaining payload, so corruption cannot drive an allocation.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (0 or 1; anything else is [`SnapshotError::Invalid`]).
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool tag not 0/1")),
        }
    }

    /// Reads an `Option<f64>` written by [`SnapshotWriter::put_opt_f64`].
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            _ => Err(SnapshotError::Invalid("option tag not 0/1")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelope() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(0xdead_beef);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(1.5e-9));
        w.put_bool(true);
        w.seal(kind::CLOCK)
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let bytes = sample_envelope();
        let payload = open_envelope(&bytes, kind::CLOCK).unwrap();
        let mut r = SnapshotReader::new(payload);
        assert_eq!(r.get_u64().unwrap(), 0xdead_beef);
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(1.5e-9));
        assert!(r.get_bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_envelope();
        for n in 0..bytes.len() {
            let err = open_envelope(&bytes[..n], kind::CLOCK).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {n}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_envelope();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                assert!(
                    open_envelope(&m, kind::CLOCK).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        // the version is checked before the checksum (it says which sum
        // the trailer holds), so a foreign version needs no valid trailer
        let bytes = sample_envelope();
        for foreign in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let mut other = bytes.clone();
            other[4..6].copy_from_slice(&foreign.to_le_bytes());
            assert_eq!(
                open_envelope(&other, kind::CLOCK).unwrap_err(),
                SnapshotError::VersionMismatch { found: foreign, expected: FORMAT_VERSION }
            );
        }
        assert_eq!(
            open_envelope(&bytes, kind::QUORUM).unwrap_err(),
            SnapshotError::KindMismatch { found: kind::CLOCK, expected: kind::QUORUM }
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(open_envelope(&bad, kind::CLOCK).unwrap_err(), SnapshotError::BadMagic);
    }

    /// Payload lengths 0..=96 put the end of the body in every lane, on
    /// both sides of a 32-byte block edge and at every tail length 0..=31:
    /// at each, every truncation and every single-bit flip must be caught.
    #[test]
    fn every_flip_and_truncation_is_detected_at_every_body_geometry() {
        for n in 0..=96u8 {
            let mut w = SnapshotWriter::new();
            (0..n).for_each(|i| w.put_u8(i.wrapping_mul(151) ^ 0x5a));
            let bytes = w.seal(kind::QUORUM);
            assert_eq!(open_envelope(&bytes, kind::QUORUM).unwrap().len(), n as usize);
            for cut in 0..bytes.len() {
                let err = open_envelope(&bytes[..cut], kind::QUORUM).unwrap_err();
                assert_eq!(err, SnapshotError::Truncated, "payload {n}, cut at {cut}");
            }
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut m = bytes.clone();
                    m[i] ^= 1 << bit;
                    assert!(
                        open_envelope(&m, kind::QUORUM).is_err(),
                        "payload {n}: flip of byte {i} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    /// The checksum *is* the format: these values may only change together
    /// with `FORMAT_VERSION`. Inputs are `byte[i] = (i·i + 7·i + 3) mod 256`;
    /// the expected sums come from an independent implementation of the
    /// definition in the module docs.
    #[test]
    fn checksum_known_answers() {
        let input: Vec<u8> = (0..1usize << 20).map(|i| (i * i + 7 * i + 3) as u8).collect();
        for (len, want) in [
            (0usize, 0x7f6e_4d21_b650_a5a3u64),
            (1, 0xd916_1a48_cb0c_58d5),
            (31, 0xedf3_569f_d1e6_388b),
            (32, 0x84f9_31f7_f2e7_041f),
            (33, 0xd7eb_0e51_bc64_bd29),
            (1 << 20, 0x1ee1_05ce_3052_a5a3),
        ] {
            assert_eq!(checksum(&input[..len]), want, "len {len}");
        }
    }

    #[test]
    fn corrupt_length_cannot_drive_allocation() {
        let mut w = SnapshotWriter::new();
        w.put_usize(usize::MAX / 2); // a "length" with no data behind it
        let bytes = w.seal(kind::CLOCK);
        let payload = open_envelope(&bytes, kind::CLOCK).unwrap();
        let mut r = SnapshotReader::new(payload);
        assert_eq!(r.get_len(8).unwrap_err(), SnapshotError::Truncated);
    }
}
