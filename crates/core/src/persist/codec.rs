//! Binary framing primitives for the durability layer.
//!
//! Everything the control plane persists — snapshots, journal records,
//! the manifest — is wrapped in one frame format:
//!
//! ```text
//! magic(4) | version u16 | kind u8 | payload_len u32 | payload | crc32 u32
//! ```
//!
//! All integers are little-endian. The CRC covers the header *and* the
//! payload, so a flipped bit anywhere in the frame — including the length
//! field — fails verification. Decoders must treat every byte as hostile:
//! return [`CodecError`], never panic, never accept a frame whose checksum
//! does not match.

use std::fmt;

/// Frame magic: `"SAID"` (Sense-Aid Durability).
pub const MAGIC: [u8; 4] = *b"SAID";

/// Current on-disk format version.
pub const VERSION: u16 = 1;

/// Frame kind: a full control-plane snapshot.
pub const KIND_SNAPSHOT_FULL: u8 = 1;
/// Frame kind: a delta snapshot against an earlier generation.
pub const KIND_SNAPSHOT_DELTA: u8 = 2;
/// Frame kind: one write-ahead journal record.
pub const KIND_JOURNAL: u8 = 3;
/// Frame kind: the generation-chain manifest.
pub const KIND_MANIFEST: u8 = 4;

/// Why a decode was rejected. Every variant is a refusal, not a crash:
/// corrupt bytes must surface as `Err`, never as a panic or as silently
/// wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version is not one this build can read.
    BadVersion(u16),
    /// The frame kind differs from what the caller expected.
    BadKind(u8),
    /// The CRC32 over the frame does not match its trailer.
    BadChecksum,
    /// The payload decoded structurally but violated a semantic
    /// invariant (e.g. a deadline before its sampling instant).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unreadable format version {v}"),
            CodecError::BadKind(k) => write!(f, "unexpected frame kind {k}"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slice-by-8.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets eight input bytes be folded in with eight independent
/// lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE) over `bytes`: eight bytes per step, the byte loop only
/// for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Little-endian byte sink for payload encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, keeping the bytes it already
    /// holds; [`into_bytes`](Self::into_bytes) hands the buffer back.
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32` (sensor type codes).
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian cursor over untrusted payload bytes. Every accessor
/// bounds-checks and returns [`CodecError::Truncated`] instead of slicing
/// past the end.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads a little-endian `i32`.
    pub fn take_i32(&mut self) -> Result<i32, CodecError> {
        let s = self.take(4)?;
        Ok(i32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a boolean; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("boolean byte out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }

    /// Reads a `u32` collection count, refusing counts that could not
    /// possibly fit in the remaining bytes (`min_item_bytes` each) — the
    /// guard that keeps a corrupt length from triggering a huge
    /// allocation.
    pub fn take_count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.take_u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Frame overhead in bytes: magic + version + kind + length + CRC.
pub const FRAME_OVERHEAD: usize = 4 + 2 + 1 + 4 + 4;

/// Header bytes ahead of the payload: magic + version + kind + length.
const FRAME_HEADER: usize = FRAME_OVERHEAD - 4;

/// Opens a frame of the given `kind` at the end of `out` and returns its
/// start offset. The caller appends the payload directly to `out` and
/// closes the frame with [`end_frame`]; bytes already in `out` are left
/// alone, so frames can be built back to back in one buffer.
pub(crate) fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    start
}

/// Payload bytes appended so far to the frame opened at `start`.
pub(crate) fn open_frame_len(out: &[u8], start: usize) -> usize {
    out.len() - start - FRAME_HEADER
}

/// Closes the frame opened at `start` by [`begin_frame`]: patches the
/// payload length into the header and appends the CRC.
///
/// # Panics
///
/// When the payload does not fit the header's `u32`. Journal records are
/// bounded far below that; the snapshot writer, whose payload grows with
/// the population, checks [`open_frame_len`] first and refuses instead.
pub(crate) fn end_frame(out: &mut Vec<u8>, start: usize) {
    let len = u32::try_from(open_frame_len(out, start)).expect("frame payload must fit in u32");
    out[start + FRAME_HEADER - 4..start + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Wraps `payload` in a checksummed frame of the given `kind`.
///
/// Deliberately not written over [`begin_frame`] / [`end_frame`]: every
/// wire response and push goes through here, and the patch-the-length
/// shape measured slower on the push-heavy live workload. A test pins
/// the two encodings equal.
///
/// # Panics
///
/// When `payload` does not fit the header's `u32` (wire payloads and the
/// manifest are capped far below it).
pub fn seal_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload must fit in u32");
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies and unwraps one frame that must span exactly `bytes`,
/// returning `(kind, payload)`. Trailing garbage is a checksum-level
/// refusal: a frame is either byte-exact or rejected.
pub fn open_frame(bytes: &[u8]) -> Result<(u8, &[u8]), CodecError> {
    let (kind, payload, consumed) = open_frame_prefix(bytes)?;
    if consumed != bytes.len() {
        return Err(CodecError::Malformed("trailing bytes after frame"));
    }
    Ok((kind, payload))
}

/// Verifies one frame at the *start* of `bytes`, returning
/// `(kind, payload, bytes_consumed)`. Used by the journal reader, where
/// frames are concatenated and a torn tail must not poison the prefix.
pub fn open_frame_prefix(bytes: &[u8]) -> Result<(u8, &[u8], usize), CodecError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(CodecError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = bytes[6];
    let len = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]) as usize;
    let total = FRAME_OVERHEAD
        .checked_add(len)
        .ok_or(CodecError::Truncated)?;
    if bytes.len() < total {
        return Err(CodecError::Truncated);
    }
    let body = &bytes[..total - 4];
    let want = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    if crc32(body) != want {
        return Err(CodecError::BadChecksum);
    }
    Ok((kind, &bytes[11..total - 4], total))
}

/// Like [`open_frame`] but also checks the kind byte.
pub fn open_frame_expecting(bytes: &[u8], expect: u8) -> Result<&[u8], CodecError> {
    let (kind, payload) = open_frame(bytes)?;
    if kind != expect {
        return Err(CodecError::BadKind(kind));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk `crc32` used to be — the reference
    /// the slice-by-8 version is compared against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    fn filler(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = senseaid_sim::SimRng::from_seed_label(seed, "crc-filler");
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let shared = filler(7, 320);
        for offset in 0..=8 {
            for len in 0..=300 {
                let slice = &shared[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        for seed in 0..8u64 {
            let big = filler(seed, 64 * 1024);
            assert_eq!(crc32(&big), crc32_bytewise(&big), "seed {seed}");
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"control plane state".to_vec();
        let frame = seal_frame(KIND_SNAPSHOT_FULL, &payload);
        let (kind, got) = open_frame(&frame).unwrap();
        assert_eq!(kind, KIND_SNAPSHOT_FULL);
        assert_eq!(got, &payload[..]);
    }

    #[test]
    fn frame_layout_is_pinned() {
        let mut want = b"SAID".to_vec();
        want.extend_from_slice(&[1, 0, KIND_JOURNAL, 2, 0, 0, 0]);
        want.extend_from_slice(b"ab");
        let crc = crc32(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(seal_frame(KIND_JOURNAL, b"ab"), want);
    }

    #[test]
    fn frames_built_in_place_equal_sealed_frames_back_to_back() {
        let mut buf = b"already here".to_vec();
        let mut want = buf.clone();
        for payload in [&b""[..], b"first", b"second record"] {
            let start = begin_frame(&mut buf, KIND_JOURNAL);
            buf.extend_from_slice(payload);
            end_frame(&mut buf, start);
            want.extend_from_slice(&seal_frame(KIND_JOURNAL, payload));
        }
        assert_eq!(buf, want);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = seal_frame(KIND_JOURNAL, b"abcdefgh");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = seal_frame(KIND_MANIFEST, b"generations");
        for cut in 0..frame.len() {
            assert!(open_frame(&frame[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn prefix_open_reports_consumed_length() {
        let a = seal_frame(KIND_JOURNAL, b"first");
        let b = seal_frame(KIND_JOURNAL, b"second record");
        let mut file = a.clone();
        file.extend_from_slice(&b);
        let (_, p1, used) = open_frame_prefix(&file).unwrap();
        assert_eq!(p1, b"first");
        let (_, p2, used2) = open_frame_prefix(&file[used..]).unwrap();
        assert_eq!(p2, b"second record");
        assert_eq!(used + used2, file.len());
    }

    #[test]
    fn reader_refuses_hostile_counts() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_count(8), Err(CodecError::Truncated));
    }
}
