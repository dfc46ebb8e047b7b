//! Length-prefixed binary framing with a versioned header and CRC32
//! payload check.
//!
//! Every message on a byte-stream transport travels inside one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"EAC1"
//! 4       1     protocol version (PROTO_VERSION)
//! 5       1     message type tag
//! 6       2     flags (reserved, must be zero)
//! 8       4     payload length, little-endian
//! 12      n     payload bytes
//! 12+n    4     CRC32 (IEEE) of the payload, little-endian
//! ```
//!
//! The fixed header makes desynchronization detectable (bad magic), the
//! version byte gates protocol evolution, the explicit length bounds the
//! read, and the trailing CRC rejects corrupted payloads before they are
//! decoded. A frame that fails any check is an error, never a panic: a bad
//! peer must not be able to abort training.

use std::io::Read;

use crate::bytepool;
use crate::wire::Message;

/// Frame magic: "EAC1" (Elastic-Averaging Comms, format 1).
pub const MAGIC: [u8; 4] = *b"EAC1";

/// Current protocol version, negotiated by the `Hello`/`HelloAck`
/// handshake and stamped on every frame. Version 2 added the codec byte
/// to `Hello`, the codec + shard-map fields to `HelloAck`, and wire tags
/// 17–19 (compressed weight/delta messages). Version 3 added the clock
/// timestamps to `Heartbeat`/`HeartbeatAck` and wire tags 20–21
/// (observability push to an `ea-ops` collector).
pub const PROTO_VERSION: u8 = 3;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Hard upper bound on payload size (256 MiB). A length prefix beyond
/// this is treated as a desynchronized or hostile stream rather than an
/// allocation request.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// A malformed or corrupt frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// Length prefix exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Stream ended inside a frame.
    Truncated,
    /// CRC32 mismatch between wire and recomputed value.
    BadCrc { expected: u32, got: u32 },
    /// Frame was well-formed but the payload did not decode.
    BadPayload(String),
    /// Unknown message type tag.
    UnknownType(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadFlags(x) => write!(f, "reserved flag bits set: {x:#06x}"),
            FrameError::TooLarge(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::BadCrc { expected, got } => {
                write!(f, "payload CRC mismatch: wire {expected:#010x}, computed {got:#010x}")
            }
            FrameError::BadPayload(why) => write!(f, "undecodable payload: {why}"),
            FrameError::UnknownType(t) => write!(f, "unknown message type {t}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Slicing-by-16 lookup tables for CRC32 (IEEE 802.3, reflected,
/// polynomial 0xEDB88320), generated at compile time. `CRC_TABLES[0]` is
/// the classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so sixteen lookups advance the
/// CRC over sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`: sixteen bytes per step through
/// [`CRC_TABLES`], then byte at a time over the last `len % 16`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16-byte blocks");
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends the fixed header of a `msg_type` frame to `out`, with a zero
/// length that [`end_frame`] patches once the payload is in place.
fn begin_frame(msg_type: u8, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(PROTO_VERSION);
    out.push(msg_type);
    out.extend_from_slice(&[0u8; 6]); // flags, then the length
}

/// Completes the frame that [`begin_frame`] started at the front of
/// `out`: patches the payload length and appends the payload's CRC.
fn end_frame(out: &mut Vec<u8>) {
    let len = out.len() - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD);
    out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Frames an already-encoded (possibly malformed) `payload` into `out`,
/// which is cleared first. Senders use [`encode_message`]; this is for
/// tools and tests that put raw bytes on the wire.
pub fn encode_frame(msg_type: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len() + 4);
    begin_frame(msg_type, out);
    out.extend_from_slice(payload);
    end_frame(out);
}

/// Encodes `msg` as one complete frame in a single pooled buffer: the
/// header, the payload written in place, the patched length, then the
/// CRC over that slice. The message's large buffers go back to their
/// pools; the caller recycles the returned frame once it is written.
pub(crate) fn encode_message(msg: Message) -> Vec<u8> {
    let mut out = bytepool::take_empty(HEADER_LEN + msg.payload_len() + 4);
    begin_frame(msg.wire_type(), &mut out);
    msg.write_payload(&mut out);
    end_frame(&mut out);
    msg.recycle();
    out
}

/// Verifies a received frame body (payload followed by its 4-byte CRC
/// trailer) and returns the payload. Shared by [`read_frame`] and the
/// reactor's connection state machine.
pub(crate) fn check_body(body: &[u8]) -> Result<&[u8], FrameError> {
    let (payload, trailer) = body.split_at(body.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().expect("the trailer is 4 bytes"));
    let got = crc32(payload);
    if expected != got {
        return Err(FrameError::BadCrc { expected, got });
    }
    Ok(payload)
}

/// Validates a fixed 12-byte header, returning `(msg_type, payload_len)`.
/// Shared by the blocking reader below and the reactor's incremental
/// connection state machine, so both paths enforce identical checks.
pub(crate) fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != PROTO_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let flags = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    Ok((header[5], len))
}

/// Reads exactly one frame from a byte stream.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection), `Err(Frame(Truncated))` on EOF mid-frame, and the
/// decoded `(msg_type, payload)` otherwise. The payload buffer comes from
/// the crate's byte pool; in-crate readers recycle it once decoded.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ReadFrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        Eof::Clean => return Ok(None),
        Eof::Partial => return Err(ReadFrameError::Frame(FrameError::Truncated)),
        Eof::Filled => {}
    }
    let (msg_type, len) = parse_header(&header).map_err(ReadFrameError::Frame)?;
    let mut body = bytepool::take(len + 4);
    match read_exact_or_eof(r, &mut body)? {
        Eof::Filled => {}
        _ => return Err(ReadFrameError::Frame(FrameError::Truncated)),
    }
    check_body(&body).map_err(ReadFrameError::Frame)?;
    body.truncate(len);
    Ok(Some((msg_type, body)))
}

/// Errors from [`read_frame`]: either the stream itself failed or the
/// bytes on it were not a valid frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// Underlying I/O failure (including timeouts).
    Io(std::io::Error),
    /// The bytes were not a valid frame.
    Frame(FrameError),
}

impl From<std::io::Error> for ReadFrameError {
    fn from(e: std::io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

enum Eof {
    /// Buffer completely filled.
    Filled,
    /// EOF before any byte was read.
    Clean,
    /// EOF after at least one byte.
    Partial,
}

/// `read_exact`, but distinguishing a clean EOF at offset zero (peer
/// closed between frames) from a truncation mid-frame. Zero-byte reads on
/// a still-open socket cannot be told apart from EOF by `Read`, so both
/// map to EOF here — the caller treats them identically.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<Eof> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { Eof::Clean } else { Eof::Partial }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Eof::Filled)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use ea_optim::Codec;
    use ea_prop::{prop_assert_eq, properties};
    use ea_tensor::TensorRng;

    /// Bit-at-a-time CRC32 (IEEE, reflected 0xEDB88320): the definition
    /// the table-driven kernel must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = TensorRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A 1 MiB + 13 byte pattern, pinned to the byte-at-a-time
        // kernel's value (and zlib's): blocks and tail both count.
        let pattern: Vec<u8> =
            (0..(1usize << 20) + 13).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        assert_eq!(crc32(&pattern), 0x33EE_984A);
    }

    #[test]
    fn crc32_matches_bitwise_reference_for_every_short_length() {
        let bytes = random_bytes(7, 64 + 16);
        for offset in 0..16 {
            for len in 0..=64 {
                let s = &bytes[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset}, length {len}");
            }
        }
    }

    properties! {
        #![cases(48)]
        #[test]
        fn crc32_matches_bitwise_reference_at_misaligned_offsets(
            seed in 0u64..=u64::MAX,
            len in 0usize..=64 << 10,
            offset in 0usize..16,
        ) {
            let bytes = random_bytes(seed, offset + len);
            let s = &bytes[offset..];
            prop_assert_eq!(crc32(s), crc32_bitwise(s));
        }
    }

    /// A 64 KiB + 5 byte payload framed twice, each copy with one payload
    /// bit flipped: first inside the 16-byte blocks, then in the tail.
    pub(crate) fn frames_with_one_flipped_bit() -> [Vec<u8>; 2] {
        let payload = random_bytes(11, (64 << 10) + 5);
        let mut frame = Vec::new();
        encode_frame(1, &payload, &mut frame);
        let mut in_blocks = frame.clone();
        in_blocks[HEADER_LEN + 40_000] ^= 0x08;
        let mut in_tail = frame;
        in_tail[HEADER_LEN + payload.len() - 2] ^= 0x01;
        [in_blocks, in_tail]
    }

    #[test]
    fn read_frame_rejects_one_flipped_bit_in_blocks_and_tail() {
        for bad in frames_with_one_flipped_bit() {
            assert!(matches!(
                read_frame(&mut bad.as_slice()),
                Err(ReadFrameError::Frame(FrameError::BadCrc { .. }))
            ));
        }
    }

    fn ramp(n: usize, k: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * k % 101) as f32 - 50.0) / 64.0).collect()
    }

    fn blob(codec: Codec, n: usize) -> (u32, Vec<u8>) {
        let mut b = Vec::new();
        codec.encode(&ramp(n, 13), &mut b);
        (n as u32, b)
    }

    /// One message of every wire type, each with its frame's length and
    /// CRC32 (over the whole frame) as encoded by the two-pass encoder
    /// of protocol version 3 (payload into a scratch buffer, then copied
    /// behind the header).
    fn golden_frames() -> Vec<(Message, usize, u32)> {
        let (n1, b1) = blob(Codec::Int8, 300);
        let (n2, b2) = blob(Codec::F16, 200);
        let (n3, b3) = blob(Codec::TopK, 160);
        vec![
            (Message::Hello { proto: 3, pipe: 1, codec: Codec::Int8 }, 23, 0xbc476fec),
            (
                Message::HelloAck {
                    proto: 3,
                    n_shards: 4,
                    n_pipelines: 2,
                    codec: Codec::F32,
                    shard_base: 0,
                    shard_count: 4,
                },
                35,
                0x913bb4e9,
            ),
            (Message::PullRequest { shard: 1, version: 42 }, 28, 0x6d4fc344),
            (
                Message::PullReply { shard: 1, version: 42, weights: ramp(1000, 37) },
                4028,
                0x73871458,
            ),
            (
                Message::SubmitDelta { shard: 0, round: 7, pipe: 1, delta: ramp(777, 29) },
                3140,
                0x63a6200c,
            ),
            (Message::Ack { shard: 0, round: 7, pipe: 1, duplicate: true }, 33, 0x4e393b9c),
            (Message::Heartbeat { pipe: 1, round: 7, t_tx_us: 123_456_789 }, 36, 0xdd521e22),
            (
                Message::HeartbeatAck {
                    pipe: 1,
                    round: 7,
                    quorum: 2,
                    members: 0b11,
                    echo_tx_us: 123_456_789,
                    t_server_us: 123_500_000,
                },
                56,
                0x23d795d2,
            ),
            (Message::RoundInfoRequest { shard: 1, round: 6 }, 28, 0x8060538b),
            (
                Message::RoundInfoReply {
                    shard: 1,
                    round: 6,
                    quorum: 2,
                    members: 0b11,
                    known: true,
                },
                41,
                0x0d5b4e21,
            ),
            (Message::MetricsRequest, 16, 0x78147318),
            (
                Message::MetricsReply { counters: std::array::from_fn(|i| i as u64 * 1000 + 1) },
                120,
                0xc3cb6e01,
            ),
            (Message::Infer { id: 9, input: ramp(16, 7) }, 88, 0xfb2b4dd3),
            (
                Message::InferReply { id: 9, version: 3, shed: false, output: ramp(10, 11) },
                73,
                0xc11f0326,
            ),
            (Message::SubscribeWeights { shard: 2 }, 20, 0x5f320657),
            (
                Message::WeightsUpdate { shard: 2, version: 5, weights: ramp(64, 17) },
                284,
                0x7808bfcb,
            ),
            (
                Message::SubmitDeltaC {
                    shard: 0,
                    round: 7,
                    pipe: 1,
                    codec: Codec::Int8,
                    n: n1,
                    blob: b1,
                },
                357,
                0x3291d3b4,
            ),
            (
                Message::PullReplyC { shard: 1, version: 42, codec: Codec::F16, n: n2, blob: b2 },
                433,
                0x749d43f0,
            ),
            (
                Message::WeightsUpdateC {
                    shard: 2,
                    version: 5,
                    codec: Codec::TopK,
                    n: n3,
                    blob: b3,
                },
                197,
                0x875a833b,
            ),
            (
                Message::OpsPush {
                    kind: 1,
                    seq: 3,
                    t_tx_us: 987_654_321,
                    blob: b"ops blob".to_vec(),
                },
                41,
                0x557a6aaf,
            ),
            (
                Message::OpsAck { seq: 3, echo_tx_us: 987_654_321, t_collector_us: 987_700_000 },
                40,
                0x9067e4fd,
            ),
        ]
    }

    #[test]
    fn one_pass_encoder_reproduces_golden_frames() {
        let golden = golden_frames();
        let tags: Vec<u8> = golden.iter().map(|(m, ..)| m.wire_type()).collect();
        assert_eq!(tags, (1..=crate::wire::MAX_TAG).collect::<Vec<_>>(), "one frame per tag");
        for (msg, len, crc) in golden {
            let name = msg.name();
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            let mut raw = Vec::new();
            encode_frame(msg.wire_type(), &payload, &mut raw);
            let frame = encode_message(msg);
            assert_eq!(frame, raw, "{name}: encode_message and encode_frame disagree");
            assert_eq!(frame.len(), len, "{name} frame length");
            assert_eq!(crc32_bitwise(&frame), crc, "{name} frame bytes");
            bytepool::recycle(frame);
        }
    }

    #[test]
    fn ack_frame_bytes_are_pinned() {
        let frame = encode_message(Message::Ack { shard: 0, round: 7, pipe: 1, duplicate: true });
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "4541433103060000110000000000000007000000000000000100000001c3eefbfe");
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello elastic world".to_vec();
        let mut buf = Vec::new();
        encode_frame(7, &payload, &mut buf);
        let mut cursor = buf.as_slice();
        let (ty, got) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(ty, 7);
        assert_eq!(got, payload);
        assert!(cursor.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let mut buf = Vec::new();
        encode_frame(1, b"abc", &mut buf);
        for cut in 1..HEADER_LEN {
            let mut cursor = &buf[..cut];
            match read_frame(&mut cursor) {
                Err(ReadFrameError::Frame(FrameError::Truncated)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_or_crc_is_error() {
        let mut buf = Vec::new();
        encode_frame(1, &[9u8; 32], &mut buf);
        for cut in HEADER_LEN..buf.len() {
            let mut cursor = &buf[..cut];
            match read_frame(&mut cursor) {
                Err(ReadFrameError::Frame(FrameError::Truncated)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = Vec::new();
        encode_frame(1, &[0u8; 16], &mut buf);
        buf[HEADER_LEN + 3] ^= 0x40; // flip a payload bit
        let mut cursor = buf.as_slice();
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ReadFrameError::Frame(FrameError::BadCrc { .. }))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        encode_frame(1, b"x", &mut buf);
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadMagic(_)))
        ));
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadVersion(99)))
        ));
        let mut bad_flags = buf;
        bad_flags[6] = 1;
        assert!(matches!(
            read_frame(&mut bad_flags.as_slice()),
            Err(ReadFrameError::Frame(FrameError::BadFlags(1)))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        encode_frame(1, b"x", &mut buf);
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ReadFrameError::Frame(FrameError::TooLarge(_)))
        ));
    }
}
