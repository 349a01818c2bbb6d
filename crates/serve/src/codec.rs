//! The binary frame encoding: how a [`Request`]/[`Response`] becomes the
//! payload of a length-prefixed frame, and back.
//!
//! Every payload is `[0xB1][version u8][opcode u8][body…]`: the magic
//! [`BIN_MAGIC`], the [`PROTOCOL_VERSION`] byte, an opcode (requests
//! have the high bit clear, responses set), then little-endian
//! fixed-width integers, length-prefixed UTF-8 strings and bit vectors
//! packed 8-per-byte LSB-first (DESIGN.md §16). A 64-pattern
//! `QueryBatch` over a 64-input chip is ~530 bytes on the wire.
//!
//! The version byte is the only version check: a frame whose magic or
//! version differs is a typed [`FrameError::Malformed`], which the server
//! answers with a `malformed` error frame and then keeps reading. Every
//! decoder is total — whatever the bytes, it returns a value or a typed
//! error, never panics, and rejects trailing garbage.

use crate::protocol::{
    DesignSpec, ErrorKind, FrameError, Request, Response, ServerStats, MAX_FRAME_BYTES,
};
use std::io::{Read, Write};

/// The version byte every frame carries. Bump when the binary layout
/// changes incompatibly; a peer rejects any other value.
pub const PROTOCOL_VERSION: u8 = 1;

/// First payload byte of every frame.
pub const BIN_MAGIC: u8 = 0xB1;

/// The frame encoding of a connection. Binary is the only one; the type
/// and its single variant are kept only because the benchmark harness
/// names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Compact binary payloads.
    Bin,
}

/// Reads one length-prefixed frame payload as raw bytes.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF, [`FrameError::Truncated`] on a
/// mid-frame disconnect, [`FrameError::Oversized`] when the header
/// declares more than [`MAX_FRAME_BYTES`] (the body is *not* read).
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(body),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Writes one length-prefixed frame payload.
///
/// # Errors
///
/// [`FrameError::Oversized`] when `payload` exceeds [`MAX_FRAME_BYTES`];
/// otherwise propagates I/O failures.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(payload.len()));
    }
    let header = (payload.len() as u32).to_be_bytes();
    w.write_all(&header).map_err(FrameError::Io)?;
    w.write_all(payload).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Appends a frame (header + payload) to an in-memory buffer — the
/// event-driven server's write path, where the socket write happens later
/// and nonblocking.
///
/// # Errors
///
/// [`FrameError::Oversized`] when `payload` exceeds [`MAX_FRAME_BYTES`].
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(payload.len()));
    }
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

// Request opcodes (high bit clear).
const OP_ACTIVATE: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_QUERY_BATCH: u8 = 0x04;
const OP_MORPH: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;

// Response opcodes (high bit set).
const RE_ACTIVATED: u8 = 0x82;
const RE_OUTPUTS: u8 = 0x83;
const RE_BATCH: u8 = 0x84;
const RE_MORPHED: u8 = 0x85;
const RE_STATS: u8 = 0x86;
const RE_BYE: u8 = 0x87;
const RE_ERROR: u8 = 0x88;

/// Caps a finished payload at [`MAX_FRAME_BYTES`].
pub(crate) fn sized(mut bytes: Vec<u8>) -> Result<Vec<u8>, FrameError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(bytes.len()));
    }
    bytes.shrink_to_fit();
    Ok(bytes)
}

pub(crate) fn header(opcode: u8) -> Vec<u8> {
    vec![BIN_MAGIC, PROTOCOL_VERSION, opcode]
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bit vectors go out as a u32 bit count + `ceil(n/8)` bytes, bit `i` at
/// byte `i/8`, position `i%8` (LSB-first). Pad bits are zero.
fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// A bounds-checked reader over a frame body. Every accessor validates
/// the remaining length before touching (or allocating for) the bytes, so
/// a hostile length field cannot panic or balloon memory — the payload
/// itself is already capped at [`MAX_FRAME_BYTES`].
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn bad(&self, what: &str) -> FrameError {
        FrameError::Malformed(format!(
            "binary frame truncated or invalid at byte {}: {what}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.bad(what));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    pub(crate) fn str_(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FrameError::Malformed(format!("non-UTF8 string in `{what}`: {e}")))
    }

    fn bits(&mut self, what: &str) -> Result<Vec<bool>, FrameError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.div_ceil(8), what)?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    /// Rejects trailing garbage after a fully-decoded body.
    pub(crate) fn finish(&self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing byte(s) after the binary frame body",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Checks magic + version and returns the opcode and a body cursor.
pub(crate) fn bin_header(payload: &[u8]) -> Result<(u8, Cur<'_>), FrameError> {
    let mut cur = Cur::new(payload);
    let magic = cur.u8("magic")?;
    if magic != BIN_MAGIC {
        return Err(FrameError::Malformed(format!(
            "frame starts with 0x{magic:02x}, not the binary magic 0x{BIN_MAGIC:02X}"
        )));
    }
    let version = cur.u8("version")?;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::Malformed(format!(
            "unsupported binary frame version {version} (this peer speaks {PROTOCOL_VERSION})"
        )));
    }
    let opcode = cur.u8("opcode")?;
    Ok((opcode, cur))
}

impl Request {
    /// Encodes the request as a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let out = match self {
            Request::Activate { design } => {
                let mut out = header(OP_ACTIVATE);
                put_str(&mut out, &design.benchmark);
                put_str(&mut out, &design.spec);
                put_u64(&mut out, design.blocks as u64);
                put_u64(&mut out, design.seed);
                out.push(design.scan as u8);
                out.push(design.zero_se as u8);
                out
            }
            Request::Query { chip, inputs } => {
                let mut out = header(OP_QUERY);
                put_u64(&mut out, *chip);
                put_bits(&mut out, inputs);
                out
            }
            Request::QueryBatch { chip, patterns } => {
                let mut out = header(OP_QUERY_BATCH);
                put_u64(&mut out, *chip);
                put_u32(&mut out, patterns.len() as u32);
                for p in patterns {
                    put_bits(&mut out, p);
                }
                out
            }
            Request::Morph { chip } => {
                let mut out = header(OP_MORPH);
                put_u64(&mut out, *chip);
                out
            }
            Request::Stats => header(OP_STATS),
            Request::Shutdown => header(OP_SHUTDOWN),
        };
        sized(out)
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// request frame. Never panics, whatever the bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let req = match opcode {
            OP_ACTIVATE => Request::Activate {
                design: DesignSpec {
                    benchmark: cur.str_("activate.benchmark")?,
                    spec: cur.str_("activate.spec")?,
                    blocks: cur.u64("activate.blocks")? as usize,
                    seed: cur.u64("activate.seed")?,
                    scan: cur.u8("activate.scan")? != 0,
                    zero_se: cur.u8("activate.zero_se")? != 0,
                },
            },
            OP_QUERY => Request::Query {
                chip: cur.u64("query.chip")?,
                inputs: cur.bits("query.inputs")?,
            },
            OP_QUERY_BATCH => {
                let chip = cur.u64("batch.chip")?;
                let n = cur.u32("batch.rows")? as usize;
                let mut patterns = Vec::new();
                for _ in 0..n {
                    patterns.push(cur.bits("batch.row")?);
                }
                Request::QueryBatch { chip, patterns }
            }
            OP_MORPH => Request::Morph {
                chip: cur.u64("morph.chip")?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary request opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let out = match self {
            Response::Activated {
                chip,
                generation,
                inputs,
                outputs,
                key_bits,
            } => {
                let mut out = header(RE_ACTIVATED);
                put_u64(&mut out, *chip);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *inputs as u64);
                put_u64(&mut out, *outputs as u64);
                put_u64(&mut out, *key_bits as u64);
                out
            }
            Response::Outputs { bits, generation } => {
                let mut out = header(RE_OUTPUTS);
                put_u64(&mut out, *generation);
                put_bits(&mut out, bits);
                out
            }
            Response::Batch { rows, generation } => {
                let mut out = header(RE_BATCH);
                put_u64(&mut out, *generation);
                put_u32(&mut out, rows.len() as u32);
                for r in rows {
                    put_bits(&mut out, r);
                }
                out
            }
            Response::Morphed {
                generation,
                bits_changed,
                changed_bits,
            } => {
                let mut out = header(RE_MORPHED);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *bits_changed);
                put_u32(&mut out, changed_bits.len() as u32);
                for &b in changed_bits {
                    put_u64(&mut out, b as u64);
                }
                out
            }
            // Stats is the control plane's cold path and carries the
            // open-ended metrics registry, which people read: its body is
            // JSON, length-prefixed inside the binary envelope.
            Response::Stats(stats) => {
                let mut out = header(RE_STATS);
                put_str(&mut out, &stats.to_json());
                out
            }
            Response::Bye => header(RE_BYE),
            Response::Error { kind, message } => {
                let mut out = header(RE_ERROR);
                put_str(&mut out, kind.as_str());
                put_str(&mut out, message);
                out
            }
        };
        sized(out)
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// response frame. Never panics, whatever the bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let resp = match opcode {
            RE_ACTIVATED => Response::Activated {
                chip: cur.u64("activated.chip")?,
                generation: cur.u64("activated.generation")?,
                inputs: cur.u64("activated.inputs")? as usize,
                outputs: cur.u64("activated.outputs")? as usize,
                key_bits: cur.u64("activated.key_bits")? as usize,
            },
            RE_OUTPUTS => Response::Outputs {
                generation: cur.u64("outputs.generation")?,
                bits: cur.bits("outputs.bits")?,
            },
            RE_BATCH => {
                let generation = cur.u64("batch.generation")?;
                let n = cur.u32("batch.rows")? as usize;
                let mut rows = Vec::new();
                for _ in 0..n {
                    rows.push(cur.bits("batch.row")?);
                }
                Response::Batch { rows, generation }
            }
            RE_MORPHED => {
                let generation = cur.u64("morphed.generation")?;
                let bits_changed = cur.u64("morphed.bits_changed")?;
                let n = cur.u32("morphed.changed")? as usize;
                let mut changed_bits = Vec::new();
                for _ in 0..n {
                    changed_bits.push(cur.u64("morphed.bit")? as usize);
                }
                Response::Morphed {
                    generation,
                    bits_changed,
                    changed_bits,
                }
            }
            RE_STATS => Response::Stats(
                ServerStats::from_json(&cur.str_("stats.body")?).map_err(FrameError::Malformed)?,
            ),
            RE_BYE => Response::Bye,
            RE_ERROR => {
                let kind = cur.str_("error.kind")?;
                let message = cur.str_("error.message")?;
                Response::Error {
                    kind: ErrorKind::parse(&kind).ok_or_else(|| {
                        FrameError::Malformed(format!("unknown error kind `{kind}`"))
                    })?,
                    message,
                }
            }
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary response opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ChipStats;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Activate {
                design: DesignSpec {
                    benchmark: "adder:6".into(),
                    spec: "2x2".into(),
                    blocks: 2,
                    seed: 7,
                    scan: true,
                    zero_se: true,
                },
            },
            Request::Query {
                chip: 3,
                inputs: vec![true, false, true, true, false, false, true, false, true],
            },
            Request::QueryBatch {
                chip: 1,
                patterns: vec![vec![false, true], vec![true, true], vec![false; 8]],
            },
            Request::Morph { chip: 9 },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let metrics = ril_trace::Metrics::new();
        metrics.counter_add("serve.queries", 40);
        metrics.record_timing("chip.1.query.latency", std::time::Duration::from_micros(12));
        vec![
            Response::Activated {
                chip: 1,
                generation: 0,
                inputs: 12,
                outputs: 7,
                key_bits: 24,
            },
            Response::Outputs {
                bits: vec![true, false, true],
                generation: 4,
            },
            Response::Batch {
                rows: vec![vec![true; 9], vec![false; 9]],
                generation: 2,
            },
            Response::Morphed {
                generation: 5,
                bits_changed: 11,
                changed_bits: vec![0, 3, 9],
            },
            Response::Morphed {
                generation: 6,
                bits_changed: 2,
                changed_bits: Vec::new(),
            },
            Response::Stats(ServerStats {
                requests: 42,
                uptime_s: 1.5,
                qps: 0.0625,
                chips: vec![ChipStats {
                    chip: 1,
                    queries: 40,
                    morphs: 3,
                    generation: 3,
                }],
                metrics: metrics.snapshot(),
            }),
            Response::Stats(ServerStats::default()),
            Response::Bye,
            Response::Error {
                kind: ErrorKind::UnknownChip,
                message: "no chip 7".into(),
            },
        ]
    }

    #[test]
    fn binary_round_trips_every_shape() {
        for req in sample_requests() {
            let bytes = req.encode().unwrap();
            assert_eq!(bytes[..2], [BIN_MAGIC, PROTOCOL_VERSION]);
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
        for resp in sample_responses() {
            let bytes = resp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_binary_frames_are_typed_errors() {
        let full = Request::QueryBatch {
            chip: 7,
            patterns: vec![vec![true; 10]; 3],
        }
        .encode()
        .unwrap();
        for cut in 0..full.len() {
            match Request::decode(&full[..cut]) {
                Err(FrameError::Malformed(_)) => {}
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
        }
        // Trailing garbage is rejected too.
        let mut padded = full;
        padded.push(0);
        assert!(matches!(
            Request::decode(&padded),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_length_fields_do_not_allocate_or_panic() {
        // A string length far past the payload end.
        let mut frame = header(OP_ACTIVATE);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::Malformed(_))
        ));
        // A batch row count with no rows behind it.
        let mut frame = header(OP_QUERY_BATCH);
        put_u64(&mut frame, 1);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected_by_name() {
        for (payload, needle) in [
            (&b""[..], "magic"),
            (&br#"{"op":"stats"}"#[..], "0x7b"),
            (
                &[BIN_MAGIC, PROTOCOL_VERSION + 1, OP_STATS][..],
                "version 2",
            ),
            (&[BIN_MAGIC, 0, OP_STATS][..], "version 0"),
        ] {
            match Request::decode(payload) {
                Err(FrameError::Malformed(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{payload:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn frame_bytes_round_trip() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, &header(OP_STATS)).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame_bytes(&mut cursor).unwrap(), header(OP_STATS));
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_header_is_rejected_without_reading_the_body() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_frames_are_typed() {
        // Partial header.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Truncated)
        ));
        // Full header, partial body.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_writes_are_refused() {
        let big = vec![b'x'; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame_bytes(&mut buf, &big),
            Err(FrameError::Oversized(_))
        ));
        assert!(buf.is_empty(), "nothing may reach the wire");
    }
}
