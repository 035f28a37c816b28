//! Length-prefixed binary wire protocol for the classification service.
//!
//! # Framing
//!
//! Every message is one *frame*:
//!
//! ```text
//! +-------------------+-----------+------------------+
//! | length: u32 (BE)  | type: u8  | body: length - 1 |
//! +-------------------+-----------+------------------+
//! ```
//!
//! `length` counts the type byte plus the body and is capped at
//! [`MAX_FRAME`]. Integers are big-endian; `f64` values travel as the
//! big-endian bytes of their IEEE-754 bit pattern.
//!
//! # Requests (client → server)
//!
//! | type | message | body |
//! |------|---------|------|
//! | `0x01` | [`Request::SubmitPacket`] | `timestamp: f64`, `tuple: 13B`, `flags: u8`, `payload: u32 + bytes` |
//! | `0x02` | [`Request::ClassifyBuffer`] | `payload: u32 + bytes` |
//! | `0x03` | [`Request::Stats`] | empty |
//! | `0x04` | [`Request::Drain`] | empty |
//!
//! The 13-byte tuple encoding is [`FiveTuple::as_bytes`]: source IP,
//! destination IP, source port, destination port, IANA protocol number
//! (6 = TCP, 17 = UDP).
//!
//! # Responses (server → client)
//!
//! | type | message | body |
//! |------|---------|------|
//! | `0x81` | [`Response::FlowVerdict`] | `tuple: 13B`, `label: u8`, `packets: u32`, `buffered_bytes: u32`, `fill_time: f64` |
//! | `0x82` | [`Response::Busy`] | `tuple: 13B` |
//! | `0x83` | [`Response::ClassifyResult`] | `label: u8` |
//! | `0x84` | [`Response::Stats`] | see [`StatsSnapshot::encode_into`](crate::metrics::StatsSnapshot) |
//! | `0x85` | [`Response::DrainComplete`] | `flows: u32` |
//! | `0x86` | [`Response::Error`] | `message: u32 + UTF-8 bytes` |
//!
//! `SubmitPacket` is streaming: it has no immediate reply. The server
//! pushes one `FlowVerdict` per *completed* flow (buffer filled, flow
//! closed, idle-flushed, or drained) and `Busy` when admission control
//! rejects a packet. `Drain` is a barrier: after all previously
//! submitted packets are processed, every in-flight flow is classified
//! from whatever bytes it has buffered, the verdicts are pushed, and
//! `DrainComplete` reports how many flows this drain flushed for the
//! requesting connection.

#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::wildcard_enum_match_arm,
        clippy::arithmetic_side_effects
    )
)]

use std::io::{Read, Write};
use std::net::Ipv4Addr;

use iustitia_corpus::FileClass;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};

use crate::metrics::StatsSnapshot;

/// Maximum frame size (type byte + body) the peer will accept.
pub const MAX_FRAME: usize = 1 << 20;

/// Protocol-level failure: transport error or a malformed frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket/stream error.
    Io(std::io::Error),
    /// Structurally invalid frame (bad length, unknown type or field).
    Malformed(String),
    /// The length prefix claims more than [`MAX_FRAME`] bytes. Typed so
    /// servers can reject the frame before allocating anything.
    FrameTooLarge {
        /// Claimed frame length (type byte + body).
        len: usize,
    },
    /// The stream ended mid-frame: the length prefix promised
    /// `expected` bytes but only `got` arrived before EOF.
    Truncated {
        /// Bytes the frame (or its length prefix) should have had.
        expected: usize,
        /// Bytes actually read before the stream ended.
        got: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtoError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

/// A [`ProtoError::Malformed`] with a formatted message, for the
/// request parser's rejections.
fn rejected(msg: std::fmt::Arguments<'_>) -> ProtoError {
    // lint: allow(L009) — the frame is rejected: its connection gets an `Error` reply and closes
    ProtoError::Malformed(msg.to_string())
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stream one packet into the sharded pipeline.
    SubmitPacket(Packet),
    /// One-shot: classify the first `b` bytes of a byte buffer,
    /// bypassing flow state and the CDB.
    ClassifyBuffer(Vec<u8>),
    /// Ask for a metrics snapshot.
    Stats,
    /// Barrier: classify all in-flight flows and report.
    Drain,
}

/// A [`Request::SubmitPacket`] body, with the payload still where the
/// frame put it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRef<'a> {
    /// Capture time in seconds from trace start.
    pub timestamp: f64,
    /// Flow 5-tuple.
    pub tuple: FiveTuple,
    /// TCP flags (empty for UDP).
    pub flags: TcpFlags,
    /// Application payload, borrowed from the frame body.
    pub payload: &'a [u8],
}

/// A [`Request`] whose byte fields borrow from the frame body it was
/// parsed from — what the reactor handles, so that a payload is copied
/// once, from the read buffer to its shard's slab.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestRef<'a> {
    /// See [`Request::SubmitPacket`].
    SubmitPacket(PacketRef<'a>),
    /// See [`Request::ClassifyBuffer`].
    ClassifyBuffer(&'a [u8]),
    /// See [`Request::Stats`].
    Stats,
    /// See [`Request::Drain`].
    Drain,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A flow completed and was classified.
    FlowVerdict(FlowVerdict),
    /// Admission control rejected a packet for this flow.
    Busy(FiveTuple),
    /// Answer to [`Request::ClassifyBuffer`].
    ClassifyResult(FileClass),
    /// Answer to [`Request::Stats`].
    ///
    /// Boxed: a snapshot carries four histograms and is far larger
    /// than every other variant.
    Stats(Box<StatsSnapshot>),
    /// Answer to [`Request::Drain`]: flows flushed for this connection.
    DrainComplete(u32),
    /// The request could not be honored.
    Error(String),
}

/// The final classification of one flow, as sent over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowVerdict {
    /// The flow's 5-tuple.
    pub tuple: FiveTuple,
    /// Assigned nature.
    pub label: FileClass,
    /// Data packets that contributed to the classification buffer.
    pub packets: u32,
    /// Bytes in the buffer when classified.
    pub buffered_bytes: u32,
    /// Seconds from the flow's first data packet to classification.
    pub fill_time: f64,
}

// ------------------------------------------------------------ framing

/// The five bytes that open a frame: its length prefix and `type_byte`.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] if a `body_len`-byte body would exceed
/// [`MAX_FRAME`].
pub(crate) fn frame_header(type_byte: u8, body_len: usize) -> Result<[u8; 5], ProtoError> {
    let frame_len = body_len.saturating_add(1);
    if frame_len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge { len: frame_len });
    }
    let len = u32::try_from(frame_len).map_err(|_| ProtoError::FrameTooLarge { len: frame_len })?;
    let [a, b, c, d] = len.to_be_bytes();
    Ok([a, b, c, d, type_byte])
}

/// Writes one frame (`type_byte` + `body`).
///
/// # Errors
///
/// Returns any transport error from the writer.
pub fn write_frame<W: Write>(w: &mut W, type_byte: u8, body: &[u8]) -> Result<(), ProtoError> {
    w.write_all(&frame_header(type_byte, body.len())?)?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one frame, returning `(type_byte, body)`; `None` on clean EOF
/// at a frame boundary.
///
/// The length prefix is validated *before* the body buffer is
/// allocated, so a hostile peer cannot make the reader reserve more
/// than [`MAX_FRAME`] bytes.
///
/// # Errors
///
/// Returns [`ProtoError::Io`] on transport errors,
/// [`ProtoError::FrameTooLarge`] on oversized length prefixes,
/// [`ProtoError::Truncated`] when the stream ends mid-frame, and
/// [`ProtoError::Malformed`] on zero-length frames.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    match fill(r, &mut len_bytes)? {
        0 => return Ok(None), // clean EOF at a frame boundary
        4 => {}
        got => return Err(ProtoError::Truncated { expected: 4, got }),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(malformed("zero-length frame"));
    }
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge { len });
    }
    let mut frame = vec![0u8; len];
    let got = fill(r, &mut frame)?;
    if got < len {
        return Err(ProtoError::Truncated { expected: len, got });
    }
    let body = frame.split_off(1);
    Ok(Some((frame[0], body)))
}

/// Reads until `buf` is full or EOF; returns how many bytes landed.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

// ----------------------------------------------------- field encoding

fn put_tuple(out: &mut Vec<u8>, tuple: &FiveTuple) {
    out.extend_from_slice(&tuple.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(data.len())
        .map_err(|_| malformed(format!("byte field of {} exceeds u32 range", data.len())))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(data);
    Ok(())
}

/// A [`FileClass`] index as its one-byte wire form.
fn class_byte(label: FileClass) -> Result<u8, ProtoError> {
    u8::try_from(label.index())
        .map_err(|_| malformed(format!("class index {} exceeds u8 range", label.index())))
}

/// Cursor-style reader over a frame body.
pub(crate) struct FieldReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    pub(crate) fn new(body: &'a [u8]) -> Self {
        FieldReader { body, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.body.len());
        let slice = end.and_then(|end| self.body.get(self.pos..end));
        let slice = slice.ok_or_else(|| malformed("truncated frame body"))?;
        self.pos = self.pos.saturating_add(n);
        Ok(slice)
    }

    /// A fixed-size array; infallible once `take` has sized the slice.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| malformed("truncated frame body"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// `N` consecutive `u64` words.
    pub(crate) fn u64s<const N: usize>(&mut self) -> Result<[u64; N], ProtoError> {
        let mut words = [0; N];
        for word in &mut words {
            *word = self.u64()?;
        }
        Ok(words)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn tuple(&mut self) -> Result<FiveTuple, ProtoError> {
        let [s0, s1, s2, s3, d0, d1, d2, d3, sp0, sp1, dp0, dp1, protocol] = self.array()?;
        let src_ip = Ipv4Addr::from([s0, s1, s2, s3]);
        let dst_ip = Ipv4Addr::from([d0, d1, d2, d3]);
        let src_port = u16::from_be_bytes([sp0, sp1]);
        let dst_port = u16::from_be_bytes([dp0, dp1]);
        match protocol {
            6 => Ok(FiveTuple::tcp(src_ip, src_port, dst_ip, dst_port)),
            17 => Ok(FiveTuple::udp(src_ip, src_port, dst_ip, dst_port)),
            other => Err(rejected(format_args!("unknown protocol number {other}"))),
        }
    }

    pub(crate) fn label(&mut self) -> Result<FileClass, ProtoError> {
        let idx = self.u8()?;
        if idx as usize >= FileClass::ALL.len() {
            return Err(malformed(format!("unknown class index {idx}")));
        }
        Ok(FileClass::from_index(idx as usize))
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.body.len().saturating_sub(self.pos)
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        match self.remaining() {
            0 => Ok(()),
            trailing => Err(rejected(format_args!("{trailing} trailing bytes in frame body"))),
        }
    }
}

// --------------------------------------------------- request encoding

const REQ_SUBMIT_PACKET: u8 = 0x01;
const REQ_CLASSIFY_BUFFER: u8 = 0x02;
const REQ_STATS: u8 = 0x03;
const REQ_DRAIN: u8 = 0x04;

impl Request {
    /// Serializes into `(type_byte, body)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] if a field cannot be
    /// represented on the wire (e.g. a payload longer than `u32::MAX`).
    pub fn encode(&self) -> Result<(u8, Vec<u8>), ProtoError> {
        match self {
            Request::SubmitPacket(p) => {
                let mut body = Vec::with_capacity(30usize.saturating_add(p.payload.len()));
                body.extend_from_slice(&p.timestamp.to_bits().to_be_bytes());
                put_tuple(&mut body, &p.tuple);
                body.push(p.flags.bits());
                put_bytes(&mut body, &p.payload)?;
                Ok((REQ_SUBMIT_PACKET, body))
            }
            Request::ClassifyBuffer(payload) => {
                let mut body = Vec::with_capacity(4usize.saturating_add(payload.len()));
                put_bytes(&mut body, payload)?;
                Ok((REQ_CLASSIFY_BUFFER, body))
            }
            Request::Stats => Ok((REQ_STATS, Vec::new())),
            Request::Drain => Ok((REQ_DRAIN, Vec::new())),
        }
    }

    /// Parses a frame previously produced by [`Request::encode`]:
    /// [`RequestRef::decode`], then a copy of the byte fields.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown types or bad bodies.
    pub fn decode(type_byte: u8, body: &[u8]) -> Result<Request, ProtoError> {
        RequestRef::decode(type_byte, body).map(|request| request.to_owned())
    }
}

impl<'a> RequestRef<'a> {
    /// Parses a request frame in place — the one request parser.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown types or bad bodies.
    pub fn decode(type_byte: u8, body: &'a [u8]) -> Result<RequestRef<'a>, ProtoError> {
        let mut r = FieldReader::new(body);
        let req = match type_byte {
            REQ_SUBMIT_PACKET => {
                let timestamp = r.f64()?;
                let tuple = r.tuple()?;
                let flags = TcpFlags::from_bits_truncate(r.u8()?);
                let payload = r.bytes()?;
                RequestRef::SubmitPacket(PacketRef { timestamp, tuple, flags, payload })
            }
            REQ_CLASSIFY_BUFFER => RequestRef::ClassifyBuffer(r.bytes()?),
            REQ_STATS => RequestRef::Stats,
            REQ_DRAIN => RequestRef::Drain,
            other => return Err(rejected(format_args!("unknown request type {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }

    /// The request with its byte fields copied out of the frame.
    #[must_use]
    pub fn to_owned(&self) -> Request {
        match *self {
            RequestRef::SubmitPacket(PacketRef { timestamp, tuple, flags, payload }) => {
                Request::SubmitPacket(Packet { timestamp, tuple, flags, payload: payload.to_vec() })
            }
            RequestRef::ClassifyBuffer(data) => Request::ClassifyBuffer(data.to_vec()),
            RequestRef::Stats => Request::Stats,
            RequestRef::Drain => Request::Drain,
        }
    }
}

// -------------------------------------------------- response encoding

const RESP_FLOW_VERDICT: u8 = 0x81;
const RESP_BUSY: u8 = 0x82;
const RESP_CLASSIFY_RESULT: u8 = 0x83;
const RESP_STATS: u8 = 0x84;
const RESP_DRAIN_COMPLETE: u8 = 0x85;
const RESP_ERROR: u8 = 0x86;

impl Response {
    /// Serializes into `(type_byte, body)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] if a field cannot be
    /// represented on the wire.
    pub fn encode(&self) -> Result<(u8, Vec<u8>), ProtoError> {
        match self {
            Response::FlowVerdict(v) => {
                let mut body = Vec::with_capacity(30);
                put_tuple(&mut body, &v.tuple);
                body.push(class_byte(v.label)?);
                body.extend_from_slice(&v.packets.to_be_bytes());
                body.extend_from_slice(&v.buffered_bytes.to_be_bytes());
                body.extend_from_slice(&v.fill_time.to_bits().to_be_bytes());
                Ok((RESP_FLOW_VERDICT, body))
            }
            Response::Busy(tuple) => {
                let mut body = Vec::with_capacity(13);
                put_tuple(&mut body, tuple);
                Ok((RESP_BUSY, body))
            }
            Response::ClassifyResult(label) => {
                Ok((RESP_CLASSIFY_RESULT, vec![class_byte(*label)?]))
            }
            Response::Stats(snapshot) => {
                let mut body = Vec::new();
                snapshot.encode_into(&mut body);
                Ok((RESP_STATS, body))
            }
            Response::DrainComplete(flows) => {
                Ok((RESP_DRAIN_COMPLETE, flows.to_be_bytes().to_vec()))
            }
            Response::Error(msg) => {
                let mut body = Vec::with_capacity(4usize.saturating_add(msg.len()));
                put_bytes(&mut body, msg.as_bytes())?;
                Ok((RESP_ERROR, body))
            }
        }
    }

    /// Parses a frame previously produced by [`Response::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown types or bad bodies.
    pub fn decode(type_byte: u8, body: &[u8]) -> Result<Response, ProtoError> {
        let mut r = FieldReader::new(body);
        let resp = match type_byte {
            RESP_FLOW_VERDICT => Response::FlowVerdict(FlowVerdict {
                tuple: r.tuple()?,
                label: r.label()?,
                packets: r.u32()?,
                buffered_bytes: r.u32()?,
                fill_time: r.f64()?,
            }),
            RESP_BUSY => Response::Busy(r.tuple()?),
            RESP_CLASSIFY_RESULT => Response::ClassifyResult(r.label()?),
            RESP_STATS => Response::Stats(Box::new(StatsSnapshot::decode(&mut r)?)),
            RESP_DRAIN_COMPLETE => Response::DrainComplete(r.u32()?),
            RESP_ERROR => {
                let msg = String::from_utf8(r.bytes()?.to_vec())
                    .map_err(|_| malformed("error message is not UTF-8"))?;
                Response::Error(msg)
            }
            other => return Err(malformed(format!("unknown response type {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(Ipv4Addr::new(10, 1, 2, 3), 4321, Ipv4Addr::new(192, 168, 0, 9), 443)
    }

    fn round_trip_request(req: Request) {
        let (t, body) = req.encode().unwrap();
        assert_eq!(Request::decode(t, &body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let (t, body) = resp.encode().unwrap();
        assert_eq!(Response::decode(t, &body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::SubmitPacket(Packet {
            timestamp: 1.25,
            tuple: tuple(),
            flags: TcpFlags::ACK | TcpFlags::FIN,
            payload: vec![1, 2, 3, 4, 5],
        }));
        round_trip_request(Request::ClassifyBuffer(vec![0; 64]));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Drain);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::FlowVerdict(FlowVerdict {
            tuple: tuple(),
            label: FileClass::Encrypted,
            packets: 3,
            buffered_bytes: 32,
            fill_time: 0.125,
        }));
        round_trip_response(Response::Busy(tuple()));
        round_trip_response(Response::ClassifyResult(FileClass::Text));
        round_trip_response(Response::DrainComplete(17));
        round_trip_response(Response::Error("queue exploded".into()));
    }

    #[test]
    fn udp_tuple_round_trips() {
        let t = FiveTuple::udp(Ipv4Addr::new(1, 2, 3, 4), 53, Ipv4Addr::new(5, 6, 7, 8), 5060);
        round_trip_response(Response::Busy(t));
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut buf = Vec::new();
        let (t1, b1) = Request::Stats.encode().unwrap();
        let (t2, b2) = Request::ClassifyBuffer(vec![9; 10]).encode().unwrap();
        write_frame(&mut buf, t1, &b1).unwrap();
        write_frame(&mut buf, t2, &b2).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (rt1, rb1) = read_frame(&mut cursor).unwrap().unwrap();
        let (rt2, rb2) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(rt1, &rb1).unwrap(), Request::Stats);
        assert_eq!(Request::decode(rt2, &rb2).unwrap(), Request::ClassifyBuffer(vec![9; 10]));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let mut buf = Vec::new();
        let (t, b) = Request::ClassifyBuffer(vec![1; 100]).encode().unwrap();
        write_frame(&mut buf, t, &b).unwrap();
        buf.truncate(buf.len() - 10);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Truncated { expected: 105, got: 95 })
        ));
    }

    #[test]
    fn partial_length_prefix_is_truncated_not_clean_eof() {
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Truncated { expected: 4, got: 2 })
        ));
    }

    #[test]
    fn unknown_types_and_trailing_bytes_are_malformed() {
        assert!(matches!(Request::decode(0x7F, &[]), Err(ProtoError::Malformed(_))));
        assert!(matches!(Response::decode(0x10, &[]), Err(ProtoError::Malformed(_))));
        let (t, mut body) = Request::Stats.encode().unwrap();
        body.push(0);
        assert!(matches!(Request::decode(t, &body), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        buf.push(REQ_STATS);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::FrameTooLarge { len }) if len == MAX_FRAME + 1
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_on_write() {
        let mut buf = Vec::new();
        let body = vec![0u8; MAX_FRAME];
        assert!(matches!(
            write_frame(&mut buf, REQ_STATS, &body),
            Err(ProtoError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }
}
