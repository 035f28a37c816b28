//! Per-connection byte-level state machines for the event-driven
//! frontend: incremental frame reassembly and buffered non-blocking
//! writes.
//!
//! A blocking reader can simply call [`read_frame`](crate::proto::read_frame)
//! and let the socket park the thread mid-frame. A readiness-based
//! reactor cannot: a connection's bytes arrive in arbitrary slices —
//! possibly one byte at a time, possibly splitting the 4-byte length
//! prefix — and the reactor must deal with whatever arrived and move on
//! to the next ready socket.
//!
//! [`FrameAssembler`] decodes frames **where the read put them**. The
//! reactor reads into one scratch buffer shared by every connection and
//! hands the bytes to [`FrameAssembler::walk`]; the [`FrameWalk`] yields
//! each complete frame as a `(type, &[u8])` borrow of those bytes, and
//! banks only what is left over — the incomplete frame at the end of
//! the read. The next read completes that frame by copying *just its
//! missing bytes* into the bank, and decoding continues in place after
//! it. So a connection allocates a buffer only once one of its frames
//! straddles two reads (and keeps at most 64 KiB of it when it empties),
//! the bank never holds more than one partial frame, and a payload that
//! arrives whole is never copied here.
//!
//! The validation rules are *exactly* those of `read_frame` (zero-length
//! frames are malformed, length prefixes above [`MAX_FRAME`] are
//! rejected as soon as the prefix itself is readable — with at most
//! those 4 bytes banked — and EOF mid-frame is a typed
//! [`ProtoError::Truncated`]), applied by one function, `claimed_len`.
//! The owned interface — [`extend`](FrameAssembler::extend),
//! [`fill_from`](FrameAssembler::fill_from),
//! [`next_frame`](FrameAssembler::next_frame) — banks whole reads and
//! runs the same walk over the bank. The equivalence is pinned by the
//! vendored-proptest suite in `crates/serve/tests/reassembly_properties.rs`.
//!
//! [`WriteBuffer`] is the mirror image for the write half: responses
//! are framed into a connection-local buffer and drained opportunistically;
//! when the socket signals `EWOULDBLOCK` the leftover stays put and the
//! reactor re-arms write interest for that connection only.

use std::io::{Read, Write};

use crate::proto::{frame_header, ProtoError, MAX_FRAME};

/// Compact the bank once this many consumed bytes accumulate at its
/// front (keeps the buffer from creeping while avoiding a memmove per
/// frame). Only the owned interface leaves consumed bytes in front of
/// live ones.
const COMPACT_AT: usize = 16 * 1024;

/// An emptied bank keeps its allocation up to this capacity and
/// releases anything larger, so one large frame does not pin its size
/// on the connection for life.
const BANK_KEEP: usize = 64 * 1024;

/// The frame length the prefix at the front of `bytes` claims, once
/// its 4 bytes are there — validated: the one place the framing rules
/// live.
fn claimed_len(bytes: &[u8]) -> Result<Option<usize>, ProtoError> {
    let Some((prefix, _)) = bytes.split_first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_be_bytes(*prefix) as usize;
    if len == 0 {
        return Err(ProtoError::Malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge { len });
    }
    Ok(Some(len))
}

/// A frame split off the front of a run of bytes, where it lies.
struct FrontFrame<'a> {
    type_byte: u8,
    body: &'a [u8],
    /// The bytes after the frame.
    rest: &'a [u8],
}

/// Splits the frame at the front of `bytes` off it; `Ok(None)` until
/// all of it is there.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] and [`ProtoError::Malformed`], as soon
/// as the 4-byte length prefix is there to be judged.
fn split_frame(bytes: &[u8]) -> Result<Option<FrontFrame<'_>>, ProtoError> {
    let Some(len) = claimed_len(bytes)? else { return Ok(None) };
    let whole = bytes.get(4..).and_then(|after| after.split_at_checked(len));
    Ok(whole.and_then(|(frame, rest)| {
        frame.split_first().map(|(&type_byte, body)| FrontFrame { type_byte, body, rest })
    }))
}

/// The typed error an EOF after `pending` — bytes no frame has consumed
/// — implies, mirroring [`read_frame`](crate::proto::read_frame): `None`
/// at a frame boundary, [`ProtoError::Truncated`] mid-prefix or
/// mid-frame.
fn truncation(pending: &[u8]) -> Option<ProtoError> {
    match pending.split_first_chunk::<4>() {
        None if pending.is_empty() => None,
        None => Some(ProtoError::Truncated { expected: 4, got: pending.len() }),
        Some((prefix, body)) => Some(ProtoError::Truncated {
            expected: u32::from_be_bytes(*prefix) as usize,
            got: body.len(),
        }),
    }
}

/// Removes the first `n` elements of `items` (all of them when it has
/// fewer).
pub(crate) fn drop_front<T: Copy>(items: &mut Vec<T>, n: usize) {
    let n = n.min(items.len());
    // lint: allow(L008) — n <= len, clamped on the line above
    items.copy_within(n.., 0);
    items.truncate(items.len() - n);
}

/// Incremental reassembly of length-prefixed frames from a
/// non-blocking byte stream.
///
/// Decode a read in place with [`walk`](Self::walk); or feed arbitrary
/// slices with [`extend`](Self::extend) (or straight from a socket with
/// [`fill_from`](Self::fill_from)) and pull owned frames with
/// [`next_frame`](Self::next_frame).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Undecoded bytes. Under [`walk`](Self::walk) alone, at most one
    /// partial frame.
    bank: Vec<u8>,
    /// Bytes at the front of `bank` already yielded as frames.
    start: usize,
}

/// One read's bytes being decoded in place; see [`FrameAssembler::walk`].
#[derive(Debug)]
pub struct FrameWalk<'a> {
    asm: &'a mut FrameAssembler,
    input: &'a [u8],
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Starts decoding `input` — the bytes one read returned — after
    /// whatever is banked. Call [`FrameWalk::next_frame`] until it
    /// returns `Ok(None)`: by then every complete frame has been
    /// yielded and the incomplete tail, if any, is banked.
    pub fn walk<'a>(&'a mut self, input: &'a [u8]) -> FrameWalk<'a> {
        FrameWalk { asm: self, input }
    }

    /// Banks `bytes` at the end of the unprocessed tail.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.bank.extend_from_slice(bytes);
    }

    /// Reads once from `r` (expected non-blocking) into the bank.
    /// Returns the byte count (`Ok(0)` is EOF); `WouldBlock` and
    /// `Interrupted` surface as ordinary errors for the caller to
    /// classify.
    ///
    /// # Errors
    ///
    /// Any transport error from `r`, including `WouldBlock`.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, scratch: &mut [u8]) -> std::io::Result<usize> {
        let n = r.read(scratch)?;
        self.extend(scratch.get(..n).unwrap_or(&[]));
        Ok(n)
    }

    /// The banked bytes no frame has consumed yet.
    fn pending(&self) -> &[u8] {
        self.bank.get(self.start..).unwrap_or(&[])
    }

    /// Bytes currently banked and not yet consumed by a decoded frame.
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.pending().len()
    }

    /// Whether the stream sits at a clean frame boundary (an EOF here
    /// is a graceful close, anywhere else it is truncation).
    #[must_use]
    pub fn at_frame_boundary(&self) -> bool {
        self.buffered_bytes() == 0
    }

    /// The typed error an EOF at the current position implies, mirroring
    /// [`read_frame`](crate::proto::read_frame): `None` at a frame
    /// boundary, [`ProtoError::Truncated`] mid-prefix or mid-frame.
    #[must_use]
    pub fn eof_error(&self) -> Option<ProtoError> {
        truncation(self.pending())
    }

    /// Yields the next complete frame as `(type_byte, body)`, or
    /// `Ok(None)` when more bytes are needed: one step of a
    /// [`walk`](Self::walk) over the bank alone, copied out.
    ///
    /// Validation order matches `read_frame`: the length prefix is
    /// checked the moment its 4 bytes are available — a hostile
    /// `len > MAX_FRAME` is rejected *before* any payload byte is
    /// banked for it, and a zero-length frame is malformed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] and [`ProtoError::Malformed`] as
    /// described; the assembler should be discarded after an error.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ProtoError> {
        let mut walk = self.walk(&[]);
        Ok(walk.next_frame()?.map(|(type_byte, body)| (type_byte, body.to_vec())))
    }

    /// Drops consumed front bytes: all of them once the bank has
    /// emptied (releasing an allocation above [`BANK_KEEP`]), otherwise
    /// once they pass the compaction threshold.
    fn compact(&mut self) {
        if self.start == self.bank.len() {
            if self.bank.capacity() > BANK_KEEP {
                self.bank = Vec::new();
            }
            self.bank.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            drop_front(&mut self.bank, self.start);
            self.start = 0;
        }
    }
}

impl<'a> FrameWalk<'a> {
    /// The next complete frame, borrowed from the read's bytes — or,
    /// for a frame that straddled two reads, from the bank that
    /// completed it. `Ok(None)` means the input is used up.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] and [`ProtoError::Malformed`], by
    /// the rules of [`FrameAssembler::next_frame`]; the assembler
    /// should be discarded after an error.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, ProtoError> {
        self.asm.compact();
        if self.asm.bank.is_empty() {
            return self.next_in_place();
        }
        // A banked frame comes first. Top it up from the input with
        // exactly what it lacks: the rest of its prefix, then — once
        // the prefix has passed validation — the rest of its body.
        self.bank_input(4usize.saturating_sub(self.asm.buffered_bytes()));
        if let Some(len) = claimed_len(self.asm.pending())? {
            self.bank_input(len.saturating_add(4).saturating_sub(self.asm.buffered_bytes()));
        }
        let start = self.asm.start;
        let Some(frame) = split_frame(self.asm.bank.get(start..).unwrap_or(&[]))? else {
            return Ok(None);
        };
        self.asm.start = self.asm.bank.len().saturating_sub(frame.rest.len());
        Ok(Some((frame.type_byte, frame.body)))
    }

    /// Decodes the frame at the front of the input where it lies; banks
    /// the input instead when the frame there is incomplete.
    fn next_in_place(&mut self) -> Result<Option<(u8, &[u8])>, ProtoError> {
        let input = self.input;
        if let Some(frame) = split_frame(input)? {
            self.input = frame.rest;
            return Ok(Some((frame.type_byte, frame.body)));
        }
        self.bank_input(input.len());
        Ok(None)
    }

    /// Moves up to `n` bytes from the front of the input to the bank.
    fn bank_input(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let (taken, rest) = self.input.split_at_checked(n).unwrap_or((self.input, &[]));
        // lint: allow(L009) — only a frame that straddles two reads is banked; the bank keeps up to BANK_KEEP
        self.asm.bank.extend_from_slice(taken);
        self.input = rest;
    }
}

/// Buffered frames awaiting a writable socket.
///
/// Frames are encoded straight into one flat buffer; `flush_to` drains
/// as much as the peer will take and leaves the rest for the next
/// writability event.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl WriteBuffer {
    /// An empty write buffer.
    #[must_use]
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Appends one frame (`type_byte` + `body`) to the pending bytes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] if the frame exceeds the protocol
    /// cap (nothing is appended in that case).
    pub fn push_frame(&mut self, type_byte: u8, body: &[u8]) -> Result<(), ProtoError> {
        let header = frame_header(type_byte, body.len())?;
        self.buf.extend_from_slice(&header);
        self.buf.extend_from_slice(body);
        Ok(())
    }

    /// Bytes still awaiting the wire.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// Whether everything has been flushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Writes as much pending data as `w` accepts right now. Returns
    /// `Ok(true)` when the buffer fully drained, `Ok(false)` when the
    /// peer would block (write interest should be re-armed).
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock`/`Interrupted`; a
    /// zero-byte write is reported as `WriteZero`.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> std::io::Result<bool> {
        while self.start < self.buf.len() {
            let pending = self.buf.get(self.start..).unwrap_or(&[]);
            match w.write(pending) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(n) => self.start = self.start.saturating_add(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame, Request};

    fn frame_bytes(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (t, body) in frames {
            write_frame(&mut out, *t, body).unwrap();
        }
        out
    }

    #[test]
    fn whole_frames_come_back_out() {
        let frames = vec![(0x03, vec![]), (0x02, vec![1, 2, 3])];
        let mut asm = FrameAssembler::new();
        asm.extend(&frame_bytes(&frames));
        assert_eq!(asm.next_frame().unwrap(), Some((0x03, vec![])));
        assert_eq!(asm.next_frame().unwrap(), Some((0x02, vec![1, 2, 3])));
        assert_eq!(asm.next_frame().unwrap(), None);
        assert!(asm.at_frame_boundary());
        assert!(asm.eof_error().is_none());
    }

    #[test]
    fn one_byte_feeds_split_the_length_prefix() {
        let (t, body) = Request::ClassifyBuffer(vec![7; 9]).encode().unwrap();
        let bytes = frame_bytes(&[(t, body.clone())]);
        let mut asm = FrameAssembler::new();
        for (i, b) in bytes.iter().enumerate() {
            assert!(!asm.at_frame_boundary() || i == 0 || i == bytes.len());
            asm.extend(std::slice::from_ref(b));
            if i + 1 < bytes.len() {
                assert_eq!(asm.next_frame().unwrap(), None, "frame complete early at byte {i}");
            }
        }
        assert_eq!(asm.next_frame().unwrap(), Some((t, body)));
    }

    #[test]
    fn oversized_length_rejected_before_payload_arrives() {
        let mut asm = FrameAssembler::new();
        // Only the hostile prefix, not a single payload byte.
        asm.extend(&((MAX_FRAME as u32) + 1).to_be_bytes());
        assert!(matches!(
            asm.next_frame(),
            Err(ProtoError::FrameTooLarge { len }) if len == MAX_FRAME + 1
        ));
        assert_eq!(asm.buffered_bytes(), 4, "nothing was banked for the bogus frame");
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut asm = FrameAssembler::new();
        asm.extend(&0u32.to_be_bytes());
        assert!(matches!(asm.next_frame(), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn eof_error_mirrors_read_frame() {
        // Mid-prefix.
        let mut asm = FrameAssembler::new();
        asm.extend(&[0, 0]);
        assert!(matches!(asm.eof_error(), Some(ProtoError::Truncated { expected: 4, got: 2 })));

        // Mid-frame: same expectation read_frame reports for the
        // identical byte stream.
        let (t, body) = Request::ClassifyBuffer(vec![1; 100]).encode().unwrap();
        let mut bytes = frame_bytes(&[(t, body)]);
        bytes.truncate(bytes.len() - 10);
        let mut asm = FrameAssembler::new();
        asm.extend(&bytes);
        assert_eq!(asm.next_frame().unwrap(), None);
        let Some(ProtoError::Truncated { expected, got }) = asm.eof_error() else {
            panic!("expected truncation");
        };
        let mut cursor = std::io::Cursor::new(bytes);
        let Err(ProtoError::Truncated { expected: re, got: rg }) = read_frame(&mut cursor) else {
            panic!("read_frame should report truncation");
        };
        assert_eq!((expected, got), (re, rg));
    }

    #[test]
    fn compaction_preserves_the_stream() {
        let mut asm = FrameAssembler::new();
        let frames: Vec<(u8, Vec<u8>)> = (0..200).map(|i| (0x02, vec![i as u8; 200])).collect();
        let bytes = frame_bytes(&frames);
        let mut decoded = Vec::new();
        for chunk in bytes.chunks(333) {
            asm.extend(chunk);
            while let Some(frame) = asm.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
    }

    /// Walks `wire` as a sequence of reads of the given sizes.
    fn walk_reads(asm: &mut FrameAssembler, wire: &[u8], reads: &[usize]) -> Vec<(u8, Vec<u8>)> {
        let mut decoded = Vec::new();
        let mut rest = wire;
        for &size in reads.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (read, after) = rest.split_at(size.min(rest.len()));
            rest = after;
            let mut walk = asm.walk(read);
            while let Some((t, body)) = walk.next_frame().unwrap() {
                decoded.push((t, body.to_vec()));
            }
        }
        decoded
    }

    #[test]
    fn walk_yields_frames_in_place_and_banks_only_the_tail() {
        let frames: Vec<(u8, Vec<u8>)> = (0..5).map(|i| (0x01, vec![i; 40])).collect();
        let wire = frame_bytes(&frames);
        let mut asm = FrameAssembler::new();
        // Three whole frames and 10 bytes of the fourth.
        let read = &wire[..3 * 45 + 10];
        let mut walk = asm.walk(read);
        let mut seen = 0;
        while let Some((_, body)) = walk.next_frame().unwrap() {
            let offset = body.as_ptr() as usize - read.as_ptr() as usize;
            assert_eq!(offset, seen * 45 + 5, "frame {seen} is a borrow of the read itself");
            seen += 1;
        }
        assert_eq!(seen, 3);
        assert_eq!(asm.buffered_bytes(), 10, "only the partial frame is banked");
        // The next read completes it with just its missing bytes.
        let decoded = walk_reads(&mut asm, &wire[3 * 45 + 10..], &[1000]);
        assert_eq!(decoded, frames[3..]);
        assert!(asm.at_frame_boundary());
    }

    #[test]
    fn a_frame_straddling_three_reads_completes_from_the_bank() {
        let frames = vec![(0x02, vec![9u8; 100]), (0x03, vec![]), (0x02, vec![7u8; 3])];
        let wire = frame_bytes(&frames);
        for reads in [&[2usize, 50, 1000][..], &[1], &[4, 1, 99], &[3, 3, 3, 200]] {
            let mut asm = FrameAssembler::new();
            assert_eq!(walk_reads(&mut asm, &wire, reads), frames, "reads of {reads:?}");
            assert!(asm.at_frame_boundary());
        }
    }

    #[test]
    fn walk_and_owned_interface_share_one_stream() {
        // Bytes banked with `extend` are decoded by a later walk, ahead
        // of the walk's own input.
        let frames = vec![(0x02, vec![1u8; 10]), (0x02, vec![2u8; 10]), (0x02, vec![3u8; 10])];
        let wire = frame_bytes(&frames);
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..20]);
        assert_eq!(walk_reads(&mut asm, &wire[20..], &[1000]), frames);
    }

    #[test]
    fn a_hostile_prefix_split_across_reads_banks_four_bytes_at_most() {
        let prefix = ((MAX_FRAME as u32) + 1).to_be_bytes();
        let mut asm = FrameAssembler::new();
        assert!(asm.walk(&prefix[..3]).next_frame().unwrap().is_none());
        let mut read = prefix[3..].to_vec();
        read.extend_from_slice(&[0xAA; 64]);
        assert!(matches!(asm.walk(&read).next_frame(), Err(ProtoError::FrameTooLarge { .. })));
        assert_eq!(asm.buffered_bytes(), 4, "none of the claimed payload was banked");
        // At a frame boundary nothing is banked at all.
        let mut asm = FrameAssembler::new();
        let mut hostile = prefix.to_vec();
        hostile.extend_from_slice(&[0xAA; 64]);
        assert!(asm.walk(&hostile).next_frame().is_err());
        assert_eq!(asm.buffered_bytes(), 0);
    }

    #[test]
    fn the_bank_lets_go_of_a_large_frame_once_it_empties() {
        let big = (0x02, vec![0x5A; MAX_FRAME - 1]);
        let small: Vec<(u8, Vec<u8>)> = (0..4).map(|i| (0x02, vec![i; 20])).collect();
        let mut asm = FrameAssembler::new();
        // A 1 MiB frame arriving in 64 KiB reads is assembled in the bank.
        let wire = frame_bytes(std::slice::from_ref(&big));
        let (most, last) = wire.split_at(wire.len() - 10);
        assert!(walk_reads(&mut asm, most, &[64 * 1024]).is_empty());
        assert_eq!(asm.buffered_bytes(), most.len());
        assert!(asm.bank.capacity() >= most.len());
        assert_eq!(walk_reads(&mut asm, last, &[10]), vec![big]);
        // Small frames afterwards, split so that they use the bank too.
        assert_eq!(walk_reads(&mut asm, &frame_bytes(&small), &[7]), small);
        assert!(asm.at_frame_boundary());
        assert!(
            asm.bank.capacity() <= BANK_KEEP,
            "an idle connection keeps at most {BANK_KEEP} bytes, not {}",
            asm.bank.capacity()
        );
    }

    #[test]
    fn write_buffer_drains_across_partial_writes() {
        /// Accepts at most `cap` bytes per write, then blocks once.
        struct Dribble {
            out: Vec<u8>,
            cap: usize,
            block_next: bool,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                self.block_next = true;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut wb = WriteBuffer::new();
        wb.push_frame(0x85, &7u32.to_be_bytes()).unwrap();
        wb.push_frame(0x83, &[2]).unwrap();
        let expect = {
            let mut v = Vec::new();
            write_frame(&mut v, 0x85, &7u32.to_be_bytes()).unwrap();
            write_frame(&mut v, 0x83, &[2]).unwrap();
            v
        };
        let mut sink = Dribble { out: Vec::new(), cap: 3, block_next: false };
        let mut rounds = 0;
        loop {
            rounds += 1;
            if wb.flush_to(&mut sink).unwrap() {
                break;
            }
        }
        assert!(rounds > 1, "the dribbling sink must force re-arms");
        assert_eq!(sink.out, expect);
        assert!(wb.is_empty());
    }

    #[test]
    fn write_buffer_rejects_oversized_frames_without_buffering() {
        let mut wb = WriteBuffer::new();
        let body = vec![0u8; MAX_FRAME];
        assert!(wb.push_frame(0x81, &body).is_err());
        assert!(wb.is_empty(), "rejected frame left no partial bytes behind");
    }
}
