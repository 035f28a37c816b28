//! Property-based tests for nonblocking frame reassembly.
//!
//! The reactor's [`FrameAssembler`] sees bytes in whatever fragments
//! the kernel hands a nonblocking socket — mid-length-prefix splits,
//! one-byte reads, several frames coalesced into one read. Whatever
//! the fragmentation, it must decode *exactly* the frames the blocking
//! [`read_frame`] decoder produces from the same byte stream, fail
//! with the same typed errors, and reject hostile length prefixes
//! before buffering the claimed payload.
//!
//! Both interfaces are held to this: the owned one (`extend` +
//! `next_frame`) and the borrowed walk the reactor runs over each read
//! (`walk`), which additionally must never bank more than the one
//! partial frame at the end of a read.

use std::io::Cursor;

use iustitia_serve::proto::{read_frame, write_frame, ProtoError, MAX_FRAME};
use iustitia_serve::FrameAssembler;
use proptest::prelude::*;

/// A stream of valid frames as raw wire bytes plus the expected
/// decoded sequence.
fn encode_frames(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (type_byte, body) in frames {
        write_frame(&mut wire, *type_byte, body).expect("write to Vec");
    }
    wire
}

/// Feeds `wire` into an assembler in the given chunk sizes, draining
/// complete frames as they appear (as the reactor does after every
/// read burst).
fn reassemble(wire: &[u8], chunks: &[usize]) -> Result<Vec<(u8, Vec<u8>)>, ProtoError> {
    let mut asm = FrameAssembler::new();
    let mut decoded = Vec::new();
    let mut offset = 0usize;
    let mut chunk_iter = chunks.iter().copied().cycle();
    while offset < wire.len() {
        let take = chunk_iter.next().unwrap_or(1).max(1).min(wire.len() - offset);
        asm.extend(&wire[offset..offset + take]);
        offset += take;
        while let Some(frame) = asm.next_frame()? {
            decoded.push(frame);
        }
    }
    while let Some(frame) = asm.next_frame()? {
        decoded.push(frame);
    }
    Ok(decoded)
}

/// Feeds `wire` to an assembler as reads of the given sizes, each
/// decoded in place by a [`FrameAssembler::walk`] — as the reactor does.
/// Returns the frames, and the error that ended decoding: a walk's, or
/// at the end of the stream the assembler's `eof_error`.
///
/// After every read, what is banked must be a strict prefix of one
/// frame: at most the frame's own bytes, and less than all of them.
fn walk_reads(wire: &[u8], chunks: &[usize]) -> (Vec<(u8, Vec<u8>)>, Option<ProtoError>) {
    let mut asm = FrameAssembler::new();
    let mut decoded = Vec::new();
    let mut offset = 0usize;
    let mut chunk_iter = chunks.iter().copied().cycle();
    while offset < wire.len() {
        let take = chunk_iter.next().unwrap_or(1).max(1).min(wire.len() - offset);
        let mut walk = asm.walk(&wire[offset..offset + take]);
        offset += take;
        loop {
            match walk.next_frame() {
                Ok(Some((type_byte, body))) => decoded.push((type_byte, body.to_vec())),
                Ok(None) => break,
                Err(e) => return (decoded, Some(e)),
            }
        }
        let consumed: usize = decoded.iter().map(|(_, body)| body.len() + 5).sum();
        assert_eq!(asm.buffered_bytes(), offset - consumed, "everything undecoded is banked");
        if let Some(prefix) = wire[consumed..].first_chunk::<4>() {
            let frame = u32::from_be_bytes(*prefix) as usize + 4;
            assert!(asm.buffered_bytes() < frame, "banked bytes exceed one partial frame");
        }
    }
    (decoded, asm.eof_error())
}

/// The blocking decoder's view of the same bytes.
fn blocking_decode(wire: &[u8]) -> (Vec<(u8, Vec<u8>)>, Option<ProtoError>) {
    let mut cursor = Cursor::new(wire);
    let mut decoded = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(Some(frame)) => decoded.push(frame),
            Ok(None) => return (decoded, None),
            Err(e) => return (decoded, Some(e)),
        }
    }
}

fn arb_frames() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 0..200)), 0..8)
}

fn arb_chunks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..64, 1..16)
}

proptest! {
    /// Any fragmentation of a valid frame stream decodes to exactly
    /// the frames the blocking reader sees.
    #[test]
    fn arbitrary_splits_match_blocking_reader(frames in arb_frames(), chunks in arb_chunks()) {
        let wire = encode_frames(&frames);
        let (expected, err) = blocking_decode(&wire);
        prop_assert!(err.is_none(), "valid frames must decode cleanly");
        let decoded = reassemble(&wire, &chunks).expect("valid frames reassemble cleanly");
        prop_assert_eq!(&decoded, &expected);
        let (walked, walk_err) = walk_reads(&wire, &chunks);
        prop_assert!(walk_err.is_none(), "a valid stream ends at a frame boundary");
        prop_assert_eq!(walked, expected);
    }

    /// The degenerate fragmentation — one byte per read — still
    /// matches, including splits inside the length prefix itself.
    #[test]
    fn one_byte_reads_match_blocking_reader(frames in arb_frames()) {
        let wire = encode_frames(&frames);
        let (expected, _) = blocking_decode(&wire);
        let decoded = reassemble(&wire, &[1]).expect("valid frames reassemble cleanly");
        prop_assert_eq!(&decoded, &expected);
        prop_assert_eq!(walk_reads(&wire, &[1]).0, expected);
    }

    /// A frame that straddles three reads — its length prefix split
    /// from its body, its body split again — comes out of the walk
    /// byte-identical, whatever surrounds it.
    #[test]
    fn a_frame_straddling_three_reads_survives_the_walk(
        before in arb_frames(),
        type_byte in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 2..300),
        after in arb_frames(),
        first_cut in 1usize..4,
        second_cut_fraction in 0.0f64..1.0,
    ) {
        let lead = encode_frames(&before);
        let mut frames = before;
        frames.push((type_byte, body.clone()));
        frames.extend(after);
        let wire = encode_frames(&frames);
        // Read 1 ends inside the straddler's length prefix, read 2
        // inside its body, read 3 takes the rest of the stream.
        let second_cut = 5 + (((body.len() - 1) as f64) * second_cut_fraction) as usize;
        let reads = [lead.len() + first_cut, second_cut - first_cut, wire.len()];
        let (walked, err) = walk_reads(&wire, &reads);
        prop_assert!(err.is_none());
        prop_assert_eq!(walked, frames);
    }

    /// Garbage bytes produce the same terminal error (and the same
    /// prefix of valid frames) as the blocking reader, regardless of
    /// fragmentation.
    #[test]
    fn garbage_streams_fail_like_blocking_reader(
        frames in arb_frames(),
        garbage in proptest::collection::vec(any::<u8>(), 4..64),
        chunks in arb_chunks(),
    ) {
        let mut wire = encode_frames(&frames);
        wire.extend_from_slice(&garbage);
        let (expected, blocking_err) = blocking_decode(&wire);

        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        let mut streaming_err = None;
        let mut offset = 0usize;
        let mut chunk_iter = chunks.iter().copied().cycle();
        'feed: while offset < wire.len() {
            let take = chunk_iter.next().unwrap_or(1).min(wire.len() - offset);
            asm.extend(&wire[offset..offset + take]);
            offset += take;
            loop {
                match asm.next_frame() {
                    Ok(Some(frame)) => decoded.push(frame),
                    Ok(None) => break,
                    Err(e) => {
                        streaming_err = Some(e);
                        break 'feed;
                    }
                }
            }
        }
        // Trailing partial frame: EOF semantics come from eof_error.
        if streaming_err.is_none() && !asm.at_frame_boundary() {
            streaming_err = asm.eof_error();
        }

        prop_assert_eq!(&decoded, &expected);
        let (walked, walk_err) = walk_reads(&wire, &chunks);
        prop_assert_eq!(walked, expected);
        for streaming_err in [streaming_err, walk_err] {
            match (streaming_err, &blocking_err) {
                (None, None) => {}
                (Some(s), Some(b)) => prop_assert_eq!(s.to_string(), b.to_string()),
                (s, b) => prop_assert!(false, "error mismatch: streaming={s:?} blocking={b:?}"),
            }
        }
    }

    /// A hostile length prefix larger than [`MAX_FRAME`] is rejected
    /// as soon as the 4-byte prefix is complete — before any of the
    /// claimed payload is buffered.
    #[test]
    fn oversized_length_rejected_before_buffering(
        len in (MAX_FRAME as u32 + 1)..=u32::MAX,
        chunk in 1usize..4,
    ) {
        let mut asm = FrameAssembler::new();
        let header = len.to_be_bytes();
        // Feed the prefix fragment by fragment; no error until it is
        // complete, and never a request for payload bytes.
        for piece in header.chunks(chunk) {
            asm.extend(piece);
        }
        let err = asm.next_frame().expect_err("oversized length must be rejected");
        prop_assert!(matches!(err, ProtoError::FrameTooLarge { .. }));
        // Only the 4 header bytes ever entered the buffer.
        prop_assert!(asm.buffered_bytes() <= 4);

        // The walk: the same prefix in the same fragments, the last of
        // them followed by bytes of the payload it claims.
        let mut asm = FrameAssembler::new();
        let mut pieces: Vec<Vec<u8>> = header.chunks(chunk).map(<[u8]>::to_vec).collect();
        pieces.last_mut().expect("a 4-byte header has pieces").extend_from_slice(&[0x5A; 32]);
        let mut outcome = Ok(());
        for piece in &pieces {
            let mut walk = asm.walk(piece);
            while outcome.is_ok() {
                match walk.next_frame() {
                    Ok(Some(_)) => prop_assert!(false, "no frame can come of a hostile prefix"),
                    Ok(None) => break,
                    Err(e) => outcome = Err(e),
                }
            }
        }
        prop_assert!(matches!(outcome, Err(ProtoError::FrameTooLarge { .. })));
        prop_assert!(asm.buffered_bytes() <= 4, "a hostile prefix banks at most itself");
    }

    /// A truncated stream (EOF mid-frame) reports the same
    /// `Truncated { expected, got }` the blocking reader reports.
    #[test]
    fn eof_mid_frame_matches_blocking_truncation(
        type_byte in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 1..100),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, type_byte, &body).expect("write to Vec");
        let cut = 1 + ((wire.len() - 2) as f64 * cut_fraction) as usize; // 1..wire.len()-1
        let truncated = &wire[..cut];

        let (_, blocking_err) = blocking_decode(truncated);

        let mut asm = FrameAssembler::new();
        asm.extend(truncated);
        let streaming = asm.next_frame();
        let streaming_err = match streaming {
            Ok(Some(_)) => None,
            Ok(None) => asm.eof_error(),
            Err(e) => Some(e),
        };
        let (_, walk_err) = walk_reads(truncated, &[truncated.len()]);
        for streaming_err in [streaming_err, walk_err] {
            match (streaming_err, &blocking_err) {
                (Some(s), Some(b)) => prop_assert_eq!(s.to_string(), b.to_string()),
                (s, b) => {
                    prop_assert!(false, "truncation mismatch: streaming={s:?} blocking={b:?}")
                }
            }
        }
    }
}
