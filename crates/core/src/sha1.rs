//! SHA-1, implemented from scratch (FIPS 180-1).
//!
//! The paper identifies each flow by a 160-bit SHA-1 hash of its packet
//! header fields ("We use SHA-1 to create 160 bit hash result for each
//! flow", §4.5); CDB records store the full digest. SHA-1 is not
//! collision-resistant by modern standards, but flow identification
//! only needs second-preimage scarcity over 13-byte inputs, so we
//! reproduce the paper's choice faithfully.
//!
//! There is one compression function, `compress`, over a 16-word
//! circular message schedule. [`sha1`] pads arbitrary input into blocks
//! for it; [`sha1_13`] lays a 13-byte flow key, its padding and its bit
//! length straight into the sixteen words of a single block — the flow
//! hash runs once per packet, so it skips the byte staging.

/// A 160-bit SHA-1 digest.
pub type Digest = [u8; 20];

/// The initial hash value (FIPS 180-1 §7).
const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Computes the SHA-1 digest of `data`.
///
/// # Examples
///
/// ```
/// use iustitia::sha1::sha1;
///
/// let digest = sha1(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// # fn hex(d: &[u8]) -> String {
/// #     d.iter().map(|b| format!("{b:02x}")).collect()
/// # }
/// ```
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = H0;

    // Full blocks straight from the input; the remainder and padding
    // (0x80, zeros, 64-bit big-endian bit length) go through a fixed
    // stack buffer of at most two blocks — no heap allocation.
    let (blocks, rem) = data.as_chunks::<64>();
    let mut tail = [0u8; 128];
    for (dst, &src) in tail.iter_mut().zip(rem.iter().chain(&[0x80])) {
        *dst = src;
    }
    let tail_blocks = if rem.len() < 56 { 1 } else { 2 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    // The length's bytes, last first, onto the end of the last block.
    for (dst, src) in tail.iter_mut().take(tail_blocks * 64).rev().zip(bit_len.to_le_bytes()) {
        *dst = src;
    }
    for block in blocks.iter().chain(tail.as_chunks::<64>().0.iter().take(tail_blocks)) {
        compress(&mut h, block_words(block));
    }
    digest_of(&h)
}

/// The SHA-1 digest of a 13-byte input — the flow key of
/// [`FlowId::of_tuple`](crate::cdb::FlowId::of_tuple). Equal to
/// [`sha1`] on the same bytes: thirteen bytes, the `0x80` terminator
/// and the bit length (104) fit one block, built here word by word.
pub fn sha1_13(input: &[u8; 13]) -> Digest {
    let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12] = *input;
    let mut h = H0;
    compress(
        &mut h,
        [
            u32::from_be_bytes([b0, b1, b2, b3]),
            u32::from_be_bytes([b4, b5, b6, b7]),
            u32::from_be_bytes([b8, b9, b10, b11]),
            u32::from_be_bytes([b12, 0x80, 0, 0]),
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            13 * 8,
        ],
    );
    digest_of(&h)
}

/// A 64-byte block as sixteen big-endian words.
fn block_words(block: &[u8; 64]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (wi, quad) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*quad);
    }
    w
}

/// The five state words as the big-endian digest.
fn digest_of(h: &[u32; 5]) -> Digest {
    let mut out = [0u8; 20];
    for (dst, src) in out.iter_mut().zip(h.iter().flat_map(|word| word.to_be_bytes())) {
        *dst = src;
    }
    out
}

/// Schedule word `t`, from the sixteen-word ring that holds the most
/// recent ones (word `t` lives in slot `t mod 16`).
#[inline(always)]
fn word(w: &[u32; 16], t: usize) -> u32 {
    w.get(t & 15).copied().unwrap_or_default()
}

/// Rounds `t0 .. t0 + 5`, each with the round function and constant
/// of its twenty-round stage.
///
/// Only the last sixteen schedule words are ever read again, so they
/// live in a ring: from round 16 on, word `t` overwrites word `t - 16`.
/// Inlined at sixteen literal `t0`s, the five-round loop unrolls: the
/// stage `match` folds away, every ring slot is a constant and the ring
/// lives in registers.
#[inline(always)]
fn five_rounds(state: &mut [u32; 5], w: &mut [u32; 16], t0: usize) {
    for t in t0..t0 + 5 {
        if t >= 16 {
            let mixed = word(w, t + 13) ^ word(w, t + 8) ^ word(w, t + 2) ^ word(w, t);
            if let Some(slot) = w.get_mut(t & 15) {
                *slot = mixed.rotate_left(1);
            }
        }
        let [a, b, c, d, e] = *state;
        let (f, k) = match t / 20 {
            0 => ((b & c) | (!b & d), 0x5A827999),
            1 => (b ^ c ^ d, 0x6ED9EBA1),
            2 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let temp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(word(w, t));
        *state = [temp, a, b.rotate_left(30), c, d];
    }
}

/// One SHA-1 compression over a block's sixteen words: eighty rounds,
/// five at a time.
fn compress(h: &mut [u32; 5], mut w: [u32; 16]) {
    let mut state = *h;
    five_rounds(&mut state, &mut w, 0);
    five_rounds(&mut state, &mut w, 5);
    five_rounds(&mut state, &mut w, 10);
    five_rounds(&mut state, &mut w, 15);
    five_rounds(&mut state, &mut w, 20);
    five_rounds(&mut state, &mut w, 25);
    five_rounds(&mut state, &mut w, 30);
    five_rounds(&mut state, &mut w, 35);
    five_rounds(&mut state, &mut w, 40);
    five_rounds(&mut state, &mut w, 45);
    five_rounds(&mut state, &mut w, 50);
    five_rounds(&mut state, &mut w, 55);
    five_rounds(&mut state, &mut w, 60);
    five_rounds(&mut state, &mut w, 65);
    five_rounds(&mut state, &mut w, 70);
    five_rounds(&mut state, &mut w, 75);
    for (hi, v) in h.iter_mut().zip(state) {
        *hi = hi.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn padding_boundaries() {
        // Inputs of exactly 55, 56, 63, 64 bytes exercise the padding
        // edge cases (55 fits one block; 56+ spills to two).
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x42u8; n];
            let d1 = sha1(&data);
            let d2 = sha1(&data);
            assert_eq!(d1, d2);
            assert_ne!(d1, [0u8; 20]);
        }
    }

    #[test]
    fn single_block_entry_equals_generic_sha1_on_random_flow_keys() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A1);
        for _ in 0..5_000 {
            let key: [u8; 13] = std::array::from_fn(|_| rng.gen());
            assert_eq!(sha1_13(&key), sha1(&key), "key {key:02x?}");
        }
        assert_eq!(sha1_13(&[0; 13]), sha1(&[0; 13]));
        assert_eq!(sha1_13(&[0xFF; 13]), sha1(&[0xFF; 13]));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"flow-a"), sha1(b"flow-b"));
        assert_ne!(sha1(b"\x00"), sha1(b"\x00\x00"));
    }
}
