//! Incremental (per-packet) construction of entropy vectors.
//!
//! A pending flow does not buffer its first `b` payload bytes: each
//! packet is folded into one [`GramHistogram`] per feature width as it
//! arrives, so what a flow holds is its counter tables — a dense 2 KiB
//! array for `k = 1` and, for every wider `k`, an open table reserved
//! for the `b` bytes announced up front
//! ([`with_byte_hint`](IncrementalVector::with_byte_hint)): ≈ 147 KiB
//! for the four `φ′_SVM` widths at `b = 2048`, ≈ 5 KiB at `b = 32`.
//!
//! One rolling packed window is shared by every width. It holds the
//! last 16 bytes fed (`key = (key << 8) | b`; older bytes fall off the
//! top of the `u128`). After byte number `t ≥ k` of the stream, the low
//! `8k` bits of the key are exactly the window of bytes
//! `t−k+1 ..= t` — the `t−k+1`-th `k`-gram of the concatenated input.
//! Each width `k` therefore records one window per byte once at least
//! `k` bytes have been fed, which enumerates precisely the
//! `total − k + 1` windows of the contiguous input, each exactly once,
//! regardless of how the input was chunked. Because the key carries
//! across [`update`](IncrementalVector::update) calls, no per-chunk
//! carry buffer is needed and chunked ≡ one-shot holds by construction.
//!
//! The **bit-identical-finish invariant**: [`IncrementalVector::finish`]
//! is bit-for-bit equal to [`EntropyVector::compute`] on the
//! concatenated chunks, because equal window enumerations give equal
//! gram-count multisets, and every histogram turns its multiset into
//! `Σ c·log₂c` as an exact fixed-point integer
//! ([`c_log2_c`](crate::fastmap::c_log2_c)) — integer addition gives
//! the same sum in any order, so no slot-order, capacity or
//! storage-tier difference survives into a float. The open tables keep
//! that sum as they count, and the dense `k = 1` tier lists the bytes
//! it has seen, so finishing after every packet (the anytime probe)
//! reads one integer per open table and the `k = 1` counters the
//! window touched, never a whole table.

use crate::histogram::GramHistogram;
use crate::vector::{entropy_of_histogram, EntropyVector, FeatureWidths};

/// Streaming builder of an [`EntropyVector`], fed one chunk at a time.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::{EntropyVector, FeatureWidths, IncrementalVector};
///
/// let widths = FeatureWidths::svm_selected();
/// let data = b"incremental equals one-shot, byte for byte";
/// let mut inc = IncrementalVector::new(&widths);
/// for chunk in data.chunks(7) {
///     inc.update(chunk);
/// }
/// assert_eq!(inc.finish().values(), EntropyVector::compute(data, &widths).values());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalVector {
    widths: FeatureWidths,
    hists: Vec<GramHistogram>,
    /// Rolling window of the last ≤16 bytes fed (older bytes shift off
    /// the top; every `k ≤ 16` mask still sees its full window).
    key: u128,
    total: u64,
}

impl IncrementalVector {
    /// Creates an empty builder for the given feature widths.
    pub fn new(widths: &FeatureWidths) -> Self {
        IncrementalVector {
            // lint: allow(L009) — flow-setup cold path: the builder is constructed once per flow, then pooled
            widths: widths.clone(),
            // lint: allow(L009) — flow-setup cold path: the builder is constructed once per flow, then pooled
            hists: widths.iter().map(GramHistogram::new).collect(),
            key: 0,
            total: 0,
        }
    }

    /// Like [`new`](Self::new), but pre-sized for a flow that will feed
    /// about `bytes` payload bytes (the pipeline's classification
    /// window `b`), so filling the window never rehashes mid-flow.
    pub fn with_byte_hint(widths: &FeatureWidths, bytes: usize) -> Self {
        let mut v = Self::new(widths);
        v.reserve_bytes(bytes);
        v
    }

    /// Pre-sizes every per-width histogram for `bytes` total payload.
    pub fn reserve_bytes(&mut self, bytes: usize) {
        for hist in &mut self.hists {
            hist.reserve_bytes(bytes);
        }
    }

    /// Folds one chunk of payload into every per-width histogram.
    ///
    /// Each width consumes the chunk as one contiguous slab
    /// ([`GramHistogram::extend_packed_carry`]): the storage tier and
    /// key width are resolved once per width per chunk, not per byte.
    /// The enumerated windows are those of the module docs'
    /// rolling-window argument applied per width, so chunked ≡ one-shot
    /// holds bit-for-bit.
    pub fn update(&mut self, chunk: &[u8]) {
        if chunk.is_empty() {
            return;
        }
        let (prev_key, total) = (self.key, self.total);
        for hist in &mut self.hists {
            hist.extend_packed_carry(prev_key, total, chunk);
        }
        // Advance the shared rolling window: only the last ≤16 bytes of
        // the chunk survive in the key (older ones shift off the top),
        // so folding just the tail is byte-for-byte what the per-byte
        // roll would leave behind.
        let tail = chunk.get(chunk.len().saturating_sub(16)..).unwrap_or(chunk);
        let mut key = prev_key;
        for &b in tail {
            key = (key << 8) | u128::from(b);
        }
        self.key = key;
        self.total = total + chunk.len() as u64;
    }

    /// Resets the builder to its freshly-created state while keeping
    /// every histogram's allocations, so pooled flow state recycles
    /// without touching the allocator.
    pub fn reset(&mut self) {
        for hist in &mut self.hists {
            hist.clear();
        }
        self.key = 0;
        self.total = 0;
    }

    /// Total bytes fed so far.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// The feature widths this builder produces.
    pub fn widths(&self) -> &FeatureWidths {
        &self.widths
    }

    /// Counters currently resident: one per distinct gram per width
    /// (the exact-mode per-flow state cost, Formula 3's `α`).
    pub fn counters_used(&self) -> usize {
        self.hists.iter().map(GramHistogram::counters_used).sum()
    }

    /// The entropy vector of everything fed so far. Bit-identical to
    /// [`EntropyVector::compute`] on the concatenated chunks.
    pub fn finish(&self) -> EntropyVector {
        EntropyVector::from_parts(
            // lint: allow(L009) — owned-result convenience API; the pipeline uses finish_entropies_into with pooled scratch
            self.widths.as_slice().to_vec(),
            // lint: allow(L009) — owned-result convenience API; the pipeline uses finish_entropies_into with pooled scratch
            self.hists.iter().map(entropy_of_histogram).collect(),
        )
    }

    /// Writes the feature values of everything fed so far into `out`
    /// (cleared first), so a caller with a warm `out` allocates nothing.
    /// Values are bit-identical to [`finish`](Self::finish).
    pub fn finish_entropies_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.hists.iter().map(entropy_of_histogram));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn one_byte_chunks_match_one_shot() {
        let widths = FeatureWidths::new(vec![1, 2, 3]);
        let data = pseudo_random(257, 9);
        let mut inc = IncrementalVector::new(&widths);
        for &b in &data {
            inc.update(&[b]);
        }
        assert_eq!(inc.finish().values(), EntropyVector::compute(&data, &widths).values());
        assert_eq!(inc.total_bytes(), 257);
    }

    #[test]
    fn straddling_splits_match_one_shot() {
        let widths = FeatureWidths::full();
        let data = pseudo_random(512, 21);
        // Splits chosen to land on and around every k−1 boundary.
        for cut in [1usize, 2, 3, 4, 8, 9, 10, 11, 255, 511] {
            let mut inc = IncrementalVector::new(&widths);
            inc.update(&data[..cut]);
            inc.update(&data[cut..]);
            assert_eq!(
                inc.finish().values(),
                EntropyVector::compute(&data, &widths).values(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn empty_and_short_inputs_are_zero() {
        let widths = FeatureWidths::svm_selected();
        let inc = IncrementalVector::new(&widths);
        assert_eq!(inc.finish().values(), vec![0.0; 4]);
        let mut inc = IncrementalVector::new(&widths);
        inc.update(b"");
        inc.update(b"a");
        assert_eq!(inc.finish().values(), EntropyVector::compute(b"a", &widths).values());
    }

    #[test]
    fn counters_track_distinct_grams() {
        let widths = FeatureWidths::new(vec![1, 2]);
        let mut inc = IncrementalVector::new(&widths);
        inc.update(b"ab");
        inc.update(b"ab");
        // distinct: {a,b} for k=1; {ab, ba} for k=2.
        assert_eq!(inc.counters_used(), 4);
    }

    #[test]
    fn width_one_only_needs_no_carry() {
        let widths = FeatureWidths::new(vec![1]);
        let data = pseudo_random(64, 3);
        let mut inc = IncrementalVector::new(&widths);
        for chunk in data.chunks(5) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish().values(), EntropyVector::compute(&data, &widths).values());
    }

    #[test]
    fn width_sixteen_rolls_without_masking_loss() {
        let widths = FeatureWidths::new(vec![1, 16]);
        let data = pseudo_random(200, 77);
        let mut inc = IncrementalVector::new(&widths);
        for chunk in data.chunks(13) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish().values(), EntropyVector::compute(&data, &widths).values());
    }

    #[test]
    fn reset_reuses_state_bit_identically() {
        let widths = FeatureWidths::full();
        let first = pseudo_random(300, 5);
        let second = pseudo_random(300, 6);
        let mut inc = IncrementalVector::new(&widths);
        for chunk in first.chunks(11) {
            inc.update(chunk);
        }
        inc.reset();
        assert_eq!(inc.total_bytes(), 0);
        assert_eq!(inc.counters_used(), 0);
        for chunk in second.chunks(11) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish().values(), EntropyVector::compute(&second, &widths).values());
    }
}
