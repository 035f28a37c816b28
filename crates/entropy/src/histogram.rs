//! Frequency histograms over k-byte grams.
//!
//! The paper treats every consecutive `k` bytes of a file (or flow buffer)
//! as one element of the alphabet `f_k` of all possible `k`-byte strings,
//! so a sequence of `m` bytes yields `m - k + 1` elements. This module
//! provides the counting structure shared by exact entropy calculation
//! ([`crate::vector`]) and the divergence measures ([`crate::divergence`]).
//!
//! Counting is the per-byte hot path of the whole system (§4 of the
//! paper demands it be near-memcpy cheap) and every pending flow owns
//! one histogram per feature width, so storage is sized by what a flow
//! can put into it, in two tiers:
//!
//! * `k = 1` — a dense `[u64; 256]` array (2 KiB): one indexed add per
//!   byte, plus a 256-byte list of the bytes seen so far, in first-seen
//!   order, so a finish or a reset visits only the counters the window
//!   touched (≤ 32 at `b = 32`).
//! * `k ≥ 2` — the open-addressing Fx-hashed [`CounterTable`], keyed by
//!   `u64` for `k ≤ 8` and by `u128` above, reserved for the windows
//!   the caller announces ([`GramHistogram::reserve_bytes`]): 12 bytes
//!   per slot at ≤ ½ load, so 48 KiB per width for a 2 KiB
//!   classification window and under 1 KiB for a 32-byte one.
//!
//! Both sit behind the same API, and both form `Σ c·log₂c` as an exact
//! integer, the sum of [`c_log2_c`] over the counts: the open tables
//! keep theirs as they count, so a finish reads one integer, and the
//! dense tier adds the counters of its seen list on the spot. Integer
//! addition has no order to depend on, so every float the crate
//! derives from a histogram is bit-identical across tiers, capacities
//! and feeding histories.

use crate::fastmap::{c_log2_c, CounterTable, GramKey, FRAC_BITS};

/// A frequency histogram of the `k`-byte grams of a byte sequence.
///
/// Grams are packed into a `u128` (big-endian within the low `8k` bits),
/// which supports every feature width used by the paper (`k ≤ 10`) and
/// anything up to `k = 16`.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::GramHistogram;
///
/// let h = GramHistogram::from_bytes(b"abab", 2);
/// // windows: "ab", "ba", "ab"
/// assert_eq!(h.window_count(), 3);
/// assert_eq!(h.count_of(b"ab"), 2);
/// assert_eq!(h.count_of(b"ba"), 1);
/// assert_eq!(h.distinct(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GramHistogram {
    k: usize,
    store: Store,
    windows: u64,
}

/// Width-tiered counter storage (see the module docs).
#[derive(Debug, Clone)]
enum Store {
    /// `k = 1`: dense byte-indexed counters. `distinct` and the seen
    /// list are maintained on first touch, so neither a finish nor a
    /// reset scans the 256 counters.
    Dense1 {
        /// `counts[b]` = occurrences of byte `b`.
        counts: Box<[u64; 256]>,
        /// The bytes seen so far, in first-seen order: `seen[..distinct]`
        /// lists every non-zero entry of `counts` once; the rest is junk.
        seen: [u8; 256],
        /// Number of non-zero entries.
        distinct: u32,
    },
    /// `2 ≤ k ≤ 8`: open table over `u64` keys.
    Narrow(CounterTable<u64>),
    /// `9 ≤ k ≤ 16`: open table over `u128` keys.
    Wide(CounterTable<u128>),
}

impl Store {
    fn for_width(k: usize) -> Self {
        match k {
            // lint: allow(L009) — tier storage is allocated once per histogram at flow setup; pooled reuse clears it
            1 => Store::Dense1 { counts: Box::new([0u64; 256]), seen: [0; 256], distinct: 0 },
            2..=8 => Store::Narrow(CounterTable::new()),
            _ => Store::Wide(CounterTable::new()),
        }
    }

    fn get(&self, key: u128) -> u64 {
        match self {
            Store::Dense1 { counts, .. } => counts.get(key as usize).copied().unwrap_or(0),
            Store::Narrow(table) => table.get(u64::truncate(key)),
            Store::Wide(table) => table.get(key),
        }
    }

    fn distinct(&self) -> usize {
        match self {
            Store::Dense1 { distinct, .. } => *distinct as usize,
            Store::Narrow(table) => table.len(),
            Store::Wide(table) => table.len(),
        }
    }

    /// Makes room for `windows` more grams without a mid-stream rehash.
    /// No-op on the dense tier (already full-alphabet).
    fn reserve(&mut self, windows: usize) {
        match self {
            Store::Dense1 { .. } => {}
            Store::Narrow(table) => table.reserve(windows),
            Store::Wide(table) => table.reserve(windows),
        }
    }

    /// Resets every counter while keeping allocations (pool recycling).
    /// The dense tier zeroes only the counters its seen list names.
    fn clear(&mut self) {
        match self {
            Store::Dense1 { counts, seen, distinct } => {
                for &byte in seen.iter().take(*distinct as usize) {
                    if let Some(count) = counts.get_mut(usize::from(byte)) {
                        *count = 0;
                    }
                }
                *distinct = 0;
            }
            Store::Narrow(table) => table.clear(),
            Store::Wide(table) => table.clear(),
        }
    }
}

/// The open-table counting loop: rolls the packed window over `warm`
/// (bytes that only complete the first window) without counting, then
/// counts one window per byte of `body`.
fn count_windows<K: GramKey>(
    table: &mut CounterTable<K>,
    k: usize,
    prev_key: u128,
    warm: &[u8],
    body: &[u8],
) {
    let mask = K::truncate(width_mask(k));
    let mut key = K::truncate(prev_key);
    for &b in warm {
        key = key.roll(b, mask);
    }
    for &b in body {
        key = key.roll(b, mask);
        table.increment(key);
    }
}

/// Packs up to 16 bytes into a `u128` key.
///
/// # Panics
///
/// Panics if `gram.len() > 16`.
#[inline]
pub(crate) fn pack_gram(gram: &[u8]) -> u128 {
    assert!(gram.len() <= 16, "grams longer than 16 bytes are unsupported");
    let mut key: u128 = 0;
    for &b in gram {
        key = (key << 8) | u128::from(b);
    }
    key
}

impl GramHistogram {
    /// Creates an empty histogram for `k`-byte grams.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 16`.
    pub fn new(k: usize) -> Self {
        // lint: allow(L008) — constructor contract: k is fixed at configuration time, not per packet
        assert!((1..=16).contains(&k), "feature width k must be in 1..=16, got {k}");
        GramHistogram { k, store: Store::for_width(k), windows: 0 }
    }

    /// Builds the histogram of all `k`-grams of `data`.
    ///
    /// If `data.len() < k` the histogram is empty.
    pub fn from_bytes(data: &[u8], k: usize) -> Self {
        let mut h = Self::new(k);
        h.extend_from_bytes(data);
        h
    }

    /// Pre-sizes the backing store for counting the grams of `bytes`
    /// contiguous payload bytes, so feeding that many never rehashes
    /// mid-stream. The reservation is the number of windows, clamped to
    /// the alphabet size `256^k` — no input has more distinct grams
    /// than either.
    pub fn reserve_bytes(&mut self, bytes: usize) {
        let windows = bytes.saturating_sub(self.k - 1);
        let alphabet = 1usize.checked_shl(8 * self.k as u32).unwrap_or(usize::MAX);
        self.store.reserve(windows.min(alphabet));
    }

    /// Counts all `k`-grams of `data` into this histogram.
    ///
    /// Note that calling this twice with two halves of a buffer is *not*
    /// equivalent to one call with the whole buffer: the grams spanning
    /// the boundary are not counted. The flow pipeline therefore streams
    /// through [`crate::incremental::IncrementalVector`], whose rolling
    /// window keeps boundary grams.
    pub fn extend_from_bytes(&mut self, data: &[u8]) {
        // Worst case every window is distinct; one rehash up front
        // replaces the cascade of doublings mid-scan.
        self.reserve_bytes(data.len());
        // With nothing fed before, the slab loop the incremental path
        // uses warms the window over the first k−1 bytes by itself.
        self.extend_packed_carry(0, 0, data);
    }

    /// Counts every `k`-gram window of a flow's byte stream that ends
    /// inside `chunk` — the slab path shared by the one-shot and
    /// incremental feeds. `prev_key` is the rolling packed window of the
    /// last ≤16 bytes fed before `chunk` (as maintained by
    /// [`crate::incremental::IncrementalVector`]) and `total` is how
    /// many bytes were fed before.
    ///
    /// The storage tier and key width are resolved **once per chunk**;
    /// the inner loop runs over contiguous bytes with the rolling key
    /// as its only loop-carried value.
    ///
    /// Window-for-window identical to feeding the same bytes through the
    /// per-byte rolling update: the window ending at chunk byte `i`
    /// (0-based) covers stream bytes `total+i+1−k ..= total+i` and is
    /// valid iff `total + i + 1 >= k`, so the first counting byte is
    /// `start = (k − 1 − total).max(0)` and each later byte slides the
    /// same window by one. Equal window enumerations give equal count
    /// multisets, whose integer `Σ T(c)` is the same however it was
    /// added up, so every derived float is bit-identical.
    pub(crate) fn extend_packed_carry(&mut self, prev_key: u128, total: u64, chunk: &[u8]) {
        let start = (self.k as u64).saturating_sub(total + 1) as usize;
        let (Some(warm), Some(body)) = (chunk.get(..start), chunk.get(start..)) else {
            return;
        };
        match &mut self.store {
            Store::Dense1 { counts, seen, distinct } => {
                // k == 1: every byte is its own window (start == 0) and
                // the byte *is* the table index — a pure contiguous
                // counting loop with no rolling state at all. Every byte
                // is written to the seen list's next free cell; only a
                // first touch advances past it. Once all 256 values are
                // listed there is no free cell and the write is skipped.
                for &b in body {
                    if let Some(c) = counts.get_mut(usize::from(b)) {
                        if let Some(next) = seen.get_mut(*distinct as usize) {
                            *next = b;
                        }
                        *distinct += u32::from(*c == 0);
                        *c += 1;
                    }
                }
            }
            Store::Narrow(table) => count_windows(table, self.k, prev_key, warm, body),
            Store::Wide(table) => count_windows(table, self.k, prev_key, warm, body),
        }
        self.windows += body.len() as u64;
    }

    /// Counts the `k`-grams of `carry ++ data` into this histogram,
    /// where `carry` is the tail of previously counted bytes
    /// (`carry.len() < k` required): because `carry` is shorter than
    /// `k`, every window of the concatenation ends inside `data` and is
    /// therefore new.
    ///
    /// If `carry.len() + data.len() < k` nothing is counted.
    ///
    /// # Panics
    ///
    /// Panics if `carry.len() >= k`.
    pub fn extend_across(&mut self, carry: &[u8], data: &[u8]) {
        assert!(carry.len() < self.k, "carry must be shorter than k");
        // The carry bytes are exactly the rolling window the incremental
        // path would hold after feeding them, so the slab loop applies
        // directly (start = k − 1 − carry.len()).
        self.extend_packed_carry(pack_gram(carry), carry.len() as u64, data);
    }

    /// Resets the histogram to empty while keeping its allocations
    /// (dense array, open-table slots), so pooled flow state recycles
    /// without touching the allocator.
    pub fn clear(&mut self) {
        self.store.clear();
        self.windows = 0;
    }

    /// The gram width `k` this histogram counts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of windows counted (`m - k + 1` for a single
    /// `m`-byte input).
    pub fn window_count(&self) -> u64 {
        self.windows
    }

    /// Number of distinct grams observed.
    pub fn distinct(&self) -> usize {
        self.store.distinct()
    }

    /// The count of one specific gram (0 if never seen).
    ///
    /// # Panics
    ///
    /// Panics if `gram.len() != k`.
    pub fn count_of(&self, gram: &[u8]) -> u64 {
        assert_eq!(gram.len(), self.k, "gram length must equal k");
        self.store.get(pack_gram(gram))
    }

    /// Iterates over `(packed_gram, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, u64)> + '_ {
        // Exactly one of the three is `Some`; the others chain in empty.
        let (dense, narrow, wide) = match &self.store {
            Store::Dense1 { counts, .. } => (Some(counts.iter()), None, None),
            Store::Narrow(table) => (None, Some(table.iter()), None),
            Store::Wide(table) => (None, None, Some(table.iter())),
        };
        let dense = dense.into_iter().flatten().zip(0u128..).filter(|(&count, _)| count != 0);
        let narrow = narrow.into_iter().flatten().map(|(key, count)| (key.widen(), count));
        dense.map(|(&count, byte)| (byte, count)).chain(narrow).chain(wide.into_iter().flatten())
    }

    /// Iterates over the raw counts in arbitrary order.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, c)| c)
    }

    /// Σ mᵢ·log2(mᵢ) over all gram counts mᵢ — the quantity `S_k`
    /// that the streaming sketch of [`crate::estimate`] approximates —
    /// as [`fixed_sum_m_log_m`](Self::fixed_sum_m_log_m) scaled by
    /// 2⁻⁵²: one rounding of an exact integer, so bit-for-bit the same
    /// across runs, storage tiers, capacities and feeding histories.
    pub fn sum_m_log_m(&self) -> f64 {
        self.fixed_sum_m_log_m() as f64 / (1u64 << FRAC_BITS) as f64
    }

    /// `Σ T(mᵢ)` over all gram counts mᵢ ([`c_log2_c`]): `S_k` in
    /// fixed point. The open tables keep it as they count; the dense
    /// tier adds the counters its seen list names.
    pub(crate) fn fixed_sum_m_log_m(&self) -> u128 {
        match &self.store {
            Store::Dense1 { counts, seen, distinct } => seen
                .iter()
                .take(*distinct as usize)
                .filter_map(|&byte| counts.get(usize::from(byte)))
                .map(|&count| c_log2_c(count))
                .sum(),
            Store::Narrow(table) => table.sum_c_log2_c(),
            Store::Wide(table) => table.sum_c_log2_c(),
        }
    }

    /// Number of counters an exact implementation needs for this input —
    /// used to size the `(δ,ε)` estimation budget `α` (Formula 3).
    pub fn counters_used(&self) -> usize {
        self.store.distinct()
    }
}

/// The low-`8k`-bit mask of a rolling window key.
#[inline]
pub(crate) fn width_mask(k: usize) -> u128 {
    if k >= 16 {
        u128::MAX
    } else {
        (1u128 << (8 * k)) - 1
    }
}

impl PartialEq for GramHistogram {
    /// Semantic equality: same width, same windows, same gram → count
    /// mapping — independent of capacity or insertion order.
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.windows == other.windows
            && self.distinct() == other.distinct()
            && self.iter().all(|(gram, count)| other.store.get(gram) == count)
    }
}

impl Eq for GramHistogram {}

impl Extend<u8> for GramHistogram {
    /// Extends from an iterator of bytes. Equivalent to collecting the
    /// bytes and calling [`GramHistogram::extend_from_bytes`] once.
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        // lint: allow(L009) — convenience Extend impl; the pipeline feeds slices via extend_from_bytes
        let buf: Vec<u8> = iter.into_iter().collect();
        self.extend_from_bytes(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_empty() {
        let h = GramHistogram::from_bytes(b"", 1);
        assert_eq!(h.window_count(), 0);
        assert_eq!(h.distinct(), 0);
    }

    #[test]
    fn input_shorter_than_k_is_empty() {
        let h = GramHistogram::from_bytes(b"ab", 3);
        assert_eq!(h.window_count(), 0);
    }

    #[test]
    fn single_byte_grams() {
        let h = GramHistogram::from_bytes(b"aabbbc", 1);
        assert_eq!(h.window_count(), 6);
        assert_eq!(h.count_of(b"a"), 2);
        assert_eq!(h.count_of(b"b"), 3);
        assert_eq!(h.count_of(b"c"), 1);
        assert_eq!(h.count_of(b"z"), 0);
        assert_eq!(h.distinct(), 3);
    }

    #[test]
    fn overlapping_windows_match_paper_example() {
        // Paper §3.1: F = <a,b,c,d> as 2-grams is <ab, bc, cd>.
        let h = GramHistogram::from_bytes(b"abcd", 2);
        assert_eq!(h.window_count(), 3);
        assert_eq!(h.count_of(b"ab"), 1);
        assert_eq!(h.count_of(b"bc"), 1);
        assert_eq!(h.count_of(b"cd"), 1);
    }

    #[test]
    fn window_count_is_m_minus_k_plus_1() {
        for k in 1..=10 {
            let data = vec![7u8; 100];
            let h = GramHistogram::from_bytes(&data, k);
            assert_eq!(h.window_count(), (100 - k + 1) as u64, "k={k}");
            assert_eq!(h.distinct(), 1);
        }
    }

    #[test]
    fn wide_grams_pack_correctly() {
        let data: Vec<u8> = (0u8..32).collect();
        let h = GramHistogram::from_bytes(&data, 10);
        assert_eq!(h.window_count(), 23);
        assert_eq!(h.distinct(), 23);
        assert_eq!(h.count_of(&data[0..10]), 1);
        assert_eq!(h.count_of(&data[22..32]), 1);
    }

    #[test]
    fn k16_mask_does_not_overflow() {
        let data: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37)).collect();
        let h = GramHistogram::from_bytes(&data, 16);
        assert_eq!(h.window_count(), 49);
        assert_eq!(h.count_of(&data[0..16]), 1);
    }

    #[test]
    fn sum_m_log_m_matches_manual() {
        let h = GramHistogram::from_bytes(b"aabb", 1);
        // counts: a=2, b=2 → 2*log2(2) + 2*log2(2) = 4
        assert!((h.sum_m_log_m() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature width k")]
    fn zero_k_panics() {
        GramHistogram::new(0);
    }

    #[test]
    #[should_panic(expected = "gram length")]
    fn count_of_wrong_len_panics() {
        GramHistogram::from_bytes(b"abc", 2).count_of(b"abc");
    }

    #[test]
    fn extend_across_matches_contiguous_counting() {
        let data: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(31)).collect();
        for k in 2..=5 {
            for cut in [1usize, k - 1, k, 17, 63] {
                let whole = GramHistogram::from_bytes(&data, k);
                let mut split = GramHistogram::new(k);
                split.extend_from_bytes(&data[..cut]);
                let carry_start = cut.saturating_sub(k - 1);
                split.extend_across(&data[carry_start..cut], &data[cut..]);
                assert_eq!(split, whole, "k={k} cut={cut}");
            }
        }
    }

    #[test]
    fn extend_across_short_total_counts_nothing() {
        let mut h = GramHistogram::new(4);
        h.extend_across(b"ab", b"c");
        assert_eq!(h.window_count(), 0);
        assert_eq!(h.distinct(), 0);
    }

    #[test]
    #[should_panic(expected = "carry must be shorter")]
    fn extend_across_long_carry_panics() {
        GramHistogram::new(2).extend_across(b"ab", b"cd");
    }

    #[test]
    fn extend_trait_counts_like_slice() {
        let mut h = GramHistogram::new(2);
        h.extend(b"abcd".iter().copied());
        assert_eq!(h.window_count(), 3);
    }

    #[test]
    fn iter_visits_every_tier_correctly() {
        for k in [1usize, 2, 3, 9] {
            let data: Vec<u8> = (0u8..=255).flat_map(|b| [b, b.wrapping_mul(7)]).collect();
            let h = GramHistogram::from_bytes(&data, k);
            let mut pairs: Vec<(u128, u64)> = h.iter().collect();
            pairs.sort_unstable();
            assert_eq!(pairs.len(), h.distinct(), "k={k}");
            let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, h.window_count(), "k={k}");
            for &(gram, count) in &pairs {
                assert!(count > 0);
                let mut bytes = vec![0u8; k];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = (gram >> (8 * (k - 1 - i))) as u8;
                }
                assert_eq!(h.count_of(&bytes), count, "k={k} gram={gram:#x}");
            }
        }
    }

    #[test]
    fn clear_resets_but_keeps_counting_correctly() {
        for k in [1usize, 2, 4, 12] {
            let data: Vec<u8> = (0u8..200).map(|i| i.wrapping_mul(13)).collect();
            let mut h = GramHistogram::from_bytes(&data, k);
            h.clear();
            assert_eq!(h.window_count(), 0, "k={k}");
            assert_eq!(h.distinct(), 0, "k={k}");
            h.extend_from_bytes(&data);
            assert_eq!(h, GramHistogram::from_bytes(&data, k), "k={k}");
        }
    }

    #[test]
    fn equality_is_semantic_not_representational() {
        // Same counts reached through different feeding orders.
        let mut a = GramHistogram::new(2);
        a.extend_from_bytes(b"xyxy");
        let mut b = GramHistogram::new(2);
        b.extend_from_bytes(b"xy");
        b.extend_across(b"y", b"xy");
        assert_eq!(a, b);
        // Different counts are unequal even with equal distinct/windows.
        let c = GramHistogram::from_bytes(b"xxyy", 2);
        assert_ne!(a, c);
    }
}
