//! Vendored FxHash-style hashing and an open-addressing counter table.
//!
//! The gram-counting hot path ([`crate::histogram`]) increments one
//! counter per byte per feature width; routing those increments through
//! `std`'s SipHash-keyed `HashMap` costs more than the arithmetic it
//! guards. This module provides the two cheap replacements the kernel
//! uses instead:
//!
//! * [`CounterTable`] — a linear-probing, power-of-two, insert-only
//!   counter map, generic over the packed-gram key ([`GramKey`]: `u64`
//!   for grams of up to 8 bytes, `u128` up to 16). Keys and counts live
//!   in two parallel arrays, 12 or 20 bytes per slot, and a zero count
//!   marks an empty slot, so clearing the table writes the 4-byte count
//!   array only. The table also keeps `Σ c·log₂c` over its counts as it
//!   counts ([`CounterTable::sum_c_log2_c`]), so a finish reads one
//!   integer instead of the slot arrays.
//! * [`c_log2_c`] — `c·log₂c` in fixed point, `c·⌊log₂c · 2⁵²⌋`, from
//!   an integer logarithm built into tables at compile time: sums of it
//!   are exact, so no summation order can change them.
//! * [`FxHashMap`] / [`FxBuildHasher`] — a drop-in `HashMap` alias
//!   using the same multiply-based hash, for the places that need a
//!   real map (the estimator's gram → tracker index, divergence
//!   probability tables).
//!
//! The hash is the well-known firefox ("Fx") construction: per 64-bit
//! word, `h = (h.rotate_left(5) ^ word) * K` with a fixed odd constant
//! `K`. It is not collision-resistant against adversarial keys, which
//! is acceptable here: keys are at most `256^k` packed grams and the
//! tables are bounded by the classification window `b`, so the worst
//! case degrades to a short linear scan, never unbounded growth.

#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use std::hash::{BuildHasher, Hasher};

/// The Fx multiply constant (an odd 64-bit number with good bit
/// diffusion, as used by the firefox hasher).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_K)
}

/// Hashes one packed gram (both 64-bit halves folded through the Fx
/// round function).
///
/// A key whose high word is zero skips the second (dependent) mix
/// round, so it hashes exactly like the same value as a `u64` key.
#[inline]
#[must_use]
pub fn fx_hash_u128(key: u128) -> u64 {
    let hi = (key >> 64) as u64;
    let lo = fx_mix(0, key as u64);
    if hi == 0 {
        lo
    } else {
        fx_mix(lo, hi)
    }
}

/// A packed-gram key of a [`CounterTable`]: the last `k` bytes of a
/// stream, big-endian in the low `8k` bits.
///
/// Implemented for `u64` (`k ≤ 8`) and `u128` (`k ≤ 16`), so a table
/// never stores, hashes or compares a key wider than its grams need.
pub trait GramKey: Copy + Eq + Default {
    /// The low bits of a `u128`-packed gram (lossless whenever the gram
    /// fits this key type).
    fn truncate(gram: u128) -> Self;

    /// The key as a `u128`-packed gram.
    fn widen(self) -> u128;

    /// Slides the window one byte: shifts `byte` in at the bottom and
    /// keeps the bits under `mask`.
    #[must_use]
    fn roll(self, byte: u8, mask: Self) -> Self;

    /// The Fx hash whose high bits index the table.
    fn fx_hash(self) -> u64;
}

impl GramKey for u64 {
    #[inline]
    fn truncate(gram: u128) -> Self {
        gram as u64
    }

    #[inline]
    fn widen(self) -> u128 {
        u128::from(self)
    }

    #[inline]
    fn roll(self, byte: u8, mask: Self) -> Self {
        ((self << 8) | u64::from(byte)) & mask
    }

    #[inline]
    fn fx_hash(self) -> u64 {
        fx_mix(0, self)
    }
}

impl GramKey for u128 {
    #[inline]
    fn truncate(gram: u128) -> Self {
        gram
    }

    #[inline]
    fn widen(self) -> u128 {
        self
    }

    #[inline]
    fn roll(self, byte: u8, mask: Self) -> Self {
        ((self << 8) | u128::from(byte)) & mask
    }

    #[inline]
    fn fx_hash(self) -> u64 {
        fx_hash_u128(self)
    }
}

/// Initial capacity of the first allocation (power of two).
const INITIAL_CAPACITY: usize = 16;

/// Fraction bits of the fixed-point logarithm `L(c) = ⌊log₂c · 2⁵²⌋`:
/// every `Σ c·log₂c` the crate forms is an integer in these units.
pub const FRAC_BITS: u32 = 52;

/// Counts below this read `L(c)` and `Δ(c)` from tables built at
/// compile time; larger ones compute them.
const TABLED: usize = 4096;

/// `L(c) = ⌊log₂c · 2⁵²⌋`, with integers only (`L(0) = 0`): the integer
/// part is the position of the top bit; each fraction bit comes from
/// squaring the mantissa, normalised to `[1, 2)` in Q63, and halving it
/// when it reaches 2. Squarings truncate, so where `log₂c` sits just
/// above a multiple of 2⁻⁵², `L(c)` may read one unit low; but it
/// depends on `c` alone, is the same on every host, and strictly
/// increases in `c` (neighbouring counts below 2³² differ by far more
/// than 2⁻⁵²).
const fn log2_fixed(c: u64) -> u64 {
    let Some(int) = c.checked_ilog2() else {
        return 0;
    };
    let two = 2u128 << 63;
    let mut x = (c as u128) << c.leading_zeros();
    let mut log = (int as u64) << FRAC_BITS;
    let mut bit = 1u64 << (FRAC_BITS - 1);
    while bit != 0 {
        // x < 2⁶⁴, so x² < 2¹²⁸.
        x = x.wrapping_mul(x) >> 63;
        if x >= two {
            x >>= 1;
            log |= bit;
        }
        bit >>= 1;
    }
    log
}

/// `L(c)` for every `c < TABLED`.
static LOG2_FIXED: [u64; TABLED] = {
    let mut table = [0; TABLED];
    let mut c = 1;
    while c < TABLED {
        table[c] = log2_fixed(c as u64);
        c += 1;
    }
    table
};

/// `Δ(c) = T(c) − T(c − 1)` for every `1 ≤ c < TABLED` (`Δ(1) = 0`):
/// what a key's step from `c − 1` to `c` adds to a table's sum. Below
/// 2⁵⁶ (`Δ(c) = L(c) + (c − 1)·(L(c) − L(c − 1)) ≈ L(c) + 2⁵²/ln 2`).
static DELTA: [u64; TABLED] = {
    let mut table = [0; TABLED];
    let mut c = 2;
    while c < TABLED {
        table[c] = LOG2_FIXED[c] + (c as u64 - 1) * (LOG2_FIXED[c] - LOG2_FIXED[c - 1]);
        c += 1;
    }
    table
};

/// `T(c) = c·L(c)`, the fixed-point `c·log₂c` (`T(0) = T(1) = 0`),
/// with `L(c)` looked up below `TABLED` and computed above. Below 2¹²²,
/// since `L(c) < 2⁵⁸` for any `u64`.
#[inline]
#[must_use]
pub fn c_log2_c(c: u64) -> u128 {
    let log = match LOG2_FIXED.get(c as usize) {
        Some(&log) => log,
        None => log2_fixed(c),
    };
    u128::from(c).wrapping_mul(u128::from(log))
}

/// `Δ(c) = T(c) − T(c − 1)` for `c ≥ 1`: looked up below `TABLED`,
/// computed above. Below 2⁵⁸ for any `u32` count.
#[inline]
fn delta(c: u32) -> u64 {
    match DELTA.get(c as usize) {
        Some(&step) => step,
        None => delta_past_table(u64::from(c)),
    }
}

/// `Δ(c)` by two squaring loops, for the rare count of 4,096 or more.
#[cold]
#[inline(never)]
fn delta_past_table(c: u64) -> u64 {
    let (now, before) = (log2_fixed(c), log2_fixed(c.wrapping_sub(1)));
    now.wrapping_add(c.wrapping_sub(1).wrapping_mul(now.wrapping_sub(before)))
}

/// An open-addressing counter table over packed-gram keys.
///
/// Linear probing over a power-of-two slot array, indexed by the high
/// bits of [`GramKey::fx_hash`]. Slot `i` is the pair `keys[i]`,
/// `counts[i]`; `counts[i] == 0` marks it empty, whatever `keys[i]`
/// holds (valid because a present key always has count ≥ 1). The only
/// mutation is [`increment`](Self::increment): keys are never removed,
/// so lookups can stop at the first empty slot and growth reinserts
/// live entries without tombstone bookkeeping. Load is kept at or
/// below ½ — linear probing degrades quadratically with load (≈8.5
/// expected probes per miss at ¾ load vs ≈2.5 at ½), and probe length,
/// not hashing, is what the gram hot path pays for.
///
/// [`clear`](Self::clear) zeroes the count array and the sum,
/// keeping every allocation, which is what lets pooled flow state
/// recycle without touching the allocator; the keys it leaves behind
/// sit in empty slots and are overwritten on reuse.
///
/// The table keeps `Σ T(count)` over its keys as it counts
/// ([`sum_c_log2_c`](Self::sum_c_log2_c), see [`c_log2_c`]): a repeat
/// occurrence adds `Δ(count)`, read from a table below 4,096, and a
/// first occurrence adds nothing (`Δ(1) = 0`). The sum is an exact
/// integer, so it is the same whatever the capacity, slot order or
/// feeding history, and reading it costs nothing.
///
/// Counts are `u32` and saturate at `u32::MAX`: exact for any input
/// with fewer than 2³² occurrences of one gram (4 GiB of one repeated
/// pattern), which bounds every classification window by nine orders
/// of magnitude.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::fastmap::CounterTable;
///
/// let mut t = CounterTable::<u64>::new();
/// t.increment(7);
/// t.increment(7);
/// t.increment(9);
/// assert_eq!(t.get(7), 2);
/// assert_eq!(t.get(9), 1);
/// assert_eq!(t.get(8), 0);
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CounterTable<K> {
    /// Slot keys; meaningful only where the matching count is non-zero.
    keys: Vec<K>,
    /// Slot counts, parallel to `keys`; zero marks an empty slot.
    counts: Vec<u32>,
    /// Occupied slots (distinct keys).
    len: usize,
    /// `64 − log2(capacity)`: shift that maps a hash to a slot index.
    shift: u32,
    /// `Σ T(count)` over the keys. At most `T(n)` after `n` increments
    /// (`L` is monotone), below 2¹²² for any `n < 2⁶⁴`: the wrapping
    /// adds never wrap.
    sum: u128,
}

impl<K: GramKey> CounterTable<K> {
    /// Creates an empty table. No allocation until the first
    /// [`increment`](Self::increment).
    #[must_use]
    pub fn new() -> Self {
        CounterTable { keys: Vec::new(), counts: Vec::new(), len: 0, shift: 0, sum: 0 }
    }

    /// Creates a table pre-sized for `expected_keys` distinct keys, so
    /// filling it to that point never rehashes.
    #[must_use]
    pub fn with_capacity(expected_keys: usize) -> Self {
        let mut t = CounterTable::new();
        t.reserve(expected_keys);
        t
    }

    /// Ensures room for `additional` further distinct keys at ≤ ½ load
    /// (one rehash now instead of a cascade of doublings later).
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len.saturating_add(additional).saturating_mul(2);
        if needed > self.counts.len() {
            self.rehash(needed.next_power_of_two().max(INITIAL_CAPACITY));
        }
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key has been counted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot holding `key`, or the empty slot that ends its probe
    /// sequence. Out of range only when nothing is allocated.
    #[inline]
    fn slot_of(&self, key: K) -> usize {
        let mask = self.counts.len().wrapping_sub(1);
        let mut i = (key.fx_hash() >> self.shift) as usize & mask;
        while let (Some(&count), Some(&held)) = (self.counts.get(i), self.keys.get(i)) {
            if count == 0 || held == key {
                break;
            }
            i = i.wrapping_add(1) & mask;
        }
        i
    }

    /// The count of `key` (0 if never incremented).
    #[must_use]
    pub fn get(&self, key: K) -> u64 {
        self.counts.get(self.slot_of(key)).map_or(0, |&count| u64::from(count))
    }

    /// Adds 1 to the count of `key`, inserting it at count 1 if absent.
    #[inline]
    pub fn increment(&mut self, key: K) {
        if self.len >= self.counts.len() / 2 {
            self.rehash(self.counts.len().saturating_mul(2).max(INITIAL_CAPACITY));
        }
        // Probes in place (not `slot_of` plus a second lookup), and an
        // empty slot and `key`'s own take the same stores, so the only
        // data-dependent branch per probe is "someone else's slot".
        let mask = self.counts.len().wrapping_sub(1);
        let mut i = (key.fx_hash() >> self.shift) as usize & mask;
        while let (Some(count), Some(held)) = (self.counts.get_mut(i), self.keys.get_mut(i)) {
            let empty = *count == 0;
            if empty | (*held == key) {
                *held = key;
                let before = *count;
                *count = before.saturating_add(1);
                self.len = self.len.saturating_add(usize::from(empty));
                // A first occurrence adds Δ(1) = 0 and a saturated count
                // stays put, so only a repeat below u32::MAX pays Δ.
                if (1..u32::MAX).contains(&before) {
                    self.sum = self.sum.wrapping_add(u128::from(delta(*count)));
                }
                return;
            }
            i = i.wrapping_add(1) & mask;
        }
    }

    /// Re-slots every live entry into a `new_cap`-slot table
    /// (`new_cap` a power of two, at least [`INITIAL_CAPACITY`]); the
    /// sum does not change. Counts-only-increment means there are no
    /// tombstones to filter: every non-empty slot is live.
    fn rehash(&mut self, new_cap: usize) {
        // lint: allow(L009) — growth path: runs only when a flow exceeds its reserve() budget
        let fresh = (vec![K::default(); new_cap], vec![0; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, fresh.0);
        let old_counts = std::mem::replace(&mut self.counts, fresh.1);
        self.shift = 64u32.saturating_sub(new_cap.trailing_zeros());
        for (key, count) in old_keys.into_iter().zip(old_counts) {
            if count == 0 {
                continue;
            }
            let i = self.slot_of(key);
            if let (Some(slot), Some(held)) = (self.counts.get_mut(i), self.keys.get_mut(i)) {
                *slot = count;
                *held = key;
            }
        }
    }

    /// Empties the table, keeping its allocations for reuse. Only the
    /// count array and the sum are written.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.sum = 0;
        self.len = 0;
    }

    /// `Σ T(count)` over every key ([`c_log2_c`]): the fixed-point
    /// `Σ c·log₂c` of the counts, kept as the table counts.
    #[must_use]
    pub fn sum_c_log2_c(&self) -> u128 {
        self.sum
    }

    /// Iterates over `(key, count)` pairs in arbitrary (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(_, &count)| count != 0)
            .map(|(&key, &count)| (key, u64::from(count)))
    }

    /// Allocated slot count (benchmark/diagnostic aid).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.counts.len()
    }
}

impl<K: GramKey> Default for CounterTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: GramKey> PartialEq for CounterTable<K> {
    /// Semantic equality: the same key → count mapping, whatever the
    /// capacities, insertion orders, or keys left behind in empty slots.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(key, count)| other.get(key) == count)
    }
}

impl<K: GramKey> Eq for CounterTable<K> {}

/// A [`Hasher`] running the Fx round function over the written words.
///
/// Only as strong as its inputs need: used for packed-gram and small
/// integer keys inside this workspace, not for untrusted map keys.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.hash = fx_mix(self.hash, u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.hash = fx_mix(self.hash, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.hash = fx_mix(self.hash, u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.hash = fx_mix(self.hash, u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.hash = fx_mix(self.hash, u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = fx_mix(self.hash, v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.hash = fx_mix(fx_mix(self.hash, v as u64), (v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.hash = fx_mix(self.hash, v as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher`] (stateless, so every map is
/// deterministic across runs — unlike `RandomState`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed by the Fx hash — the drop-in replacement for
/// `std`'s SipHash default inside this crate's hot paths.
#[expect(clippy::disallowed_types, reason = "this alias IS the sanctioned fast-hashed HashMap")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn pseudo_random_keys(n: usize, seed: u64) -> Vec<u128> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mix of narrow and wide keys, with repeats.
                if x.is_multiple_of(3) {
                    u128::from(x % 257)
                } else {
                    u128::from(x) << 64 | u128::from(x.wrapping_mul(31))
                }
            })
            .collect()
    }

    #[test]
    fn empty_table() {
        let t = CounterTable::<u128>::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(0), 0);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.capacity(), 0);
    }

    /// Counts `keys` (truncated to `K`) into a table and a `std` model.
    fn assert_matches_model<K: GramKey + Ord + std::hash::Hash + std::fmt::Debug>(keys: &[u128]) {
        let mut table = CounterTable::<K>::new();
        let mut model: HashMap<K, u64> = HashMap::new();
        for &k in keys {
            table.increment(K::truncate(k));
            *model.entry(K::truncate(k)).or_insert(0) += 1;
        }
        assert_eq!(table.len(), model.len());
        for (&k, &c) in &model {
            assert_eq!(table.get(k), c, "key {k:?}");
        }
        let mut from_iter: Vec<(K, u64)> = table.iter().collect();
        from_iter.sort_unstable();
        let mut from_model: Vec<(K, u64)> = model.into_iter().collect();
        from_model.sort_unstable();
        assert_eq!(from_iter, from_model);
    }

    #[test]
    fn counts_match_std_hashmap_model() {
        let keys = pseudo_random_keys(10_000, 7);
        assert_matches_model::<u128>(&keys);
        assert_matches_model::<u64>(&keys);
    }

    #[test]
    fn growth_keeps_counts() {
        let mut t = CounterTable::new();
        // Sequential keys force several doublings past INITIAL_CAPACITY.
        for round in 1..=3u64 {
            for k in 0..500u128 {
                t.increment(k);
            }
            assert_eq!(t.len(), 500, "round {round}");
            for k in 0..500u128 {
                assert_eq!(t.get(k), round, "round {round} key {k}");
            }
        }
        assert!(t.capacity() >= 500 * 4 / 3);
        assert!(t.capacity().is_power_of_two());
    }

    #[test]
    fn zero_key_is_a_real_key() {
        // key 0 must be distinguishable from an empty slot.
        let mut t = CounterTable::<u64>::new();
        t.increment(0);
        t.increment(0);
        assert_eq!(t.get(0), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = CounterTable::new();
        for k in 0..1000u128 {
            t.increment(k);
        }
        let cap = t.capacity();
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(3), 0);
        t.increment(3);
        assert_eq!(t.get(3), 1);
    }

    #[test]
    fn clear_leaves_only_stale_keys_behind() {
        // Every key of the first fill is still in the key array after
        // `clear`; none of them may be visible, and a key that probes
        // onto its own stale copy must restart from count 1.
        let mut t = CounterTable::<u64>::with_capacity(64);
        for k in 0..64u64 {
            t.increment(k);
            t.increment(k);
        }
        t.clear();
        assert_eq!(t.iter().count(), 0);
        assert!((0..64u64).all(|k| t.get(k) == 0));
        t.increment(5);
        assert_eq!((t.get(5), t.len()), (1, 1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(5, 1)]);
    }

    #[test]
    fn equality_ignores_history() {
        // Same contents reached three ways: in order; in reverse into a
        // larger table; and on top of cleared junk whose keys are still
        // in the key array.
        let keys: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9) % 50).collect();
        let mut plain = CounterTable::<u64>::new();
        keys.iter().for_each(|&k| plain.increment(k));
        let mut reversed = CounterTable::<u64>::with_capacity(4096);
        keys.iter().rev().for_each(|&k| reversed.increment(k));
        let mut recycled = CounterTable::<u64>::new();
        (1000..1300u64).for_each(|k| recycled.increment(k));
        recycled.clear();
        keys.iter().for_each(|&k| recycled.increment(k));
        assert_ne!(plain.capacity(), reversed.capacity());
        assert_eq!(plain, reversed);
        assert_eq!(plain, recycled);
        assert_eq!(recycled, reversed);
        // One more occurrence of one key breaks it, in both directions.
        reversed.increment(keys[0]);
        assert_ne!(plain, reversed);
        assert_ne!(reversed, plain);
    }

    #[test]
    fn counts_saturate_at_u32_max() {
        let mut t = CounterTable::<u64>::new();
        t.increment(42);
        let slot = t.slot_of(42);
        t.counts[slot] = u32::MAX - 1;
        t.increment(42);
        assert_eq!(t.get(42), u64::from(u32::MAX));
        let sum = t.sum_c_log2_c();
        t.increment(42);
        assert_eq!(t.get(42), u64::from(u32::MAX), "saturates instead of wrapping to empty");
        assert_eq!(t.len(), 1);
        assert_eq!(t.sum_c_log2_c(), sum, "a saturated count adds nothing");
    }

    #[test]
    fn log2_fixed_is_exact_at_powers_of_two() {
        for j in 0..64 {
            assert_eq!(log2_fixed(1 << j), j << FRAC_BITS, "2^{j}");
        }
    }

    #[test]
    fn log2_fixed_strictly_increases_past_the_table() {
        for c in 2..=4097u64 {
            assert!(log2_fixed(c) > log2_fixed(c - 1), "c = {c}");
        }
    }

    #[test]
    fn log2_fixed_tracks_log2() {
        // Below 2¹⁶, where an f64 near log₂c resolves 2⁻⁴⁹.
        for c in (1..2000u64).chain((2..64).map(|i| i * 1000 + 3)) {
            let fixed = log2_fixed(c) as f64 / (1u64 << FRAC_BITS) as f64;
            let gap = (fixed - (c as f64).log2()).abs();
            assert!(
                gap <= 2f64.powi(-48),
                "c = {c}: {fixed} vs {}, gap {gap:e}",
                (c as f64).log2()
            );
        }
    }

    #[test]
    fn tables_equal_the_values_computed_past_them() {
        for c in [4095u64, 4096, 4097] {
            assert_eq!(c_log2_c(c), u128::from(c) * u128::from(log2_fixed(c)), "T({c})");
            let step = c_log2_c(c) - c_log2_c(c - 1);
            assert_eq!(u128::from(delta(c as u32)), step, "Δ({c})");
        }
        assert_eq!((delta(1), c_log2_c(0), c_log2_c(1)), (0, 0, 0));
    }

    #[test]
    fn one_key_keeps_an_exact_sum_past_the_table() {
        let mut t = CounterTable::<u64>::new();
        for n in 1..=5_000u64 {
            t.increment(3);
            if n % 100 == 0 || (4090..4100).contains(&n) {
                assert_eq!(t.sum_c_log2_c(), c_log2_c(n), "after {n}");
            }
        }
        t.increment(4);
        assert_eq!(t.sum_c_log2_c(), c_log2_c(5_000));
        t.clear();
        assert_eq!(t.sum_c_log2_c(), 0);
    }

    #[test]
    fn narrow_and_wide_keys_hash_alike() {
        // A gram that fits 64 bits lands in the same slot whichever key
        // type carries it.
        for gram in [0u64, 1, 0xFFFF, 0x0123_4567_89AB_CDEF, u64::MAX] {
            assert_eq!(gram.fx_hash(), u128::from(gram).fx_hash());
        }
        assert_eq!(u64::truncate(0xAB << 64 | 0xCD), 0xCD);
        assert_eq!(0xCDu64.widen(), 0xCD);
        assert_eq!(0x1122u64.roll(0x33, 0xFFFF), 0x2233);
        assert_eq!(u128::MAX.roll(0, u128::MAX), u128::MAX << 8);
    }

    #[test]
    fn fx_hashmap_behaves_like_a_map() {
        let mut m: FxHashMap<u128, Vec<u32>> = FxHashMap::default();
        m.entry(5).or_default().push(1);
        m.entry(5).or_default().push(2);
        m.entry(9).or_default().push(3);
        assert_eq!(m.get(&5), Some(&vec![1, 2]));
        assert_eq!(m.len(), 2);
        m.remove(&5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fx_hash_spreads_small_keys() {
        // High bits index the table, so small keys must not collapse
        // into the same high bits.
        let hashes: Vec<u64> = (0..256u128).map(|k| fx_hash_u128(k) >> 56).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert!(distinct.len() > 128, "only {} distinct high bytes", distinct.len());
    }

    #[test]
    fn hasher_write_paths_agree_on_word_boundaries() {
        let mut a = FxHasher::default();
        a.write_u64(0x0123_4567_89AB_CDEF);
        let mut b = FxHasher::default();
        b.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
