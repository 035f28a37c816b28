//! Property-based tests for the information-theory substrate.

// The reference models count with `std`'s HashMap; the kernel may not.
#![allow(clippy::disallowed_types)]

use iustitia_entropy::fastmap::{c_log2_c, CounterTable, GramKey, PairTable, FRAC_BITS};
use iustitia_entropy::{
    entropy, entropy_vector, jensen_shannon_divergence, kl_divergence, prefix_jsd,
    ByteDistribution, EntropyVector, EstimatorConfig, FeatureWidths, GramHistogram,
    IncrementalVector, StreamingEntropyEstimator,
};
use proptest::prelude::*;

/// Splits `data` into consecutive chunks whose sizes cycle through
/// `cuts` (empty `cuts` means one chunk). Sizes are clamped to the
/// remaining length, so every byte appears in exactly one chunk.
fn packetize<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < data.len() {
        let take = cuts.get(i % cuts.len().max(1)).copied().unwrap_or(data.len());
        let take = take.clamp(1, data.len() - pos);
        chunks.push(&data[pos..pos + take]);
        pos += take;
        i += 1;
    }
    chunks
}

/// Payloads for the counting tests, `len` bytes long, of three kinds:
/// arbitrary bytes (nearly every gram of width ≥ 2 occurs once); bytes
/// drawn from 2–4 symbols (counts of 64 and far above at small `k`);
/// and a few long constant runs (one count in the hundreds next to a
/// handful of ones).
fn payloads(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    let arbitrary = proptest::collection::vec(any::<u8>(), len.clone());
    let few_symbols = (2u8..=4, proptest::collection::vec(any::<u8>(), len.clone())).prop_map(
        |(symbols, bytes)| bytes.into_iter().map(|b| b'a' + b % symbols).collect::<Vec<u8>>(),
    );
    let runs = (len, proptest::collection::vec((any::<u8>(), 1usize..600), 1..6)).prop_map(
        |(len, runs)| {
            let bytes = runs.iter().flat_map(|&(byte, n)| std::iter::repeat_n(byte, n));
            bytes.cycle().take(len).collect::<Vec<u8>>()
        },
    );
    prop_oneof![arbitrary, few_symbols, runs]
}

/// Low-entropy payloads of up to 4 KiB: runs of zeros between short
/// arbitrary stretches, or one short phrase repeated. Their grams reach
/// counts of 64 and far above at every width.
fn low_entropy_payloads() -> impl Strategy<Value = Vec<u8>> {
    let stretch = (0usize..400, proptest::collection::vec(any::<u8>(), 0..16));
    let zero_runs = proptest::collection::vec(stretch, 1..24).prop_map(|stretches| {
        let bytes = stretches
            .into_iter()
            .flat_map(|(zeros, bytes)| std::iter::repeat_n(0u8, zeros).chain(bytes));
        bytes.take(4096).collect::<Vec<u8>>()
    });
    const PHRASES: [&[u8]; 3] =
        [b"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n", b"the quick brown fox ", b"aaab"];
    let text = (0..PHRASES.len(), 0usize..=4096).prop_map(|(phrase, len)| {
        PHRASES[phrase].iter().copied().cycle().take(len).collect::<Vec<u8>>()
    });
    prop_oneof![zero_runs, text]
}

/// One step of a [`CounterTable`] workload.
#[derive(Debug, Clone)]
enum TableOp {
    Increment(u64),
    Clear,
}

/// Up to 8,000 increments of arbitrary keys, with a clear about every
/// 2,000 steps.
fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    let op = (any::<u64>(), 0u32..2000).prop_map(|(key, roll)| {
        if roll == 0 {
            TableOp::Clear
        } else {
            TableOp::Increment(key)
        }
    });
    proptest::collection::vec(op, 0..8000)
}

/// Asserts that a table's maintained sum equals `Σ T(count)` over a
/// scan of its `(key, count)` pairs.
fn assert_sum_matches_scan<K: GramKey>(table: &CounterTable<K>) {
    let scanned: u128 = table.iter().map(|(_, count)| c_log2_c(count)).sum();
    assert_eq!(table.sum_c_log2_c(), scanned);
}

/// [`assert_sum_matches_scan`] for the dense pair table.
fn assert_pair_sum_matches_scan(table: &PairTable) {
    let scanned: u128 = table.iter().map(|(_, count)| c_log2_c(count)).sum();
    assert_eq!(table.sum_c_log2_c(), scanned);
}

/// Reference gram counter: a plain `std` HashMap over raw windows.
fn gram_counts(data: &[u8], k: usize) -> std::collections::HashMap<&[u8], u64> {
    let mut model = std::collections::HashMap::new();
    for window in data.windows(k) {
        *model.entry(window).or_insert(0) += 1;
    }
    model
}

/// Returns `(distinct, windows, sum_m_log_m)` of the [`gram_counts`]
/// model, with the sum of `T(c) = c·L(c)` taken in integers and scaled
/// by 2⁻⁵² once, exactly as `GramHistogram::sum_m_log_m` defines it —
/// so equality below is bit-for-bit, not approximate.
fn hashmap_model(data: &[u8], k: usize) -> (usize, u64, f64) {
    let model = gram_counts(data, k);
    let windows: u64 = model.values().sum();
    let fixed: u128 = model.values().map(|&c| c_log2_c(c)).sum();
    (model.len(), windows, fixed as f64 / (1u64 << FRAC_BITS) as f64)
}

/// Formula 1 in plain `f64`, independent of the kernel: the
/// [`gram_counts`], sorted, and `h_k = (log₂M − (1/M)·Σ c·log₂c) / 8k`.
fn formula_1(data: &[u8], k: usize) -> f64 {
    let mut counts: Vec<u64> = gram_counts(data, k).into_values().collect();
    counts.sort_unstable();
    let windows = counts.iter().sum::<u64>() as f64;
    if windows == 0.0 {
        return 0.0;
    }
    let sum: f64 = counts.iter().map(|&c| c as f64 * (c as f64).log2()).sum();
    ((windows.log2() - sum / windows) / (8.0 * k as f64)).clamp(0.0, 1.0)
}

proptest! {
    #[test]
    fn entropy_is_always_in_unit_interval(data in proptest::collection::vec(any::<u8>(), 0..2048), k in 1usize..=10) {
        let h = entropy(&data, k);
        prop_assert!((0.0..=1.0).contains(&h), "h_{k} = {h}");
    }

    #[test]
    fn constant_data_has_zero_entropy(byte in any::<u8>(), len in 0usize..1024, k in 1usize..=8) {
        let data = vec![byte; len];
        prop_assert_eq!(entropy(&data, k), 0.0);
    }

    #[test]
    fn h1_is_permutation_invariant(mut data in proptest::collection::vec(any::<u8>(), 2..512)) {
        let before = entropy(&data, 1);
        data.sort_unstable();
        let after = entropy(&data, 1);
        prop_assert!((before - after).abs() < 1e-12, "{before} vs {after}");
    }

    #[test]
    fn h1_is_invariant_under_self_concatenation(data in proptest::collection::vec(any::<u8>(), 2..512)) {
        // Doubling the data leaves the byte distribution unchanged.
        let single = entropy(&data, 1);
        let mut doubled = data.clone();
        doubled.extend_from_slice(&data);
        let double = entropy(&doubled, 1);
        prop_assert!((single - double).abs() < 1e-9, "{single} vs {double}");
    }

    #[test]
    fn entropy_vector_matches_individual_calls(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let widths = [1usize, 2, 3, 5];
        let v = entropy_vector(&data, &widths);
        for (i, &k) in widths.iter().enumerate() {
            prop_assert_eq!(v[i], entropy(&data, k));
        }
    }

    #[test]
    fn histogram_counts_sum_to_window_count(data in proptest::collection::vec(any::<u8>(), 0..1024), k in 1usize..=8) {
        let h = GramHistogram::from_bytes(&data, k);
        let expected = data.len().saturating_sub(k.saturating_sub(1)) as u64;
        let expected = if data.len() < k { 0 } else { expected };
        prop_assert_eq!(h.window_count(), expected);
        prop_assert_eq!(h.counts().sum::<u64>(), expected);
        prop_assert!(h.distinct() as u64 <= expected);
    }

    #[test]
    fn jsd_is_symmetric_and_bounded(
        a in proptest::collection::vec(any::<u8>(), 1..512),
        b in proptest::collection::vec(any::<u8>(), 1..512),
        k in 1usize..=3,
    ) {
        let p = ByteDistribution::from_bytes(&a, k);
        let q = ByteDistribution::from_bytes(&b, k);
        let d1 = jensen_shannon_divergence(&p, &q);
        let d2 = jensen_shannon_divergence(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&d1), "jsd = {d1}");
    }

    #[test]
    fn jsd_of_distribution_with_itself_is_zero(a in proptest::collection::vec(any::<u8>(), 1..512), k in 1usize..=3) {
        let p = ByteDistribution::from_bytes(&a, k);
        prop_assert!(jensen_shannon_divergence(&p, &p) < 1e-12);
    }

    #[test]
    fn kld_is_nonnegative_when_finite(
        a in proptest::collection::vec(0u8..4, 1..256),
        b in proptest::collection::vec(0u8..4, 1..256),
    ) {
        // Small alphabet makes shared support likely; KLD ≥ 0 always.
        let p = ByteDistribution::from_bytes(&a, 1);
        let q = ByteDistribution::from_bytes(&b, 1);
        let d = kl_divergence(&p, &q);
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn prefix_jsd_at_full_portion_is_zero(data in proptest::collection::vec(any::<u8>(), 8..512), k in 1usize..=2) {
        prop_assert!(prefix_jsd(&data, 1.0, k) < 1e-9);
    }

    #[test]
    fn estimator_output_is_bounded(
        data in proptest::collection::vec(any::<u8>(), 16..768),
        k in 2usize..=5,
        seed in any::<u64>(),
    ) {
        let cfg = EstimatorConfig::new(0.5, 0.5).expect("valid");
        let mut est = StreamingEntropyEstimator::with_seed(cfg, seed);
        let h = est.estimate_hk(&data, k).expect("k >= 2");
        prop_assert!((0.0..=1.0).contains(&h), "estimated h_{k} = {h}");
    }

    /// The tentpole equivalence, exact mode: feeding any packetization
    /// of a payload through [`IncrementalVector`] yields the same bits
    /// as the one-shot vector over the concatenation. Cut sizes from 1
    /// guarantee single-byte packets and splits that straddle every
    /// k-gram boundary for k in {1, 2, 3}.
    #[test]
    fn incremental_vector_is_packetization_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..768),
        cuts in proptest::collection::vec(1usize..32, 0..24),
    ) {
        let widths = FeatureWidths::new(vec![1, 2, 3]);
        let mut session = IncrementalVector::new(&widths);
        for chunk in packetize(&data, &cuts) {
            session.update(chunk);
        }
        let streamed = session.finish();
        let one_shot = entropy_vector(&data, &[1, 2, 3]);
        prop_assert_eq!(streamed.values(), &one_shot[..], "exact mode must be bit-identical");
    }

    /// Same equivalence in estimated mode: with the same seed and the
    /// same `b_hint`, the incremental session is bit-identical to the
    /// one-shot estimate regardless of packetization (the sketch
    /// consumes bytes one at a time, so chunk boundaries are invisible).
    #[test]
    fn incremental_estimator_is_packetization_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(1usize..16, 0..24),
        seed in any::<u64>(),
    ) {
        let widths = FeatureWidths::new(vec![1, 2, 3]);
        let cfg = EstimatorConfig::new(0.5, 0.5).expect("valid");
        let mut one_shot_est = StreamingEntropyEstimator::with_seed(cfg, seed);
        let one_shot = one_shot_est.estimate_vector(&data, &widths);

        let streaming_est = StreamingEntropyEstimator::with_seed(cfg, seed);
        let mut session = streaming_est.begin_incremental(&widths, data.len());
        for chunk in packetize(&data, &cuts) {
            session.update(chunk);
        }
        prop_assert_eq!(session.finish(), one_shot, "estimated mode must be bit-identical");
    }

    /// Degenerate packetization: a stream of 1-byte packets.
    #[test]
    fn one_byte_packets_match_one_shot(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let widths = FeatureWidths::new(vec![1, 2, 3]);
        let mut session = IncrementalVector::new(&widths);
        for &byte in &data {
            session.update(&[byte]);
        }
        prop_assert_eq!(session.finish().values(), &entropy_vector(&data, &[1, 2, 3])[..]);
    }

    /// Every storage tier (dense `k=1`, open-addressing over `u64` keys
    /// for `k≤8` and over `u128` keys above, and the tiers sized for
    /// speed: the dense `k=2` pair table and open tables at ≤ ⅛ load)
    /// must agree exactly with a `std` HashMap reference on
    /// `(distinct, windows, sum_m_log_m)` — and on every individual
    /// gram count — whether the counts are all ones, all small, or past
    /// the 4,096 the `Δ` table covers; a sized-for-speed histogram also
    /// after a clear and a recount, as the pipeline's warm set is used.
    /// Every case checks the dense `k=2` tier besides its drawn `k`.
    #[test]
    fn histogram_tiers_match_hashmap_model(
        data in payloads(0..1024),
        k in 1usize..=16,
    ) {
        for k in [k, 2] {
            let (distinct, windows, sum) = hashmap_model(&data, k);
            let thrifty = GramHistogram::from_bytes(&data, k);
            let mut windowed = GramHistogram::for_window(k, data.len());
            windowed.extend_from_bytes(&data);
            let mut recounted = GramHistogram::for_window(k, data.len());
            recounted.extend_from_bytes(&data);
            recounted.extend_from_bytes(&data);
            recounted.clear();
            recounted.extend_from_bytes(&data);
            for hist in [&thrifty, &windowed, &recounted] {
                prop_assert_eq!(hist.distinct(), distinct);
                prop_assert_eq!(hist.window_count(), windows);
                prop_assert_eq!(hist.sum_m_log_m(), sum, "integer sums must be bit-identical");
                // `==` cannot tell −0.0 from 0.0: the empty and the
                // all-ones histograms sum to a zero whose sign must
                // match too.
                prop_assert_eq!(hist.sum_m_log_m().to_bits(), sum.to_bits());
                if data.len() >= k {
                    for window in data.windows(k).take(32) {
                        let expected = data.windows(k).filter(|w| *w == window).count() as u64;
                        prop_assert_eq!(hist.count_of(window), expected);
                    }
                }
            }
        }
    }

    /// Open-addressing growth (tombstone-free: the table only ever
    /// inserts, so doubling + reinsertion must preserve every count).
    /// 4 KiB of arbitrary bytes forces thousands of distinct 3-grams —
    /// several doublings past the 16-slot initial table.
    #[test]
    fn open_table_growth_keeps_hashmap_equivalence(
        data in proptest::collection::vec(any::<u8>(), 2048..4096),
    ) {
        let hist = GramHistogram::from_bytes(&data, 3);
        let (distinct, windows, sum) = hashmap_model(&data, 3);
        prop_assert_eq!(hist.distinct(), distinct);
        prop_assert_eq!(hist.window_count(), windows);
        prop_assert_eq!(hist.sum_m_log_m().to_bits(), sum.to_bits());
    }

    /// The kernel's fixed-point `h_k` against Formula 1 evaluated in
    /// `f64` over sorted counts, outside the kernel: within 1e-13 at
    /// every width, on payloads whose counts run from all ones to
    /// thousands.
    #[test]
    fn every_h_k_is_within_1e13_of_formula_1(
        data in prop_oneof![payloads(0..2048), low_entropy_payloads()],
    ) {
        for k in 1..=16 {
            let (kernel, oracle) = (entropy(&data, k), formula_1(&data, k));
            prop_assert!((kernel - oracle).abs() <= 1e-13, "h_{} = {} vs {}", k, kernel, oracle);
        }
    }

    /// `clear()` + refeed must be indistinguishable from a fresh
    /// histogram on every tier (the pool-recycling invariant) — also
    /// when the junk was longer than the data, so its keys are still in
    /// slots the data never reaches, and the recycled table is reserved
    /// for less than it already holds. The junk starts with all 256
    /// byte values, so the `k = 1` tier fills its seen list and keeps
    /// counting past it before the clear.
    #[test]
    fn cleared_histogram_recounts_like_fresh(
        junk in payloads(512..2048),
        data in payloads(0..512),
        k in 1usize..=16,
    ) {
        let junk: Vec<u8> = (0..=255u8).chain(junk).collect();
        let mut recycled = GramHistogram::from_bytes(&junk, k);
        recycled.clear();
        prop_assert_eq!(recycled.distinct(), 0);
        prop_assert_eq!(recycled.counts().count(), 0);
        recycled.reserve_bytes(data.len() / 2);
        recycled.extend_from_bytes(&data);
        let fresh = GramHistogram::from_bytes(&data, k);
        prop_assert_eq!(recycled.sum_m_log_m().to_bits(), fresh.sum_m_log_m().to_bits());
        prop_assert_eq!(recycled, fresh);
    }

    /// The single-pass multi-width update must equal independent
    /// per-width counting on any packetization: for each width, the
    /// rolling shared window enumerates exactly the windows a dedicated
    /// per-width scan of the concatenation would.
    #[test]
    fn single_pass_multi_width_equals_per_width(
        data in proptest::collection::vec(any::<u8>(), 0..768),
        cuts in proptest::collection::vec(1usize..32, 0..24),
    ) {
        let widths = FeatureWidths::new(vec![1, 2, 3, 5, 8]);
        let mut session = IncrementalVector::new(&widths);
        for chunk in packetize(&data, &cuts) {
            session.update(chunk);
        }
        let per_width: Vec<f64> = widths
            .iter()
            .map(|k| iustitia_entropy::entropy_of_histogram(&GramHistogram::from_bytes(&data, k)))
            .collect();
        prop_assert_eq!(session.finish().values(), &per_width[..]);
        prop_assert_eq!(session.total_bytes(), data.len() as u64);
    }

    /// The slab feed (tier resolved once per chunk, unrolled dense
    /// lanes) must be bit-identical to the degenerate one-byte-slab
    /// feed on every tier at once, including the k = 16 rolling edge
    /// where the window exactly fills the u128 — the witness that the
    /// fixed-width-lane rewrite changed no window enumeration.
    #[test]
    fn slab_feed_equals_byte_feed_at_all_paper_widths(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(1usize..64, 0..16),
    ) {
        let widths = FeatureWidths::new(vec![1, 2, 3, 5, 10, 16]);
        let mut slab = IncrementalVector::new(&widths);
        for chunk in packetize(&data, &cuts) {
            slab.update(chunk);
        }
        let mut bytewise = IncrementalVector::new(&widths);
        for &b in &data {
            bytewise.update(&[b]);
        }
        prop_assert_eq!(slab.finish().values(), bytewise.finish().values());
        prop_assert_eq!(slab.counters_used(), bytewise.counters_used());
        prop_assert_eq!(slab.total_bytes(), bytewise.total_bytes());
    }

    /// The sum a table keeps as it counts must equal `Σ T(count)` over
    /// a scan of its slots, whatever happened to it: keys from a small
    /// alphabet, so counts run into the thousands, past the `Δ` table;
    /// a reservation the keys outgrow, so the table rehashes; and
    /// clears in between, after which the sum starts again from zero.
    /// Both key widths, and the dense pair table, whose sum must also
    /// equal the open table's over the same keys. (Saturation at
    /// `u32::MAX` is pinned for both kinds of table by
    /// `fastmap::tests::pair_counts_saturate_at_u32_max_like_the_open_table`.)
    #[test]
    fn maintained_sum_equals_a_slot_scan(
        alphabet in 1u64..48,
        reserved in 0usize..8,
        ops in table_ops(),
    ) {
        let mut narrow = CounterTable::<u64>::with_capacity(reserved);
        let mut wide = CounterTable::<u128>::with_capacity(reserved);
        let mut pairs = PairTable::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                TableOp::Increment(key) => {
                    let key = key % alphabet;
                    narrow.increment(key);
                    wide.increment(u128::from(key) << 64 | u128::from(key));
                    pairs.increment(key as u16);
                }
                TableOp::Clear => {
                    assert_sum_matches_scan(&narrow);
                    assert_sum_matches_scan(&wide);
                    assert_pair_sum_matches_scan(&pairs);
                    narrow.clear();
                    wide.clear();
                    pairs.clear();
                }
            }
            if i % 257 == 0 {
                assert_sum_matches_scan(&narrow);
                assert_sum_matches_scan(&wide);
                assert_pair_sum_matches_scan(&pairs);
                prop_assert_eq!(pairs.sum_c_log2_c(), narrow.sum_c_log2_c());
            }
        }
        assert_sum_matches_scan(&narrow);
        assert_sum_matches_scan(&wide);
        assert_pair_sum_matches_scan(&pairs);
        prop_assert_eq!(pairs.sum_c_log2_c(), narrow.sum_c_log2_c());
        prop_assert_eq!(pairs.len(), narrow.len());
    }

    /// An anytime probe finishes the same state again and again as
    /// packets arrive: at every chunk boundary of a low-entropy payload,
    /// `finish_entropies_into` must bit-equal the one-shot vector of the
    /// prefix fed so far — on a state recycled through `reset` from a
    /// different flow, reserved for a window the payload may outgrow.
    #[test]
    fn probe_finish_equals_one_shot_at_every_prefix(
        junk in low_entropy_payloads(),
        data in low_entropy_payloads(),
        cuts in proptest::collection::vec(1usize..512, 1..16),
        hint in 0usize..4096,
    ) {
        let widths = FeatureWidths::new(vec![1, 2, 3, 5, 10]);
        let mut state = IncrementalVector::with_byte_hint(&widths, hint);
        state.update(&junk);
        state.reset();
        state.reserve_bytes(hint);
        let mut out = Vec::new();
        let mut fed = 0;
        for chunk in packetize(&data, &cuts) {
            state.update(chunk);
            fed += chunk.len();
            state.finish_entropies_into(&mut out);
            let one_shot = EntropyVector::compute(&data[..fed], &widths);
            let bits = |values: &[f64]| values.iter().map(|h| h.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&out), bits(one_shot.values()), "prefix of {} bytes", fed);
        }
    }

    #[test]
    fn estimator_counter_budget_is_monotone_in_epsilon(
        b in 64usize..8192,
        k in 2usize..=8,
    ) {
        let loose = EstimatorConfig::new(0.8, 0.5).expect("valid");
        let tight = EstimatorConfig::new(0.2, 0.5).expect("valid");
        let c_loose = iustitia_entropy::counters_required(&loose, k, b).expect("k >= 2");
        let c_tight = iustitia_entropy::counters_required(&tight, k, b).expect("k >= 2");
        prop_assert!(c_loose <= c_tight);
    }
}
