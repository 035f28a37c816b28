//! Property-based tests for the randomness-test battery: the
//! incremental [`RandomnessBattery`] must be bit-identical to the
//! one-shot [`battery_features`] under any packetization, and a
//! recycled (reset) battery must be indistinguishable from a fresh
//! one. These are the invariants that let the streaming pipeline pool
//! battery state per flow without ever reallocating.

use iustitia_entropy::{battery_features, RandomnessBattery, BATTERY_FEATURES};
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

proptest! {
    /// The battery's integer accumulators make chunk boundaries
    /// invisible: any packetization — including cut sizes of 1, which
    /// straddle every bit-run, autocorrelation-lag, and byte-run
    /// boundary — finishes to the same bits as the one-shot call.
    #[test]
    fn battery_is_packetization_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        cuts in proptest::collection::vec(1usize..48, 0..24),
    ) {
        let mut battery = RandomnessBattery::new();
        for chunk in packetize(&data, &cuts) {
            battery.update(chunk);
        }
        prop_assert_eq!(
            battery.finish(),
            battery_features(&data),
            "incremental battery must be bit-identical to one-shot"
        );
    }

    /// `update` takes its first four bytes (the largest lag) through a
    /// general step and the rest through a loop that assumes every lag
    /// has its partner. Packets of 1–5 bytes, after a first packet of
    /// 0–5, put the hand-over at every offset inside a packet, at packet
    /// boundaries, and in packets too short to reach it.
    #[test]
    fn tiny_packets_cross_the_warm_up_hand_over_at_every_offset(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        first in 0usize..=5,
        cuts in proptest::collection::vec(1usize..=5, 1..12),
    ) {
        let (head, rest) = data.split_at(first.min(data.len()));
        let mut battery = RandomnessBattery::new();
        battery.update(head);
        for chunk in packetize(rest, &cuts) {
            battery.update(chunk);
        }
        prop_assert_eq!(battery.total_bytes(), data.len() as u64);
        prop_assert_eq!(battery.finish(), battery_features(&data));

        // One-shot runs each loop once; the byte-at-a-time feed enters
        // and leaves the second one per byte.
        let mut bytewise = RandomnessBattery::new();
        for &byte in &data {
            bytewise.update(&[byte]);
        }
        prop_assert_eq!(battery.finish(), bytewise.finish());
    }

    /// Degenerate packetization: a stream of 1-byte packets.
    #[test]
    fn one_byte_packets_match_one_shot(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut battery = RandomnessBattery::new();
        for &byte in &data {
            battery.update(&[byte]);
        }
        prop_assert_eq!(battery.finish(), battery_features(&data));
    }

    /// `reset()` + refeed must be indistinguishable from a fresh
    /// battery (the flow-state pool-recycling invariant): junk fed
    /// before the reset — under its own arbitrary packetization — must
    /// leave no trace in any of the six statistics.
    #[test]
    fn recycled_battery_matches_fresh(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        junk_cuts in proptest::collection::vec(1usize..32, 0..16),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(1usize..32, 0..16),
    ) {
        let mut recycled = RandomnessBattery::new();
        for chunk in packetize(&junk, &junk_cuts) {
            recycled.update(chunk);
        }
        recycled.reset();
        for chunk in packetize(&data, &cuts) {
            recycled.update(chunk);
        }

        let mut fresh = RandomnessBattery::new();
        for chunk in packetize(&data, &cuts) {
            fresh.update(chunk);
        }
        prop_assert_eq!(recycled.finish(), fresh.finish());
    }

    /// Every statistic the battery emits is a bounded ratio; NaNs or
    /// values escaping [0, 1] would poison the SVM's RBF kernel.
    #[test]
    fn battery_features_are_bounded(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let features = battery_features(&data);
        prop_assert_eq!(features.len(), BATTERY_FEATURES);
        for (i, f) in features.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(f), "feature {i} = {f}");
        }
    }
}
