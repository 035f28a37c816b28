//! Feature extraction: turning payload bytes into entropy vectors, and
//! building labeled datasets from a file corpus under the paper's three
//! training regimes (§4.2–4.3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iustitia_corpus::LabeledFile;
use iustitia_entropy::{
    EntropyVector, EstimatorConfig, FeatureWidths, IncrementalEstimator, IncrementalVector,
    RandomnessBattery, StreamingEntropyEstimator, BATTERY_FEATURES,
};
use iustitia_ml::Dataset;

/// Bytes charged per resident counter in space accounting (the paper's
/// §4.4 cost model; also used by the bench binaries).
pub const BYTES_PER_COUNTER: usize = 32;

/// Fixed counter footprint of the randomness battery in §4.4-style
/// space accounting: the 256-bin byte histogram plus its 25 scalar
/// accumulators. Unlike the gram histograms this never grows with the
/// payload.
pub const BATTERY_COUNTERS: usize = 256 + 25;

/// How entropy features are computed from a buffer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FeatureMode {
    /// Exact per-gram counting (Formula 1).
    Exact,
    /// `(δ,ε)`-approximate streaming estimation for `k ≥ 2`, exact
    /// `h_1` (§4.4).
    Estimated(EstimatorConfig),
}

/// Extracts entropy-vector features from payload buffers.
///
/// # Examples
///
/// ```
/// use iustitia::features::{FeatureExtractor, FeatureMode};
/// use iustitia_entropy::FeatureWidths;
///
/// let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
/// let features = fx.extract(b"GET /index.html HTTP/1.1 and some more text");
/// assert_eq!(features.len(), 4);
/// assert!(features.iter().all(|h| (0.0..=1.0).contains(h)));
/// ```
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    widths: FeatureWidths,
    mode: FeatureMode,
    estimator: Option<StreamingEntropyEstimator>,
    battery: bool,
}

impl FeatureExtractor {
    /// Creates an extractor. `seed` feeds the estimator's sampling RNG
    /// (unused in [`FeatureMode::Exact`]). The randomness battery is
    /// off; enable it with [`with_battery`](Self::with_battery).
    pub fn new(widths: FeatureWidths, mode: FeatureMode, seed: u64) -> Self {
        let estimator = match &mode {
            FeatureMode::Exact => None,
            FeatureMode::Estimated(cfg) => Some(StreamingEntropyEstimator::with_seed(*cfg, seed)),
        };
        FeatureExtractor { widths, mode, estimator, battery: false }
    }

    /// Enables or disables the randomness-test battery
    /// ([`RandomnessBattery`]). When enabled, every feature vector
    /// carries [`BATTERY_FEATURES`] extra values after the entropy
    /// vector — the statistics that separate compressed streams from
    /// ciphertext. The battery is always computed exactly, even in
    /// estimated entropy mode (its state is a fixed 256-bin histogram,
    /// so there is nothing to approximate).
    pub fn with_battery(mut self, battery: bool) -> Self {
        self.battery = battery;
        self
    }

    /// The feature widths this extractor produces.
    pub fn widths(&self) -> &FeatureWidths {
        &self.widths
    }

    /// The feature mode.
    pub fn mode(&self) -> &FeatureMode {
        &self.mode
    }

    /// Whether the randomness battery is enabled.
    pub fn battery(&self) -> bool {
        self.battery
    }

    /// Length of the feature vectors this extractor produces.
    pub fn n_features(&self) -> usize {
        self.widths.len() + if self.battery { BATTERY_FEATURES } else { 0 }
    }

    /// Computes the feature vector of `payload`.
    pub fn extract(&mut self, payload: &[u8]) -> Vec<f64> {
        let mut out = match &mut self.estimator {
            None => EntropyVector::compute(payload, &self.widths).into_values(),
            Some(est) => est.estimate_vector(payload, &self.widths),
        };
        if self.battery {
            // lint: allow(L009) — one-shot extraction at flow eviction, once per flow decision
            out.extend_from_slice(&iustitia_entropy::battery_features(payload));
        }
        out
    }

    /// Starts a per-flow feature session sized for `b_hint` payload
    /// bytes (the pipeline passes its configured buffer size `b`).
    ///
    /// Feeding a session the same bytes in any packetization and
    /// calling [`FlowFeatureState::finish`] is bit-identical to
    /// [`extract`](Self::extract) on the concatenated payload, provided
    /// `b_hint` equals the total length in estimated mode (exact mode
    /// ignores the hint entirely).
    pub fn begin_flow(&self, b_hint: usize) -> FlowFeatureState {
        let inner = match &self.estimator {
            None => FlowStateInner::Exact(IncrementalVector::with_byte_hint(&self.widths, b_hint)),
            Some(est) => FlowStateInner::Estimated(est.begin_incremental(&self.widths, b_hint)),
        };
        FlowFeatureState { inner, battery: self.battery.then(RandomnessBattery::new) }
    }

    /// Resets a previously finished flow session to the state
    /// [`begin_flow`](Self::begin_flow) would produce, reusing its
    /// histogram/sketch allocations — the pipeline's pool-recycling
    /// path, which makes steady-state packet processing allocation-free.
    ///
    /// A recycled session is bit-identical to a fresh one on the same
    /// payload (exact mode trivially; estimated mode re-derives the
    /// per-width sampling RNG from the extractor seed). If `state` was
    /// produced by an extractor in a different mode (or with a
    /// different battery setting) it is rebuilt from scratch instead.
    pub fn reset_flow(&self, state: &mut FlowFeatureState, b_hint: usize) {
        if self.battery != state.battery.is_some() {
            *state = self.begin_flow(b_hint);
            return;
        }
        if let Some(battery) = &mut state.battery {
            battery.reset();
        }
        match (&self.estimator, &mut state.inner) {
            (None, FlowStateInner::Exact(v)) => {
                v.reset();
                v.reserve_bytes(b_hint);
            }
            (Some(est), FlowStateInner::Estimated(session)) => {
                est.reset_incremental(session, b_hint);
            }
            _ => *state = self.begin_flow(b_hint),
        }
    }

    /// Counters used per flow: exact counting needs one counter per
    /// distinct gram (reported per-buffer), the sketch needs the fixed
    /// `g·z` budget (§4.4, Formula 3).
    pub fn counters_for_buffer(&self, payload: &[u8]) -> usize {
        let battery = if self.battery { BATTERY_COUNTERS } else { 0 };
        battery
            + match (&self.mode, &self.estimator) {
                (FeatureMode::Exact, _) => self
                    .widths
                    .iter()
                    .map(|k| {
                        iustitia_entropy::GramHistogram::from_bytes(payload, k).counters_used()
                    })
                    .sum(),
                (FeatureMode::Estimated(_), Some(est)) => {
                    // h1 is still counted exactly (256-counter dense table).
                    let h1 = if self.widths.iter().any(|k| k == 1) { 256 } else { 0 };
                    h1 + est.total_counters(&self.widths, payload.len())
                }
                (FeatureMode::Estimated(_), None) => {
                    unreachable!("estimator exists in Estimated mode")
                }
            }
    }
}

/// In-progress feature state of one pending flow, created by
/// [`FeatureExtractor::begin_flow`].
///
/// This replaces the historical "buffer the first `b` payload bytes,
/// then extract" flow state: chunks are folded in as packets arrive,
/// so a pending flow holds O(distinct grams) (exact mode) or the fixed
/// `g·z` sketch (estimated mode) instead of O(`b`) payload bytes.
#[derive(Debug, Clone)]
pub struct FlowFeatureState {
    inner: FlowStateInner,
    /// Present iff the owning extractor has the battery enabled; fed
    /// the same chunks as the entropy state and finished after it.
    battery: Option<RandomnessBattery>,
}

#[derive(Debug, Clone)]
enum FlowStateInner {
    Exact(IncrementalVector),
    Estimated(IncrementalEstimator),
}

impl FlowFeatureState {
    /// Folds one chunk of classification-window payload into the state.
    pub fn update(&mut self, chunk: &[u8]) {
        match &mut self.inner {
            FlowStateInner::Exact(v) => v.update(chunk),
            FlowStateInner::Estimated(e) => e.update(chunk),
        }
        if let Some(battery) = &mut self.battery {
            battery.update(chunk);
        }
    }

    /// The feature vector of everything fed so far: the entropy vector,
    /// then the battery features when the battery is enabled.
    pub fn finish(&self) -> Vec<f64> {
        let mut out = match &self.inner {
            FlowStateInner::Exact(v) => v.finish().into_values(),
            FlowStateInner::Estimated(e) => e.finish(),
        };
        if let Some(battery) = &self.battery {
            // lint: allow(L009) — owned-result convenience API; the pipeline uses finish_into
            out.extend_from_slice(&battery.finish());
        }
        out
    }

    /// Writes the feature vector into `out` (cleared first), using
    /// `means_scratch` for the estimated sketches' per-finish median
    /// buffers, so a warm caller allocates nothing in either mode — the
    /// flow's conclusion and every anytime probe finish through here.
    /// Exact-mode widths read each table's fixed-point `Σ c·log₂c`, and
    /// the battery features derive from fixed-size integer state, so
    /// neither needs scratch. Values are bit-identical to
    /// [`finish`](Self::finish).
    pub fn finish_into(&self, out: &mut Vec<f64>, means_scratch: &mut Vec<f64>) {
        match &self.inner {
            FlowStateInner::Exact(v) => v.finish_entropies_into(out),
            FlowStateInner::Estimated(e) => e.finish_into(out, means_scratch),
        }
        if let Some(battery) = &self.battery {
            // lint: allow(L009) — reused scratch: capacity persists across flows after warm-up
            out.extend_from_slice(&battery.finish());
        }
    }

    /// Total payload bytes fed so far.
    pub fn total_bytes(&self) -> u64 {
        match &self.inner {
            FlowStateInner::Exact(v) => v.total_bytes(),
            FlowStateInner::Estimated(e) => e.total_bytes(),
        }
    }

    /// Counters currently resident for this flow.
    pub fn counters_used(&self) -> usize {
        let battery = if self.battery.is_some() { BATTERY_COUNTERS } else { 0 };
        battery
            + match &self.inner {
                FlowStateInner::Exact(v) => v.counters_used(),
                FlowStateInner::Estimated(e) => e.counters_used(),
            }
    }

    /// This flow's feature state in the paper's §4.4 accounting:
    /// [`BYTES_PER_COUNTER`] per resident counter (one per distinct
    /// gram in exact mode). It is not the heap the state occupies —
    /// tables are reserved for the window `b` before the first byte
    /// arrives and stay half empty at best; `tests/pool_alloc.rs`
    /// bounds that figure.
    pub fn resident_bytes(&self) -> usize {
        self.counters_used() * BYTES_PER_COUNTER
    }
}

/// The three ways of deriving training vectors from a corpus file
/// (§4.2–4.3).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TrainingMethod {
    /// `H_F`: entropy vector of the *entire* file.
    WholeFile,
    /// `H_b`: entropy vector of the first `b` bytes.
    Prefix {
        /// Buffer size `b`.
        b: usize,
    },
    /// `H_b′`: `b` consecutive bytes starting at a random offset in
    /// `[0, T]` — models an unknown application header of length ≤ `T`.
    RandomOffsetPrefix {
        /// Buffer size `b`.
        b: usize,
        /// Maximum header length `T`.
        t_max: usize,
    },
}

/// Builds a labeled [`Dataset`] of entropy vectors from corpus files.
///
/// `seed` drives the random offsets of
/// [`TrainingMethod::RandomOffsetPrefix`] and the estimator sampling if
/// `mode` is estimated.
pub fn dataset_from_corpus(
    files: &[LabeledFile],
    widths: &FeatureWidths,
    method: TrainingMethod,
    mode: FeatureMode,
    seed: u64,
) -> Dataset {
    dataset_from_corpus_battery(files, widths, method, mode, seed, false)
}

/// Like [`dataset_from_corpus`], but optionally appending the
/// randomness-battery features to every row. With `battery = false`
/// this is exactly [`dataset_from_corpus`] (same RNG draws, same rows).
pub fn dataset_from_corpus_battery(
    files: &[LabeledFile],
    widths: &FeatureWidths,
    method: TrainingMethod,
    mode: FeatureMode,
    seed: u64,
    battery: bool,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fx = FeatureExtractor::new(widths.clone(), mode, seed ^ 0x0F1CE).with_battery(battery);
    let mut ds = Dataset::new(fx.n_features(), iustitia_corpus::FileClass::names());
    for file in files {
        let slice: &[u8] = match method {
            TrainingMethod::WholeFile => &file.data,
            TrainingMethod::Prefix { b } => &file.data[..b.min(file.data.len())],
            TrainingMethod::RandomOffsetPrefix { b, t_max } => {
                let max_start = t_max.min(file.data.len().saturating_sub(1));
                let start = if max_start == 0 { 0 } else { rng.gen_range(0..=max_start) };
                let end = (start + b).min(file.data.len());
                &file.data[start..end]
            }
        };
        ds.push(fx.extract(slice), file.class.index());
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use iustitia_corpus::{CorpusBuilder, FileClass};

    fn small_corpus() -> Vec<LabeledFile> {
        CorpusBuilder::new(3).files_per_class(6).size_range(2048, 4096).build()
    }

    #[test]
    fn exact_extractor_matches_entropy_vector() {
        let widths = FeatureWidths::full();
        let mut fx = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let data = b"some sample payload with words and structure";
        let got = fx.extract(data);
        let want = iustitia_entropy::entropy_vector(data, widths.as_slice());
        assert_eq!(got, want);
    }

    #[test]
    fn estimated_extractor_within_tolerance() {
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::new(0.25, 0.25).expect("valid");
        let mut exact = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let mut est = FeatureExtractor::new(widths.clone(), FeatureMode::Estimated(cfg), 7);
        let data: Vec<u8> =
            (0..2048u32).map(|i| (i.wrapping_mul(2654435761) >> 18) as u8).collect();
        let e = exact.extract(&data);
        let a = est.extract(&data);
        // h1 is computed exactly in both modes, but HashMap iteration
        // order perturbs float summation at the last ulp.
        assert!((e[0] - a[0]).abs() < 1e-12, "h1 must be exact in both modes");
        for (x, y) in e.iter().zip(&a).skip(1) {
            assert!((x - y).abs() < 0.2, "exact={x} est={y}");
        }
    }

    #[test]
    fn estimated_mode_uses_fewer_counters_at_1k() {
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let exact = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let est = FeatureExtractor::new(widths.clone(), FeatureMode::Estimated(cfg), 0);
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(97)) as u8).collect();
        let c_exact = exact.counters_for_buffer(&data);
        let c_est = est.counters_for_buffer(&data);
        assert!(c_est < c_exact, "est={c_est} exact={c_exact}");
    }

    #[test]
    fn dataset_has_one_row_per_file() {
        let corpus = small_corpus();
        let ds = dataset_from_corpus(
            &corpus,
            &FeatureWidths::cart_selected(),
            TrainingMethod::WholeFile,
            FeatureMode::Exact,
            1,
        );
        assert_eq!(ds.len(), corpus.len());
        assert_eq!(ds.n_features(), 4);
        assert_eq!(ds.n_classes(), 4);
        assert_eq!(ds.class_counts(), vec![6, 6, 6, 6]);
    }

    #[test]
    fn battery_dataset_appends_battery_features() {
        let corpus = small_corpus();
        let widths = FeatureWidths::cart_selected();
        let plain = dataset_from_corpus(
            &corpus,
            &widths,
            TrainingMethod::Prefix { b: 256 },
            FeatureMode::Exact,
            1,
        );
        let with = dataset_from_corpus_battery(
            &corpus,
            &widths,
            TrainingMethod::Prefix { b: 256 },
            FeatureMode::Exact,
            1,
            true,
        );
        assert_eq!(with.n_features(), widths.len() + BATTERY_FEATURES);
        for (i, file) in corpus.iter().enumerate() {
            // The entropy prefix of each row is unchanged; the tail is
            // exactly the one-shot battery over the same slice.
            assert_eq!(&with.features(i)[..widths.len()], plain.features(i));
            let slice = &file.data[..256.min(file.data.len())];
            assert_eq!(
                &with.features(i)[widths.len()..],
                &iustitia_entropy::battery_features(slice)
            );
        }
    }

    #[test]
    fn battery_flow_session_matches_one_shot_extract() {
        let widths = FeatureWidths::svm_selected();
        let mut fx = FeatureExtractor::new(widths, FeatureMode::Exact, 0).with_battery(true);
        assert_eq!(fx.n_features(), 4 + BATTERY_FEATURES);
        let data: Vec<u8> = (0..777u32).map(|i| (i.wrapping_mul(193) >> 3) as u8).collect();
        let one_shot = fx.extract(&data);
        assert_eq!(one_shot.len(), fx.n_features());
        for chunk_len in [1usize, 4, 16, 777] {
            let mut session = fx.begin_flow(data.len());
            for chunk in data.chunks(chunk_len) {
                session.update(chunk);
            }
            assert_eq!(session.finish(), one_shot, "chunk_len={chunk_len}");
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            session.finish_into(&mut out, &mut scratch);
            assert_eq!(out, one_shot, "finish_into chunk_len={chunk_len}");
        }
    }

    #[test]
    fn reset_flow_rebuilds_on_battery_mismatch() {
        let widths = FeatureWidths::svm_selected();
        let plain = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let battery = FeatureExtractor::new(widths, FeatureMode::Exact, 0).with_battery(true);
        let mut state = plain.begin_flow(256);
        battery.reset_flow(&mut state, 256);
        state.update(b"abcabc");
        assert_eq!(state.finish().len(), battery.n_features());
        // And back: a battery state handed to a plain extractor is
        // rebuilt without the battery tail.
        plain.reset_flow(&mut state, 256);
        state.update(b"abcabc");
        assert_eq!(state.finish().len(), plain.n_features());
    }

    #[test]
    fn prefix_method_uses_only_first_b_bytes() {
        let corpus = small_corpus();
        let b = 64;
        let ds = dataset_from_corpus(
            &corpus,
            &FeatureWidths::new(vec![1]),
            TrainingMethod::Prefix { b },
            FeatureMode::Exact,
            1,
        );
        for (i, file) in corpus.iter().enumerate() {
            let expect = iustitia_entropy::entropy(&file.data[..b.min(file.data.len())], 1);
            assert_eq!(ds.features(i)[0], expect);
        }
    }

    #[test]
    fn random_offset_is_deterministic_per_seed() {
        let corpus = small_corpus();
        let method = TrainingMethod::RandomOffsetPrefix { b: 32, t_max: 512 };
        let a = dataset_from_corpus(
            &corpus,
            &FeatureWidths::new(vec![1, 2]),
            method,
            FeatureMode::Exact,
            5,
        );
        let b = dataset_from_corpus(
            &corpus,
            &FeatureWidths::new(vec![1, 2]),
            method,
            FeatureMode::Exact,
            5,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_offset_random_prefix_equals_plain_prefix() {
        let corpus = small_corpus();
        let widths = FeatureWidths::new(vec![1, 2]);
        let a = dataset_from_corpus(
            &corpus,
            &widths,
            TrainingMethod::RandomOffsetPrefix { b: 48, t_max: 0 },
            FeatureMode::Exact,
            3,
        );
        let b = dataset_from_corpus(
            &corpus,
            &widths,
            TrainingMethod::Prefix { b: 48 },
            FeatureMode::Exact,
            3,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn extractor_accessors() {
        let fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
        assert_eq!(fx.widths().len(), 4);
        assert_eq!(*fx.mode(), FeatureMode::Exact);
    }

    #[test]
    fn empty_payload_extracts_zero_vector() {
        let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
        assert_eq!(fx.extract(b""), vec![0.0; 4]);
    }

    #[test]
    fn flow_session_matches_one_shot_extract_exact() {
        let widths = FeatureWidths::svm_selected();
        let mut fx = FeatureExtractor::new(widths, FeatureMode::Exact, 0);
        let data: Vec<u8> = (0..777u32).map(|i| (i.wrapping_mul(193) >> 3) as u8).collect();
        let one_shot = fx.extract(&data);
        for chunk_len in [1usize, 4, 16, 777] {
            let mut session = fx.begin_flow(data.len());
            for chunk in data.chunks(chunk_len) {
                session.update(chunk);
            }
            assert_eq!(session.finish(), one_shot, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn flow_session_matches_one_shot_extract_estimated() {
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let mut fx = FeatureExtractor::new(widths, FeatureMode::Estimated(cfg), 19);
        let data: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        let one_shot = fx.extract(&data);
        for chunk_len in [1usize, 3, 64, 1024] {
            let mut session = fx.begin_flow(data.len());
            for chunk in data.chunks(chunk_len) {
                session.update(chunk);
            }
            assert_eq!(session.finish(), one_shot, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn interleaved_flows_match_independent_extractors() {
        // Regression test for estimator state bleed: one shared
        // extractor serving two interleaved flows must produce exactly
        // the results of two independent extractors with the same seed.
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let flow_a: Vec<u8> = (0..512u32).map(|i| (i.wrapping_mul(101)) as u8).collect();
        let flow_b: Vec<u8> = (0..512u32).map(|i| (i.wrapping_mul(211) >> 2) as u8).collect();

        let shared = FeatureExtractor::new(widths.clone(), FeatureMode::Estimated(cfg), 77);
        let mut session_a = shared.begin_flow(flow_a.len());
        let mut session_b = shared.begin_flow(flow_b.len());
        for (ca, cb) in flow_a.chunks(32).zip(flow_b.chunks(48)) {
            session_a.update(ca);
            session_b.update(cb);
        }
        for ca in flow_a.chunks(32).skip(flow_b.len() / 48 + 1) {
            session_a.update(ca);
        }
        // Feed any remainder so both sessions saw their full payloads.
        let fed_a = session_a.total_bytes() as usize;
        session_a.update(&flow_a[fed_a..]);
        let fed_b = session_b.total_bytes() as usize;
        session_b.update(&flow_b[fed_b..]);

        let mut solo_a = FeatureExtractor::new(widths.clone(), FeatureMode::Estimated(cfg), 77);
        let mut solo_b = FeatureExtractor::new(widths, FeatureMode::Estimated(cfg), 77);
        assert_eq!(session_a.finish(), solo_a.extract(&flow_a));
        assert_eq!(session_b.finish(), solo_b.extract(&flow_b));
    }

    #[test]
    fn exact_session_resident_state_is_distinct_grams_not_payload() {
        let widths = FeatureWidths::svm_selected();
        let fx = FeatureExtractor::new(widths, FeatureMode::Exact, 0);
        let mut session = fx.begin_flow(4096);
        // Constant payload: one distinct gram per width, regardless of
        // how many bytes stream through.
        for _ in 0..64 {
            session.update(&[7u8; 64]);
        }
        assert_eq!(session.total_bytes(), 4096);
        assert_eq!(session.counters_used(), 4);
        assert_eq!(session.resident_bytes(), 4 * BYTES_PER_COUNTER);
    }

    #[test]
    fn recycled_flow_session_is_bit_identical_to_fresh() {
        let widths = FeatureWidths::svm_selected();
        let data: Vec<u8> = (0..900u32).map(|i| (i.wrapping_mul(157) >> 2) as u8).collect();
        let junk: Vec<u8> = (0..2048u32).map(|i| (i.wrapping_mul(31)) as u8).collect();
        for mode in [FeatureMode::Exact, FeatureMode::Estimated(EstimatorConfig::svm_optimal())] {
            for battery in [false, true] {
                let fx =
                    FeatureExtractor::new(widths.clone(), mode.clone(), 13).with_battery(battery);
                let mut fresh = fx.begin_flow(1024);
                for chunk in data.chunks(37) {
                    fresh.update(chunk);
                }
                let mut recycled = fx.begin_flow(1024);
                recycled.update(&junk);
                fx.reset_flow(&mut recycled, 1024);
                assert_eq!(recycled.total_bytes(), 0, "{mode:?}");
                for chunk in data.chunks(37) {
                    recycled.update(chunk);
                }
                assert_eq!(recycled.finish(), fresh.finish(), "{mode:?} battery={battery}");
            }
        }
    }

    #[test]
    fn reset_flow_rebuilds_on_mode_mismatch() {
        let widths = FeatureWidths::svm_selected();
        let exact = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let est = FeatureExtractor::new(
            widths,
            FeatureMode::Estimated(EstimatorConfig::svm_optimal()),
            0,
        );
        let mut state = exact.begin_flow(256);
        est.reset_flow(&mut state, 256);
        // The state is now an estimated session with the sketch budget.
        assert_eq!(state.counters_used(), est.counters_for_buffer(&[0u8; 256]) - 256);
    }

    #[test]
    fn classes_remain_separable_from_prefixes() {
        // Hypothesis 2 consequence: even 64-byte prefixes should order
        // text < encrypted on h1 for most files.
        let corpus = CorpusBuilder::new(11).files_per_class(12).size_range(4096, 8192).build();
        let ds = dataset_from_corpus(
            &corpus,
            &FeatureWidths::new(vec![1]),
            TrainingMethod::Prefix { b: 64 },
            FeatureMode::Exact,
            2,
        );
        let mean = |class: FileClass| {
            let rows: Vec<f64> =
                ds.iter().filter(|(_, y)| *y == class.index()).map(|(x, _)| x[0]).collect();
            rows.iter().sum::<f64>() / rows.len() as f64
        };
        assert!(mean(FileClass::Text) < mean(FileClass::Encrypted));
    }
}
