//! Streaming `(δ,ε)`-approximate entropy estimation (§4.4 of the paper).
//!
//! Calculating exact entropy vectors for every flow costs one counter per
//! distinct gram. Iustitia instead adapts the streaming entropy estimator
//! of Lall et al. (SIGMETRICS 2006), which builds on the
//! Alon–Matias–Szegedy frequency-moment sketch: estimate
//! `S_k = Σᵢ m_ik·log(m_ik)` by sampling random stream positions and
//! counting suffix occurrences, then plug `S_k` into Formula 1.
//!
//! For an error bound `ε` with failure probability `δ`, feature `h_k`
//! needs `g·z_k` counters with
//!
//! ```text
//! z_k = ⌈32·log_{|f_k|}(b) / ε²⌉      g = ⌈2·log₂(1/δ)⌉
//! ```
//!
//! The sketch requires `|f_k| ≫ b`, which fails for `h_1`
//! (`|f_1| = 256`), so — exactly as the paper prescribes — `h_1` is always
//! computed exactly and only `k ≥ 2` features are estimated.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fastmap::FxHashMap;
use crate::histogram::GramHistogram;
use crate::vector::FeatureWidths;
use crate::BITS_PER_BYTE;

/// Mixing constant for deriving independent per-width RNG streams from
/// one base seed (the 64-bit golden-ratio constant).
const WIDTH_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Errors from the `(δ,ε)` estimation configuration or invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// `ε` must be strictly positive.
    InvalidEpsilon(f64),
    /// `δ` must be inside `(0, 1)`.
    InvalidDelta(f64),
    /// Estimation is undefined for `h_1` because `|f_1| = 256` violates
    /// the sketch's `|f_k| ≫ b` assumption; compute `h_1` exactly.
    UnsupportedWidth(usize),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be positive, got {e}")
            }
            EstimateError::InvalidDelta(d) => {
                write!(f, "delta must be in (0, 1), got {d}")
            }
            EstimateError::UnsupportedWidth(k) => {
                write!(f, "streaming estimation unsupported for feature width {k}; h_1 must be computed exactly")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// Configuration of the `(δ,ε)`-approximation: relative error at most `ε`
/// with probability at least `1 − δ`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimatorConfig {
    /// Relative error bound `ε > 0`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
}

impl EstimatorConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InvalidEpsilon`] or
    /// [`EstimateError::InvalidDelta`] on out-of-range parameters.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, EstimateError> {
        if epsilon <= 0.0 || epsilon.is_nan() {
            return Err(EstimateError::InvalidEpsilon(epsilon));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(EstimateError::InvalidDelta(delta));
        }
        Ok(EstimatorConfig { epsilon, delta })
    }

    /// The paper's best SVM operating point for `b′ = 1024`
    /// (§4.4.2: `ε = 0.25`, `δ = 0.75`).
    pub fn svm_optimal() -> Self {
        EstimatorConfig { epsilon: 0.25, delta: 0.75 }
    }

    /// The paper's best CART operating point for `b′ = 1024`
    /// (§4.4.2: `ε = 0.5`, `δ = 0.1`).
    pub fn cart_optimal() -> Self {
        EstimatorConfig { epsilon: 0.5, delta: 0.1 }
    }

    /// Number of estimator groups `g = ⌈2·log₂(1/δ)⌉` (at least 1).
    pub fn groups(&self) -> usize {
        ((2.0 * (1.0 / self.delta).log2()).ceil() as usize).max(1)
    }

    /// Number of estimators per group for feature width `k` and buffer
    /// size `b`: `z_k = ⌈32·log_{|f_k|}(b) / ε²⌉` (at least 1).
    pub fn estimators_per_group(&self, k: usize, b: usize) -> usize {
        let log_fk_b = (b.max(2) as f64).log2() / (BITS_PER_BYTE * k as f64);
        ((32.0 * log_fk_b / (self.epsilon * self.epsilon)).ceil() as usize).max(1)
    }
}

/// Total counters `g·z_k` required to estimate `h_k` on a `b`-byte buffer
/// (the left side of Formula 3 for one feature).
///
/// # Errors
///
/// Returns [`EstimateError::UnsupportedWidth`] for `k < 2`.
pub fn counters_required(
    config: &EstimatorConfig,
    k: usize,
    b: usize,
) -> Result<usize, EstimateError> {
    if k < 2 {
        return Err(EstimateError::UnsupportedWidth(k));
    }
    Ok(config.groups() * config.estimators_per_group(k, b))
}

/// The lower bound on `ε` from Formula 4:
/// `ε > sqrt(K_φ · (log₂ b / α) · log₂(1/δ))`
/// where `K_φ = 8·Σ_{i ∈ φ, i ≠ 1} 1/i` is the feature-set coefficient and
/// `α` is the counter budget of the exact calculation.
///
/// For the paper's feature sets: `K_φSVM = 8·(1/2+1/3+1/5) ≈ 8.26`,
/// `K_φCART = 8·(1/3+1/4+1/5) ≈ 6.27`.
pub fn min_epsilon(widths: &FeatureWidths, b: usize, alpha: usize, delta: f64) -> f64 {
    let k_phi: f64 = widths.iter().filter(|&k| k != 1).map(|k| 8.0 / k as f64).sum();
    let log2_b = (b.max(2) as f64).log2();
    (k_phi * (log2_b / alpha.max(1) as f64) * (1.0 / delta).log2()).sqrt()
}

/// The streaming entropy estimator of §4.4.1.
///
/// Holds the `(δ,ε)` configuration and a base seed from which each
/// estimation derives its sampling RNG, so experiments are reproducible
/// and — crucially for the flow pipeline — estimates for different
/// flows are independent of interleaving: the sampling stream for a
/// payload depends only on `(seed, k)`, never on which flows were
/// estimated before it.
///
/// One-shot estimation ([`estimate_sk`](Self::estimate_sk) and
/// friends) is implemented as a single pass of the incremental sketch
/// ([`begin_incremental`](Self::begin_incremental)), so feeding a
/// payload in arbitrary chunks produces bit-identical results to
/// feeding it at once.
///
/// # Examples
///
/// ```
/// use iustitia_entropy::{entropy, EstimatorConfig, StreamingEntropyEstimator};
///
/// let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 16) as u8).collect();
/// let cfg = EstimatorConfig::new(0.25, 0.25)?;
/// let mut est = StreamingEntropyEstimator::with_seed(cfg, 42);
/// let approx = est.estimate_hk(&data, 3)?;
/// let exact = entropy(&data, 3);
/// assert!((approx - exact).abs() < 0.25, "approx={approx} exact={exact}");
/// # Ok::<(), iustitia_entropy::EstimateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEntropyEstimator {
    config: EstimatorConfig,
    seed: u64,
}

impl StreamingEntropyEstimator {
    /// Creates an estimator with an OS-derived base seed.
    pub fn new(config: EstimatorConfig) -> Self {
        StreamingEntropyEstimator::with_seed(config, StdRng::from_entropy().gen())
    }

    /// Creates an estimator with a deterministic seed (for experiments).
    pub fn with_seed(config: EstimatorConfig, seed: u64) -> Self {
        StreamingEntropyEstimator { config, seed }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The sampling RNG for feature width `k`: derived fresh from the
    /// base seed for every estimation, so no sampling state carries
    /// over between payloads (or between flows of a shared pipeline).
    fn width_rng(&self, k: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(WIDTH_SEED_MIX))
    }

    /// Starts an incremental estimation session sized for a buffer of
    /// `b_hint` bytes (the pipeline passes its configured `b`; one-shot
    /// callers pass the payload length). Feed chunks with
    /// [`IncrementalEstimator::update`] and read the vector with
    /// [`IncrementalEstimator::finish`].
    pub fn begin_incremental(&self, widths: &FeatureWidths, b_hint: usize) -> IncrementalEstimator {
        let slots = widths
            .iter()
            .map(|k| {
                if k == 1 {
                    WidthSlot::Exact(GramHistogram::new(1))
                } else {
                    WidthSlot::Sketch(IncrementalSketch::new(
                        &self.config,
                        k,
                        b_hint,
                        self.width_rng(k),
                    ))
                }
            })
            // lint: allow(L009) — flow-setup cold path: runs on pool miss; recycled flows go through reset_incremental
            .collect();
        // lint: allow(L009) — flow-setup cold path: width list cloned once per fresh session
        IncrementalEstimator { widths: widths.clone(), slots }
    }

    /// Resets a previously used incremental session to the exact state
    /// [`begin_incremental`](Self::begin_incremental) would produce for
    /// `b_hint`, reusing its allocations (tracker arrays, gram index,
    /// histogram tables) — the pool-recycling path of the flow pipeline.
    ///
    /// The sampling RNG is re-derived from `(seed, k)` just as for a
    /// fresh session, so a recycled session is bit-identical to a fresh
    /// one on the same payload.
    pub fn reset_incremental(&self, session: &mut IncrementalEstimator, b_hint: usize) {
        for (slot, k) in session.slots.iter_mut().zip(session.widths.iter()) {
            match slot {
                WidthSlot::Exact(hist) => hist.clear(),
                WidthSlot::Sketch(sketch) => {
                    sketch.reset(&self.config, b_hint, self.width_rng(k));
                }
            }
        }
    }

    /// Estimates `S_k = Σᵢ m_ik·log₂(m_ik)` over the `k`-grams of `data`
    /// using the sampling procedure of §4.4.1 (reservoir form).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnsupportedWidth`] for `k < 2`.
    pub fn estimate_sk(&mut self, data: &[u8], k: usize) -> Result<f64, EstimateError> {
        if k < 2 {
            return Err(EstimateError::UnsupportedWidth(k));
        }
        if data.len() < k + 1 {
            return Ok(0.0);
        }
        let mut sketch = IncrementalSketch::new(&self.config, k, data.len(), self.width_rng(k));
        sketch.update(data);
        Ok(sketch.estimate_sk())
    }

    /// Estimates the normalized entropy `h_k` of `data` by plugging the
    /// estimated `S_k` into Formula 1.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnsupportedWidth`] for `k < 2` — the
    /// caller must compute `h_1` exactly (see
    /// [`estimate_vector`](Self::estimate_vector), which does this
    /// automatically).
    pub fn estimate_hk(&mut self, data: &[u8], k: usize) -> Result<f64, EstimateError> {
        if k < 2 {
            return Err(EstimateError::UnsupportedWidth(k));
        }
        if data.len() < k + 1 {
            return Ok(0.0);
        }
        let m = (data.len() - k + 1) as f64;
        let sk = self.estimate_sk(data, k)?;
        let bits = m.log2() - sk / m;
        Ok((bits / (BITS_PER_BYTE * k as f64)).clamp(0.0, 1.0))
    }

    /// Estimates a full entropy vector: `h_1` exactly, every `k ≥ 2`
    /// feature via the streaming sketch — the hybrid Iustitia deploys.
    ///
    /// Implemented as one incremental session fed the whole payload, so
    /// it is bit-identical to [`begin_incremental`](Self::begin_incremental)
    /// over any packetization of `data` (with `b_hint = data.len()`).
    pub fn estimate_vector(&mut self, data: &[u8], widths: &FeatureWidths) -> Vec<f64> {
        let mut session = self.begin_incremental(widths, data.len());
        session.update(data);
        session.finish()
    }

    /// Total counters this estimator uses for the feature set on a
    /// `b`-byte buffer (`h_1`'s exact counters excluded, per the paper's
    /// Formula 3 which sums over `φᵢ ≠ h_1`).
    pub fn total_counters(&self, widths: &FeatureWidths, b: usize) -> usize {
        widths
            .iter()
            .filter(|&k| k >= 2)
            .map(|k| self.config.groups() * self.config.estimators_per_group(k, b))
            .sum()
    }
}

/// One running estimator of the AMS sketch: the gram adopted at its
/// current sample position and the occurrences seen since.
#[derive(Debug, Clone)]
struct Tracker {
    gram: u128,
    count: u64,
}

/// Incremental form of the §4.4.1 sampling procedure for one feature
/// width `k ≥ 2`.
///
/// The one-shot procedure samples a uniform window position per
/// estimator and counts suffix occurrences. Streaming, that is exactly
/// size-1 reservoir sampling: after `t` windows each estimator holds a
/// uniformly random position in `[1, t]`, replaced at window `s` with
/// probability `1/s`. Replacement times are drawn by skip-ahead — after
/// adopting at window `t`, the survival probability through window `s`
/// is `∏_{i=t+1..s}(1 − 1/i) = t/s`, so the next replacement window is
/// `⌊t/u⌋ + 1` for `u` uniform in `[0, 1)` — giving O(log n) amortized
/// work per window instead of a coin flip per estimator per window.
/// Between replacements, a gram→trackers index bumps the suffix counts
/// of every estimator tracking the current window's gram.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalSketch {
    k: usize,
    mask: u128,
    groups: usize,
    z: usize,
    trackers: Vec<Tracker>,
    /// Packed gram → indices of trackers currently counting it.
    by_gram: FxHashMap<u128, Vec<u32>>,
    /// Min-heap of `(replacement window, tracker index)`.
    schedule: BinaryHeap<Reverse<(u64, u32)>>,
    rng: StdRng,
    /// Rolling window key over the last `k` bytes fed.
    key: u128,
    /// Bytes fed so far (the first `k − 1` complete no window).
    fed: u64,
    /// Windows seen so far (`fed − k + 1` once `fed ≥ k`).
    windows: u64,
    /// Scratch: tracker indices due for replacement at the current window.
    due: Vec<u32>,
}

impl IncrementalSketch {
    fn new(config: &EstimatorConfig, k: usize, b_hint: usize, rng: StdRng) -> Self {
        debug_assert!(k >= 2, "h_1 is always exact; sketches are for k >= 2");
        let groups = config.groups();
        let z = config.estimators_per_group(k, b_hint);
        let n = groups * z;
        // lint: allow(L009) — flow-setup cold path: sketch construction happens on pool miss only
        let mut schedule = BinaryHeap::with_capacity(n);
        for idx in 0..n {
            // Every estimator adopts the first window it sees.
            // lint: allow(L009) — flow-setup cold path: fills the freshly reserved schedule
            schedule.push(Reverse((1, idx as u32)));
        }
        IncrementalSketch {
            k,
            mask: if k == 16 { u128::MAX } else { (1u128 << (8 * k)) - 1 },
            groups,
            z,
            // lint: allow(L009) — flow-setup cold path: tracker array built once per fresh sketch
            trackers: vec![Tracker { gram: 0, count: 0 }; n],
            by_gram: FxHashMap::default(),
            schedule,
            rng,
            key: 0,
            fed: 0,
            windows: 0,
            due: Vec::new(),
        }
    }

    /// Resident counters (`g·z`, fixed at construction).
    fn counters(&self) -> usize {
        self.trackers.len()
    }

    /// Restores the freshly-constructed state for a (possibly new)
    /// `b_hint`, reusing the tracker, index, and heap allocations. The
    /// RNG is replaced with the fresh per-width stream so a recycled
    /// sketch samples identically to a new one.
    fn reset(&mut self, config: &EstimatorConfig, b_hint: usize, rng: StdRng) {
        self.z = config.estimators_per_group(self.k, b_hint);
        let n = self.groups * self.z;
        self.trackers.clear();
        // lint: allow(L009) — pooled reuse: resize re-fills retained capacity, growing only when a larger b_hint arrives
        self.trackers.resize(n, Tracker { gram: 0, count: 0 });
        self.by_gram.clear();
        self.schedule.clear();
        for idx in 0..n {
            // lint: allow(L009) — pooled reuse: schedule capacity is retained across reset
            self.schedule.push(Reverse((1, idx as u32)));
        }
        self.rng = rng;
        self.key = 0;
        self.fed = 0;
        self.windows = 0;
        self.due.clear();
    }

    /// Feeds one chunk of the stream.
    fn update(&mut self, chunk: &[u8]) {
        for &b in chunk {
            self.key = ((self.key << 8) | u128::from(b)) & self.mask;
            self.fed += 1;
            if self.fed < self.k as u64 {
                continue;
            }
            self.windows += 1;
            let t = self.windows;
            // Estimators already tracking this gram count one more
            // suffix occurrence (a tracker replaced below restarts at 1
            // regardless, preserving the sequential semantics).
            if let Some(idxs) = self.by_gram.get(&self.key) {
                for &i in idxs {
                    // lint: allow(L008) — by_gram holds tracker indices < trackers.len() by construction
                    self.trackers[i as usize].count += 1;
                }
            }
            self.due.clear();
            while let Some(&Reverse((when, idx))) = self.schedule.peek() {
                if when > t {
                    break;
                }
                self.schedule.pop();
                // lint: allow(L009) — due is bounded by the estimator count n and retains capacity
                self.due.push(idx);
            }
            if self.due.is_empty() {
                continue;
            }
            // Sorted index order fixes the RNG consumption order when
            // several estimators replace at the same window, keeping
            // results independent of heap tie-breaking.
            self.due.sort_unstable();
            for di in 0..self.due.len() {
                // lint: allow(L008) — di < due.len() by the loop bound
                let idx = self.due[di];
                // lint: allow(L008) — schedule indices are < trackers.len() by construction
                let old = &self.trackers[idx as usize];
                if old.count > 0 {
                    if let Some(v) = self.by_gram.get_mut(&old.gram) {
                        if let Some(pos) = v.iter().position(|&x| x == idx) {
                            // lint: allow(L008) — position() just found pos in v, so swap_remove is in-bounds
                            v.swap_remove(pos);
                        }
                        if v.is_empty() {
                            // lint: allow(L008) — FxHashMap::remove never panics (the KB is conservative for Vec::remove)
                            self.by_gram.remove(&old.gram);
                        }
                    }
                }
                // lint: allow(L008) — schedule indices are < trackers.len() by construction
                self.trackers[idx as usize] = Tracker { gram: self.key, count: 1 };
                // lint: allow(L009) — per-gram index vecs are bounded by z; steady state is allocation-free per pool_alloc.rs
                self.by_gram.entry(self.key).or_default().push(idx);
                let u: f64 = self.rng.gen();
                let next = if u <= 0.0 {
                    u64::MAX
                } else {
                    let next_f = (t as f64 / u).floor();
                    if next_f >= u64::MAX as f64 {
                        u64::MAX
                    } else {
                        next_f as u64 + 1
                    }
                };
                // lint: allow(L009) — heap capacity n is fixed at construction and retained
                self.schedule.push(Reverse((next, idx)));
            }
        }
    }

    /// The `S_k` estimate over everything fed so far: per-estimator
    /// unbiased values `m·(r·log r − (r−1)·log(r−1))`, group averages,
    /// then the median of groups (steps 4–6 of §4.4.1).
    fn estimate_sk(&self) -> f64 {
        let mut group_means = Vec::with_capacity(self.groups);
        self.estimate_sk_with(&mut group_means)
    }

    /// As [`estimate_sk`](Self::estimate_sk), reusing `group_means`
    /// (cleared first) for the median buffer so steady-state callers —
    /// the pipeline's mid-flow anytime probes — allocate nothing once
    /// the scratch has grown to `groups` capacity. Bit-identical.
    fn estimate_sk_with(&self, group_means: &mut Vec<f64>) -> f64 {
        let m = self.windows;
        if m <= 1 {
            return 0.0;
        }
        let mf = m as f64;
        group_means.clear();
        for g in 0..self.groups {
            let mut sum = 0.0;
            // lint: allow(L008) — g < groups, so the slice ends at most at n = groups*z
            for tracker in &self.trackers[g * self.z..(g + 1) * self.z] {
                let r = tracker.count;
                if r > 1 {
                    let rf = r as f64;
                    sum += mf * (rf * rf.log2() - (rf - 1.0) * (rf - 1.0).log2());
                }
            }
            // lint: allow(L009) — pooled scratch: grows to `groups` entries once, then reused allocation-free
            group_means.push(sum / self.z as f64);
        }
        // lint: allow(L009) — stable sort of `groups` elements; scratch-backed callers amortize its buffer too
        group_means.sort_by(f64::total_cmp);
        let med = if group_means.len() % 2 == 1 {
            // lint: allow(L008) — group_means is non-empty (groups >= 1) and len/2 is in-bounds
            group_means[group_means.len() / 2]
        } else {
            let hi = group_means.len() / 2;
            // lint: allow(L008) — hi = len/2 >= 1 in the even branch, so hi-1 and hi are in-bounds
            0.5 * (group_means[hi - 1] + group_means[hi])
        };
        med.max(0.0)
    }

    /// The normalized entropy `h_k` of everything fed so far, with
    /// `group_means` as the scratch of the `S_k` median step.
    fn estimate_hk_with(&self, group_means: &mut Vec<f64>) -> f64 {
        let m = self.windows;
        if m <= 1 {
            return 0.0;
        }
        let mf = m as f64;
        let bits = mf.log2() - self.estimate_sk_with(group_means) / mf;
        (bits / (BITS_PER_BYTE * self.k as f64)).clamp(0.0, 1.0)
    }
}

/// Per-width state of an [`IncrementalEstimator`].
#[derive(Debug, Clone)]
enum WidthSlot {
    /// `h_1` is always exact (a dense 256-entry table at most).
    Exact(GramHistogram),
    /// `k ≥ 2`: the fixed-size `g·z` reservoir sketch.
    Sketch(IncrementalSketch),
}

/// An in-progress estimated entropy vector, fed one payload chunk at a
/// time — the estimated-mode counterpart of
/// [`IncrementalVector`](crate::incremental::IncrementalVector).
///
/// Created by
/// [`StreamingEntropyEstimator::begin_incremental`]. Feeding the same
/// bytes in any chunking yields bit-identical results, and matches
/// [`StreamingEntropyEstimator::estimate_vector`] when `b_hint` equals
/// the total payload length.
#[derive(Debug, Clone)]
pub struct IncrementalEstimator {
    widths: FeatureWidths,
    slots: Vec<WidthSlot>,
}

impl IncrementalEstimator {
    /// Feeds one chunk of payload into every per-width slot.
    pub fn update(&mut self, chunk: &[u8]) {
        for slot in &mut self.slots {
            match slot {
                WidthSlot::Exact(hist) => hist.extend_from_bytes(chunk),
                WidthSlot::Sketch(sketch) => sketch.update(chunk),
            }
        }
    }

    /// The feature widths this session produces.
    pub fn widths(&self) -> &FeatureWidths {
        &self.widths
    }

    /// Total bytes fed so far.
    pub fn total_bytes(&self) -> u64 {
        match self.slots.first() {
            Some(WidthSlot::Exact(hist)) => hist.window_count(),
            Some(WidthSlot::Sketch(sketch)) => sketch.fed,
            None => 0,
        }
    }

    /// Counters currently resident: the fixed `g·z` budget per sketch
    /// width plus the exact `h_1` table's distinct grams.
    pub fn counters_used(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| match slot {
                WidthSlot::Exact(hist) => hist.counters_used(),
                WidthSlot::Sketch(sketch) => sketch.counters(),
            })
            .sum()
    }

    /// The estimated entropy vector of everything fed so far (`h_1`
    /// exact, `k ≥ 2` via the sketch).
    pub fn finish(&self) -> Vec<f64> {
        // lint: allow(L009) — owned-result convenience API; the pipeline uses finish_into with pooled scratch
        let mut out = Vec::with_capacity(self.slots.len());
        self.finish_into(&mut out, &mut Vec::new());
        out
    }

    /// Writes the feature values into `out` (cleared first), reusing
    /// `means_scratch` for every sketch slot's group-means median step,
    /// so repeated finishes — the anytime probe runs one per probed
    /// packet — allocate nothing once both buffers have grown.
    /// Bit-identical to [`finish`](Self::finish).
    pub fn finish_into(&self, out: &mut Vec<f64>, means_scratch: &mut Vec<f64>) {
        out.clear();
        for slot in &self.slots {
            let h = match slot {
                WidthSlot::Exact(hist) => crate::vector::entropy_of_histogram(hist),
                WidthSlot::Sketch(sketch) => sketch.estimate_hk_with(means_scratch),
            };
            // lint: allow(L009) — pooled output vector: grows to widths.len() once, then reused
            out.push(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::entropy;

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
    fn config_validation() {
        assert!(EstimatorConfig::new(0.25, 0.5).is_ok());
        assert_eq!(EstimatorConfig::new(0.0, 0.5), Err(EstimateError::InvalidEpsilon(0.0)));
        assert_eq!(EstimatorConfig::new(0.5, 0.0), Err(EstimateError::InvalidDelta(0.0)));
        assert_eq!(EstimatorConfig::new(0.5, 1.0), Err(EstimateError::InvalidDelta(1.0)));
    }

    #[test]
    fn paper_operating_points() {
        let svm = EstimatorConfig::svm_optimal();
        assert_eq!((svm.epsilon, svm.delta), (0.25, 0.75));
        let cart = EstimatorConfig::cart_optimal();
        assert_eq!((cart.epsilon, cart.delta), (0.5, 0.1));
    }

    #[test]
    fn group_and_z_formulas() {
        let cfg = EstimatorConfig::new(0.5, 0.25).unwrap();
        // g = ceil(2*log2(4)) = 4
        assert_eq!(cfg.groups(), 4);
        // z_2 = ceil(32 * (log2(1024)/16) / 0.25) = ceil(32*0.625/0.25) = 80
        assert_eq!(cfg.estimators_per_group(2, 1024), 80);
        // z_5 = ceil(32 * (10/40) / 0.25) = 32
        assert_eq!(cfg.estimators_per_group(5, 1024), 32);
    }

    #[test]
    fn counters_required_rejects_h1() {
        let cfg = EstimatorConfig::new(0.25, 0.25).unwrap();
        assert!(matches!(
            counters_required(&cfg, 1, 1024),
            Err(EstimateError::UnsupportedWidth(1))
        ));
        assert!(counters_required(&cfg, 2, 1024).unwrap() > 0);
    }

    #[test]
    fn min_epsilon_matches_paper_constants() {
        // Paper: K_φSVM = 8.26..., K_φCART = 6.26..., and with b=1024,
        // α≈1911: ε > 0.18·sqrt(log2(1/δ)).
        let svm = FeatureWidths::svm_selected();
        let cart = FeatureWidths::cart_selected();
        let k_svm: f64 = 8.0 * (0.5 + 1.0 / 3.0 + 0.2);
        assert!((k_svm - 8.266).abs() < 0.01);
        let eps_at_half = min_epsilon(&svm, 1024, 1911, 0.5);
        // sqrt(8.266 * 10/1911 * 1) ≈ 0.208
        assert!((eps_at_half - (k_svm * 10.0 / 1911.0f64).sqrt()).abs() < 1e-9);
        assert!(min_epsilon(&cart, 1024, 1911, 0.5) < eps_at_half);
    }

    #[test]
    fn estimate_constant_data_is_zero() {
        let cfg = EstimatorConfig::new(0.3, 0.3).unwrap();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 1);
        let h = est.estimate_hk(&[9u8; 2048], 2).unwrap();
        assert!(h.abs() < 1e-9, "h={h}");
    }

    #[test]
    fn estimate_tracks_exact_on_random_data() {
        let data = pseudo_random(4096, 7);
        let cfg = EstimatorConfig::new(0.2, 0.2).unwrap();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 11);
        for k in [2usize, 3, 5] {
            let exact = entropy(&data, k);
            let approx = est.estimate_hk(&data, k).unwrap();
            assert!(
                (approx - exact).abs() <= 0.2 * exact.max(0.05) + 0.05,
                "k={k} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn estimate_tracks_exact_on_textlike_data() {
        let data: Vec<u8> = b"flow nature identification at high speed using entropy. "
            .iter()
            .cycle()
            .take(2048)
            .copied()
            .collect();
        let cfg = EstimatorConfig::new(0.25, 0.25).unwrap();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 3);
        let exact = entropy(&data, 2);
        let approx = est.estimate_hk(&data, 2).unwrap();
        assert!((approx - exact).abs() < 0.15, "exact={exact} approx={approx}");
    }

    #[test]
    fn estimate_vector_mixes_exact_h1() {
        let data = pseudo_random(1024, 5);
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 21);
        let v = est.estimate_vector(&data, &widths);
        assert_eq!(v.len(), 4);
        // h1 is the exact computation (up to float summation order).
        assert!((v[0] - entropy(&data, 1)).abs() < 1e-12);
        assert!(v.iter().all(|h| (0.0..=1.0).contains(h)));
    }

    #[test]
    fn short_input_estimates_zero() {
        let cfg = EstimatorConfig::new(0.25, 0.25).unwrap();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 2);
        assert_eq!(est.estimate_hk(b"ab", 2).unwrap(), 0.0);
        assert_eq!(est.estimate_sk(b"", 3).unwrap(), 0.0);
    }

    #[test]
    fn total_counters_excludes_h1_and_shrinks_with_epsilon() {
        let widths = FeatureWidths::svm_selected();
        let loose =
            StreamingEntropyEstimator::with_seed(EstimatorConfig::new(0.5, 0.5).unwrap(), 0);
        let tight =
            StreamingEntropyEstimator::with_seed(EstimatorConfig::new(0.1, 0.5).unwrap(), 0);
        let c_loose = loose.total_counters(&widths, 1024);
        let c_tight = tight.total_counters(&widths, 1024);
        assert!(c_loose < c_tight);
        // h1 contributes nothing: {1} alone would be zero counters.
        let only_h1 = FeatureWidths::new(vec![1]);
        assert_eq!(loose.total_counters(&only_h1, 1024), 0);
    }

    #[test]
    fn groups_is_at_least_one_even_for_large_delta() {
        // δ → 1 drives 2·log2(1/δ) → 0; the group count must clamp at 1.
        let cfg = EstimatorConfig::new(0.5, 0.99).unwrap();
        assert_eq!(cfg.groups(), 1);
    }

    #[test]
    fn minimal_length_input_estimates_without_panic() {
        let cfg = EstimatorConfig::new(0.5, 0.5).unwrap();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 1);
        // Exactly k+1 bytes: two windows.
        let h = est.estimate_hk(&[1, 2, 3], 2).unwrap();
        assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn cart_widths_estimate_vector_shape() {
        let data = pseudo_random(512, 3);
        let widths = FeatureWidths::cart_selected();
        let mut est = StreamingEntropyEstimator::with_seed(EstimatorConfig::cart_optimal(), 5);
        let v = est.estimate_vector(&data, &widths);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|h| (0.0..=1.0).contains(h)));
    }

    #[test]
    fn incremental_session_matches_one_shot_vector() {
        let data = pseudo_random(2048, 17);
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 9);
        let one_shot = est.estimate_vector(&data, &widths);
        for chunk_len in [1usize, 2, 3, 97, 2048] {
            let mut session = est.begin_incremental(&widths, data.len());
            for chunk in data.chunks(chunk_len) {
                session.update(chunk);
            }
            assert_eq!(session.finish(), one_shot, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn scratch_threaded_finish_matches_owned_finish() {
        // finish_into (the anytime probe's zero-alloc path) must be
        // bit-identical to finish(), mid-flow and at the end, with dirty
        // reused scratch.
        let data = pseudo_random(2048, 23);
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let est = StreamingEntropyEstimator::with_seed(cfg, 9);
        let mut session = est.begin_incremental(&widths, data.len());
        let mut out = vec![0.5f64; 2];
        let mut means = vec![0.25f64; 5];
        for chunk in data.chunks(113) {
            session.update(chunk);
            session.finish_into(&mut out, &mut means);
            assert_eq!(out, session.finish(), "mid-flow probe after {}B", session.total_bytes());
        }
    }

    #[test]
    fn one_shot_estimates_do_not_bleed_between_calls() {
        // The sampling stream depends only on (seed, k): estimating an
        // unrelated payload in between must not change a result.
        let a = pseudo_random(1024, 5);
        let b = pseudo_random(1024, 6);
        let cfg = EstimatorConfig::svm_optimal();
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 4);
        let first = est.estimate_hk(&a, 3).unwrap();
        let _ = est.estimate_hk(&b, 3).unwrap();
        assert_eq!(est.estimate_hk(&a, 3).unwrap(), first);
    }

    #[test]
    fn incremental_counters_are_fixed_budget() {
        let widths = FeatureWidths::new(vec![2, 3]);
        let cfg = EstimatorConfig::svm_optimal();
        let est = StreamingEntropyEstimator::with_seed(cfg, 0);
        let session = est.begin_incremental(&widths, 1024);
        let budget = est.total_counters(&widths, 1024);
        assert_eq!(session.counters_used(), budget);
        // Feeding data must not grow the sketch.
        let mut session = session;
        session.update(&pseudo_random(4096, 2));
        assert_eq!(session.counters_used(), budget);
        assert_eq!(session.total_bytes(), 4096);
    }

    #[test]
    fn recycled_session_is_bit_identical_to_fresh() {
        let data = pseudo_random(2048, 17);
        let widths = FeatureWidths::svm_selected();
        let cfg = EstimatorConfig::svm_optimal();
        let est = StreamingEntropyEstimator::with_seed(cfg, 9);
        let mut fresh = est.begin_incremental(&widths, 1024);
        for chunk in data.chunks(41) {
            fresh.update(chunk);
        }
        let expected = fresh.finish();
        // Dirty a session with unrelated data, reset, re-feed: results
        // and counter budget must match a fresh session exactly.
        let mut recycled = est.begin_incremental(&widths, 1024);
        recycled.update(&pseudo_random(4096, 2));
        est.reset_incremental(&mut recycled, 1024);
        assert_eq!(recycled.total_bytes(), 0);
        for chunk in data.chunks(41) {
            recycled.update(chunk);
        }
        assert_eq!(recycled.finish(), expected);
    }

    #[test]
    fn reset_resizes_for_new_buffer_hint() {
        let widths = FeatureWidths::new(vec![2, 3]);
        let cfg = EstimatorConfig::svm_optimal();
        let est = StreamingEntropyEstimator::with_seed(cfg, 0);
        let mut session = est.begin_incremental(&widths, 256);
        est.reset_incremental(&mut session, 16384);
        assert_eq!(session.counters_used(), est.total_counters(&widths, 16384));
    }

    #[test]
    fn error_display() {
        let e = EstimateError::UnsupportedWidth(1);
        assert!(e.to_string().contains("unsupported"));
        assert!(EstimateError::InvalidEpsilon(-1.0).to_string().contains("positive"));
        assert!(EstimateError::InvalidDelta(2.0).to_string().contains("(0, 1)"));
    }
}
