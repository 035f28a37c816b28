//! Anytime confidence scoring for early-exit classification.
//!
//! The pipeline's fixed-`b` rule buffers every flow to `b` bytes before
//! classifying, even when the flow's nature is obvious after a few
//! hundred. A [`ConfidenceModel`] makes the early call cheap and safe:
//! it combines two signals on a *partial* feature vector —
//!
//! 1. **Centroid separation** — per-class entropy-vector centroids are
//!    fitted at a grid of prefix sizes (partial-prefix entropies drift
//!    systematically with bytes seen, so one full-`b` centroid set
//!    would misjudge early vectors). The score contrasts the distance
//!    to the predicted class's centroid against the nearest rival's.
//! 2. **Model margin** — the compiled model's own confidence (CART
//!    leaf purity or DAGSVM path margin),
//!    supplied by the caller from `try_predict_with_margin`.
//!
//! The combined score is the *minimum* of the two, so a verdict fires
//! only when the partial vector both sits in the predicted class's
//! territory and the model itself is unambiguous. The threshold is
//! calibrated offline against a held-out accuracy floor (see
//! `iustitia::model::train_anytime_from_corpus` in the core crate) and
//! travels with the model; scoring is allocation-free.

use crate::dataset::Dataset;

/// Per-class centroids fitted on feature vectors extracted from one
/// prefix size, with per-feature inverse spreads for scale-free
/// distances.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CentroidStage {
    /// Prefix size (bytes fed) this stage was fitted at.
    pub bytes: u64,
    n_classes: usize,
    n_features: usize,
    /// Row-major `n_classes × n_features` class means.
    centroids: Vec<f64>,
    /// Per-feature `1 / spread` (spread = *within-class* std-dev over
    /// the stage's training vectors, floored to keep the division
    /// finite). Within-class rather than global spread: a feature that
    /// is tight inside each class but separated across classes then
    /// dominates the distance, while a feature that is equally noisy
    /// everywhere contributes the same ~1 spread to every class and
    /// cancels out of the separation score.
    inv_spread: Vec<f64>,
}

impl CentroidStage {
    /// Fits one stage from feature vectors extracted at `bytes` fed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(bytes: u64, data: &Dataset) -> CentroidStage {
        assert!(!data.is_empty(), "cannot fit centroids on an empty dataset");
        let (nc, nf) = (data.n_classes(), data.n_features());
        let mut sums = vec![0.0f64; nc * nf];
        let mut counts = vec![0u64; nc];
        let mut mean = vec![0.0f64; nf];
        for (x, y) in data.iter() {
            counts[y] += 1;
            for (f, &v) in x.iter().enumerate() {
                sums[y * nf + f] += v;
                mean[f] += v;
            }
        }
        let n = data.len() as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut centroids = sums;
        for c in 0..nc {
            // Classes absent from this stage keep the global mean, so
            // they never look artificially close to a partial vector.
            let denom = if counts[c] == 0 { 0.0 } else { counts[c] as f64 };
            for f in 0..nf {
                if denom == 0.0 {
                    centroids[c * nf + f] = mean[f];
                } else {
                    centroids[c * nf + f] /= denom;
                }
            }
        }
        // Within-class variance, pooled over classes: deviation of each
        // vector from its own class centroid.
        let mut var = vec![0.0f64; nf];
        for (x, y) in data.iter() {
            for (f, &v) in x.iter().enumerate() {
                let d = v - centroids[y * nf + f];
                var[f] += d * d;
            }
        }
        let inv_spread = var.iter().map(|&v| 1.0 / (v / n).sqrt().max(1e-6)).collect();
        CentroidStage { bytes, n_classes: nc, n_features: nf, centroids, inv_spread }
    }

    /// Nearest-centroid prediction with its separation score: the class
    /// whose centroid is closest to `x`, and `(d_rival - d_pred) /
    /// (d_pred + d_rival)` against the runner-up, clamped to `[0, 1]`.
    /// Returns class 0 with score 0 on a foreign feature width.
    pub fn predict(&self, x: &[f64]) -> (usize, f64) {
        if x.len() != self.n_features || self.n_classes == 0 {
            return (0, 0.0);
        }
        if self.n_classes == 1 {
            return (0, 1.0);
        }
        let (mut best, mut d_best, mut d_rival) = (0, f64::INFINITY, f64::INFINITY);
        for c in 0..self.n_classes {
            let d = self.distance(x, c);
            if d < d_best {
                d_rival = d_best;
                d_best = d;
                best = c;
            } else if d < d_rival {
                d_rival = d;
            }
        }
        let denom = d_best + d_rival;
        if denom <= 0.0 || !denom.is_finite() {
            return (best, 0.0);
        }
        (best, ((d_rival - d_best) / denom).clamp(0.0, 1.0))
    }

    /// Spread-normalized L1 distance from `x` to class `c`'s centroid.
    fn distance(&self, x: &[f64], c: usize) -> f64 {
        // lint: allow(L008) — c < n_classes by the caller's loop bound and centroids has n_classes rows by fit()
        let row = &self.centroids[c * self.n_features..(c + 1) * self.n_features];
        let mut d = 0.0;
        for ((&v, &m), &inv) in x.iter().zip(row).zip(&self.inv_spread) {
            d += (v - m).abs() * inv;
        }
        d
    }
}

/// A calibrated anytime-confidence model: centroid stages over a grid
/// of prefix sizes plus the emission threshold, serialized alongside
/// the `NatureModel` it was calibrated for.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConfidenceModel {
    /// Stages in strictly ascending `bytes` order.
    stages: Vec<CentroidStage>,
    /// Emission threshold: a probe fires when `score >= threshold`.
    /// Values above 1.0 can never fire (scores are clamped to `[0, 1]`).
    threshold: f64,
    /// Per-class byte floors: a probe predicting class `c` scores 0
    /// below `class_floor[c]` bytes fed. Calibrated because early
    /// errors concentrate in specific predicted classes (high-entropy
    /// compressed prefixes read as encrypted below a few hundred
    /// bytes). Empty = no floors.
    class_floor: Vec<u64>,
    /// Trusted-stage mark: at or past this many bytes fed, probes score
    /// 1.0 (maximally confident) regardless of centroid separation —
    /// calibrated to the stage where the stage model's held-out
    /// accuracy reaches the full-`b` model's, so waiting longer cannot
    /// buy accuracy. `u64::MAX` = never trusted.
    trusted_bytes: u64,
}

impl ConfidenceModel {
    /// Builds a model from fitted stages and an emission threshold.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, not strictly ascending in `bytes`,
    /// or disagrees on feature/class counts.
    pub fn new(stages: Vec<CentroidStage>, threshold: f64) -> ConfidenceModel {
        assert!(!stages.is_empty(), "confidence model needs at least one stage");
        for w in stages.windows(2) {
            assert!(w[0].bytes < w[1].bytes, "stages must be strictly ascending in bytes");
            assert_eq!(w[0].n_features, w[1].n_features, "stage feature widths differ");
            assert_eq!(w[0].n_classes, w[1].n_classes, "stage class counts differ");
        }
        ConfidenceModel { stages, threshold, class_floor: Vec::new(), trusted_bytes: u64::MAX }
    }

    /// Fits one stage per `(bytes, dataset)` pair (ascending `bytes`)
    /// with the given threshold.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`ConfidenceModel::new`] and
    /// [`CentroidStage::fit`].
    pub fn fit(stage_data: &[(u64, &Dataset)], threshold: f64) -> ConfidenceModel {
        let stages = stage_data.iter().map(|&(bytes, ds)| CentroidStage::fit(bytes, ds)).collect();
        ConfidenceModel::new(stages, threshold)
    }

    /// The calibrated emission threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Replaces the threshold (used by calibration sweeps and to pin
    /// the model open or shut in tests).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// Installs the calibrated exit policy: per-class byte floors and
    /// the trusted-stage mark (see the field docs). Pass an empty floor
    /// vector and `u64::MAX` to clear.
    ///
    /// # Panics
    ///
    /// Panics if `class_floor` is non-empty and its length differs from
    /// the fitted class count.
    pub fn set_exit_policy(&mut self, class_floor: Vec<u64>, trusted_bytes: u64) {
        assert!(
            class_floor.is_empty() || class_floor.len() == self.n_classes(),
            "one floor per fitted class"
        );
        self.class_floor = class_floor;
        self.trusted_bytes = trusted_bytes;
    }

    /// The per-class byte floors (empty when no floors are set).
    pub fn class_floor(&self) -> &[u64] {
        &self.class_floor
    }

    /// The trusted-stage mark (`u64::MAX` when never trusted).
    pub fn trusted_bytes(&self) -> u64 {
        self.trusted_bytes
    }

    /// Applies the exit policy to a raw score: 1.0 at or past the
    /// trusted mark, 0.0 below the predicted class's byte floor, the
    /// raw score otherwise. Exposed so offline calibration can replay
    /// candidate policies over precomputed raw scores with exactly the
    /// semantics the pipeline sees.
    pub fn apply_policy(&self, raw: f64, fed: u64, predicted: usize) -> f64 {
        if fed >= self.trusted_bytes {
            return 1.0;
        }
        match self.class_floor.get(predicted) {
            Some(&floor) if fed < floor => 0.0,
            _ => raw,
        }
    }

    /// Feature-vector width the stages were fitted on.
    pub fn n_features(&self) -> usize {
        // lint: allow(L008) — fit() rejects empty stage lists, so stages[0] exists
        self.stages[0].n_features
    }

    /// Number of classes the stages were fitted on.
    pub fn n_classes(&self) -> usize {
        self.stages[0].n_classes
    }

    /// Smallest prefix size any stage covers — probing below this is
    /// pointless (the first stage would be extrapolating).
    pub fn min_stage_bytes(&self) -> u64 {
        self.stages[0].bytes
    }

    /// The fitted stages, ascending in `bytes`.
    pub fn stages(&self) -> &[CentroidStage] {
        &self.stages
    }

    /// The stage fitted nearest below `fed` bytes (the first stage when
    /// `fed` undershoots them all).
    fn stage_for(&self, fed: u64) -> &CentroidStage {
        // lint: allow(L008) — fit() rejects empty stage lists, so stages[0] exists
        let mut best = &self.stages[0];
        for s in &self.stages {
            if s.bytes <= fed {
                best = s;
            } else {
                break;
            }
        }
        best
    }

    /// Scores a partial feature vector in `[0, 1]`: the minimum of the
    /// centroid-separation score at the stage matching `fed` bytes and
    /// the model `margin` the caller got from `try_predict_with_margin`,
    /// filtered through the calibrated exit policy ([`Self::apply_policy`]).
    /// Allocation-free; `predicted` out of range or a foreign feature
    /// width scores 0 (never confident) instead of panicking.
    pub fn score(&self, features: &[f64], fed: u64, predicted: usize, margin: f64) -> f64 {
        let stage = self.stage_for(fed);
        if predicted >= stage.n_classes || features.len() != stage.n_features {
            return 0.0;
        }
        self.apply_policy(self.raw_score(features, fed, predicted, margin), fed, predicted)
    }

    /// The policy-free confidence score (centroid separation capped by
    /// the model margin). Calibration sweeps exit policies over raw
    /// scores precomputed once per probe; the pipeline uses
    /// [`Self::score`], which is `apply_policy(raw_score(..))`.
    pub fn raw_score(&self, features: &[f64], fed: u64, predicted: usize, margin: f64) -> f64 {
        let stage = self.stage_for(fed);
        if predicted >= stage.n_classes || features.len() != stage.n_features {
            return 0.0;
        }
        let centroid_score = if stage.n_classes < 2 {
            1.0
        } else {
            let d_pred = stage.distance(features, predicted);
            let mut d_rival = f64::INFINITY;
            for c in 0..stage.n_classes {
                if c != predicted {
                    d_rival = d_rival.min(stage.distance(features, c));
                }
            }
            let denom = d_pred + d_rival;
            if denom <= 0.0 || !denom.is_finite() {
                0.0
            } else {
                ((d_rival - d_pred) / denom).clamp(0.0, 1.0)
            }
        };
        centroid_score.min(margin.clamp(0.0, 1.0))
    }

    /// Whether a score clears the calibrated threshold.
    pub fn confident(&self, score: f64) -> bool {
        score >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated classes in 2-D at two prefix stages.
    fn toy_model(threshold: f64) -> ConfidenceModel {
        let mut early = Dataset::new(2, vec!["a".into(), "b".into()]);
        let mut late = Dataset::new(2, vec!["a".into(), "b".into()]);
        for i in 0..20 {
            let jitter = i as f64 / 200.0;
            early.push(vec![0.2 + jitter, 0.2], 0);
            early.push(vec![0.8 + jitter, 0.8], 1);
            late.push(vec![0.3 + jitter, 0.3], 0);
            late.push(vec![0.9 + jitter, 0.9], 1);
        }
        ConfidenceModel::fit(&[(64, &early), (512, &late)], threshold)
    }

    #[test]
    fn obvious_vectors_score_high_and_ambiguous_score_low() {
        let m = toy_model(0.5);
        let clear = m.score(&[0.2, 0.2], 64, 0, 1.0);
        let midpoint = m.score(&[0.5, 0.5], 64, 0, 1.0);
        assert!(clear > 0.9, "centroid hit scores near 1: {clear}");
        assert!(midpoint < 0.1, "midpoint scores near 0: {midpoint}");
        assert!(m.confident(clear));
        assert!(!m.confident(midpoint));
    }

    #[test]
    fn margin_caps_the_score() {
        let m = toy_model(0.5);
        let capped = m.score(&[0.2, 0.2], 64, 0, 0.25);
        assert_eq!(capped, 0.25, "an unsure model vetoes a confident centroid");
    }

    #[test]
    fn stage_selection_tracks_bytes_fed() {
        let m = toy_model(0.5);
        // [0.3, 0.3] is class a's *late* centroid; at the early stage it
        // sits off-center, so the late stage must score it higher.
        let early = m.score(&[0.3, 0.3], 64, 0, 1.0);
        let late = m.score(&[0.3, 0.3], 512, 0, 1.0);
        assert!(late > early, "late {late} vs early {early}");
        // Below every stage, the first stage is used.
        assert_eq!(m.score(&[0.3, 0.3], 1, 0, 1.0), early);
        assert_eq!(m.min_stage_bytes(), 64);
    }

    #[test]
    fn mismatched_inputs_are_never_confident() {
        let m = toy_model(0.0);
        assert_eq!(m.score(&[0.2, 0.2, 0.2], 64, 0, 1.0), 0.0, "wrong width");
        assert_eq!(m.score(&[0.2, 0.2], 64, 7, 1.0), 0.0, "label out of range");
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let m = toy_model(0.5);
        for &x in &[-5.0, 0.0, 0.5, 1.0, 5.0] {
            for &y in &[-5.0, 0.5, 5.0] {
                for pred in 0..2 {
                    let s = m.score(&[x, y], 64, pred, 1.0);
                    assert!((0.0..=1.0).contains(&s), "score({x},{y},{pred}) = {s}");
                }
            }
        }
    }

    #[test]
    fn threshold_above_one_never_fires() {
        let mut m = toy_model(2.0);
        assert!(!m.confident(m.score(&[0.2, 0.2], 64, 0, 1.0)));
        m.set_threshold(0.0);
        assert!(m.confident(0.0));
        assert_eq!(m.threshold(), 0.0);
    }

    #[test]
    fn exit_policy_floors_and_trusted_mark() {
        let mut m = toy_model(0.5);
        let clear = m.score(&[0.2, 0.2], 64, 0, 1.0);
        assert!(clear > 0.9);
        // Class 0 floored at 512 bytes: the same vector scores 0 below
        // the floor, and the raw score again at it. Class 1 unfloored.
        m.set_exit_policy(vec![512, 0], u64::MAX);
        assert_eq!(m.score(&[0.2, 0.2], 64, 0, 1.0), 0.0);
        assert!(m.score(&[0.2, 0.2], 512, 0, 1.0) > 0.0);
        assert!(m.score(&[0.8, 0.8], 64, 1, 1.0) > 0.9);
        // Trusted mark: past it every in-range probe scores 1.0, even
        // an ambiguous midpoint — but a foreign width still scores 0.
        m.set_exit_policy(Vec::new(), 512);
        assert_eq!(m.score(&[0.5, 0.5], 512, 0, 0.1), 1.0);
        assert!(m.score(&[0.5, 0.5], 64, 0, 0.1) < 1.0);
        assert_eq!(m.score(&[0.5, 0.5, 0.5], 512, 0, 1.0), 0.0);
        // raw_score ignores the policy.
        m.set_exit_policy(vec![512, 512], u64::MAX);
        assert!(m.raw_score(&[0.2, 0.2], 64, 0, 1.0) > 0.9);
    }

    #[test]
    fn serde_round_trip() {
        let m = toy_model(0.61);
        let json = serde_json::to_string(&m).expect("serialize");
        let back: ConfidenceModel = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unordered_stages_panic() {
        let mut ds = Dataset::new(1, vec!["a".into()]);
        ds.push(vec![0.5], 0);
        let s1 = CentroidStage::fit(512, &ds);
        let s2 = CentroidStage::fit(64, &ds);
        ConfidenceModel::new(vec![s1, s2], 0.5);
    }
}
