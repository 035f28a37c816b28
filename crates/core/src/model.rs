//! The trained flow-nature model: CART or SVM (DAGSVM multi-class),
//! plus the offline training entry point of Figure 1's right half.

use iustitia_corpus::FileClass;
use iustitia_ml::cart::{CartParams, DecisionTree};
use iustitia_ml::compiled::{CompiledDag, CompiledTree};
use iustitia_ml::multiclass::DagSvm;
use iustitia_ml::svm::SvmParams;
pub use iustitia_ml::{CentroidStage, ConfidenceModel};
use iustitia_ml::{Classifier, Dataset, DimensionMismatch};

/// Which learning algorithm to train (the paper evaluates both).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    /// CART decision tree.
    Cart(CartParams),
    /// SVM with DAGSVM multi-class evaluation (the paper's default).
    Svm(SvmParams),
}

impl ModelKind {
    /// The paper's CART configuration.
    pub fn paper_cart() -> Self {
        ModelKind::Cart(CartParams::default())
    }

    /// The paper's best model: SVM-RBF `γ=50, C=1000` via DAGSVM.
    pub fn paper_svm() -> Self {
        ModelKind::Svm(SvmParams::paper_rbf())
    }
}

/// A trained flow-nature classifier
/// (text / binary / encrypted / compressed).
///
/// # Examples
///
/// ```
/// use iustitia::model::{ModelKind, NatureModel};
/// use iustitia_corpus::FileClass;
/// use iustitia_ml::Dataset;
///
/// // Tiny hand-made dataset on two features (h1, chi): text low,
/// // binary mid; encrypted and compressed share the high-h1 band and
/// // are split by the second (randomness-battery) feature.
/// let mut ds = Dataset::new(2, FileClass::names());
/// for i in 0..20 {
///     let x = i as f64 / 100.0;
///     ds.push(vec![0.45 + x, 0.05], FileClass::Text.index());
///     ds.push(vec![0.70 + x, 0.05], FileClass::Binary.index());
///     ds.push(vec![0.97 + x / 10.0, 0.02 + x / 10.0], FileClass::Encrypted.index());
///     ds.push(vec![0.96 + x / 10.0, 0.60 + x], FileClass::Compressed.index());
/// }
/// let model = NatureModel::train(&ds, &ModelKind::paper_cart()).expect("all classes present");
/// assert_eq!(model.predict(&[0.5, 0.05]), FileClass::Text);
/// assert_eq!(model.predict(&[0.99, 0.03]), FileClass::Encrypted);
/// assert_eq!(model.predict(&[0.99, 0.7]), FileClass::Compressed);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NatureModel {
    /// A trained decision tree.
    Cart(DecisionTree),
    /// Trained pairwise SVMs evaluated as a decision DAG.
    Svm(DagSvm),
}

/// Why [`NatureModel::train`] could not produce a model.
///
/// The pairwise SVM fits (and per-class accuracy accounting) need at
/// least one sample of every class the dataset declares; a 4-class
/// retrain over a corpus that forgot one class used to panic deep in
/// the SMO solver — now it surfaces here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The dataset holds no samples at all.
    EmptyDataset,
    /// A declared class has no samples.
    MissingClass {
        /// Index of the absent class.
        index: usize,
        /// Its name from the dataset's class list.
        name: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => f.write_str("cannot train on an empty dataset"),
            TrainError::MissingClass { index, name } => {
                write!(f, "cannot train: class {index} ({name}) has no samples")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl NatureModel {
    /// Trains a model of the requested kind on an entropy-vector (or
    /// entropy + randomness-battery) dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the dataset is empty or is missing a
    /// class (the SVM needs samples of every pair).
    pub fn train(data: &Dataset, kind: &ModelKind) -> Result<Self, TrainError> {
        if data.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if let Some(index) = data.class_counts().iter().position(|&c| c == 0) {
            let name = data.class_names()[index].clone();
            return Err(TrainError::MissingClass { index, name });
        }
        Ok(match kind {
            ModelKind::Cart(params) => NatureModel::Cart(DecisionTree::fit(data, params)),
            ModelKind::Svm(params) => NatureModel::Svm(DagSvm::fit(data, params)),
        })
    }

    /// Predicts the flow nature for one entropy vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality for the
    /// trained model.
    pub fn predict(&self, features: &[f64]) -> FileClass {
        let idx = match self {
            NatureModel::Cart(m) => m.predict(features),
            NatureModel::Svm(m) => m.predict(features),
        };
        FileClass::from_index(idx)
    }

    /// Accuracy over a labeled dataset.
    pub fn accuracy_on(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let ok = data.iter().filter(|(x, y)| self.predict(x).index() == *y).count();
        ok as f64 / data.len() as f64
    }

    /// Confusion matrix over a labeled dataset.
    pub fn confusion_on(&self, data: &Dataset) -> iustitia_ml::ConfusionMatrix {
        let mut cm = iustitia_ml::ConfusionMatrix::new(data.n_classes());
        for (x, y) in data.iter() {
            cm.record(y, self.predict(x).index());
        }
        cm
    }

    /// Feature-vector width the model was trained on (entropy widths
    /// alone, or widths + battery statistics).
    pub fn n_features(&self) -> usize {
        match self {
            NatureModel::Cart(m) => m.n_features(),
            NatureModel::Svm(m) => m.n_features(),
        }
    }

    /// Compiles the model into its flat, allocation-free inference form
    /// (see [`iustitia_ml::compiled`]). Predictions are bit-identical;
    /// the pipeline compiles every model it is handed at
    /// construction/load time and classifies through the compiled path.
    pub fn compile(&self) -> CompiledNatureModel {
        match self {
            NatureModel::Cart(m) => CompiledNatureModel::Cart(CompiledTree::compile(m)),
            NatureModel::Svm(m) => CompiledNatureModel::Svm(CompiledDag::compile(m)),
        }
    }
}

/// The compiled inference counterpart of [`NatureModel`]: flattened
/// tree nodes / packed shared support vectors, with owned scratch so
/// `predict` performs zero heap allocations (hence `&mut self` — the
/// scratch never changes results).
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledNatureModel {
    /// A compiled decision tree.
    Cart(CompiledTree),
    /// A compiled DAGSVM.
    Svm(CompiledDag),
}

impl CompiledNatureModel {
    /// Predicts the flow nature, or reports a feature-width mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict(&mut self, features: &[f64]) -> Result<FileClass, DimensionMismatch> {
        let idx = match self {
            CompiledNatureModel::Cart(m) => m.try_predict(features)?,
            CompiledNatureModel::Svm(m) => m.try_predict(features)?,
        };
        Ok(FileClass::from_index(idx))
    }

    /// Predicts the flow nature together with the model's own
    /// confidence margin in `[0, 1]`: CART leaf purity or DAGSVM
    /// path margin (see the compiled types
    /// in [`iustitia_ml::compiled`]). The label is bit-identical to
    /// [`try_predict`](Self::try_predict); the margin feeds the anytime
    /// early-exit confidence score.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict_with_margin(
        &mut self,
        features: &[f64],
    ) -> Result<(FileClass, f64), DimensionMismatch> {
        let (idx, margin) = match self {
            CompiledNatureModel::Cart(m) => m.try_predict_with_margin(features)?,
            CompiledNatureModel::Svm(m) => m.try_predict_with_margin(features)?,
        };
        Ok((FileClass::from_index(idx), margin))
    }

    /// Predicts the flow nature for one entropy vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality; use
    /// [`try_predict`](Self::try_predict) for a typed error.
    pub fn predict(&mut self, features: &[f64]) -> FileClass {
        match self.try_predict(features) {
            Ok(label) => label,
            Err(e) => panic!("feature dimensionality mismatch: {e}"),
        }
    }

    /// Feature-vector width the model expects.
    pub fn n_features(&self) -> usize {
        match self {
            CompiledNatureModel::Cart(m) => m.n_features(),
            CompiledNatureModel::Svm(m) => m.n_features(),
        }
    }
}

/// Trains a flow-nature model directly from a labeled file corpus:
/// extract entropy vectors under the chosen training regime, then fit.
///
/// This is the offline half of Figure 1 in one call.
///
/// # Examples
///
/// ```
/// use iustitia::features::{FeatureMode, TrainingMethod};
/// use iustitia::model::{train_from_corpus, ModelKind};
/// use iustitia_corpus::{CorpusBuilder, FileClass};
/// use iustitia_entropy::FeatureWidths;
///
/// let corpus = CorpusBuilder::new(1).files_per_class(15).size_range(512, 2048).build();
/// let model = train_from_corpus(
///     &corpus,
///     &FeatureWidths::cart_selected(),
///     TrainingMethod::Prefix { b: 32 },
///     FeatureMode::Exact,
///     &ModelKind::paper_cart(),
///     1,
/// )
/// .expect("balanced corpus has every class");
/// // The model classifies 32-byte ciphertext prefixes as encrypted for
/// // most draws; sanity-check it at least answers with a valid class.
/// let label = model.predict(&[0.6, 0.5, 0.45, 0.4]);
/// assert!(FileClass::ALL.contains(&label));
/// ```
///
/// # Errors
///
/// Returns [`TrainError`] if the corpus is empty or omits a class.
pub fn train_from_corpus(
    files: &[iustitia_corpus::LabeledFile],
    widths: &iustitia_entropy::FeatureWidths,
    method: crate::features::TrainingMethod,
    mode: crate::features::FeatureMode,
    kind: &ModelKind,
    seed: u64,
) -> Result<NatureModel, TrainError> {
    let ds = crate::features::dataset_from_corpus(files, widths, method, mode, seed);
    NatureModel::train(&ds, kind)
}

/// Like [`train_from_corpus`], but appends the randomness-test battery
/// ([`iustitia_entropy::RandomnessBattery`]) features to every entropy
/// vector — the feature set that separates compressed from encrypted.
///
/// # Errors
///
/// Returns [`TrainError`] if the corpus is empty or omits a class.
pub fn train_from_corpus_battery(
    files: &[iustitia_corpus::LabeledFile],
    widths: &iustitia_entropy::FeatureWidths,
    method: crate::features::TrainingMethod,
    mode: crate::features::FeatureMode,
    kind: &ModelKind,
    seed: u64,
) -> Result<NatureModel, TrainError> {
    let ds = crate::features::dataset_from_corpus_battery(files, widths, method, mode, seed, true);
    NatureModel::train(&ds, kind)
}

/// Prefix-size grid (bytes) at which anytime centroid stages are
/// fitted and held-out probes simulated: powers of two from 64 up to,
/// but excluding, the full buffer `b` (a probe at `fed == b` is the
/// fixed-`b` cap, not an early exit).
const ANYTIME_STAGE_GRID: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Candidate emission thresholds the calibration sweep evaluates. The
/// centroid-separation score compresses toward zero in high dimensions
/// (a member's distance to its own centroid grows with feature count
/// while the rival gap does not), so the grid reaches well below 0.5.
const ANYTIME_THRESHOLD_GRID: [f64; 15] =
    [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99];

/// Sentinel threshold meaning "never fire": scores are clamped to
/// `[0, 1]`, so no probe can clear it. Calibration falls back to this
/// when no candidate threshold holds the accuracy floor.
pub const ANYTIME_THRESHOLD_DISABLED: f64 = 2.0;

/// One prefix-stage nature model of an [`AnytimeModel`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnytimeStageModel {
    /// Prefix size (bytes fed) this model was trained at.
    pub bytes: u64,
    /// Nature model fitted on feature vectors from that prefix size.
    pub model: NatureModel,
}

/// Everything the pipeline needs to render anytime verdicts: the
/// calibrated centroid/confidence model plus one nature model per
/// centroid stage. Partial-prefix entropy vectors drift systematically
/// with bytes seen — the full-`b` model is near chance on small
/// prefixes — so each probe predicts with the model fitted at its own
/// prefix size and the centroid separation at that stage gates the
/// emission.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnytimeModel {
    /// Calibrated centroid stages + emission threshold.
    pub confidence: ConfidenceModel,
    /// One nature model per centroid stage, ascending in `bytes` and
    /// aligned with `confidence.stages()`.
    stage_models: Vec<AnytimeStageModel>,
}

impl AnytimeModel {
    /// Pairs a confidence model with its per-stage nature models.
    ///
    /// # Panics
    ///
    /// Panics if the stage models do not line up one-to-one with the
    /// confidence model's centroid stages.
    pub fn new(confidence: ConfidenceModel, stage_models: Vec<AnytimeStageModel>) -> AnytimeModel {
        assert_eq!(
            confidence.stages().len(),
            stage_models.len(),
            "one stage model per centroid stage"
        );
        for (stage, model) in confidence.stages().iter().zip(&stage_models) {
            assert_eq!(stage.bytes, model.bytes, "stage model bytes must match centroid stage");
        }
        AnytimeModel { confidence, stage_models }
    }

    /// The per-stage nature models, ascending in `bytes`.
    pub fn stage_models(&self) -> &[AnytimeStageModel] {
        &self.stage_models
    }
}

/// One calibration operating point: running the anytime rule at
/// `threshold` over the held-out files yields this accuracy and mean
/// bytes-to-verdict.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnytimeOperatingPoint {
    /// Emission threshold evaluated.
    pub threshold: f64,
    /// Held-out accuracy under the early-exit rule at this threshold.
    pub accuracy: f64,
    /// Mean bytes fed when the verdict fired (early or at the cap).
    pub mean_bytes_to_verdict: f64,
    /// Fraction of held-out files that exited before the `b`-byte cap.
    pub early_fraction: f64,
}

/// Everything `train_anytime_from_corpus` produces: the nature model,
/// the calibrated confidence model, the fixed-`b` baseline it was
/// calibrated against, and the full threshold sweep (frozen by the
/// regression tests and plotted by the bench sweep bin).
#[derive(Debug, Clone)]
pub struct AnytimeTrainReport {
    /// The trained nature model (fitted on the train split).
    pub model: NatureModel,
    /// Calibrated confidence model plus per-stage nature models.
    pub anytime: AnytimeModel,
    /// Held-out accuracy of the plain fixed-`b` rule.
    pub full_accuracy: f64,
    /// Mean bytes-to-verdict of the plain fixed-`b` rule (the cap,
    /// shortened only by files smaller than `b`).
    pub full_mean_bytes: f64,
    /// One operating point per candidate threshold, in grid order.
    pub curve: Vec<AnytimeOperatingPoint>,
}

/// Trains a nature model *and* a calibrated anytime confidence model
/// from one corpus.
///
/// The corpus is split per class (every 4th file held out,
/// deterministically). The nature model trains on the train split at
/// `Prefix { b }`; per-class centroid stages and per-stage nature
/// models are fitted on the train split at every grid prefix below
/// `b`; then the held-out files are replayed through the early-exit
/// rule (patience: two consecutive agreeing probes) over a joint grid
/// of exit policies — grouped per-class byte floors and the
/// trusted-stage mark — and emission thresholds. The calibrated
/// operating point is the one with the smallest mean bytes-to-verdict
/// whose accuracy stays within `accuracy_floor` of the fixed-`b`
/// baseline (e.g. `0.01` = at most one point of accuracy given up).
/// If no candidate qualifies, the threshold is pinned to
/// [`ANYTIME_THRESHOLD_DISABLED`] so the pipeline degenerates to the
/// fixed-`b` rule.
///
/// # Errors
///
/// Returns [`TrainError`] if the train split is empty or omits a class.
///
/// # Panics
///
/// Panics if `b == 0`.
#[allow(clippy::too_many_arguments)]
pub fn train_anytime_from_corpus(
    files: &[iustitia_corpus::LabeledFile],
    widths: &iustitia_entropy::FeatureWidths,
    b: usize,
    mode: crate::features::FeatureMode,
    kind: &ModelKind,
    seed: u64,
    battery: bool,
    accuracy_floor: f64,
) -> Result<AnytimeTrainReport, TrainError> {
    assert!(b > 0, "buffer size must be positive");
    // Deterministic stratified split: every 4th file of each class is
    // held out for calibration.
    let mut seen = [0usize; 8];
    let mut train: Vec<iustitia_corpus::LabeledFile> = Vec::new();
    let mut held: Vec<&iustitia_corpus::LabeledFile> = Vec::new();
    for file in files {
        let c = file.class.index().min(seen.len() - 1);
        if seen[c] % 4 == 0 {
            held.push(file);
        } else {
            train.push(file.clone());
        }
        seen[c] += 1;
    }

    let method = crate::features::TrainingMethod::Prefix { b };
    let train_ds = crate::features::dataset_from_corpus_battery(
        &train,
        widths,
        method,
        mode.clone(),
        seed,
        battery,
    );
    let model = NatureModel::train(&train_ds, kind)?;
    let mut compiled = model.compile();

    // Centroid stages below the cap. For tiny b the grid is empty and
    // the single stage sits at half the cap, so the API stays total.
    let stage_bytes: Vec<usize> = {
        let grid: Vec<usize> = ANYTIME_STAGE_GRID.iter().copied().filter(|&g| g < b).collect();
        if grid.is_empty() {
            vec![(b / 2).max(1)]
        } else {
            grid
        }
    };
    let stage_datasets: Vec<(u64, Dataset)> = stage_bytes
        .iter()
        .map(|&g| {
            let ds = crate::features::dataset_from_corpus_battery(
                &train,
                widths,
                crate::features::TrainingMethod::Prefix { b: g },
                mode.clone(),
                seed,
                battery,
            );
            (g as u64, ds)
        })
        .collect();
    let stage_refs: Vec<(u64, &Dataset)> = stage_datasets.iter().map(|(g, ds)| (*g, ds)).collect();
    let mut confidence = ConfidenceModel::fit(&stage_refs, ANYTIME_THRESHOLD_DISABLED);

    // One nature model per stage: probes predict with the model fitted
    // at their own prefix size (the full-`b` model is near chance on
    // small prefixes — partial entropy vectors drift too far).
    let stage_models: Vec<AnytimeStageModel> = stage_datasets
        .iter()
        .map(|(g, ds)| Ok(AnytimeStageModel { bytes: *g, model: NatureModel::train(ds, kind)? }))
        .collect::<Result<_, TrainError>>()?;
    let mut compiled_stages: Vec<(u64, CompiledNatureModel)> =
        stage_models.iter().map(|s| (s.bytes, s.model.compile())).collect();

    // Replay held-out files through the probe sequence once, recording
    // (bytes, label, score) per stage plus the fixed-b terminal.
    let mut fx =
        crate::features::FeatureExtractor::new(widths.clone(), mode.clone(), seed ^ 0x5EED)
            .with_battery(battery);
    struct Replay {
        truth: usize,
        probes: Vec<(u64, usize, f64)>,
        final_label: usize,
        final_bytes: u64,
    }
    let replays: Vec<Replay> = held
        .iter()
        .map(|file| {
            let cap = b.min(file.data.len()).max(1);
            // A probe whose feature width disagrees with its stage model
            // is skipped, matching the pipeline's behavior of silently
            // declining to exit early rather than panicking.
            let probes = compiled_stages
                .iter_mut()
                .filter(|(bytes, _)| (*bytes as usize) < cap)
                .filter_map(|(bytes, stage)| {
                    let x = fx.extract(&file.data[..*bytes as usize]);
                    let (label, margin) = stage.try_predict_with_margin(&x).ok()?;
                    let raw = confidence.raw_score(&x, *bytes, label.index(), margin);
                    Some((*bytes, label.index(), raw))
                })
                .collect();
            let x = fx.extract(&file.data[..cap]);
            let final_label = compiled.predict(&x).index();
            Replay { truth: file.class.index(), probes, final_label, final_bytes: cap as u64 }
        })
        .collect();

    let evaluate = |cm: &ConfidenceModel, threshold: f64| -> (f64, f64, f64) {
        let mut correct = 0usize;
        let mut bytes = 0.0f64;
        let mut early = 0usize;
        for r in &replays {
            // The patience rule the pipeline probe applies: a probe
            // fires only when its policy-filtered score clears the
            // threshold AND the previous probe predicted the same
            // label, so one unstable early prediction can never
            // classify a flow.
            let mut last: Option<usize> = None;
            let mut fired = None;
            for &(g, label, raw) in &r.probes {
                if last == Some(label) && cm.apply_policy(raw, g, label) >= threshold {
                    fired = Some((g, label));
                    break;
                }
                last = Some(label);
            }
            let (label, at) = match fired {
                Some((g, label)) => {
                    early += 1;
                    (label, g)
                }
                None => (r.final_label, r.final_bytes),
            };
            if label == r.truth {
                correct += 1;
            }
            bytes += at as f64;
        }
        let n = replays.len().max(1) as f64;
        (correct as f64 / n, bytes / n, early as f64 / n)
    };

    // The disabled sentinel never fires regardless of exit policy
    // (policy scores cap at 1.0), so the baseline is policy-free.
    let (full_accuracy, full_mean_bytes, _) = evaluate(&confidence, ANYTIME_THRESHOLD_DISABLED);

    // Joint calibration of the exit policy and threshold over the
    // held-out replays: per-class byte floors grouped into the
    // low-entropy natures (text, binary) and the high-entropy pair
    // (encrypted, compressed — mutually confusable on short prefixes),
    // plus the trusted-stage mark past which the stage model is as
    // accurate as the full-`b` model. Grouping the floors keeps the
    // search at two degrees of freedom so 160 held-out files cannot be
    // overfitted by per-class knobs.
    let floor_cands: Vec<u64> =
        std::iter::once(0u64).chain(stage_bytes.iter().map(|&g| g as u64)).collect();
    let trusted_cands: Vec<u64> = stage_bytes
        .iter()
        .map(|&g| g as u64)
        .filter(|&g| g >= 512)
        .chain(std::iter::once(u64::MAX))
        .collect();
    let n_classes = confidence.n_classes();
    let floors_for = |lo: u64, hi: u64| -> Vec<u64> {
        (0..n_classes)
            .map(|c| {
                if c == crate::FileClass::Encrypted.index()
                    || c == crate::FileClass::Compressed.index()
                {
                    hi
                } else {
                    lo
                }
            })
            .collect()
    };
    let mut best: Option<(f64, f64, Vec<u64>, u64)> = None; // (mean, threshold, floors, trusted)
    for &trusted in &trusted_cands {
        for &lo in &floor_cands {
            for &hi in floor_cands.iter().filter(|&&hi| hi >= lo) {
                confidence.set_exit_policy(floors_for(lo, hi), trusted);
                for &threshold in &ANYTIME_THRESHOLD_GRID {
                    let (accuracy, mean, _) = evaluate(&confidence, threshold);
                    if accuracy < full_accuracy - accuracy_floor {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(m, ..)| mean < *m) {
                        best = Some((mean, threshold, floors_for(lo, hi), trusted));
                    }
                }
            }
        }
    }
    let chosen = match best {
        Some((_, threshold, floors, trusted)) => {
            confidence.set_exit_policy(floors, trusted);
            threshold
        }
        None => {
            confidence.set_exit_policy(Vec::new(), u64::MAX);
            ANYTIME_THRESHOLD_DISABLED
        }
    };
    let curve: Vec<AnytimeOperatingPoint> = ANYTIME_THRESHOLD_GRID
        .iter()
        .map(|&threshold| {
            let (accuracy, mean_bytes_to_verdict, early_fraction) =
                evaluate(&confidence, threshold);
            AnytimeOperatingPoint { threshold, accuracy, mean_bytes_to_verdict, early_fraction }
        })
        .collect();
    confidence.set_threshold(chosen);

    Ok(AnytimeTrainReport {
        model,
        anytime: AnytimeModel::new(confidence, stage_models),
        full_accuracy,
        full_mean_bytes,
        curve,
    })
}

impl Classifier for NatureModel {
    fn predict(&self, features: &[f64]) -> usize {
        NatureModel::predict(self, features).index()
    }

    fn n_classes(&self) -> usize {
        match self {
            NatureModel::Cart(m) => m.n_classes(),
            NatureModel::Svm(m) => m.n_classes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iustitia_ml::svm::Kernel;

    fn band_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(2, FileClass::names());
        let mut v = 0.37f64;
        for _ in 0..n {
            v = (v * 887.3).fract();
            let jitter = (v - 0.5) * 0.1;
            v = (v * 653.9).fract();
            let x2 = v;
            ds.push(vec![0.50 + jitter, x2 * 0.3], FileClass::Text.index());
            ds.push(vec![0.75 + jitter, 0.3 + x2 * 0.3], FileClass::Binary.index());
            ds.push(vec![0.98 + jitter / 10.0, 0.6 + x2 * 0.3], FileClass::Encrypted.index());
            // Compressed shares the encrypted h1 band; the second
            // (battery-like) feature is what separates it.
            ds.push(vec![0.96 + jitter / 10.0, 1.0 + x2 * 0.3], FileClass::Compressed.index());
        }
        ds
    }

    #[test]
    fn cart_model_trains_and_predicts() {
        let ds = band_dataset(100);
        let m = NatureModel::train(&ds, &ModelKind::paper_cart()).expect("train");
        assert!(m.accuracy_on(&ds) > 0.95);
        assert_eq!(m.predict(&[0.5, 0.1]), FileClass::Text);
        assert_eq!(m.n_classes(), 4);
    }

    #[test]
    fn svm_model_trains_and_predicts() {
        let ds = band_dataset(60);
        let params =
            SvmParams { c: 100.0, kernel: Kernel::Rbf { gamma: 20.0 }, ..Default::default() };
        let m = NatureModel::train(&ds, &ModelKind::Svm(params)).expect("train");
        assert!(m.accuracy_on(&ds) > 0.9, "acc={}", m.accuracy_on(&ds));
        assert_eq!(m.predict(&[0.98, 0.8]), FileClass::Encrypted);
        assert_eq!(m.predict(&[0.97, 1.1]), FileClass::Compressed);
    }

    #[test]
    fn train_rejects_empty_and_missing_class_datasets() {
        let empty = Dataset::new(2, FileClass::names());
        assert_eq!(
            NatureModel::train(&empty, &ModelKind::paper_cart()),
            Err(TrainError::EmptyDataset)
        );

        let mut partial = Dataset::new(2, FileClass::names());
        for i in 0..5 {
            let x = i as f64 / 10.0;
            partial.push(vec![0.5 + x, 0.1], FileClass::Text.index());
            partial.push(vec![0.7 + x, 0.2], FileClass::Binary.index());
            partial.push(vec![0.9 + x, 0.3], FileClass::Encrypted.index());
        }
        let err = NatureModel::train(&partial, &ModelKind::paper_svm());
        assert_eq!(
            err,
            Err(TrainError::MissingClass {
                index: FileClass::Compressed.index(),
                name: "compressed".to_string()
            })
        );
        let msg = err.expect_err("must fail").to_string();
        assert!(msg.contains("compressed"), "{msg}");
    }

    #[test]
    fn vote_model_matches_dag_on_clear_data() {
        let ds = band_dataset(60);
        let params =
            SvmParams { c: 100.0, kernel: Kernel::Rbf { gamma: 20.0 }, ..Default::default() };
        let dag = NatureModel::train(&ds, &ModelKind::Svm(params)).expect("train");
        let NatureModel::Svm(pairwise) = &dag else { panic!("an SVM kind trains an SVM") };
        let vote = iustitia_ml::OneVsOneVote::from_dag(pairwise);
        let mut agree = 0;
        for (x, _) in ds.iter() {
            if dag.predict(x).index() == vote.predict(x) {
                agree += 1;
            }
        }
        assert!(agree as f64 / ds.len() as f64 > 0.95);
    }

    #[test]
    fn confusion_matrix_diagonal_dominates() {
        let ds = band_dataset(80);
        let m = NatureModel::train(&ds, &ModelKind::paper_cart()).expect("train");
        let cm = m.confusion_on(&ds);
        for c in 0..FileClass::ALL.len() {
            assert!(cm.class_accuracy(c) > 0.9, "class {c}");
        }
    }

    #[test]
    fn compiled_margins_match_plain_labels_for_every_kind() {
        let ds = band_dataset(60);
        let svm_params =
            SvmParams { c: 100.0, kernel: Kernel::Rbf { gamma: 20.0 }, ..Default::default() };
        for kind in [ModelKind::paper_cart(), ModelKind::Svm(svm_params)] {
            let boxed = NatureModel::train(&ds, &kind).expect("train");
            let mut compiled = boxed.compile();
            for (x, _) in ds.iter() {
                let (label, margin) = compiled.try_predict_with_margin(x).expect("width ok");
                assert_eq!(label, boxed.predict(x), "kind {kind:?}");
                assert!((0.0..=1.0).contains(&margin), "margin {margin} for {kind:?}");
            }
        }
    }

    #[test]
    fn anytime_training_calibrates_a_usable_threshold() {
        let corpus = iustitia_corpus::CorpusBuilder::new(33)
            .files_per_class(24)
            .size_range(1024, 4096)
            .build();
        let report = train_anytime_from_corpus(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            2048,
            crate::features::FeatureMode::Exact,
            &ModelKind::paper_cart(),
            33,
            true,
            0.02,
        )
        .expect("balanced corpus");
        assert_eq!(report.curve.len(), ANYTIME_THRESHOLD_GRID.len());
        assert!(report.full_accuracy > 0.5, "full acc {}", report.full_accuracy);
        for p in &report.curve {
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!(p.mean_bytes_to_verdict > 0.0);
            assert!(p.mean_bytes_to_verdict <= report.full_mean_bytes + 1e-9);
            assert!((0.0..=1.0).contains(&p.early_fraction));
        }
        // The chosen threshold honors the floor (or anytime is disabled).
        let t = report.anytime.confidence.threshold();
        if t < ANYTIME_THRESHOLD_DISABLED {
            let chosen = report
                .curve
                .iter()
                .find(|p| p.threshold == t)
                .expect("chosen threshold comes from the grid");
            assert!(chosen.accuracy >= report.full_accuracy - 0.02);
        }
        // Stage grid stays below the cap.
        assert!(report.anytime.confidence.stages().iter().all(|s| s.bytes < 2048));
        // Calibration is deterministic.
        let again = train_anytime_from_corpus(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            2048,
            crate::features::FeatureMode::Exact,
            &ModelKind::paper_cart(),
            33,
            true,
            0.02,
        )
        .expect("balanced corpus");
        assert_eq!(again.anytime, report.anytime);
        assert_eq!(again.model, report.model);
    }

    #[test]
    fn compiled_model_matches_boxed_for_every_kind() {
        let ds = band_dataset(60);
        let svm_params =
            SvmParams { c: 100.0, kernel: Kernel::Rbf { gamma: 20.0 }, ..Default::default() };
        for kind in [ModelKind::paper_cart(), ModelKind::Svm(svm_params)] {
            let boxed = NatureModel::train(&ds, &kind).expect("train");
            let mut compiled = boxed.compile();
            assert_eq!(compiled.n_features(), 2);
            for (x, _) in ds.iter() {
                assert_eq!(compiled.predict(x), boxed.predict(x), "kind {kind:?}");
            }
            assert!(compiled.try_predict(&[0.5]).is_err());
        }
    }
}
