//! Multi-class SVM combination: DAGSVM and one-vs-one voting.
//!
//! The paper uses **DAGSVM** (Platt, Cristianini & Shawe-Taylor 2000),
//! "the fastest among other multi-class voting methods" (§3.2, citing
//! Hsu & Lin 2002): train one binary SVM per unordered class pair, then
//! evaluate along a decision DAG that eliminates one candidate class per
//! kernel evaluation, so classification needs only `c − 1` of the
//! `c(c−1)/2` classifiers. One-vs-one majority voting is also provided
//! as the ablation baseline.

use crate::dataset::Dataset;
use crate::parallel::{run_indexed, Parallelism};
use crate::svm::{BinarySvm, SvmParams};
use crate::{Classifier, DimensionMismatch};

/// The shared pairwise model set: one [`BinarySvm`] per unordered class
/// pair `(i, j)` with `i < j`, positive label = class `i`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct PairwiseSvms {
    n_classes: usize,
    /// Indexed by pair rank of `(i, j)`, `i < j`.
    models: Vec<BinarySvm>,
}

impl PairwiseSvms {
    fn fit(data: &Dataset, params: &SvmParams) -> Self {
        let c = data.n_classes();
        assert!(c >= 2, "multi-class models need at least 2 classes");
        let pairs: Vec<(usize, usize)> =
            (0..c).flat_map(|i| ((i + 1)..c).map(move |j| (i, j))).collect();
        let threads = params.parallelism.resolve();
        let models = if threads > 1 && pairs.len() > 1 {
            // The k(k−1)/2 pairwise fits are independent, so they go to
            // worker threads; each inner fit runs its kernel rows
            // serially to keep the total worker count bounded by
            // `threads`. Every fit is deterministic either way, so
            // this reshuffle cannot change a single model.
            let inner = SvmParams { parallelism: Parallelism::serial(), ..*params };
            run_indexed(threads, pairs.len(), |p| {
                let (i, j) = pairs[p];
                BinarySvm::fit_pair(data, i, j, &inner)
            })
        } else {
            pairs.iter().map(|&(i, j)| BinarySvm::fit_pair(data, i, j, params)).collect()
        };
        PairwiseSvms { n_classes: c, models }
    }

    /// Feature width of the underlying binary models.
    fn n_features(&self) -> usize {
        self.models.first().map_or(0, |m| m.n_features())
    }

    fn check(&self, features: &[f64]) -> Result<(), DimensionMismatch> {
        let expected = self.n_features();
        if features.len() != expected {
            return Err(DimensionMismatch { expected, got: features.len() });
        }
        Ok(())
    }

    /// Index of the model deciding between classes `i < j`.
    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n_classes);
        // rank of (i, j) in lexicographic order
        let c = self.n_classes;
        i * c - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Returns `true` if the pairwise SVM for `(i, j)` prefers class `i`.
    fn prefers_first(&self, i: usize, j: usize, features: &[f64]) -> bool {
        // lint: allow(L008) — pair_index(i, j) < models.len() for i < j < n_classes (triangular rank)
        self.models[self.pair_index(i, j)].predict(features)
    }
}

/// A DAGSVM multi-class classifier.
///
/// # Examples
///
/// ```
/// use iustitia_ml::dataset::Dataset;
/// use iustitia_ml::multiclass::DagSvm;
/// use iustitia_ml::svm::{Kernel, SvmParams};
/// use iustitia_ml::Classifier;
///
/// let mut ds = Dataset::new(1, vec!["lo".into(), "mid".into(), "hi".into()]);
/// for i in 0..30 {
///     ds.push(vec![i as f64 / 30.0], 0);
///     ds.push(vec![1.0 + i as f64 / 30.0], 1);
///     ds.push(vec![2.0 + i as f64 / 30.0], 2);
/// }
/// let params = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
/// let dag = DagSvm::fit(&ds, &params);
/// assert_eq!(dag.predict(&[0.2]), 0);
/// assert_eq!(dag.predict(&[1.4]), 1);
/// assert_eq!(dag.predict(&[2.7]), 2);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DagSvm {
    pairwise: PairwiseSvms,
}

impl DagSvm {
    /// Trains all pairwise SVMs on the dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than 2 classes or any class has
    /// no samples.
    pub fn fit(data: &Dataset, params: &SvmParams) -> Self {
        DagSvm { pairwise: PairwiseSvms::fit(data, params) }
    }

    /// Number of underlying binary classifiers (`c(c−1)/2`).
    pub fn n_binary_classifiers(&self) -> usize {
        self.pairwise.models.len()
    }

    /// Number of binary evaluations one prediction costs (`c − 1`).
    pub fn evaluations_per_prediction(&self) -> usize {
        self.pairwise.n_classes - 1
    }

    /// Feature-vector width the model expects.
    pub fn n_features(&self) -> usize {
        self.pairwise.n_features()
    }

    /// Predicts the class index, or reports a feature-width mismatch
    /// before any kernel is evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict(&self, features: &[f64]) -> Result<usize, DimensionMismatch> {
        self.pairwise.check(features)?;
        Ok(self.predict(features))
    }

    /// Pairwise binary models in lexicographic pair order
    /// (compiled-model packing).
    pub(crate) fn pairwise_models(&self) -> &[BinarySvm] {
        &self.pairwise.models
    }
}

impl Classifier for DagSvm {
    /// DAG evaluation: keep a candidate list of all classes; repeatedly
    /// test the first candidate against the last and eliminate the
    /// loser, until one class remains.
    fn predict(&self, features: &[f64]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.pairwise.n_classes - 1;
        while lo != hi {
            if self.pairwise.prefers_first(lo, hi, features) {
                hi -= 1; // class `hi` eliminated
            } else {
                lo += 1; // class `lo` eliminated
            }
        }
        lo
    }

    fn n_classes(&self) -> usize {
        self.pairwise.n_classes
    }
}

/// One-vs-one max-wins voting over the same pairwise SVM set — the
/// slower baseline DAGSVM is compared against.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OneVsOneVote {
    pairwise: PairwiseSvms,
}

impl OneVsOneVote {
    /// Trains all pairwise SVMs on the dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than 2 classes or any class has
    /// no samples.
    pub fn fit(data: &Dataset, params: &SvmParams) -> Self {
        OneVsOneVote { pairwise: PairwiseSvms::fit(data, params) }
    }

    /// Reuses an existing DAGSVM's pairwise models (training is the
    /// expensive part; only evaluation differs).
    pub fn from_dag(dag: &DagSvm) -> Self {
        OneVsOneVote { pairwise: dag.pairwise.clone() }
    }

    /// Feature-vector width the model expects.
    pub fn n_features(&self) -> usize {
        self.pairwise.n_features()
    }

    /// Predicts the class index, or reports a feature-width mismatch
    /// before any kernel is evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatch`] when `features.len()` differs from
    /// the trained width.
    pub fn try_predict(&self, features: &[f64]) -> Result<usize, DimensionMismatch> {
        self.pairwise.check(features)?;
        Ok(self.predict(features))
    }
}

impl Classifier for OneVsOneVote {
    fn predict(&self, features: &[f64]) -> usize {
        let c = self.pairwise.n_classes;
        // lint: allow(L009) — the ablation baseline, evaluated offline only; no serving path votes
        let mut votes = vec![0usize; c];
        for i in 0..c {
            for j in (i + 1)..c {
                if self.pairwise.prefers_first(i, j, features) {
                    // lint: allow(L008) — i < c and votes.len() == c
                    votes[i] += 1;
                } else {
                    // lint: allow(L008) — j < c and votes.len() == c
                    votes[j] += 1;
                }
            }
        }
        votes.iter().enumerate().max_by_key(|&(_, &v)| v).map(|(i, _)| i).unwrap_or(0)
    }

    fn n_classes(&self) -> usize {
        self.pairwise.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::Kernel;

    fn three_blobs(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2, vec!["t".into(), "b".into(), "e".into()]);
        let centers = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.9)];
        let mut v = 0.41f64;
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                v = (v * 787.99).fract();
                let dx = (v - 0.5) * 0.2;
                v = (v * 541.17).fract();
                let dy = (v - 0.5) * 0.2;
                ds.push(vec![cx + dx, cy + dy], label);
            }
        }
        ds
    }

    fn params() -> SvmParams {
        SvmParams { c: 10.0, kernel: Kernel::Rbf { gamma: 5.0 }, ..Default::default() }
    }

    #[test]
    fn dag_classifies_blobs() {
        let ds = three_blobs(60);
        let dag = DagSvm::fit(&ds, &params());
        assert_eq!(dag.n_classes(), 3);
        assert_eq!(dag.n_binary_classifiers(), 3);
        assert_eq!(dag.evaluations_per_prediction(), 2);
        assert_eq!(dag.predict(&[0.2, 0.2]), 0);
        assert_eq!(dag.predict(&[0.8, 0.2]), 1);
        assert_eq!(dag.predict(&[0.5, 0.9]), 2);
    }

    #[test]
    fn vote_agrees_with_dag_on_clear_points() {
        let ds = three_blobs(60);
        let dag = DagSvm::fit(&ds, &params());
        let vote = OneVsOneVote::from_dag(&dag);
        for (x, y) in ds.iter() {
            assert_eq!(dag.predict(x), y);
            assert_eq!(vote.predict(x), y);
        }
    }

    #[test]
    fn pair_index_is_lexicographic() {
        let ds = three_blobs(20);
        let dag = DagSvm::fit(&ds, &params());
        // pairs for c=3: (0,1)→0, (0,2)→1, (1,2)→2
        assert_eq!(dag.pairwise.pair_index(0, 1), 0);
        assert_eq!(dag.pairwise.pair_index(0, 2), 1);
        assert_eq!(dag.pairwise.pair_index(1, 2), 2);
    }

    #[test]
    fn four_class_pair_indexing_and_prediction() {
        let mut ds = Dataset::new(1, (0..4).map(|i| format!("c{i}")).collect::<Vec<_>>());
        for i in 0..20 {
            for c in 0..4usize {
                ds.push(vec![c as f64 + i as f64 / 20.0], c);
            }
        }
        let p = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        let dag = DagSvm::fit(&ds, &p);
        assert_eq!(dag.n_binary_classifiers(), 6);
        assert_eq!(dag.pairwise.pair_index(0, 3), 2);
        assert_eq!(dag.pairwise.pair_index(1, 2), 3);
        assert_eq!(dag.pairwise.pair_index(2, 3), 5);
        for c in 0..4usize {
            assert_eq!(dag.predict(&[c as f64 + 0.5]), c, "class {c}");
        }
    }

    #[test]
    fn two_class_dag_uses_single_classifier() {
        let mut ds = Dataset::new(1, vec!["a".into(), "b".into()]);
        for i in 0..20 {
            ds.push(vec![i as f64], usize::from(i >= 10));
        }
        let p = SvmParams { c: 10.0, kernel: Kernel::Linear, ..Default::default() };
        let dag = DagSvm::fit(&ds, &p);
        assert_eq!(dag.n_binary_classifiers(), 1);
        assert_eq!(dag.evaluations_per_prediction(), 1);
        assert_eq!(dag.predict(&[2.0]), 0);
        assert_eq!(dag.predict(&[15.0]), 1);
    }

    #[test]
    fn predictions_are_always_valid_classes() {
        let ds = three_blobs(30);
        let dag = DagSvm::fit(&ds, &params());
        let vote = OneVsOneVote::from_dag(&dag);
        let mut v = 0.123f64;
        for _ in 0..50 {
            v = (v * 977.77).fract();
            let x = v * 2.0 - 0.5; // outside the training range too
            v = (v * 541.41).fract();
            let y = v * 2.0 - 0.5;
            assert!(dag.predict(&[x, y]) < 3);
            assert!(vote.predict(&[x, y]) < 3);
        }
    }

    #[test]
    fn vote_fit_directly() {
        let ds = three_blobs(40);
        let vote = OneVsOneVote::fit(&ds, &params());
        assert_eq!(vote.n_classes(), 3);
        assert_eq!(vote.predict(&[0.8, 0.2]), 1);
    }

    #[test]
    fn parallel_pairwise_fit_is_bit_identical_to_serial() {
        let ds = three_blobs(50);
        let serial = SvmParams { parallelism: Parallelism::serial(), ..params() };
        let parallel = SvmParams { parallelism: Parallelism::fixed(4), ..params() };
        assert_eq!(DagSvm::fit(&ds, &serial), DagSvm::fit(&ds, &parallel));
        assert_eq!(OneVsOneVote::fit(&ds, &serial), OneVsOneVote::fit(&ds, &parallel));
    }

    #[test]
    fn wrong_width_is_a_typed_error() {
        let ds = three_blobs(30);
        let dag = DagSvm::fit(&ds, &params());
        assert_eq!(dag.n_features(), 2);
        assert_eq!(dag.try_predict(&[0.5]), Err(crate::DimensionMismatch { expected: 2, got: 1 }));
        assert!(dag.try_predict(&[0.5, 0.5]).is_ok());
        let vote = OneVsOneVote::from_dag(&dag);
        assert_eq!(
            vote.try_predict(&[0.5, 0.5, 0.5]),
            Err(crate::DimensionMismatch { expected: 2, got: 3 })
        );
    }
}
