//! Machine-learning substrate for the Iustitia flow-nature classifier.
//!
//! The paper classifies entropy vectors with two models, both implemented
//! here from scratch:
//!
//! * **CART decision trees** (Breiman et al. 1984) with Gini impurity and
//!   cost-complexity pruning — [`cart`].
//! * **Soft-margin SVMs** trained by SMO with second-order working-set
//!   selection (Fan, Chen & Lin 2005), with linear and RBF kernels;
//!   multi-class via **DAGSVM** (Platt et al. 2000) or one-vs-one
//!   voting — [`svm`] and [`multiclass`].
//!
//! Supporting machinery: labeled [`dataset`]s with stratified k-fold
//! cross-validation, [`metrics`] (confusion matrices, per-class accuracy
//! and misclassification rates as reported in Tables 1–2), and the two
//! [`feature_select`]ion procedures of §4.1 (CART pruning-vote and
//! Sequential Forward Search).
//!
//! # Example
//!
//! ```
//! use iustitia_ml::cart::{CartParams, DecisionTree};
//! use iustitia_ml::dataset::Dataset;
//! use iustitia_ml::Classifier;
//!
//! // A trivially separable two-class problem on one feature.
//! let mut ds = Dataset::new(1, vec!["low".into(), "high".into()]);
//! for i in 0..50 {
//!     ds.push(vec![i as f64 / 100.0], 0);
//!     ds.push(vec![0.5 + i as f64 / 100.0], 1);
//! }
//! let tree = DecisionTree::fit(&ds, &CartParams::default());
//! assert_eq!(tree.predict(&[0.1]), 0);
//! assert_eq!(tree.predict(&[0.9]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod cart;
pub mod compiled;
pub mod confidence;
pub mod crossval;
pub mod dataset;
pub mod feature_select;
pub mod metrics;
pub mod multiclass;
pub mod parallel;
pub mod svm;

pub use cart::{CartParams, DecisionTree};
pub use compiled::{CompiledDag, CompiledTree};
pub use confidence::{CentroidStage, ConfidenceModel};
pub use crossval::{cross_validate, cross_validate_with, CrossValReport};
pub use dataset::Dataset;
pub use metrics::ConfusionMatrix;
pub use multiclass::{DagSvm, OneVsOneVote};
pub use parallel::Parallelism;
pub use svm::{BinarySvm, Kernel, SvmParams};

/// A feature vector had a different width than the model was trained
/// on.
///
/// In release builds [`Kernel::eval`]'s length check compiles away, so
/// before this type existed a wrong-width vector would silently
/// zip-truncate the dot product and produce a confident wrong verdict.
/// The `try_*` prediction entry points surface the mismatch instead;
/// the infallible [`Classifier::predict`] implementations panic on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Feature count the model was trained on.
    pub expected: usize,
    /// Feature count of the offending vector.
    pub got: usize,
}

impl std::fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} features, got {}", self.expected, self.got)
    }
}

impl std::error::Error for DimensionMismatch {}

/// A classifier over `f64` feature vectors producing a class index.
///
/// Implemented by [`DecisionTree`], [`DagSvm`], and [`OneVsOneVote`] so
/// that cross-validation, feature selection, and the Iustitia pipeline
/// can treat them uniformly.
pub trait Classifier {
    /// Predicts the class index for one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `features` has the wrong
    /// dimensionality.
    fn predict(&self, features: &[f64]) -> usize;

    /// Number of classes this model distinguishes.
    fn n_classes(&self) -> usize;
}
