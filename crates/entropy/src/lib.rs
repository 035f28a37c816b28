//! Information-theory substrate for the Iustitia flow-nature classifier.
//!
//! This crate implements everything Section 3 and Section 4.4 of the paper
//! *"Iustitia: An Information Theoretical Approach to High-speed Flow Nature
//! Identification"* (ICDCS 2009) rely on:
//!
//! * **k-gram histograms** over byte sequences ([`GramHistogram`]) — every
//!   consecutive window of `k` bytes is one element of the alphabet
//!   `f_k` with `|f_k| = 256^k`.
//! * **Normalized entropy** `h_k` of a byte sequence (Formula 1 of the
//!   paper), and **entropy vectors** `H_F = ⟨h_1, …, h_n⟩`
//!   ([`EntropyVector`], [`entropy_vector`]).
//! * **Kullback–Leibler** and **Jensen–Shannon divergence** (Formula 2),
//!   used to validate that a file prefix is representative of the whole
//!   file ([`divergence`]).
//! * **Streaming `(δ,ε)`-approximate entropy estimation** following
//!   Lall et al. (SIGMETRICS 2006) and the sampling procedure of
//!   Section 4.4.1 ([`estimate`]).
//!
//! # Example
//!
//! ```
//! use iustitia_entropy::{entropy, entropy_vector};
//!
//! // A very repetitive (low-entropy) message ...
//! let text = b"the cat sat on the mat and the cat sat again";
//! // ... versus bytes drawn uniformly at random (high entropy).
//! let noisy: Vec<u8> = (0..1024u32).map(|i| (i * 151 % 256) as u8).collect();
//!
//! let h_text = entropy(text, 1);
//! let h_noisy = entropy(&noisy, 1);
//! assert!(h_text < h_noisy);
//!
//! // The feature vector the classifier consumes: h_1 .. h_5.
//! let hv = entropy_vector(text, &[1, 2, 3, 4, 5]);
//! assert_eq!(hv.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]
#![cfg_attr(test, allow(clippy::disallowed_types))]

pub mod divergence;
pub mod estimate;
pub mod fastmap;
pub mod histogram;
pub mod incremental;
pub mod randomness;
pub mod vector;

pub use divergence::{jensen_shannon_divergence, kl_divergence, prefix_jsd, ByteDistribution};
pub use estimate::{
    counters_required, min_epsilon, EstimateError, EstimatorConfig, IncrementalEstimator,
    StreamingEntropyEstimator,
};
pub use fastmap::{FxBuildHasher, FxHashMap};
pub use histogram::GramHistogram;
pub use incremental::IncrementalVector;
pub use randomness::{battery_features, RandomnessBattery, BATTERY_FEATURES};
pub use vector::{
    entropy, entropy_of_histogram, entropy_vector, shannon_entropy_bits, EntropyVector,
    FeatureWidths,
};

/// Number of bits per byte; `|f_k| = 2^(BITS_PER_BYTE * k)`.
pub(crate) const BITS_PER_BYTE: f64 = 8.0;
