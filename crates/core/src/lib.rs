//! # Iustitia — high-speed flow nature identification
//!
//! A faithful reproduction of *"Iustitia: An Information Theoretical
//! Approach to High-speed Flow Nature Identification"* (Khakpour & Liu,
//! ICDCS 2009): classify network flows as **text**, **binary**, or
//! **encrypted** from the entropy vector of their first `b` payload
//! bytes, at line rate, with a few hundred bytes of state per new flow.
//!
//! The key observation: text flows have the lowest entropy, encrypted
//! flows the highest, and binary flows sit in between — at every gram
//! width. A classifier (CART or SVM-RBF via DAGSVM) trained offline on
//! labeled files turns that observation into an online packet-path
//! component:
//!
//! ```text
//! packet ─▶ SHA-1(header) ─▶ CDB hit? ──yes──▶ labeled output queue
//!                               │ no
//!                               ▼
//!                    per-flow buffer (b bytes)
//!                               │ full / idle
//!                               ▼
//!              entropy vector (exact or (δ,ε)-estimated)
//!                               ▼
//!                 CART / DAGSVM ─▶ label ─▶ CDB
//! ```
//!
//! ## Crate map
//!
//! * [`sha1`] — the 160-bit flow hash (from scratch).
//! * [`features`] — entropy-vector extraction and the `H_F`/`H_b`/`H_b′`
//!   training regimes.
//! * [`model`] — trained CART / SVM flow-nature models.
//! * [`cdb`] — the flow table: pending flows and the Classification
//!   Database with FIN/RST, `n·λ′`, and TTL purging; flow-to-shard
//!   placement.
//! * [`persist`] — save/load trained models as JSON.
//! * [`pipeline`] — the online engine of Figure 1.
//! * [`analysis`] — trace-driven delay/CDB time series (Figures 8, 10).
//! * [`defense`] — §4.6 padding attacks and mitigations.
//! * [`tunnel`] — §4.6 tunnel policy (encrypted tunnel vs inner flows).
//!
//! Substrates live in sibling crates: `iustitia-entropy` (information
//! theory), `iustitia-ml` (CART/SVM/DAGSVM), `iustitia-corpus`
//! (synthetic labeled content), `iustitia-netsim` (packets and traces).
//!
//! ## Quickstart
//!
//! ```
//! use iustitia::prelude::*;
//!
//! // 1. Synthesize a labeled corpus (stands in for the paper's file pool).
//! let corpus = CorpusBuilder::new(7).files_per_class(20).size_range(1024, 4096).build();
//!
//! // 2. Train on the first 32 bytes of each file (the paper's best
//! //    small-buffer regime) with the φ′_CART feature set.
//! let widths = FeatureWidths::cart_selected();
//! let train = dataset_from_corpus(
//!     &corpus, &widths, TrainingMethod::Prefix { b: 32 }, FeatureMode::Exact, 1,
//! );
//! let model = NatureModel::train(&train, &ModelKind::paper_cart()).expect("train");
//!
//! // 3. Classify flows online.
//! let mut iustitia = Iustitia::new(model, PipelineConfig::headline(1));
//! # let _ = &mut iustitia;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod analysis;
pub mod cdb;
pub mod defense;
pub mod features;
pub mod model;
pub mod persist;
pub mod pipeline;
pub mod sha1;
pub mod tunnel;

pub use iustitia_corpus::FileClass;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::analysis::{run_over_trace, DelayComponents, TraceRunReport};
    pub use crate::cdb::{CdbConfig, ClassificationDatabase, FlowId};
    pub use crate::defense::{pad_flow, PaddingAttacker};
    pub use crate::features::{dataset_from_corpus, FeatureExtractor, FeatureMode, TrainingMethod};
    pub use crate::model::{ModelKind, NatureModel};
    pub use crate::pipeline::{HeaderPolicy, Iustitia, PipelineConfig, Verdict};
    pub use crate::tunnel::{classify_tunnel, InnerFlowKey, TunnelSegment, TunnelVerdict};
    pub use iustitia_corpus::{CorpusBuilder, FileClass, LabeledFile};
    pub use iustitia_entropy::{EstimatorConfig, FeatureWidths};
    pub use iustitia_ml::{Classifier, ConfusionMatrix, Dataset};
    pub use iustitia_netsim::{ContentMode, Packet, TraceConfig, TraceGenerator};
}

#[cfg(test)]
mod tests {
    /// The crates' key types should be Send + Sync so the pipeline can
    /// be sharded across threads.
    #[test]
    fn key_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::model::NatureModel>();
        assert_send_sync::<crate::cdb::ClassificationDatabase>();
        assert_send_sync::<crate::pipeline::Iustitia>();
    }
}
