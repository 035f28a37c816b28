//! `iustitia-serve` — a networked classification service wrapping the
//! [`iustitia`] pipeline.
//!
//! The offline crates answer *"what is the nature of this flow?"* for
//! traces already on disk; this crate serves the same question over
//! TCP at line rate. A [`Server`] partitions flow state across `N`
//! shard workers (each owning a private pipeline + classification
//! database), admits packets through bounded per-shard queues with a
//! configurable [`AdmissionPolicy`], decodes and batches frames on one
//! epoll reactor thread, and exports live counters and per-stage
//! latency histograms through the `Stats` request.
//!
//! The matching [`Client`] speaks the length-prefixed binary protocol
//! of [`proto`]: streamed [`SubmitPacket`](proto::Request::SubmitPacket)
//! requests produce asynchronous flow verdicts, while
//! [`ClassifyBuffer`](proto::Request::ClassifyBuffer) offers one-shot
//! classification of a byte buffer's first *b* bytes.
//!
//! Each shard's pipeline compiles its model at construction
//! (`NatureModel::compile`), so every verdict on the hot path runs the
//! flat-array / packed-support-vector inference form with zero heap
//! allocations per classification; a steady-state recycled flow is
//! allocation-free from first packet through verdict (see the
//! counting-allocator test in `iustitia`, and `results/BENCH_ml.json`
//! for the boxed-vs-compiled predict timings).
//!
//! ```no_run
//! use iustitia::features::{FeatureMode, TrainingMethod};
//! use iustitia::model::{train_from_corpus, ModelKind};
//! use iustitia::pipeline::PipelineConfig;
//! use iustitia_entropy::FeatureWidths;
//! use iustitia_serve::{Client, Server, ServerConfig};
//!
//! let corpus = iustitia_corpus::CorpusBuilder::new(7).build();
//! let model = train_from_corpus(
//!     &corpus,
//!     &FeatureWidths::svm_selected(),
//!     TrainingMethod::Prefix { b: 32 },
//!     FeatureMode::Exact,
//!     &ModelKind::paper_cart(),
//!     7,
//! )
//! .expect("balanced corpus");
//! let server = Server::start("127.0.0.1:0", model, ServerConfig::new(PipelineConfig::headline(7)))?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let label = client.classify_buffer(b"GET /index.html HTTP/1.1\r\n\r\n")?;
//! println!("classified as {}", label.name());
//!
//! client.close()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod client;
pub mod conn;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod sys;

pub use client::{Client, ClientError, ClientEvent};
pub use conn::{FrameAssembler, FrameWalk, WriteBuffer};
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, ServeMetrics, ShardGauges, ShardStats, Stage,
    StatsSnapshot,
};
pub use proto::{FlowVerdict, PacketRef, ProtoError, Request, RequestRef, Response};
pub use queue::{
    AdmissionPolicy, BoundedQueue, Drained, PacketRecord, PacketSlab, PushOutcome, SlabPacket,
};
pub use server::{Server, ServerConfig};
