//! The online classification pipeline of Figure 1.
//!
//! Per packet: hash the header into a flow ID and look the flow up in
//! the [flow table](crate::cdb) — the one per-flow map the pipeline
//! has. A classified slot is a CDB hit: forward to the flow's output
//! queue. A pending (or new) slot appends the payload to the flow's
//! buffer; once `b` classification-window bytes are in — or the flow
//! goes idle or closes — compute the entropy vector, classify, turn the
//! slot into a CDB record, and drain the flow to the right queue.
//! FIN/RST packets remove CDB records.
//!
//! There is one packet state machine, [`Iustitia::process_batch`]:
//! consecutive packets of one flow share the slot lookup, and
//! [`Iustitia::process_packet`] is a batch of one.
//!
//! A pending flow holds what Fig. 1 buffers: its first payload bytes —
//! the raw prefix while the [`HeaderPolicy`] skip/strip decision is
//! open (only under [`HeaderPolicy::StripKnown`]), then its window of
//! at most `b` bytes past the header — in one buffer reserved at
//! [`buffer_capacity`](Iustitia::buffer_capacity), plus its own
//! randomness battery (2 KiB of fixed counts) when the battery is on.
//! It holds no gram counters. Each pipeline owns one warm set of
//! entropy tables, sized for speed because there is only one, and
//! counts a flow's window in it when the flow is probed or concludes.
//! The set remembers which flow *incarnation* it holds and how many of
//! its bytes it has counted, so successive probes of one flow feed only
//! the new bytes; any other flow clears it and counts from the start.
//! Every feature is an exact integer sum, so no feeding order or table
//! sizing can move a bit of a verdict.

#![warn(clippy::disallowed_methods)]

use std::collections::hash_map::Entry;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iustitia_corpus::{scan_application_header, strip_application_header, FileClass, HeaderScan};
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};

use crate::cdb::{CdbConfig, ClassificationDatabase, FlowId, FlowIdMemo, PendingFlow, Slot};
use crate::features::{FeatureExtractor, FeatureMode, FlowFeatureState};
use crate::model::{AnytimeModel, CompiledNatureModel, NatureModel};
use iustitia_entropy::FeatureWidths;
use iustitia_ml::ConfidenceModel;

/// How application-layer headers are handled before classification
/// (§4.3 and the §4.6 padding defense).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum HeaderPolicy {
    /// Classify from the first payload byte (header-free deployments:
    /// FTP-data, most P2P transfer flows).
    None,
    /// Strip recognized HTTP/SMTP/POP3/IMAP headers by signature; for
    /// unrecognized flows fall back to skipping `t` bytes (the paper's
    /// threshold `T` policy for unknown headers).
    StripKnown {
        /// Fallback threshold `T` for unknown applications.
        t: usize,
    },
    /// Always treat byte `t + 1` as the start of the flow.
    SkipThreshold {
        /// Threshold `T`.
        t: usize,
    },
    /// Defense: skip a *random* number of bytes in `[0, t_max]` so an
    /// attacker cannot know which bytes will be classified.
    RandomSkip {
        /// Maximum skip `T`.
        t_max: usize,
    },
}

impl HeaderPolicy {
    /// Extra bytes that must be buffered beyond `b` to cover the
    /// largest possible header/skip.
    pub fn allowance(&self) -> usize {
        match *self {
            HeaderPolicy::None => 0,
            HeaderPolicy::StripKnown { t } => t,
            HeaderPolicy::SkipThreshold { t } => t,
            HeaderPolicy::RandomSkip { t_max } => t_max,
        }
    }
}

/// Anytime early-exit policy: when present (and an
/// [`AnytimeModel`] is attached via
/// [`Iustitia::with_anytime`]), the pipeline probes each buffering
/// flow's partial feature vector after qualifying packets and emits a
/// verdict as soon as the confidence score clears `threshold` —
/// instead of always waiting for `b` bytes. The `fed >= b` rule stays
/// as the fallback cap, so flows that never look confident classify
/// exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnytimeConfig {
    /// Emission threshold on the combined confidence score (scores are
    /// clamped to `[0, 1]`, so
    /// [`ANYTIME_THRESHOLD_DISABLED`](crate::model::ANYTIME_THRESHOLD_DISABLED)
    /// keeps probes running but never firing).
    pub threshold: f64,
    /// Do not probe before this many classification-window bytes have
    /// been fed (below the first centroid stage the score would be an
    /// extrapolation).
    pub min_bytes: usize,
    /// Minimum newly fed bytes between consecutive probes of one flow,
    /// bounding probe cost on flows of tiny packets.
    pub probe_stride: usize,
}

impl AnytimeConfig {
    /// An operating point taken from a calibrated model: its threshold,
    /// probing from the first fitted centroid stage, with a default
    /// 64-byte stride (each probe re-finishes the feature vector, so
    /// the stride is the knob trading verdict latency for probe cost;
    /// a finish reads the fixed-point `Σ c·log₂c` each open table keeps
    /// as it counts, and the `k = 1` counters of the bytes seen, so it
    /// costs what the window counted, not its capacity).
    pub fn calibrated(confidence: &ConfidenceModel) -> Self {
        AnytimeConfig {
            threshold: confidence.threshold(),
            min_bytes: confidence.min_stage_bytes() as usize,
            probe_stride: 64,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    /// Classification buffer size `b` in bytes (paper: 32 for
    /// header-free flows, 1024+ with header handling).
    pub buffer_size: usize,
    /// Entropy-vector feature widths (must match the trained model).
    pub widths: FeatureWidths,
    /// Exact or `(δ,ε)`-estimated features.
    pub mode: FeatureMode,
    /// Header handling.
    pub header_policy: HeaderPolicy,
    /// CDB policy.
    pub cdb: CdbConfig,
    /// Classify a partially filled buffer after this much idle time
    /// (the paper classifies "when the buffer of a flow is full" or
    /// "stops receiving packets for a certain period").
    pub idle_timeout: f64,
    /// RNG seed (random skip offsets, estimator sampling).
    pub seed: u64,
    /// Append the randomness-test battery to every feature vector (the
    /// compressed-vs-encrypted discriminator; must match the trained
    /// model's feature set).
    pub battery: bool,
    /// Anytime early-exit policy; `None` (the default) reproduces the
    /// fixed-`b` pipeline bit for bit — no probes run at all.
    pub anytime: Option<AnytimeConfig>,
}

impl PipelineConfig {
    /// The paper's headline operating point: `b = 32`, exact entropy
    /// vectors over `φ′_SVM`, no header handling, no battery (the
    /// paper's 3-class feature set).
    pub fn headline(seed: u64) -> Self {
        PipelineConfig {
            buffer_size: 32,
            widths: FeatureWidths::svm_selected(),
            mode: FeatureMode::Exact,
            header_policy: HeaderPolicy::None,
            cdb: CdbConfig::default(),
            idle_timeout: 5.0,
            seed,
            battery: false,
            anytime: None,
        }
    }
}

/// One packet of a batch, paired with its precomputed flow ID.
///
/// The serve layer hashes the 5-tuple on its reactor thread, so the
/// shard workers do not redo the SHA-1 per packet;
/// [`FlowId::of_tuple`] is deterministic, so precomputing the ID
/// changes no verdict.
#[derive(Debug, Clone, Copy)]
pub struct BatchPacket<'a> {
    /// SHA-1 flow ID of `packet.tuple`.
    pub flow: FlowId,
    /// The packet itself.
    pub packet: &'a Packet,
}

impl<'a> BatchPacket<'a> {
    /// Pairs a packet with its computed flow ID.
    pub fn new(packet: &'a Packet) -> Self {
        BatchPacket { flow: FlowId::of_tuple(&packet.tuple), packet }
    }
}

/// What the packet state machine reads of a packet: its flow ID and
/// 5-tuple, who sent it, its capture time, its flags and its payload
/// bytes. [`BatchPacket`] is the view over an owned [`Packet`]; the
/// serve layer's shard workers implement it over payloads that stay in
/// the byte slab the reactor wrote them to, so a served packet is never
/// rebuilt as a `Packet`.
pub trait PacketView {
    /// The packet's flow ID ([`FlowId::of_tuple`] of its 5-tuple).
    fn flow(&self) -> FlowId;
    /// The packet's 5-tuple.
    fn tuple(&self) -> FiveTuple;
    /// Who sent the packet — for the serve layer, its connection. A
    /// flow's verdict is owed to the owner of its latest data packet
    /// ([`ClassifiedFlow::owner`]).
    fn owner(&self) -> u64;
    /// Capture time in seconds from trace start.
    fn timestamp(&self) -> f64;
    /// TCP flags (empty for UDP).
    fn flags(&self) -> TcpFlags;
    /// Application payload; empty for a pure control packet.
    fn payload(&self) -> &[u8];
}

impl PacketView for BatchPacket<'_> {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn tuple(&self) -> FiveTuple {
        self.packet.tuple
    }

    /// An owned packet has no sender to answer: 0.
    fn owner(&self) -> u64 {
        0
    }

    fn timestamp(&self) -> f64 {
        self.packet.timestamp
    }

    fn flags(&self) -> TcpFlags {
        self.packet.flags
    }

    fn payload(&self) -> &[u8] {
        &self.packet.payload
    }
}

/// What the pipeline did with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// CDB hit — forwarded straight to the labeled queue.
    Hit(FileClass),
    /// Unknown flow, payload buffered, classification pending.
    Buffering,
    /// This packet completed the buffer; the flow was classified now.
    Classified(FileClass),
    /// Control packet (no payload) or close signal — passed through.
    Ignored,
}

/// A completed per-flow classification, with the delay-analysis
/// quantities of §4.5 (`c` packets to fill the buffer, `τ_b` fill
/// time).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassifiedFlow {
    /// Flow ID.
    pub id: FlowId,
    /// The flow's 5-tuple, as its first data packet carried it.
    pub tuple: FiveTuple,
    /// [`PacketView::owner`] of the flow's latest data packet: who the
    /// verdict is owed to.
    pub owner: u64,
    /// Assigned label.
    pub label: FileClass,
    /// Number of data packets needed to fill the buffer (`c`).
    pub packets: u32,
    /// Buffer fill time `τ_b` (first data packet → classification).
    pub fill_time: f64,
    /// Bytes that were in the buffer when classified.
    pub buffered_bytes: usize,
    /// Whether an anytime probe emitted this verdict before the
    /// fixed-`b` buffer filled.
    pub early_exit: bool,
}

/// Throughput counters for the per-class output queues plus
/// pass-through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QueueCounters {
    /// Data packets forwarded per class queue
    /// `[text, binary, encrypted, compressed]`.
    pub forwarded: [u64; 4],
    /// Data packets held in flow buffers awaiting classification.
    pub buffered: u64,
    /// Control/close packets passed through unclassified.
    pub passed_through: u64,
}

impl QueueCounters {
    /// Counts `packets` data packets into `label`'s queue.
    fn forward(&mut self, label: FileClass, packets: u64) {
        if let Some(queue) = self.forwarded.get_mut(label.index()) {
            *queue += packets;
        }
    }
}

/// The Iustitia online classifier (Figure 1's left half).
///
/// # Examples
///
/// ```
/// use iustitia::features::{FeatureMode, TrainingMethod};
/// use iustitia::model::{train_from_corpus, ModelKind};
/// use iustitia::pipeline::{Iustitia, PipelineConfig, Verdict};
/// use iustitia_corpus::CorpusBuilder;
/// use iustitia_entropy::FeatureWidths;
/// use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
/// use std::net::Ipv4Addr;
///
/// // Offline: train on 32-byte prefixes of a labeled corpus.
/// let corpus = CorpusBuilder::new(1).files_per_class(20).size_range(512, 2048).build();
/// let model = train_from_corpus(
///     &corpus,
///     &FeatureWidths::svm_selected(),
///     TrainingMethod::Prefix { b: 32 },
///     FeatureMode::Exact,
///     &ModelKind::paper_cart(),
///     1,
/// )
/// .expect("balanced corpus");
/// let mut iustitia = Iustitia::new(model, PipelineConfig::headline(1));
///
/// // Online: the first data packet already carries ≥ 32 bytes.
/// let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 9999, Ipv4Addr::new(10, 0, 0, 2), 443);
/// let packet = Packet {
///     timestamp: 0.0,
///     tuple,
///     flags: TcpFlags::ACK,
///     payload: b"the cat sat on the mat and then sat again onward".to_vec(),
/// };
/// assert!(matches!(iustitia.process_packet(&packet), Verdict::Classified(_)));
/// ```
#[derive(Debug)]
pub struct Iustitia {
    config: PipelineConfig,
    model: NatureModel,
    /// The model's compiled inference form (flattened tree / packed
    /// shared support vectors); every verdict comes from this path.
    compiled: CompiledNatureModel,
    /// The flow table: pending flows and CDB records, one slot each.
    cdb: ClassificationDatabase,
    /// Flow IDs [`process_packet`](Self::process_packet) has already
    /// hashed; empty in a pipeline fed only precomputed IDs.
    flow_memo: FlowIdMemo,
    /// The one warm table set that counts pending flows' windows.
    window: WindowCounter,
    /// Flow slots made so far: the next slot's incarnation.
    incarnations: u64,
    rng: StdRng,
    queues: QueueCounters,
    log: Vec<ClassifiedFlow>,
    /// Running sum of every pending flow's resident bytes (buffered
    /// payload plus battery).
    resident: usize,
    /// Timestamp of the last opportunistic idle sweep.
    last_sweep: f64,
    /// Free list of slots from concluded flows: new flows restart and
    /// reuse these (buffer and battery included) instead of allocating,
    /// so steady-state packet processing touches the allocator only
    /// while the pool is warming. Boxed because the table's slots take
    /// and return them as boxes.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<PendingFlow>>,
    /// Number of flows whose slot came from the pool.
    pool_hits: u64,
    /// Scratch for the finished feature vector of the flow being
    /// classified, so steady-state classification never allocates.
    feature_scratch: Vec<f64>,
    /// Scratch verdict buffer for the batch-of-one
    /// [`process_packet`](Self::process_packet) wrapper, so the wrapper
    /// stays allocation-free once warm.
    verdict_scratch: Vec<Verdict>,
    /// Calibrated anytime model (confidence stages plus per-stage
    /// nature models); probes only run when both this and
    /// [`PipelineConfig::anytime`] are present.
    anytime_model: Option<AnytimeModel>,
    /// The anytime model's per-stage nature models in compiled form,
    /// ascending in bytes (compiled once when the model is attached).
    /// Probes predict with the stage fitted nearest below the bytes
    /// fed — the full-`b` model is near chance on small prefixes.
    anytime_compiled: Vec<(u64, CompiledNatureModel)>,
    /// Verdicts emitted by anytime probes before the buffer filled.
    early_exits: u64,
    /// Scratch for the estimated sketches' per-finish median buffers,
    /// so neither probes nor conclusions allocate (see
    /// [`FlowFeatureState::finish_into`]).
    means_scratch: Vec<f64>,
}

/// The pipeline's one set of entropy tables, and whose window it holds.
///
/// A pending flow keeps its window bytes, not counters; the set counts
/// them when the flow is probed or concludes. It remembers the flow
/// *incarnation* it last counted and how many of that window's bytes,
/// so the next probe or the conclusion of the same incarnation feeds
/// only the bytes that are new, and any other flow clears the set and
/// feeds its window from the start. Keyed by incarnation, never by
/// [`FlowId`]: a tuple that closes and reopens is a new flow whose
/// window starts over.
#[derive(Debug)]
struct WindowCounter {
    /// Battery off: the battery is per flow.
    extractor: FeatureExtractor,
    /// A [`FeatureExtractor::begin_window`] session.
    tables: FlowFeatureState,
    /// The incarnation whose window prefix the tables hold; `None` when
    /// they are clear.
    holder: Option<u64>,
    /// Bytes of `holder`'s window counted so far.
    counted: usize,
    /// The classification window `b` the tables are sized for.
    b: usize,
}

impl WindowCounter {
    fn new(extractor: FeatureExtractor, b: usize) -> Self {
        let tables = extractor.begin_window(b);
        WindowCounter { extractor, tables, holder: None, counted: 0, b }
    }

    /// Writes the feature vector of `flow`'s window so far into `out`:
    /// its entropy vector from the shared tables, then its battery's
    /// features. Allocation-free once `out` and `means` are warm.
    fn features_of(&mut self, flow: &PendingFlow, out: &mut Vec<f64>, means: &mut Vec<f64>) {
        if self.holder != Some(flow.incarnation) {
            self.clear();
            self.holder = Some(flow.incarnation);
        }
        if let Some(fresh) = flow.buf.get(self.counted..) {
            self.tables.update(fresh);
        }
        self.counted = flow.buf.len();
        self.tables.finish_into(out, means);
        if let Some(battery) = &flow.battery {
            out.extend(battery.finish());
        }
    }

    /// Clears the tables if they hold `incarnation`'s window: its flow
    /// has concluded.
    fn release(&mut self, incarnation: u64) {
        if self.holder == Some(incarnation) {
            self.clear();
        }
    }

    fn clear(&mut self) {
        if self.holder.take().is_some() {
            self.extractor.reset_flow(&mut self.tables, self.b);
        }
        self.counted = 0;
    }
}

/// Upper bound on pooled flow slots, so a burst of concurrent flows
/// cannot pin its high-water mark of buffers forever. 256 comfortably
/// covers the steady-state pending-flow count of every bench/serve
/// configuration.
///
/// What a full pool retains, per pipeline (so per shard), is 256 × one
/// slot: its 112-byte box, a buffer of
/// [`buffer_capacity`](Iustitia::buffer_capacity) bytes and, with the
/// battery on, the battery's 2,240 B — 4,400 B at `b = 2048` with the
/// battery and 144 B at `b = 32` without, so 1.1 MiB and 36 KiB
/// (`tests/pending_footprint.rs` bounds a pending flow's heap). The one
/// warm table set comes on top, once per pipeline.
const MAX_POOLED_STATES: usize = 256;

impl Iustitia {
    /// Builds a pipeline around a trained model.
    pub fn new(model: NatureModel, config: PipelineConfig) -> Self {
        let extractor =
            FeatureExtractor::new(config.widths.clone(), config.mode.clone(), config.seed);
        let window = WindowCounter::new(extractor, config.buffer_size);
        let cdb = ClassificationDatabase::new(config.cdb);
        let rng = StdRng::seed_from_u64(config.seed ^ 0xDEFE45E);
        let compiled = model.compile();
        Iustitia {
            config,
            model,
            compiled,
            cdb,
            flow_memo: FlowIdMemo::new(),
            window,
            incarnations: 0,
            rng,
            queues: QueueCounters::default(),
            log: Vec::new(),
            resident: 0,
            last_sweep: f64::NEG_INFINITY,
            pool: Vec::new(),
            pool_hits: 0,
            feature_scratch: Vec::new(),
            verdict_scratch: Vec::new(),
            anytime_model: None,
            anytime_compiled: Vec::new(),
            early_exits: 0,
            means_scratch: Vec::new(),
        }
    }

    /// Attaches a calibrated anytime model (confidence stages plus
    /// per-stage nature models), compiling the stage models once.
    /// Probes only run when [`PipelineConfig::anytime`] is also set;
    /// attaching a model without it changes nothing.
    pub fn with_anytime(mut self, anytime: AnytimeModel) -> Self {
        self.anytime_compiled =
            anytime.stage_models().iter().map(|s| (s.bytes, s.model.compile())).collect();
        self.anytime_model = Some(anytime);
        self
    }

    /// Probes one buffering flow's partial feature vector: count its
    /// window into the shared tables (only the bytes since the last
    /// probe, when the tables still hold this flow) and finish it into
    /// scratch, predict with margin using the stage model fitted
    /// nearest below `fed`, score against the centroid stages, and
    /// return the label when the score clears `threshold` AND the
    /// previous probe of this flow predicted the same label (the
    /// patience rule: two consecutive agreeing probes, so a single
    /// unstable early prediction can never classify the flow). A free
    /// function over disjoint fields so the borrow of the flow's table
    /// slot can stay live at the call site; allocation-free once the
    /// scratch buffers are warm.
    fn probe_anytime(
        confidence: &ConfidenceModel,
        threshold: f64,
        stages: &mut [(u64, CompiledNatureModel)],
        window: &mut WindowCounter,
        flow: &mut PendingFlow,
        feature_scratch: &mut Vec<f64>,
        means_scratch: &mut Vec<f64>,
    ) -> Option<FileClass> {
        let fed = flow.buf.len() as u64;
        // The stage fitted nearest below `fed` bytes (the first when
        // `fed` undershoots them all), mirroring the centroid stage
        // selection inside `ConfidenceModel::score`.
        let mut idx = 0;
        for (i, (bytes, _)) in stages.iter().enumerate() {
            if *bytes <= fed {
                idx = i;
            } else {
                break;
            }
        }
        let (_, stage) = stages.get_mut(idx)?;
        window.features_of(flow, feature_scratch, means_scratch);
        let (label, margin) = stage.try_predict_with_margin(feature_scratch).ok()?;
        let agreed = flow.last_probe == Some(label);
        flow.last_probe = Some(label);
        if !agreed {
            return None;
        }
        let score = confidence.score(feature_scratch, fed, label.index(), margin);
        (score >= threshold).then_some(label)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The trained model behind this pipeline. Verdicts come from its
    /// compiled form, built once at construction; the boxed original is
    /// kept for serialization and introspection.
    pub fn model(&self) -> &NatureModel {
        &self.model
    }

    /// The classification database (read access for monitoring). It
    /// counts classified records only; see
    /// [`pending_flows`](Self::pending_flows) for the rest of the table.
    pub fn cdb(&self) -> &ClassificationDatabase {
        &self.cdb
    }

    /// Output-queue counters.
    pub fn queues(&self) -> &QueueCounters {
        &self.queues
    }

    /// Number of flows currently buffering (pre-classification).
    pub fn pending_flows(&self) -> usize {
        self.cdb.pending_len()
    }

    /// Bytes pending flows hold for classification: their buffered
    /// payload (raw prefix or window, at most
    /// [`buffer_capacity`](Self::buffer_capacity) each) plus, with the
    /// battery on, each flow's fixed battery state. Maintained
    /// incrementally; 0 once every flow has concluded. The pipeline's
    /// one warm table set is not in it: it does not grow with flows.
    pub fn resident_feature_bytes(&self) -> usize {
        self.resident
    }

    /// Number of flows whose slot (buffer and battery) was recycled
    /// from the pool instead of freshly allocated (a steady-state
    /// pipeline trends toward `pool_hits ≈ flows classified`).
    pub fn state_pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Flow slots currently parked on the free list.
    pub fn state_pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Packets whose flow ID [`process_packet`](Self::process_packet)
    /// took from its [`FlowIdMemo`] instead of hashing.
    pub fn flow_memo_hits(&self) -> u64 {
        self.flow_memo.hits()
    }

    /// Packets [`process_packet`](Self::process_packet) ran SHA-1 for.
    /// Both counts stay 0 in a pipeline driven through
    /// [`process_batch`](Self::process_batch), which is handed its IDs.
    pub fn flow_memo_misses(&self) -> u64 {
        self.flow_memo.misses()
    }

    /// Number of verdicts emitted by anytime probes before the
    /// fixed-`b` buffer filled (0 whenever anytime is off).
    pub fn early_exit_verdicts(&self) -> u64 {
        self.early_exits
    }

    /// Drains the per-flow classification log (each entry carries the
    /// `c` and `τ_b` quantities of the delay analysis).
    pub fn take_log(&mut self) -> Vec<ClassifiedFlow> {
        std::mem::take(&mut self.log)
    }

    /// Total bytes to buffer before classifying: `b` plus the header
    /// allowance.
    pub fn buffer_capacity(&self) -> usize {
        self.config.buffer_size + self.config.header_policy.allowance()
    }

    /// Processes one packet, returning what happened to it: a batch of
    /// one through [`process_batch`](Self::process_batch), so there is
    /// one packet state machine and single packets exercise it. The
    /// flow ID comes from the pipeline's [`FlowIdMemo`]: SHA-1 runs for
    /// the first packet of a flow, not for each.
    pub fn process_packet(&mut self, packet: &Packet) -> Verdict {
        let flow = self.flow_memo.id_of(&packet.tuple);
        let mut verdicts = std::mem::take(&mut self.verdict_scratch);
        self.process_batch(&[BatchPacket { flow, packet }], &mut verdicts);
        // `process_batch` pushes exactly one verdict per input packet;
        // the `unwrap_or` fallback is unreachable and exists only to
        // keep this hot path free of a panicking branch.
        debug_assert_eq!(verdicts.len(), 1, "batch-of-one must yield exactly one verdict");
        let verdict = verdicts.pop().unwrap_or(Verdict::Ignored);
        self.verdict_scratch = verdicts;
        verdict
    }

    /// Processes a batch of packets in order, pushing exactly one
    /// verdict per packet into `verdicts` (cleared first).
    ///
    /// Consecutive packets of one flow form a *run*, which resolves the
    /// flow's table slot once per phase instead of once per packet and
    /// appends payload slices back-to-back to the same buffer.
    ///
    /// **Batching invariance:** the verdict sequence, every gauge and
    /// counter, the table contents and the classification log depend
    /// only on the packet sequence, never on where it is cut into
    /// batches. Every event that looks beyond the run's own slot (an
    /// idle sweep falling due, a close, a classification with its purge,
    /// a TTL expiry) ends the phase at exactly the packet that causes it.
    pub fn process_batch<P: PacketView>(&mut self, batch: &[P], verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        // Caller-owned scratch: grows once to the largest batch seen,
        // then every push below stays within it.
        verdicts.reserve(batch.len());
        let mut rest = batch;
        while let Some(first) = rest.first() {
            rest = self.process_run(first.flow(), rest, verdicts);
        }
    }

    /// Processes the packets of `flow` that lead `rest` — at least the
    /// first — pushing one verdict each, and returns what follows them.
    ///
    /// Each turn of the outer loop runs the idle sweep if the packet at
    /// hand makes it due, then consumes that packet: alone if it is a
    /// control or close packet, otherwise together with every data
    /// packet after it that the same table slot can serve (see
    /// [`next_in_phase`]).
    fn process_run<'a, P: PacketView>(
        &mut self,
        flow: FlowId,
        mut rest: &'a [P],
        verdicts: &mut Vec<Verdict>,
    ) -> &'a [P] {
        let idle_timeout = self.config.idle_timeout;
        let b = self.config.buffer_size;
        let capacity = self.buffer_capacity();
        let battery = self.config.battery;
        let policy = self.config.header_policy;
        let anytime = self.config.anytime;
        while let Some((first, tail)) = rest.split_first() {
            if first.flow() != flow {
                break;
            }
            let now = first.timestamp();
            // Opportunistic idle sweep, at most once per idle_timeout:
            // the configured timeout is enforced even when nobody calls
            // `sweep_idle` explicitly, so stalled flows cannot pin their
            // state forever.
            if sweep_due(now, self.last_sweep, idle_timeout) {
                if self.last_sweep.is_finite() {
                    self.sweep_idle(now);
                }
                self.last_sweep = now;
            }
            let last_sweep = self.last_sweep;
            if first.payload().is_empty() || first.flags().closes_flow() {
                self.process_control(flow, first.flags(), now);
                verdicts.push(Verdict::Ignored);
                rest = tail;
                continue;
            }

            let mut created = false;
            let slot = match self.cdb.slot(flow) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => {
                    created = true;
                    let mut state = match self.pool.pop() {
                        Some(state) => {
                            self.pool_hits += 1;
                            state
                        }
                        None => PendingFlow::boxed(capacity, battery, first.tuple()),
                    };
                    // Every policy except StripKnown knows its skip up
                    // front, so those flows stream from the first byte
                    // and never stage payload.
                    let skip = match policy {
                        HeaderPolicy::None | HeaderPolicy::StripKnown { .. } => 0,
                        HeaderPolicy::SkipThreshold { t } => t,
                        // lint: allow(L008) — 0..=t_max is an inclusive range, never empty
                        HeaderPolicy::RandomSkip { t_max } => self.rng.gen_range(0..=t_max),
                    };
                    let streaming = !matches!(policy, HeaderPolicy::StripKnown { .. });
                    state.restart(first.tuple(), self.incarnations, streaming, skip, now);
                    self.incarnations += 1;
                    entry.insert(Slot::Pending(state))
                }
            };
            let mut next = Some((first, tail));
            let mut expired = false;
            let ending = match slot {
                // The flow is classified: forward, refreshing its record.
                Slot::Classified(rec) => {
                    let label = rec.label;
                    let ttl = self.config.cdb.reclassify_after;
                    while let Some((p, after)) = next {
                        let t = p.timestamp();
                        if rec.expired(ttl, t) {
                            // Drop the record once the slot borrow is
                            // over; this packet then starts the flow
                            // anew.
                            expired = true;
                            break;
                        }
                        rec.refresh(t);
                        self.queues.forward(label, 1);
                        verdicts.push(Verdict::Hit(label));
                        rest = after;
                        next = next_in_phase(rest, &flow, last_sweep, idle_timeout);
                    }
                    None
                }
                // The flow is pending: buffer its payload until the
                // window fills or a probe is confident.
                Slot::Pending(state) => {
                    let mut ending = None;
                    while let Some((p, after)) = next {
                        let t = p.timestamp();
                        state.packets += 1;
                        state.last_ts = t;
                        state.owner = p.owner();
                        self.queues.buffered += 1;
                        // A new flow contributes its entire resident
                        // footprint (its battery before any byte), not
                        // a delta from a prior value.
                        let before = if created { 0 } else { state.resident_bytes() };
                        created = false;
                        let room = capacity.saturating_sub(state.seen);
                        let payload = p.payload();
                        let intake = payload.get(..room).unwrap_or(payload);
                        state.seen += intake.len();
                        if state.streaming {
                            Self::feed(state, intake, b);
                        } else {
                            Self::stage(state, intake, policy, b);
                        }
                        self.resident = self.resident - before + state.resident_bytes();
                        rest = after;
                        // A resolved header longer than the allowance
                        // can leave fewer than `b` window bytes in the
                        // first `capacity` payload bytes; `seen >=
                        // capacity` classifies those flows from what
                        // fits.
                        let full = if state.streaming {
                            state.buf.len() >= b || state.seen >= capacity
                        } else {
                            state.buf.len() >= capacity
                        };
                        if full {
                            ending = Some((t, None));
                            break;
                        }
                        // Anytime probe: a confident partial vector
                        // classifies the flow now instead of waiting
                        // for the `fed >= b` cap above.
                        if let (Some(any), Some(am), true) =
                            (anytime, &self.anytime_model, state.streaming)
                        {
                            let fed = state.buf.len();
                            if fed >= any.min_bytes && fed - state.probed >= any.probe_stride {
                                state.probed = fed;
                                if let Some(label) = Self::probe_anytime(
                                    &am.confidence,
                                    any.threshold,
                                    &mut self.anytime_compiled,
                                    &mut self.window,
                                    state,
                                    &mut self.feature_scratch,
                                    &mut self.means_scratch,
                                ) {
                                    ending = Some((t, Some(label)));
                                    break;
                                }
                            }
                        }
                        verdicts.push(Verdict::Buffering);
                        next = next_in_phase(rest, &flow, last_sweep, idle_timeout);
                    }
                    ending
                }
            };
            if expired {
                self.cdb.expire(&flow);
            }
            if let Some((t, early)) = ending {
                let verdict = match self.conclude(flow, t, early) {
                    Some(label) => Verdict::Classified(label),
                    None => Verdict::Ignored,
                };
                verdicts.push(verdict);
            }
        }
        rest
    }

    /// A packet with nothing to classify: it passes through, and a FIN
    /// or RST first ends its flow — a classified flow's record is
    /// removed; a pending flow is classified from what it has, and that
    /// record, made after the close, stays until purged.
    fn process_control(&mut self, flow: FlowId, flags: TcpFlags, now: f64) {
        if flags.closes_flow() && !self.cdb.remove_on_close(&flow) {
            self.conclude(flow, now, None);
        }
        self.queues.passed_through += 1;
    }

    /// Appends `intake` to a staging flow's raw prefix; once the header
    /// scan resolves, turns the prefix into the flow's window.
    fn stage(state: &mut PendingFlow, intake: &[u8], policy: HeaderPolicy, b: usize) {
        Self::buffer(state, intake);
        let skip = match scan_application_header(&state.buf) {
            HeaderScan::Resolved(_, offset) => offset,
            // Unknown application: the threshold-T fallback is final.
            HeaderScan::Unknown => policy.allowance(),
            HeaderScan::NeedMore => return,
        };
        Self::open_window(state, skip, b);
    }

    /// Ends a flow's staging: drops the first `skip` bytes of the raw
    /// prefix (the rest of `skip`, if the prefix is shorter, is dropped
    /// from the bytes that follow), keeps at most `b` of what remains
    /// as the window, feeds it to the battery, and leaves the flow
    /// streaming.
    fn open_window(state: &mut PendingFlow, skip: usize, b: usize) {
        let dropped = skip.min(state.buf.len());
        state.skip_remaining = skip - dropped;
        // lint: allow(L008) — `dropped` is at most the buffer's length
        state.buf.copy_within(dropped.., 0);
        let window = (state.buf.len() - dropped).min(b);
        state.buf.truncate(window);
        if let Some(battery) = &mut state.battery {
            battery.update(&state.buf);
        }
        state.streaming = true;
    }

    /// Discards `skip_remaining` leading bytes of `chunk`, then appends
    /// up to the rest of the classification window to the flow's buffer
    /// and battery.
    fn feed(state: &mut PendingFlow, chunk: &[u8], b: usize) {
        let skipped = state.skip_remaining.min(chunk.len());
        state.skip_remaining -= skipped;
        let window = chunk.get(skipped..).unwrap_or_default();
        let take = b.saturating_sub(state.buf.len()).min(window.len());
        let fresh = window.get(..take).unwrap_or_default();
        if !fresh.is_empty() {
            Self::buffer(state, fresh);
            if let Some(battery) = &mut state.battery {
                battery.update(fresh);
            }
        }
    }

    /// Appends `bytes` to the flow's buffer. Callers keep the buffer
    /// within [`buffer_capacity`](Self::buffer_capacity), which it was
    /// reserved at, so this never reallocates.
    fn buffer(state: &mut PendingFlow, bytes: &[u8]) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the flow's buffer, reserved at the buffer capacity, is the one place payload accumulates"
        )]
        // lint: allow(L009) — the buffer is reserved at the buffer capacity and never grows past it
        state.buf.extend_from_slice(bytes);
    }

    /// Classifies-or-drops every flow idle longer than the configured
    /// timeout. Called opportunistically by
    /// [`process_batch`](Self::process_batch) and available publicly
    /// as the serve layer's drain barrier. Returns the number of flows
    /// evicted (a flow whose effective payload is empty is dropped
    /// without a verdict but still counts).
    pub fn sweep_idle(&mut self, now: f64) -> usize {
        let idle_timeout = self.config.idle_timeout;
        let mut idle: Vec<FlowId> = self
            .cdb
            .pending_flows()
            .filter(|(_, flow)| now - flow.last_ts > idle_timeout)
            .map(|(&id, _)| id)
            // lint: allow(L009) — idle sweep is the periodic maintenance path, not per-packet work
            .collect();
        // Evict in flow-ID order, not HashMap order: two pipelines fed
        // identical traffic then produce identical classification logs
        // regardless of per-instance hash seeds — what the batching
        // invariance suite (and the bench's pre-timing assertion)
        // compares.
        idle.sort_unstable();
        for &id in &idle {
            self.conclude(id, now, None);
        }
        idle.len()
    }

    /// Ends a pending flow (full window, confident probe, idle, close):
    /// renders its verdict — `early`, when a probe already did — turns
    /// its slot into a CDB record in place, logs the classification and
    /// recycles the slot. A flow still staging is settled first: its
    /// header is stripped if recognised, else the allowance skipped. A
    /// flow with nothing to classify on, or whose features the model
    /// cannot take, leaves the table without a verdict. No-op for a
    /// flow that is not pending.
    fn conclude(&mut self, id: FlowId, now: f64, early: Option<FileClass>) -> Option<FileClass> {
        let flow = self.cdb.pending_mut(&id)?;
        let held = flow.resident_bytes();
        if !flow.streaming {
            let skip = match strip_application_header(&flow.buf) {
                Some((_, offset)) => offset,
                None => self.config.header_policy.allowance(),
            };
            Self::open_window(flow, skip, self.config.buffer_size);
        }
        let incarnation = flow.incarnation;
        let label = early.or_else(|| {
            // All observed bytes were header/skip: nothing to classify on.
            if flow.buf.is_empty() {
                return None;
            }
            self.window.features_of(flow, &mut self.feature_scratch, &mut self.means_scratch);
            // A model trained on a different feature width than the
            // pipeline extracts cannot render a verdict; such flows are
            // left unclassified rather than taking the hot path down
            // with a panic.
            self.compiled.try_predict(&self.feature_scratch).ok()
        });
        self.window.release(incarnation);
        let state = match label {
            Some(label) => self.cdb.classify(id, label, now).0,
            None => self.cdb.evict(&id),
        }?;
        self.resident -= held;
        if let Some(label) = label {
            self.queues.forward(label, u64::from(state.packets));
            self.early_exits += u64::from(early.is_some());
            self.log.push(ClassifiedFlow {
                id,
                tuple: state.tuple,
                owner: state.owner,
                label,
                packets: state.packets,
                fill_time: state.last_ts - state.first_ts,
                buffered_bytes: state.seen,
                early_exit: early.is_some(),
            });
        }
        if self.pool.len() < MAX_POOLED_STATES {
            self.pool.push(state);
        }
        label
    }
}

/// Whether a packet at `now` must run the opportunistic idle sweep.
fn sweep_due(now: f64, last_sweep: f64, idle_timeout: f64) -> bool {
    now - last_sweep >= idle_timeout
}

/// The next packet of `rest`, if the phase that consumed its
/// predecessor can take it too: same flow, payload-bearing, not a
/// close, and not the packet that makes the idle sweep due.
fn next_in_phase<'a, P: PacketView>(
    rest: &'a [P],
    flow: &FlowId,
    last_sweep: f64,
    idle_timeout: f64,
) -> Option<(&'a P, &'a [P])> {
    let (p, tail) = rest.split_first()?;
    let same_phase = p.flow() == *flow
        && !p.payload().is_empty()
        && !p.flags().closes_flow()
        && !sweep_due(p.timestamp(), last_sweep, idle_timeout);
    same_phase.then_some((p, tail))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use iustitia_netsim::{FiveTuple, TcpFlags};
    use std::net::Ipv4Addr;

    /// A CART model trained on `b`-byte prefixes of a real synthetic
    /// corpus, so its decision bands match what `b`-byte buffers can
    /// actually produce (h1 of a 32-byte window is capped at
    /// log2(32)/8 ≈ 0.625).
    fn trained_model(b: usize) -> NatureModel {
        let corpus = iustitia_corpus::CorpusBuilder::new(33)
            .files_per_class(80)
            .size_range(1024, 4096)
            .build();
        crate::model::train_from_corpus(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            crate::features::TrainingMethod::Prefix { b },
            crate::features::FeatureMode::Exact,
            &crate::model::ModelKind::paper_cart(),
            33,
        )
        .expect("train")
    }

    fn toy_model() -> NatureModel {
        trained_model(32)
    }

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 443)
    }

    fn data_packet(port: u16, t: f64, payload: &[u8]) -> Packet {
        Packet { timestamp: t, tuple: tuple(port), flags: TcpFlags::ACK, payload: payload.to_vec() }
    }

    // Representative prose: the 4-class b=32 model puts degenerate
    // ultra-low-entropy 32-byte windows (e.g. "the cat sat on the
    // mat…") below the text band, next to armored-ciphertext headers.
    fn text_payload(n: usize) -> Vec<u8> {
        b"Dear colleagues, please review the quarterly budget report.\n"
            .iter()
            .cycle()
            .take(n)
            .copied()
            .collect()
    }

    fn encrypted_payload(n: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u8
            })
            .collect()
    }

    #[test]
    fn classifies_when_buffer_fills_then_hits_cdb() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(1));
        // Consecutive halves of the prose, so the filled 32-byte
        // buffer is the sentence prefix, not a 16-byte stutter.
        let prose = text_payload(32);
        let p1 = data_packet(1000, 0.0, &prose[..16]);
        assert_eq!(ius.process_packet(&p1), Verdict::Buffering);
        let p2 = data_packet(1000, 0.1, &prose[16..]);
        assert_eq!(ius.process_packet(&p2), Verdict::Classified(FileClass::Text));
        let p3 = data_packet(1000, 0.2, &text_payload(100));
        assert_eq!(ius.process_packet(&p3), Verdict::Hit(FileClass::Text));
        assert_eq!(ius.cdb().len(), 1);
        assert_eq!(ius.pending_flows(), 0);
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].packets, 2);
        assert!((log[0].fill_time - 0.1).abs() < 1e-9);
    }

    #[test]
    fn encrypted_flow_labeled_encrypted() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(2));
        let p = data_packet(2000, 0.0, &encrypted_payload(64));
        assert_eq!(ius.process_packet(&p), Verdict::Classified(FileClass::Encrypted));
    }

    #[test]
    fn control_packets_pass_through() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(3));
        let syn = Packet { timestamp: 0.0, tuple: tuple(1), flags: TcpFlags::SYN, payload: vec![] };
        assert_eq!(ius.process_packet(&syn), Verdict::Ignored);
        assert_eq!(ius.queues().passed_through, 1);
    }

    #[test]
    fn fin_removes_cdb_record() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(4));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        assert_eq!(ius.cdb().len(), 1);
        let fin = Packet {
            timestamp: 1.0,
            tuple: tuple(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            payload: vec![],
        };
        assert_eq!(ius.process_packet(&fin), Verdict::Ignored);
        assert_eq!(ius.cdb().len(), 0);
    }

    #[test]
    fn close_during_buffering_classifies_partial() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(5));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(16)));
        assert_eq!(ius.pending_flows(), 1);
        let rst = Packet { timestamp: 0.5, tuple: tuple(1), flags: TcpFlags::RST, payload: vec![] };
        ius.process_packet(&rst);
        assert_eq!(ius.pending_flows(), 0);
        // Classified from the 16 bytes we had, then removed by the RST
        // itself? No: close removes CDB record *before* classification
        // of leftovers inserts it, so the record remains.
        assert_eq!(ius.take_log().len(), 1);
    }

    #[test]
    fn idle_flush_classifies_stalled_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(6));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(8)));
        assert_eq!(ius.sweep_idle(1.0), 0, "not idle long enough");
        assert_eq!(ius.sweep_idle(10.0), 1);
        assert_eq!(ius.pending_flows(), 0);
        assert_eq!(ius.take_log().len(), 1);
    }

    #[test]
    fn strip_known_header_classifies_payload_not_header() {
        let model = trained_model(64);
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::StripKnown { t: 128 },
            ..PipelineConfig::headline(7)
        };
        let mut ius = Iustitia::new(model, config);
        // HTTP header (text) followed by ciphertext payload.
        let mut payload =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n".to_vec();
        let header_len = payload.len();
        payload.extend_from_slice(&encrypted_payload(ius.buffer_capacity()));
        let verdict = ius.process_packet(&data_packet(1, 0.0, &payload));
        assert_eq!(
            verdict,
            Verdict::Classified(FileClass::Encrypted),
            "header {header_len}B must be ignored"
        );
    }

    #[test]
    fn skip_threshold_ignores_prefix_padding() {
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::SkipThreshold { t: 100 },
            ..PipelineConfig::headline(8)
        };
        let mut ius = Iustitia::new(trained_model(64), config);
        // 100 bytes of text "padding", then ciphertext.
        let mut payload = text_payload(100);
        payload.extend_from_slice(&encrypted_payload(64));
        let verdict = ius.process_packet(&data_packet(1, 0.0, &payload));
        assert_eq!(verdict, Verdict::Classified(FileClass::Encrypted));
    }

    #[test]
    fn buffer_capacity_includes_allowance() {
        let config = PipelineConfig {
            buffer_size: 32,
            header_policy: HeaderPolicy::SkipThreshold { t: 1468 },
            ..PipelineConfig::headline(9)
        };
        let ius = Iustitia::new(toy_model(), config);
        assert_eq!(ius.buffer_capacity(), 1500);
    }

    #[test]
    fn udp_flows_classify_like_tcp() {
        use std::net::Ipv4Addr;
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(11));
        let tuple = iustitia_netsim::FiveTuple::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            53,
            Ipv4Addr::new(5, 6, 7, 8),
            5060,
        );
        let p =
            Packet { timestamp: 0.0, tuple, flags: TcpFlags::empty(), payload: text_payload(64) };
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
        assert_eq!(ius.cdb().len(), 1);
    }

    #[test]
    fn estimated_mode_pipeline_classifies() {
        use iustitia_entropy::EstimatorConfig;
        let config = PipelineConfig {
            buffer_size: 1024,
            mode: crate::features::FeatureMode::Estimated(EstimatorConfig::svm_optimal()),
            ..PipelineConfig::headline(12)
        };
        // Model trained on exact features of 1024-byte prefixes;
        // estimated features at matched parameters stay close.
        let mut ius = Iustitia::new(trained_model(1024), config);
        let p = data_packet(7, 0.0, &encrypted_payload(1024));
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
    }

    #[test]
    fn random_skip_adds_allowance() {
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::RandomSkip { t_max: 256 },
            ..PipelineConfig::headline(13)
        };
        let ius = Iustitia::new(toy_model(), config);
        assert_eq!(ius.buffer_capacity(), 320);
    }

    #[test]
    fn oversized_first_packet_is_truncated_to_capacity() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(14));
        let p = data_packet(9, 0.0, &text_payload(5000));
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
        let log = ius.take_log();
        assert_eq!(log[0].buffered_bytes, 32);
    }

    #[test]
    fn queue_counters_accumulate() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(10));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        ius.process_packet(&data_packet(1, 0.1, &text_payload(10)));
        ius.process_packet(&data_packet(1, 0.2, &text_payload(10)));
        assert_eq!(ius.queues().forwarded[FileClass::Text.index()], 3);
    }

    /// Regression for the pending-flow leak: a stalled flow must be
    /// evicted by traffic on *other* flows, without anyone calling
    /// `sweep_idle` explicitly.
    #[test]
    fn opportunistic_sweep_evicts_stalled_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(15));
        // Flow A stalls with a partial buffer at t=0.
        ius.process_packet(&data_packet(1, 0.0, &text_payload(8)));
        assert_eq!(ius.pending_flows(), 1);
        // A packet for unrelated flow B, one idle-timeout later,
        // triggers the opportunistic sweep that classifies A.
        ius.process_packet(&data_packet(2, 10.0, &text_payload(8)));
        assert_eq!(ius.pending_flows(), 1, "A evicted, B pending");
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].id, FlowId::of_tuple(&tuple(1)));
        assert_eq!(log[0].buffered_bytes, 8);
    }

    /// A packet view that names its sender.
    #[derive(Clone, Copy)]
    struct Sent<'a> {
        packet: BatchPacket<'a>,
        owner: u64,
    }

    impl PacketView for Sent<'_> {
        fn flow(&self) -> FlowId {
            self.packet.flow
        }
        fn tuple(&self) -> FiveTuple {
            self.packet.tuple()
        }
        fn owner(&self) -> u64 {
            self.owner
        }
        fn timestamp(&self) -> f64 {
            self.packet.timestamp()
        }
        fn flags(&self) -> TcpFlags {
            self.packet.flags()
        }
        fn payload(&self) -> &[u8] {
            self.packet.payload()
        }
    }

    /// A logged flow carries its tuple and the owner of its latest data
    /// packet — not of its first, and not of the close that ended it —
    /// and `process_packet`, which has no sender, logs owner 0.
    #[test]
    fn classified_flow_carries_tuple_and_latest_data_owner() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(16));
        let head = data_packet(1, 0.0, &text_payload(8));
        let tail = data_packet(1, 0.1, &text_payload(8));
        let fin = Packet { flags: TcpFlags::FIN | TcpFlags::ACK, payload: vec![], ..tail.clone() };
        let sent = |packet, owner| Sent { packet: BatchPacket::new(packet), owner };
        let mut verdicts = Vec::new();
        ius.process_batch(&[sent(&head, 7), sent(&tail, 9), sent(&fin, 11)], &mut verdicts);
        let log = ius.take_log();
        assert_eq!(log.len(), 1, "the close classifies the partial flow");
        assert_eq!((log[0].tuple, log[0].owner), (tuple(1), 9));

        ius.process_packet(&data_packet(2, 0.2, &text_payload(64)));
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].tuple, log[0].owner), (tuple(2), 0));
    }

    /// Slot pooling: a classified flow's slot must be recycled into
    /// the next flow, with identical verdicts.
    #[test]
    fn flow_state_pool_recycles_across_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(17));
        assert_eq!(ius.state_pool_size(), 0);
        assert_eq!(ius.state_pool_hits(), 0);
        // First flow allocates fresh state; classifying parks it.
        let v1 = ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        assert_eq!(v1, Verdict::Classified(FileClass::Text));
        assert_eq!(ius.state_pool_size(), 1);
        assert_eq!(ius.state_pool_hits(), 0);
        // Second flow reuses it and still classifies correctly.
        let v2 = ius.process_packet(&data_packet(2, 0.1, &encrypted_payload(64)));
        assert_eq!(v2, Verdict::Classified(FileClass::Encrypted));
        assert_eq!(ius.state_pool_hits(), 1);
        assert_eq!(ius.state_pool_size(), 1);
        // Many sequential flows keep hitting the single pooled state.
        for (i, port) in (3u16..40).enumerate() {
            ius.process_packet(&data_packet(port, 0.2 + i as f64 * 0.001, &text_payload(64)));
        }
        assert_eq!(ius.state_pool_hits(), 38);
        assert_eq!(ius.state_pool_size(), 1);
    }

    /// The 4-class vertical slice: a battery-enabled pipeline with a
    /// battery-trained model separates compressed streams from
    /// ciphertext, which the entropy vector alone cannot do.
    #[test]
    fn battery_pipeline_classifies_compressed_streams() {
        use rand::SeedableRng;
        let corpus = iustitia_corpus::CorpusBuilder::new(33)
            .files_per_class(60)
            .size_range(1024, 4096)
            .build();
        let model = crate::model::train_from_corpus_battery(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            crate::features::TrainingMethod::Prefix { b: 2048 },
            crate::features::FeatureMode::Exact,
            &crate::model::ModelKind::paper_cart(),
            33,
        )
        .expect("train");
        let config =
            PipelineConfig { buffer_size: 2048, battery: true, ..PipelineConfig::headline(44) };
        let mut ius = Iustitia::new(model, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut right = 0;
        for port in 0..20u16 {
            let data = iustitia_corpus::compressed::generate(4096, &mut rng);
            let v = ius.process_packet(&data_packet(
                3000 + port,
                f64::from(port) * 0.01,
                &data[..2048.min(data.len())],
            ));
            if v == Verdict::Classified(FileClass::Compressed) {
                right += 1;
            }
        }
        assert!(right >= 14, "compressed streams classified as compressed: {right}/20");
    }

    /// One `process_batch` call over a same-flow run: the first packets
    /// fill the buffer, the completing packet classifies, and the rest
    /// of the run forwards as CDB hits off the held record — with the
    /// same counters sequential processing would leave.
    #[test]
    fn batch_run_classifies_then_forwards_hits() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(18));
        let prose = text_payload(32);
        let packets: Vec<Packet> = vec![
            data_packet(1, 0.00, &prose[..16]),
            data_packet(1, 0.01, &prose[16..]),
            data_packet(1, 0.02, &text_payload(10)),
            data_packet(1, 0.03, &text_payload(10)),
            data_packet(1, 0.04, &text_payload(10)),
        ];
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        ius.process_batch(&items, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![
                Verdict::Buffering,
                Verdict::Classified(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Hit(FileClass::Text),
            ]
        );
        // 2 buffered packets forwarded at classification + 3 hits.
        assert_eq!(ius.queues().forwarded[FileClass::Text.index()], 5);
        assert_eq!(ius.pending_flows(), 0);
        assert_eq!(ius.take_log().len(), 1);
    }

    /// Close and control packets inside a batch stay un-grouped and keep
    /// their ordering semantics (close removes the CDB record even with
    /// same-flow data packets on both sides).
    #[test]
    fn batch_with_interleaved_close_matches_sequential_semantics() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(19));
        let fin = Packet {
            timestamp: 0.02,
            tuple: tuple(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            payload: vec![],
        };
        let packets: Vec<Packet> = vec![
            data_packet(1, 0.00, &text_payload(64)), // classifies (b = 32)
            data_packet(1, 0.01, &text_payload(8)),  // hit
            fin,                                     // removes the record
            data_packet(1, 0.03, &text_payload(8)),  // miss again → buffering
        ];
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        ius.process_batch(&items, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![
                Verdict::Classified(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Ignored,
                Verdict::Buffering,
            ]
        );
        assert_eq!(ius.cdb().len(), 0);
        assert_eq!(ius.pending_flows(), 1);
    }

    /// A model trained on a different feature width than the pipeline
    /// extracts must leave flows unclassified (Ignored), not panic the
    /// hot path.
    #[test]
    fn width_mismatched_model_yields_ignored_not_panic() {
        let mut ds = iustitia_ml::Dataset::new(1, FileClass::names());
        for i in 0..10 {
            let x = i as f64 / 50.0;
            ds.push(vec![0.45 + x], FileClass::Text.index());
            ds.push(vec![0.70 + x], FileClass::Binary.index());
            ds.push(vec![0.97 + x / 10.0], FileClass::Encrypted.index());
            ds.push(vec![0.92 + x / 10.0], FileClass::Compressed.index());
        }
        let narrow =
            NatureModel::train(&ds, &crate::model::ModelKind::paper_cart()).expect("train");
        // headline() extracts 4 svm-selected widths; the model wants 1.
        let mut ius = Iustitia::new(narrow, PipelineConfig::headline(7));
        assert_eq!(ius.process_packet(&data_packet(1, 0.0, &text_payload(16))), Verdict::Buffering);
        assert_eq!(ius.process_packet(&data_packet(1, 0.1, &text_payload(16))), Verdict::Ignored);
        assert_eq!(ius.pending_flows(), 0, "the flow is still evicted");
        assert_eq!(ius.cdb().len(), 0, "no verdict is cached");
        assert!(ius.take_log().is_empty());
    }

    /// A one-stage anytime model over the headline extractor's feature
    /// width. Its centroids don't matter for these tests: with
    /// threshold 0.0 every probe clears the score bar, so the patience
    /// rule alone decides (the second consecutive agreeing probe
    /// fires), and with
    /// [`ANYTIME_THRESHOLD_DISABLED`](crate::model::ANYTIME_THRESHOLD_DISABLED)
    /// none ever does.
    fn toy_anytime() -> AnytimeModel {
        let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 1);
        let mut ds =
            iustitia_ml::Dataset::new(fx.extract(&text_payload(64)).len(), FileClass::names());
        // All four classes must be covered for training, and they must
        // be separable enough that consecutive probes of one payload
        // agree (the patience rule needs stable labels): binary is a
        // constant byte, compressed a short repeating cycle.
        for i in 0..8 {
            ds.push(fx.extract(&text_payload(64 + i)), FileClass::Text.index());
            ds.push(fx.extract(&encrypted_payload(64 + i)), FileClass::Encrypted.index());
            ds.push(fx.extract(&vec![0x7f; 64 + i]), FileClass::Binary.index());
            let cycle: Vec<u8> = (0..64 + i).map(|j| (j % 7) as u8).collect();
            ds.push(fx.extract(&cycle), FileClass::Compressed.index());
        }
        let stage_model = NatureModel::train(&ds, &crate::model::ModelKind::paper_cart())
            .expect("two-class toy dataset");
        AnytimeModel::new(
            ConfidenceModel::fit(&[(16, &ds)], 0.0),
            vec![crate::model::AnytimeStageModel { bytes: 16, model: stage_model }],
        )
    }

    #[test]
    fn anytime_probe_classifies_before_buffer_fills() {
        let config = PipelineConfig {
            buffer_size: 2048,
            anytime: Some(AnytimeConfig { threshold: 0.0, min_bytes: 16, probe_stride: 1 }),
            ..PipelineConfig::headline(9)
        };
        let mut ius = Iustitia::new(toy_model(), config).with_anytime(toy_anytime());
        // First probe only arms the patience rule; the second
        // consecutive agreeing probe renders the verdict. A constant
        // payload keeps both probes' labels stable (its feature vector
        // is degenerate at any prefix length).
        let payload = [0x7f; 64];
        let first = ius.process_packet(&data_packet(1, 0.0, &payload[..32]));
        assert_eq!(first, Verdict::Buffering, "one probe never fires alone");
        let verdict = ius.process_packet(&data_packet(1, 0.01, &payload[32..]));
        assert!(matches!(verdict, Verdict::Classified(_)), "fires at 64 of 2048 B: {verdict:?}");
        assert_eq!(ius.early_exit_verdicts(), 1);
        assert_eq!(ius.pending_flows(), 0);
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].early_exit);
        assert_eq!(log[0].buffered_bytes, 64, "verdict from 64 bytes, not b");
        // The early label went into the CDB like any other verdict.
        let next = ius.process_packet(&data_packet(1, 0.1, &encrypted_payload(32)));
        assert!(matches!(next, Verdict::Hit(_)), "{next:?}");
    }

    /// With the disabled sentinel the probes run (stride bookkeeping
    /// and all) but can never fire, so the pipeline is observably
    /// identical to one with no anytime machinery at all.
    #[test]
    fn disabled_threshold_never_fires_and_matches_fixed_b() {
        let model = trained_model(256);
        let disabled = AnytimeConfig {
            threshold: crate::model::ANYTIME_THRESHOLD_DISABLED,
            min_bytes: 16,
            probe_stride: 1,
        };
        let mut plain = Iustitia::new(
            model.clone(),
            PipelineConfig { buffer_size: 256, ..PipelineConfig::headline(10) },
        );
        let mut probed = Iustitia::new(
            model,
            PipelineConfig {
                buffer_size: 256,
                anytime: Some(disabled),
                ..PipelineConfig::headline(10)
            },
        )
        .with_anytime(toy_anytime());
        for port in 1..6u16 {
            let payload = if port % 2 == 0 { encrypted_payload(512) } else { text_payload(512) };
            for (i, chunk) in payload.chunks(96).enumerate() {
                let p = data_packet(port, i as f64 * 0.01, chunk);
                assert_eq!(plain.process_packet(&p), probed.process_packet(&p));
            }
        }
        assert_eq!(probed.early_exit_verdicts(), 0);
        assert_eq!(plain.take_log(), probed.take_log());
        assert_eq!(plain.queues(), probed.queues());
        assert_eq!(plain.cdb().len(), probed.cdb().len());
    }

    /// Early exits fire at the same packet — and record the same
    /// bytes-at-verdict — whether the flow arrives as one batch or as
    /// single packets.
    #[test]
    fn batch_early_exit_matches_per_packet() {
        let model = toy_model();
        let config = PipelineConfig {
            buffer_size: 2048,
            anytime: Some(AnytimeConfig { threshold: 0.0, min_bytes: 16, probe_stride: 1 }),
            ..PipelineConfig::headline(11)
        };
        let mut seq = Iustitia::new(model.clone(), config.clone()).with_anytime(toy_anytime());
        let mut bat = Iustitia::new(model, config).with_anytime(toy_anytime());
        let payload = encrypted_payload(40);
        let packets: Vec<Packet> = payload
            .chunks(8)
            .enumerate()
            .map(|(i, c)| data_packet(7, i as f64 * 0.001, c))
            .collect();
        let expected: Vec<Verdict> = packets.iter().map(|p| seq.process_packet(p)).collect();
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        bat.process_batch(&items, &mut verdicts);
        assert_eq!(verdicts, expected);
        // 8 B is below min_bytes — no probe; the second packet (fed =
        // 16) probes and arms the patience rule; the third's agreeing
        // probe fires; the rest hit the CDB.
        assert!(matches!(expected[0], Verdict::Buffering), "{expected:?}");
        assert!(matches!(expected[1], Verdict::Buffering), "{expected:?}");
        assert!(matches!(expected[2], Verdict::Classified(_)), "{expected:?}");
        assert!(matches!(expected[3], Verdict::Hit(_)), "{expected:?}");
        assert_eq!(seq.take_log(), bat.take_log());
        assert_eq!(seq.early_exit_verdicts(), 1);
        assert_eq!(bat.early_exit_verdicts(), 1);
        assert_eq!(seq.queues(), bat.queues());
    }
}
