//! The four workloads: model, pipeline configuration, packet trace,
//! reference pass and pre-encoded wire bytes, all derived from the seed.
//!
//! Everything here is *set-up*: it runs before any timed phase and its
//! wall time is the `setup_s` metric. The program under test only ever
//! sees what this module generates.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use iustitia::cdb::FlowId;
use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{
    train_anytime_from_corpus, train_from_corpus, AnytimeModel, ModelKind, NatureModel,
};
use iustitia::pipeline::{AnytimeConfig, Iustitia, PipelineConfig, Verdict};
use iustitia_corpus::{generate_file, CorpusBuilder, FileClass};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, FiveTuple, Packet, TcpFlags, TraceConfig, TraceGenerator};
use iustitia_serve::proto::write_frame;
use iustitia_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the training corpora. The model is the deployed artefact, not
/// an input: it stays the same while `--seed` varies the traffic.
const TRAIN_SEED: u64 = 33;

/// One workload's static description (also the `workloads` table of
/// `BENCHMARK.json`, checked by a unit test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyHit,
    UmassMix,
    ChurnFixedB,
    ChurnAnytime,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SteadyHit, Workload::UmassMix, Workload::ChurnFixedB, Workload::ChurnAnytime];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyHit => "steady_hit",
            Workload::UmassMix => "umass_mix",
            Workload::ChurnFixedB => "churn_fixed_b",
            Workload::ChurnAnytime => "churn_anytime",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of the open-loop `paced` phase, packets per second.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::SteadyHit => 400_000.0,
            Workload::UmassMix => 300_000.0,
            Workload::ChurnFixedB | Workload::ChurnAnytime => 100_000.0,
        }
    }
}

/// Workload sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` is
/// about a fiftieth of it, for a CI schema check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One verdict of the reference pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefVerdict {
    /// Flow index (position in [`Prepared::tuples`]).
    pub flow: u32,
    /// Index of the data packet whose `process_packet` call returned
    /// `Classified` for this flow; `None` when a close, an idle sweep or
    /// the final drain emitted the verdict.
    pub trigger: Option<u32>,
    pub packets: u32,
    pub buffered_bytes: u32,
    pub early_exit: bool,
    pub label: FileClass,
}

/// What the untimed in-process reference pass recorded.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Every verdict, in emission order.
    pub verdicts: Vec<RefVerdict>,
    /// Per flow, index into `verdicts` of its first verdict.
    pub first: Vec<Option<u32>>,
    /// Per flow, how many verdicts it received.
    pub count: Vec<u32>,
    /// `process_packet` outcomes `[hit, buffering, classified, ignored]`.
    pub kinds: [u64; 4],
    /// Largest `resident_feature_bytes()` sampled every 1,024 packets.
    pub resident_bytes_peak: u64,
    pub cdb_peak_records: u64,
    pub cdb_purged: u64,
    pub early_exits: u64,
    pub pool_hits: u64,
}

/// A fully prepared workload.
pub struct Prepared {
    pub workload: Workload,
    pub model: NatureModel,
    pub anytime: Option<AnytimeModel>,
    pub pipeline: PipelineConfig,
    pub packets: Vec<Packet>,
    /// Flow index of every packet.
    pub flow_of: Vec<u32>,
    /// 5-tuple of every flow, in first-seen order.
    pub tuples: Vec<FiveTuple>,
    /// Flow index of every 5-tuple.
    pub flow_index: HashMap<FiveTuple, u32>,
    /// SHA-1 flow ID of every flow.
    pub flow_ids: Vec<FlowId>,
    /// Whether the flow carries at least one data packet.
    pub has_data: Vec<bool>,
    /// Ground-truth class of every flow.
    pub truth: Vec<FileClass>,
    pub reference: Reference,
    /// All `SubmitPacket` frames, back to back.
    pub wire: Vec<u8>,
    /// `frame_end[i]` is the offset one past packet `i`'s frame.
    pub frame_end: Vec<usize>,
}

impl Prepared {
    /// A fresh pipeline configured for this workload.
    pub fn new_pipeline(&self) -> Iustitia {
        let pipeline = Iustitia::new(self.model.clone(), self.pipeline.clone());
        match &self.anytime {
            Some(anytime) => pipeline.with_anytime(anytime.clone()),
            None => pipeline,
        }
    }

    /// The wire bytes of packets `from..to`.
    pub fn frames(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.frame_end[from - 1] };
        let end = if to == 0 { 0 } else { self.frame_end[to - 1] };
        &self.wire[start..end]
    }

    pub fn data_flows(&self) -> usize {
        self.has_data.iter().filter(|&&d| d).count()
    }

    /// Flows whose first reference verdict was fired by one of their own
    /// data packets, with that verdict: the flows a closed-loop client can
    /// wait on, and the only ones whose served latency has a defined start.
    pub fn packet_triggered(&self) -> impl Iterator<Item = (u32, &RefVerdict)> + '_ {
        self.reference.first.iter().enumerate().filter_map(|(flow, first)| {
            let verdict = &self.reference.verdicts[(*first)? as usize];
            verdict.trigger.map(|_| (flow as u32, verdict))
        })
    }
}

/// Index into the `kinds` arrays for a verdict.
pub fn kind_index(verdict: &Verdict) -> usize {
    match verdict {
        Verdict::Hit(_) => 0,
        Verdict::Buffering => 1,
        Verdict::Classified(_) => 2,
        Verdict::Ignored => 3,
    }
}

fn headline_model() -> NatureModel {
    let corpus = CorpusBuilder::new(TRAIN_SEED).files_per_class(80).size_range(1024, 4096).build();
    train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        TRAIN_SEED,
    )
    .expect("balanced corpus covers every class")
}

/// 2,048 long flows interleaved round-robin, small payloads cut from a
/// file generated per flow, 10 µs apart so nothing idles out.
fn steady_trace(seed: u64, scale: Scale) -> (Vec<Packet>, HashMap<FiveTuple, FileClass>) {
    let (n_flows, per_flow) = match scale {
        Scale::Full => (2048usize, 250usize),
        Scale::Smoke => (256, 40),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // The headline traffic mix has no compressed flows.
    let classes = [FileClass::Text, FileClass::Binary, FileClass::Encrypted];
    struct Flow {
        tuple: FiveTuple,
        content: Vec<u8>,
        cursor: usize,
        len: usize,
    }
    let mut truth = HashMap::new();
    let mut flows = Vec::with_capacity(n_flows);
    for f in 0..n_flows {
        let class = classes[f % classes.len()];
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, (f >> 16) as u8, (f >> 8) as u8, f as u8),
            rng.gen_range(1024..65535),
            Ipv4Addr::new(192, 168, rng.gen(), rng.gen()),
            443,
        );
        truth.insert(tuple, class);
        flows.push(Flow {
            tuple,
            // Only the first b = 32 bytes reach the classifier; the rest
            // of the flow cycles through the same kilobyte.
            content: generate_file(class, 1024, &mut rng),
            cursor: 0,
            // Small packets, 64 bytes on average, one size per flow.
            len: rng.gen_range(48..=80),
        });
    }
    let mut packets = Vec::with_capacity(n_flows * per_flow);
    for round in 0..per_flow {
        for (f, flow) in flows.iter_mut().enumerate() {
            let payload: Vec<u8> =
                flow.content.iter().cycle().skip(flow.cursor).take(flow.len).copied().collect();
            flow.cursor = (flow.cursor + flow.len) % flow.content.len();
            packets.push(Packet {
                timestamp: (round * n_flows + f) as f64 * 10e-6,
                tuple: flow.tuple,
                flags: TcpFlags::empty(),
                payload,
            });
        }
    }
    (packets, truth)
}

fn generated_trace(config: TraceConfig) -> (Vec<Packet>, HashMap<FiveTuple, FileClass>) {
    let mut generator = TraceGenerator::new(config);
    let packets: Vec<Packet> = generator.by_ref().collect();
    (packets, generator.ground_truth().clone())
}

fn umass_trace(seed: u64, scale: Scale) -> (Vec<Packet>, HashMap<FiveTuple, FileClass>) {
    let mut config = TraceConfig::umass_scaled(
        seed,
        match scale {
            Scale::Full => 0.05,
            Scale::Smoke => 0.002,
        },
    );
    config.content = ContentMode::Realistic;
    config.class_mix = [0.40, 0.45, 0.15, 0.0];
    // Only the first b = 32 bytes of a flow reach the classifier.
    config.content_budget = 512;
    generated_trace(config)
}

fn churn_trace(seed: u64, scale: Scale) -> (Vec<Packet>, HashMap<FiveTuple, FileClass>) {
    let mut config = TraceConfig::small_test(seed);
    (config.n_flows, config.duration) = match scale {
        Scale::Full => (2500, 37.5),
        Scale::Smoke => (100, 1.5),
    };
    config.mean_data_packets = 24.0;
    config.content_budget = 4096;
    generated_trace(config)
}

/// Builds the workload: model, trace, reference pass, wire bytes.
pub fn prepare(workload: Workload, seed: u64, scale: Scale) -> Prepared {
    let (model, anytime, pipeline) = match workload {
        Workload::SteadyHit | Workload::UmassMix => {
            (headline_model(), None, PipelineConfig::headline(TRAIN_SEED))
        }
        Workload::ChurnFixedB | Workload::ChurnAnytime => {
            let b = 2048;
            let corpus =
                CorpusBuilder::new(TRAIN_SEED).files_per_class(96).size_range(1024, 16384).build();
            let report = train_anytime_from_corpus(
                &corpus,
                &FeatureWidths::svm_selected(),
                b,
                FeatureMode::Exact,
                &ModelKind::paper_cart(),
                TRAIN_SEED,
                true,
                0.01,
            )
            .expect("balanced corpus covers every class");
            let mut config = PipelineConfig {
                buffer_size: b,
                battery: true,
                ..PipelineConfig::headline(TRAIN_SEED)
            };
            // Both churn workloads carry the same models; only the policy
            // differs. A model attached without a policy never probes.
            if workload == Workload::ChurnAnytime {
                config.anytime = Some(AnytimeConfig::calibrated(&report.anytime.confidence));
            }
            (report.model, Some(report.anytime), config)
        }
    };
    let (packets, truth_by_tuple) = match workload {
        Workload::SteadyHit => steady_trace(seed, scale),
        Workload::UmassMix => umass_trace(seed, scale),
        Workload::ChurnFixedB | Workload::ChurnAnytime => churn_trace(seed, scale),
    };

    let mut flow_index: HashMap<FiveTuple, u32> = HashMap::new();
    let mut tuples = Vec::new();
    let mut has_data = Vec::new();
    let mut flow_of = Vec::with_capacity(packets.len());
    for packet in &packets {
        let next = tuples.len() as u32;
        let flow = *flow_index.entry(packet.tuple).or_insert_with(|| {
            tuples.push(packet.tuple);
            has_data.push(false);
            next
        });
        has_data[flow as usize] |= packet.is_data();
        flow_of.push(flow);
    }
    let flow_ids: Vec<FlowId> = tuples.iter().map(FlowId::of_tuple).collect();
    let truth: Vec<FileClass> = tuples
        .iter()
        .map(|t| *truth_by_tuple.get(t).expect("every generated flow has a ground-truth class"))
        .collect();

    let mut wire = Vec::new();
    let mut frame_end = Vec::with_capacity(packets.len());
    for packet in &packets {
        let (type_byte, body) =
            Request::SubmitPacket(packet.clone()).encode().expect("generated packets fit a frame");
        write_frame(&mut wire, type_byte, &body).expect("writing to a Vec cannot fail");
        frame_end.push(wire.len());
    }

    let mut prepared = Prepared {
        workload,
        model,
        anytime,
        pipeline,
        packets,
        flow_of,
        tuples,
        flow_index,
        flow_ids,
        has_data,
        truth,
        reference: Reference::default(),
        wire,
        frame_end,
    };
    prepared.reference = reference_pass(&prepared);
    prepared
}

/// One in-process pass that records what the pipeline decides on this
/// trace: the ground every served and batched result is checked against.
fn reference_pass(w: &Prepared) -> Reference {
    let flow_index: HashMap<FlowId, u32> =
        w.flow_ids.iter().enumerate().map(|(i, id)| (*id, i as u32)).collect();
    let mut pipeline = w.new_pipeline();
    let mut reference = Reference {
        first: vec![None; w.tuples.len()],
        count: vec![0; w.tuples.len()],
        ..Reference::default()
    };
    let record = |reference: &mut Reference, pipeline: &mut Iustitia, at: Option<(u32, u32)>| {
        for entry in pipeline.take_log() {
            let flow = *flow_index.get(&entry.id).expect("verdict for a flow of this trace");
            let trigger =
                at.and_then(|(packet, packet_flow)| (packet_flow == flow).then_some(packet));
            let slot = reference.verdicts.len() as u32;
            reference.first[flow as usize].get_or_insert(slot);
            reference.count[flow as usize] += 1;
            reference.verdicts.push(RefVerdict {
                flow,
                trigger,
                packets: entry.packets,
                buffered_bytes: entry.buffered_bytes as u32,
                early_exit: entry.early_exit,
                label: entry.label,
            });
        }
    };
    for (i, packet) in w.packets.iter().enumerate() {
        let verdict = pipeline.process_packet(packet);
        reference.kinds[kind_index(&verdict)] += 1;
        let at = matches!(verdict, Verdict::Classified(_)).then_some((i as u32, w.flow_of[i]));
        record(&mut reference, &mut pipeline, at);
        if i % 1024 == 0 {
            reference.resident_bytes_peak =
                reference.resident_bytes_peak.max(pipeline.resident_feature_bytes() as u64);
        }
    }
    // The same barrier a served `Drain` runs: classify what is pending.
    let last = w.packets.last().map_or(0.0, |p| p.timestamp);
    pipeline.sweep_idle(last + w.pipeline.idle_timeout + 1.0);
    record(&mut reference, &mut pipeline, None);

    let stats = pipeline.cdb().stats();
    reference.cdb_peak_records = stats.peak_size as u64;
    reference.cdb_purged = stats.removed_by_timeout;
    reference.early_exits = pipeline.early_exit_verdicts();
    reference.pool_hits = pipeline.state_pool_hits();
    reference
}

impl Prepared {
    /// Share of flows whose first reference verdict equals the trace's
    /// ground truth.
    pub fn accuracy(&self) -> f64 {
        let mut judged = 0u64;
        let mut right = 0u64;
        for (flow, first) in self.reference.first.iter().enumerate() {
            if let Some(slot) = first {
                judged += 1;
                right +=
                    u64::from(self.reference.verdicts[*slot as usize].label == self.truth[flow]);
            }
        }
        right as f64 / judged.max(1) as f64
    }

    /// Mean payload bytes a flow had sent when its first verdict fired —
    /// what passed unclassified — over packet-triggered verdicts.
    pub fn bytes_to_verdict_mean(&self) -> f64 {
        let mut sent = vec![0u64; self.tuples.len()];
        let mut at_trigger: HashMap<u32, u32> = self
            .packet_triggered()
            .map(|(flow, v)| (v.trigger.expect("packet-triggered"), flow))
            .collect();
        let mut total = 0u64;
        let mut n = 0u64;
        for (i, packet) in self.packets.iter().enumerate() {
            let flow = self.flow_of[i] as usize;
            sent[flow] += packet.payload.len() as u64;
            if at_trigger.remove(&(i as u32)).is_some() {
                total += sent[flow];
                n += 1;
            }
        }
        total as f64 / n.max(1) as f64
    }

    /// Mean bytes in the classification window when one of a flow's own
    /// packets fired its first verdict.
    pub fn window_bytes_mean(&self) -> f64 {
        let (mut total, mut n) = (0u64, 0u64);
        for (_, verdict) in self.packet_triggered() {
            total += u64::from(verdict.buffered_bytes);
            n += 1;
        }
        total as f64 / n.max(1) as f64
    }

    /// Mean `buffered_bytes` over every reference verdict.
    pub fn buffered_bytes_mean(&self) -> f64 {
        let total: u64 = self.reference.verdicts.iter().map(|v| u64::from(v.buffered_bytes)).sum();
        total as f64 / self.reference.verdicts.len().max(1) as f64
    }
}
