//! Property-based tests for the core pipeline and SHA-1.

use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
use iustitia::features::{FeatureExtractor, FeatureMode};
use iustitia::model::{
    AnytimeModel, AnytimeStageModel, ModelKind, NatureModel, ANYTIME_THRESHOLD_DISABLED,
};
use iustitia::pipeline::{
    AnytimeConfig, BatchPacket, HeaderPolicy, Iustitia, PacketView, PipelineConfig, Verdict,
};
use iustitia::sha1::sha1;
use iustitia_corpus::FileClass;
use iustitia_entropy::FeatureWidths;
use iustitia_ml::{ConfidenceModel, Dataset};
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A trivial always-valid model for structural pipeline properties.
fn any_model() -> NatureModel {
    let mut ds = Dataset::new(4, FileClass::names());
    for i in 0..16 {
        let x = i as f64 / 20.0;
        ds.push(vec![x, 0.1, 0.1, 0.1], i % FileClass::ALL.len());
    }
    NatureModel::train(&ds, &ModelKind::paper_cart()).expect("every class present")
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0.0f64..100.0,
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
        0u8..16,
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(t, ip, sp, dp, is_tcp, flag_bits, payload)| {
            let src = Ipv4Addr::from(ip);
            let dst = Ipv4Addr::new(192, 168, 1, 1);
            let tuple = if is_tcp {
                FiveTuple::tcp(src, sp, dst, dp)
            } else {
                FiveTuple::udp(src, sp, dst, dp)
            };
            let mut flags = TcpFlags::empty();
            if is_tcp {
                if flag_bits & 1 != 0 {
                    flags = flags | TcpFlags::SYN;
                }
                if flag_bits & 2 != 0 {
                    flags = flags | TcpFlags::ACK;
                }
                if flag_bits & 4 != 0 {
                    flags = flags | TcpFlags::FIN;
                }
                if flag_bits & 8 != 0 {
                    flags = flags | TcpFlags::RST;
                }
            }
            Packet { timestamp: t, tuple, flags, payload }
        })
}

/// A four-class anytime model fitted at two probe stages over payloads
/// shaped like the hot-flow packet space, with the extractor's battery
/// setting matched to the pipeline under test (a width mismatch would
/// zero every score and the property would never exercise an exit).
fn anytime_fixture(battery: bool) -> AnytimeModel {
    let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 1)
        .with_battery(battery);
    let stage = |fx: &mut FeatureExtractor, bytes: usize| {
        let mut ds = Dataset::new(fx.extract(&[0u8; 4]).len(), FileClass::names());
        let mut lcg: u32 = 0x2545_f491;
        for i in 0..6 {
            let n = bytes + i;
            let text: Vec<u8> = (0..n).map(|j| b'a' + (j % 13) as u8).collect();
            ds.push(fx.extract(&text), FileClass::Text.index());
            ds.push(fx.extract(&vec![0x7f; n]), FileClass::Binary.index());
            let noise: Vec<u8> = (0..n)
                .map(|_| {
                    lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (lcg >> 24) as u8
                })
                .collect();
            ds.push(fx.extract(&noise), FileClass::Encrypted.index());
            let cycle: Vec<u8> = (0..n).map(|j| (j % 7) as u8).collect();
            ds.push(fx.extract(&cycle), FileClass::Compressed.index());
        }
        ds
    };
    let (ds16, ds48) = (stage(&mut fx, 16), stage(&mut fx, 48));
    let model_for = |ds: &Dataset| {
        NatureModel::train(ds, &ModelKind::paper_cart()).expect("every class present")
    };
    AnytimeModel::new(
        ConfidenceModel::fit(&[(16, &ds16), (48, &ds48)], 0.0),
        vec![
            AnytimeStageModel { bytes: 16, model: model_for(&ds16) },
            AnytimeStageModel { bytes: 48, model: model_for(&ds48) },
        ],
    )
}

/// Packets drawn from a tiny flow space (4 ports, one source), so
/// random sequences contain interleaved flows, same-flow runs, CDB-hit
/// streaks after classification, closes mid-run, and pooled-state
/// recycling — everything the batch grouping has to keep bit-identical.
fn arb_hot_flow_packet() -> impl Strategy<Value = Packet> {
    (0.0f64..40.0, 0u16..4, 0u8..16, proptest::collection::vec(any::<u8>(), 0..64)).prop_map(
        |(t, port, flag_bits, payload)| {
            let src = Ipv4Addr::new(10, 0, 0, 1);
            let dst = Ipv4Addr::new(192, 168, 1, 1);
            let mut flags = TcpFlags::ACK;
            if flag_bits == 1 {
                flags = flags | TcpFlags::FIN;
            }
            if flag_bits == 2 {
                flags = TcpFlags::RST;
            }
            if flag_bits == 3 {
                flags = TcpFlags::SYN;
            }
            Packet {
                timestamp: t,
                tuple: FiveTuple::tcp(src, 4000 + port, dst, 443),
                flags,
                payload,
            }
        },
    )
}

/// What [`arb_hot_flow_packet`] leaves to chance, made certain: one
/// tuple classifies, closes, and sends new data again, back to back, so
/// the three packets usually share a batch and often a run.
fn arb_close_and_reopen() -> impl Strategy<Value = Vec<Packet>> {
    (0.0f64..40.0, 0u16..4, proptest::collection::vec(any::<u8>(), 1..64)).prop_map(
        |(t, port, payload)| {
            let src = Ipv4Addr::new(10, 0, 0, 1);
            let dst = Ipv4Addr::new(192, 168, 1, 1);
            let tuple = FiveTuple::tcp(src, 4000 + port, dst, 443);
            let data = |timestamp| Packet {
                timestamp,
                tuple,
                flags: TcpFlags::ACK,
                payload: payload.clone(),
            };
            let fin = Packet {
                timestamp: t + 0.01,
                tuple,
                flags: TcpFlags::ACK | TcpFlags::FIN,
                payload: Vec::new(),
            };
            vec![data(t), fin, data(t + 0.02)]
        },
    )
}

/// A hot-flow packet sequence: single packets, with a close-and-reopen
/// triple in about one position of six.
fn arb_hot_flow_packets() -> impl Strategy<Value = Vec<Packet>> {
    let step = (0u8..6, arb_hot_flow_packet(), arb_close_and_reopen())
        .prop_map(|(pick, single, triple)| if pick == 0 { triple } else { vec![single] });
    proptest::collection::vec(step, 0..50).prop_map(|steps| steps.concat())
}

/// Drives `batched` with `process_batch` over `packets` split into
/// consecutive batches whose sizes cycle through `cuts`, returning the
/// concatenated verdicts.
fn run_batched(batched: &mut Iustitia, packets: &[Packet], cuts: &[usize]) -> Vec<Verdict> {
    let mut got = Vec::new();
    let mut verdicts = Vec::new();
    let mut rest = packets;
    let mut i = 0;
    while !rest.is_empty() {
        let take = cuts.get(i % cuts.len().max(1)).copied().unwrap_or(rest.len());
        let take = take.clamp(1, rest.len());
        let (chunk, remainder) = rest.split_at(take);
        let items: Vec<BatchPacket<'_>> = chunk.iter().map(BatchPacket::new).collect();
        batched.process_batch(&items, &mut verdicts);
        assert_eq!(verdicts.len(), chunk.len(), "one verdict per packet");
        got.extend(verdicts.iter().copied());
        rest = remainder;
        i += 1;
    }
    got
}

/// A packet whose payload lies in a byte slab shared with its
/// neighbours — the shape the serve layer's shard workers hand the
/// pipeline — instead of in a `Packet` of its own.
struct SlabBacked<'a> {
    flow: FlowId,
    tuple: FiveTuple,
    timestamp: f64,
    flags: TcpFlags,
    payload: &'a [u8],
}

impl PacketView for SlabBacked<'_> {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn tuple(&self) -> FiveTuple {
        self.tuple
    }

    /// The owner `BatchPacket` reports, so the logs compare equal.
    fn owner(&self) -> u64 {
        0
    }

    fn timestamp(&self) -> f64 {
        self.timestamp
    }

    fn flags(&self) -> TcpFlags {
        self.flags
    }

    fn payload(&self) -> &[u8] {
        self.payload
    }
}

/// [`run_batched`] over the same cuts, with every batch's payloads
/// copied back to back into one slab and presented through
/// [`SlabBacked`] views.
fn run_slab_backed(pipeline: &mut Iustitia, packets: &[Packet], cuts: &[usize]) -> Vec<Verdict> {
    let mut got = Vec::new();
    let mut verdicts = Vec::new();
    let mut slab: Vec<u8> = Vec::new();
    let mut rest = packets;
    let mut i = 0;
    while !rest.is_empty() {
        let take = cuts.get(i % cuts.len().max(1)).copied().unwrap_or(rest.len());
        let (chunk, remainder) = rest.split_at(take.clamp(1, rest.len()));
        slab.clear();
        let spans: Vec<std::ops::Range<usize>> = chunk
            .iter()
            .map(|p| {
                slab.extend_from_slice(&p.payload);
                slab.len() - p.payload.len()..slab.len()
            })
            .collect();
        let items: Vec<SlabBacked<'_>> = chunk
            .iter()
            .zip(spans)
            .map(|(p, span)| SlabBacked {
                flow: FlowId::of_tuple(&p.tuple),
                tuple: p.tuple,
                timestamp: p.timestamp,
                flags: p.flags,
                payload: &slab[span],
            })
            .collect();
        pipeline.process_batch(&items, &mut verdicts);
        got.extend(verdicts.iter().copied());
        rest = remainder;
        i += 1;
    }
    got
}

/// The past-capacity case of `process_batch_is_bit_identical_to_per_packet`:
/// `process_packet` resolves flow IDs through its memo, `process_batch`
/// is handed `BatchPacket::new`'s pure SHA-1, and the trace has more
/// flows than the memo has ways — so IDs are served from the memo,
/// evicted from it and hashed again — yet nothing observable differs.
#[test]
fn process_packet_through_the_memo_matches_process_batch_past_capacity() {
    use iustitia::cdb::FlowIdMemo;

    let flows = (FlowIdMemo::SETS * FlowIdMemo::WAYS + 900) as u32;
    let packet = |flow: u32, round: u32, flags: TcpFlags, payload: &[u8]| Packet {
        timestamp: f64::from(round) + f64::from(flow) * 1e-5,
        tuple: if flow.is_multiple_of(5) {
            FiveTuple::udp(Ipv4Addr::from(0x0A00_0000 + flow), 53, Ipv4Addr::new(8, 8, 8, 8), 53)
        } else {
            FiveTuple::tcp(Ipv4Addr::from(0x0A00_0000 + flow), 999, Ipv4Addr::new(8, 8, 8, 8), 443)
        },
        flags,
        payload: payload.to_vec(),
    };
    let body: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37)).collect();
    let mut packets = Vec::new();
    for round in 0..3u32 {
        for flow in 0..flows {
            // Half a window, then the half that classifies, then a hit
            // — each a whole pass over the flows apart, so every repeat
            // of a tuple comes back after > capacity others. A hundred
            // hot flows also repeat back to back, and some flows close.
            packets.push(packet(flow, round, TcpFlags::ACK, &body[..16 + (flow % 3) as usize]));
            if flow < 100 {
                packets.push(packet(flow, round, TcpFlags::ACK, &body[..8]));
            }
            if round == 1 && flow.is_multiple_of(7) && !flow.is_multiple_of(5) {
                packets.push(packet(flow, round, TcpFlags::ACK | TcpFlags::FIN, &[]));
            }
        }
    }
    let config = PipelineConfig { idle_timeout: 50.0, ..PipelineConfig::headline(21) };
    let mut per_packet = Iustitia::new(any_model(), config.clone());
    let mut batched = Iustitia::new(any_model(), config);

    let expected: Vec<Verdict> = packets.iter().map(|p| per_packet.process_packet(p)).collect();
    let got = run_batched(&mut batched, &packets, &[64]);
    assert!(got == expected, "verdict sequences must be bit-identical");
    assert_eq!(batched.queues(), per_packet.queues());
    assert_eq!(batched.pending_flows(), per_packet.pending_flows());
    assert_eq!(batched.cdb().len(), per_packet.cdb().len());
    assert_eq!(batched.cdb().stats(), per_packet.cdb().stats());
    assert_eq!(batched.state_pool_hits(), per_packet.state_pool_hits());
    assert!(batched.take_log() == per_packet.take_log(), "classification logs must be equal");

    // The memo did all three things, and only where packets are hashed.
    let (hits, misses) = (per_packet.flow_memo_hits(), per_packet.flow_memo_misses());
    assert_eq!(hits + misses, packets.len() as u64);
    assert!(misses > u64::from(flows), "{misses} misses: evicted tuples must be hashed again");
    assert!(hits >= 300, "{hits} hits: back-to-back repeats must be served from the memo");
    assert_eq!((batched.flow_memo_hits(), batched.flow_memo_misses()), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sha1_is_deterministic_and_20_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let a = sha1(&data);
        let b = sha1(&data);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.len(), 20);
    }

    #[test]
    fn sha1_differs_on_appended_byte(data in proptest::collection::vec(any::<u8>(), 0..256), extra in any::<u8>()) {
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(sha1(&data), sha1(&longer));
    }

    #[test]
    fn pipeline_never_panics_on_arbitrary_packets(
        packets in proptest::collection::vec(arb_packet(), 0..80),
    ) {
        let mut pipeline = Iustitia::new(any_model(), PipelineConfig::headline(1));
        for p in &packets {
            let verdict = pipeline.process_packet(p);
            // Structural invariants hold after every packet.
            match verdict {
                Verdict::Hit(_) | Verdict::Classified(_) | Verdict::Buffering | Verdict::Ignored => {}
            }
            prop_assert!(pipeline.cdb().len() <= pipeline.cdb().stats().inserted as usize);
        }
        pipeline.sweep_idle(f64::INFINITY);
        prop_assert_eq!(pipeline.pending_flows(), 0);
    }

    /// Batching invariance: any cut of any packet sequence into
    /// batches produces bit-identical verdicts AND bit-identical
    /// observable state (queue counters, pending gauges, resident
    /// bytes, CDB contents and churn stats, pool accounting, and the
    /// full classification log — whose labels pin the entropy vectors
    /// through the model's decision bands) to batches of one. Covers
    /// interleaved flows, same-flow hit runs, closes and control
    /// packets mid-run, close-then-new-data on one tuple, idle sweeps,
    /// TTL expiry inside hit runs, every header policy, and recycled
    /// pooled state.
    #[test]
    fn process_batch_is_bit_identical_to_per_packet(
        packets in arb_hot_flow_packets(),
        cuts in proptest::collection::vec(1usize..16, 0..12),
        policy_sel in 0u8..4,
        battery in any::<bool>(),
        ttl in any::<bool>(),
    ) {
        let policy = match policy_sel {
            0 => HeaderPolicy::None,
            1 => HeaderPolicy::StripKnown { t: 8 },
            2 => HeaderPolicy::SkipThreshold { t: 5 },
            _ => HeaderPolicy::RandomSkip { t_max: 5 },
        };
        let config = PipelineConfig {
            header_policy: policy,
            battery,
            cdb: CdbConfig {
                reclassify_after: if ttl { Some(3.0) } else { None },
                ..CdbConfig::default()
            },
            idle_timeout: 5.0,
            ..PipelineConfig::headline(21)
        };
        let mut per_packet = Iustitia::new(any_model(), config.clone());
        let mut batched = Iustitia::new(any_model(), config.clone());
        let mut slab_backed = Iustitia::new(any_model(), config);

        let expected: Vec<Verdict> = packets.iter().map(|p| per_packet.process_packet(p)).collect();
        let got = run_batched(&mut batched, &packets, &cuts);

        // The same machine over payloads borrowed from a byte slab.
        let from_slab = run_slab_backed(&mut slab_backed, &packets, &cuts);
        prop_assert_eq!(&from_slab, &expected, "slab-backed verdicts must be bit-identical");
        prop_assert_eq!(slab_backed.queues(), per_packet.queues());
        prop_assert_eq!(slab_backed.pending_flows(), per_packet.pending_flows());
        prop_assert_eq!(slab_backed.resident_feature_bytes(), per_packet.resident_feature_bytes());
        prop_assert_eq!(slab_backed.cdb().stats(), per_packet.cdb().stats());
        prop_assert_eq!(slab_backed.state_pool_hits(), per_packet.state_pool_hits());

        prop_assert_eq!(got, expected, "verdict sequences must be bit-identical");
        prop_assert_eq!(batched.queues(), per_packet.queues());
        prop_assert_eq!(batched.pending_flows(), per_packet.pending_flows());
        prop_assert_eq!(batched.resident_feature_bytes(), per_packet.resident_feature_bytes());
        prop_assert_eq!(batched.cdb().len(), per_packet.cdb().len());
        prop_assert_eq!(batched.cdb().stats(), per_packet.cdb().stats());
        prop_assert_eq!(batched.state_pool_hits(), per_packet.state_pool_hits());
        prop_assert_eq!(batched.state_pool_size(), per_packet.state_pool_size());
        let log = per_packet.take_log();
        prop_assert_eq!(batched.take_log(), log.clone());
        prop_assert_eq!(slab_backed.take_log(), log);
    }

    /// Batching invariance with probes armed — live thresholds that
    /// fire mid-run, the disabled sentinel that probes but never fires,
    /// random strides and floors: any cut into batches must stay
    /// bit-identical to batches of one, including which verdicts exited
    /// early.
    #[test]
    fn process_batch_with_anytime_probes_is_bit_identical(
        packets in proptest::collection::vec(arb_hot_flow_packet(), 0..60),
        cuts in proptest::collection::vec(1usize..16, 0..12),
        battery in any::<bool>(),
        threshold_sel in 0u8..3,
        probe_stride in 1usize..32,
        min_bytes in 0usize..48,
    ) {
        // 0.0 fires on any two agreeing probes (maximal early-exit
        // traffic), 0.6 fires selectively, the sentinel never fires.
        let threshold = match threshold_sel {
            0 => 0.0,
            1 => 0.6,
            _ => ANYTIME_THRESHOLD_DISABLED,
        };
        let config = PipelineConfig {
            battery,
            buffer_size: 96,
            anytime: Some(AnytimeConfig { threshold, min_bytes, probe_stride }),
            idle_timeout: 5.0,
            ..PipelineConfig::headline(21)
        };
        let anytime = anytime_fixture(battery);
        let mut per_packet =
            Iustitia::new(any_model(), config.clone()).with_anytime(anytime.clone());
        let mut batched = Iustitia::new(any_model(), config).with_anytime(anytime);

        let expected: Vec<Verdict> = packets.iter().map(|p| per_packet.process_packet(p)).collect();
        let got = run_batched(&mut batched, &packets, &cuts);

        prop_assert_eq!(got, expected, "verdict sequences must be bit-identical");
        prop_assert_eq!(batched.early_exit_verdicts(), per_packet.early_exit_verdicts());
        if threshold == ANYTIME_THRESHOLD_DISABLED {
            prop_assert_eq!(per_packet.early_exit_verdicts(), 0, "the sentinel must never fire");
        }
        prop_assert_eq!(batched.queues(), per_packet.queues());
        prop_assert_eq!(batched.pending_flows(), per_packet.pending_flows());
        prop_assert_eq!(batched.resident_feature_bytes(), per_packet.resident_feature_bytes());
        prop_assert_eq!(batched.cdb().len(), per_packet.cdb().len());
        prop_assert_eq!(batched.cdb().stats(), per_packet.cdb().stats());
        prop_assert_eq!(batched.state_pool_hits(), per_packet.state_pool_hits());
        prop_assert_eq!(batched.state_pool_size(), per_packet.state_pool_size());
        prop_assert_eq!(batched.take_log(), per_packet.take_log());
    }

    #[test]
    fn feature_extractor_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
        exact in any::<bool>(),
    ) {
        let mode = if exact {
            FeatureMode::Exact
        } else {
            FeatureMode::Estimated(iustitia_entropy::EstimatorConfig::new(0.5, 0.5).expect("valid"))
        };
        let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), mode, 1);
        let v = fx.extract(&payload);
        prop_assert_eq!(v.len(), 4);
        prop_assert!(v.iter().all(|h| (0.0..=1.0).contains(h)));
    }

    #[test]
    fn cdb_purge_is_idempotent(
        inserts in proptest::collection::vec((any::<u8>(), 0.0f64..10.0), 1..50),
        now in 10.0f64..100.0,
    ) {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        for &(b, t) in &inserts {
            cdb.insert(FlowId([b; 20]), FileClass::Text, t);
        }
        let first = cdb.purge_obsolete(now);
        let second = cdb.purge_obsolete(now);
        prop_assert_eq!(second, 0, "second purge at same time removed {} after {}", second, first);
    }

    #[test]
    fn cdb_len_tracks_inserts_and_removals(bytes in proptest::collection::vec(any::<u8>(), 1..60)) {
        let mut cdb = ClassificationDatabase::new(CdbConfig { n: None, ..CdbConfig::default() });
        let mut distinct = std::collections::HashSet::new();
        for &b in &bytes {
            cdb.insert(FlowId([b; 20]), FileClass::Binary, 0.0);
            distinct.insert(b);
        }
        prop_assert_eq!(cdb.len(), distinct.len());
        for &b in &bytes {
            cdb.remove_on_close(&FlowId([b; 20]));
        }
        prop_assert!(cdb.is_empty());
        prop_assert_eq!(cdb.stats().removed_by_close, distinct.len() as u64);
    }
}
