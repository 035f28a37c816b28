//! Steady-state allocation test for flow-state pooling.
//!
//! The pooling acceptance criterion: once the pipeline is warm (the
//! flow table, gram tables, scratch vectors, and state pool have
//! reached their working capacity), processing a *recycled* flow from
//! first packet through classification must perform zero heap
//! allocations — the per-packet hot path is indexed adds into
//! pre-sized tables, and the verdict comes from the compiled model's
//! owned-scratch predict.
//!
//! A counting wrapper around the system allocator measures this
//! directly. This file deliberately contains a single `#[test]` so no
//! concurrent test can perturb the global allocation counter.
//!
//! The same wrapper sums the bytes requested, which bounds what
//! `begin_flow` puts on the heap for one pending flow: the §4.4
//! accounting (`resident_bytes`) charges per distinct gram and cannot
//! see a table that is mostly empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iustitia::cdb::FlowIdMemo;
use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{
    train_anytime_from_corpus, train_from_corpus, train_from_corpus_battery, ModelKind,
};
use iustitia::pipeline::{AnytimeConfig, BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
use std::net::Ipv4Addr;

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator plus relaxed
// counter increments; no layout or pointer is altered.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far (a `realloc` counts its
/// whole new size).
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

fn data_packet(port: u16, t: f64, payload: &[u8]) -> Packet {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 443);
    Packet { timestamp: t, tuple, flags: TcpFlags::ACK, payload: payload.to_vec() }
}

#[test]
fn recycled_flow_packets_allocate_nothing_through_classification() {
    // ── Footprint ────────────────────────────────────────────────────
    // What one pending flow's feature state asks of the heap, at the
    // two windows the benchmark runs (svm widths, battery on): three
    // open tables reserved for `b` bytes plus the dense k = 1 array.
    let extractor = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0)
        .with_battery(true);
    for (b, limit) in [(2048usize, 192u64 << 10), (32, 8 << 10)] {
        let before = alloc_bytes();
        let state = extractor.begin_flow(b);
        let requested = alloc_bytes() - before;
        assert!(
            requested <= limit,
            "begin_flow({b}) requested {requested} bytes of heap, over the {limit}-byte bound"
        );
        drop(state);
    }

    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(20).size_range(1024, 4096).build();

    // ── Flow-ID memo ─────────────────────────────────────────────────
    // Only `process_packet` hashes, so only it may own a memo's heap: a
    // pipeline handed precomputed IDs through `process_batch` — every
    // serve shard — classifies flows without ever requesting as much
    // as the memo takes, and the first `process_packet` call requests
    // all of it at once.
    {
        let model = train_from_corpus(
            &corpus,
            &FeatureWidths::svm_selected(),
            TrainingMethod::Prefix { b: 32 },
            FeatureMode::Exact,
            &ModelKind::paper_cart(),
            33,
        )
        .expect("balanced corpus");
        let mut pipeline = Iustitia::new(model, PipelineConfig::headline(33));
        let packets: Vec<Packet> = (0..64u16)
            .map(|i| data_packet(1 + i % 8, f64::from(i) * 0.001, &[i as u8; 48]))
            .collect();
        let batch: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        let before = alloc_bytes();
        pipeline.process_batch(&batch, &mut verdicts);
        let batch_only = alloc_bytes() - before;
        assert_eq!(pipeline.cdb().len(), 8, "the batch classified its flows");
        assert!(
            batch_only < FlowIdMemo::BYTES as u64 / 4,
            "a pipeline fed only through process_batch requested {batch_only} bytes: \
             it must not carry a {}-byte flow-ID memo",
            FlowIdMemo::BYTES
        );
        assert_eq!((pipeline.flow_memo_hits(), pipeline.flow_memo_misses()), (0, 0));

        let before = alloc_bytes();
        pipeline.process_packet(&packets[0]);
        let first = alloc_bytes() - before;
        assert!(
            (FlowIdMemo::BYTES as u64..FlowIdMemo::BYTES as u64 + 4096).contains(&first),
            "the first process_packet call allocates the memo ({} bytes), saw {first}",
            FlowIdMemo::BYTES
        );
        let calls = alloc_calls();
        pipeline.process_packet(&packets[1]);
        pipeline.process_packet(&packets[0]);
        assert_eq!((pipeline.flow_memo_hits(), pipeline.flow_memo_misses()), (1, 2));
        assert_eq!(alloc_calls() - calls, 0, "later calls, miss or hit, allocate nothing");
    }

    // Battery on: the randomness battery must hold the zero-alloc
    // guarantee too (its state is fixed-size integer accumulators).
    let model = train_from_corpus_battery(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 2048 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
    )
    .expect("balanced corpus");
    let mut config = PipelineConfig::headline(33);
    config.buffer_size = 2048;
    config.battery = true;
    let mut pipeline = Iustitia::new(model, config);

    // Every flow streams the same realistic payload, so the warm-up
    // flows grow each gram table to exactly the capacity the measured
    // flow needs.
    let payload: Vec<u8> = (0..512u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();

    // Warm-up: nine complete flows populate the pool, grow the flow
    // table, size the recycled gram tables and finish scratch, and put
    // the classification log (Vec, cap 16 after 9 pushes) and CDB hash
    // map (cap 14 after 9 inserts) far enough from their growth points
    // that the measured flow's bookkeeping cannot reallocate them.
    let mut t = 0.0;
    for port in 1u16..=9 {
        for seq in 0..4 {
            t += 0.001;
            let verdict = pipeline.process_packet(&data_packet(port, t, &payload));
            if seq < 3 {
                assert_eq!(verdict, Verdict::Buffering);
            } else {
                assert!(matches!(verdict, Verdict::Classified(_)));
            }
        }
    }
    assert!(pipeline.state_pool_hits() >= 8, "warm-up flows must recycle state");
    assert!(pipeline.state_pool_size() >= 1);

    // Measured flow: a fresh flow whose state comes from the pool. All
    // four packets — three buffering, plus the fourth that completes
    // the window, finishes the feature vector into owned scratch, and
    // classifies through the compiled model — must not touch the
    // allocator.
    let hits_before = pipeline.state_pool_hits();
    let packets: Vec<Packet> =
        (0..4).map(|seq| data_packet(100, t + 0.01 + seq as f64 * 0.001, &payload)).collect();
    let before = alloc_calls();
    for (seq, packet) in packets.iter().enumerate() {
        let verdict = pipeline.process_packet(packet);
        if seq < 3 {
            assert_eq!(verdict, Verdict::Buffering);
        } else {
            assert!(matches!(verdict, Verdict::Classified(_)));
        }
    }
    let during = alloc_calls() - before;
    assert_eq!(pipeline.state_pool_hits(), hits_before + 1, "measured flow must be a pool hit");
    assert_eq!(
        during, 0,
        "a steady-state recycled flow must not allocate from first packet \
         through classification (saw {during} allocator calls across 4 packets)"
    );

    // ── Anytime phase ────────────────────────────────────────────────
    // The probe path must hold the same guarantee: both the probe that
    // only arms the patience rule (first packet) and the one that fires
    // the early verdict re-finish the feature vector into owned scratch,
    // predict through a compiled stage model, and score against the
    // centroid stages — none of which may touch the allocator.
    let report = train_anytime_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        2048,
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
        true,
        0.01,
    )
    .expect("balanced corpus");
    let mut anytime = report.anytime.clone();
    // Pure raw-score gating with an always-pass threshold: every packet
    // runs the full probe (stage predict + centroid score), and the
    // first two consecutive agreeing probes fire the verdict.
    anytime.confidence.set_exit_policy(Vec::new(), u64::MAX);
    anytime.confidence.set_threshold(0.0);
    let mut config = PipelineConfig::headline(33);
    config.buffer_size = 2048;
    config.battery = true;
    config.anytime = Some(AnytimeConfig::calibrated(&anytime.confidence));
    let mut pipeline = Iustitia::new(report.model.clone(), config).with_anytime(anytime);

    // Drives one flow to its verdict, returning how many packets it took.
    fn classify(pipeline: &mut Iustitia, port: u16, t0: f64, payload: &[u8]) -> usize {
        for seq in 0..4 {
            let verdict =
                pipeline.process_packet(&data_packet(port, t0 + seq as f64 * 0.001, payload));
            if matches!(verdict, Verdict::Classified(_)) {
                return seq + 1;
            }
        }
        unreachable!("the fourth packet fills the 2048-byte window");
    }

    let mut t = 100.0;
    for port in 1u16..=9 {
        classify(&mut pipeline, port, t, &payload);
        t += 0.01;
    }
    assert!(pipeline.state_pool_hits() >= 8, "warm-up flows must recycle state");
    assert!(pipeline.early_exit_verdicts() > 0, "warm-up probes must fire early");

    let hits_before = pipeline.state_pool_hits();
    let exits_before = pipeline.early_exit_verdicts();
    // Pre-built packets: the measured window must contain only pipeline
    // work, and an early exit is expected before the fourth packet.
    let probe_packets: Vec<Packet> =
        (0..4).map(|seq| data_packet(100, t + 1.0 + seq as f64 * 0.001, &payload)).collect();
    let before = alloc_calls();
    let mut packets_used = 0;
    for packet in &probe_packets {
        packets_used += 1;
        if matches!(pipeline.process_packet(packet), Verdict::Classified(_)) {
            break;
        }
    }
    let during = alloc_calls() - before;
    assert_eq!(pipeline.state_pool_hits(), hits_before + 1, "measured flow must be a pool hit");
    assert!(
        pipeline.early_exit_verdicts() > exits_before,
        "the measured verdict must come from a probe, not the fed >= b fallback"
    );
    assert!(packets_used < 4, "early exit must beat the fixed-b window");
    assert_eq!(
        during, 0,
        "a recycled flow probed to an early verdict must not allocate \
         (saw {during} allocator calls across {packets_used} packets)"
    );
}
