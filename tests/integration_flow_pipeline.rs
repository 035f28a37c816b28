//! Cross-crate integration: trained model + synthetic trace → online
//! pipeline, scored against the trace generator's ground truth.

use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, ModelKind};
use iustitia::pipeline::{Iustitia, PipelineConfig, Verdict};
use iustitia_corpus::{CorpusBuilder, FileClass};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, TraceConfig, TraceGenerator};
use std::collections::HashMap;

fn trained_model(b: usize) -> iustitia::model::NatureModel {
    let corpus = CorpusBuilder::new(7).files_per_class(40).size_range(1024, 8192).build();
    train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        7,
    )
    .expect("balanced corpus")
}

#[test]
fn pipeline_labels_match_trace_ground_truth() {
    let b = 64;
    let mut config = TraceConfig::small_test(99);
    config.n_flows = 150;
    config.content = ContentMode::Realistic;
    config.content_budget = 2048;

    let mut pipeline = Iustitia::new(
        trained_model(b),
        PipelineConfig { buffer_size: b, ..PipelineConfig::headline(99) },
    );

    let mut generator = TraceGenerator::new(config);
    let mut assigned: HashMap<iustitia_netsim::FiveTuple, FileClass> = HashMap::new();
    for packet in generator.by_ref() {
        if let Verdict::Classified(label) = pipeline.process_packet(&packet) {
            assigned.insert(packet.tuple, label);
        }
    }
    let truth = generator.ground_truth();
    assert!(assigned.len() > 100, "most flows should get classified, got {}", assigned.len());

    let correct = assigned.iter().filter(|(tuple, label)| truth.get(tuple) == Some(label)).count();
    let acc = correct as f64 / assigned.len() as f64;
    assert!(acc > 0.6, "online accuracy vs ground truth {acc} (offline ~0.85+)");
}

#[test]
fn cdb_hits_avoid_reclassification() {
    let mut config = TraceConfig::small_test(5);
    config.n_flows = 60;
    config.mean_data_packets = 20.0;
    let mut pipeline = Iustitia::new(trained_model(32), PipelineConfig::headline(5));
    let mut classified = 0u64;
    let mut hits = 0u64;
    for packet in TraceGenerator::new(config) {
        match pipeline.process_packet(&packet) {
            Verdict::Classified(_) => classified += 1,
            Verdict::Hit(_) => hits += 1,
            _ => {}
        }
    }
    assert!(classified > 0);
    // With ~20 data packets per flow and b=32 (one packet fills the
    // buffer), the overwhelming majority of data packets are CDB hits.
    assert!(hits > classified * 5, "hits {hits} should dwarf classifications {classified}");
}

#[test]
fn consistent_labels_within_a_flow() {
    // Once classified, every subsequent data packet of the flow gets
    // the same label from the CDB.
    let mut config = TraceConfig::small_test(6);
    config.n_flows = 40;
    let mut pipeline = Iustitia::new(trained_model(32), PipelineConfig::headline(6));
    let mut first_label: HashMap<iustitia_netsim::FiveTuple, FileClass> = HashMap::new();
    for packet in TraceGenerator::new(config) {
        match pipeline.process_packet(&packet) {
            Verdict::Classified(label) => {
                first_label.insert(packet.tuple, label);
            }
            Verdict::Hit(label) => {
                if let Some(first) = first_label.get(&packet.tuple) {
                    assert_eq!(*first, label, "label changed mid-flow for {}", packet.tuple);
                }
            }
            _ => {}
        }
    }
    assert!(!first_label.is_empty());
}

#[test]
fn per_flow_state_is_bounded_by_buffer_capacity() {
    // The paper's space claim: per new flow, Iustitia holds only the
    // b-byte buffer plus counters. The pipeline must never buffer more
    // than the configured capacity per flow.
    let b = 32;
    let mut config = TraceConfig::small_test(8);
    config.n_flows = 50;
    let mut pipeline = Iustitia::new(trained_model(b), PipelineConfig::headline(8));
    let mut generator = TraceGenerator::new(config);
    for packet in generator.by_ref() {
        pipeline.process_packet(&packet);
    }
    pipeline.sweep_idle(f64::INFINITY);
    for flow in pipeline.take_log() {
        assert!(flow.buffered_bytes <= pipeline.buffer_capacity());
    }
    assert_eq!(pipeline.pending_flows(), 0);
}
