//! Isolated timings of public functions, one per layer, on the
//! workload's own inputs: the numbers the in-situ spans are compared
//! with. Every value is the median of [`REPS`] reps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
use iustitia::features::{FeatureExtractor, FlowFeatureState};
use iustitia_entropy::{IncrementalVector, RandomnessBattery};
use iustitia_serve::{
    AdmissionPolicy, BoundedQueue, FlowVerdict, FrameAssembler, Request, Response, WriteBuffer,
};

use crate::phases::on_every_core;
use crate::stats::{mean, median};
use crate::workload::Prepared;

const REPS: usize = 5;
/// Flows whose first `b` bytes feed the kernel timings.
const KERNEL_FLOWS: usize = 128;
/// Bytes fed per rep of the kernel timings.
const KERNEL_BYTES: usize = 1 << 20;
/// Frames, lookups and queue items per rep of the per-item timings.
const ITEMS: usize = 200_000;

/// Median over [`REPS`] calls of `rep`, which returns one rep's value.
fn median_of_reps(mut rep: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..REPS).map(|_| rep()).collect();
    median(&values)
}

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The isolated per-layer numbers, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Each kernel flow's first `b` payload bytes, in its real packet-sized
/// chunks.
fn window_chunks(w: &Prepared) -> Vec<Vec<&[u8]>> {
    let b = w.pipeline.buffer_size;
    let mut chunks: Vec<Vec<&[u8]>> = vec![Vec::new(); KERNEL_FLOWS.min(w.tuples.len())];
    let mut fed = vec![0usize; chunks.len()];
    for (packet, &flow) in w.packets.iter().zip(&w.flow_of) {
        let flow = flow as usize;
        if flow >= chunks.len() || fed[flow] >= b || !packet.is_data() {
            continue;
        }
        let take = packet.payload.len().min(b - fed[flow]);
        chunks[flow].push(&packet.payload[..take]);
        fed[flow] += take;
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Every isolated timing: the single-threaded ones as one copy per core
/// at once, averaged (see [`on_every_core`]); the queue hand-off, which is
/// two threads by nature, once.
pub fn measure(w: &Prepared) -> Layers {
    let per_core = on_every_core(|| single_threaded(w));
    let mut out = per_core[0].clone();
    for (i, (_, value)) in out.values.iter_mut().enumerate() {
        *value = mean(&per_core.iter().map(|l| l.values[i].1).collect::<Vec<_>>());
    }
    out.values.push(("serve.queue.handoff_ns", queue_handoff_ns()));
    out
}

fn single_threaded(w: &Prepared) -> Layers {
    let n = w.packets.len();

    // core::sha1 — the flow hash of every packet's tuple.
    let sha1 = median_of_reps(|| {
        let start = Instant::now();
        for packet in &w.packets {
            std::hint::black_box(FlowId::of_tuple(&packet.tuple));
        }
        ns_per(start, n)
    });

    // core::cdb — lookups of present ids at the workload's table size,
    // and inserts (with the purge they trigger) at the trace's own pace.
    let ids = &w.flow_ids;
    let first_seen: Vec<f64> = {
        let mut at = vec![f64::NAN; ids.len()];
        for (packet, &flow) in w.packets.iter().zip(&w.flow_of) {
            if at[flow as usize].is_nan() {
                at[flow as usize] = packet.timestamp;
            }
        }
        at
    };
    let table = (w.reference.cdb_peak_records as usize).clamp(1, ids.len());
    let mut cdb = ClassificationDatabase::new(CdbConfig::default());
    for (id, truth) in ids.iter().zip(&w.truth).take(table) {
        cdb.insert(*id, *truth, 0.0);
    }
    let lookup = median_of_reps(|| {
        let start = Instant::now();
        for id in ids[..table].iter().cycle().take(ITEMS) {
            std::hint::black_box(cdb.lookup(id, 0.0));
        }
        ns_per(start, ITEMS)
    });
    let insert = median_of_reps(|| {
        let rounds = (ITEMS / ids.len()).max(1);
        let start = Instant::now();
        for _ in 0..rounds {
            let mut cdb = ClassificationDatabase::new(CdbConfig::default());
            for ((id, truth), at) in ids.iter().zip(&w.truth).zip(&first_seen) {
                std::hint::black_box(cdb.insert(*id, *truth, *at));
            }
        }
        ns_per(start, rounds * ids.len())
    });

    // core::features, entropy — the kernel, fed each flow's window.
    let chunks = window_chunks(w);
    let window_bytes: usize = chunks.iter().flatten().map(|c| c.len()).sum();
    let b = w.pipeline.buffer_size;
    let extractor =
        FeatureExtractor::new(w.pipeline.widths.clone(), w.pipeline.mode.clone(), w.pipeline.seed)
            .with_battery(w.pipeline.battery);
    let mut states: Vec<FlowFeatureState> =
        chunks.iter().map(|_| extractor.begin_flow(b)).collect();
    let feed = |states: &mut [FlowFeatureState]| {
        for (state, flow) in states.iter_mut().zip(&chunks) {
            for chunk in flow {
                state.update(chunk);
            }
        }
    };
    feed(&mut states); // warm-up: histograms reach their working size
                       // A rep is as many rounds over the flows as make about KERNEL_BYTES
                       // of feed: 128 windows of 32 bytes alone would be over in 0.1 ms.
    let rounds = (KERNEL_BYTES / window_bytes.max(1)).max(1);
    let (mut update, mut finish, mut reset) = (Vec::new(), Vec::new(), Vec::new());
    let mut vectors: Vec<Vec<f64>> = vec![Vec::new(); states.len()];
    let mut scratch = Vec::new();
    for _ in 0..REPS {
        let mut spent = [Duration::ZERO; 3];
        for _ in 0..rounds {
            let start = Instant::now();
            for state in &mut states {
                extractor.reset_flow(state, b);
            }
            spent[0] += start.elapsed();
            let start = Instant::now();
            feed(&mut states);
            spent[1] += start.elapsed();
            let start = Instant::now();
            for (state, vector) in states.iter().zip(&mut vectors) {
                state.finish_into(vector, &mut scratch);
            }
            spent[2] += start.elapsed();
        }
        reset.push(spent[0].as_nanos() as f64 / (rounds * states.len()) as f64);
        update.push(spent[1].as_nanos() as f64 / (rounds * window_bytes) as f64);
        finish.push(spent[2].as_nanos() as f64 / (rounds * states.len()) as f64);
    }

    let mut raw: Vec<IncrementalVector> =
        chunks.iter().map(|_| IncrementalVector::with_byte_hint(&w.pipeline.widths, b)).collect();
    let vector_update = median_of_reps(|| {
        let mut spent = Duration::ZERO;
        for _ in 0..rounds {
            raw.iter_mut().for_each(IncrementalVector::reset);
            let start = Instant::now();
            for (vector, flow) in raw.iter_mut().zip(&chunks) {
                for chunk in flow {
                    vector.update(chunk);
                }
            }
            spent += start.elapsed();
        }
        spent.as_nanos() as f64 / (rounds * window_bytes) as f64
    });
    let mut batteries: Vec<RandomnessBattery> =
        chunks.iter().map(|_| RandomnessBattery::new()).collect();
    let battery_update = median_of_reps(|| {
        let mut spent = Duration::ZERO;
        for _ in 0..rounds {
            batteries.iter_mut().for_each(RandomnessBattery::reset);
            let start = Instant::now();
            for (battery, flow) in batteries.iter_mut().zip(&chunks) {
                for chunk in flow {
                    battery.update(chunk);
                }
            }
            spent += start.elapsed();
        }
        spent.as_nanos() as f64 / (rounds * window_bytes) as f64
    });

    // core::model, ml::confidence — inference on the finished vectors.
    let mut compiled = w.model.compile();
    let predict = median_of_reps(|| {
        let rounds = (ITEMS / 4 / vectors.len().max(1)).max(1);
        let start = Instant::now();
        for _ in 0..rounds {
            for vector in &vectors {
                let _ = std::hint::black_box(compiled.try_predict(vector));
            }
        }
        ns_per(start, rounds * vectors.len())
    });
    let mut probe = 0.0;
    if let Some(anytime) = &w.anytime {
        // One probe as the pipeline runs it on a full window: the stage
        // model fitted nearest below `b`, then the confidence score.
        let fed = b as u64;
        let stage = anytime.stage_models().iter().rev().find(|s| s.bytes <= fed);
        if let Some(stage) = stage.or(anytime.stage_models().first()) {
            let mut stage_model = stage.model.compile();
            probe = median_of_reps(|| {
                let rounds = (ITEMS / 4 / vectors.len().max(1)).max(1);
                let start = Instant::now();
                for _ in 0..rounds {
                    for vector in &vectors {
                        if let Ok((label, margin)) = stage_model.try_predict_with_margin(vector) {
                            std::hint::black_box(anytime.confidence.score(
                                vector,
                                fed,
                                label.index(),
                                margin,
                            ));
                        }
                    }
                }
                ns_per(start, rounds * vectors.len())
            });
        }
    }

    // serve::proto — the request and verdict codecs over this workload's
    // frames and verdicts.
    let frames = n.min(ITEMS);
    let decode = median_of_reps(|| {
        let start = Instant::now();
        let mut from = 0usize;
        for &end in &w.frame_end[..frames] {
            let frame = &w.wire[from..end];
            let _ = std::hint::black_box(Request::decode(frame[4], &frame[5..]));
            from = end;
        }
        ns_per(start, frames)
    });
    let requests: Vec<Request> =
        w.packets[..frames].iter().map(|p| Request::SubmitPacket(p.clone())).collect();
    let encode = median_of_reps(|| {
        let start = Instant::now();
        for request in &requests {
            let _ = std::hint::black_box(request.encode());
        }
        ns_per(start, frames)
    });
    drop(requests);
    let verdicts: Vec<Response> = w
        .reference
        .verdicts
        .iter()
        .map(|v| {
            Response::FlowVerdict(FlowVerdict {
                tuple: w.tuples[v.flow as usize],
                label: v.label,
                packets: v.packets,
                buffered_bytes: v.buffered_bytes,
                fill_time: 0.0,
            })
        })
        .collect();
    let verdict_rounds = (ITEMS / 4 / verdicts.len().max(1)).max(1);
    let verdict_encode = median_of_reps(|| {
        let start = Instant::now();
        for _ in 0..verdict_rounds {
            for verdict in &verdicts {
                let _ = std::hint::black_box(verdict.encode());
            }
        }
        ns_per(start, verdict_rounds * verdicts.len())
    });

    // serve::conn — reassembly of the request stream in 64 KiB reads,
    // and framing plus flushing of the verdict stream.
    let stream = w.frames(0, frames);
    let reassemble = median_of_reps(|| {
        let mut assembler = FrameAssembler::new();
        let mut seen = 0usize;
        let start = Instant::now();
        for read in stream.chunks(64 * 1024) {
            assembler.extend(read);
            while let Ok(Some(frame)) = assembler.next_frame() {
                std::hint::black_box(frame);
                seen += 1;
            }
        }
        assert_eq!(seen, frames, "reassembly yields every frame");
        ns_per(start, frames)
    });
    let encoded: Vec<(u8, Vec<u8>)> =
        verdicts.iter().map(|v| v.encode().expect("verdicts fit a frame")).collect();
    let write = median_of_reps(|| {
        let mut buffer = WriteBuffer::new();
        let mut sink = std::io::sink();
        let start = Instant::now();
        for _ in 0..verdict_rounds {
            for (type_byte, body) in &encoded {
                let _ = buffer.push_frame(*type_byte, body);
                let _ = std::hint::black_box(buffer.flush_to(&mut sink));
            }
        }
        ns_per(start, verdict_rounds * encoded.len())
    });

    Layers {
        values: vec![
            ("core.sha1.flowid_ns", sha1),
            ("core.cdb.lookup_hit_ns", lookup),
            ("core.cdb.insert_ns", insert),
            ("core.features.update_ns_per_byte", median(&update)),
            ("core.features.finish_ns", median(&finish)),
            ("core.features.reset_ns", median(&reset)),
            ("entropy.vector.update_ns_per_byte", vector_update),
            ("entropy.battery.update_ns_per_byte", battery_update),
            ("core.model.predict_ns", predict),
            ("ml.confidence.probe_ns", probe),
            ("serve.proto.request_decode_ns", decode),
            ("serve.proto.request_encode_ns", encode),
            ("serve.proto.verdict_encode_ns", verdict_encode),
            ("serve.conn.reassemble_ns", reassemble),
            ("serve.conn.write_ns", write),
        ],
    }
}

/// serve::queue — batches of 64 pushed on one thread, popped on another,
/// as the reactor hands packets to a shard. Nanoseconds per item.
fn queue_handoff_ns() -> f64 {
    median_of_reps(|| {
        let queue = Arc::new(BoundedQueue::<u64>::new(ITEMS, AdmissionPolicy::RejectBusy));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut popped = 0usize;
                while let Some(items) = queue.pop_all() {
                    popped += items.len();
                }
                popped
            })
        };
        let start = Instant::now();
        for batch in 0..ITEMS / 64 {
            let base = (batch * 64) as u64;
            std::hint::black_box(queue.push_batch(base..base + 64));
        }
        queue.close();
        let popped = consumer.join().expect("the consumer thread does not panic");
        assert_eq!(popped, ITEMS / 64 * 64, "every pushed item is popped");
        ns_per(start, popped)
    })
}
