//! Entropy-kernel microbenchmark: one hot flow state vs 64 interleaved.
//!
//! Every cell runs the same work — 64 flows of `b` bytes each, fed in
//! 512-byte packets through recycled [`IncrementalVector`]s exactly as
//! the pipeline's pool recycles them (`reset` + `reserve_bytes`, the
//! packets, `finish_entropies_into`) — in two schedules:
//!
//! * **hot**: one state handles the flows one after another, so its
//!   tables never leave the cache;
//! * **interleaved**: 64 states are live at once and each packet round
//!   visits all of them, as concurrent flows do, so every visit finds
//!   its tables evicted by the other 63.
//!
//! Hot-only timing makes per-flow table bytes look free; the
//! interleaved figure is what a pending flow costs. Both are reported
//! as ns per flow, split into reset / feed / finish.
//!
//! Matrix: buffer size b ∈ {256, 2048, 16384} × width set
//! {full, svm, cart}, each cell checked against
//! [`EntropyVector::compute`] on every round. Output is
//! criterion-style lines followed by a JSON document.
//!
//! `--smoke` runs the whole matrix with one round per cell so CI can
//! verify the harness end-to-end in ~2 seconds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{EntropyVector, FeatureWidths, IncrementalVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 512 bytes: the packet size used by the serve load generator.
const PACKET: usize = 512;

/// Flows per round, and live states in the interleaved schedule.
const FLOWS: usize = 64;

/// Phase names, in the order [`round`] times them.
const PHASES: [&str; 3] = ["reset", "feed", "finish"];

/// Order-independent digest of the feature values of a set of flows.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0, |acc, v| acc.wrapping_add(v.to_bits()))
}

/// Runs every flow once, `states.len()` of them at a time (flow `i` of
/// a group on state `i`), feeding `chunk`-byte packets round-robin
/// across the group. Returns the time spent in each of [`PHASES`] and
/// the [`digest`] of every finished vector.
fn round(
    states: &mut [IncrementalVector],
    flows: &[Vec<u8>],
    chunk: usize,
) -> ([Duration; 3], u64) {
    let mut out = Vec::new();
    let mut phases = [Duration::ZERO; 3];
    let mut sum = 0u64;
    for group in flows.chunks(states.len()) {
        let start = Instant::now();
        for (state, flow) in states.iter_mut().zip(group) {
            state.reset();
            state.reserve_bytes(flow.len());
        }
        phases[0] += start.elapsed();

        let start = Instant::now();
        let packets = group.iter().map(|flow| flow.len().div_ceil(chunk)).max().unwrap_or(0);
        for p in 0..packets {
            for (state, flow) in states.iter_mut().zip(group) {
                if let Some(packet) = flow.chunks(chunk).nth(p) {
                    state.update(black_box(packet));
                }
            }
        }
        phases[1] += start.elapsed();

        let start = Instant::now();
        for state in states.iter().take(group.len()) {
            state.finish_entropies_into(&mut out);
            sum = sum.wrapping_add(digest(black_box(&out)));
        }
        phases[2] += start.elapsed();
    }
    (phases, sum)
}

/// Median ns per flow of each phase over repeated [`round`]s (one round
/// in smoke mode; otherwise two warm-up rounds, then at least nine and
/// at least 0.3 s of them), asserting `expected` on every round.
fn bench(
    states: &mut [IncrementalVector],
    flows: &[Vec<u8>],
    chunk: usize,
    expected: u64,
    smoke: bool,
) -> [f64; 3] {
    let mut samples: [Vec<f64>; 3] = Default::default();
    let warmup = if smoke { 0 } else { 2 };
    let started = Instant::now();
    for i in 0.. {
        let (phases, sum) = round(states, flows, chunk);
        assert_eq!(sum, expected, "recycled states must stay bit-identical to one-shot");
        if i >= warmup {
            for (sample, phase) in samples.iter_mut().zip(phases) {
                sample.push(phase.as_nanos() as f64 / flows.len() as f64);
            }
        }
        let rounds = samples[0].len();
        if smoke || (rounds >= 9 && started.elapsed() >= Duration::from_millis(300)) {
            break;
        }
    }
    samples.map(|mut sample| {
        sample.sort_by(f64::total_cmp);
        sample[sample.len() / 2]
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let width_sets: [(&str, FeatureWidths); 3] = [
        ("full", FeatureWidths::full()),
        ("svm", FeatureWidths::svm_selected()),
        ("cart", FeatureWidths::cart_selected()),
    ];
    let sizes = [256usize, 2048, 16384];
    let mut rng = StdRng::seed_from_u64(7);

    let mut json_cells = Vec::new();
    for &b in &sizes {
        // One payload per flow, the four classes in turn.
        let flows: Vec<Vec<u8>> = FileClass::ALL
            .iter()
            .cycle()
            .take(FLOWS)
            .map(|&class| generate_file(class, b, &mut rng))
            .collect();
        for (name, widths) in &width_sets {
            let one_shot: Vec<f64> = flows
                .iter()
                .flat_map(|flow| EntropyVector::compute(flow, widths).into_values())
                .collect();
            let expected = digest(&one_shot);
            let mut states = vec![IncrementalVector::new(widths); FLOWS];
            let hot = bench(&mut states[..1], &flows, PACKET, expected, smoke);
            let interleaved = bench(&mut states, &flows, PACKET, expected, smoke);
            let mut fields = vec![format!("\"b\": {b}, \"widths\": \"{name}\"")];
            for (schedule, phases) in [("hot", hot), ("interleaved", interleaved)] {
                let total: f64 = phases.iter().sum();
                println!(
                    "kernel/b={b}/{name}/{schedule:<11}  time: {total:>10.0} ns/flow  \
                     (reset {:.0}, feed {:.0}, finish {:.0})",
                    phases[0], phases[1], phases[2]
                );
                fields.push(format!("\"{schedule}_ns\": {total:.0}"));
                for (phase, ns) in PHASES.iter().zip(phases) {
                    fields.push(format!("\"{schedule}_{phase}_ns\": {ns:.0}"));
                }
            }
            json_cells.push(format!("    {{{}}}", fields.join(", ")));
        }
    }

    // Chunk-size sweep: how the slab kernel amortizes per-call overhead
    // as feed granularity grows (one hot state, one flow).
    let sweep_b = 16384usize;
    let sweep_widths = FeatureWidths::svm_selected();
    let sweep_flow = vec![generate_file(FileClass::Binary, sweep_b, &mut rng)];
    let expected = digest(EntropyVector::compute(&sweep_flow[0], &sweep_widths).values());
    let mut sweep_state = [IncrementalVector::new(&sweep_widths)];
    let mut sweep_cells = Vec::new();
    for chunk in [1usize, 8, 32, 128, 512] {
        let ns: f64 = bench(&mut sweep_state, &sweep_flow, chunk, expected, smoke).iter().sum();
        let bytes_per_us = sweep_b as f64 / (ns / 1000.0);
        println!(
            "kernel/chunk_sweep/b={sweep_b}/svm/chunk={chunk}  time: {ns:>12.0} ns/flow \
             ({bytes_per_us:.0} B/us)"
        );
        sweep_cells.push(format!("    {{\"chunk\": {chunk}, \"ns\": {ns:.0}}}"));
    }

    println!("--- JSON ---");
    println!("{{");
    println!(
        "  \"benchmark\": \"entropy kernel, ns per flow (reset + feed + finish of a recycled \
         state): one hot state vs {FLOWS} interleaved flow states\","
    );
    println!("  \"packet_bytes\": {PACKET},");
    println!("  \"flows\": {FLOWS},");
    println!("  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    println!("  \"cells\": [");
    println!("{}", json_cells.join(",\n"));
    println!("  ],");
    println!("  \"chunk_sweep_b\": {sweep_b},");
    println!("  \"chunk_sweep_widths\": \"svm\",");
    println!("  \"chunk_sweep\": [");
    println!("{}", sweep_cells.join(",\n"));
    println!("  ]");
    println!("}}");
}
