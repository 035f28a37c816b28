//! Flow-ID microbenchmark: what `FlowIdMemo::id_of` costs next to the
//! bare SHA-1 it stands in front of (`FlowId::of_tuple`).
//!
//! Three streams, ns per call:
//!
//! * **all-miss** — distinct tuples, far more of them than the memo
//!   holds: every call probes a set, runs SHA-1 and fills a way.
//! * **round-robin** — 2,048 tuples in turn, `steady_hit`'s order and
//!   LRU's worst: a set asked for more tuples than it has ways misses
//!   on every one of them.
//! * **one flow** — the same tuple every call.
//!
//! Each pass times the bare hash and then the memo over the same
//! stream, so the two see the same host; the figures are medians over
//! the passes, the ratio the median of the per-pass ratios. The memo's
//! answers are checked against `of_tuple` before anything is timed.
//!
//! Run: `cargo run --release -p iustitia-bench --bin flowid_bench`
//! (`--smoke` for a single short pass).

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use iustitia::cdb::{FlowId, FlowIdMemo};
use iustitia_netsim::FiveTuple;

fn tuple(n: u32) -> FiveTuple {
    let src = Ipv4Addr::from(0x0A00_0000 | (n >> 14));
    FiveTuple::tcp(src, 1024 + (n & 0x3FFF) as u16, Ipv4Addr::new(192, 168, 1, 1), 443)
}

/// ns per call of `f` over one pass of `stream`.
fn ns_per_call(stream: &[FiveTuple], mut f: impl FnMut(&FiveTuple) -> FlowId) -> f64 {
    let start = Instant::now();
    for t in stream {
        black_box(f(black_box(t)));
    }
    start.elapsed().as_nanos() as f64 / stream.len() as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (calls, passes) = if smoke { (50_000, 1) } else { (2_000_000, 15) };

    let distinct: Vec<FiveTuple> = (0..calls).map(tuple).collect();
    let round_robin: Vec<FiveTuple> = (0..calls).map(|n| tuple(n % 2048)).collect();
    let one_flow: Vec<FiveTuple> = vec![tuple(7); calls as usize];

    println!("{calls} calls per pass, {passes} passes; memo {} bytes", FlowIdMemo::BYTES);
    println!("{:<18} {:>9} {:>9} {:>7} {:>9}", "stream", "bare ns", "memo ns", "ratio", "hit rate");
    for (name, stream) in
        [("all-miss", &distinct), ("round-robin 2048", &round_robin), ("one flow", &one_flow)]
    {
        let mut memo = FlowIdMemo::new();
        for t in stream.iter().take(20_000) {
            assert_eq!(memo.id_of(t), FlowId::of_tuple(t), "memo must answer of_tuple");
        }
        // Timed warm. The distinct stream is long enough that a pass
        // finds nothing of the pass before it (the hit rate shows it).
        let (hits, misses) = (memo.hits(), memo.misses());
        let (mut bare, mut through, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..passes {
            let b = ns_per_call(stream, FlowId::of_tuple);
            let m = ns_per_call(stream, |t| memo.id_of(t));
            bare.push(b);
            through.push(m);
            ratios.push(m / b);
        }
        let (hits, misses) = (memo.hits() - hits, memo.misses() - misses);
        println!(
            "{name:<18} {:>9.1} {:>9.1} {:>7.3} {:>9.4}",
            median(bare),
            median(through),
            median(ratios),
            hits as f64 / (hits + misses) as f64
        );
    }
}
