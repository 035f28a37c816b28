//! Steady-state allocation test for the serve path: the zero-allocation
//! guarantee of `crates/core/tests/pool_alloc.rs`, carried out to the
//! socket.
//!
//! Once a server is warm — every flow of the set a CDB hit, every
//! reused buffer at its working capacity — a packet crosses from the
//! socket to its pipeline without touching the allocator: the reactor
//! decodes its frame where the read put it, copies the payload once
//! into the shard's slab, and the worker takes the slab by swapping
//! buffers. What remains is a constant per `Drain`, whatever the number
//! of packets before it.
//!
//! A counting wrapper around the system allocator measures this on the
//! server's own threads (the reactor and the shard worker): the thread
//! that drives the test opts itself out. This file deliberately
//! contains a single `#[test]`, so no concurrent test adds to the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, ModelKind};
use iustitia::pipeline::PipelineConfig;
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
use iustitia_serve::proto::{read_frame, write_frame, Request, Response};
use iustitia_serve::{Server, ServerConfig};

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by a thread whose allocations are not the server's. Constant
    /// initialisation and no destructor: reading it never allocates.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if !UNCOUNTED.with(Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the system allocator plus relaxed
// counter increments; no layout or pointer is altered.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls and bytes requested (a `realloc` counts its whole
/// new size) on the server's threads so far.
fn counters() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

const FLOWS: u16 = 64;

/// `n` frames of 16-byte data packets, round-robin over the flow set,
/// timestamps `t0` onwards — all within a fraction of a second, so that
/// no idle sweep falls due.
fn wire_of(n: usize, t0: f64, payload_len: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..n {
        let packet = Packet {
            timestamp: t0 + i as f64 * 1e-6,
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 0, 1),
                20_000 + (i % FLOWS as usize) as u16,
                Ipv4Addr::new(10, 7, 0, 2),
                443,
            ),
            flags: TcpFlags::ACK,
            payload: vec![(i % 251) as u8; payload_len],
        };
        let (type_byte, body) = Request::SubmitPacket(packet).encode().unwrap();
        write_frame(&mut wire, type_byte, &body).unwrap();
    }
    wire
}

/// Writes `wire` and a `Drain`, then reads to the `DrainComplete`.
/// Returns how many verdicts came first, and what the server's threads
/// allocated meanwhile: `(verdicts, calls, bytes)`.
fn stream_and_drain(stream: &mut TcpStream, wire: &[u8]) -> (usize, u64, u64) {
    let (calls_before, bytes_before) = counters();
    stream.write_all(wire).unwrap();
    let (type_byte, body) = Request::Drain.encode().unwrap();
    write_frame(stream, type_byte, &body).unwrap();
    let mut verdicts = 0;
    loop {
        let (type_byte, body) = read_frame(stream).unwrap().expect("the server stays connected");
        match Response::decode(type_byte, &body).unwrap() {
            Response::FlowVerdict(_) => verdicts += 1,
            Response::DrainComplete(_) => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let (calls, bytes) = counters();
    (verdicts, calls - calls_before, bytes - bytes_before)
}

#[test]
fn warm_hit_packets_cross_the_serve_path_without_allocating() {
    UNCOUNTED.with(|flag| flag.set(true));
    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(40).size_range(1024, 4096).build();
    let model = train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
    )
    .expect("balanced corpus");
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = 1;
    config.queue_capacity = 1 << 17; // ample: a Busy reply would allocate, and change the subject
    let server = Server::start("127.0.0.1:0", model, config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Warm-up: one 32-byte packet fills each flow's b = 32 buffer and
    // classifies it; from here on the whole set hits the CDB.
    let (verdicts, _, _) = stream_and_drain(&mut stream, &wire_of(FLOWS as usize, 0.0, 32));
    assert_eq!(verdicts, FLOWS as usize, "every flow of the set is classified");

    // The timed part, three times over: N hit packets and a drain, then
    // 2 N hit packets and a drain. A buffer that had not yet seen its
    // largest backlog may still grow in one round; it does not grow
    // twice, so the best round of each size shows the steady state.
    const N: usize = 20_000;
    let small = wire_of(N, 0.1, 16);
    let large = wire_of(2 * N, 0.2, 16);
    let mut best_small = (u64::MAX, u64::MAX);
    let mut best_large = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        let (verdicts, calls, bytes) = stream_and_drain(&mut stream, &small);
        assert_eq!(verdicts, 0, "hits owe no verdict");
        best_small = best_small.min((calls, bytes));
        let (verdicts, calls, bytes) = stream_and_drain(&mut stream, &large);
        assert_eq!(verdicts, 0, "hits owe no verdict");
        best_large = best_large.min((calls, bytes));
    }

    let stats = server.stats();
    assert_eq!(stats.busy_rejects, 0);
    assert_eq!(stats.packets, (FLOWS as usize + 3 * 3 * N) as u64);
    assert_eq!(stats.hits, (3 * 3 * N) as u64, "the timed packets were all CDB hits");

    assert!(
        best_small.0 <= (N / 16) as u64,
        "{N} hit packets cost {} allocations on the reactor and shard threads",
        best_small.0
    );
    assert!(
        best_large.0 <= (2 * N / 16) as u64,
        "{} hit packets cost {} allocations on the reactor and shard threads",
        2 * N,
        best_large.0
    );
    // What is left is the drain's own (its gate, its reply): twice the
    // packets ask the allocator for no more bytes.
    assert!(
        best_large.1 <= best_small.1 + 1024,
        "requested bytes grow with the packet count: {} for {N} packets, {} for {}",
        best_small.1,
        best_large.1,
        2 * N
    );

    drop(stream);
    server.shutdown();
}
