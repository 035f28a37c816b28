//! What a pending flow holds: Fig. 1's buffer, not counters.
//!
//! A pending flow keeps its first payload bytes — at most
//! `buffer_capacity()` of them — and, with the battery on, its own
//! randomness battery; the gram counting happens in one table set per
//! pipeline, built with the pipeline. A counting allocator measures the
//! live heap a pending flow adds, and `resident_feature_bytes()` must
//! report what pending flows hold, down to 0 once they conclude.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test can perturb the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicI64, Ordering};

use iustitia::model::{ModelKind, NatureModel};
use iustitia::pipeline::{BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_corpus::FileClass;
use iustitia_entropy::{RandomnessBattery, BATTERY_FEATURES};
use iustitia_ml::Dataset;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};

struct CountingAllocator;

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: pure pass-through to the system allocator plus relaxed
// counter updates; no layout or pointer is altered.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Heap a pending flow may hold besides its buffer and battery: the
/// slot's 112-byte box, and the first buckets of the flow table its
/// slot lands in.
const BOOKKEEPING: usize = 1024;

/// A model over `n` features that every class can come out of.
fn any_model(n: usize) -> NatureModel {
    let mut ds = Dataset::new(n, FileClass::names());
    for i in 0..16 {
        let mut row = vec![0.1; n];
        row[0] = i as f64 / 20.0;
        ds.push(row, i % FileClass::ALL.len());
    }
    NatureModel::train(&ds, &ModelKind::paper_cart()).expect("every class present")
}

fn packet(port: u16, t: f64, flags: TcpFlags, payload: Vec<u8>) -> Packet {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 443);
    Packet { timestamp: t, tuple, flags, payload }
}

#[test]
fn a_pending_flow_holds_its_window_and_battery_and_nothing_once_concluded() {
    for (b, battery) in [(2048usize, true), (32, false)] {
        let widths = 4 + if battery { BATTERY_FEATURES } else { 0 };
        let config = PipelineConfig { buffer_size: b, battery, ..PipelineConfig::headline(3) };
        let mut pipeline = Iustitia::new(any_model(widths), config);
        let capacity = pipeline.buffer_capacity();
        let battery_bytes = if battery { size_of::<RandomnessBattery>() } else { 0 };

        // Three packets of `b / 4` bytes: three quarters of the window
        // buffered, the flow still pending.
        let payload: Vec<u8> =
            (0..b as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let quarter = b / 4;
        let packets: Vec<Packet> = (0..3)
            .map(|i| {
                let chunk = payload[i * quarter..(i + 1) * quarter].to_vec();
                packet(1, i as f64 * 0.001, TcpFlags::ACK, chunk)
            })
            .collect();
        let fin = packet(1, 0.01, TcpFlags::FIN | TcpFlags::ACK, Vec::new());
        let batch: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let close = [BatchPacket::new(&fin)];
        let mut verdicts = Vec::with_capacity(8);

        let before = live();
        pipeline.process_batch(&batch, &mut verdicts);
        let held = live() - before;
        assert_eq!(verdicts, vec![Verdict::Buffering; 3], "b = {b}");
        assert_eq!(pipeline.pending_flows(), 1);
        assert!(
            held > 0 && held as usize <= capacity + battery_bytes + BOOKKEEPING,
            "b = {b}: a pending flow added {held} B of heap; it may hold its \
             {capacity}-byte buffer, a {battery_bytes}-byte battery and \
             {BOOKKEEPING} B of bookkeeping"
        );
        assert_eq!(
            pipeline.resident_feature_bytes(),
            3 * quarter + battery_bytes,
            "b = {b}: the gauge reports the buffered bytes plus the battery"
        );

        // The close concludes the flow from what it buffered: its slot
        // goes back to the pool, and pending flows hold nothing.
        pipeline.process_batch(&close, &mut verdicts);
        assert_eq!(pipeline.take_log().len(), 1, "b = {b}: the close classifies the flow");
        assert_eq!(pipeline.pending_flows(), 0);
        assert_eq!(pipeline.resident_feature_bytes(), 0, "b = {b}");
        assert_eq!(pipeline.state_pool_size(), 1, "b = {b}: the slot is parked for reuse");
    }
}
