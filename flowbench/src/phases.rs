//! The measured phases: `inline`, `batch`, and the served phases
//! `saturate`, `rtt`, `paced` and `client`, plus the generator's own
//! ceiling. Each function runs one rep and checks what came back.
//!
//! The generator is two named threads (`flowbench-writer`,
//! `flowbench-reader`) on one loopback TCP connection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use iustitia::cdb::FlowId;
use iustitia::pipeline::{BatchPacket, Verdict};
use iustitia_serve::proto::write_frame;
use iustitia_serve::{
    Client, ClientEvent, FlowVerdict, FrameAssembler, Request, Response, Server, ServerConfig,
    StatsSnapshot,
};

use crate::affinity::on_cpu;
use crate::procstat::CpuSample;
use crate::spans::{Tracer, NO_FLOW};
use crate::stats::mean;
use crate::workload::{kind_index, Prepared};

/// Shard workers per server: one per core of the 2-core reference host
/// (the sizing runs found 4 shards slower than 1 there).
pub const SHARDS: usize = 2;
/// Queue capacity of the throughput phases: large enough that nothing is
/// ever refused, so TCP back-pressure alone closes the loop.
pub const QUEUE_UNBOUNDED: usize = 1 << 21;
/// Queue capacity of the open-loop phase: the size deployments use.
pub const QUEUE_PACED: usize = 1 << 14;
/// Send tick of the open-loop phase.
pub const TICK: Duration = Duration::from_micros(500);
/// Segment length of the batch pass: what a shard worker typically pops.
pub const BATCH_SEGMENT: usize = 512;
/// One flow in this many is traced.
pub const TRACE_ONE_IN: u32 = 8;
/// How long a closed-loop client waits for one verdict before the flow
/// counts as lost.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a pass waits for `DrainComplete` after its last byte.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

pub const KIND_SPANS: [&str; 4] = [
    "core.pipeline.hit",
    "core.pipeline.buffering",
    "core.pipeline.classified",
    "core.pipeline.ignored",
];

// ------------------------------------------------------------ in-process

/// Runs `job` once per core, all at the same moment, and returns every
/// core's result.
///
/// At any moment the reference host's vCPUs may differ by a third in
/// single-thread speed (see [`crate::affinity`]), and where the scheduler
/// puts a lone thread is luck. The ledger's single-threaded measurements
/// are therefore taken as one copy per core, concurrently, and averaged:
/// every core is sampled every time.
pub fn on_every_core<T: Send>(job: impl Fn() -> T + Sync) -> Vec<T> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let barrier = Barrier::new(cores);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    job()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a measuring thread does not panic")).collect()
    })
}

/// One timed pass of `process_packet` over the trace on a fresh
/// pipeline, on the calling thread: packets per second. The pass must
/// decide what the reference pass decided.
fn inline_pass(w: &Prepared) -> Result<f64, String> {
    let mut pipeline = w.new_pipeline();
    let mut kinds = [0u64; 4];
    let start = Instant::now();
    for packet in &w.packets {
        kinds[kind_index(&pipeline.process_packet(packet))] += 1;
    }
    let rate = w.packets.len() as f64 / start.elapsed().as_secs_f64();
    if kinds != w.reference.kinds {
        return Err(format!(
            "inline pass decided {kinds:?} [hit, buffering, classified, ignored], the reference \
             pass {:?}",
            w.reference.kinds
        ));
    }
    Ok(rate)
}

/// The end-to-end inline rep: one [`inline_pass`] alone in the process,
/// confined to `cpu`.
pub fn inline_rep_on(w: &Prepared, cpu: u32) -> Result<f64, String> {
    on_cpu(cpu, || inline_pass(w))?
}

/// The ledger's inline rep: one [`inline_pass`] per core at once, the
/// rates averaged — the conditions the traced pass it is paired with
/// runs under.
pub fn inline_rep(w: &Prepared) -> Result<f64, String> {
    let passes: Vec<f64> =
        on_every_core(|| inline_pass(w)).into_iter().collect::<Result<_, _>>()?;
    Ok(mean(&passes))
}

/// The trace cut into [`BATCH_SEGMENT`]-packet segments, each stably
/// sorted by flow ID — the order in which a shard worker hands a popped
/// backlog to `process_batch`.
pub fn sorted_segments(w: &Prepared) -> Vec<BatchPacket<'_>> {
    let mut items: Vec<BatchPacket<'_>> = w
        .packets
        .iter()
        .zip(&w.flow_of)
        .map(|(packet, &flow)| BatchPacket { flow: w.flow_ids[flow as usize], packet })
        .collect();
    for segment in items.chunks_mut(BATCH_SEGMENT) {
        segment.sort_by_key(|item| item.flow);
    }
    items
}

/// Correctness gate: `process_batch` over the sorted segments must
/// return exactly what `process_packet` returns over the same order.
pub fn batch_gate(w: &Prepared, items: &[BatchPacket<'_>]) -> Result<(), String> {
    let mut per_packet = w.new_pipeline();
    let mut batched = w.new_pipeline();
    let mut verdicts = Vec::new();
    for (s, segment) in items.chunks(BATCH_SEGMENT).enumerate() {
        batched.process_batch(segment, &mut verdicts);
        for (i, item) in segment.iter().enumerate() {
            let expected = per_packet.process_packet(item.packet);
            if verdicts.get(i) != Some(&expected) {
                return Err(format!(
                    "process_batch diverges from process_packet at packet {} of segment {s} \
                     (flow {}): batch {:?}, per-packet {expected:?}",
                    i,
                    item.packet.tuple,
                    verdicts.get(i)
                ));
            }
        }
    }
    if batched.take_log() != per_packet.take_log() {
        return Err("process_batch and process_packet logged different classifications".into());
    }
    Ok(())
}

/// One timed pass of `process_batch` over the sorted segments: packets
/// per second, averaged over one such pass per core.
pub fn batch_rep(w: &Prepared, items: &[BatchPacket<'_>]) -> f64 {
    mean(&on_every_core(|| {
        let mut pipeline = w.new_pipeline();
        let mut verdicts: Vec<Verdict> = Vec::new();
        let start = Instant::now();
        for segment in items.chunks(BATCH_SEGMENT) {
            pipeline.process_batch(segment, &mut verdicts);
            std::hint::black_box(&verdicts);
        }
        items.len() as f64 / start.elapsed().as_secs_f64()
    }))
}

/// Time and count at one call boundary, summed over a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Boundary {
    pub total_ns: u64,
    pub calls: u64,
}

impl Boundary {
    fn add(&mut self, ns: u64) {
        self.total_ns += ns;
        self.calls += 1;
    }

    fn merge(&mut self, other: &Boundary) {
        self.total_ns += other.total_ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call, less the one clock read that every
    /// timed interval includes.
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.calls as f64 - timer_ns).max(0.0)
    }
}

/// What the traced inline pass measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedInline {
    /// Packets per second, mean over the per-core passes.
    pub rate: f64,
    /// The flow hash, `FlowId::of_tuple`.
    pub sha1: Boundary,
    /// The rest of `process_packet`, by outcome (see [`KIND_SPANS`]).
    pub kinds: [Boundary; 4],
}

/// The inline pass again, timed at the two call boundaries inside
/// `process_packet`: the flow hash, then `process_batch` with a batch of
/// one (which is what `process_packet` does after hashing). Every packet
/// is timed and summed by boundary; for one flow in [`TRACE_ONE_IN`] the
/// intervals are also kept as spans — `core.sha1` and
/// `core.pipeline.<outcome>` under an `inline.packet` parent — and
/// appended to `tracer`. One pass per core, like [`inline_rep`].
pub fn traced_inline(w: &Prepared, tracer: &mut Tracer) -> TracedInline {
    let passes = on_every_core(|| {
        let mut spans = Tracer::starting_at(tracer.epoch());
        let mut pipeline = w.new_pipeline();
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(1);
        let mut out = TracedInline::default();
        let start = Instant::now();
        for (packet, &flow) in w.packets.iter().zip(&w.flow_of) {
            let t0 = spans.now_ns();
            let id = FlowId::of_tuple(&packet.tuple);
            let t1 = spans.now_ns();
            pipeline.process_batch(&[BatchPacket { flow: id, packet }], &mut verdicts);
            let t2 = spans.now_ns();
            let kind = kind_index(&verdicts[0]);
            out.sha1.add(t1 - t0);
            out.kinds[kind].add(t2 - t1);
            if flow % TRACE_ONE_IN == 0 {
                let root = spans.record("inline.packet", t0, t2, None, flow);
                spans.record("core.sha1", t0, t1, Some(root), flow);
                spans.record(KIND_SPANS[kind], t1, t2, Some(root), flow);
            }
        }
        out.rate = w.packets.len() as f64 / start.elapsed().as_secs_f64();
        (out, spans)
    });
    let mut merged = TracedInline {
        rate: mean(&passes.iter().map(|(pass, _)| pass.rate).collect::<Vec<_>>()),
        ..TracedInline::default()
    };
    for (pass, spans) in passes {
        tracer.absorb(spans);
        merged.sha1.merge(&pass.sha1);
        for (into, from) in merged.kinds.iter_mut().zip(&pass.kinds) {
            into.merge(from);
        }
    }
    merged
}

// ---------------------------------------------------------------- served

fn server_config(w: &Prepared, queue_capacity: usize) -> ServerConfig {
    let mut config = ServerConfig::new(w.pipeline.clone());
    config.shards = SHARDS;
    config.queue_capacity = queue_capacity;
    config.anytime = w.anytime.clone();
    config
}

fn start_server(w: &Prepared, queue_capacity: usize) -> Result<Server, String> {
    Server::start("127.0.0.1:0", w.model.clone(), server_config(w, queue_capacity))
        .map_err(|e| format!("cannot start a server on loopback: {e}"))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
    Ok(stream)
}

fn control_frame(request: &Request) -> Vec<u8> {
    let (type_byte, body) = request.encode().expect("control requests have no payload");
    let mut frame = Vec::new();
    write_frame(&mut frame, type_byte, &body).expect("writing to a Vec cannot fail");
    frame
}

/// The read half of the generator's connection.
struct Inlet {
    stream: TcpStream,
    assembler: FrameAssembler,
    scratch: Vec<u8>,
}

impl Inlet {
    fn new(stream: TcpStream) -> Inlet {
        Inlet { stream, assembler: FrameAssembler::new(), scratch: vec![0u8; 64 * 1024] }
    }

    /// The next response; `Ok(None)` at end of stream.
    fn next(&mut self) -> Result<Option<Response>, String> {
        loop {
            if let Some((type_byte, body)) =
                self.assembler.next_frame().map_err(|e| format!("reassembly: {e}"))?
            {
                return Response::decode(type_byte, &body)
                    .map(Some)
                    .map_err(|e| format!("decode: {e}"));
            }
            match self.assembler.fill_from(&mut self.stream, &mut self.scratch) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Everything a served pass received.
#[derive(Debug, Default)]
pub struct Inbox {
    /// Verdicts in arrival order, with their arrival time.
    pub verdicts: Vec<(FlowVerdict, Instant)>,
    pub busy: u64,
    /// Frames that failed to decode, error frames, unexpected replies.
    pub errors: u64,
    pub stats: Option<StatsSnapshot>,
}

/// Reads until the `Stats` reply (the last thing a pass asks for) or end
/// of stream. Reports when `DrainComplete` arrived through `drained`.
fn read_pass(mut inlet: Inlet, drained: &mpsc::Sender<Instant>) -> Inbox {
    let mut inbox = Inbox::default();
    loop {
        match inlet.next() {
            Ok(Some(Response::FlowVerdict(v))) => inbox.verdicts.push((v, Instant::now())),
            Ok(Some(Response::Busy(_))) => inbox.busy += 1,
            Ok(Some(Response::DrainComplete(_))) => {
                let _ = drained.send(Instant::now());
            }
            Ok(Some(Response::Stats(stats))) => {
                inbox.stats = Some(*stats);
                return inbox;
            }
            Ok(Some(_)) => inbox.errors += 1,
            Ok(None) => return inbox,
            Err(_) => {
                inbox.errors += 1;
                return inbox;
            }
        }
    }
}

/// How a served pass offers its packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// One `write_all` of everything; TCP back-pressure closes the loop.
    Blast,
    /// Open loop at a fixed rate in packets per second.
    Paced(f64),
}

/// One wake-up of the paced writer.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// When the tick was scheduled and when the writer actually woke,
    /// nanoseconds from the start of the pass.
    pub scheduled_ns: u64,
    pub woke_ns: u64,
    pub written_ns: u64,
    /// One past the last packet written in this tick.
    pub end: u32,
}

/// Result of one served pass over the whole trace.
#[derive(Debug)]
pub struct ServedPass {
    /// First byte written to `DrainComplete` received.
    pub wall_s: f64,
    pub start: Instant,
    pub inbox: Inbox,
    /// CPU of reactor, shards and generator threads over the pass.
    pub cpu: CpuSample,
    pub ticks: Vec<Tick>,
}

/// Packet `i` of an open-loop pass at `rate` packets per second is due
/// this many nanoseconds after the start.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).ceil() as u64
}

/// How many packets of `n` are due at or before `elapsed_ns`.
pub fn packets_due_by(elapsed_ns: u64, rate: f64, n: usize) -> usize {
    ((elapsed_ns as f64 * rate / 1e9).floor() as usize).saturating_add(1).min(n)
}

/// Streams the whole trace through a fresh server on one connection,
/// then `Drain`, then `Stats`.
pub fn served_pass(
    w: &Prepared,
    queue_capacity: usize,
    offer: Offer,
) -> Result<ServedPass, String> {
    let server = start_server(w, queue_capacity)?;
    let stream = connect(server.local_addr())?;
    let read_half = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let (drained_tx, drained_rx) = mpsc::channel();

    let result = std::thread::scope(|scope| -> Result<ServedPass, String> {
        let reader = std::thread::Builder::new()
            .name("flowbench-reader".into())
            .spawn_scoped(scope, move || read_pass(Inlet::new(read_half), &drained_tx))
            .map_err(|e| format!("spawn reader: {e}"))?;
        let write_half = &stream;
        let writer = std::thread::Builder::new()
            .name("flowbench-writer".into())
            .spawn_scoped(scope, move || -> Result<_, String> {
                let mut stream = write_half;
                let cpu_before = CpuSample::now();
                let start = Instant::now();
                let mut ticks = Vec::new();
                match offer {
                    Offer::Blast => {
                        stream.write_all(&w.wire).map_err(|e| format!("write: {e}"))?;
                    }
                    Offer::Paced(rate) => {
                        let n = w.packets.len();
                        let mut sent = 0usize;
                        let mut k = 1u32;
                        while sent < n {
                            let scheduled = TICK * k;
                            if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            let woke = start.elapsed();
                            let upto = packets_due_by(woke.as_nanos() as u64, rate, n);
                            if upto > sent {
                                stream
                                    .write_all(w.frames(sent, upto))
                                    .map_err(|e| format!("write: {e}"))?;
                                ticks.push(Tick {
                                    scheduled_ns: scheduled.as_nanos() as u64,
                                    woke_ns: woke.as_nanos() as u64,
                                    written_ns: start.elapsed().as_nanos() as u64,
                                    end: upto as u32,
                                });
                                sent = upto;
                            }
                            // Skip the ticks a late wake-up already covered.
                            k = (woke.as_nanos() / TICK.as_nanos()) as u32 + 1;
                        }
                    }
                }
                stream
                    .write_all(&control_frame(&Request::Drain))
                    .map_err(|e| format!("write: {e}"))?;
                let drained_at = drained_rx
                    .recv_timeout(DRAIN_TIMEOUT)
                    .map_err(|e| format!("no DrainComplete: {e}"))?;
                let cpu = CpuSample::now().since(&cpu_before);
                stream
                    .write_all(&control_frame(&Request::Stats))
                    .map_err(|e| format!("write: {e}"))?;
                Ok((start, drained_at, cpu, ticks))
            })
            .map_err(|e| format!("spawn writer: {e}"))?;
        let written = writer.join().map_err(|_| "the writer thread panicked".to_string())?;
        if written.is_err() {
            // Unblock the reader, which may wait for a Stats reply that
            // was never requested.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let inbox = reader.join().map_err(|_| "the reader thread panicked".to_string())?;
        let (start, drained_at, cpu, ticks) = written?;
        Ok(ServedPass {
            wall_s: drained_at.duration_since(start).as_secs_f64(),
            start,
            inbox,
            cpu,
            ticks,
        })
    });
    drop(stream);
    server.shutdown();
    result
}

/// How a pass's verdicts compare with the reference pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Comparison {
    /// Data flows that received no verdict at all.
    pub lost_flows: u64,
    /// Flows whose first verdict was taken at a different point than the
    /// reference's, or that received a different number of verdicts.
    pub diverged_flows: u64,
}

/// Checks a full-trace pass against the reference.
///
/// Correctness gate: a flow's first verdict always starts from its first
/// data packet, so when it was taken after the same packets and bytes as
/// the reference's its label must be the same. A different label there is
/// an error naming the flow. Verdicts taken elsewhere (an idle sweep or a
/// purge fell differently under batching) are counted, not fatal.
pub fn compare_with_reference(
    w: &Prepared,
    verdicts: &[(FlowVerdict, Instant)],
) -> Result<Comparison, String> {
    let mut first: Vec<Option<&FlowVerdict>> = vec![None; w.tuples.len()];
    let mut count = vec![0u32; w.tuples.len()];
    for (verdict, _) in verdicts {
        let flow = *w
            .flow_index
            .get(&verdict.tuple)
            .ok_or_else(|| format!("verdict for {}, a flow that was never sent", verdict.tuple))?;
        first[flow as usize].get_or_insert(verdict);
        count[flow as usize] += 1;
    }
    let mut comparison = Comparison::default();
    for flow in 0..w.tuples.len() {
        let Some(slot) = w.reference.first[flow] else { continue };
        let expected = &w.reference.verdicts[slot as usize];
        let Some(got) = first[flow] else {
            comparison.lost_flows += 1;
            continue;
        };
        if got.packets == expected.packets && got.buffered_bytes == expected.buffered_bytes {
            if got.label != expected.label {
                return Err(format!(
                    "flow {} was classified {} after {} packets / {} bytes; the reference pass \
                     says {} from the same bytes",
                    w.tuples[flow], got.label, got.packets, got.buffered_bytes, expected.label
                ));
            }
            if count[flow] != w.reference.count[flow] {
                comparison.diverged_flows += 1;
            }
        } else {
            comparison.diverged_flows += 1;
        }
    }
    Ok(comparison)
}

/// Per flow of the closed-loop phase: the frames of its data packets up
/// to and including the one that fired its reference verdict.
pub struct RttFlow {
    pub flow: u32,
    pub frames: Vec<u8>,
    pub packets: u32,
}

/// The first `limit` flows a closed-loop client can wait on, ready to
/// send: packet-triggered in the reference pass, and with no pause longer
/// than the idle timeout before the trigger. A flow replayed alone has no
/// neighbours whose packets would run the idle sweep at other moments, so
/// after such a pause its own next packet sweeps it, at a point the
/// reference never classified it.
pub fn rtt_flows(w: &Prepared, limit: usize) -> Vec<RttFlow> {
    let triggers: HashMap<u32, u32> = w
        .packet_triggered()
        .map(|(flow, v)| (flow, v.trigger.expect("packet-triggered")))
        .collect();
    struct Candidate {
        flow: RttFlow,
        last_ts: f64,
        paused: bool,
    }
    let mut candidates: HashMap<u32, Candidate> = HashMap::new();
    for (i, packet) in w.packets.iter().enumerate() {
        let flow = w.flow_of[i];
        let Some(&trigger) = triggers.get(&flow) else { continue };
        if packet.is_data() && i as u32 <= trigger {
            let c = candidates.entry(flow).or_insert_with(|| Candidate {
                flow: RttFlow { flow, frames: Vec::new(), packets: 0 },
                last_ts: packet.timestamp,
                paused: false,
            });
            c.paused |= packet.timestamp - c.last_ts > w.pipeline.idle_timeout;
            c.last_ts = packet.timestamp;
            c.flow.frames.extend_from_slice(w.frames(i, i + 1));
            c.flow.packets += 1;
        }
    }
    let mut flows: Vec<RttFlow> =
        candidates.into_values().filter(|c| !c.paused).map(|c| c.flow).collect();
    flows.sort_by_key(|f| f.flow);
    flows.truncate(limit);
    flows
}

/// Result of one closed-loop rep.
#[derive(Debug, Default)]
pub struct RttRep {
    /// Round trips in microseconds, one per answered flow.
    pub rtt_us: Vec<f64>,
    pub packets_sent: u64,
    pub busy: u64,
    pub errors: u64,
    pub lost_flows: u64,
    pub diverged_flows: u64,
}

/// Closed loop, one flow outstanding: write a flow's packets up to its
/// trigger, wait for its verdict, repeat. One connection, fresh server,
/// and every thread of it — client, reactor, shards — confined to `cpu`.
///
/// On one CPU the round trip is a relay: each thread wakes the next and
/// sleeps, the CPU never idles, and no wake-up crosses to another core.
/// Left to the scheduler on the virtualised reference host, every
/// wake-up that lands on a halted vCPU costs 40–50 µs of hypervisor, three
/// of them lie on a verdict's path, and the round trip reads 100–150 µs
/// of which 16–25 are the software's.
pub fn rtt_rep(w: &Prepared, flows: &[RttFlow], cpu: u32) -> Result<RttRep, String> {
    on_cpu(cpu, || rtt_closed_loop(w, flows))?
}

fn rtt_closed_loop(w: &Prepared, flows: &[RttFlow]) -> Result<RttRep, String> {
    let server = start_server(w, QUEUE_UNBOUNDED)?;
    let stream = connect(server.local_addr())?;
    stream.set_read_timeout(Some(VERDICT_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    let mut inlet = Inlet::new(stream.try_clone().map_err(|e| format!("clone socket: {e}"))?);
    let mut rep = RttRep::default();
    let result = (|| -> Result<(), String> {
        for flow in flows {
            let expected = &w.reference.verdicts[w.reference.first[flow.flow as usize]
                .expect("chosen flows have a verdict")
                as usize];
            let tuple = w.tuples[flow.flow as usize];
            let start = Instant::now();
            (&stream).write_all(&flow.frames).map_err(|e| format!("write: {e}"))?;
            rep.packets_sent += u64::from(flow.packets);
            loop {
                match inlet.next() {
                    Ok(Some(Response::FlowVerdict(v))) if v.tuple == tuple => {
                        rep.rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
                        if v.packets != expected.packets
                            || v.buffered_bytes != expected.buffered_bytes
                        {
                            rep.diverged_flows += 1;
                        } else if v.label != expected.label {
                            return Err(format!(
                                "flow {tuple} was classified {} after {} packets / {} bytes; the \
                                 reference pass says {} from the same bytes",
                                v.label, v.packets, v.buffered_bytes, expected.label
                            ));
                        }
                        break;
                    }
                    Ok(Some(Response::FlowVerdict(_))) => rep.diverged_flows += 1,
                    Ok(Some(Response::Busy(_))) => rep.busy += 1,
                    Ok(Some(_)) => rep.errors += 1,
                    // Timed out, closed or undecodable: the verdict is
                    // lost and the stream can no longer be trusted.
                    end => {
                        eprintln!(
                            "flowbench: no verdict for flow {tuple} ({} packets sent, verdict \
                             expected after {} packets / {} bytes): {}",
                            flow.packets,
                            expected.packets,
                            expected.buffered_bytes,
                            end.err().unwrap_or_else(|| "connection closed".into())
                        );
                        rep.lost_flows += (flows.len() - rep.rtt_us.len()) as u64;
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    })();
    drop(inlet);
    drop(stream);
    server.shutdown();
    result.map(|()| rep)
}

/// Result of [`client_pass`].
pub struct ClientPass {
    /// First `submit_packet` to the `Drain` reply.
    pub wall_s: f64,
    pub verdicts: Vec<(FlowVerdict, Instant)>,
    pub busy: u64,
}

/// The whole trace through the repository's own blocking [`Client`], to
/// tell whether the client or the server sets its ceiling.
pub fn client_pass(w: &Prepared) -> Result<ClientPass, String> {
    let server = start_server(w, QUEUE_UNBOUNDED)?;
    let result = (|| -> Result<_, String> {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("client connect: {e}"))?;
        let start = Instant::now();
        for packet in &w.packets {
            client.submit_packet(packet).map_err(|e| format!("client submit: {e}"))?;
        }
        client.drain().map_err(|e| format!("client drain: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let arrived = Instant::now();
        let mut verdicts = Vec::new();
        let mut busy = 0u64;
        let mut events = client.poll_events();
        events.extend(client.close().map_err(|e| format!("client close: {e}"))?);
        for event in events {
            match event {
                ClientEvent::Verdict(v) => verdicts.push((v, arrived)),
                ClientEvent::Busy(_) => busy += 1,
            }
        }
        Ok(ClientPass { wall_s, verdicts, busy })
    })();
    server.shutdown();
    result
}

/// The writer alone: the same bytes into a socket whose other end reads
/// and discards. What the generator can offer when nothing pushes back.
pub fn generator_ceiling(w: &Prepared) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    std::thread::scope(|scope| -> Result<f64, String> {
        let sink = std::thread::Builder::new()
            .name("flowbench-sink".into())
            .spawn_scoped(scope, move || -> std::io::Result<u64> {
                let (mut peer, _) = listener.accept()?;
                let mut scratch = vec![0u8; 64 * 1024];
                let mut total = 0u64;
                loop {
                    match peer.read(&mut scratch) {
                        Ok(0) => return Ok(total),
                        Ok(n) => total += n as u64,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            })
            .map_err(|e| format!("spawn sink: {e}"))?;
        let sent = (|| -> Result<Instant, String> {
            let mut stream = connect(addr)?;
            let start = Instant::now();
            stream.write_all(&w.wire).map_err(|e| format!("write: {e}"))?;
            stream.shutdown(Shutdown::Write).map_err(|e| format!("shutdown: {e}"))?;
            Ok(start)
        })();
        if sent.is_err() {
            // The sink may still sit in accept(); give it a peer to see off.
            let _ = TcpStream::connect(addr);
        }
        let received = sink.join().map_err(|_| "the sink thread panicked".to_string())?;
        let start = sent?;
        let wall = start.elapsed().as_secs_f64();
        let received = received.map_err(|e| format!("sink read: {e}"))?;
        if received != w.wire.len() as u64 {
            return Err(format!("the sink read {received} of {} bytes", w.wire.len()));
        }
        Ok(w.packets.len() as f64 / wall)
    })
}

/// Records the paced pass's spans: one `gen.write` per tick, and one
/// `serve.verdict` (trigger packet due → verdict arrived) per traced
/// flow, caused by the tick that wrote its trigger packet. Returns the
/// due-to-verdict latencies in microseconds of *all* flows whose served
/// verdict was taken at the reference point.
pub fn paced_latencies(
    w: &Prepared,
    pass: &ServedPass,
    rate: f64,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let base = tracer.ns_at(pass.start);
    let tick_spans: Vec<u32> = pass
        .ticks
        .iter()
        .map(|t| tracer.record("gen.write", base + t.woke_ns, base + t.written_ns, None, NO_FLOW))
        .collect();
    let mut seen = vec![false; w.tuples.len()];
    let mut latencies = Vec::new();
    for (verdict, arrived) in &pass.inbox.verdicts {
        let Some(&flow) = w.flow_index.get(&verdict.tuple) else { continue };
        if std::mem::replace(&mut seen[flow as usize], true) {
            continue;
        }
        let Some(slot) = w.reference.first[flow as usize] else { continue };
        let expected = &w.reference.verdicts[slot as usize];
        let Some(trigger) = expected.trigger else { continue };
        if verdict.packets != expected.packets || verdict.buffered_bytes != expected.buffered_bytes
        {
            continue;
        }
        let due = due_ns(trigger as usize, rate);
        let arrived_ns = arrived.duration_since(pass.start).as_nanos() as u64;
        latencies.push(arrived_ns.saturating_sub(due) as f64 / 1e3);
        if flow % TRACE_ONE_IN == 0 {
            let tick = pass.ticks.partition_point(|t| t.end <= trigger);
            tracer.record(
                "serve.verdict",
                base + due,
                base + arrived_ns,
                tick_spans.get(tick).copied(),
                flow,
            );
        }
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_packet_is_due_once_and_never_early() {
        for rate in [100_000.0, 300_000.0, 400_000.0, 123_457.0] {
            let n = 5_000;
            // A packet can go out at its due time and not a nanosecond
            // before.
            for i in [0usize, 1, 2, 199, 200, 201, 4_999] {
                let due = due_ns(i, rate);
                assert!(packets_due_by(due, rate, n) > i, "packet {i} sendable when due");
                if due > 0 {
                    assert!(packets_due_by(due - 1, rate, n) <= i, "packet {i} not sendable early");
                }
            }
            // Walking the ticks hands out every packet exactly once, in
            // order, and stops at n.
            let mut sent = 0usize;
            let mut k = 1u64;
            while sent < n {
                let upto = packets_due_by(k * TICK.as_nanos() as u64, rate, n);
                assert!(upto >= sent && upto <= n);
                sent = upto;
                k += 1;
            }
            let expected_ticks = (n as f64 / rate / TICK.as_secs_f64()).ceil() as u64;
            assert!(k - 1 <= expected_ticks + 1, "{} ticks for {expected_ticks}", k - 1);
        }
    }

    #[test]
    fn due_times_follow_the_offered_rate() {
        assert_eq!(due_ns(0, 400_000.0), 0);
        assert_eq!(due_ns(400_000, 400_000.0), 1_000_000_000);
        assert_eq!(due_ns(1, 100_000.0), 10_000);
        assert_eq!(packets_due_by(0, 100_000.0, 10), 1);
        assert_eq!(packets_due_by(1_000_000_000, 100_000.0, 10), 10);
    }
}
