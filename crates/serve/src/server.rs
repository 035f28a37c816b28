//! The multi-threaded classification server.
//!
//! # Architecture
//!
//! ```text
//!  clients ── TCP ──┐   ┌───────────┐   per-shard bounded queues
//!  clients ── TCP ──┼─► │  reactor  │ ──┬──► [queue 0] ─► worker 0 (Iustitia + CDB)
//!      ...          │   │  (epoll,  │   ├──► [queue 1] ─► worker 1 (Iustitia + CDB)
//!  peers ─── UDP ───┘   │ 1 thread) │   ├──► [queue 2] ─► worker 2 (Iustitia + CDB)
//!  clients ◄────────────│  outbox   │   └──► [queue 3] ─► worker 3 (Iustitia + CDB)
//!                       └───────────┘          (verdicts fan back via the outbox)
//! ```
//!
//! A single [`Reactor`] thread owns every socket: it accepts
//! connections, decodes frames out of nonblocking reads where the read
//! put them, computes flow IDs, and stages packets per shard. Flow-affine
//! work is routed by [`shard_index`](iustitia::cdb::shard_index) to one
//! of `N` *shard workers*, each owning an independent [`Iustitia`]
//! pipeline with its flow table, so no classification state is ever
//! shared and the packet path takes no locks beyond its own shard
//! queue.
//!
//! A packet crosses from the socket to its pipeline with **one copy of
//! its payload and no allocation**: the reactor appends the payload to
//! the shard's staging [`PacketSlab`] beside a fixed-size record
//! (timestamp, tuple, flags, flow ID, connection), a dispatch moves the
//! staged packets into the shard's queue under one lock acquisition,
//! and the worker takes everything queued by swapping its emptied
//! buffers in. A worker has one dispatcher, `process_segment`: it sorts
//! an index of what it drained by flow, runs each flow's stretch
//! through [`Iustitia::process_batch`] on the payloads where they lie,
//! and delivers the pipeline's classification log. Each logged flow
//! names its owner — the connection that sent its latest data packet —
//! so the shard keeps no flow table of its own. Workers push responses
//! into the reactor's outbox and wake its eventfd; the reactor
//! serializes them onto the owning socket, and drops those whose
//! connection has closed.
//!
//! Backpressure is per shard: bounded ingress queues with a
//! configurable [`AdmissionPolicy`], applied packet by packet. The
//! reactor stages every frame a read delivered (up to
//! [`ServerConfig::batch_limit`]) before it dispatches.
//!
//! Shutdown is graceful and has two phases: *stop* closes the listener
//! and the queues, letting every worker drain its backlog, classify
//! all in-flight flows from the bytes they have buffered, and emit
//! final verdicts; *finish* then flushes those verdicts to
//! still-connected clients before the reactor exits. The `Drain`
//! request offers the same barrier per connection at runtime.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

use std::net::{SocketAddr, TcpListener, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use iustitia::model::AnytimeModel;
use iustitia::model::NatureModel;
use iustitia::pipeline::{Iustitia, PipelineConfig, Verdict};

use crate::metrics::{LatencyHistogram, ServeMetrics, ShardStats, Stage};
use crate::proto::{FlowVerdict, Response};
use crate::queue::{AdmissionPolicy, BoundedQueue, Drained, PacketSlab, SlabPacket};
use crate::reactor::{FanInGate, Outbox, Reactor};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shard workers (each with its own pipeline + CDB).
    pub shards: usize,
    /// Per-shard ingress queue capacity, in packets.
    pub queue_capacity: usize,
    /// What to do when a shard queue is full.
    pub admission: AdmissionPolicy,
    /// Maximum frames the reactor decodes per connection batch before
    /// dispatching to the shards.
    pub batch_limit: usize,
    /// Also bind a UDP socket on the same port and serve one-frame
    /// datagrams through the reactor.
    pub udp: bool,
    /// Cap on distinct UDP peers (each a pseudo-connection verdicts are
    /// addressed to) tracked at once. Under cap pressure the reactor
    /// evicts idle peers (least-recently-seen first) rather than
    /// rejecting new ones, so a burst of spoofed source addresses
    /// cannot permanently wedge the datagram adapter.
    pub max_udp_peers: usize,
    /// Pipeline configuration replicated into every shard (each shard
    /// gets a decorrelated RNG seed).
    pub pipeline: PipelineConfig,
    /// Calibrated anytime model (confidence scorer plus per-stage
    /// classifiers), attached to every shard pipeline. Early-exit
    /// probes only run when [`PipelineConfig::anytime`] is also set on
    /// `pipeline`.
    pub anytime: Option<AnytimeModel>,
}

impl ServerConfig {
    /// Defaults: one shard per hardware thread the process may use
    /// ([`std::thread::available_parallelism`]; 1 if that is unknown),
    /// 1024-packet queues, `RejectBusy`, 64-frame batches, UDP enabled
    /// with a 65 536-peer table.
    #[must_use]
    pub fn new(pipeline: PipelineConfig) -> Self {
        ServerConfig {
            shards: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            queue_capacity: 1024,
            admission: AdmissionPolicy::default(),
            batch_limit: 64,
            udp: true,
            max_udp_peers: 65_536,
            pipeline,
            anytime: None,
        }
    }
}

/// Control item on a shard queue (packets travel beside these, in the
/// queue's [`PacketSlab`]).
pub(crate) enum Job {
    /// Barrier: classify all in-flight flows now; the last shard's ack
    /// replies `DrainComplete` through the gate.
    Drain {
        /// The draining connection.
        conn_id: u64,
        /// Fan-in gate counting one ack per shard.
        gate: Arc<FanInGate>,
    },
    /// Barrier: the connection sent EOF, and every packet it submitted
    /// before has been processed. The last shard's ack lets the reactor
    /// close the socket once the verdicts ahead of it are flushed.
    Disconnect {
        /// Fan-in gate counting one ack per shard.
        gate: Arc<FanInGate>,
    },
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) model: Arc<NatureModel>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) queues: Vec<BoundedQueue<Job>>,
    /// Phase 1 of shutdown: stop accepting connections.
    pub(crate) stop: AtomicBool,
    /// Phase 2 of shutdown: workers have drained; flush and exit.
    pub(crate) finish: AtomicBool,
    pub(crate) next_conn_id: AtomicU64,
    /// The worker→reactor mailbox (also carries the wakeup eventfd).
    pub(crate) outbox: Arc<Outbox>,
}

impl Shared {
    /// Full stats snapshot, after storing the queue-lock counter summed
    /// across the shard queues (which own the counts).
    pub(crate) fn snapshot(&self) -> crate::metrics::StatsSnapshot {
        let locks = self.queues.iter().map(BoundedQueue::lock_acquisitions).sum();
        self.metrics.queue_lock_acquisitions.store(locks, Ordering::Relaxed);
        self.metrics.snapshot()
    }
}

/// A running classification server; dropping it (or calling
/// [`shutdown`](Server::shutdown)) drains and joins all threads.
pub struct Server {
    addr: SocketAddr,
    udp_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (TCP, plus UDP on the same port when
    /// `config.udp`) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding the listener or setting
    /// up the reactor's epoll instance and wakeup eventfd.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.batch_limit == 0`.
    pub fn start(
        addr: impl ToSocketAddrs,
        model: NatureModel,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.batch_limit > 0, "batch limit must be positive");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // UDP shares the port number (distinct protocol namespace); a
        // bind failure degrades to TCP-only rather than failing start.
        let udp_socket = if config.udp {
            UdpSocket::bind(addr).ok().filter(|s| s.set_nonblocking(true).is_ok())
        } else {
            None
        };
        let udp_addr = udp_socket.as_ref().and_then(|s| s.local_addr().ok());

        let queues = (0..config.shards)
            .map(|_| BoundedQueue::new(config.queue_capacity, config.admission))
            .collect();
        let metrics = ServeMetrics::with_shards(config.shards);
        let outbox = Arc::new(Outbox::new()?);
        let shared = Arc::new(Shared {
            config,
            model: Arc::new(model),
            metrics,
            queues,
            stop: AtomicBool::new(false),
            finish: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            outbox,
        });

        let mut worker_handles = Vec::with_capacity(shared.config.shards);
        let mut spawn_error = None;
        for shard in 0..shared.config.shards {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("iustitia-shard-{shard}"))
                .spawn(move || shard_worker(&shared, shard))
            {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => {
                    spawn_error = Some(e);
                    break;
                }
            }
        }
        let reactor_result = match spawn_error {
            Some(e) => Err(e),
            None => Reactor::new(listener, udp_socket, Arc::clone(&shared)).and_then(|reactor| {
                std::thread::Builder::new()
                    .name("iustitia-reactor".into())
                    .spawn(move || reactor.run())
            }),
        };
        let reactor_handle = match reactor_result {
            Ok(handle) => handle,
            Err(e) => {
                // Unwind the partial start: close the queues so any
                // already-running workers drain and exit, then report.
                shared.stop.store(true, Ordering::SeqCst);
                for queue in &shared.queues {
                    queue.close();
                }
                for handle in worker_handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        };

        Ok(Server { addr, udp_addr, shared, reactor_handle: Some(reactor_handle), worker_handles })
    }

    /// The bound TCP address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound UDP address, when the datagram adapter is enabled.
    #[must_use]
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// A metrics snapshot, equivalent to the `Stats` request.
    #[must_use]
    pub fn stats(&self) -> crate::metrics::StatsSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, closes the shard queues, waits for every
    /// worker to drain its backlog, classify in-flight flows, and emit
    /// final verdicts, then flushes those verdicts to still-connected
    /// clients before tearing the reactor down.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Phase 1: no new connections, no new work. The eventfd wake
        // replaces the old hack of connecting a throwaway TCP socket
        // to the listener just to unblock a blocking accept.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.outbox.wake();
        for queue in &self.shared.queues {
            queue.close();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // Phase 2: workers have emitted every verdict into the outbox;
        // let the reactor flush them to the sockets and exit.
        self.shared.finish.store(true, Ordering::SeqCst);
        self.shared.outbox.wake();
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How many sorted packets `process_segment` turns into pipeline views
/// at a time. The views borrow the drained slab, so they cannot outlive
/// a call; a fixed array on the stack holds them without allocating.
const VIEW_CHUNK: usize = 64;

/// A shard worker's pipeline with the state its dispatcher carries from
/// segment to segment.
struct Shard<'a> {
    shared: &'a Shared,
    pipeline: Iustitia,
    /// Latest packet timestamp seen: the clock of drains and shutdown.
    last_t: f64,
    /// Scratch: a segment's record positions, each behind the leading
    /// 64 bits of its flow ID, sorted.
    order: Vec<(u64, u32)>,
    /// Scratch: a stretch's verdicts.
    verdicts: Vec<Verdict>,
}

/// One shard worker: owns an [`Iustitia`] pipeline (with its own flow
/// table) and processes its queue until the server shuts down, then
/// drains.
///
/// Each condvar wakeup takes the whole backlog with a single
/// [`BoundedQueue::pop_into`]. The packets between two control jobs
/// (drain barriers, disconnects) form a *segment*; a control job is
/// handled after the segment in front of it, so its ordering guarantees
/// hold. Every segment goes through [`Shard::process_segment`].
fn shard_worker(shared: &Arc<Shared>, shard: usize) {
    let mut config = shared.config.pipeline.clone();
    // Decorrelate per-shard RNG streams.
    config.seed = config.seed.wrapping_add(shard as u64);
    let idle_timeout = config.idle_timeout;
    let mut pipeline = Iustitia::new((*shared.model).clone(), config);
    if let Some(anytime) = &shared.config.anytime {
        pipeline = pipeline.with_anytime(anytime.clone());
    }
    let mut worker =
        Shard { shared, pipeline, last_t: 0.0, order: Vec::new(), verdicts: Vec::new() };
    let gauges = &shared.metrics.shards[shard];
    let mut drained: Drained<Job> = Drained::default();

    while shared.queues[shard].pop_into(&mut drained) {
        let mut done = 0;
        while let Some((mark, job)) = drained.items.pop_front() {
            // Everything submitted before the control job is dispatched
            // before it takes effect.
            let at = mark.max(done);
            worker.process_segment(&drained.packets, done..at);
            done = at;
            match job {
                Job::Drain { conn_id, gate } => {
                    worker.pipeline.sweep_idle(worker.last_t + idle_timeout + 1.0);
                    let flushed = worker.emit_verdicts(Some(conn_id));
                    // Refresh gauges before acking so a Stats request
                    // issued right after the drain sees the swept state.
                    worker.publish(gauges);
                    gate.ack(flushed);
                }
                Job::Disconnect { gate } => gate.ack(0),
            }
        }
        worker.process_segment(&drained.packets, done..drained.packets.len());
        drained.packets.clear();
        // Refresh this shard's gauges once per drained batch: cheap
        // (a few relaxed stores) and fresh enough for a Stats poll.
        worker.publish(gauges);
    }

    // Queue closed: graceful shutdown. Classify every in-flight flow
    // from the bytes it has buffered and emit final verdicts.
    worker.pipeline.sweep_idle(worker.last_t + idle_timeout + 1.0);
    worker.emit_verdicts(None);
    worker.publish(gauges);
}

/// Whether a packet carries payload and does not close its flow — the
/// only kind that can sit inside a stretch rather than end it.
fn plain_data(packet: &SlabPacket<'_>) -> bool {
    !packet.payload.is_empty() && !packet.record.flags.closes_flow()
}

impl Shard<'_> {
    /// Publishes the pipeline's gauges for the `Stats` request.
    fn publish(&self, gauges: &crate::metrics::ShardGauges) {
        gauges.set(&ShardStats {
            pending_flows: self.pipeline.pending_flows() as u64,
            resident_feature_bytes: self.pipeline.resident_feature_bytes() as u64,
            state_pool_hits: self.pipeline.state_pool_hits(),
            state_pool_size: self.pipeline.state_pool_size() as u64,
            early_exit_verdicts: self.pipeline.early_exit_verdicts(),
        });
    }

    /// Dispatches one segment — the records of `slab` at `range`, a
    /// contiguous stretch of packets from a drained batch — through the
    /// pipeline.
    ///
    /// An index of the segment is sorted by flow ID, ties in arrival
    /// order: same-flow packets become adjacent while each flow keeps
    /// its order, so the pipeline resolves every flow's table slot once
    /// per run; the records and their payloads stay where the queue
    /// handed them over. (The sort compares the leading 64 bits of the
    /// SHA-1 flow ID. Should two flows of one segment ever share them,
    /// their packets interleave in arrival order and merely form
    /// shorter stretches.) Cross-flow order within one drained segment
    /// is a scheduling detail — concurrent connections already
    /// interleave arbitrarily in the queue — and the pipeline's
    /// verdicts do not depend on where a packet sequence is cut into
    /// batches.
    ///
    /// The sorted segment is then walked in *stretches*: consecutive
    /// data packets of one flow plus the control or close packet that
    /// follows them, if any. A stretch is one
    /// [`Iustitia::process_batch`] call. (A stretch is also cut where
    /// the walk moves on to its next [`VIEW_CHUNK`] views, which the
    /// same invariance makes harmless.)
    fn process_segment(&mut self, slab: &PacketSlab, range: std::ops::Range<usize>) {
        let records = slab.records().get(range).unwrap_or(&[]);
        let Some(first) = records.first() else {
            return;
        };
        for record in records {
            if record.timestamp > self.last_t {
                self.last_t = record.timestamp;
            }
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        for (record, at) in records.iter().zip(0u32..) {
            order.push((record.flow.lead(), at));
        }
        order.sort_unstable();
        LatencyHistogram::record(&self.shared.metrics.batch_size, records.len() as u64);

        let (mut flows, mut previous) = (0, None);
        // Slots past a chunk's end keep whatever they held; nothing
        // reads them.
        let mut views = [slab.packet(first); VIEW_CHUNK];
        for chunk in order.chunks(VIEW_CHUNK) {
            for (view, &(_, at)) in views.iter_mut().zip(chunk) {
                if let Some(record) = records.get(at as usize) {
                    *view = slab.packet(record);
                }
            }
            let sorted = views.get(..chunk.len()).unwrap_or(&[]);
            for stretch in sorted.chunk_by(|a, b| a.record.flow == b.record.flow && plain_data(a)) {
                let flow = stretch.first().map(|packet| packet.record.flow);
                flows += u64::from(flow != previous);
                previous = flow;
                self.process_stretch(stretch);
            }
        }
        LatencyHistogram::record(&self.shared.metrics.flows_per_batch, flows);
        self.order = order;
    }

    /// Runs one stretch through [`Iustitia::process_batch`], records each
    /// packet's stage, and delivers whatever the stretch classified.
    fn process_stretch(&mut self, stretch: &[SlabPacket<'_>]) {
        if stretch.is_empty() {
            return;
        }
        let t0 = Instant::now();
        self.pipeline.process_batch(stretch, &mut self.verdicts);
        // Attribute the mean per-packet cost to the stage that terminated
        // each packet.
        let per_packet = t0.elapsed().as_nanos() as u64 / stretch.len() as u64;
        let metrics = &self.shared.metrics;
        let mut hits = 0;
        for verdict in &self.verdicts {
            let stage = match verdict {
                Verdict::Ignored => continue,
                Verdict::Hit(_) => {
                    hits += 1;
                    Stage::CdbLookup
                }
                Verdict::Buffering => Stage::BufferFill,
                Verdict::Classified(_) => Stage::Classify,
            };
            ServeMetrics::record(metrics, stage, per_packet);
        }
        if hits > 0 {
            ServeMetrics::add(&metrics.hits, hits);
        }
        self.emit_verdicts(None);
    }

    /// Delivers every newly logged classification, in log order, to the
    /// flow's owner: the connection that sent its latest data packet.
    /// Returns how many were owed to `count_conn`.
    fn emit_verdicts(&mut self, count_conn: Option<u64>) -> u32 {
        let log = self.pipeline.take_log();
        if log.is_empty() {
            return 0;
        }
        let metrics = &self.shared.metrics;
        ServeMetrics::add(&metrics.flows_classified, log.len() as u64);
        let mut matched = 0u32;
        for flow in log {
            LatencyHistogram::record(&metrics.bytes_at_verdict, flow.buffered_bytes as u64);
            if count_conn == Some(flow.owner) {
                matched += 1;
            }
            self.shared.outbox.reply(
                flow.owner,
                Response::FlowVerdict(FlowVerdict {
                    tuple: flow.tuple,
                    label: flow.label,
                    packets: flow.packets,
                    buffered_bytes: flow.buffered_bytes as u32,
                    fill_time: flow.fill_time,
                }),
            );
        }
        matched
    }
}
