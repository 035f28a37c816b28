//! The event-driven frontend: one reactor thread multiplexing every
//! client socket over level-triggered epoll.
//!
//! # Why a reactor
//!
//! The original frontend spent two threads per connection (blocking
//! reader + blocking writer). That shape cannot reach tens of
//! thousands of concurrent clients: per-connection stacks dwarf the
//! pooled per-flow buffers, and standing up a thousand sockets
//! costs seconds of thread spawning (see `results/BENCH_epoll.json`'s
//! thread-per-connection baseline). The reactor replaces all of those
//! threads with one: sockets are nonblocking, writes buffer in
//! [`WriteBuffer`]s with `EPOLLOUT` re-armed only while bytes are
//! pending, and barriers complete by message instead of by parking.
//!
//! # The packet path
//!
//! Every read lands in one 64 KiB scratch buffer shared by all
//! connections. The connection's [`FrameAssembler`] walks the frames in
//! it where they lie ([`RequestRef`] borrows a `SubmitPacket`'s payload
//! from the scratch), and only an incomplete frame at the end of the
//! read is banked on the connection — one whose frames arrive whole
//! never owns a buffer. A packet's flow ID is looked up in the
//! reactor's [`FlowIdMemo`] (SHA-1 runs only for a tuple it does not
//! hold), then the packet is *staged*: a fixed-size record plus its
//! payload bytes appended to its shard's [`PacketSlab`] — the one copy
//! the payload gets. Every [`ServerConfig::batch_limit`] frames,
//! and before anything that must stay ordered after them, the staged
//! slabs are dispatched: one [`push_packets`](crate::queue::BoundedQueue::push_packets)
//! per shard that has any, which applies admission per packet and
//! leaves the refused ones behind for their `Busy` replies. The staging
//! slabs keep their capacity, so the path allocates nothing per packet.
//!
//! [`ServerConfig::batch_limit`]: crate::server::ServerConfig::batch_limit
//!
//! # Event sources
//!
//! Four token classes multiplex on one epoll instance:
//!
//! | token | source | readiness handling |
//! |---|---|---|
//! | 0 | TCP listener | accept until `EWOULDBLOCK`, register conns |
//! | 1 | wakeup eventfd | drain; outbox + shutdown flags are checked every loop |
//! | 2 | UDP socket | one frame per datagram, pseudo-connections per peer |
//! | 3+ | connections | slab index + 3; read/flush/close state machine |
//!
//! The eventfd is how everything outside the reactor talks to it:
//! shard workers push verdicts into the [`Outbox`] and wake it;
//! `Server::shutdown` sets the stop/finish flags and wakes it. This
//! replaces the old shutdown hack of connecting a throwaway TCP socket
//! to the listener just to unblock `accept`.
//!
//! # Connection state machine
//!
//! ```text
//!   accept ──► OPEN ──(EOF/RDHUP at frame boundary)──► DRAINING
//!                │                                        │ all shards ack
//!                │ (protocol error: Error frame queued)    ▼  Disconnect
//!                └──────────────────────────────────► FLUSHING ──► closed
//!                      (EPOLLERR/EPOLLHUP: peer gone ──► closed immediately)
//! ```
//!
//! A connection that stops sending is not torn down until every shard
//! worker has processed its `Disconnect` barrier — packets it submitted
//! before EOF still classify, and their verdicts still flush to the
//! socket — the same guarantee the blocking frontend provided by
//! joining the writer thread after the reader saw EOF.
//!
//! A verdict is addressed to the connection that sent its flow's latest
//! data packet. Shards keep no per-connection state, so a connection
//! that goes away (closed, reset, or an evicted UDP peer) tells them
//! nothing: connection IDs are never reused, and a reply whose ID is no
//! longer registered is dropped here.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use iustitia::cdb::{shard_index, FlowIdMemo};
use iustitia::features::FeatureExtractor;

use crate::conn::{split_frame, truncation, FrameAssembler, FrontFrame, WriteBuffer};
use crate::metrics::{ServeMetrics, Stage};
use crate::proto::{PacketRef, ProtoError, RequestRef, Response, MAX_FRAME};
use crate::queue::{PacketRecord, PacketSlab};
use crate::server::{Job, Shared};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_UDP: u64 = 2;
const TOKEN_BASE: u64 = 3;

/// Cap on bytes read from one connection per readiness event, so a
/// firehose client cannot starve the other sockets (level-triggered
/// epoll re-signals whatever is left).
const READ_BUDGET: usize = 1 << 20;

/// How long shutdown keeps flushing buffered responses to slow
/// readers before force-closing.
const FLUSH_GRACE: Duration = Duration::from_secs(5);

/// How long the listener stays parked after a persistent accept
/// failure (fd exhaustion and kin) before the reactor retries.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// A UDP peer silent for this long is eligible for eviction when the
/// peer table is under cap pressure.
const UDP_PEER_IDLE: Duration = Duration::from_secs(60);

/// Consecutive `epoll_wait` failures tolerated before the reactor
/// declares itself wedged and exits.
const MAX_WAIT_ERRORS: u32 = 8;

/// A message from the shard workers (or a fan-in gate) to the reactor.
pub(crate) enum OutMsg {
    /// Deliver `response` to the connection (TCP or UDP pseudo-conn).
    Reply {
        /// Target connection id.
        conn_id: u64,
        /// The response to encode onto that connection.
        response: Response,
    },
    /// Every shard has processed this connection's `Disconnect`; close
    /// its socket once the write buffer drains.
    CloseWhenFlushed {
        /// Target connection id.
        conn_id: u64,
    },
}

/// The cross-thread mailbox into the reactor: shard workers push
/// replies here and wake the eventfd; the reactor drains it once per
/// loop iteration, preserving FIFO order (so a flow's verdicts always
/// precede the `DrainComplete` that barriers them).
pub(crate) struct Outbox {
    pending: Mutex<VecDeque<OutMsg>>,
    wake: WakeFd,
}

impl Outbox {
    /// Creates the mailbox and its wakeup eventfd.
    ///
    /// # Errors
    ///
    /// The `eventfd` errno on failure.
    pub(crate) fn new() -> io::Result<Outbox> {
        Ok(Outbox { pending: Mutex::new(VecDeque::new()), wake: WakeFd::new()? })
    }

    /// Wakes the reactor without queueing a message (used by shutdown
    /// to make it re-check the stop/finish flags).
    pub(crate) fn wake(&self) {
        self.wake.wake();
    }

    fn wake_raw_fd(&self) -> std::os::fd::RawFd {
        self.wake.raw_fd()
    }

    fn drain_wake(&self) {
        self.wake.drain();
    }

    /// Queues `response` for delivery to `conn_id` and wakes the
    /// reactor.
    pub(crate) fn reply(&self, conn_id: u64, response: Response) {
        self.push(OutMsg::Reply { conn_id, response });
    }

    fn push(&self, msg: OutMsg) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let was_empty = pending.is_empty();
        // lint: allow(L009) — per reply, not per packet; the deque keeps its capacity across drains
        pending.push_back(msg);
        drop(pending);
        // One eventfd write per empty→non-empty transition, not per
        // message: the reactor drains the whole queue under the same
        // mutex every loop iteration, so whoever finds the queue
        // non-empty knows a wake for this drain cycle is already in
        // flight. Per-verdict wakes cost a syscall per reply and
        // double the reactor's epoll wakeups under load.
        if was_empty {
            self.wake.wake();
        }
    }

    fn drain_into(&self, out: &mut Vec<OutMsg>) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        out.extend(pending.drain(..));
    }
}

impl std::fmt::Debug for Outbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox").finish_non_exhaustive()
    }
}

/// Counts down one ack per shard; the last ack publishes the fan-in
/// result to the outbox. Replaces the blocking `mpsc` ack channel the
/// old reader thread parked on — the reactor can never block on a
/// barrier, so barriers complete via message instead.
pub(crate) struct FanInGate {
    conn_id: u64,
    disconnect: bool,
    remaining: AtomicUsize,
    flushed: AtomicU64,
    outbox: Arc<Outbox>,
}

impl FanInGate {
    /// Gate for a `Drain` barrier over `shards` workers: completion
    /// replies `DrainComplete(total flushed)`.
    pub(crate) fn drain(conn_id: u64, shards: usize, outbox: Arc<Outbox>) -> Arc<FanInGate> {
        Arc::new(FanInGate {
            conn_id,
            disconnect: false,
            remaining: AtomicUsize::new(shards),
            flushed: AtomicU64::new(0),
            outbox,
        })
    }

    /// Gate for a connection teardown over `shards` workers:
    /// completion tells the reactor to close the socket once its write
    /// buffer drains.
    pub(crate) fn disconnect(conn_id: u64, shards: usize, outbox: Arc<Outbox>) -> Arc<FanInGate> {
        Arc::new(FanInGate {
            conn_id,
            disconnect: true,
            remaining: AtomicUsize::new(shards),
            flushed: AtomicU64::new(0),
            outbox,
        })
    }

    /// One shard's ack, carrying how many of the connection's flows it
    /// flushed. The final ack publishes the result.
    pub(crate) fn ack(&self, flushed: u32) {
        self.flushed.fetch_add(u64::from(flushed), Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let total = self.flushed.load(Ordering::Relaxed);
            let msg = if self.disconnect {
                OutMsg::CloseWhenFlushed { conn_id: self.conn_id }
            } else {
                let flows = u32::try_from(total).unwrap_or(u32::MAX);
                OutMsg::Reply { conn_id: self.conn_id, response: Response::DrainComplete(flows) }
            };
            self.outbox.push(msg);
        }
    }
}

/// One TCP connection's reactor-side state.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    token: u64,
    asm: FrameAssembler,
    out: WriteBuffer,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// EOF or protocol error seen: no more reads.
    read_closed: bool,
    /// Disconnect gates already pushed to the shards.
    disconnect_sent: bool,
    /// All shards acked the disconnect: close once `out` drains.
    close_when_flushed: bool,
    /// Queued in the reactor's `dirty` list for this iteration's flush.
    dirty: bool,
    accepted_at: Instant,
}

/// One UDP peer acting as a pseudo-connection (keyed by source
/// address, holding a conn id for verdict routing).
struct UdpPeer {
    addr: SocketAddr,
    first_seen: Instant,
    /// Refreshed on every datagram; drives idle/LRU eviction when the
    /// peer table hits its cap.
    last_seen: Instant,
}

/// Whose request is being handled (determines where direct replies
/// like `Stats` go).
enum Origin {
    Tcp(usize),
    Udp(u64),
}

/// The reactor: owns the listener, the UDP socket, and every
/// connection; runs on its own thread until shutdown.
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    udp: Option<UdpSocket>,
    shared: Arc<Shared>,
    outbox: Arc<Outbox>,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    by_id: HashMap<u64, usize>,
    udp_peers: HashMap<SocketAddr, u64>,
    udp_by_id: HashMap<u64, UdpPeer>,
    udp_out: VecDeque<(SocketAddr, Vec<u8>)>,
    udp_interest: u32,
    /// Serves one-shot `ClassifyBuffer` requests on the reactor thread
    /// (stateless per call; shared across connections).
    extractor: FeatureExtractor,
    /// Flow IDs already hashed on this thread; its hit and miss counts
    /// are the reactor-local source of the `flow_memo_*` metrics.
    flow_memo: FlowIdMemo,
    /// Packets decoded since the last dispatch, one slab per shard.
    staged: Vec<PacketSlab>,
    pending_frames: usize,
    dirty: Vec<usize>,
    out_scratch: Vec<OutMsg>,
    scratch: Vec<u8>,
    reassembly_bytes: u64,
    /// Set after a persistent accept failure: the listener is
    /// deregistered from epoll until this instant so the reactor keeps
    /// servicing (and closing) existing connections instead of
    /// spinning on an accept that cannot succeed.
    accept_pause: Option<Instant>,
}

impl Reactor {
    /// Builds the reactor and registers its root event sources. The
    /// listener (and UDP socket, if any) must already be nonblocking.
    pub(crate) fn new(
        listener: TcpListener,
        udp: Option<UdpSocket>,
        shared: Arc<Shared>,
    ) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        let outbox = Arc::clone(&shared.outbox);
        epoll.add(outbox.wake_raw_fd(), TOKEN_WAKE, EPOLLIN)?;
        if let Some(socket) = &udp {
            epoll.add(socket.as_raw_fd(), TOKEN_UDP, EPOLLIN)?;
        }
        let pipeline = &shared.config.pipeline;
        let extractor =
            FeatureExtractor::new(pipeline.widths.clone(), pipeline.mode.clone(), pipeline.seed);
        let shards = shared.config.shards;
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            udp,
            shared,
            outbox,
            conns: Vec::new(),
            free_slots: Vec::new(),
            by_id: HashMap::new(),
            udp_peers: HashMap::new(),
            udp_by_id: HashMap::new(),
            udp_out: VecDeque::new(),
            udp_interest: EPOLLIN,
            extractor,
            flow_memo: FlowIdMemo::new(),
            staged: (0..shards).map(|_| PacketSlab::default()).collect(),
            pending_frames: 0,
            dirty: Vec::new(),
            out_scratch: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            reassembly_bytes: 0,
            accept_pause: None,
        })
    }

    /// The event loop. Returns when shutdown completes: stop closes
    /// the listener, finish flushes buffered responses (bounded by
    /// [`FLUSH_GRACE`]) and exits.
    pub(crate) fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        let mut finish_deadline: Option<Instant> = None;
        let mut wait_errors = 0u32;

        loop {
            if self.accept_pause.is_some_and(|resume_at| Instant::now() >= resume_at) {
                self.resume_accept();
            }
            let deadline = match (finish_deadline, self.accept_pause) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let timeout_ms = match deadline {
                None => -1,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    i32::try_from(left.as_millis().min(100)).unwrap_or(100)
                }
            };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => {
                    wait_errors = 0;
                    n
                }
                // A failing epoll_wait must not become a hot loop:
                // back off, and if it keeps failing (EBADF/EINVAL —
                // the epoll fd itself is broken) the reactor is
                // unrecoverable, so exit instead of spinning forever.
                #[expect(
                    clippy::print_stderr,
                    reason = "the reactor thread is dying and can no longer serve Stats; \
                              stderr is the only channel left"
                )]
                Err(e) => {
                    wait_errors += 1;
                    if wait_errors >= MAX_WAIT_ERRORS {
                        eprintln!(
                            "iustitia-reactor: epoll_wait failed {wait_errors} times, exiting: {e}"
                        );
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    0
                }
            };

            // Connections first, accepts last: a slot freed by a close
            // in this batch is never reused while the batch still
            // holds an event for its old occupant.
            let mut accept_pending = false;
            for ev in events.iter().take(n) {
                let ready = ev.events;
                match ev.token {
                    TOKEN_LISTENER => accept_pending = true,
                    TOKEN_WAKE => self.outbox.drain_wake(),
                    TOKEN_UDP => self.udp_ready(ready),
                    token => self.conn_ready(token, ready),
                }
            }
            self.dispatch_pending();
            self.process_outbox();
            if accept_pending && finish_deadline.is_none() {
                self.accept_ready();
            }
            self.flush_dirty();
            self.publish_gauges();

            if self.listener.is_some() && self.shared.stop.load(Ordering::SeqCst) {
                // Stop accepting; existing connections keep serving
                // until the workers finish draining.
                if let Some(listener) = self.listener.take() {
                    let _ = self.epoll.delete(listener.as_raw_fd());
                }
                self.accept_pause = None;
            }
            if self.shared.finish.load(Ordering::SeqCst) {
                let deadline = *finish_deadline.get_or_insert_with(|| Instant::now() + FLUSH_GRACE);
                // `finish` is set only after every worker has joined, but
                // their last verdicts may have reached the outbox after
                // this iteration's `process_outbox`: take them now, or
                // the loop could end with them still queued.
                self.process_outbox();
                self.flush_all();
                if self.all_flushed() || Instant::now() >= deadline {
                    break;
                }
            }
        }
    }

    // ---- accept path ----------------------------------------------

    fn accept_ready(&mut self) {
        if self.accept_pause.is_some() {
            return;
        }
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient per-connection failures: that one
                // connection is gone, keep accepting the rest.
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::ConnectionAborted => {}
                // EMFILE/ENFILE and other persistent failures leave the
                // pending connection queued, so retrying immediately
                // can never make progress — and only this thread can
                // close fds to relieve the pressure. Park the listener
                // and get back to epoll_wait.
                Err(_) => {
                    self.pause_accept();
                    return;
                }
            }
        }
    }

    /// Deregisters the listener for [`ACCEPT_BACKOFF`] after a
    /// persistent accept failure; without this, level-triggered epoll
    /// would re-report the listener every iteration and the loop would
    /// spin on a failing `accept`.
    fn pause_accept(&mut self) {
        let Some(listener) = &self.listener else { return };
        let _ = self.epoll.delete(listener.as_raw_fd());
        self.accept_pause = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    /// Re-registers the listener once the accept backoff expires. If
    /// the re-add itself fails, the backoff is extended and retried.
    fn resume_accept(&mut self) {
        self.accept_pause = None;
        let Some(listener) = &self.listener else { return };
        if self.epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_err() {
            self.accept_pause = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let conn_id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        ServeMetrics::add(&self.shared.metrics.connections, 1);
        let idx = self.free_slots.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = TOKEN_BASE + idx as u64;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
            self.free_slots.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            conn_id,
            token,
            asm: FrameAssembler::new(),
            out: WriteBuffer::new(),
            interest,
            read_closed: false,
            disconnect_sent: false,
            close_when_flushed: false,
            dirty: false,
            accepted_at: Instant::now(),
        });
        self.by_id.insert(conn_id, idx);
    }

    // ---- connection path ------------------------------------------

    fn conn_ready(&mut self, token: u64, ready: u32) {
        let idx = (token.saturating_sub(TOKEN_BASE)) as usize;
        if self.conns.get(idx).is_none_or(|slot| slot.is_none()) {
            return; // stale event for a slot closed earlier this batch
        }
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            // The peer is gone in both directions; buffered responses
            // are undeliverable.
            self.close_conn(idx);
            return;
        }
        if ready & EPOLLOUT != 0 {
            self.flush_conn(idx);
        }
        if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_conn(idx);
        }
        self.update_interest(idx);
    }

    /// Reads whatever the socket has (up to [`READ_BUDGET`]) through the
    /// shared scratch buffer, handling every complete frame of each
    /// read where it lies.
    fn read_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.read_closed {
            return;
        }
        // The walk borrows the assembler and the scratch while frames
        // are handled with all of `self`; both come back below.
        let mut asm = std::mem::take(&mut conn.asm);
        let mut scratch = std::mem::take(&mut self.scratch);
        let banked_before = asm.buffered_bytes() as u64;
        let saw_eof = self.read_frames(idx, &mut asm, &mut scratch);
        self.scratch = scratch;
        self.reassembly_bytes = self.reassembly_bytes.wrapping_sub(banked_before);
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            self.reassembly_bytes = self.reassembly_bytes.wrapping_add(asm.buffered_bytes() as u64);
            conn.asm = asm;
        }
        if saw_eof {
            self.read_eof(idx);
        }
    }

    /// The read loop of [`read_conn`](Self::read_conn): returns whether
    /// the peer's EOF was seen.
    fn read_frames(&mut self, idx: usize, asm: &mut FrameAssembler, scratch: &mut [u8]) -> bool {
        let mut read_total = 0usize;
        while read_total < READ_BUDGET {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { break };
            if conn.read_closed {
                break;
            }
            match conn.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    read_total += n;
                    self.process_frames(idx, asm, scratch.get(..n).unwrap_or(&[]));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(idx);
                    break;
                }
            }
        }
        false
    }

    /// Decodes and handles every complete frame of one read, dispatching
    /// to the shards each time `batch_limit` frames accumulate; the
    /// incomplete frame at its end, if any, stays banked in `asm`.
    fn process_frames(&mut self, idx: usize, asm: &mut FrameAssembler, read: &[u8]) {
        let batch_limit = self.shared.config.batch_limit;
        let mut walk = asm.walk(read);
        loop {
            let request = match walk.next_frame() {
                Ok(Some((type_byte, body))) => RequestRef::decode(type_byte, body),
                Ok(None) => return,
                Err(e) => Err(e),
            };
            match request {
                Ok(request) => {
                    self.handle_request(&Origin::Tcp(idx), request);
                    self.pending_frames += 1;
                    if self.pending_frames >= batch_limit {
                        self.dispatch_pending();
                    }
                }
                Err(e) => {
                    self.protocol_error(idx, &e);
                    return;
                }
            }
        }
    }

    /// EOF from the peer: clean at a frame boundary (begin the
    /// drain-then-close sequence), truncation otherwise (protocol
    /// error, mirroring blocking `read_frame`).
    fn read_eof(&mut self, idx: usize) {
        let eof_error = {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.read_closed {
                return;
            }
            conn.read_closed = true;
            conn.asm.eof_error()
        };
        if let Some(err) = eof_error {
            self.queue_response(idx, &Response::Error(err.to_string()));
        }
        self.begin_disconnect(idx);
    }

    /// A malformed/oversized/truncated frame: everything decoded so
    /// far is dispatched, the peer gets an `Error` frame explaining
    /// why, and the connection drains then closes — the same sequence
    /// the blocking frontend performed.
    fn protocol_error(&mut self, idx: usize, err: &ProtoError) {
        self.dispatch_pending();
        self.queue_response(idx, &Response::Error(err.to_string()));
        let Some(conn) = self.conns[idx].as_mut() else { return };
        conn.read_closed = true;
        self.begin_disconnect(idx);
    }

    /// Pushes this connection's `Disconnect` barrier through every
    /// shard, so the verdicts its packets earned before EOF are flushed
    /// before the socket closes.
    fn begin_disconnect(&mut self, idx: usize) {
        let conn_id = {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.disconnect_sent {
                return;
            }
            conn.disconnect_sent = true;
            conn.conn_id
        };
        // Packets this connection submitted must reach the shards
        // before the barrier behind them.
        self.dispatch_pending();
        let gate =
            FanInGate::disconnect(conn_id, self.shared.queues.len(), Arc::clone(&self.outbox));
        for queue in &self.shared.queues {
            if !queue.push_control(Job::Disconnect { gate: Arc::clone(&gate) }) {
                // Queue already closed (server shutting down): the
                // workers flush every verdict on their way out; count
                // the shard as acked so the close still completes.
                gate.ack(0);
            }
        }
    }

    // ---- request handling -----------------------------------------

    fn origin_conn_id(&self, origin: &Origin) -> Option<u64> {
        match origin {
            Origin::Tcp(idx) => self.conns.get(*idx).and_then(Option::as_ref).map(|c| c.conn_id),
            Origin::Udp(conn_id) => Some(*conn_id),
        }
    }

    fn reply_direct(&mut self, origin: &Origin, response: &Response) {
        match origin {
            Origin::Tcp(idx) => self.queue_response(*idx, response),
            Origin::Udp(conn_id) => {
                if let Some(peer) = self.udp_by_id.get(conn_id) {
                    let addr = peer.addr;
                    self.udp_send(addr, response);
                }
            }
        }
    }

    /// Resolves a packet's flow ID and stages it for its shard: the
    /// record, and the one copy its payload gets. [`Stage::Hash`] times
    /// the SHA-1 of a memo miss; a packet whose ID the memo holds reads
    /// no clock and touches no shared counter for it.
    fn stage_packet(&mut self, conn_id: u64, packet: &PacketRef<'_>) {
        let flow = match self.flow_memo.get(&packet.tuple) {
            Some(flow) => flow,
            None => {
                let t0 = Instant::now();
                let flow = self.flow_memo.fill(&packet.tuple);
                let nanos = t0.elapsed().as_nanos() as u64;
                ServeMetrics::record(&self.shared.metrics, Stage::Hash, nanos);
                flow
            }
        };
        let shard = shard_index(&flow, self.shared.config.shards);
        if let Some(staged) = self.staged.get_mut(shard) {
            let record =
                PacketRecord::new(packet.timestamp, packet.tuple, packet.flags, flow, conn_id);
            staged.push(record, packet.payload);
        }
    }

    fn handle_request(&mut self, origin: &Origin, request: RequestRef<'_>) {
        let Some(conn_id) = self.origin_conn_id(origin) else { return };
        match request {
            RequestRef::SubmitPacket(packet) => self.stage_packet(conn_id, &packet),
            RequestRef::ClassifyBuffer(data) => {
                let t0 = Instant::now();
                let buffer_size = self.shared.config.pipeline.buffer_size;
                let prefix = data.get(..buffer_size).unwrap_or(data);
                let features = self.extractor.extract(prefix);
                let label = self.shared.model.predict(&features);
                self.shared.metrics.record(Stage::Classify, t0.elapsed().as_nanos() as u64);
                ServeMetrics::add(&self.shared.metrics.classify_requests, 1);
                self.reply_direct(origin, &Response::ClassifyResult(label));
            }
            RequestRef::Stats => {
                // Account for earlier submits in this batch first (and
                // write out any Busy rejections they produced), so a
                // client's own submit→stats ordering is reflected.
                self.dispatch_pending();
                self.process_outbox();
                let snapshot = self.shared.snapshot();
                self.reply_direct(origin, &Response::Stats(Box::new(snapshot)));
            }
            RequestRef::Drain => {
                // Barrier: everything submitted before the drain must
                // reach the shards before the drain jobs do.
                self.dispatch_pending();
                let gate =
                    FanInGate::drain(conn_id, self.shared.queues.len(), Arc::clone(&self.outbox));
                for queue in &self.shared.queues {
                    if !queue.push_control(Job::Drain { conn_id, gate: Arc::clone(&gate) }) {
                        gate.ack(0);
                    }
                }
            }
        }
    }

    /// Moves each shard's staged packets into its queue under one lock
    /// acquisition and applies the admission outcome: `Busy` replies
    /// for refused packets, drop counters for evictions. This is the
    /// reactor's event-dispatch entry point into the shard fan-in.
    pub(crate) fn dispatch_pending(&mut self) {
        self.pending_frames = 0;
        // This thread is the counts' only writer, so publishing them is
        // two plain stores per dispatch, not an atomic add per packet.
        let metrics = &self.shared.metrics;
        metrics.flow_memo_hits.store(self.flow_memo.hits(), Ordering::Relaxed);
        metrics.flow_memo_misses.store(self.flow_memo.misses(), Ordering::Relaxed);
        for (staged, queue) in self.staged.iter_mut().zip(&self.shared.queues) {
            if staged.is_empty() {
                continue;
            }
            let submitted = staged.len() as u64;
            let dropped = queue.push_packets(staged) as u64;
            let rejected = staged.len() as u64;
            ServeMetrics::add(&self.shared.metrics.packets, submitted.saturating_sub(rejected));
            ServeMetrics::add(&self.shared.metrics.busy_rejects, rejected);
            ServeMetrics::add(&self.shared.metrics.dropped_oldest, dropped);
            for refused in staged.records() {
                self.outbox.reply(refused.conn_id, Response::Busy(refused.tuple));
            }
            staged.clear();
        }
    }

    // ---- response path --------------------------------------------

    /// Encodes one response into the connection's write buffer. An
    /// unencodable response (a server bug, not a peer failure)
    /// degrades to a protocol `Error` frame.
    fn queue_response(&mut self, idx: usize, response: &Response) {
        let encoded = match response.encode() {
            Ok(frame) => Ok(frame),
            Err(e) => Response::Error(format!("unencodable response: {e}")).encode(),
        };
        let Ok((type_byte, body)) = encoded else { return };
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.out.push_frame(type_byte, &body).is_err() {
            return;
        }
        if !conn.dirty {
            conn.dirty = true;
            self.dirty.push(idx);
        }
    }

    /// Flushes every connection touched since the last loop iteration
    /// (batching all responses queued this iteration into one write).
    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for idx in dirty.drain(..) {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { continue };
            conn.dirty = false;
            self.flush_conn(idx);
            self.update_interest(idx);
        }
        self.dirty = dirty;
    }

    /// Writes as much buffered output as the socket accepts; closes on
    /// write failure or when a deferred close finishes flushing.
    fn flush_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        match conn.out.flush_to(&mut conn.stream) {
            Ok(true) => {
                if conn.close_when_flushed {
                    self.close_conn(idx);
                }
            }
            Ok(false) => {} // EWOULDBLOCK: interest update re-arms EPOLLOUT
            Err(_) => self.close_conn(idx),
        }
    }

    /// Re-registers the connection's epoll interest if it changed:
    /// reads while the stream is open, writes only while output is
    /// buffered.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let mut desired = 0u32;
        if !conn.read_closed {
            desired |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.out.is_empty() {
            desired |= EPOLLOUT;
        }
        if desired != conn.interest
            && self.epoll.modify(conn.stream.as_raw_fd(), conn.token, desired).is_ok()
        {
            conn.interest = desired;
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.by_id.remove(&conn.conn_id);
        self.reassembly_bytes =
            self.reassembly_bytes.wrapping_sub(conn.asm.buffered_bytes() as u64);
        self.free_slots.push(idx);
        // Verdicts still owed to the connection find no `by_id` entry
        // and are dropped; connection IDs are never reused.
    }

    // ---- outbox ---------------------------------------------------

    /// Drains the worker→reactor mailbox: encodes replies into
    /// connection write buffers (or UDP datagrams) and applies
    /// deferred closes.
    fn process_outbox(&mut self) {
        let mut msgs = std::mem::take(&mut self.out_scratch);
        self.outbox.drain_into(&mut msgs);
        for msg in msgs.drain(..) {
            match msg {
                OutMsg::Reply { conn_id, response } => {
                    if matches!(response, Response::FlowVerdict(_)) {
                        self.record_accept_to_verdict(conn_id);
                    }
                    if matches!(response, Response::DrainComplete(_)) {
                        ServeMetrics::add(&self.shared.metrics.drains, 1);
                    }
                    if let Some(&idx) = self.by_id.get(&conn_id) {
                        self.queue_response(idx, &response);
                    } else if let Some(peer) = self.udp_by_id.get(&conn_id) {
                        let addr = peer.addr;
                        self.udp_send(addr, &response);
                    }
                    // Neither: the connection closed before its reply
                    // could be delivered; drop it, as the old writer
                    // thread did when its socket died.
                }
                OutMsg::CloseWhenFlushed { conn_id } => {
                    if let Some(&idx) = self.by_id.get(&conn_id) {
                        if let Some(conn) = self.conns[idx].as_mut() {
                            conn.close_when_flushed = true;
                            if conn.out.is_empty() {
                                self.close_conn(idx);
                            }
                        }
                    }
                }
            }
        }
        self.out_scratch = msgs;
    }

    fn record_accept_to_verdict(&self, conn_id: u64) {
        let since = if let Some(&idx) = self.by_id.get(&conn_id) {
            self.conns.get(idx).and_then(Option::as_ref).map(|c| c.accepted_at)
        } else {
            self.udp_by_id.get(&conn_id).map(|p| p.first_seen)
        };
        if let Some(accepted_at) = since {
            self.shared.metrics.accept_to_verdict.record(accepted_at.elapsed().as_nanos() as u64);
        }
    }

    // ---- UDP adapter ----------------------------------------------

    fn udp_ready(&mut self, ready: u32) {
        if ready & EPOLLOUT != 0 {
            self.udp_flush();
        }
        if ready & EPOLLIN != 0 {
            loop {
                let Some(socket) = &self.udp else { return };
                match socket.recv_from(&mut self.scratch) {
                    Ok((n, addr)) => {
                        ServeMetrics::add(&self.shared.metrics.udp_datagrams, 1);
                        self.udp_datagram(addr, n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
        self.udp_update_interest();
    }

    /// One datagram = exactly one frame (same length-prefixed format
    /// as the stream transport, validated by the same assembler),
    /// parsed where `recv_from` put it.
    fn udp_datagram(&mut self, addr: SocketAddr, len: usize) {
        let scratch = std::mem::take(&mut self.scratch);
        self.udp_frame(addr, scratch.get(..len).unwrap_or(&[]));
        self.scratch = scratch;
    }

    fn udp_frame(&mut self, addr: SocketAddr, datagram: &[u8]) {
        let request = match split_frame(datagram) {
            Ok(Some(FrontFrame { type_byte, body, rest: [] })) => {
                RequestRef::decode(type_byte, body)
            }
            // A short frame, or bytes after the one frame: whatever is
            // left over reads as a truncated frame.
            Ok(partial) => {
                let left_over = partial.map_or(datagram, |frame| frame.rest);
                let why = truncation(left_over).map_or_else(
                    || "datagram must contain exactly one frame".to_string(),
                    |e| e.to_string(),
                );
                self.udp_send(addr, &Response::Error(why));
                return;
            }
            Err(e) => Err(e),
        };
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                self.udp_send(addr, &Response::Error(e.to_string()));
                return;
            }
        };
        let conn_id = match self.udp_peers.get(&addr) {
            Some(&id) => {
                if let Some(peer) = self.udp_by_id.get_mut(&id) {
                    peer.last_seen = Instant::now();
                }
                id
            }
            None => {
                if self.udp_by_id.len() >= self.shared.config.max_udp_peers {
                    self.evict_udp_peers();
                }
                if self.udp_by_id.len() >= self.shared.config.max_udp_peers {
                    // Only possible with a zero cap (UDP effectively
                    // disabled by configuration).
                    self.udp_send(addr, &Response::Error("too many UDP peers".into()));
                    return;
                }
                let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let now = Instant::now();
                self.udp_peers.insert(addr, id);
                self.udp_by_id.insert(id, UdpPeer { addr, first_seen: now, last_seen: now });
                id
            }
        };
        self.handle_request(&Origin::Udp(conn_id), request);
    }

    /// Makes room in the peer table: drops every peer idle for
    /// [`UDP_PEER_IDLE`], or failing that the single least-recently-seen
    /// peer, so a new peer can always register — a stream of spoofed
    /// source addresses recycles table slots instead of permanently
    /// exhausting them.
    fn evict_udp_peers(&mut self) {
        let now = Instant::now();
        let mut evict: Vec<u64> = self
            .udp_by_id
            .iter()
            .filter(|(_, peer)| now.duration_since(peer.last_seen) >= UDP_PEER_IDLE)
            .map(|(&id, _)| id)
            .collect();
        if evict.is_empty() {
            evict.extend(
                self.udp_by_id.iter().min_by_key(|(_, peer)| peer.last_seen).map(|(&id, _)| id),
            );
        }
        for id in evict {
            self.forget_udp_peer(id);
        }
    }

    /// Removes one UDP pseudo-connection. Verdicts still owed to it are
    /// dropped on arrival, exactly as a closed TCP connection's are; a
    /// returning peer gets a fresh ID, and its next data packet makes
    /// it the flow's owner again.
    fn forget_udp_peer(&mut self, conn_id: u64) {
        let Some(peer) = self.udp_by_id.remove(&conn_id) else { return };
        self.udp_peers.remove(&peer.addr);
    }

    /// Encodes a response as a single datagram; on `EWOULDBLOCK` the
    /// datagram queues and write interest is armed on the UDP socket.
    fn udp_send(&mut self, addr: SocketAddr, response: &Response) {
        let encoded = match response.encode() {
            Ok(frame) => Ok(frame),
            Err(e) => Response::Error(format!("unencodable response: {e}")).encode(),
        };
        let Ok((type_byte, body)) = encoded else { return };
        if body.len() > MAX_FRAME {
            return;
        }
        let mut datagram = Vec::with_capacity(body.len() + 5);
        let Ok(()) = crate::proto::write_frame(&mut datagram, type_byte, &body) else { return };
        let Some(socket) = &self.udp else { return };
        if !self.udp_out.is_empty() {
            self.udp_out.push_back((addr, datagram));
            return;
        }
        match socket.send_to(&datagram, addr) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.udp_out.push_back((addr, datagram));
            }
            // Sent, or an unreachable peer (nothing to do for a
            // datagram transport).
            _ => {}
        }
    }

    fn udp_flush(&mut self) {
        while let Some((addr, datagram)) = self.udp_out.front() {
            let Some(socket) = &self.udp else { return };
            match socket.send_to(datagram, *addr) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                _ => {
                    self.udp_out.pop_front();
                }
            }
        }
    }

    fn udp_update_interest(&mut self) {
        let Some(socket) = &self.udp else { return };
        let desired = if self.udp_out.is_empty() { EPOLLIN } else { EPOLLIN | EPOLLOUT };
        if desired != self.udp_interest
            && self.epoll.modify(socket.as_raw_fd(), TOKEN_UDP, desired).is_ok()
        {
            self.udp_interest = desired;
        }
    }

    // ---- gauges & shutdown ----------------------------------------

    fn publish_gauges(&self) {
        let open = (self.by_id.len() + self.udp_by_id.len()) as u64;
        self.shared.metrics.open_connections.store(open, Ordering::Relaxed);
        self.shared.metrics.reassembly_buffer_bytes.store(self.reassembly_bytes, Ordering::Relaxed);
    }

    fn flush_all(&mut self) {
        self.udp_flush();
        for idx in 0..self.conns.len() {
            if self.conns[idx].as_ref().is_some_and(|c| !c.out.is_empty()) {
                self.flush_conn(idx);
                self.update_interest(idx);
            }
        }
    }

    fn all_flushed(&self) -> bool {
        self.udp_out.is_empty() && self.conns.iter().flatten().all(|conn| conn.out.is_empty())
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("open_conns", &self.by_id.len())
            .field("udp_peers", &self.udp_by_id.len())
            .finish_non_exhaustive()
    }
}
