//! Bounded per-shard ingress queues with configurable admission
//! control.
//!
//! `std::sync::mpsc` cannot evict from the head of a full channel, so
//! backpressure policies are built on a plain `Mutex` + `Condvar` pair.
//! Producers push whole batches under one lock acquisition; the
//! consumer drains the entire queue per wakeup, so lock traffic
//! amortizes to O(1) per batch on both sides.
//!
//! One [`BoundedQueue`] carries two kinds of traffic under that one
//! lock:
//!
//! * **Items** of the queue's type `T` — [`push_batch`](BoundedQueue::push_batch),
//!   [`push_control`](BoundedQueue::push_control),
//!   [`pop_all`](BoundedQueue::pop_all). The server's items are its
//!   control jobs (drain barriers, disconnects).
//! * **Packets**, as a [`PacketSlab`]: fixed-size [`PacketRecord`]s plus
//!   one byte vector their payloads are appended to. The reactor stages
//!   a shard's packets in a slab of its own and
//!   [`push_packets`](BoundedQueue::push_packets) moves the admitted
//!   ones over; the shard worker's [`pop_into`](BoundedQueue::pop_into)
//!   takes everything queued by **swapping** its emptied buffers in.
//!   Nothing is allocated, boxed or freed per packet, the buffers on
//!   both sides keep their capacity, and the lock is held for a swap.
//!
//! Admission is packet-granular: the capacity counts packets, a full
//! queue refuses (or, under [`AdmissionPolicy::DropOldest`], evicts)
//! one packet at a time, and an item pushed with `push_control` is
//! never refused and stays ordered after every packet pushed before it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use iustitia::cdb::FlowId;
use iustitia::pipeline::PacketView;
use iustitia_netsim::{FiveTuple, TcpFlags};

use crate::conn::drop_front;

/// What to do with new packets when a shard's ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse the newcomer and tell the client `Busy` — a router
    /// shedding load at the edge. Keeps already-buffered flows intact.
    #[default]
    RejectBusy,
    /// Evict the oldest queued packet to admit the newcomer — favors
    /// fresh traffic over a stale backlog.
    DropOldest,
}

/// Outcome of a batched push.
#[derive(Debug, Default)]
pub struct PushOutcome<T> {
    /// Items refused admission (RejectBusy only).
    pub rejected: Vec<T>,
    /// Items evicted from the head (DropOldest only).
    pub dropped: Vec<T>,
}

/// One packet in a [`PacketSlab`]: everything about it but its payload
/// bytes, which lie in the slab's byte vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Capture time in seconds from trace start.
    pub timestamp: f64,
    /// The connection that submitted the packet.
    pub conn_id: u64,
    /// Where the payload starts in the slab's bytes.
    offset: usize,
    /// Payload length.
    len: u32,
    /// Flow 5-tuple.
    pub tuple: FiveTuple,
    /// Flow ID of `tuple`.
    pub flow: FlowId,
    /// TCP flags (empty for UDP).
    pub flags: TcpFlags,
}

impl PacketRecord {
    /// A record for a packet whose payload [`PacketSlab::push`] will
    /// place.
    #[must_use]
    pub fn new(
        timestamp: f64,
        tuple: FiveTuple,
        flags: TcpFlags,
        flow: FlowId,
        conn_id: u64,
    ) -> PacketRecord {
        PacketRecord { timestamp, conn_id, offset: 0, len: 0, tuple, flow, flags }
    }
}

/// A run of packets in arrival order: their [`PacketRecord`]s and one
/// byte vector holding their payloads back to back.
#[derive(Debug, Default)]
pub struct PacketSlab {
    records: Vec<PacketRecord>,
    bytes: Vec<u8>,
    /// Records before this index were evicted (`DropOldest`) and await
    /// compaction; everything from it on is live.
    head: usize,
}

/// A packet of a [`PacketSlab`], as the pipeline reads it.
#[derive(Debug, Clone, Copy)]
pub struct SlabPacket<'a> {
    /// The packet's record.
    pub record: &'a PacketRecord,
    /// Its payload, in the slab's bytes.
    pub payload: &'a [u8],
}

impl PacketView for SlabPacket<'_> {
    fn flow(&self) -> FlowId {
        self.record.flow
    }

    fn tuple(&self) -> FiveTuple {
        self.record.tuple
    }

    fn owner(&self) -> u64 {
        self.record.conn_id
    }

    fn timestamp(&self) -> f64 {
        self.record.timestamp
    }

    fn flags(&self) -> TcpFlags {
        self.record.flags
    }

    fn payload(&self) -> &[u8] {
        self.payload
    }
}

impl PacketSlab {
    /// Appends a packet, copying `payload` to the end of the slab's
    /// bytes. A payload beyond `u32::MAX` bytes (no frame can carry
    /// one) is cut there.
    pub fn push(&mut self, mut record: PacketRecord, payload: &[u8]) {
        record.len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        record.offset = self.bytes.len();
        // lint: allow(L009) — each of a payload's two copies (staging slab, then queue slab); a slab keeps its capacity from batch to batch
        self.bytes.extend_from_slice(payload.get(..record.len as usize).unwrap_or(payload));
        self.records.push(record);
    }

    /// The live records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[PacketRecord] {
        self.records.get(self.head..).unwrap_or(&[])
    }

    /// Live packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether no live packet is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload of one of this slab's records.
    #[must_use]
    pub fn payload(&self, record: &PacketRecord) -> &[u8] {
        let end = record.offset.saturating_add(record.len as usize);
        self.bytes.get(record.offset..end).unwrap_or(&[])
    }

    /// One of this slab's records together with its payload.
    #[must_use]
    pub fn packet<'a>(&'a self, record: &'a PacketRecord) -> SlabPacket<'a> {
        SlabPacket { record, payload: self.payload(record) }
    }

    /// Forgets every packet, keeping both allocations.
    pub fn clear(&mut self) {
        self.records.clear();
        self.bytes.clear();
        self.head = 0;
    }

    /// Evicts the oldest live packet, if there is one.
    fn evict_oldest(&mut self) {
        if self.head < self.records.len() {
            self.head += 1;
        }
    }

    /// Drops the evicted records and their payload bytes once they
    /// outnumber the live ones — so each eviction pays O(1) amortized,
    /// and a slab never holds more dead packets than live ones. Returns
    /// how many records went, for the caller to rebase positions by.
    fn reclaim(&mut self) -> usize {
        let dead = self.head;
        if dead == 0 || dead < self.records.len() / 2 {
            return 0;
        }
        let cut = self.records().first().map_or(self.bytes.len(), |oldest| oldest.offset);
        drop_front(&mut self.records, dead);
        drop_front(&mut self.bytes, cut);
        for record in &mut self.records {
            record.offset -= cut;
        }
        self.head = 0;
        dead
    }
}

/// Everything one [`BoundedQueue::pop_into`] took off a queue.
#[derive(Debug)]
pub struct Drained<T> {
    /// The packets, in arrival order.
    pub packets: PacketSlab,
    /// The items pushed with `push_control` or `push_batch`, in order,
    /// each with its place among the packets: how many of
    /// `packets.records()` were pushed before it.
    pub items: VecDeque<(usize, T)>,
}

impl<T> Default for Drained<T> {
    fn default() -> Self {
        Drained { packets: PacketSlab::default(), items: VecDeque::new() }
    }
}

struct Inner<T> {
    /// Queued items, each stamped with `packets.records.len()` at the
    /// time of its push: its place among the packets.
    items: VecDeque<(usize, T)>,
    packets: PacketSlab,
    closed: bool,
}

/// A bounded MPSC queue with pluggable full-queue behavior.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    policy: AdmissionPolicy,
    /// Times the state mutex has been locked, over the queue's whole
    /// life. Every path goes through [`lock_state`](Self::lock_state),
    /// so this observably proves the batch amortization: a burst of N
    /// packets costs O(N / batch) acquisitions, not O(N).
    lock_acquisitions: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items and, beside
    /// them, at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                packets: PacketSlab::default(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            policy,
            lock_acquisitions: AtomicU64::new(0),
        }
    }

    /// How many times the queue mutex has been acquired so far.
    ///
    /// Condvar re-acquisitions inside a blocked pop are not counted:
    /// the consumer's cost per wakeup is the single
    /// [`lock_state`](Self::lock_state) call that drains the backlog.
    #[must_use]
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// The configured admission policy.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Locks the queue state, recovering from a poisoned mutex.
    ///
    /// A panicking producer (e.g. a batch iterator that panics
    /// mid-push) poisons the lock, but the guarded state — the item
    /// deque, the packet slab and a closed flag — is consistent after
    /// every individual mutation, so the guard is recovered via
    /// `into_inner` semantics rather than wedging the whole shard
    /// behind the poison.
    fn lock_state(&self) -> MutexGuard<'_, Inner<T>> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a batch of items under one lock acquisition, applying the
    /// admission policy per item. Items pushed after the queue is
    /// closed are returned as rejected.
    pub fn push_batch(&self, batch: impl IntoIterator<Item = T>) -> PushOutcome<T> {
        let mut outcome = PushOutcome { rejected: Vec::new(), dropped: Vec::new() };
        let mut inner = self.lock_state();
        let mark = inner.packets.records.len();
        let mut pushed = false;
        for item in batch {
            if inner.closed {
                outcome.rejected.push(item);
                continue;
            }
            if inner.items.len() >= self.capacity {
                match self.policy {
                    AdmissionPolicy::RejectBusy => {
                        outcome.rejected.push(item);
                        continue;
                    }
                    AdmissionPolicy::DropOldest => {
                        if let Some((_, evicted)) = inner.items.pop_front() {
                            outcome.dropped.push(evicted);
                        }
                    }
                }
            }
            inner.items.push_back((mark, item));
            pushed = true;
        }
        drop(inner);
        if pushed {
            self.not_empty.notify_one();
        }
        outcome
    }

    /// Pushes a single control item, bypassing the capacity check (so
    /// barriers like drain/stop can never be refused). It stays behind
    /// every packet pushed before it. Returns `false` if the queue is
    /// closed.
    pub fn push_control(&self, item: T) -> bool {
        let mut inner = self.lock_state();
        if inner.closed {
            return false;
        }
        let mark = inner.packets.records.len();
        inner.items.push_back((mark, item));
        drop(inner);
        self.not_empty.notify_one();
        true
    }

    /// Moves the packets of `staged` into the queue under one lock
    /// acquisition, applying the admission policy per packet, in order:
    /// a packet that finds `capacity` packets queued is refused
    /// (`RejectBusy`) or evicts the oldest queued packet
    /// (`DropOldest`); every packet is refused once the queue is
    /// closed. The refused records are left in `staged`, in order, for
    /// the caller to answer; the admitted ones are gone from it.
    /// Returns how many queued packets were evicted.
    pub fn push_packets(&self, staged: &mut PacketSlab) -> usize {
        let mut inner = self.lock_state();
        let mut evicted = 0usize;
        let mut refused = 0usize;
        for at in 0..staged.records.len() {
            let Some(&record) = staged.records.get(at) else { break };
            let full = inner.packets.len() >= self.capacity;
            let evicts = full && self.policy == AdmissionPolicy::DropOldest;
            if inner.closed || (full && !evicts) {
                if let Some(slot) = staged.records.get_mut(refused) {
                    *slot = record;
                    refused += 1;
                }
                continue;
            }
            if evicts {
                inner.packets.evict_oldest();
                evicted += 1;
            }
            inner.packets.push(record, staged.payload(&record));
        }
        if evicted > 0 {
            let rebase = inner.packets.reclaim();
            for (mark, _) in &mut inner.items {
                *mark = mark.saturating_sub(rebase);
            }
        }
        let pushed = staged.records.len() > refused;
        drop(inner);
        staged.records.truncate(refused);
        staged.bytes.clear();
        if pushed {
            self.not_empty.notify_one();
        }
        evicted
    }

    /// Blocks until items are available, then drains them all. Returns
    /// `None` once the queue is closed *and* holds no item.
    pub fn pop_all(&self) -> Option<Vec<T>> {
        let mut inner = self.lock_state();
        loop {
            if !inner.items.is_empty() {
                return Some(inner.items.drain(..).map(|(_, item)| item).collect());
            }
            if inner.closed {
                return None;
            }
            // Path form: xtask resolves a `.wait()` method call by name,
            // to the reactor's `Epoll::wait`.
            inner = Condvar::wait(&self.not_empty, inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until packets or items are queued, then takes them all by
    /// swapping `out`'s buffers in — `out` must be empty; the capacity
    /// it brings is what the queue fills next. Returns `false` once the
    /// queue is closed *and* empty.
    pub fn pop_into(&self, out: &mut Drained<T>) -> bool {
        debug_assert!(out.items.is_empty() && out.packets.records.is_empty());
        let mut inner = self.lock_state();
        loop {
            if !inner.items.is_empty() || !inner.packets.is_empty() {
                let inner = &mut *inner;
                std::mem::swap(&mut inner.packets, &mut out.packets);
                std::mem::swap(&mut inner.items, &mut out.items);
                break;
            }
            if inner.closed {
                return false;
            }
            inner = Condvar::wait(&self.not_empty, inner).unwrap_or_else(PoisonError::into_inner);
        }
        drop(inner);
        // Stamps count from the start of the record vector; records
        // evicted since (`DropOldest`) no longer come before anything.
        let (dead, live) = (out.packets.head, out.packets.len());
        for (mark, _) in &mut out.items {
            *mark = mark.saturating_sub(dead).min(live);
        }
        true
    }

    /// Current queue depth: items plus packets.
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.lock_state();
        inner.items.len().saturating_add(inner.packets.len())
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes are rejected, and the pops
    /// return `None` / `false` once the backlog is drained.
    pub fn close(&self) {
        let mut inner = self.lock_state();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reject_busy_refuses_overflow() {
        let q = BoundedQueue::new(2, AdmissionPolicy::RejectBusy);
        let outcome = q.push_batch([1, 2, 3, 4]);
        assert_eq!(outcome.rejected, vec![3, 4]);
        assert!(outcome.dropped.is_empty());
        assert_eq!(q.pop_all(), Some(vec![1, 2]));
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = BoundedQueue::new(2, AdmissionPolicy::DropOldest);
        let outcome = q.push_batch([1, 2, 3, 4]);
        assert!(outcome.rejected.is_empty());
        assert_eq!(outcome.dropped, vec![1, 2]);
        assert_eq!(q.pop_all(), Some(vec![3, 4]));
    }

    #[test]
    fn control_pushes_bypass_capacity() {
        let q = BoundedQueue::new(1, AdmissionPolicy::RejectBusy);
        q.push_batch([1]);
        assert!(q.push_control(99));
        assert_eq!(q.pop_all(), Some(vec![1, 99]));
    }

    #[test]
    fn close_rejects_then_drains() {
        let q = BoundedQueue::new(4, AdmissionPolicy::RejectBusy);
        q.push_batch([1, 2]);
        q.close();
        assert!(!q.push_control(3));
        assert_eq!(q.push_batch([4]).rejected, vec![4]);
        assert_eq!(q.pop_all(), Some(vec![1, 2]));
        assert_eq!(q.pop_all(), None);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging_the_shard() {
        let q = Arc::new(BoundedQueue::new(8, AdmissionPolicy::RejectBusy));
        // A batch iterator that panics mid-iteration panics *while the
        // queue mutex is held*, poisoning it.
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push_batch((0..4).map(|i| if i == 2 { panic!("producer died") } else { i }));
            })
        };
        assert!(poisoner.join().is_err(), "producer must have panicked");
        // The queue must keep working: items pushed before the panic
        // survive, and new pushes/pops go through.
        let outcome = q.push_batch([10, 11]);
        assert!(outcome.rejected.is_empty());
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_all(), Some(vec![0, 1, 10, 11]));
        q.close();
        assert_eq!(q.pop_all(), None);
    }

    #[test]
    fn burst_amortizes_lock_acquisitions() {
        // A burst of 512 packets pushed in reader-sized batches and
        // drained by pop_all must cost a tiny, deterministic number of
        // lock acquisitions — nowhere near one per packet.
        let q = BoundedQueue::new(1024, AdmissionPolicy::RejectBusy);
        let n = 512usize;
        for chunk in (0..n).collect::<Vec<_>>().chunks(64) {
            let outcome = q.push_batch(chunk.iter().copied());
            assert!(outcome.rejected.is_empty());
        }
        let mut drained = 0;
        while drained < n {
            drained += q.pop_all().expect("items pending").len();
        }
        // 8 batch pushes + 1 draining pop: far below the 512 a
        // lock-per-packet design would take.
        assert_eq!(drained, n);
        assert!(
            q.lock_acquisitions() <= 16,
            "expected ~9 acquisitions for a {}-packet burst, got {}",
            n,
            q.lock_acquisitions()
        );
    }

    #[test]
    fn consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(8, AdmissionPolicy::RejectBusy));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.pop_all() {
                    seen.extend(batch);
                }
                seen
            })
        };
        for i in 0..100 {
            let mut pending = vec![i];
            while !pending.is_empty() {
                pending = q.push_batch(pending).rejected;
                if !pending.is_empty() {
                    std::thread::yield_now();
                }
            }
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    // ---- the packet lane -------------------------------------------

    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Packet `id`, recognisable from its tuple, with an `id`-dependent
    /// payload (lengths 0..=6, so empty payloads are covered).
    fn stage(slab: &mut PacketSlab, id: u32) {
        let tuple = FiveTuple::udp(Ipv4Addr::from(id), 7, Ipv4Addr::new(10, 0, 0, 1), 9);
        let record = PacketRecord::new(
            f64::from(id),
            tuple,
            TcpFlags::empty(),
            FlowId::of_tuple(&tuple),
            u64::from(id),
        );
        slab.push(record, &id.to_be_bytes().repeat(2)[..(id % 7) as usize]);
    }

    fn id_of(record: &PacketRecord) -> u32 {
        u32::from(record.tuple.src_ip)
    }

    /// What a queue holds or hands over, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Entry {
        Packet(u32),
        Control(u32),
    }

    /// A drained batch as one sequence: packets (checked to carry the
    /// payload they were staged with) and the controls between them.
    fn sequence(drained: &mut Drained<u32>) -> Vec<Entry> {
        let mut out = Vec::new();
        let mut done = 0;
        let packets = |out: &mut Vec<Entry>, range: std::ops::Range<usize>| {
            for record in &drained.packets.records()[range] {
                let id = id_of(record);
                let payload = drained.packets.payload(record);
                assert_eq!(payload, &id.to_be_bytes().repeat(2)[..(id % 7) as usize]);
                assert_eq!(record.conn_id, u64::from(id));
                out.push(Entry::Packet(id));
            }
        };
        let items: Vec<(usize, u32)> = drained.items.drain(..).collect();
        for (mark, control) in items {
            let at = mark.max(done);
            packets(&mut out, done..at);
            done = at;
            out.push(Entry::Control(control));
        }
        packets(&mut out, done..drained.packets.len());
        drained.packets.clear();
        out
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Dispatch(usize),
        Control,
        Pop,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (1usize..=200).prop_map(Op::Dispatch),
                (1usize..=8).prop_map(Op::Dispatch),
                Just(Op::Control),
                Just(Op::Pop),
            ],
            1..40,
        )
    }

    /// Runs `ops` against a queue and against the model — a plain
    /// `VecDeque` of packets and controls under the admission rules as
    /// the queue documents them — then closes both, comparing every
    /// outcome on the way.
    fn check_against_model(capacity: usize, policy: AdmissionPolicy, ops: &[Op]) {
        let queue: BoundedQueue<u32> = BoundedQueue::new(capacity, policy);
        let mut model: VecDeque<Entry> = VecDeque::new();
        let mut staged = PacketSlab::default();
        let mut drained = Drained::default();
        let mut next_id = 0u32;
        let mut closed = false;
        for op in ops.iter().copied().chain([Op::Pop, Op::Dispatch(3), Op::Control, Op::Pop]) {
            match op {
                Op::Dispatch(n) => {
                    let ids: Vec<u32> = (next_id..next_id + n as u32).collect();
                    next_id += n as u32;
                    ids.iter().for_each(|&id| stage(&mut staged, id));
                    let evicted = queue.push_packets(&mut staged);

                    let (mut busy, mut dropped) = (Vec::new(), 0);
                    for &id in &ids {
                        let queued = model.iter().filter(|e| matches!(e, Entry::Packet(_))).count();
                        if closed || (queued >= capacity && policy == AdmissionPolicy::RejectBusy) {
                            busy.push(id);
                            continue;
                        }
                        if queued >= capacity {
                            let oldest = model.iter().position(|e| matches!(e, Entry::Packet(_)));
                            model.remove(oldest.expect("a full queue holds a packet"));
                            dropped += 1;
                        }
                        model.push_back(Entry::Packet(id));
                    }
                    let refused: Vec<u32> = staged.records().iter().map(id_of).collect();
                    assert_eq!(refused, busy, "the refused packets, in order");
                    assert_eq!(evicted, dropped, "evictions");
                    staged.clear();
                }
                Op::Control => {
                    next_id += 1;
                    assert_eq!(queue.push_control(next_id), !closed, "controls are never refused");
                    if !closed {
                        model.push_back(Entry::Control(next_id));
                    }
                }
                Op::Pop => {
                    if model.is_empty() {
                        // An empty open queue would block; close it
                        // instead, once, and go on pushing.
                        queue.close();
                        closed = true;
                        assert!(!queue.pop_into(&mut drained));
                        continue;
                    }
                    assert!(queue.pop_into(&mut drained));
                    let expected: Vec<Entry> = model.drain(..).collect();
                    assert_eq!(sequence(&mut drained), expected, "what a pop hands over");
                }
            }
            assert_eq!(queue.len(), model.len());
        }
        queue.close();
        assert!(!queue.pop_into(&mut drained), "closed and empty");
        assert_eq!(queue.push_packets(&mut staged), 0);
    }

    proptest! {
        /// The packet lane against the model, for both policies at
        /// capacities around the dispatch size.
        #[test]
        fn packet_admission_matches_the_deque_model(ops in arb_ops()) {
            for capacity in [1, 63, 64, 65, 1024] {
                for policy in [AdmissionPolicy::RejectBusy, AdmissionPolicy::DropOldest] {
                    check_against_model(capacity, policy, &ops);
                }
            }
        }
    }

    #[test]
    fn one_slot_queue_admits_one_packet_of_a_dispatch() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(1, AdmissionPolicy::RejectBusy);
        let mut staged = PacketSlab::default();
        (0..64).for_each(|id| stage(&mut staged, id));
        assert_eq!(queue.push_packets(&mut staged), 0);
        let refused: Vec<u32> = staged.records().iter().map(id_of).collect();
        assert_eq!(refused, (1..64).collect::<Vec<_>>(), "63 Busy replies, in order");
        let mut drained = Drained::default();
        assert!(queue.pop_into(&mut drained));
        assert_eq!(sequence(&mut drained), vec![Entry::Packet(0)]);
    }

    #[test]
    fn pop_swaps_buffers_and_both_sides_keep_their_capacity() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(1024, AdmissionPolicy::RejectBusy);
        let mut staged = PacketSlab::default();
        let mut drained = Drained::default();
        let mut capacities = Vec::new();
        for round in 0..6u32 {
            (0..64).for_each(|i| stage(&mut staged, round * 64 + i));
            queue.push_packets(&mut staged);
            assert!(staged.is_empty());
            assert!(queue.pop_into(&mut drained));
            assert_eq!(drained.packets.len(), 64);
            capacities.push((
                staged.records.capacity(),
                drained.packets.records.capacity(),
                drained.packets.bytes.capacity(),
            ));
            drained.packets.clear();
        }
        // Two slabs alternate between queue and consumer; once both
        // have carried a batch nothing grows any more.
        assert_eq!(capacities[2..].iter().min(), capacities[2..].iter().max());
    }

    #[test]
    fn drop_oldest_keeps_dead_packets_below_live_ones() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(64, AdmissionPolicy::DropOldest);
        let mut staged = PacketSlab::default();
        for round in 0..200u32 {
            (0..16).for_each(|i| stage(&mut staged, round * 16 + i));
            queue.push_packets(&mut staged);
            let inner = queue.lock_state();
            assert!(inner.packets.head <= inner.packets.len(), "dead packets outnumber live ones");
            assert!(inner.packets.bytes.len() <= 2 * 64 * 6);
        }
    }
}
