//! The declared roots and lock order that drive the interprocedural
//! lints L008–L010: the committed statement of what "the hot path" is.
//!
//! Root specs are `Type::method` (matched against the enclosing `impl`
//! type) or a bare free-function name. A spec that matches no workspace
//! function is itself a hard error, so renames show up here instead of
//! silently disabling an analysis. Lock names are the receiver
//! identifiers the guards are acquired from (`self.inner.lock()`
//! acquires `inner`).

/// Roots and lock order for one run of the analyses.
#[derive(Debug, Clone, Copy)]
pub struct RootsConfig {
    /// L008 roots: functions that must not reach a panic site.
    pub panic_roots: &'static [&'static str],
    /// L009 roots: steady-state functions that must not reach an
    /// allocation site (must cover the `pool_alloc.rs` entry points).
    pub alloc_roots: &'static [&'static str],
    /// L010: declared lock order, outermost first. A lock may only be
    /// acquired while holding locks strictly *before* it in this list.
    pub lock_order: &'static [&'static str],
    /// L010: `(fn_name, lock_name)` pairs for functions that acquire a
    /// lock and return its guard to the caller.
    pub guard_fns: &'static [(&'static str, &'static str)],
}

impl RootsConfig {
    /// Position of a lock in the declared order.
    pub fn lock_rank(&self, lock: &str) -> Option<usize> {
        self.lock_order.iter().position(|l| *l == lock)
    }

    /// The lock a guard-returning function acquires, if declared.
    pub fn guard_lock(&self, fn_name: &str) -> Option<&'static str> {
        self.guard_fns.iter().find(|(f, _)| *f == fn_name).map(|(_, l)| *l)
    }
}

/// The roots of this workspace.
pub const ROOTS: RootsConfig = RootsConfig {
    // L008: no panic!/unwrap/expect/slice-index/assert! may be reachable
    // from these entry points.
    panic_roots: &[
        // The packet state machine, a batch of one, the early-exit probe.
        "Iustitia::process_batch",
        "Iustitia::process_packet",
        "Iustitia::probe_anytime",
        // A packet's flow ID: memo probe, SHA-1 and fill on a miss.
        "FlowIdMemo::id_of",
        // A read's frames, decoded where they lie, and the request parser
        // borrowing from them.
        "FrameWalk::next_frame",
        "RequestRef::decode",
        // Flow hash plus the payload's first copy, into the shard's staging
        // slab, and the reactor's dispatch, which copies it into the queue.
        "Reactor::stage_packet",
        "Reactor::dispatch_pending",
        // Per-packet admission (staged slab -> queue) and the worker's swap.
        "BoundedQueue::push_packets",
        "BoundedQueue::pop_into",
        // The shard worker's dispatcher: sort, stretches, replies.
        "Shard::process_segment",
        // A reply: encoded, then framed into its connection's write buffer.
        "Reactor::queue_response",
        "Response::encode",
        // The owned reassembly interface (client, benches).
        "FrameAssembler::extend",
        "FrameAssembler::next_frame",
        // Allocation-free inference.
        "CompiledNatureModel::try_predict",
        "CompiledTree::try_predict",
        "CompiledDag::try_predict",
    ],
    // L009: the static twin of the pool_alloc.rs counting-allocator
    // test — the same entry points it drives must not reach an
    // allocation site. Cold-path allocations (flow setup, idle sweeps)
    // carry justified L009 waivers at the sink. The reply path
    // (`Reactor::queue_response`, `Response::encode`) is a panic root
    // only: every reply is an owned `Vec` today.
    alloc_roots: &[
        "Iustitia::process_packet",
        "Iustitia::process_batch",
        "Iustitia::probe_anytime",
        // After its first call: the one miss that allocates the sets is
        // waived at the sink; every later hit, miss and fill must be clean.
        "FlowIdMemo::id_of",
        "CompiledNatureModel::try_predict",
        "CompiledTree::try_predict",
        "CompiledDag::try_predict",
        // The serve path of a packet, socket to pipeline — the static
        // twin of crates/serve/tests/alloc_ingest.rs.
        "FrameWalk::next_frame",
        "RequestRef::decode",
        "Reactor::stage_packet",
        "Reactor::dispatch_pending",
        "BoundedQueue::push_packets",
        "BoundedQueue::pop_into",
        "Shard::process_segment",
    ],
    // L010: outermost lock first. `inner` is the ShardQueue mutex
    // (serve/src/queue.rs); `pending` is the reactor outbox mutex
    // (serve/src/reactor.rs): shard workers push replies under it after
    // releasing `inner`, never inside.
    lock_order: &["inner", "pending"],
    // Functions that acquire a lock and return its guard to the caller.
    guard_fns: &[("lock_state", "inner")],
};
