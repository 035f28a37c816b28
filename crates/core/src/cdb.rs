//! The flow table: every flow a pipeline knows, pending or classified,
//! in one map keyed by [`FlowId`]. Its classified half is the
//! Classification Database (CDB) of Figure 1, with the purging policies
//! of §4.5.
//!
//! A slot is either *pending* — a pooled box holding the flow's
//! buffered payload and battery, stored here and driven by the
//! [pipeline](crate::pipeline) — or *classified* — a [`CdbRecord`] —
//! never both: classification overwrites the one with the other in
//! place, and a packet resolves its flow with a single lookup.
//!
//! Each record is 194 bits in the paper's accounting: a 160-bit SHA-1
//! flow hash, 32 bits for the last inter-arrival time `λ′`, and 2 bits
//! for the class label. Records are removed when
//!
//! 1. a FIN or RST packet closes the flow (≈ 46% of UMASS flows), or
//! 2. the flow is *obsolete*: `t_now − t_last > n·λ′`, where `λ′` is
//!    the inter-arrival of the flow's last two packets (default
//!    `λ = 0.5 s` when only one packet was seen) and `n` is a tunable
//!    coefficient (the paper finds `n = 4` optimal), or
//! 3. optionally, after a fixed age — the periodic-reclassification
//!    defense of §4.6.
//!
//! Obsolescence purges are triggered every `purge_trigger` insertions
//! (the paper uses 5,000), which keeps the CDB near the number of
//! genuinely concurrent flows (≈ 29,713 in Figure 8).
//!
//! Everything the public API counts — [`len`], [`size_bits`], every
//! [`CdbStats`] field, the purge trigger — counts **classified records
//! only**, and [`lookup`] misses on a pending flow. Pending slots are
//! counted by [`Iustitia::pending_flows`].
//!
//! [`len`]: ClassificationDatabase::len
//! [`size_bits`]: ClassificationDatabase::size_bits
//! [`lookup`]: ClassificationDatabase::lookup
//! [`Iustitia::pending_flows`]: crate::pipeline::Iustitia::pending_flows
//!
//! # A flow is hashed once
//!
//! [`FlowId::of_tuple`] is SHA-1 and stays the reference. Whoever
//! hashes per packet — [`Iustitia::process_packet`] and the serve
//! reactor — asks a [`FlowIdMemo`] first: a fixed-size, set-associative
//! cache from the canonical 13-byte tuple to its [`FlowId`].
//!
//! * **What it may return.** Every way of every set holds a tuple
//!   together with the SHA-1 of that tuple, from allocation on (an
//!   unused way holds the all-zero tuple and *its* digest — there is no
//!   valid bit to get wrong). A hit compares all 13 bytes, so the only
//!   thing [`FlowIdMemo::id_of`] can return is `FlowId::of_tuple` of the
//!   tuple it was asked about; a miss computes exactly that and
//!   replaces the set's least-recently-used way. The memo never
//!   invalidates: a tuple's SHA-1 does not change when its flow closes.
//! * **Why its index needs no secret.** The set index is an unkeyed
//!   multiply-fold of the tuple. Two tuples that share a set can only
//!   evict each other, so a sender who aims every tuple at one set buys
//!   what every packet paid before the memo existed — one SHA-1 — plus
//!   one probe of a [`WAYS`](FlowIdMemo::WAYS)-way set. There is
//!   no chain to lengthen and nothing to learn from the index.
//! * **What it costs.** [`FlowIdMemo::BYTES`] (304 KiB) per owner,
//!   allocated by the first miss: a pipeline that is only ever handed
//!   precomputed IDs (every serve shard) carries an empty `Vec`.
//!
//! # The table is indexed by the digest
//!
//! [`FlowMap`], the flow table's map, does not run SipHash over a key
//! that is already a uniform 160-bit digest. `FlowId`'s `Hash` feeds
//! the hasher [`FlowId::lead`] alone, and [`DigestState`] turns that
//! word into the table hash with one folded multiply under a
//! per-process random key: `fold((lead ^ k₀) · k₁)`, `fold` being the
//! high half of the 128-bit product XOR the low half.
//!
//! The key and the fold are both load-bearing, because the tuple — and
//! so, at 2ᵏ offline SHA-1s per k chosen bits, the digest — is the
//! sender's to choose:
//!
//! * *Identity* (`hash = lead`) fails without any attacker:
//!   [`shard_index`] has already spent `lead % shards`, so with 4 shards
//!   every ID of one shard's table has the same low two bits, and
//!   hashbrown picks the bucket from the low bits — three quarters of
//!   the buckets would stay empty. With one, 2²⁰ hashes per tuple buy
//!   IDs that agree in their low 20 bits and fill one probe sequence:
//!   the classic quadratic flood.
//! * *XOR with a secret* moves every ID alike: IDs that agree in their
//!   low bits still do afterwards. A *plain* multiply by a secret odd
//!   `k₁` is no better — the low k bits of a product depend only on the
//!   low k bits of its factors.
//! * The fold brings the high half of the product, which every bit of
//!   `lead` and of both keys reaches, down onto the low bits hashbrown
//!   indexes by (and leaves its 7-bit tag in the top bits equally
//!   mixed). Which IDs share a bucket now depends on `k₀` and `k₁`,
//!   which are drawn once per process from the OS-seeded
//!   `RandomState` and never leave it.
//!
//! What the keys cannot separate is two IDs with the same `lead`: they
//! hash alike in every process. That costs the table one extra 20-byte
//! comparison per such pair — it still compares whole keys, so nothing
//! is misfiled — and costs the sender a birthday search over 64 bits:
//! about 2³² SHA-1s for one pair, 2⁴³ for three IDs, 2⁴⁸ for four, and
//! towards 2⁶⁴ per ID for a run long enough to notice, against 2²⁰ per
//! entry for the attacks above. SipHash made that impossible rather
//! than expensive; the difference is a hash of 20 bytes saved on every
//! lookup, insert and evict.
//!
//! [`Iustitia::process_packet`]: crate::pipeline::Iustitia::process_packet

use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use iustitia_corpus::FileClass;
use iustitia_entropy::RandomnessBattery;
use iustitia_netsim::FiveTuple;

use crate::sha1::{sha1_13, Digest};

/// A 160-bit flow identifier: SHA-1 of the canonical 5-tuple bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct FlowId(pub Digest);

/// Hashes as [`lead`](FlowId::lead): the digest is already uniform, so
/// a table needs one word of it, not a second hash over all twenty
/// bytes (see the [module docs](self)).
impl Hash for FlowId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.lead());
    }
}

impl FlowId {
    /// Hashes a 5-tuple into its flow ID.
    pub fn of_tuple(tuple: &FiveTuple) -> FlowId {
        FlowId(sha1_13(&tuple.as_bytes()))
    }

    /// The leading 64 bits of the hash, big-endian: as uniform as the
    /// whole, and one integer to place or order flows by.
    pub fn lead(&self) -> u64 {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The shard a flow lands on: the first bytes of its 160-bit flow hash,
/// reduced mod `shards` — the same uniform partitioning an RSS-style
/// NIC queue would apply. Anything that splits traffic across pipelines
/// (the `iustitia-serve` worker pool, an offline trace partitioned per
/// core) places flows with it, so all of them agree.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_index(id: &FlowId, shards: usize) -> usize {
    // lint: allow(L008) — a shard count is fixed at start-up (`Server::start` rejects 0), not per packet
    assert!(shards > 0, "need at least one shard");
    (id.lead() % shards as u64) as usize
}

/// A map keyed by [`FlowId`] and indexed by the digest itself (see the
/// [module docs](self)).
pub type FlowMap<V> = HashMap<FlowId, V, DigestState>;

/// The high half of `a · b` XOR the low half: every bit of both factors
/// reaches the low bits of the result.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product >> 64) as u64 ^ product as u64
}

/// The [`BuildHasher`] of a [`FlowMap`]: a folded multiply of
/// [`FlowId::lead`] under a per-process random key. Why it is keyed,
/// and why it folds, is the flooding argument of the
/// [module docs](self).
#[derive(Clone, Copy)]
pub struct DigestState {
    /// `k₀`, XORed onto the word hashed.
    mask: u64,
    /// `k₁`, the (odd) multiplier.
    multiplier: u64,
}

impl Default for DigestState {
    /// The process's keys, drawn from the OS-seeded [`RandomState`] the
    /// first time a table is made.
    fn default() -> Self {
        static KEYS: OnceLock<DigestState> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let seed = RandomState::new();
            DigestState { mask: seed.hash_one(0u8), multiplier: seed.hash_one(1u8) | 1 }
        })
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher { keys: *self, hash: 0 }
    }
}

/// Like [`RandomState`]'s, this does not print the keys.
impl fmt::Debug for DigestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DigestState").finish_non_exhaustive()
    }
}

/// The [`Hasher`] of a [`FlowMap`]; see [`DigestState`].
#[derive(Debug, Clone, Copy)]
pub struct DigestHasher {
    keys: DigestState,
    hash: u64,
}

impl Hasher for DigestHasher {
    /// The one call a [`FlowId`] makes.
    fn write_u64(&mut self, word: u64) {
        self.hash = folded_multiply(self.hash ^ word ^ self.keys.mask, self.keys.multiplier);
    }

    /// Any other key, eight bytes at a time (the trait requires it; no
    /// table in this workspace hashes one).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (dst, src) in word.iter_mut().zip(chunk) {
                *dst = *src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The canonical 13-byte tuple as two words: the addresses, then the
/// ports and the protocol byte (top three bytes zero), so a probe
/// compares and indexes words, not byte strings.
type MemoKey = [u64; 2];

fn memo_key(bytes: &[u8; 13]) -> MemoKey {
    let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12] = *bytes;
    [
        u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
        u64::from_le_bytes([b8, b9, b10, b11, b12, 0, 0, 0]),
    ]
}

/// The memo set a key lives in: a multiply-fold of its two words under
/// fixed odd constants (unkeyed on purpose — see the
/// [module docs](self)).
fn set_index(key: &MemoKey) -> usize {
    let [addresses, ports] = *key;
    let mixed = folded_multiply(addresses ^ 0x9E37_79B9_7F4A_7C15, ports ^ 0xD1B5_4A32_D192_ED03);
    mixed as usize & (FlowIdMemo::SETS - 1)
}

/// One set of a [`FlowIdMemo`]: [`FlowIdMemo::WAYS`] tuples with their
/// digests.
#[derive(Clone, Copy)]
struct MemoSet {
    keys: [MemoKey; FlowIdMemo::WAYS],
    /// Each way's recency rank, a permutation of `0..WAYS`: 0 is the
    /// most recently used way, `WAYS - 1` the next to be replaced.
    ranks: [u8; FlowIdMemo::WAYS],
    ids: [FlowId; FlowIdMemo::WAYS],
}

impl MemoSet {
    /// Marks `way` most recently used: the ways that were more recent
    /// than it each age by one.
    fn touch(&mut self, way: usize) {
        let Some(&rank) = self.ranks.get(way) else {
            return;
        };
        if rank == 0 {
            return;
        }
        // One pass, one store of the whole array: the next probe of
        // this set reads the ranks back at once.
        let mut ranks = self.ranks;
        for (at, other) in ranks.iter_mut().enumerate() {
            *other = if at == way { 0 } else { *other + u8::from(*other < rank) };
        }
        self.ranks = ranks;
    }
}

/// An exact-match cache from a flow's 5-tuple to its [`FlowId`], in
/// front of SHA-1: 2,048 sets of 4 ways, least-recently-used
/// replacement within a set. What it may return, why its index is not
/// keyed and what it costs are in the [module docs](self).
///
/// # Examples
///
/// ```
/// use iustitia::cdb::{FlowId, FlowIdMemo};
/// use iustitia_netsim::FiveTuple;
/// use std::net::Ipv4Addr;
///
/// let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, Ipv4Addr::new(10, 0, 0, 2), 443);
/// let mut memo = FlowIdMemo::new();
/// assert_eq!(memo.id_of(&tuple), FlowId::of_tuple(&tuple)); // hashed
/// assert_eq!(memo.id_of(&tuple), FlowId::of_tuple(&tuple)); // remembered
/// assert_eq!((memo.hits(), memo.misses()), (1, 1));
/// ```
#[derive(Clone, Default)]
pub struct FlowIdMemo {
    /// Empty until the first miss, [`SETS`](Self::SETS) long after it.
    sets: Vec<MemoSet>,
    hits: u64,
    misses: u64,
}

impl FlowIdMemo {
    /// Ways per set. Four, because round-robin over a fixed flow
    /// population — `steady_hit`, and LRU's worst order — misses on
    /// every packet of a set holding more flows than ways: at 2,048
    /// flows spread at random that is 9 % of packets with 2 ways ×
    /// 4,096 sets and 2 % with 4 × 2,048, the same number of entries.
    pub const WAYS: usize = 4;
    /// Number of sets (a power of two).
    pub const SETS: usize = 2048;
    /// Heap held once the first miss has allocated the sets: 304 KiB.
    pub const BYTES: usize = Self::SETS * std::mem::size_of::<MemoSet>();

    /// An empty memo; it allocates on its first miss.
    pub fn new() -> Self {
        Self::default()
    }

    /// `tuple`'s flow ID — [`FlowId::of_tuple`], computed only if the
    /// memo does not hold it.
    #[inline]
    pub fn id_of(&mut self, tuple: &FiveTuple) -> FlowId {
        let key = memo_key(&tuple.as_bytes());
        match self.probe(&key) {
            Some(id) => id,
            None => self.hash_and_fill(tuple, key),
        }
    }

    /// The hit half of [`id_of`](Self::id_of): `tuple`'s flow ID if the
    /// memo holds it. Split out for the caller that times the hash it
    /// runs (the serve reactor) and so must not time the hash it skips.
    #[inline]
    pub fn get(&mut self, tuple: &FiveTuple) -> Option<FlowId> {
        self.probe(&memo_key(&tuple.as_bytes()))
    }

    /// The miss half of [`id_of`](Self::id_of): hashes `tuple` and
    /// remembers the digest in place of its set's least-recently-used
    /// way.
    pub fn fill(&mut self, tuple: &FiveTuple) -> FlowId {
        self.hash_and_fill(tuple, memo_key(&tuple.as_bytes()))
    }

    #[inline]
    fn probe(&mut self, key: &MemoKey) -> Option<FlowId> {
        let set = self.sets.get_mut(set_index(key))?;
        let way = set.keys.iter().position(|held| held == key)?;
        let id = *set.ids.get(way)?;
        set.touch(way);
        self.hits += 1;
        Some(id)
    }

    /// Hashes `tuple` and stores the digest beside `key`, which is
    /// `tuple`'s. Out of line: the probe inlines into its callers, the
    /// hash need not.
    #[inline(never)]
    fn hash_and_fill(&mut self, tuple: &FiveTuple, key: MemoKey) -> FlowId {
        let id = FlowId::of_tuple(tuple);
        self.misses += 1;
        if self.sets.is_empty() {
            let unused = [0u8; 13];
            let set = MemoSet {
                keys: [memo_key(&unused); Self::WAYS],
                ranks: [0, 1, 2, 3],
                ids: [FlowId(sha1_13(&unused)); Self::WAYS],
            };
            // lint: allow(L009) — the first miss of this memo's life; every later call finds the sets in place
            self.sets = vec![set; Self::SETS];
        }
        if let Some(set) = self.sets.get_mut(set_index(&key)) {
            let oldest = set.ranks.iter().position(|&rank| usize::from(rank) == Self::WAYS - 1);
            let way = oldest.unwrap_or(0);
            if let (Some(held), Some(held_id)) = (set.keys.get_mut(way), set.ids.get_mut(way)) {
                *held = key;
                *held_id = id;
            }
            set.touch(way);
        }
        id
    }

    /// Calls answered without hashing.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Calls that ran SHA-1 (each also replaced one way).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl fmt::Debug for FlowIdMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowIdMemo")
            .field("allocated", &!self.sets.is_empty())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

const _: () = assert!(FlowIdMemo::SETS.is_power_of_two() && FlowIdMemo::BYTES <= 512 << 10);

/// One CDB record (194 bits in the paper's layout).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CdbRecord {
    /// The flow's classified nature.
    pub label: FileClass,
    /// Timestamp of the flow's last packet.
    pub last_seen: f64,
    /// Inter-arrival time of the flow's last two packets (`λ′`), or
    /// `None` if only one packet has been seen since classification.
    pub last_iat: Option<f64>,
    /// When the flow was classified (drives the reclassification TTL).
    pub classified_at: f64,
}

impl CdbRecord {
    /// Whether the reclassification TTL has run out at `now`.
    pub(crate) fn expired(&self, ttl: Option<f64>, now: f64) -> bool {
        ttl.is_some_and(|ttl| now - self.classified_at > ttl)
    }

    /// Notes a packet of the flow at `now`: `λ′` and `last_seen`.
    pub(crate) fn refresh(&mut self, now: f64) {
        self.last_iat = Some((now - self.last_seen).max(0.0));
        self.last_seen = now;
    }
}

/// A flow awaiting classification: all the pipeline keeps of it — its
/// payload bytes, its battery, and bookkeeping. Boxed in its slot and
/// recycled through the pipeline's pool, so the buffer and the battery
/// move by pointer and a recycled flow allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct PendingFlow {
    /// The header skip/strip decision is made and `buf` holds the
    /// classification window. Until then (only `HeaderPolicy::StripKnown`
    /// flows start undecided) `buf` holds the raw prefix.
    pub(crate) streaming: bool,
    /// The raw prefix while staging, then the classification window —
    /// the first `≤ b` payload bytes past the header. Reserved at the
    /// buffer capacity when the slot is made, so it never grows.
    pub(crate) buf: Vec<u8>,
    /// The randomness battery over the window, fed as window bytes
    /// arrive (when the pipeline has the battery on). Boxed, so a slot
    /// without one stays small.
    pub(crate) battery: Option<Box<RandomnessBattery>>,
    /// Which life of a flow this is: a per-pipeline serial stamped
    /// when the slot is made, so a tuple that closes and reopens is a
    /// new incarnation (the pipeline's shared tables key on it).
    pub(crate) incarnation: u64,
    /// Header/skip bytes still to discard before the window.
    pub(crate) skip_remaining: usize,
    /// Window bytes as of the last anytime probe (0 before any probe);
    /// gates the probe stride.
    pub(crate) probed: usize,
    /// Label the previous anytime probe predicted, if any: the patience
    /// rule only emits a verdict when two consecutive probes agree.
    pub(crate) last_probe: Option<FileClass>,
    /// The flow's 5-tuple, from its first data packet.
    pub(crate) tuple: FiveTuple,
    /// Who sent its latest data packet (`PacketView::owner`).
    pub(crate) owner: u64,
    /// Timestamp of the flow's first data packet.
    pub(crate) first_ts: f64,
    /// Timestamp of its latest one.
    pub(crate) last_ts: f64,
    /// Data packets seen (`c` of the §4.5 delay analysis).
    pub(crate) packets: u32,
    /// Payload bytes observed, saturating at the buffer capacity
    /// (reported as `buffered_bytes`).
    pub(crate) seen: usize,
}

impl PendingFlow {
    /// A boxed flow of `tuple` whose buffer holds up to `capacity`
    /// bytes, with a battery if `battery`; [`restart`](Self::restart)
    /// it before use.
    pub(crate) fn boxed(capacity: usize, battery: bool, tuple: FiveTuple) -> Box<Self> {
        // lint: allow(L009) — the pool is still warming: a recycled flow reuses its box
        Box::new(PendingFlow {
            streaming: true,
            // lint: allow(L009) — the pool is still warming: a recycled flow reuses its buffer
            buf: Vec::with_capacity(capacity),
            // lint: allow(L009) — the pool is still warming: a recycled flow reuses its battery
            battery: battery.then(|| Box::new(RandomnessBattery::new())),
            incarnation: 0,
            skip_remaining: 0,
            probed: 0,
            last_probe: None,
            tuple,
            owner: 0,
            first_ts: 0.0,
            last_ts: 0.0,
            packets: 0,
            seen: 0,
        })
    }

    /// Resets everything but `owner`, which every data packet sets, for
    /// incarnation `incarnation` of a flow of `tuple` whose first data
    /// packet arrives at `now`.
    pub(crate) fn restart(
        &mut self,
        tuple: FiveTuple,
        incarnation: u64,
        streaming: bool,
        skip_remaining: usize,
        now: f64,
    ) {
        self.tuple = tuple;
        self.incarnation = incarnation;
        self.streaming = streaming;
        self.buf.clear();
        if let Some(battery) = &mut self.battery {
            battery.reset();
        }
        self.skip_remaining = skip_remaining;
        self.probed = 0;
        self.last_probe = None;
        self.first_ts = now;
        self.last_ts = now;
        self.packets = 0;
        self.seen = 0;
    }

    /// What this flow holds for classification: its buffered bytes
    /// (raw prefix or window) plus its battery's fixed state.
    pub(crate) fn resident_bytes(&self) -> usize {
        let battery = if self.battery.is_some() { BATTERY_BYTES } else { 0 };
        self.buf.len() + battery
    }
}

/// The fixed state of one flow's battery, as the resident gauge counts it.
const BATTERY_BYTES: usize = size_of::<RandomnessBattery>();

/// One entry of the flow table: pending xor classified.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// Awaiting classification.
    Pending(Box<PendingFlow>),
    /// Classified: the CDB record.
    Classified(CdbRecord),
}

// A slot stays as dense as a bare CDB record: pending state lives
// behind the box, so a later field cannot put kilobytes into every
// entry of the map.
const _: () = assert!(std::mem::size_of::<(FlowId, Slot)>() <= 72);

/// CDB policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CdbConfig {
    /// Obsolescence coefficient `n` (paper optimum: 4). `None` disables
    /// inactivity purging entirely (the "w/o purging" curve of Fig. 8
    /// still removes FIN/RST flows).
    pub n: Option<f64>,
    /// Default `λ` when a flow's `λ′` is unknown (paper: 0.5 s).
    pub default_lambda: f64,
    /// Run an obsolescence sweep after this many insertions
    /// (paper: 5,000).
    pub purge_trigger: usize,
    /// Forget classifications older than this, forcing reclassification
    /// (the §4.6 defense). `None` disables.
    pub reclassify_after: Option<f64>,
}

impl Default for CdbConfig {
    /// The paper's deployment: `n = 4`, `λ = 0.5 s`, sweep every 5,000
    /// flows, no reclassification TTL.
    fn default() -> Self {
        CdbConfig { n: Some(4.0), default_lambda: 0.5, purge_trigger: 5000, reclassify_after: None }
    }
}

/// Counters describing CDB churn (classified records only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CdbStats {
    /// Records inserted.
    pub inserted: u64,
    /// Records removed by FIN/RST.
    pub removed_by_close: u64,
    /// Records removed by the `n·λ′` inactivity rule.
    pub removed_by_timeout: u64,
    /// Records expired by the reclassification TTL.
    pub removed_by_ttl: u64,
    /// Largest number of records ever held.
    pub peak_size: usize,
}

/// The Classification Database of Figure 1, together with the pending
/// flows that will become its records.
///
/// # Examples
///
/// ```
/// use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
/// use iustitia_corpus::FileClass;
///
/// let mut cdb = ClassificationDatabase::new(CdbConfig::default());
/// let id = FlowId([7u8; 20]);
/// cdb.insert(id, FileClass::Encrypted, 0.0);
/// assert_eq!(cdb.lookup(&id, 0.1), Some(FileClass::Encrypted));
/// cdb.remove_on_close(&id);
/// assert_eq!(cdb.lookup(&id, 0.2), None);
/// ```
#[derive(Debug, Clone)]
pub struct ClassificationDatabase {
    config: CdbConfig,
    slots: FlowMap<Slot>,
    /// How many slots are [`Slot::Classified`].
    records: usize,
    inserts_since_sweep: usize,
    stats: CdbStats,
}

impl ClassificationDatabase {
    /// Creates an empty CDB.
    pub fn new(config: CdbConfig) -> Self {
        ClassificationDatabase {
            config,
            slots: FlowMap::default(),
            records: 0,
            inserts_since_sweep: 0,
            stats: CdbStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CdbConfig {
        &self.config
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the CDB holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Size in bits under the paper's 194-bit record layout.
    pub fn size_bits(&self) -> u64 {
        self.records as u64 * 194
    }

    /// Churn counters.
    pub fn stats(&self) -> &CdbStats {
        &self.stats
    }

    /// Looks up a flow's label and refreshes its timing (`λ′`,
    /// `last_seen`). Returns `None` for unknown and pending flows, and
    /// for records expired by the reclassification TTL (which are
    /// removed).
    pub fn lookup(&mut self, id: &FlowId, now: f64) -> Option<FileClass> {
        let ttl = self.config.reclassify_after;
        let Slot::Classified(rec) = self.slots.get_mut(id)? else {
            return None;
        };
        if rec.expired(ttl, now) {
            self.expire(id);
            return None;
        }
        rec.refresh(now);
        Some(rec.label)
    }

    /// Inserts a freshly classified flow and runs the periodic
    /// obsolescence sweep when due. Returns how many records the sweep
    /// removed (0 when no sweep ran).
    pub fn insert(&mut self, id: FlowId, label: FileClass, now: f64) -> usize {
        self.classify(id, label, now).1
    }

    /// [`insert`](Self::insert) that also hands back the pending state
    /// the record overwrote: a pending flow's slot becomes its record in
    /// place.
    pub(crate) fn classify(
        &mut self,
        id: FlowId,
        label: FileClass,
        now: f64,
    ) -> (Option<Box<PendingFlow>>, usize) {
        let record = CdbRecord { label, last_seen: now, last_iat: None, classified_at: now };
        let displaced = self.slots.insert(id, Slot::Classified(record));
        if !matches!(displaced, Some(Slot::Classified(_))) {
            self.records += 1;
        }
        self.stats.inserted += 1;
        self.stats.peak_size = self.stats.peak_size.max(self.records);
        self.inserts_since_sweep += 1;
        let purged = if self.inserts_since_sweep >= self.config.purge_trigger {
            self.inserts_since_sweep = 0;
            self.purge_obsolete(now)
        } else {
            0
        };
        match displaced {
            Some(Slot::Pending(flow)) => (Some(flow), purged),
            _ => (None, purged),
        }
    }

    /// Removes the record for a flow that sent FIN or RST. Returns
    /// whether a record existed; a pending flow is left alone.
    pub fn remove_on_close(&mut self, id: &FlowId) -> bool {
        let existed = matches!(self.slots.get(id), Some(Slot::Classified(_)));
        if existed {
            self.evict(id);
            self.stats.removed_by_close += 1;
        }
        existed
    }

    /// Removes every obsolete flow: `now − last_seen > n·λ′` (with the
    /// default `λ` for single-packet flows). Returns the number removed.
    /// No-op when `config.n` is `None`.
    pub fn purge_obsolete(&mut self, now: f64) -> usize {
        let Some(n) = self.config.n else {
            return 0;
        };
        let default_lambda = self.config.default_lambda;
        let mut removed = 0;
        self.slots.retain(|_, slot| {
            let Slot::Classified(rec) = slot else {
                return true;
            };
            let lambda = rec.last_iat.unwrap_or(default_lambda);
            let keep = now - rec.last_seen <= n * lambda.max(1e-6);
            removed += usize::from(!keep);
            keep
        });
        self.records -= removed;
        self.stats.removed_by_timeout += removed as u64;
        removed
    }

    /// Drops a record whose reclassification TTL ran out.
    pub(crate) fn expire(&mut self, id: &FlowId) {
        self.evict(id);
        self.stats.removed_by_ttl += 1;
    }

    /// Removes a flow's slot, handing back its state if it was pending.
    pub(crate) fn evict(&mut self, id: &FlowId) -> Option<Box<PendingFlow>> {
        match HashMap::remove(&mut self.slots, id)? {
            Slot::Pending(flow) => Some(flow),
            Slot::Classified(_) => {
                self.records -= 1;
                None
            }
        }
    }

    /// The flow's entry — the one lookup a run of its packets needs.
    /// Filling a vacant entry with a [`Slot::Pending`] starts the flow.
    pub(crate) fn slot(&mut self, id: FlowId) -> Entry<'_, FlowId, Slot> {
        self.slots.entry(id)
    }

    /// The pending flow `id`, mutably; `None` if it is classified or
    /// unknown.
    pub(crate) fn pending_mut(&mut self, id: &FlowId) -> Option<&mut PendingFlow> {
        match self.slots.get_mut(id)? {
            Slot::Pending(flow) => Some(flow),
            Slot::Classified(_) => None,
        }
    }

    /// Every pending flow, in no particular order.
    pub(crate) fn pending_flows(&self) -> impl Iterator<Item = (&FlowId, &PendingFlow)> {
        self.slots.iter().filter_map(|(id, slot)| match slot {
            Slot::Pending(flow) => Some((id, &**flow)),
            Slot::Classified(_) => None,
        })
    }

    /// Number of pending flows.
    pub(crate) fn pending_len(&self) -> usize {
        self.slots.len() - self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(byte: u8) -> FlowId {
        FlowId([byte; 20])
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 1.0);
        assert_eq!(cdb.lookup(&id(1), 1.5), Some(FileClass::Text));
        assert_eq!(cdb.lookup(&id(2), 1.5), None);
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.size_bits(), 194);
    }

    #[test]
    fn lookup_updates_lambda_prime() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Binary, 0.0);
        cdb.lookup(&id(1), 0.25);
        cdb.lookup(&id(1), 0.35);
        // λ′ = 0.1 now; obsolete when idle > n·λ′ = 0.4
        assert_eq!(cdb.purge_obsolete(0.70), 0);
        assert_eq!(cdb.purge_obsolete(0.80), 1);
        assert!(cdb.is_empty());
        assert_eq!(cdb.stats().removed_by_timeout, 1);
    }

    #[test]
    fn single_packet_flows_use_default_lambda() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        // default λ = 0.5, n = 4 → obsolete after 2 s idle
        assert_eq!(cdb.purge_obsolete(1.9), 0);
        assert_eq!(cdb.purge_obsolete(2.1), 1);
    }

    #[test]
    fn close_removal_counts() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert!(cdb.remove_on_close(&id(1)));
        assert!(!cdb.remove_on_close(&id(1)));
        assert_eq!(cdb.stats().removed_by_close, 1);
    }

    #[test]
    fn purge_disabled_keeps_records() {
        let mut cdb = ClassificationDatabase::new(CdbConfig { n: None, ..CdbConfig::default() });
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert_eq!(cdb.purge_obsolete(1e9), 0);
        assert_eq!(cdb.len(), 1);
    }

    #[test]
    fn sweep_triggers_every_n_inserts() {
        let config = CdbConfig { purge_trigger: 10, ..CdbConfig::default() };
        let mut cdb = ClassificationDatabase::new(config);
        // Insert 9 stale flows at t=0; the 10th insert at t=100 sweeps.
        for b in 0..9u8 {
            cdb.insert(id(b), FileClass::Text, 0.0);
        }
        assert_eq!(cdb.len(), 9);
        let removed = cdb.insert(id(9), FileClass::Text, 100.0);
        assert_eq!(removed, 9);
        assert_eq!(cdb.len(), 1);
    }

    #[test]
    fn reclassification_ttl_expires_records() {
        let config = CdbConfig { reclassify_after: Some(5.0), ..CdbConfig::default() };
        let mut cdb = ClassificationDatabase::new(config);
        cdb.insert(id(1), FileClass::Encrypted, 0.0);
        assert_eq!(cdb.lookup(&id(1), 4.0), Some(FileClass::Encrypted));
        assert_eq!(cdb.lookup(&id(1), 6.0), None, "TTL expired → reclassify");
        assert_eq!(cdb.stats().removed_by_ttl, 1);
    }

    #[test]
    fn flow_id_of_tuple_is_stable_and_distinct() {
        use std::net::Ipv4Addr;
        let a = FiveTuple::tcp(Ipv4Addr::new(1, 2, 3, 4), 10, Ipv4Addr::new(5, 6, 7, 8), 80);
        let b = FiveTuple::tcp(Ipv4Addr::new(1, 2, 3, 4), 11, Ipv4Addr::new(5, 6, 7, 8), 80);
        assert_eq!(FlowId::of_tuple(&a), FlowId::of_tuple(&a));
        assert_ne!(FlowId::of_tuple(&a), FlowId::of_tuple(&b));
        assert_eq!(FlowId::of_tuple(&a).to_string().len(), 40);
    }

    fn id64(n: u64) -> FlowId {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&n.to_be_bytes());
        FlowId(bytes)
    }

    #[test]
    fn sweep_fires_at_exactly_the_default_trigger() {
        // Default trigger is the paper's 5,000 insertions: 4,999 stale
        // inserts must not sweep, the 5,000th must.
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        assert_eq!(cdb.config().purge_trigger, 5000);
        for n in 0..4999u64 {
            assert_eq!(cdb.insert(id64(n), FileClass::Binary, 0.0), 0, "insert #{n} swept early");
        }
        assert_eq!(cdb.len(), 4999, "nothing purged below the trigger");
        // t=100: every earlier record is long obsolete (default 2 s
        // idle allowance); the trigger insert itself survives.
        let removed = cdb.insert(id64(4999), FileClass::Binary, 100.0);
        assert_eq!(removed, 4999);
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.stats().removed_by_timeout, 4999);
        // The counter reset: the next 4,999 inserts don't sweep either.
        for n in 5000..9999u64 {
            assert_eq!(cdb.insert(id64(n), FileClass::Binary, 100.0), 0);
        }
        assert!(cdb.insert(id64(9999), FileClass::Binary, 300.0) > 0, "second sweep fires");
    }

    #[test]
    fn remove_on_close_of_unknown_flow_is_a_noop() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert!(!cdb.remove_on_close(&id(2)), "never-seen flow");
        assert_eq!(cdb.stats().removed_by_close, 0, "no-op must not count");
        assert_eq!(cdb.len(), 1, "unrelated records untouched");
        assert_eq!(cdb.lookup(&id(1), 0.1), Some(FileClass::Text));
    }

    #[test]
    fn lookup_after_purge_misses_the_evicted_record() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Encrypted, 0.0);
        cdb.insert(id(2), FileClass::Text, 9.0);
        // Single-packet flows: obsolete after n·λ = 2 s idle. At t=10
        // flow 1 (idle 10 s) is evicted, flow 2 (idle 1 s) survives.
        assert_eq!(cdb.purge_obsolete(10.0), 1);
        assert_eq!(cdb.lookup(&id(1), 10.0), None, "evicted record must miss");
        assert_eq!(cdb.lookup(&id(2), 10.0), Some(FileClass::Text));
        // The miss neither resurrects the record nor perturbs counters.
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.stats().removed_by_timeout, 1);
        assert_eq!(cdb.stats().removed_by_ttl, 0);
    }

    /// The table's counters stay in step with its slots whatever the
    /// pipeline does to them: the record count equals the number of
    /// classified slots, the pending count the rest, the resident gauge
    /// the sum over pending slots — and a final sweep leaves nothing
    /// pending.
    mod table_invariants {
        use super::super::*;
        use crate::model::{ModelKind, NatureModel};
        use crate::pipeline::{BatchPacket, HeaderPolicy, Iustitia, PipelineConfig};
        use iustitia_netsim::{Packet, TcpFlags};
        use proptest::prelude::*;
        use std::net::Ipv4Addr;

        fn any_model() -> NatureModel {
            let mut ds = iustitia_ml::Dataset::new(4, FileClass::names());
            for i in 0..16 {
                ds.push(vec![i as f64 / 20.0, 0.1, 0.1, 0.1], i % FileClass::ALL.len());
            }
            NatureModel::train(&ds, &ModelKind::paper_cart()).expect("every class present")
        }

        fn arb_packet() -> impl Strategy<Value = Packet> {
            (0.0f64..40.0, 0u16..6, 0u8..12, proptest::collection::vec(any::<u8>(), 0..48))
                .prop_map(|(timestamp, port, flag_bits, payload)| {
                    let flags = match flag_bits {
                        0 => TcpFlags::ACK | TcpFlags::FIN,
                        1 => TcpFlags::RST,
                        2 => TcpFlags::SYN,
                        _ => TcpFlags::ACK,
                    };
                    let src = Ipv4Addr::new(10, 0, 0, 1);
                    let dst = Ipv4Addr::new(192, 168, 1, 1);
                    let tuple = FiveTuple::tcp(src, 4000 + port, dst, 443);
                    Packet { timestamp, tuple, flags, payload }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn counters_match_slots(
                packets in proptest::collection::vec(arb_packet(), 0..80),
                batch in 1usize..12,
                policy_sel in 0u8..4,
                ttl in any::<bool>(),
                purge_trigger in 1usize..8,
            ) {
                let header_policy = match policy_sel {
                    0 => HeaderPolicy::None,
                    1 => HeaderPolicy::StripKnown { t: 8 },
                    2 => HeaderPolicy::SkipThreshold { t: 5 },
                    _ => HeaderPolicy::RandomSkip { t_max: 5 },
                };
                let cdb = CdbConfig {
                    reclassify_after: ttl.then_some(3.0),
                    purge_trigger,
                    ..CdbConfig::default()
                };
                let config = PipelineConfig { header_policy, cdb, ..PipelineConfig::headline(5) };
                let mut pipeline = Iustitia::new(any_model(), config);
                let mut verdicts = Vec::new();
                for chunk in packets.chunks(batch) {
                    let items: Vec<BatchPacket<'_>> = chunk.iter().map(BatchPacket::new).collect();
                    pipeline.process_batch(&items, &mut verdicts);

                    let table = pipeline.cdb();
                    let classified =
                        table.slots.values().filter(|s| matches!(s, Slot::Classified(_))).count();
                    prop_assert_eq!(table.len(), classified);
                    prop_assert_eq!(pipeline.pending_flows(), table.slots.len() - classified);
                    prop_assert_eq!(pipeline.pending_flows(), table.pending_flows().count());
                    let resident: usize =
                        table.pending_flows().map(|(_, flow)| flow.resident_bytes()).sum();
                    prop_assert_eq!(pipeline.resident_feature_bytes(), resident);
                    prop_assert!(table.stats().peak_size >= table.len());
                }
                pipeline.sweep_idle(f64::INFINITY);
                prop_assert_eq!(pipeline.pending_flows(), 0);
                prop_assert_eq!(pipeline.resident_feature_bytes(), 0);
                prop_assert_eq!(pipeline.cdb().slots.len(), pipeline.cdb().len());
            }
        }
    }

    /// The memo in front of SHA-1: whatever it is asked, in whatever
    /// order, it answers `FlowId::of_tuple`.
    mod flow_id_memo {
        use super::super::*;
        use proptest::prelude::*;
        use std::net::Ipv4Addr;
        use std::sync::LazyLock;

        fn tuple(n: u32, udp: bool) -> FiveTuple {
            let src = Ipv4Addr::from(0x0A00_0000 | (n >> 16));
            let dst = Ipv4Addr::new(192, 168, 1, 1);
            if udp {
                FiveTuple::udp(src, n as u16, dst, 53)
            } else {
                FiveTuple::tcp(src, n as u16, dst, 443)
            }
        }

        /// Twice as many tuples as a set has ways, all of one set, the
        /// protocols alternating.
        static ONE_SET: LazyLock<Vec<FiveTuple>> = LazyLock::new(|| {
            let target = set_index(&memo_key(&tuple(0, false).as_bytes()));
            let both = (0u32..).flat_map(|n| [tuple(n, false), tuple(n, true)]);
            let found: Vec<FiveTuple> = both
                .filter(|t| set_index(&memo_key(&t.as_bytes())) == target)
                .take(2 * FlowIdMemo::WAYS)
                .collect();
            assert!(found.iter().any(|t| t.as_bytes()[12] == 17), "both protocols");
            found
        });

        #[derive(Debug, Clone)]
        enum Step {
            /// Some tuple of a space small enough to repeat.
            Any(u32, bool),
            /// `rounds` round-robin passes over the first `flows` tuples
            /// of [`ONE_SET`]: every call but the first `flows` repeats
            /// at reuse distance `flows`.
            RoundRobin { flows: usize, rounds: usize },
            /// More distinct tuples than the memo has ways: every set
            /// is overwritten.
            Wrap,
            /// Carry on with a clone, keeping the original too.
            Fork,
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            (0u8..14, 0u32..600, any::<bool>(), 1..=2 * FlowIdMemo::WAYS, 1usize..4).prop_map(
                |(pick, n, udp, flows, rounds)| match pick {
                    0..=7 => Step::Any(n, udp),
                    8..=11 => Step::RoundRobin { flows, rounds },
                    12 => Step::Wrap,
                    _ => Step::Fork,
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn memo_equals_of_tuple(steps in proptest::collection::vec(arb_step(), 1..40)) {
                // Each memo with the number of calls it has answered.
                let mut memos = vec![(FlowIdMemo::new(), 0u64)];
                let mut wrapped = 0u32;
                for step in steps {
                    let asked: Vec<FiveTuple> = match step {
                        Step::Any(n, udp) => vec![tuple(n, udp)],
                        Step::RoundRobin { flows, rounds } => {
                            ONE_SET.iter().take(flows).cycle().take(flows * rounds).copied().collect()
                        }
                        Step::Wrap => {
                            if wrapped == 2 {
                                continue;
                            }
                            wrapped += 1;
                            let n = (FlowIdMemo::SETS * FlowIdMemo::WAYS * 5 / 4) as u32;
                            (0..n).map(|i| tuple(wrapped * n + i, i % 3 == 0)).collect()
                        }
                        Step::Fork => {
                            if memos.len() < 3 {
                                memos.extend(memos.last().cloned());
                            }
                            continue;
                        }
                    };
                    // The newest clone takes every step, the ones it was
                    // forked from only the short ones.
                    let takers = if asked.len() > 100 { 1 } else { memos.len() };
                    for (memo, count) in memos.iter_mut().rev().take(takers) {
                        for t in &asked {
                            prop_assert_eq!(memo.id_of(t), FlowId::of_tuple(t));
                        }
                        *count += asked.len() as u64;
                        prop_assert_eq!(memo.hits() + memo.misses(), *count);
                    }
                }
            }
        }

        /// The cost bound, in counts: a miss is one SHA-1 and one fill,
        /// and a tuple the memo holds is never hashed again.
        #[test]
        fn a_miss_hashes_once_and_a_held_tuple_never() {
            let mut memo = FlowIdMemo::new();
            for n in 0..20_000 {
                memo.id_of(&tuple(n, n % 2 == 0));
            }
            assert_eq!((memo.hits(), memo.misses()), (0, 20_000), "all-distinct stream");

            let mut memo = FlowIdMemo::new();
            for n in 0..1_000 {
                memo.id_of(&tuple(n % 2, false));
            }
            assert_eq!((memo.hits(), memo.misses()), (998, 2), "two-flow ping-pong");
        }

        /// Round-robin is LRU's worst order: a set asked for one tuple
        /// more than it has ways misses every time, one fewer and it
        /// never misses again — the replacement is least-recently-used,
        /// not arbitrary.
        #[test]
        fn replacement_within_a_set_is_lru() {
            for (flows, want_hits) in [(FlowIdMemo::WAYS, true), (FlowIdMemo::WAYS + 1, false)] {
                let mut memo = FlowIdMemo::new();
                for t in ONE_SET.iter().take(flows).cycle().take(flows * 10) {
                    memo.id_of(t);
                }
                let hits = if want_hits { (flows * 9) as u64 } else { 0 };
                assert_eq!(memo.hits(), hits, "{flows} flows round-robin in one set");
            }
            // Touching a tuple saves it from the next replacement.
            let mut memo = FlowIdMemo::new();
            let (held, newcomer) = ONE_SET.split_at(FlowIdMemo::WAYS);
            for t in held {
                memo.id_of(t);
            }
            memo.id_of(&held[0]);
            memo.id_of(&newcomer[0]);
            assert!(memo.get(&held[0]).is_some(), "the re-used way survives");
            assert!(memo.get(&held[1]).is_none(), "the oldest way was replaced");
        }

        #[test]
        fn set_index_spreads_flows_that_differ_in_one_field() {
            // 4,096 client ports to one server, then 4,096 clients: no
            // set may be asked to hold a crowd.
            for by_port in [true, false] {
                let mut load = vec![0u32; FlowIdMemo::SETS];
                for n in 0..4096u32 {
                    let t = if by_port { tuple(n, false) } else { tuple(n << 16, false) };
                    load[set_index(&memo_key(&t.as_bytes()))] += 1;
                }
                let worst = load.iter().max().copied().unwrap_or(0);
                assert!(worst <= 12, "a set drew {worst} of 4,096 flows (mean 2)");
            }
        }
    }

    /// The digest-indexed table against a `BTreeMap`, on exactly the
    /// IDs a weaker hasher would file together.
    mod digest_hasher {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Family 0 shares `lead()` outright (the IDs differ only past
        /// it), family 1 shares `lead() % 4` (one shard of four), family
        /// 2 shares the low 20 bits of `lead()`.
        fn hard_id(family: u8, n: u8) -> FlowId {
            let mut bytes = [0u8; 20];
            let lead: u64 = match family {
                0 => 0x0123_4567_89AB_CDEF,
                1 => u64::from(n) * 4 + 1,
                _ => (u64::from(n) << 20) | 0xA_BCDE,
            };
            bytes[..8].copy_from_slice(&lead.to_be_bytes());
            bytes[19] = n;
            FlowId(bytes)
        }

        proptest! {
            #[test]
            fn table_matches_a_btreemap_on_colliding_ids(
                ops in proptest::collection::vec((0u8..3, 0u8..3, 0u8..40, 0usize..4), 1..400),
            ) {
                let config = CdbConfig { n: None, ..CdbConfig::default() };
                let mut cdb = ClassificationDatabase::new(config);
                let mut model: BTreeMap<FlowId, FileClass> = BTreeMap::new();
                for (step, (op, family, n, class)) in ops.into_iter().enumerate() {
                    let id = hard_id(family, n);
                    let now = step as f64;
                    match op {
                        0 => {
                            let label = FileClass::ALL[class];
                            cdb.insert(id, label, now);
                            model.insert(id, label);
                        }
                        1 => prop_assert_eq!(cdb.lookup(&id, now), model.get(&id).copied()),
                        _ => prop_assert_eq!(cdb.remove_on_close(&id), model.remove(&id).is_some()),
                    }
                    prop_assert_eq!(cdb.len(), model.len());
                }
                for (id, label) in &model {
                    prop_assert_eq!(cdb.lookup(id, 1e6), Some(*label));
                }
            }
        }

        /// One shard's view of real traffic: 100,000 SHA-1 flow IDs
        /// with `lead() % 4 == 1`. hashbrown indexes by the low bits of
        /// the hash, so the low 12 must come out near-uniform whatever
        /// this process's keys are — χ² over 4,096 cells (mean 4,095,
        /// σ ≈ 90.5) stays under mean + 8σ.
        #[test]
        fn low_bits_stay_uniform_within_one_shard() {
            let state = DigestState::default();
            let mut cells = vec![0u32; 4096];
            let mut taken = 0u32;
            for n in 0u32.. {
                let id = FlowId(sha1_13(&[
                    n as u8,
                    (n >> 8) as u8,
                    (n >> 16) as u8,
                    1,
                    2,
                    3,
                    4,
                    5,
                    6,
                    7,
                    8,
                    9,
                    6,
                ]));
                if shard_index(&id, 4) != 1 {
                    continue;
                }
                cells[(state.hash_one(id) & 4095) as usize] += 1;
                taken += 1;
                if taken == 100_000 {
                    break;
                }
            }
            let mean = f64::from(taken) / 4096.0;
            let chi2: f64 = cells.iter().map(|&c| (f64::from(c) - mean).powi(2) / mean).sum();
            assert!(chi2 < 4095.0 + 8.0 * 90.5, "χ² = {chi2:.0} over 4,096 cells");
            // And the identity hash this replaces the need for would
            // have left three cells in four empty.
            assert!(cells.iter().all(|&c| c > 0), "an empty cell among 4,096 at mean {mean:.1}");
        }

        #[test]
        fn equal_leads_hash_alike_and_still_resolve() {
            let state = DigestState::default();
            let (a, b) = (hard_id(0, 1), hard_id(0, 2));
            assert_ne!(a, b);
            assert_eq!(state.hash_one(a), state.hash_one(b), "the hash reads lead() only");
            let mut map: FlowMap<u8> = FlowMap::default();
            map.insert(a, 1);
            map.insert(b, 2);
            assert_eq!((map.get(&a), map.get(&b)), (Some(&1), Some(&2)));
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for b in 0..40u8 {
            let shard = shard_index(&id(b), 7);
            assert_eq!(shard, shard_index(&id(b), 7));
            assert!(shard < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        shard_index(&id(1), 0);
    }

    #[test]
    fn peak_size_tracked() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        for b in 0..5u8 {
            cdb.insert(id(b), FileClass::Binary, 0.0);
        }
        cdb.remove_on_close(&id(0));
        assert_eq!(cdb.stats().peak_size, 5);
        assert_eq!(cdb.len(), 4);
    }
}
