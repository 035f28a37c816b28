//! The flow table: every flow a pipeline knows, pending or classified,
//! in one map keyed by [`FlowId`]. Its classified half is the
//! Classification Database (CDB) of Figure 1, with the purging policies
//! of §4.5.
//!
//! A slot is either *pending* — a pooled box of header-staging and
//! streaming feature state, stored here and driven by the
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

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

use iustitia_corpus::FileClass;
use iustitia_netsim::FiveTuple;

use crate::features::FlowFeatureState;
use crate::sha1::{sha1_13, Digest};

/// A 160-bit flow identifier: SHA-1 of the canonical 5-tuple bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct FlowId(pub Digest);

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

/// A flow awaiting classification: all the pipeline keeps of it. Boxed
/// in its slot and recycled through the pipeline's pool, so the
/// kilobytes of histogram and battery state move by pointer.
#[derive(Debug, Clone)]
pub(crate) struct PendingFlow {
    /// The header skip/strip decision is made and payload streams into
    /// `features`, nothing retained. Until then (only
    /// `HeaderPolicy::StripKnown` flows start undecided) payload is
    /// kept verbatim in `staging`, bounded by the buffer capacity.
    pub(crate) streaming: bool,
    /// The raw prefix of a flow not yet `streaming`; empty afterwards.
    pub(crate) staging: Vec<u8>,
    /// Incremental feature session over the classification window.
    pub(crate) features: FlowFeatureState,
    /// Classification-window bytes fed so far (`≤ b`).
    pub(crate) fed: usize,
    /// Header/skip bytes still to discard before feeding.
    pub(crate) skip_remaining: usize,
    /// `fed` as of the last anytime probe (0 before any probe); gates
    /// the probe stride.
    pub(crate) probed: usize,
    /// Label the previous anytime probe predicted, if any: the patience
    /// rule only emits a verdict when two consecutive probes agree.
    pub(crate) last_probe: Option<FileClass>,
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
    /// A boxed flow around a fresh feature session;
    /// [`restart`](Self::restart) it before use.
    pub(crate) fn boxed(features: FlowFeatureState) -> Box<Self> {
        // lint: allow(L009) — the pool is still warming: a recycled flow reuses its box
        Box::new(PendingFlow {
            streaming: true,
            staging: Vec::new(),
            features,
            fed: 0,
            skip_remaining: 0,
            probed: 0,
            last_probe: None,
            first_ts: 0.0,
            last_ts: 0.0,
            packets: 0,
            seen: 0,
        })
    }

    /// Resets everything but the (already reset) feature session for a
    /// flow whose first data packet arrives at `now`.
    pub(crate) fn restart(&mut self, streaming: bool, skip_remaining: usize, now: f64) {
        self.streaming = streaming;
        self.staging.clear();
        self.fed = 0;
        self.skip_remaining = skip_remaining;
        self.probed = 0;
        self.last_probe = None;
        self.first_ts = now;
        self.last_ts = now;
        self.packets = 0;
        self.seen = 0;
    }

    /// Estimated heap resident for this flow: staged raw bytes, or the
    /// feature state's counter footprint once streaming.
    pub(crate) fn resident_bytes(&self) -> usize {
        if self.streaming {
            self.features.resident_bytes()
        } else {
            self.staging.len()
        }
    }
}

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
    slots: HashMap<FlowId, Slot>,
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
            slots: HashMap::new(),
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

    /// The flow's pending state, if it is pending.
    pub(crate) fn pending(&self, id: &FlowId) -> Option<&PendingFlow> {
        match self.slots.get(id)? {
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
