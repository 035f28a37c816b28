//! Live service metrics: atomic counters and per-stage latency
//! histograms, snapshotted on demand by the `Stats` request.
//!
//! Latencies use power-of-two bucketed histograms (bucket `i` holds
//! samples in `[2^i, 2^(i+1))` nanoseconds), so recording is a single
//! relaxed atomic increment on the packet path and quantiles are
//! reconstructed from bucket counts with at most 2× resolution error —
//! the classic HdrHistogram-style tradeoff, reduced to its cheapest
//! form.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::ProtoError;

/// Number of power-of-two buckets: covers 1 ns .. ~585 years.
pub const BUCKETS: usize = 64;

/// Pipeline stages with dedicated latency histograms.
///
/// The packet path attributes each packet's processing time to the
/// stage that *terminated* it: a CDB hit never reaches the buffer, a
/// buffered packet never reaches the classifier. `Hash` is measured
/// separately on the reactor thread, where the flow ID is resolved for
/// shard routing — and only when a hash runs: its sample count is
/// [`flow_memo_misses`](ServeMetrics::flow_memo_misses), not packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// SHA-1 flow-ID computation (reactor thread, once per packet whose
    /// tuple the flow-ID memo does not hold).
    Hash = 0,
    /// CDB lookup resolving to a hit (worker thread).
    CdbLookup = 1,
    /// Payload appended to a partially filled buffer (worker thread).
    BufferFill = 2,
    /// Buffer completed: feature extraction + model inference + CDB
    /// insert (worker thread).
    Classify = 3,
}

impl Stage {
    /// All stages, index order.
    pub const ALL: [Stage; 4] = [Stage::Hash, Stage::CdbLookup, Stage::BufferFill, Stage::Classify];

    /// Stable snake_case name, used in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Hash => "hash",
            Stage::CdbLookup => "cdb_lookup",
            Stage::BufferFill => "buffer_fill",
            Stage::Classify => "classify",
        }
    }
}

/// Lock-free latency histogram with power-of-two buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one sample of `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        let idx = nanos.checked_ilog2().unwrap_or(0) as usize;
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the current bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Immutable copy of a histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate `q`-quantile in nanoseconds (`q` in `[0, 1]`),
    /// using each bucket's geometric-ish midpoint (`1.5 × 2^i`).
    /// Returns `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let low = 1u64 << i;
                return Some(low + low / 2);
            }
        }
        None
    }

    /// Approximate median latency in ns.
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// Approximate 99th-percentile latency in ns.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// Per-shard gauges, refreshed by each shard worker after every batch
/// it drains.
///
/// Unlike the monotone counters these are *levels*: `pending_flows`
/// mirrors [`Iustitia::pending_flows`] and `resident_feature_bytes`
/// mirrors [`Iustitia::resident_feature_bytes`] for the shard's
/// pipeline, so an operator can watch the streaming pipeline's
/// per-flow memory instead of inferring it from `b × pending`.
///
/// [`Iustitia::pending_flows`]: iustitia::Iustitia::pending_flows
/// [`Iustitia::resident_feature_bytes`]: iustitia::Iustitia::resident_feature_bytes
#[derive(Debug, Default)]
pub struct ShardGauges {
    /// Flows currently buffered in this shard, awaiting a verdict.
    pub pending_flows: AtomicU64,
    /// Estimated heap bytes resident across this shard's pending
    /// flows (feature counters + header staging).
    pub resident_feature_bytes: AtomicU64,
    /// Flows whose feature state was recycled from the shard
    /// pipeline's free list instead of freshly allocated.
    pub state_pool_hits: AtomicU64,
    /// Feature states currently parked on the shard pipeline's free
    /// list.
    pub state_pool_size: AtomicU64,
    /// Verdicts this shard's pipeline emitted from an anytime probe
    /// before the fixed-`b` buffer filled (mirrors
    /// `Iustitia::early_exit_verdicts`; stays 0 with anytime off).
    pub early_exit_verdicts: AtomicU64,
}

impl ShardGauges {
    /// Stores all gauge levels (Relaxed; the values are advisory).
    pub fn set(&self, pending: u64, resident: u64, pool_hits: u64, pool_size: u64, early: u64) {
        self.pending_flows.store(pending, Ordering::Relaxed);
        self.resident_feature_bytes.store(resident, Ordering::Relaxed);
        self.state_pool_hits.store(pool_hits, Ordering::Relaxed);
        self.state_pool_size.store(pool_size, Ordering::Relaxed);
        self.early_exit_verdicts.store(early, Ordering::Relaxed);
    }
}

/// Live counters and histograms for a running server.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Packets accepted into shard queues.
    pub packets: AtomicU64,
    /// CDB hits on the packet path.
    pub hits: AtomicU64,
    /// Flows classified (one verdict each).
    pub flows_classified: AtomicU64,
    /// Packets rejected with `Busy` (RejectBusy admission).
    pub busy_rejects: AtomicU64,
    /// Packets evicted from full queues (DropOldest admission).
    pub dropped_oldest: AtomicU64,
    /// One-shot `ClassifyBuffer` requests served.
    pub classify_requests: AtomicU64,
    /// `Drain` barriers completed.
    pub drains: AtomicU64,
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// UDP datagrams ingested by the reactor's datagram adapter.
    pub udp_datagrams: AtomicU64,
    /// Gauge: connections currently registered with the reactor
    /// (TCP sockets plus live UDP pseudo-peers).
    pub open_connections: AtomicU64,
    /// Gauge: bytes parked in per-connection reassembly buffers
    /// (partial frames awaiting more reads), summed over connections.
    pub reassembly_buffer_bytes: AtomicU64,
    /// Submitted packets whose flow ID the reactor's `FlowIdMemo` held
    /// (no SHA-1 ran). Stored by the reactor at every dispatch; with
    /// [`flow_memo_misses`](Self::flow_memo_misses) it sums to the
    /// packets offered, accepted or refused.
    pub flow_memo_hits: AtomicU64,
    /// Submitted packets the reactor hashed: one SHA-1, one
    /// [`Stage::Hash`] sample and one memo fill each.
    pub flow_memo_misses: AtomicU64,
    /// Per-stage latency histograms, indexed by [`Stage`].
    pub stages: [LatencyHistogram; 4],
    /// Accept-to-verdict latency: time from a connection's accept (or
    /// a UDP peer's first datagram) to each flow verdict written back
    /// on it, in nanoseconds.
    pub accept_to_verdict: LatencyHistogram,
    /// Packets per batch dispatched into a shard pipeline (the
    /// power-of-two buckets hold batch sizes, not nanoseconds). A
    /// healthy batching path shows mass well above bucket 0.
    pub batch_size: LatencyHistogram,
    /// Distinct flows per dispatched batch. Together with
    /// [`batch_size`](Self::batch_size) this shows the amortization
    /// ratio: packets-per-flow-group per batch.
    pub flows_per_batch: LatencyHistogram,
    /// Buffered bytes at the moment each flow got its verdict (the
    /// power-of-two buckets hold byte counts, not nanoseconds). With
    /// anytime early exit enabled the mass sits below `b`; without it
    /// every full-buffer verdict lands at `b` and only idle/close
    /// leftovers fall short.
    pub bytes_at_verdict: LatencyHistogram,
    /// Per-shard gauges, indexed by shard id (empty until
    /// [`with_shards`](Self::with_shards)).
    pub shards: Vec<ShardGauges>,
}

impl ServeMetrics {
    /// Metrics block with one gauge set per shard.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        ServeMetrics { shards: (0..n).map(|_| ShardGauges::default()).collect(), ..Self::default() }
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a stage latency sample.
    pub fn record(&self, stage: Stage, nanos: u64) {
        if let Some(histogram) = self.stages.get(stage as usize) {
            LatencyHistogram::record(histogram, nanos);
        }
    }

    /// Copies every counter and histogram.
    ///
    /// `queue_lock_acquisitions` lives on the shard queues, not in this
    /// block; the server fills it in via
    /// [`StatsSnapshot::with_queue_locks`].
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            packets: self.packets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            flows_classified: self.flows_classified.load(Ordering::Relaxed),
            busy_rejects: self.busy_rejects.load(Ordering::Relaxed),
            dropped_oldest: self.dropped_oldest.load(Ordering::Relaxed),
            classify_requests: self.classify_requests.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            udp_datagrams: self.udp_datagrams.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            reassembly_buffer_bytes: self.reassembly_buffer_bytes.load(Ordering::Relaxed),
            flow_memo_hits: self.flow_memo_hits.load(Ordering::Relaxed),
            flow_memo_misses: self.flow_memo_misses.load(Ordering::Relaxed),
            queue_lock_acquisitions: 0,
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            accept_to_verdict: self.accept_to_verdict.snapshot(),
            batch_size: self.batch_size.snapshot(),
            flows_per_batch: self.flows_per_batch.snapshot(),
            bytes_at_verdict: self.bytes_at_verdict.snapshot(),
            shards: self
                .shards
                .iter()
                .map(|g| ShardStats {
                    pending_flows: g.pending_flows.load(Ordering::Relaxed),
                    resident_feature_bytes: g.resident_feature_bytes.load(Ordering::Relaxed),
                    state_pool_hits: g.state_pool_hits.load(Ordering::Relaxed),
                    state_pool_size: g.state_pool_size.load(Ordering::Relaxed),
                    early_exit_verdicts: g.early_exit_verdicts.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one shard's gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Flows currently buffered in this shard, awaiting a verdict.
    pub pending_flows: u64,
    /// Estimated heap bytes resident across this shard's pending
    /// flows (feature counters + header staging).
    pub resident_feature_bytes: u64,
    /// Flows whose feature state was recycled from the shard
    /// pipeline's free list instead of freshly allocated.
    pub state_pool_hits: u64,
    /// Feature states currently parked on the shard pipeline's free
    /// list.
    pub state_pool_size: u64,
    /// Verdicts this shard emitted from an anytime probe before the
    /// fixed-`b` buffer filled.
    pub early_exit_verdicts: u64,
}

/// Point-in-time copy of all server metrics, as returned by the
/// `Stats` request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Packets accepted into shard queues.
    pub packets: u64,
    /// CDB hits on the packet path.
    pub hits: u64,
    /// Flows classified (one verdict each).
    pub flows_classified: u64,
    /// Packets rejected with `Busy`.
    pub busy_rejects: u64,
    /// Packets evicted from full queues.
    pub dropped_oldest: u64,
    /// One-shot classification requests served.
    pub classify_requests: u64,
    /// Drain barriers completed.
    pub drains: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// UDP datagrams ingested by the reactor's datagram adapter.
    pub udp_datagrams: u64,
    /// Gauge: connections currently registered with the reactor.
    pub open_connections: u64,
    /// Gauge: bytes parked in per-connection reassembly buffers.
    pub reassembly_buffer_bytes: u64,
    /// Submitted packets whose flow ID came from the reactor's memo.
    pub flow_memo_hits: u64,
    /// Submitted packets the reactor ran SHA-1 for.
    pub flow_memo_misses: u64,
    /// Shard-queue mutex acquisitions, summed over all shard queues.
    /// Compare against `packets` to see the batch amortization: the
    /// ratio stays far below one acquisition per packet.
    pub queue_lock_acquisitions: u64,
    /// Per-stage histograms, indexed by [`Stage`].
    pub stages: [HistogramSnapshot; 4],
    /// Accept-to-verdict latency per flow verdict, in nanoseconds.
    pub accept_to_verdict: HistogramSnapshot,
    /// Packets per dispatched batch (bucket index is `log2(size)`).
    pub batch_size: HistogramSnapshot,
    /// Distinct flows per dispatched batch.
    pub flows_per_batch: HistogramSnapshot,
    /// Buffered bytes at the moment of each flow verdict (bucket index
    /// is `log2(bytes)`).
    pub bytes_at_verdict: HistogramSnapshot,
    /// Per-shard gauges, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

/// Upper bound on the shard count accepted when decoding a snapshot
/// (guards allocation against a corrupt length word).
const MAX_WIRE_SHARDS: u64 = 65_536;

/// Version word leading the stats wire encoding. Bumped whenever
/// fields are added, removed, or reordered, so a client and server
/// from different sides of a format change fail the decode loudly
/// instead of silently misreading shifted words. Version 2 added the
/// `udp_datagrams`/`open_connections`/`reassembly_buffer_bytes`
/// gauges and the accept-to-verdict histogram. Version 3 added the
/// bytes-at-verdict histogram and the per-shard early-exit gauge.
/// Version 4 added the `flow_memo_hits`/`flow_memo_misses` counters.
const STATS_WIRE_VERSION: u64 = 4;

impl StatsSnapshot {
    /// Histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Fills in the queue-lock counter (summed across shard queues by
    /// the server, which owns the queues).
    #[must_use]
    pub fn with_queue_locks(mut self, acquisitions: u64) -> Self {
        self.queue_lock_acquisitions = acquisitions;
        self
    }

    /// Total pending flows across all shards.
    #[must_use]
    pub fn pending_flows(&self) -> u64 {
        self.shards.iter().map(|s| s.pending_flows).sum()
    }

    /// Total resident feature-state bytes across all shards.
    #[must_use]
    pub fn resident_feature_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.resident_feature_bytes).sum()
    }

    /// Total pool-recycled flow states across all shards.
    #[must_use]
    pub fn state_pool_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.state_pool_hits).sum()
    }

    /// Total parked feature states across all shards.
    #[must_use]
    pub fn state_pool_size(&self) -> u64 {
        self.shards.iter().map(|s| s.state_pool_size).sum()
    }

    /// Total anytime early-exit verdicts across all shards.
    #[must_use]
    pub fn early_exit_verdicts(&self) -> u64 {
        self.shards.iter().map(|s| s.early_exit_verdicts).sum()
    }

    /// Share of submitted packets whose flow ID the reactor's memo
    /// held, so no SHA-1 ran; `None` before the first packet.
    #[must_use]
    pub fn flow_memo_hit_rate(&self) -> Option<f64> {
        let asked = self.flow_memo_hits + self.flow_memo_misses;
        (asked > 0).then(|| self.flow_memo_hits as f64 / asked as f64)
    }

    /// Wire encoding: the [`STATS_WIRE_VERSION`] word, the fourteen
    /// counters/gauges, the four stage histograms, the
    /// accept-to-verdict histogram, the two batch-shape histograms,
    /// the bytes-at-verdict histogram, then the shard-gauge section
    /// (shard count followed by five gauges per shard), all as
    /// big-endian `u64`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            STATS_WIRE_VERSION,
            self.packets,
            self.hits,
            self.flows_classified,
            self.busy_rejects,
            self.dropped_oldest,
            self.classify_requests,
            self.drains,
            self.connections,
            self.udp_datagrams,
            self.open_connections,
            self.reassembly_buffer_bytes,
            self.flow_memo_hits,
            self.flow_memo_misses,
            self.queue_lock_acquisitions,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for hist in self.stages.iter().chain([
            &self.accept_to_verdict,
            &self.batch_size,
            &self.flows_per_batch,
            &self.bytes_at_verdict,
        ]) {
            for &bucket in &hist.buckets {
                out.extend_from_slice(&bucket.to_be_bytes());
            }
        }
        out.extend_from_slice(&(self.shards.len() as u64).to_be_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&shard.pending_flows.to_be_bytes());
            out.extend_from_slice(&shard.resident_feature_bytes.to_be_bytes());
            out.extend_from_slice(&shard.state_pool_hits.to_be_bytes());
            out.extend_from_slice(&shard.state_pool_size.to_be_bytes());
            out.extend_from_slice(&shard.early_exit_verdicts.to_be_bytes());
        }
    }

    /// Inverse of [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] if the body is truncated,
    /// carries an unknown format version, or declares an implausible
    /// shard count.
    pub(crate) fn decode(r: &mut crate::proto::FieldReader<'_>) -> Result<Self, ProtoError> {
        let version = r.u64()?;
        if version != STATS_WIRE_VERSION {
            return Err(ProtoError::Malformed(format!(
                "stats snapshot version {version}, this build speaks {STATS_WIRE_VERSION}"
            )));
        }
        let mut snapshot = StatsSnapshot {
            packets: r.u64()?,
            hits: r.u64()?,
            flows_classified: r.u64()?,
            busy_rejects: r.u64()?,
            dropped_oldest: r.u64()?,
            classify_requests: r.u64()?,
            drains: r.u64()?,
            connections: r.u64()?,
            udp_datagrams: r.u64()?,
            open_connections: r.u64()?,
            reassembly_buffer_bytes: r.u64()?,
            flow_memo_hits: r.u64()?,
            flow_memo_misses: r.u64()?,
            queue_lock_acquisitions: r.u64()?,
            stages: Default::default(),
            accept_to_verdict: HistogramSnapshot::default(),
            batch_size: HistogramSnapshot::default(),
            flows_per_batch: HistogramSnapshot::default(),
            bytes_at_verdict: HistogramSnapshot::default(),
            shards: Vec::new(),
        };
        for hist in snapshot.stages.iter_mut().chain([
            &mut snapshot.accept_to_verdict,
            &mut snapshot.batch_size,
            &mut snapshot.flows_per_batch,
            &mut snapshot.bytes_at_verdict,
        ]) {
            for bucket in &mut hist.buckets {
                *bucket = r.u64()?;
            }
        }
        let shard_count = r.u64()?;
        if shard_count > MAX_WIRE_SHARDS {
            return Err(ProtoError::Malformed("implausible shard count".into()));
        }
        snapshot.shards.reserve(shard_count as usize);
        for _ in 0..shard_count {
            snapshot.shards.push(ShardStats {
                pending_flows: r.u64()?,
                resident_feature_bytes: r.u64()?,
                state_pool_hits: r.u64()?,
                state_pool_size: r.u64()?,
                early_exit_verdicts: r.u64()?,
            });
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2, "0 and 1 land in bucket 0");
        assert_eq!(s.buckets[1], 2, "2 and 3 land in bucket 1");
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20); // one outlier
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(96), "1.5 * 64");
        assert_eq!(s.p99(), Some(96));
        assert_eq!(s.quantile(1.0), Some((1 << 20) + (1 << 19)));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(HistogramSnapshot::default().p50(), None);
        assert_eq!(HistogramSnapshot::default().count(), 0);
    }

    #[test]
    fn metrics_snapshot_reflects_counters() {
        let m = ServeMetrics::default();
        ServeMetrics::add(&m.packets, 10);
        ServeMetrics::add(&m.hits, 3);
        m.record(Stage::Classify, 5000);
        let s = m.snapshot();
        assert_eq!(s.packets, 10);
        assert_eq!(s.hits, 3);
        assert_eq!(s.stage(Stage::Classify).count(), 1);
        assert_eq!(s.stage(Stage::Hash).count(), 0);
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let m = ServeMetrics::with_shards(3);
        ServeMetrics::add(&m.packets, 12345);
        ServeMetrics::add(&m.dropped_oldest, 7);
        ServeMetrics::add(&m.udp_datagrams, 31);
        m.flow_memo_hits.store(12000, Ordering::Relaxed);
        m.flow_memo_misses.store(345, Ordering::Relaxed);
        m.open_connections.store(1000, Ordering::Relaxed);
        m.reassembly_buffer_bytes.store(4096, Ordering::Relaxed);
        m.record(Stage::Hash, 250);
        m.record(Stage::BufferFill, 999);
        m.accept_to_verdict.record(1_500_000);
        m.batch_size.record(64);
        m.batch_size.record(3);
        m.flows_per_batch.record(5);
        m.bytes_at_verdict.record(512);
        m.bytes_at_verdict.record(32);
        m.shards[0].set(4, 4 * 2240, 120, 9, 17);
        m.shards[2].set(1, 96, 41, 2, 5);
        let snapshot = m.snapshot().with_queue_locks(77);
        let mut body = Vec::new();
        snapshot.encode_into(&mut body);
        let mut reader = crate::proto::FieldReader::new(&body);
        let back = StatsSnapshot::decode(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.queue_lock_acquisitions, 77);
        assert_eq!(back.udp_datagrams, 31);
        assert_eq!(back.open_connections, 1000);
        assert_eq!(back.reassembly_buffer_bytes, 4096);
        assert_eq!((back.flow_memo_hits, back.flow_memo_misses), (12000, 345));
        assert_eq!(back.accept_to_verdict.count(), 1);
        assert_eq!(back.batch_size.count(), 2);
        assert_eq!(back.flows_per_batch.count(), 1);
        assert_eq!(back.pending_flows(), 5);
        assert_eq!(back.resident_feature_bytes(), 4 * 2240 + 96);
        assert_eq!(back.state_pool_hits(), 161);
        assert_eq!(back.state_pool_size(), 11);
        assert_eq!(back.bytes_at_verdict.count(), 2);
        assert_eq!(back.early_exit_verdicts(), 22);
    }

    #[test]
    fn shardless_snapshot_round_trips_empty_gauge_section() {
        let snapshot = ServeMetrics::default().snapshot();
        assert!(snapshot.shards.is_empty());
        let mut body = Vec::new();
        snapshot.encode_into(&mut body);
        let mut reader = crate::proto::FieldReader::new(&body);
        let back = StatsSnapshot::decode(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn decode_rejects_mismatched_version() {
        let mut body = Vec::new();
        StatsSnapshot::default().encode_into(&mut body);
        // A peer from the other side of a format change: same payload,
        // different leading version word — the next format, and the
        // one before the flow-memo counters shifted every later word.
        for version in [STATS_WIRE_VERSION + 1, STATS_WIRE_VERSION - 1] {
            body[..8].copy_from_slice(&version.to_be_bytes());
            let mut reader = crate::proto::FieldReader::new(&body);
            let err = StatsSnapshot::decode(&mut reader).unwrap_err();
            assert!(err.to_string().contains(&format!("version {version}")), "got: {err}");
        }
    }

    #[test]
    fn decode_rejects_implausible_shard_count() {
        let mut body = Vec::new();
        StatsSnapshot::default().encode_into(&mut body);
        // Overwrite the shard-count word (last 8 bytes of an empty
        // gauge section) with an absurd value.
        let n = body.len();
        body[n - 8..].copy_from_slice(&u64::MAX.to_be_bytes());
        let mut reader = crate::proto::FieldReader::new(&body);
        assert!(StatsSnapshot::decode(&mut reader).is_err());
    }
}
