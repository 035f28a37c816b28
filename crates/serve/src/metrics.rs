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

/// Counter and gauge words of [`Metrics`] (every `C` field).
const COUNTERS: usize = 13;

/// Histograms of [`Metrics`]: the four stages, then the other four.
const HISTOGRAMS: usize = 8;

/// Gauges per shard (every field of [`ShardMetrics`]).
const SHARD_GAUGES: usize = 5;

/// Every serve metric, declared once. `C` is the cell of a counter or
/// gauge and `H` a histogram: [`ServeMetrics`] is the live block the
/// server updates, [`StatsSnapshot`] the copy a `Stats` request returns.
///
/// Field order is wire order. [`snapshot`](ServeMetrics::snapshot),
/// [`encode_into`](StatsSnapshot::encode_into) and the decoder loop
/// over the wire-order field lists of `fields` and `from_fields`; a
/// field those lists leave out does not build.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics<C, H> {
    /// Packets accepted into shard queues.
    pub packets: C,
    /// CDB hits on the packet path.
    pub hits: C,
    /// Flows classified (one verdict each).
    pub flows_classified: C,
    /// Packets rejected with `Busy` (RejectBusy admission).
    pub busy_rejects: C,
    /// Packets evicted from full queues (DropOldest admission).
    pub dropped_oldest: C,
    /// One-shot `ClassifyBuffer` requests served.
    pub classify_requests: C,
    /// `Drain` barriers completed.
    pub drains: C,
    /// Connections accepted since start.
    pub connections: C,
    /// Gauge: connections currently registered with the reactor.
    pub open_connections: C,
    /// Gauge: bytes parked in per-connection reassembly buffers
    /// (partial frames awaiting more reads), summed over connections.
    pub reassembly_buffer_bytes: C,
    /// Submitted packets whose flow ID the reactor's `FlowIdMemo` held
    /// (no SHA-1 ran). Stored by the reactor at every dispatch; with
    /// [`flow_memo_misses`](Self::flow_memo_misses) it sums to the
    /// packets offered, accepted or refused.
    pub flow_memo_hits: C,
    /// Submitted packets the reactor hashed: one SHA-1, one
    /// [`Stage::Hash`] sample and one memo fill each.
    pub flow_memo_misses: C,
    /// Shard-queue mutex acquisitions, summed over all shard queues.
    /// The counts live on the queues; the server stores their sum here
    /// just before each snapshot. Compare against `packets` to see the
    /// batch amortization: the ratio stays far below one acquisition
    /// per packet.
    pub queue_lock_acquisitions: C,
    /// Per-stage latency histograms, indexed by [`Stage`].
    pub stages: [H; 4],
    /// Accept-to-verdict latency: time from a connection's accept to
    /// each flow verdict written back on it, in nanoseconds.
    pub accept_to_verdict: H,
    /// Packets per batch dispatched into a shard pipeline (the
    /// power-of-two buckets hold batch sizes, not nanoseconds). A
    /// healthy batching path shows mass well above bucket 0.
    pub batch_size: H,
    /// Distinct flows per dispatched batch. Together with
    /// [`batch_size`](Self::batch_size) this shows the amortization
    /// ratio: packets-per-flow-group per batch.
    pub flows_per_batch: H,
    /// Buffered bytes at the moment each flow got its verdict (the
    /// power-of-two buckets hold byte counts, not nanoseconds). With
    /// anytime early exit enabled the mass sits below `b`; without it
    /// every full-buffer verdict lands at `b` and only idle/close
    /// leftovers fall short.
    pub bytes_at_verdict: H,
    /// Per-shard gauges, indexed by shard id (empty until
    /// [`with_shards`](ServeMetrics::with_shards)).
    pub shards: Vec<ShardMetrics<C>>,
}

/// Live counters and histograms for a running server.
pub type ServeMetrics = Metrics<AtomicU64, LatencyHistogram>;

/// Point-in-time copy of all server metrics, as returned by the
/// `Stats` request.
pub type StatsSnapshot = Metrics<u64, HistogramSnapshot>;

impl<C, H> Metrics<C, H> {
    /// Every field, by kind, in wire order: the counters, the histograms
    /// (stages first), the shards.
    fn fields(&self) -> ([&C; COUNTERS], [&H; HISTOGRAMS], &[ShardMetrics<C>]) {
        let [hash, cdb_lookup, buffer_fill, classify] = &self.stages;
        let counters = [
            &self.packets,
            &self.hits,
            &self.flows_classified,
            &self.busy_rejects,
            &self.dropped_oldest,
            &self.classify_requests,
            &self.drains,
            &self.connections,
            &self.open_connections,
            &self.reassembly_buffer_bytes,
            &self.flow_memo_hits,
            &self.flow_memo_misses,
            &self.queue_lock_acquisitions,
        ];
        let histograms = [
            hash,
            cdb_lookup,
            buffer_fill,
            classify,
            &self.accept_to_verdict,
            &self.batch_size,
            &self.flows_per_batch,
            &self.bytes_at_verdict,
        ];
        (counters, histograms, &self.shards)
    }

    /// Inverse of [`fields`](Self::fields). The struct literal names
    /// every field and the array lengths tie it to `fields`, so a field
    /// the wire lists leave out does not build.
    fn from_fields(
        counters: [C; COUNTERS],
        histograms: [H; HISTOGRAMS],
        shards: Vec<ShardMetrics<C>>,
    ) -> Self {
        let [packets, hits, flows_classified, busy_rejects, dropped_oldest, classify_requests, drains, connections, open_connections, reassembly_buffer_bytes, flow_memo_hits, flow_memo_misses, queue_lock_acquisitions] =
            counters;
        let [hash, cdb_lookup, buffer_fill, classify, accept_to_verdict, batch_size, flows_per_batch, bytes_at_verdict] =
            histograms;
        Metrics {
            packets,
            hits,
            flows_classified,
            busy_rejects,
            dropped_oldest,
            classify_requests,
            drains,
            connections,
            open_connections,
            reassembly_buffer_bytes,
            flow_memo_hits,
            flow_memo_misses,
            queue_lock_acquisitions,
            stages: [hash, cdb_lookup, buffer_fill, classify],
            accept_to_verdict,
            batch_size,
            flows_per_batch,
            bytes_at_verdict,
            shards,
        }
    }
}

/// Per-shard gauges, refreshed by each shard worker after every batch
/// it drains.
///
/// Unlike the monotone counters these are *levels*: `pending_flows`
/// mirrors [`Iustitia::pending_flows`] and `resident_feature_bytes`
/// mirrors [`Iustitia::resident_feature_bytes`] for the shard's
/// pipeline, so an operator can watch what pending flows hold — their
/// buffered bytes plus their batteries — instead of inferring it from
/// `b × pending`. Field order is wire order.
///
/// [`Iustitia::pending_flows`]: iustitia::Iustitia::pending_flows
/// [`Iustitia::resident_feature_bytes`]: iustitia::Iustitia::resident_feature_bytes
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics<C> {
    /// Flows currently buffered in this shard, awaiting a verdict.
    pub pending_flows: C,
    /// Bytes this shard's pending flows hold: buffered payload (at
    /// most the buffer capacity each) plus, with the battery on, each
    /// flow's battery. The pipeline's one table set is not in it.
    pub resident_feature_bytes: C,
    /// Flows whose slot (buffer and battery) was recycled from the
    /// shard pipeline's free list instead of freshly allocated.
    pub state_pool_hits: C,
    /// Flow slots currently parked on the shard pipeline's free list.
    pub state_pool_size: C,
    /// Verdicts this shard's pipeline emitted from an anytime probe
    /// before the fixed-`b` buffer filled (mirrors
    /// `Iustitia::early_exit_verdicts`; stays 0 with anytime off).
    pub early_exit_verdicts: C,
}

/// One shard's live gauges.
pub type ShardGauges = ShardMetrics<AtomicU64>;

/// Point-in-time copy of one shard's gauges.
pub type ShardStats = ShardMetrics<u64>;

impl<C> ShardMetrics<C> {
    /// Every gauge, in wire order.
    fn cells(&self) -> [&C; SHARD_GAUGES] {
        [
            &self.pending_flows,
            &self.resident_feature_bytes,
            &self.state_pool_hits,
            &self.state_pool_size,
            &self.early_exit_verdicts,
        ]
    }

    /// Inverse of [`cells`](Self::cells); as with
    /// [`Metrics::from_fields`], a gauge left out does not build.
    fn from_cells(cells: [C; SHARD_GAUGES]) -> Self {
        let [pending_flows, resident_feature_bytes, state_pool_hits, state_pool_size, early_exit_verdicts] =
            cells;
        ShardMetrics {
            pending_flows,
            resident_feature_bytes,
            state_pool_hits,
            state_pool_size,
            early_exit_verdicts,
        }
    }
}

impl ShardGauges {
    /// Stores all gauge levels (Relaxed; the values are advisory).
    pub fn set(&self, levels: &ShardStats) {
        for (gauge, &level) in self.cells().into_iter().zip(levels.cells()) {
            gauge.store(level, Ordering::Relaxed);
        }
    }
}

impl ServeMetrics {
    /// Metrics block with one gauge set per shard.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        Metrics { shards: (0..n).map(|_| ShardGauges::default()).collect(), ..Self::default() }
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

    /// Copies every counter, histogram and shard gauge.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let (counters, histograms, shards) = self.fields();
        Metrics::from_fields(
            counters.map(load),
            histograms.map(LatencyHistogram::snapshot),
            shards
                .iter()
                .map(|gauges| ShardMetrics::from_cells(gauges.cells().map(load)))
                .collect(),
        )
    }
}

/// Version word leading the stats wire encoding. Bumped whenever
/// fields are added, removed, or reordered, so a client and server
/// from different sides of a format change fail the decode loudly
/// instead of silently misreading shifted words. Version 2 added a
/// datagram counter, the `open_connections`/`reassembly_buffer_bytes`
/// gauges and the accept-to-verdict histogram. Version 3 added the
/// bytes-at-verdict histogram and the per-shard early-exit gauge.
/// Version 4 added the `flow_memo_hits`/`flow_memo_misses` counters.
/// Version 5 removed the datagram counter with the datagram transport.
const STATS_WIRE_VERSION: u64 = 5;

impl StatsSnapshot {
    /// Histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Total pending flows across all shards.
    #[must_use]
    pub fn pending_flows(&self) -> u64 {
        self.shards.iter().map(|s| s.pending_flows).sum()
    }

    /// Total bytes pending flows hold across all shards (buffered
    /// payload plus batteries).
    #[must_use]
    pub fn resident_feature_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.resident_feature_bytes).sum()
    }

    /// Total pool-recycled flow slots across all shards.
    #[must_use]
    pub fn state_pool_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.state_pool_hits).sum()
    }

    /// Total parked flow slots across all shards.
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

    /// Wire encoding, all big-endian `u64`: the
    /// [`STATS_WIRE_VERSION`] word, every field of [`Metrics`] in
    /// declaration order — the thirteen counters/gauges, then each
    /// histogram's buckets, stages first — and the shard count
    /// followed by each shard's five gauges.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (counters, histograms, shards) = self.fields();
        let shard_count = shards.len() as u64;
        let words = [&STATS_WIRE_VERSION]
            .into_iter()
            .chain(counters)
            .chain(histograms.into_iter().flat_map(|h| &h.buckets))
            .chain([&shard_count])
            .chain(shards.iter().flat_map(ShardMetrics::cells));
        for word in words {
            out.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Inverse of [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] if the body is truncated,
    /// carries an unknown format version, or declares more shards than
    /// the rest of the body can hold.
    pub(crate) fn decode(r: &mut crate::proto::FieldReader<'_>) -> Result<Self, ProtoError> {
        let version = r.u64()?;
        if version != STATS_WIRE_VERSION {
            return Err(ProtoError::Malformed(format!(
                "stats snapshot version {version}, this build speaks {STATS_WIRE_VERSION}"
            )));
        }
        let counters = r.u64s()?;
        let mut histograms: [HistogramSnapshot; HISTOGRAMS] = Default::default();
        for bucket in histograms.iter_mut().flat_map(|h| &mut h.buckets) {
            *bucket = r.u64()?;
        }
        // Bounded by the body before anything is reserved: a corrupt
        // count fails here, not after a large allocation.
        let shard_count = r.u64()?;
        let room = r.remaining() / (SHARD_GAUGES * 8);
        let shard_count =
            usize::try_from(shard_count).ok().filter(|&n| n <= room).ok_or_else(|| {
                ProtoError::Malformed(format!(
                    "stats snapshot declares {shard_count} shards, the body holds {room}"
                ))
            })?;
        let shards = (0..shard_count)
            .map(|_| r.u64s().map(ShardMetrics::from_cells))
            .collect::<Result<_, _>>()?;
        Ok(Metrics::from_fields(counters, histograms, shards))
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
        m.shards[0].set(&ShardStats {
            pending_flows: 4,
            resident_feature_bytes: 4 * 2240,
            state_pool_hits: 120,
            state_pool_size: 9,
            early_exit_verdicts: 17,
        });
        m.shards[2].set(&ShardStats {
            pending_flows: 1,
            resident_feature_bytes: 96,
            state_pool_hits: 41,
            state_pool_size: 2,
            early_exit_verdicts: 5,
        });
        m.queue_lock_acquisitions.store(77, Ordering::Relaxed);
        let snapshot = m.snapshot();
        let mut body = Vec::new();
        snapshot.encode_into(&mut body);
        let mut reader = crate::proto::FieldReader::new(&body);
        let back = StatsSnapshot::decode(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.queue_lock_acquisitions, 77);
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

        // A count the body cannot hold: two shards declared, one present.
        let snapshot = StatsSnapshot { shards: vec![ShardStats::default()], ..Default::default() };
        let mut body = Vec::new();
        snapshot.encode_into(&mut body);
        let count_at = body.len() - 8 * (SHARD_GAUGES + 1);
        body[count_at..count_at + 8].copy_from_slice(&2u64.to_be_bytes());
        let mut reader = crate::proto::FieldReader::new(&body);
        let err = StatsSnapshot::decode(&mut reader).unwrap_err();
        assert!(err.to_string().contains("declares 2 shards, the body holds 1"), "got: {err}");
    }

    fn histogram(h: u64) -> HistogramSnapshot {
        HistogramSnapshot { buckets: std::array::from_fn(|b| 0x2000 + (h << 8) + b as u64) }
    }

    fn shard(s: u64) -> ShardStats {
        ShardStats {
            pending_flows: 0x3001 + (s << 4),
            resident_feature_bytes: 0x3002 + (s << 4),
            state_pool_hits: 0x3003 + (s << 4),
            state_pool_size: 0x3004 + (s << 4),
            early_exit_verdicts: 0x3005 + (s << 4),
        }
    }

    /// The version-4 stats body of a snapshot with a distinct value in
    /// every word (counters `0x10nn`, histogram `h` bucket `b` at
    /// `0x2000 + h·0x100 + b`, shard `s` gauge `g` at `0x30sg`), frozen
    /// as bytes: 4 words a line.
    const STATS_V5: &str = "\
        0000000000000005000000000000100100000000000010020000000000001003\
        0000000000001004000000000000100500000000000010060000000000001007\
        00000000000010080000000000001009000000000000100a000000000000100b\
        000000000000100c000000000000100d00000000000020000000000000002001\
        0000000000002002000000000000200300000000000020040000000000002005\
        0000000000002006000000000000200700000000000020080000000000002009\
        000000000000200a000000000000200b000000000000200c000000000000200d\
        000000000000200e000000000000200f00000000000020100000000000002011\
        0000000000002012000000000000201300000000000020140000000000002015\
        0000000000002016000000000000201700000000000020180000000000002019\
        000000000000201a000000000000201b000000000000201c000000000000201d\
        000000000000201e000000000000201f00000000000020200000000000002021\
        0000000000002022000000000000202300000000000020240000000000002025\
        0000000000002026000000000000202700000000000020280000000000002029\
        000000000000202a000000000000202b000000000000202c000000000000202d\
        000000000000202e000000000000202f00000000000020300000000000002031\
        0000000000002032000000000000203300000000000020340000000000002035\
        0000000000002036000000000000203700000000000020380000000000002039\
        000000000000203a000000000000203b000000000000203c000000000000203d\
        000000000000203e000000000000203f00000000000021000000000000002101\
        0000000000002102000000000000210300000000000021040000000000002105\
        0000000000002106000000000000210700000000000021080000000000002109\
        000000000000210a000000000000210b000000000000210c000000000000210d\
        000000000000210e000000000000210f00000000000021100000000000002111\
        0000000000002112000000000000211300000000000021140000000000002115\
        0000000000002116000000000000211700000000000021180000000000002119\
        000000000000211a000000000000211b000000000000211c000000000000211d\
        000000000000211e000000000000211f00000000000021200000000000002121\
        0000000000002122000000000000212300000000000021240000000000002125\
        0000000000002126000000000000212700000000000021280000000000002129\
        000000000000212a000000000000212b000000000000212c000000000000212d\
        000000000000212e000000000000212f00000000000021300000000000002131\
        0000000000002132000000000000213300000000000021340000000000002135\
        0000000000002136000000000000213700000000000021380000000000002139\
        000000000000213a000000000000213b000000000000213c000000000000213d\
        000000000000213e000000000000213f00000000000022000000000000002201\
        0000000000002202000000000000220300000000000022040000000000002205\
        0000000000002206000000000000220700000000000022080000000000002209\
        000000000000220a000000000000220b000000000000220c000000000000220d\
        000000000000220e000000000000220f00000000000022100000000000002211\
        0000000000002212000000000000221300000000000022140000000000002215\
        0000000000002216000000000000221700000000000022180000000000002219\
        000000000000221a000000000000221b000000000000221c000000000000221d\
        000000000000221e000000000000221f00000000000022200000000000002221\
        0000000000002222000000000000222300000000000022240000000000002225\
        0000000000002226000000000000222700000000000022280000000000002229\
        000000000000222a000000000000222b000000000000222c000000000000222d\
        000000000000222e000000000000222f00000000000022300000000000002231\
        0000000000002232000000000000223300000000000022340000000000002235\
        0000000000002236000000000000223700000000000022380000000000002239\
        000000000000223a000000000000223b000000000000223c000000000000223d\
        000000000000223e000000000000223f00000000000023000000000000002301\
        0000000000002302000000000000230300000000000023040000000000002305\
        0000000000002306000000000000230700000000000023080000000000002309\
        000000000000230a000000000000230b000000000000230c000000000000230d\
        000000000000230e000000000000230f00000000000023100000000000002311\
        0000000000002312000000000000231300000000000023140000000000002315\
        0000000000002316000000000000231700000000000023180000000000002319\
        000000000000231a000000000000231b000000000000231c000000000000231d\
        000000000000231e000000000000231f00000000000023200000000000002321\
        0000000000002322000000000000232300000000000023240000000000002325\
        0000000000002326000000000000232700000000000023280000000000002329\
        000000000000232a000000000000232b000000000000232c000000000000232d\
        000000000000232e000000000000232f00000000000023300000000000002331\
        0000000000002332000000000000233300000000000023340000000000002335\
        0000000000002336000000000000233700000000000023380000000000002339\
        000000000000233a000000000000233b000000000000233c000000000000233d\
        000000000000233e000000000000233f00000000000024000000000000002401\
        0000000000002402000000000000240300000000000024040000000000002405\
        0000000000002406000000000000240700000000000024080000000000002409\
        000000000000240a000000000000240b000000000000240c000000000000240d\
        000000000000240e000000000000240f00000000000024100000000000002411\
        0000000000002412000000000000241300000000000024140000000000002415\
        0000000000002416000000000000241700000000000024180000000000002419\
        000000000000241a000000000000241b000000000000241c000000000000241d\
        000000000000241e000000000000241f00000000000024200000000000002421\
        0000000000002422000000000000242300000000000024240000000000002425\
        0000000000002426000000000000242700000000000024280000000000002429\
        000000000000242a000000000000242b000000000000242c000000000000242d\
        000000000000242e000000000000242f00000000000024300000000000002431\
        0000000000002432000000000000243300000000000024340000000000002435\
        0000000000002436000000000000243700000000000024380000000000002439\
        000000000000243a000000000000243b000000000000243c000000000000243d\
        000000000000243e000000000000243f00000000000025000000000000002501\
        0000000000002502000000000000250300000000000025040000000000002505\
        0000000000002506000000000000250700000000000025080000000000002509\
        000000000000250a000000000000250b000000000000250c000000000000250d\
        000000000000250e000000000000250f00000000000025100000000000002511\
        0000000000002512000000000000251300000000000025140000000000002515\
        0000000000002516000000000000251700000000000025180000000000002519\
        000000000000251a000000000000251b000000000000251c000000000000251d\
        000000000000251e000000000000251f00000000000025200000000000002521\
        0000000000002522000000000000252300000000000025240000000000002525\
        0000000000002526000000000000252700000000000025280000000000002529\
        000000000000252a000000000000252b000000000000252c000000000000252d\
        000000000000252e000000000000252f00000000000025300000000000002531\
        0000000000002532000000000000253300000000000025340000000000002535\
        0000000000002536000000000000253700000000000025380000000000002539\
        000000000000253a000000000000253b000000000000253c000000000000253d\
        000000000000253e000000000000253f00000000000026000000000000002601\
        0000000000002602000000000000260300000000000026040000000000002605\
        0000000000002606000000000000260700000000000026080000000000002609\
        000000000000260a000000000000260b000000000000260c000000000000260d\
        000000000000260e000000000000260f00000000000026100000000000002611\
        0000000000002612000000000000261300000000000026140000000000002615\
        0000000000002616000000000000261700000000000026180000000000002619\
        000000000000261a000000000000261b000000000000261c000000000000261d\
        000000000000261e000000000000261f00000000000026200000000000002621\
        0000000000002622000000000000262300000000000026240000000000002625\
        0000000000002626000000000000262700000000000026280000000000002629\
        000000000000262a000000000000262b000000000000262c000000000000262d\
        000000000000262e000000000000262f00000000000026300000000000002631\
        0000000000002632000000000000263300000000000026340000000000002635\
        0000000000002636000000000000263700000000000026380000000000002639\
        000000000000263a000000000000263b000000000000263c000000000000263d\
        000000000000263e000000000000263f00000000000027000000000000002701\
        0000000000002702000000000000270300000000000027040000000000002705\
        0000000000002706000000000000270700000000000027080000000000002709\
        000000000000270a000000000000270b000000000000270c000000000000270d\
        000000000000270e000000000000270f00000000000027100000000000002711\
        0000000000002712000000000000271300000000000027140000000000002715\
        0000000000002716000000000000271700000000000027180000000000002719\
        000000000000271a000000000000271b000000000000271c000000000000271d\
        000000000000271e000000000000271f00000000000027200000000000002721\
        0000000000002722000000000000272300000000000027240000000000002725\
        0000000000002726000000000000272700000000000027280000000000002729\
        000000000000272a000000000000272b000000000000272c000000000000272d\
        000000000000272e000000000000272f00000000000027300000000000002731\
        0000000000002732000000000000273300000000000027340000000000002735\
        0000000000002736000000000000273700000000000027380000000000002739\
        000000000000273a000000000000273b000000000000273c000000000000273d\
        000000000000273e000000000000273f00000000000000020000000000003001\
        0000000000003002000000000000300300000000000030040000000000003005\
        0000000000003011000000000000301200000000000030130000000000003014\
        0000000000003015";

    #[test]
    fn stats_wire_v5_is_frozen() {
        let probe = StatsSnapshot {
            packets: 0x1001,
            hits: 0x1002,
            flows_classified: 0x1003,
            busy_rejects: 0x1004,
            dropped_oldest: 0x1005,
            classify_requests: 0x1006,
            drains: 0x1007,
            connections: 0x1008,
            open_connections: 0x1009,
            reassembly_buffer_bytes: 0x100A,
            flow_memo_hits: 0x100B,
            flow_memo_misses: 0x100C,
            queue_lock_acquisitions: 0x100D,
            stages: [histogram(0), histogram(1), histogram(2), histogram(3)],
            accept_to_verdict: histogram(4),
            batch_size: histogram(5),
            flows_per_batch: histogram(6),
            bytes_at_verdict: histogram(7),
            shards: vec![shard(0), shard(1)],
        };
        let golden: Vec<u8> = (0..STATS_V5.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&STATS_V5[i..i + 2], 16).unwrap())
            .collect();
        let mut body = Vec::new();
        probe.encode_into(&mut body);
        assert_eq!(body.len(), 8 * (1 + 13 + 8 * BUCKETS + 1 + 2 * 5));
        assert!(body == golden, "the stats wire changed; bump STATS_WIRE_VERSION");
        let mut reader = crate::proto::FieldReader::new(&golden);
        assert_eq!(StatsSnapshot::decode(&mut reader).unwrap(), probe);
        reader.finish().unwrap();
    }
}
