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
const COUNTERS: usize = 14;

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
    /// UDP datagrams ingested by the reactor's datagram adapter.
    pub udp_datagrams: C,
    /// Gauge: connections currently registered with the reactor
    /// (TCP sockets plus live UDP pseudo-peers).
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
    /// Accept-to-verdict latency: time from a connection's accept (or
    /// a UDP peer's first datagram) to each flow verdict written back
    /// on it, in nanoseconds.
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
            &self.udp_datagrams,
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
        let [packets, hits, flows_classified, busy_rejects, dropped_oldest, classify_requests, drains, connections, udp_datagrams, open_connections, reassembly_buffer_bytes, flow_memo_hits, flow_memo_misses, queue_lock_acquisitions] =
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
            udp_datagrams,
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
    /// declaration order — the fourteen counters/gauges, then each
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
    const STATS_V4: &str = "\
        0000000000000004000000000000100100000000000010020000000000001003\
        0000000000001004000000000000100500000000000010060000000000001007\
        00000000000010080000000000001009000000000000100a000000000000100b\
        000000000000100c000000000000100d000000000000100e0000000000002000\
        0000000000002001000000000000200200000000000020030000000000002004\
        0000000000002005000000000000200600000000000020070000000000002008\
        0000000000002009000000000000200a000000000000200b000000000000200c\
        000000000000200d000000000000200e000000000000200f0000000000002010\
        0000000000002011000000000000201200000000000020130000000000002014\
        0000000000002015000000000000201600000000000020170000000000002018\
        0000000000002019000000000000201a000000000000201b000000000000201c\
        000000000000201d000000000000201e000000000000201f0000000000002020\
        0000000000002021000000000000202200000000000020230000000000002024\
        0000000000002025000000000000202600000000000020270000000000002028\
        0000000000002029000000000000202a000000000000202b000000000000202c\
        000000000000202d000000000000202e000000000000202f0000000000002030\
        0000000000002031000000000000203200000000000020330000000000002034\
        0000000000002035000000000000203600000000000020370000000000002038\
        0000000000002039000000000000203a000000000000203b000000000000203c\
        000000000000203d000000000000203e000000000000203f0000000000002100\
        0000000000002101000000000000210200000000000021030000000000002104\
        0000000000002105000000000000210600000000000021070000000000002108\
        0000000000002109000000000000210a000000000000210b000000000000210c\
        000000000000210d000000000000210e000000000000210f0000000000002110\
        0000000000002111000000000000211200000000000021130000000000002114\
        0000000000002115000000000000211600000000000021170000000000002118\
        0000000000002119000000000000211a000000000000211b000000000000211c\
        000000000000211d000000000000211e000000000000211f0000000000002120\
        0000000000002121000000000000212200000000000021230000000000002124\
        0000000000002125000000000000212600000000000021270000000000002128\
        0000000000002129000000000000212a000000000000212b000000000000212c\
        000000000000212d000000000000212e000000000000212f0000000000002130\
        0000000000002131000000000000213200000000000021330000000000002134\
        0000000000002135000000000000213600000000000021370000000000002138\
        0000000000002139000000000000213a000000000000213b000000000000213c\
        000000000000213d000000000000213e000000000000213f0000000000002200\
        0000000000002201000000000000220200000000000022030000000000002204\
        0000000000002205000000000000220600000000000022070000000000002208\
        0000000000002209000000000000220a000000000000220b000000000000220c\
        000000000000220d000000000000220e000000000000220f0000000000002210\
        0000000000002211000000000000221200000000000022130000000000002214\
        0000000000002215000000000000221600000000000022170000000000002218\
        0000000000002219000000000000221a000000000000221b000000000000221c\
        000000000000221d000000000000221e000000000000221f0000000000002220\
        0000000000002221000000000000222200000000000022230000000000002224\
        0000000000002225000000000000222600000000000022270000000000002228\
        0000000000002229000000000000222a000000000000222b000000000000222c\
        000000000000222d000000000000222e000000000000222f0000000000002230\
        0000000000002231000000000000223200000000000022330000000000002234\
        0000000000002235000000000000223600000000000022370000000000002238\
        0000000000002239000000000000223a000000000000223b000000000000223c\
        000000000000223d000000000000223e000000000000223f0000000000002300\
        0000000000002301000000000000230200000000000023030000000000002304\
        0000000000002305000000000000230600000000000023070000000000002308\
        0000000000002309000000000000230a000000000000230b000000000000230c\
        000000000000230d000000000000230e000000000000230f0000000000002310\
        0000000000002311000000000000231200000000000023130000000000002314\
        0000000000002315000000000000231600000000000023170000000000002318\
        0000000000002319000000000000231a000000000000231b000000000000231c\
        000000000000231d000000000000231e000000000000231f0000000000002320\
        0000000000002321000000000000232200000000000023230000000000002324\
        0000000000002325000000000000232600000000000023270000000000002328\
        0000000000002329000000000000232a000000000000232b000000000000232c\
        000000000000232d000000000000232e000000000000232f0000000000002330\
        0000000000002331000000000000233200000000000023330000000000002334\
        0000000000002335000000000000233600000000000023370000000000002338\
        0000000000002339000000000000233a000000000000233b000000000000233c\
        000000000000233d000000000000233e000000000000233f0000000000002400\
        0000000000002401000000000000240200000000000024030000000000002404\
        0000000000002405000000000000240600000000000024070000000000002408\
        0000000000002409000000000000240a000000000000240b000000000000240c\
        000000000000240d000000000000240e000000000000240f0000000000002410\
        0000000000002411000000000000241200000000000024130000000000002414\
        0000000000002415000000000000241600000000000024170000000000002418\
        0000000000002419000000000000241a000000000000241b000000000000241c\
        000000000000241d000000000000241e000000000000241f0000000000002420\
        0000000000002421000000000000242200000000000024230000000000002424\
        0000000000002425000000000000242600000000000024270000000000002428\
        0000000000002429000000000000242a000000000000242b000000000000242c\
        000000000000242d000000000000242e000000000000242f0000000000002430\
        0000000000002431000000000000243200000000000024330000000000002434\
        0000000000002435000000000000243600000000000024370000000000002438\
        0000000000002439000000000000243a000000000000243b000000000000243c\
        000000000000243d000000000000243e000000000000243f0000000000002500\
        0000000000002501000000000000250200000000000025030000000000002504\
        0000000000002505000000000000250600000000000025070000000000002508\
        0000000000002509000000000000250a000000000000250b000000000000250c\
        000000000000250d000000000000250e000000000000250f0000000000002510\
        0000000000002511000000000000251200000000000025130000000000002514\
        0000000000002515000000000000251600000000000025170000000000002518\
        0000000000002519000000000000251a000000000000251b000000000000251c\
        000000000000251d000000000000251e000000000000251f0000000000002520\
        0000000000002521000000000000252200000000000025230000000000002524\
        0000000000002525000000000000252600000000000025270000000000002528\
        0000000000002529000000000000252a000000000000252b000000000000252c\
        000000000000252d000000000000252e000000000000252f0000000000002530\
        0000000000002531000000000000253200000000000025330000000000002534\
        0000000000002535000000000000253600000000000025370000000000002538\
        0000000000002539000000000000253a000000000000253b000000000000253c\
        000000000000253d000000000000253e000000000000253f0000000000002600\
        0000000000002601000000000000260200000000000026030000000000002604\
        0000000000002605000000000000260600000000000026070000000000002608\
        0000000000002609000000000000260a000000000000260b000000000000260c\
        000000000000260d000000000000260e000000000000260f0000000000002610\
        0000000000002611000000000000261200000000000026130000000000002614\
        0000000000002615000000000000261600000000000026170000000000002618\
        0000000000002619000000000000261a000000000000261b000000000000261c\
        000000000000261d000000000000261e000000000000261f0000000000002620\
        0000000000002621000000000000262200000000000026230000000000002624\
        0000000000002625000000000000262600000000000026270000000000002628\
        0000000000002629000000000000262a000000000000262b000000000000262c\
        000000000000262d000000000000262e000000000000262f0000000000002630\
        0000000000002631000000000000263200000000000026330000000000002634\
        0000000000002635000000000000263600000000000026370000000000002638\
        0000000000002639000000000000263a000000000000263b000000000000263c\
        000000000000263d000000000000263e000000000000263f0000000000002700\
        0000000000002701000000000000270200000000000027030000000000002704\
        0000000000002705000000000000270600000000000027070000000000002708\
        0000000000002709000000000000270a000000000000270b000000000000270c\
        000000000000270d000000000000270e000000000000270f0000000000002710\
        0000000000002711000000000000271200000000000027130000000000002714\
        0000000000002715000000000000271600000000000027170000000000002718\
        0000000000002719000000000000271a000000000000271b000000000000271c\
        000000000000271d000000000000271e000000000000271f0000000000002720\
        0000000000002721000000000000272200000000000027230000000000002724\
        0000000000002725000000000000272600000000000027270000000000002728\
        0000000000002729000000000000272a000000000000272b000000000000272c\
        000000000000272d000000000000272e000000000000272f0000000000002730\
        0000000000002731000000000000273200000000000027330000000000002734\
        0000000000002735000000000000273600000000000027370000000000002738\
        0000000000002739000000000000273a000000000000273b000000000000273c\
        000000000000273d000000000000273e000000000000273f0000000000000002\
        0000000000003001000000000000300200000000000030030000000000003004\
        0000000000003005000000000000301100000000000030120000000000003013\
        00000000000030140000000000003015";

    #[test]
    fn stats_wire_v4_is_frozen() {
        let probe = StatsSnapshot {
            packets: 0x1001,
            hits: 0x1002,
            flows_classified: 0x1003,
            busy_rejects: 0x1004,
            dropped_oldest: 0x1005,
            classify_requests: 0x1006,
            drains: 0x1007,
            connections: 0x1008,
            udp_datagrams: 0x1009,
            open_connections: 0x100A,
            reassembly_buffer_bytes: 0x100B,
            flow_memo_hits: 0x100C,
            flow_memo_misses: 0x100D,
            queue_lock_acquisitions: 0x100E,
            stages: [histogram(0), histogram(1), histogram(2), histogram(3)],
            accept_to_verdict: histogram(4),
            batch_size: histogram(5),
            flows_per_batch: histogram(6),
            bytes_at_verdict: histogram(7),
            shards: vec![shard(0), shard(1)],
        };
        let golden: Vec<u8> = (0..STATS_V4.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&STATS_V4[i..i + 2], 16).unwrap())
            .collect();
        let mut body = Vec::new();
        probe.encode_into(&mut body);
        assert_eq!(body.len(), 8 * (1 + 14 + 8 * BUCKETS + 1 + 2 * 5));
        assert!(body == golden, "the stats wire changed; bump STATS_WIRE_VERSION");
        let mut reader = crate::proto::FieldReader::new(&golden);
        assert_eq!(StatsSnapshot::decode(&mut reader).unwrap(), probe);
        reader.finish().unwrap();
    }
}
