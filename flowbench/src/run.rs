//! The two kinds of run: end-to-end (`--trace 0`) and per-layer
//! (`--trace 1`). Both start from the same set-up and the same
//! correctness gates.

use std::time::{Duration, Instant};

use iustitia_serve::{FlowVerdict, Stage};

use crate::affinity::{on_cpu, Rota};
use crate::layers;
use crate::phases::{
    self, batch_gate, batch_rep, client_pass, compare_with_reference, generator_ceiling,
    inline_rep, inline_rep_on, paced_latencies, rtt_flows, rtt_rep, served_pass, sorted_segments,
    traced_inline, Offer, QUEUE_PACED, QUEUE_UNBOUNDED,
};
use crate::procstat::CpuSample;
use crate::spans::{timer_overhead_ns, Tracer};
use crate::stats::{median, quantile_sorted, sort, summarize, supported, Summary};
use crate::workload::{prepare, Prepared, Scale, Workload};

/// Flows per closed-loop rep.
const RTT_FLOWS: usize = 2000;
/// Closed-loop reps go on, within a round, until they have had this long:
/// a rep of the 16 µs workloads lasts 40 ms, so a round samples each CPU
/// several times. A churn rep lasts longer than this and runs once.
const RTT_PHASE_S: f64 = 0.25;
/// Rounds of the end-to-end loop that are checked but not timed: the
/// allocator's per-thread arenas and the page cache of the trace take two
/// passes to settle (the first `umass_mix` inline pass runs at half speed).
const WARMUP_ROUNDS: usize = 2;
/// Timed rounds that always run, however short the window.
const MIN_ROUNDS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What one run measured.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Packets offered to a server.
    pub attempted: u64,
    /// `Busy` frames, data flows left without a verdict, undecodable or
    /// unexpected frames.
    pub failed: u64,
    /// Median, quartiles and rep count of every timing behind a metric.
    pub timings: Vec<(&'static str, Summary)>,
    /// Spans of the traced passes (per-layer runs only).
    pub tracer: Option<Tracer>,
}

/// Failure counts of the served phases, against packets attempted.
#[derive(Default)]
struct Losses {
    attempted: u64,
    busy: u64,
    errors: u64,
    lost_flows: u64,
    diverged_flows: u64,
    /// Flows that were expected to get a verdict, over all passes.
    flows: u64,
}

impl Losses {
    fn failed(&self) -> u64 {
        self.busy + self.errors + self.lost_flows
    }

    /// One pass of the whole trace through a server.
    fn full_pass(
        &mut self,
        w: &Prepared,
        verdicts: &[(FlowVerdict, Instant)],
        busy: u64,
        errors: u64,
    ) -> Result<(), String> {
        let comparison = compare_with_reference(w, verdicts)?;
        self.attempted += w.packets.len() as u64;
        self.busy += busy;
        self.errors += errors;
        self.lost_flows += comparison.lost_flows;
        self.diverged_flows += comparison.diverged_flows;
        self.flows += w.data_flows() as u64;
        Ok(())
    }

    fn rtt(&mut self, rep: &phases::RttRep, flows: usize) {
        self.attempted += rep.packets_sent;
        self.busy += rep.busy;
        self.errors += rep.errors;
        self.lost_flows += rep.lost_flows;
        self.diverged_flows += rep.diverged_flows;
        self.flows += flows as u64;
    }
}

/// Set-up `reps` times, each confined to the rota's next CPU like every
/// single-threaded rep; returns the last prepared workload and each
/// rep's wall time in seconds.
fn set_up(options: &Options, reps: usize, rota: &mut Rota) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps.max(1) {
        // Free the previous copy first: two traces at once double the
        // peak memory for nothing.
        drop(prepared.take());
        let (w, seconds) = on_cpu(rota.next_cpu(), || {
            let start = Instant::now();
            let w = prepare(options.workload, options.seed, options.scale);
            (w, start.elapsed().as_secs_f64())
        })?;
        prepared = Some(w);
        times.push(seconds);
    }
    Ok((prepared.expect("at least one set-up rep"), times))
}

/// Fails the run when the generator, not the server, limited the
/// served rate: its own ceiling must be at least twice what was served.
fn check_headroom(ceiling: f64, served: f64) -> Result<(), String> {
    if ceiling < 2.0 * served {
        return Err(format!(
            "generator_bound: the writer alone reaches {ceiling:.0} pkt/s, less than twice the \
             {served:.0} pkt/s served; the served figure would be the generator's"
        ));
    }
    Ok(())
}

fn ceiling_median(w: &Prepared) -> Result<f64, String> {
    let passes: Vec<f64> = (0..3).map(|_| generator_ceiling(w)).collect::<Result<_, _>>()?;
    Ok(median(&passes))
}

/// `--trace 0`: set-up, then rounds of inline, saturate and rtt reps,
/// interleaved so that each phase samples the whole measuring window
/// (interference on a shared host comes in spells of seconds).
///
/// The inline and rtt reps are single-CPU work and run confined to one
/// CPU, the allowed CPUs taking turns; saturate uses every core.
///
/// Each of the three timings is reported as the midmean of its reps,
/// the mean of their middle half. A vCPU of the shared reference host
/// drops to two thirds of its speed for seconds or minutes at a time (see
/// [`crate::affinity`]), so a rep reads one of two values. With the CPUs
/// taking turns, one slow CPU splits the reps evenly between the two: the
/// median, or any one quantile, then sits on either by luck and jumps by
/// a third when the host changes, whereas the midmean sits halfway and
/// moves by a fifth at most — inside the bound — when one CPU changes
/// speed. Unlike the plain mean it ignores a quarter of stalled reps.
pub fn end_to_end(options: &Options) -> Result<Outcome, String> {
    // One rota per phase: a shared one would hand a phase that runs once
    // per round the same CPU every round.
    let (mut setup_rota, mut inline_rota, mut rtt_rota) =
        (Rota::new()?, Rota::new()?, Rota::new()?);
    // An even number, so that every CPU sets up equally often.
    let setup_reps = if options.scale == Scale::Smoke { 1 } else { 4 };
    let (w, setup_times) = set_up(options, setup_reps, &mut setup_rota)?;
    let w = &w;
    batch_gate(w, &sorted_segments(w))?;
    let ceiling = ceiling_median(w)?;
    let flows = rtt_flows(w, RTT_FLOWS);
    if flows.is_empty() {
        return Err("no flow of this trace is classified by one of its own packets".into());
    }

    let n = w.packets.len() as f64;
    let (mut inline, mut served, mut rtt_medians) = (Vec::new(), Vec::new(), Vec::new());
    let mut losses = Losses::default();
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut round = 0usize;
    loop {
        let inline_rate = inline_rep_on(w, inline_rota.next_cpu())?;
        let pass = served_pass(w, QUEUE_UNBOUNDED, Offer::Blast)?;
        losses.full_pass(w, &pass.inbox.verdicts, pass.inbox.busy, pass.inbox.errors)?;
        // The first rounds are the warm-up: checked, not timed.
        let timed = round >= WARMUP_ROUNDS;
        let rtt_phase = Instant::now();
        loop {
            let rep = rtt_rep(w, &flows, rtt_rota.next_cpu())?;
            losses.rtt(&rep, flows.len());
            if timed && !rep.rtt_us.is_empty() {
                rtt_medians.push(median(&rep.rtt_us));
            }
            if rtt_phase.elapsed().as_secs_f64() >= RTT_PHASE_S {
                break;
            }
        }
        if timed {
            inline.push(inline_rate);
            served.push(n / pass.wall_s);
        }
        round += 1;
        if round >= WARMUP_ROUNDS + MIN_ROUNDS && Instant::now() >= deadline {
            break;
        }
    }
    if rtt_medians.is_empty() {
        return Err("no closed-loop round trip completed".into());
    }
    let (setup, inline, served, rtt) =
        (summarize(&setup_times), summarize(&inline), summarize(&served), summarize(&rtt_medians));
    check_headroom(ceiling, served.max)?;
    let metrics = vec![
        ("setup_s", setup.median),
        ("inline_pkt_per_s", inline.midmean),
        ("served_pkt_per_s", served.midmean),
        ("verdict_rtt_p50_us", rtt.midmean),
        ("bytes_to_verdict_mean", w.bytes_to_verdict_mean()),
        ("accuracy", w.accuracy()),
    ];
    let timings = vec![
        ("setup_s", setup),
        ("inline_pkt_per_s", inline),
        ("served_pkt_per_s", served),
        ("verdict_rtt_p50_us", rtt),
    ];
    Ok(Outcome {
        metrics,
        attempted: losses.attempted,
        failed: losses.failed(),
        timings,
        tracer: None,
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The `q`-quantile of a sorted sample, or the highest percentile the
/// sample supports when that is lower; 0 for an empty sample.
fn tail(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    quantile_sorted(sorted, supported(q, sorted.len()))
}

/// Runs `rep` until `share` of the budget is spent, at least `min` times.
fn reps_within<T>(
    budget_s: f64,
    share: f64,
    min: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s * share);
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < deadline {
        out.push(rep()?);
    }
    Ok(out)
}

/// `--trace 1`: isolated layer timings, the traced inline pass, and the
/// served phases with CPU accounting and the server's own statistics.
pub fn per_layer(options: &Options) -> Result<Outcome, String> {
    let mut rota = Rota::new()?;
    let (w, _) = set_up(options, 1, &mut rota)?;
    let w = &w;
    let items = sorted_segments(w);
    batch_gate(w, &items)?;
    let n = w.packets.len() as f64;
    let budget = options.seconds;
    let mut timings = Vec::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // Isolated layers.
    let isolated = layers::measure(w);
    let timer_ns = timer_overhead_ns();

    // In situ, in process. An untraced and a traced pass run as a pair,
    // back to back under the same host conditions, and the pair's ledger
    // is judged against its own untraced pass; only the first pair's
    // spans are kept.
    let mut tracer = Tracer::new();
    let pairs = reps_within(budget, 0.20, 3, || {
        let untraced = inline_rep(w)?;
        let traced = if tracer.spans.is_empty() {
            traced_inline(w, &mut tracer)
        } else {
            traced_inline(w, &mut Tracer::new())
        };
        Ok((untraced, traced))
    })?;
    let batched = reps_within(budget, 0.10, 3, || Ok(batch_rep(w, &items)))?;
    drop(items);
    let untraced: Vec<f64> = pairs.iter().map(|(rate, _)| *rate).collect();
    timings.push(("inline_pkt_per_s", summarize(&untraced)));
    timings.push(("batch_pkt_per_s", summarize(&batched)));

    let over_pairs = |of: &dyn Fn(f64, &phases::TracedInline) -> f64| {
        median(&pairs.iter().map(|(rate, traced)| of(*rate, traced)).collect::<Vec<_>>())
    };
    let sha1_ns = over_pairs(&|_, t| t.sha1.mean_ns(timer_ns));
    let kind_ns: Vec<f64> =
        (0..4).map(|k| over_pairs(&|_, t| t.kinds[k].mean_ns(timer_ns))).collect();
    // The ledger: every packet pays the hash plus its outcome's share of
    // process_packet; summed, that should be the untraced pass.
    let ledger_gap = over_pairs(&|rate, t| {
        let ledger_s =
            (0..4).map(|k| t.kinds[k].mean_ns(timer_ns) * w.reference.kinds[k] as f64).sum::<f64>()
                / 1e9
                + t.sha1.mean_ns(timer_ns) * n / 1e9;
        (ledger_s - n / rate) / (n / rate)
    });
    let trace_overhead = over_pairs(&|rate, t| rate / t.rate - 1.0);
    // Per flow that one of its own packets classified: everything spent
    // on it before the verdict, against the isolated parts of that work.
    let per_flow_in_situ = over_pairs(&|_, t| {
        let (buffering, classified) = (t.kinds[1], t.kinds[2]);
        ratio(
            buffering.mean_ns(timer_ns) * buffering.calls as f64
                + classified.mean_ns(timer_ns) * classified.calls as f64,
            classified.calls as f64,
        )
    });
    let per_flow_isolated = isolated.get("core.features.update_ns_per_byte")
        * w.window_bytes_mean()
        + isolated.get("core.features.finish_ns")
        + isolated.get("core.model.predict_ns")
        + isolated.get("core.cdb.insert_ns")
        + isolated.get("core.features.reset_ns");

    let flows_judged = w.reference.verdicts.len().max(1) as f64;
    metrics.extend(isolated.values.iter().copied());
    metrics.extend([
        ("core.cdb.peak_records", w.reference.cdb_peak_records as f64),
        ("core.cdb.purged", w.reference.cdb_purged as f64),
        ("core.sha1.in_situ_ns", sha1_ns),
        ("core.pipeline.hit_ns", kind_ns[0]),
        ("core.pipeline.buffering_ns", kind_ns[1]),
        ("core.pipeline.classified_ns", kind_ns[2]),
        ("core.pipeline.ignored_ns", kind_ns[3]),
        ("core.pipeline.hit_share", w.reference.kinds[0] as f64 / n),
        ("core.pipeline.buffering_share", w.reference.kinds[1] as f64 / n),
        ("core.pipeline.classified_share", w.reference.kinds[2] as f64 / n),
        ("core.pipeline.ignored_share", w.reference.kinds[3] as f64 / n),
        ("core.pipeline.early_exit_share", w.reference.early_exits as f64 / flows_judged),
        ("core.pipeline.pool_hit_share", w.reference.pool_hits as f64 / flows_judged),
        ("core.pipeline.batch_pkt_per_s", median(&batched)),
        ("core.pipeline.flow_overhead_ns", per_flow_in_situ - per_flow_isolated),
        ("core.pipeline.ledger_gap_frac", ledger_gap.abs()),
        ("core.pipeline.resident_bytes_peak", w.reference.resident_bytes_peak as f64),
        ("core.pipeline.buffered_bytes_mean", w.buffered_bytes_mean()),
        ("bench.trace_overhead_frac", trace_overhead),
        ("bench.timer_overhead_ns", timer_ns),
    ]);

    // Served: the generator alone, then saturate with CPU accounting.
    let mut losses = Losses::default();
    let ceiling = ceiling_median(w)?;
    let saturate = reps_within(budget, 0.25, 2, || {
        let pass = served_pass(w, QUEUE_UNBOUNDED, Offer::Blast)?;
        losses.full_pass(w, &pass.inbox.verdicts, pass.inbox.busy, pass.inbox.errors)?;
        Ok(pass)
    })?;
    let served: Vec<f64> = saturate.iter().map(|p| n / p.wall_s).collect();
    timings.push(("served_pkt_per_s", summarize(&served)));
    check_headroom(ceiling, median(&served))?;
    let mut sat_cpu = CpuSample::default();
    saturate.iter().for_each(|p| sat_cpu.add(&p.cpu));
    let sat_packets = n * saturate.len() as f64;
    let stats = saturate
        .last()
        .and_then(|p| p.inbox.stats.as_ref())
        .ok_or("the server never answered the Stats request")?;
    let stage_p50 = |stage: Stage| stats.stage(stage).p50().unwrap_or(0) as f64;
    metrics.extend([
        ("serve.reactor.cpu_ns_per_pkt_sat", sat_cpu.reactor_ns as f64 / sat_packets),
        ("serve.shard.cpu_ns_per_pkt_sat", sat_cpu.shards_ns as f64 / sat_packets),
        ("gen.cpu_ns_per_pkt", sat_cpu.generator_ns as f64 / sat_packets),
        ("gen.ceiling_pkt_per_s", ceiling),
        ("serve.queue.locks_per_kpkt", stats.queue_lock_acquisitions as f64 / (n / 1e3)),
        ("serve.shard.batch_size_p50", stats.batch_size.p50().unwrap_or(0) as f64),
        ("serve.shard.flows_per_batch_p50", stats.flows_per_batch.p50().unwrap_or(0) as f64),
        ("serve.stage.hash_p50_ns", stage_p50(Stage::Hash)),
        ("serve.stage.cdb_lookup_p50_ns", stage_p50(Stage::CdbLookup)),
        ("serve.stage.buffer_fill_p50_ns", stage_p50(Stage::BufferFill)),
        ("serve.stage.classify_p50_ns", stage_p50(Stage::Classify)),
    ]);
    drop(saturate);

    // Closed loop, for the tail the end-to-end median leaves out.
    let flows = rtt_flows(w, RTT_FLOWS);
    let mut round_trips: Vec<f64> = Vec::new();
    for rep in reps_within(budget, 0.10, 2, || rtt_rep(w, &flows, rota.next_cpu()))? {
        losses.rtt(&rep, flows.len());
        round_trips.extend(rep.rtt_us);
    }
    sort(&mut round_trips);
    metrics.push(("serve.rtt_p99_us", tail(&round_trips, 0.99)));

    // Open loop at the workload's fixed rate, traced.
    let rate = w.workload.paced_rate();
    let paced = served_pass(w, QUEUE_PACED, Offer::Paced(rate))?;
    losses.full_pass(w, &paced.inbox.verdicts, paced.inbox.busy, paced.inbox.errors)?;
    let mut latencies = paced_latencies(w, &paced, rate, &mut tracer);
    sort(&mut latencies);
    let mut lags: Vec<f64> =
        paced.ticks.iter().map(|t| t.woke_ns.saturating_sub(t.scheduled_ns) as f64 / 1e3).collect();
    sort(&mut lags);
    timings.push(("paced_verdict_latency_us", summarize(&latencies)));
    metrics.extend([
        ("serve.paced.verdict_p50_us", tail(&latencies, 0.5)),
        ("serve.paced.verdict_p99_us", tail(&latencies, 0.99)),
        ("serve.paced.busy_frac", paced.inbox.busy as f64 / n),
        ("serve.reactor.cpu_ns_per_pkt", paced.cpu.reactor_ns as f64 / n),
        ("serve.shard.cpu_ns_per_pkt", paced.cpu.shards_ns as f64 / n),
        ("gen.paced.lag_p99_us", tail(&lags, 0.99)),
    ]);
    drop(paced);

    // The repository's own client, to place its ceiling.
    let client = client_pass(w)?;
    losses.full_pass(w, &client.verdicts, client.busy, 0)?;
    metrics.extend([
        ("serve.client.pkt_per_s", n / client.wall_s),
        ("serve.verdict_divergence_frac", ratio(losses.diverged_flows as f64, losses.flows as f64)),
        ("serve.loss_frac", ratio(losses.failed() as f64, losses.attempted as f64)),
    ]);

    Ok(Outcome {
        metrics,
        attempted: losses.attempted,
        failed: losses.failed(),
        timings,
        tracer: Some(tracer),
    })
}
