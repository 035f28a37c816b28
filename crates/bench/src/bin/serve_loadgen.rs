//! Loopback load generator for the `iustitia-serve` subsystem.
//!
//! Starts an in-process [`Server`] on `127.0.0.1:0`, trains a CART
//! model on a synthetic corpus, streams a netsim trace through the
//! client library, and reports throughput plus the server's per-stage
//! latency histograms. Unlike the criterion benches, this is a plain
//! binary: one run, human-readable numbers, no statistical harness.
//!
//! Run: `cargo run --release -p iustitia-bench --bin serve_loadgen`
//!
//! Modes (mutually exclusive):
//! - `--sweep-batch` — batch-limit sweep (1, 8, 32, 128, 512): asserts
//!   the pipeline's batch path is bit-identical to per-packet dispatch,
//!   then measures throughput at each reader batch limit and prints a
//!   JSON document (captured into `results/BENCH_batch.json`).
//! - `--connections N` — many-socket scenario: N concurrent sockets,
//!   one small flow each, measuring per-connection submit-to-verdict
//!   latency client-side plus the server's accept-to-verdict histogram.
//!   Prints a JSON document (captured into `results/BENCH_epoll.json`).
//! - `--flow-churn` — anytime early-exit scenario: larger flows against
//!   a `b = 2048` buffer, streamed twice through the server with the
//!   calibrated anytime threshold off then on, comparing throughput,
//!   early-exit counts, and bytes-at-verdict (captured into the
//!   `flow_churn` section of `results/BENCH_anytime.json`).
//! - `--pcap FILE` — replay a capture file through the single-client
//!   path instead of a generated trace.
//! - `--write-pcap FILE` — export the generated trace as a classic
//!   pcap (LINKTYPE_RAW) and exit.
//!
//! Environment knobs:
//! - `IUSTITIA_BENCH_SCALE` — scales flow count (default 1.0).
//! - `SERVE_SHARDS` — shard worker count (default 4).

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{
    train_anytime_from_corpus, train_from_corpus, AnytimeTrainReport, NatureModel,
};
use iustitia::pipeline::{AnytimeConfig, BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_bench::{paper_cart, prefix_corpus, scaled};
use iustitia_corpus::CorpusBuilder;
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, FiveTuple, Packet, TcpFlags, TraceConfig, TraceGenerator};
use iustitia_serve::{
    Client, ClientEvent, FrameAssembler, Request, Response, Server, ServerConfig, Stage,
};

/// Feeds the trace through two freshly built pipelines — one per
/// packet, one through `process_batch` over flow-grouped segments (the
/// shard worker's dispatch shape) — and asserts verdicts and every
/// observable gauge are bit-identical. Runs before any timing so a
/// broken batch path can never produce a "fast" number.
fn assert_batch_bit_identity(model: &NatureModel, packets: &[Packet], segment: usize) {
    let config = PipelineConfig::headline(33);
    let mut per_packet = Iustitia::new(model.clone(), config.clone());
    let mut batched = Iustitia::new(model.clone(), config);
    let mut verdicts = Vec::new();
    for chunk in packets.chunks(segment) {
        let mut items: Vec<BatchPacket<'_>> = chunk.iter().map(BatchPacket::new).collect();
        items.sort_by_key(|a| a.flow); // stable: arrival order per flow
        let expected: Vec<Verdict> =
            items.iter().map(|bp| per_packet.process_packet(bp.packet)).collect();
        batched.process_batch(&items, &mut verdicts);
        assert_eq!(verdicts, expected, "batch verdicts must be bit-identical to per-packet");
    }
    assert_eq!(batched.queues(), per_packet.queues());
    assert_eq!(batched.pending_flows(), per_packet.pending_flows());
    assert_eq!(batched.resident_feature_bytes(), per_packet.resident_feature_bytes());
    assert_eq!(batched.cdb().stats(), per_packet.cdb().stats());
    assert_eq!(batched.take_log(), per_packet.take_log());
    eprintln!(
        "bit-identity: batch == per-packet over {} packets ({}-packet segments)",
        packets.len(),
        segment
    );
}

/// One timed pass of the trace through a fresh server at the given
/// reader batch limit. Returns (throughput pkt/s, final stats).
fn timed_run(
    model: &NatureModel,
    packets: &[Packet],
    shards: usize,
    batch_limit: usize,
) -> (f64, iustitia_serve::StatsSnapshot) {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = shards;
    config.queue_capacity = 1 << 14;
    config.batch_limit = batch_limit;
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let start = Instant::now();
    for packet in packets {
        client.submit_packet(packet).expect("submit");
        if client.poll_events().iter().any(|e| matches!(e, ClientEvent::Busy(_))) {
            panic!("queues sized to never reject");
        }
    }
    client.flush().expect("flush");
    client.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    client.close().expect("close");
    server.shutdown();
    (packets.len() as f64 / elapsed, stats)
}

fn sweep_batch(model: &NatureModel, packets: &[Packet], shards: usize) {
    assert_batch_bit_identity(model, packets, 512);

    let reps = 3;
    let mut runs = Vec::new();
    for batch_limit in [1usize, 8, 32, 128, 512] {
        let mut throughputs = Vec::new();
        let mut last_stats = None;
        for _ in 0..reps {
            let (tput, stats) = timed_run(model, packets, shards, batch_limit);
            throughputs.push(tput);
            last_stats = Some(stats);
        }
        throughputs.sort_by(f64::total_cmp);
        let median = throughputs[reps / 2];
        let stats = last_stats.expect("at least one rep");
        eprintln!(
            "batch_limit={batch_limit:<4} median {median:>9.0} pkt/s \
             (batch p50 {}, flows/batch p50 {}, queue locks {})",
            stats.batch_size.p50().unwrap_or(0),
            stats.flows_per_batch.p50().unwrap_or(0),
            stats.queue_lock_acquisitions,
        );
        runs.push(format!(
            "    {{\"batch_limit\": {batch_limit}, \"median_pkts_per_s\": {median:.0}, \
             \"batch_size_p50\": {}, \"flows_per_batch_p50\": {}, \
             \"queue_lock_acquisitions\": {}, \"cdb_hits\": {}}}",
            stats.batch_size.p50().unwrap_or(0),
            stats.flows_per_batch.p50().unwrap_or(0),
            stats.queue_lock_acquisitions,
            stats.hits,
        ));
    }

    println!("{{");
    println!("  \"benchmark\": \"serve loadgen batch-limit sweep (flow-grouped batch dispatch)\",");
    println!(
        "  \"bit_identity\": \"batch == per-packet asserted on the full trace before timing\","
    );
    println!("  \"shards\": {shards},");
    println!("  \"packets\": {},", packets.len());
    println!("  \"reps_per_cell\": {reps},");
    println!("  \"runs\": [");
    println!("{}", runs.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// One timed pass of the flow-churn trace with the anytime threshold
/// on or off. Returns (throughput pkt/s, final stats).
fn churn_run(
    report: &AnytimeTrainReport,
    b: usize,
    packets: &[Packet],
    shards: usize,
    anytime: bool,
) -> (f64, iustitia_serve::StatsSnapshot) {
    let mut pc = PipelineConfig { buffer_size: b, battery: true, ..PipelineConfig::headline(33) };
    if anytime {
        pc.anytime = Some(AnytimeConfig::calibrated(&report.anytime.confidence));
    }
    let mut config = ServerConfig::new(pc);
    config.shards = shards;
    config.queue_capacity = 1 << 14;
    if anytime {
        config.anytime = Some(report.anytime.clone());
    }
    let server = Server::start("127.0.0.1:0", report.model.clone(), config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let start = Instant::now();
    for packet in packets {
        client.submit_packet(packet).expect("submit");
        if client.poll_events().iter().any(|e| matches!(e, ClientEvent::Busy(_))) {
            panic!("queues sized to never reject");
        }
    }
    client.flush().expect("flush");
    client.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    client.close().expect("close");
    server.shutdown();
    (packets.len() as f64 / elapsed, stats)
}

/// The anytime early-exit scenario: a trace of larger flows against a
/// `b = 2048` buffer, streamed through the server with the calibrated
/// anytime threshold off then on. The fixed-`b` baseline pays the full
/// buffer fill per flow; the anytime run converts the tail of each
/// flow's buffer fill into CDB hits. Prints a JSON document on stdout.
fn flow_churn(shards: usize) {
    let b = 2048usize;
    eprintln!("training anytime model (CART, b={b}, 96 files/class)...");
    let corpus = CorpusBuilder::new(33).files_per_class(96).size_range(1024, 16384).build();
    let report = train_anytime_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        b,
        FeatureMode::Exact,
        &paper_cart(),
        33,
        true,
        0.01,
    )
    .expect("balanced corpus");
    let threshold = report.anytime.confidence.threshold();
    eprintln!("calibrated threshold: {threshold}");

    let n_flows = scaled(1500);
    eprintln!("generating {n_flows}-flow churn trace...");
    let mut trace = TraceConfig::small_test(42);
    trace.n_flows = n_flows;
    trace.duration = 20.0;
    trace.mean_data_packets = 24.0;
    trace.content = ContentMode::Realistic;
    trace.content_budget = 4096;
    let packets: Vec<Packet> = TraceGenerator::new(trace).collect();
    eprintln!("streaming {} packets, threshold off then on ({} reps each)...", packets.len(), 3);

    let reps = 3;
    let mut cells = Vec::new();
    for anytime in [false, true] {
        let mut throughputs = Vec::new();
        let mut last_stats = None;
        for _ in 0..reps {
            let (tput, stats) = churn_run(&report, b, &packets, shards, anytime);
            throughputs.push(tput);
            last_stats = Some(stats);
        }
        throughputs.sort_by(f64::total_cmp);
        let median = throughputs[reps / 2];
        let stats = last_stats.expect("at least one rep");
        let name = if anytime { "anytime" } else { "fixed_b" };
        eprintln!(
            "{name:<8} median {median:>9.0} pkt/s (early exits {}, bytes@verdict p50 {}B)",
            stats.early_exit_verdicts(),
            stats.bytes_at_verdict.p50().unwrap_or(0),
        );
        cells.push((name, median, stats));
    }

    let baseline = cells[0].1;
    println!("{{");
    println!("  \"benchmark\": \"serve loadgen flow churn (anytime early exit vs fixed-b)\",");
    println!("  \"shards\": {shards},");
    println!("  \"buffer_size\": {b},");
    println!("  \"calibrated_threshold\": {threshold},");
    println!("  \"packets\": {},", packets.len());
    println!("  \"flows\": {n_flows},");
    println!("  \"reps_per_cell\": {reps},");
    println!("  \"runs\": [");
    let rows: Vec<String> = cells
        .iter()
        .map(|(name, median, stats)| {
            format!(
                "    {{\"mode\": \"{name}\", \"median_pkts_per_s\": {median:.0}, \
                 \"speedup_vs_fixed_b\": {:.3}, \"flows_classified\": {}, \
                 \"early_exit_verdicts\": {}, \"bytes_at_verdict_p50\": {}, \
                 \"bytes_at_verdict_p99\": {}, \"cdb_hits\": {}}}",
                median / baseline,
                stats.flows_classified,
                stats.early_exit_verdicts(),
                stats.bytes_at_verdict.p50().unwrap_or(0),
                stats.bytes_at_verdict.p99().unwrap_or(0),
                stats.hits,
            )
        })
        .collect();
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}

/// Client-side state for one socket in the many-connections scenario.
struct ConnProbe {
    stream: TcpStream,
    asm: FrameAssembler,
    submitted: Instant,
    verdict_us: Option<u64>,
    dead: bool,
}

/// Exact quantile of a sorted latency sample.
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The two 16-byte-payload packets that complete one probe flow
/// (headline buffer target b = 32).
fn probe_frames(index: usize) -> Vec<u8> {
    let tuple = FiveTuple::udp(
        std::net::Ipv4Addr::new(10, (index >> 16) as u8, (index >> 8) as u8, index as u8),
        1024 + (index % 50_000) as u16,
        std::net::Ipv4Addr::new(10, 99, 99, 99),
        9999,
    );
    let mut bytes = Vec::with_capacity(160);
    for seq in 0..2u8 {
        let packet = Packet {
            timestamp: f64::from(seq) * 1e-3,
            tuple,
            flags: TcpFlags::empty(),
            payload: vec![0x40 + seq; 16],
        };
        let (t, body) = Request::SubmitPacket(packet).encode().expect("encode");
        iustitia_serve::proto::write_frame(&mut bytes, t, body.as_slice()).expect("frame");
    }
    bytes
}

/// The many-socket scenario: `n_conns` concurrent sockets, one small
/// flow each, submit-to-verdict latency per connection. Prints a JSON
/// document on stdout (captured into `results/BENCH_epoll.json`).
fn many_connections(model: &NatureModel, shards: usize, n_conns: usize) {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = shards;
    config.queue_capacity = 1 << 15; // never reject: lost verdicts must mean lost, not busy
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let addr = server.local_addr();

    eprintln!("connecting {n_conns} sockets...");
    let wall_start = Instant::now();
    let mut probes: Vec<ConnProbe> = Vec::with_capacity(n_conns);
    for _ in 0..n_conns {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        probes.push(ConnProbe {
            stream,
            asm: FrameAssembler::new(),
            submitted: wall_start,
            verdict_us: None,
            dead: false,
        });
    }
    let connect_wall = wall_start.elapsed().as_secs_f64();
    eprintln!("connected in {connect_wall:.3} s; submitting one flow per socket...");

    let submit_start = Instant::now();
    for (i, probe) in probes.iter_mut().enumerate() {
        let frames = probe_frames(i);
        probe.submitted = Instant::now();
        probe.stream.write_all(&frames).expect("submit");
        probe.stream.set_nonblocking(true).expect("nonblocking");
    }
    let submit_wall = submit_start.elapsed().as_secs_f64();

    // Sweep all sockets until every verdict arrived (or a generous
    // deadline passes and the shortfall is reported as lost).
    let mut remaining = probes.len();
    let mut busy_seen = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut scratch = vec![0u8; 4096];
    while remaining > 0 && Instant::now() < deadline {
        let mut progressed = false;
        for probe in probes.iter_mut() {
            if probe.verdict_us.is_some() || probe.dead {
                continue;
            }
            loop {
                match probe.asm.fill_from(&mut probe.stream, &mut scratch) {
                    Ok(0) => {
                        probe.dead = true;
                        remaining -= 1;
                        break;
                    }
                    Ok(_) => {
                        progressed = true;
                        while let Ok(Some((t, body))) = probe.asm.next_frame() {
                            match Response::decode(t, &body) {
                                Ok(Response::FlowVerdict(_)) => {
                                    probe.verdict_us =
                                        Some(probe.submitted.elapsed().as_micros() as u64);
                                    remaining -= 1;
                                }
                                Ok(Response::Busy(_)) => busy_seen += 1,
                                _ => {}
                            }
                        }
                        if probe.verdict_us.is_some() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        probe.dead = true;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        if !progressed && remaining > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let total_wall = wall_start.elapsed().as_secs_f64();

    // Server-side view while the probe sockets are still open.
    let mut control = Client::connect(addr).expect("control connect");
    let stats = control.stats().expect("stats");
    control.close().expect("close");

    let mut latencies: Vec<u64> = probes.iter().filter_map(|p| p.verdict_us).collect();
    latencies.sort_unstable();
    let verdicts = latencies.len();
    let lost = n_conns - verdicts;

    drop(probes);
    server.shutdown();

    eprintln!(
        "{verdicts}/{n_conns} verdicts ({lost} lost, {busy_seen} busy), total {total_wall:.3} s"
    );
    println!("{{");
    println!("  \"benchmark\": \"serve loadgen many-connections (one small flow per socket)\",");
    println!("  \"connections\": {n_conns},");
    println!("  \"shards\": {shards},");
    println!("  \"packets_per_conn\": 2,");
    println!("  \"connect_wall_s\": {connect_wall:.4},");
    println!("  \"submit_wall_s\": {submit_wall:.4},");
    println!("  \"total_wall_s\": {total_wall:.4},");
    println!("  \"verdicts\": {verdicts},");
    println!("  \"lost_verdicts\": {lost},");
    println!("  \"busy_rejects\": {busy_seen},");
    println!("  \"client_submit_to_verdict_us\": {{");
    println!("    \"p50\": {},", quantile_us(&latencies, 0.50));
    println!("    \"p90\": {},", quantile_us(&latencies, 0.90));
    println!("    \"p99\": {},", quantile_us(&latencies, 0.99));
    println!("    \"max\": {}", latencies.last().copied().unwrap_or(0));
    println!("  }},");
    println!("  \"server\": {{");
    println!("    \"connections_accepted\": {},", stats.connections);
    println!("    \"open_connections\": {},", stats.open_connections);
    println!("    \"reassembly_buffer_bytes\": {},", stats.reassembly_buffer_bytes);
    println!("    \"accept_to_verdict_ns_p50\": {},", stats.accept_to_verdict.p50().unwrap_or(0));
    println!("    \"accept_to_verdict_ns_p99\": {},", stats.accept_to_verdict.p99().unwrap_or(0));
    println!("    \"accept_to_verdict_samples\": {}", stats.accept_to_verdict.count());
    println!("  }}");
    println!("}}");
}

/// Streams `packets` through a single blocking client and prints the
/// human-readable report (the default mode, also used for `--pcap`).
fn stream_single_client(model: &NatureModel, packets: &[Packet], shards: usize) {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = shards;
    config.queue_capacity = 1 << 14;
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let mut verdicts = 0u64;
    let mut busy = 0u64;

    // Sample the per-shard gauges mid-stream to observe the pipeline's
    // peak per-flow memory: the bytes pending flows hold, at most `b`
    // each with the headline config.
    let mut peak_pending = 0u64;
    let mut peak_resident = 0u64;
    let sample_every = (packets.len() / 16).max(1);

    let start = Instant::now();
    for (i, packet) in packets.iter().enumerate() {
        client.submit_packet(packet).expect("submit");
        for event in client.poll_events() {
            match event {
                ClientEvent::Verdict(_) => verdicts += 1,
                ClientEvent::Busy(_) => busy += 1,
            }
        }
        if i % sample_every == sample_every - 1 {
            let s = client.stats().expect("stats");
            peak_pending = peak_pending.max(s.pending_flows());
            peak_resident = peak_resident.max(s.resident_feature_bytes());
        }
    }
    client.flush().expect("flush");
    client.drain().expect("drain");
    for event in client.poll_events() {
        match event {
            ClientEvent::Verdict(_) => verdicts += 1,
            ClientEvent::Busy(_) => busy += 1,
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");

    println!("shards:           {shards}");
    println!("packets sent:     {}", packets.len());
    println!("wall time:        {elapsed:.3} s");
    println!("throughput:       {:.0} packets/s", packets.len() as f64 / elapsed);
    println!("verdicts:         {verdicts}");
    println!("busy rejects:     {busy}");
    println!("server packets:   {} (cdb hits {})", stats.packets, stats.hits);
    println!("flows classified: {}", stats.flows_classified);
    let b = 32u64; // headline config buffer size
    println!(
        "peak pending:     {peak_pending} flows, {peak_resident} B buffered \
         (at most {} B: b per pending flow)",
        peak_pending * b
    );
    println!(
        "final gauges:     {} pending / {} B across {} shards",
        stats.pending_flows(),
        stats.resident_feature_bytes(),
        stats.shards.len()
    );
    println!(
        "state pool:       {} recycled flow states ({} parked)",
        stats.state_pool_hits(),
        stats.state_pool_size()
    );
    println!(
        "accept→verdict:   p50 {} ns, p99 {} ns over {} verdicts",
        stats.accept_to_verdict.p50().unwrap_or(0),
        stats.accept_to_verdict.p99().unwrap_or(0),
        stats.accept_to_verdict.count()
    );
    println!("stage latency (server-side ns):");
    println!("  {:<12} {:>9}  {:>8}  {:>8}", "stage", "n", "p50", "p99");
    for stage in Stage::ALL {
        let h = stats.stage(stage);
        println!(
            "  {:<12} {:>9}  {:>8}  {:>8}",
            stage.name(),
            h.count(),
            h.p50().map_or_else(|| "-".into(), |v| v.to_string()),
            h.p99().map_or_else(|| "-".into(), |v| v.to_string()),
        );
    }

    client.close().expect("close");
    server.shutdown();
}

fn generated_trace(n_flows: usize) -> Vec<Packet> {
    eprintln!("generating {n_flows}-flow trace...");
    let mut trace = TraceConfig::small_test(42);
    trace.n_flows = n_flows;
    trace.duration = 30.0;
    trace.content = ContentMode::Realistic;
    TraceGenerator::new(trace).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sweep = false;
    let mut churn = false;
    let mut connections: Option<usize> = None;
    let mut pcap_in: Option<String> = None;
    let mut pcap_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep-batch" => sweep = true,
            "--flow-churn" => churn = true,
            "--connections" => {
                let v = it.next().expect("--connections needs a count");
                connections = Some(v.parse().expect("--connections takes an integer"));
            }
            "--pcap" => pcap_in = Some(it.next().expect("--pcap needs a path").clone()),
            "--write-pcap" => {
                pcap_out = Some(it.next().expect("--write-pcap needs a path").clone());
            }
            other => panic!("unknown flag {other} (try --sweep-batch, --flow-churn, --connections N, --pcap FILE, --write-pcap FILE)"),
        }
    }

    let shards: usize =
        std::env::var("SERVE_SHARDS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let n_flows = scaled(2000);

    if let Some(path) = pcap_out {
        let packets = generated_trace(n_flows);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create pcap"));
        iustitia_netsim::write_pcap(&mut file, &packets).expect("write pcap");
        file.flush().expect("flush pcap");
        eprintln!("wrote {} packets to {path}", packets.len());
        return;
    }

    if churn {
        flow_churn(shards);
        return;
    }

    eprintln!("training model (CART, 32-byte prefixes)...");
    let corpus = prefix_corpus(33, 80, 4096);
    let widths = FeatureWidths::svm_selected();
    let model = train_from_corpus(
        &corpus,
        &widths,
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &paper_cart(),
        33,
    )
    .expect("balanced corpus");

    if let Some(n_conns) = connections {
        many_connections(&model, shards, n_conns);
        return;
    }

    let packets = if let Some(path) = pcap_in {
        let mut file = std::io::BufReader::new(std::fs::File::open(&path).expect("open pcap"));
        let trace = iustitia_netsim::read_pcap(&mut file).expect("parse pcap");
        eprintln!(
            "replaying {} packets from {path} ({} records skipped)",
            trace.packets.len(),
            trace.skipped
        );
        trace.packets
    } else {
        generated_trace(n_flows)
    };

    if sweep {
        sweep_batch(&model, &packets, shards);
        return;
    }

    stream_single_client(&model, &packets, shards);
}
