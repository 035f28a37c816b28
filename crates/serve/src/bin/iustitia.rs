//! `iustitia` — command-line interface to the flow-nature classifier.
//!
//! ```text
//! iustitia train        [--model cart|svm] [--buffer B] [--per-class N] [--seed S]
//!                       [--battery true|false] --out PATH
//! iustitia classify     --model PATH [--buffer B] FILE...
//! iustitia entropy      FILE...
//! iustitia simulate     --model PATH [--flows N] [--buffer B] [--seed S]
//! iustitia serve        --model PATH [--listen ADDR] [--shards N] [--queue N]
//!                       [--admission reject|drop-oldest] [--buffer B] [--seed S] [--stats-interval SECS]
//! iustitia bench-client --addr HOST:PORT [--flows N] [--seed S]
//! ```
//!
//! `--shards` defaults to one per hardware thread available to the
//! process ([`ServerConfig::new`]'s default).
//!
//! `train` synthesizes a labeled corpus and fits a model on `H_b`
//! prefix vectors; `classify` labels on-disk files from their first `B`
//! bytes; `entropy` prints the full `h1..h10` entropy vector of each
//! file; `simulate` drives a synthetic gateway trace through the online
//! pipeline and reports CDB/queue statistics; `serve` runs the
//! networked classification service; `bench-client` streams a synthetic
//! trace at a running server and reports throughput and latency.
//!
//! `train` fits on entropy vectors plus the randomness-test battery by
//! default (`--battery false` reverts to the paper's entropy-only
//! feature set); `classify`, `simulate`, and `serve` detect from the
//! loaded model's feature count whether battery features are required.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, train_from_corpus_battery, ModelKind, NatureModel};
use iustitia::pipeline::{Iustitia, PipelineConfig, Verdict};
use iustitia_corpus::CorpusBuilder;
use iustitia_entropy::{entropy_vector, FeatureWidths, BATTERY_FEATURES};
use iustitia_netsim::{ContentMode, Packet, TraceConfig, TraceGenerator};
use iustitia_serve::{AdmissionPolicy, Client, ClientEvent, Server, ServerConfig, Stage};

const USAGE: &str = "\
usage:
  iustitia train        [--model cart|svm] [--buffer B] [--per-class N] [--seed S]
                        [--battery true|false] --out PATH
  iustitia classify     --model PATH [--buffer B] FILE...
  iustitia entropy      FILE...
  iustitia simulate     --model PATH [--flows N] [--buffer B] [--seed S]
  iustitia serve        --model PATH [--listen ADDR] [--shards N] [--queue N]
                        [--admission reject|drop-oldest] [--buffer B] [--seed S] [--stats-interval SECS]
  iustitia bench-client --addr HOST:PORT [--flows N] [--seed S]

  iustitia --help | -h  print this message

  serve --shards defaults to one shard per available hardware thread
";

/// Per-command flag allowlists, so a typo is named instead of silently
/// swallowed.
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "train" => &["model", "buffer", "per-class", "seed", "out", "battery"],
        "classify" => &["model", "buffer"],
        "entropy" => &[],
        "simulate" => &["model", "flows", "buffer", "seed"],
        "serve" => {
            &["model", "listen", "shards", "queue", "admission", "buffer", "seed", "stats-interval"]
        }
        "bench-client" => &["addr", "flows", "seed"],
        _ => return None,
    })
}

/// Tiny flag parser: collects `--key value` pairs and positionals,
/// rejecting flags not in the command's allowlist.
#[derive(Debug)]
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(command: &str, raw: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !allowed.contains(&key) {
                    let expected = if allowed.is_empty() {
                        "no flags".to_string()
                    } else {
                        allowed.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(", ")
                    };
                    return Err(format!(
                        "unknown flag --{key} for '{command}' (expected: {expected})"
                    ));
                }
                let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.clone();
                flags.push((key.to_string(), value));
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(format!("unknown flag {a} for '{command}' (see iustitia --help)"));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = |a: &String| a == "--help" || a == "-h" || a == "help";
    if raw.is_empty() || raw.iter().any(wants_help) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (command, rest) = raw.split_first().expect("raw is non-empty");
    let Some(allowed) = allowed_flags(command) else {
        eprintln!("error: unknown command: {command}\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(command, rest, allowed) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&args),
        "classify" => cmd_classify(&args),
        "entropy" => cmd_entropy(&args),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        "bench-client" => cmd_bench_client(&args),
        _ => unreachable!("allowed_flags gated the command"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether a loaded model was trained with the randomness battery,
/// judged by its feature count (entropy widths alone vs widths +
/// [`BATTERY_FEATURES`]); any other count is a mismatch error.
fn model_wants_battery(model: &NatureModel, widths: &FeatureWidths) -> Result<bool, String> {
    let n = model.n_features();
    if n == widths.len() {
        Ok(false)
    } else if n == widths.len() + BATTERY_FEATURES {
        Ok(true)
    } else {
        Err(format!(
            "model expects {n} features; this build extracts {} (entropy) or {} (entropy + battery)",
            widths.len(),
            widths.len() + BATTERY_FEATURES
        ))
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.get("out").ok_or("train requires --out PATH")?;
    let b: usize = args.get_parsed("buffer", 32)?;
    let per_class: usize = args.get_parsed("per-class", 150)?;
    let seed: u64 = args.get_parsed("seed", 42u64)?;
    let kind = match args.get("model").unwrap_or("svm") {
        "cart" => ModelKind::paper_cart(),
        "svm" => ModelKind::paper_svm(),
        other => return Err(format!("unknown model kind: {other} (use cart|svm)")),
    };

    let battery: bool = args.get_parsed("battery", true)?;
    let features = if battery { "entropy + randomness battery" } else { "entropy only" };
    eprintln!(
        "synthesizing corpus ({per_class} files/class) and training at b={b} ({features})..."
    );
    let corpus =
        CorpusBuilder::new(seed).files_per_class(per_class).size_range(1024, 16384).build();
    let widths = FeatureWidths::svm_selected();
    let train = if battery { train_from_corpus_battery } else { train_from_corpus };
    let model =
        train(&corpus, &widths, TrainingMethod::Prefix { b }, FeatureMode::Exact, &kind, seed)
            .map_err(|e| e.to_string())?;

    // Hold-out estimate so the user knows what they got.
    let test = CorpusBuilder::new(seed ^ 0xA5A5)
        .files_per_class(per_class / 3 + 1)
        .size_range(1024, 16384)
        .build();
    let test_ds = iustitia::features::dataset_from_corpus_battery(
        &test,
        &widths,
        TrainingMethod::Prefix { b },
        FeatureMode::Exact,
        seed ^ 1,
        battery,
    );
    eprintln!("hold-out accuracy: {:.1}%", 100.0 * model.accuracy_on(&test_ds));

    model.save(out).map_err(|e| e.to_string())?;
    eprintln!("model written to {out}");
    Ok(())
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let model_path = args.get("model").ok_or("classify requires --model PATH")?;
    let b: usize = args.get_parsed("buffer", 32)?;
    if args.positional.is_empty() {
        return Err("classify requires at least one FILE".into());
    }
    let model = NatureModel::load(model_path).map_err(|e| e.to_string())?;
    let widths = FeatureWidths::svm_selected();
    let battery = model_wants_battery(&model, &widths)?;
    let mut fx = FeatureExtractor::new(widths, FeatureMode::Exact, 0).with_battery(battery);
    for path in &args.positional {
        let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let prefix = &data[..b.min(data.len())];
        let label = model.predict(&fx.extract(prefix));
        println!("{label}\t{path}");
    }
    Ok(())
}

fn cmd_entropy(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err("entropy requires at least one FILE".into());
    }
    println!("file\t{}", (1..=10).map(|k| format!("h{k}")).collect::<Vec<_>>().join("\t"));
    for path in &args.positional {
        let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let v = entropy_vector(&data, &iustitia_entropy::vector::FULL_WIDTHS);
        let cells: Vec<String> = v.iter().map(|h| format!("{h:.4}")).collect();
        println!("{path}\t{}", cells.join("\t"));
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let model_path = args.get("model").ok_or("simulate requires --model PATH")?;
    let b: usize = args.get_parsed("buffer", 32)?;
    let flows: usize = args.get_parsed("flows", 500)?;
    let seed: u64 = args.get_parsed("seed", 7u64)?;
    let model = NatureModel::load(model_path).map_err(|e| e.to_string())?;
    let battery = model_wants_battery(&model, &FeatureWidths::svm_selected())?;

    let mut config = TraceConfig::small_test(seed);
    config.n_flows = flows;
    config.content = ContentMode::Realistic;
    let mut pipeline = Iustitia::new(
        model,
        PipelineConfig { buffer_size: b, battery, ..PipelineConfig::headline(seed) },
    );

    let mut hits = 0u64;
    let mut classified = 0u64;
    let mut packets = 0u64;
    for packet in TraceGenerator::new(config) {
        packets += 1;
        match pipeline.process_packet(&packet) {
            Verdict::Hit(_) => hits += 1,
            Verdict::Classified(_) => classified += 1,
            _ => {}
        }
    }
    println!("packets:            {packets}");
    println!("flows classified:   {classified}");
    println!("cdb hits:           {hits}");
    println!("live cdb records:   {}", pipeline.cdb().len());
    println!("queues (t/b/e/c):   {:?}", pipeline.queues().forwarded);
    let stats = pipeline.cdb().stats();
    println!(
        "cdb churn:          {} inserted, {} closed, {} timed out",
        stats.inserted, stats.removed_by_close, stats.removed_by_timeout
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let model_path = args.get("model").ok_or("serve requires --model PATH")?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:7009");
    let queue: usize = args.get_parsed("queue", 1024)?;
    let b: usize = args.get_parsed("buffer", 32)?;
    let seed: u64 = args.get_parsed("seed", 7u64)?;
    let interval: u64 = args.get_parsed("stats-interval", 10u64)?;
    let admission = match args.get("admission").unwrap_or("reject") {
        "reject" => AdmissionPolicy::RejectBusy,
        "drop-oldest" => AdmissionPolicy::DropOldest,
        other => return Err(format!("unknown admission policy: {other} (use reject|drop-oldest)")),
    };
    let model = NatureModel::load(model_path).map_err(|e| e.to_string())?;
    let battery = model_wants_battery(&model, &FeatureWidths::svm_selected())?;

    let mut config = ServerConfig::new(PipelineConfig {
        buffer_size: b,
        battery,
        ..PipelineConfig::headline(seed)
    });
    let shards: usize = args.get_parsed("shards", config.shards)?;
    config.shards = shards;
    config.queue_capacity = queue;
    config.admission = admission;

    let server = Server::start(listen, model, config).map_err(|e| e.to_string())?;
    println!("iustitia-serve listening on {} ({shards} shards, b={b})", server.local_addr());
    if let Some(udp) = server.udp_addr() {
        println!("udp datagram ingest on {udp}");
    }

    // Periodic one-line stats until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(interval.max(1)));
        let s = server.stats();
        let classify_p50 = s.stage(Stage::Classify).p50().unwrap_or(0);
        eprintln!(
            "packets={} hits={} flows={} busy={} dropped={} conns={} open={} udp={} \
             classify_p50={}ns accept_to_verdict_p50={}ns pending={} resident={}B \
             reassembly={}B pool_hits={} pool_size={} batch_p50={} queue_locks={} \
             early_exit={} verdict_bytes_p50={}B flow_memo_hit_rate={:.4}",
            s.packets,
            s.hits,
            s.flows_classified,
            s.busy_rejects,
            s.dropped_oldest,
            s.connections,
            s.open_connections,
            s.udp_datagrams,
            classify_p50,
            s.accept_to_verdict.p50().unwrap_or(0),
            s.pending_flows(),
            s.resident_feature_bytes(),
            s.reassembly_buffer_bytes,
            s.state_pool_hits(),
            s.state_pool_size(),
            s.batch_size.p50().unwrap_or(0),
            s.queue_lock_acquisitions,
            s.early_exit_verdicts(),
            s.bytes_at_verdict.p50().unwrap_or(0),
            s.flow_memo_hit_rate().unwrap_or(0.0),
        );
    }
}

fn cmd_bench_client(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("bench-client requires --addr HOST:PORT")?;
    let flows: usize = args.get_parsed("flows", 500)?;
    let seed: u64 = args.get_parsed("seed", 7u64)?;

    let mut config = TraceConfig::small_test(seed);
    config.n_flows = flows;
    config.content = ContentMode::Realistic;
    eprintln!("generating {flows}-flow synthetic trace...");
    let packets: Vec<Packet> = TraceGenerator::new(config).collect();

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut verdicts = 0u64;
    let mut busy = 0u64;
    let tally = |events: Vec<ClientEvent>, verdicts: &mut u64, busy: &mut u64| {
        for event in events {
            match event {
                ClientEvent::Verdict(_) => *verdicts += 1,
                ClientEvent::Busy(_) => *busy += 1,
            }
        }
    };

    let start = Instant::now();
    for packet in &packets {
        client.submit_packet(packet).map_err(|e| e.to_string())?;
        let events = client.poll_events();
        tally(events, &mut verdicts, &mut busy);
    }
    client.flush().map_err(|e| e.to_string())?;
    client.drain().map_err(|e| e.to_string())?;
    let events = client.poll_events();
    tally(events, &mut verdicts, &mut busy);
    let elapsed = start.elapsed().as_secs_f64();

    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("packets sent:     {}", packets.len());
    println!("wall time:        {elapsed:.3} s");
    println!("throughput:       {:.0} packets/s", packets.len() as f64 / elapsed);
    println!("verdicts:         {verdicts}");
    println!("busy rejects:     {busy}");
    println!("server packets:   {} (hits {})", stats.packets, stats.hits);
    println!(
        "flow-id memo:     {} hits, {} hashed (hit rate {:.4})",
        stats.flow_memo_hits,
        stats.flow_memo_misses,
        stats.flow_memo_hit_rate().unwrap_or(0.0),
    );
    println!(
        "pending flows:    {} ({} B buffered, batteries included, across {} shards)",
        stats.pending_flows(),
        stats.resident_feature_bytes(),
        stats.shards.len(),
    );
    println!(
        "state pool:       {} recycled flow slots ({} parked)",
        stats.state_pool_hits(),
        stats.state_pool_size(),
    );
    println!(
        "batch dispatch:   {} segments, p50 size {} ({} distinct-flow p50), {} queue locks",
        stats.batch_size.count(),
        stats.batch_size.p50().unwrap_or(0),
        stats.flows_per_batch.p50().unwrap_or(0),
        stats.queue_lock_acquisitions,
    );
    println!(
        "bytes at verdict: p50 {}B p99 {}B over {} verdicts ({} anytime early exits)",
        stats.bytes_at_verdict.p50().unwrap_or(0),
        stats.bytes_at_verdict.p99().unwrap_or(0),
        stats.bytes_at_verdict.count(),
        stats.early_exit_verdicts(),
    );
    println!("stage latency (server-side, approximate ns):");
    for stage in Stage::ALL {
        let h = stats.stage(stage);
        println!(
            "  {:<12} n={:<9} p50={:<8} p99={}",
            stage.name(),
            h.count(),
            h.p50().map_or_else(|| "-".into(), |v| v.to_string()),
            h.p99().map_or_else(|| "-".into(), |v| v.to_string()),
        );
    }
    client.close().map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{allowed_flags, Args};

    fn args(raw: &[&str]) -> Result<Args, String> {
        Args::parse(
            "classify",
            &raw.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &["model", "buffer"],
        )
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args(&["--model", "m.json", "file1", "--buffer", "64", "file2"]).unwrap();
        assert_eq!(a.get("model"), Some("m.json"));
        assert_eq!(a.get_parsed("buffer", 0usize).unwrap(), 64);
        assert_eq!(a.positional, vec!["file1", "file2"]);
    }

    #[test]
    fn later_flags_win() {
        let a = args(&["--buffer", "32", "--buffer", "128"]).unwrap();
        assert_eq!(a.get_parsed("buffer", 0usize).unwrap(), 128);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(args(&["--model"]).is_err());
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let a = args(&["--buffer", "not-a-number"]).unwrap();
        assert!(a.get_parsed("buffer", 0usize).is_err());
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = args(&[]).unwrap();
        assert_eq!(a.get_parsed("buffer", 32usize).unwrap(), 32);
        assert_eq!(a.get("model"), None);
    }

    #[test]
    fn unknown_flags_are_named() {
        let err = args(&["--bogus", "1"]).unwrap_err();
        assert!(err.contains("--bogus"), "error names the flag: {err}");
        assert!(err.contains("--model"), "error lists valid flags: {err}");
        let err = args(&["-x"]).unwrap_err();
        assert!(err.contains("-x"), "short junk is named too: {err}");
    }

    #[test]
    fn every_command_has_an_allowlist() {
        for command in ["train", "classify", "entropy", "simulate", "serve", "bench-client"] {
            assert!(allowed_flags(command).is_some(), "{command} missing");
        }
        assert!(allowed_flags("bogus").is_none());
    }
}
