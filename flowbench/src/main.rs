//! `flowbench` — the repository's benchmark.
//!
//! One invocation runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. It drives the pipeline and the
//! serve stack through their public API only and checks every output
//! against an in-process reference pass. See `README.md` beside this
//! package for workloads, metrics and phases.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <steady_hit|umass_mix|churn_fixed_b|churn_anytime> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--repeat 2] [--out FILE]
//! ```

#![forbid(unsafe_code)]

mod affinity;
mod json;
mod layers;
mod metrics;
mod phases;
mod procstat;
mod run;
mod spans;
mod stats;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{in_table_order, MetricDef, END_TO_END, PER_LAYER};
use run::{end_to_end, per_layer, Options, Outcome};
use workload::{Scale, Workload};

const USAGE: &str =
    "usage: flowbench --workload <steady_hit|umass_mix|churn_fixed_b|churn_anytime|all> \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--repeat N] [--out FILE] \
                     [--trace-dir DIR]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 24.0,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        trace_dir: PathBuf::from("flowbench/target/traces"),
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name}"))?]
                };
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|_| "--repeat takes a whole number")?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-dir" => parsed.trace_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.smoke {
        if parsed.workloads.is_empty() {
            parsed.workloads = Workload::ALL.to_vec();
        }
        if !seconds_given {
            parsed.seconds = 0.5;
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The line the driver reads.
fn result_line(outcome: &Outcome, table: &[MetricDef]) -> Result<Json, String> {
    let metrics = in_table_order(table, &outcome.metrics)?;
    Ok(Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(def, value)| {
                (def.name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]))
            })),
        ),
    ]))
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().next().map(|l| l.trim().to_string())
}

/// The commit checked out, when the working directory is a git checkout.
fn commit() -> String {
    let Some(head) = first_line(".git/HEAD") else { return "unknown".into() };
    match head.strip_prefix("ref: ") {
        Some(reference) => first_line(&format!(".git/{reference}")).unwrap_or(head),
        None => head,
    }
}

/// Where and how the numbers were taken.
fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("cpu_model", Json::str(cpu_model)),
        (
            "governor",
            Json::str(
                first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .unwrap_or_else(|| "unreadable".into()),
            ),
        ),
        ("commit", Json::str(commit())),
        ("rustc", Json::str(rustc)),
        ("shards", Json::Int(phases::SHARDS as u64)),
        ("queue_capacity_saturate_rtt", Json::Int(phases::QUEUE_UNBOUNDED as u64)),
        ("queue_capacity_paced", Json::Int(phases::QUEUE_PACED as u64)),
        ("batch_limit", Json::str("ServerConfig default (64)")),
        ("batch_segment", Json::Int(phases::BATCH_SEGMENT as u64)),
        ("generator", Json::str("2 threads, 1 TCP connection")),
        ("link", Json::str("loopback")),
    ])
}

/// The full report: fingerprint, metrics, and the extremes, quartiles,
/// median, midmean and rep count behind every timing.
fn report(args: &Args, workload: Workload, line: &Json, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("host", fingerprint()),
        ("result", line.clone()),
        (
            "timings",
            Json::obj(outcome.timings.iter().map(|(name, s)| {
                (
                    *name,
                    Json::obj([
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("median", Json::Num(s.median)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                        ("midmean", Json::Num(s.midmean)),
                        ("reps", Json::Int(s.n as u64)),
                    ]),
                )
            })),
        ),
    ])
}

fn run_one(args: &Args, workload: Workload, trace: bool) -> Result<Outcome, String> {
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke { Scale::Smoke } else { Scale::Full },
    };
    if trace {
        per_layer(&options)
    } else {
        end_to_end(&options)
    }
}

fn write_trace(args: &Args, workload: Workload, outcome: &Outcome) -> Result<(), String> {
    let Some(tracer) = &outcome.tracer else { return Ok(()) };
    let path = args.trace_dir.join(format!("{}.trace.jsonl", workload.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&args.trace_dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut file)?;
        file.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("flowbench: {} spans written to {}", tracer.spans.len(), path.display());
    // Where the recorded spans' time went, by name.
    let mut by_name: Vec<(&str, u64, u64)> = Vec::new();
    for (span, self_ns) in tracer.spans.iter().zip(spans::self_times_ns(&tracer.spans)) {
        match by_name.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += self_ns;
                entry.2 += 1;
            }
            None => by_name.push((span.name, self_ns, 1)),
        }
    }
    for (name, self_ns, count) in by_name {
        eprintln!(
            "flowbench: {:<13} span {name:<26} {count:>9} recorded, self time {:>10.3} ms",
            workload.name(),
            self_ns as f64 / 1e6
        );
    }
    Ok(())
}

/// One workload, one result line.
fn single(args: &Args, workload: Workload) -> Result<(), String> {
    let outcome = run_one(args, workload, args.trace)?;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_line(&outcome, table)?;
    write_trace(args, workload, &outcome)?;
    for (name, s) in &outcome.timings {
        eprintln!(
            "flowbench: {:<13} {name:<26} min {:>13.3}  q1 {:>13.3}  median {:>13.3}  q3 {:>13.3}  \
             max {:>13.3}  midmean {:>13.3}  reps {}",
            workload.name(),
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.midmean,
            s.n
        );
    }
    if let Some(path) = &args.out {
        // One report line per workload; `main` emptied the file.
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut file| {
                writeln!(file, "{}", report(args, workload, &line, &outcome).render())
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", line.render());
    Ok(())
}

/// The regression bounds of `BENCHMARK.json`, by metric name.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--repeat reads the bounds from ./BENCHMARK.json: {e}"))?;
    let bench = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = bench
        .as_obj()
        .and_then(|o| serde::get_field(o, "end_to_end"))
        .and_then(|v| v.as_arr())
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    listed
        .iter()
        .map(|metric| {
            let pairs = metric.as_obj()?;
            Some((
                serde::get_field(pairs, "name")?.as_str()?.to_string(),
                serde::get_field(pairs, "bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "an end_to_end entry of BENCHMARK.json lacks name or bound".to_string())
}

/// `--repeat N`: the end-to-end run N times back to back, each later run
/// compared with the first against the benchmark's own bounds.
fn self_check(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut all_pass = true;
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "later", "worse by", "bound"
    );
    for &workload in &args.workloads {
        let runs: Vec<Outcome> =
            (0..args.repeat).map(|_| run_one(args, workload, false)).collect::<Result<_, _>>()?;
        let first = in_table_order(END_TO_END, &runs[0].metrics)?;
        for later in &runs[1..] {
            let later = in_table_order(END_TO_END, &later.metrics)?;
            for ((def, a), (_, b)) in first.iter().zip(&later) {
                let bound = bounds
                    .iter()
                    .find(|(name, _)| name == def.name)
                    .map(|(_, bound)| *bound)
                    .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
                let worse_by = if def.better == "higher" { (a - b) / a } else { (b - a) / a };
                let pass = worse_by <= bound;
                all_pass &= pass;
                println!(
                    "{:<14} {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>5.0}%  {}",
                    workload.name(),
                    def.name,
                    a,
                    b,
                    100.0 * worse_by,
                    100.0 * bound,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let pass = failed == 0;
        all_pass &= pass;
        println!(
            "{:<14} {:<22} {failed} failed of {attempted} attempted  {}",
            workload.name(),
            "loss",
            if pass { "PASS" } else { "FAIL" }
        );
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("flowbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("flowbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let result = if args.repeat > 1 {
        self_check(&args).and_then(|pass| {
            if pass {
                Ok(())
            } else {
                Err("two runs of the same commit disagree by more than the benchmark's bounds"
                    .into())
            }
        })
    } else {
        args.workloads.iter().try_for_each(|&workload| single(&args, workload))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flowbench: {message}");
            ExitCode::FAILURE
        }
    }
}
