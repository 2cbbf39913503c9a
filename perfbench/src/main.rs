//! The EVOp benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <e8_day|e8_national|portal_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of host time, checks its outputs,
//! and prints `# ` lines for people followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones (tracing off); with `--trace 1`
//! they are the per-layer ones, from spans recorded around every call
//! into a layer, and the spans and the self-time table are also written
//! under `.bench_out/`. The process exits 1 when a check fails and 2 on
//! a usage error.

mod e8;
mod portal;
mod stats;
mod trace;

use std::fs;
use std::path::Path;
use std::process::exit;

use serde_json::{json, Map, Value};

use crate::trace::{Clock, Layer, LayerStats, Recorder};

/// Where traced runs write their spans and self-time tables.
const OUT_DIR: &str = ".bench_out";

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// What a workload run found.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    /// How many of the recorded spans to write out.
    spans_to_write: usize,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
            spans_to_write: usize::MAX,
        }
    }
}

/// A metric's unit, from its name.
fn unit_of(name: &str) -> &'static str {
    match name {
        "max_rps" => "req/s",
        "peak_rss_mb" => "MB",
        "sim.ns_per_event" => "ns",
        _ if name.ends_with("_ms") => "ms",
        _ if name.ends_with("_us") => "us",
        _ if name.ends_with("_s") => "s",
        _ if name.ends_with("ratio") => "ratio",
        _ if name.ends_with(".bytes") => "bytes",
        _ => "count",
    }
}

impl Report {
    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {what}"));
    }

    /// Records a line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one metric; its unit follows from its name.
    pub fn metric(&mut self, name: &str, value: f64, note: String) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit: unit_of(name), note });
    }

    /// Records a layer's `calls`, `self_ms` and `p99_us`, with counts and
    /// times divided by `per`, the passes (`scope`) the spans cover.
    pub fn layer(&mut self, layer: Layer, stats: Option<&LayerStats>, per: f64, scope: &str) {
        let name = layer.name();
        let (calls, self_ns, p99) = stats.map_or((0, 0, 0.0), |s| (s.calls, s.self_ns, s.p99_us()));
        self.metric(&format!("{name}.calls"), calls as f64 / per, scope.to_owned());
        self.metric(&format!("{name}.self_ms"), self_ns as f64 / 1e6 / per, scope.to_owned());
        self.metric(&format!("{name}.p99_us"), p99, format!("{calls} spans"));
    }
}

/// Every per-layer metric name, in report order. A traced run reports
/// each of them; the ones a workload never reaches read 0.
fn per_layer_names() -> Vec<String> {
    let calls = |layers: &[Layer]| -> Vec<String> {
        layers
            .iter()
            .flat_map(|l| ["calls", "self_ms", "p99_us"].map(|m| format!("{}.{m}", l.name())))
            .collect()
    };
    let mut names = calls(&Layer::E8);
    names.extend(
        [
            "sim.events_delivered",
            "sim.ns_per_event",
            "cache.hit_ratio",
            "cache.follower_ratio",
            "shard.error_ratio",
            "obs.spans_drained",
            "obs.tsdb_series_dropped",
        ]
        .map(str::to_owned),
    );
    for route in Layer::ROUTES {
        names.extend(
            ["calls", "self_ms", "p99_us", "bytes", "codec_ms"]
                .map(|m| format!("{}.{m}", route.name())),
        );
    }
    names.extend(calls(&Layer::DIRECT));
    names.extend(
        [
            "cache.wps_hit_ratio",
            "bench.gen_lateness_p99_us",
            "bench.backlog_end",
            "bench.harness_self_ms",
            "bench.traced_run_s",
            "bench.untraced_run_s",
            "bench.trace_overhead_s",
        ]
        .map(str::to_owned),
    );
    names
}

/// The end-to-end metric names every untraced run reports.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "run_s",
    "step_p50_ms",
    "step_p99_ms",
    "req_p50_ms",
    "req_p99_ms",
    "max_rps",
    "peak_rss_mb",
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} takes an integer"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// CPU model, usable cores and compiler: stamped on every output.
fn host() -> Value {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    json!({ "cpu": cpu, "nproc": nproc, "rustc": env!("PERFBENCH_RUSTC") })
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes the traced run's spans and per-layer table under [`OUT_DIR`].
fn write_trace(args: &Args, host: &Value, rec: &Recorder, limit: usize, report: &Report) {
    let dir = Path::new(OUT_DIR);
    let header = json!({
        "workload": args.workload,
        "seed": args.seed,
        "host": host,
        "columns": ["trace", "span", "parent", "name", "start_ns", "end_ns"],
    });
    let table: Map<String, Value> =
        report.metrics.iter().map(|m| (m.name.clone(), json!(m.value))).collect();
    let layers =
        json!({ "workload": args.workload, "seed": args.seed, "host": host, "metrics": table });
    let spans = dir.join(format!("{}.spans.jsonl", args.workload));
    let written = fs::create_dir_all(dir)
        .and_then(|()| trace::write_spans(&spans, &header, rec, limit))
        .and_then(|()| {
            let text = serde_json::to_string_pretty(&layers).unwrap_or_default();
            fs::write(dir.join(format!("{}.layers.json", args.workload)), text)
        });
    match written {
        Ok(()) => println!("# spans: {} of {} written to {}", limit, rec.len(), spans.display()),
        Err(err) => eprintln!("cannot write {}: {err}", dir.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            eprintln!(
                "usage: evop-perfbench --workload <e8_day|e8_national|portal_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            exit(2);
        }
    };
    let host = host();
    println!(
        "# evop-perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: {host}");

    let clock = Clock::start();
    let mut rec = Recorder::new(clock);
    let mut report = if let Some(config) = e8::config(&args.workload, args.seed) {
        e8::run(&config, &args.workload, args.seconds, args.trace, clock, &mut rec)
    } else if args.workload == "portal_mix" {
        portal::run(args.seed, args.seconds, args.trace, clock, &mut rec)
    } else {
        eprintln!(
            "unknown workload {:?}; expected e8_day, e8_national or portal_mix",
            args.workload
        );
        exit(2);
    };

    let expected: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        match peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "VmHWM at exit".to_owned()),
            None => report.fail("cannot read VmHWM from /proc/self/status".to_owned()),
        }
        END_TO_END.map(str::to_owned).to_vec()
    };
    for name in &expected {
        if !report.metrics.iter().any(|m| &m.name == name) {
            report.metric(name, 0.0, "not measured by this workload".to_owned());
        }
    }
    let unlisted: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !expected.contains(&m.name))
        .map(|m| m.name.clone())
        .collect();
    if !unlisted.is_empty() {
        report.fail(format!("metrics missing from the published list: {unlisted:?}"));
    }
    if args.trace {
        write_trace(&args, &host, &rec, report.spans_to_write.min(rec.len()), &report);
    }

    for line in &report.notes {
        println!("# {line}");
    }
    let mut metrics = Map::new();
    for m in &report.metrics {
        println!("# {} = {} {} ({})", m.name, m.value, m.unit, m.note);
        metrics.insert(m.name.clone(), json!({ "value": m.value, "unit": m.unit }));
    }
    let result = json!({
        "correct": report.correct,
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": metrics,
    });
    println!("{result}");
    if !report.correct {
        exit(1);
    }
}
