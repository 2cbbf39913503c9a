//! Runs the fixed perf suite and maintains the machine-readable perf
//! trajectory (`BENCH_sim.json` / `BENCH_e2e.json` at the repo root).
//!
//! ```sh
//! # Measure and print (best-of-N throughput, p50/p99, work counters):
//! cargo run -p evop-bench --release --bin perf_report
//! # Refresh the committed baselines after an intentional perf change:
//! cargo run -p evop-bench --release --bin perf_report -- --update-baseline
//! # CI regression gate (exit 1 on >20% regression of any gated metric):
//! cargo run -p evop-bench --release --bin perf_report -- --check
//! ```
//!
//! The gate tolerance can be widened for noisy runners with
//! `--tolerance 0.35` or the `EVOP_PERF_TOLERANCE` environment variable
//! (the flag wins).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

use evop_bench::cli::CliSpec;
use evop_bench::perf::{
    check_doc, median, quantile, run_e2e_suite, run_sim_suite, suite_doc, BenchRun, DEFAULT_REPS,
    DEFAULT_TOLERANCE,
};
use serde_json::{json, Value};

/// The committed baseline files, relative to the repo root.
const SUITES: [(&str, &str); 2] = [("sim", "BENCH_sim.json"), ("e2e", "BENCH_e2e.json")];

fn repo_root() -> PathBuf {
    // crates/bench/ → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn run_suite(suite: &str, seed: u64, reps: usize) -> Vec<BenchRun> {
    match suite {
        "sim" => run_sim_suite(seed, reps),
        _ => run_e2e_suite(seed, reps),
    }
}

fn print_tables(suite: &str, runs: &[BenchRun]) {
    println!("── suite {suite} ──────────────────────────────────────────");
    for run in runs {
        let p50 = median(&run.reps_secs) * 1e3;
        let p99 = quantile(&run.reps_secs, 0.99) * 1e3;
        println!(
            "  {}  (reps {}, p50 {:.2} ms, p99 {:.2} ms)",
            run.name,
            run.reps_secs.len(),
            p50,
            p99
        );
        for (name, metric) in &run.metrics {
            let gate = if metric.gated { "gated" } else { "     " };
            println!("    {gate}  {name:<way$} {:>14.2} {}", metric.value, metric.unit, way = 24);
        }
        for (name, value) in &run.work {
            println!("    work   {name:<24} {value:>14}");
        }
    }
}

fn write_artifacts(dir: &str, docs: &[(String, Value)], runs: &[(&str, Vec<BenchRun>)]) {
    let dir = Path::new(dir);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        exit(1);
    }
    for (file, doc) in docs {
        let path = dir.join(file);
        if let Err(e) = fs::write(&path, render_doc(doc)) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
        println!("wrote {}", path.display());
    }
    for (_, suite_runs) in runs {
        for run in suite_runs {
            if let Some(folded) = &run.folded {
                let path = dir.join(format!("{}.folded", run.name));
                if let Err(e) = fs::write(&path, folded) {
                    eprintln!("cannot write {}: {e}", path.display());
                    exit(1);
                }
                println!("wrote {}", path.display());
            }
        }
    }
}

fn render_doc(doc: &Value) -> String {
    let mut text = serde_json::to_string_pretty(doc).expect("suite doc serialises");
    text.push('\n');
    text
}

fn gate_tolerance(flag: Option<&str>) -> f64 {
    let from_env = std::env::var("EVOP_PERF_TOLERANCE").ok();
    let raw = flag.map(str::to_owned).or(from_env);
    match raw {
        None => DEFAULT_TOLERANCE,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if t > 0.0 && t < 10.0 => t,
            _ => {
                eprintln!("bad tolerance {raw:?}: expected a fraction like 0.2");
                exit(2);
            }
        },
    }
}

fn main() {
    let spec = CliSpec::new("perf_report", 42)
        .with_switch(
            "check",
            "compare a fresh run against the committed baselines (exit 1 on regression)",
        )
        .with_switch("update-baseline", "rewrite BENCH_sim.json / BENCH_e2e.json at the repo root")
        .with_value("reps", "N", "timed repetitions per benchmark (default 5, best-of-N)")
        .with_value(
            "tolerance",
            "T",
            "gate tolerance as a fraction (default 0.20; env EVOP_PERF_TOLERANCE)",
        );
    let opts = spec.parse_or_exit();
    let seed = opts.seed.unwrap_or_else(|| spec.default_seed());
    let reps = match opts.value("reps").map(str::parse::<usize>) {
        None => DEFAULT_REPS,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("bad --reps: expected a positive integer");
            exit(2);
        }
    };
    let tolerance = gate_tolerance(opts.value("tolerance"));
    let root = repo_root();

    let mut docs: Vec<(String, Value)> = Vec::new();
    let mut all_runs: Vec<(&str, Vec<BenchRun>)> = Vec::new();
    for (suite, file) in SUITES {
        let runs = run_suite(suite, seed, reps);
        docs.push((file.to_owned(), suite_doc(suite, seed, reps, &runs)));
        all_runs.push((suite, runs));
    }

    if opts.switch("check") {
        let mut passed = true;
        for (file, fresh) in &docs {
            let path = root.join(file);
            let baseline: Value = match fs::read_to_string(&path) {
                Ok(text) => match serde_json::from_str(&text) {
                    Ok(doc) => doc,
                    Err(e) => {
                        eprintln!("{}: not valid JSON: {e}", path.display());
                        exit(1);
                    }
                },
                Err(e) => {
                    eprintln!("{}: cannot read committed baseline: {e}", path.display());
                    exit(1);
                }
            };
            match check_doc(&baseline, fresh, tolerance) {
                Ok(report) => {
                    print!("{file}: {}", report.render());
                    passed &= report.passed();
                }
                Err(message) => {
                    eprintln!("{file}: {message}");
                    passed = false;
                }
            }
        }
        if let Some(dir) = opts.out.as_deref() {
            write_artifacts(dir, &docs, &all_runs);
        }
        exit(if passed { 0 } else { 1 });
    }

    if opts.switch("update-baseline") {
        for (file, doc) in &docs {
            let path = root.join(file);
            if let Err(e) = fs::write(&path, render_doc(doc)) {
                eprintln!("cannot write {}: {e}", path.display());
                exit(1);
            }
            println!("updated {}", path.display());
        }
    }

    if opts.json {
        let combined: Value = json!({ "sim": docs[0].1, "e2e": docs[1].1 });
        println!("{}", serde_json::to_string_pretty(&combined).expect("doc serialises"));
    } else {
        for (suite, runs) in &all_runs {
            print_tables(suite, runs);
        }
    }

    if let Some(dir) = opts.out.as_deref() {
        write_artifacts(dir, &docs, &all_runs);
    }
}
