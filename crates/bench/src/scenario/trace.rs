//! `report trace`: causal timelines for the infrastructure experiments —
//! the observability companion to `experiments`. Each section replays
//! one experiment with tracing joined to the caller's context and prints
//! the resulting span tree plus the headline metrics, without changing
//! any measured result (the harnesses are the same `e{1,3,4}_*`
//! functions).
//!
//! `--json` prints one canonical document with every experiment's trace
//! tree, filtered counters and headline results; `--out DIR` also writes
//! each experiment's deterministic trace JSON (`e{1,3,4}.trace.json`).

use serde_json::{json, Value};

use evop_cloud::FailureMode;
use evop_core::experiments::{
    e1_dataflow_traced, e3_cloudburst_traced, e4_failure_recovery_traced, E1Result, E3Result,
    E4Result, TraceCapture,
};

use super::{banner, heading, Report};
use crate::cli::CliOptions;

const E1_COUNTERS: &[&str] =
    &["router_requests_total", "wps_executions_total", "broker_placements_total"];
const E3_COUNTERS: &[&str] = &[
    "broker_placements_total",
    "broker_cloudbursts_total",
    "broker_scale_downs_total",
    "broker_migrations_total",
];
const E4_COUNTERS: &[&str] =
    &["broker_failures_detected_total", "broker_migrations_total", "cloud_state_transitions_total"];

struct TraceReport {
    seed: u64,
    e1: (E1Result, TraceCapture),
    e3: (E3Result, TraceCapture),
    e4: (E4Result, TraceCapture),
}

pub(super) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let seed = opts.seed.unwrap_or(super::DEFAULT_SEED);
    Ok(Box::new(TraceReport {
        seed,
        e1: e1_dataflow_traced(seed).expect("e1 runs"),
        e3: e3_cloudburst_traced(120, seed).expect("e3 runs"),
        e4: e4_failure_recovery_traced(FailureMode::Crash, 8, seed).expect("e4 runs"),
    }))
}

impl Report for TraceReport {
    fn json(&self) -> Value {
        let ((r1, c1), (r3, c3), (r4, c4)) = (&self.e1, &self.e3, &self.e4);
        json!({
            "report": "trace-report",
            "seed": self.seed,
            "experiments": {
                "e1": {
                    "trace": parsed_trace(c1),
                    "counters": filtered_counters(c1, E1_COUNTERS),
                    "result": {
                        "activation_wait_secs": r1.activation_wait.as_secs_f64(),
                        "job_latency_secs": r1.job_latency.as_secs_f64(),
                        "push_updates": r1.push_updates,
                        "peak_m3s": r1.peak_m3s,
                    },
                },
                "e3": {
                    "trace": parsed_trace(c3),
                    "counters": filtered_counters(c3, E3_COUNTERS),
                    "result": {
                        "burst_at": r3.burst_at.map(|t| t.to_string()),
                        "retreat_at": r3.retreat_at.map(|t| t.to_string()),
                        "hybrid_cost": r3.hybrid_cost,
                    },
                },
                "e4": {
                    "trace": parsed_trace(c4),
                    "counters": filtered_counters(c4, E4_COUNTERS),
                    "result": {
                        "signature": r4.signature,
                        "detection_delay_secs": r4.detection_delay.map(|d| d.as_secs_f64()),
                        "sessions_migrated": r4.sessions_migrated,
                        "sessions_lost": r4.sessions_lost,
                    },
                },
            },
        })
    }

    /// `<name>.trace.json` per experiment — the deterministic trace
    /// documents.
    fn artifacts(&self) -> Vec<(String, String)> {
        [("e1", &self.e1.1), ("e3", &self.e3.1), ("e4", &self.e4.1)]
            .into_iter()
            .map(|(name, capture)| (format!("{name}.trace.json"), capture.trace_json.clone()))
            .collect()
    }

    fn print_tables(&self) {
        let ((r1, c1), (r3, c3), (r4, c4)) = (&self.e1, &self.e3, &self.e4);
        banner(&format!("trace report (seed {})", self.seed));

        heading("E1 (Fig 1)", "one request, one causal timeline");
        println!("{}", c1.ascii());
        println!(
            "  result: activation {} · job {} · {} push update(s) · peak {:.2} m³/s",
            r1.activation_wait, r1.job_latency, r1.push_updates, r1.peak_m3s
        );
        counters(c1, E1_COUNTERS);

        heading("E3 (§IV-D/§VI)", "first session's timeline across the cloudburst ramp");
        println!("{}", c3.ascii());
        println!(
            "  result: burst at {} · retreat at {} · hybrid cost {:.2}",
            r3.burst_at.map(|t| t.to_string()).unwrap_or_default(),
            r3.retreat_at.map(|t| t.to_string()).unwrap_or_default(),
            r3.hybrid_cost
        );
        counters(c3, E3_COUNTERS);

        heading("E4 (§IV-D)", "victim session's timeline through failure recovery");
        println!("{}", c4.ascii());
        println!(
            "  result: detected as {:?} after {:?} · {} migrated · {} lost",
            r4.signature, r4.detection_delay, r4.sessions_migrated, r4.sessions_lost
        );
        counters(c4, E4_COUNTERS);
    }
}

/// The capture's deterministic trace JSON, parsed for embedding.
fn parsed_trace(capture: &TraceCapture) -> Value {
    serde_json::from_str(&capture.trace_json).unwrap_or(Value::Null)
}

/// The counter series whose names start with one of `prefixes`.
fn filtered_counters(capture: &TraceCapture, prefixes: &[&str]) -> Value {
    let Some(counters) = capture.metrics["counters"].as_object() else {
        return json!({});
    };
    let filtered: serde_json::Map<String, Value> = counters
        .iter()
        .filter(|(series, _)| prefixes.iter().any(|p| series.starts_with(p)))
        .map(|(series, value)| (series.clone(), value.clone()))
        .collect();
    Value::Object(filtered)
}

/// Prints every counter series whose name starts with one of `prefixes`.
fn counters(capture: &TraceCapture, prefixes: &[&str]) {
    if let Value::Object(series) = filtered_counters(capture, prefixes) {
        for (name, value) in series {
            println!("  {name} = {value}");
        }
    }
}
