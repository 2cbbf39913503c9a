//! `report chaos`: the chaos-plane numbers recorded in EXPERIMENTS.md
//! (the fault-injection halves of E4 and E6) — the MTBF soak matrix and
//! the provider-storm scenario, both fully seeded and reproducible.
//!
//! `--seed` overrides the storm seed; the soak matrix axes stay fixed so
//! the table remains comparable to the one in EXPERIMENTS.md. `--json`
//! prints one canonical document with the matrix rows and storm outcome;
//! `--out DIR` also writes the storm's canonical chaos+broker event log
//! (`storm-<seed>.log.json`) and metrics artifacts.

use serde_json::{json, Value};

use evop_broker::BrokerConfig;
use evop_chaos::{ChaosRunReport, ChaosScenario, FaultSchedule};
use evop_portal::render::table;
use evop_sim::SimDuration;

use super::{banner, Report};
use crate::cli::CliOptions;

/// Same axes as `tests/chaos.rs` — this scenario prints what the matrix
/// asserts.
const SEEDS: [u64; 8] = [1, 7, 42, 1234, 4242, 9001, 0xDEAD_BEEF, 0xC0FF_EE00];
const MTBFS_SECS: [u64; 3] = [900, 1800, 3600];

struct ChaosReport {
    storm_seed: u64,
    matrix: Vec<MatrixRow>,
    storm: ChaosRunReport,
}

pub(super) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let storm_seed = opts.seed.unwrap_or(super::DEFAULT_SEED);
    Ok(Box::new(ChaosReport { storm_seed, matrix: matrix_rows(), storm: storm_run(storm_seed) }))
}

impl Report for ChaosReport {
    fn json(&self) -> Value {
        json!({
            "report": "chaos-report",
            "storm_seed": self.storm_seed,
            "matrix": self.matrix.iter().map(MatrixRow::to_json).collect::<Vec<Value>>(),
            "storm": storm_json(&self.storm),
        })
    }

    /// The storm's canonical event log and metrics — the byte string that
    /// defines "the same run" for golden-trace regression.
    fn artifacts(&self) -> Vec<(String, String)> {
        let (seed, report) = (self.storm_seed, &self.storm);
        let snapshot = serde_json::to_string_pretty(&report.metrics_snapshot)
            .unwrap_or_else(|_| String::from("{}"));
        vec![
            (format!("storm-{seed}.log.json"), report.canonical_log().to_owned()),
            (format!("storm-{seed}.snapshot.json"), snapshot),
            (format!("storm-{seed}.prom"), report.prometheus.clone()),
        ]
    }

    fn print_tables(&self) {
        banner("chaos report (fault injection, E4/E6)");
        print_matrix(&self.matrix);
        print_storm(self.storm_seed, &self.storm);
    }
}

/// One aggregated soak-matrix row (all seeds at one MTBF).
struct MatrixRow {
    mtbf_secs: u64,
    detections: usize,
    migrations: usize,
    mean_detect_secs: f64,
    max_detect_secs: f64,
    retries_recovered: u64,
    retries_refused: u64,
    jobs_completed: usize,
    jobs_lost: usize,
    unserved: usize,
}

impl MatrixRow {
    fn to_json(&self) -> Value {
        json!({
            "mtbf_secs": self.mtbf_secs,
            "detections": self.detections,
            "migrations": self.migrations,
            "mean_detect_secs": self.mean_detect_secs,
            "max_detect_secs": self.max_detect_secs,
            "retries_recovered": self.retries_recovered,
            "retries_refused": self.retries_refused,
            "jobs_completed": self.jobs_completed,
            "jobs_lost": self.jobs_lost,
            "unserved": self.unserved,
        })
    }
}

fn soak(seed: u64, mtbf_secs: u64) -> ChaosRunReport {
    let config = BrokerConfig {
        private_capacity_vcpus: 16,
        instance_mtbf: Some(SimDuration::from_secs(mtbf_secs)),
        ..BrokerConfig::default()
    };
    ChaosScenario::new(FaultSchedule::named("mtbf-soak"), seed)
        .config(config)
        .sessions(20)
        .duration(SimDuration::from_secs(4 * 3600))
        .run()
}

fn matrix_rows() -> Vec<MatrixRow> {
    MTBFS_SECS
        .iter()
        .map(|&mtbf| {
            let reports: Vec<ChaosRunReport> = SEEDS.iter().map(|&s| soak(s, mtbf)).collect();
            let lats: Vec<f64> =
                reports.iter().flat_map(|r| r.detection_latencies_secs.iter().copied()).collect();
            MatrixRow {
                mtbf_secs: mtbf,
                detections: reports.iter().map(|r| r.detections).sum(),
                migrations: reports.iter().map(|r| r.migrations).sum(),
                mean_detect_secs: lats.iter().sum::<f64>() / lats.len().max(1) as f64,
                max_detect_secs: lats.iter().copied().fold(0.0f64, f64::max),
                retries_recovered: reports.iter().map(|r| r.submits.recovered).sum(),
                retries_refused: reports.iter().map(|r| r.submits.transient_refusals).sum(),
                jobs_completed: reports.iter().map(|r| r.jobs_completed).sum(),
                jobs_lost: reports.iter().map(|r| r.jobs_lost).sum(),
                unserved: reports.iter().map(|r| r.sessions_unserved).sum(),
            }
        })
        .collect()
}

fn print_matrix(rows: &[MatrixRow]) {
    println!("\n--- E4: MTBF soak matrix (8 seeds × 3 MTBFs, 20 users, 4 h each)");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                format!("{} min", row.mtbf_secs / 60),
                row.detections.to_string(),
                row.migrations.to_string(),
                format!("{:.0} s / {:.0} s", row.mean_detect_secs, row.max_detect_secs),
                format!("{}/{}", row.retries_recovered, row.retries_refused),
                format!("{}/{}", row.jobs_completed, row.jobs_lost),
                row.unserved.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "MTBF",
                "detections",
                "migrations",
                "detect lat (mean/max)",
                "retry ok/refused",
                "jobs done/lost",
                "unserved",
            ],
            &cells,
        )
    );
}

fn storm_run(seed: u64) -> ChaosRunReport {
    let config = BrokerConfig {
        private_capacity_vcpus: 4,
        instance_mtbf: Some(SimDuration::from_secs(1800)),
        ..BrokerConfig::default()
    };
    ChaosScenario::new(FaultSchedule::provider_storm(), seed)
        .config(config)
        .sessions(20)
        .duration(SimDuration::from_secs(2 * 3600))
        .run()
}

fn storm_json(report: &ChaosRunReport) -> Value {
    json!({
        "chaos_faults_fired": report.chaos_faults_fired,
        "detections": report.detections,
        "migrations": report.migrations,
        "requeues": report.requeues,
        "provision_faults": report.provision_faults,
        "backoff_skips": report.backoff_skips,
        "retry_successes": report.retry_successes,
        "submits": {
            "accepted": report.submits.accepted,
            "transient_refusals": report.submits.transient_refusals,
            "hard_failures": report.submits.hard_failures,
        },
        "retry_success_rate": report.retry_success_rate(),
        "jobs_completed": report.jobs_completed,
        "jobs_lost": report.jobs_lost,
        "sessions_unserved": report.sessions_unserved,
        "canonical_log_bytes": report.canonical_log().len(),
    })
}

fn print_storm(seed: u64, report: &ChaosRunReport) {
    println!("\n--- E6: provider storm (declarative schedule, seed {seed})");
    println!("  chaos faults fired        : {}", report.chaos_faults_fired);
    println!("  failures detected         : {}", report.detections);
    println!("  sessions migrated         : {}", report.migrations);
    println!("  sessions requeued         : {}", report.requeues);
    println!("  provisioning faults       : {}", report.provision_faults);
    println!("  backoff skips             : {}", report.backoff_skips);
    println!("  provisioning retries ok   : {}", report.retry_successes);
    println!(
        "  submits ok/transient/hard : {}/{}/{}",
        report.submits.accepted, report.submits.transient_refusals, report.submits.hard_failures
    );
    match report.retry_success_rate() {
        Some(rate) => println!("  user retry success rate   : {:.0} %", rate * 100.0),
        None => println!("  user retry success rate   : n/a (no refusals)"),
    }
    println!("  jobs completed/lost       : {}/{}", report.jobs_completed, report.jobs_lost);
    println!("  sessions unserved at end  : {}", report.sessions_unserved);
    println!("  canonical log             : {} bytes", report.canonical_log().len());
}
