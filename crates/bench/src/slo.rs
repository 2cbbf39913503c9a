//! The E4 alerting matrix: fault bursts joined to the alerts they fire.
//!
//! Each cell runs one `(schedule, seed)` chaos scenario with the health
//! plane's SLOs registered and then measures **alert detection latency**:
//! for every injected fault burst, how long after the burst opened did an
//! alert fire (or was one already burning)? The whole pipeline is virtual
//! time and seeded, so a cell's JSON outcome is byte-identical across
//! runs — the `report slo` golden pins that.

use evop_broker::BrokerConfig;
use evop_chaos::{ChaosRunReport, ChaosScenario, FaultKind, FaultSchedule};
use evop_obs::{AlertKind, AlertRecord, AlertSeverity, SloSpec};
use evop_sim::SimDuration;
use serde_json::{json, Value};

use crate::cli::CliOptions;
use crate::scenario::Report;

/// Seeds the full matrix sweeps when `--seed` is not given.
pub const MATRIX_SEEDS: [u64; 3] = [1, 7, 42];

/// Grace period after a burst closes during which an alert still counts
/// as detecting it: straggled boots observed at boot *completion* land up
/// to one slowed boot after the window shuts.
const JOIN_SLACK_SECS: u64 = 900;

/// One cell of the alerting matrix.
#[derive(Debug, Clone)]
pub struct SloCell {
    /// Cell name (`--cell` selects by this).
    pub name: &'static str,
    /// What goes wrong.
    pub schedule: FaultSchedule,
    /// Broker configuration driving the cell.
    pub config: BrokerConfig,
    /// Concurrent user sessions.
    pub sessions: usize,
    /// Soak length, virtual seconds.
    pub duration_secs: u64,
    /// The SLOs judging the cell.
    pub slos: Vec<SloSpec>,
}

/// The availability SLO every cell registers: submissions answered `ok`
/// against a 90 % target, paged on a 600 s/300 s window pair at 2× burn.
fn availability_slo() -> SloSpec {
    SloSpec::availability(
        "broker-availability",
        0.9,
        "broker_submit_total",
        &[("outcome", "ok")],
        "broker_submit_total",
    )
    .window(600, 300, 2.0, AlertSeverity::Page)
}

/// A boot-latency SLO for one provider: 90 % of boots ready within
/// `threshold_secs`, paged on the same 600 s/300 s pair.
fn boot_latency_slo(provider: &str, threshold_secs: f64) -> SloSpec {
    SloSpec::latency(
        &format!("boot-latency-{provider}"),
        0.9,
        "cloud_boot_seconds",
        &[("provider", provider)],
        threshold_secs,
    )
    .window(600, 300, 2.0, AlertSeverity::Page)
}

/// Both providers get the same fault window — the burst must be visible
/// no matter where the broker placed the sessions.
fn both_providers(
    schedule: FaultSchedule,
    start: u64,
    duration: u64,
    make: impl Fn(&str) -> FaultKind,
) -> FaultSchedule {
    schedule.window(start, duration, make("campus")).window(start, duration, make("aws"))
}

/// The E4 alerting matrix: one cell per fault family, plus the non-blob
/// provider-storm (blob faults never cross the broker submit path, so
/// they cannot be judged by these SLOs and stay in the chaos matrix).
pub fn e4_alerting_matrix() -> Vec<SloCell> {
    let churn = |mtbf_secs| BrokerConfig {
        private_capacity_vcpus: 4,
        instance_mtbf: Some(SimDuration::from_secs(mtbf_secs)),
        ..BrokerConfig::default()
    };
    vec![
        SloCell {
            name: "api-burst",
            schedule: both_providers(FaultSchedule::named("slo-api-burst"), 600, 1800, |p| {
                FaultKind::ApiErrorBurst { provider: p.to_owned(), error_rate: 0.9 }
            }),
            config: BrokerConfig::default(),
            sessions: 20,
            duration_secs: 3600,
            slos: vec![availability_slo()],
        },
        SloCell {
            name: "partition",
            schedule: both_providers(FaultSchedule::named("slo-partition"), 900, 1200, |p| {
                FaultKind::Partition { provider: p.to_owned() }
            }),
            config: BrokerConfig::default(),
            sessions: 20,
            duration_secs: 3600,
            slos: vec![availability_slo()],
        },
        SloCell {
            name: "boot-failure",
            schedule: both_providers(FaultSchedule::named("slo-boot-failure"), 600, 2400, |p| {
                FaultKind::BootFailure { provider: p.to_owned(), probability: 1.0 }
            }),
            config: churn(600),
            sessions: 20,
            duration_secs: 3600,
            slos: vec![availability_slo()],
        },
        SloCell {
            name: "straggler",
            schedule: both_providers(FaultSchedule::named("slo-straggler"), 600, 2400, |p| {
                FaultKind::Straggler { provider: p.to_owned(), slowdown: 10.0, probability: 1.0 }
            }),
            config: churn(600),
            sessions: 20,
            duration_secs: 3600,
            slos: vec![
                availability_slo(),
                boot_latency_slo("campus", 120.0),
                boot_latency_slo("aws", 180.0),
            ],
        },
        SloCell {
            name: "storm",
            schedule: FaultSchedule::named("slo-storm")
                .window(
                    600,
                    1200,
                    FaultKind::ApiErrorBurst { provider: "aws".to_owned(), error_rate: 0.6 },
                )
                .window(
                    1800,
                    1800,
                    FaultKind::BootFailure { provider: "campus".to_owned(), probability: 0.5 },
                )
                .window(
                    2400,
                    1800,
                    FaultKind::Straggler {
                        provider: "aws".to_owned(),
                        slowdown: 4.0,
                        probability: 0.5,
                    },
                )
                .window(4200, 600, FaultKind::Partition { provider: "aws".to_owned() })
                .window(4200, 600, FaultKind::Partition { provider: "campus".to_owned() }),
            config: churn(900),
            sessions: 20,
            duration_secs: 7200,
            slos: vec![
                availability_slo(),
                boot_latency_slo("campus", 120.0),
                boot_latency_slo("aws", 180.0),
            ],
        },
    ]
}

/// A cell by name.
pub fn cell_by_name(name: &str) -> Option<SloCell> {
    e4_alerting_matrix().into_iter().find(|c| c.name == name)
}

/// One fault burst joined to the alert (if any) that detected it.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstOutcome {
    /// The fault label.
    pub kind: String,
    /// The provider or container hit.
    pub target: String,
    /// Burst start, virtual seconds.
    pub start_secs: u64,
    /// Burst length, virtual seconds.
    pub duration_secs: u64,
    /// The SLO whose alert detected the burst, when one did.
    pub slo: Option<String>,
    /// Seconds from burst start to the alert firing. Zero when an alert
    /// was already burning as the burst opened.
    pub detection_latency_secs: Option<f64>,
}

impl BurstOutcome {
    /// Whether any alert covered the burst.
    pub fn detected(&self) -> bool {
        self.slo.is_some()
    }
}

/// Everything one cell run measured.
#[derive(Debug)]
pub struct CellOutcome {
    /// Cell name.
    pub cell: String,
    /// Seed that drove it.
    pub seed: u64,
    /// Faults the chaos engine fired.
    pub faults_fired: usize,
    /// Every burst in the schedule, joined to alerts.
    pub bursts: Vec<BurstOutcome>,
    /// The full run report (alerts, metrics snapshot, exports).
    pub report: ChaosRunReport,
}

impl CellOutcome {
    /// `true` when every burst in the cell was covered by an alert.
    pub fn all_detected(&self) -> bool {
        self.bursts.iter().all(BurstOutcome::detected)
    }

    /// Mean detection latency across detected bursts, seconds.
    pub fn mean_detection_secs(&self) -> Option<f64> {
        let lats: Vec<f64> = self.bursts.iter().filter_map(|b| b.detection_latency_secs).collect();
        if lats.is_empty() {
            return None;
        }
        Some(lats.iter().sum::<f64>() / lats.len() as f64)
    }

    /// Worst detection latency across detected bursts, seconds.
    pub fn max_detection_secs(&self) -> Option<f64> {
        self.bursts
            .iter()
            .filter_map(|b| b.detection_latency_secs)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The canonical JSON the golden test pins: burst joins, alert log and
    /// headline counters — everything deterministic for `(cell, seed)`.
    pub fn to_json(&self) -> Value {
        json!({
            "cell": self.cell,
            "seed": self.seed,
            "faults_fired": self.faults_fired,
            "bursts": self.bursts.iter().map(|b| json!({
                "kind": b.kind,
                "target": b.target,
                "start_secs": b.start_secs,
                "duration_secs": b.duration_secs,
                "slo": b.slo,
                "detection_latency_secs": b.detection_latency_secs,
            })).collect::<Vec<Value>>(),
            "alerts": self.report.alerts.iter().map(AlertRecord::to_json).collect::<Vec<Value>>(),
            "submits": {
                "attempts": self.report.submits.attempts,
                "accepted": self.report.submits.accepted,
                "transient": self.report.submits.transient_refusals,
                "hard": self.report.submits.hard_failures,
            },
        })
    }
}

/// Runs one cell with one seed and joins bursts to alerts.
pub fn run_cell(cell: &SloCell, seed: u64) -> CellOutcome {
    let mut scenario = ChaosScenario::new(cell.schedule.clone(), seed)
        .config(cell.config.clone())
        .sessions(cell.sessions)
        .duration(SimDuration::from_secs(cell.duration_secs));
    for slo in &cell.slos {
        scenario = scenario.slo(slo.clone());
    }
    let report = scenario.run();
    let intervals = active_intervals(&report.alerts);
    let bursts = cell
        .schedule
        .windows()
        .iter()
        .map(|w| {
            let start_ms = w.start_secs * 1000;
            let end_ms = (w.start_secs + w.duration_secs + JOIN_SLACK_SECS) * 1000;
            // The earliest-fired alert interval overlapping the burst
            // (including alerts already burning when it opened).
            let hit = intervals
                .iter()
                .filter(|iv| iv.fired_ms < end_ms && iv.resolved_ms.is_none_or(|r| r > start_ms))
                .min_by_key(|iv| iv.fired_ms);
            let (slo, latency) = match hit {
                Some(iv) => (
                    Some(iv.slo.clone()),
                    Some((iv.fired_ms.saturating_sub(start_ms)) as f64 / 1000.0),
                ),
                None => (None, None),
            };
            BurstOutcome {
                kind: w.kind.label().to_owned(),
                target: burst_target(&w.kind),
                start_secs: w.start_secs,
                duration_secs: w.duration_secs,
                slo,
                detection_latency_secs: latency,
            }
        })
        .collect();
    CellOutcome {
        cell: cell.name.to_owned(),
        seed,
        faults_fired: report.chaos_faults_fired,
        bursts,
        report,
    }
}

fn burst_target(kind: &FaultKind) -> String {
    match kind {
        FaultKind::ApiErrorBurst { provider, .. }
        | FaultKind::BootFailure { provider, .. }
        | FaultKind::Straggler { provider, .. }
        | FaultKind::Partition { provider } => provider.clone(),
        FaultKind::BlobOutage { container } | FaultKind::BlobCorruption { container, .. } => {
            container.clone()
        }
    }
}

/// One fired→resolved alert interval.
#[derive(Debug)]
struct AlertInterval {
    slo: String,
    fired_ms: u64,
    resolved_ms: Option<u64>,
}

/// Pairs Fired/Resolved transitions per (slo, window) into intervals.
fn active_intervals(alerts: &[AlertRecord]) -> Vec<AlertInterval> {
    let mut intervals: Vec<AlertInterval> = Vec::new();
    let mut open: Vec<(String, (u64, u64), usize)> = Vec::new();
    for alert in alerts {
        let key = (alert.slo.clone(), alert.window_secs);
        match alert.kind {
            AlertKind::Fired => {
                open.push((key.0.clone(), key.1, intervals.len()));
                intervals.push(AlertInterval {
                    slo: alert.slo.clone(),
                    fired_ms: alert.at_ms,
                    resolved_ms: None,
                });
            }
            AlertKind::Resolved => {
                if let Some(pos) = open
                    .iter()
                    .rposition(|(slo, w, _)| *slo == alert.slo && *w == alert.window_secs)
                {
                    let (_, _, idx) = open.remove(pos);
                    intervals[idx].resolved_ms = Some(alert.at_ms);
                }
            }
        }
    }
    intervals
}

/// The runs of one `report slo` invocation.
struct MatrixReport(Vec<CellOutcome>);

/// `report slo`: every matrix cell (or `--cell NAME`) at every matrix
/// seed (or `--seed N`).
pub(crate) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let cells = match opts.value("cell") {
        Some(name) => vec![cell_by_name(name).ok_or_else(|| {
            let names: Vec<&str> = e4_alerting_matrix().into_iter().map(|c| c.name).collect();
            format!("unknown cell {name:?}; cells:\n  {}", names.join("\n  "))
        })?],
        None => e4_alerting_matrix(),
    };
    let seeds: Vec<u64> = match opts.seed {
        Some(seed) => vec![seed],
        None => MATRIX_SEEDS.to_vec(),
    };
    let mut outcomes = Vec::new();
    for cell in &cells {
        for &seed in &seeds {
            outcomes.push(run_cell(cell, seed));
        }
    }
    Ok(Box::new(MatrixReport(outcomes)))
}

impl Report for MatrixReport {
    fn json(&self) -> Value {
        json!({
            "report": "slo-alerting-matrix",
            "cells": self.0.iter().map(CellOutcome::to_json).collect::<Vec<Value>>(),
        })
    }

    /// `<cell>-<seed>.snapshot.json` and `<cell>-<seed>.prom` per run.
    fn artifacts(&self) -> Vec<(String, String)> {
        let mut files = Vec::new();
        for outcome in &self.0 {
            let stem = format!("{}-{}", outcome.cell, outcome.seed);
            let snapshot = serde_json::to_string_pretty(&outcome.report.metrics_snapshot)
                .unwrap_or_else(|_| String::from("{}"));
            files.push((format!("{stem}.snapshot.json"), snapshot));
            files.push((format!("{stem}.prom"), outcome.report.prometheus.clone()));
        }
        files
    }

    fn print_tables(&self) {
        println!("E4 SLO alerting matrix — alert detection latency in virtual time");
        println!();
        println!(
            "{:<14} {:>6} {:<16} {:<8} {:>9} {:>6} {:<26} {:>11}",
            "cell", "seed", "burst", "target", "start_s", "dur_s", "detected by", "latency_s"
        );
        let mut detected = 0usize;
        let mut total = 0usize;
        for outcome in &self.0 {
            for burst in &outcome.bursts {
                total += 1;
                let (slo, latency) = match (&burst.slo, burst.detection_latency_secs) {
                    (Some(slo), Some(lat)) => {
                        detected += 1;
                        (slo.clone(), format!("{lat:.0}"))
                    }
                    _ => (String::from("— MISSED —"), String::from("-")),
                };
                println!(
                    "{:<14} {:>6} {:<16} {:<8} {:>9} {:>6} {:<26} {:>11}",
                    outcome.cell,
                    outcome.seed,
                    burst.kind,
                    burst.target,
                    burst.start_secs,
                    burst.duration_secs,
                    slo,
                    latency
                );
            }
        }
        println!();
        for outcome in &self.0 {
            let mean = outcome
                .mean_detection_secs()
                .map_or_else(|| String::from("-"), |v| format!("{v:.0}"));
            let max = outcome
                .max_detection_secs()
                .map_or_else(|| String::from("-"), |v| format!("{v:.0}"));
            println!(
                "cell {:<14} seed {:<6} alerts {:>3}  mean detection {mean:>5}s  max {max:>5}s",
                outcome.cell,
                outcome.seed,
                outcome.report.alerts.len(),
            );
        }
        println!();
        println!("bursts detected: {detected}/{total}");
        if detected < total {
            println!("WARNING: some bursts fired no alert — the health plane missed them");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cells_are_distinct_and_alertable() {
        let cells = e4_alerting_matrix();
        assert_eq!(cells.len(), 5);
        let mut names: Vec<&str> = cells.iter().map(|c| c.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5, "cell names must be unique");
        for cell in &cells {
            assert!(!cell.slos.is_empty(), "{} must register SLOs", cell.name);
            assert!(!cell.schedule.windows().is_empty());
        }
        assert!(cell_by_name("api-burst").is_some());
        assert!(cell_by_name("nope").is_none());
    }

    #[test]
    fn api_burst_cell_detects_both_bursts_deterministically() {
        let cell = cell_by_name("api-burst").expect("cell exists");
        let outcome = run_cell(&cell, 42);
        assert!(outcome.faults_fired > 0);
        assert!(outcome.all_detected(), "bursts: {:?}", outcome.bursts);
        for burst in &outcome.bursts {
            let lat = burst.detection_latency_secs.unwrap_or(f64::MAX);
            assert!(lat <= 900.0, "detection must land within the window, got {lat}s");
        }
        let again = run_cell(&cell, 42);
        assert_eq!(
            outcome.to_json().to_string(),
            again.to_json().to_string(),
            "cell outcome must be byte-identical for one (schedule, seed)"
        );
    }

    #[test]
    fn interval_pairing_joins_fired_to_resolved() {
        let mk = |at_ms, kind| AlertRecord {
            at_ms,
            slo: "s".to_owned(),
            severity: AlertSeverity::Page,
            kind,
            window_secs: (600, 300),
            burn_long: 3.0,
            burn_short: 3.0,
            evidence: String::new(),
        };
        let intervals = active_intervals(&[
            mk(1000, AlertKind::Fired),
            mk(5000, AlertKind::Resolved),
            mk(9000, AlertKind::Fired),
        ]);
        assert_eq!(intervals.len(), 2);
        assert_eq!(intervals[0].resolved_ms, Some(5000));
        assert_eq!(intervals[1].resolved_ms, None);
    }
}
