//! Golden-output regression for every row of `scenario::GOLDENS`, plus
//! the acceptance claims each pinned run must meet.
//!
//! Each golden is exactly what `report <scenario> <args> --json` prints.
//! If a change shifts any number in one, its test shows the diff and the
//! command that regenerates the file. Test names start with the scenario
//! name, so `cargo test -p evop-bench --test golden -- <scenario>` runs
//! one scenario's golden and acceptance checks.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use evop_bench::cache::flash_crowd_report;
use evop_bench::e8::{run_media_event, MediaEventConfig};
use evop_bench::scenario::{self, render_json, GOLDENS, SCENARIOS};
use evop_bench::slo::{cell_by_name, run_cell, CellOutcome};
use evop_bench::tsdb::{run_diurnal, DiurnalConfig};
use evop_shard::Policy;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Replays the `GOLDENS` row of `scenario` and compares what `report`
/// prints with the committed file, byte for byte.
fn assert_matches_golden(scenario: &str) {
    let row = GOLDENS.iter().find(|g| g.scenario == scenario).expect("a GOLDENS row");
    let path = golden_dir().join(row.file);
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
    let (report, opts) = scenario::run(&row.argv()).expect("the golden invocation parses");
    assert!(opts.json, "golden rows print JSON");
    assert_eq!(
        render_json(&report.json()),
        golden,
        "output drifted from the committed golden; if the change is intended, \
         regenerate it with:\n    {}",
        row.regen_command()
    );
}

#[test]
fn slo_matches_committed_golden() {
    assert_matches_golden("slo");
}

#[test]
fn cache_matches_committed_golden() {
    assert_matches_golden("cache");
}

#[test]
fn tsdb_matches_committed_golden() {
    assert_matches_golden("tsdb");
}

#[test]
fn e8_matches_committed_golden() {
    assert_matches_golden("e8");
}

#[test]
fn slo_golden_cell_detects_every_burst() {
    let cell = cell_by_name("api-burst").expect("api-burst cell exists");
    let outcome = run_cell(&cell, 42);
    assert!(outcome.all_detected(), "bursts: {:?}", outcome.bursts);
    assert!(CellOutcome::mean_detection_secs(&outcome).is_some());
}

#[test]
fn cache_golden_scenario_meets_the_headline_claims() {
    let report = flash_crowd_report(40, 42);
    let co = &report.coalesced;

    // ≥ 90 % of classified requests served without a model run.
    assert!(
        co.served_without_run_ratio() >= 0.9,
        "only {:.1}% of requests avoided a model run",
        100.0 * co.served_without_run_ratio()
    );
    // Exactly one model run led the whole burst.
    assert_eq!(co.misses, 1);
    assert_eq!(co.followers as usize, report.crowd - 1);
    assert_eq!(co.hits as usize, report.crowd, "the repeat wave is all L1 hits");
    assert_eq!(co.coalesced_events, co.followers);

    // Followers beat the warm baseline's median TTFR, strictly.
    let warm_median = report.warm.median_first_result.as_secs_f64();
    assert!(
        co.follower_median_ttfr_secs < warm_median,
        "follower median {}s must beat warm {warm_median}s",
        co.follower_median_ttfr_secs
    );

    // And the run costs less than keeping the warm pool.
    assert!(
        co.cost < report.warm.cost,
        "coalesced cost {} must undercut warm {}",
        co.cost,
        report.warm.cost
    );
}

#[test]
fn cache_same_seed_reruns_are_byte_identical() {
    let a = flash_crowd_report(40, 42);
    let b = flash_crowd_report(40, 42);
    assert_eq!(render_json(&a.to_json()), render_json(&b.to_json()));
}

/// Determinism: two same-seed runs produce a byte-identical tsdb
/// snapshot and the same retained-trace id set.
#[test]
fn tsdb_same_seed_runs_are_byte_identical() {
    let config = DiurnalConfig::default();
    let a = run_diurnal(&config);
    let b = run_diurnal(&config);
    assert_eq!(a.tsdb.snapshot_string(), b.tsdb.snapshot_string(), "tsdb snapshots must match");
    assert_eq!(a.sampler.retained_ids(), b.sampler.retained_ids(), "retained traces must match");
    assert_eq!(a.snapshot_fnv(), b.snapshot_fnv());
}

/// Tail sampling: in the chaos cell the sampler keeps every errored and
/// every SLO-burning trace while staying under the span budget, and
/// healthy traffic is actually being dropped (the whole point of tail
/// sampling).
#[test]
fn tsdb_golden_run_retains_all_incident_traces_under_budget() {
    let outcome = run_diurnal(&DiurnalConfig::default());
    let acceptance = outcome.acceptance();
    assert!(acceptance.errored_total > 100, "the burst must produce real errors");
    assert_eq!(
        acceptance.errored_retained, acceptance.errored_total,
        "every errored trace must be retained"
    );
    assert!(acceptance.burning_total > 100, "the availability SLO must burn");
    assert_eq!(
        acceptance.burning_retained, acceptance.burning_total,
        "every SLO-burning trace must be retained"
    );
    assert!(
        outcome.sampler.retained_spans() <= outcome.config.sampler.max_retained_spans,
        "retained spans must stay under the budget"
    );
    let counters = outcome.sampler.counters();
    assert!(
        counters.discarded > counters.decided / 2,
        "most healthy traffic must be dropped ({} of {} decided)",
        counters.discarded,
        counters.decided
    );
    // The governor kept the per-user family bounded despite the crowd.
    assert!(outcome.tsdb.series_dropped() > 0);
}

/// The federation acceptance, checked against the same run the golden
/// pins: all three policies complete the day; killing a shard mid-crowd
/// loses no sessions (every displaced session rebinds or logs off, the
/// queue drains); and the availability page both fires during the drain
/// and resolves once the plane settles — in every cell.
#[test]
fn e8_golden_run_satisfies_the_federation_acceptance() {
    let config = MediaEventConfig::default();
    let outcome = run_media_event(&config);
    assert_eq!(outcome.cells.len(), 3, "all three balancer policies must run");
    for cell in &outcome.cells {
        let policy = cell.policy.label();
        assert_eq!(cell.connected, config.users, "{policy}: every user connects");
        assert_eq!(cell.lost(), 0, "{policy}: no session may be lost");
        assert_eq!(cell.live_end, 0, "{policy}: midnight finds the portal empty");
        assert_eq!(cell.pending_end, 0, "{policy}: the rebind queue must drain");
        assert!(cell.displaced > 0, "{policy}: the kill must displace live sessions");
        assert!(cell.rebinds > 0, "{policy}: displaced sessions must re-home");
        assert!(cell.alert_fired(), "{policy}: the availability page must fire");
        assert!(cell.alert_resolved(), "{policy}: the page must resolve");
        assert!(cell.cross_front_end > 0, "{policy}: flights must coalesce across front-ends");
    }
    // The consistent-hash placement digest is the determinism pin:
    // byte-stable across runs of the same seed.
    let ch = outcome.cell(Policy::ConsistentHash).expect("consistent-hash cell runs");
    assert_eq!(ch.placement_digest.len(), 16, "digest is 16 hex digits");
}

#[test]
fn registry_and_golden_table_agree() {
    // Scenario names are unique.
    let names: BTreeSet<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(names.len(), SCENARIOS.len(), "scenario names must be unique");

    // Every row names a registered scenario, and every golden file has
    // exactly one row.
    for row in GOLDENS {
        assert!(names.contains(row.scenario), "{} names no registered scenario", row.file);
    }
    let files: Vec<String> = fs::read_dir(golden_dir())
        .expect("golden dir lists")
        .map(|entry| entry.expect("golden entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!files.is_empty(), "the golden dir holds files");
    for file in &files {
        let rows = GOLDENS.iter().filter(|g| g.file == file).count();
        assert_eq!(rows, 1, "{file} must have exactly one GOLDENS row, has {rows}");
    }
    assert_eq!(GOLDENS.len(), files.len(), "every GOLDENS row has its file");
}

#[test]
fn registry_unknown_scenario_exits_2_with_the_names() {
    let output = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("no-such-scenario")
        .output()
        .expect("the report binary runs");
    assert_eq!(output.status.code(), Some(2), "an unknown scenario is a usage error");
    let usage = String::from_utf8_lossy(&output.stderr);
    for scenario in SCENARIOS {
        assert!(usage.contains(scenario.name), "usage must list {}:\n{usage}", scenario.name);
    }
}
