//! The scenario registry behind the `report` binary.
//!
//! Every reproducible artifact of the workspace comes from one command:
//!
//! ```sh
//! cargo run -p evop-bench --release --bin report -- [SCENARIO] [--seed N] [--json] [--out DIR] …
//! ```
//!
//! A [`Scenario`] names one experiment family and the flags it adds to
//! the common `--seed`/`--json`/`--out`; its `run` returns a [`Report`],
//! which gives the canonical JSON (`--json`), the artifact files
//! (`--out DIR`) and the human-readable tables (the default). With no
//! scenario the binary runs `experiments`, the EXPERIMENTS.md report.
//!
//! [`GOLDENS`] pins one `report … --json` invocation per file under
//! `crates/bench/golden/`; `tests/golden.rs` replays every row and shows
//! the regeneration command when one drifts.

mod ablations;
mod chaos;
mod experiments;
mod trace;

use std::fs;
use std::path::Path;

use serde_json::{json, Value};

use crate::cli::{CliOptions, CliSpec};

/// The seed every scenario defaults to.
pub const DEFAULT_SEED: u64 = 42;

/// What one scenario run produced.
pub trait Report {
    /// The canonical JSON document `--json` prints.
    fn json(&self) -> Value;
    /// The files `--out DIR` writes, as (file name, contents).
    fn artifacts(&self) -> Vec<(String, String)>;
    /// Prints the human-readable tables to stdout.
    fn print_tables(&self);
}

/// One registered scenario of the `report` binary.
pub struct Scenario {
    /// The name given on the command line.
    pub name: &'static str,
    /// One line for the usage text.
    about: &'static str,
    /// Scenario-only boolean flags: (name, help).
    switches: &'static [(&'static str, &'static str)],
    /// Scenario-only valued flags: (name, placeholder, help).
    values: &'static [(&'static str, &'static str, &'static str)],
    /// Runs the scenario on parsed options; `Err` is a usage complaint.
    run: fn(&CliOptions) -> Result<Box<dyn Report>, String>,
}

impl Scenario {
    /// The flag grammar: the common flags plus this scenario's own.
    fn spec(&self) -> CliSpec {
        let mut spec = CliSpec::new(&format!("report {}", self.name), DEFAULT_SEED);
        for &(name, help) in self.switches {
            spec = spec.with_switch(name, help);
        }
        for &(name, placeholder, help) in self.values {
            spec = spec.with_value(name, placeholder, help);
        }
        spec
    }
}

/// Every scenario `report` knows, the default first.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "experiments",
        about: "headline numbers of every experiment E1-E15 (EXPERIMENTS.md)",
        switches: &[],
        values: &[],
        run: experiments::report,
    },
    Scenario {
        name: "ablations",
        about: "ablation tables over the reproduction's design choices",
        switches: &[],
        values: &[],
        run: ablations::report,
    },
    Scenario {
        name: "trace",
        about: "causal span timelines of E1, E3 and E4",
        switches: &[],
        values: &[],
        run: trace::report,
    },
    Scenario {
        name: "chaos",
        about: "MTBF soak matrix and provider storm (fault-injection halves of E4/E6)",
        switches: &[],
        values: &[],
        run: chaos::report,
    },
    Scenario {
        name: "slo",
        about: "E4 alerting matrix: alert detection latency per fault burst",
        switches: &[],
        values: &[("cell", "NAME", "run only the named matrix cell")],
        run: crate::slo::report,
    },
    Scenario {
        name: "cache",
        about: "E6 flash crowd cold vs warm vs coalesced against the cache plane",
        switches: &[],
        values: &[],
        run: crate::cache::report,
    },
    Scenario {
        name: "tsdb",
        about: "multi-day diurnal soak through the time-series store and tail sampler",
        switches: &[],
        values: &[("days", "N", "virtual days to soak (default 2)")],
        run: crate::tsdb::report,
    },
    Scenario {
        name: "e8",
        about: "E8 national media event against the sharded federation",
        switches: &[("full", "run the national scale (~1M users, 8 shards)")],
        values: &[("cell", "NAME", "run only the named balancer policy")],
        run: crate::e8::report,
    },
];

/// One committed golden: `report <scenario> <args> --json` prints `file`.
pub struct Golden {
    /// The scenario the golden pins.
    pub scenario: &'static str,
    /// Its flags, without `--json`.
    args: &'static [&'static str],
    /// File name under `crates/bench/golden/`.
    pub file: &'static str,
}

impl Golden {
    /// The full `report` argument list, `--json` included.
    pub fn argv(&self) -> Vec<String> {
        let mut argv = vec![self.scenario.to_owned()];
        argv.extend(self.args.iter().map(|arg| (*arg).to_owned()));
        argv.push("--json".to_owned());
        argv
    }

    /// The shell command that rewrites the golden file.
    pub fn regen_command(&self) -> String {
        format!(
            "cargo run -p evop-bench --release --bin report -- {} > crates/bench/golden/{}",
            self.argv().join(" "),
            self.file
        )
    }
}

/// Every file under `crates/bench/golden/`, one row each.
pub const GOLDENS: &[Golden] = &[
    Golden {
        scenario: "slo",
        args: &["--cell", "api-burst", "--seed", "42"],
        file: "slo_api_burst_seed42.json",
    },
    Golden { scenario: "cache", args: &["--seed", "42"], file: "cache_flash_crowd_seed42.json" },
    Golden { scenario: "tsdb", args: &["--seed", "42"], file: "tsdb_diurnal_seed42.json" },
    Golden { scenario: "e8", args: &["--seed", "42"], file: "e8_media_event_seed42.json" },
];

/// The top-level usage text, listing every registered scenario.
fn usage() -> String {
    let mut text = String::from(
        "usage: cargo run -p evop-bench --release --bin report -- [SCENARIO] [flags]\n\
         \nscenarios (default experiments):\n",
    );
    for scenario in SCENARIOS {
        text.push_str(&format!("  {:<12} {}\n", scenario.name, scenario.about));
    }
    text.push_str("\n`report SCENARIO --help` lists a scenario's flags.");
    text
}

/// Runs `report` on its arguments (without the program name). A first
/// argument that is not a flag names the scenario; otherwise it is
/// `experiments`. A leading `--help` asks for the scenario list.
///
/// # Errors
///
/// Returns the usage text — prefixed with the complaint for an unknown
/// scenario or a flag the scenario does not accept — or the scenario's
/// own complaint about a flag value.
pub fn run(args: &[String]) -> Result<(Box<dyn Report>, CliOptions), String> {
    let (name, flags) = match args.split_first() {
        Some((first, _)) if first == "--help" || first == "-h" => return Err(usage()),
        Some((first, rest)) if !first.starts_with('-') => (first.as_str(), rest),
        _ => (SCENARIOS[0].name, args),
    };
    let scenario = SCENARIOS
        .iter()
        .find(|scenario| scenario.name == name)
        .ok_or_else(|| format!("unknown scenario {name:?}\n{}", usage()))?;
    let opts = scenario.spec().parse(flags)?;
    let report = (scenario.run)(&opts)?;
    Ok((report, opts))
}

/// The canonical pretty JSON text, newline-terminated — exactly what
/// `--json` prints.
pub fn render_json(value: &Value) -> String {
    let mut text = serde_json::to_string_pretty(value).unwrap_or_else(|_| String::from("{}"));
    text.push('\n');
    text
}

/// Creates `dir` and writes every artifact into it.
///
/// # Errors
///
/// Returns a message naming the directory or file that failed.
pub fn write_artifacts(dir: &Path, artifacts: &[(String, String)]) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    for (name, contents) in artifacts {
        let path = dir.join(name);
        fs::write(&path, contents)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    }
    Ok(())
}

/// Prints the report banner used by the text-first scenarios.
fn banner(title: &str) {
    println!("======================================================================");
    println!(" EVOp reproduction — {title}");
    println!("======================================================================");
}

/// Prints the section heading `--- {id}: {claim}` after a blank line.
fn heading(id: &str, claim: &str) {
    println!("\n--- {id}: {claim}");
}

/// A report made of headed text sections (`experiments`, `ablations`).
/// Its JSON carries the same lines the tables print, section by section.
struct Sections {
    report: &'static str,
    title: String,
    seed: u64,
    sections: Vec<Section>,
}

struct Section {
    id: String,
    claim: String,
    lines: Vec<String>,
}

impl Sections {
    fn new(report: &'static str, title: String, seed: u64) -> Sections {
        Sections { report, title, seed, sections: Vec::new() }
    }

    /// Opens the section `--- {id}: {claim}`.
    fn heading(&mut self, id: &str, claim: &str) {
        self.sections.push(Section {
            id: id.to_owned(),
            claim: claim.to_owned(),
            lines: Vec::new(),
        });
    }

    /// Appends one printed line (a table may span several) to the open
    /// section.
    fn line(&mut self, line: impl Into<String>) {
        if let Some(section) = self.sections.last_mut() {
            section.lines.push(line.into());
        }
    }
}

impl Report for Sections {
    fn json(&self) -> Value {
        let sections: Vec<Value> = self
            .sections
            .iter()
            .map(|s| json!({ "id": s.id, "claim": s.claim, "lines": s.lines }))
            .collect();
        json!({ "report": self.report, "seed": self.seed, "sections": sections })
    }

    fn artifacts(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    fn print_tables(&self) {
        banner(&self.title);
        for section in &self.sections {
            heading(&section.id, &section.claim);
            for line in &section.lines {
                println!("{line}");
            }
        }
    }
}
