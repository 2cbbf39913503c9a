//! One command for every reproducible report of the workspace:
//!
//! ```sh
//! cargo run -p evop-bench --release --bin report -- [SCENARIO] [--seed N] [--json] [--out DIR] …
//! ```
//!
//! With no scenario it runs `experiments`, whose output is what
//! EXPERIMENTS.md records; `report --help` lists the scenarios and
//! `report SCENARIO --help` a scenario's flags. The registry lives in
//! `evop_bench::scenario`.

use std::path::Path;
use std::process::exit;

use evop_bench::scenario::{self, render_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (report, opts) = scenario::run(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        exit(2);
    });
    if let Some(dir) = &opts.out {
        if let Err(message) = scenario::write_artifacts(Path::new(dir), &report.artifacts()) {
            eprintln!("{message}");
            exit(1);
        }
    }
    if opts.json {
        print!("{}", render_json(&report.json()));
    } else {
        report.print_tables();
    }
}
