//! Tiny shared argument parser for the report binaries.
//!
//! Every scenario of `report` (`cargo run -p evop-bench --release --bin
//! report -- <scenario>`) and `perf_report` take the same `--seed`,
//! `--json` and `--out` flags; this module parses them once so the
//! binaries stay declarative. No external dependency — the grammar is
//! those flags plus per-scenario switches ([`CliSpec::with_switch`]) and
//! valued options ([`CliSpec::with_value`]).

use std::collections::{BTreeMap, BTreeSet};
use std::process::exit;

/// Parsed common options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliOptions {
    /// `--seed N`, when given.
    pub seed: Option<u64>,
    /// `--json`: emit machine-readable canonical JSON instead of tables.
    pub json: bool,
    /// `--out DIR`: also write exporter artifacts into this directory.
    pub out: Option<String>,
    /// Binary-specific boolean flags that were present.
    switches: BTreeSet<String>,
    /// Binary-specific valued flags.
    values: BTreeMap<String, String>,
}

impl CliOptions {
    /// `true` if the binary-specific switch `--<name>` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The value of the binary-specific flag `--<name> VALUE`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

/// Which flags a binary accepts. `--seed`, `--json`, `--out` and `--help`
/// always work.
#[derive(Debug, Clone)]
pub struct CliSpec {
    bin: String,
    default_seed: u64,
    /// Extra boolean flags: (name, help).
    switches: Vec<(&'static str, &'static str)>,
    /// Extra valued flags: (name, placeholder, help).
    values: Vec<(&'static str, &'static str, &'static str)>,
}

impl CliSpec {
    /// A spec accepting the common flags, `--seed N` defaulting to
    /// `default_seed`. `bin` is the command the usage text names.
    pub fn new(bin: &str, default_seed: u64) -> CliSpec {
        CliSpec { bin: bin.to_owned(), default_seed, switches: Vec::new(), values: Vec::new() }
    }

    /// Also accept the boolean flag `--<name>` (read back with
    /// [`CliOptions::switch`]).
    pub fn with_switch(mut self, name: &'static str, help: &'static str) -> CliSpec {
        self.switches.push((name, help));
        self
    }

    /// Also accept the valued flag `--<name> <placeholder>` (read back
    /// with [`CliOptions::value`]).
    pub fn with_value(
        mut self,
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> CliSpec {
        self.values.push((name, placeholder, help));
        self
    }

    fn usage(&self) -> String {
        let mut flags = format!("  --seed N     simulation seed (default {})\n", self.default_seed);
        flags.push_str("  --json       print canonical JSON instead of tables\n");
        flags.push_str("  --out DIR    also write exporter artifacts into DIR\n");
        for (name, help) in &self.switches {
            flags.push_str(&format!("  {:<12} {help}\n", format!("--{name}")));
        }
        for (name, placeholder, help) in &self.values {
            flags.push_str(&format!("  {:<12} {help}\n", format!("--{name} {placeholder}")));
        }
        format!("usage: {} [flags]\n{}  --help       this message", self.bin, flags)
    }

    /// Parses `args` (without the program name). Unknown or malformed
    /// flags produce an `Err` with the usage text.
    ///
    /// # Errors
    ///
    /// Returns the usage string (prefixed with the complaint) on any flag
    /// the spec does not accept, a missing value, or an unparsable seed.
    pub fn parse(&self, args: &[String]) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--seed" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--seed needs a value\n{}", self.usage()))?;
                    opts.seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad seed {value:?}\n{}", self.usage()))?,
                    );
                }
                "--json" => opts.json = true,
                "--out" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--out needs a value\n{}", self.usage()))?;
                    opts.out = Some(value.clone());
                }
                "--help" | "-h" => return Err(self.usage()),
                other => {
                    let name = other.strip_prefix("--").unwrap_or(other);
                    if self.switches.iter().any(|(s, _)| *s == name) {
                        opts.switches.insert(name.to_owned());
                    } else if self.values.iter().any(|(v, _, _)| *v == name) {
                        let value = iter
                            .next()
                            .ok_or_else(|| format!("--{name} needs a value\n{}", self.usage()))?;
                        opts.values.insert(name.to_owned(), value.clone());
                    } else {
                        return Err(format!("unknown flag {other:?}\n{}", self.usage()));
                    }
                }
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, printing usage and exiting on error —
    /// the one-liner the binaries call.
    pub fn parse_or_exit(&self) -> CliOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&args) {
            Ok(opts) => opts,
            Err(message) => {
                eprintln!("{message}");
                exit(2);
            }
        }
    }

    /// The spec's default seed — what callers use when `--seed` is absent.
    pub fn default_seed(&self) -> u64 {
        self.default_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn empty_args_yield_defaults() {
        let opts = CliSpec::new("report", 42).parse(&[]).unwrap();
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn all_flags_parse() {
        let spec = CliSpec::new("report slo", 42).with_value("cell", "NAME", "one cell");
        let opts = spec
            .parse(&strings(&["--seed", "7", "--json", "--cell", "api-burst", "--out", "/tmp/x"]))
            .unwrap();
        assert_eq!(opts.seed, Some(7));
        assert!(opts.json);
        assert_eq!(opts.value("cell"), Some("api-burst"));
        assert_eq!(opts.out.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn unaccepted_flags_are_rejected() {
        let spec = CliSpec::new("report", 42);
        assert!(spec.parse(&strings(&["--cell", "api-burst"])).is_err());
        assert!(spec.parse(&strings(&["--out"])).is_err(), "--out needs a value");
        assert!(spec.parse(&strings(&["--frobnicate"])).is_err());
        assert!(spec.parse(&strings(&["--seed"])).is_err());
        assert!(spec.parse(&strings(&["--seed", "not-a-number"])).is_err());
    }

    #[test]
    fn help_surfaces_usage() {
        let err = CliSpec::new("report", 42).parse(&strings(&["--help"])).unwrap_err();
        assert!(err.contains("usage:"));
        assert!(err.contains("--seed"));
    }

    #[test]
    fn binary_specific_switches_and_values_parse() {
        let spec = CliSpec::new("perf_report", 42)
            .with_switch("check", "compare against committed baselines")
            .with_value("reps", "N", "repetitions per benchmark");
        let opts = spec.parse(&strings(&["--check", "--reps", "9"])).unwrap();
        assert!(opts.switch("check"));
        assert_eq!(opts.value("reps"), Some("9"));
        assert!(!opts.switch("update-baseline"));
        assert!(opts.value("tolerance").is_none());
        // Declared flags show up in usage; undeclared ones are rejected.
        let usage = spec.parse(&strings(&["--help"])).unwrap_err();
        assert!(usage.contains("--check"));
        assert!(usage.contains("--reps N"));
        assert!(spec.parse(&strings(&["--tolerance", "0.5"])).is_err());
        assert!(spec.parse(&strings(&["--reps"])).is_err(), "valued flag needs a value");
    }
}
