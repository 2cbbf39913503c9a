//! Benchmark harness for the EVOp reproduction.
//!
//! * `cargo bench` runs the Criterion benches (one group per experiment
//!   family — see `benches/`);
//! * `cargo run -p evop-bench --release --bin report -- [SCENARIO]` runs
//!   one scenario of the [`scenario`] registry: `experiments` (the
//!   default — the numbers behind every figure/claim in EXPERIMENTS.md),
//!   `ablations`, `trace`, `chaos`, `slo` (the E4 alerting matrix),
//!   `cache` (the E6 flash crowd against the cache plane), `tsdb` (the
//!   diurnal soak through the time-series store and tail sampler) or `e8`
//!   (the national media event against the sharded federation);
//! * `cargo run -p evop-bench --release --bin perf_report` runs the fixed
//!   perf suite and maintains the machine-readable perf trajectory
//!   (`BENCH_sim.json` / `BENCH_e2e.json`), with `--check` as the CI
//!   regression gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod e8;
pub mod perf;
pub mod scenario;
pub mod slo;
pub mod tsdb;

pub use cli::{CliOptions, CliSpec};
