//! The perf plane: a fixed benchmark suite, a machine-readable baseline
//! document, and a pure regression gate.
//!
//! `perf_report` runs two suites: `sim` (the event-loop microbench,
//! ladder-vs-heap queue scaling at 10⁵–10⁷ events, whole-tick batch
//! drain, and Monte Carlo calibration both sequential and seed-split
//! parallel) and `e2e` (the E1 portal request and E6 flash crowd).
//! Each benchmark gets one untimed warmup plus `N`
//! timed repetitions each, and records best-of-N throughput (see
//! [`best`]), p50/p99 wall latencies over the reps, per-stage profile
//! trees, deterministic work counters and an environment stamp into
//! `BENCH_sim.json` / `BENCH_e2e.json` at the repo root.
//!
//! The gate ([`check_doc`]) is a pure function over two such documents:
//! it fails any *gated* metric that regressed by more than `tolerance`
//! (direction-aware, default [`DEFAULT_TOLERANCE`]) and any deterministic
//! work counter that drifted at all — counter drift means the workload
//! itself changed and the baselines must be regenerated, not excused.
//!
//! Wall-clock readings live only here and in `evop_obs::profile`; nothing
//! in this module feeds the golden virtual-time documents.

use std::collections::BTreeMap;

use evop_core::experiments::{e1_dataflow_profiled, e6_flash_crowd_profiled};
use evop_models::calibrate::{monte_carlo, par_monte_carlo, ParamSpace};
use evop_obs::Profiler;
use evop_sim::reference::HeapQueue;
use evop_sim::{EventQueue, SimRng, SimTime};
use serde_json::{json, Map, Value};

/// Default timed repetitions per benchmark (gated metrics use best-of-N).
pub const DEFAULT_REPS: usize = 5;

/// Default relative regression tolerance for gated metrics (20%).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Events scheduled per event-loop rep.
const EVENT_LOOP_EVENTS: usize = 100_000;
/// Monte Carlo draws per calibration rep — sized so one rep takes tens of
/// milliseconds: long enough to average over scheduler contention bursts,
/// short enough that the whole suite stays under a second.
const MONTE_CARLO_SAMPLES: usize = 200_000;
/// Flash-crowd size for the E6 benchmark.
const E6_CROWD: usize = 40;
/// Warm-pool size for the E6 benchmark.
const E6_WARM_POOL: u32 = 4;

/// Times one closure invocation, returning `(elapsed seconds, result)`.
///
/// The perf plane is the one place in the workspace that reads the wall
/// clock on purpose: its whole job is measuring real elapsed time, and
/// its output never enters golden virtual-time documents.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // evop-lint: allow(det-wallclock) -- the perf harness measures real elapsed wall time by design; its output never feeds golden virtual-time documents
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Whether a bigger number is an improvement or a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-style metrics: a drop is a regression.
    HigherIsBetter,
    /// Latency-style metrics: a rise is a regression.
    LowerIsBetter,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher_is_better",
            Direction::LowerIsBetter => "lower_is_better",
        }
    }

    fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher_is_better" => Some(Direction::HigherIsBetter),
            "lower_is_better" => Some(Direction::LowerIsBetter),
            _ => None,
        }
    }
}

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Human unit, e.g. `"events/s"` or `"ms"`.
    pub unit: &'static str,
    /// Which way is better.
    pub direction: Direction,
    /// `true` if the CI gate compares this metric against the baseline.
    pub gated: bool,
}

/// One benchmark's outcome: timings, derived metrics, deterministic work
/// counters, and (for the end-to-end benches) the wall-clock profile.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name (the key in the suite document).
    pub name: &'static str,
    /// Per-repetition wall seconds, in run order.
    pub reps_secs: Vec<f64>,
    /// Derived metrics keyed by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Deterministic work counters — pure functions of the workload, so
    /// the gate compares them exactly; any drift means the workload
    /// changed and the baselines are stale.
    pub work: BTreeMap<&'static str, u64>,
    /// Wall-clock profile tree (`evop_obs::ProfileReport::to_json`), when
    /// the benchmark runs under a profiler.
    pub profile: Option<Value>,
    /// Folded flamegraph stacks for the same profile (artifact material —
    /// written next to the suite document by `--out`, not embedded in it).
    pub folded: Option<String>,
}

impl BenchRun {
    /// The JSON object stored under `benchmarks.<name>`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, m) in &self.metrics {
            metrics.insert(
                (*name).to_owned(),
                json!({
                    "value": m.value,
                    "unit": m.unit,
                    "direction": m.direction.as_str(),
                    "gated": m.gated,
                }),
            );
        }
        let work: Map<String, Value> =
            self.work.iter().map(|(k, v)| ((*k).to_owned(), json!(v))).collect();
        let mut doc = Map::new();
        doc.insert("reps_secs".to_owned(), json!(self.reps_secs));
        doc.insert("metrics".to_owned(), Value::Object(metrics));
        doc.insert("work".to_owned(), Value::Object(work));
        if let Some(profile) = &self.profile {
            doc.insert("profile".to_owned(), profile.clone());
        }
        Value::Object(doc)
    }
}

/// Median of a non-empty slice (sorted copy; midpoint average for even N).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Fastest rep — the statistic behind every gated throughput metric.
///
/// On a contended machine, scheduler noise only ever *adds* time, so the
/// minimum over N reps is far more stable than the median and is what
/// the regression gate compares (the `timeit` convention).
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty — the suite always records at least one rep.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.len().is_multiple_of(2) && (q - 0.5).abs() < 1e-12 {
        let hi = sorted.len() / 2;
        return (sorted[hi - 1] + sorted[hi]) / 2.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn wall_latency_metrics(reps_secs: &[f64], metrics: &mut BTreeMap<&'static str, Metric>) {
    metrics.insert(
        "p50_wall_ms",
        Metric {
            value: median(reps_secs) * 1e3,
            unit: "ms",
            direction: Direction::LowerIsBetter,
            gated: false,
        },
    );
    metrics.insert(
        "p99_wall_ms",
        Metric {
            value: quantile(reps_secs, 0.99) * 1e3,
            unit: "ms",
            direction: Direction::LowerIsBetter,
            gated: false,
        },
    );
}

/// Sim suite: schedule 100k randomly-timed events, cancel a deterministic
/// slice, drain the rest — the kernel's schedule/cancel/deliver hot path.
pub fn bench_event_loop(seed: u64, reps: usize) -> BenchRun {
    let mut reps_secs = Vec::with_capacity(reps);
    let mut counters = evop_sim::KernelCounters::default();
    // One untimed warmup rep, then `reps` timed ones.
    for rep in 0..=reps {
        let (secs, c) = time(|| {
            let mut rng = SimRng::new(seed);
            let mut queue = EventQueue::new();
            for i in 0..EVENT_LOOP_EVENTS as u64 {
                queue.push(SimTime::from_secs_f64(rng.uniform() * 3_600.0), i);
            }
            queue.cancel_where(|&i| i % 16 == 0);
            let mut checksum = 0u64;
            while let Some((_, event)) = queue.pop() {
                checksum = checksum.wrapping_add(event);
            }
            std::hint::black_box(checksum);
            queue.counters()
        });
        if rep > 0 {
            reps_secs.push(secs);
        }
        counters = c;
    }

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "events_per_sec",
        Metric {
            value: EVENT_LOOP_EVENTS as f64 / best(&reps_secs),
            unit: "events/s",
            direction: Direction::HigherIsBetter,
            gated: true,
        },
    );
    wall_latency_metrics(&reps_secs, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("events_scheduled", counters.scheduled);
    work.insert("events_delivered", counters.delivered);
    work.insert("events_cancelled", counters.cancelled);
    work.insert("queue_depth_high_water", counters.depth_high_water as u64);

    BenchRun { name: "event_loop", reps_secs, metrics, work, profile: None, folded: None }
}

/// The queue-scaling workload at one size on the ladder queue: push `n`
/// uniformly-timed events, cancel every 16th, drain the rest.
fn ladder_workload(seed: u64, n: usize) -> f64 {
    let (secs, checksum) = time(|| {
        let mut rng = SimRng::new(seed);
        let mut queue = EventQueue::new();
        for i in 0..n as u64 {
            queue.push(SimTime::from_secs_f64(rng.uniform() * 3_600.0), i);
        }
        queue.cancel_where(|&i| i % 16 == 0);
        let mut checksum = 0u64;
        while let Some((_, event)) = queue.pop() {
            checksum = checksum.wrapping_add(event);
        }
        checksum
    });
    std::hint::black_box(checksum);
    secs
}

/// The identical workload on the seed's binary heap — the reference both
/// the differential tests and the speedup claim are measured against.
fn heap_workload(seed: u64, n: usize) -> f64 {
    let (secs, checksum) = time(|| {
        let mut rng = SimRng::new(seed);
        let mut queue = HeapQueue::new();
        for i in 0..n as u64 {
            queue.push(SimTime::from_secs_f64(rng.uniform() * 3_600.0), i);
        }
        queue.cancel_where(|&i| i % 16 == 0);
        let mut checksum = 0u64;
        while let Some((_, event)) = queue.pop() {
            checksum = checksum.wrapping_add(event);
        }
        checksum
    });
    std::hint::black_box(checksum);
    secs
}

/// Sim suite: the ladder queue versus the reference heap at 10⁵, 10⁶ and
/// 10⁷ events. The ladder cells are gated; the heap cells are recorded
/// ungated so the speedup is a number in the baseline, not a claim in a
/// doc comment.
pub fn bench_queue_scaling(seed: u64, reps: usize) -> BenchRun {
    const SCALES: [(usize, &str, &str, &str); 3] = [
        (100_000, "ladder_100k_events_per_sec", "heap_100k_events_per_sec", "speedup_100k"),
        (1_000_000, "ladder_1m_events_per_sec", "heap_1m_events_per_sec", "speedup_1m"),
        (10_000_000, "ladder_10m_events_per_sec", "heap_10m_events_per_sec", "speedup_10m"),
    ];
    let mut metrics = BTreeMap::new();
    let mut work = BTreeMap::new();
    let mut reps_secs = Vec::new();
    for (n, ladder_name, heap_name, speedup_name) in SCALES {
        // The 10⁷ cell is capped at two reps: one run already averages over
        // tens of millions of queue ops, and best-of-N needs contrast, not
        // volume.
        let scale_reps = if n >= 10_000_000 { reps.min(2) } else { reps };
        let mut ladder = Vec::with_capacity(scale_reps);
        let mut heap = Vec::with_capacity(scale_reps);
        for rep in 0..=scale_reps {
            let w = ladder_workload(seed, n);
            let h = heap_workload(seed, n);
            if rep > 0 {
                ladder.push(w);
                heap.push(h);
            }
        }
        metrics.insert(
            ladder_name,
            Metric {
                value: n as f64 / best(&ladder),
                unit: "events/s",
                direction: Direction::HigherIsBetter,
                gated: true,
            },
        );
        metrics.insert(
            heap_name,
            Metric {
                value: n as f64 / best(&heap),
                unit: "events/s",
                direction: Direction::HigherIsBetter,
                gated: false,
            },
        );
        metrics.insert(
            speedup_name,
            Metric {
                value: best(&heap) / best(&ladder),
                unit: "x",
                direction: Direction::HigherIsBetter,
                gated: false,
            },
        );
        if n == 1_000_000 {
            reps_secs = ladder.clone();
        }
    }
    wall_latency_metrics(&reps_secs, &mut metrics);
    // One deterministic workload shape for every scale: n scheduled,
    // n/16 cancelled, the rest delivered.
    work.insert("events_per_scale_cancelled_div", 16);
    work.insert("scales", SCALES.len() as u64);

    BenchRun { name: "queue_scaling", reps_secs, metrics, work, profile: None, folded: None }
}

/// Ticks in the batch-drain benchmark.
const BATCH_TICKS: usize = 2_000;
/// Events per tick in the batch-drain benchmark.
const BATCH_PER_TICK: usize = 500;

/// Sim suite: whole-tick batch delivery versus one `pop_due` per event on
/// a workload of 2 000 ticks × 500 same-instant events — the cloud/broker
/// control-loop shape. The batched cell is gated.
pub fn bench_batch_drain(seed: u64, reps: usize) -> BenchRun {
    let fill = |rng: &mut SimRng| {
        let mut queue = EventQueue::new();
        for tick in 0..BATCH_TICKS as u64 {
            let t = SimTime::from_millis(tick * 1_000 + rng.index(3) as u64);
            for i in 0..BATCH_PER_TICK as u64 {
                queue.push(t, tick * BATCH_PER_TICK as u64 + i);
            }
        }
        queue
    };
    let horizon = SimTime::from_millis(BATCH_TICKS as u64 * 1_000 + 10);
    let total = (BATCH_TICKS * BATCH_PER_TICK) as u64;

    let mut batched = Vec::with_capacity(reps);
    let mut single = Vec::with_capacity(reps);
    let mut max_batch = 0u64;
    for rep in 0..=reps {
        let mut rng = SimRng::new(seed);
        let mut queue = fill(&mut rng);
        let (b_secs, checksum) = time(|| {
            let mut buf = Vec::new();
            let mut checksum = 0u64;
            loop {
                buf.clear();
                if queue.pop_batch_due(horizon, &mut buf) == 0 {
                    break;
                }
                for &(_, event) in &buf {
                    checksum = checksum.wrapping_add(event);
                }
            }
            checksum
        });
        std::hint::black_box(checksum);
        max_batch = queue.counters().max_same_tick_batch;

        let mut rng = SimRng::new(seed);
        let mut queue = fill(&mut rng);
        let (s_secs, checksum) = time(|| {
            let mut checksum = 0u64;
            while let Some((_, event)) = queue.pop_due(horizon) {
                checksum = checksum.wrapping_add(event);
            }
            checksum
        });
        std::hint::black_box(checksum);
        if rep > 0 {
            batched.push(b_secs);
            single.push(s_secs);
        }
    }

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "batched_events_per_sec",
        Metric {
            value: total as f64 / best(&batched),
            unit: "events/s",
            direction: Direction::HigherIsBetter,
            gated: true,
        },
    );
    metrics.insert(
        "single_pop_events_per_sec",
        Metric {
            value: total as f64 / best(&single),
            unit: "events/s",
            direction: Direction::HigherIsBetter,
            gated: false,
        },
    );
    metrics.insert(
        "batch_speedup",
        Metric {
            value: best(&single) / best(&batched),
            unit: "x",
            direction: Direction::HigherIsBetter,
            gated: false,
        },
    );
    wall_latency_metrics(&batched, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("events_delivered", total);
    work.insert("max_same_tick_batch", max_batch);

    BenchRun { name: "batch_drain", reps_secs: batched, metrics, work, profile: None, folded: None }
}

/// Sim suite: 200k-draw Monte Carlo calibration over a cheap 4-dimensional
/// objective — the `evop-models` sampling hot path.
pub fn bench_monte_carlo(seed: u64, reps: usize) -> BenchRun {
    let space = ParamSpace::from_ranges(&[
        ("a", 0.0, 1.0),
        ("b", -1.0, 1.0),
        ("c", 0.5, 2.0),
        ("d", 0.0, 10.0),
    ]);
    let mut reps_secs = Vec::with_capacity(reps);
    let mut evaluations = 0;
    let mut allocations = 0;
    for rep in 0..=reps {
        let (secs, result) = time(|| {
            monte_carlo(&space, MONTE_CARLO_SAMPLES, seed, |p| {
                let sphere: f64 = p.iter().map(|x| x * x).sum();
                (p[0] * 12.0).sin().mul_add(0.1, -sphere)
            })
        });
        if rep > 0 {
            reps_secs.push(secs);
        }
        evaluations = result.evaluations();
        allocations = result.allocations();
        std::hint::black_box(result.best_score());
    }

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "mc_runs_per_sec",
        Metric {
            value: MONTE_CARLO_SAMPLES as f64 / best(&reps_secs),
            unit: "runs/s",
            direction: Direction::HigherIsBetter,
            gated: true,
        },
    );
    wall_latency_metrics(&reps_secs, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("mc_evaluations", evaluations);
    work.insert("mc_allocations", allocations);

    BenchRun { name: "monte_carlo", reps_secs, metrics, work, profile: None, folded: None }
}

/// Sim suite: the same 200k-draw calibration through the seed-split
/// parallel plane (`par_monte_carlo`, chunked sub-streams, one worker per
/// core). Throughput is recorded **ungated** — it scales with the host's
/// core count, so gating it would make the baseline machine-dependent —
/// but the work counters are exact: the parallel plane must do precisely
/// the same amount of work regardless of scheduling.
pub fn bench_monte_carlo_par(seed: u64, reps: usize) -> BenchRun {
    let space = ParamSpace::from_ranges(&[
        ("a", 0.0, 1.0),
        ("b", -1.0, 1.0),
        ("c", 0.5, 2.0),
        ("d", 0.0, 10.0),
    ]);
    let mut reps_secs = Vec::with_capacity(reps);
    let mut evaluations = 0;
    let mut allocations = 0;
    for rep in 0..=reps {
        let (secs, result) = time(|| {
            par_monte_carlo(&space, MONTE_CARLO_SAMPLES, seed, |p| {
                let sphere: f64 = p.iter().map(|x| x * x).sum();
                (p[0] * 12.0).sin().mul_add(0.1, -sphere)
            })
        });
        if rep > 0 {
            reps_secs.push(secs);
        }
        evaluations = result.evaluations();
        allocations = result.allocations();
        std::hint::black_box(result.best_score());
    }

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "mc_par_runs_per_sec",
        Metric {
            value: MONTE_CARLO_SAMPLES as f64 / best(&reps_secs),
            unit: "runs/s",
            direction: Direction::HigherIsBetter,
            gated: false,
        },
    );
    wall_latency_metrics(&reps_secs, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("mc_evaluations", evaluations);
    work.insert("mc_allocations", allocations);

    BenchRun { name: "monte_carlo_par", reps_secs, metrics, work, profile: None, folded: None }
}

/// E2E suite: the full E1 portal request (observatory build → broker →
/// instance boot → model run → WPS collect), profiled per stage.
pub fn bench_e1(seed: u64, reps: usize) -> BenchRun {
    let prof = Profiler::new();
    let mut reps_secs = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..=reps {
        let (secs, result) = time(|| e1_dataflow_profiled(seed, &prof));
        if rep > 0 {
            reps_secs.push(secs);
        }
        last = Some(result);
    }
    let result = last.expect("at least one rep").expect("e1 runs");
    let report = prof.report();

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "requests_per_sec",
        Metric {
            value: 1.0 / best(&reps_secs),
            unit: "req/s",
            direction: Direction::HigherIsBetter,
            gated: true,
        },
    );
    wall_latency_metrics(&reps_secs, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("push_updates", result.push_updates as u64);
    work.insert("activation_wait_virtual_ms", duration_ms(result.activation_wait));
    work.insert("job_latency_virtual_ms", duration_ms(result.job_latency));

    BenchRun {
        name: "e1_portal_request",
        reps_secs,
        metrics,
        work,
        profile: Some(report.to_json()),
        folded: Some(report.folded()),
    }
}

/// E2E suite: the E6 flash crowd, cold vs warm pool, profiled per phase.
pub fn bench_e6(seed: u64, reps: usize) -> BenchRun {
    let prof = Profiler::new();
    let mut reps_secs = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..=reps {
        let (secs, result) = time(|| e6_flash_crowd_profiled(E6_CROWD, E6_WARM_POOL, seed, &prof));
        if rep > 0 {
            reps_secs.push(secs);
        }
        last = Some(result);
    }
    let result = last.expect("at least one rep").expect("e6 runs");
    let report = prof.report();

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "crowds_per_sec",
        Metric {
            value: 1.0 / best(&reps_secs),
            unit: "crowds/s",
            direction: Direction::HigherIsBetter,
            gated: true,
        },
    );
    wall_latency_metrics(&reps_secs, &mut metrics);

    let mut work = BTreeMap::new();
    work.insert("crowd", result.crowd as u64);
    work.insert(
        "cold_median_first_result_virtual_ms",
        duration_ms(result.cold.median_first_result),
    );
    work.insert(
        "warm_median_first_result_virtual_ms",
        duration_ms(result.warm.median_first_result),
    );

    BenchRun {
        name: "e6_flash_crowd",
        reps_secs,
        metrics,
        work,
        profile: Some(report.to_json()),
        folded: Some(report.folded()),
    }
}

fn duration_ms(d: evop_sim::SimDuration) -> u64 {
    (d.as_secs_f64() * 1e3).round() as u64
}

/// Runs the `sim` suite: event-loop microbench, queue scaling (ladder vs
/// heap), whole-tick batch drain, and Monte Carlo calibration (sequential
/// and seed-split parallel).
pub fn run_sim_suite(seed: u64, reps: usize) -> Vec<BenchRun> {
    vec![
        bench_event_loop(seed, reps),
        bench_queue_scaling(seed, reps),
        bench_batch_drain(seed, reps),
        bench_monte_carlo(seed, reps),
        bench_monte_carlo_par(seed, reps),
    ]
}

/// Runs the `e2e` suite: E1 portal request + E6 flash crowd.
pub fn run_e2e_suite(seed: u64, reps: usize) -> Vec<BenchRun> {
    vec![bench_e1(seed, reps), bench_e6(seed, reps)]
}

/// The environment stamp embedded in every suite document so a baseline
/// is interpretable later ("what machine produced these numbers?").
pub fn env_stamp() -> Value {
    json!({
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "debug_assertions": cfg!(debug_assertions),
        "harness_version": env!("CARGO_PKG_VERSION"),
    })
}

/// Assembles the suite document written to `BENCH_<suite>.json`.
pub fn suite_doc(suite: &str, seed: u64, reps: usize, runs: &[BenchRun]) -> Value {
    let mut benchmarks = Map::new();
    for run in runs {
        benchmarks.insert(run.name.to_owned(), run.to_json());
    }
    json!({
        "report": "perf-baseline",
        "suite": suite,
        "seed": seed,
        "reps": reps,
        "env": env_stamp(),
        "benchmarks": Value::Object(benchmarks),
    })
}

/// One gate failure: which metric, by how much.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFinding {
    /// Benchmark name.
    pub benchmark: String,
    /// Metric or work-counter name.
    pub metric: String,
    /// What the finding means, rendered for the CI log.
    pub message: String,
}

/// The gate's verdict over one baseline/fresh document pair.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Gated metrics compared.
    pub gated_checked: usize,
    /// Deterministic work counters compared.
    pub work_checked: usize,
    /// Everything that failed; empty means the gate passes.
    pub failures: Vec<GateFinding>,
}

impl GateReport {
    /// `true` when no gated metric regressed and no work counter drifted.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the verdict for the CI log.
    pub fn render(&self) -> String {
        let mut out = format!(
            "perf gate: {} gated metric(s), {} work counter(s) checked — {}\n",
            self.gated_checked,
            self.work_checked,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        for f in &self.failures {
            out.push_str(&format!("  FAIL {}.{}: {}\n", f.benchmark, f.metric, f.message));
        }
        out
    }
}

fn doc_benchmarks(doc: &Value, which: &str) -> Result<Map<String, Value>, String> {
    if doc.get("report").and_then(Value::as_str) != Some("perf-baseline") {
        return Err(format!("{which} document is not a perf-baseline report"));
    }
    doc.get("benchmarks")
        .and_then(Value::as_object)
        .cloned()
        .ok_or_else(|| format!("{which} document has no benchmarks object"))
}

/// The regression gate: compares a fresh suite document against the
/// committed baseline. Pure — no I/O, no clock — so the “slowing a gated
/// metric by >20% fails” behaviour is unit-testable with synthetic docs.
///
/// * Every **gated** metric in the baseline must exist in the fresh run
///   and must not be worse than `tolerance` (relative, direction-aware).
/// * Every **work** counter must match exactly: these are deterministic
///   functions of the workload, so any drift means the workload changed
///   and the baselines must be regenerated with `--update-baseline`.
///
/// # Errors
///
/// Returns `Err` when either document is structurally not a perf-baseline
/// report (wrong `report` tag, missing `benchmarks`).
pub fn check_doc(baseline: &Value, fresh: &Value, tolerance: f64) -> Result<GateReport, String> {
    let base_benches = doc_benchmarks(baseline, "baseline")?;
    let fresh_benches = doc_benchmarks(fresh, "fresh")?;
    let mut report = GateReport::default();

    for (bench_name, base_bench) in &base_benches {
        let Some(fresh_bench) = fresh_benches.get(bench_name) else {
            report.failures.push(GateFinding {
                benchmark: bench_name.clone(),
                metric: "<suite>".to_owned(),
                message: "benchmark present in baseline but missing from fresh run".to_owned(),
            });
            continue;
        };

        let base_metrics =
            base_bench.get("metrics").and_then(Value::as_object).cloned().unwrap_or_default();
        for (metric_name, base_metric) in &base_metrics {
            if base_metric.get("gated").and_then(Value::as_bool) != Some(true) {
                continue;
            }
            report.gated_checked += 1;
            let (Some(base_value), Some(direction)) = (
                base_metric.get("value").and_then(Value::as_f64),
                base_metric.get("direction").and_then(Value::as_str).and_then(Direction::parse),
            ) else {
                report.failures.push(GateFinding {
                    benchmark: bench_name.clone(),
                    metric: metric_name.clone(),
                    message: "baseline metric is malformed (no value/direction)".to_owned(),
                });
                continue;
            };
            let Some(fresh_value) = fresh_bench
                .get("metrics")
                .and_then(|m| m.get(metric_name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
            else {
                report.failures.push(GateFinding {
                    benchmark: bench_name.clone(),
                    metric: metric_name.clone(),
                    message: "gated metric missing from fresh run".to_owned(),
                });
                continue;
            };
            let change = (fresh_value - base_value) / base_value;
            let regressed = match direction {
                Direction::HigherIsBetter => change < -tolerance,
                Direction::LowerIsBetter => change > tolerance,
            };
            if regressed {
                report.failures.push(GateFinding {
                    benchmark: bench_name.clone(),
                    metric: metric_name.clone(),
                    message: format!(
                        "regressed {:+.1}% (baseline {base_value:.3}, fresh {fresh_value:.3}, tolerance ±{:.0}%)",
                        change * 100.0,
                        tolerance * 100.0
                    ),
                });
            }
        }

        let base_work =
            base_bench.get("work").and_then(Value::as_object).cloned().unwrap_or_default();
        for (counter, base_value) in &base_work {
            report.work_checked += 1;
            let fresh_value =
                fresh_bench.get("work").and_then(|w| w.get(counter)).and_then(Value::as_u64);
            if fresh_value != base_value.as_u64() {
                report.failures.push(GateFinding {
                    benchmark: bench_name.clone(),
                    metric: counter.clone(),
                    message: format!(
                        "deterministic work counter drifted (baseline {base_value}, fresh {}) — the workload changed; regenerate baselines with --update-baseline",
                        fresh_value.map_or("missing".to_owned(), |v| v.to_string()),
                    ),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(events_per_sec: f64, p99_ms: f64, scheduled: u64) -> Value {
        json!({
            "report": "perf-baseline",
            "suite": "sim",
            "benchmarks": {
                "event_loop": {
                    "metrics": {
                        "events_per_sec": {
                            "value": events_per_sec,
                            "unit": "events/s",
                            "direction": "higher_is_better",
                            "gated": true,
                        },
                        "p99_wall_ms": {
                            "value": p99_ms,
                            "unit": "ms",
                            "direction": "lower_is_better",
                            "gated": false,
                        },
                    },
                    "work": { "events_scheduled": scheduled },
                }
            }
        })
    }

    #[test]
    fn identical_docs_pass() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let report = check_doc(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.gated_checked, 1);
        assert_eq!(report.work_checked, 1);
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        // 25% throughput drop on a gated higher-is-better metric.
        let fresh = doc(750_000.0, 3.0, 100_000);
        let report = check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].metric, "events_per_sec");
        assert!(report.failures[0].message.contains("-25.0%"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = doc(900_000.0, 3.0, 100_000); // only 10% down
        assert!(check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn improvement_always_passes() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = doc(2_000_000.0, 3.0, 100_000);
        assert!(check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn ungated_metric_regression_is_ignored() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = doc(1_000_000.0, 300.0, 100_000); // p99 100× worse, ungated
        assert!(check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn lower_is_better_metrics_gate_in_the_other_direction() {
        let latency_doc = |ms: f64| {
            json!({
                "report": "perf-baseline",
                "benchmarks": { "b": { "metrics": { "lat_ms": {
                    "value": ms, "unit": "ms", "direction": "lower_is_better", "gated": true,
                }}, "work": {} } }
            })
        };
        let base = latency_doc(10.0);
        // +30% latency regresses; +10% and an improvement both pass.
        assert!(!check_doc(&base, &latency_doc(13.0), DEFAULT_TOLERANCE).unwrap().passed());
        assert!(check_doc(&base, &latency_doc(11.0), DEFAULT_TOLERANCE).unwrap().passed());
        assert!(check_doc(&base, &latency_doc(5.0), DEFAULT_TOLERANCE).unwrap().passed());
    }

    #[test]
    fn tolerance_override_is_honoured() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = doc(650_000.0, 3.0, 100_000); // 35% down
        assert!(!check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap().passed());
        assert!(check_doc(&base, &fresh, 0.5).unwrap().passed());
    }

    #[test]
    fn work_counter_drift_fails_with_regenerate_hint() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = doc(1_000_000.0, 3.0, 99_999);
        let report = check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].message.contains("--update-baseline"));
    }

    #[test]
    fn missing_benchmark_fails() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        let fresh = json!({ "report": "perf-baseline", "benchmarks": {} });
        let report = check_doc(&base, &fresh, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].message.contains("missing from fresh run"));
    }

    #[test]
    fn non_baseline_documents_are_rejected() {
        let base = doc(1_000_000.0, 3.0, 100_000);
        assert!(check_doc(&json!({"report": "slo"}), &base, 0.2).is_err());
        assert!(check_doc(&base, &json!({"report": "perf-baseline"}), 0.2).is_err());
    }

    #[test]
    fn median_and_quantile_are_sane() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert_eq!(quantile(&[5.0], 0.5), 5.0);
    }

    #[test]
    fn event_loop_work_counters_are_deterministic() {
        let run = bench_event_loop(7, 1);
        assert_eq!(run.work["events_scheduled"], EVENT_LOOP_EVENTS as u64);
        assert_eq!(run.work["events_cancelled"], EVENT_LOOP_EVENTS as u64 / 16);
        assert_eq!(
            run.work["events_delivered"],
            EVENT_LOOP_EVENTS as u64 - EVENT_LOOP_EVENTS as u64 / 16
        );
        assert!(run.metrics["events_per_sec"].gated);
        // Same seed, same counters — what the exact gate comparison relies on.
        assert_eq!(bench_event_loop(7, 1).work, run.work);
    }

    #[test]
    fn suite_doc_has_the_gate_contract_shape() {
        let runs = vec![bench_event_loop(7, 1)];
        let doc = suite_doc("sim", 7, 1, &runs);
        assert_eq!(doc["report"], "perf-baseline");
        assert_eq!(doc["suite"], "sim");
        assert!(doc["env"]["os"].is_string());
        assert!(doc["benchmarks"]["event_loop"]["metrics"]["events_per_sec"]["gated"]
            .as_bool()
            .unwrap());
        // A freshly generated doc always passes against itself.
        assert!(check_doc(&doc, &doc, DEFAULT_TOLERANCE).unwrap().passed());
    }
}
