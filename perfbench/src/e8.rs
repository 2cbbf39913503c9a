//! The E8 workloads: the national-media-event day driven tick by tick
//! against `evop_shard::Federation` as fast as the host allows (a closed
//! loop: one driver, each call waits for the one before).
//!
//! The day is the one `e8_report` replays — same arrivals, dwell times,
//! questions, kill and epilogue — so at seed 42 the `e8_day` outcome is
//! byte-identical to the committed golden. Unlike `e8_report`, the
//! driver builds every user name and cache key before the clock starts,
//! so time spent making inputs is not charged to the program.

use std::collections::BTreeMap;

use evop_bench::e8::{
    flash_event, flash_multiplier, CellOutcome, MediaEventConfig, MediaEventOutcome,
    HOURLY_ARRIVALS, TICKS_PER_DAY, TICK_SECS,
};
use evop_broker::BrokerError;
use evop_cache::CacheKey;
use evop_obs::{burn_windows, AlertEngine, AlertSeverity, SloSpec, Tsdb, TsdbConfig};
use evop_shard::{
    splitmix64, FedSessionId, Federation, FederationError, Policy, RequestOutcome, ShardId,
};
use evop_sim::SimDuration;
use serde_json::json;

use crate::stats::{median, percentile, sorted};
use crate::trace::{Clock, Layer, Recorder};
use crate::Report;

/// What `e8_report --seed 42 --json` prints for the golden day.
const GOLDEN: &str = include_str!("../../crates/bench/golden/e8_media_event_seed42.json");

/// Federation builds per cell; `setup_s` counts their median.
const SETUP_BUILDS: usize = 5;

/// The least share of the traced run that the root spans must cover.
const COVER_MIN: f64 = 0.99;

/// Users in the `e8_national` slice: the national federation and
/// question spread, with the crowd cut so one day takes a few seconds.
/// Below about 60 000 users the instances keep up and the slice's cache
/// looks like `e8_day`'s (~58 % hits, ~6 % followers); at 80 000 the
/// flights queue, and a third of the answers are coalesced followers.
const NATIONAL_USERS: u64 = 80_000;

/// The configuration a workload name stands for.
pub fn config(workload: &str, seed: u64) -> Option<MediaEventConfig> {
    let mut config = match workload {
        "e8_day" => MediaEventConfig::default(),
        "e8_national" => MediaEventConfig {
            users: NATIONAL_USERS,
            policies: vec![Policy::ConsistentHash],
            ..MediaEventConfig::national()
        },
        _ => return None,
    };
    config.seed = seed;
    Some(config)
}

/// The availability SLO `e8_report` judges the federation by.
fn availability_slo() -> SloSpec {
    SloSpec::availability(
        "federation-availability",
        0.9,
        "broker_submit_total",
        &[("outcome", "ok")],
        "broker_submit_total",
    )
    .window(1800, 300, 2.0, AlertSeverity::Page)
}

/// Every input of one day, generated from the seed before timing.
struct Plan {
    weights: Vec<u64>,
    total_weight: u64,
    names: Vec<String>,
    /// The broadcast question per hour, for the flash hours.
    flash: Vec<Option<CacheKey>>,
    /// Per-catchment phase (minutes) of its hourly window.
    phase: Vec<usize>,
    /// Catchment question per `(catchment, window)`, row-major.
    local: Vec<CacheKey>,
    windows: usize,
}

impl Plan {
    fn new(config: &MediaEventConfig) -> Plan {
        let weights: Vec<u64> = (0..TICKS_PER_DAY)
            .map(|t| HOURLY_ARRIVALS[(t / 60) % 24] * flash_multiplier(t / 60))
            .collect();
        let flash = (0..24)
            .map(|hour| {
                flash_event(hour).map(|event| {
                    CacheKey::new(
                        "topmodel",
                        "national",
                        1,
                        &json!({ "event": event, "hour": hour }),
                    )
                })
            })
            .collect();
        let catchments = config.catchments.max(1);
        let phase: Vec<usize> = (0..catchments)
            .map(|c| {
                (splitmix64(config.seed ^ c.wrapping_mul(0x517c_c1b7_2722_0a95)) % 60) as usize
            })
            .collect();
        // Questions are asked up to the last tick; a catchment's window is
        // `(tick + phase) / 60`, at most `(TICKS_PER_DAY - 1 + 59) / 60`.
        let windows = (TICKS_PER_DAY + 58) / 60 + 1;
        let mut local = Vec::with_capacity(phase.len() * windows);
        for c in 0..catchments {
            let catchment = format!("catchment-{c:04}");
            for window in 0..windows {
                local.push(CacheKey::new("topmodel", &catchment, 1, &json!({ "window": window })));
            }
        }
        Plan {
            total_weight: weights.iter().sum(),
            weights,
            names: (0..config.users).map(|u| format!("u{u}")).collect(),
            flash,
            phase,
            local,
            windows,
        }
    }

    /// The question user `user` asks at tick `t`: during a flash hour
    /// seven in ten ask the broadcast's question, everyone else asks
    /// about their own catchment's current window.
    fn key(&self, seed: u64, catchments: u64, t: usize, user: u64) -> &CacheKey {
        let r = splitmix64(seed ^ user.wrapping_mul(0xd1b5_4a32_d192_ed03));
        if let Some(Some(key)) = self.flash.get(t / 60) {
            if r % 10 < 7 {
                return key;
            }
        }
        let catchment = (r % catchments.max(1)) as usize;
        let window = (t + self.phase[catchment]) / 60;
        &self.local[catchment * self.windows + window]
    }
}

/// One scheduled question from one user.
#[derive(Debug, Clone, Copy)]
struct Ask {
    session: FedSessionId,
    user: u64,
}

/// What one pass (one simulated day, every cell) measured. Set-up and
/// run time are process CPU time ([`Clock::cpu_ns`]); `wall_ns` is the
/// run's host time, which the spans of a traced pass are read against.
#[derive(Debug, Default)]
struct Pass {
    setup_ns: u64,
    run_ns: u64,
    wall_ns: u64,
    /// Events the shards' simulation kernels delivered.
    events: u64,
}

/// Samples of one pass: each tick's CPU time, and each request's host
/// time (a request takes a few microseconds, too short for a 0.4 µs
/// CPU-clock reading at each end).
#[derive(Debug, Default)]
struct Samples {
    tick_ns: Vec<u64>,
    request_ns: Vec<u64>,
}

/// Runs one cell of the day. Mirrors `evop_bench::e8::run_cell` call for
/// call, with a host-time sample around every tick and request and a
/// span around every call into a layer.
#[allow(clippy::too_many_lines)]
fn run_cell(
    config: &MediaEventConfig,
    policy: Policy,
    plan: &Plan,
    clock: Clock,
    rec: &mut Recorder,
    samples: &mut Samples,
    pass: &mut Pass,
) -> Result<CellOutcome, FederationError> {
    // One build takes well under a millisecond, so the cell builds its
    // system several times, keeps the last, and counts the median build.
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        let start = clock.cpu_ns();
        let fed = Federation::try_new(config.federation.clone(), config.seed, policy)?;
        let mut alert_engine = AlertEngine::new(fed.metrics().clone());
        alert_engine.add_slo(availability_slo());
        let tsdb = Tsdb::new(TsdbConfig::default());
        builds.push((clock.cpu_ns() - start) as f64);
        built = Some((fed, alert_engine, tsdb));
    }
    let Some((mut fed, mut alert_engine, mut tsdb)) = built else {
        return Err(FederationError::InvalidConfig("no build".to_owned()));
    };
    pass.setup_ns += median(&builds) as u64;
    let run_start = clock.cpu_ns();
    let wall_start = clock.ns();

    rec.new_trace();
    rec.enter(Layer::BenchCell);
    let mut asks: Vec<Vec<Ask>> = vec![Vec::new(); TICKS_PER_DAY + 1];
    let mut departures: Vec<Vec<FedSessionId>> = vec![Vec::new(); TICKS_PER_DAY + 1];
    let mut requests: BTreeMap<&'static str, u64> = BTreeMap::new();
    for outcome in ["hit", "leader", "follower", "transient", "hard", "late"] {
        requests.insert(outcome, 0);
    }
    let mut cum_weight: u64 = 0;
    let mut spawned: u64 = 0;
    let mut displaced = 0usize;
    let mut killed = false;
    let mut peak_live = vec![0usize; config.federation.shards];
    let mut peak_total = 0usize;
    let mut spans_drained: u64 = 0;
    let front_ends = config.federation.front_ends as u64;
    let step = SimDuration::from_secs(TICK_SECS);

    for t in 0..TICKS_PER_DAY {
        let tick_start = clock.cpu_ns();
        rec.new_trace();
        rec.enter(Layer::BenchTick);
        rec.enter(Layer::ShardAdvance);
        fed.advance(step);
        rec.exit(Layer::ShardAdvance);
        let now = fed.now();
        rec.enter(Layer::ObsSloTick);
        alert_engine.tick(now);
        rec.exit(Layer::ObsSloTick);

        if !killed && config.kill_at_tick == Some(t) {
            rec.enter(Layer::ShardKill);
            displaced = fed.kill_shard(ShardId::new(config.kill_shard));
            rec.exit(Layer::ShardKill);
            killed = true;
        }

        cum_weight += plan.weights[t];
        let due = config.users * cum_weight / plan.total_weight;
        while spawned < due {
            let u = spawned;
            spawned += 1;
            rec.enter(Layer::ShardConnect);
            let connected = fed.connect(&plan.names[u as usize], "topmodel");
            rec.exit(Layer::ShardConnect);
            let Ok(session) = connected else {
                continue;
            };
            let r = splitmix64(config.seed ^ u.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let dwell = 5 + (r % 26) as usize;
            departures[(t + dwell).min(TICKS_PER_DAY)].push(session);
            asks[(t + 2).min(TICKS_PER_DAY)].push(Ask { session, user: u });
            if r >> 33 & 1 == 1 && dwell > 4 {
                let follow_up = t + 3 + ((r >> 40) as usize % (dwell - 3));
                asks[follow_up.min(TICKS_PER_DAY)].push(Ask { session, user: u });
            }
        }

        for ask in std::mem::take(&mut asks[t]) {
            let key = plan.key(config.seed, config.catchments, t, ask.user);
            let work = SimDuration::from_secs(
                60 + splitmix64(config.seed ^ ask.user.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 120,
            );
            let fe = (ask.user % front_ends) as usize;
            let request_start = clock.ns();
            rec.enter(Layer::ShardRequestHit);
            let answer = fed.request(fe, ask.session, key, work);
            let (layer, tally) = match answer {
                Ok(RequestOutcome::Hit(_)) => (Layer::ShardRequestHit, "hit"),
                Ok(RequestOutcome::Leader { .. }) => (Layer::ShardRequestLeader, "leader"),
                Ok(RequestOutcome::Follower { .. }) => (Layer::ShardRequestFollower, "follower"),
                Err(
                    FederationError::SessionRebinding { .. }
                    | FederationError::Broker(BrokerError::TransientlyUnavailable { .. }),
                ) => (Layer::ShardRequestRetry, "transient"),
                Err(FederationError::UnknownSession(_)) => (Layer::ShardRequestFailed, "late"),
                Err(_) => (Layer::ShardRequestFailed, "hard"),
            };
            rec.exit(layer);
            samples.request_ns.push(clock.ns() - request_start);
            if tally == "transient" {
                asks[t + 1].push(ask);
            }
            *requests.entry(tally).or_insert(0) += 1;
        }

        for session in std::mem::take(&mut departures[t]) {
            rec.enter(Layer::ShardDisconnect);
            let _ = fed.disconnect(session);
            rec.exit(Layer::ShardDisconnect);
        }

        let mut total_live = 0;
        for (i, peak) in peak_live.iter_mut().enumerate() {
            rec.enter(Layer::ShardLiveOn);
            let live = fed.live_on(ShardId::new(i as u16));
            rec.exit(Layer::ShardLiveOn);
            total_live += live;
            *peak = (*peak).max(live);
        }
        peak_total = peak_total.max(total_live);

        rec.enter(Layer::ObsTsdbIngest);
        tsdb.ingest_registry(fed.metrics(), now);
        rec.exit(Layer::ObsTsdbIngest);
        rec.enter(Layer::ObsTracerDrain);
        spans_drained += fed.tracer().drain_finished_before(now).len() as u64;
        rec.exit(Layer::ObsTracerDrain);
        rec.exit(Layer::BenchTick);
        samples.tick_ns.push(clock.cpu_ns() - tick_start);
    }

    // Midnight: everyone still dwelling logs off, then quiet ticks drain
    // the rebinds and flights still in the air.
    for session in std::mem::take(&mut departures[TICKS_PER_DAY]) {
        rec.enter(Layer::ShardDisconnect);
        let _ = fed.disconnect(session);
        rec.exit(Layer::ShardDisconnect);
    }
    let mut epilogue = 0;
    while (fed.pending_rebinds() > 0 || fed.flights_in_progress() > 0) && epilogue < 120 {
        let tick_start = clock.cpu_ns();
        rec.new_trace();
        rec.enter(Layer::BenchTick);
        rec.enter(Layer::ShardAdvance);
        fed.advance(step);
        rec.exit(Layer::ShardAdvance);
        rec.enter(Layer::ObsSloTick);
        alert_engine.tick(fed.now());
        rec.exit(Layer::ObsSloTick);
        rec.enter(Layer::ObsTsdbIngest);
        tsdb.ingest_registry(fed.metrics(), fed.now());
        rec.exit(Layer::ObsTsdbIngest);
        rec.enter(Layer::ObsTracerDrain);
        spans_drained += fed.tracer().drain_finished_before(fed.now()).len() as u64;
        rec.exit(Layer::ObsTracerDrain);
        rec.exit(Layer::BenchTick);
        samples.tick_ns.push(clock.cpu_ns() - tick_start);
        epilogue += 1;
    }
    rec.enter(Layer::ObsTsdbFinish);
    tsdb.finish(fed.now());
    rec.exit(Layer::ObsTsdbFinish);

    let alerts = alert_engine.alerts().to_vec();
    let burn = burn_windows(&alerts);
    let outcome = CellOutcome {
        policy,
        connected: fed.sessions_connected(),
        closed: fed.sessions_closed(),
        live_end: fed.live_sessions(),
        pending_end: fed.pending_rebinds(),
        displaced,
        rebinds: fed.rebinds_total(),
        parked: fed.parked_placements(),
        requests,
        flights_completed: fed.flights_completed(),
        flights_aborted: fed.flights_aborted(),
        cross_front_end: fed.cross_front_end_flights(),
        placement_digest: fed.placement_digest(),
        placements: fed.placements(),
        peak_live,
        peak_total,
        alerts,
        burn,
        cache: fed.cache_stats().to_json(),
        total_cost: fed.total_cost(),
        tsdb,
        spans_drained,
    };
    rec.exit(Layer::BenchCell);
    pass.wall_ns += clock.ns() - wall_start;
    pass.run_ns += clock.cpu_ns() - run_start;
    pass.events += (0..fed.shard_count())
        .filter_map(|i| fed.shard_broker(ShardId::new(i as u16)))
        .map(|b| b.kernel_counters().delivered)
        .sum::<u64>();
    Ok(outcome)
}

/// Runs `workload` for at least `seconds` of host time, one simulated
/// day (every cell) per pass. With `trace` the passes alternate
/// untraced and traced, so one process measures the tracing overhead.
pub fn run(
    config: &MediaEventConfig,
    workload: &str,
    seconds: u64,
    trace: bool,
    clock: Clock,
    rec: &mut Recorder,
) -> Report {
    let plan = Plan::new(config);
    let mut report = Report::default();
    let mut samples: Vec<Samples> = Vec::new();
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut answers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut drained: u64 = 0;
    let mut dropped: u64 = 0;
    let deadline = clock.ns() + seconds * 1_000_000_000;
    loop {
        let traced = trace && passes.len() % 2 == 1;
        let mut pass = Pass::default();
        let mut pass_samples = Samples::default();
        let mut cells = Vec::new();
        rec.set_on(traced);
        for &policy in &config.policies {
            match run_cell(config, policy, &plan, clock, rec, &mut pass_samples, &mut pass) {
                Ok(cell) => cells.push(cell),
                Err(err) => report.fail(format!("{} federation: {err}", policy.label())),
            }
        }
        rec.set_on(false);

        for cell in &cells {
            let label = cell.policy.label();
            if cell.lost() != 0 || cell.live_end != 0 || cell.pending_end != 0 {
                report.fail(format!(
                    "{label}: lost {} live_end {} pending_end {}",
                    cell.lost(),
                    cell.live_end,
                    cell.pending_end
                ));
            }
            if cell.connected != config.users {
                report.fail(format!(
                    "{label}: {} of {} users connected",
                    cell.connected, config.users
                ));
            }
            if passes.is_empty() {
                for (&answer, &count) in &cell.requests {
                    *answers.entry(answer).or_insert(0) += count;
                }
                drained += cell.spans_drained;
                dropped += cell.tsdb.series_dropped();
            }
            let requests: u64 = cell.requests.values().sum();
            report.attempted += requests;
            report.failed += cell.requests["hard"];
        }
        let outcome = MediaEventOutcome { config: config.clone(), cells };
        let text = match serde_json::to_string_pretty(&outcome.to_json()) {
            Ok(text) => format!("{text}\n"),
            Err(err) => {
                report.fail(format!("outcome does not serialize: {err}"));
                String::new()
            }
        };
        if passes.is_empty() && workload == "e8_day" && config.seed == 42 {
            if text == GOLDEN {
                report.note(
                    "check: day outcome is byte-identical to the e8_media_event_seed42 golden",
                );
            } else {
                report.fail("day outcome differs from the e8_media_event_seed42 golden".to_owned());
            }
        }
        digests.push(evop_shard::fnv1a(text.as_bytes()));
        if traced && report.spans_to_write == usize::MAX {
            report.spans_to_write = rec.len();
        }
        if !traced {
            samples.push(pass_samples);
        }
        passes.push((pass, traced));
        if clock.ns() >= deadline && (!trace || passes.len() >= 2) {
            break;
        }
    }
    digests.dedup();
    if digests.len() == 1 {
        report.note(format!(
            "check: {} passes, every cell lost no session and ended with no live or pending \
             session, outcome digest {:016x} on every pass",
            passes.len(),
            digests[0]
        ));
    } else {
        report.fail(format!("passes disagree: {} distinct outcome digests", digests.len()));
    }

    let attempts: u64 = answers.values().sum();
    let ratio = |n: u64| n as f64 / attempts.max(1) as f64;
    let errors = answers["transient"] + answers["hard"] + answers["late"];
    report.note(format!(
        "error_ratio = {} ratio (transient {}, hard {}, late {} of {attempts} request attempts per day)",
        ratio(errors),
        answers["transient"],
        answers["hard"],
        answers["late"]
    ));

    let untraced: Vec<&Pass> = passes.iter().filter(|(_, t)| !t).map(|(p, _)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(_, t)| *t).map(|(p, _)| p).collect();
    let run_s =
        |ps: &[&Pass]| median(&ps.iter().map(|p| p.run_ns as f64 / 1e9).collect::<Vec<_>>());
    if !trace {
        // p50 over every sample of the run; p99 per pass, then the median
        // over passes, so one stalled stretch of host time moves one pass.
        let ms = |ns: &[u64]| sorted(ns.iter().map(|&ns| ns as f64 / 1e6).collect());
        let pooled = |pick: fn(&Samples) -> &[u64]| {
            ms(&samples.iter().flat_map(|s| pick(s).iter().copied()).collect::<Vec<_>>())
        };
        let p99 = |pick: fn(&Samples) -> &[u64]| {
            median(&samples.iter().map(|s| percentile(&ms(pick(s)), 0.99)).collect::<Vec<_>>())
        };
        let ticks = pooled(|s| &s.tick_ns);
        let reqs = pooled(|s| &s.request_ns);
        let n = untraced.len();
        report.metric(
            "setup_s",
            median(&untraced.iter().map(|p| p.setup_ns as f64 / 1e9).collect::<Vec<_>>()),
            format!("median over {n} passes of the day's cells' median builds"),
        );
        report.metric("run_s", run_s(&untraced), format!("CPU time, median of {n} passes"));
        let wall: Vec<f64> = untraced.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
        report.note(format!("host time of a pass: median {} s over {n} passes", median(&wall)));
        report.metric("step_p50_ms", percentile(&ticks, 0.5), format!("{} ticks", ticks.len()));
        report.metric(
            "step_p99_ms",
            p99(|s| &s.tick_ns),
            format!("median over {n} passes of each pass's p99, {} ticks", ticks.len()),
        );
        report.metric("req_p50_ms", percentile(&reqs, 0.5), format!("{} requests", reqs.len()));
        report.metric(
            "req_p99_ms",
            p99(|s| &s.request_ns),
            format!("median over {n} passes of each pass's p99, {} requests", reqs.len()),
        );
        let rates: Vec<f64> =
            untraced.iter().map(|p| attempts as f64 / (p.run_ns as f64 / 1e9)).collect();
        report.metric("max_rps", median(&rates), format!("median of {n} passes, closed loop"));
        return report;
    }

    let days = traced.len() as f64;
    let table = rec.table();
    for layer in Layer::E8 {
        report.layer(layer, table.get(&layer), days, "per day");
    }
    let advance_ns = table.get(&Layer::ShardAdvance).map_or(0, |s| s.self_ns);
    let events: u64 = traced.iter().map(|p| p.events).sum();
    report.metric("sim.events_delivered", events as f64 / days, "per day".to_owned());
    report.metric(
        "sim.ns_per_event",
        advance_ns as f64 / events.max(1) as f64,
        "shard.advance time per delivered event".to_owned(),
    );
    report.metric(
        "cache.hit_ratio",
        ratio(answers["hit"]),
        "hit answers over request attempts".to_owned(),
    );
    report.metric(
        "cache.follower_ratio",
        ratio(answers["follower"]),
        "follower answers over request attempts".to_owned(),
    );
    report.metric(
        "shard.error_ratio",
        ratio(errors),
        "transient, hard and late answers over request attempts".to_owned(),
    );
    report.metric("obs.spans_drained", drained as f64, "per day".to_owned());
    report.metric("obs.tsdb_series_dropped", dropped as f64, "per day".to_owned());
    let harness_ns: u64 =
        table.iter().filter(|(l, _)| l.is_harness()).map(|(_, s)| s.self_ns).sum();
    let all_ns: u64 = table.values().map(|s| s.self_ns).sum();
    // Spans are host time, so they are held against the traced passes'
    // host time.
    let traced_run_ns: u64 = traced.iter().map(|p| p.wall_ns).sum();
    // Self times add up to the root spans' time only if every span closed
    // inside its parent: an overlap is clamped to zero self time and
    // breaks the sum. The roots (`bench.cell`) must in turn cover the
    // traced run, or layer calls were made outside any span.
    let root_ns: u64 = table.get(&Layer::BenchCell).map_or(0, |s| s.durations_ns.iter().sum());
    let cover = all_ns as f64 / traced_run_ns.max(1) as f64;
    if all_ns != root_ns || !(COVER_MIN..=1.0).contains(&cover) {
        report.fail(format!(
            "span accounting: self times sum to {all_ns} ns, root spans to {root_ns} ns, \
             {:.3}% of the traced run (at least {:.0}% required)",
            100.0 * cover,
            100.0 * COVER_MIN
        ));
    }
    report.note(format!(
        "check: layer self {:.1} ms + harness self {:.1} ms = {:.1} ms of traced run {:.1} ms ({:.3}%) over {} traced days",
        (all_ns - harness_ns) as f64 / 1e6,
        harness_ns as f64 / 1e6,
        all_ns as f64 / 1e6,
        traced_run_ns as f64 / 1e6,
        100.0 * all_ns as f64 / traced_run_ns.max(1) as f64,
        traced.len()
    ));
    report.metric("bench.harness_self_ms", harness_ns as f64 / 1e6 / days, "per day".to_owned());
    let (traced_s, untraced_s) = (run_s(&traced), run_s(&untraced));
    report.metric("bench.traced_run_s", traced_s, format!("median of {} passes", traced.len()));
    report.metric(
        "bench.untraced_run_s",
        untraced_s,
        format!("median of {} passes", untraced.len()),
    );
    report.metric(
        "bench.trace_overhead_s",
        traced_s - untraced_s,
        "traced minus untraced run_s".to_owned(),
    );
    report
}
