//! The tsdb/tail-sampling replay: a multi-day diurnal portal soak.
//!
//! The paper's engagement argument (§V) is a *load-shape* argument: a
//! hydrology portal sees a daily rhythm of staff and student sessions,
//! punctuated by flash crowds when a flood warning circulates. This
//! harness replays that shape against the broker for several virtual
//! days — a diurnal submit cadence per session, a flash crowd joining at
//! noon on day two, and an `ApiErrorBurst` chaos window striking in the
//! middle of the crowd — while the telemetry-at-scale plane watches:
//!
//! * every registry tick is ingested into an embedded [`Tsdb`], so the
//!   run ends with forecast-ready hourly rollups of the submission rate
//!   and boot-latency quantiles;
//! * every portal request opens a `portal.request` root trace, and a
//!   [`TailSampler`] decides after the fact which traces to keep:
//!   errored and SLO-burning ones always, healthy traffic one-in-N;
//! * a per-user counter family exercises the cardinality governor — the
//!   flash crowd blows the family budget and collapses into the
//!   overflow aggregate rather than growing the store.
//!
//! Everything runs in virtual time from one seed, so the digest JSON
//! (and the full snapshot it hashes) is byte-identical across runs —
//! the `report tsdb` golden pins it.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use evop_broker::{Broker, BrokerConfig, BrokerError, SessionId};
use evop_chaos::{ChaosEngine, FaultKind, FaultSchedule};
use evop_obs::{
    burn_windows, prometheus_rollup_text, AlertEngine, AlertRecord, AlertSeverity, Resolution,
    SamplePolicy, SloSpec, TailSampler, TraceId, Tsdb, TsdbConfig,
};
use evop_sim::{SimDuration, SimTime};
use serde_json::{json, Value};

use crate::cli::CliOptions;
use crate::scenario::{Report, DEFAULT_SEED};

/// Seconds per virtual day.
const DAY_SECS: u64 = 24 * 3600;

/// Submit interval per session in seconds, indexed by virtual hour of
/// day: quiet nights, a morning ramp, a noon peak, an evening tail. All
/// integers — the diurnal shape must never touch floating-point
/// trigonometry, or the goldens stop being byte-stable across targets.
pub const DIURNAL_INTERVAL_SECS: [u64; 24] = [
    3600, 3600, 3600, 3600, 2400, 1800, // small hours
    1200, 900, 600, 450, 360, 300, // morning ramp
    300, 300, 360, 450, 600, 900, // afternoon decay
    1200, 1200, 1800, 2400, 3600, 3600, // evening
];

/// The per-user request counter family the governor is sized against.
pub const PORTAL_REQUESTS: &str = "portal_requests_total";

/// Everything that shapes one diurnal replay.
#[derive(Debug, Clone)]
pub struct DiurnalConfig {
    /// Seed driving broker, chaos engine and sampler.
    pub seed: u64,
    /// Virtual days to soak.
    pub days: u64,
    /// Resident sessions following the diurnal cadence.
    pub sessions: usize,
    /// Flash-crowd sessions joining at noon on day two.
    pub crowd_sessions: usize,
    /// Broker configuration (the control-loop interval is the tick).
    pub broker: BrokerConfig,
    /// Rollup store configuration.
    pub tsdb: TsdbConfig,
    /// Tail-sampling policy.
    pub sampler: SamplePolicy,
}

impl Default for DiurnalConfig {
    fn default() -> DiurnalConfig {
        let mut family_budgets = BTreeMap::new();
        // Sized for the residents with a little headroom; the flash
        // crowd must overflow, demonstrating the governor.
        family_budgets.insert(PORTAL_REQUESTS.to_owned(), 16);
        DiurnalConfig {
            seed: 42,
            days: 2,
            sessions: 12,
            crowd_sessions: 24,
            broker: BrokerConfig {
                check_interval: SimDuration::from_secs(30),
                ..BrokerConfig::default()
            },
            tsdb: TsdbConfig { family_budgets, ..TsdbConfig::default() },
            sampler: SamplePolicy {
                grace: SimDuration::from_secs(120),
                healthy_one_in: 20,
                latency_threshold: SimDuration::from_secs(240),
                max_retained_spans: 6144,
            },
        }
    }
}

impl DiurnalConfig {
    /// When the flash crowd arrives: noon on the final day.
    pub fn crowd_start(&self) -> SimTime {
        SimTime::from_secs(self.days.saturating_sub(1) * DAY_SECS + 12 * 3600)
    }

    /// When the flash crowd leaves again: two hours later.
    pub fn crowd_end(&self) -> SimTime {
        self.crowd_start() + SimDuration::from_secs(2 * 3600)
    }

    /// The chaos schedule: an API error burst on both providers opening
    /// thirty minutes into the flash crowd and lasting forty minutes.
    pub fn schedule(&self) -> FaultSchedule {
        let start = self.crowd_start().as_millis() / 1000 + 1800;
        let mut schedule = FaultSchedule::named("tsdb-diurnal");
        for provider in ["campus", "aws"] {
            schedule = schedule.window(
                start,
                2400,
                FaultKind::ApiErrorBurst { provider: provider.to_owned(), error_rate: 0.9 },
            );
        }
        schedule
    }
}

/// The availability SLO judging the soak: submissions answered `ok`
/// against a 90 % target on a 1800 s/300 s window pair at 2× burn.
fn availability_slo() -> SloSpec {
    SloSpec::availability(
        "broker-availability",
        0.9,
        "broker_submit_total",
        &[("outcome", "ok")],
        "broker_submit_total",
    )
    .window(1800, 300, 2.0, AlertSeverity::Page)
}

/// Ground truth for one portal request, kept outside the observability
/// plane so acceptance checks do not trust the thing they are testing.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The `portal.request` root trace.
    pub trace_id: TraceId,
    /// Submission time, virtual milliseconds.
    pub at_ms: u64,
    /// `ok`, `transient` or `hard` — mirrors `broker_submit_total`.
    pub outcome: &'static str,
}

/// How the tail sampler fared against ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptanceSummary {
    /// Requests that did not come back `ok`.
    pub errored_total: usize,
    /// Errored requests whose trace the sampler retained.
    pub errored_retained: usize,
    /// Requests submitted inside an SLO burn window.
    pub burning_total: usize,
    /// Burn-window requests whose trace the sampler retained.
    pub burning_retained: usize,
}

/// Everything one diurnal replay measured.
#[derive(Debug)]
pub struct DiurnalOutcome {
    /// The configuration that drove the run.
    pub config: DiurnalConfig,
    /// Every portal request, in submission order.
    pub requests: Vec<RequestRecord>,
    /// The alert log.
    pub alerts: Vec<AlertRecord>,
    /// Merged SLO burn intervals, `(fired_ms, resolved_ms)`.
    pub burn: Vec<(u64, u64)>,
    /// Faults the chaos engine fired.
    pub faults_fired: usize,
    /// The rollup store, sealed.
    pub tsdb: Tsdb,
    /// The tail sampler, flushed.
    pub sampler: TailSampler,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, the digest's stand-in for the multi-MB
/// snapshot: byte-identical snapshots, identical hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One session's place in the cadence.
struct Cadence {
    session: SessionId,
    user: String,
    next_submit: SimTime,
}

/// Runs one diurnal replay.
pub fn run_diurnal(config: &DiurnalConfig) -> DiurnalOutcome {
    let engine = ChaosEngine::new(config.schedule(), config.seed);
    let mut broker = Broker::new(config.broker.clone(), config.seed);
    engine.set_tracer(broker.tracer().clone());
    broker.set_fault_injector(Some(Box::new(engine.clone())));
    let mut alert_engine = AlertEngine::new(broker.metrics().clone());
    alert_engine.add_slo(availability_slo());
    let mut tsdb = Tsdb::new(config.tsdb.clone());
    let mut sampler = TailSampler::new(config.sampler.clone(), config.seed);

    let mut roster: Vec<Cadence> = (0..config.sessions)
        .map(|i| {
            let user = format!("user-{i:02}");
            let session =
                broker.connect(&user, "topmodel").expect("default library serves topmodel");
            // Stagger first submissions a minute apart so the roster
            // never thunders in one tick.
            Cadence { session, user, next_submit: SimTime::from_secs(60 * (i as u64 + 1)) }
        })
        .collect();

    let end = SimTime::from_secs(config.days * DAY_SECS);
    let step = config.broker.check_interval;
    let crowd_start = config.crowd_start();
    let crowd_end = config.crowd_end();
    let mut crowd: Vec<usize> = Vec::new();
    let mut crowd_joined = false;
    let mut crowd_left = false;
    let mut requests: Vec<RequestRecord> = Vec::new();
    let mut request_no: u64 = 0;

    while broker.now() < end {
        broker.advance(step);
        let now = broker.now();
        alert_engine.tick(now);

        if !crowd_joined && now >= crowd_start {
            crowd_joined = true;
            for i in 0..config.crowd_sessions {
                let user = format!("crowd-{i:02}");
                if let Ok(session) = broker.connect(&user, "topmodel") {
                    crowd.push(roster.len());
                    roster.push(Cadence {
                        session,
                        user,
                        next_submit: now + SimDuration::from_secs(30 * (i as u64 + 1)),
                    });
                }
            }
        }
        if crowd_joined && !crowd_left && now >= crowd_end {
            crowd_left = true;
            for &idx in &crowd {
                let _ = broker.disconnect(roster[idx].session);
                // Park the cadence past the end of the run.
                roster[idx].next_submit = end + SimDuration::from_secs(1);
            }
        }

        let hour = (now.as_millis() / 1000 / 3600) % 24;
        let interval = SimDuration::from_secs(DIURNAL_INTERVAL_SECS[hour as usize]);
        for cadence in roster.iter_mut() {
            while cadence.next_submit <= now {
                cadence.next_submit += interval;
                request_no += 1;
                let work = SimDuration::from_secs(
                    20 + splitmix64(config.seed ^ request_no.wrapping_mul(0x2545_f491_4f6c_dd1d))
                        % 41,
                );
                let span = broker.tracer().start_trace("portal.request");
                span.attr("user", &cadence.user);
                let trace_id = span.trace_id();
                let ctx = span.context();
                let outcome = match broker.run_model_with_context(cadence.session, work, Some(&ctx))
                {
                    Ok(_) => "ok",
                    Err(BrokerError::TransientlyUnavailable { .. }) => "transient",
                    Err(_) => "hard",
                };
                span.attr("outcome", outcome);
                span.finish();
                broker.metrics().inc_counter(PORTAL_REQUESTS, &[("user", cadence.user.as_str())]);
                requests.push(RequestRecord { trace_id, at_ms: now.as_millis(), outcome });
            }
        }

        // Flush the registry into the rollup store once this tick's
        // submissions are counted, then let the sampler decide traces
        // against the burn intervals known so far. An alert always fires
        // before any trace overlapping it is decided (decisions wait out
        // the grace period), so the growing window list never
        // misclassifies a finished trace.
        tsdb.ingest_registry(broker.metrics(), now);
        let windows = burn_windows(alert_engine.alerts());
        sampler.tick(broker.tracer(), now, &windows);
    }

    let windows = burn_windows(alert_engine.alerts());
    sampler.flush(broker.tracer(), broker.now(), &windows);
    tsdb.finish(broker.now());

    DiurnalOutcome {
        config: config.clone(),
        requests,
        alerts: alert_engine.alerts().to_vec(),
        burn: windows,
        faults_fired: engine.events().len(),
        tsdb,
        sampler,
    }
}

impl DiurnalOutcome {
    /// FNV-1a of the full tsdb snapshot, as 16 hex digits.
    pub fn snapshot_fnv(&self) -> String {
        format!("{:016x}", fnv1a(self.tsdb.snapshot_string().as_bytes()))
    }

    /// The sampler's verdicts joined to ground truth.
    pub fn acceptance(&self) -> AcceptanceSummary {
        let retained: BTreeSet<TraceId> = self.sampler.retained_ids().into_iter().collect();
        let mut summary = AcceptanceSummary::default();
        for req in &self.requests {
            if req.outcome != "ok" {
                summary.errored_total += 1;
                if retained.contains(&req.trace_id) {
                    summary.errored_retained += 1;
                }
            }
            if self.burn.iter().any(|&(lo, hi)| req.at_ms >= lo && req.at_ms < hi) {
                summary.burning_total += 1;
                if retained.contains(&req.trace_id) {
                    summary.burning_retained += 1;
                }
            }
        }
        summary
    }

    /// Where range queries stop. The final tick lands exactly on the
    /// run-end boundary, and a boundary sample opens a *new* window — so
    /// queries reach one raw interval past the end to include that
    /// sliver, keeping hourly totals conservative.
    fn query_end(&self) -> SimTime {
        SimTime::from_secs(self.config.days * DAY_SECS) + self.config.tsdb.raw_interval
    }

    /// Hourly rollup of one counter family: `(window_start_ms, sum)`.
    fn hourly_sums(&self, name: &str) -> Vec<(u64, f64)> {
        self.tsdb
            .family_range(name, Resolution::Hour, SimTime::ZERO, self.query_end())
            .into_iter()
            .map(|p| (p.start_ms, p.sum))
            .collect()
    }

    /// The canonical JSON the golden test pins: request tallies, the
    /// alert log, forecast-ready hourly series, governor and sampler
    /// counters, and the snapshot hash standing in for the full store.
    pub fn to_json(&self) -> Value {
        let mut by_outcome: BTreeMap<&str, usize> = BTreeMap::new();
        for req in &self.requests {
            *by_outcome.entry(req.outcome).or_insert(0) += 1;
        }
        let end = self.query_end();
        let ok_hourly: Vec<Value> = self
            .tsdb
            .range(
                "broker_submit_total",
                &[("outcome", "ok")],
                Resolution::Hour,
                SimTime::ZERO,
                end,
            )
            .into_iter()
            .map(|p| json!({"start_ms": p.start_ms, "sum": p.sum}))
            .collect();
        let boot_p99_hourly: Vec<Value> = self
            .tsdb
            .family_range("cloud_boot_seconds", Resolution::Hour, SimTime::ZERO, end)
            .into_iter()
            .map(|p| json!({"start_ms": p.start_ms, "p99": p.quantile(0.99)}))
            .collect();
        let acceptance = self.acceptance();
        json!({
            "bench": "tsdb_report",
            "seed": self.config.seed,
            "days": self.config.days,
            "sessions": self.config.sessions,
            "crowd_sessions": self.config.crowd_sessions,
            "faults_fired": self.faults_fired,
            "requests": {
                "attempts": self.requests.len(),
                "ok": by_outcome.get("ok").copied().unwrap_or(0),
                "transient": by_outcome.get("transient").copied().unwrap_or(0),
                "hard": by_outcome.get("hard").copied().unwrap_or(0),
            },
            "alerts": self.alerts.iter().map(AlertRecord::to_json).collect::<Vec<Value>>(),
            "burn_windows": self.burn.iter().map(|&(lo, hi)| json!([lo, hi])).collect::<Vec<Value>>(),
            "forecast": {
                "submit_hourly": self.hourly_sums("broker_submit_total").into_iter()
                    .map(|(start_ms, sum)| json!({"start_ms": start_ms, "sum": sum}))
                    .collect::<Vec<Value>>(),
                "submit_ok_hourly": ok_hourly,
                "boot_p99_hourly": boot_p99_hourly,
            },
            "tsdb": {
                "series_count": self.tsdb.series_count(),
                "series_dropped": self.tsdb.series_dropped(),
                "snapshot_fnv": self.snapshot_fnv(),
            },
            "sampler": {
                "counters": self.sampler.counters().to_json(),
                "retained_traces": self.sampler.retained_ids().len(),
                "retained_spans": self.sampler.retained_spans(),
                "retained_ids": self.sampler.retained_ids().iter()
                    .map(|id| id.to_string()).collect::<Vec<String>>(),
            },
            "acceptance": {
                "errored_total": acceptance.errored_total,
                "errored_retained": acceptance.errored_retained,
                "burning_total": acceptance.burning_total,
                "burning_retained": acceptance.burning_retained,
            },
        })
    }
}

/// `report tsdb`: the diurnal soak at `--seed`, `--days` long.
pub(crate) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let mut config =
        DiurnalConfig { seed: opts.seed.unwrap_or(DEFAULT_SEED), ..DiurnalConfig::default() };
    if let Some(days) = opts.value("days") {
        match days.parse::<u64>() {
            Ok(days) if days > 0 => config.days = days,
            _ => return Err(format!("--days takes a positive integer, got {days:?}")),
        }
    }
    Ok(Box::new(run_diurnal(&config)))
}

impl Report for DiurnalOutcome {
    fn json(&self) -> Value {
        self.to_json()
    }

    /// The full rollup snapshot, the retained-trace set and one
    /// Prometheus exposition per resolution.
    fn artifacts(&self) -> Vec<(String, String)> {
        let seed = self.config.seed;
        vec![
            (format!("tsdb-{seed}.snapshot.json"), self.tsdb.snapshot_string()),
            (format!("tsdb-{seed}.retained.json"), self.sampler.to_json().to_string()),
            (
                format!("tsdb-{seed}.minute.prom"),
                prometheus_rollup_text(&self.tsdb, Resolution::Minute),
            ),
            (
                format!("tsdb-{seed}.hour.prom"),
                prometheus_rollup_text(&self.tsdb, Resolution::Hour),
            ),
        ]
    }

    fn print_tables(&self) {
        let doc = self.to_json();
        println!(
            "tsdb_report — seed {} — {} day(s), {} resident + {} crowd sessions",
            self.config.seed, self.config.days, self.config.sessions, self.config.crowd_sessions,
        );
        println!(
            "requests: {} attempts ({} ok, {} transient, {} hard), {} faults fired",
            doc["requests"]["attempts"],
            doc["requests"]["ok"],
            doc["requests"]["transient"],
            doc["requests"]["hard"],
            self.faults_fired,
        );
        println!(
            "tsdb: {} series ({} label-sets collapsed), snapshot fnv {}",
            self.tsdb.series_count(),
            self.tsdb.series_dropped(),
            self.snapshot_fnv(),
        );
        let counters = self.sampler.counters();
        println!(
            "sampler: {} traces decided, {} retained ({} spans), {} discarded",
            counters.decided,
            self.sampler.retained_ids().len(),
            self.sampler.retained_spans(),
            counters.discarded,
        );
        let acceptance = self.acceptance();
        println!(
            "acceptance: errored {}/{} retained, burning {}/{} retained",
            acceptance.errored_retained,
            acceptance.errored_total,
            acceptance.burning_retained,
            acceptance.burning_total,
        );
        println!("\nhourly submissions (sum per hour window):");
        if let Some(points) = doc["forecast"]["submit_hourly"].as_array() {
            for point in points {
                let hour = point["start_ms"].as_u64().unwrap_or(0) / 3_600_000;
                let sum = point["sum"].as_f64().unwrap_or(0.0);
                let bar = "#".repeat((sum / 5.0).min(60.0) as usize);
                println!("  h{hour:>3}  {sum:>7.0}  {bar}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DiurnalConfig {
        DiurnalConfig { days: 1, sessions: 4, crowd_sessions: 6, ..DiurnalConfig::default() }
    }

    #[test]
    fn diurnal_cadence_peaks_at_noon() {
        assert!(DIURNAL_INTERVAL_SECS[12] < DIURNAL_INTERVAL_SECS[0]);
        assert!(DIURNAL_INTERVAL_SECS[12] <= *DIURNAL_INTERVAL_SECS.iter().min().unwrap());
    }

    #[test]
    fn replay_is_deterministic_for_one_seed() {
        let config = small_config();
        let a = run_diurnal(&config);
        let b = run_diurnal(&config);
        assert_eq!(a.tsdb.snapshot_string(), b.tsdb.snapshot_string());
        assert_eq!(a.sampler.retained_ids(), b.sampler.retained_ids());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn errored_and_burning_requests_are_always_retained() {
        let outcome = run_diurnal(&small_config());
        let acceptance = outcome.acceptance();
        assert!(acceptance.errored_total > 0, "the chaos burst must produce errors");
        assert_eq!(acceptance.errored_retained, acceptance.errored_total);
        assert!(acceptance.burning_total > 0, "the availability SLO must burn");
        assert_eq!(acceptance.burning_retained, acceptance.burning_total);
        assert!(outcome.sampler.retained_spans() <= outcome.config.sampler.max_retained_spans);
    }

    #[test]
    fn flash_crowd_overflows_the_portal_family_budget() {
        let config =
            DiurnalConfig { days: 1, sessions: 12, crowd_sessions: 24, ..DiurnalConfig::default() };
        let outcome = run_diurnal(&config);
        assert!(outcome.tsdb.series_dropped() > 0, "the crowd must overflow the family budget");
        // The family total survives the collapse: every submission is
        // counted exactly once across admitted series plus overflow.
        let total: f64 = outcome.hourly_sums(PORTAL_REQUESTS).into_iter().map(|(_, sum)| sum).sum();
        assert_eq!(total as usize, outcome.requests.len());
    }
}
