//! E8 — the "national media event": a sharded federation serving a
//! country-scale flash crowd.
//!
//! The paper's closing argument (§VI) is that cloud elasticity is what
//! lets a small environmental-science group survive sudden public
//! attention — a model output cited on the evening news, a flood
//! warning going viral. E8 replays exactly that day against the
//! [`Federation`](evop_shard::Federation): a diurnal arrival curve of
//! simulated members of the public, with flash crowds at breakfast
//! (×2), a sustained national media event over the noon hours (×6) and
//! an evening-news spike (×3). Every user connects through a
//! replicated front-end, is placed on a broker shard by the balancer
//! under test, and asks the platform one or two questions — most of
//! them *the same* question during the flash hours, which is what the
//! shared cache/singleflight tier is for.
//!
//! Mid-crowd, chaos kills one shard outright. The acceptance story is
//! the PR-3 requeue path at federation scale: every displaced session
//! rebinds (none are lost), displaced users see `transient` retry
//! hints that burn the availability SLO until the paced drain
//! finishes, and the page both fires and resolves.
//!
//! The harness runs one cell per [`Policy`] so the three balancers are
//! directly comparable on one day of identical load. Time is
//! compressed — one 60 s control tick per simulated minute, compact
//! per-session state — which is what makes the `--full` national run
//! (~1M users over 8 shards) tractable on a laptop. The default config
//! is the reduced CI scale the golden pins.

use std::collections::BTreeMap;

use evop_broker::{BrokerConfig, BrokerError};
use evop_cache::{CacheConfig, CacheKey};
use evop_obs::{
    burn_windows, AlertEngine, AlertKind, AlertRecord, AlertSeverity, SloSpec, Tsdb, TsdbConfig,
};
use evop_shard::{
    splitmix64, FedSessionId, Federation, FederationConfig, FederationError, Policy,
    RequestOutcome, ShardId,
};
use evop_sim::SimDuration;
use serde_json::{json, Value};

use crate::cli::CliOptions;
use crate::scenario::{render_json, Report};

/// Seconds per control tick — the federation heartbeat.
pub const TICK_SECS: u64 = 60;

/// Ticks in one simulated diurnal day.
pub const TICKS_PER_DAY: usize = 1440;

/// Relative arrival weight per hour of day: quiet nights, a morning
/// ramp, a broad daytime plateau, an evening tail. All integers — the
/// arrival curve must never touch floating point, or the goldens stop
/// being byte-stable across targets.
pub const HOURLY_ARRIVALS: [u64; 24] = [
    1, 1, 1, 1, 2, 3, // small hours
    5, 8, 10, 12, 14, 16, // morning ramp
    16, 16, 14, 12, 10, 8, // afternoon decay
    5, 5, 3, 2, 1, 1, // evening
];

/// Flash-crowd multiplier per hour: the breakfast bulletin, the
/// national media event over the noon hours, the evening news.
#[must_use]
pub fn flash_multiplier(hour: usize) -> u64 {
    match hour {
        8 => 2,
        12..=14 => 6,
        19 => 3,
        _ => 1,
    }
}

/// The named broadcast driving each flash hour, if any. During an
/// event most of the crowd asks the *same* question — the one the
/// broadcast posed — which is what makes the shared tier earn its keep.
#[must_use]
pub fn flash_event(hour: usize) -> Option<&'static str> {
    match hour {
        8 => Some("breakfast-bulletin"),
        12..=14 => Some("national-media-event"),
        19 => Some("evening-news"),
        _ => None,
    }
}

/// Everything that shapes one E8 replay.
#[derive(Debug, Clone)]
pub struct MediaEventConfig {
    /// Seed driving arrivals, dwell times, keys and every shard broker.
    pub seed: u64,
    /// Simulated members of the public arriving over the day.
    pub users: u64,
    /// Distinct local catchments the non-event questions spread over.
    pub catchments: u64,
    /// The federation under test (shards, front-ends, pacing, cache).
    pub federation: FederationConfig,
    /// Which policies to run, one cell each.
    pub policies: Vec<Policy>,
    /// Tick at which chaos kills a shard (`None` for a quiet day).
    pub kill_at_tick: Option<usize>,
    /// Which shard dies.
    pub kill_shard: u16,
}

impl Default for MediaEventConfig {
    /// The reduced CI scale the golden pins: 20 000 users over four
    /// shards, two front-ends, a kill at 12:40 in the middle of the
    /// media event.
    fn default() -> MediaEventConfig {
        MediaEventConfig {
            seed: 42,
            users: 20_000,
            catchments: 512,
            federation: FederationConfig {
                shards: 4,
                front_ends: 2,
                drain_denominator: 16,
                rebind_floor: 8,
                shard: BrokerConfig {
                    instance_type: "m1.large".to_owned(),
                    sessions_per_vcpu: 16,
                    private_capacity_vcpus: 16,
                    check_interval: SimDuration::from_secs(TICK_SECS),
                    warm_pool_size: 1,
                    scale_up_headroom_slots: 16,
                    scale_down_surplus_slots: 96,
                    ..BrokerConfig::default()
                },
                cache: CacheConfig { l1_capacity: 2048, ..CacheConfig::default() },
                ..FederationConfig::default()
            },
            policies: Policy::all().to_vec(),
            kill_at_tick: Some(760), // 12:40 — the heart of the media event
            kill_shard: 1,
        }
    }
}

impl MediaEventConfig {
    /// The national scale the tentpole claims: ~1M users over eight
    /// shards and four front-ends, compact sessions throughout.
    #[must_use]
    pub fn national() -> MediaEventConfig {
        MediaEventConfig {
            users: 1_000_000,
            catchments: 4096,
            federation: FederationConfig {
                shards: 8,
                front_ends: 4,
                drain_denominator: 16,
                rebind_floor: 8,
                shard: BrokerConfig {
                    instance_type: "m1.xlarge".to_owned(),
                    sessions_per_vcpu: 64,
                    private_capacity_vcpus: 128,
                    check_interval: SimDuration::from_secs(TICK_SECS),
                    warm_pool_size: 2,
                    scale_up_headroom_slots: 256,
                    scale_down_surplus_slots: 1024,
                    ..BrokerConfig::default()
                },
                cache: CacheConfig { l1_capacity: 8192, ..CacheConfig::default() },
                ..FederationConfig::default()
            },
            ..MediaEventConfig::default()
        }
    }

    /// Per-tick arrival weights (hourly weight × flash multiplier).
    fn tick_weights(&self) -> Vec<u64> {
        (0..TICKS_PER_DAY)
            .map(|t| {
                let hour = t / 60;
                HOURLY_ARRIVALS[hour % 24] * flash_multiplier(hour)
            })
            .collect()
    }
}

/// The availability SLO judging the federation as one plane:
/// submissions answered `ok` against a 90 % target on a 1800 s/300 s
/// window pair at 2× burn. Displaced sessions answer `transient`
/// during the drain, so a shard kill burns this budget.
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

/// One scheduled question from one user.
#[derive(Debug, Clone, Copy)]
struct Ask {
    session: FedSessionId,
    user: u64,
}

/// Everything one policy cell measured.
#[derive(Debug)]
pub struct CellOutcome {
    /// The policy this cell ran.
    pub policy: Policy,
    /// Sessions opened over the day.
    pub connected: u64,
    /// Sessions closed by departure.
    pub closed: u64,
    /// Sessions still live at midnight (must be zero).
    pub live_end: usize,
    /// Rebind queue length at midnight (must be zero).
    pub pending_end: usize,
    /// Sessions the shard kill displaced.
    pub displaced: usize,
    /// Successful re-homes after displacement.
    pub rebinds: u64,
    /// Placements parked for lack of capacity (then retried).
    pub parked: u64,
    /// Request outcomes: `hit`, `leader`, `follower`, `transient`,
    /// `hard`, `late`.
    pub requests: BTreeMap<&'static str, u64>,
    /// Model runs that completed and fanned out into the cache.
    pub flights_completed: u64,
    /// Flights aborted by the shard kill.
    pub flights_aborted: u64,
    /// Flights whose followers spanned more than one front-end.
    pub cross_front_end: u64,
    /// Rolling placement digest (16 hex digits) and placement count.
    pub placement_digest: String,
    /// Total balancer placements folded into the digest.
    pub placements: u64,
    /// Peak concurrent sessions per shard.
    pub peak_live: Vec<usize>,
    /// Peak concurrent sessions federation-wide.
    pub peak_total: usize,
    /// The alert log.
    pub alerts: Vec<AlertRecord>,
    /// Merged SLO burn intervals, `(fired_ms, resolved_ms)`.
    pub burn: Vec<(u64, u64)>,
    /// Shared cache statistics.
    pub cache: Value,
    /// Cloud spend across every shard, in currency units.
    pub total_cost: f64,
    /// The rollup store, sealed.
    pub tsdb: Tsdb,
    /// Spans drained from the shared tracer over the day.
    pub spans_drained: u64,
}

impl CellOutcome {
    /// Sessions that vanished without being closed (must be zero).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.connected - self.closed - self.live_end as u64
    }

    /// `true` once the availability page fired.
    #[must_use]
    pub fn alert_fired(&self) -> bool {
        self.alerts.iter().any(|a| a.kind == AlertKind::Fired)
    }

    /// `true` when every fired page also resolved.
    #[must_use]
    pub fn alert_resolved(&self) -> bool {
        let fired = self.alerts.iter().filter(|a| a.kind == AlertKind::Fired).count();
        let resolved = self.alerts.iter().filter(|a| a.kind == AlertKind::Resolved).count();
        fired > 0 && fired == resolved
    }

    /// FNV-1a of the full tsdb snapshot, as 16 hex digits.
    #[must_use]
    pub fn snapshot_fnv(&self) -> String {
        format!("{:016x}", evop_shard::fnv1a(self.tsdb.snapshot_string().as_bytes()))
    }

    /// The canonical JSON for one cell of the digest.
    #[must_use]
    pub fn to_json(&self, config: &MediaEventConfig) -> Value {
        let kill = config.kill_at_tick.map_or(Value::Null, |tick| {
            json!({
                "tick": tick,
                "at_ms": (tick as u64 + 1) * TICK_SECS * 1000,
                "shard": format!("shard-{}", config.kill_shard),
                "displaced": self.displaced,
            })
        });
        json!({
            "policy": self.policy.label(),
            "sessions": {
                "connected": self.connected,
                "closed": self.closed,
                "lost": self.lost(),
                "live_end": self.live_end,
                "pending_end": self.pending_end,
                "rebinds": self.rebinds,
                "parked": self.parked,
                "peak_total": self.peak_total,
                "peak_per_shard": self.peak_live,
            },
            "placement": {
                "digest": self.placement_digest,
                "count": self.placements,
            },
            "requests": self.requests.iter().map(|(&k, &v)| (k.to_owned(), json!(v)))
                .collect::<serde_json::Map<String, Value>>(),
            "flights": {
                "completed": self.flights_completed,
                "aborted": self.flights_aborted,
                "cross_front_end": self.cross_front_end,
            },
            "kill": kill,
            "alerts": self.alerts.iter().map(AlertRecord::to_json).collect::<Vec<Value>>(),
            "burn_windows": self.burn.iter().map(|&(lo, hi)| json!([lo, hi]))
                .collect::<Vec<Value>>(),
            "availability": {
                "fired": self.alert_fired(),
                "resolved": self.alert_resolved(),
            },
            "cache": self.cache,
            "total_cost": self.total_cost,
            "tsdb": {
                "series_count": self.tsdb.series_count(),
                "snapshot_fnv": self.snapshot_fnv(),
            },
            "spans_drained": self.spans_drained,
        })
    }
}

/// The whole E8 replay: one cell per policy over identical load.
#[derive(Debug)]
pub struct MediaEventOutcome {
    /// The configuration that drove the run.
    pub config: MediaEventConfig,
    /// One outcome per policy, in [`MediaEventConfig::policies`] order.
    pub cells: Vec<CellOutcome>,
}

impl MediaEventOutcome {
    /// The cell for `policy`, if it ran.
    #[must_use]
    pub fn cell(&self, policy: Policy) -> Option<&CellOutcome> {
        self.cells.iter().find(|c| c.policy == policy)
    }

    /// The canonical JSON digest the golden test pins.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "bench": "e8_report",
            "seed": self.config.seed,
            "users": self.config.users,
            "catchments": self.config.catchments,
            "shards": self.config.federation.shards,
            "front_ends": self.config.federation.front_ends,
            "ticks": TICKS_PER_DAY,
            "tick_secs": TICK_SECS,
            "cells": self.cells.iter().map(|c| c.to_json(&self.config)).collect::<Vec<Value>>(),
        })
    }
}

/// The question user `u` asks at tick `t`. During a flash hour, seven
/// in ten users ask the broadcast's question — one shared key per event
/// and hour, served once and fanned out (the coalescer absorbs that
/// stampede by design). Everyone else asks about their own catchment's
/// hourly window, with a per-catchment phase so the windows do *not*
/// all roll at the hour boundary: without the stagger, every catchment
/// key expires in the same tick and the synchronized re-run stampede
/// swamps the instances' job queues at national scale.
fn request_key(config: &MediaEventConfig, t: usize, user: u64) -> CacheKey {
    let hour = t / 60;
    let r = splitmix64(config.seed ^ user.wrapping_mul(0xd1b5_4a32_d192_ed03));
    if let Some(event) = flash_event(hour) {
        if r % 10 < 7 {
            return CacheKey::new(
                "topmodel",
                "national",
                1,
                &json!({ "event": event, "hour": hour }),
            );
        }
    }
    let catchment = r % config.catchments.max(1);
    let phase =
        (splitmix64(config.seed ^ catchment.wrapping_mul(0x517c_c1b7_2722_0a95)) % 60) as usize;
    let window = (t + phase) / 60;
    let catchment = format!("catchment-{catchment:04}");
    CacheKey::new("topmodel", &catchment, 1, &json!({ "window": window }))
}

/// Runs one policy cell: the full diurnal day, the kill, the drain.
#[allow(clippy::too_many_lines)]
#[must_use]
pub fn run_cell(config: &MediaEventConfig, policy: Policy) -> CellOutcome {
    let mut fed = Federation::try_new(config.federation.clone(), config.seed, policy)
        .expect("E8 federation config is valid");
    let mut alert_engine = AlertEngine::new(fed.metrics().clone());
    alert_engine.add_slo(availability_slo());
    let mut tsdb = Tsdb::new(TsdbConfig::default());

    let weights = config.tick_weights();
    let total_weight: u64 = weights.iter().sum();
    // Tick-indexed schedule buckets; index TICKS_PER_DAY catches
    // everything clamped past midnight.
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
        fed.advance(step);
        let now = fed.now();
        alert_engine.tick(now);

        if !killed && config.kill_at_tick == Some(t) {
            displaced = fed.kill_shard(ShardId::new(config.kill_shard));
            killed = true;
        }

        // Arrivals: integer prefix-sum of the diurnal curve, so every
        // user arrives exactly once and the shape is float-free.
        cum_weight += weights[t];
        let due = config.users * cum_weight / total_weight;
        while spawned < due {
            let u = spawned;
            spawned += 1;
            let user = format!("u{u}");
            let Ok(session) = fed.connect(&user, "topmodel") else {
                continue; // all shards down — nothing to schedule
            };
            let r = splitmix64(config.seed ^ u.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let dwell = 5 + (r % 26) as usize; // minutes on the portal
            departures[(t + dwell).min(TICKS_PER_DAY)].push(session);
            // First question two ticks in (the control loop binds the
            // session meanwhile); often a follow-up mid-dwell.
            asks[(t + 2).min(TICKS_PER_DAY)].push(Ask { session, user: u });
            if r >> 33 & 1 == 1 && dwell > 4 {
                let follow_up = t + 3 + ((r >> 40) as usize % (dwell - 3));
                asks[follow_up.min(TICKS_PER_DAY)].push(Ask { session, user: u });
            }
        }

        // Questions due this tick; transient answers retry next tick,
        // which is what lets a shard kill burn the SLO until the
        // displaced sessions are re-homed.
        for ask in std::mem::take(&mut asks[t]) {
            let key = request_key(config, t, ask.user);
            let work = SimDuration::from_secs(
                60 + splitmix64(config.seed ^ ask.user.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 120,
            );
            let fe = (ask.user % front_ends) as usize;
            let tally = match fed.request(fe, ask.session, &key, work) {
                Ok(RequestOutcome::Hit(_)) => "hit",
                Ok(RequestOutcome::Leader { .. }) => "leader",
                Ok(RequestOutcome::Follower { .. }) => "follower",
                Err(
                    FederationError::SessionRebinding { .. }
                    | FederationError::Broker(BrokerError::TransientlyUnavailable { .. }),
                ) => {
                    asks[t + 1].push(ask);
                    "transient"
                }
                Err(FederationError::UnknownSession(_)) => "late",
                Err(_) => "hard",
            };
            *requests.entry(tally).or_insert(0) += 1;
        }

        for session in std::mem::take(&mut departures[t]) {
            let _ = fed.disconnect(session);
        }

        let mut total_live = 0;
        for (i, peak) in peak_live.iter_mut().enumerate() {
            let live = fed.live_on(ShardId::new(i as u16));
            total_live += live;
            *peak = (*peak).max(live);
        }
        peak_total = peak_total.max(total_live);

        tsdb.ingest_registry(fed.metrics(), now);
        spans_drained += fed.tracer().drain_finished_before(now).len() as u64;
    }

    // Midnight: everyone still dwelling logs off, and a short epilogue
    // of quiet ticks drains any rebinds still queued so the day ends
    // with the plane settled and the page resolved.
    for session in std::mem::take(&mut departures[TICKS_PER_DAY]) {
        let _ = fed.disconnect(session);
    }
    let mut epilogue = 0;
    while (fed.pending_rebinds() > 0 || fed.flights_in_progress() > 0) && epilogue < 120 {
        fed.advance(step);
        alert_engine.tick(fed.now());
        tsdb.ingest_registry(fed.metrics(), fed.now());
        spans_drained += fed.tracer().drain_finished_before(fed.now()).len() as u64;
        epilogue += 1;
    }
    tsdb.finish(fed.now());

    let alerts = alert_engine.alerts().to_vec();
    let burn = burn_windows(&alerts);
    CellOutcome {
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
    }
}

/// Runs the whole E8 replay: one cell per configured policy.
#[must_use]
pub fn run_media_event(config: &MediaEventConfig) -> MediaEventOutcome {
    let cells = config.policies.iter().map(|&p| run_cell(config, p)).collect();
    MediaEventOutcome { config: config.clone(), cells }
}

/// `report e8`: the CI-scale day (or `--full` national scale) at
/// `--seed`, every policy or only `--cell NAME`.
pub(crate) fn report(opts: &CliOptions) -> Result<Box<dyn Report>, String> {
    let mut config = if opts.switch("full") {
        MediaEventConfig::national()
    } else {
        MediaEventConfig::default()
    };
    config.seed = opts.seed.unwrap_or(config.seed);
    if let Some(cell) = opts.value("cell") {
        let Some(policy) = Policy::all().into_iter().find(|p| p.label() == cell) else {
            return Err(format!(
                "unknown cell {cell:?}; expected one of: {}",
                Policy::all().map(Policy::label).join(", ")
            ));
        };
        config.policies = vec![policy];
    }
    Ok(Box::new(run_media_event(&config)))
}

impl Report for MediaEventOutcome {
    fn json(&self) -> Value {
        self.to_json()
    }

    /// The digest plus one full tsdb snapshot per policy cell.
    fn artifacts(&self) -> Vec<(String, String)> {
        let seed = self.config.seed;
        let mut files = vec![(format!("e8-{seed}.digest.json"), render_json(&self.to_json()))];
        for cell in &self.cells {
            files.push((
                format!("e8-{seed}.{}.snapshot.json", cell.policy.label()),
                cell.tsdb.snapshot_string(),
            ));
        }
        files
    }

    fn print_tables(&self) {
        let config = &self.config;
        println!(
            "e8_report — seed {} — {} users over {} shards / {} front-ends, kill at tick {:?}",
            config.seed,
            config.users,
            config.federation.shards,
            config.federation.front_ends,
            config.kill_at_tick,
        );
        for cell in &self.cells {
            println!("\n[{}]", cell.policy.label());
            println!(
                "  sessions: {} connected, {} closed, {} lost, peak {} live ({} displaced, {} rebinds, {} parked)",
                cell.connected,
                cell.closed,
                cell.lost(),
                cell.peak_total,
                cell.displaced,
                cell.rebinds,
                cell.parked,
            );
            println!(
                "  requests: {} hit / {} leader / {} follower / {} transient / {} late",
                cell.requests["hit"],
                cell.requests["leader"],
                cell.requests["follower"],
                cell.requests["transient"],
                cell.requests["late"],
            );
            println!(
                "  flights:  {} completed, {} aborted, {} cross-front-end",
                cell.flights_completed, cell.flights_aborted, cell.cross_front_end,
            );
            println!(
                "  slo:      page fired {} / resolved {}, {} burn window(s)",
                cell.alert_fired(),
                cell.alert_resolved(),
                cell.burn.len(),
            );
            println!(
                "  placement: digest {} over {} placements; cost {:.2}; peaks {:?}",
                cell.placement_digest, cell.placements, cell.total_cost, cell.peak_live,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small config for the behavioural tests — big enough for the
    /// kill to displace sessions mid-crowd, small enough for debug CI.
    /// The rebind pacing is slowed to match: with only ~30 displaced
    /// sessions the outage must still span the SLO's long window, or
    /// the fire/resolve assertions would need the full golden scale.
    fn small_config() -> MediaEventConfig {
        let mut config = MediaEventConfig {
            users: 2000,
            policies: vec![Policy::ConsistentHash],
            ..MediaEventConfig::default()
        };
        config.federation.drain_denominator = 64;
        config.federation.rebind_floor = 1;
        config
    }

    #[test]
    fn arrival_curve_peaks_during_the_media_event() {
        let weights = MediaEventConfig::default().tick_weights();
        let noon = weights[12 * 60];
        assert_eq!(noon, *weights.iter().max().unwrap());
        assert!(noon > weights[3 * 60] * 50, "the event dwarfs the small hours");
    }

    #[test]
    fn every_user_arrives_exactly_once() {
        let config = small_config();
        let weights = config.tick_weights();
        let total: u64 = weights.iter().sum();
        let mut cum = 0;
        let mut last = 0;
        for w in &weights {
            cum += w;
            let due = config.users * cum / total;
            assert!(due >= last);
            last = due;
        }
        assert_eq!(last, config.users, "the prefix sum must land exactly on the user count");
    }

    #[test]
    fn kill_mid_crowd_loses_no_sessions_and_pages() {
        let cell = run_cell(&small_config(), Policy::ConsistentHash);
        assert!(cell.displaced > 0, "the kill must displace live sessions");
        assert_eq!(cell.lost(), 0, "every displaced session must rebind or log off");
        assert_eq!(cell.live_end, 0, "midnight finds the portal empty");
        assert_eq!(cell.pending_end, 0, "the rebind queue must drain");
        assert!(cell.rebinds > 0, "displaced sessions must re-home");
        assert!(cell.alert_fired(), "the availability page must fire during the drain");
        assert!(cell.alert_resolved(), "and resolve once the plane settles");
        assert!(cell.requests["transient"] > 0, "displaced users see retry hints");
    }

    #[test]
    fn flash_crowd_coalesces_across_front_ends() {
        let cell = run_cell(&small_config(), Policy::ConsistentHash);
        assert!(cell.cross_front_end > 0, "the broadcast question must span front-ends");
        assert!(
            cell.requests["hit"] > cell.requests["leader"],
            "the shared tier must answer most of the crowd from cache"
        );
    }

    #[test]
    fn same_seed_cells_are_byte_identical() {
        let config = small_config();
        let a = run_cell(&config, Policy::ConsistentHash);
        let b = run_cell(&config, Policy::ConsistentHash);
        assert_eq!(a.placement_digest, b.placement_digest);
        assert_eq!(a.snapshot_fnv(), b.snapshot_fnv());
        assert_eq!(
            a.to_json(&config).to_string(),
            b.to_json(&config).to_string(),
            "the digest must be deterministic for one seed"
        );
    }

    #[test]
    fn all_three_policies_complete_the_day() {
        let config = MediaEventConfig { users: 600, catchments: 32, ..MediaEventConfig::default() };
        let outcome = run_media_event(&config);
        assert_eq!(outcome.cells.len(), 3);
        for cell in &outcome.cells {
            assert_eq!(cell.lost(), 0, "{}: no session may be lost", cell.policy.label());
            assert_eq!(cell.connected, config.users, "{}", cell.policy.label());
        }
    }
}
