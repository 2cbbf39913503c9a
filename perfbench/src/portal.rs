//! The `portal_mix` workload: one observatory (all four study
//! catchments, a season of hourly archive, the L1 result cache on)
//! behind `evop_core::api::portal_api`, fed a REST mix by a
//! single-threaded open loop at a fixed offered rate. The mix is visitors
//! walking the LEFT storyboard of experiment E11 (see [`generate`]).
//!
//! Each request's service time is read on the process CPU clock, and its
//! latency from when it was due comes from those service times through
//! the FIFO recursion at the offered rate ([`stats::fifo_latencies`]), so
//! a slow request also charges the wait it imposes on the ones behind it
//! while a stall of the shared host charges nothing. The live host-time
//! latencies from due time, generator lateness and backlog are reported
//! beside them. `max_rps` replays the same service times through the
//! recursion ([`stats::fifo_max_rate`]) instead of probing rates live.
//! The traced run replays the same stream as direct calls into each
//! layer's own function on a second observatory built the same way; a
//! route's time minus its direct calls' time is the router and JSON codec
//! share.

use std::ops::Range;
use std::sync::Arc;

use evop_cache::CachePolicy;
use evop_core::api::portal_api;
use evop_core::Evop;
use evop_data::catalog::Query;
use evop_data::{BoundingBox, CatchmentId, LatLon, SensorId, Timestamp};
use evop_models::scenarios::Scenario;
use evop_portal::journey::{simulate_user, workshop_cohort, Expertise, JourneyConfig};
use evop_portal::Storyboard;
use evop_services::sos::GetObservation;
use evop_services::{Request, Router};
use evop_shard::splitmix64;
use evop_sim::SimRng;
use serde_json::{json, Map, Value};

use crate::stats::{self, median, percentile, sorted};
use crate::trace::{Clock, Layer, Recorder};
use crate::Report;

/// The fixed offered rate of the open loop, in requests per second:
/// about a third of the `max_rps` one thread of the baseline host
/// sustains on this mix, so the queue shows in the latencies without the
/// median request waiting on most of its predecessors. On an earlier mix
/// offered at 40 % of capacity, `req_p50_ms` followed the host's speed
/// swings and moved 19–30 % between ten-run sets.
pub const RATE: f64 = 400.0;

/// The latency limit `max_rps` must keep at the 99th percentile.
const LIMIT_S: f64 = 0.010;

/// Days of hourly archive: one season.
const DAYS: usize = 90;

/// Observatory builds per untraced run; `setup_s` is their median.
const BUILDS: usize = 5;

/// Visitors per chunk for the visitor p99s.
const VISIT_CHUNK: usize = 250;

/// Requests per `run_s` chunk.
const CHUNK: usize = 1000;

/// TOPMODEL slider parameters and their ranges. `srmax` and `sr0` are
/// left out: a scenario can lower `srmax` below a slider's `sr0`, and the
/// model rejects that pair.
const SLIDERS: [(&str, f64, f64); 5] = [
    ("m", 0.002, 0.08),
    ("ln_t0", -2.0, 8.0),
    ("td", 1.0, 40.0),
    ("route_tp_hours", 1.0, 12.0),
    ("q0_init_mm_h", 0.02, 2.0),
];

/// Seeded SplitMix64 stream for the request generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The layer call a request stands for.
#[derive(Debug)]
enum Call {
    Observations { sensor: String, from: i64, to: i64 },
    Latest { sensor: String },
    Markers { south: f64, west: f64, north: f64, east: f64 },
    Datasets { text: String },
    Download { dataset: String, registered: bool },
    Execute { catchment: String, process: &'static str, inputs: Value },
}

/// One generated request: its REST form and its direct-call form.
#[derive(Debug)]
struct Item {
    route: Layer,
    request: Request,
    call: Call,
}

/// Builds the observatory under test and its REST API. The archive
/// keeps the builder's default seed whatever `--seed` says: build time
/// depends strongly on the archive seed (0.1 s to 1.1 s over seeds 1–5),
/// so a seeded archive would make `setup_s` measure the seed. `--seed`
/// drives the request stream.
fn build() -> Result<(Arc<Evop>, Router), String> {
    let evop = Evop::builder()
        .days(DAYS)
        .all_study_catchments()
        .cache_policy(CachePolicy::L1)
        .try_build()
        .map_err(|err| format!("observatory build: {err}"))?;
    let evop = Arc::new(evop);
    let router = portal_api(Arc::clone(&evop));
    Ok((evop, router))
}

/// A visitor's home catchment, as the storyboard's requests name it.
struct Home {
    id: String,
    name: String,
    bbox: BoundingBox,
    /// Start of the 24 hours around the archive's highest river stage:
    /// "the last big flood in the records".
    flood_day: i64,
}

/// The request stream: visitors walk the LEFT storyboard
/// (`Storyboard::left`, the journey of experiment E11) until `count`
/// requests are drawn. Each visitor belongs to a group drawn with the
/// workshop cohort's weights (`workshop_cohort`), picks a home catchment,
/// and issues the requests of every step `journey::simulate_user` says
/// they attempted, in order. Which requests a step sends is the
/// benchmark's reading of the step's text and requirements; the mix is
/// modelled, not recorded portal traffic.
/// Returns the requests and, for each visitor whose requests all fit in
/// `count`, the range of their requests.
fn generate(evop: &Evop, seed: u64, count: usize) -> (Vec<Item>, Vec<Range<usize>>) {
    let mut rng = Rng(seed ^ 0x706f_7274_616c_6d78);
    let mut journeys = SimRng::new(seed).fork("journeys");
    let storyboard = Storyboard::left();
    let config = JourneyConfig::default();
    let groups: Vec<Expertise> = workshop_cohort(1)
        .into_iter()
        .flat_map(|(group, weight)| std::iter::repeat_n(group, weight))
        .collect();
    let start = evop.start().as_unix();
    let end = start + (DAYS * 86_400) as i64;
    let homes: Vec<Home> = evop
        .catchments()
        .iter()
        .map(|c| {
            let id = c.id().as_str().to_owned();
            let stage = GetObservation {
                procedure: SensorId::new(format!("{id}-stage-outlet")),
                begin: Timestamp::from_unix(start),
                end: Timestamp::from_unix(end),
                max_results: None,
            };
            let peak = evop
                .sos()
                .get_observation(&stage)
                .ok()
                .and_then(|obs| obs.into_iter().max_by(|a, b| a.value().total_cmp(&b.value())))
                .map_or(start, |o| o.time().as_unix());
            let flood_day = (peak - 43_200).clamp(start, end - 86_400);
            Home { id, name: c.name().to_owned(), bbox: c.bounding_box(), flood_day }
        })
        .collect();
    let observations = |sensor: String, from: i64, to: i64| Item {
        route: Layer::ServicesObservations,
        request: Request::get(format!("/sensors/{sensor}/observations"))
            .query("from", from.to_string())
            .query("to", to.to_string()),
        call: Call::Observations { sensor, from, to },
    };
    let latest = |sensor: String| Item {
        route: Layer::ServicesLatest,
        request: Request::get(format!("/sensors/{sensor}/latest")),
        call: Call::Latest { sensor },
    };
    let execute = |catchment: &str, process: &'static str, inputs: Value| Item {
        route: Layer::ServicesExecute,
        request: Request::post(format!("/catchments/{catchment}/processes/{process}/execute"))
            .json(&inputs),
        call: Call::Execute { catchment: catchment.to_owned(), process, inputs },
    };
    let mut items = Vec::with_capacity(count + 16);
    let mut visits = Vec::new();
    while items.len() < count {
        let first = items.len();
        let group = groups[rng.below(groups.len())];
        let home = &homes[rng.below(homes.len())];
        let id = home.id.as_str();
        let steps = simulate_user(&storyboard, group, &config, &mut journeys).steps_attempted;
        let scenario = Scenario::change_scenarios()[rng.below(4)].id();
        for step in 1..=steps {
            match step {
                // "Open the portal and find my catchment on the map" (R1).
                1 => {
                    let (sw, ne) = (home.bbox.south_west(), home.bbox.north_east());
                    let (south, west, north, east) = (sw.lat(), sw.lon(), ne.lat(), ne.lon());
                    items.push(Item {
                        route: Layer::ServicesMarkers,
                        request: Request::get("/map/markers")
                            .query("south", south.to_string())
                            .query("west", west.to_string())
                            .query("north", north.to_string())
                            .query("east", east.to_string()),
                        call: Call::Markers { south, west, north, east },
                    });
                }
                // "Check current rainfall and river level near my
                // property" (R1, R2): both gauges' latest values and the
                // status board's 48-hour river graph.
                2 => {
                    items.push(latest(format!("{id}-rain-1")));
                    items.push(latest(format!("{id}-stage-outlet")));
                    items.push(observations(format!("{id}-stage-outlet"), end - 172_800, end));
                }
                // "Look back at the last big flood in the records" (R3):
                // find the catchment's records, chart the season's river
                // level; a scientist also downloads the record.
                3 => {
                    items.push(Item {
                        route: Layer::ServicesDatasets,
                        request: Request::get("/datasets").query("text", home.name.as_str()),
                        call: Call::Datasets { text: home.name.clone() },
                    });
                    items.push(observations(format!("{id}-stage-outlet"), start, end));
                    if group == Expertise::EnvironmentalScientist {
                        let dataset = format!("{id}-stage");
                        items.push(Item {
                            route: Layer::ServicesDownload,
                            request: Request::get(format!("/datasets/{dataset}/download")),
                            call: Call::Download { dataset, registered: false },
                        });
                    }
                }
                // "See how murky the water looked on the webcam that day"
                // (R3, R4): turbidity over the flood's 24 hours.
                4 => {
                    let from = home.flood_day;
                    items.push(observations(format!("{id}-turb-1"), from, from + 86_400));
                }
                // "Run the flood model for my catchment" (R5).
                5 => items.push(execute(id, "topmodel", json!({}))),
                // "Try land-use scenarios to see what changes the risk"
                // (R5, R6, R9): one preset on both models.
                6 => {
                    items.push(execute(id, "topmodel", json!({ "scenario": scenario })));
                    items.push(execute(id, "fuse", json!({ "scenario": scenario })));
                }
                // "Fine-tune parameters and compare runs against the flood
                // line" (R7, R8): one slider, two settings, two runs.
                _ => {
                    let (name, lo, hi) = SLIDERS[rng.below(SLIDERS.len())];
                    for _ in 0..2 {
                        let mut inputs = Map::new();
                        inputs.insert("scenario".to_owned(), json!(scenario));
                        inputs.insert(name.to_owned(), json!(lo + (hi - lo) * rng.unit()));
                        items.push(execute(id, "topmodel", Value::Object(inputs)));
                    }
                }
            }
        }
        visits.push(first..items.len());
    }
    visits.retain(|visit: &Range<usize>| visit.end <= count);
    items.truncate(count);
    (items, visits)
}

/// Folds `bytes` into `hash` a word at a time, FNV-style. The digest
/// runs on the serving thread between requests, so its cost delays any
/// request that falls due meanwhile: on the baseline host, byte-wise
/// `evop_shard::fnv1a` spent 177 ms per 3000 requests of this mix (7 % of
/// the busy time), this fold 22 ms (1 %).
fn digest(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Spins until `due`. Sleeping between requests lets the host hand the
/// core away, and the request after a wake-up then runs several times
/// slower than its neighbours; spinning keeps service times those of a
/// busy server.
fn wait_until(clock: Clock, due: u64) {
    while clock.ns() < due {
        std::hint::spin_loop();
    }
}

/// What the open loop observed.
#[derive(Debug, Default)]
struct Served {
    /// Each request's service time, in process CPU time.
    service_s: Vec<f64>,
    /// Each request's host time from when it was due to when it ended.
    latency_s: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Requests still unsent when the schedule ended.
    backlog_end: u64,
    failed: u64,
    digest: u64,
    bytes: Vec<(Layer, u64)>,
}

/// Sends `items` through `router`, request `i` due `i / RATE` seconds
/// after the start, one at a time on this thread.
fn open_loop(items: &[Item], router: &Router, clock: Clock, rec: &mut Recorder) -> Served {
    let mut served = Served { digest: 0xcbf2_9ce4_8422_2325, ..Served::default() };
    let mut bytes = [0u64; Layer::ROUTES.len()];
    let period_ns = 1e9 / RATE;
    let t0 = clock.ns() + 1_000_000;
    let window_end = t0 + (items.len() as f64 * period_ns) as u64;
    let mut free_at = t0;
    for (i, item) in items.iter().enumerate() {
        let due = t0 + (i as f64 * period_ns) as u64;
        wait_until(clock, due);
        rec.new_trace();
        rec.enter(Layer::BenchRequest);
        let start = clock.ns();
        let start_cpu = clock.cpu_ns();
        rec.enter(item.route);
        let response = router.dispatch(&item.request);
        rec.exit(item.route);
        let end_cpu = clock.cpu_ns();
        let end = clock.ns();
        served.service_s.push((end_cpu - start_cpu) as f64 / 1e9);
        served.latency_s.push((end - due) as f64 / 1e9);
        served.lateness_us.push(start.saturating_sub(due.max(free_at)) as f64 / 1e3);
        if start > window_end {
            served.backlog_end += 1;
        }
        if !response.status().is_success() {
            served.failed += 1;
        }
        let body = response.body_bytes();
        served.digest = digest(served.digest, body);
        if let Some(slot) = Layer::ROUTES.iter().position(|&r| r == item.route) {
            bytes[slot] += body.len() as u64;
        }
        drop(response);
        rec.exit(Layer::BenchRequest);
        free_at = clock.ns();
    }
    served.bytes = Layer::ROUTES.iter().copied().zip(bytes).collect();
    served
}

/// Replays `items` as direct calls into each layer's own function on
/// `evop`. Returns `(direct calls that failed, WPS executions, of which
/// cache hits)`.
fn replay(items: &[Item], evop: &Evop, rec: &mut Recorder) -> (u64, u64, u64) {
    let (mut failed, mut executions, mut hits) = (0, 0, 0);
    let l1_hits = || evop.cache_stats().map_or(0, |s| s.l1_hits);
    for item in items {
        rec.new_trace();
        rec.enter(Layer::BenchReplay);
        let ok = match &item.call {
            Call::Observations { sensor, from, to } => {
                let request = GetObservation {
                    procedure: SensorId::new(sensor),
                    begin: Timestamp::from_unix(*from),
                    end: Timestamp::from_unix(*to),
                    max_results: None,
                };
                rec.enter(Layer::DataSosQuery);
                let found = evop.sos().get_observation(&request).map(|o| o.len());
                rec.exit(Layer::DataSosQuery);
                found.is_ok()
            }
            Call::Latest { sensor } => {
                let sensor = SensorId::new(sensor);
                rec.enter(Layer::DataSosLatest);
                let found = evop.sos().latest(&sensor).is_some();
                rec.exit(Layer::DataSosLatest);
                found
            }
            Call::Markers { south, west, north, east } => {
                let bbox = BoundingBox::new(LatLon::new(*south, *west), LatLon::new(*north, *east));
                rec.enter(Layer::DataMarkersIn);
                let found = evop.map().markers_in(bbox).len();
                rec.exit(Layer::DataMarkersIn);
                std::hint::black_box(found);
                true
            }
            Call::Datasets { text } => {
                let query = Query::new().text(text.as_str());
                rec.enter(Layer::DataCatalogSearch);
                let found = evop.catalog().search(&query).len();
                rec.exit(Layer::DataCatalogSearch);
                std::hint::black_box(found);
                true
            }
            Call::Download { dataset, registered } => {
                rec.enter(Layer::CoreDownload);
                let csv = evop.download_dataset(dataset, *registered);
                rec.exit(Layer::CoreDownload);
                csv.is_ok()
            }
            Call::Execute { catchment, process, inputs } => {
                let inputs = inputs.clone();
                let before = l1_hits();
                let wps = evop.wps(&CatchmentId::new(catchment.as_str()));
                rec.enter(Layer::ModelsTopmodelRun);
                let result = wps.map(|w| w.execute(process, inputs));
                let hit = l1_hits() > before;
                let layer = match (hit, *process) {
                    (true, _) => Layer::CacheWpsHit,
                    (false, "fuse") => Layer::ModelsFuseRun,
                    (false, _) => Layer::ModelsTopmodelRun,
                };
                rec.exit(layer);
                executions += 1;
                hits += u64::from(hit);
                matches!(result, Some(Ok(_)))
            }
        };
        rec.exit(Layer::BenchReplay);
        failed += u64::from(!ok);
    }
    (failed, executions, hits)
}

/// Runs the portal mix for `seconds` at [`RATE`].
pub fn run(seed: u64, seconds: u64, trace: bool, clock: Clock, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    // Keep only what the run uses: the observatory under test and, when
    // tracing, its twin for the direct replay.
    let (builds, keep) = if trace { (2, 2) } else { (BUILDS, 1) };
    let mut setups = Vec::with_capacity(builds);
    let mut built = Vec::with_capacity(keep);
    for _ in 0..builds {
        if built.len() == keep {
            built.remove(0);
        }
        let start = clock.cpu_ns();
        match build() {
            Ok(pair) => built.push(pair),
            Err(err) => {
                report.fail(err);
                return report;
            }
        }
        setups.push((clock.cpu_ns() - start) as f64 / 1e9);
    }
    let (evop, router) = built.pop().expect("at least one observatory was built");
    let count = (RATE * seconds as f64) as usize;
    let (items, visits) = generate(&evop, seed, count);

    rec.set_on(trace);
    let served = open_loop(&items, &router, clock, rec);
    rec.set_on(false);
    report.attempted = items.len() as u64;
    report.failed = served.failed;
    if served.failed > 0 {
        report.fail(format!("{} of {} responses were not 2xx", served.failed, items.len()));
    }
    report.note(format!(
        "check: {} requests at {RATE} req/s, {} non-2xx (error_ratio = {} ratio), body digest {:016x}",
        items.len(),
        served.failed,
        served.failed as f64 / items.len() as f64,
        served.digest
    ));
    let lateness = sorted(served.lateness_us.clone());
    report.note(format!(
        "generator lateness p50 {} us, p99 {} us; backlog at end of schedule {} requests",
        percentile(&lateness, 0.5),
        percentile(&lateness, 0.99),
        served.backlog_end
    ));
    // Per-chunk figures, then the median over chunks: one stalled stretch
    // of host time moves one chunk, not the run.
    let chunks = |values: &[f64], stat: &dyn Fn(&[f64]) -> f64| -> f64 {
        median(&values.chunks(CHUNK).filter(|c| c.len() == CHUNK).map(stat).collect::<Vec<_>>())
    };
    let n_chunks = served.service_s.len() / CHUNK;
    // Per visitor: the sum over the visitor's requests, in milliseconds.
    // A p99 is taken per chunk of visitors, then the median over chunks.
    let per_visit = |values: &[f64]| -> Vec<f64> {
        visits.iter().map(|v| values[v.clone()].iter().sum::<f64>() * 1e3).collect()
    };
    let visit_p99 = |ms: &[f64]| -> f64 {
        let tails: Vec<f64> = ms
            .chunks(VISIT_CHUNK)
            .filter(|c| c.len() == VISIT_CHUNK)
            .map(|c| percentile(&sorted(c.to_vec()), 0.99))
            .collect();
        median(&tails)
    };
    let n_visit_chunks = visits.len() / VISIT_CHUNK;
    let run_s = chunks(&served.service_s, &|c| c.iter().sum());

    if !trace {
        report.metric("setup_s", median(&setups), format!("median of {builds} builds"));
        report.metric(
            "run_s",
            run_s,
            format!("CPU busy time per {CHUNK} requests, median of {n_chunks} chunks"),
        );
        // The latency from due time is the FIFO recursion over the CPU
        // service times at the offered rate: the wait one thread would
        // impose on a core of its own. The live host-time latencies are
        // printed beside it; a stall of the shared host lands in them.
        let modelled = stats::fifo_latencies(&served.service_s, RATE);
        let (served_ms, waited_ms) = (per_visit(&served.service_s), per_visit(&modelled));
        let live_ms = per_visit(&served.latency_s);
        report.note(format!(
            "live host-time latency from due time, per visitor: p50 {} ms, p99 {} ms",
            median(&live_ms),
            visit_p99(&live_ms)
        ));
        let v = visits.len();
        let tail =
            format!("median over {n_visit_chunks} chunks of {VISIT_CHUNK} visitors of each p99");
        let wait = format!("a visitor's summed latency from due time at {RATE} req/s, FIFO model");
        report.metric(
            "step_p50_ms",
            median(&served_ms),
            format!("a visitor's service time, {v} visitors"),
        );
        report.metric(
            "step_p99_ms",
            visit_p99(&served_ms),
            format!("a visitor's service time, {tail}"),
        );
        report.metric("req_p50_ms", median(&waited_ms), format!("{wait}, {v} visitors"));
        report.metric("req_p99_ms", visit_p99(&waited_ms), format!("{wait}, {tail}"));
        report.metric(
            "max_rps",
            chunks(&served.service_s, &|c| stats::fifo_max_rate(c, LIMIT_S)),
            format!("FIFO recursion, p99 <= 10 ms, median over {n_chunks} chunks"),
        );
        return report;
    }

    let rest = rec.table();
    let rest_spans = rec.len();
    let (twin, _) = built.pop().expect("tracing builds a twin observatory");
    rec.set_on(true);
    let (direct_failed, executions, hits) = replay(&items, &twin, rec);
    rec.set_on(false);
    if direct_failed > 0 {
        report.fail(format!("{direct_failed} direct layer calls failed"));
    }
    let table = rec.table();
    let self_ms = |layers: &[Layer]| -> f64 {
        layers.iter().filter_map(|l| table.get(l)).map(|s| s.self_ns as f64 / 1e6).sum()
    };
    for (route, bytes) in &served.bytes {
        report.layer(*route, rest.get(route), 1.0, "per run");
        let name = route.name();
        report.metric(
            &format!("{name}.bytes"),
            *bytes as f64,
            "response body bytes per run".to_owned(),
        );
        let direct: &[Layer] = match route {
            Layer::ServicesObservations => &[Layer::DataSosQuery],
            Layer::ServicesLatest => &[Layer::DataSosLatest],
            Layer::ServicesMarkers => &[Layer::DataMarkersIn],
            Layer::ServicesDatasets => &[Layer::DataCatalogSearch],
            Layer::ServicesDownload => &[Layer::CoreDownload],
            _ => &[Layer::ModelsTopmodelRun, Layer::ModelsFuseRun, Layer::CacheWpsHit],
        };
        let route_ms = rest.get(route).map_or(0.0, |s| s.self_ns as f64 / 1e6);
        report.metric(
            &format!("{name}.codec_ms"),
            route_ms - self_ms(direct),
            "route minus its direct calls, per run".to_owned(),
        );
    }
    for layer in Layer::DIRECT {
        report.layer(layer, table.get(&layer), 1.0, "per run");
    }
    report.metric(
        "cache.wps_hit_ratio",
        hits as f64 / executions.max(1) as f64,
        format!("{hits} hits of {executions} WPS executions"),
    );
    report.metric(
        "bench.gen_lateness_p99_us",
        percentile(&lateness, 0.99),
        format!("{} requests", lateness.len()),
    );
    report.metric(
        "bench.backlog_end",
        served.backlog_end as f64,
        "requests unsent when the schedule ended".to_owned(),
    );
    let harness_ns: u64 =
        table.iter().filter(|(l, _)| l.is_harness()).map(|(_, s)| s.self_ns).sum();
    report.metric("bench.harness_self_ms", harness_ns as f64 / 1e6, "per run".to_owned());
    report.metric("bench.traced_run_s", run_s, format!("CPU busy time per {CHUNK} requests"));
    report.note(format!("spans: {rest_spans} REST, {} replay", rec.len() - rest_spans));
    report
}
