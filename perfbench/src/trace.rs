//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span has a layer name, a start, an end, a parent and a trace id
//! (one per E8 control tick, one per portal request). Spans stay in
//! memory while the workload runs; [`Recorder::table`] folds them into
//! per-layer self times at exit and [`write_spans`] writes them out.
//! A layer's self time is its span's duration minus the part its child
//! spans cover, so the self times of all spans under a root add up to
//! the root's duration exactly.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Host time since the benchmark started, in nanoseconds, and the CPU
/// time the process has used.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

/// `struct timespec` of Linux's C library.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

impl Clock {
    /// Starts the clock.
    pub fn start() -> Clock {
        // evop-lint: allow(det-wallclock) -- the benchmark measures host time by design; no reading feeds back into the simulation
        Clock(Instant::now())
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// CPU time the process's threads have run, in nanoseconds. Unlike
    /// [`Clock::ns`] it stops while the guest's scheduler runs another
    /// process or the hypervisor runs another guest on the core (the
    /// kernel leaves steal time out of it), so a stall on a shared host
    /// does not show up as a slow call. One reading is a system call of
    /// about 0.4 µs.
    pub fn cpu_ns(self) -> u64 {
        let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `now` is a valid, writable `timespec`; the call writes
        // nothing else.
        let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
        assert_eq!(status, 0, "the process CPU clock is unavailable");
        u64::try_from(now.tv_sec).unwrap_or(0) * 1_000_000_000
            + u64::try_from(now.tv_nsec).unwrap_or(0)
    }
}

/// Every span name the benchmark records. `bench.*` spans are the
/// harness itself; every other span wraps one call into the layer its
/// name starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    BenchCell,
    BenchTick,
    BenchRequest,
    BenchReplay,
    ShardAdvance,
    ShardKill,
    ShardConnect,
    ShardDisconnect,
    ShardRequestHit,
    ShardRequestLeader,
    ShardRequestFollower,
    ShardRequestRetry,
    ShardRequestFailed,
    ShardLiveOn,
    ObsSloTick,
    ObsTsdbIngest,
    ObsTracerDrain,
    ObsTsdbFinish,
    ServicesObservations,
    ServicesLatest,
    ServicesMarkers,
    ServicesDatasets,
    ServicesDownload,
    ServicesExecute,
    DataSosQuery,
    DataSosLatest,
    DataMarkersIn,
    DataCatalogSearch,
    CoreDownload,
    ModelsTopmodelRun,
    ModelsFuseRun,
    CacheWpsHit,
}

impl Layer {
    /// The layers the E8 workloads call, in report order.
    pub const E8: [Layer; 14] = [
        Layer::ShardAdvance,
        Layer::ShardKill,
        Layer::ShardConnect,
        Layer::ShardDisconnect,
        Layer::ShardRequestHit,
        Layer::ShardRequestLeader,
        Layer::ShardRequestFollower,
        Layer::ShardRequestRetry,
        Layer::ShardRequestFailed,
        Layer::ShardLiveOn,
        Layer::ObsSloTick,
        Layer::ObsTsdbIngest,
        Layer::ObsTracerDrain,
        Layer::ObsTsdbFinish,
    ];

    /// The REST routes the portal mix dispatches, in report order.
    pub const ROUTES: [Layer; 6] = [
        Layer::ServicesObservations,
        Layer::ServicesLatest,
        Layer::ServicesMarkers,
        Layer::ServicesDatasets,
        Layer::ServicesDownload,
        Layer::ServicesExecute,
    ];

    /// The layer functions the portal replay calls directly.
    pub const DIRECT: [Layer; 8] = [
        Layer::DataSosQuery,
        Layer::DataSosLatest,
        Layer::DataMarkersIn,
        Layer::DataCatalogSearch,
        Layer::CoreDownload,
        Layer::ModelsTopmodelRun,
        Layer::ModelsFuseRun,
        Layer::CacheWpsHit,
    ];

    /// The span name, which is also the per-layer metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::BenchCell => "bench.cell",
            Layer::BenchTick => "bench.tick",
            Layer::BenchRequest => "bench.request",
            Layer::BenchReplay => "bench.replay",
            Layer::ShardAdvance => "shard.advance",
            Layer::ShardKill => "shard.kill",
            Layer::ShardConnect => "shard.connect",
            Layer::ShardDisconnect => "shard.disconnect",
            Layer::ShardRequestHit => "shard.request_hit",
            Layer::ShardRequestLeader => "shard.request_leader",
            Layer::ShardRequestFollower => "shard.request_follower",
            Layer::ShardRequestRetry => "shard.request_retry",
            Layer::ShardRequestFailed => "shard.request_failed",
            Layer::ShardLiveOn => "shard.live_on",
            Layer::ObsSloTick => "obs.slo_tick",
            Layer::ObsTsdbIngest => "obs.tsdb_ingest",
            Layer::ObsTracerDrain => "obs.tracer_drain",
            Layer::ObsTsdbFinish => "obs.tsdb_finish",
            Layer::ServicesObservations => "services.observations",
            Layer::ServicesLatest => "services.latest",
            Layer::ServicesMarkers => "services.markers",
            Layer::ServicesDatasets => "services.datasets",
            Layer::ServicesDownload => "services.download",
            Layer::ServicesExecute => "services.execute",
            Layer::DataSosQuery => "data.sos_query",
            Layer::DataSosLatest => "data.sos_latest",
            Layer::DataMarkersIn => "data.markers_in",
            Layer::DataCatalogSearch => "data.catalog_search",
            Layer::CoreDownload => "core.download",
            Layer::ModelsTopmodelRun => "models.topmodel_run",
            Layer::ModelsFuseRun => "models.fuse_run",
            Layer::CacheWpsHit => "cache.wps_hit",
        }
    }

    /// `true` for the benchmark's own spans.
    pub fn is_harness(self) -> bool {
        matches!(
            self,
            Layer::BenchCell | Layer::BenchTick | Layer::BenchRequest | Layer::BenchReplay
        )
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    trace: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans while switched on; costs one branch per call while off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    clock: Clock,
    trace: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that starts switched off.
    pub fn new(clock: Clock) -> Recorder {
        Recorder { on: false, clock, trace: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Switches recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new trace id for the spans that follow.
    pub fn new_trace(&mut self) {
        if self.on {
            self.trace += 1;
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { trace: self.trace, parent, layer, start_ns: 0, end_ns: 0 });
        self.open.push(index);
        // Read the clock last, so the pushes (and any growth of `spans`)
        // are charged to the enclosing span, not to the layer measured.
        let start_ns = self.clock.ns();
        if let Some(span) = self.spans.last_mut() {
            span.start_ns = start_ns;
            span.end_ns = start_ns;
        }
    }

    /// Closes the innermost open span, naming it `layer` — a request
    /// span only learns which outcome it had once the call returns.
    pub fn exit(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let end_ns = self.clock.ns();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns;
            span.layer = layer;
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer totals over every recorded span.
    pub fn table(&self) -> BTreeMap<Layer, LayerStats> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(c) = covered.get_mut(span.parent as usize) {
                *c += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<Layer, LayerStats> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let entry = table.entry(span.layer).or_default();
            entry.calls += 1;
            entry.self_ns += duration.saturating_sub(covered);
            entry.durations_ns.push(duration);
        }
        table
    }
}

/// One layer's totals.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Each span's duration.
    pub durations_ns: Vec<u64>,
}

impl LayerStats {
    /// 99th-percentile span duration, in microseconds.
    pub fn p99_us(&self) -> f64 {
        let mut sorted: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        sorted.sort_by(f64::total_cmp);
        stats::percentile(&sorted, 0.99)
    }
}

/// Writes `spans[..limit]` as JSON lines: a header object, then one
/// `[trace, span, parent, name, start_ns, end_ns]` array per span
/// (`parent` is -1 for a root).
pub fn write_spans(
    path: &Path,
    header: &serde_json::Value,
    recorder: &Recorder,
    limit: usize,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, span) in recorder.spans.iter().take(limit).enumerate() {
        let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
        writeln!(
            out,
            "[{},{i},{parent},\"{}\",{},{}]",
            span.trace,
            span.layer.name(),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}
