//! Declarative fault schedules.
//!
//! A [`FaultSchedule`] is data, not code: a named list of time windows,
//! each activating one [`FaultKind`] against one target. Schedules
//! round-trip through JSON, so a chaos scenario can be checked into the
//! repository, diffed in review, and replayed bit-for-bit — the KheOps
//! position that cloud experiments are only trustworthy when fully
//! repeatable.

use serde::{Deserialize, Serialize};

use evop_sim::SimTime;

/// One kind of injected fault. Rates and probabilities are evaluated by
/// the engine's seeded RNG, so a schedule plus a seed fully determines
/// every fault that fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "kebab-case")]
pub enum FaultKind {
    /// The provider's control-plane API refuses a fraction of calls —
    /// the transient error burst named as the dominant operational pain
    /// in the EVO hybrid-cloud experience report.
    ApiErrorBurst {
        /// Which provider misbehaves.
        provider: String,
        /// Probability that any one guarded call fails, in `[0, 1]`.
        error_rate: f64,
    },
    /// Freshly accepted launches die at the moment boot completes.
    BootFailure {
        /// Which provider loses instances.
        provider: String,
        /// Probability that any one launch is doomed, in `[0, 1]`.
        probability: f64,
    },
    /// New instances boot slowly — the classic straggler.
    Straggler {
        /// Which provider straggles.
        provider: String,
        /// Boot-time multiplier for affected instances (> 1).
        slowdown: f64,
        /// Probability that any one boot straggles, in `[0, 1]`.
        probability: f64,
    },
    /// The blob container's backing store refuses all requests.
    BlobOutage {
        /// Which container is unreachable.
        container: String,
    },
    /// Reads from the container return corrupt objects.
    BlobCorruption {
        /// Which container is affected.
        container: String,
        /// Probability that any one read is corrupt, in `[0, 1]`.
        probability: f64,
    },
    /// The provider is unreachable from the broker's network: every
    /// control-plane call fails for the whole window.
    Partition {
        /// Which provider is cut off.
        provider: String,
    },
}

impl FaultKind {
    /// A short machine-readable label, used in event logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ApiErrorBurst { .. } => "api-error-burst",
            FaultKind::BootFailure { .. } => "boot-failure",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::BlobOutage { .. } => "blob-outage",
            FaultKind::BlobCorruption { .. } => "blob-corruption",
            FaultKind::Partition { .. } => "partition",
        }
    }
}

/// A fault active from `start_secs` for `duration_secs` of virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Window start, in virtual seconds from the beginning of the run.
    pub start_secs: u64,
    /// Window length in virtual seconds.
    pub duration_secs: u64,
    /// What misbehaves during the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// `true` while `now` falls inside `[start, start + duration)`.
    pub fn active_at(&self, now: SimTime) -> bool {
        let start = self.start_secs * 1000;
        let end = start + self.duration_secs * 1000;
        now.as_millis() >= start && now.as_millis() < end
    }

    /// Virtual milliseconds from `now` to the end of the window (zero if
    /// the window is over).
    pub fn remaining_millis(&self, now: SimTime) -> u64 {
        let end = (self.start_secs + self.duration_secs) * 1000;
        end.saturating_sub(now.as_millis())
    }
}

/// A named, serializable chaos plan.
///
/// # Examples
///
/// ```
/// use evop_chaos::{FaultKind, FaultSchedule};
///
/// let schedule = FaultSchedule::named("aws-flaky-morning").window(
///     600,
///     1800,
///     FaultKind::ApiErrorBurst { provider: "aws".to_owned(), error_rate: 0.5 },
/// );
/// let json = schedule.to_json();
/// assert_eq!(FaultSchedule::from_json(&json).unwrap(), schedule);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    name: String,
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub fn named(name: impl Into<String>) -> FaultSchedule {
        FaultSchedule { name: name.into(), windows: Vec::new() }
    }

    /// The schedule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a fault window (builder style).
    pub fn window(mut self, start_secs: u64, duration_secs: u64, kind: FaultKind) -> FaultSchedule {
        self.windows.push(FaultWindow { start_secs, duration_secs, kind });
        self
    }

    /// All windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Windows active at `now`, in insertion order.
    pub fn active_at(&self, now: SimTime) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(move |w| w.active_at(now))
    }

    /// When the last window closes, in virtual seconds.
    pub fn end_secs(&self) -> u64 {
        self.windows.iter().map(|w| w.start_secs + w.duration_secs).max().unwrap_or(0)
    }

    /// Serializes the schedule to canonical (stable field order) JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Parses a schedule from JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error message for malformed input.
    pub fn from_json(json: &str) -> Result<FaultSchedule, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// The reference "provider storm" used by the chaos regression tests
    /// and `report chaos`: an AWS API error burst, a campus
    /// boot-failure spell overlapping an AWS straggler spell, a short
    /// full partition of AWS (overlapping an even shorter campus
    /// partition, so provisioning transiently has nowhere to go), and a
    /// model-library blob outage — all within the first two hours of a
    /// run.
    pub fn provider_storm() -> FaultSchedule {
        FaultSchedule::named("provider-storm")
            .window(
                600,
                1200,
                FaultKind::ApiErrorBurst { provider: "aws".to_owned(), error_rate: 0.6 },
            )
            .window(
                1800,
                1800,
                FaultKind::BootFailure { provider: "campus".to_owned(), probability: 0.5 },
            )
            .window(
                2400,
                1800,
                FaultKind::Straggler {
                    provider: "aws".to_owned(),
                    slowdown: 4.0,
                    probability: 0.5,
                },
            )
            .window(4200, 600, FaultKind::Partition { provider: "aws".to_owned() })
            .window(4200, 600, FaultKind::Partition { provider: "campus".to_owned() })
            .window(5400, 900, FaultKind::BlobOutage { container: "model-library".to_owned() })
            .window(
                6300,
                900,
                FaultKind::BlobCorruption {
                    container: "model-library".to_owned(),
                    probability: 0.3,
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_activate_and_expire() {
        let w = FaultWindow {
            start_secs: 10,
            duration_secs: 20,
            kind: FaultKind::Partition { provider: "aws".to_owned() },
        };
        assert!(!w.active_at(SimTime::from_secs(9)));
        assert!(w.active_at(SimTime::from_secs(10)));
        assert!(w.active_at(SimTime::from_secs(29)));
        assert!(!w.active_at(SimTime::from_secs(30)));
        assert_eq!(w.remaining_millis(SimTime::from_secs(20)), 10_000);
        assert_eq!(w.remaining_millis(SimTime::from_secs(40)), 0);
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let schedule = FaultSchedule::provider_storm();
        let json = schedule.to_json();
        let parsed = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(parsed, schedule);
        assert_eq!(parsed.name(), "provider-storm");
        assert_eq!(parsed.windows().len(), 7);
        assert_eq!(parsed.end_secs(), 7200);
    }

    #[test]
    fn bad_json_is_rejected_with_a_message() {
        assert!(FaultSchedule::from_json("{").is_err());
        assert!(FaultSchedule::from_json("{\"name\": 3}").is_err());
    }

    #[test]
    fn active_at_filters_by_time() {
        let schedule = FaultSchedule::provider_storm();
        let labels: Vec<&str> =
            schedule.active_at(SimTime::from_secs(2500)).map(|w| w.kind.label()).collect();
        assert_eq!(labels, ["boot-failure", "straggler"]);
        assert_eq!(schedule.active_at(SimTime::from_secs(0)).count(), 0);
    }
}
