//! The in-situ sensor and observation model.
//!
//! The EVOp stakeholder workshops asked for "live access to rainfall and
//! river level sensors in their catchments" (§V-B) and for webcam imagery
//! linked to water-quality sensors (Fig. 5). This module models those assets:
//! [`Sensor`] descriptors, timestamped [`Observation`]s with quality flags,
//! and [`WebcamFrame`]s (synthetic image descriptors standing in for real
//! JPEG feeds).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::catchment::CatchmentId;
use crate::geo::LatLon;
use crate::time::Timestamp;

/// A unique sensor identifier, e.g. `"morland-rain-1"`.
///
/// # Examples
///
/// ```
/// use evop_data::SensorId;
/// let id = SensorId::new("morland-stage-outlet");
/// assert_eq!(id.as_str(), "morland-stage-outlet");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SensorId(String);

impl SensorId {
    /// Creates an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty.
    pub fn new(id: impl Into<String>) -> SensorId {
        let id = id.into();
        assert!(!id.is_empty(), "sensor id must not be empty");
        SensorId(id)
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SensorId {
    fn from(s: &str) -> SensorId {
        SensorId::new(s)
    }
}

/// What a sensor measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensorKind {
    /// River stage (water level) in metres above the gauge datum.
    RiverLevel,
    /// Rainfall depth in millimetres per sampling interval.
    RainGauge,
    /// Air or water temperature in degrees Celsius.
    Temperature,
    /// Water turbidity in NTU.
    Turbidity,
    /// A webcam producing image frames rather than numeric values.
    Webcam,
}

impl SensorKind {
    /// The measurement unit as a display string (empty for webcams).
    pub fn unit(self) -> &'static str {
        match self {
            SensorKind::RiverLevel => "m",
            SensorKind::RainGauge => "mm",
            SensorKind::Temperature => "°C",
            SensorKind::Turbidity => "NTU",
            SensorKind::Webcam => "",
        }
    }

    /// A plausible valid range for quality control, `(min, max)`.
    pub fn valid_range(self) -> (f64, f64) {
        match self {
            SensorKind::RiverLevel => (0.0, 10.0),
            SensorKind::RainGauge => (0.0, 50.0),
            SensorKind::Temperature => (-25.0, 45.0),
            SensorKind::Turbidity => (0.0, 4000.0),
            SensorKind::Webcam => (0.0, 1.0),
        }
    }
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SensorKind::RiverLevel => "river level",
            SensorKind::RainGauge => "rain gauge",
            SensorKind::Temperature => "temperature",
            SensorKind::Turbidity => "turbidity",
            SensorKind::Webcam => "webcam",
        };
        f.write_str(name)
    }
}

/// A deployed in-situ sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sensor {
    id: SensorId,
    kind: SensorKind,
    name: String,
    location: LatLon,
    catchment: CatchmentId,
    sample_interval_secs: u32,
}

impl Sensor {
    /// Creates a sensor descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval_secs` is zero.
    pub fn new(
        id: SensorId,
        kind: SensorKind,
        name: impl Into<String>,
        location: LatLon,
        catchment: CatchmentId,
        sample_interval_secs: u32,
    ) -> Sensor {
        assert!(sample_interval_secs > 0, "sample interval must be positive");
        Sensor { id, kind, name: name.into(), location, catchment, sample_interval_secs }
    }

    /// The sensor's identifier.
    pub fn id(&self) -> &SensorId {
        &self.id
    }

    /// What the sensor measures.
    pub fn kind(&self) -> SensorKind {
        self.kind
    }

    /// Human-readable name shown on the portal map.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where the sensor is deployed.
    pub fn location(&self) -> LatLon {
        self.location
    }

    /// The catchment the sensor belongs to.
    pub fn catchment(&self) -> &CatchmentId {
        &self.catchment
    }

    /// Nominal seconds between samples.
    pub fn sample_interval_secs(&self) -> u32 {
        self.sample_interval_secs
    }
}

/// Data quality of a single observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QualityFlag {
    /// Passed all checks.
    #[default]
    Good,
    /// Failed a plausibility check (range, spike, flatline).
    Suspect,
    /// Value was in-filled by an estimator rather than measured.
    Estimated,
    /// No value was recorded.
    Missing,
}

impl QualityFlag {
    /// The flag's lower-case name, as displayed.
    pub fn as_str(self) -> &'static str {
        match self {
            QualityFlag::Good => "good",
            QualityFlag::Suspect => "suspect",
            QualityFlag::Estimated => "estimated",
            QualityFlag::Missing => "missing",
        }
    }
}

impl fmt::Display for QualityFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timestamped measurement from a sensor.
///
/// # Examples
///
/// ```
/// use evop_data::{Observation, QualityFlag, SensorId, Timestamp};
///
/// let obs = Observation::new(
///     SensorId::new("morland-stage-outlet"),
///     Timestamp::from_ymd_hms(2012, 6, 1, 9, 15, 0),
///     0.42,
/// );
/// assert_eq!(obs.quality(), QualityFlag::Good);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    sensor: SensorId,
    time: Timestamp,
    value: f64,
    quality: QualityFlag,
}

impl Observation {
    /// Creates an observation with [`QualityFlag::Good`].
    pub fn new(sensor: SensorId, time: Timestamp, value: f64) -> Observation {
        Observation { sensor, time, value, quality: QualityFlag::Good }
    }

    /// Creates an observation with an explicit quality flag.
    pub fn with_quality(
        sensor: SensorId,
        time: Timestamp,
        value: f64,
        quality: QualityFlag,
    ) -> Observation {
        Observation { sensor, time, value, quality }
    }

    /// The producing sensor.
    pub fn sensor(&self) -> &SensorId {
        &self.sensor
    }

    /// When the measurement was taken.
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// The measured value (unit per [`SensorKind::unit`]).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The quality flag.
    pub fn quality(&self) -> QualityFlag {
        self.quality
    }

    /// Returns a copy re-flagged as `quality`.
    pub fn reflagged(&self, quality: QualityFlag) -> Observation {
        Observation { quality, ..self.clone() }
    }
}

/// A synthetic webcam frame descriptor.
///
/// Stands in for the project's real webcam JPEGs: carries the perceptual
/// features the multimodal widget (paper Fig. 5) links to sensor data —
/// scene brightness (diurnal) and water murkiness (correlated with
/// turbidity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebcamFrame {
    camera: SensorId,
    time: Timestamp,
    brightness: f64,
    murkiness: f64,
}

impl WebcamFrame {
    /// Creates a frame descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `brightness` or `murkiness` are outside `[0, 1]`.
    pub fn new(camera: SensorId, time: Timestamp, brightness: f64, murkiness: f64) -> WebcamFrame {
        assert!((0.0..=1.0).contains(&brightness), "brightness must be in [0,1]");
        assert!((0.0..=1.0).contains(&murkiness), "murkiness must be in [0,1]");
        WebcamFrame { camera, time, brightness, murkiness }
    }

    /// The producing camera.
    pub fn camera(&self) -> &SensorId {
        &self.camera
    }

    /// When the frame was captured.
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// Scene brightness in `[0, 1]` (0 = night, 1 = noon sun).
    pub fn brightness(&self) -> f64 {
        self.brightness
    }

    /// Water murkiness in `[0, 1]` (proxy for visible turbidity).
    pub fn murkiness(&self) -> f64 {
        self.murkiness
    }

    /// A stable pseudo-URL for the frame, as the portal would link it.
    pub fn url(&self) -> String {
        format!("evop://webcam/{}/{}.jpg", self.camera, self.time.as_unix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> LatLon {
        LatLon::new(54.59, -2.62)
    }

    #[test]
    fn sensor_accessors() {
        let s = Sensor::new(
            SensorId::new("x-rain-1"),
            SensorKind::RainGauge,
            "Test gauge",
            loc(),
            CatchmentId::new("morland"),
            900,
        );
        assert_eq!(s.id().as_str(), "x-rain-1");
        assert_eq!(s.kind(), SensorKind::RainGauge);
        assert_eq!(s.kind().unit(), "mm");
        assert_eq!(s.sample_interval_secs(), 900);
        assert_eq!(s.catchment().as_str(), "morland");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_sensor_id_rejected() {
        let _ = SensorId::new("");
    }

    #[test]
    fn observation_quality_default_and_reflag() {
        let t = Timestamp::from_ymd(2012, 6, 1);
        let obs = Observation::new(SensorId::new("a"), t, 1.0);
        assert_eq!(obs.quality(), QualityFlag::Good);
        let suspect = obs.reflagged(QualityFlag::Suspect);
        assert_eq!(suspect.quality(), QualityFlag::Suspect);
        assert_eq!(suspect.value(), 1.0);
    }

    #[test]
    fn sensor_kind_ranges_are_ordered() {
        for kind in [
            SensorKind::RiverLevel,
            SensorKind::RainGauge,
            SensorKind::Temperature,
            SensorKind::Turbidity,
            SensorKind::Webcam,
        ] {
            let (lo, hi) = kind.valid_range();
            assert!(lo < hi, "{kind} range inverted");
        }
    }

    #[test]
    fn webcam_frame_url_is_stable() {
        let t = Timestamp::from_ymd(2012, 6, 1);
        let f = WebcamFrame::new(SensorId::new("cam-1"), t, 0.8, 0.2);
        assert_eq!(f.url(), format!("evop://webcam/cam-1/{}.jpg", t.as_unix()));
    }

    #[test]
    #[should_panic(expected = "brightness")]
    fn webcam_frame_rejects_out_of_range() {
        let _ = WebcamFrame::new(SensorId::new("cam-1"), Timestamp::UNIX_EPOCH, 1.5, 0.0);
    }

    #[test]
    fn quality_flag_display() {
        assert_eq!(QualityFlag::Suspect.to_string(), "suspect");
        assert_eq!(QualityFlag::Good.to_string(), "good");
    }
}
