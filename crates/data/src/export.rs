//! CSV import/export for time series — the portal's "download the data"
//! feature.
//!
//! Environmental scientists asked to "find or upload data" (§III-A); CSV is
//! the lingua franca both directions. The format is two columns, ISO-like
//! timestamps and values, with missing samples as empty cells:
//!
//! ```csv
//! time,value
//! 2012-01-01T00:00:00Z,0.42
//! 2012-01-01T01:00:00Z,
//! 2012-01-01T02:00:00Z,0.45
//! ```

use std::fmt;
use std::fmt::Write as _;

use crate::time::Timestamp;
use crate::timeseries::TimeSeries;

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The header row is missing or not `time,value`.
    BadHeader(String),
    /// A row did not have exactly two fields.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A timestamp failed to parse.
    BadTimestamp {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// A value failed to parse.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// Rows are not evenly spaced (the regular-series contract).
    IrregularStep {
        /// 1-based line number where the step changed.
        line: usize,
    },
    /// The file has a header but no data rows.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::BadHeader(h) => write!(f, "expected header 'time,value', got {h:?}"),
            CsvError::BadRow { line, content } => {
                write!(f, "line {line}: malformed row {content:?}")
            }
            CsvError::BadTimestamp { line, field } => {
                write!(f, "line {line}: bad timestamp {field:?}")
            }
            CsvError::BadValue { line, field } => write!(f, "line {line}: bad value {field:?}"),
            CsvError::IrregularStep { line } => {
                write!(f, "line {line}: rows are not evenly spaced")
            }
            CsvError::Empty => f.write_str("no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Serialises a series to CSV. Missing (`NaN`) samples become empty value
/// cells.
///
/// # Examples
///
/// ```
/// use evop_data::export::{from_csv, to_csv};
/// use evop_data::{TimeSeries, Timestamp};
///
/// let series = TimeSeries::from_values(
///     Timestamp::from_ymd(2012, 1, 1),
///     3600,
///     vec![0.42, f64::NAN, 0.45],
/// );
/// let csv = to_csv(&series);
/// let back = from_csv(&csv).unwrap();
/// assert_eq!(back.len(), 3);
/// assert!(back.value_at(1).is_nan());
/// assert_eq!(back.value_at(2), 0.45);
/// ```
pub fn to_csv(series: &TimeSeries) -> String {
    // A row is a 20-byte timestamp, a comma, a value of up to ~20 bytes
    // and a newline: one allocation covers a typical series.
    let mut out = String::with_capacity(16 + 40 * series.len());
    out.push_str("time,value\n");
    for (t, v) in series.iter() {
        // Writing to a `String` cannot fail.
        let _ = if v.is_nan() { writeln!(out, "{t},") } else { writeln!(out, "{t},{v}") };
    }
    out
}

/// Parses a CSV document produced by [`to_csv`] (or a spreadsheet following
/// the same shape) into a regular series.
///
/// # Errors
///
/// Returns a [`CsvError`] describing the first problem: bad header, ragged
/// row, unparsable field, uneven spacing, or no data.
pub fn from_csv(input: &str) -> Result<TimeSeries, CsvError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::Empty)?;
    if header.trim() != "time,value" {
        return Err(CsvError::BadHeader(header.to_owned()));
    }

    let mut points: Vec<(Timestamp, f64)> = Vec::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let Some((time_field, value_field)) = raw.split_once(',') else {
            return Err(CsvError::BadRow { line, content: raw.to_owned() });
        };
        if value_field.contains(',') {
            return Err(CsvError::BadRow { line, content: raw.to_owned() });
        }
        let t = parse_timestamp(time_field.trim())
            .ok_or_else(|| CsvError::BadTimestamp { line, field: time_field.to_owned() })?;
        let v = if value_field.trim().is_empty() {
            f64::NAN
        } else {
            value_field
                .trim()
                .parse::<f64>()
                .map_err(|_| CsvError::BadValue { line, field: value_field.to_owned() })?
        };
        points.push((t, v));
    }
    if points.is_empty() {
        return Err(CsvError::Empty);
    }
    if points.len() == 1 {
        return Ok(TimeSeries::from_values(points[0].0, 3600, vec![points[0].1]));
    }

    let step = points[1].0 - points[0].0;
    if step <= 0 {
        return Err(CsvError::IrregularStep { line: 3 });
    }
    for (i, pair) in points.windows(2).enumerate() {
        if pair[1].0 - pair[0].0 != step {
            return Err(CsvError::IrregularStep { line: i + 3 });
        }
    }
    Ok(TimeSeries::from_values(
        points[0].0,
        step as u32,
        points.into_iter().map(|(_, v)| v).collect(),
    ))
}

/// Parses `YYYY-MM-DDTHH:MM:SSZ` (the [`Timestamp`] display format).
fn parse_timestamp(s: &str) -> Option<Timestamp> {
    let s = s.strip_suffix('Z')?;
    let (date, time) = s.split_once('T')?;
    let mut date_parts = date.split('-');
    let year: i32 = date_parts.next()?.parse().ok()?;
    let month: u32 = date_parts.next()?.parse().ok()?;
    let day: u32 = date_parts.next()?.parse().ok()?;
    if date_parts.next().is_some() {
        return None;
    }
    let mut time_parts = time.split(':');
    let hour: u32 = time_parts.next()?.parse().ok()?;
    let minute: u32 = time_parts.next()?.parse().ok()?;
    let second: u32 = time_parts.next()?.parse().ok()?;
    if time_parts.next().is_some() {
        return None;
    }
    if !(1..=12).contains(&month)
        || !(1..=31).contains(&day)
        || hour >= 24
        || minute >= 60
        || second >= 60
    {
        return None;
    }
    Some(Timestamp::from_ymd_hms(year, month, day, hour, minute, second))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        TimeSeries::from_values(Timestamp::from_ymd(2012, 6, 1), 900, vec![0.1, 0.2, f64::NAN, 0.4])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let parsed = from_csv(&to_csv(&original)).unwrap();
        assert_eq!(parsed.start(), original.start());
        assert_eq!(parsed.step_secs(), original.step_secs());
        assert_eq!(parsed.len(), original.len());
        for i in 0..original.len() {
            let (a, b) = (original.value_at(i), parsed.value_at(i));
            assert!(a == b || (a.is_nan() && b.is_nan()), "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn header_is_required() {
        assert!(matches!(from_csv("foo,bar\n1,2\n"), Err(CsvError::BadHeader(_))));
        assert_eq!(from_csv(""), Err(CsvError::Empty));
        assert_eq!(from_csv("time,value\n"), Err(CsvError::Empty));
    }

    #[test]
    fn malformed_rows_are_located() {
        let csv = "time,value\n2012-06-01T00:00:00Z,1.0\nnot-a-row\n";
        assert!(matches!(from_csv(csv), Err(CsvError::BadRow { line: 3, .. })));

        let csv = "time,value\nnot-a-time,1.0\n";
        assert!(matches!(from_csv(csv), Err(CsvError::BadTimestamp { line: 2, .. })));

        let csv = "time,value\n2012-06-01T00:00:00Z,abc\n";
        assert!(matches!(from_csv(csv), Err(CsvError::BadValue { line: 2, .. })));
    }

    #[test]
    fn uneven_spacing_is_rejected() {
        let csv = "time,value\n\
                   2012-06-01T00:00:00Z,1\n\
                   2012-06-01T01:00:00Z,2\n\
                   2012-06-01T03:00:00Z,3\n";
        assert!(matches!(from_csv(csv), Err(CsvError::IrregularStep { .. })));
    }

    #[test]
    fn single_row_gets_default_step() {
        let csv = "time,value\n2012-06-01T00:00:00Z,1.5\n";
        let series = from_csv(csv).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series.value_at(0), 1.5);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let csv = "time,value\n2012-06-01T00:00:00Z,1\n\n2012-06-01T01:00:00Z,2\n";
        assert_eq!(from_csv(csv).unwrap().len(), 2);
    }

    #[test]
    fn timestamp_parser_rejects_garbage() {
        assert!(parse_timestamp("2012-06-01T00:00:00").is_none()); // no Z
        assert!(parse_timestamp("2012-13-01T00:00:00Z").is_none()); // bad month
        assert!(parse_timestamp("2012-06-01T25:00:00Z").is_none()); // bad hour
        assert!(parse_timestamp("2012-06-01T00:00:00:00Z").is_none()); // extra field
        assert!(parse_timestamp("2012-06-01-01T00:00:00Z").is_none()); // extra date part
    }
}
