//! What a run prints: counted checks, named metrics, the run record and the
//! final one-line JSON result.

use std::fmt::{self, Write as _};

/// A minimal JSON value, enough for the run record and the result line.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{}` prints the shortest representation that round-trips, so
            // every measured digit survives.
            Json::Num(value) if value.is_finite() => write!(f, "{value}"),
            Json::Num(_) => write!(f, "null"),
            Json::Int(value) => write!(f, "{value}"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::Str(text) => write_json_string(f, text),
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    write_json_string(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Checks counted against attempts, plus the metrics a run reports.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one checked operation; a false `ok` counts as a failure and
    /// prints `what` to standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self, what: impl fmt::Display) {
        self.check(false, || what.to_string());
    }

    /// Adds the checks another `Outcome` counted (its metrics are ignored).
    pub fn merge(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Records a metric; a non-finite value is a failed check.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.error(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        (*name).to_owned(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str((*unit).to_owned())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(if self.attempted == 0 { 1 } else { self.failed })),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Whether a closed loop that has completed `done` requests in `elapsed`
/// seconds starts another one within a window of `seconds`: always the
/// first, then only while half of an average request still fits, so a run
/// of long requests does not overshoot its window by a whole request.
pub fn another(done: usize, elapsed: f64, seconds: f64) -> bool {
    done == 0 || elapsed + elapsed / done as f64 / 2.0 < seconds
}

/// The mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    per(values.iter().sum(), values.len() as u64)
}

/// The tail: the highest percentile with at least ten samples beyond it,
/// as `(value, percentile, samples)`, or `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = n - 11;
    Some((sorted[index], (index + 1) as f64 / n as f64 * 100.0, n))
}

/// The tail of `values` as a record entry, or `None` with ten samples or
/// fewer.
pub fn tail_json(values: &[f64]) -> Option<Json> {
    tail(values).map(|(value, percentile, samples)| {
        Json::obj(vec![
            ("value", Json::Num(value)),
            ("percentile", Json::Num(percentile)),
            ("samples", Json::Int(samples as u64)),
        ])
    })
}

/// `part / whole` as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// `total / count` (0 when `count` is 0).
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
