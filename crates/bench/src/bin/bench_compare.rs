//! Compares two bench logs metric by metric.
//!
//! ```text
//! bench_compare <old.json> <new.json>
//! ```
//!
//! For every `(bench, metric)` pair present in both logs the *latest* entry
//! of each log is compared and the delta printed; direction comes from the
//! unit (`…/s` means higher is better, everything else — `ns/tick`,
//! `ns/score`, `bytes/tick` — means lower is better).  The process exits
//! non-zero when any **headline** metric regresses by more than 25 %, so
//! `scripts/bench.sh --compare` can gate refactors; metrics that exist in
//! only one log are listed but never fail the gate (new benches appear,
//! old ones retire).

use std::process::ExitCode;

use serde::Value;

/// Fractional regression on a headline metric that fails the gate.
const REGRESSION_LIMIT: f64 = 0.25;

/// The metrics the gate protects: the closed-loop throughput numbers the
/// performance docs headline, one per bench that records them.
const HEADLINES: &[(&str, &str)] = &[
    ("fig3_kernel_sensitivity", "ticks_per_sec"),
    ("table2_overhead", "protected_ticks_per_sec"),
    ("detector_micro", "aad_score_scratch"),
    ("replay_micro", "replay_ticks_per_sec"),
];

/// One log's latest value and unit per `(bench, metric)`, in first-seen
/// order (logs are append-only, so the last entry of a pair is its latest).
type Latest = Vec<((String, String), (f64, String))>;

fn field<'entry>(entry: &'entry [(String, Value)], name: &str) -> Option<&'entry Value> {
    entry.iter().find(|(key, _)| key == name).map(|(_, value)| value)
}

fn load_latest(path: &str) -> Result<Latest, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    let parsed: Value = serde_json::from_str(&text)
        .map_err(|error| format!("{path} is not valid JSON: {error:?}"))?;
    let entries = parsed.as_seq().ok_or_else(|| format!("{path} is not a JSON array"))?;
    let mut latest: Latest = Vec::new();
    for entry in entries {
        let Some(map) = entry.as_map() else { continue };
        let (Some(bench), Some(metric), Some(value)) = (
            field(map, "bench").and_then(Value::as_str),
            field(map, "metric").and_then(Value::as_str),
            field(map, "value").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let unit = field(map, "unit").and_then(Value::as_str).unwrap_or("").to_owned();
        let key = (bench.to_owned(), metric.to_owned());
        match latest.iter_mut().find(|(existing, _)| *existing == key) {
            Some((_, slot)) => *slot = (value, unit),
            None => latest.push((key, (value, unit))),
        }
    }
    Ok(latest)
}

/// `true` when a larger value of a metric with this unit is an improvement.
fn higher_is_better(unit: &str) -> bool {
    unit.ends_with("/s")
}

/// Signed improvement fraction: positive is better, negative is a
/// regression, regardless of the metric's direction.
fn improvement(old: f64, new: f64, unit: &str) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    let change = (new - old) / old.abs();
    if higher_is_better(unit) {
        change
    } else {
        -change
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_compare <old.json> <new.json>");
        return ExitCode::from(2);
    };
    let (old, new) = match (load_latest(old_path), load_latest(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("bench_compare: {error}");
            return ExitCode::from(2);
        }
    };

    println!("{:<58} {:>14} {:>14} {:>9}", "metric", "old", "new", "delta");
    let mut failures: Vec<String> = Vec::new();
    for ((bench, metric), (new_value, unit)) in &new {
        let name = format!("{bench}/{metric}");
        let Some((_, (old_value, _))) = old.iter().find(|((b, m), _)| b == bench && m == metric)
        else {
            println!("{name:<58} {:>14} {new_value:>14.3} {:>9}", "-", "new");
            continue;
        };
        let gain = improvement(*old_value, *new_value, unit);
        let arrow = if gain >= 0.0 { "+" } else { "-" };
        println!(
            "{name:<58} {old_value:>14.3} {new_value:>14.3} {arrow}{:>7.1}%",
            gain.abs() * 100.0
        );
        let headline = HEADLINES.iter().any(|(b, m)| b == bench && m == metric);
        if headline && gain < -REGRESSION_LIMIT {
            failures.push(format!(
                "{name}: {old_value:.3} -> {new_value:.3} {unit} ({:.1}% worse)",
                -gain * 100.0
            ));
        }
    }
    for ((bench, metric), (old_value, _)) in &old {
        if !new.iter().any(|((b, m), _)| b == bench && m == metric) {
            println!(
                "{:<58} {old_value:>14.3} {:>14} {:>9}",
                format!("{bench}/{metric}"),
                "-",
                "gone"
            );
        }
    }

    if failures.is_empty() {
        println!("no headline regressions beyond {:.0}%", REGRESSION_LIMIT * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!("\nheadline regressions beyond {:.0}%:", REGRESSION_LIMIT * 100.0);
        for failure in &failures {
            eprintln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}
