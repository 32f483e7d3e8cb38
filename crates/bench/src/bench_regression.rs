//! The `bench-regression` subcommand — allocator-churn perf gating.
//!
//! `cargo bench -p hpn-bench --bench engine -- allocator` writes
//! `BENCH_alloc.json` at the workspace root: µs per churn event for every
//! allocator variant × flow count. That file is checked in as the perf
//! baseline; this subcommand compares a freshly measured file against it
//! and fails (exit 1) when any variant slowed down by more than the
//! threshold (default ±25%).
//!
//! CI flow (the `bench-regression` job):
//!
//! ```text
//! cp BENCH_alloc.json /tmp/BENCH_alloc.baseline.json   # stash the golden
//! cargo bench -p hpn-bench --bench engine -- allocator # overwrites it
//! hpn-experiments bench-regression \
//!     --baseline /tmp/BENCH_alloc.baseline.json --current BENCH_alloc.json
//! ```
//!
//! To accept a deliberate perf change, re-measure on a quiet machine and
//! commit the regenerated file:
//! `cargo bench -p hpn-bench --bench engine -- allocator &&
//! hpn-experiments bench-regression --update-baseline`.
//!
//! Speed-ups beyond the threshold are reported but do not fail the gate —
//! they are a prompt to refresh the baseline, not an error. Keys present
//! in only one file fail the comparison: a silently vanished bench case
//! would otherwise hollow the gate out.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default regression threshold: fail when µs/event grows by more than
/// this fraction over the baseline.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// The checked-in baseline location (workspace root), mirroring
/// [`crate::gate::golden_path`].
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_alloc.json")
}

/// Outcome of one bench key's baseline-vs-current comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum KeyStatus {
    /// Within threshold either way.
    Ok,
    /// Slower than baseline by more than the threshold — fails the gate.
    Regressed,
    /// Faster than baseline by more than the threshold — reported, passes.
    Improved,
    /// Key present only in the baseline — fails the gate.
    MissingFromCurrent,
    /// Key present only in the current file — fails the gate.
    MissingFromBaseline,
}

/// One comparison row: key, baseline/current µs per event, status.
#[derive(Clone, Debug)]
pub struct KeyReport {
    /// Bench key, e.g. `incremental/4096`.
    pub key: String,
    /// Baseline µs/event (`None` when the key is new).
    pub baseline: Option<f64>,
    /// Current µs/event (`None` when the key vanished).
    pub current: Option<f64>,
    /// Comparison verdict.
    pub status: KeyStatus,
}

/// Compare two parsed result maps under `threshold` (a fraction; 0.25 =
/// ±25%). Rows come back in key order.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold: f64,
) -> Vec<KeyReport> {
    let keys: std::collections::BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
    keys.into_iter()
        .map(|k| {
            let (b, c) = (baseline.get(k).copied(), current.get(k).copied());
            let status = match (b, c) {
                (Some(b), Some(c)) if c > b * (1.0 + threshold) => KeyStatus::Regressed,
                (Some(b), Some(c)) if c < b * (1.0 - threshold) => KeyStatus::Improved,
                (Some(_), Some(_)) => KeyStatus::Ok,
                (Some(_), None) => KeyStatus::MissingFromCurrent,
                (None, _) => KeyStatus::MissingFromBaseline,
            };
            KeyReport {
                key: k.clone(),
                baseline: b,
                current: c,
                status,
            }
        })
        .collect()
}

/// Whether a comparison passes: no regressions, no one-sided keys.
pub fn passed(rows: &[KeyReport]) -> bool {
    rows.iter()
        .all(|r| matches!(r.status, KeyStatus::Ok | KeyStatus::Improved))
}

/// Parse the `"results"` object of a `BENCH_alloc.json` into key → µs per
/// event. A minimal purpose-built parser (the shared
/// [`hpn_telemetry::parse_flat_map`] handles string values only).
pub fn parse_results(src: &str) -> Result<BTreeMap<String, f64>, String> {
    let start = src
        .find("\"results\"")
        .ok_or("no \"results\" key in bench file")?;
    let brace = src[start..]
        .find('{')
        .map(|i| start + i)
        .ok_or("no object after \"results\"")?;
    let body = &src[brace + 1..];
    let end = body.find('}').ok_or("unterminated results object")?;
    let mut map = BTreeMap::new();
    for entry in body[..end].split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, val) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry '{entry}'"))?;
        let key = key.trim().trim_matches('"').to_string();
        let val: f64 = val
            .trim()
            .parse()
            .map_err(|_| format!("non-numeric value in '{entry}'"))?;
        if !val.is_finite() || val < 0.0 {
            return Err(format!("implausible µs/event in '{entry}'"));
        }
        if map.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate bench key '{key}'"));
        }
    }
    if map.is_empty() {
        return Err("empty results object".to_string());
    }
    Ok(map)
}

/// Parse the top-level `"events_per_iteration"` field of a
/// `BENCH_alloc.json`. The µs/event figures are `median_ns / batch / 1000`,
/// so two files measured under different batch sizes are not comparable —
/// [`check_events_per_iteration`] rejects that pairing.
pub fn parse_events_per_iteration(src: &str) -> Result<u64, String> {
    let start = src
        .find("\"events_per_iteration\"")
        .ok_or("no \"events_per_iteration\" key in bench file")?;
    let rest = &src[start + "\"events_per_iteration\"".len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or("malformed \"events_per_iteration\" entry")?;
    let end = rest
        .find([',', '}', '\n'])
        .ok_or("unterminated \"events_per_iteration\" value")?;
    let val: u64 = rest[..end]
        .trim()
        .parse()
        .map_err(|_| format!("non-integer events_per_iteration '{}'", rest[..end].trim()))?;
    if val == 0 {
        return Err("events_per_iteration must be positive".to_string());
    }
    Ok(val)
}

/// Both files of a comparison must agree on the churn batch size; returns
/// the shared value or an error describing the mismatch.
pub fn check_events_per_iteration(baseline: &str, current: &str) -> Result<u64, String> {
    let b = parse_events_per_iteration(baseline).map_err(|e| format!("baseline: {e}"))?;
    let c = parse_events_per_iteration(current).map_err(|e| format!("current: {e}"))?;
    if b != c {
        return Err(format!(
            "events_per_iteration mismatch: baseline measured {b} churn events per \
             iteration but current measured {c} — µs/event figures are not comparable \
             (re-measure and --update-baseline)"
        ));
    }
    Ok(b)
}

/// Load and parse a bench file.
pub fn load(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_results(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load the raw text of a bench file (for header-field checks).
pub fn load_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "allocator churn (cargo bench -- allocator)",
  "unit": "us_per_event",
  "events_per_iteration": 8,
  "results": {
    "dense/1024": 600.00,
    "incremental/1024": 35.02,
    "parallel2/4096": 52.46
  }
}
"#;

    #[test]
    fn parses_the_shipped_shape() {
        let m = parse_results(SAMPLE).expect("parse");
        assert_eq!(m.len(), 3);
        assert_eq!(m["dense/1024"], 600.0);
        assert_eq!(m["incremental/1024"], 35.02);
    }

    #[test]
    fn parses_the_checked_in_baseline() {
        let m = load(&baseline_path()).expect("checked-in baseline parses");
        assert!(
            m.keys().any(|k| k.starts_with("incremental/")),
            "baseline covers the incremental allocator: {m:?}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_results("{}").is_err());
        assert!(parse_results("{\"results\": {}}").is_err());
        assert!(parse_results("{\"results\": {\"a\": \"fast\"}}").is_err());
        assert!(parse_results("{\"results\": {\"a\": 1, \"a\": 2}}").is_err());
        assert!(parse_results("{\"results\": {\"a\": -1}}").is_err());
    }

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn within_threshold_passes() {
        let base = map(&[("a/1", 100.0), ("b/1", 40.0)]);
        let cur = map(&[("a/1", 120.0), ("b/1", 32.0)]);
        let rows = compare(&base, &cur, 0.25);
        assert!(passed(&rows));
        assert!(rows.iter().all(|r| r.status == KeyStatus::Ok));
    }

    #[test]
    fn regression_fails_improvement_passes() {
        let base = map(&[("a/1", 100.0), ("b/1", 100.0)]);
        let cur = map(&[("a/1", 130.0), ("b/1", 50.0)]);
        let rows = compare(&base, &cur, 0.25);
        assert!(!passed(&rows));
        assert_eq!(rows[0].status, KeyStatus::Regressed);
        assert_eq!(rows[1].status, KeyStatus::Improved);
        assert!(passed(&rows[1..]), "improvement alone passes");
    }

    #[test]
    fn one_sided_keys_fail() {
        let base = map(&[("a/1", 100.0)]);
        let cur = map(&[("b/1", 100.0)]);
        let rows = compare(&base, &cur, 0.25);
        assert!(!passed(&rows));
        assert_eq!(rows[0].status, KeyStatus::MissingFromCurrent);
        assert_eq!(rows[1].status, KeyStatus::MissingFromBaseline);
    }

    #[test]
    fn events_per_iteration_parses_and_gates() {
        assert_eq!(parse_events_per_iteration(SAMPLE).unwrap(), 8);
        assert!(parse_events_per_iteration("{\"results\":{}}").is_err());
        assert!(parse_events_per_iteration("{\"events_per_iteration\": 0}").is_err());
        assert!(parse_events_per_iteration("{\"events_per_iteration\": \"x\"}").is_err());

        assert_eq!(check_events_per_iteration(SAMPLE, SAMPLE).unwrap(), 8);
        let rebatched =
            SAMPLE.replace("\"events_per_iteration\": 8", "\"events_per_iteration\": 4");
        let err = check_events_per_iteration(SAMPLE, &rebatched).unwrap_err();
        assert!(
            err.contains("mismatch") && err.contains('8') && err.contains('4'),
            "{err}"
        );
        let checked_in = load_text(&baseline_path()).expect("checked-in baseline readable");
        assert_eq!(
            parse_events_per_iteration(&checked_in).unwrap(),
            8,
            "checked-in baseline carries the CHURN_BATCH the bench uses"
        );
    }

    #[test]
    fn boundary_is_inclusive() {
        // Exactly +25% is not a regression (strictly-greater comparison).
        let base = map(&[("a/1", 100.0)]);
        let cur = map(&[("a/1", 125.0)]);
        assert!(passed(&compare(&base, &cur, 0.25)));
    }
}
