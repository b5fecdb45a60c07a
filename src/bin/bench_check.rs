//! `bench_check` — guard against performance and decision regressions.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json>
//! ```
//!
//! Compares a freshly generated bench report (`BENCH_resynth.json`,
//! `BENCH_edit.json`, ...) against the committed baseline and exits
//! non-zero when either
//!
//! - a **decision drifted**: any decision field present in a baseline row
//!   (`gates_after`, `paths_after`, `replacements` for resynthesis;
//!   `edits`, `nodes`, `restored` for the edit-throughput bench;
//!   `done`, `failed`, `shed` for the daemon saturation bench;
//!   `gates`, `faults`, `detected`, `coverage` for the fault-simulation
//!   bench, plus `fault_classes`, `faults_ctrace`, `faults_dom` for the
//!   scale bench; `nodes`, `fanin_refs`, `interned_names` plus the
//!   resynthesis decisions for the arena bench) differs for that circuit. Decisions must be independent of timing, caching,
//!   and thread count. The schema is detected per row: only the decision
//!   keys a baseline row actually carries are compared, so one binary
//!   checks every report the perf harness emits. Or,
//! - a **circuit regressed**: its serial time grew by more than 15% beyond
//!   the machine-speed factor. The factor is the median of the per-circuit
//!   fresh/baseline time ratios, so a uniformly slower (or faster) CI
//!   runner shifts every ratio together and trips nothing; only a circuit
//!   that slowed down *relative to the rest of the suite* fails. Circuits
//!   within 2 ms of their expected time are exempt — at that scale the
//!   4-decimal JSON rounding and scheduler noise dominate.
//!
//! The parser handles exactly the flat one-row-per-line JSON that
//! `benches/perf.rs` emits; the workspace vendors no serde.

use std::process::ExitCode;

/// Allowed per-circuit slowdown beyond the median machine-speed ratio.
const TOLERANCE: f64 = 1.15;
/// Absolute slack (seconds) below which timing noise wins over the ratio.
const ABS_SLACK: f64 = 0.002;

/// Row fields that are *decisions* (must be bit-identical between runs),
/// as opposed to timings. A row carries whatever subset its benchmark
/// emits; comparison is over the baseline row's subset.
const DECISION_KEYS: &[&str] = &[
    "gates_after",
    "paths_after",
    "replacements",
    "edits",
    "nodes",
    "restored",
    "done",
    "failed",
    "shed",
    "gates",
    "faults",
    "fault_classes",
    "faults_ctrace",
    "faults_dom",
    "detected",
    "coverage",
    "fanin_refs",
    "interned_names",
];

#[derive(Debug, PartialEq)]
struct Row {
    name: String,
    secs: f64,
    decisions: Vec<(String, String)>,
}

/// Extracts the raw text of `"key": <value>` from a one-line JSON object.
fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = row.find(&tag)? + tag.len();
    let rest = row[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let get =
            |key: &str| field(line, key).ok_or_else(|| format!("row missing \"{key}\": {line}"));
        let decisions: Vec<(String, String)> = DECISION_KEYS
            .iter()
            .filter_map(|&k| field(line, k).map(|v| (k.to_string(), v.to_string())))
            .collect();
        if decisions.is_empty() {
            return Err(format!("row carries no decision fields: {line}"));
        }
        rows.push(Row {
            name: get("name")?.to_string(),
            secs: get("secs_1_thread")?.parse().map_err(|e| format!("secs_1_thread: {e}"))?,
            decisions,
        });
    }
    if rows.is_empty() {
        return Err("no circuit rows found".into());
    }
    Ok(rows)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Compares the suites; returns human-readable failure messages (empty =
/// pass).
fn check(baseline: &[Row], fresh: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut ratios = Vec::new();
    let mut pairs = Vec::new();
    for b in baseline {
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            failures.push(format!("{}: missing from fresh report", b.name));
            continue;
        };
        for (key, bv) in &b.decisions {
            match f.decisions.iter().find(|(k, _)| k == key) {
                None => failures
                    .push(format!("{}: decision field {key} missing from fresh row", b.name)),
                Some((_, fv)) if fv != bv => {
                    failures.push(format!("{}: decision drift: {key} {bv} -> {fv}", b.name))
                }
                Some(_) => {}
            }
        }
        // Sub-rounding baseline times carry no ratio information.
        if b.secs > 0.0 {
            ratios.push(f.secs / b.secs);
            pairs.push((b, f));
        }
    }
    if ratios.is_empty() {
        return failures;
    }
    let speed = median(ratios.clone());
    for (b, f) in pairs {
        let expected = b.secs * speed;
        if f.secs > expected * TOLERANCE && f.secs - expected > ABS_SLACK {
            failures.push(format!(
                "{}: serial time regressed: {:.4}s vs {:.4}s expected \
                 (baseline {:.4}s x median machine ratio {:.3}, tolerance {:.0}%)",
                b.name,
                f.secs,
                expected,
                b.secs,
                speed,
                (TOLERANCE - 1.0) * 100.0
            ));
        }
    }
    failures
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        return Err("usage: bench_check <baseline.json> <fresh.json>".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let baseline = parse_rows(&read(baseline_path)?)?;
    let fresh = parse_rows(&read(fresh_path)?)?;
    let failures = check(&baseline, &fresh);
    if failures.is_empty() {
        println!("bench_check: {} circuits OK (tolerance {:.0}%)", baseline.len(), {
            (TOLERANCE - 1.0) * 100.0
        });
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_check FAILED:\n{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, secs: f64, gates: u64, paths: u128, repl: u64) -> Row {
        Row {
            name: name.into(),
            secs,
            decisions: vec![
                ("gates_after".into(), gates.to_string()),
                ("paths_after".into(), paths.to_string()),
                ("replacements".into(), repl.to_string()),
            ],
        }
    }

    #[test]
    fn parses_perf_json_rows() {
        let text = r#"{
  "benchmark": "resynth",
  "circuits": [
    {"name": "irs_a", "gates_before": 64, "gates_after": 64, "paths_before": 325, "paths_after": 318, "replacements": 2, "cache_hits": 10, "cache_misses": 3, "secs_1_thread": 0.0256, "secs_n_threads": 0.0253, "speedup": 1.014},
    {"name": "irs_b", "gates_before": 65, "gates_after": 65, "paths_before": 1083, "paths_after": 1083, "replacements": 0, "cache_hits": 0, "cache_misses": 0, "secs_1_thread": 0.0258, "secs_n_threads": 0.0263, "speedup": 0.980}
  ]
}"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows, vec![row("irs_a", 0.0256, 64, 318, 2), row("irs_b", 0.0258, 65, 1083, 0)]);
    }

    fn edit_row(name: &str, secs: f64, edits: u64, restored: bool) -> Row {
        Row {
            name: name.into(),
            secs,
            decisions: vec![
                ("edits".into(), edits.to_string()),
                ("nodes".into(), "100".into()),
                ("restored".into(), restored.to_string()),
            ],
        }
    }

    #[test]
    fn parses_edit_json_rows() {
        let text = r#"{
  "benchmark": "edit",
  "circuits": [
    {"name": "irs_a", "nodes": 100, "edits": 72, "cycles": 400, "restored": true, "secs_1_thread": 0.0120, "secs_clone_revert": 0.0480, "journal_speedup": 4.000}
  ]
}"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "irs_a");
        assert_eq!(rows[0].secs, 0.0120);
        assert_eq!(
            rows[0].decisions,
            vec![
                ("edits".to_string(), "72".to_string()),
                ("nodes".to_string(), "100".to_string()),
                ("restored".to_string(), "true".to_string()),
            ]
        );
    }

    #[test]
    fn parses_serve_json_rows() {
        let text = r#"{
  "benchmark": "serve",
  "circuits": [
    {"name": "serve_cold", "jobs_submitted": 6, "done": 6, "failed": 0, "shed": 0, "cache_hits": 12, "cache_misses": 30, "cache_loaded_entries": 0, "p50_ms": 4, "p99_ms": 9, "secs_1_thread": 0.0412, "secs_n_threads": 0.0151, "speedup": 2.728}
  ]
}"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "serve_cold");
        assert_eq!(
            rows[0].decisions,
            vec![
                ("done".to_string(), "6".to_string()),
                ("failed".to_string(), "0".to_string()),
                ("shed".to_string(), "0".to_string()),
            ]
        );
    }

    #[test]
    fn parses_scale_json_rows() {
        let text = r#"{
  "benchmark": "scale",
  "circuits": [
    {"name": "stitch400", "gates": 107000, "faults": 479000, "fault_classes": 301000, "faults_ctrace": 352000, "faults_dom": 410000, "detected": 208000, "coverage": 0.4342, "patterns_applied": 1024, "secs_classic_1_thread": 6.1000, "secs_1_thread": 0.7000, "secs_2_threads": 0.4100, "secs_4_threads": 0.2400, "secs_8_threads": 0.1900, "speedup_ctrace_vs_classic_1t": 8.714, "scaling_4_threads": 2.917}
  ]
}"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 1);
        // The regression gate reads the ctrace serial time, not the
        // classic reference timing.
        assert_eq!(rows[0].secs, 0.7);
        // `gates` must not also capture `gates_after`-style keys, and
        // `faults` must not capture `faults_ctrace`/`faults_dom`; the
        // scale row pins exactly the seven campaign decisions.
        assert_eq!(
            rows[0].decisions,
            vec![
                ("gates".to_string(), "107000".to_string()),
                ("faults".to_string(), "479000".to_string()),
                ("fault_classes".to_string(), "301000".to_string()),
                ("faults_ctrace".to_string(), "352000".to_string()),
                ("faults_dom".to_string(), "410000".to_string()),
                ("detected".to_string(), "208000".to_string()),
                ("coverage".to_string(), "0.4342".to_string()),
            ]
        );
    }

    #[test]
    fn parses_arena_json_rows() {
        let text = r#"{
  "benchmark": "arena",
  "circuits": [
    {"name": "stitch420", "nodes": 106211, "fanin_refs": 197671, "interned_names": 106211, "bytes_per_node": 58.6, "replacements": 12, "gates_after": 104888, "secs_build": 1.2000, "secs_soa_rebuild": 0.0110, "secs_soa_new": 0.0040, "secs_entry_cold": 0.0150, "secs_entry_warm": 0.0000001, "speedup_entry_warm_vs_cold": 150000.0, "secs_1_thread": 3.4000}
  ]
}"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 1);
        // The regression gate reads the resynthesis-pass time; the arena
        // shape and resynthesis outcomes are the pinned decisions.
        assert_eq!(rows[0].secs, 3.4);
        assert_eq!(
            rows[0].decisions,
            vec![
                ("gates_after".to_string(), "104888".to_string()),
                ("replacements".to_string(), "12".to_string()),
                ("nodes".to_string(), "106211".to_string()),
                ("fanin_refs".to_string(), "197671".to_string()),
                ("interned_names".to_string(), "106211".to_string()),
            ]
        );
    }

    #[test]
    fn gates_key_does_not_match_gates_after() {
        let row = r#"{"name": "irs_a", "gates_before": 64, "gates_after": 60, "paths_after": 318, "replacements": 2, "secs_1_thread": 0.01}"#;
        assert_eq!(field(row, "gates"), None);
        assert_eq!(field(row, "gates_after"), Some("60"));
    }

    #[test]
    fn edit_decision_drift_fails() {
        let base = vec![edit_row("a", 0.01, 72, true), edit_row("b", 0.01, 9, true)];
        let fresh = vec![edit_row("a", 0.01, 72, true), edit_row("b", 0.01, 9, false)];
        let failures = check(&base, &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("restored true -> false"), "{failures:?}");
    }

    #[test]
    fn uniform_machine_slowdown_passes() {
        let base = vec![row("a", 0.10, 1, 1, 0), row("b", 1.00, 2, 2, 1), row("c", 4.00, 3, 3, 0)];
        // Everything exactly 3x slower: a slower runner, not a regression.
        let fresh =
            vec![row("a", 0.30, 1, 1, 0), row("b", 3.00, 2, 2, 1), row("c", 12.00, 3, 3, 0)];
        assert!(check(&base, &fresh).is_empty());
    }

    #[test]
    fn single_circuit_regression_fails() {
        let base = vec![row("a", 0.10, 1, 1, 0), row("b", 1.00, 2, 2, 1), row("c", 4.00, 3, 3, 0)];
        let fresh = vec![row("a", 0.10, 1, 1, 0), row("b", 1.00, 2, 2, 1), row("c", 8.00, 3, 3, 0)];
        let failures = check(&base, &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("c: serial time regressed"), "{failures:?}");
    }

    #[test]
    fn decision_drift_fails_even_when_faster() {
        let base = vec![row("a", 0.10, 10, 20, 2), row("b", 0.10, 1, 1, 0)];
        let fresh = vec![row("a", 0.01, 9, 20, 2), row("b", 0.01, 1, 1, 0)];
        let failures = check(&base, &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("decision drift"), "{failures:?}");
    }

    #[test]
    fn tiny_times_are_noise_exempt() {
        let base = vec![row("a", 0.0001, 1, 1, 0), row("b", 1.00, 2, 2, 1), row("c", 1.0, 3, 3, 0)];
        // 10x ratio on a 0.1 ms circuit is rounding noise, not a regression.
        let fresh =
            vec![row("a", 0.0010, 1, 1, 0), row("b", 1.00, 2, 2, 1), row("c", 1.0, 3, 3, 0)];
        assert!(check(&base, &fresh).is_empty());
    }

    #[test]
    fn missing_circuit_fails() {
        let base = vec![row("a", 0.10, 1, 1, 0), row("b", 0.10, 1, 1, 0)];
        let fresh = vec![row("a", 0.10, 1, 1, 0)];
        let failures = check(&base, &fresh);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }
}
