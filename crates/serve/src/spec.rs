//! The `.job` request format: a tiny `key = value` file dropped next to the
//! `.bench` netlist it refers to.
//!
//! The format is deliberately line-oriented and diff-friendly:
//!
//! ```text
//! # resynthesize for path count, at most 2 seconds
//! objective = paths
//! max_inputs = 5
//! time_limit_ms = 2000
//! ```
//!
//! Every key is optional; an empty (or absent) spec runs Procedure 2 with
//! the daemon's defaults. Unknown keys, malformed values and duplicate keys
//! are **typed errors** ([`SpecError`]) — a daemon parses untrusted files,
//! so nothing in this module panics on any input.

use sft_core::{Objective, ResynthOptions};
use std::fmt;
use std::time::Duration;

/// Error parsing a job spec, with the 1-based line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Deterministic failure injection for tests and drills, requested by the
/// job itself (`chaos = ...`). Real clients simply omit the key; the daemon
/// honors it so its isolation and retry paths stay testable end-to-end
/// without mocking the filesystem or the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// Panic inside the worker after the inputs parse (`chaos = panic`).
    Panic,
    /// Sleep before running the engine (`chaos = sleep:<ms>`).
    Sleep(Duration),
    /// Fail the first `n` attempts with a retryable error, then succeed
    /// (`chaos = fail:<n>`).
    FailAttempts(u32),
}

/// A parsed job request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobSpec {
    /// `objective = gates | paths | combined:<gw>,<pw>`.
    pub objective: Option<Objective>,
    /// `max_inputs = <K>` — the cone input limit (the paper's `K`).
    pub max_inputs: Option<usize>,
    /// `max_passes = <N>`.
    pub max_passes: Option<usize>,
    /// `time_limit_ms = <N>` — per-job wall-clock budget.
    pub time_limit: Option<Duration>,
    /// `step_limit = <N>` — per-job step budget.
    pub step_limit: Option<u64>,
    /// `chaos = panic | sleep:<ms> | fail:<n>` — test-only failure injection.
    pub chaos: Option<Chaos>,
}

impl JobSpec {
    /// The resynthesis options this request asks for. Each job runs on one
    /// worker thread; the daemon's parallelism is across jobs (the
    /// admission gate).
    pub fn resynth_options(&self) -> ResynthOptions {
        let defaults = ResynthOptions::default();
        ResynthOptions {
            objective: self.objective.unwrap_or_default(),
            max_inputs: self.max_inputs.unwrap_or(defaults.max_inputs),
            max_passes: self.max_passes.unwrap_or(defaults.max_passes),
            ..defaults
        }
    }
}

fn bad(line: usize, message: impl Into<String>) -> SpecError {
    SpecError { line, message: message.into() }
}

fn parse_objective(value: &str, line: usize) -> Result<Objective, SpecError> {
    match value {
        "gates" => Ok(Objective::Gates),
        "paths" => Ok(Objective::Paths),
        other => {
            let weights = other
                .strip_prefix("combined:")
                .ok_or_else(|| bad(line, format!("unknown objective {other:?}")))?;
            let (gw, pw) = weights
                .split_once(',')
                .ok_or_else(|| bad(line, "combined objective needs combined:<gw>,<pw>"))?;
            let gate_weight =
                gw.trim().parse().map_err(|_| bad(line, format!("bad gate weight {gw:?}")))?;
            let path_weight =
                pw.trim().parse().map_err(|_| bad(line, format!("bad path weight {pw:?}")))?;
            Ok(Objective::Combined { gate_weight, path_weight })
        }
    }
}

fn parse_chaos(value: &str, line: usize) -> Result<Chaos, SpecError> {
    if value == "panic" {
        return Ok(Chaos::Panic);
    }
    if let Some(ms) = value.strip_prefix("sleep:") {
        let ms: u64 = ms.trim().parse().map_err(|_| bad(line, format!("bad sleep {ms:?}")))?;
        return Ok(Chaos::Sleep(Duration::from_millis(ms)));
    }
    if let Some(n) = value.strip_prefix("fail:") {
        let n: u32 = n.trim().parse().map_err(|_| bad(line, format!("bad fail count {n:?}")))?;
        return Ok(Chaos::FailAttempts(n));
    }
    Err(bad(line, format!("unknown chaos mode {value:?} (panic, sleep:<ms>, fail:<n>)")))
}

/// Parses `key = value` job-spec text.
///
/// `#` starts a comment (whole-line or trailing); blank lines are ignored;
/// keys may not repeat.
///
/// # Errors
///
/// [`SpecError`] with a line number for unknown keys, malformed values,
/// duplicate keys, and lines without `=`.
pub fn parse_spec(text: &str) -> Result<JobSpec, SpecError> {
    let mut spec = JobSpec::default();
    let mut seen: Vec<&str> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(lineno, format!("expected key = value, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(bad(lineno, format!("duplicate key {key:?}")));
        }
        match key {
            "objective" => spec.objective = Some(parse_objective(value, lineno)?),
            "max_inputs" => {
                let k: usize =
                    value.parse().map_err(|_| bad(lineno, format!("bad max_inputs {value:?}")))?;
                if !(1..=16).contains(&k) {
                    return Err(bad(lineno, format!("max_inputs {k} outside 1..=16")));
                }
                spec.max_inputs = Some(k);
            }
            "max_passes" => {
                let n: usize =
                    value.parse().map_err(|_| bad(lineno, format!("bad max_passes {value:?}")))?;
                if n == 0 {
                    return Err(bad(lineno, "max_passes must be at least 1"));
                }
                spec.max_passes = Some(n);
            }
            "time_limit_ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| bad(lineno, format!("bad time_limit_ms {value:?}")))?;
                spec.time_limit = Some(Duration::from_millis(ms));
            }
            "step_limit" => {
                let n: u64 =
                    value.parse().map_err(|_| bad(lineno, format!("bad step_limit {value:?}")))?;
                spec.step_limit = Some(n);
            }
            "chaos" => spec.chaos = Some(parse_chaos(value, lineno)?),
            other => return Err(bad(lineno, format!("unknown key {other:?}"))),
        }
        seen.push(key);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_all_defaults() {
        let spec = parse_spec("").unwrap();
        assert_eq!(spec, JobSpec::default());
        let opts = spec.resynth_options();
        assert_eq!(opts.objective, Objective::Gates);
    }

    #[test]
    fn full_spec_parses() {
        let text = "\
# a comment
objective = combined:2,3   # trailing comment
max_inputs = 6
max_passes = 4
time_limit_ms = 1500
step_limit = 99
chaos = sleep:25
";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.objective, Some(Objective::Combined { gate_weight: 2, path_weight: 3 }));
        assert_eq!(spec.max_inputs, Some(6));
        assert_eq!(spec.max_passes, Some(4));
        assert_eq!(spec.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(spec.step_limit, Some(99));
        assert_eq!(spec.chaos, Some(Chaos::Sleep(Duration::from_millis(25))));
    }

    #[test]
    fn chaos_modes_parse() {
        assert_eq!(parse_spec("chaos = panic").unwrap().chaos, Some(Chaos::Panic));
        assert_eq!(parse_spec("chaos = fail:2").unwrap().chaos, Some(Chaos::FailAttempts(2)));
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for (text, needle) in [
            ("objective = frobnicate", "unknown objective"),
            ("objective = combined:1", "combined"),
            ("objective = combined:a,b", "gate weight"),
            ("max_inputs = 0", "outside"),
            ("max_inputs = 99", "outside"),
            ("max_inputs = five", "bad max_inputs"),
            ("max_passes = 0", "at least 1"),
            ("time_limit_ms = -3", "bad time_limit_ms"),
            ("step_limit = 1e9", "bad step_limit"),
            ("chaos = explode", "unknown chaos"),
            ("chaos = sleep:soon", "bad sleep"),
            ("wat = 1", "unknown key"),
            ("just words", "key = value"),
            ("objective = gates\nobjective = paths", "duplicate key"),
        ] {
            match parse_spec(text) {
                Err(e) => assert!(
                    e.message.contains(needle),
                    "{text:?}: message {:?} lacks {needle:?}",
                    e.message
                ),
                Ok(s) => panic!("{text:?} unexpectedly parsed as {s:?}"),
            }
        }
    }

    #[test]
    fn line_numbers_point_at_the_offending_line() {
        let err = parse_spec("objective = gates\n\n# fine\nwat = 1\n").unwrap_err();
        assert_eq!(err.line, 4);
    }
}
