//! Machine-readable job outcomes.
//!
//! Every job the daemon touches ends in exactly one **outcome**, written as
//! a one-line flat-JSON report next to the job's files in `done/` or
//! `failed/`. The taxonomy distinguishes *what the requester should do
//! next*:
//!
//! | outcome      | dir      | meaning                                        |
//! |--------------|----------|------------------------------------------------|
//! | `done`       | `done/`  | engine ran; result `.bench` is next to report  |
//! | `failed`     | `failed/`| bad request or terminal error; fix and resubmit|
//! | `overloaded` | `failed/`| load-shed before running; resubmit later       |
//! | `panicked`   | `failed/`| engine panicked; isolated, daemon kept running |
//!
//! A budget that runs out is **not** a failure: the job completes as `done`
//! with the partial (verified) result and the `stop_reason` says why the
//! engine stopped early — the same anytime contract the library APIs have.
//!
//! Reports are written atomically (temp file + rename) and **first write
//! wins**: a report that already exists is never overwritten, so re-running
//! an orphaned job after a crash cannot flap a result a consumer already
//! read.

use std::fmt;
use std::io;
use std::path::Path;

/// Terminal classification of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The engine ran to a (possibly budget-truncated) verified result.
    Done,
    /// Malformed request or terminal engine error.
    Failed,
    /// Shed by admission control before running.
    Overloaded,
    /// The worker panicked; the panic was contained to this job.
    Panicked,
}

impl Outcome {
    /// The stable string used in reports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Done => "done",
            Outcome::Failed => "failed",
            Outcome::Overloaded => "overloaded",
            Outcome::Panicked => "panicked",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Engine result fields of a completed job (absent for jobs that never ran).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOutcome {
    /// Why the engine stopped (`converged`, `deadline`, ...).
    pub stop_reason: String,
    /// Committed passes.
    pub passes: usize,
    /// Subcircuit replacements committed.
    pub replacements: usize,
    /// Equivalent 2-input gates before.
    pub gates_before: u64,
    /// Equivalent 2-input gates after.
    pub gates_after: u64,
    /// Path count before (saturating display form, e.g. `">= 123"`).
    pub paths_before: String,
    /// Path count after.
    pub paths_after: String,
}

/// One job's report: everything a requester needs to act on the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job stem (file name without extension).
    pub job: String,
    /// Terminal classification.
    pub outcome: Outcome,
    /// How many times the daemon attempted the job (1 = first try).
    pub attempts: u32,
    /// Wall-clock of the final attempt, in milliseconds.
    pub elapsed_ms: u64,
    /// Engine results, when the engine ran.
    pub engine: Option<EngineOutcome>,
    /// Human-readable error for non-`done` outcomes.
    pub error: Option<String>,
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JobReport {
    /// The report as one flat JSON line (with trailing newline), the shape
    /// `perfbench`'s `serve-batch` workload and the CI serve smoke step
    /// read.
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<String> = vec![
            format!("\"job\":\"{}\"", json_escape(&self.job)),
            format!("\"outcome\":\"{}\"", self.outcome),
            format!("\"attempts\":{}", self.attempts),
            format!("\"elapsed_ms\":{}", self.elapsed_ms),
        ];
        if let Some(engine) = &self.engine {
            fields.push(format!("\"stop_reason\":\"{}\"", json_escape(&engine.stop_reason)));
            fields.push(format!("\"passes\":{}", engine.passes));
            fields.push(format!("\"replacements\":{}", engine.replacements));
            fields.push(format!("\"gates_before\":{}", engine.gates_before));
            fields.push(format!("\"gates_after\":{}", engine.gates_after));
            fields.push(format!("\"paths_before\":\"{}\"", json_escape(&engine.paths_before)));
            fields.push(format!("\"paths_after\":\"{}\"", json_escape(&engine.paths_after)));
        }
        if let Some(error) = &self.error {
            fields.push(format!("\"error\":\"{}\"", json_escape(error)));
        }
        format!("{{{}}}\n", fields.join(","))
    }
}

/// Atomically writes `bytes` to `path` unless `path` already exists.
///
/// The write goes to a `.tmp` sibling first and is renamed into place, so a
/// crash mid-write can never leave a half-written file at `path`. Returns
/// `false` (keeping the existing file untouched) when `path` is already
/// present — results in `done/` are immutable once a consumer may have
/// seen them.
///
/// # Errors
///
/// Propagates I/O errors from the write or the rename.
pub fn write_new(path: &Path, bytes: &[u8]) -> io::Result<bool> {
    if path.exists() {
        return Ok(false);
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> JobReport {
        JobReport {
            job: "c17".into(),
            outcome: Outcome::Done,
            attempts: 1,
            elapsed_ms: 12,
            engine: Some(EngineOutcome {
                stop_reason: "converged".into(),
                passes: 2,
                replacements: 3,
                gates_before: 10,
                gates_after: 8,
                paths_before: "11".into(),
                paths_after: "9".into(),
            }),
            error: None,
        }
    }

    #[test]
    fn json_line_is_flat_and_complete() {
        let line = report().to_json_line();
        assert!(line.ends_with('\n'));
        assert!(line.starts_with('{'));
        for needle in [
            "\"job\":\"c17\"",
            "\"outcome\":\"done\"",
            "\"attempts\":1",
            "\"stop_reason\":\"converged\"",
            "\"gates_after\":8",
            "\"paths_after\":\"9\"",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(!line.contains("\"error\""));
    }

    #[test]
    fn error_strings_are_escaped() {
        let mut r = report();
        r.outcome = Outcome::Failed;
        r.engine = None;
        r.error = Some("line 3: bad \"quote\"\nnext".into());
        let line = r.to_json_line();
        assert!(line.contains(r#"\"quote\""#));
        assert!(line.contains("\\n"));
        assert_eq!(line.matches('\n').count(), 1, "escaped newline must not split the line");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("tab\tok"), "tab\\tok");
    }

    #[test]
    fn write_new_is_first_write_wins() {
        let dir = std::env::temp_dir().join(format!("sft-serve-outcome-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let _ = std::fs::remove_file(&path);
        assert!(write_new(&path, b"first").unwrap());
        assert!(!write_new(&path, b"second").unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
