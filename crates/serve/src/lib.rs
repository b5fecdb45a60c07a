//! `sft-serve` — a crash-safe, std-only resynthesis daemon over a job
//! directory.
//!
//! The daemon turns the one-shot `sft resynth` flow into a long-lived
//! service without taking on a network stack: the filesystem is the API.
//! Drop a netlist — `.bench`, structural Verilog `.v`, ASCII/binary AIGER
//! `.aag`/`.aig`, or a `.lut` covering, see `docs/formats.md` — and a small
//! `.job` spec into `<root>/jobs/incoming/` and a result netlist in the
//! same format plus a one-line JSON report appear in `<root>/jobs/done/`
//! (or `<root>/jobs/failed/` with an explicit outcome). Identification is
//! a table lookup for cones of up to five inputs, so the daemon keeps no
//! warm state: there is no cache to load at start or persist between
//! restarts.
//!
//! The three design rules, in priority order:
//!
//! 1. **Never take the daemon down for one job.** Panics are contained per
//!    job (`panicked` outcome), malformed inputs are typed errors.
//! 2. **Never lose or flap a result.** Every job transition is a rename;
//!    reports are written atomically and are immutable once present;
//!    orphaned jobs re-run idempotently after a crash.
//! 3. **Degrade explicitly, not silently.** Overload sheds jobs with an
//!    `overloaded` report; budget exhaustion completes with the partial
//!    verified result and a stop reason.
//!
//! See [`daemon`] for the lifecycle and [`outcome`] for the report format;
//! `DESIGN.md` in the workspace root has the full architecture notes.
//!
//! # Example
//!
//! ```
//! use sft_serve::{serve, ServeConfig};
//! use std::time::Duration;
//!
//! let root = std::env::temp_dir().join(format!("sft-serve-doc-{}", std::process::id()));
//! let incoming = root.join("jobs/incoming");
//! std::fs::create_dir_all(&incoming)?;
//! std::fs::write(incoming.join("tiny.bench"), "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")?;
//! std::fs::write(incoming.join("tiny.job"), "objective = gates\n")?;
//!
//! let config = ServeConfig {
//!     once: true,                       // drain what's there, then return
//!     handle_signals: false,
//!     poll: Duration::from_millis(1),
//!     ..ServeConfig::new(&root)
//! };
//! let summary = serve(&config)?;
//! assert_eq!(summary.done, 1);
//! assert!(root.join("jobs/done/tiny.report.json").exists());
//! # std::fs::remove_dir_all(&root)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod daemon;
pub mod outcome;
pub mod spec;

pub use daemon::{serve, ServeConfig, ServeSummary};
pub use outcome::{EngineOutcome, JobReport, Outcome};
pub use spec::{parse_spec, Chaos, JobSpec, SpecError};
