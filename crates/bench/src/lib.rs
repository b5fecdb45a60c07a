//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each `tableN` binary prints the same rows the paper's Table N reports,
//! measured on the substitute benchmark suite (see `sft-circuits` and
//! DESIGN.md). The logic lives here in library form so the tests can
//! smoke-run scaled-down versions.
//!
//! Budget scaling: the paper applies up to 30,000,000 random patterns; on
//! one core the defaults here are scaled down (see [`ExperimentConfig`]).
//! All before/after comparisons use **equal seeds and budgets**, which is
//! what makes the paper's claims (unchanged stuck-at testability, improved
//! robust PDF coverage) budget-independent.
//!
//! # Examples
//!
//! Experiment drivers parse their budget and parallelism knobs from CLI
//! arguments; `--jobs` feeds only the Table 7 robust PDF campaign, the one
//! experiment engine that runs on worker threads:
//!
//! ```
//! use sft_bench::ExperimentConfig;
//!
//! let args = ["--quick", "--patterns", "4096", "--jobs", "4", "--seed", "7"];
//! let cfg = ExperimentConfig::from_args(args.iter().map(|s| s.to_string()))?;
//! assert!(cfg.quick);
//! assert_eq!(cfg.stuck_at_patterns, 4096);
//! assert_eq!(cfg.jobs.get(), 4);
//! assert_eq!(cfg.seed, 7);
//! # Ok::<(), String>(())
//! ```

pub mod experiments;
pub mod format;

pub use experiments::{
    table2_rows, table3_rows, table4_rows, table5_rows, table6_rows, table7_rows, ExperimentConfig,
    Table2Row, Table3Row, Table4Row, Table5Row, Table6Row, Table7Row,
};
