//! Comparison functions, comparison units and the synthesis-for-testability
//! procedures of Pomeranz & Reddy, *"On Synthesis-for-Testability of
//! Combinational Logic Circuits"*, 32nd DAC, 1995.
//!
//! A **comparison function** (Definition 1 of the paper) is a single-output
//! Boolean function whose 1-minterms, under some permutation of the inputs,
//! are exactly the integers of one interval `[L, U]`. Such functions are
//! implemented by **comparison units** — a `>=L` block, a `<=U` block and an
//! output AND gate — which have at most two paths from any input to the
//! output and are fully robustly testable for path delay faults.
//!
//! The crate provides, crate-by-module:
//!
//! - [`ComparisonSpec`] — the certificate `(permutation, L, U, complement)`;
//! - [`identify`] — deciding whether a function is a comparison function
//!   (the paper's capped permutation search *and* an exact recursive
//!   decomposition; both also handle the complemented case used in the
//!   paper's experiments, and optionally satisfiability don't-cares);
//! - [`mod@unit`] — constructing comparison units (Figures 1–5: `>=L`/`<=U`
//!   blocks, free variables, trivial-bound omission, same-kind gate
//!   merging) and costing them;
//! - [`testability`] — the constructive robust two-pattern test set of
//!   Section 3.3 (reproducing Table 1);
//! - [`cover`] — expressing an arbitrary function as an OR of comparison
//!   units (the extension sketched in Section 3.1);
//! - [`resynth`] — Procedures 2 and 3: local replacement of subcircuits by
//!   comparison units to minimize the equivalent 2-input gate count or the
//!   path count.
//!
//! # Examples
//!
//! The paper's running example `f₂` (Section 3.1) is a comparison function
//! under the input-reversal permutation with `L = 5`, `U = 10`:
//!
//! ```
//! use sft_core::{identify, IdentifyOptions};
//! use sft_truth::TruthTable;
//!
//! let f2 = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14])?;
//! let spec = identify(&f2, &IdentifyOptions::default()).expect("f2 is a comparison function");
//! assert_eq!((spec.lower, spec.upper), (5, 10));
//! assert!(!spec.complemented);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cover;
mod identify;
pub mod resynth;
mod spec;
pub mod testability;
pub mod unit;

pub use identify::{
    identify, identify_cache_clear, identify_cache_save, identify_cache_stats, identify_with_dc,
    identify_with_polarities, CacheStats, IdentifyMethod, IdentifyOptions,
};
pub use resynth::{
    procedure2, procedure3, resynthesize, resynthesize_with_budget, Objective, ResynthError,
    ResynthOptions, ResynthReport,
};
pub use sft_budget::{Budget, CancelFlag, Exhausted, StopReason};
pub use sft_truth::MAX_INPUTS;
pub use spec::{ComparisonSpec, SpecError};
pub use unit::{build_standalone_unit, build_unit_in, UnitCost};
