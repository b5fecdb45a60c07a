//! Stuck-at test generation (PODEM) and redundancy removal.
//!
//! The paper's flow needs deterministic ATPG in two places:
//!
//! 1. the benchmark circuits are **irredundant** to begin with (obtained in
//!    the paper with the redundancy-removal procedure of Kajihara et al.
//!    \[15\]), and
//! 2. Procedure 2 can introduce redundant stuck-at faults, which the paper
//!    removes by running \[15\] again after resynthesis.
//!
//! This crate provides both: [`generate_test`] is a PODEM implementation
//! over the 5-valued D-algebra with event-driven implication and an
//! explicit backtrack limit, and
//! [`remove_redundancies`] iteratively replaces proven-untestable fault
//! sites by constants and re-simplifies, which is exactly the classical
//! redundancy-removal loop.
//!
//! # Examples
//!
//! ```
//! use sft_atpg::{generate_test, TestResult};
//! use sft_netlist::bench_format::parse;
//! use sft_sim::Fault;
//!
//! // The absorbed AND gate in y = a OR (a AND b) is redundant.
//! let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n", "abs")?;
//! let t = c.iter().find(|(_, n)| n.name() == Some("t")).map(|(id, _)| id).unwrap();
//! assert_eq!(generate_test(&c, Fault::stem(t, false), 10_000), TestResult::Untestable);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod podem;
mod redundancy;
mod testset;

pub use podem::{generate_test, generate_test_with, PodemContext, TestResult};
pub use redundancy::{remove_redundancies, RedundancyReport};
pub use testset::{generate_test_set, generate_test_set_with_budget, TestSet, TestSetOptions};
