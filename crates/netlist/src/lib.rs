//! Gate-level combinational circuit model for the `sft` workspace.
//!
//! This crate provides the structural substrate every other crate builds on:
//!
//! - [`Circuit`] — a mutable gate-level netlist (DAG) with named primary
//!   inputs and outputs and multi-input gates;
//! - Procedure 1 of Pomeranz & Reddy (DAC 1995): [`Circuit::path_count`] and
//!   [`Circuit::path_labels`] count the paths from the primary inputs to
//!   every line;
//! - equivalent 2-input gate counting ([`Circuit::two_input_gate_count`]),
//!   the paper's area metric;
//! - ISCAS-style `.bench` parsing and writing ([`bench_format`]);
//! - structural transforms ([`simplify`]): constant propagation, buffer
//!   collapsing, duplicate-fanin cleanup, same-kind chain merging,
//!   structural hashing and dead-logic sweeping;
//! - cone extraction to truth tables ([`Circuit::cone_function`]), the bridge
//!   used by comparison-function identification;
//! - a transactional edit journal ([`Circuit::begin_edit`]) with O(#edits)
//!   rollback, and a maintained fanout adjacency with primary-output
//!   reference counts ([`Circuit::enable_views`]) patched per edit instead
//!   of rebuilt per call.
//!
//! # Examples
//!
//! ```
//! use sft_netlist::{Circuit, GateKind};
//!
//! let mut c = Circuit::new("demo");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, vec![a, b])?;
//! c.add_output(g, "y");
//!
//! assert_eq!(c.path_count(), 2);
//! assert_eq!(c.two_input_gate_count(), 1);
//! assert_eq!(c.eval_assignment(&[true, true]), vec![true]);
//! # Ok::<(), sft_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

pub mod bench_format;
mod circuit;
mod cone;
mod error;
pub mod export;
mod gate;
mod journal;
mod paths;
pub mod simplify;
mod stats;
mod synth;
mod views;

pub use circuit::{Circuit, Node, NodeId, NodeMap};
pub use error::NetlistError;
pub use gate::GateKind;
pub use journal::Checkpoint;
pub use paths::PathCount;
pub use stats::{two_input_cost, CircuitStats, MemoryStats};
pub use views::CircuitViews;
