//! Reduced ordered binary decision diagrams (ROBDDs) and combinational
//! equivalence checking.
//!
//! The resynthesis procedures of the paper replace subcircuits by comparison
//! units and check each replacement on its cut's truth table; this crate is
//! the whole-circuit oracle around those edits. Every transformation in the
//! workspace can be (and, in the test suites and `sft equiv`, is) verified
//! by building BDDs for the original and modified circuits in a shared
//! manager and comparing node references. It also computes the
//! satisfiability don't-cares of a cut for resynthesis.
//!
//! The manager is hash-consed without complement edges; a configurable node
//! cap turns pathological blowups into an error instead of memory
//! exhaustion.
//!
//! # Examples
//!
//! ```
//! use sft_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let a = m.var(0)?;
//! let b = m.var(1)?;
//! let ab = m.and(a, b)?;
//! let ba = m.and(b, a)?;
//! assert_eq!(ab, ba); // hash-consing makes equivalence a pointer check
//! # Ok::<(), sft_bdd::BddError>(())
//! ```

mod bridge;
mod manager;

pub use bridge::{
    circuit_bdds, circuit_bdds_budgeted, circuit_node_bdds_budgeted, circuit_node_bdds_ordered,
    dfs_input_order, equivalent, equivalent_with_manager, equivalent_with_manager_budgeted,
    CheckResult,
};
pub use manager::{BddError, BddRef, Manager, DEFAULT_NODE_LIMIT};
