//! Parallel-pattern logic and stuck-at fault simulation.
//!
//! This crate reimplements the fault-simulation substrate the paper relies
//! on (FSIM \[17\] — Lee & Ha's parallel-pattern single-fault-propagation
//! simulator) in safe Rust:
//!
//! - [`Simulator`] — 64-way bit-parallel good-machine simulation;
//! - [`Fault`]/[`FaultSite`] — single stuck-at faults on stems and fanout
//!   branches, with [`fault_list`] and equivalence [`collapse`];
//! - [`FaultSim`]/[`WideFaultSim`] — parallel-pattern single-fault
//!   propagation by critical-path tracing: one backward sensitization sweep
//!   per fanout-free region resolves every fault inside it, and stem
//!   observability is gated at immediate dominators and cached per block,
//!   so faults sharing a stem share one propagation ([`FaultSimTables`]
//!   holds the read-only [`SoaCircuit`] precomputation so several
//!   simulators share one copy). A brute-force faulty-machine oracle in
//!   the crate's tests pins the masks fault by fault and pattern by
//!   pattern;
//! - [`SimWord`] — the simulation word abstraction: `u64` (64 patterns per
//!   sweep) or the auto-vectorizable 256-bit block [`W256`];
//! - [`campaign`] — the random-pattern testability experiment driver used by
//!   Table 6 of the paper (fault coverage, remaining faults, last effective
//!   pattern). Campaigns run serially and sweep four pattern blocks at a
//!   time ([`pattern_block`] derives each block's patterns purely from
//!   `(seed, block)`).
//!
//! # Examples
//!
//! ```
//! use sft_netlist::bench_format::parse;
//! use sft_sim::{fault_list, FaultSim};
//!
//! let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let faults = fault_list(&c);
//! let mut fsim = FaultSim::new(&c);
//! // Pattern a=1,b=1 detects y stuck-at-0 (among others).
//! let detected = fsim.detect_block(&faults, &[u64::MAX, u64::MAX]);
//! assert!(detected.iter().any(Option::is_some));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod campaign;
mod ctrace;
mod fault;
mod fsim;
mod logic;
mod measures;
#[cfg(test)]
mod oracle;
mod soa;
mod word;

pub use campaign::{campaign, pattern_block, CampaignConfig, CampaignResult};
pub use fault::{collapse, fault_list, Fault, FaultSite};
pub use fsim::{FaultSim, FaultSimTables, WideFaultSim};
pub use logic::Simulator;
pub use measures::{cop_measures, CopMeasures};
pub use soa::{PackedKind, SoaCircuit};
pub use word::{SimWord, W256};
