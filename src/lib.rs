//! `sft` — synthesis-for-testability of combinational logic circuits via
//! comparison functions.
//!
//! A from-scratch Rust reproduction of **Pomeranz & Reddy, "On
//! Synthesis-for-Testability of Combinational Logic Circuits", 32nd Design
//! Automation Conference, 1995**, together with every substrate the paper's
//! flow depends on: a gate-level netlist with Procedure-1 path counting, an
//! ISCAS-style `.bench` reader/writer, BDD-based equivalence checking,
//! parallel-pattern stuck-at fault simulation, PODEM ATPG with redundancy
//! removal, a robust path-delay-fault engine, a SIS-style technology
//! mapper, and a redundancy-addition-and-removal baseline optimizer.
//!
//! This facade crate re-exports the workspace members under stable module
//! names. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results on every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use sft::core::{identify, procedure2, IdentifyOptions, ResynthOptions};
//! use sft::netlist::bench_format::parse;
//! use sft::truth::TruthTable;
//!
//! // The paper's f2 is a comparison function with L = 5, U = 10.
//! let f2 = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14])?;
//! let spec = identify(&f2, &IdentifyOptions::default()).expect("comparison function");
//! assert_eq!((spec.lower, spec.upper), (5, 10));
//!
//! // Resynthesize a circuit with Procedure 2 (gates minimized); every
//! // replacement is checked against the cone it replaces.
//! let mut c = parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt1 = AND(a, b)\nt2 = AND(b, a)\ny = OR(t1, t2)\n",
//!     "demo",
//! )?;
//! let report = procedure2(&mut c, &ResynthOptions::default())?;
//! assert!(report.gates_after < report.gates_before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// Truth tables and cubes for functions of up to 7 inputs.
pub use sft_truth as truth;

/// The gate-level circuit model, `.bench` I/O, path counting and
/// structural transforms.
pub use sft_netlist as netlist;

/// ROBDDs and combinational equivalence checking.
pub use sft_bdd as bdd;

/// Parallel-pattern logic & stuck-at fault simulation and random-pattern
/// campaigns.
pub use sft_sim as sim;

/// PODEM ATPG, redundancy identification and removal.
pub use sft_atpg as atpg;

/// Path delay faults: enumeration, robust sensitization, two-pattern
/// campaigns.
pub use sft_delay as delay;

/// Comparison functions, comparison units, and Procedures 2 & 3 — the
/// paper's contribution.
pub use sft_core as core;

/// SIS-style technology mapping (Table 4 substrate).
pub use sft_techmap as techmap;

/// The RAMBO_C-style redundancy-addition-and-removal baseline (Table 3).
pub use sft_rambo as rambo;

/// Benchmark circuit generators and the `irs*` substitute suite.
pub use sft_circuits as circuits;

/// The effort governor: budgets (deadline, steps), cancellation, and the
/// workspace-wide [`StopReason`](sft_budget::StopReason) vocabulary.
pub use sft_budget as budget;

/// Fork-join parallelism for the two threaded paths (PDF pattern-pair
/// blocks and the serve daemon's workers): the [`Jobs`](sft_par::Jobs)
/// thread-count knob, an order-preserving map, admission control, and
/// counter-based RNG stream derivation.
pub use sft_par as par;

/// Multi-format circuit I/O behind one [`Format`](sft_io::Format)-dispatched
/// API: `.bench`, canonical structural Verilog, ASCII/binary AIGER, and
/// LUT-`k` coverings. See `docs/formats.md` for the formats contract.
pub use sft_io as io;

/// The crash-safe job-directory resynthesis daemon behind `sft serve`:
/// per-job panic isolation, admission control with load shedding, and
/// graceful shutdown.
pub use sft_serve as serve;
