//! Procedures 2 and 3 of the paper: circuit optimization by replacing
//! subcircuits with comparison units.
//!
//! Both procedures traverse the circuit from the primary outputs towards
//! the primary inputs in reverse BFS (level) order. At every *marked* gate
//! output `g` they take the candidate subcircuits rooted at `g` — its
//! K-feasible cuts, the cones with at most `K` inputs, built bottom-up
//! with their truth tables once per pass and visited in priority order
//! (fewest inputs first, then ascending input ids) — keep those whose
//! function at `g` is a comparison function, and score replacing them with
//! the corresponding comparison unit:
//!
//! - **Procedure 2** maximizes the reduction in equivalent 2-input gates,
//!   breaking ties by the number of paths at `g`. Gates of the old cone
//!   that fan out elsewhere are excluded from the removable count, exactly
//!   as in the paper (Section 4.1).
//! - **Procedure 3** minimizes the number of paths at `g` (using the
//!   Section 2 identity `N_p(g) = Σ N_p(I_i)·K_p(I_i)`), with no secondary
//!   gate objective (Section 4.2).
//! - **Combined** (Section 4.3) maximizes a weighted sum of both
//!   improvements.
//!
//! After a replacement, the inputs of the selected subcircuit are marked
//! for further processing, and the internal gates that the replacement made
//! dead are never revisited. The whole procedure repeats in passes until a
//! pass yields no improvement.
//!
//! Every replacement is checked where the check is exact and cheap: right
//! after the splice, the new cone's function over the cut (at most 7 lines,
//! so 2^K bits) must equal the old cone's, or agree with it on the care set
//! when the unit was identified with satisfiability don't-cares. A
//! replacement that keeps its cut's function keeps every output's function,
//! so no whole-circuit check is needed.
//!
//! Each replacement is **its own transaction** on the edit journal of
//! [`sft_netlist`]: the unit build, the rewire and the check run inside one
//! checkpoint, which is committed when the check passes. A replacement
//! that fails its check is rolled back — O(its edits), not O(circuit) — and
//! ends the run with [`StopReason::VerificationRollback`]. Budget
//! exhaustion and cancellation end the pass where it stands: every
//! replacement committed so far is kept, and the run reports a
//! [`StopReason`], never an error that discards checked work. The
//! procedures are anytime algorithms, and the API preserves that property.
//!
//! The implementation is split in three:
//!
//! - [`cuts`](self) — the K-feasible cuts of every gate and their truth
//!   tables, enumerated at pass start (read-only on the circuit);
//! - [`candidates`](self) — identification and scoring of a gate's cuts
//!   (read-only on the circuit);
//! - [`pass`](self) — the pass loop and one output-to-input traversal,
//!   splicing in each accepted replacement, checking it against its cone
//!   and committing it.

mod candidates;
mod cuts;
#[cfg(test)]
mod oracle;
mod pass;

use sft_budget::{Budget, StopReason};
use sft_netlist::{Circuit, PathCount};
use sft_par::Jobs;
use std::fmt;

use crate::IdentifyOptions;

/// What a candidate replacement is scored by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Procedure 2: maximize the gate reduction, tie-break on paths.
    #[default]
    Gates,
    /// Procedure 3: minimize the paths at the replaced line.
    Paths,
    /// Section 4.3: maximize `gate_weight·Δgates + path_weight·Δpaths`.
    Combined {
        /// Weight of the equivalent-2-input-gate reduction.
        gate_weight: u32,
        /// Weight of the path-count reduction at the line.
        path_weight: u32,
    },
}

/// Options controlling the resynthesis procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResynthOptions {
    /// The input limit `K` of candidate subcircuits (the paper uses 5–7),
    /// in `1..=`[`sft_truth::MAX_INPUTS`]; resynthesis rejects any other
    /// value with [`ResynthError::MaxInputs`].
    pub max_inputs: usize,
    /// Cap on the cuts kept per node: every node keeps at most this many
    /// cuts, the first in priority order (fewest inputs first, then
    /// ascending input ids), and the cap is applied after each fanin is
    /// folded in (`0` acts as `1`). A gate's candidates are its cuts.
    pub max_candidates_per_gate: usize,
    /// The optimization objective.
    pub objective: Objective,
    /// Comparison-function identification options.
    pub identify: IdentifyOptions,
    /// Maximum number of passes.
    pub max_passes: usize,
    /// Use satisfiability don't-cares (reachable cone-input combinations)
    /// during identification — the first "issue to be investigated" of the
    /// paper's concluding remarks. Computed exactly with BDDs; expensive,
    /// off by default.
    pub use_satisfiability_dont_cares: bool,
    /// Allow replacing a subcircuit by an OR of up to this many comparison
    /// units when its function is not a comparison function — the paper's
    /// concluding remark 2. `1` (the default) reproduces the paper's
    /// single-unit procedure.
    pub max_cover_units: usize,
    /// Also search input polarities during identification: a cone whose
    /// function becomes a comparison function after complementing some of
    /// its inputs is replaced by a unit fed through inverters (which cost
    /// no equivalent 2-input gates and add no paths). A strict
    /// generalization of Definition 1; off by default to match the paper.
    pub allow_input_negation: bool,
    /// Ignored: resynthesis always runs on the calling thread. Kept only
    /// because the `perfbench` package sets it.
    pub jobs: Jobs,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        ResynthOptions {
            max_inputs: 5,
            max_candidates_per_gate: 200,
            objective: Objective::Gates,
            identify: IdentifyOptions::default(),
            max_passes: 16,
            use_satisfiability_dont_cares: false,
            max_cover_units: 1,
            allow_input_negation: false,
            jobs: Jobs::serial(),
        }
    }
}

/// Errors from resynthesis.
///
/// Only genuinely unrecoverable conditions are errors: an input limit out
/// of range, a circuit that fails validation (or a structural edit that
/// cannot be applied; that replacement is rolled back, and the ones before
/// it stay). Recoverable interruptions — a replacement that fails its
/// check, budget exhaustion, cancellation — keep every replacement
/// committed before them and are reported through
/// [`ResynthReport::stop_reason`] instead.
#[derive(Debug)]
pub enum ResynthError {
    /// [`ResynthOptions::max_inputs`] is outside `1..=`[`sft_truth::MAX_INPUTS`].
    MaxInputs(usize),
    /// The circuit failed validation before or during resynthesis.
    Netlist(sft_netlist::NetlistError),
}

impl fmt::Display for ResynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResynthError::MaxInputs(k) => {
                write!(f, "max_inputs (K) is {k}, outside 1..={}", sft_truth::MAX_INPUTS)
            }
            ResynthError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for ResynthError {}

impl From<sft_netlist::NetlistError> for ResynthError {
    fn from(e: sft_netlist::NetlistError) -> Self {
        ResynthError::Netlist(e)
    }
}

/// Summary of a resynthesis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResynthReport {
    /// Passes run: every pass that reached its end, plus an interrupted
    /// pass when it kept a replacement.
    pub passes: usize,
    /// Subcircuit replacements kept, each checked and committed on its own.
    pub replacements: usize,
    /// Equivalent 2-input gates before.
    pub gates_before: u64,
    /// Equivalent 2-input gates after.
    pub gates_after: u64,
    /// Paths before (saturation-aware).
    pub paths_before: PathCount,
    /// Paths after (saturation-aware).
    pub paths_after: PathCount,
    /// Why the run ended. Everything other than
    /// [`StopReason::Converged`] / [`StopReason::MaxPasses`] means the run
    /// was cut short and the circuit holds every replacement committed
    /// before the stop.
    pub stop_reason: StopReason,
    /// Always 0: resynthesis builds no verification BDDs. Kept only because
    /// the `perfbench` package reads it.
    pub verify_nodes: usize,
}

impl fmt::Display for ResynthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} passes, {} replacements: gates {} -> {}, paths {} -> {} ({})",
            self.passes,
            self.replacements,
            self.gates_before,
            self.gates_after,
            self.paths_before,
            self.paths_after,
            self.stop_reason
        )
    }
}

/// Procedure 2: reduce the number of equivalent 2-input gates.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn procedure2(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    let opts = ResynthOptions { objective: Objective::Gates, ..options.clone() };
    resynthesize(circuit, &opts)
}

/// Procedure 3: reduce the number of paths.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn procedure3(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    let opts = ResynthOptions { objective: Objective::Paths, ..options.clone() };
    resynthesize(circuit, &opts)
}

/// Runs the resynthesis procedure with the configured objective until a
/// pass yields no improvement (or `max_passes`).
///
/// Equivalent to [`resynthesize_with_budget`] with an unlimited budget.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn resynthesize(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    resynthesize_with_budget(circuit, options, &Budget::unlimited())
}

/// Runs resynthesis under an effort budget, one transaction per
/// replacement.
///
/// Every replacement is checked right after its splice: the rewired cone's
/// truth table over the cut must equal the old cone's (on the care set,
/// when the unit was identified with don't-cares). A match commits the
/// replacement; a mismatch **rolls that replacement back** (cost
/// proportional to its edits, not the circuit) and ends the run with
/// [`StopReason::VerificationRollback`]. A deadline, step budget or
/// cancellation ends the pass where it stands. Either way the function
/// returns `Ok` with the [`StopReason`] and keeps every replacement
/// committed before the stop, so the returned circuit is always equivalent
/// to the input.
///
/// # Errors
///
/// Returns [`ResynthError::MaxInputs`] when `K` is outside
/// `1..=`[`sft_truth::MAX_INPUTS`] (the circuit is left untouched), and
/// [`ResynthError::Netlist`] for invalid input circuits or internal
/// structural failures; never for interruptions.
pub fn resynthesize_with_budget(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
) -> Result<ResynthReport, ResynthError> {
    if !(1..=sft_truth::MAX_INPUTS).contains(&options.max_inputs) {
        return Err(ResynthError::MaxInputs(options.max_inputs));
    }
    pass::run(circuit, options, budget)
}

#[cfg(test)]
mod tests {
    use super::candidates::removable_gates;
    use super::pass::matches_cone;
    use super::*;
    use sft_netlist::bench_format::parse;

    /// A chain of 2-input ANDs is a comparison function; Procedure 2 should
    /// keep its cost (no regression) and Procedure 3 must not increase
    /// paths.
    #[test]
    fn and_chain_is_stable() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(t1, c)\ny = AND(t2, d)\n";
        let mut c = parse(src, "chain").unwrap();
        let before = c.two_input_gate_count();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.gates_after <= before);
        assert!(report.paths_after <= report.paths_before);
    }

    /// A redundant double implementation of an XOR-style compare collapses:
    /// y = (a AND !b) OR (!a AND b) is the interval [1,2] and becomes a
    /// 3-eq2-gate comparison unit instead of 3 gates + 2 inverters... the
    /// gate count must not increase and function must hold.
    #[test]
    fn xor_sop_replaced_without_regression() {
        let src = "\
INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
t1 = AND(a, nb)\nt2 = AND(na, b)\ny = OR(t1, t2)\n";
        let original = parse(src, "xor").unwrap();
        let mut c = original.clone();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.gates_after <= report.gates_before);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// An inefficient 2-of-2 detector: y = ab + ab(c + !c)-style padding
    /// reduces to a single AND.
    #[test]
    fn padded_and_collapses() {
        let src = "\
INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(b, a)\ny = OR(t1, t2)\n";
        let original = parse(src, "pad").unwrap();
        let mut c = original.clone();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(
            report.gates_after < report.gates_before,
            "redundant duplicate AND must collapse: {report}"
        );
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn procedure3_reduces_paths_on_wide_reconvergence() {
        // f = abc + ab!c has 6 paths as an SOP but is the single cube ab
        // (interval): paths drop to 2.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nnc = NOT(c)\n\
t1 = AND(a, b)\np1 = AND(t1, c)\np2 = AND(t1, nc)\ny = OR(p1, p2)\n";
        let original = parse(src, "recon").unwrap();
        let mut c = original.clone();
        let report = procedure3(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.paths_after < report.paths_before, "{report}");
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn function_preserved_on_c17() {
        let src = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";
        let original = parse(src, "c17").unwrap();
        for objective in [
            Objective::Gates,
            Objective::Paths,
            Objective::Combined { gate_weight: 1, path_weight: 1 },
        ] {
            let mut c = original.clone();
            let opts = ResynthOptions { objective, ..ResynthOptions::default() };
            let report = resynthesize(&mut c, &opts).unwrap();
            assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
            assert!(report.gates_after <= report.gates_before || objective == Objective::Paths);
        }
    }

    #[test]
    fn removable_excludes_shared_gates() {
        // t1 fans out to y and z: replacing y's cone cannot remove t1.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
t1 = AND(a, b)\ny = OR(t1, c)\nz = NOT(t1)\n";
        let mut c = parse(src, "shared").unwrap();
        let y = c.outputs()[0];
        let t1 = c.iter().find(|(_, n)| n.name() == Some("t1")).map(|(id, _)| id).unwrap();
        c.enable_views();
        let removable = removable_gates(y, &[y, t1], c.views().unwrap());
        assert!(!removable.contains(&t1), "shared gate must not be counted removable");
        assert!(removable.contains(&y));
    }

    /// K outside 1..=7 is an error, and the circuit is left untouched.
    #[test]
    fn k_outside_the_table_range_is_rejected() {
        let original = budget_fixture();
        for k in [0, 8, 12] {
            let mut c = original.clone();
            let opts = ResynthOptions { max_inputs: k, ..ResynthOptions::default() };
            let err = resynthesize(&mut c, &opts).unwrap_err();
            assert!(matches!(err, ResynthError::MaxInputs(got) if got == k), "{err}");
            assert_eq!(c, original);
        }
        for k in [1, sft_truth::MAX_INPUTS] {
            let opts = ResynthOptions { max_inputs: k, ..ResynthOptions::default() };
            assert!(resynthesize(&mut original.clone(), &opts).is_ok());
        }
    }

    /// Resynthesis leaves no residue on the circuit: views are detached and
    /// no transaction is open, on every exit path.
    #[test]
    fn run_leaves_circuit_without_views_or_transactions() {
        let mut c = budget_fixture();
        procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(c.views().is_none());
        assert!(!c.in_transaction());
    }

    /// The per-replacement check compares the rewired cone with the old
    /// one over the cut: a wrong function is a mismatch, and a difference
    /// only on don't-care minterms is not.
    #[test]
    fn replacement_check_compares_on_the_care_set() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ng = AND(a, b)\ny = OR(g, c)\n";
        let mut c = parse(src, "check").unwrap();
        let id = |name: &str| c.iter().find(|(_, n)| n.name() == Some(name)).unwrap().0;
        let (a, b, g) = (id("a"), id("b"), id("g"));
        let cut = [a, b];
        let before = c.cone_function(g, &cut).unwrap();
        assert!(matches_cone(&c, g, &cut, &before, None), "an unchanged cone matches");
        // AND -> OR differs on minterms 01 and 10 of (a, b).
        c.rewire(g, sft_netlist::GateKind::Or, vec![a, b]).unwrap();
        assert!(!matches_cone(&c, g, &cut, &before, None), "a wrong function is a mismatch");
        let dc = |minterms: &[u64]| sft_truth::TruthTable::from_minterms(2, minterms).unwrap();
        assert!(matches_cone(&c, g, &cut, &before, Some(&dc(&[1, 2]))));
        assert!(!matches_cone(&c, g, &cut, &before, Some(&dc(&[1]))), "10 is a care minterm");
        assert!(!matches_cone(&c, g, &cut, &before, Some(&dc(&[0, 3]))));
    }

    #[test]
    fn dont_care_option_still_exact() {
        // With unreachable cone inputs, dc-identification may restructure
        // more aggressively; whole-circuit function must still hold.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
na = NOT(a)\nt1 = AND(a, na)\nt2 = OR(t1, b)\ny = AND(t2, c)\n";
        let original = parse(src, "dc").unwrap();
        let mut c = original.clone();
        let opts =
            ResynthOptions { use_satisfiability_dont_cares: true, ..ResynthOptions::default() };
        resynthesize(&mut c, &opts).unwrap();
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// Concluding remark 2: with multi-unit covers enabled, a cone that is
    /// not a comparison function (majority) can still be replaced by an OR
    /// of units when that helps; the function must be preserved and gates
    /// must not regress relative to the single-unit run.
    #[test]
    fn multi_unit_cover_extension() {
        // A deliberately wasteful majority implementation: the flat SOP of
        // maj(a,b,c) duplicated through buffers.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(a, c)\nt3 = AND(b, c)\no1 = OR(t1, t2)\ny = OR(o1, t3)\n";
        let original = parse(src, "maj").unwrap();
        let single = {
            let mut c = original.clone();
            procedure2(&mut c, &ResynthOptions::default()).unwrap();
            c
        };
        let multi = {
            let mut c = original.clone();
            let opts = ResynthOptions { max_cover_units: 3, ..ResynthOptions::default() };
            procedure2(&mut c, &opts).unwrap();
            c
        };
        assert!(sft_bdd::equivalent(&original, &multi).unwrap().is_equivalent());
        assert!(multi.two_input_gate_count() <= original.two_input_gate_count());
        // The extension can only widen the search space.
        assert!(multi.two_input_gate_count() <= single.two_input_gate_count());
    }

    /// The polarity extension finds replacements the plain procedure
    /// cannot: on-set {0, 3} over (b, c) inside a cone is a comparison
    /// function only after complementing one input.
    #[test]
    fn input_negation_extension_preserves_function() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
nb = NOT(b)\nnc = NOT(c)\nt1 = AND(nb, nc)\nt2 = AND(b, c)\no = OR(t1, t2)\ny = AND(a, o)\n";
        let original = parse(src, "xnor_cone").unwrap();
        let mut c = original.clone();
        let opts = ResynthOptions { allow_input_negation: true, ..ResynthOptions::default() };
        procedure2(&mut c, &opts).unwrap();
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
        assert!(c.two_input_gate_count() <= original.two_input_gate_count());
    }

    #[test]
    fn report_display() {
        let r = ResynthReport {
            passes: 2,
            replacements: 3,
            gates_before: 10,
            gates_after: 8,
            paths_before: PathCount::exact(100),
            paths_after: PathCount::exact(60),
            stop_reason: StopReason::Converged,
            verify_nodes: 0,
        };
        assert_eq!(
            r.to_string(),
            "2 passes, 3 replacements: gates 10 -> 8, paths 100 -> 60 (converged)"
        );
    }

    /// The wasteful XOR SOP used by the budget acceptance tests: several
    /// passes of work are available, so interruptions can land mid-run.
    fn budget_fixture() -> Circuit {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
t1 = AND(a, nb)\nt2 = AND(na, b)\nx = OR(t1, t2)\n\
p1 = AND(x, c)\np2 = AND(c, x)\ny = OR(p1, p2)\n";
        parse(src, "budget_fixture").unwrap()
    }

    /// A pre-expired deadline stops before the first pass: `Ok` report with
    /// `Deadline`, zero passes, and the circuit untouched.
    #[test]
    fn pre_expired_deadline_returns_input_unchanged() {
        let original = budget_fixture();
        let mut c = original.clone();
        let budget = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::Deadline);
        assert_eq!(report.passes, 0);
        assert_eq!(report.replacements, 0);
        assert_eq!(report.gates_after, report.gates_before);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A step budget that runs out inside the first pass, after its
    /// replacement: the run stops with `StepBudget` and keeps the
    /// replacement, and the interrupted pass counts.
    #[test]
    fn step_budget_mid_pass_keeps_committed_replacements() {
        let original = budget_fixture();
        let limit = 30;
        let first_pass = Budget::unlimited().with_step_limit(u64::MAX);
        let opts = ResynthOptions { max_passes: 1, ..ResynthOptions::default() };
        resynthesize_with_budget(&mut original.clone(), &opts, &first_pass).unwrap();
        assert!(u64::MAX - first_pass.remaining_steps().unwrap() > limit, "limit ends pass 1");
        let mut c = original.clone();
        let budget = Budget::unlimited().with_step_limit(limit);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::StepBudget, "{report}");
        assert!(report.replacements > 0, "{report}");
        assert!(report.passes > 0, "a pass that kept a replacement counts: {report}");
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A raised cancellation flag stops the run with `Cancelled` and the
    /// last committed circuit.
    #[test]
    fn cancellation_stops_the_run() {
        let original = budget_fixture();
        let mut c = original.clone();
        let flag = sft_budget::CancelFlag::new();
        flag.cancel();
        let budget = Budget::unlimited().with_cancel(flag);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::Cancelled);
        assert_eq!(report.passes, 0);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A generous budget changes nothing: same result as the unbudgeted
    /// run, stop reason still a natural completion.
    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let mut unbudgeted = budget_fixture();
        let r1 = resynthesize(&mut unbudgeted, &ResynthOptions::default()).unwrap();
        let mut budgeted = budget_fixture();
        let budget = Budget::unlimited()
            .with_time_limit(std::time::Duration::from_secs(3600))
            .with_step_limit(1_000_000);
        let r2 =
            resynthesize_with_budget(&mut budgeted, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(r1, r2);
        assert!(!r2.stop_reason.is_early());
        assert!(sft_bdd::equivalent(&unbudgeted, &budgeted).unwrap().is_equivalent());
    }
}
