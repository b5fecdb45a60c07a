//! A redundancy-addition-and-removal (RAR) multi-level optimizer — the
//! RAMBO_C-style baseline of Table 3 (ref. \[1\], Cheng & Entrena, "Multi-Level
//! Logic Optimization by Redundancy Addition and Removal").
//!
//! The mechanism: adding a connection that is provably **redundant** (its
//! new-pin stuck-at-non-controlling fault is untestable) does not change
//! the circuit function, but it can make *other* connections redundant;
//! removing those shrinks the circuit. This crate implements the loop:
//!
//! 1. pick a candidate `(source wire, destination gate)` pair (seeded
//!    random sampling, filtered cheaply by random-pattern fault
//!    simulation);
//! 2. prove the tentative connection redundant with PODEM; otherwise
//!    discard;
//! 3. run full redundancy removal on the augmented circuit; keep the
//!    result only if the equivalent 2-input gate count dropped.
//!
//! Every accepted step is equivalence-preserving **by construction**
//! (additions proven redundant, removals proven redundant), and the
//! optimizer re-verifies the final result against the input with BDDs.
//!
//! Like the original tool, RAR tends to reduce gates while *increasing*
//! the number of paths — the contrast the paper draws in Table 3.
//!
//! # Examples
//!
//! ```no_run
//! use sft_netlist::bench_format::parse;
//! use sft_rambo::{optimize, RamboOptions};
//!
//! let mut c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
//! let report = optimize(&mut c, &RamboOptions::default())?;
//! println!("gates: {} -> {}", report.gates_before, report.gates_after);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sft_atpg::{generate_test, remove_redundancies, TestResult};
use sft_budget::{Budget, StopReason};
use sft_netlist::{Circuit, GateKind, NodeId};
use sft_sim::{Fault, FaultSim};
use std::fmt;

/// Options for the RAR optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamboOptions {
    /// PODEM backtrack limit for redundancy proofs.
    pub backtrack_limit: u64,
    /// Number of candidate connections to try.
    pub candidate_attempts: usize,
    /// Stop after this many accepted (gate-reducing) additions.
    pub max_accepted: usize,
    /// Random-pattern blocks (64 pairs each) used to pre-filter candidates.
    pub filter_blocks: usize,
    /// RNG seed for candidate sampling.
    pub seed: u64,
}

impl Default for RamboOptions {
    fn default() -> Self {
        RamboOptions {
            backtrack_limit: 20_000,
            candidate_attempts: 400,
            max_accepted: 16,
            filter_blocks: 4,
            seed: 0x8a3,
        }
    }
}

/// Summary of a RAR run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RamboReport {
    /// Candidates sampled.
    pub attempts: usize,
    /// Connections proven redundant (added tentatively).
    pub proven_redundant: usize,
    /// Additions kept because removal shrank the circuit.
    pub accepted: usize,
    /// Equivalent 2-input gates before.
    pub gates_before: u64,
    /// Equivalent 2-input gates after.
    pub gates_after: u64,
    /// Paths before.
    pub paths_before: u128,
    /// Paths after.
    pub paths_after: u128,
    /// Why the candidate loop stopped. [`StopReason::MaxPasses`] is the
    /// ordinary outcome (attempt or acceptance cap reached);
    /// [`StopReason::Converged`] means the circuit ran out of candidate
    /// sites. Every accepted addition is equivalence-preserving by
    /// construction, so an early stop loses no work.
    pub stop_reason: StopReason,
}

impl fmt::Display for RamboReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts, {} redundant, {} accepted: gates {} -> {}, paths {} -> {} ({})",
            self.attempts,
            self.proven_redundant,
            self.accepted,
            self.gates_before,
            self.gates_after,
            self.paths_before,
            self.paths_after,
            self.stop_reason
        )
    }
}

/// Errors from the optimizer.
#[derive(Debug)]
pub enum RamboError {
    /// Netlist manipulation failed.
    Netlist(sft_netlist::NetlistError),
    /// Final BDD verification failed (internal bug guard).
    VerificationFailed,
    /// BDD blow-up during verification.
    Bdd(sft_bdd::BddError),
}

impl fmt::Display for RamboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RamboError::Netlist(e) => write!(f, "netlist error: {e}"),
            RamboError::VerificationFailed => write!(f, "optimizer changed the function"),
            RamboError::Bdd(e) => write!(f, "bdd error: {e}"),
        }
    }
}

impl std::error::Error for RamboError {}

impl From<sft_netlist::NetlistError> for RamboError {
    fn from(e: sft_netlist::NetlistError) -> Self {
        RamboError::Netlist(e)
    }
}

impl From<sft_bdd::BddError> for RamboError {
    fn from(e: sft_bdd::BddError) -> Self {
        RamboError::Bdd(e)
    }
}

/// Quick random-pattern filter: `true` if the fault survives (may be
/// redundant), `false` if some random pattern detects it.
fn survives_random_filter(
    circuit: &Circuit,
    fault: Fault,
    blocks: usize,
    rng: &mut StdRng,
) -> bool {
    let mut fsim = FaultSim::new(circuit);
    let faults = [fault];
    let mut words = vec![0u64; circuit.inputs().len()];
    for _ in 0..blocks {
        for w in words.iter_mut() {
            *w = rng.gen();
        }
        if fsim.detect_block(&faults, &words)[0].is_some() {
            return false;
        }
    }
    true
}

/// Runs redundancy addition and removal on `circuit`.
///
/// # Errors
///
/// Returns [`RamboError::VerificationFailed`] if the final BDD check fails
/// (which would indicate an internal bug), or propagates netlist/BDD
/// errors.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn optimize(circuit: &mut Circuit, options: &RamboOptions) -> Result<RamboReport, RamboError> {
    optimize_with_budget(circuit, options, &Budget::unlimited())
}

/// Runs redundancy addition and removal under an effort [`Budget`].
///
/// The budget is consumed one step per candidate attempt and checked
/// before each attempt; exhaustion (deadline, step budget, cancellation)
/// stops the loop cleanly and is reported in
/// [`RamboReport::stop_reason`]. Because every accepted addition is
/// individually proven redundant, the circuit is valid and equivalent to
/// the input at every stopping point — an exhausted budget returns the
/// best result so far, not an error.
///
/// # Errors
///
/// Returns [`RamboError::VerificationFailed`] if the final BDD check fails
/// (which would indicate an internal bug), or propagates netlist/BDD
/// errors.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn optimize_with_budget(
    circuit: &mut Circuit,
    options: &RamboOptions,
    budget: &Budget,
) -> Result<RamboReport, RamboError> {
    let original = circuit.clone();
    let mut report = RamboReport {
        gates_before: circuit.two_input_gate_count(),
        paths_before: circuit.path_count(),
        ..RamboReport::default()
    };
    // Start from an irredundant circuit (removal alone may already help).
    remove_redundancies(circuit, options.backtrack_limit);

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut stop = StopReason::MaxPasses;
    while report.attempts < options.candidate_attempts && report.accepted < options.max_accepted {
        if let Err(e) = budget.consume(1) {
            stop = e.into();
            break;
        }
        report.attempts += 1;
        // Sample a destination AND/OR-family gate and a source wire.
        let live = circuit.live_mask();
        let gates: Vec<NodeId> = circuit
            .iter()
            .filter(|(id, n)| {
                live[id.index()]
                    && matches!(
                        n.kind(),
                        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
                    )
            })
            .map(|(id, _)| id)
            .collect();
        let wires: Vec<NodeId> = circuit
            .iter()
            .filter(|(id, n)| {
                live[id.index()] && !matches!(n.kind(), GateKind::Const0 | GateKind::Const1)
            })
            .map(|(id, _)| id)
            .collect();
        if gates.is_empty() || wires.is_empty() {
            stop = StopReason::Converged;
            break;
        }
        let dest = gates[rng.gen_range(0..gates.len())];
        let source = wires[rng.gen_range(0..wires.len())];
        if source == dest
            || circuit.node(dest).fanins().contains(&source)
            || circuit.reaches(dest, &[source])
        {
            continue; // already connected or would create a cycle
        }
        // Tentative addition, applied in place inside an edit transaction:
        // rolling the single rewire back through the journal costs O(1) per
        // attempt, where cloning the circuit cost O(circuit).
        let cp = circuit.begin_edit();
        let kind = circuit.node(dest).kind();
        let mut fanins = circuit.node(dest).fanins().to_vec();
        fanins.push(source);
        let new_pin = (fanins.len() - 1) as u8;
        if let Err(e) = circuit.rewire(dest, kind, fanins) {
            circuit.rollback_to(cp);
            return Err(e.into());
        }
        // The addition is function-preserving iff the new pin stuck at the
        // gate's non-controlling value is untestable.
        let nc = !kind.controlling_value().expect("and/or family");
        let fault = Fault::branch(dest, new_pin, nc);
        let redundant = survives_random_filter(circuit, fault, options.filter_blocks, &mut rng)
            && matches!(
                generate_test(circuit, fault, options.backtrack_limit),
                TestResult::Untestable
            );
        circuit.rollback_to(cp);
        if !redundant {
            continue;
        }
        report.proven_redundant += 1;
        // Removal phase on a boundary clone (removal rewrites wholesale and
        // is kept only if it wins): does the augmented circuit shrink?
        let mut cleaned = circuit.clone();
        let mut fanins = cleaned.node(dest).fanins().to_vec();
        fanins.push(source);
        cleaned.rewire(dest, kind, fanins)?;
        remove_redundancies(&mut cleaned, options.backtrack_limit);
        if cleaned.two_input_gate_count() < circuit.two_input_gate_count() {
            *circuit = cleaned;
            report.accepted += 1;
        }
    }

    match sft_bdd::equivalent(&original, circuit)? {
        sft_bdd::CheckResult::Equivalent => {}
        sft_bdd::CheckResult::Different { .. } => return Err(RamboError::VerificationFailed),
    }
    report.stop_reason = stop;
    report.gates_after = circuit.two_input_gate_count();
    report.paths_after = circuit.path_count();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;

    #[test]
    fn preserves_function_on_c17() {
        let src = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";
        let original = parse(src, "c17").unwrap();
        let mut c = original.clone();
        let opts = RamboOptions { candidate_attempts: 60, ..RamboOptions::default() };
        let report = optimize(&mut c, &opts).unwrap();
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
        assert!(report.gates_after <= report.gates_before);
    }

    /// The final equivalence check fits the node limit on the largest irs
    /// suite circuit, so the run returns `Ok` (the check passed).
    #[test]
    fn verifies_irs_f() {
        let entry = sft_circuits::suite().into_iter().find(|e| e.name == "irs_f").unwrap();
        let mut c = entry.circuit;
        let report = optimize(&mut c, &RamboOptions::default()).expect("verified RAR run");
        assert!(report.gates_after <= report.gates_before);
    }

    #[test]
    fn removal_alone_cleans_redundant_circuit() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let original = parse(src, "abs").unwrap();
        let mut c = original.clone();
        let opts = RamboOptions { candidate_attempts: 5, ..RamboOptions::default() };
        let report = optimize(&mut c, &opts).unwrap();
        assert!(report.gates_after < report.gates_before);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn report_display() {
        let r = RamboReport {
            attempts: 5,
            proven_redundant: 2,
            accepted: 1,
            gates_before: 10,
            gates_after: 9,
            paths_before: 50,
            paths_after: 60,
            stop_reason: StopReason::MaxPasses,
        };
        assert!(r.to_string().contains("gates 10 -> 9"));
        assert!(r.to_string().ends_with("(max-passes)"));
    }

    #[test]
    fn step_budget_stops_candidate_loop_without_losing_work() {
        // c17 is irredundant, so the candidate loop itself must hit the
        // step budget (the circuit never runs out of candidate sites).
        let src = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";
        let original = parse(src, "c17").unwrap();
        let mut c = original.clone();
        let budget = sft_budget::Budget::unlimited().with_step_limit(2);
        let report = optimize_with_budget(&mut c, &RamboOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::StepBudget);
        // The last granted unit still runs, so at most 2 attempts happened.
        assert!(report.attempts <= 2, "attempts = {}", report.attempts);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn cancellation_stops_the_loop() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let original = parse(src, "abs").unwrap();
        let mut c = original.clone();
        let flag = sft_budget::CancelFlag::new();
        flag.cancel();
        let budget = sft_budget::Budget::unlimited().with_cancel(flag);
        let report = optimize_with_budget(&mut c, &RamboOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::Cancelled);
        assert_eq!(report.attempts, 0);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// The classical RAR showcase: in a circuit where adding one redundant
    /// wire unlocks removals, the optimizer finds a smaller circuit. We use
    /// a seeded search over a redundancy-rich random circuit and assert it
    /// never regresses and stays equivalent.
    #[test]
    fn never_regresses_on_random_circuits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sft_netlist::{Circuit, GateKind};
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..3 {
            let mut c = Circuit::new(format!("r{trial}"));
            let ins: Vec<_> = (0..6).map(|i| c.add_input(format!("i{i}"))).collect();
            let mut pool = ins.clone();
            for _ in 0..25 {
                let kinds = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let x = pool[rng.gen_range(0..pool.len())];
                let y = pool[rng.gen_range(0..pool.len())];
                if x == y {
                    continue;
                }
                let g = c.add_gate(kind, vec![x, y]).unwrap();
                pool.push(g);
            }
            for (i, &o) in pool.iter().rev().take(3).enumerate() {
                c.add_output(o, format!("o{i}"));
            }
            let original = c.clone();
            let opts =
                RamboOptions { candidate_attempts: 40, max_accepted: 4, ..RamboOptions::default() };
            let report = optimize(&mut c, &opts).unwrap();
            assert!(report.gates_after <= report.gates_before, "trial {trial}");
            assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
        }
    }
}
