//! The pass loop and one output-to-input traversal of the resynthesis
//! procedure. Every accepted replacement is spliced into the live circuit,
//! checked against its cone and committed as its own journal checkpoint.

use super::candidates::{
    combined_score, pick_better, removable_gates, score_candidate, Candidate, Replacement, ScoreCtx,
};
use super::cuts::CutSet;
use super::{Objective, ResynthError, ResynthOptions, ResynthReport};
use crate::unit::{build_unit_in, UnitTop};
use sft_budget::{Budget, Exhausted, StopReason};
use sft_netlist::{simplify, Circuit, GateKind, NetlistError, NodeId};
use sft_truth::TruthTable;

/// Why a pass ended before its traversal did. Budget exhaustion and a
/// replacement that does not match its cone end the run with a
/// [`StopReason`]; netlist errors are not recoverable.
enum PassAbort {
    Budget(Exhausted),
    Mismatch,
    Netlist(NetlistError),
}

impl From<NetlistError> for PassAbort {
    fn from(e: NetlistError) -> Self {
        PassAbort::Netlist(e)
    }
}

impl From<Exhausted> for PassAbort {
    fn from(e: Exhausted) -> Self {
        PassAbort::Budget(e)
    }
}

/// The pass loop behind [`super::resynthesize_with_budget`]: runs passes on
/// the live circuit until one yields no improvement. A pass that ends early
/// keeps the replacements it committed; if it kept any, the circuit is
/// cleaned up and swept as after any pass and the pass counts. Then the run
/// stops.
pub(super) fn run(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
) -> Result<ResynthReport, ResynthError> {
    circuit.validate()?;
    let mut report = ResynthReport {
        gates_before: circuit.two_input_gate_count(),
        paths_before: circuit.path_count_exact(),
        ..ResynthReport::default()
    };
    circuit.enable_views();
    let mut cuts = CutSet::default();
    // The path count at the start of the pass, read only by the `Paths`
    // and `Combined` objectives: each pass's closing count opens the next.
    let mut paths = report.paths_before.value();
    let reason = loop {
        if report.passes >= options.max_passes {
            break StopReason::MaxPasses;
        }
        if let Err(e) = budget.check() {
            break e.into();
        }
        let before_gates = circuit.two_input_gate_count();
        let mut replacements = 0;
        let stop = match one_pass(circuit, options, budget, &mut cuts, &mut replacements) {
            Ok(()) => None,
            Err(PassAbort::Budget(e)) => Some(e.into()),
            Err(PassAbort::Mismatch) => Some(StopReason::VerificationRollback),
            Err(PassAbort::Netlist(e)) => {
                // Structural corruption is a bug, not an effort problem;
                // the failed replacement is rolled back, the circuit stays
                // equivalent to the input.
                circuit.disable_views();
                return Err(e.into());
            }
        };
        // An interrupted pass that kept nothing left the circuit as it was.
        if stop.is_none() || replacements > 0 {
            report.passes += 1;
            report.replacements += replacements;
            simplify::propagate_constants(circuit);
            simplify::collapse_buffers(circuit);
            circuit.sweep();
        }
        if let Some(reason) = stop {
            break reason;
        }
        let fewer_gates = || circuit.two_input_gate_count() < before_gates;
        let improved = match options.objective {
            Objective::Gates => fewer_gates(),
            objective => {
                let before_paths = std::mem::replace(&mut paths, circuit.path_count());
                paths < before_paths
                    || (matches!(objective, Objective::Combined { .. }) && fewer_gates())
            }
        };
        if replacements == 0 || !improved {
            break StopReason::Converged;
        }
    };
    circuit.disable_views();
    report.stop_reason = reason;
    report.gates_after = circuit.two_input_gate_count();
    report.paths_after = circuit.path_count_exact();
    Ok(report)
}

/// One output-to-input pass, counting its committed replacements in
/// `replacements`; an `Err` says why the pass ended early, and every
/// replacement counted so far stays in the circuit.
///
/// Runs with views enabled. At pass start the circuit is sorted once, into
/// the level order: the path labels and every gate's cuts (into `cuts`)
/// are computed walking it forward, and the traversal walks it backward.
/// Labels and cuts stay valid for the whole pass (the scoring contract): a
/// gate's cuts depend only on its transitive fanin, and the reverse level
/// order never visits a gate after one in its fanin cone was rewired.
/// Fanout facts are read live from the maintained view, which every rewire
/// patches in place.
fn one_pass(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
    cuts: &mut CutSet,
    replacements: &mut usize,
) -> Result<(), PassAbort> {
    let order = circuit.bfs_order().expect("resynthesis runs on acyclic circuits");
    let labels = circuit.path_labels_in(&order);
    cuts.enumerate(circuit, &order, options.max_inputs, options.max_candidates_per_gate, budget)?;
    let mut marked = vec![false; circuit.len()];
    for &o in circuit.outputs() {
        marked[o.index()] = true;
    }
    let mut consumed = vec![false; circuit.len()];
    // Satisfiability-don't-care support: BDDs of every original line. SDCs
    // only widen the search, so hitting the node limit here degrades to
    // plain identification instead of aborting the pass.
    let mut dc_state = if options.use_satisfiability_dont_cares {
        let mut manager = sft_bdd::Manager::new();
        match sft_bdd::circuit_node_bdds_budgeted(&mut manager, circuit, budget) {
            Ok(per_node) => Some((manager, per_node)),
            Err(sft_bdd::BddError::NodeLimit(_)) => None,
            Err(sft_bdd::BddError::Interrupted(e)) => return Err(e.into()),
        }
    } else {
        None
    };

    for &g in order.iter().rev() {
        if g.index() >= marked.len() {
            continue; // nodes appended during this pass
        }
        if !marked[g.index()] || consumed[g.index()] {
            continue;
        }
        if !circuit.node(g).kind().is_gate() {
            continue;
        }
        budget.check()?;
        let ctx = ScoreCtx { g, labels: &labels };
        let mut best: Option<Candidate> = None;
        for cut in cuts.of(g).filter(|cut| !cut.leaves().is_empty()) {
            let scored = score_candidate(circuit, options, budget, &ctx, dc_state.as_mut(), &cut);
            if let Some(candidate) = scored? {
                best = Some(match best {
                    None => candidate,
                    Some(b) => pick_better(b, candidate, options.objective),
                });
            }
        }
        let old_paths_at_g = labels[g.index()];
        let accept = best.as_ref().is_some_and(|b| match options.objective {
            Objective::Gates => {
                b.gate_reduction > 0 || (b.gate_reduction == 0 && b.new_paths_at_g < old_paths_at_g)
            }
            Objective::Paths => b.new_paths_at_g < old_paths_at_g,
            Objective::Combined { gate_weight, path_weight } => {
                combined_score(b, old_paths_at_g, gate_weight, path_weight) > 0
            }
        });
        if accept {
            let b = best.expect("accept implies candidate");
            // The table came from the cut merge; the cone it replaces must
            // have it too, so the check after the splice compares with the
            // old cone itself.
            if circuit.cone_function(g, &b.inputs).ok() != Some(b.truth) {
                return Err(PassAbort::Mismatch);
            }
            // Mark the dying cone gates as consumed *before* rewiring (the
            // removable set is computed against the pre-rewire structure).
            let removable = {
                let views = circuit.views().expect("resynthesis runs with views enabled");
                removable_gates(g, &b.gates, views)
            };
            for x in removable {
                if x != g && x.index() < consumed.len() {
                    consumed[x.index()] = true;
                }
            }
            let cp = circuit.begin_edit();
            match splice(circuit, g, &b) {
                Ok(true) => circuit.commit(cp),
                Ok(false) => {
                    circuit.rollback_to(cp);
                    return Err(PassAbort::Mismatch);
                }
                Err(e) => {
                    circuit.rollback_to(cp);
                    return Err(e.into());
                }
            }
            *replacements += 1;
            for i in &b.inputs {
                if i.index() < marked.len() && circuit.node(*i).kind().is_gate() {
                    marked[i.index()] = true;
                }
            }
        } else {
            // The single-gate candidate is implicitly selected: continue the
            // traversal through g's fanins (Procedure 2, step 2d).
            for f in circuit.node(g).fanins().to_vec() {
                if f.index() < marked.len() && circuit.node(f).kind().is_gate() {
                    marked[f.index()] = true;
                }
            }
        }
    }
    Ok(())
}

/// Builds `b`'s replacement, rewires `g` to it and checks the result with
/// [`matches_cone`]. The caller wraps the call in an edit checkpoint and
/// rolls it back unless it returns `Ok(true)`.
fn splice(circuit: &mut Circuit, g: NodeId, b: &Candidate) -> Result<bool, NetlistError> {
    let top = match &b.replacement {
        Replacement::Unit(spec) => build_unit_in(circuit, &b.inputs, spec)?,
        Replacement::NegatedUnit(spec, negate) => {
            let mut lines = b.inputs.clone();
            for (line, &neg) in lines.iter_mut().zip(negate) {
                if neg {
                    *line = circuit.add_gate(GateKind::Not, vec![*line])?;
                }
            }
            build_unit_in(circuit, &lines, spec)?
        }
        Replacement::Cover(specs) => {
            let mut outs = Vec::with_capacity(specs.len());
            for spec in specs {
                let top = build_unit_in(circuit, &b.inputs, spec)?;
                outs.push(crate::unit::materialize_top(circuit, top)?);
            }
            let kind = if outs.len() == 1 { GateKind::Buf } else { GateKind::Or };
            UnitTop { kind, fanins: outs }
        }
    };
    let fanins = match top.kind {
        GateKind::Const0 | GateKind::Const1 => Vec::new(),
        _ => top.fanins,
    };
    circuit.rewire(g, top.kind, fanins)?;
    Ok(matches_cone(circuit, g, &b.inputs, &b.truth, b.dont_care.as_ref()))
}

/// The per-replacement check: whether `g`, rewired to its replacement,
/// still computes `before` over the cut `inputs`, on every cut minterm
/// outside `dont_care` (`(after XOR before) AND NOT dc == 0`). The cut has
/// at most 7 lines, so this is an exact 2^K-bit comparison. Every line of
/// the cut predates the replacement and keeps its function, so a match at
/// `g` keeps the function of every primary output.
pub(super) fn matches_cone(
    circuit: &Circuit,
    g: NodeId,
    inputs: &[NodeId],
    before: &TruthTable,
    dont_care: Option<&TruthTable>,
) -> bool {
    let Ok(after) = circuit.cone_function(g, inputs) else { return false };
    let diff = after.xor(before);
    match dont_care {
        Some(dc) => diff.and(&dc.complement()).is_zero(),
        None => diff.is_zero(),
    }
}
