//! One output-to-input traversal of the resynthesis procedure, applying
//! accepted replacements through journaled edits on the live circuit.

use super::candidates::{
    combined_score, pick_better, removable_gates, score_candidate, Candidate, Replacement, ScoreCtx,
};
use super::cuts::CutSet;
use super::{Objective, ResynthOptions};
use crate::unit::build_unit_in;
use sft_budget::{Budget, Exhausted};
use sft_netlist::{Circuit, GateKind, NodeId};
use sft_truth::TruthTable;

/// Why a pass could not run to completion. Budget exhaustion and a
/// replacement that does not match its cone are recoverable (rollback +
/// report); netlist errors are not.
pub(super) enum PassAbort {
    Budget(Exhausted),
    Mismatch,
    Netlist(sft_netlist::NetlistError),
}

impl From<sft_netlist::NetlistError> for PassAbort {
    fn from(e: sft_netlist::NetlistError) -> Self {
        PassAbort::Netlist(e)
    }
}

impl From<Exhausted> for PassAbort {
    fn from(e: Exhausted) -> Self {
        PassAbort::Budget(e)
    }
}

/// One output-to-input pass. Returns the number of replacements, or the
/// reason the pass had to be abandoned (the caller rolls back).
///
/// Runs inside the caller's edit transaction with views enabled. At pass
/// start the circuit is sorted once, into the level order: the path labels
/// and every gate's cuts (into `cuts`) are computed walking it forward,
/// and the traversal walks it backward. Labels and cuts stay valid for the
/// whole pass (the scoring contract): a gate's cuts depend only on its
/// transitive fanin, and the reverse level order never visits a gate after
/// one in its fanin cone was rewired. Fanout facts are read live from the
/// maintained view, which every rewire patches in place.
///
/// `skip[g]` replays a previous rejection at `g` without re-scoring; the
/// caller guarantees (via [`super::commit`]'s dirty-region diff) that `g`'s
/// scoring environment is unchanged since that rejection, and the flags are
/// honored only while this pass has not yet edited the circuit — after the
/// first replacement the environment is mid-pass state the caller could not
/// have diffed. `rejected` records (under the same freshness rule) the
/// gates this pass scored-and-rejected or replay-skipped, as input for the
/// next pass's skip set.
pub(super) fn one_pass(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
    cuts: &mut CutSet,
    skip: &[bool],
    rejected: &mut [bool],
) -> Result<usize, PassAbort> {
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

    // Skip flags (and newly recorded rejections) are valid only against the
    // pass-start state the caller diffed; the first edit invalidates both.
    let mut untouched = true;
    let mut replacements = 0usize;
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
        if untouched && skip.get(g.index()).copied().unwrap_or(false) {
            // Replayed rejection: same traversal as the reject branch below,
            // with the scoring skipped.
            rejected[g.index()] = true;
            for f in circuit.node(g).fanins().to_vec() {
                if f.index() < marked.len() && circuit.node(f).kind().is_gate() {
                    marked[f.index()] = true;
                }
            }
            continue;
        }
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
            let (kind, fanins) = match &b.replacement {
                Replacement::Unit(spec) => {
                    let top = build_unit_in(circuit, &b.inputs, spec)?;
                    match top.kind {
                        GateKind::Const0 | GateKind::Const1 => (top.kind, Vec::new()),
                        k => (k, top.fanins),
                    }
                }
                Replacement::NegatedUnit(spec, negate) => {
                    let lines: Vec<NodeId> = b
                        .inputs
                        .iter()
                        .zip(negate)
                        .map(|(&line, &neg)| {
                            if neg {
                                circuit.add_gate(GateKind::Not, vec![line])
                            } else {
                                Ok(line)
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    let top = build_unit_in(circuit, &lines, spec)?;
                    match top.kind {
                        GateKind::Const0 | GateKind::Const1 => (top.kind, Vec::new()),
                        k => (k, top.fanins),
                    }
                }
                Replacement::Cover(specs) => {
                    let outs: Vec<NodeId> = specs
                        .iter()
                        .map(|spec| {
                            let top = build_unit_in(circuit, &b.inputs, spec)?;
                            crate::unit::materialize_top(circuit, top)
                        })
                        .collect::<Result<_, _>>()?;
                    if outs.len() == 1 {
                        (GateKind::Buf, outs)
                    } else {
                        (GateKind::Or, outs)
                    }
                }
            };
            circuit.rewire(g, kind, fanins)?;
            if !matches_cone(circuit, g, &b.inputs, &b.truth, b.dont_care.as_ref()) {
                return Err(PassAbort::Mismatch);
            }
            replacements += 1;
            untouched = false;
            for i in &b.inputs {
                if i.index() < marked.len() && circuit.node(*i).kind().is_gate() {
                    marked[i.index()] = true;
                }
            }
        } else {
            if untouched {
                rejected[g.index()] = true;
            }
            // The single-gate candidate is implicitly selected: continue the
            // traversal through g's fanins (Procedure 2, step 2d).
            for f in circuit.node(g).fanins().to_vec() {
                if f.index() < marked.len() && circuit.node(f).kind().is_gate() {
                    marked[f.index()] = true;
                }
            }
        }
    }
    Ok(replacements)
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
