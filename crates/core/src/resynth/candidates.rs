//! Candidate subcircuits: cone enumeration, comparison-function
//! identification, and scoring.
//!
//! Everything here is read-only on the circuit. Fanout facts come from the
//! maintained [`CircuitViews`] (exact after every edit); path labels come
//! from the pass-start snapshot in [`ScoreCtx`].

use super::{Objective, ResynthOptions};
use crate::cover::{comparison_cover, cover_cost};
use crate::unit::unit_cost;
use crate::{identify, identify_with_dc, identify_with_polarities, ComparisonSpec};
use sft_budget::{Budget, Exhausted};
use sft_netlist::{two_input_cost, Circuit, CircuitViews, NodeId};
use sft_truth::TruthTable;
use std::collections::HashSet;

/// What a candidate replaces the subcircuit with.
pub(super) enum Replacement {
    /// A single comparison unit (the paper's procedure).
    Unit(ComparisonSpec),
    /// A unit fed through inverters on the negated inputs (polarity
    /// extension).
    NegatedUnit(ComparisonSpec, Vec<bool>),
    /// An OR of several comparison units (concluding remark 2).
    Cover(Vec<ComparisonSpec>),
}

/// A scored candidate subcircuit.
pub(super) struct Candidate {
    pub(super) gates: Vec<NodeId>,
    pub(super) inputs: Vec<NodeId>,
    pub(super) replacement: Replacement,
    pub(super) gate_reduction: i64,
    pub(super) new_paths_at_g: u128,
    /// The cone's function over `inputs`, which the replacement must keep.
    pub(super) truth: TruthTable,
    /// The cut's satisfiability don't-cares, when the replacement was
    /// identified on the care set only.
    pub(super) dont_care: Option<TruthTable>,
}

/// Per-gate read-only context shared by every candidate scoring of one
/// replacement site.
pub(super) struct ScoreCtx<'a> {
    pub(super) g: NodeId,
    /// Path labels snapshotted at pass start (the scoring contract: every
    /// candidate of a pass is scored against the same labels).
    pub(super) labels: &'a [u128],
}

pub(super) fn combined_score(
    c: &Candidate,
    old_paths: u128,
    gate_weight: u32,
    path_weight: u32,
) -> i128 {
    let path_delta = old_paths as i128 - c.new_paths_at_g as i128;
    c.gate_reduction as i128 * gate_weight as i128 + path_delta * path_weight as i128
}

pub(super) fn pick_better(a: Candidate, b: Candidate, objective: Objective) -> Candidate {
    match objective {
        Objective::Gates => {
            if (b.gate_reduction, std::cmp::Reverse(b.new_paths_at_g))
                > (a.gate_reduction, std::cmp::Reverse(a.new_paths_at_g))
            {
                b
            } else {
                a
            }
        }
        Objective::Paths => {
            if b.new_paths_at_g < a.new_paths_at_g {
                b
            } else {
                a
            }
        }
        Objective::Combined { gate_weight, path_weight } => {
            // old_paths cancels when comparing two candidates at the same g.
            let sa = combined_score(&a, 0, gate_weight, path_weight);
            let sb = combined_score(&b, 0, gate_weight, path_weight);
            if sb > sa {
                b
            } else {
                a
            }
        }
    }
}

/// Enumerates candidate subcircuits rooted at `g`: cones grown by absorbing
/// one fanin gate at a time, with at most `K` inputs (Section 4.1). Returns
/// `(cone gate set, ordered input cut)` pairs; the single-gate cone is
/// always first.
pub(super) fn enumerate_candidates(
    circuit: &Circuit,
    g: NodeId,
    options: &ResynthOptions,
) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    let inputs_of = |gates: &[NodeId]| -> Vec<NodeId> {
        let set: HashSet<NodeId> = gates.iter().copied().collect();
        let mut inputs = Vec::new();
        for &x in gates {
            for &f in circuit.node(x).fanins() {
                let kind = circuit.node(f).kind();
                if matches!(kind, sft_netlist::GateKind::Const0 | sft_netlist::GateKind::Const1) {
                    continue; // constants stay inside the cone
                }
                if !set.contains(&f) && !inputs.contains(&f) {
                    inputs.push(f);
                }
            }
        }
        inputs
    };

    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    let mut result: Vec<(Vec<NodeId>, Vec<NodeId>)> = Vec::new();
    let mut queue: Vec<Vec<NodeId>> = vec![vec![g]];
    seen.insert(vec![g]);
    while let Some(gates) = queue.pop() {
        let inputs = inputs_of(&gates);
        if inputs.len() > options.max_inputs || inputs.is_empty() {
            continue;
        }
        result.push((gates.clone(), inputs.clone()));
        if result.len() >= options.max_candidates_per_gate {
            break;
        }
        for h in inputs {
            if !circuit.node(h).kind().is_gate() {
                continue;
            }
            let mut next = gates.clone();
            next.push(h);
            next.sort_unstable();
            if seen.insert(next.clone()) {
                queue.push(next);
            }
        }
    }
    result
}

/// Scores one candidate cone at `ctx.g`: extracts the cone function,
/// identifies a comparison replacement (a unit, a negated-input unit, or a
/// cover), and computes the gate/path deltas. Returns `Ok(None)` when the
/// cone has no admissible replacement. The candidate keeps the cone's truth
/// table (and the don't-cares its unit was identified with) for the check
/// after the splice.
///
/// Read-only on the circuit. Consumes one budget step (the pass's unit of
/// work) before doing anything expensive, so a step limit bounds the
/// scorings exactly.
pub(super) fn score_candidate(
    circuit: &Circuit,
    options: &ResynthOptions,
    budget: &Budget,
    ctx: &ScoreCtx<'_>,
    sdc: Option<&mut (sft_bdd::Manager, Vec<sft_bdd::BddRef>)>,
    gates: &[NodeId],
    inputs: &[NodeId],
) -> Result<Option<Candidate>, Exhausted> {
    budget.consume(1)?;
    let Ok(truth) = circuit.cone_function(ctx.g, inputs) else { return Ok(None) };
    let dc = sdc.and_then(|(manager, per_node)| {
        reachable_dc(manager, per_node, circuit, inputs).ok().flatten()
    });
    let spec = match &dc {
        Some(dc) => identify_with_dc(&truth, dc, &options.identify),
        None => identify(&truth, &options.identify),
    };
    let mut dont_care = None;
    let (replacement, cost) = match spec {
        Some(spec) => {
            let Ok(cost) = unit_cost(&spec) else { return Ok(None) };
            dont_care = dc;
            (Replacement::Unit(spec), cost)
        }
        None => {
            let negated = options
                .allow_input_negation
                .then(|| identify_with_polarities(&truth, &options.identify))
                .flatten();
            if let Some((spec, negate)) = negated {
                // Inverters on unit inputs change neither the eq-2 count
                // nor the per-input path counts.
                let Ok(mut cost) = unit_cost(&spec) else { return Ok(None) };
                cost.depth += 1;
                (Replacement::NegatedUnit(spec, negate), cost)
            } else if options.max_cover_units > 1 {
                let cover = comparison_cover(&truth, &options.identify);
                if cover.is_empty() || cover.len() > options.max_cover_units {
                    return Ok(None);
                }
                let Ok(cost) = cover_cost(&cover) else { return Ok(None) };
                (Replacement::Cover(cover), cost)
            } else {
                return Ok(None);
            }
        }
    };
    // Old gate cost: g itself plus the cone gates that would die.
    let views = circuit.views().expect("resynthesis runs with views enabled");
    let removable = removable_gates(ctx.g, gates, views);
    let old_cost: u64 = removable
        .iter()
        .map(|&x| {
            let n = circuit.node(x);
            two_input_cost(n.kind(), n.fanins().len())
        })
        .sum();
    let gate_reduction = old_cost as i64 - cost.two_input_gates as i64;
    let input_labels: Vec<u128> = inputs.iter().map(|i| ctx.labels[i.index()]).collect();
    let new_paths_at_g = cost.paths_with_labels(&input_labels);
    Ok(Some(Candidate {
        gates: gates.to_vec(),
        inputs: inputs.to_vec(),
        replacement,
        gate_reduction,
        new_paths_at_g,
        truth,
        dont_care,
    }))
}

/// The cone gates that die if `g` is rewired away from this cone: gates
/// (other than `g`) that drive no primary output and all of whose consumers
/// are `g` or other dying gates. `g` itself is always included (its old
/// gate is replaced).
///
/// Both liveness facts — the primary-output references and the gate
/// consumers — come from the one maintained view. (The rebuilt-table
/// implementation derived "has external consumers" by comparing the lengths
/// of two independently constructed structures, `fanout_counts` vs
/// `fanout_table`; the only thing that difference can ever be is the
/// primary-output reference count, which the view tracks directly.)
pub(super) fn removable_gates(g: NodeId, cone: &[NodeId], views: &CircuitViews) -> Vec<NodeId> {
    let cone_set: HashSet<NodeId> = cone.iter().copied().collect();
    let mut removable: HashSet<NodeId> = cone_set.clone();
    removable.remove(&g);
    loop {
        let mut changed = false;
        let current: Vec<NodeId> = removable.iter().copied().collect();
        for x in current {
            let ok = !views.drives_output(x)
                && views.fanout(x).iter().all(|&(c, _)| c == g || removable.contains(&c));
            if !ok {
                removable.remove(&x);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut v: Vec<NodeId> = removable.into_iter().collect();
    v.push(g);
    v.sort_unstable();
    v
}

/// The unreachable cone-input combinations (satisfiability don't-cares) of
/// a cut, as a truth table over the cut. Returns `None` when everything is
/// reachable. Node BDDs must come from the same circuit *before any pass
/// edits* — stale entries (for rewired nodes) make the result conservative
/// only if unchanged; to stay sound we recompute reachability only for cuts
/// whose lines all predate the pass (checked by the caller via index
/// bounds).
pub(super) fn reachable_dc(
    manager: &mut sft_bdd::Manager,
    per_node: &[sft_bdd::BddRef],
    _circuit: &Circuit,
    inputs: &[NodeId],
) -> Result<Option<sft_truth::TruthTable>, sft_bdd::BddError> {
    if inputs.iter().any(|i| i.index() >= per_node.len()) {
        return Ok(None); // cut touches nodes created during this pass
    }
    let k = inputs.len();
    let mut dc = sft_truth::TruthTable::zero(k);
    for m in 0..(1u64 << k) {
        let mut acc = sft_bdd::BddRef::TRUE;
        for (i, &line) in inputs.iter().enumerate() {
            let bit = m >> (k - 1 - i) & 1 == 1;
            let f = per_node[line.index()];
            let lit = if bit { f } else { manager.not(f)? };
            acc = manager.and(acc, lit)?;
            if acc == sft_bdd::BddRef::FALSE {
                break;
            }
        }
        if acc == sft_bdd::BddRef::FALSE {
            dc = dc.or(&sft_truth::TruthTable::from_minterms(k, &[m]).expect("in range"));
        }
    }
    Ok(if dc.is_zero() { None } else { Some(dc) })
}
