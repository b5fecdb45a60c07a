//! The pass loop: journal checkpoints, dirty-region diffing against the
//! edit journal, and commit/rollback.

use super::pass::{one_pass, PassAbort};
use super::{Objective, ResynthError, ResynthOptions, ResynthReport};
use sft_budget::{Budget, StopReason};
use sft_netlist::{simplify, Checkpoint, Circuit, GateKind, NodeId};

/// The scoring-dirty region of `current` (post-simplify, **unswept** — its
/// ids below `len_at(cp)` are the committed circuit's ids), reconstructed
/// from the edit journal instead of a node-by-node diff against a snapshot:
/// the nodes whose next-pass scoring environment may differ. Seeds are the
/// changed nodes (a pre-transaction image differing from the current state,
/// or appended this pass), every fanin of a changed node in either its
/// current or pre-transaction structure (its consumer multiset changed) and
/// every fanin of a node the sweep is about to drop (it loses that
/// consumer); the set is closed downstream. A rejected gate outside this
/// set sees byte-identical path labels, cone functions, and fanout views
/// next pass, so its rejection replays without re-scoring. A node rewired
/// away and back compares equal to its pre-image and stays clean.
fn dirty_region(current: &Circuit, cp: Checkpoint) -> Vec<bool> {
    let n = current.len();
    let start_len = current.len_at(cp);
    let live = current.live_mask();
    let mut pre: Vec<Option<(GateKind, &[NodeId])>> = vec![None; start_len];
    for (id, kind, fanins) in current.pre_images_since(cp) {
        // Pre-images of appended-then-rewired nodes are irrelevant: those
        // nodes are changed by virtue of not existing at the checkpoint.
        if id.index() < start_len {
            pre[id.index()] = Some((kind, fanins));
        }
    }
    let mut score = vec![false; n];
    for i in 0..n {
        let id = NodeId::from_index(i);
        let node = current.node(id);
        let changed = i >= start_len
            || pre[i].is_some_and(|(kind, fanins)| kind != node.kind() || fanins != node.fanins());
        if changed {
            score[i] = true;
            for f in node.fanins() {
                score[f.index()] = true;
            }
            if let Some(Some((_, old_fanins))) = pre.get(i) {
                for f in *old_fanins {
                    score[f.index()] = true;
                }
            }
        }
        if !live[i] {
            score[i] = true;
            for f in node.fanins() {
                score[f.index()] = true;
            }
        }
    }
    // Close the mask downstream: a node fed by a dirty node is dirty.
    let order = current.topo_order().expect("combinational circuit");
    for &id in &order {
        if !score[id.index()] && current.node(id).fanins().iter().any(|f| score[f.index()]) {
            score[id.index()] = true;
        }
    }
    score
}

/// The driver behind [`super::resynthesize_with_budget`]: runs passes as
/// edit transactions on the live circuit, committing each pass whose
/// replacements all matched their cones and rolling the journal back on any
/// interruption.
///
/// `replay_rejections` turns on the dirty-region skip set: a gate rejected
/// in a pass and outside that pass's modified region is not re-scored in
/// the next one. The result is identical either way; only the
/// `incremental_rescoring_matches_full_rewalk` test turns it off, as the
/// full re-walk reference.
pub(super) fn run(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
    replay_rejections: bool,
) -> Result<ResynthReport, ResynthError> {
    circuit.validate()?;
    let mut report = ResynthReport {
        gates_before: circuit.two_input_gate_count(),
        paths_before: circuit.path_count_exact(),
        ..ResynthReport::default()
    };
    circuit.enable_views();
    // Gates (ids of the committed circuit) whose rejection last pass is
    // outside this pass's modified region: the next pass replays the
    // rejection without re-scoring.
    let mut skip: Vec<bool> = Vec::new();
    let reason = loop {
        if report.passes >= options.max_passes {
            break StopReason::MaxPasses;
        }
        if let Err(e) = budget.check() {
            break e.into();
        }
        let before_gates = circuit.two_input_gate_count();
        let before_paths = circuit.path_count();
        let mut rejected = vec![false; circuit.len()];
        // The whole pass — replacements and the simplify cleanups — is one
        // edit transaction; every abort below rolls it back in O(#edits).
        let cp = circuit.begin_edit();
        let replacements = match one_pass(circuit, options, budget, &skip, &mut rejected) {
            Ok(n) => n,
            Err(PassAbort::Budget(e)) => {
                circuit.rollback_to(cp);
                break e.into();
            }
            Err(PassAbort::Mismatch) => {
                circuit.rollback_to(cp);
                break StopReason::VerificationRollback;
            }
            Err(PassAbort::Netlist(e)) => {
                // Structural corruption is a bug, not an effort problem;
                // still hand back the last good circuit.
                circuit.rollback_to(cp);
                circuit.disable_views();
                return Err(e.into());
            }
        };
        simplify::propagate_constants(circuit);
        simplify::collapse_buffers(circuit);
        // Diff against the journal *before* sweeping: sweep compacts ids
        // and closes the rollback window.
        let score_dirty = dirty_region(circuit, cp);
        circuit.commit(cp);
        let map = circuit.sweep();
        skip = vec![false; circuit.len()];
        if replay_rejections {
            for (old, &was_rejected) in rejected.iter().enumerate() {
                if was_rejected && !score_dirty[old] {
                    if let Some(new) = map.get(NodeId::from_index(old)) {
                        skip[new.index()] = true;
                    }
                }
            }
        }
        report.passes += 1;
        report.replacements += replacements;
        let improved = match options.objective {
            Objective::Gates => circuit.two_input_gate_count() < before_gates,
            Objective::Paths => circuit.path_count() < before_paths,
            Objective::Combined { .. } => {
                circuit.two_input_gate_count() < before_gates || circuit.path_count() < before_paths
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
