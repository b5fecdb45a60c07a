//! The pass loop: journal checkpoints, dirty-region diffing against the
//! edit journal, incremental BDD verification, and commit/rollback.

use super::pass::{one_pass, PassAbort};
use super::{Objective, ResynthError, ResynthOptions, ResynthReport};
use sft_budget::{Budget, StopReason};
use sft_netlist::{simplify, Checkpoint, Circuit, GateKind, NodeId};
use std::collections::HashMap;

/// The cumulative verification state: one shared manager holding the
/// reference output BDDs **and** the per-node BDDs of the last committed
/// circuit. Verification is incremental: a pass result reuses the committed
/// references for every node outside the modified region and rebuilds only
/// the dirty ones, so hash-consing makes equivalence a reference comparison
/// and per-pass BDD work is proportional to the pass's edits, not the
/// circuit.
struct Verifier {
    manager: sft_bdd::Manager,
    /// Output BDDs of the input circuit — the spec every pass must match.
    reference: Vec<sft_bdd::BddRef>,
    /// Per-node BDDs of the last committed circuit, indexed by node id.
    node_refs: Vec<sft_bdd::BddRef>,
    /// BDD variable of each input position, fixed at reference build time
    /// (a DFS-derived order; see [`sft_bdd::dfs_input_order`]). Inputs are
    /// never added, dropped, or reordered by a pass, so the same map stays
    /// valid for every incremental rebuild.
    var_order: Vec<u32>,
    /// Largest node count the manager ever held.
    peak: usize,
}

impl Verifier {
    /// Checks an unswept pass result against the reference. The circuit
    /// still carries the pass's dead nodes, so its ids are the committed
    /// circuit's ids (plus the appended tail): `dirty` marks the nodes
    /// whose function may differ from the committed one, everything else
    /// keeps its committed BDD, and only live dirty nodes are rebuilt
    /// (`live` is the sweep-survival mask). On a match returns the per-node
    /// refs in pass-id space, for [`adopt`](Self::adopt) after the sweep;
    /// on a mismatch returns `None` and the caller rolls the journal back.
    fn check_pass(
        &mut self,
        circuit: &Circuit,
        dirty: &[bool],
        live: &[bool],
        budget: &Budget,
    ) -> Result<Option<Vec<sft_bdd::BddRef>>, sft_bdd::BddError> {
        let mut refs = vec![sft_bdd::BddRef::FALSE; circuit.len()];
        let mut have = vec![false; circuit.len()];
        for (i, &r) in self.node_refs.iter().enumerate() {
            if !dirty[i] {
                refs[i] = r;
                have[i] = true;
            }
        }
        let input_var: HashMap<NodeId, u32> =
            circuit.inputs().iter().enumerate().map(|(i, &id)| (id, self.var_order[i])).collect();
        // Infallible: every structural edit is cycle-checked by `rewire`.
        let order = circuit.topo_order().expect("combinational circuit");
        for id in order {
            if have[id.index()] || !live[id.index()] {
                continue;
            }
            budget.check()?;
            let node = circuit.node(id);
            let r = match node.kind() {
                GateKind::Input => self.manager.var(input_var[&id])?,
                kind => {
                    let fanins: Vec<sft_bdd::BddRef> =
                        node.fanins().iter().map(|f| refs[f.index()]).collect();
                    sft_bdd::gate_bdd(&mut self.manager, kind, &fanins)?
                }
            };
            refs[id.index()] = r;
            have[id.index()] = true;
        }
        let outs: Vec<sft_bdd::BddRef> =
            circuit.outputs().iter().map(|o| refs[o.index()]).collect();
        Ok((outs == self.reference).then_some(refs))
    }

    /// Installs the refs returned by a successful [`check_pass`] as the new
    /// committed refs, remapped from pass-id space into the swept circuit's
    /// ids.
    fn adopt(&mut self, refs: &[sft_bdd::BddRef], map: &sft_netlist::NodeMap, new_len: usize) {
        let mut node_refs = vec![sft_bdd::BddRef::FALSE; new_len];
        for (old, &r) in refs.iter().enumerate() {
            if let Some(new) = map.get(NodeId::from_index(old)) {
                node_refs[new.index()] = r;
            }
        }
        self.node_refs = node_refs;
    }

    /// Garbage-collects the manager down to the reference and the committed
    /// circuit's node BDDs, remapping both reference sets consistently.
    fn compact(&mut self) {
        let split = self.node_refs.len();
        let mut keep = std::mem::take(&mut self.node_refs);
        keep.extend_from_slice(&self.reference);
        self.manager.compact(&mut keep);
        self.reference = keep.split_off(split);
        self.node_refs = keep;
    }
}

/// The modified region of `current` (post-simplify, **unswept** — its ids
/// below `len_at(cp)` are the committed circuit's ids), reconstructed from
/// the edit journal instead of a node-by-node diff against a snapshot.
/// Three masks over `current`'s ids:
///
/// - `.0` — verification-dirty: nodes whose function of the primary inputs
///   may differ from the committed circuit's. Seeds are the changed nodes
///   (a pre-transaction image differing from the current state, or appended
///   this pass); the set is closed downstream, so everything outside keeps
///   its committed BDD. A node rewired away and back compares equal to its
///   pre-image and stays clean.
/// - `.1` — scoring-dirty: nodes whose next-pass scoring environment may
///   differ. Seeds additionally include every fanin of a changed node in
///   either its current or pre-transaction structure (its consumer multiset
///   changed) and every fanin of a node the sweep is about to drop (it
///   loses that consumer), again closed downstream. A rejected gate outside
///   this set sees byte-identical path labels, cone functions, and fanout
///   views next pass, so its rejection replays without re-scoring.
/// - `.2` — the sweep-survival (liveness) mask, shared with verification.
fn dirty_regions(current: &Circuit, cp: Checkpoint) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
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
    let mut bdd = vec![false; n];
    let mut score = vec![false; n];
    for i in 0..n {
        let id = NodeId::from_index(i);
        let node = current.node(id);
        let changed = i >= start_len
            || pre[i].is_some_and(|(kind, fanins)| kind != node.kind() || fanins != node.fanins());
        if changed {
            bdd[i] = true;
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
    // Close both masks downstream: a node fed by a dirty node is dirty.
    let order = current.topo_order().expect("combinational circuit");
    for &id in &order {
        if bdd[id.index()] && score[id.index()] {
            continue;
        }
        for f in current.node(id).fanins() {
            if bdd[f.index()] {
                bdd[id.index()] = true;
            }
            if score[f.index()] {
                score[id.index()] = true;
            }
        }
    }
    (bdd, score, live)
}

/// The driver behind [`super::resynthesize_with_budget`]: runs passes as
/// edit transactions on the live circuit, verifying before committing and
/// rolling the journal back on any interruption.
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
    // Every successful exit funnels through `finish`, which detaches the
    // views the run attached below.
    let finish = |circuit: &mut Circuit, mut report: ResynthReport, reason: StopReason| {
        circuit.disable_views();
        report.stop_reason = reason;
        report.gates_after = circuit.two_input_gate_count();
        report.paths_after = circuit.path_count_exact();
        Ok(report)
    };
    circuit.enable_views();
    // Build the reference BDDs once. If even the input circuit does not fit
    // the verification manager, no verified replacement is possible: return
    // the untouched circuit with the reason.
    let mut verifier = {
        let mut manager = sft_bdd::Manager::with_node_limit(options.verify_node_limit);
        let var_order = sft_bdd::dfs_input_order(circuit);
        match sft_bdd::circuit_node_bdds_ordered(&mut manager, circuit, &var_order, budget) {
            Ok(node_refs) => {
                let reference: Vec<sft_bdd::BddRef> =
                    circuit.outputs().iter().map(|o| node_refs[o.index()]).collect();
                let peak = manager.node_count();
                Verifier { manager, reference, node_refs, var_order, peak }
            }
            Err(e) => {
                report.verify_nodes = manager.node_count();
                let reason = match e {
                    sft_bdd::BddError::NodeLimit(_) => StopReason::BddBlowup,
                    sft_bdd::BddError::Interrupted(x) => x.into(),
                };
                return finish(circuit, report, reason);
            }
        }
    };
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
        let (bdd_dirty, score_dirty, live) = dirty_regions(circuit, cp);
        // Verify *before* sweeping: the journal can still undo everything
        // (sweep compacts ids and closes the rollback window).
        let outcome = verifier.check_pass(circuit, &bdd_dirty, &live, budget);
        verifier.peak = verifier.peak.max(verifier.manager.node_count());
        let refs = match outcome {
            Ok(Some(refs)) => refs,
            Ok(None) => {
                circuit.rollback_to(cp);
                break StopReason::VerificationRollback;
            }
            Err(sft_bdd::BddError::NodeLimit(_)) => {
                circuit.rollback_to(cp);
                break StopReason::BddBlowup;
            }
            Err(sft_bdd::BddError::Interrupted(e)) => {
                circuit.rollback_to(cp);
                break e.into();
            }
        };
        // Commit the verified pass; only now is it safe to compact the ids.
        circuit.commit(cp);
        let map = circuit.sweep();
        verifier.adopt(&refs, &map, circuit.len());
        skip = vec![false; circuit.len()];
        if options.incremental_rescoring {
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
        // Another pass follows: bound the manager by the live working set.
        // Compacting on the way *into* a pass (rather than after every
        // verification) skips the pointless rebuild on the final,
        // converging pass.
        if options.compact_verifier {
            verifier.compact();
        }
    };
    report.verify_nodes = verifier.peak.max(verifier.manager.node_count());
    finish(circuit, report, reason)
}
