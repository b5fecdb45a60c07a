//! Arena-layout property tests: the span pool's physical invariants under
//! journaled edits and sweep compaction.
//!
//! `journal_rollback.rs` checks *logical* equality (rollback restores an
//! equal circuit); these tests pin the *physical* arena contract on top:
//! rollback reclaims every transactional pool append (the pool returns to
//! its checkpoint length exactly, not just to equal contents), committed
//! rewires strand garbage that only `sweep` reclaims, and the `NodeMap`
//! returned by sweep translates live structure faithfully.

use proptest::prelude::*;
use sft_netlist::{Circuit, GateKind, NodeId};

fn wide_kind(sel: usize) -> GateKind {
    match sel % 6 {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Nand,
        3 => GateKind::Nor,
        4 => GateKind::Xor,
        _ => GateKind::Xnor,
    }
}

fn pick(seed: u64, k: usize, bound: usize) -> NodeId {
    NodeId::from_index(((seed >> (16 * (k % 4))) % bound as u64) as usize)
}

/// Append-only random DAG (same raw-material scheme as journal_rollback).
fn build_dag(n_inputs: usize, gates: &[(usize, usize, u64)], out_picks: &[u64]) -> Circuit {
    let mut c = Circuit::new("arena");
    for i in 0..n_inputs {
        c.add_input(format!("i{i}"));
    }
    for (gi, &(kind_sel, arity, seed)) in gates.iter().enumerate() {
        let len = c.len();
        let g = if kind_sel % 8 >= 6 {
            let unary = if kind_sel % 2 == 0 { GateKind::Buf } else { GateKind::Not };
            c.add_gate(unary, vec![pick(seed, 0, len)])
        } else {
            let fanins = (0..arity).map(|k| pick(seed, k, len)).collect();
            c.add_gate(wide_kind(kind_sel), fanins)
        }
        .expect("append-only construction cannot cycle");
        if gi % 4 == 0 {
            c.set_node_name(g, format!("g{gi}"));
        }
    }
    for (k, &p) in out_picks.iter().enumerate() {
        c.add_output(NodeId::from_index((p % c.len() as u64) as usize), format!("o{k}"));
    }
    c
}

/// Rewires sampled gate targets to strictly-smaller fanins (acyclic by
/// construction). Returns how many rewires actually ran.
fn apply_rewires(c: &mut Circuit, edits: &[(u64, u64)]) -> usize {
    let mut applied = 0;
    for &(t_seed, f_seed) in edits {
        let t = (t_seed % c.len() as u64) as usize;
        let target = NodeId::from_index(t);
        if c.node(target).kind() == GateKind::Input || t == 0 {
            continue;
        }
        let arity = 1 + (f_seed % 3) as usize;
        let fanins: Vec<_> = (0..arity).map(|k| pick(f_seed, k, t)).collect();
        c.rewire(target, wide_kind(f_seed as usize), fanins)
            .expect("strictly-smaller fanin ids cannot cycle");
        applied += 1;
    }
    applied
}

/// Packs a seed into one input assignment per primary input.
fn assignment(c: &Circuit, seed: u64) -> Vec<bool> {
    (0..c.inputs().len()).map(|i| seed >> (i % 64) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rollback returns the pool to its checkpoint length exactly: every
    /// transactional append sat at the pool tail when undone, so the
    /// journal reclaims the storage physically, not just logically.
    #[test]
    fn rollback_reclaims_every_pool_append(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 2..25),
        out_picks in proptest::collection::vec(any::<u64>(), 1..4),
        edits in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..30),
    ) {
        let mut c = build_dag(n_inputs, &gates, &out_picks);
        let before = c.clone();
        let pool_before = c.fanin_pool_len();
        let live_before = c.fanin_count();
        let was_flat = c.fanin_spans_flat();

        let cp = c.begin_edit();
        let applied = apply_rewires(&mut c, &edits);
        if applied > 0 {
            prop_assert!(!c.fanin_spans_flat(), "rewires must fragment the pool");
        }
        c.rollback_to(cp);

        prop_assert_eq!(c.fanin_pool_len(), pool_before, "pool appends not reclaimed");
        prop_assert_eq!(c.fanin_count(), live_before);
        prop_assert_eq!(c.fanin_spans_flat(), was_flat, "layout flag not restored");
        prop_assert!(c == before);
    }

    /// Committed rewires strand exactly their old spans as garbage; sweep
    /// reclaims all of it, restores the flat layout, and its `NodeMap`
    /// translates every surviving node to the same kind, translated
    /// fanins and name.
    #[test]
    fn sweep_compacts_pool_and_node_map_translates(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 2..25),
        out_picks in proptest::collection::vec(any::<u64>(), 1..4),
        edits in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..30),
        eval_seed in any::<u64>(),
    ) {
        let mut c = build_dag(n_inputs, &gates, &out_picks);
        apply_rewires(&mut c, &edits);
        let pre = c.clone();
        let inputs = assignment(&c, eval_seed);
        let outputs_before = c.eval_assignment(&inputs);

        let map = c.sweep();

        prop_assert!(c.fanin_spans_flat(), "sweep must restore the flat layout");
        prop_assert_eq!(c.fanin_pool_len(), c.fanin_count(), "sweep left pool garbage");
        // Functional behaviour survives the renumbering.
        prop_assert_eq!(c.eval_assignment(&inputs), outputs_before);
        // Every surviving node translates faithfully.
        let mut survivors = 0;
        for (old_id, old_node) in pre.iter() {
            let Some(new_id) = map.get(old_id) else { continue };
            survivors += 1;
            let new_node = c.node(new_id);
            prop_assert_eq!(old_node.kind(), new_node.kind());
            prop_assert_eq!(old_node.name(), new_node.name());
            let translated: Vec<_> = old_node
                .fanins()
                .iter()
                .map(|&f| map.get(f).expect("live fanin of a live node survives"))
                .collect();
            prop_assert_eq!(&translated[..], new_node.fanins());
        }
        prop_assert_eq!(survivors, c.len(), "NodeMap must cover every new node");
        // Outputs translate too.
        let translated_outputs: Vec<_> =
            pre.outputs().iter().map(|&o| map.get(o).expect("output survives")).collect();
        prop_assert_eq!(&translated_outputs[..], c.outputs());
    }
}
