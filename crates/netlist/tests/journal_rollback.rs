//! Journal-vs-clone property tests: random edit sequences applied to random
//! DAGs inside an edit transaction must roll back to a state bit-identical
//! to a pre-edit `clone()`, and the incrementally maintained views must
//! agree with from-scratch rebuilds at every stage (mid-edit, after
//! rollback, after commit).

use proptest::prelude::*;
use sft_netlist::{Circuit, GateKind, NodeId};

/// Maps a selector to a gate kind with arity `>= 1` semantics.
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

/// Picks the `k`-th fanin id below `bound` out of a packed seed.
fn pick(seed: u64, k: usize, bound: usize) -> NodeId {
    NodeId::from_index(((seed >> (16 * (k % 4))) % bound as u64) as usize)
}

/// Deterministically builds a DAG from sampled raw material: `n_inputs`
/// primary inputs, both constants, one gate per `(kind, arity, seed)`
/// triple (fanins drawn from already-present nodes, so the build is
/// acyclic by construction) and one primary output per pick.
fn build_dag(n_inputs: usize, gates: &[(usize, usize, u64)], out_picks: &[u64]) -> Circuit {
    let mut c = Circuit::new("prop");
    for i in 0..n_inputs {
        c.add_input(format!("i{i}"));
    }
    c.add_const(false);
    c.add_const(true);
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
        if gi % 3 == 0 {
            c.set_node_name(g, format!("g{gi}"));
        }
    }
    for (k, &p) in out_picks.iter().enumerate() {
        c.add_output(NodeId::from_index((p % c.len() as u64) as usize), format!("o{k}"));
    }
    c
}

/// Applies a sampled edit sequence: appends (inputs, constants, gates,
/// output registrations), in-place rewires (fanins restricted to smaller
/// ids, so edits stay acyclic) and renames. Deterministic in the circuit
/// state, so replaying the same ops on an equal circuit produces an equal
/// circuit.
fn apply_edits(c: &mut Circuit, ops: &[(usize, u64, u64)]) {
    for (i, &(sel, a, b)) in ops.iter().enumerate() {
        let len = c.len();
        match sel % 8 {
            0 => {
                c.add_input(format!("pi{i}"));
            }
            1 => {
                c.add_const(a % 2 == 1);
            }
            2 => {
                let arity = 1 + (a % 3) as usize;
                let fanins = (0..arity).map(|k| pick(b, k, len)).collect();
                c.add_gate(wide_kind(a as usize), fanins).expect("appended fanins exist");
            }
            3 => {
                c.add_output(NodeId::from_index((a % len as u64) as usize), format!("po{i}"));
            }
            4 | 5 => {
                let t = (a % len as u64) as usize;
                let target = NodeId::from_index(t);
                if c.node(target).kind() == GateKind::Input {
                    continue;
                }
                if t == 0 || b % 5 == 0 {
                    let kind = if b % 2 == 0 { GateKind::Const0 } else { GateKind::Const1 };
                    c.rewire(target, kind, Vec::new()).expect("constants never cycle");
                } else {
                    let arity = 1 + (b % 3) as usize;
                    let fanins = (0..arity).map(|k| pick(b, k, t)).collect();
                    c.rewire(target, wide_kind(b as usize), fanins)
                        .expect("strictly-smaller fanin ids cannot cycle");
                }
            }
            6 => {
                c.set_node_name(NodeId::from_index((a % len as u64) as usize), format!("r{i}"));
            }
            _ => {
                c.set_name(format!("edited{i}"));
            }
        }
    }
}

/// Every maintained view must agree with the from-scratch derivation on the
/// current structure: flat fanout adjacency, fanout counts and PO
/// references.
fn assert_views_match_rebuild(c: &Circuit) {
    let v = c.views().expect("views enabled");
    let table = c.fanout_table();
    let counts = c.fanout_counts();
    for i in 0..c.len() {
        let id = NodeId::from_index(i);
        assert_eq!(v.fanout(id), &table[i][..], "fanout view diverged at n{i}");
        assert_eq!(v.fanout_count(id), counts[i], "fanout count diverged at n{i}");
        let po = c.outputs().iter().filter(|&&o| o == id).count() as u32;
        assert_eq!(v.po_refs(id), po, "po refs diverged at n{i}");
        assert_eq!(v.drives_output(id), po > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rolling an edit transaction back via the journal restores a state
    /// bit-identical to a pre-edit clone — nodes, names, outputs and all
    /// maintained views.
    #[test]
    fn rollback_matches_pre_edit_clone(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 1..25),
        out_picks in proptest::collection::vec(any::<u64>(), 1..5),
        ops in proptest::collection::vec((0usize..8, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let mut c = build_dag(n_inputs, &gates, &out_picks);
        c.enable_views();
        let before = c.clone();
        let cp = c.begin_edit();
        apply_edits(&mut c, &ops);
        // Mid-edit the patched views must already agree with rebuilds.
        assert_views_match_rebuild(&c);
        c.rollback_to(cp);
        prop_assert!(!c.in_transaction());
        prop_assert!(c == before, "rollback did not restore the pre-edit circuit");
        assert_views_match_rebuild(&c);
    }

    /// Committing a transaction leaves exactly the state that applying the
    /// same edits without any transaction (and without views) produces —
    /// the journal machinery is observationally free.
    #[test]
    fn commit_matches_untracked_application(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 1..20),
        out_picks in proptest::collection::vec(any::<u64>(), 1..4),
        ops in proptest::collection::vec((0usize..8, any::<u64>(), any::<u64>()), 1..30),
    ) {
        let base = build_dag(n_inputs, &gates, &out_picks);
        let mut tracked = base.clone();
        tracked.enable_views();
        let cp = tracked.begin_edit();
        apply_edits(&mut tracked, &ops);
        tracked.commit(cp);
        prop_assert!(!tracked.in_transaction());
        assert_views_match_rebuild(&tracked);

        let mut plain = base.clone();
        apply_edits(&mut plain, &ops);
        prop_assert!(tracked == plain, "journaled application diverged from plain application");
    }
}
