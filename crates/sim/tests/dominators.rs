//! Dominator checks: the Cooper–Harvey–Kennedy pass inside
//! [`SoaCircuit`] must agree with a brute-force definition of domination —
//! `d` dominates `n` iff deleting `d` disconnects `n` from every primary
//! output — on random DAGs (fresh and after random rewires), on every irs
//! suite circuit, and on hand-built corner cases.

use proptest::prelude::*;
use sft_circuits::suite;
use sft_netlist::{Circuit, GateKind, NodeId};
use sft_sim::SoaCircuit;

/// Brute-force immediate dominators straight from the definition. For each
/// candidate `d`, one reverse-topological reachability pass with `d`
/// deleted finds every node it dominates; the immediate dominator of `n`
/// is its dominator closest to `n` (minimum topological position — proper
/// dominators of a node form a chain).
fn brute_force_idoms(c: &Circuit) -> Vec<Option<usize>> {
    let n = c.len();
    let order = c.topo_order().expect("acyclic");
    let fanouts = c.fanout_table();
    let mut po = vec![false; n];
    for &o in c.outputs() {
        po[o.index()] = true;
    }
    let reaches = |banned: Option<NodeId>| -> Vec<bool> {
        let mut r = vec![false; n];
        for &id in order.iter().rev() {
            if Some(id) == banned {
                continue;
            }
            r[id.index()] =
                po[id.index()] || fanouts[id.index()].iter().any(|&(cns, _)| r[cns.index()]);
        }
        r
    };
    let base = reaches(None);
    let mut pos = vec![0usize; n];
    for (p, &id) in order.iter().enumerate() {
        pos[id.index()] = p;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    for d in 0..n {
        let r = reaches(Some(NodeId::from_index(d)));
        for x in 0..n {
            // d dominates x; keep the candidate nearest to x.
            if x != d && base[x] && !r[x] && idom[x].is_none_or(|cur| pos[d] < pos[cur]) {
                idom[x] = Some(d);
            }
        }
    }
    idom
}

/// Asserts the snapshot's dominators equal the brute-force oracle.
fn assert_idoms_match_brute_force(c: &Circuit, ctx: &str) {
    let oracle = brute_force_idoms(c);
    let soa = SoaCircuit::new(c);
    let got: Vec<Option<usize>> = (0..c.len()).map(|i| soa.idom(i)).collect();
    assert_eq!(got, oracle, "{ctx}: SoaCircuit dominators diverged from brute force");
}

/// Maps a selector to a multi-input gate kind.
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

/// Deterministically builds a DAG from sampled raw material: fanins always
/// draw from already-present nodes, so construction is acyclic.
fn build_dag(n_inputs: usize, gates: &[(usize, usize, u64)], out_picks: &[u64]) -> Circuit {
    let mut c = Circuit::new("domprop");
    for i in 0..n_inputs {
        c.add_input(format!("i{i}"));
    }
    for &(kind_sel, arity, seed) in gates {
        let len = c.len();
        if kind_sel % 8 >= 6 {
            let unary = if kind_sel % 2 == 0 { GateKind::Buf } else { GateKind::Not };
            c.add_gate(unary, vec![pick(seed, 0, len)])
        } else {
            let fanins = (0..arity).map(|k| pick(seed, k, len)).collect();
            c.add_gate(wide_kind(kind_sel), fanins)
        }
        .expect("append-only construction cannot cycle");
    }
    for (k, &p) in out_picks.iter().enumerate() {
        c.add_output(NodeId::from_index((p % c.len() as u64) as usize), format!("o{k}"));
    }
    c
}

/// Applies a sampled edit sequence (appends, rewires to smaller ids, output
/// registrations) — the mutation kinds that disturb the fanout graph.
fn apply_edits(c: &mut Circuit, ops: &[(usize, u64, u64)]) {
    for (i, &(sel, a, b)) in ops.iter().enumerate() {
        let len = c.len();
        match sel % 6 {
            0 => {
                c.add_input(format!("pi{i}"));
            }
            1 => {
                let arity = 1 + (a % 3) as usize;
                let fanins = (0..arity).map(|k| pick(b, k, len)).collect();
                c.add_gate(wide_kind(a as usize), fanins).expect("appended fanins exist");
            }
            2 => {
                c.add_output(NodeId::from_index((a % len as u64) as usize), format!("po{i}"));
            }
            _ => {
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
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a freshly built random DAG the pass agrees with the
    /// delete-a-node brute force.
    #[test]
    fn dominators_match_brute_force_on_random_dags(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 1..30),
        out_picks in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let c = build_dag(n_inputs, &gates, &out_picks);
        assert_idoms_match_brute_force(&c, "random dag");
    }

    /// After random rewires, appends and output registrations — which leave
    /// dead nodes, constants and id orders that are not topological — the
    /// pass still agrees with the brute force.
    #[test]
    fn dominators_match_brute_force_after_random_rewires(
        n_inputs in 1usize..5,
        gates in proptest::collection::vec((0usize..8, 1usize..4, any::<u64>()), 1..20),
        out_picks in proptest::collection::vec(any::<u64>(), 1..4),
        ops in proptest::collection::vec((0usize..6, any::<u64>(), any::<u64>()), 1..25),
    ) {
        let mut c = build_dag(n_inputs, &gates, &out_picks);
        apply_edits(&mut c, &ops);
        assert_idoms_match_brute_force(&c, "rewired dag");
    }
}

#[test]
fn suite_dominators_match_brute_force() {
    let circuits = suite();
    assert_eq!(circuits.len(), 8);
    for entry in circuits {
        assert_idoms_match_brute_force(&entry.circuit, entry.name);
    }
}

#[test]
fn chain_dominators() {
    // a -> g1 -> g2 -> y: each node's idom is its single consumer.
    let mut c = Circuit::new("chain");
    let a = c.add_input("a");
    let g1 = c.add_gate(GateKind::Not, vec![a]).unwrap();
    let g2 = c.add_gate(GateKind::Buf, vec![g1]).unwrap();
    c.add_output(g2, "y");
    let soa = SoaCircuit::new(&c);
    assert_eq!(soa.idom(a.index()), Some(g1.index()));
    assert_eq!(soa.idom(g1.index()), Some(g2.index()));
    assert_eq!(soa.idom(g2.index()), None);
    assert_idoms_match_brute_force(&c, "chain");
}

#[test]
fn divergent_paths_have_no_proper_dominator() {
    // a feeds two separate outputs: only the sink dominates a.
    let mut c = Circuit::new("div");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
    let g2 = c.add_gate(GateKind::Or, vec![a, b]).unwrap();
    c.add_output(g1, "y");
    c.add_output(g2, "z");
    let soa = SoaCircuit::new(&c);
    assert_eq!(soa.idom(a.index()), None);
    assert_eq!(soa.idom(b.index()), None);
    assert_idoms_match_brute_force(&c, "divergent");
}

#[test]
fn dead_node_is_unreachable() {
    // `dead` has no consumers, so a's only observation path is g1.
    let mut c = Circuit::new("dead");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
    let dead = c.add_gate(GateKind::Or, vec![a, b]).unwrap();
    c.add_output(g1, "y");
    let soa = SoaCircuit::new(&c);
    assert_eq!(soa.idom(dead.index()), None);
    assert_eq!(soa.idom(a.index()), Some(g1.index()));
    assert_idoms_match_brute_force(&c, "dead node");
}

#[test]
fn po_ref_on_interior_node_caps_the_dominator() {
    // a -> g1 -> g2 -> y, but g1 also drives an output slot: a's effects
    // still funnel through g1, while g1 itself observes directly at its own
    // output (no proper dominator).
    let mut c = Circuit::new("tap");
    let a = c.add_input("a");
    let g1 = c.add_gate(GateKind::Not, vec![a]).unwrap();
    let g2 = c.add_gate(GateKind::Buf, vec![g1]).unwrap();
    c.add_output(g1, "t");
    c.add_output(g2, "y");
    let soa = SoaCircuit::new(&c);
    assert_eq!(soa.idom(a.index()), Some(g1.index()));
    assert_eq!(soa.idom(g1.index()), None);
    assert_idoms_match_brute_force(&c, "po tap");
}
