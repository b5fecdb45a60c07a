//! Brute-force references the cut engine is tested against.
//!
//! [`brute_force_cuts`] tries every set of lines in a gate's transitive
//! fanin, and [`absorption_cones`] grows gate sets rooted at a gate by
//! absorbing one fanin gate at a time (the paper's Section 4.1 search).
//! Neither shares code with [`super::cuts`] beyond the circuit API.

use sft_netlist::{Circuit, GateKind, NodeId};
use std::collections::HashSet;

/// Every cut of `g` with at most `k` leaves, as ascending leaf lists: the
/// sets of non-constant lines of `g`'s transitive fanin such that the walk
/// from `g`, stopping at the set, reaches every line of it and no primary
/// input. `None` when the fanin has more than `max_lines` candidate lines.
pub(super) fn brute_force_cuts(
    c: &Circuit,
    g: NodeId,
    k: usize,
    max_lines: usize,
) -> Option<Vec<Vec<NodeId>>> {
    let mut lines = Vec::new();
    let mut stack = c.node(g).fanins().to_vec();
    while let Some(n) = stack.pop() {
        let kind = c.node(n).kind();
        if lines.contains(&n) || matches!(kind, GateKind::Const0 | GateKind::Const1) {
            continue;
        }
        lines.push(n);
        stack.extend_from_slice(c.node(n).fanins());
    }
    if lines.len() > max_lines {
        return None;
    }
    lines.sort_unstable();
    let mut cuts = Vec::new();
    for set in 0u64..1 << lines.len() {
        if set.count_ones() as usize > k {
            continue;
        }
        let leaves: Vec<NodeId> =
            (0..lines.len()).filter(|&i| set >> i & 1 == 1).map(|i| lines[i]).collect();
        if is_cut(c, g, &leaves) {
            cuts.push(leaves);
        }
    }
    Some(cuts)
}

/// Whether the walk from `g` stopping at `leaves` reaches all of them and
/// no primary input.
fn is_cut(c: &Circuit, g: NodeId, leaves: &[NodeId]) -> bool {
    let mut reached = HashSet::new();
    let mut seen = HashSet::new();
    let mut stack = c.node(g).fanins().to_vec();
    while let Some(n) = stack.pop() {
        if leaves.contains(&n) {
            reached.insert(n);
        } else if seen.insert(n) {
            if c.node(n).kind() == GateKind::Input {
                return false;
            }
            stack.extend_from_slice(c.node(n).fanins());
        }
    }
    reached.len() == leaves.len()
}

/// Gate sets rooted at `g`, grown by absorbing one fanin gate at a time
/// while at most `k` lines feed them, at most `cap` of them. Returns
/// `(gate set, input cut)` pairs, the inputs in discovery order; constants
/// stay inside the cone.
pub(super) fn absorption_cones(
    circuit: &Circuit,
    g: NodeId,
    k: usize,
    cap: usize,
) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    let inputs_of = |gates: &[NodeId]| -> Vec<NodeId> {
        let set: HashSet<NodeId> = gates.iter().copied().collect();
        let mut inputs = Vec::new();
        for &x in gates {
            for &f in circuit.node(x).fanins() {
                let kind = circuit.node(f).kind();
                if matches!(kind, GateKind::Const0 | GateKind::Const1) {
                    continue;
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
        if inputs.len() > k || inputs.is_empty() {
            continue;
        }
        result.push((gates.clone(), inputs.clone()));
        if result.len() >= cap {
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

#[cfg(test)]
mod tests {
    use super::super::candidates::cone_gates;
    use super::super::cuts::{Cut, CutSet};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sft_budget::Budget;
    use sft_circuits::random::{random_circuit, RandomCircuitConfig};
    use sft_netlist::bench_format::parse;

    /// Every node's cuts at input limit `k`, at most `cap` per node.
    fn cuts_of(c: &Circuit, k: usize, cap: usize) -> CutSet {
        let order = c.bfs_order().unwrap();
        let mut cuts = CutSet::default();
        cuts.enumerate(c, &order, k, cap, &Budget::unlimited()).unwrap();
        cuts
    }

    fn list(cuts: &CutSet, g: NodeId) -> Vec<Cut> {
        cuts.of(g).collect()
    }

    fn gates(c: &Circuit) -> impl Iterator<Item = NodeId> + '_ {
        c.iter().filter(|(_, n)| n.kind().is_gate()).map(|(id, _)| id)
    }

    fn leaf_sets(cuts: &[Cut]) -> Vec<Vec<NodeId>> {
        cuts.iter().map(|cut| cut.leaves().to_vec()).collect()
    }

    /// A random circuit over every gate kind, constants and repeated
    /// fanins included; fanins come from the last `window` lines.
    fn every_kind(seed: u64, inputs: usize, gates: usize, window: usize) -> Circuit {
        const KINDS: [GateKind; 8] = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Buf,
            GateKind::Not,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new("every_kind");
        let mut lines: Vec<NodeId> = (0..inputs).map(|i| c.add_input(format!("i{i}"))).collect();
        lines.push(c.add_const(false));
        lines.push(c.add_const(true));
        for _ in 0..gates {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let arity =
                if matches!(kind, GateKind::Buf | GateKind::Not) { 1 } else { rng.gen_range(1..4) };
            let from = lines.len().saturating_sub(window);
            let fanins = (0..arity).map(|_| lines[rng.gen_range(from..lines.len())]).collect();
            lines.push(c.add_gate(kind, fanins).unwrap());
        }
        for (i, &line) in lines.iter().rev().take(3).enumerate() {
            c.add_output(line, format!("o{i}"));
        }
        c
    }

    fn random_dag(seed: u64, inputs: usize, gates: usize, window: usize) -> Circuit {
        random_circuit(&RandomCircuitConfig { inputs, outputs: 4, gates, window, seed })
    }

    /// The small random circuits the brute-force oracle can afford.
    fn small_circuits() -> Vec<Circuit> {
        let mut circuits: Vec<Circuit> = (0..8).map(|s| every_kind(s, 4, 14, 6)).collect();
        circuits.extend((0..8).map(|s| random_dag(s, 4, 14, 6)));
        circuits
    }

    /// Larger circuits: the irs suite, random DAGs, random circuits over
    /// every gate kind and an adder (XOR-heavy).
    fn medium_circuits() -> Vec<Circuit> {
        let mut circuits: Vec<Circuit> =
            sft_circuits::suite::suite_small().into_iter().map(|e| e.circuit).collect();
        circuits.extend((0..3).map(|s| random_dag(s, 12, 80, 24)));
        circuits.extend((0..3).map(|s| every_kind(s, 8, 60, 12)));
        circuits.push(sft_circuits::gen::wide_adder(4));
        circuits
    }

    /// Every cut's table is its cone's function, its leaves ascend, and
    /// each list is in strict priority order within the cap.
    #[test]
    fn every_cut_table_is_its_cone_function() {
        for c in medium_circuits() {
            for k in 2..=7 {
                let cuts = cuts_of(&c, k, 200);
                for g in gates(&c) {
                    let list = list(&cuts, g);
                    assert!(list.len() <= 200);
                    for pair in list.windows(2) {
                        let key = |cut: &Cut| (cut.leaves().len(), cut.leaves().to_vec());
                        assert!(key(&pair[0]) < key(&pair[1]), "{}: {g} out of order", c.name());
                    }
                    for cut in list {
                        let leaves = cut.leaves();
                        assert!(leaves.len() <= k && leaves.windows(2).all(|w| w[0] < w[1]));
                        let expected = c.cone_function(g, leaves).unwrap();
                        assert_eq!(cut.truth(), expected, "{}: {g} over {leaves:?}", c.name());
                    }
                }
            }
        }
    }

    /// Uncapped, a gate's cuts are exactly the brute-force cut set.
    #[test]
    fn uncapped_cuts_equal_brute_force() {
        let mut checked = 0;
        for c in small_circuits() {
            let all: Vec<(NodeId, Vec<Vec<NodeId>>)> =
                gates(&c).filter_map(|g| Some((g, brute_force_cuts(&c, g, 7, 16)?))).collect();
            for k in 2..=7 {
                let cuts = cuts_of(&c, k, usize::MAX);
                for (g, expected) in &all {
                    let mut expected: Vec<Vec<NodeId>> =
                        expected.iter().filter(|cut| cut.len() <= k).cloned().collect();
                    expected.sort_by_key(|cut| (cut.len(), cut.clone()));
                    assert_eq!(
                        leaf_sets(&list(&cuts, *g)),
                        expected,
                        "{}: {g} at K = {k}",
                        c.name()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "only {checked} gate lists checked");
    }

    /// Uncapped, the cuts contain every cone the absorption search finds,
    /// with the cone's function as their table.
    #[test]
    fn cuts_contain_every_absorption_cone() {
        for c in small_circuits() {
            for k in 2..=7 {
                let cuts = cuts_of(&c, k, usize::MAX);
                for g in gates(&c) {
                    let list = list(&cuts, g);
                    for (_, mut inputs) in absorption_cones(&c, g, k, usize::MAX) {
                        inputs.sort_unstable();
                        let found = list.iter().find(|cut| cut.leaves() == inputs.as_slice());
                        let cut = found.unwrap_or_else(|| {
                            panic!("{}: {g} misses the cone over {inputs:?} at K = {k}", c.name())
                        });
                        assert_eq!(cut.truth(), c.cone_function(g, &inputs).unwrap());
                    }
                }
            }
        }
    }

    /// Capped, every list is a subset of the uncapped one, and where the
    /// cap binds only at the gate itself it is the uncapped list's first
    /// `cap` cuts: at most two fanins, each keeping its whole uncapped list,
    /// and the first one's options (itself and its cuts) fitting the cap.
    #[test]
    fn capped_lists_keep_the_priority_prefix() {
        let mut prefixes = 0;
        let mut circuits: Vec<Circuit> = (0..3).map(|s| random_dag(s, 10, 50, 12)).collect();
        circuits.extend((0..6).map(|s| every_kind(s, 5, 16, 6)));
        for c in circuits {
            for (k, cap) in [(4, 3), (5, 8), (7, 20)] {
                let full = cuts_of(&c, k, usize::MAX);
                let capped = cuts_of(&c, k, cap);
                for g in gates(&c) {
                    let (all, kept) = (leaf_sets(&list(&full, g)), leaf_sets(&list(&capped, g)));
                    assert!(kept.len() <= cap);
                    assert!(kept.iter().all(|cut| all.contains(cut)), "{}: {g}", c.name());
                    let fanins = c.node(g).fanins();
                    let whole =
                        |f: &NodeId| leaf_sets(&list(&capped, *f)) == leaf_sets(&list(&full, *f));
                    let first_fits = full.of(fanins[0]).count() < cap;
                    if fanins.len() <= 2 && fanins.iter().all(whole) && first_fits {
                        assert_eq!(kept, all[..all.len().min(cap)], "{}: {g}", c.name());
                        prefixes += usize::from(all.len() > cap);
                    }
                }
            }
        }
        assert!(prefixes > 0, "the cap never bound at a checked gate");
    }

    /// K is respected, the single-gate cone is a cut, and at K = 6 the
    /// whole 5-gate cone is reached.
    #[test]
    fn cuts_respect_k_and_reach_the_full_cone() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(c, d)\nt3 = AND(e, f)\nt4 = AND(t1, t2)\ny = AND(t4, t3)\n";
        let c = parse(src, "wide").unwrap();
        let y = c.outputs()[0];
        let cone_sizes = |k: usize| -> Vec<usize> {
            let cuts = cuts_of(&c, k, 200);
            assert!(cuts.of(y).all(|cut| cut.leaves().len() <= k));
            cuts.of(y).map(|cut| cone_gates(&c, y, cut.leaves()).len()).collect()
        };
        assert!(cone_sizes(4).contains(&1), "the single-gate cone is a cut");
        assert!(!cone_sizes(4).contains(&5));
        assert!(cone_sizes(6).contains(&5), "K = 6 reaches the whole cone");
    }
}
