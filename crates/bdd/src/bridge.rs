//! Netlist → BDD bridge and combinational equivalence checking.

use crate::{BddError, BddRef, Manager};
use sft_budget::Budget;
use sft_netlist::{Circuit, GateKind};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The circuits implement the same function on every output slot.
    Equivalent,
    /// The circuits differ; carries the index of the first differing output
    /// slot and a distinguishing input assignment (one bool per input, in
    /// input order).
    Different { output: usize, witness: Vec<bool> },
}

impl CheckResult {
    /// Whether the result is [`CheckResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CheckResult::Equivalent)
    }
}

/// Builds a BDD for every primary output of `circuit` in `manager`.
///
/// Input `i` (in declaration order) is mapped to BDD variable `i`. Using the
/// same manager for several circuits with the same input arity makes their
/// output references directly comparable.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] if the manager's node cap is exceeded.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn circuit_bdds(manager: &mut Manager, circuit: &Circuit) -> Result<Vec<BddRef>, BddError> {
    circuit_bdds_budgeted(manager, circuit, &Budget::unlimited())
}

/// [`circuit_bdds`] with an effort budget checked at every circuit node, so
/// a deadline, step budget, or cancellation interrupts construction between
/// gates.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on blowup and [`BddError::Interrupted`]
/// when the budget runs out.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn circuit_bdds_budgeted(
    manager: &mut Manager,
    circuit: &Circuit,
    budget: &Budget,
) -> Result<Vec<BddRef>, BddError> {
    let refs = circuit_node_bdds_budgeted(manager, circuit, budget)?;
    Ok(circuit.outputs().iter().map(|o| refs[o.index()]).collect())
}

/// Builds a BDD for **every node** of `circuit` (not just the primary
/// outputs), indexed by node id. Input `i` in declaration order maps to BDD
/// variable `i`, exactly as in [`circuit_bdds`]. Resynthesis reads the
/// per-node functions to compute a cut's satisfiability don't-cares.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on blowup and [`BddError::Interrupted`]
/// when the budget runs out (checked once per node).
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn circuit_node_bdds_budgeted(
    manager: &mut Manager,
    circuit: &Circuit,
    budget: &Budget,
) -> Result<Vec<BddRef>, BddError> {
    let identity: Vec<u32> = (0..circuit.inputs().len() as u32).collect();
    circuit_node_bdds_ordered(manager, circuit, &identity, budget)
}

/// [`circuit_node_bdds_budgeted`] under an explicit variable order:
/// `var_order[i]` is the BDD variable assigned to input `i` (declaration
/// order). `var_order` must be a permutation of `0..inputs`.
///
/// Equivalence of references built through the same `(manager, var_order)`
/// pair is unaffected by the choice of order, but the *size* of the BDDs is
/// extremely order-sensitive; see [`dfs_input_order`] for a structural
/// heuristic. Callers comparing references across circuits (equivalence
/// checking, incremental re-verification) must use the same order for every
/// build in the manager.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on blowup and [`BddError::Interrupted`]
/// when the budget runs out (checked once per node).
///
/// # Panics
///
/// Panics if the circuit is cyclic or `var_order` is shorter than the input
/// list.
pub fn circuit_node_bdds_ordered(
    manager: &mut Manager,
    circuit: &Circuit,
    var_order: &[u32],
    budget: &Budget,
) -> Result<Vec<BddRef>, BddError> {
    let order = circuit.topo_order().expect("combinational circuit");
    let mut refs: Vec<BddRef> = vec![BddRef::FALSE; circuit.len()];
    let input_var: std::collections::HashMap<_, _> =
        circuit.inputs().iter().enumerate().map(|(i, &id)| (id, var_order[i])).collect();
    for id in order {
        budget.check()?;
        let node = circuit.node(id);
        let r = match node.kind() {
            GateKind::Input => manager.var(input_var[&id])?,
            kind => {
                let fanins: Vec<BddRef> = node.fanins().iter().map(|f| refs[f.index()]).collect();
                gate_bdd(manager, kind, &fanins)?
            }
        };
        refs[id.index()] = r;
    }
    Ok(refs)
}

/// A structural variable order for [`circuit_node_bdds_ordered`]: inputs are
/// numbered in the order a depth-first walk from the primary outputs first
/// reaches them, with unreachable inputs appended in declaration order.
/// Returns `var_order[i]` = BDD variable of input `i` (declaration order).
///
/// Depth-first discovery keeps topologically related inputs adjacent in the
/// order, which is the classic static heuristic (Malik et al., ICCAD'88) for
/// small circuit BDDs: a ripple-carry adder interleaves `a_i`/`b_i` (linear
/// instead of exponential BDDs) and a mux tree lists the shared selects
/// before the data leaves (the decision-tree order).
pub fn dfs_input_order(circuit: &Circuit) -> Vec<u32> {
    let position: std::collections::HashMap<sft_netlist::NodeId, usize> =
        circuit.inputs().iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut var_order: Vec<u32> = vec![u32::MAX; circuit.inputs().len()];
    let mut next = 0u32;
    let mut seen = vec![false; circuit.len()];
    for &out in circuit.outputs() {
        // Explicit stack; fanins are pushed in reverse so the leftmost fanin
        // is explored (and its inputs numbered) first.
        let mut stack = vec![out];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            let node = circuit.node(id);
            if node.kind() == GateKind::Input {
                if let Some(&pos) = position.get(&id) {
                    var_order[pos] = next;
                    next += 1;
                }
                continue;
            }
            for &f in node.fanins().iter().rev() {
                if !seen[f.index()] {
                    stack.push(f);
                }
            }
        }
    }
    for slot in &mut var_order {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
    }
    var_order
}

/// Builds the BDD of one gate from the BDDs of its fanins.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on blowup.
///
/// # Panics
///
/// Panics on [`GateKind::Input`] — inputs are variables, not gates.
fn gate_bdd(manager: &mut Manager, kind: GateKind, fanins: &[BddRef]) -> Result<BddRef, BddError> {
    Ok(match kind {
        GateKind::Input => panic!("gate_bdd called on an input node"),
        GateKind::Const0 => BddRef::FALSE,
        GateKind::Const1 => BddRef::TRUE,
        GateKind::Buf => fanins[0],
        GateKind::Not => manager.not(fanins[0])?,
        GateKind::And | GateKind::Nand => {
            let mut acc = BddRef::TRUE;
            for &f in fanins {
                acc = manager.and(acc, f)?;
            }
            if kind == GateKind::Nand {
                manager.not(acc)?
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = BddRef::FALSE;
            for &f in fanins {
                acc = manager.or(acc, f)?;
            }
            if kind == GateKind::Nor {
                manager.not(acc)?
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = BddRef::FALSE;
            for &f in fanins {
                acc = manager.xor(acc, f)?;
            }
            if kind == GateKind::Xnor {
                manager.not(acc)?
            } else {
                acc
            }
        }
    })
}

/// Checks combinational equivalence of two circuits with the same numbers of
/// inputs and outputs (matched by position) using a caller-provided manager.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on BDD blowup.
///
/// # Panics
///
/// Panics if the circuits disagree on the number of inputs or outputs, or if
/// either is cyclic.
pub fn equivalent_with_manager(
    manager: &mut Manager,
    a: &Circuit,
    b: &Circuit,
) -> Result<CheckResult, BddError> {
    equivalent_with_manager_budgeted(manager, a, b, &Budget::unlimited())
}

/// [`equivalent_with_manager`] with an effort budget; construction of either
/// side can be interrupted by a deadline, step budget, or cancellation.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on BDD blowup and
/// [`BddError::Interrupted`] when the budget runs out.
///
/// # Panics
///
/// Same as [`equivalent_with_manager`].
pub fn equivalent_with_manager_budgeted(
    manager: &mut Manager,
    a: &Circuit,
    b: &Circuit,
    budget: &Budget,
) -> Result<CheckResult, BddError> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input arity mismatch");
    assert_eq!(a.outputs().len(), b.outputs().len(), "output arity mismatch");
    let fa = circuit_bdds_budgeted(manager, a, budget)?;
    let fb = circuit_bdds_budgeted(manager, b, budget)?;
    for (slot, (&x, &y)) in fa.iter().zip(&fb).enumerate() {
        if x != y {
            let diff = manager.xor(x, y)?;
            let partial = manager.any_sat(diff).expect("differing functions differ somewhere");
            let mut witness = vec![false; a.inputs().len()];
            for (var, val) in partial {
                witness[var as usize] = val;
            }
            return Ok(CheckResult::Different { output: slot, witness });
        }
    }
    Ok(CheckResult::Equivalent)
}

/// Convenience wrapper around [`equivalent_with_manager`] using a fresh
/// default manager.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] on BDD blowup.
///
/// # Panics
///
/// Same as [`equivalent_with_manager`].
///
/// # Examples
///
/// ```
/// use sft_bdd::equivalent;
/// use sft_netlist::bench_format::parse;
///
/// let a = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "a")?;
/// let b = parse(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\ny = OR(na, nb)\n",
///     "b",
/// )?;
/// assert!(equivalent(&a, &b)?.is_equivalent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn equivalent(a: &Circuit, b: &Circuit) -> Result<CheckResult, BddError> {
    equivalent_with_manager(&mut Manager::new(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;
    use sft_netlist::{Circuit, GateKind};

    #[test]
    fn de_morgan_equivalence() {
        let a = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n", "a").unwrap();
        let b = parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\ny = AND(na, nb)\n",
            "b",
        )
        .unwrap();
        assert!(equivalent(&a, &b).unwrap().is_equivalent());
    }

    #[test]
    fn difference_produces_witness() {
        let a = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "a").unwrap();
        let b = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "b").unwrap();
        match equivalent(&a, &b).unwrap() {
            CheckResult::Different { output, witness } => {
                assert_eq!(output, 0);
                assert_ne!(a.eval_assignment(&witness), b.eval_assignment(&witness));
            }
            CheckResult::Equivalent => panic!("AND and OR are not equivalent"),
        }
    }

    #[test]
    fn multi_output_mismatch_reports_slot() {
        let a = parse("INPUT(a)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = BUF(a)\ny2 = BUF(a)\n", "a").unwrap();
        let b = parse("INPUT(a)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = BUF(a)\ny2 = NOT(a)\n", "b").unwrap();
        match equivalent(&a, &b).unwrap() {
            CheckResult::Different { output, .. } => assert_eq!(output, 1),
            CheckResult::Equivalent => panic!("should differ"),
        }
    }

    #[test]
    fn xor_parity_tree_vs_wide_gate() {
        let mut a = Circuit::new("wide");
        let ins: Vec<_> = (0..5).map(|i| a.add_input(format!("i{i}"))).collect();
        let g = a.add_gate(GateKind::Xor, ins).unwrap();
        a.add_output(g, "y");

        let mut b = Circuit::new("tree");
        let ins: Vec<_> = (0..5).map(|i| b.add_input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = b.add_gate(GateKind::Xor, vec![acc, x]).unwrap();
        }
        b.add_output(acc, "y");
        assert!(equivalent(&a, &b).unwrap().is_equivalent());
    }

    #[test]
    fn constants_in_circuits() {
        let a = parse("INPUT(a)\nOUTPUT(y)\nk = CONST1\ny = AND(a, k)\n", "a").unwrap();
        let b = parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "b").unwrap();
        assert!(equivalent(&a, &b).unwrap().is_equivalent());
    }

    #[test]
    fn budget_interrupts_construction() {
        use sft_budget::{Budget, CancelFlag, Exhausted};
        let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "c").unwrap();

        let expired = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let mut m = Manager::new();
        assert_eq!(
            circuit_bdds_budgeted(&mut m, &c, &expired),
            Err(BddError::Interrupted(Exhausted::Deadline))
        );

        let flag = CancelFlag::new();
        flag.cancel();
        let cancelled = Budget::unlimited().with_cancel(flag);
        let mut m = Manager::new();
        assert_eq!(
            equivalent_with_manager_budgeted(&mut m, &c, &c, &cancelled),
            Err(BddError::Interrupted(Exhausted::Cancelled))
        );

        // An unlimited budget changes nothing.
        let mut m = Manager::new();
        let refs = circuit_bdds_budgeted(&mut m, &c, &Budget::unlimited()).unwrap();
        assert_eq!(refs.len(), 1);
    }

    /// Random-circuit cross-validation: BDD equivalence agrees with
    /// exhaustive simulation on small random circuits.
    #[test]
    fn agrees_with_exhaustive_simulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let mut c = Circuit::new(format!("r{trial}"));
            let ins: Vec<_> = (0..4).map(|i| c.add_input(format!("i{i}"))).collect();
            let mut pool = ins.clone();
            for _ in 0..8 {
                let kinds = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Xor];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let x = pool[rng.gen_range(0..pool.len())];
                let y = pool[rng.gen_range(0..pool.len())];
                let g = c.add_gate(kind, vec![x, y]).unwrap();
                pool.push(g);
            }
            let out = *pool.last().unwrap();
            c.add_output(out, "y");

            // A mutated copy: flip one gate kind.
            let mut d = c.clone();
            let victim = out;
            let kind = d.node(victim).kind();
            let fanins = d.node(victim).fanins().to_vec();
            d.rewire(victim, kind.complemented().unwrap(), fanins).unwrap();

            let same = equivalent(&c, &d).unwrap().is_equivalent();
            let mut sim_same = true;
            for m in 0..16u32 {
                let a: Vec<bool> = (0..4).map(|i| m >> i & 1 == 1).collect();
                if c.eval_assignment(&a) != d.eval_assignment(&a) {
                    sim_same = false;
                    break;
                }
            }
            assert_eq!(same, sim_same, "trial {trial}");
        }
    }
}
