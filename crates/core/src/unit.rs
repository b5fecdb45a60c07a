//! Building comparison units (Figures 1–5 of the paper).
//!
//! A comparison unit for a spec `(perm, L, U)` with `F` free variables is:
//!
//! ```text
//!        x_1..x_F ──(literals)──┐
//!   x_{F+1}..x_n ──> [>=L_F] ───┤ AND ──> f
//!   x_{F+1}..x_n ──> [<=U_F] ───┘
//! ```
//!
//! The `>=L` block (Figure 2a) is a chain of 2-input gates built from the
//! LSB up: `G_i = AND(x_i, G_{i+1})` when `l_i = 1`, `OR(x_i, G_{i+1})` when
//! `l_i = 0`, with trailing gates omitted when the suffix of `L` is zero.
//! The `<=U` block (Figure 2b) is dual with complemented inputs. Consecutive
//! same-kind gates are merged into wider gates (Figure 4), which leaves the
//! equivalent-2-input gate count and the path count unchanged but reduces
//! the gate count.
//!
//! The unit has at most **two** paths from any input to its output — one
//! through each block — and fewer for free variables (one) and for inputs
//! whose chain gate is omitted (Section 3.2).

use crate::ComparisonSpec;
use sft_netlist::{Circuit, GateKind, NetlistError, NodeId};

/// Cost summary of a comparison unit, used by the resynthesis procedures to
/// score candidate replacements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitCost {
    /// Equivalent 2-input gates of the unit.
    pub two_input_gates: u64,
    /// Paths from each input position (original input order) to the unit
    /// output: 0, 1 or 2.
    pub input_paths: Vec<u64>,
    /// Number of logic levels of the unit.
    pub depth: u32,
}

impl UnitCost {
    /// Total paths through the unit given external path labels `N_p` of the
    /// inputs (Section 2 of the paper: `N_p(g) = Σ N_p(g_i)·K_p(g_i)`).
    pub fn paths_with_labels(&self, labels: &[u128]) -> u128 {
        self.input_paths
            .iter()
            .zip(labels)
            .fold(0u128, |acc, (&k, &n)| acc.saturating_add(n.saturating_mul(k as u128)))
    }
}

/// What the top gate of a built unit should become. Building *in* a circuit
/// returns this so the caller can graft it onto an existing node id.
#[derive(Debug, Clone)]
pub struct UnitTop {
    /// Gate kind of the unit's output node.
    pub kind: GateKind,
    /// Fanins of the unit's output node.
    pub fanins: Vec<NodeId>,
}

/// Builds the comparison unit for `spec` inside `circuit`, fed by `inputs`
/// (one line per original input position, i.e. `inputs[j]` is the paper's
/// `y_{j+1}`). Interior nodes are appended to the circuit; the unit's
/// output gate is **returned, not created**, so the caller can either graft
/// it onto an existing node (resynthesis) or add it as a fresh gate.
///
/// # Errors
///
/// Returns an error if `inputs.len() != spec.inputs()` (reported as
/// [`NetlistError::Cone`]) or if node creation fails.
pub fn build_unit_in(
    circuit: &mut Circuit,
    inputs: &[NodeId],
    spec: &ComparisonSpec,
) -> Result<UnitTop, NetlistError> {
    if inputs.len() != spec.inputs() {
        return Err(NetlistError::Cone(format!(
            "unit needs {} inputs, got {}",
            spec.inputs(),
            inputs.len()
        )));
    }
    let n = spec.inputs();
    let f = spec.free_count();
    // Nodes with index >= base were created by this builder; only those may
    // be widened by the chain merge (host-circuit lines must never be
    // rewired).
    let base = circuit.len();
    let x = |i: usize| inputs[spec.perm[i]]; // the paper's x_{i+1}

    // AND-gate terms: free literals, then the blocks.
    let mut terms: Vec<NodeId> = Vec::new();
    for i in 0..f {
        if spec.lower_bit(i) {
            terms.push(x(i));
        } else {
            terms.push(circuit.add_gate(GateKind::Not, vec![x(i)])?);
        }
    }

    // >=L_F block (omitted when trivial, Section 3.2.2).
    if !spec.geq_block_trivial() {
        let mut acc: Option<NodeId> = None; // None = constant 1 (chain not started)
        for i in (f..n).rev() {
            if spec.lower_bit(i) {
                acc = Some(match acc {
                    None => x(i),
                    Some(a) => chain_gate(circuit, GateKind::And, x(i), a, base)?,
                });
            } else {
                acc = match acc {
                    None => None, // OR with constant 1: gate omitted
                    Some(a) => Some(chain_gate(circuit, GateKind::Or, x(i), a, base)?),
                };
            }
        }
        terms.push(acc.expect("non-trivial L_F yields a chain"));
    }

    // <=U_F block (dual; inputs complemented).
    if !spec.leq_block_trivial() {
        let mut acc: Option<NodeId> = None;
        for i in (f..n).rev() {
            if !spec.upper_bit(i) {
                let lit = circuit.add_gate(GateKind::Not, vec![x(i)])?;
                acc = Some(match acc {
                    None => lit,
                    Some(a) => chain_gate(circuit, GateKind::And, lit, a, base)?,
                });
            } else {
                acc = match acc {
                    None => None,
                    Some(a) => {
                        let lit = circuit.add_gate(GateKind::Not, vec![x(i)])?;
                        Some(chain_gate(circuit, GateKind::Or, lit, a, base)?)
                    }
                };
            }
        }
        terms.push(acc.expect("non-trivial U_F yields a chain"));
    }

    let top = match terms.len() {
        0 => UnitTop { kind: GateKind::Const1, fanins: Vec::new() },
        1 => UnitTop { kind: GateKind::Buf, fanins: terms },
        _ => UnitTop { kind: GateKind::And, fanins: terms },
    };
    Ok(if spec.complemented { complement_top(top) } else { top })
}

/// Extends a freshly-built same-kind chain gate instead of stacking a new
/// 2-input gate on top (the Figure 4 merge). `prev` is the gate built in
/// the previous chain step; it has exactly one consumer-to-be (us), so
/// widening it is safe.
fn chain_gate(
    circuit: &mut Circuit,
    kind: GateKind,
    lit: NodeId,
    prev: NodeId,
    base: usize,
) -> Result<NodeId, NetlistError> {
    if prev.index() >= base && circuit.node(prev).kind() == kind {
        let mut fanins = vec![lit];
        fanins.extend_from_slice(circuit.node(prev).fanins());
        circuit.rewire(prev, kind, fanins)?;
        Ok(prev)
    } else {
        circuit.add_gate(kind, vec![lit, prev])
    }
}

/// Materializes a [`UnitTop`] as an actual node in `circuit` (used when
/// the top is a term of a larger structure rather than a graft target).
///
/// # Errors
///
/// Returns an error if gate creation fails.
pub fn materialize_top(circuit: &mut Circuit, top: UnitTop) -> Result<NodeId, NetlistError> {
    match top.kind {
        GateKind::Buf => Ok(top.fanins[0]),
        GateKind::Const0 | GateKind::Const1 => Ok(circuit.add_const(top.kind == GateKind::Const1)),
        kind => circuit.add_gate(kind, top.fanins),
    }
}

fn complement_top(top: UnitTop) -> UnitTop {
    let kind = match top.kind {
        GateKind::And => GateKind::Nand,
        GateKind::Buf => GateKind::Not,
        GateKind::Const1 => GateKind::Const0,
        GateKind::Const0 => GateKind::Const1,
        other => other.complemented().unwrap_or(other),
    };
    UnitTop { kind, fanins: top.fanins }
}

/// Builds a standalone circuit implementing the unit for `spec`, with
/// primary inputs `y1..yn` and a single output `f`.
///
/// # Errors
///
/// Returns an error if the spec is malformed.
///
/// # Examples
///
/// ```
/// use sft_core::{build_standalone_unit, ComparisonSpec};
///
/// // Figure 4: the >=7 unit over 4 inputs.
/// let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 7, 15)?;
/// let c = build_standalone_unit(&spec)?;
/// assert_eq!(c.eval_assignment(&[false, true, true, true]), vec![true]);  // 7
/// assert_eq!(c.eval_assignment(&[false, true, true, false]), vec![false]); // 6
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_standalone_unit(spec: &ComparisonSpec) -> Result<Circuit, Box<dyn std::error::Error>> {
    spec.validate()?;
    let mut c = Circuit::new(format!("unit_{}_{}", spec.lower, spec.upper));
    let inputs: Vec<NodeId> =
        (0..spec.inputs()).map(|j| c.add_input(format!("y{}", j + 1))).collect();
    let top = build_unit_in(&mut c, &inputs, spec)?;
    let out = if top.kind == GateKind::Buf {
        top.fanins[0]
    } else if top.fanins.is_empty() {
        c.add_const(top.kind == GateKind::Const1)
    } else {
        c.add_gate(top.kind, top.fanins)?
    };
    c.add_output(out, "f");
    Ok(c)
}

/// Computes the cost of the unit for `spec` in closed form, counting what
/// [`build_standalone_unit`] would build without building it:
///
/// - each of the `F` free literals is one path, through an inverter when
///   its bound bit is 0;
/// - a non-trivial `>=L_F` chain runs from position `F` to the lowest set
///   bit of `L_F`: one path per input on it, one equivalent 2-input gate
///   per link, and one level per run of same-kind links (the Figure 4
///   merge);
/// - the `<=U_F` chain is the dual over the lowest clear bit of `U_F`, one
///   level deeper for its input inverters;
/// - two or more terms meet in the top AND (NAND when complemented); a
///   single complemented term gets an output inverter.
///
/// # Errors
///
/// Returns an error if the spec is malformed.
pub fn unit_cost(spec: &ComparisonSpec) -> Result<UnitCost, Box<dyn std::error::Error>> {
    spec.validate()?;
    let n = spec.inputs();
    let free = spec.free_count();
    let mut paths = vec![0u64; n]; // by position i, the paper's x_{i+1}
    let mut two_input_gates = 0;
    let mut terms = 0;
    let mut depth = 0;
    for (i, p) in paths.iter_mut().enumerate().take(free) {
        *p = 1;
        terms += 1;
        depth = depth.max(u32::from(!spec.lower_bit(i)));
    }
    // A block's chain starts at its last AND position and links up to
    // position F; `and_link(i)` tells whether position i links with an AND
    // (else an OR). Trivial blocks have no AND position and are omitted.
    let mut chain = |and_link: &dyn Fn(usize) -> bool, literal_depth: u32| {
        let Some(last) = (free..n).rev().find(|&i| and_link(i)) else { return };
        for p in &mut paths[free..=last] {
            *p += 1;
        }
        two_input_gates += (last - free) as u64;
        let runs = (free..last).filter(|&i| i + 1 == last || and_link(i) != and_link(i + 1));
        depth = depth.max(literal_depth + runs.count() as u32);
        terms += 1;
    };
    chain(&|i| spec.lower_bit(i), 0); // >=L_F
    chain(&|i| !spec.upper_bit(i), 1); // <=U_F, over inverted inputs
    if terms >= 2 {
        two_input_gates += terms - 1;
        depth += 1;
    } else if terms == 1 && spec.complemented {
        depth += 1;
    }
    let mut input_paths = vec![0; n];
    for (i, &p) in spec.perm.iter().enumerate() {
        input_paths[p] = paths[i];
    }
    Ok(UnitCost { two_input_gates, input_paths, depth })
}

/// The cost measured on a built unit: the oracle for [`unit_cost`].
#[cfg(test)]
fn built_unit_cost(spec: &ComparisonSpec) -> UnitCost {
    let c = build_standalone_unit(spec).expect("valid spec");
    let out = c.outputs()[0];
    let input_paths = c.inputs().iter().map(|&i| c.path_count_between(i, out) as u64).collect();
    UnitCost { two_input_gates: c.two_input_gate_count(), input_paths, depth: c.depth() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, IdentifyOptions};
    use sft_truth::TruthTable;

    fn table_of(c: &Circuit) -> TruthTable {
        let n = c.inputs().len();
        TruthTable::from_fn(n, |m| {
            let assignment: Vec<bool> = (0..n).map(|j| m >> (n - 1 - j) & 1 == 1).collect();
            c.eval_assignment(&assignment)[0]
        })
    }

    #[test]
    fn figure3_geq3_structure() {
        // >=3 over 4 inputs (Figure 3a): OR(x1, OR(x2, AND(x3, x4))),
        // merged: OR(x1, x2, AND(x3, x4)).
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 3, 15).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        // 1 OR (3-input) + 1 AND (2-input) = 3 equivalent 2-input gates.
        assert_eq!(c.two_input_gate_count(), 3);
    }

    #[test]
    fn figure3_geq12_omits_trailing_gates() {
        // >=12 = (1100): unit is AND(x1, x2); x3, x4 disappear.
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 12, 15).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        assert_eq!(c.two_input_gate_count(), 1);
        let cost = unit_cost(&spec).unwrap();
        assert_eq!(cost.input_paths, vec![1, 1, 0, 0]);
    }

    #[test]
    fn figure3_leq12_and_leq3() {
        // <=12 (Figure 3c): f = !x1 + !x2 + !x3!x4.
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 0, 12).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        // <=3 (Figure 3d): f = !x1 !x2 — trailing 1-bits omitted.
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 0, 3).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        assert_eq!(c.two_input_gate_count(), 1);
        assert_eq!(unit_cost(&spec).unwrap().input_paths, vec![1, 1, 0, 0]);
    }

    #[test]
    fn figure4_chain_merging() {
        // >=7 = (0111): OR(x1, AND(x2, x3, x4)) after merging.
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 7, 15).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        // Gates: one 3-input AND (2 eq2) + one 2-input OR (1 eq2).
        assert_eq!(c.two_input_gate_count(), 3);
        let gates: Vec<_> = c
            .iter()
            .filter(|(_, n)| n.kind().is_gate())
            .map(|(_, n)| (n.kind(), n.fanins().len()))
            .collect();
        assert!(gates.contains(&(GateKind::And, 3)), "AND chain must merge: {gates:?}");
    }

    #[test]
    fn figure1_f2_unit() {
        // The paper's f2: L=5, U=10 under input reversal.
        let spec = ComparisonSpec::new(vec![3, 2, 1, 0], 5, 10).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        let t = table_of(&c);
        assert_eq!(t.on_set().collect::<Vec<_>>(), vec![1, 5, 6, 9, 10, 14]);
        // At most two paths from any input.
        let cost = unit_cost(&spec).unwrap();
        assert!(cost.input_paths.iter().all(|&k| k <= 2), "{:?}", cost.input_paths);
    }

    #[test]
    fn figure5_free_variables_single_path() {
        // L=5=(0101), U=7=(0111): x1, x2 free.
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 5, 7).unwrap();
        let cost = unit_cost(&spec).unwrap();
        assert_eq!(cost.input_paths[0], 1, "free variables have one path");
        assert_eq!(cost.input_paths[1], 1);
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
    }

    #[test]
    fn figure6_unit_l11_u12() {
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 11, 12).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        assert_eq!(spec.free_count(), 1);
    }

    #[test]
    fn single_cube_becomes_bare_and() {
        // Section 3.2.2: f = y1 y3 -> permutation (y1, y3, y2), L=6, U=7.
        let spec = ComparisonSpec::new(vec![0, 2, 1], 6, 7).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(c.two_input_gate_count(), 1);
        let t = table_of(&c);
        let expect = TruthTable::variable(3, 0).and(&TruthTable::variable(3, 2));
        assert_eq!(t, expect);
    }

    #[test]
    fn complemented_unit() {
        // NOR3 is itself the interval [0, 0]; the identifier certifies it
        // directly. Complemented units are exercised explicitly.
        let nor3 = TruthTable::from_fn(3, |m| m == 0);
        let spec = identify(&nor3, &IdentifyOptions::default()).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), nor3);
        // An explicitly complemented spec builds the complement function.
        let spec = ComparisonSpec::new_complemented(vec![1, 0, 2], 2, 5).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert_eq!(table_of(&c), spec.to_table());
        assert_eq!(
            table_of(&c).complement(),
            ComparisonSpec::new(vec![1, 0, 2], 2, 5).unwrap().to_table()
        );
    }

    #[test]
    fn constant_units() {
        let spec = ComparisonSpec::new(vec![0, 1], 0, 3).unwrap();
        let c = build_standalone_unit(&spec).unwrap();
        assert!(table_of(&c).is_one());
        assert_eq!(c.two_input_gate_count(), 0);
    }

    /// Exhaustive: every interval over 3..=5 inputs builds a unit that (a)
    /// implements exactly the interval function, (b) has at most two paths
    /// per input, and (c) has depth at most n + 1.
    #[test]
    fn all_intervals_build_correct_cheap_units() {
        for n in 3..=5usize {
            let max = (1u64 << n) - 1;
            for l in 0..=max {
                for u in l..=max {
                    let spec = ComparisonSpec::new((0..n).collect(), l, u).unwrap();
                    let c = build_standalone_unit(&spec).unwrap();
                    assert_eq!(table_of(&c), spec.to_table(), "L={l} U={u} n={n}");
                    let cost = unit_cost(&spec).unwrap();
                    assert!(
                        cost.input_paths.iter().all(|&k| k <= 2),
                        "more than two paths for L={l} U={u}"
                    );
                    assert!(cost.depth as usize <= n + 1, "depth too large for L={l} U={u}");
                }
            }
        }
    }

    fn assert_cost_matches_built_unit(spec: &ComparisonSpec) {
        assert_eq!(unit_cost(spec).unwrap(), built_unit_cost(spec), "{spec}");
    }

    /// The closed form equals the built unit's measured cost on every
    /// interval (plain and complemented) up to 7 inputs, and under every
    /// input permutation up to 4 inputs.
    #[test]
    fn closed_form_cost_matches_built_unit() {
        for n in 0..=7usize {
            let max = if n == 0 { 0 } else { (1u64 << n) - 1 };
            let mut perm: Vec<usize> = (0..n).collect();
            loop {
                for l in 0..=max {
                    for u in l..=max {
                        assert_cost_matches_built_unit(
                            &ComparisonSpec::new(perm.clone(), l, u).unwrap(),
                        );
                        assert_cost_matches_built_unit(
                            &ComparisonSpec::new_complemented(perm.clone(), l, u).unwrap(),
                        );
                    }
                }
                if n > 4 || !crate::identify::next_permutation(&mut perm) {
                    break;
                }
            }
        }
    }

    #[test]
    fn cost_paths_with_labels_matches_section2_formula() {
        let spec = ComparisonSpec::new(vec![0, 1, 2, 3], 5, 10).unwrap();
        let cost = unit_cost(&spec).unwrap();
        let labels = [10u128, 100, 20, 20];
        let manual: u128 =
            cost.input_paths.iter().zip(labels.iter()).map(|(&k, &n)| n * k as u128).sum();
        assert_eq!(cost.paths_with_labels(&labels), manual);
    }
}
