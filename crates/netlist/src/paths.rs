//! Procedure 1 of the paper: counting paths from the primary inputs to every
//! line and to the primary outputs.
//!
//! The label `N_p(g)` of a line `g` is the number of distinct paths from any
//! primary input to `g`. Primary inputs get label 1, a gate output is
//! labelled with the sum of its fanin labels, and a fanout branch inherits
//! its stem's label (implicit in the DAG representation). The total number
//! of paths of the circuit is the sum of the primary-output labels.

use crate::{Circuit, GateKind, NodeId};
use std::fmt;

/// A path count that remembers whether it overflowed `u128`.
///
/// Procedure 1 sums path labels; on adversarial inputs (deep reconvergence)
/// the sum can exceed `u128`. The arithmetic saturates, and this type keeps
/// the saturation explicit so reports can print `.. +` instead of a silently
/// clamped number.
///
/// Ordering compares the numeric value first, with a saturated count ranked
/// above the exact count of the same value (a saturated count is a lower
/// bound on the true count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathCount {
    value: u128,
    saturated: bool,
}

impl PathCount {
    /// The zero count.
    pub const ZERO: PathCount = PathCount { value: 0, saturated: false };

    /// An exact (non-saturated) count.
    pub fn exact(value: u128) -> Self {
        PathCount { value, saturated: false }
    }

    /// The numeric value; a lower bound on the true count when
    /// [`is_saturated`](Self::is_saturated).
    pub fn value(self) -> u128 {
        self.value
    }

    /// Whether the count overflowed and was clamped to `u128::MAX`.
    pub fn is_saturated(self) -> bool {
        self.saturated
    }

    /// Saturating addition; the result is marked saturated if either operand
    /// was, or if the sum overflows.
    pub fn saturating_add(self, other: PathCount) -> PathCount {
        let (value, overflow) = self.value.overflowing_add(other.value);
        if overflow {
            PathCount { value: u128::MAX, saturated: true }
        } else {
            PathCount { value, saturated: self.saturated || other.saturated }
        }
    }
}

impl fmt::Display for PathCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.saturated {
            write!(f, "{}+", self.value)
        } else {
            write!(f, "{}", self.value)
        }
    }
}

impl From<u128> for PathCount {
    fn from(value: u128) -> Self {
        PathCount::exact(value)
    }
}

impl std::ops::Add for PathCount {
    type Output = PathCount;

    fn add(self, other: PathCount) -> PathCount {
        self.saturating_add(other)
    }
}

impl std::iter::Sum for PathCount {
    fn sum<I: Iterator<Item = PathCount>>(iter: I) -> PathCount {
        iter.fold(PathCount::ZERO, PathCount::saturating_add)
    }
}

impl Circuit {
    /// The path label `N_p` for every node (Procedure 1 of the paper), with
    /// explicit saturation tracking.
    ///
    /// Constants have label 0 (no path from a primary input reaches them);
    /// primary inputs have label 1. Sums saturate at `u128::MAX` with the
    /// [`PathCount::is_saturated`] flag set (the paper's largest benchmark
    /// has 2.3×10⁷ paths; saturation exists only as a safety net for
    /// adversarial inputs).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn path_labels_exact(&self) -> Vec<PathCount> {
        self.path_labels_exact_in(&self.topo_order().expect("combinational circuit"))
    }

    /// [`path_labels_exact`](Self::path_labels_exact) walking `order`, a
    /// topological order of every node.
    fn path_labels_exact_in(&self, order: &[NodeId]) -> Vec<PathCount> {
        let mut labels = vec![PathCount::ZERO; self.len()];
        for &id in order {
            let node = self.node(id);
            labels[id.index()] = match node.kind() {
                GateKind::Input => PathCount::exact(1),
                GateKind::Const0 | GateKind::Const1 => PathCount::ZERO,
                _ => node
                    .fanins()
                    .iter()
                    .fold(PathCount::ZERO, |acc, f| acc.saturating_add(labels[f.index()])),
            };
        }
        labels
    }

    /// The path label `N_p` for every node as plain `u128` values (clamped
    /// at `u128::MAX` on overflow; see [`path_labels_exact`](Self::path_labels_exact)
    /// for the saturation-aware form).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn path_labels(&self) -> Vec<u128> {
        self.path_labels_exact().into_iter().map(PathCount::value).collect()
    }

    /// [`path_labels`](Self::path_labels) computed walking `order`, which
    /// must be a topological order of every node (such as
    /// [`bfs_order`](Self::bfs_order)), for callers that already hold one.
    pub fn path_labels_in(&self, order: &[NodeId]) -> Vec<u128> {
        self.path_labels_exact_in(order).into_iter().map(PathCount::value).collect()
    }

    /// Total number of input-to-output paths (Procedure 1, Step 5): the sum
    /// of the primary-output labels, with explicit saturation tracking.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn path_count_exact(&self) -> PathCount {
        let labels = self.path_labels_exact();
        self.outputs().iter().fold(PathCount::ZERO, |acc, o| acc.saturating_add(labels[o.index()]))
    }

    /// Total number of input-to-output paths as a plain `u128` (clamped at
    /// `u128::MAX` on overflow; see [`path_count_exact`](Self::path_count_exact)
    /// for the saturation-aware form).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn path_count(&self) -> u128 {
        self.path_count_exact().value()
    }

    /// Number of paths from node `from` to node `to` (0 if `to` is not in
    /// the transitive fanout of `from`). This is the `K_p` quantity of
    /// Section 2 of the paper when applied inside a subcircuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic or either id is out of range.
    pub fn path_count_between(&self, from: crate::NodeId, to: crate::NodeId) -> u128 {
        let order = self.topo_order().expect("combinational circuit");
        let mut labels = vec![0u128; self.len()];
        labels[from.index()] = 1;
        for id in order {
            if id == from {
                continue;
            }
            let node = self.node(id);
            if node.kind().is_gate() {
                labels[id.index()] = node
                    .fanins()
                    .iter()
                    .fold(0u128, |acc, f| acc.saturating_add(labels[f.index()]));
            }
        }
        labels[to.index()]
    }
}

#[cfg(test)]
mod tests {
    use crate::{Circuit, GateKind};

    /// The paper's Section 2 example: a 3-cube SOP where the two equivalent
    /// covers yield 310 vs 300 paths given external labels.
    #[test]
    fn section2_example_path_arithmetic() {
        // Build f_{1,1} = !x1 x2 x4 + x1 !x2 !x3 + x2 !x3 x4 as a flat SOP.
        // Instead of external labels 10/100/20/20 we emulate them by fanning
        // each input through a tree of buffers is overkill; here we check
        // K_p directly: each input appears K_p times as a literal.
        let mut c = Circuit::new("f11");
        let x: Vec<_> = (1..=4).map(|i| c.add_input(format!("x{i}"))).collect();
        let nx: Vec<_> = x.iter().map(|&xi| c.add_gate(GateKind::Not, vec![xi]).unwrap()).collect();
        let p1 = c.add_gate(GateKind::And, vec![nx[0], x[1], x[3]]).unwrap();
        let p2 = c.add_gate(GateKind::And, vec![x[0], nx[1], nx[2]]).unwrap();
        let p3 = c.add_gate(GateKind::And, vec![x[1], nx[2], x[3]]).unwrap();
        let f = c.add_gate(GateKind::Or, vec![p1, p2, p3]).unwrap();
        c.add_output(f, "f");

        // K_p(x1)=2, K_p(x2)=3, K_p(x3)=2, K_p(x4)=2 per the paper.
        let kp: Vec<u128> = x.iter().map(|&xi| c.path_count_between(xi, f)).collect();
        assert_eq!(kp, vec![2, 3, 2, 2]);
        // Total paths with unit input labels = sum of K_p.
        assert_eq!(c.path_count(), 9);
    }

    #[test]
    fn fanout_multiplies_paths() {
        // y = (a AND b) OR (a AND c): a has two paths.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("c");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::And, vec![a, d]).unwrap();
        let g3 = c.add_gate(GateKind::Or, vec![g1, g2]).unwrap();
        c.add_output(g3, "y");
        assert_eq!(c.path_count(), 4);
        let labels = c.path_labels();
        assert_eq!(labels[g3.index()], 4);
        assert_eq!(labels[a.index()], 1);
    }

    #[test]
    fn constants_contribute_no_paths() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let k = c.add_const(true);
        let g = c.add_gate(GateKind::And, vec![a, k]).unwrap();
        c.add_output(g, "y");
        assert_eq!(c.path_count(), 1);
    }

    #[test]
    fn multiple_outputs_sum() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(g, "y1");
        c.add_output(g, "y2");
        assert_eq!(c.path_count(), 2);
    }

    #[test]
    fn deep_chain_of_reconvergence_is_exponential() {
        // k stages of x -> (x AND x') style reconvergence double paths.
        let mut c = Circuit::new("t");
        let mut cur = c.add_input("a");
        for _ in 0..20 {
            let l = c.add_gate(GateKind::Buf, vec![cur]).unwrap();
            let r = c.add_gate(GateKind::Not, vec![cur]).unwrap();
            cur = c.add_gate(GateKind::Or, vec![l, r]).unwrap();
        }
        c.add_output(cur, "y");
        assert_eq!(c.path_count(), 1 << 20);
    }

    #[test]
    fn saturation_is_flagged_not_silent() {
        use crate::paths::PathCount;
        // 128 doubling stages push the count past u128::MAX.
        let mut c = Circuit::new("t");
        let mut cur = c.add_input("a");
        for _ in 0..130 {
            let l = c.add_gate(GateKind::Buf, vec![cur]).unwrap();
            let r = c.add_gate(GateKind::Not, vec![cur]).unwrap();
            cur = c.add_gate(GateKind::Or, vec![l, r]).unwrap();
        }
        c.add_output(cur, "y");
        let total = c.path_count_exact();
        assert!(total.is_saturated());
        assert_eq!(total.value(), u128::MAX);
        assert_eq!(format!("{total}"), format!("{}+", u128::MAX));
        // The clamped u128 view is still the lower bound, along any
        // topological order.
        assert_eq!(c.path_count(), u128::MAX);
        assert_eq!(c.path_labels_in(&c.bfs_order().unwrap()), c.path_labels());
        // An unsaturated circuit stays exact.
        let exact = PathCount::exact(9);
        assert!(!exact.is_saturated());
        assert_eq!(format!("{exact}"), "9");
        // Ordering: a saturated MAX ranks above an exact MAX.
        assert!(total > PathCount::exact(u128::MAX));
        // Sum propagates the flag.
        let s: PathCount = [exact, total].into_iter().sum();
        assert!(s.is_saturated());
    }

    #[test]
    fn path_count_between_is_zero_outside_fanout() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        assert_eq!(c.path_count_between(g, a), 0);
        assert_eq!(c.path_count_between(a, g), 1);
        assert_eq!(c.path_count_between(a, a), 1);
    }
}
