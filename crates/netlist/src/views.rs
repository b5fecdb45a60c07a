//! Maintained fanout adjacency of a [`Circuit`].
//!
//! [`Circuit::fanout_table`] and [`Circuit::fanout_counts`] rebuild their
//! answer from scratch — O(circuit) per call. The edit-heavy loops
//! (Procedures 2/3, redundancy removal) consult these quantities after
//! every trial edit, so [`CircuitViews`] keeps them *maintained*: enabled
//! once via [`Circuit::enable_views`], the views are patched by every
//! structural mutation (and patched back by journal rollback) instead of
//! rebuilt.
//!
//! Both facts are exact after every mutation. Each per-node consumer list
//! is kept sorted by `(consumer, pin)`, which is byte-identical to the
//! order [`Circuit::fanout_table`] produces, so code switching from the
//! rebuilt table to the view observes the *same* iteration order (several
//! engines make order-sensitive decisions downstream). Quantities read
//! once per pass — levels, path labels, the BFS order — are computed from
//! the circuit itself ([`Circuit::path_labels`], [`Circuit::bfs_order`]).
//!
//! Views are patched only from `&mut Circuit` mutators.

use crate::{Circuit, NodeId};

/// Maintained fanout adjacency and primary-output reference counts of a
/// [`Circuit`]; obtained via [`Circuit::views`] after
/// [`Circuit::enable_views`].
///
/// # Examples
///
/// ```
/// use sft_netlist::{Circuit, GateKind};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let g = c.add_gate(GateKind::And, vec![a, b])?;
/// c.add_output(g, "y");
/// c.enable_views();
///
/// let v = c.views().unwrap();
/// assert_eq!(v.fanout(a), &[(g, 0)]);
/// assert_eq!(v.fanout_count(g), 1); // the primary-output reference
/// assert!(v.drives_output(g));
/// # Ok::<(), sft_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitViews {
    /// Per-node consumer lists, each sorted by `(consumer, pin)` — the exact
    /// order a [`Circuit::fanout_table`] rebuild produces. Primary-output
    /// references are *not* included (matching `fanout_table`).
    fanout: Vec<Vec<(NodeId, usize)>>,
    /// Number of primary-output slots referencing each node.
    po_refs: Vec<u32>,
}

impl CircuitViews {
    /// Builds the views from scratch.
    pub(crate) fn build(c: &Circuit) -> Self {
        let n = c.len();
        let mut v = CircuitViews { fanout: vec![Vec::new(); n], po_refs: vec![0; n] };
        // Iterating nodes in id order pushes each consumer list already
        // sorted by (consumer, pin).
        for (id, node) in c.iter() {
            for (pin, f) in node.fanins().iter().enumerate() {
                v.fanout[f.index()].push((id, pin));
            }
        }
        for &o in c.outputs() {
            v.po_refs[o.index()] += 1;
        }
        v
    }

    /// Patch-in for a freshly appended node (always the highest id, so its
    /// edges append at the tail of each consumer list, preserving order).
    pub(crate) fn on_add_node(&mut self, id: NodeId, fanins: &[NodeId]) {
        debug_assert_eq!(id.index(), self.fanout.len());
        self.fanout.push(Vec::new());
        self.po_refs.push(0);
        for (pin, f) in fanins.iter().enumerate() {
            self.fanout[f.index()].push((id, pin));
        }
    }

    /// Patch-out for a node being popped by journal rollback (`id` is the
    /// new length; the node's edges sit at the tail of each consumer list).
    pub(crate) fn on_pop_node(&mut self, id: NodeId, fanins: &[NodeId]) {
        debug_assert_eq!(id.index(), self.fanout.len() - 1);
        for (pin, f) in fanins.iter().enumerate() {
            let list = &mut self.fanout[f.index()];
            let p = list
                .iter()
                .rposition(|&e| e == (id, pin))
                .expect("popped node's fanout edges present");
            list.remove(p);
        }
        self.fanout.pop();
        self.po_refs.pop();
    }

    /// Patch for a rewire (also used, with roles swapped, by rollback).
    pub(crate) fn on_rewire(&mut self, id: NodeId, old_fanins: &[NodeId], new_fanins: &[NodeId]) {
        for (pin, f) in old_fanins.iter().enumerate() {
            let list = &mut self.fanout[f.index()];
            match list.binary_search(&(id, pin)) {
                Ok(p) => {
                    list.remove(p);
                }
                Err(_) => unreachable!("rewired node's old fanout edge present"),
            }
        }
        for (pin, f) in new_fanins.iter().enumerate() {
            let list = &mut self.fanout[f.index()];
            let p = list.binary_search(&(id, pin)).unwrap_err();
            list.insert(p, (id, pin));
        }
    }

    /// Patch for a new primary-output reference.
    pub(crate) fn on_add_output(&mut self, id: NodeId) {
        self.po_refs[id.index()] += 1;
    }

    /// Patch for a primary-output reference removed by rollback.
    pub(crate) fn on_pop_output(&mut self, id: NodeId) {
        self.po_refs[id.index()] -= 1;
    }

    /// The consumers of `id` as `(consumer, pin)` pairs, sorted exactly as
    /// [`Circuit::fanout_table`] would list them. Primary-output references
    /// are not included.
    pub fn fanout(&self, id: NodeId) -> &[(NodeId, usize)] {
        &self.fanout[id.index()]
    }

    /// Total consumer count of `id` including primary-output references —
    /// the maintained equivalent of [`Circuit::fanout_counts`]`[id]`.
    pub fn fanout_count(&self, id: NodeId) -> u32 {
        self.fanout[id.index()].len() as u32 + self.po_refs[id.index()]
    }

    /// Whether `id` is referenced by at least one primary-output slot.
    pub fn drives_output(&self, id: NodeId) -> bool {
        self.po_refs[id.index()] > 0
    }

    /// Number of primary-output slots referencing `id`.
    pub fn po_refs(&self, id: NodeId) -> u32 {
        self.po_refs[id.index()]
    }
}

impl Circuit {
    /// Builds and attaches the incremental views; a no-op if already
    /// enabled. From here on every mutation patches them in place.
    pub fn enable_views(&mut self) {
        if self.views.is_none() {
            let v = CircuitViews::build(self);
            self.views = Some(Box::new(v));
        }
    }

    /// Detaches the incremental views, returning the circuit to
    /// rebuild-on-demand behaviour.
    pub fn disable_views(&mut self) {
        self.views = None;
    }

    /// The incremental views, if enabled.
    pub fn views(&self) -> Option<&CircuitViews> {
        self.views.as_deref()
    }

    /// Rebuilds the views from scratch (used after id-compacting sweeps).
    pub(crate) fn rebuild_views(&mut self) {
        let v = CircuitViews::build(self);
        self.views = Some(Box::new(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    /// The rebuilt-from-scratch quantities the views must match.
    fn assert_views_match_rebuild(c: &Circuit) {
        let v = c.views().expect("views enabled");
        let table = c.fanout_table();
        let counts = c.fanout_counts();
        for (id, _) in c.iter() {
            assert_eq!(v.fanout(id), table[id.index()].as_slice(), "fanout order at {id}");
            assert_eq!(v.fanout_count(id), counts[id.index()], "fanout count at {id}");
        }
    }

    fn diamond() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![a, g1]).unwrap();
        let g3 = c.add_gate(GateKind::Xor, vec![g1, g2]).unwrap();
        c.add_output(g3, "y");
        c
    }

    #[test]
    fn views_match_rebuild_after_every_mutation_kind() {
        let mut c = diamond();
        c.enable_views();
        assert_views_match_rebuild(&c);

        let a = c.inputs()[0];
        let g3 = c.outputs()[0];
        c.rewire(g3, GateKind::Nand, vec![a, c.inputs()[1]]).unwrap();
        assert_views_match_rebuild(&c);

        let k = c.add_const(false);
        let n = c.add_gate(GateKind::Not, vec![k]).unwrap();
        c.add_output(n, "z");
        c.add_input("late");
        assert_views_match_rebuild(&c);

        c.sweep();
        assert_views_match_rebuild(&c);
    }

    #[test]
    fn views_match_rebuild_after_rollback() {
        let mut c = diamond();
        c.enable_views();
        let cp = c.begin_edit();
        let a = c.inputs()[0];
        let g3 = c.outputs()[0];
        c.rewire(g3, GateKind::Or, vec![a, a]).unwrap();
        let n = c.add_gate(GateKind::Not, vec![g3]).unwrap();
        c.add_output(n, "z");
        c.rollback_to(cp);
        assert_views_match_rebuild(&c);
    }

    #[test]
    fn disable_and_reenable() {
        let mut c = diamond();
        c.enable_views();
        c.disable_views();
        assert!(c.views().is_none());
        c.enable_views();
        assert_views_match_rebuild(&c);
    }
}
