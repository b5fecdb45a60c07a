//! Transactional edit journal: rollback in O(#edits), not O(circuit).
//!
//! Every structural mutator of [`Circuit`] records the inverse operation in
//! an internal journal while an edit transaction is open (between
//! [`Circuit::begin_edit`] and [`Circuit::commit`] or
//! [`Circuit::rollback_to`]). Rolling back replays the inverses in reverse
//! order, so reverting a trial edit costs time proportional to the size of
//! the *edit*, not the size of the circuit. This is the substrate for the
//! edit-heavy loops of Procedures 2/3 and the RAMBO baseline, which try
//! thousands of candidate mutations per run and keep only a few.
//!
//! With the flat-arena node storage every inverse is O(1) in size: a
//! rewire's inverse is the node's previous `(kind, span)` pair — the old
//! fanins stay where they are in the pooled buffer (the pool is
//! append-only between sweeps), so nothing is cloned into the journal.
//! Rollback truncates the pool tail as it unwinds (each transactional
//! append sits at the tail by the time its inverse runs), so a rolled-back
//! transaction reclaims every pool byte it appended.
//!
//! One transaction is open at a time; opening a second panics. Journal
//! entries are discarded when the transaction commits. [`Circuit::sweep`]
//! compacts node ids and the pool and cannot be expressed as a journalable
//! edit, so it panics while a transaction is open.
//!
//! # Examples
//!
//! ```
//! use sft_netlist::{Circuit, GateKind};
//!
//! let mut c = Circuit::new("t");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, vec![a, b])?;
//! c.add_output(g, "y");
//!
//! let before = c.clone();
//! let cp = c.begin_edit();
//! c.rewire(g, GateKind::Or, vec![a, b])?;
//! let extra = c.add_gate(GateKind::Not, vec![g])?;
//! c.add_output(extra, "z");
//! c.rollback_to(cp);
//! assert_eq!(c, before);
//! # Ok::<(), sft_netlist::NetlistError>(())
//! ```

use crate::circuit::Span;
use crate::{Circuit, GateKind, NodeId};

/// Inverse of a single structural edit, recorded while a transaction is
/// open. Every variant is fixed-size: fanin pre-images are `(offset, len)`
/// spans into the circuit's pooled fanin buffer, not cloned vectors.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    /// Undo `add_input` / `add_const` / `add_gate`: pop the newest node
    /// (and truncate its pool tail).
    PopNode {
        /// Whether the node was also pushed onto the primary-input list.
        was_input: bool,
    },
    /// Undo `add_output`: pop the newest output slot.
    PopOutput,
    /// Undo `rewire`: restore the node's previous kind and fanin span.
    Rewire {
        /// The rewired node.
        id: NodeId,
        /// Its kind before the rewire.
        kind: GateKind,
        /// Its fanin span before the rewire (the storage is still in the
        /// pool — it is only reclaimed by `sweep`).
        span: Span,
    },
    /// Undo `set_node_name`: restore the previous interned name id.
    NodeName {
        /// The renamed node.
        id: NodeId,
        /// Its interned name id before the rename (`NO_NAME` sentinel when
        /// it was unnamed).
        name_id: u32,
    },
    /// Undo `set_name`: restore the previous circuit name.
    CircuitName {
        /// The circuit name before the rename.
        name: String,
    },
}

/// The journal itself: a stack of inverse operations and whether a
/// transaction is open. Lives inside [`Circuit`]; empty whenever no
/// transaction is open.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    ops: Vec<UndoOp>,
    recording: bool,
}

impl Journal {
    /// Whether a transaction is open (mutations are being recorded).
    pub(crate) fn recording(&self) -> bool {
        self.recording
    }

    /// Records an inverse operation; a no-op outside a transaction.
    pub(crate) fn record(&mut self, op: UndoOp) {
        if self.recording {
            self.ops.push(op);
        }
    }
}

/// The handle of an open edit transaction, returned by
/// [`Circuit::begin_edit`].
///
/// Pass it back to [`Circuit::commit`] to keep the edits or to
/// [`Circuit::rollback_to`] to undo them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Arena layout flags at checkpoint time, restored on rollback (the
    /// pool is fully unwound by then, so they are exact again).
    flat: bool,
    topo_ids: bool,
}

impl Circuit {
    /// Opens an edit transaction and returns a checkpoint for it.
    ///
    /// Until the checkpoint is resolved with [`commit`](Self::commit) or
    /// [`rollback_to`](Self::rollback_to), every structural mutation records
    /// its inverse, and [`sweep`](Self::sweep) panics.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_edit(&mut self) -> Checkpoint {
        assert!(!self.journal.recording, "begin_edit inside an open edit transaction");
        self.journal.recording = true;
        let (flat, topo_ids) = self.layout_flags();
        Checkpoint { flat, topo_ids }
    }

    /// Keeps all edits made since `cp`, closes its transaction and releases
    /// the journal's entries.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit(&mut self, _cp: Checkpoint) {
        assert!(self.journal.recording, "commit without an open edit transaction");
        self.journal.recording = false;
        self.journal.ops.clear();
    }

    /// Undoes every edit made since `cp` (in reverse order) and closes its
    /// transaction. Cost is O(#edits since `cp`), independent of circuit
    /// size; incremental views are patched back along the way, and every
    /// pool append made inside the transaction is truncated away.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open: the layout flags `cp` restores are
    /// exact only for the transaction that took it.
    pub fn rollback_to(&mut self, cp: Checkpoint) {
        assert!(self.journal.recording, "rollback_to without an open edit transaction");
        while let Some(op) = self.journal.ops.pop() {
            self.undo(op);
        }
        self.journal.recording = false;
        // All transactional pool appends are unwound now; the layout flags
        // captured at begin_edit are exact again.
        self.restore_layout(cp.flat, cp.topo_ids);
    }

    /// Whether an edit transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.journal.recording()
    }

    /// Applies one inverse operation, patching the incremental views to
    /// match.
    fn undo(&mut self, op: UndoOp) {
        match op {
            UndoOp::PopNode { was_input } => self.undo_pop_node(was_input),
            UndoOp::PopOutput => {
                let o = self.outputs.pop().expect("journalled output exists");
                self.output_names.pop();
                if let Some(v) = &mut self.views {
                    v.on_pop_output(o);
                }
                self.touch();
            }
            UndoOp::Rewire { id, kind, span } => self.undo_rewire(id, kind, span),
            UndoOp::NodeName { id, name_id } => self.undo_node_name(id, name_id),
            UndoOp::CircuitName { name } => {
                self.name = name;
                self.touch();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Circuit, GateKind};

    fn sample() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        c
    }

    #[test]
    fn rollback_restores_every_mutation_kind() {
        let mut c = sample();
        let before = c.clone();
        let cp = c.begin_edit();
        let a = c.inputs()[0];
        let g = c.outputs()[0];
        c.rewire(g, GateKind::Or, vec![a, c.inputs()[1]]).unwrap();
        let k = c.add_const(true);
        let n = c.add_gate(GateKind::Not, vec![k]).unwrap();
        c.add_named_gate(GateKind::Buf, vec![n], "buffered").unwrap();
        c.add_input("late");
        c.add_output(n, "z");
        c.set_node_name(g, "renamed");
        c.set_name("renamed_circuit");
        c.rollback_to(cp);
        assert_eq!(c, before);
        assert!(!c.in_transaction());
    }

    #[test]
    fn commit_keeps_edits_and_clears_journal() {
        let mut c = sample();
        let cp = c.begin_edit();
        let a = c.inputs()[0];
        let extra = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(extra, "z");
        c.commit(cp);
        assert!(!c.in_transaction());
        assert_eq!(c.outputs().len(), 2);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "sweep")]
    fn sweep_panics_inside_transaction() {
        let mut c = sample();
        let _cp = c.begin_edit();
        c.sweep();
    }

    #[test]
    #[should_panic(expected = "inside an open edit transaction")]
    fn nested_begin_edit_panics() {
        let mut c = sample();
        let _outer = c.begin_edit();
        c.begin_edit();
    }

    #[test]
    #[should_panic(expected = "without an open edit transaction")]
    fn second_rollback_of_a_checkpoint_panics() {
        let mut c = sample();
        let cp = c.begin_edit();
        c.rollback_to(cp);
        c.rollback_to(cp);
    }

    #[test]
    fn clone_does_not_carry_open_transactions() {
        let mut c = sample();
        let _cp = c.begin_edit();
        let a = c.inputs()[0];
        c.add_gate(GateKind::Not, vec![a]).unwrap();
        let snap = c.clone();
        assert!(!snap.in_transaction());
    }
}
