use crate::journal::{Journal, UndoOp};
use crate::views::CircuitViews;
use crate::{GateKind, NetlistError};
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Identifier of a node (line) in a [`Circuit`].
///
/// Node ids are dense indices; they remain stable under edits and are only
/// compacted by [`Circuit::sweep`], which returns a [`NodeMap`] describing
/// the renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index (no validation; out-of-range ids
    /// are rejected by circuit methods that receive them).
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A `(offset, len)` window into the pooled fanin buffer. The node arena
/// stores one span per node instead of a per-node `Vec<NodeId>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) off: u32,
    pub(crate) len: u32,
}

impl Span {
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }

    pub(crate) fn end(self) -> usize {
        (self.off + self.len) as usize
    }
}

/// Sentinel in the per-node name-id column: the node has no name.
const NO_NAME: u32 = u32::MAX;

/// Hash-consed string table for node names.
///
/// Names exist only at I/O boundaries (parsers attach them, writers read
/// them); the hot structural paths never touch this table. Each distinct
/// string is stored once; per-node state is a single `u32` id. A refcount
/// per string (`uses`) tracks how many nodes currently carry it, which is
/// what [`Circuit::fresh_name`] consults — interned-but-unused strings do
/// not block a candidate, exactly matching the pre-arena linear scan over
/// node names.
#[derive(Debug, Clone, Default)]
struct NameTable {
    /// Per-node string id (`NO_NAME` when unnamed). Same length as the
    /// node arena.
    ids: Vec<u32>,
    /// The interned strings, stored once each.
    strings: Vec<String>,
    /// Hash → candidate string ids (hash-consing; the inner list is almost
    /// always a single element).
    lookup: HashMap<u64, Vec<u32>>,
    /// Number of nodes currently named by each string.
    uses: Vec<u32>,
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

impl NameTable {
    /// Interns `s`, returning its string id.
    fn intern(&mut self, s: String) -> u32 {
        let bucket = self.lookup.entry(hash_str(&s)).or_default();
        for &i in bucket.iter() {
            if self.strings[i as usize] == s {
                return i;
            }
        }
        let i = self.strings.len() as u32;
        bucket.push(i);
        self.strings.push(s);
        self.uses.push(0);
        i
    }

    /// Whether some node currently carries the name `s`.
    fn is_used(&self, s: &str) -> bool {
        self.lookup.get(&hash_str(s)).is_some_and(|b| {
            b.iter().any(|&i| self.uses[i as usize] > 0 && self.strings[i as usize] == s)
        })
    }

    /// The name of node `idx`, if any.
    fn get(&self, idx: usize) -> Option<&str> {
        match self.ids[idx] {
            NO_NAME => None,
            i => Some(&self.strings[i as usize]),
        }
    }

    /// Appends the name slot for a freshly pushed node.
    fn push_node(&mut self, name: Option<String>) {
        let id = match name {
            Some(s) => {
                let i = self.intern(s);
                self.uses[i as usize] += 1;
                i
            }
            None => NO_NAME,
        };
        self.ids.push(id);
    }

    /// Drops the name slot of the popped (last) node.
    fn pop_node(&mut self) {
        let id = self.ids.pop().expect("name slot exists");
        if id != NO_NAME {
            self.uses[id as usize] -= 1;
        }
    }

    /// Replaces the name id of node `idx`, maintaining refcounts; returns
    /// the previous id (for the journal).
    fn set_id(&mut self, idx: usize, new: u32) -> u32 {
        let old = std::mem::replace(&mut self.ids[idx], new);
        if old != NO_NAME {
            self.uses[old as usize] -= 1;
        }
        if new != NO_NAME {
            self.uses[new as usize] += 1;
        }
        old
    }

    /// Bytes held by the interned strings (contents only).
    fn string_bytes(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum()
    }
}

/// A borrowed view of a single node of a [`Circuit`]: its kind, its fanin
/// slice in the shared pool, and its resolved name.
///
/// This is a cheap `Copy` proxy over the flat arena — it is constructed on
/// the fly by [`Circuit::node`] and [`Circuit::iter`] and borrows from the
/// circuit, it is not the storage itself. The accessors return data with
/// the *circuit's* lifetime, so `c.node(id).fanins()` can outlive the
/// temporary proxy value.
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    kind: GateKind,
    fanins: &'a [NodeId],
    name: Option<&'a str>,
}

impl<'a> Node<'a> {
    /// The node kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The fanin lines of the node (empty for inputs and constants).
    pub fn fanins(&self) -> &'a [NodeId] {
        self.fanins
    }

    /// Optional user-facing name (always present for primary inputs).
    pub fn name(&self) -> Option<&'a str> {
        self.name
    }
}

/// Renumbering map returned by [`Circuit::sweep`]: `map[old.index()]` is the
/// new id, or `None` if the node was removed.
#[derive(Debug, Clone, Default)]
pub struct NodeMap {
    map: Vec<Option<NodeId>>,
}

impl NodeMap {
    /// Translates an old id; `None` if the node was removed.
    pub fn get(&self, old: NodeId) -> Option<NodeId> {
        self.map.get(old.index()).copied().flatten()
    }
}

/// A combinational gate-level circuit.
///
/// The circuit is a DAG of nodes stored as a flat arena: a `repr(u8)` kind
/// column, a `(offset, len)` span per node into one pooled fanin buffer,
/// and an interned name side-table consulted only at I/O boundaries.
/// [`Circuit::node`] materialises a cheap [`Node`] proxy over the arena.
/// Primary outputs are references to nodes (a node may drive several
/// outputs). Fanout branches are implicit: a node with several consumers
/// has one branch per (consumer, pin).
///
/// # Examples
///
/// ```
/// use sft_netlist::{Circuit, GateKind};
///
/// // y = (a AND b) OR c
/// let mut c = Circuit::new("ex");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let ci = c.add_input("c");
/// let g1 = c.add_gate(GateKind::And, vec![a, b])?;
/// let g2 = c.add_gate(GateKind::Or, vec![g1, ci])?;
/// c.add_output(g2, "y");
/// assert_eq!(c.eval_assignment(&[false, true, true]), vec![true]);
/// # Ok::<(), sft_netlist::NetlistError>(())
/// ```
///
/// # Transactions and views
///
/// Structural mutation can be wrapped in an edit transaction
/// ([`begin_edit`](Self::begin_edit) / [`commit`](Self::commit) /
/// [`rollback_to`](Self::rollback_to)) for O(#edits) rollback, and the
/// circuit can maintain its fanout adjacency
/// ([`enable_views`](Self::enable_views)) instead of rebuilding fanout
/// tables per call. Neither participates in [`Clone`] or equality: a clone
/// starts with an empty journal and no views, and two circuits compare
/// equal on structure alone (pool layout and interning order are
/// invisible).
///
/// # Fanin pool discipline
///
/// The pool is append-only between [`sweep`](Self::sweep)s: a
/// [`rewire`](Self::rewire) appends the new fanins and repoints the node's
/// span, leaving the old span's storage in place so journal rollback can
/// restore the old `(offset, len)` in O(1). Rollback truncates the pool
/// tail as it unwinds, so a rolled-back transaction reclaims everything it
/// appended; only *committed* rewires leave garbage, which `sweep`
/// compacts away.
#[derive(Debug)]
pub struct Circuit {
    pub(crate) name: String,
    /// Node kind column (one byte per node).
    pub(crate) kinds: Vec<GateKind>,
    /// Per-node `(offset, len)` window into `pool`.
    pub(crate) spans: Vec<Span>,
    /// Pooled fanin buffer; spans address windows of it. May contain
    /// garbage left by committed rewires until the next `sweep`.
    pub(crate) pool: Vec<NodeId>,
    /// Interned node names (I/O boundary only).
    names: NameTable,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) output_names: Vec<Option<String>>,
    pub(crate) journal: Journal,
    pub(crate) views: Option<Box<CircuitViews>>,
    /// Sum of span lengths — the live entries of `pool`.
    live_fanins: usize,
    /// Whether spans are contiguous in id order and cover `pool` exactly
    /// (true until the first committed-or-pending rewire; restored by
    /// `sweep` and by full rollback). When set, the pool *is* the fanin
    /// CSR payload.
    flat: bool,
    /// Whether every fanin id is smaller than its node id, i.e. id order
    /// is a topological order (true at append-only construction; a rewire
    /// can introduce a forward edge). When set, consumers can skip their
    /// topological sort.
    topo_ids: bool,
    /// Monotonic structure version: bumped by every mutation, including
    /// journal undo. Keys the [`derived`](Self::derived) snapshot cache.
    version: u64,
    /// Version-stamped slot for one derived snapshot (e.g. the fault-sim
    /// SoA view). Not cloned; interior-mutable so read-only sharing works.
    derived: Mutex<Option<(u64, Arc<dyn Any + Send + Sync>)>>,
}

impl Clone for Circuit {
    fn clone(&self) -> Self {
        Circuit {
            name: self.name.clone(),
            kinds: self.kinds.clone(),
            spans: self.spans.clone(),
            pool: self.pool.clone(),
            names: self.names.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            output_names: self.output_names.clone(),
            journal: Journal::default(),
            views: None,
            live_fanins: self.live_fanins,
            flat: self.flat,
            topo_ids: self.topo_ids,
            version: 0,
            derived: Mutex::new(None),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.kinds.clone_from(&source.kinds);
        self.spans.clone_from(&source.spans);
        self.pool.clone_from(&source.pool);
        self.names.clone_from(&source.names);
        self.inputs.clone_from(&source.inputs);
        self.outputs.clone_from(&source.outputs);
        self.output_names.clone_from(&source.output_names);
        self.journal = Journal::default();
        self.views = None;
        self.live_fanins = source.live_fanins;
        self.flat = source.flat;
        self.topo_ids = source.topo_ids;
        self.version = 0;
        self.derived = Mutex::new(None);
    }
}

impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kinds == other.kinds
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.output_names == other.output_names
            && (0..self.kinds.len()).all(|i| {
                let id = NodeId(i as u32);
                self.fanins(id) == other.fanins(id) && self.names.get(i) == other.names.get(i)
            })
    }
}

impl Eq for Circuit {}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            kinds: Vec::new(),
            spans: Vec::new(),
            pool: Vec::new(),
            names: NameTable::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            journal: Journal::default(),
            views: None,
            live_fanins: 0,
            flat: true,
            topo_ids: true,
            version: 0,
            derived: Mutex::new(None),
        }
    }

    /// Creates an empty circuit with room for `nodes` nodes, so generators
    /// and parsers building 10K–1M-gate circuits do not re-grow the node
    /// arena logarithmically many times.
    pub fn with_capacity(name: impl Into<String>, nodes: usize) -> Self {
        let mut c = Circuit::new(name);
        c.reserve(nodes);
        c
    }

    /// Reserves capacity for at least `additional` more nodes (and a
    /// two-fanins-per-node estimate of pool room).
    pub fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional);
        self.spans.reserve(additional);
        self.names.ids.reserve(additional);
        self.pool.reserve(additional * 2);
    }

    /// Bumps the structure version (invalidating [`derived`](Self::derived)
    /// snapshots).
    pub(crate) fn touch(&mut self) {
        self.version += 1;
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        let old = std::mem::replace(&mut self.name, name.into());
        self.journal.record(UndoOp::CircuitName { name: old });
        self.touch();
    }

    /// Adds a primary input and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(GateKind::Input);
        self.spans.push(Span { off: self.pool.len() as u32, len: 0 });
        self.names.push_node(Some(name.into()));
        self.inputs.push(id);
        self.journal.record(UndoOp::PopNode { was_input: true });
        if let Some(v) = &mut self.views {
            v.on_add_node(id, &[]);
        }
        self.touch();
        id
    }

    /// Adds a constant node and returns its id.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let kind = if value { GateKind::Const1 } else { GateKind::Const0 };
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.spans.push(Span { off: self.pool.len() as u32, len: 0 });
        self.names.push_node(None);
        self.journal.record(UndoOp::PopNode { was_input: false });
        if let Some(v) = &mut self.views {
            v.on_add_node(id, &[]);
        }
        self.touch();
        id
    }

    /// Adds a gate and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Arity`] if the fanin count is invalid for the
    /// kind, [`NetlistError::NotAGate`] if `kind` is
    /// [`GateKind::Input`], and [`NetlistError::NodeOutOfRange`] if a fanin
    /// id does not exist yet.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if kind == GateKind::Input {
            return Err(NetlistError::NotAGate(NodeId(self.kinds.len() as u32)));
        }
        if !kind.accepts_arity(fanins.len()) {
            return Err(NetlistError::Arity { kind: kind.name(), got: fanins.len() });
        }
        for &f in &fanins {
            if f.index() >= self.kinds.len() {
                return Err(NetlistError::NodeOutOfRange(f));
            }
        }
        let id = NodeId(self.kinds.len() as u32);
        let span = Span { off: self.pool.len() as u32, len: fanins.len() as u32 };
        self.pool.extend_from_slice(&fanins);
        self.kinds.push(kind);
        self.spans.push(span);
        self.names.push_node(None);
        self.live_fanins += span.len as usize;
        self.journal.record(UndoOp::PopNode { was_input: false });
        if let Some(v) = &mut self.views {
            v.on_add_node(id, &self.pool[span.range()]);
        }
        self.touch();
        Ok(id)
    }

    /// Adds a named gate.
    ///
    /// # Errors
    ///
    /// Same as [`add_gate`](Self::add_gate).
    pub fn add_named_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        let id = self.add_gate(kind, fanins)?;
        let nid = self.names.intern(name.into());
        self.names.set_id(id.index(), nid);
        Ok(id)
    }

    /// Registers `node` as a primary output (a node may drive several
    /// outputs).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn add_output(&mut self, node: NodeId, name: impl Into<String>) {
        assert!(node.index() < self.kinds.len(), "output node out of range");
        self.outputs.push(node);
        self.output_names.push(Some(name.into()));
        self.journal.record(UndoOp::PopOutput);
        if let Some(v) = &mut self.views {
            v.on_add_output(node);
        }
        self.touch();
    }

    /// Number of nodes (lines) in the circuit, including dead ones.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the circuit has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// A borrowed proxy of the node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let idx = id.index();
        Node {
            kind: self.kinds[idx],
            fanins: &self.pool[self.spans[idx].range()],
            name: self.names.get(idx),
        }
    }

    /// The kind of node `id` (no name-table touch).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The fanin slice of node `id` in the shared pool (no name-table
    /// touch).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.pool[self.spans[id.index()].range()]
    }

    /// Iterator over `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.kinds.len() as u32).map(move |i| (NodeId(i), self.node(NodeId(i))))
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The name of output slot `i`, if any.
    pub fn output_name(&self, i: usize) -> Option<&str> {
        self.output_names.get(i).and_then(|n| n.as_deref())
    }

    /// Sets the name of a node (useful after rewiring).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_node_name(&mut self, id: NodeId, name: impl Into<String>) {
        let nid = self.names.intern(name.into());
        let old = self.names.set_id(id.index(), nid);
        self.journal.record(UndoOp::NodeName { id, name_id: old });
        self.touch();
    }

    /// Redefines node `id` as a gate of `kind` with `fanins`.
    ///
    /// This is the primitive used by resynthesis: the node keeps its id, so
    /// all consumers automatically see the new function. The new fanins are
    /// appended to the pool and the node's span repointed; the old span is
    /// left in place for O(1) rollback (see "Fanin pool discipline" on
    /// [`Circuit`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAGate`] if `id` is a primary input or
    /// `kind` is [`GateKind::Input`]; [`NetlistError::Arity`] or
    /// [`NetlistError::NodeOutOfRange`] on malformed fanins; and
    /// [`NetlistError::Cycle`] if the edit would create a combinational
    /// cycle (i.e. `id` is in the transitive fanin of one of the new
    /// fanins).
    pub fn rewire(
        &mut self,
        id: NodeId,
        kind: GateKind,
        fanins: Vec<NodeId>,
    ) -> Result<(), NetlistError> {
        if id.index() >= self.kinds.len() {
            return Err(NetlistError::NodeOutOfRange(id));
        }
        if self.kinds[id.index()] == GateKind::Input || kind == GateKind::Input {
            return Err(NetlistError::NotAGate(id));
        }
        if !kind.accepts_arity(fanins.len()) {
            return Err(NetlistError::Arity { kind: kind.name(), got: fanins.len() });
        }
        for &f in &fanins {
            if f.index() >= self.kinds.len() {
                return Err(NetlistError::NodeOutOfRange(f));
            }
        }
        if self.reaches(id, &fanins) {
            return Err(NetlistError::Cycle(id));
        }
        let idx = id.index();
        let old_kind = self.kinds[idx];
        let old_span = self.spans[idx];
        let new_span = Span { off: self.pool.len() as u32, len: fanins.len() as u32 };
        self.pool.extend_from_slice(&fanins);
        self.kinds[idx] = kind;
        self.spans[idx] = new_span;
        self.live_fanins = self.live_fanins + new_span.len as usize - old_span.len as usize;
        self.flat = false;
        if fanins.iter().any(|f| f.0 >= id.0) {
            self.topo_ids = false;
        }
        if let Some(v) = &mut self.views {
            v.on_rewire(id, &self.pool[old_span.range()], &self.pool[new_span.range()]);
        }
        self.journal.record(UndoOp::Rewire { id, kind: old_kind, span: old_span });
        self.touch();
        Ok(())
    }

    /// Whether `target` is reachable from any of `from` by walking fanins
    /// (i.e. `target` is in the transitive fanin closure of `from`,
    /// including `from` itself).
    pub fn reaches(&self, target: NodeId, from: &[NodeId]) -> bool {
        let mut seen = vec![false; self.kinds.len()];
        let mut stack: Vec<NodeId> = from.to_vec();
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if std::mem::replace(&mut seen[n.index()], true) {
                continue;
            }
            stack.extend_from_slice(self.fanins(n));
        }
        false
    }

    /// A topological order of all nodes (fanins before fanouts).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the circuit contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.kinds.len();
        let mut indegree = vec![0u32; n];
        let mut fanouts: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, deg) in indegree.iter_mut().enumerate() {
            let fanins = &self.pool[self.spans[i].range()];
            *deg = fanins.len() as u32;
            for f in fanins {
                fanouts[f.index()].push(i as u32);
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        while let Some(i) = queue.pop() {
            order.push(NodeId(i));
            for &o in &fanouts[i as usize] {
                indegree[o as usize] -= 1;
                if indegree[o as usize] == 0 {
                    queue.push(o);
                }
            }
        }
        if order.len() != n {
            return Err(NetlistError::Cyclic);
        }
        Ok(order)
    }

    /// Logic level of every node: inputs and constants are level 0, a gate
    /// is one more than its deepest fanin.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the circuit contains a cycle.
    pub fn levels(&self) -> Result<Vec<u32>, NetlistError> {
        let order = self.topo_order()?;
        let mut level = vec![0u32; self.kinds.len()];
        for id in order {
            let idx = id.index();
            if self.kinds[idx].is_gate() {
                let fanins = &self.pool[self.spans[idx].range()];
                level[idx] = 1 + fanins.iter().map(|f| level[f.index()]).max().unwrap_or(0);
            }
        }
        Ok(level)
    }

    /// The paper's *BFS order* of lines: nodes sorted by level (inputs
    /// first), ties broken by id. Procedures 2 and 3 traverse this order in
    /// reverse.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the circuit contains a cycle.
    pub fn bfs_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let level = self.levels()?;
        let mut ids: Vec<NodeId> = (0..self.kinds.len() as u32).map(NodeId).collect();
        ids.sort_by_key(|id| (level[id.index()], id.0));
        Ok(ids)
    }

    /// Fanout table: for every node, the list of `(consumer, pin)` pairs.
    /// Primary-output references are not included.
    pub fn fanout_table(&self) -> Vec<Vec<(NodeId, usize)>> {
        let mut t: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.kinds.len()];
        for i in 0..self.kinds.len() {
            for (pin, f) in self.pool[self.spans[i].range()].iter().enumerate() {
                t[f.index()].push((NodeId(i as u32), pin));
            }
        }
        t
    }

    /// Number of consumers of each node, counting primary-output references.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut c = vec![0u32; self.kinds.len()];
        for span in &self.spans {
            for f in &self.pool[span.range()] {
                c[f.index()] += 1;
            }
        }
        for o in &self.outputs {
            c[o.index()] += 1;
        }
        c
    }

    /// Marks every node reachable from the primary outputs by walking
    /// fanins ("live" logic).
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.kinds.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n.index()], true) {
                continue;
            }
            stack.extend_from_slice(self.fanins(n));
        }
        live
    }

    /// Removes dead (unreachable-from-output) non-input nodes, compacts ids
    /// *and* the fanin pool (reclaiming garbage left by committed rewires),
    /// and garbage-collects the name table; returns the renumbering map.
    /// Primary inputs are always kept. Afterwards the arena is canonical:
    /// spans are contiguous in id order and cover the pool exactly.
    ///
    /// # Panics
    ///
    /// Panics if an edit transaction is open (id compaction cannot be
    /// journalled; commit or roll back first).
    pub fn sweep(&mut self) -> NodeMap {
        assert!(!self.journal.recording(), "Circuit::sweep inside an open edit transaction");
        let mut keep = self.live_mask();
        for i in &self.inputs {
            keep[i.index()] = true;
        }
        let n = self.kinds.len();
        let mut map = vec![None; n];
        let mut new_kinds = Vec::with_capacity(n);
        let mut new_spans = Vec::with_capacity(n);
        let mut new_pool = Vec::with_capacity(self.live_fanins);
        let mut new_names = NameTable::default();
        let mut topo_ids = true;
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            let new_id = NodeId(new_kinds.len() as u32);
            map[i] = Some(new_id);
            new_kinds.push(self.kinds[i]);
            let off = new_pool.len() as u32;
            new_pool.extend_from_slice(&self.pool[self.spans[i].range()]);
            new_spans.push(Span { off, len: new_pool.len() as u32 - off });
            new_names.push_node(self.names.get(i).map(String::from));
        }
        for (i, span) in new_spans.iter().enumerate() {
            for f in &mut new_pool[span.range()] {
                *f = map[f.index()].expect("live node fanins are live");
                if f.0 >= i as u32 {
                    topo_ids = false;
                }
            }
        }
        self.kinds = new_kinds;
        self.spans = new_spans;
        self.live_fanins = new_pool.len();
        self.pool = new_pool;
        self.names = new_names;
        self.flat = true;
        self.topo_ids = topo_ids;
        for i in &mut self.inputs {
            *i = map[i.index()].expect("inputs kept");
        }
        for o in &mut self.outputs {
            *o = map[o.index()].expect("outputs are live");
        }
        if self.views.is_some() {
            self.rebuild_views();
        }
        self.touch();
        NodeMap { map }
    }

    /// Full structural validation: arities, fanin ranges, acyclicity, and
    /// input/output list consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for i in 0..self.kinds.len() {
            let kind = self.kinds[i];
            let fanins = &self.pool[self.spans[i].range()];
            if !kind.accepts_arity(fanins.len()) {
                return Err(NetlistError::Arity { kind: kind.name(), got: fanins.len() });
            }
            for &f in fanins {
                if f.index() >= self.kinds.len() {
                    return Err(NetlistError::NodeOutOfRange(f));
                }
            }
            let is_input_kind = kind == GateKind::Input;
            let in_list = self.inputs.contains(&NodeId(i as u32));
            if is_input_kind != in_list {
                return Err(NetlistError::NotAGate(NodeId(i as u32)));
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.kinds.len() {
                return Err(NetlistError::NodeOutOfRange(o));
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Evaluates the circuit on a single assignment (one bool per primary
    /// input, in input order); returns one bool per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the number of inputs or the
    /// circuit is cyclic.
    pub fn eval_assignment(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), self.inputs.len(), "assignment length mismatch");
        let order = self.topo_order().expect("combinational circuit");
        let mut values = vec![false; self.kinds.len()];
        let input_pos: HashMap<NodeId, usize> =
            self.inputs.iter().copied().enumerate().map(|(i, id)| (id, i)).collect();
        let mut buf = Vec::new();
        for id in order {
            let idx = id.index();
            values[idx] = match self.kinds[idx] {
                GateKind::Input => assignment[input_pos[&id]],
                kind => {
                    buf.clear();
                    buf.extend(
                        self.pool[self.spans[idx].range()].iter().map(|f| values[f.index()]),
                    );
                    kind.eval(&buf)
                }
            };
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// A fresh unique name based on `prefix` not colliding with existing
    /// node names.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut k = self.kinds.len();
        loop {
            let candidate = format!("{prefix}{k}");
            if !self.names.is_used(&candidate) {
                return candidate;
            }
            k += 1;
        }
    }

    // ---- arena introspection ------------------------------------------

    /// Monotonic structure version: bumped by every mutation (including
    /// journal rollback), so version equality on the *same* circuit value
    /// implies structural identity. Keys the [`derived`](Self::derived)
    /// snapshot cache. Resets on clone (the cache slot is per-instance).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns the cached derived snapshot of type `T` if it is stamped
    /// with the current version, otherwise runs `build` and caches the
    /// result. One slot: caching a new type (or a new version) evicts the
    /// previous snapshot.
    ///
    /// This is how engines share one Circuit→SoA translation per structural
    /// state instead of rebuilding per campaign entry; the slot is interior
    /// mutable so read-only borrows (e.g. parallel scoring workers) can hit
    /// it concurrently.
    pub fn derived<T, F>(&self, build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&Circuit) -> T,
    {
        let v = self.version;
        {
            let slot = self.derived.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((cv, any)) = slot.as_ref() {
                if *cv == v {
                    if let Ok(hit) = Arc::clone(any).downcast::<T>() {
                        return hit;
                    }
                }
            }
        }
        let built: Arc<T> = Arc::new(build(self));
        let mut slot = self.derived.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some((v, built.clone() as Arc<dyn Any + Send + Sync>));
        built
    }

    /// Whether the fanin spans are contiguous in id order and cover the
    /// pool exactly — i.e. the pool is already the payload of a fanin CSR.
    /// True after construction and after [`sweep`](Self::sweep); any rewire
    /// clears it (conservatively) until the next sweep or a full rollback.
    pub fn fanin_spans_flat(&self) -> bool {
        self.flat
    }

    /// Whether id order is a topological order (every fanin id smaller
    /// than its node id). True for append-only construction; a rewire can
    /// introduce a forward edge and clears it conservatively.
    pub fn ids_topological(&self) -> bool {
        self.topo_ids
    }

    /// The whole fanin pool as one slice when the layout is flat
    /// ([`fanin_spans_flat`](Self::fanin_spans_flat)): the concatenation of
    /// every node's fanins in id order. `None` when rewires have
    /// fragmented the pool.
    pub fn fanin_pool_flat(&self) -> Option<&[NodeId]> {
        if self.flat {
            Some(&self.pool)
        } else {
            None
        }
    }

    /// Number of live fanin references (sum of span lengths).
    pub fn fanin_count(&self) -> usize {
        self.live_fanins
    }

    /// Total entries in the fanin pool, including garbage left by
    /// committed rewires (reclaimed by [`sweep`](Self::sweep)).
    pub fn fanin_pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Memory footprint of the arena, in bytes: `(node_columns,
    /// pool_bytes, name_bytes)` where `node_columns` covers the kind, span
    /// and name-id columns, `pool_bytes` the fanin pool (including
    /// garbage), and `name_bytes` the interned strings (contents +
    /// per-string id/use columns).
    pub fn memory_footprint(&self) -> (usize, usize, usize) {
        let node_cols = self.kinds.len() * std::mem::size_of::<GateKind>()
            + self.spans.len() * std::mem::size_of::<Span>()
            + self.names.ids.len() * std::mem::size_of::<u32>();
        let pool = self.pool.len() * std::mem::size_of::<NodeId>();
        let names = self.names.string_bytes()
            + self.names.strings.len()
                * (std::mem::size_of::<String>() + 2 * std::mem::size_of::<u32>());
        (node_cols, pool, names)
    }

    /// Number of distinct interned name strings.
    pub fn interned_names(&self) -> usize {
        self.names.strings.len()
    }

    // ---- journal/undo plumbing (crate-internal) -----------------------

    /// Restores the layout flags captured by a checkpoint; called by
    /// rollback once the pool is fully unwound (every transactional append
    /// sat at the pool tail when undone, so unwinding in reverse order
    /// returns the pool to its checkpoint length exactly).
    pub(crate) fn restore_layout(&mut self, flat: bool, topo_ids: bool) {
        self.flat = flat;
        self.topo_ids = topo_ids;
    }

    /// The current layout flags, captured into a checkpoint.
    pub(crate) fn layout_flags(&self) -> (bool, bool) {
        (self.flat, self.topo_ids)
    }

    /// Undo of `add_*`: pops the newest node, truncating the pool tail.
    pub(crate) fn undo_pop_node(&mut self, was_input: bool) {
        let idx = self.kinds.len() - 1;
        let id = NodeId(idx as u32);
        let span = self.spans[idx];
        if let Some(v) = &mut self.views {
            v.on_pop_node(id, &self.pool[span.range()]);
        }
        self.kinds.pop();
        self.spans.pop();
        self.names.pop_node();
        self.live_fanins -= span.len as usize;
        if span.end() == self.pool.len() {
            self.pool.truncate(span.off as usize);
        }
        if was_input {
            self.inputs.pop();
        }
        self.touch();
    }

    /// Undo of `rewire`: restores the node's previous kind and span, then
    /// truncates the rewire's pool append if it sits at the tail.
    pub(crate) fn undo_rewire(&mut self, id: NodeId, kind: GateKind, span: Span) {
        let idx = id.index();
        let undone = self.spans[idx];
        self.kinds[idx] = kind;
        self.spans[idx] = span;
        self.live_fanins = self.live_fanins + span.len as usize - undone.len as usize;
        if let Some(v) = &mut self.views {
            v.on_rewire(id, &self.pool[undone.range()], &self.pool[span.range()]);
        }
        if undone.end() == self.pool.len() {
            self.pool.truncate(undone.off as usize);
        }
        self.touch();
    }

    /// Undo of `set_node_name`: restores the previous interned name id.
    pub(crate) fn undo_node_name(&mut self, id: NodeId, name_id: u32) {
        self.names.set_id(id.index(), name_id);
        self.touch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_or() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("x");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![g1, x]).unwrap();
        c.add_output(g2, "y");
        (c, g1, g2)
    }

    #[test]
    fn build_and_eval() {
        let (c, _, _) = and_or();
        assert_eq!(c.eval_assignment(&[true, true, false]), vec![true]);
        assert_eq!(c.eval_assignment(&[true, false, false]), vec![false]);
        assert_eq!(c.eval_assignment(&[false, false, true]), vec![true]);
        c.validate().unwrap();
    }

    #[test]
    fn arity_checked() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        assert!(matches!(c.add_gate(GateKind::Not, vec![a, a]), Err(NetlistError::Arity { .. })));
        assert!(matches!(c.add_gate(GateKind::And, vec![]), Err(NetlistError::Arity { .. })));
        assert!(matches!(
            c.add_gate(GateKind::And, vec![NodeId(99)]),
            Err(NetlistError::NodeOutOfRange(_))
        ));
        assert!(matches!(c.add_gate(GateKind::Input, vec![]), Err(NetlistError::NotAGate(_))));
    }

    #[test]
    fn rewire_rejects_cycles() {
        let (mut c, g1, g2) = and_or();
        // g1 := BUF(g2) would create a cycle g1 -> g2 -> g1.
        assert!(matches!(c.rewire(g1, GateKind::Buf, vec![g2]), Err(NetlistError::Cycle(_))));
        // Self-loop rejected too.
        assert!(matches!(c.rewire(g1, GateKind::Buf, vec![g1]), Err(NetlistError::Cycle(_))));
        // A legal rewire works and consumers see it.
        let a = c.inputs()[0];
        c.rewire(g1, GateKind::Buf, vec![a]).unwrap();
        assert_eq!(c.eval_assignment(&[true, false, false]), vec![true]);
    }

    #[test]
    fn rewire_rejects_inputs() {
        let (mut c, _, _) = and_or();
        let a = c.inputs()[0];
        assert!(matches!(c.rewire(a, GateKind::Buf, vec![a]), Err(NetlistError::NotAGate(_))));
    }

    #[test]
    fn topo_and_levels() {
        let (c, g1, g2) = and_or();
        let order = c.topo_order().unwrap();
        let pos: Vec<usize> =
            (0..c.len()).map(|i| order.iter().position(|n| n.index() == i).unwrap()).collect();
        assert!(pos[g1.index()] < pos[g2.index()]);
        let levels = c.levels().unwrap();
        assert_eq!(levels[g1.index()], 1);
        assert_eq!(levels[g2.index()], 2);
        assert_eq!(levels[c.inputs()[0].index()], 0);
    }

    #[test]
    fn bfs_order_sorted_by_level() {
        let (c, _, _) = and_or();
        let order = c.bfs_order().unwrap();
        let levels = c.levels().unwrap();
        for w in order.windows(2) {
            assert!(levels[w[0].index()] <= levels[w[1].index()]);
        }
    }

    #[test]
    fn fanout_accounting() {
        let (c, g1, g2) = and_or();
        let t = c.fanout_table();
        assert_eq!(t[g1.index()], vec![(g2, 0)]);
        let counts = c.fanout_counts();
        assert_eq!(counts[g2.index()], 1); // the PO reference
        assert_eq!(counts[g1.index()], 1);
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let (mut c, _, _) = and_or();
        let a = c.inputs()[0];
        let dead = c.add_gate(GateKind::Not, vec![a]).unwrap();
        assert_eq!(c.len(), 6);
        let map = c.sweep();
        assert_eq!(c.len(), 5);
        assert!(map.get(dead).is_none());
        c.validate().unwrap();
        assert_eq!(c.eval_assignment(&[true, true, false]), vec![true]);
    }

    #[test]
    fn sweep_keeps_unused_inputs() {
        let mut c = Circuit::new("t");
        let _unused = c.add_input("u");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Buf, vec![a]).unwrap();
        c.add_output(g, "y");
        c.sweep();
        assert_eq!(c.inputs().len(), 2);
        c.validate().unwrap();
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut c = Circuit::new("t");
        c.add_input("w1");
        let n = c.fresh_name("w");
        assert_ne!(n, "w1");
    }

    #[test]
    fn fresh_name_ignores_vacated_names() {
        // A name released by a rename no longer blocks fresh_name, exactly
        // like the pre-arena linear scan over node names.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Buf, vec![a]).unwrap();
        c.set_node_name(g, "w2");
        c.set_node_name(g, "other");
        assert_eq!(c.fresh_name("w"), "w2");
    }

    #[test]
    fn pool_stays_flat_under_append_only_growth() {
        let (c, _, _) = and_or();
        assert!(c.fanin_spans_flat());
        assert!(c.ids_topological());
        let flat = c.fanin_pool_flat().unwrap();
        assert_eq!(flat.len(), c.fanin_count());
        // Concatenation of per-node fanins in id order.
        let concat: Vec<NodeId> = c.iter().flat_map(|(_, n)| n.fanins().to_vec()).collect();
        assert_eq!(flat, concat.as_slice());
    }

    #[test]
    fn rewire_fragments_then_sweep_recompacts() {
        let (mut c, g1, _) = and_or();
        let a = c.inputs()[0];
        let before = c.fanin_pool_len();
        c.rewire(g1, GateKind::Buf, vec![a]).unwrap();
        assert!(!c.fanin_spans_flat());
        assert!(c.fanin_pool_len() > before - 1); // old span leaked until sweep
        assert_eq!(c.fanin_count(), c.iter().map(|(_, n)| n.fanins().len()).sum::<usize>());
        c.sweep();
        assert!(c.fanin_spans_flat());
        assert_eq!(c.fanin_pool_len(), c.fanin_count());
        c.validate().unwrap();
    }

    #[test]
    fn rollback_reclaims_pool_appends() {
        let (mut c, g1, _) = and_or();
        let a = c.inputs()[0];
        let b = c.inputs()[1];
        let len0 = c.fanin_pool_len();
        let flat0 = c.fanin_spans_flat();
        let cp = c.begin_edit();
        c.rewire(g1, GateKind::Nand, vec![a, b]).unwrap();
        c.rewire(g1, GateKind::Buf, vec![a]).unwrap();
        let g = c.add_gate(GateKind::Xor, vec![a, b]).unwrap();
        c.add_output(g, "z");
        assert!(c.fanin_pool_len() > len0);
        c.rollback_to(cp);
        assert_eq!(c.fanin_pool_len(), len0, "rollback unwinds every pool append");
        assert_eq!(c.fanin_spans_flat(), flat0, "layout flags restored");
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let (mut c, g1, _) = and_or();
        let a = c.inputs()[0];
        let v0 = c.version();
        c.rewire(g1, GateKind::Buf, vec![a]).unwrap();
        let v1 = c.version();
        assert!(v1 > v0);
        let cp = c.begin_edit();
        c.set_node_name(g1, "renamed");
        c.rollback_to(cp);
        assert!(c.version() > v1, "rollback also bumps the version");
    }

    #[test]
    fn derived_snapshot_reused_until_mutation() {
        let (mut c, g1, _) = and_or();
        let s1 = c.derived(|c| c.len());
        let s2 = c.derived(|_| unreachable!("cache hit expected"));
        assert!(Arc::ptr_eq(&s1, &s2));
        let a = c.inputs()[0];
        c.rewire(g1, GateKind::Buf, vec![a]).unwrap();
        let s3 = c.derived(|c| c.len());
        assert!(!Arc::ptr_eq(&s1, &s3));
    }

    #[test]
    fn clone_equality_ignores_pool_layout() {
        let (mut c, g1, _) = and_or();
        let a = c.inputs()[0];
        let b = c.inputs()[1];
        // Fragment the pool, then compare against a compact clone route.
        c.rewire(g1, GateKind::Nand, vec![a, b]).unwrap();
        let mut compact = c.clone();
        compact.sweep();
        // Same structure, different pool layout (sweep keeps all nodes
        // here: everything is live).
        assert_eq!(c, compact);
    }
}
