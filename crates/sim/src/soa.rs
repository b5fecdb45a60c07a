//! Struct-of-arrays circuit buffers for campaign-scale simulation.
//!
//! [`Circuit`](sft_netlist::Circuit) stores one heap `Vec` of fanins (and an
//! optional name) per node — the right shape for editing, the wrong shape for
//! sweeping 100K–1M gates millions of times. [`SoaCircuit`] is a read-only
//! snapshot built once per fault-simulation campaign: compact `repr(u8)` gate
//! kinds, flat `u32` fanin/fanout slabs with offset tables, the topological
//! order, and fanout-free-region (FFR) links used for stem-grouped fault
//! dropping. The journal/views contract of the mutable netlist is untouched —
//! this is a derived view, rebuilt from the `Circuit` whenever a campaign
//! starts.

use crate::word::SimWord;
use sft_netlist::{dominators, Circuit, GateKind};

/// Sentinel for "no node" in the flat `u32` tables.
pub(crate) const NONE: u32 = u32::MAX;

/// A gate kind packed into one byte for cache-dense kind arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PackedKind {
    /// A primary input.
    Input = 0,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// A non-inverting buffer.
    Buf,
    /// An inverter.
    Not,
    /// Logical AND of all fanins.
    And,
    /// Logical OR of all fanins.
    Or,
    /// Complemented AND.
    Nand,
    /// Complemented OR.
    Nor,
    /// Parity (XOR) of all fanins.
    Xor,
    /// Complemented parity.
    Xnor,
}

impl PackedKind {}

impl From<GateKind> for PackedKind {
    fn from(kind: GateKind) -> Self {
        match kind {
            GateKind::Input => PackedKind::Input,
            GateKind::Const0 => PackedKind::Const0,
            GateKind::Const1 => PackedKind::Const1,
            GateKind::Buf => PackedKind::Buf,
            GateKind::Not => PackedKind::Not,
            GateKind::And => PackedKind::And,
            GateKind::Or => PackedKind::Or,
            GateKind::Nand => PackedKind::Nand,
            GateKind::Nor => PackedKind::Nor,
            GateKind::Xor => PackedKind::Xor,
            GateKind::Xnor => PackedKind::Xnor,
        }
    }
}

/// Evaluates one gate over simulation words, fetching fanin values through
/// `val(pin, node)` so callers can substitute forced pins (branch-fault
/// injection) or flipped stems without materialising a fanin buffer.
///
/// # Panics
///
/// Panics if called on [`PackedKind::Input`] — the topological sweep handles
/// inputs before gate evaluation, mirroring `GateKind::eval_words`.
#[inline]
pub(crate) fn eval_gate<W: SimWord>(
    kind: PackedKind,
    fanins: &[u32],
    mut val: impl FnMut(usize, u32) -> W,
) -> W {
    match kind {
        PackedKind::Input => panic!("no gate function for a primary input"),
        PackedKind::Const0 => W::ZERO,
        PackedKind::Const1 => W::ONES,
        PackedKind::Buf => val(0, fanins[0]),
        PackedKind::Not => val(0, fanins[0]).not(),
        PackedKind::And | PackedKind::Nand => {
            let mut acc = W::ONES;
            for (pin, &f) in fanins.iter().enumerate() {
                acc = acc.and(val(pin, f));
            }
            if kind == PackedKind::Nand {
                acc.not()
            } else {
                acc
            }
        }
        PackedKind::Or | PackedKind::Nor => {
            let mut acc = W::ZERO;
            for (pin, &f) in fanins.iter().enumerate() {
                acc = acc.or(val(pin, f));
            }
            if kind == PackedKind::Nor {
                acc.not()
            } else {
                acc
            }
        }
        PackedKind::Xor | PackedKind::Xnor => {
            let mut acc = W::ZERO;
            for (pin, &f) in fanins.iter().enumerate() {
                acc = acc.xor(val(pin, f));
            }
            if kind == PackedKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
    }
}

/// Kahn's algorithm over the flat fanin CSR — no per-node heap vectors: a
/// counting pass materialises the raw fanout CSR, then zero-indegree nodes
/// peel off a stack. Used by [`SoaCircuit::new`] when a rewire has
/// invalidated identity order.
fn flat_topo_order(n: usize, fanin_off: &[u32], fanins: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut pin_refs = vec![0u32; n];
    for &f in fanins {
        pin_refs[f as usize] += 1;
    }
    let mut out_off = Vec::with_capacity(n + 1);
    out_off.push(0u32);
    for &c in &pin_refs {
        out_off.push(out_off.last().unwrap() + c);
    }
    let mut raw = vec![0u32; fanins.len()];
    let mut cursor: Vec<u32> = out_off[..n].to_vec();
    for g in 0..n {
        for &f in &fanins[fanin_off[g] as usize..fanin_off[g + 1] as usize] {
            raw[cursor[f as usize] as usize] = g as u32;
            cursor[f as usize] += 1;
        }
    }
    let mut indeg: Vec<u32> = (0..n).map(|i| fanin_off[i + 1] - fanin_off[i]).collect();
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    while let Some(i) = queue.pop() {
        order.push(i);
        for &o in &raw[out_off[i as usize] as usize..out_off[i as usize + 1] as usize] {
            indeg[o as usize] -= 1;
            if indeg[o as usize] == 0 {
                queue.push(o);
            }
        }
    }
    assert_eq!(order.len(), n, "combinational circuit");
    let mut topo_pos = vec![0u32; n];
    for (pos, &id) in order.iter().enumerate() {
        topo_pos[id as usize] = pos as u32;
    }
    (order, topo_pos)
}

/// A flat, read-only struct-of-arrays snapshot of a [`Circuit`], built once
/// per campaign and shared (behind an `Arc`) by every simulator of it.
///
/// Beyond the evaluation slabs it carries the fanout-free-region (FFR)
/// structure: `ffr_head[n]` is the unique consumer of `n` when `n` has
/// exactly one fanin reference in the whole circuit and drives no primary
/// output — i.e. when every fault effect at `n` must exit through that
/// consumer — and a `NONE` sentinel otherwise (making `n` an FFR *root*).
/// Stem-grouped
/// fault simulation walks faults up to their root and shares one cone
/// propagation per root instead of one per fault.
#[derive(Debug)]
pub struct SoaCircuit {
    /// One packed kind byte per node.
    pub(crate) kinds: Vec<PackedKind>,
    /// `fanins[fanin_off[n]..fanin_off[n + 1]]` are node `n`'s fanins.
    pub(crate) fanin_off: Vec<u32>,
    /// Flat fanin slab (node ids).
    pub(crate) fanins: Vec<u32>,
    /// Topological order over all nodes.
    pub(crate) order: Vec<u32>,
    /// Position of each node in `order`.
    pub(crate) topo_pos: Vec<u32>,
    /// Logic level of each node: 0 for sources, `1 + max(fanin levels)` for
    /// gates. Nodes at the same level never depend on each other, which is
    /// what lets the ctrace engine process events level by level instead of
    /// through a priority queue.
    pub(crate) level: Vec<u32>,
    /// `max(level) + 1` — the number of level buckets an event queue needs.
    pub(crate) num_levels: u32,
    /// Position of each primary input in the input vector ([`NONE`] if the
    /// node is not an input).
    pub(crate) input_pos: Vec<u32>,
    /// Number of primary inputs.
    pub(crate) num_inputs: usize,
    /// Whether each node drives a primary output slot.
    pub(crate) output_mask: Vec<bool>,
    /// `fanouts[fanout_off[n]..fanout_off[n + 1]]` are node `n`'s distinct
    /// consumer gates (deduplicated).
    pub(crate) fanout_off: Vec<u32>,
    /// Flat deduplicated fanout slab (node ids).
    pub(crate) fanouts: Vec<u32>,
    /// Unique consumer when the node is interior to a fanout-free region,
    /// else [`NONE`].
    pub(crate) ffr_head: Vec<u32>,
    /// The fanout-free-region root reached by following `ffr_head`.
    pub(crate) ffr_root: Vec<u32>,
    /// `ffr_members[ffr_off[r]..ffr_off[r + 1]]` are the nodes whose
    /// `ffr_root` is `r` (the root itself first, then interiors in
    /// decreasing topological position, so every node appears after its
    /// head). Non-root nodes own empty ranges.
    pub(crate) ffr_off: Vec<u32>,
    /// Whether the ctrace engine defers excitations of this node to its
    /// region's resolution (interior of a large-enough region).
    pub(crate) ffr_defer: Vec<bool>,
    /// Flat FFR membership slab (node ids).
    pub(crate) ffr_members: Vec<u32>,
    /// Immediate dominator of each node over the fanout graph
    /// ([`Circuit::immediate_dominators`]), or [`NONE`] when the node has
    /// no proper gate dominator — its paths diverge all the way to the
    /// outputs, or it reaches no output at all.
    pub(crate) idom: Vec<u32>,
}

impl SoaCircuit {
    /// Builds the snapshot from `circuit` via the arena fast path.
    ///
    /// The flat-arena `Circuit` already stores kinds as a dense column and
    /// fanins as `(offset, len)` spans over one pool, so on the canonical
    /// layout (fresh construction, or after `sweep`) the fanin CSR is a
    /// single pool copy and — when id order is topological, which
    /// append-only construction guarantees — the topological sort
    /// disappears entirely. Fragmented or rewired circuits fall back to a
    /// span-walk copy and a flat Kahn pass over the CSR; no path touches
    /// per-node heap vectors or the name table. The unit tests check it
    /// against `rebuild`, a test-only build through the pre-arena walk.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        assert!(n < NONE as usize, "circuit too large for u32 node ids");
        let total_fanins = circuit.fanin_count();
        assert!(total_fanins < NONE as usize, "fanin slab too large for u32 offsets");

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanins = Vec::with_capacity(total_fanins);
        fanin_off.push(0u32);
        if let Some(pool) = circuit.fanin_pool_flat() {
            // Canonical layout: the pool *is* the CSR payload.
            fanins.extend(pool.iter().map(|f| f.index() as u32));
            let mut off = 0u32;
            for i in 0..n {
                let id = sft_netlist::NodeId::from_index(i);
                kinds.push(PackedKind::from(circuit.kind(id)));
                off += circuit.fanins(id).len() as u32;
                fanin_off.push(off);
            }
        } else {
            for i in 0..n {
                let id = sft_netlist::NodeId::from_index(i);
                kinds.push(PackedKind::from(circuit.kind(id)));
                fanins.extend(circuit.fanins(id).iter().map(|f| f.index() as u32));
                fanin_off.push(fanins.len() as u32);
            }
        }

        let (order, topo_pos) = if circuit.ids_topological() {
            // Append-only construction keeps every fanin id below its node
            // id, so id order is already topological.
            let identity: Vec<u32> = (0..n as u32).collect();
            (identity.clone(), identity)
        } else {
            flat_topo_order(n, &fanin_off, &fanins)
        };

        Self::finish(circuit, kinds, fanin_off, fanins, order, topo_pos)
    }

    /// Builds the snapshot from `circuit` through the pre-arena algorithm:
    /// a per-node walk through [`Circuit::iter`] and a from-scratch
    /// [`Circuit::topo_order`] (which allocates per-node fanout vectors).
    ///
    /// The differential-testing oracle for [`new`](Self::new); engines
    /// never call it.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    #[cfg(test)]
    pub(crate) fn rebuild(circuit: &Circuit) -> Self {
        let n = circuit.len();
        assert!(n < NONE as usize, "circuit too large for u32 node ids");

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let total_fanins: usize = circuit.iter().map(|(_, node)| node.fanins().len()).sum();
        assert!(total_fanins < NONE as usize, "fanin slab too large for u32 offsets");
        let mut fanins = Vec::with_capacity(total_fanins);
        fanin_off.push(0);
        for (_, node) in circuit.iter() {
            kinds.push(PackedKind::from(node.kind()));
            fanins.extend(node.fanins().iter().map(|f| f.index() as u32));
            fanin_off.push(fanins.len() as u32);
        }

        let topo = circuit.topo_order().expect("combinational circuit");
        let mut order = Vec::with_capacity(n);
        let mut topo_pos = vec![0u32; n];
        for (pos, &id) in topo.iter().enumerate() {
            order.push(id.index() as u32);
            topo_pos[id.index()] = pos as u32;
        }

        Self::finish(circuit, kinds, fanin_off, fanins, order, topo_pos)
    }

    /// Shared tail of [`new`](Self::new) and the test-only `rebuild`:
    /// levels, fanout CSR, FFR structure and dominators from the fanin CSR
    /// plus a valid topological order. Every derived quantity here is
    /// independent of *which* valid topological order was supplied.
    fn finish(
        circuit: &Circuit,
        kinds: Vec<PackedKind>,
        fanin_off: Vec<u32>,
        fanins: Vec<u32>,
        order: Vec<u32>,
        topo_pos: Vec<u32>,
    ) -> Self {
        let n = kinds.len();
        let total_fanins = fanins.len();
        let mut level = vec![0u32; n];
        for &id in &order {
            let i = id as usize;
            let (a, b) = (fanin_off[i] as usize, fanin_off[i + 1] as usize);
            for &f in &fanins[a..b] {
                level[i] = level[i].max(level[f as usize] + 1);
            }
        }
        let num_levels = level.iter().max().map_or(1, |&m| m + 1);

        let mut input_pos = vec![NONE; n];
        for (i, &id) in circuit.inputs().iter().enumerate() {
            input_pos[id.index()] = i as u32;
        }

        let mut output_mask = vec![false; n];
        let mut po_refs = vec![0u32; n];
        for &o in circuit.outputs() {
            output_mask[o.index()] = true;
            po_refs[o.index()] += 1;
        }

        // Deduplicated consumer lists, flat: count -> prefix-sum -> fill ->
        // dedup in place. Consumers are filled in increasing gate id, so the
        // per-driver slices are sorted and duplicates are adjacent.
        let mut pin_refs = vec![0u32; n];
        for &f in &fanins {
            pin_refs[f as usize] += 1;
        }
        let mut fanout_off = Vec::with_capacity(n + 1);
        fanout_off.push(0u32);
        for &c in &pin_refs {
            fanout_off.push(fanout_off.last().unwrap() + c);
        }
        let mut raw = vec![0u32; total_fanins];
        let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
        for g in 0..n {
            let (a, b) = (fanin_off[g] as usize, fanin_off[g + 1] as usize);
            for &f in &fanins[a..b] {
                raw[cursor[f as usize] as usize] = g as u32;
                cursor[f as usize] += 1;
            }
        }
        let mut fanouts = Vec::with_capacity(total_fanins);
        let mut dedup_off = Vec::with_capacity(n + 1);
        dedup_off.push(0u32);
        for i in 0..n {
            let (a, b) = (fanout_off[i] as usize, fanout_off[i + 1] as usize);
            let mut last = NONE;
            for &g in &raw[a..b] {
                if g != last {
                    fanouts.push(g);
                    last = g;
                }
            }
            dedup_off.push(fanouts.len() as u32);
        }
        let fanout_off = dedup_off;

        // FFR links: a node is interior to a fanout-free region exactly when
        // it has one fanin reference in the whole circuit and no PO slot —
        // then every fault effect at it must exit through that one consumer
        // pin. Roots resolve in reverse topological order (the head is
        // always topologically later).
        let mut ffr_head = vec![NONE; n];
        for i in 0..n {
            if pin_refs[i] == 1 && po_refs[i] == 0 {
                ffr_head[i] = fanouts[fanout_off[i] as usize];
            }
        }
        let mut ffr_root = vec![NONE; n];
        for &id in order.iter().rev() {
            let i = id as usize;
            let h = ffr_head[i];
            ffr_root[i] = if h == NONE { id } else { ffr_root[h as usize] };
        }

        // FFR membership lists, grouped by root. Filling in reverse
        // topological order puts the root first and every interior node
        // after its head — exactly the order a backward sensitization
        // sweep needs.
        let mut ffr_count = vec![0u32; n];
        for i in 0..n {
            ffr_count[ffr_root[i] as usize] += 1;
        }
        let mut ffr_off = Vec::with_capacity(n + 1);
        ffr_off.push(0u32);
        for &c in &ffr_count {
            ffr_off.push(ffr_off.last().unwrap() + c);
        }
        let mut member_cursor: Vec<u32> = ffr_off[..n].to_vec();
        let mut ffr_members = vec![0u32; n];
        for &id in order.iter().rev() {
            let r = ffr_root[id as usize] as usize;
            ffr_members[member_cursor[r] as usize] = id;
            member_cursor[r] += 1;
        }

        // Deferral eligibility: the ctrace engine hands deviations entering
        // a fanout-free region to a per-region resolution instead of
        // walking the chain gate by gate — a win only when the region is
        // deep enough to amortise the resolution bookkeeping. Small
        // regions evaluate inline like any other node.
        let ffr_defer: Vec<bool> = (0..n)
            .map(|i| {
                if ffr_head[i] == NONE {
                    return false;
                }
                let r = ffr_root[i] as usize;
                ffr_off[r + 1] - ffr_off[r] >= crate::ctrace::DEFER_MIN_REGION
            })
            .collect();

        // Immediate dominators over the fanout graph: the funnel point of
        // every node's fault effects, used by the critical-path-tracing
        // engine to gate stem observability regionally. One reverse
        // topological Cooper-Harvey-Kennedy pass over the deduplicated
        // fanout slab already in hand — re-deriving the graph through
        // `Circuit::immediate_dominators` would cost a second topological
        // sort plus a per-node fanout allocation, a measurable slice of
        // campaign setup on 100K-gate circuits.
        let mut idom = vec![dominators::UNREACHABLE; n];
        let mut key = |x: u32| (topo_pos[x as usize], 0);
        for &id in order.iter().rev() {
            let i = id as usize;
            let (a, b) = (fanout_off[i] as usize, fanout_off[i + 1] as usize);
            let d = dominators::recompute_idom(
                fanouts[a..b].iter().copied(),
                po_refs[i] > 0,
                &idom,
                &mut key,
            );
            idom[i] = d;
        }
        // Both sentinels (virtual sink, unreachable) mean "no proper gate
        // dominator" to the engine.
        for d in &mut idom {
            if *d == dominators::SINK || *d == dominators::UNREACHABLE {
                *d = NONE;
            }
        }

        SoaCircuit {
            kinds,
            fanin_off,
            fanins,
            order,
            topo_pos,
            level,
            num_levels,
            input_pos,
            num_inputs: circuit.inputs().len(),
            output_mask,
            fanout_off,
            fanouts,
            ffr_head,
            ffr_root,
            ffr_off,
            ffr_members,
            ffr_defer,
            idom,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The fanout-free-region root that absorbs fault effects at `node`
    /// (the node itself when it is a root). The number of *distinct* roots
    /// bounds how many cone propagations a pattern block can cost.
    pub fn ffr_root(&self, node: usize) -> usize {
        self.ffr_root[node] as usize
    }

    /// Whether `node` is interior to a fanout-free region — its detection
    /// is resolved by the critical-path-tracing backward sweep instead of
    /// its own forward propagation.
    pub fn ffr_interior(&self, node: usize) -> bool {
        self.ffr_head[node] != NONE
    }

    /// The immediate dominator of `node` over the fanout graph, if a
    /// proper gate dominator exists (see
    /// [`Circuit::immediate_dominators`]).
    pub fn idom(&self, node: usize) -> Option<usize> {
        match self.idom[node] {
            NONE => None,
            d => Some(d as usize),
        }
    }

    /// Node `n`'s fanins as a flat slice.
    #[inline]
    pub(crate) fn fanin_slice(&self, n: usize) -> &[u32] {
        &self.fanins[self.fanin_off[n] as usize..self.fanin_off[n + 1] as usize]
    }

    /// Node `n`'s deduplicated consumer gates.
    #[inline]
    pub(crate) fn fanout_slice(&self, n: usize) -> &[u32] {
        &self.fanouts[self.fanout_off[n] as usize..self.fanout_off[n + 1] as usize]
    }

    /// Simulates `64 * W::LANES` patterns in one topological sweep;
    /// `input_words[i]` carries the values of primary input `i`. Fills
    /// `values` with one word per node.
    ///
    /// Bit-for-bit this matches [`Simulator::eval`](crate::Simulator::eval)
    /// lane by lane: lane `l` of every word is exactly the 64-bit sweep of
    /// lane `l` of the inputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of inputs.
    pub fn eval_into<W: SimWord>(&self, input_words: &[W], values: &mut Vec<W>) {
        assert_eq!(input_words.len(), self.num_inputs, "input word count mismatch");
        values.clear();
        values.resize(self.len(), W::ZERO);
        for &id in &self.order {
            let i = id as usize;
            let kind = self.kinds[i];
            let v = if kind == PackedKind::Input {
                input_words[self.input_pos[i] as usize]
            } else {
                eval_gate(kind, self.fanin_slice(i), |_, f| values[f as usize])
            };
            values[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::W256;
    use crate::Simulator;
    use sft_circuits::random::{random_circuit, RandomCircuitConfig};
    use sft_netlist::bench_format::parse;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    #[test]
    fn eval_matches_simulator_on_random_circuit() {
        let c = random_circuit(&RandomCircuitConfig {
            gates: 300,
            seed: 7,
            ..RandomCircuitConfig::default()
        });
        let soa = SoaCircuit::new(&c);
        let sim = Simulator::new(&c);
        let words: Vec<u64> = (0..c.inputs().len())
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
            .collect();
        let reference = sim.eval(&words);
        let mut values = Vec::new();
        soa.eval_into(&words, &mut values);
        assert_eq!(values, reference);

        // Wide evaluation: each lane carries an independent 64-pattern block
        // and must match a scalar sweep of that lane exactly.
        let lanes: Vec<Vec<u64>> = (0..W256::LANES)
            .map(|l| words.iter().map(|&w| w.rotate_left(l as u32 * 11)).collect())
            .collect();
        let wide_inputs: Vec<W256> =
            (0..words.len()).map(|i| W256::from_lanes(|l| lanes[l][i])).collect();
        let mut wide = Vec::new();
        soa.eval_into(&wide_inputs, &mut wide);
        for (l, lane_words) in lanes.iter().enumerate() {
            let scalar = sim.eval(lane_words);
            for (i, &w) in wide.iter().enumerate() {
                assert_eq!(w.lane(l), scalar[i], "node {i} lane {l}");
            }
        }
    }

    #[test]
    fn ffr_links_are_single_exit_chains() {
        let c = random_circuit(&RandomCircuitConfig {
            gates: 200,
            seed: 42,
            ..RandomCircuitConfig::default()
        });
        let soa = SoaCircuit::new(&c);
        let counts = c.fanout_counts();
        for (id, _) in c.iter() {
            let i = id.index();
            let head = soa.ffr_head[i];
            if head != NONE {
                // Interior node: exactly one reference overall and not a PO.
                assert_eq!(counts[i], 1, "node {i}");
                assert!(!soa.output_mask[i], "node {i}");
                assert_eq!(soa.fanout_slice(i), &[head], "node {i}");
                // The chain terminates at the shared root.
                assert_eq!(soa.ffr_root[i], soa.ffr_root[head as usize], "node {i}");
            } else {
                assert_eq!(soa.ffr_root[i], i as u32, "root must be itself");
            }
        }
    }

    /// Semantic equivalence of two snapshots: every order-independent field
    /// is bit-identical, and each snapshot's `order` is a valid topological
    /// order with `topo_pos` as its inverse and FFR membership correctly
    /// grouped (root first, every member after its head). The fast arena
    /// path may pick a different — equally valid — topological order than
    /// the legacy rebuild, which changes no engine result.
    fn assert_soa_equiv(a: &SoaCircuit, b: &SoaCircuit) {
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.fanin_off, b.fanin_off);
        assert_eq!(a.fanins, b.fanins);
        assert_eq!(a.level, b.level);
        assert_eq!(a.num_levels, b.num_levels);
        assert_eq!(a.input_pos, b.input_pos);
        assert_eq!(a.num_inputs, b.num_inputs);
        assert_eq!(a.output_mask, b.output_mask);
        assert_eq!(a.fanout_off, b.fanout_off);
        assert_eq!(a.fanouts, b.fanouts);
        assert_eq!(a.ffr_head, b.ffr_head);
        assert_eq!(a.ffr_root, b.ffr_root);
        assert_eq!(a.ffr_off, b.ffr_off);
        assert_eq!(a.ffr_defer, b.ffr_defer);
        assert_eq!(a.idom, b.idom);
        for s in [a, b] {
            let n = s.len();
            assert_eq!(s.order.len(), n);
            for (pos, &id) in s.order.iter().enumerate() {
                assert_eq!(s.topo_pos[id as usize], pos as u32, "topo_pos inverse");
            }
            for i in 0..n {
                for &f in s.fanin_slice(i) {
                    assert!(s.topo_pos[f as usize] < s.topo_pos[i], "order is topological");
                }
            }
            let mut pos_in_region = vec![usize::MAX; n];
            for r in 0..n {
                let (lo, hi) = (s.ffr_off[r] as usize, s.ffr_off[r + 1] as usize);
                if lo == hi {
                    continue;
                }
                assert_eq!(s.ffr_members[lo] as usize, r, "root leads its region");
                for (k, &m) in s.ffr_members[lo..hi].iter().enumerate() {
                    assert_eq!(s.ffr_root[m as usize] as usize, r);
                    pos_in_region[m as usize] = k;
                }
                for &m in &s.ffr_members[lo + 1..hi] {
                    let h = s.ffr_head[m as usize] as usize;
                    assert!(pos_in_region[h] < pos_in_region[m as usize], "member after its head");
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_legacy_rebuild_across_layouts() {
        use sft_netlist::GateKind;
        let mut c = random_circuit(&RandomCircuitConfig {
            gates: 400,
            seed: 11,
            ..RandomCircuitConfig::default()
        });
        // Post-normalize the pool is flat; ids need not be topological
        // (normalize's rewires can leave forward edges that survive sweep's
        // order-preserving renumber), so this may take either order path.
        assert!(c.fanin_spans_flat());
        assert_soa_equiv(&SoaCircuit::new(&c), &SoaCircuit::rebuild(&c));

        // Fragmented pool after committed rewires (fallback CSR walk).
        let gates: Vec<_> =
            c.iter().filter(|(_, n)| n.kind().is_gate()).map(|(id, _)| id).collect();
        let inputs = c.inputs().to_vec();
        for (k, &g) in gates.iter().enumerate().take(40) {
            c.rewire(
                g,
                GateKind::Nand,
                vec![inputs[k % inputs.len()], inputs[(k + 1) % inputs.len()]],
            )
            .unwrap();
        }
        assert!(!c.fanin_spans_flat());
        assert_soa_equiv(&SoaCircuit::new(&c), &SoaCircuit::rebuild(&c));

        // A forward edge (fanin id above node id) forces the Kahn fallback.
        let lo = gates[0];
        let hi = *gates.last().unwrap();
        assert!(lo < hi);
        if !c.reaches(lo, &[hi]) {
            c.rewire(lo, GateKind::Buf, vec![hi]).unwrap();
            assert!(!c.ids_topological());
            assert_soa_equiv(&SoaCircuit::new(&c), &SoaCircuit::rebuild(&c));
        }

        // Sweep restores the canonical layout and the fast path.
        c.sweep();
        assert!(c.fanin_spans_flat());
        assert_soa_equiv(&SoaCircuit::new(&c), &SoaCircuit::rebuild(&c));
    }

    #[test]
    fn identity_order_fast_path_matches_rebuild() {
        use sft_netlist::{Circuit, GateKind};
        // Append-only construction never creates forward edges, so the
        // conversion can reuse node ids as the topological order directly.
        let mut c = Circuit::new("ident");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Xor, vec![g1, a]).unwrap();
        let g3 = c.add_gate(GateKind::Nor, vec![g1, g2]).unwrap();
        c.add_output(g3, "y");
        assert!(c.fanin_spans_flat() && c.ids_topological());
        assert_soa_equiv(&SoaCircuit::new(&c), &SoaCircuit::rebuild(&c));
    }

    #[test]
    fn c17_structure() {
        let c = parse(C17, "c17").unwrap();
        let soa = SoaCircuit::new(&c);
        assert_eq!(soa.len(), c.len());
        assert_eq!(soa.num_inputs(), 5);
        // Node "10" feeds only gate "22": interior to 22's FFR.
        let find = |name: &str| {
            c.iter().find(|(_, n)| n.name() == Some(name)).map(|(id, _)| id.index()).unwrap()
        };
        let (n10, n11, n22) = (find("10"), find("11"), find("22"));
        assert_eq!(soa.ffr_head[n10], n22 as u32);
        assert_eq!(soa.ffr_root[n10], n22 as u32);
        // Node "11" fans out to 16 and 19: an FFR root.
        assert_eq!(soa.ffr_head[n11], NONE);
        assert_eq!(soa.ffr_root[n11], n11 as u32);
        // Outputs are their own roots.
        assert_eq!(soa.ffr_head[n22], NONE);
    }
}
