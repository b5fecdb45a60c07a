//! Parallel-pattern single-fault-propagation fault simulation.
//!
//! For each pattern block the good machine is simulated once; each fault's
//! per-pattern detection mask is then derived by critical-path tracing
//! (see [`ctrace`](crate::ctrace) for the algorithm): one backward
//! sensitization sweep per fanout-free region (FFR) resolves every fault
//! inside it to a deviation at the region's root, and the root's
//! observability is resolved through its dominator chain, cached per block
//! so all faults sharing a stem share one propagation.
//!
//! Because gate evaluation is bitwise, `detected = deviation_at_root AND
//! observability_of_root` is exact per pattern — the crate's brute-force
//! oracle tests pin this fault by fault and pattern by pattern.
//!
//! The engine is generic over the simulation word ([`SimWord`]): `u64` is
//! the 64-pattern block ATPG and delay simulation work in, and
//! [`W256`](crate::W256) sweeps four blocks at once with bit-identical
//! per-pattern results.

use crate::soa::{eval_gate, SoaCircuit};
use crate::word::SimWord;
use crate::{Fault, FaultSite};
use sft_netlist::Circuit;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::Arc;

/// The read-only per-circuit tables fault simulation propagates events over:
/// the struct-of-arrays circuit snapshot (packed kinds, flat fanin/fanout
/// slabs, topological order, FFR links).
///
/// Building these is the expensive part of [`FaultSim::new`]. Callers that
/// need several simulators of one circuit build the tables once and hand
/// each a cheap clone of the [`Arc`] via [`WideFaultSim::with_tables`], so
/// per-simulator setup is reduced to scratch allocation.
#[derive(Debug)]
pub struct FaultSimTables {
    pub(crate) soa: SoaCircuit,
}

impl FaultSimTables {
    /// Precomputes the propagation tables for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Self {
        FaultSimTables { soa: SoaCircuit::new(circuit) }
    }

    /// The shared per-structural-state tables for `circuit`: a cache hit on
    /// the circuit's version-stamped [`derived`](Circuit::derived) slot when
    /// the structure has not mutated since the last snapshot, a
    /// [`new`](Self::new) build (stored back into the slot) otherwise.
    ///
    /// Campaign entry goes through here, so repeated campaigns, test-set
    /// compactions and serve jobs on an unchanged circuit stop paying the
    /// Circuit→SoA translation entirely.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn snapshot(circuit: &Circuit) -> Arc<Self> {
        circuit.derived(FaultSimTables::new)
    }

    /// The underlying struct-of-arrays snapshot.
    pub fn soa(&self) -> &SoaCircuit {
        &self.soa
    }
}

/// A reusable width-generic fault-simulation engine.
///
/// One [`detect_masks`](Self::detect_masks) call simulates `64 * W::LANES`
/// patterns; lane `l` of every returned mask is exactly what a `u64` engine
/// would report for lane `l` of the inputs, so campaign results are
/// bit-identical across word widths.
#[derive(Debug)]
pub struct WideFaultSim<W: SimWord> {
    tables: Arc<FaultSimTables>,
    /// Scratch: good values for the current block.
    pub(crate) good: Vec<W>,
    /// Scratch: the current value of every node during a propagation;
    /// equal to `good` outside the nodes the propagation has deviated.
    pub(crate) faulty: Vec<W>,
    /// Scratch: which nodes currently deviate from the good machine.
    pub(crate) deviated: Vec<bool>,
    /// Scratch: nodes to un-deviate after each propagation.
    pub(crate) dirty: Vec<u32>,
    /// Event queue of a dominator-region propagation, ordered by
    /// topological position.
    pub(crate) heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Per-root observability masks for the current block (epoch-stamped).
    pub(crate) obs: Vec<W>,
    pub(crate) obs_epoch: Vec<u64>,
    pub(crate) epoch: u64,
    /// Scratch: live faults per FFR root for the current call.
    pub(crate) root_share: Vec<u32>,
    /// Scratch: roots with a nonzero `root_share`, for cheap reset.
    pub(crate) shared_roots: Vec<u32>,
    /// Scratch: per-node FFR sensitization masks,
    /// valid for nodes whose root carries the current epoch stamp.
    pub(crate) sens: Vec<W>,
    /// Per-FFR-root epoch stamps for `sens`.
    pub(crate) sens_epoch: Vec<u64>,
    /// Scratch: the uncached suffix of a dominator chain being resolved.
    pub(crate) chain: Vec<u32>,
    /// Scratch: `(root, node)` excitations deferred at FFR entry
    /// points during the current propagation.
    pub(crate) entries: Vec<(u32, u32)>,
    /// Scratch: whether a root's resolve event is queued.
    pub(crate) ffr_pending: Vec<bool>,
    /// Scratch: whether a node is already recorded in `entries`
    /// for the current propagation.
    pub(crate) entered: Vec<bool>,
    /// Scratch: whether a plain event for a node is already in the
    /// heap. Converging fanins would otherwise queue the node once per
    /// exciting fanin; deduplicating at push time halves the heap traffic.
    pub(crate) queued: Vec<bool>,
    /// Scratch: per-level excitation buckets. Nodes at one level
    /// never depend on each other, so a level sweep replaces the priority
    /// queue's `O(log n)` push/pop with vector appends.
    pub(crate) buckets: Vec<Vec<u32>>,
    /// Scratch: per-level region-resolve buckets, processed after
    /// the same level's excitations (the fold-before-resolve tie-break).
    pub(crate) rbuckets: Vec<Vec<u32>>,
    /// Scratch: the nonempty levels, in ascending order.
    pub(crate) lheap: BinaryHeap<Reverse<u32>>,
    /// Scratch: whether a level is already queued in `lheap`.
    pub(crate) ldirty: Vec<bool>,
    /// Scratch: the in-region event queue of a multi-touch
    /// resolution.
    pub(crate) rheap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl<W: SimWord> WideFaultSim<W> {
    /// Prepares a fault simulator for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Self {
        Self::with_tables(FaultSimTables::snapshot(circuit))
    }

    /// Prepares a fault simulator reusing already-built [`FaultSimTables`].
    pub fn with_tables(tables: Arc<FaultSimTables>) -> Self {
        WideFaultSim {
            tables,
            good: Vec::new(),
            faulty: Vec::new(),
            deviated: Vec::new(),
            dirty: Vec::new(),
            heap: BinaryHeap::new(),
            obs: Vec::new(),
            obs_epoch: Vec::new(),
            epoch: 0,
            root_share: Vec::new(),
            shared_roots: Vec::new(),
            sens: Vec::new(),
            sens_epoch: Vec::new(),
            chain: Vec::new(),
            entries: Vec::new(),
            ffr_pending: Vec::new(),
            entered: Vec::new(),
            queued: Vec::new(),
            buckets: Vec::new(),
            rbuckets: Vec::new(),
            lheap: BinaryHeap::new(),
            ldirty: Vec::new(),
            rheap: BinaryHeap::new(),
        }
    }

    /// The shared propagation tables.
    pub fn tables(&self) -> &Arc<FaultSimTables> {
        &self.tables
    }

    /// Per-block prologue: good-machine evaluation, scratch sizing, epoch
    /// bump, and the live-fault share count per FFR root (the cached
    /// observability is only worth computing for roots where the cost is
    /// shared — see `OBS_SHARE_MIN`).
    pub(crate) fn begin_block(&mut self, soa: &SoaCircuit, faults: &[Fault], input_words: &[W]) {
        soa.eval_into(input_words, &mut self.good);
        let n = soa.len();
        // `faulty` starts as a copy of the good values: propagation reads
        // `faulty` directly as "the current value" — branchless, one load
        // per pin — and every propagation restores its dirty entries,
        // keeping the invariant `faulty[x] == good[x]` for non-deviated `x`.
        self.faulty.clear();
        self.faulty.extend_from_slice(&self.good);
        self.deviated.clear();
        self.deviated.resize(n, false);
        if self.obs.len() != n {
            self.obs = vec![W::ZERO; n];
            self.obs_epoch = vec![0; n];
            self.epoch = 0;
            self.root_share = vec![0; n];
            self.sens = vec![W::ZERO; n];
            self.sens_epoch = vec![0; n];
            self.ffr_pending = vec![false; n];
            self.entered = vec![false; n];
            self.queued = vec![false; n];
            let levels = soa.num_levels as usize;
            self.buckets = (0..levels).map(|_| Vec::new()).collect();
            self.rbuckets = (0..levels).map(|_| Vec::new()).collect();
            self.ldirty = vec![false; levels];
        }
        self.epoch += 1;

        for fault in faults {
            let site = match fault.site {
                FaultSite::Stem(s) => s.index(),
                FaultSite::Branch { gate, .. } => gate.index(),
            };
            let r = soa.ffr_root[site] as usize;
            if self.root_share[r] == 0 {
                self.shared_roots.push(r as u32);
            }
            self.root_share[r] += 1;
        }
    }

    /// Per-block epilogue.
    pub(crate) fn end_block(&mut self) {
        for r in self.shared_roots.drain(..) {
            self.root_share[r as usize] = 0;
        }
    }

    /// The local deviation a fault causes at the output of its own site
    /// gate, before any propagation.
    #[inline]
    pub(crate) fn site_deviation(&self, soa: &SoaCircuit, fault: &Fault) -> (u32, W) {
        let forced = if fault.stuck { W::ONES } else { W::ZERO };
        match fault.site {
            FaultSite::Stem(s) => {
                let i = s.index();
                (i as u32, forced.xor(self.good[i]))
            }
            FaultSite::Branch { gate, pin } => {
                // Recompute the gate with the pin forced.
                let g = gate.index();
                let out = eval_gate(soa.kinds[g], soa.fanin_slice(g), |p, f| {
                    if p == pin as usize {
                        forced
                    } else {
                        self.good[f as usize]
                    }
                });
                (g as u32, out.xor(self.good[g]))
            }
        }
    }
}

/// A reusable 64-pattern fault-simulation engine bound to one circuit.
///
/// This is the `u64` face of [`WideFaultSim`], kept for callers that work a
/// single 64-pattern block at a time (ATPG, delay simulation).
///
/// # Examples
///
/// ```
/// use sft_netlist::bench_format::parse;
/// use sft_sim::{fault_list, Fault, FaultSim};
///
/// let c = parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv")?;
/// let mut fsim = FaultSim::new(&c);
/// let y = c.outputs()[0];
/// // a = 0 in pattern 0 -> y = 1, so y s-a-0 is detected at bit 0.
/// let det = fsim.detect_block(&[Fault::stem(y, false)], &[0]);
/// assert_eq!(det, vec![Some(0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FaultSim<'c> {
    inner: WideFaultSim<u64>,
    _circuit: PhantomData<&'c Circuit>,
}

impl<'c> FaultSim<'c> {
    /// Prepares a fault simulator for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_tables(circuit, FaultSimTables::snapshot(circuit))
    }

    /// Prepares a fault simulator reusing already-built [`FaultSimTables`].
    ///
    /// The tables must have been built from the same (unmodified)
    /// `circuit`; sharing them is what makes a second simulator cheap.
    pub fn with_tables(circuit: &'c Circuit, tables: Arc<FaultSimTables>) -> Self {
        assert_eq!(tables.soa.len(), circuit.len(), "tables were built from a different circuit");
        FaultSim { inner: WideFaultSim::with_tables(tables), _circuit: PhantomData }
    }

    /// Simulates one 64-pattern block and reports, for each fault, the
    /// lowest pattern bit (0–63) at which it is detected, or `None`.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of inputs.
    pub fn detect_block(&mut self, faults: &[Fault], input_words: &[u64]) -> Vec<Option<u32>> {
        self.detect_masks(faults, input_words)
            .into_iter()
            .map(|m| (m != 0).then(|| m.trailing_zeros()))
            .collect()
    }

    /// Like [`detect_block`](Self::detect_block) but returns, for each
    /// fault, the full 64-bit mask of patterns that detect it.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of inputs.
    pub fn detect_masks(&mut self, faults: &[Fault], input_words: &[u64]) -> Vec<u64> {
        self.inner.detect_masks(faults, input_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::PackedKind;
    use sft_netlist::bench_format::parse;
    use sft_netlist::GateKind;

    #[test]
    fn redundant_fault_never_detected() {
        // y = OR(a, AND(a, b)): the AND gate is redundant (absorption).
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        // t s-a-0 is undetectable.
        let t = c.iter().find(|(_, n)| n.name() == Some("t")).map(|(id, _)| id).unwrap();
        let mut fsim = FaultSim::new(&c);
        let mut words = vec![0u64; 2];
        for m in 0..4u64 {
            for (i, w) in words.iter_mut().enumerate() {
                if m >> i & 1 == 1 {
                    *w |= 1 << m;
                }
            }
        }
        let det = fsim.detect_block(&[Fault::stem(t, false)], &words);
        assert_eq!(det, vec![None]);
    }

    #[test]
    fn branch_fault_differs_from_stem_fault() {
        // a fans out to an AND and an OR; branch s-a-1 on the AND pin is
        // detected by a=0,b=1 via the AND only.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n";
        let c = parse(src, "t").unwrap();
        let y = c.iter().find(|(_, n)| n.name() == Some("y")).map(|(id, _)| id).unwrap();
        let mut fsim = FaultSim::new(&c);
        // Single pattern a=0, b=1 at bit 0.
        let det = fsim
            .detect_block(&[Fault::branch(y, 0, true), Fault::stem(c.inputs()[0], true)], &[0, 1]);
        // Branch fault: detected (y flips 0->1). Stem fault also detected
        // (z unaffected since b=1 forces z... wait z = OR(a=0->1, b=1) = 1
        // either way; y flips). Both detected via y.
        assert_eq!(det[0], Some(0));
        assert_eq!(det[1], Some(0));
    }

    /// Campaign entry on an unchanged circuit reuses the cached tables; a
    /// structural edit makes the next snapshot a fresh build.
    #[test]
    fn snapshot_is_shared_until_the_circuit_changes() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let mut c = parse(src, "t").unwrap();
        let first = FaultSimTables::snapshot(&c);
        assert!(Arc::ptr_eq(&first, &FaultSimTables::snapshot(&c)));

        let y = c.outputs()[0];
        let fanins = c.inputs().to_vec();
        c.rewire(y, GateKind::Or, fanins).unwrap();
        let second = FaultSimTables::snapshot(&c);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first.soa().kinds[y.index()], PackedKind::And);
        assert_eq!(second.soa().kinds[y.index()], PackedKind::Or);
        assert!(Arc::ptr_eq(&second, &FaultSimTables::snapshot(&c)));
    }
}
