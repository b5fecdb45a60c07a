//! Critical-path tracing with dominator-shortcut stem observability.
//!
//! A direct parallel-pattern single-fault-propagation simulator pays, per
//! fault, a walk up the fault's fanout-free region (FFR) and, per stem, a
//! full event propagation to the primary outputs. This engine replaces both
//! with structure-driven derivations that stay **bit-exact**:
//!
//! 1. **Sensitization inside FFRs.** An FFR is a tree: every interior node
//!    feeds exactly one pin circuit-wide, so a single fault inside it
//!    deviates exactly the nodes on the unique path to the root, and each
//!    gate on that path sees the deviation on one pin while its other pins
//!    hold good values. The per-pattern mask on which a flip of node `n`
//!    flips the root therefore factors as `sens(n) = sens(head(n)) AND
//!    pin_sens(head(n), n)`, where `pin_sens` is the classic side-pin
//!    condition (all-1 side pins for AND/NAND, all-0 for OR/NOR, always for
//!    XOR/XNOR/BUF/NOT). One backward sweep from the root computes `sens`
//!    for the whole region, and every fault inside it resolves as
//!    `deviation-at-site AND sens(site)` — no per-fault walk.
//!
//! 2. **Dominator regions.** Every path from an FFR root `r` to any output
//!    passes through its immediate dominator `d = idom(r)` over the fanout
//!    graph (computed against a virtual sink all primary-output slots
//!    feed). Three consequences, each load-bearing:
//!    - no node deviated by a flip of `r` can drive a primary output before
//!      `d` (such a node would witness an `r -> output` path avoiding `d`);
//!    - the deviation cannot cross into the strict downstream of `d`
//!      except through `d` itself (an edge from a deviated node into a node
//!      past `d` would close a cycle through `d`);
//!    - every live node the propagation touches precedes `d` topologically,
//!      so in a topologically-ordered event queue `d` pops after the whole
//!      region has settled.
//!
//!    Hence propagation from `r` can *stop at `d`*, the deviation mask it
//!    delivers there is exact, and `obs(r) = deliver(r -> d, full flip)
//!    AND obs(d)` — chains of stems collapse into one cached propagation
//!    per dominator region instead of one full cone sweep per stem. A node
//!    with no proper dominator (`idom = None`) falls back to a full event
//!    propagation to the outputs.
//!
//! Both derivations are pinned bit-identical to explicit per-fault
//! faulty-machine simulation by the crate's brute-force oracle tests.

use crate::fsim::WideFaultSim;
use crate::soa::{PackedKind, SoaCircuit, NONE};
use crate::word::SimWord;
use crate::Fault;
use std::cmp::Reverse;
use std::sync::Arc;

/// Minimum fanout-free-region size (members, root included) before the
/// ctrace engine defers excitations of the region's interiors to a
/// per-region resolution. Below this, walking the one or two chain gates
/// inline is cheaper than the resolution bookkeeping; above it — XOR
/// checksum trees, wide parity cones — the deferral replaces a
/// gate-by-gate walk with one cached-sensitization AND per region.
pub(crate) const DEFER_MIN_REGION: u32 = 16;

/// Minimum number of live faults on one FFR root before its full-flip
/// observability is computed and cached for the block. Below this, the
/// fault's own deviation is propagated region by region instead, which dies
/// as early as the deviation does.
pub(crate) const OBS_SHARE_MIN: u32 = 2;

/// The side-pin sensitization condition of `head` with respect to its fanin
/// `node`: the per-pattern mask on which flipping `node` flips `head`'s
/// output, given every other pin holds its good value. `node` feeds `head`
/// on exactly one pin (it is FFR-interior), so skipping its first
/// occurrence is skipping its only occurrence.
#[inline]
fn pin_sens<W: SimWord>(soa: &SoaCircuit, good: &[W], head: usize, node: u32) -> W {
    match soa.kinds[head] {
        PackedKind::Buf | PackedKind::Not | PackedKind::Xor | PackedKind::Xnor => W::ONES,
        PackedKind::And | PackedKind::Nand => {
            let mut acc = W::ONES;
            let mut skipped = false;
            for &f in soa.fanin_slice(head) {
                if !skipped && f == node {
                    skipped = true;
                } else {
                    acc = acc.and(good[f as usize]);
                }
            }
            acc
        }
        PackedKind::Or | PackedKind::Nor => {
            let mut acc = W::ONES;
            let mut skipped = false;
            for &f in soa.fanin_slice(head) {
                if !skipped && f == node {
                    skipped = true;
                } else {
                    acc = acc.and(good[f as usize].not());
                }
            }
            acc
        }
        PackedKind::Input | PackedKind::Const0 | PackedKind::Const1 => {
            unreachable!("an FFR head consumes a pin, so it is a gate")
        }
    }
}

impl<W: SimWord> WideFaultSim<W> {
    /// Simulates one block of `64 * W::LANES` patterns and returns, for each
    /// fault, the word whose set bits are the patterns that detect it: one
    /// sensitization sweep per fanout-free region resolves the faults inside
    /// it, and stem observability is resolved through the dominator chain
    /// and cached for the block.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of inputs.
    pub fn detect_masks(&mut self, faults: &[Fault], input_words: &[W]) -> Vec<W> {
        let tables = Arc::clone(self.tables());
        let soa = &tables.soa;
        self.begin_block(soa, faults, input_words);
        let mut results = Vec::with_capacity(faults.len());
        for fault in faults {
            let (site, dev_site) = self.site_deviation(soa, fault);
            let root = soa.ffr_root[site as usize];
            // Deviation delivered at the FFR root: one AND against the
            // cached sensitization instead of a gate-by-gate walk. A fault
            // sitting at the root needs no sensitization at all
            // (`sens(root) = ONES`), which spares regions whose alive
            // faults have all collapsed onto the root — common once easy
            // interior faults drop — their per-block sweep entirely.
            let dev_root = if site == root {
                dev_site
            } else if dev_site.is_zero() {
                W::ZERO
            } else {
                self.ensure_sens(soa, root);
                dev_site.and(self.sens[site as usize])
            };
            let detected =
                if dev_root.is_zero() { W::ZERO } else { self.observe(soa, root, dev_root) };
            results.push(detected);
        }
        self.end_block();
        results
    }

    /// Computes the sensitization masks of every node in `root`'s FFR for
    /// the current block, once per root per block. Members are stored root
    /// first, then interiors in decreasing topological position, so each
    /// node's head is already resolved when the node is reached.
    fn ensure_sens(&mut self, soa: &SoaCircuit, root: u32) {
        let r = root as usize;
        if self.sens_epoch[r] == self.epoch {
            return;
        }
        self.sens_epoch[r] = self.epoch;
        let (a, b) = (soa.ffr_off[r] as usize, soa.ffr_off[r + 1] as usize);
        for &m in &soa.ffr_members[a..b] {
            let i = m as usize;
            self.sens[i] = if m == root {
                W::ONES
            } else {
                let h = soa.ffr_head[i] as usize;
                let up = self.sens[h];
                if up.is_zero() {
                    W::ZERO
                } else {
                    up.and(pin_sens(soa, &self.good, h, m))
                }
            };
        }
    }

    /// Detection mask of a deviation `dev` sitting at FFR root `root`:
    /// climbs the dominator chain, delivering the deviation region by
    /// region, until it dies, meets a cached observability, or tops out
    /// into a full propagation. Once the deviation survives its own region
    /// the remaining chain is resolved as cached observability — dominator
    /// trunks are confluence points shared by every stem they dominate.
    fn observe(&mut self, soa: &SoaCircuit, root: u32, dev: W) -> W {
        let mut node = root;
        let mut dev = dev;
        loop {
            let i = node as usize;
            if self.obs_epoch[i] == self.epoch {
                return dev.and(self.obs[i]);
            }
            if node != root || self.root_share[i] >= OBS_SHARE_MIN {
                return dev.and(self.chain_obs(soa, node));
            }
            let d = soa.idom[i];
            if d == NONE {
                return self.propagate_deviation(soa, node, dev);
            }
            dev = self.propagate_to(soa, node, dev, d);
            if dev.is_zero() {
                return W::ZERO;
            }
            node = d;
        }
    }

    /// The full-flip observability of `node`, resolved through the
    /// dominator chain and cached at every level for the current block:
    /// `obs(x) = deliver(x -> idom(x), full flip) AND obs(idom(x))`, with
    /// a full event propagation at the chain top (no proper dominator).
    fn chain_obs(&mut self, soa: &SoaCircuit, node: u32) -> W {
        // Collect the uncached suffix of the chain, then resolve top-down.
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        let mut x = node;
        loop {
            chain.push(x);
            let d = soa.idom[x as usize];
            if d == NONE || self.obs_epoch[d as usize] == self.epoch {
                break;
            }
            x = d;
        }
        for &y in chain.iter().rev() {
            let i = y as usize;
            let o = match soa.idom[i] {
                NONE => self.propagate_deviation(soa, y, W::ONES),
                d => {
                    let upper = self.obs[d as usize];
                    if upper.is_zero() {
                        W::ZERO
                    } else {
                        self.propagate_to(soa, y, W::ONES, d).and(upper)
                    }
                }
            };
            self.obs[i] = o;
            self.obs_epoch[i] = self.epoch;
        }
        self.chain = chain;
        self.obs[node as usize]
    }

    /// Event-propagates a deviation of `dev` at `seed` through its fanout
    /// cone and returns the per-pattern mask of outputs that change, with
    /// **FFR entry deferral**: an excitation of a node interior to a fanout-free
    /// region is recorded as a *touch* instead of being evaluated, and the
    /// whole region resolves as one unit the moment every event
    /// topologically at or before its root has been processed (the touch
    /// resolutions are merged into the event order by root position, so
    /// downstream logic still settles strictly in topological order):
    ///
    /// - **single touch** `n`: no other deviation reaches the region — a
    ///   deviated pin of any member would have excited that member as a
    ///   second touch — so every side pin along `n`'s chain holds its good
    ///   value and the deviation delivered at the root is exactly
    ///   `dev(n) AND sens(n)`: the cached sensitization mask replaces the
    ///   chain walk;
    /// - **multiple touches**: deviations interfere inside the tree
    ///   (reconvergence through the region's side inputs, or the root
    ///   excited directly through an outside fanin while interior touches
    ///   were deferred), so the region's members are re-evaluated
    ///   explicitly in topological order — all outside fanins have settled
    ///   by resolution time.
    ///
    /// Either way a surviving deviation at the root re-enters normal event
    /// propagation.
    fn propagate_deviation(&mut self, soa: &SoaCircuit, seed: u32, dev: W) -> W {
        let s = seed as usize;
        let mut detected = W::ZERO;
        self.faulty[s] = self.good[s].xor(dev);
        self.deviated[s] = true;
        self.dirty.push(seed);
        if soa.output_mask[s] {
            detected = dev;
        }
        self.push_excited(soa, s);
        // Level sweep: nodes at one level never depend on each other, and
        // an excited consumer always sits strictly deeper than its exciter,
        // so draining levels in ascending order settles the cone in
        // dependency order without a priority queue. Within a level the
        // excitation bucket drains before the resolve bucket: a region root
        // excited through an outside fanin folds into the resolution as a
        // self-touch before the region resolves.
        while let Some(Reverse(l)) = self.lheap.pop() {
            let lu = l as usize;
            self.ldirty[lu] = false;
            let mut bucket = std::mem::take(&mut self.buckets[lu]);
            for &id in &bucket {
                let i = id as usize;
                self.queued[i] = false;
                debug_assert!(
                    !soa.ffr_defer[i],
                    "deferred-region interiors are recorded as touches, never queued"
                );
                if self.ffr_pending[i] {
                    // A pending region's root excited through an outside
                    // fanin while its interior touches are still deferred:
                    // fold the excitation into the resolution as a
                    // self-touch (the resolve bucket of this level drains
                    // right after this one).
                    self.entries.push((id, id));
                    continue;
                }
                let v = eval_gate(soa, i, &self.faulty);
                if v == self.good[i] {
                    continue;
                }
                self.faulty[i] = v;
                self.deviated[i] = true;
                self.dirty.push(id);
                if soa.output_mask[i] {
                    detected = detected.or(v.xor(self.good[i]));
                }
                self.push_excited(soa, i);
            }
            bucket.clear();
            debug_assert!(self.buckets[lu].is_empty(), "no same-level excitations");
            self.buckets[lu] = bucket;
            let mut rbucket = std::mem::take(&mut self.rbuckets[lu]);
            for &r in &rbucket {
                // Every event at or before the region's root has been
                // processed: all touches are recorded, outside fanins have
                // settled.
                self.ffr_pending[r as usize] = false;
                detected = detected.or(self.resolve_region(soa, r, seed));
            }
            rbucket.clear();
            debug_assert!(self.rbuckets[lu].is_empty(), "no same-level resolves");
            self.rbuckets[lu] = rbucket;
        }
        for &(_, en) in &self.entries {
            self.entered[en as usize] = false;
        }
        self.entries.clear();
        for id in self.dirty.drain(..) {
            let i = id as usize;
            self.deviated[i] = false;
            self.faulty[i] = self.good[i];
        }
        detected
    }

    /// Resolves one deferred fanout-free region (see
    /// [`propagate_deviation`](Self::propagate_deviation)): computes
    /// the deviation delivered at root `r`, marks the root and pushes its
    /// fanouts if it survives, and returns the root's output contribution.
    /// Every fanin outside the region has settled when this runs, so both
    /// resolution paths read exact values.
    fn resolve_region(&mut self, soa: &SoaCircuit, r: u32, seed: u32) -> W {
        let ri = r as usize;
        let mut single = NONE;
        let mut count = 0u32;
        for &(er, en) in &self.entries {
            if er == r {
                single = en;
                count += 1;
            }
        }
        debug_assert!(count > 0, "a pending region has at least one entry");
        let delivered = if count == 1 {
            self.ensure_sens(soa, r);
            let n = single as usize;
            let v = eval_gate(soa, n, &self.faulty);
            v.xor(self.good[n]).and(self.sens[n])
        } else {
            // Interfering touches: replay the union of paths from the
            // touches to the root in topological order. The region is a
            // tree, so paths only merge on the way up, and members off
            // those paths keep their good values — no need to visit them.
            // The propagation seed's deviation is an injected boundary
            // condition, not a consequence of its fanins, so it is never
            // re-evaluated.
            let mut rheap = std::mem::take(&mut self.rheap);
            for &(er, en) in &self.entries {
                if er == r && en != r {
                    rheap.push(Reverse((soa.topo_pos[en as usize], en)));
                }
            }
            while let Some(Reverse((_, m))) = rheap.pop() {
                let i = m as usize;
                let h = soa.ffr_head[i];
                if m == seed {
                    // Already deviated by construction; keep it flowing.
                    if h != r {
                        rheap.push(Reverse((soa.topo_pos[h as usize], h)));
                    }
                    continue;
                }
                let v = eval_gate(soa, i, &self.faulty);
                if v == self.good[i] {
                    // Write the reverted value back: readers take `faulty`
                    // as the current value unconditionally.
                    self.faulty[i] = v;
                    self.deviated[i] = false;
                    continue;
                }
                if !self.deviated[i] {
                    self.deviated[i] = true;
                    self.dirty.push(m);
                }
                self.faulty[i] = v;
                if h != r {
                    rheap.push(Reverse((soa.topo_pos[h as usize], h)));
                }
            }
            self.rheap = rheap;
            let v = eval_gate(soa, ri, &self.faulty);
            v.xor(self.good[ri])
        };
        if delivered.is_zero() {
            return W::ZERO;
        }
        self.faulty[ri] = self.good[ri].xor(delivered);
        self.deviated[ri] = true;
        self.dirty.push(r);
        self.push_excited(soa, ri);
        if soa.output_mask[ri] {
            delivered
        } else {
            W::ZERO
        }
    }

    /// Hands every consumer of newly-deviated node `i` to the event loop:
    /// interiors of large fanout-free regions are recorded as region
    /// touches on the spot (their evaluation is deferred to the region
    /// resolution, so there is nothing to order — skipping the queue saves
    /// the round-trip), all others are queued by topological position.
    #[inline]
    fn push_excited(&mut self, soa: &SoaCircuit, i: usize) {
        for &g in soa.fanout_slice(i) {
            let gi = g as usize;
            if soa.ffr_defer[gi] {
                if !self.entered[gi] {
                    self.entered[gi] = true;
                    self.record_touch(soa, soa.ffr_root[gi], g);
                }
            } else {
                self.queue_plain(soa, g);
            }
        }
    }

    /// Records a touch of node `n` in the region rooted at `r` and queues
    /// the region's resolve event if it is not already pending.
    #[inline]
    fn record_touch(&mut self, soa: &SoaCircuit, r: u32, n: u32) {
        self.entries.push((r, n));
        if !self.ffr_pending[r as usize] {
            self.ffr_pending[r as usize] = true;
            self.push_level(soa.level[r as usize]);
            self.rbuckets[soa.level[r as usize] as usize].push(r);
        }
    }

    /// Marks `level` live for the current level sweep.
    #[inline]
    fn push_level(&mut self, level: u32) {
        if !self.ldirty[level as usize] {
            self.ldirty[level as usize] = true;
            self.lheap.push(Reverse(level));
        }
    }

    /// Event-propagates a deviation of `dev` at `root` through the region
    /// between `root` and its dominator `stop`, and returns the deviation
    /// mask delivered at `stop` — exact, because nothing in the region can
    /// reach an output or the strict downstream of `stop` except through
    /// `stop` (see the module docs). Dead side branches past `stop` are
    /// discarded unevaluated.
    fn propagate_to(&mut self, soa: &SoaCircuit, root: u32, dev: W, stop: u32) -> W {
        let r = root as usize;
        debug_assert!(!soa.output_mask[r], "a PO driver has no proper dominator");
        self.faulty[r] = self.good[r].xor(dev);
        self.deviated[r] = true;
        self.dirty.push(root);
        for &g in soa.fanout_slice(r) {
            self.heap.push(Reverse((soa.topo_pos[g as usize], g)));
        }
        // Dominator regions are typically a handful of gates between a stem
        // and its confluence point, so a plain by-position heap beats the
        // level sweep of `propagate_deviation` here (the sweep's
        // per-level bookkeeping outweighs its dedup savings on regions this
        // small — measured on the stitched scale suite).
        let mut delivered = W::ZERO;
        while let Some(Reverse((_, id))) = self.heap.pop() {
            let i = id as usize;
            if id == stop {
                // Every region node precedes `stop` topologically, so the
                // region has fully settled by now; whatever remains queued
                // is dead logic the outputs cannot see.
                let v = eval_gate(soa, i, &self.faulty);
                delivered = v.xor(self.good[i]);
                break;
            }
            // Deduplicate: a node may be queued via several fanins.
            if self.deviated[i] {
                continue;
            }
            let v = eval_gate(soa, i, &self.faulty);
            if v == self.good[i] {
                continue;
            }
            debug_assert!(
                !soa.output_mask[i],
                "no primary output strictly inside a dominator region"
            );
            self.faulty[i] = v;
            self.deviated[i] = true;
            self.dirty.push(id);
            for &g in soa.fanout_slice(i) {
                self.heap.push(Reverse((soa.topo_pos[g as usize], g)));
            }
        }
        self.heap.clear();
        for id in self.dirty.drain(..) {
            let i = id as usize;
            self.deviated[i] = false;
            self.faulty[i] = self.good[i];
        }
        delivered
    }

    /// Queues node `g` for the current level sweep if it is not queued yet
    /// (a node excited through several fanins is evaluated once).
    #[inline]
    fn queue_plain(&mut self, soa: &SoaCircuit, g: u32) {
        let gi = g as usize;
        if !self.queued[gi] {
            self.queued[gi] = true;
            self.push_level(soa.level[gi]);
            self.buckets[soa.level[gi] as usize].push(g);
        }
    }
}

/// Evaluates gate `i` reading every fanin's *current* value from `faulty`.
/// The ctrace invariant — `faulty[x] == good[x]` for every non-deviated
/// `x`, established by `begin_block` and restored by every propagation —
/// makes this a single branchless load per pin, where gating on `deviated`
/// would cost a second load and an unpredictable branch in the hottest
/// loop of the engine.
#[inline]
fn eval_gate<W: SimWord>(soa: &SoaCircuit, i: usize, faulty: &[W]) -> W {
    crate::soa::eval_gate(soa.kinds[i], soa.fanin_slice(i), |_, f| faulty[f as usize])
}
