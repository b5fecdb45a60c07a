//! K-feasible cuts with their truth tables, built bottom-up in one forward
//! walk of a pass's level order (cut enumeration: Pan & Lin, FPGA 1998),
//! keeping at most `cap` cuts per node in priority order (priority cuts:
//! Mishchenko, Cho, Chatterjee & Brayton, ICCAD 2007).
//!
//! A *cut* of gate `g` is a set of at most K lines, its *leaves*, such that
//! the walk from `g` towards the primary inputs, stopping at the leaves,
//! reaches every leaf and no primary input: the leaves are exactly the
//! boundary of the cone between them and `g`. Constants stay inside the
//! cone. A cut's table is `g`'s function over its leaves in ascending id
//! order (leaf 0 is the most significant minterm bit), the table
//! [`Circuit::cone_function`] computes for that cut.
//!
//! A gate's cuts are the fold of its fanins' options: a fanin is a leaf
//! itself, or contributes any of its own cuts, and a constant folds into
//! the table. A union is kept when it has at most K leaves and no leaf lies
//! inside the cone another option expanded (such a union would read one
//! line both as a free variable and as a function of other leaves, and its
//! table would not be the cone's). Unions with the same leaves are one cut.
//! Cuts that contain another cut are kept: each is a different cone.
//!
//! Cuts are ordered by priority — fewest leaves first, then ascending leaf
//! ids — and every fold is cut back to `cap`, so wide gates and K = 7
//! stay bounded.

use sft_budget::{Budget, Exhausted};
use sft_netlist::{Circuit, GateKind, NodeId};
use sft_truth::{TruthTable, LOW_HALVES, MAX_INPUTS};

/// One cut while it is folded or scored: its leaves, the root's function
/// over them, and one-hash Bloom signatures of the leaves (a popcount bound
/// on the size of a union) and of the cone's gates (for the
/// inside-the-cone test).
#[derive(Clone, Copy, Debug)]
pub(super) struct Cut {
    table: u128,
    signature: u64,
    cone: u32,
    leaves: [NodeId; MAX_INPUTS],
    len: u8,
}

impl Cut {
    const EMPTY: Cut = Cut {
        table: 0,
        signature: 0,
        cone: 0,
        leaves: [NodeId::from_index(0); MAX_INPUTS],
        len: 0,
    };

    /// The cut whose only leaf is `line` itself.
    fn leaf(line: NodeId) -> Cut {
        let mut c = Cut { table: 0b10, signature: leaf_bit(line), ..Cut::EMPTY };
        c.leaves[0] = line;
        c.len = 1;
        c
    }

    /// A constant over no leaves.
    fn constant(value: bool) -> Cut {
        Cut { table: u128::from(value), ..Cut::EMPTY }
    }

    /// The leaves, in ascending id order.
    pub(super) fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// The root's function over [`leaves`](Self::leaves).
    pub(super) fn truth(&self) -> TruthTable {
        TruthTable::from_bits(self.len as usize, self.table)
    }

    fn priority(&self) -> (u8, [NodeId; MAX_INPUTS]) {
        (self.len, self.leaves)
    }

    /// Appends the cut to `pool`: one header word (leaf count in the low 3
    /// bits, cone signature above), one word per leaf id, then the table's
    /// words.
    fn pack(&self, pool: &mut Vec<u32>) {
        pool.push(u32::from(self.len) | self.cone << 3);
        pool.extend(self.leaves().iter().map(|l| l.index() as u32));
        pool.extend((0..table_words(self.len)).map(|w| (self.table >> (32 * w)) as u32));
    }

    /// The cut packed at the start of `words`, and the words it takes.
    fn unpack(words: &[u32]) -> (Cut, usize) {
        let len = (words[0] & 7) as u8;
        let mut c = Cut { cone: words[0] >> 3, len, ..Cut::EMPTY };
        for (leaf, &id) in c.leaves.iter_mut().zip(&words[1..=usize::from(len)]) {
            *leaf = NodeId::from_index(id as usize);
            c.signature |= leaf_bit(*leaf);
        }
        let table = &words[1 + usize::from(len)..][..table_words(len)];
        c.table = table.iter().rev().fold(0, |t, &w| t << 32 | u128::from(w));
        (c, packed_words(len))
    }
}

/// The words a packed cut of `len` leaves takes.
fn packed_words(len: u8) -> usize {
    1 + usize::from(len) + table_words(len)
}

/// The 32-bit words of a table over `len` leaves.
fn table_words(len: u8) -> usize {
    (1usize << len).div_ceil(32)
}

/// The cut lists of every node of one pass, packed into word chunks (a
/// cut takes a header word, its leaves and its table: six words for four
/// leaves). A node's list lies in one chunk. The chunks are small, so they
/// fit freed heap space, and they are reused from pass to pass.
#[derive(Default)]
pub(super) struct CutSet {
    chunks: Vec<Vec<u32>>,
    /// The chunk being filled.
    filling: usize,
    /// Per node: its chunk, the first word of its cuts there, and their
    /// number.
    spans: Vec<(u32, u32, u32)>,
    options: Vec<Cut>,
    partial: Vec<Cut>,
    next: Vec<Cut>,
    walk: ConeWalk,
}

/// Words per chunk, unless one node's list needs more.
const CHUNK_WORDS: usize = 4096;

impl CutSet {
    /// Rebuilds every node's cuts of at most `k` leaves, at most `cap` per
    /// node (`0` acts as `1`), walking `order` (a topological order of
    /// `circuit`) forward. Checks `budget` once per gate.
    pub(super) fn enumerate(
        &mut self,
        circuit: &Circuit,
        order: &[NodeId],
        k: usize,
        cap: usize,
        budget: &Budget,
    ) -> Result<(), Exhausted> {
        let cap = cap.max(1);
        self.chunks.iter_mut().for_each(Vec::clear);
        self.filling = 0;
        self.spans.clear();
        self.spans.resize(circuit.len(), (0, 0, 0));
        self.walk.reset(circuit.len());
        for &n in order {
            let node = circuit.node(n);
            let kind = node.kind();
            if !kind.is_gate() {
                continue;
            }
            budget.check()?;
            // The fold runs on the gate's associative core; an inverting
            // gate complements the finished tables.
            let (core, identity) = match kind {
                GateKind::Or | GateKind::Nor => (GateKind::Or, false),
                GateKind::Xor | GateKind::Xnor => (GateKind::Xor, false),
                _ => (GateKind::And, true),
            };
            self.partial.clear();
            self.partial.push(Cut::constant(identity));
            let fanins = node.fanins();
            for (j, &f) in fanins.iter().enumerate() {
                self.options.clear();
                self.options.push(match circuit.node(f).kind() {
                    GateKind::Const0 => Cut::constant(false),
                    GateKind::Const1 => Cut::constant(true),
                    _ => Cut::leaf(f),
                });
                let own = Self::cuts_at(&self.chunks, self.spans[f.index()]);
                self.options.extend(own);
                self.next.clear();
                for p in &self.partial {
                    for o in &self.options {
                        let Some(u) = union(p, o, k) else { continue };
                        if self.walk.expands_a_leaf(circuit, &fanins[..j], p, f, o) {
                            continue;
                        }
                        let table = eval2(
                            core,
                            stretch(p.table, p.leaves(), u.leaves()),
                            stretch(o.table, o.leaves(), u.leaves()),
                        );
                        self.next.push(Cut { table, cone: p.cone | o.cone, ..u });
                    }
                }
                // Priority order, one cut per leaf set, the first `cap`.
                self.next.sort_unstable_by_key(Cut::priority);
                self.next.dedup_by_key(|c| c.priority());
                self.next.truncate(cap);
                std::mem::swap(&mut self.partial, &mut self.next);
            }
            self.store(n, kind.inverts());
        }
        Ok(())
    }

    /// Packs the finished fold as `n`'s cuts, complementing the tables of
    /// an inverting gate and adding `n` to every cone signature.
    fn store(&mut self, n: NodeId, inverts: bool) {
        let words: usize = self.partial.iter().map(|c| packed_words(c.len)).sum();
        let full = |c: &Vec<u32>| !c.is_empty() && c.len() + words > c.capacity();
        if self.chunks.get(self.filling).is_some_and(full) {
            self.filling += 1;
        }
        if self.filling == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(words.max(CHUNK_WORDS)));
        }
        let pool = &mut self.chunks[self.filling];
        pool.reserve(words);
        let start = pool.len() as u32;
        for p in &self.partial {
            let table = if inverts { p.truth().complement().bits() } else { p.table };
            Cut { table, cone: p.cone | bloom(n), ..*p }.pack(pool);
        }
        self.spans[n.index()] = (self.filling as u32, start, self.partial.len() as u32);
    }

    /// The cuts of `n` in priority order (none for inputs and constants).
    pub(super) fn of(&self, n: NodeId) -> impl Iterator<Item = Cut> + '_ {
        Self::cuts_at(&self.chunks, self.spans[n.index()])
    }

    fn cuts_at(
        chunks: &[Vec<u32>],
        (chunk, start, count): (u32, u32, u32),
    ) -> impl Iterator<Item = Cut> + '_ {
        let pool = chunks.get(chunk as usize).map_or(&[][..], Vec::as_slice);
        let mut at = start as usize;
        (0..count).map(move |_| {
            let (cut, words) = Cut::unpack(&pool[at..]);
            at += words;
            cut
        })
    }
}

/// The leaves of `a ∪ b` (no table or cone yet), or `None` past `k`
/// leaves.
fn union(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
    let signature = a.signature | b.signature;
    if signature.count_ones() as usize > k {
        return None;
    }
    let mut u = Cut { signature, ..Cut::EMPTY };
    let (x, y) = (a.leaves(), b.leaves());
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < x.len() || j < y.len() {
        let next = match (x.get(i), y.get(j)) {
            (Some(&l), Some(&r)) if l == r => {
                i += 1;
                j += 1;
                l
            }
            (Some(&l), Some(&r)) if l < r => {
                i += 1;
                l
            }
            (Some(&l), None) => {
                i += 1;
                l
            }
            (_, Some(&r)) => {
                j += 1;
                r
            }
            (None, None) => unreachable!(),
        };
        if n == k {
            return None;
        }
        u.leaves[n] = next;
        n += 1;
    }
    u.len = n as u8;
    Some(u)
}

/// The exact inside-the-cone test behind the Bloom signatures, with its
/// visited marks kept between calls.
#[derive(Default)]
struct ConeWalk {
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl ConeWalk {
    fn reset(&mut self, len: usize) {
        self.seen.clear();
        self.seen.resize(len, 0);
        self.epoch = 0;
    }

    /// Whether the union of the partial fold `p` (over `folded`, the fanins
    /// already folded) and the option `o` of the next fanin `f` reads as a
    /// leaf a line that the other side expanded. The signatures rule most
    /// unions out; a suspect leaf is looked for by walking the other
    /// side's cone.
    fn expands_a_leaf(
        &mut self,
        circuit: &Circuit,
        folded: &[NodeId],
        p: &Cut,
        f: NodeId,
        o: &Cut,
    ) -> bool {
        let suspect = |side: &Cut, other: &Cut| {
            other.leaves().iter().any(|&x| bloom(x) & side.cone != 0 && !side.leaves().contains(&x))
        };
        if suspect(p, o) && self.reaches_one_of(circuit, folded, p.leaves(), o.leaves()) {
            return true;
        }
        suspect(o, p) && self.reaches_one_of(circuit, &[f], o.leaves(), p.leaves())
    }

    /// Whether the walk from `roots`, stopping at `stops`, reaches a line
    /// of `targets` that is not itself a stop.
    fn reaches_one_of(
        &mut self,
        circuit: &Circuit,
        roots: &[NodeId],
        stops: &[NodeId],
        targets: &[NodeId],
    ) -> bool {
        self.epoch += 1;
        self.stack.clear();
        self.stack.extend_from_slice(roots);
        while let Some(n) = self.stack.pop() {
            if std::mem::replace(&mut self.seen[n.index()], self.epoch) == self.epoch
                || stops.contains(&n)
            {
                continue;
            }
            if targets.contains(&n) {
                return true;
            }
            self.stack.extend_from_slice(circuit.node(n).fanins());
        }
        false
    }
}

/// The one bit of a leaf in a leaf signature.
fn leaf_bit(n: NodeId) -> u64 {
    1 << (n.index() % 64)
}

/// The one bit of a gate in a 29-bit cone signature.
fn bloom(n: NodeId) -> u32 {
    1 << (((n.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 29)
}

/// `table` over the ascending leaves `from` re-expressed over the ascending
/// superset `to`: each line of `to` missing from `from` is inserted as a
/// variable the function ignores.
fn stretch(mut table: u128, from: &[NodeId], to: &[NodeId]) -> u128 {
    let k = to.len();
    let mut present = from.len();
    for p in (0..k).rev() {
        if present > 0 && from[present - 1] == to[p] {
            present -= 1;
            continue;
        }
        // Every line after `p` is already a variable, so the new one sits
        // at minterm bit `k - 1 - p`: each block of 2^b bits is doubled.
        let b = k - 1 - p;
        for s in (b..6).rev() {
            table = (table | table << (1u32 << s)) & LOW_HALVES[s];
        }
        table |= table << (1u32 << b);
    }
    table
}

/// `kind` over two 128-minterm tables, by the gate's word evaluator.
fn eval2(kind: GateKind, a: u128, b: u128) -> u128 {
    let word = |shift: u32| kind.eval_words(&[(a >> shift) as u64, (b >> shift) as u64]);
    u128::from(word(64)) << 64 | u128::from(word(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64: a fixed stream of test values.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `len` distinct ascending ids below `limit`.
    fn random_leaves(state: &mut u64, len: usize, limit: u64) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::new();
        while ids.len() < len {
            let id = NodeId::from_index((next(state) % limit) as usize);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Packing and unpacking keep leaves, table and cone signature.
    #[test]
    fn packed_cuts_round_trip() {
        let mut state = 0x5eed;
        let mut pool = Vec::new();
        let mut cuts = Vec::new();
        for len in (0..=MAX_INPUTS).cycle().take(64) {
            let mut cut = Cut::EMPTY;
            for (slot, id) in cut.leaves.iter_mut().zip(random_leaves(&mut state, len, 1 << 31)) {
                *slot = id;
                cut.signature |= leaf_bit(id);
            }
            cut.len = len as u8;
            let bits = u128::from(next(&mut state)) << 64 | u128::from(next(&mut state));
            cut.table = TruthTable::from_bits(len, bits).bits();
            cut.cone = next(&mut state) as u32 >> 3;
            cut.pack(&mut pool);
            cuts.push(cut);
        }
        let got: Vec<Cut> = CutSet::cuts_at(&[pool], (0, 0, 64)).collect();
        for (a, b) in got.iter().zip(&cuts) {
            assert_eq!(a.leaves(), b.leaves());
            assert_eq!((a.table, a.cone, a.signature), (b.table, b.cone, b.signature));
        }
    }

    /// Stretching a table onto a superset of its leaves agrees, minterm by
    /// minterm, with reading the sub-minterm off the bits of the wider one.
    #[test]
    fn stretch_inserts_ignored_variables() {
        let mut state = 0xfeed;
        for _ in 0..500 {
            let len = 1 + (next(&mut state) % 7) as usize;
            let wide = random_leaves(&mut state, len, 12);
            let narrow: Vec<NodeId> =
                wide.iter().copied().filter(|_| next(&mut state).is_multiple_of(2)).collect();
            let table = TruthTable::from_bits(narrow.len(), u128::from(next(&mut state))).bits();
            let got = stretch(table, &narrow, &wide);
            let k = wide.len();
            for m in 0..1u64 << k {
                let sub = narrow.iter().fold(0, |acc, leaf| {
                    let pos = wide.iter().position(|w| w == leaf).unwrap();
                    acc << 1 | (m >> (k - 1 - pos) & 1)
                });
                assert_eq!(got >> m & 1, table >> sub & 1, "{narrow:?} onto {wide:?}, m = {m}");
            }
            assert_eq!(TruthTable::from_bits(k, got).bits(), got);
        }
    }
}
