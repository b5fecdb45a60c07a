use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-xor hasher (FxHash-style) for the manager's tables.
///
/// The unique table and operation cache are the hottest maps in the whole
/// pipeline — every `mk`/`ite` probes them — and their keys are tiny tuples
/// of `u32`s, the worst case for SipHash's per-call setup cost. This hasher
/// folds each word in with a rotate-xor-multiply step instead. It is *not*
/// DoS-resistant, which is fine for interned node indices.
///
/// Hash quality only affects bucket placement, never lookup results, and no
/// code iterates these maps, so swapping the hasher cannot change node
/// creation order or any published result.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A reference to a BDD node inside a [`Manager`].
///
/// References are only meaningful within the manager that produced them.
/// Because the manager hash-conses, two functions are equal **iff** their
/// references are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function.
    pub const TRUE: BddRef = BddRef(1);

    /// Whether this is one of the two terminal nodes.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

impl fmt::Display for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddRef::FALSE => write!(f, "⊥"),
            BddRef::TRUE => write!(f, "⊤"),
            BddRef(i) => write!(f, "b{i}"),
        }
    }
}

/// Errors produced by BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The manager exceeded its node cap (BDD blowup).
    NodeLimit(usize),
    /// Construction was interrupted by an exhausted effort budget
    /// (deadline, step budget, or cooperative cancellation).
    Interrupted(sft_budget::Exhausted),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit(n) => write!(f, "bdd node limit of {n} nodes exceeded"),
            BddError::Interrupted(e) => write!(f, "bdd construction interrupted: {e}"),
        }
    }
}

impl From<sft_budget::Exhausted> for BddError {
    fn from(e: sft_budget::Exhausted) -> Self {
        BddError::Interrupted(e)
    }
}

impl std::error::Error for BddError {}

#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

const TERMINAL_VAR: u32 = u32::MAX;

/// Node cap used by [`Manager::new`].
pub const DEFAULT_NODE_LIMIT: usize = 4_000_000;

/// A hash-consed ROBDD manager with an `ite`-based operation core.
///
/// Variables are identified by `u32` indices; the variable order is the
/// numeric order of those indices.
///
/// # Examples
///
/// ```
/// use sft_bdd::{BddRef, Manager};
///
/// let mut m = Manager::new();
/// let x = m.var(0)?;
/// let nx = m.not(x)?;
/// assert_eq!(m.or(x, nx)?, BddRef::TRUE);
/// assert_eq!(m.and(x, nx)?, BddRef::FALSE);
/// # Ok::<(), sft_bdd::BddError>(())
/// ```
pub struct Manager {
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, BddRef, BddRef), BddRef>,
    ite_cache: FxHashMap<(BddRef, BddRef, BddRef), BddRef>,
    node_limit: usize,
}

impl fmt::Debug for Manager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Manager")
            .field("nodes", &self.nodes.len())
            .field("node_limit", &self.node_limit)
            .finish()
    }
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates a manager with the default node cap (4M nodes).
    pub fn new() -> Self {
        Self::with_node_limit(DEFAULT_NODE_LIMIT)
    }

    /// Creates a manager that errors with [`BddError::NodeLimit`] once it
    /// holds more than `node_limit` nodes.
    pub fn with_node_limit(node_limit: usize) -> Self {
        Manager {
            nodes: vec![
                Node { var: TERMINAL_VAR, lo: BddRef::FALSE, hi: BddRef::FALSE },
                Node { var: TERMINAL_VAR, lo: BddRef::TRUE, hi: BddRef::TRUE },
            ],
            unique: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            node_limit,
        }
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> BddRef {
        if value {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    /// The single-variable function `x_var`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the manager's node cap is hit
    /// (possible with very small caps).
    pub fn var(&mut self, var: u32) -> Result<BddRef, BddError> {
        self.mk(var, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return Ok(r);
        }
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::NodeLimit(self.node_limit));
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), r);
        Ok(r)
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f.0 as usize].var
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        let n = self.nodes[f.0 as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g + !f·h`. The core operation every
    /// other operator is built from.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the manager's node cap is hit.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddError> {
        // Terminal cases.
        if f == BddRef::TRUE {
            return Ok(g);
        }
        if f == BddRef::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Logical negation.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Logical conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Logical disjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Evaluates the function under a variable assignment (`assignment[i]`
    /// is the value of variable `i`; missing variables read as `false`).
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = if v { n.hi } else { n.lo };
        }
        cur == BddRef::TRUE
    }

    /// Number of satisfying assignments over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `f` mentions a variable `>= num_vars`.
    pub fn sat_count(&self, f: BddRef, num_vars: u32) -> u128 {
        fn walk(m: &Manager, f: BddRef, num_vars: u32, memo: &mut FxHashMap<BddRef, u128>) -> u128 {
            // Returns count / 2^(var_of(f) levels above): count over
            // remaining vars from var_of(f).
            if f == BddRef::FALSE {
                return 0;
            }
            if f == BddRef::TRUE {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let n = m.nodes[f.0 as usize];
            assert!(n.var < num_vars, "variable {} out of declared range", n.var);
            let lo = walk(m, n.lo, num_vars, memo);
            let hi = walk(m, n.hi, num_vars, memo);
            let lo_skip = m.var_of(n.lo).min(num_vars) - n.var - 1;
            let hi_skip = m.var_of(n.hi).min(num_vars) - n.var - 1;
            let c = (lo << lo_skip) + (hi << hi_skip);
            memo.insert(f, c);
            c
        }
        if f.is_const() {
            return if f == BddRef::TRUE { 1u128 << num_vars } else { 0 };
        }
        let mut memo = FxHashMap::default();
        let c = walk(self, f, num_vars, &mut memo);
        c << self.var_of(f).min(num_vars)
    }

    /// The set of variables the function depends on, ascending.
    pub fn support(&self, f: BddRef) -> Vec<u32> {
        let mut vars = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            vars.insert(node.var);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        vars.into_iter().collect()
    }

    /// Existential quantification of variable `var`: `∃var. f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn exists(&mut self, f: BddRef, var: u32) -> Result<BddRef, BddError> {
        let c0 = self.restrict(f, var, false)?;
        let c1 = self.restrict(f, var, true)?;
        self.or(c0, c1)
    }

    /// Universal quantification of variable `var`: `∀var. f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn forall(&mut self, f: BddRef, var: u32) -> Result<BddRef, BddError> {
        let c0 = self.restrict(f, var, false)?;
        let c1 = self.restrict(f, var, true)?;
        self.and(c0, c1)
    }

    /// Restriction (cofactor): `f` with `var` fixed to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on blowup.
    pub fn restrict(&mut self, f: BddRef, var: u32, value: bool) -> Result<BddRef, BddError> {
        if f.is_const() {
            return Ok(f);
        }
        let node = self.nodes[f.0 as usize];
        if node.var > var {
            return Ok(f); // var does not appear below the top
        }
        if node.var == var {
            return Ok(if value { node.hi } else { node.lo });
        }
        let lo = self.restrict(node.lo, var, value)?;
        let hi = self.restrict(node.hi, var, value)?;
        if lo == node.lo && hi == node.hi {
            return Ok(f);
        }
        self.mk(node.var, lo, hi)
    }

    /// One satisfying assignment (over the variables actually tested), or
    /// `None` if the function is unsatisfiable.
    pub fn any_sat(&self, f: BddRef) -> Option<Vec<(u32, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            if n.lo != BddRef::FALSE {
                path.push((n.var, false));
                cur = n.lo;
            } else {
                path.push((n.var, true));
                cur = n.hi;
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let m = Manager::new();
        assert_eq!(m.constant(true), BddRef::TRUE);
        assert_eq!(m.constant(false), BddRef::FALSE);
        assert!(BddRef::TRUE.is_const());
    }

    #[test]
    fn tautologies_and_contradictions() {
        let mut m = Manager::new();
        let x = m.var(0).unwrap();
        let nx = m.not(x).unwrap();
        assert_eq!(m.or(x, nx).unwrap(), BddRef::TRUE);
        assert_eq!(m.and(x, nx).unwrap(), BddRef::FALSE);
        assert_eq!(m.xor(x, x).unwrap(), BddRef::FALSE);
    }

    #[test]
    fn hash_consing_gives_canonical_forms() {
        let mut m = Manager::new();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        // (a & b) | c vs c | (b & a)
        let ab = m.and(a, b).unwrap();
        let lhs = m.or(ab, c).unwrap();
        let ba = m.and(b, a).unwrap();
        let rhs = m.or(c, ba).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut m = Manager::new();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.xor(a, b).unwrap();
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(f, &[true, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(!m.eval(f, &[true, true]));
    }

    #[test]
    fn sat_count_basics() {
        let mut m = Manager::new();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.and(a, b).unwrap();
        assert_eq!(m.sat_count(f, 2), 1);
        assert_eq!(m.sat_count(a, 2), 2);
        assert_eq!(m.sat_count(BddRef::TRUE, 3), 8);
        assert_eq!(m.sat_count(BddRef::FALSE, 3), 0);
        // f over a larger universe.
        assert_eq!(m.sat_count(f, 4), 4);
        // Function not mentioning var 0.
        assert_eq!(m.sat_count(b, 2), 2);
    }

    #[test]
    fn any_sat_finds_witness() {
        let mut m = Manager::new();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let nb = m.not(b).unwrap();
        let f = m.and(a, nb).unwrap();
        let w = m.any_sat(f).unwrap();
        assert!(w.contains(&(0, true)));
        assert!(w.contains(&(1, false)));
        assert!(m.any_sat(BddRef::FALSE).is_none());
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = Manager::with_node_limit(16);
        let vars: Vec<BddRef> = (0..8).map(|i| m.var(i).unwrap()).collect();
        let mut acc = vars[0];
        let mut hit = false;
        for &v in &vars[1..] {
            match m.xor(acc, v) {
                Ok(r) => acc = r,
                Err(BddError::NodeLimit(n)) => {
                    assert_eq!(n, 16);
                    hit = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(hit, "node limit should have been hit");
    }

    #[test]
    fn support_and_quantification() {
        let mut m = Manager::new();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        assert_eq!(m.support(f), vec![0, 1, 2]);
        assert_eq!(m.support(ab), vec![0, 1]);
        assert_eq!(m.support(BddRef::TRUE), Vec::<u32>::new());
        // ∃a. (ab + c) = b + c.
        let ex = m.exists(f, 0).unwrap();
        let bc = m.or(b, c).unwrap();
        assert_eq!(ex, bc);
        // ∀a. (ab + c) = c.
        let fa = m.forall(f, 0).unwrap();
        assert_eq!(fa, c);
        // Restriction: (ab + c)|b=1 = a + c.
        let r = m.restrict(f, 1, true).unwrap();
        let ac = m.or(a, c).unwrap();
        assert_eq!(r, ac);
        // Restricting an absent variable is the identity.
        assert_eq!(m.restrict(ab, 2, true).unwrap(), ab);
    }

    /// Exhaustive semantic check of ite on random 3-variable functions.
    #[test]
    fn ite_semantics_exhaustive_3vars() {
        let mut m = Manager::new();
        // Build BDDs for all 256 functions of 3 vars via minterm expansion.
        let mut fns = Vec::new();
        for bits in 0..=255u32 {
            let mut f = BddRef::FALSE;
            for minterm in 0..8u32 {
                if bits >> minterm & 1 == 1 {
                    let mut cube = BddRef::TRUE;
                    for v in 0..3u32 {
                        let x = m.var(v).unwrap();
                        let lit = if minterm >> v & 1 == 1 { x } else { m.not(x).unwrap() };
                        cube = m.and(cube, lit).unwrap();
                    }
                    f = m.or(f, cube).unwrap();
                }
            }
            fns.push(f);
        }
        // BDDs are canonical: all 256 refs are distinct.
        let mut sorted = fns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256);
        // Spot-check ite semantics on a sample.
        for &(i, j, k) in &[(0b1010_1010u32, 0b1100_1100, 0b1111_0000), (17, 200, 99)] {
            let r = m.ite(fns[i as usize], fns[j as usize], fns[k as usize]).unwrap();
            let expect = (i & j) | (!i & k);
            assert_eq!(r, fns[(expect & 0xff) as usize]);
        }
    }
}
