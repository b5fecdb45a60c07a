//! PODEM test generation over the 5-valued D-algebra.
//!
//! Lines carry a pair of 3-valued signals (good machine, faulty machine);
//! the composite values are the classical `0, 1, X, D, D̄`. Decisions are
//! made only at primary inputs (the defining property of PODEM), objectives
//! are chosen to first activate the fault and then advance the D-frontier,
//! and an X-path check prunes assignments that can no longer propagate the
//! fault to an output.
//!
//! Implication is event-driven (Goel, IEEE TC 1981). Each fault starts
//! with one full sweep of both machines; after that a decision, a flip or a
//! backtrack's reset marks only the inputs it changed, and nodes are
//! re-evaluated in topological rank order, each marking its fanouts only
//! when its (good, faulty) pair changed. A step therefore costs what it
//! changes, not the circuit. Debug builds check every incremental state
//! against a fresh full sweep.
//!
//! Only gates in the fanout cone of the fault site can carry a D, so the
//! D-frontier is read from that cone alone, in node-id order. While the
//! fault is not yet activated, a decision after which no composite-X path
//! leads from the fault site to an output is a dead end: determined lines
//! stay determined, and no line carries a D before activation, so no test
//! lies below it. Pruning there changes no test vector and no verdict, only
//! the number of backtracks spent finding them, so a search that would
//! have hit its backtrack limit inside the pruned subtree may now finish.

use sft_netlist::{Circuit, GateKind, NodeId};
use sft_sim::{Fault, FaultSite};

/// Three-valued signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V3 {
    Zero,
    One,
    X,
}

impl V3 {
    fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    fn invert(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }
}

/// Evaluates a gate in both machines in one pass over its fanins, given as
/// (good, faulty) pairs.
fn eval_pair(kind: GateKind, mut pins: impl Iterator<Item = (V3, V3)>) -> (V3, V3) {
    let (g, b) = match kind {
        GateKind::Input => unreachable!("inputs are assigned, not evaluated"),
        GateKind::Const0 => (V3::Zero, V3::Zero),
        GateKind::Const1 => (V3::One, V3::One),
        GateKind::Buf | GateKind::Not => pins.next().expect("one fanin"),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // A controlling input decides the output; otherwise any X
            // leaves it X.
            let c = V3::from_bool(kind.controlling_value() == Some(true));
            let absorb = |acc: V3, v: V3| {
                if acc == c || v == c {
                    c
                } else if acc == V3::X || v == V3::X {
                    V3::X
                } else {
                    acc
                }
            };
            pins.fold((c.invert(), c.invert()), |(g, b), (gv, bv)| (absorb(g, gv), absorb(b, bv)))
        }
        GateKind::Xor | GateKind::Xnor => {
            let parity = |acc: V3, v: V3| {
                if acc == V3::X || v == V3::X {
                    V3::X
                } else {
                    V3::from_bool(acc != v)
                }
            };
            pins.fold((V3::Zero, V3::Zero), |(g, b), (gv, bv)| (parity(g, gv), parity(b, bv)))
        }
    };
    if kind.inverts() {
        (g.invert(), b.invert())
    } else {
        (g, b)
    }
}

/// Outcome of PODEM on one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestResult {
    /// A test was found; one value per primary input (unassigned inputs are
    /// filled with `false`).
    Test(Vec<bool>),
    /// The complete search space was exhausted: the fault is untestable
    /// (redundant).
    Untestable,
    /// The backtrack limit was hit before the search completed.
    Aborted,
}

impl TestResult {
    /// Whether a test was found.
    pub fn is_test(&self) -> bool {
        matches!(self, TestResult::Test(_))
    }
}

/// Per-circuit structural context PODEM needs for every fault: topological
/// order and each node's rank in it (the order event-driven implication
/// re-evaluates changed nodes in), deduped gate fanouts (which carry the
/// events, bound the fault site's cone and guide the X-path search), input
/// positions and an output mask.
///
/// Building it is O(circuit). Callers that prove many faults against the
/// same structure — redundancy removal, test-set generation, the RAR loop —
/// build it once per structural change via [`PodemContext::new`] and pass
/// it to [`generate_test_with`], instead of paying the rebuild on every
/// fault. When the circuit has maintained views enabled, the fanout lists
/// are read straight from the view (no fanout-table rebuild); both sources
/// list consumers in the same `(consumer, pin)` order, so the derived
/// structures are identical either way.
pub struct PodemContext {
    order: Vec<NodeId>,
    rank: Vec<u32>,
    input_pos: Vec<usize>,
    fanouts: Vec<Vec<NodeId>>,
    is_output: Vec<bool>,
}

impl PodemContext {
    /// Builds the context for `circuit`. Must be rebuilt after any
    /// structural change.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Self {
        let order = circuit.topo_order().expect("combinational circuit");
        let mut rank = vec![0; circuit.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        let mut input_pos = vec![usize::MAX; circuit.len()];
        for (i, &id) in circuit.inputs().iter().enumerate() {
            input_pos[id.index()] = i;
        }
        let dedup_consumers = |pairs: &[(NodeId, usize)]| {
            let mut g: Vec<NodeId> = pairs.iter().map(|&(g, _)| g).collect();
            g.dedup();
            g
        };
        let fanouts = match circuit.views() {
            Some(v) => (0..circuit.len())
                .map(|i| dedup_consumers(v.fanout(NodeId::from_index(i))))
                .collect(),
            None => circuit.fanout_table().iter().map(|v| dedup_consumers(v)).collect(),
        };
        let mut is_output = vec![false; circuit.len()];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        PodemContext { order, rank, input_pos, fanouts, is_output }
    }
}

struct Podem<'c> {
    circuit: &'c Circuit,
    ctx: &'c PodemContext,
    fault: Fault,
    /// The faulty value, as a signal.
    stuck: V3,
    /// The line whose good value must be the complement of the stuck value.
    activation_line: NodeId,
    /// Where the machines first differ: the stem itself, or the gate
    /// consuming a faulty branch.
    site: NodeId,
    /// The consuming gate and pin of a branch fault.
    branch: Option<(NodeId, usize)>,
    /// The fanout cone of `site` (itself included), in node-id order: the
    /// only nodes that can carry or border a D.
    cone: Vec<NodeId>,
    /// PI assignment (by input position).
    pi_values: Vec<V3>,
    good: Vec<V3>,
    bad: Vec<V3>,
    /// Topological ranks awaiting re-evaluation, one bit each.
    pending: Vec<u64>,
    /// The lowest word of `pending` that may hold a bit.
    pending_lo: usize,
    /// Scratch for the X-path search: its DFS stack and visit stamps.
    stack: Vec<NodeId>,
    seen: Vec<u32>,
    epoch: u32,
    backtracks: u64,
    limit: u64,
}

impl<'c> Podem<'c> {
    fn new(circuit: &'c Circuit, ctx: &'c PodemContext, fault: Fault) -> Self {
        let (activation_line, site, branch) = match fault.site {
            FaultSite::Stem(n) => (n, n, None),
            FaultSite::Branch { gate, pin } => {
                (circuit.node(gate).fanins()[pin as usize], gate, Some((gate, pin as usize)))
            }
        };
        let mut engine = Podem {
            circuit,
            ctx,
            fault,
            stuck: V3::from_bool(fault.stuck),
            activation_line,
            site,
            branch,
            cone: Vec::new(),
            pi_values: vec![V3::X; circuit.inputs().len()],
            good: Vec::new(),
            bad: Vec::new(),
            pending: vec![0; circuit.len().div_ceil(64)],
            pending_lo: usize::MAX,
            stack: Vec::new(),
            seen: vec![0; circuit.len()],
            epoch: 0,
            backtracks: 0,
            limit: 0,
        };
        engine.collect_cone();
        engine
    }

    /// Starts a new visit for the `seen` stamps.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn collect_cone(&mut self) {
        self.next_epoch();
        self.stack.push(self.site);
        while let Some(n) = self.stack.pop() {
            if std::mem::replace(&mut self.seen[n.index()], self.epoch) == self.epoch {
                continue;
            }
            self.cone.push(n);
            self.stack.extend_from_slice(&self.ctx.fanouts[n.index()]);
        }
        self.cone.sort_unstable();
    }

    /// Both machines' values of `id` from its fanins' values in `good` and
    /// `bad`, with the fault injected.
    fn eval(&self, id: NodeId, good: &[V3], bad: &[V3]) -> (V3, V3) {
        let node = self.circuit.node(id);
        let (g, b) = match node.kind() {
            GateKind::Input => {
                let v = self.pi_values[self.ctx.input_pos[id.index()]];
                (v, v)
            }
            kind => {
                let faulty_pin = match self.branch {
                    Some((gate, pin)) if gate == id => pin,
                    _ => usize::MAX,
                };
                let pins = node.fanins().iter().enumerate().map(|(pin, f)| {
                    let b = if pin == faulty_pin { self.stuck } else { bad[f.index()] };
                    (good[f.index()], b)
                });
                eval_pair(kind, pins)
            }
        };
        if self.site == id && self.branch.is_none() {
            (g, self.stuck)
        } else {
            (g, b)
        }
    }

    /// Full 3-valued simulation of both machines under the current PI
    /// assignment: the good and the faulty values of every node.
    fn sweep(&self) -> (Vec<V3>, Vec<V3>) {
        let mut good = vec![V3::X; self.circuit.len()];
        let mut bad = vec![V3::X; self.circuit.len()];
        for &id in &self.ctx.order {
            let (g, b) = self.eval(id, &good, &bad);
            good[id.index()] = g;
            bad[id.index()] = b;
        }
        (good, bad)
    }

    /// Sets input `pos` to `value` and queues it for re-implication.
    fn assign(&mut self, pos: usize, value: V3) {
        self.pi_values[pos] = value;
        let r = self.ctx.rank[self.circuit.inputs()[pos].index()] as usize;
        self.mark(r);
    }

    fn mark(&mut self, rank: usize) {
        self.pending[rank / 64] |= 1 << (rank % 64);
        self.pending_lo = self.pending_lo.min(rank / 64);
    }

    /// Re-evaluates every queued node in rank order. A node whose pair
    /// changed queues its fanouts, which rank above it, so one forward scan
    /// reaches every event.
    fn drain(&mut self) {
        let ctx = self.ctx;
        let mut w = self.pending_lo;
        while w < self.pending.len() {
            let word = self.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = word & (word - 1);
            let id = ctx.order[w * 64 + word.trailing_zeros() as usize];
            let (g, b) = self.eval(id, &self.good, &self.bad);
            let i = id.index();
            if (g, b) != (self.good[i], self.bad[i]) {
                self.good[i] = g;
                self.bad[i] = b;
                for f in &ctx.fanouts[i] {
                    self.mark(ctx.rank[f.index()] as usize);
                }
            }
        }
        self.pending_lo = usize::MAX;
        #[cfg(debug_assertions)]
        {
            let (good, bad) = self.sweep();
            assert!(good == self.good && bad == self.bad, "stale implication");
        }
    }

    fn composite_is_x(&self, id: NodeId) -> bool {
        self.good[id.index()] == V3::X || self.bad[id.index()] == V3::X
    }

    fn has_d(&self, id: NodeId) -> bool {
        let g = self.good[id.index()];
        let b = self.bad[id.index()];
        g != V3::X && b != V3::X && g != b
    }

    fn fault_at_output(&self) -> bool {
        self.circuit.outputs().iter().any(|&o| self.has_d(o))
    }

    /// Whether `id` is on the D-frontier: a gate whose output is X in
    /// either machine and which has at least one D/D̄ input. For a branch
    /// fault, the faulty branch itself carries a D once activated (its stem
    /// value is not faulty, so the deviation is visible only at the
    /// consuming gate's pin).
    fn on_d_frontier(&self, id: NodeId) -> bool {
        let node = self.circuit.node(id);
        if !node.kind().is_gate() || !self.composite_is_x(id) {
            return false;
        }
        node.fanins().iter().any(|&f| self.has_d(f))
            || self.branch.is_some_and(|(gate, _)| {
                let g = self.good[self.activation_line.index()];
                gate == id && g != V3::X && g != self.stuck
            })
    }

    /// Pushes the D-frontier onto the X-path stack and returns its first
    /// gate in node-id order, if any.
    fn seed_d_frontier(&mut self) -> Option<NodeId> {
        self.stack.clear();
        for &id in &self.cone {
            if self.on_d_frontier(id) {
                self.stack.push(id);
            }
        }
        self.stack.first().copied()
    }

    /// X-path check: can a D on some line of the stack still reach an
    /// output through composite-X lines? Consumes the stack.
    fn x_path_exists(&mut self) -> bool {
        self.next_epoch();
        while let Some(n) = self.stack.pop() {
            if std::mem::replace(&mut self.seen[n.index()], self.epoch) == self.epoch {
                continue;
            }
            if !self.composite_is_x(n) {
                continue;
            }
            if self.ctx.is_output[n.index()] {
                return true;
            }
            self.stack.extend_from_slice(&self.ctx.fanouts[n.index()]);
        }
        false
    }

    /// The next objective `(line, value)`, or `None` when no useful
    /// objective exists under the current assignment (a dead end).
    fn objective(&mut self) -> Option<(NodeId, bool)> {
        // 1. Activate the fault, while a fault effect could still reach an
        //    output from the site.
        let act = self.activation_line;
        match self.good[act.index()] {
            V3::X => {
                self.stack.clear();
                self.stack.push(self.site);
                return self.x_path_exists().then_some((act, !self.fault.stuck));
            }
            v if v == self.stuck => return None, // can't activate
            _ => {}
        }
        // For a stem fault the activation line *is* the fault site; for a
        // branch fault activation is already reflected through implication.
        if self.fault_at_output() {
            return None; // already done; caller checks first
        }
        // 2. Advance the D-frontier.
        let gate = self.seed_d_frontier()?;
        if !self.x_path_exists() {
            return None;
        }
        let node = self.circuit.node(gate);
        let x_input = node.fanins().iter().copied().find(|&f| self.composite_is_x(f))?;
        let value = match node.kind().controlling_value() {
            Some(c) => !c,
            None => false, // parity gates: either value advances the frontier
        };
        Some((x_input, value))
    }

    /// Backtrace an objective to an unassigned primary input.
    fn backtrace(&self, mut line: NodeId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            let node = self.circuit.node(line);
            match node.kind() {
                GateKind::Input => {
                    let pos = self.ctx.input_pos[line.index()];
                    return if self.pi_values[pos] == V3::X { Some((pos, value)) } else { None };
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                kind => {
                    if kind.inverts() {
                        value = !value;
                    }
                    // Choose an X input to pursue. For parity gates the
                    // value handed down is heuristic only.
                    let next =
                        node.fanins().iter().copied().find(|&f| self.good[f.index()] == V3::X)?;
                    line = next;
                }
            }
        }
    }

    fn run(&mut self, limit: u64) -> TestResult {
        self.limit = limit;
        (self.good, self.bad) = self.sweep();
        // Decision stack: (pi position, value currently tried, flipped yet?).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        loop {
            if self.fault_at_output() {
                let test = self.pi_values.iter().map(|v| matches!(v, V3::One)).collect();
                return TestResult::Test(test);
            }
            match self.objective() {
                Some((line, value)) => {
                    match self.backtrace(line, value) {
                        Some((pos, v)) => {
                            stack.push((pos, v, false));
                            self.assign(pos, V3::from_bool(v));
                            self.drain();
                        }
                        None => {
                            // No X input reachable: dead end, backtrack.
                            if !self.backtrack(&mut stack) {
                                return TestResult::Untestable;
                            }
                        }
                    }
                }
                None => {
                    if !self.backtrack(&mut stack) {
                        return TestResult::Untestable;
                    }
                }
            }
            if self.backtracks > self.limit {
                return TestResult::Aborted;
            }
        }
    }

    /// Resets flipped decisions and flips the most recent unflipped one,
    /// then re-implies every input that changed in one drain. Returns
    /// `false` when the decision stack is exhausted.
    fn backtrack(&mut self, stack: &mut Vec<(usize, bool, bool)>) -> bool {
        self.backtracks += 1;
        loop {
            match stack.pop() {
                None => return false,
                Some((pos, v, flipped)) => {
                    if flipped {
                        self.assign(pos, V3::X);
                    } else {
                        stack.push((pos, !v, true));
                        self.assign(pos, V3::from_bool(!v));
                        self.drain();
                        return true;
                    }
                }
            }
        }
    }
}

/// Runs PODEM for `fault` on `circuit` with the given backtrack limit.
///
/// Returns [`TestResult::Test`] with a detecting input vector,
/// [`TestResult::Untestable`] when the search space is provably exhausted
/// (the fault is redundant), or [`TestResult::Aborted`] when the backtrack
/// limit is reached first.
///
/// # Panics
///
/// Panics if the circuit is cyclic or the fault references nodes outside it.
pub fn generate_test(circuit: &Circuit, fault: Fault, backtrack_limit: u64) -> TestResult {
    let ctx = PodemContext::new(circuit);
    generate_test_with(&ctx, circuit, fault, backtrack_limit)
}

/// Like [`generate_test`], with a caller-provided [`PodemContext`] so the
/// O(circuit) structural setup is shared across many faults on the same
/// circuit. The context must have been built from the current structure of
/// `circuit`; results are identical to [`generate_test`].
///
/// # Panics
///
/// Panics if the circuit is cyclic or the fault references nodes outside it.
pub fn generate_test_with(
    ctx: &PodemContext,
    circuit: &Circuit,
    fault: Fault,
    backtrack_limit: u64,
) -> TestResult {
    let mut engine = Podem::new(circuit, ctx, fault);
    let result = engine.run(backtrack_limit);
    if let TestResult::Test(test) = &result {
        debug_assert!(
            test_detects(circuit, fault, test),
            "PODEM returned a non-detecting test for {fault}"
        );
    }
    result
}

/// Checks (by explicit two-machine simulation) whether `test` detects
/// `fault`.
pub(crate) fn test_detects(circuit: &Circuit, fault: Fault, test: &[bool]) -> bool {
    let order = circuit.topo_order().expect("combinational circuit");
    let mut input_pos = vec![usize::MAX; circuit.len()];
    for (i, &id) in circuit.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    let mut good = vec![false; circuit.len()];
    let mut bad = vec![false; circuit.len()];
    for &id in &order {
        let node = circuit.node(id);
        let (g, mut b) = match node.kind() {
            GateKind::Input => {
                let v = test[input_pos[id.index()]];
                (v, v)
            }
            kind => {
                let gv: Vec<bool> = node.fanins().iter().map(|f| good[f.index()]).collect();
                let bv: Vec<bool> = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .map(|(pin, f)| {
                        if fault.site == (FaultSite::Branch { gate: id, pin: pin as u8 }) {
                            fault.stuck
                        } else {
                            bad[f.index()]
                        }
                    })
                    .collect();
                (kind.eval(&gv), kind.eval(&bv))
            }
        };
        if fault.site == FaultSite::Stem(id) {
            b = fault.stuck;
        }
        good[id.index()] = g;
        bad[id.index()] = b;
    }
    circuit.outputs().iter().any(|&o| good[o.index()] != bad[o.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;
    use sft_sim::fault_list;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    #[test]
    fn c17_all_faults_testable_with_valid_tests() {
        let c = parse(C17, "c17").unwrap();
        for fault in fault_list(&c) {
            match generate_test(&c, fault, 10_000) {
                TestResult::Test(t) => {
                    assert!(test_detects(&c, fault, &t), "bad test for {fault}")
                }
                other => panic!("fault {fault} should be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn absorption_redundancy_proven() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        let t = c.iter().find(|(_, n)| n.name() == Some("t")).map(|(id, _)| id).unwrap();
        assert_eq!(generate_test(&c, Fault::stem(t, false), 10_000), TestResult::Untestable);
        // t s-a-1 is testable: a=0, b arbitrary -> y flips 0 -> 1.
        assert!(generate_test(&c, Fault::stem(t, true), 10_000).is_test());
    }

    #[test]
    fn branch_fault_tests() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n";
        let c = parse(src, "t").unwrap();
        let y = c.iter().find(|(_, n)| n.name() == Some("y")).map(|(id, _)| id).unwrap();
        let f = Fault::branch(y, 0, true);
        match generate_test(&c, f, 10_000) {
            TestResult::Test(t) => assert!(test_detects(&c, f, &t)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_propagation() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = XOR(t, c)\n";
        let c = parse(src, "x").unwrap();
        for fault in fault_list(&c) {
            match generate_test(&c, fault, 10_000) {
                TestResult::Test(t) => assert!(test_detects(&c, fault, &t)),
                other => panic!("fault {fault}: {other:?}"),
            }
        }
    }

    /// Every stem and every gate pin of random circuits with all gate
    /// kinds, 1–3 inputs per gate and several outputs, dangling logic
    /// included: PODEM finds a test exactly when one of the 2^n input
    /// vectors detects the fault.
    #[test]
    fn agrees_with_exhaustive_search_on_random_circuits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        let (mut branches, mut untestable) = (0, 0);
        for trial in 0..40 {
            let n = rng.gen_range(4..=6);
            let mut c = Circuit::new(format!("r{trial}"));
            let mut pool: Vec<_> = (0..n).map(|i| c.add_input(format!("i{i}"))).collect();
            for _ in 0..rng.gen_range(8..=16) {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
                    1
                } else {
                    rng.gen_range(2..=3)
                };
                let fanins = (0..arity).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                pool.push(c.add_gate(kind, fanins).unwrap());
            }
            for k in 0..rng.gen_range(1..=3) {
                let out = pool[pool.len() - 1 - 2 * k];
                c.add_output(out, format!("y{k}"));
            }
            let mut faults = Vec::new();
            for (id, node) in c.iter() {
                for stuck in [false, true] {
                    faults.push(Fault::stem(id, stuck));
                    for pin in 0..node.fanins().len() {
                        faults.push(Fault::branch(id, pin as u8, stuck));
                    }
                }
            }
            for fault in faults {
                branches += matches!(fault.site, FaultSite::Branch { .. }) as usize;
                let exhaustive = (0..1u32 << n).any(|m| {
                    let t: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
                    test_detects(&c, fault, &t)
                });
                let podem = generate_test(&c, fault, 100_000);
                match (&podem, exhaustive) {
                    (TestResult::Test(t), true) => assert!(test_detects(&c, fault, t)),
                    (TestResult::Untestable, false) => untestable += 1,
                    other => {
                        panic!("trial {trial} fault {fault}: podem={other:?} vs exhaustive={exhaustive}")
                    }
                }
            }
        }
        assert!(branches > 1000 && untestable > 100, "{branches} branch, {untestable} untestable");
    }
}
