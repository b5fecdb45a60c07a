//! Cone extraction: the function a line implements in terms of a cut of
//! input lines, as a truth table.

use crate::{Circuit, GateKind, NetlistError, NodeId};
use sft_truth::{TruthTable, MAX_INPUTS};
use std::collections::HashMap;

impl Circuit {
    /// The Boolean function of line `root` in terms of the ordered cut
    /// `inputs` (input 0 is the most significant minterm bit, matching the
    /// paper's `x_1`-is-MSB convention).
    ///
    /// Constants *are* allowed inside the cone; they simply contribute their
    /// value. The cut lines may be any lines of the circuit (gate outputs or
    /// primary inputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cone`] if `inputs` has more than
    /// [`MAX_INPUTS`] lines, contains duplicates, or does not cut every path
    /// from `root` to the primary inputs.
    ///
    /// # Examples
    ///
    /// ```
    /// use sft_netlist::{Circuit, GateKind};
    ///
    /// let mut c = Circuit::new("t");
    /// let a = c.add_input("a");
    /// let b = c.add_input("b");
    /// let g = c.add_gate(GateKind::Nand, vec![a, b])?;
    /// let f = c.cone_function(g, &[a, b])?;
    /// assert_eq!(f.on_set().collect::<Vec<_>>(), vec![0, 1, 2]);
    /// # Ok::<(), sft_netlist::NetlistError>(())
    /// ```
    pub fn cone_function(
        &self,
        root: NodeId,
        inputs: &[NodeId],
    ) -> Result<TruthTable, NetlistError> {
        if inputs.len() > MAX_INPUTS {
            return Err(NetlistError::Cone(format!(
                "cut has {} lines, more than the supported {MAX_INPUTS}",
                inputs.len()
            )));
        }
        for (i, a) in inputs.iter().enumerate() {
            if inputs[..i].contains(a) {
                return Err(NetlistError::Cone(format!("duplicate cut line {a}")));
            }
        }
        // Evaluate the cone over all 2^k cut assignments using word-parallel
        // simulation: with k <= 7 all 128 minterms fit in two u64 words.
        // The walk is cone-local (memoized DFS), so the cost is proportional
        // to the cone size, not the circuit size. Resynthesis calls it once
        // per replacement, to check the splice.
        let k = inputs.len();
        let minterms = 1u64 << k;
        let words = minterms.div_ceil(64) as usize;
        let mut values: HashMap<NodeId, [u64; 2]> = HashMap::new();
        // Cut line i (MSB-first) gets the pattern where bit m of word w is
        // bit (n-1-i) of minterm (w*64+m).
        for (i, &line) in inputs.iter().enumerate() {
            let mut v = [0u64; 2];
            for (w, word) in v.iter_mut().enumerate().take(words) {
                for m in 0..64u64 {
                    let minterm = w as u64 * 64 + m;
                    if minterm < minterms && minterm >> (k - 1 - i) & 1 == 1 {
                        *word |= 1 << m;
                    }
                }
            }
            values.insert(line, v);
        }
        // Iterative post-order DFS from the root.
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        let mut buf: Vec<u64> = Vec::new();
        while let Some((n, expanded)) = stack.pop() {
            if values.contains_key(&n) {
                continue;
            }
            let node = self.node(n);
            match node.kind() {
                GateKind::Const0 => {
                    values.insert(n, [0, 0]);
                }
                GateKind::Const1 => {
                    values.insert(n, [u64::MAX, u64::MAX]);
                }
                GateKind::Input => {
                    return Err(NetlistError::Cone(format!(
                        "primary input {n} reached without crossing the cut"
                    )));
                }
                kind => {
                    if expanded {
                        let mut out = [0u64; 2];
                        for (w, o) in out.iter_mut().enumerate().take(words) {
                            buf.clear();
                            buf.extend(node.fanins().iter().map(|f| values[f][w]));
                            *o = kind.try_eval_words(&buf).ok_or_else(|| {
                                NetlistError::Cone(format!("gate {n} ({kind}) is malformed"))
                            })?;
                        }
                        values.insert(n, out);
                    } else {
                        stack.push((n, true));
                        for &f in node.fanins() {
                            if !values.contains_key(&f) {
                                stack.push((f, false));
                            }
                        }
                    }
                }
            }
        }
        let root_vals = values[&root];
        Ok(TruthTable::from_fn(k, |m| root_vals[(m / 64) as usize] >> (m % 64) & 1 == 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_through_internal_gate() {
        // root = OR(AND(a,b), c); cut {AND, c} gives a 2-input OR table.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![g1, x]).unwrap();
        c.add_output(g2, "y");
        let f = c.cone_function(g2, &[g1, x]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![1, 2, 3]);
        // Full cut gives the 3-input function.
        let f3 = c.cone_function(g2, &[a, b, x]).unwrap();
        assert_eq!(f3.on_count(), 5); // ab + c has 5 on-minterms of 8
    }

    #[test]
    fn cut_must_dominate() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        assert!(c.cone_function(g, &[a]).is_err());
    }

    #[test]
    fn duplicate_cut_lines_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(g, "y");
        assert!(c.cone_function(g, &[a, a]).is_err());
    }

    #[test]
    fn constants_inside_cone() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let k1 = c.add_const(true);
        let g = c.add_gate(GateKind::And, vec![a, k1]).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &[a]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn seven_input_cone() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..7).map(|i| c.add_input(format!("i{i}"))).collect();
        let g = c.add_gate(GateKind::And, ins.clone()).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &ins).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![127]);
    }

    #[test]
    fn root_in_cut_is_identity() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &[g]).unwrap();
        assert_eq!(f, sft_truth::TruthTable::variable(1, 0));
    }

    #[test]
    fn msb_convention_matches_paper() {
        // f(x1,x2) with cut order [p, q]: p is x1 (MSB).
        let mut c = Circuit::new("t");
        let p = c.add_input("p");
        let q = c.add_input("q");
        let g = c.add_gate(GateKind::And, vec![p, q]).unwrap();
        let np = c.add_gate(GateKind::Not, vec![p]).unwrap();
        let h = c.add_gate(GateKind::Or, vec![np, g]).unwrap();
        c.add_output(h, "y");
        // h = !p + pq; minterms (p,q): 00->1, 01->1, 10->0, 11->1.
        let f = c.cone_function(h, &[p, q]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Reversed cut order swaps the roles.
        let f_rev = c.cone_function(h, &[q, p]).unwrap();
        assert_eq!(f_rev.on_set().collect::<Vec<_>>(), vec![0, 2, 3]);
    }
}
