//! LUT-*k* covering interchange format (`.lut`).
//!
//! A `.lut` file is the textual form of an FPGA-style covering produced by
//! `sft_techmap::cover_luts`: every row is one *k*-input lookup table,
//! written as a hex truth table over named leaf nets:
//!
//! ```text
//! # adder (lut-4 covering)
//! K 4
//! INPUT(a)
//! INPUT(b)
//! INPUT(cin)
//! OUTPUT(sum)
//! OUTPUT(cout)
//! sum = LUT(0x96, a, b, cin)
//! cout = LUT(0xe8, a, b, cin)
//! ```
//!
//! The hex literal holds `2^n` table bits for an `n`-input row: bit *m*
//! (of the integer value) is the output for minterm *m*, with the **first
//! listed leaf as the most significant minterm bit** — exactly
//! `sft_truth::TruthTable::bits()`. Zero-input rows (`x = LUT(0x1)`)
//! denote constants.
//!
//! **Export** covers the circuit with `cover_luts` and emits rows in
//! topological order; **import** re-synthesizes every row as shared-
//! inverter sum-of-products logic (`Circuit::synthesize_sop`), so the
//! format round-trips through `sft-truth` tables by construction. Emission
//! is byte-deterministic, but unlike `.bench`/`.v`/AIGER a parse → write
//! cycle is *not* a textual fixpoint: re-covering the expanded network may
//! legally merge logic across row boundaries. Only the primary-input /
//! primary-output boundary fault sites are preserved (see
//! `docs/formats.md`).
//!
//! # Examples
//!
//! ```
//! use sft_io::lut;
//! use sft_netlist::bench_format;
//!
//! let c = bench_format::parse(
//!     "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(t, c)\n",
//!     "demo",
//! )?;
//! let text = lut::write(&c, 4)?;
//! assert!(text.contains("K 4"));
//! let back = lut::parse(&text, "demo")?;
//! assert_eq!(back.eval_assignment(&[false, false, true]), vec![true]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::IoError;
use sft_netlist::{Circuit, GateKind, NetlistError, NodeId};
use sft_techmap::{cover_luts, MAX_LUT_INPUTS, MIN_LUT_INPUTS};
use sft_truth::TruthTable;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

fn perr(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse { line, message: message.into() }
}

fn table_mask(inputs: usize) -> u128 {
    let bits = 1usize << inputs;
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// Parses `.lut` text into a [`Circuit`] named `name`, re-synthesizing
/// every row as shared-inverter sum-of-products logic.
///
/// Rows may reference later rows (two-pass resolution, like the `.bench`
/// parser). Rows not reachable from any output are swept away — a `.lut`
/// file describes a covering, and only covered logic survives expansion.
///
/// # Errors
///
/// Returns [`IoError::Parse`] with a 1-based line number for syntax
/// errors, a missing or out-of-range `K` header, rows with more than 7
/// inputs, truth tables wider than `2^n` bits, undefined or duplicate
/// signals, and combinational cycles.
///
/// ```
/// use sft_io::{lut, IoError};
///
/// let bad = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x10, a)\n"; // 2 inputs' worth of bits
/// match lut::parse(bad, "t") {
///     Err(IoError::Parse { line: 4, message }) => assert!(message.contains("table")),
///     other => panic!("expected table-width error, got {other:?}"),
/// }
/// ```
pub fn parse(text: &str, name: impl Into<String>) -> Result<Circuit, IoError> {
    enum Item {
        Input(String),
        Output(String),
        Row { target: String, table: TruthTable, args: Vec<String> },
    }
    let mut items: Vec<(usize, Item)> = Vec::new();
    let mut k: Option<usize> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("K ") {
            if k.is_some() {
                return Err(perr(lineno, "duplicate K header"));
            }
            let val: usize = rest
                .trim()
                .parse()
                .map_err(|_| perr(lineno, format!("K header {rest:?} is not a number")))?;
            if !(MIN_LUT_INPUTS..=MAX_LUT_INPUTS).contains(&val) {
                return Err(perr(
                    lineno,
                    format!("K = {val} outside {MIN_LUT_INPUTS}..={MAX_LUT_INPUTS}"),
                ));
            }
            k = Some(val);
        } else if let Some(rest) = line.strip_prefix("INPUT(") {
            let sig =
                rest.strip_suffix(')').ok_or_else(|| perr(lineno, "missing ')' after INPUT"))?;
            items.push((lineno, Item::Input(sig.trim().to_string())));
        } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
            let sig =
                rest.strip_suffix(')').ok_or_else(|| perr(lineno, "missing ')' after OUTPUT"))?;
            items.push((lineno, Item::Output(sig.trim().to_string())));
        } else if let Some((target, expr)) = line.split_once('=') {
            let k = k.ok_or_else(|| perr(lineno, "row before the K header"))?;
            let target = target.trim().to_string();
            let inner = expr
                .trim()
                .strip_prefix("LUT(")
                .and_then(|r| r.strip_suffix(')'))
                .ok_or_else(|| perr(lineno, "expected `target = LUT(0x…, leaves…)`"))?;
            let mut parts = inner.split(',').map(str::trim);
            let hex = parts.next().unwrap_or("");
            let bits = hex
                .strip_prefix("0x")
                .and_then(|h| u128::from_str_radix(h, 16).ok())
                .ok_or_else(|| perr(lineno, format!("malformed hex table {hex:?}")))?;
            let args: Vec<String> = parts.filter(|s| !s.is_empty()).map(str::to_string).collect();
            if args.len() > k {
                return Err(perr(lineno, format!("LUT row has {} inputs (K = {k})", args.len())));
            }
            if bits & !table_mask(args.len()) != 0 {
                return Err(perr(
                    lineno,
                    format!("table {hex} is wider than 2^{} bits", args.len()),
                ));
            }
            let table = TruthTable::from_bits(args.len(), bits);
            items.push((lineno, Item::Row { target, table, args }));
        } else {
            return Err(perr(lineno, format!("unrecognized line {line:?}")));
        }
    }
    if k.is_none() {
        return Err(perr(1, "missing K header"));
    }

    let node_items = items.iter().filter(|(_, i)| !matches!(i, Item::Output(_))).count();
    let mut c = Circuit::with_capacity(name, node_items);
    let mut by_name: HashMap<String, NodeId> = HashMap::with_capacity(node_items);
    // Pass 1: declare inputs and one placeholder per row target.
    for (lineno, item) in &items {
        match item {
            Item::Input(sig) => {
                if by_name.contains_key(sig) {
                    return Err(perr(*lineno, format!("duplicate definition of {sig:?}")));
                }
                let id = c.add_input(sig.clone());
                by_name.insert(sig.clone(), id);
            }
            Item::Row { target, .. } => {
                if by_name.contains_key(target) {
                    return Err(perr(*lineno, format!("duplicate definition of {target:?}")));
                }
                let id = c.add_const(false);
                c.set_node_name(id, target.clone());
                by_name.insert(target.clone(), id);
            }
            Item::Output(_) => {}
        }
    }
    // Pass 2: synthesize every row over its leaves, then steal the SOP
    // root's definition into the named placeholder so consumers (and
    // forward references) resolve to the named node.
    for (lineno, item) in &items {
        match item {
            Item::Row { target, table, args } => {
                let target_id = by_name[target.as_str()];
                let mut leaves = Vec::with_capacity(args.len());
                for a in args {
                    let &id = by_name
                        .get(a)
                        .ok_or_else(|| perr(*lineno, format!("undefined signal {a:?}")))?;
                    leaves.push(id);
                }
                let before = c.len();
                let root = c.synthesize_sop(&leaves, table)?;
                let (kind, fanins) = if root.index() >= before {
                    // Fresh SOP root (gate or constant): copy its definition.
                    let node = c.node(root);
                    (node.kind(), node.fanins().to_vec())
                } else {
                    // Identity row: the root IS the single leaf.
                    (GateKind::Buf, vec![root])
                };
                c.rewire(target_id, kind, fanins).map_err(|e| match e {
                    NetlistError::Cycle(_) => {
                        perr(*lineno, format!("combinational cycle through {target:?}"))
                    }
                    other => IoError::from(other),
                })?;
            }
            Item::Output(sig) => {
                let &id = by_name
                    .get(sig)
                    .ok_or_else(|| perr(*lineno, format!("undefined output signal {sig:?}")))?;
                c.add_output(id, sig.clone());
            }
            Item::Input(_) => {}
        }
    }
    // Drop the duplicated SOP tops (and any rows unreachable from the
    // outputs).
    c.sweep();
    Ok(c)
}

/// Serializes a circuit as a `.lut` file by covering it with *k*-input
/// LUTs (`sft_techmap::cover_luts`) and emitting the rows in topological
/// order. Emission is byte-deterministic.
///
/// # Errors
///
/// Returns [`IoError::Netlist`] if the circuit is cyclic or `k` is
/// outside the supported `2..=7` range.
pub fn write(c: &Circuit, k: usize) -> Result<String, IoError> {
    let net = cover_luts(c, k).map_err(IoError::Netlist)?;
    let cc = &net.circuit;
    let names = sft_netlist::bench_format::node_names(cc);
    let name_of = |id: NodeId| -> &str { &names[id.index()] };
    let mut out = String::new();
    let _ = writeln!(out, "# {} (lut-{k} covering)", cc.name());
    let _ = writeln!(out, "K {k}");
    for &i in cc.inputs() {
        let _ = writeln!(out, "INPUT({})", name_of(i));
    }
    for (slot, &o) in cc.outputs().iter().enumerate() {
        let label = cc.output_name(slot).unwrap_or_else(|| name_of(o));
        let _ = writeln!(out, "OUTPUT({label})");
    }
    // Constants referenced as cut leaves or output drivers become
    // zero-input rows, in id order.
    let mut const_leaves: HashSet<NodeId> = HashSet::new();
    for lut in &net.luts {
        for &l in &lut.inputs {
            if matches!(cc.node(l).kind(), GateKind::Const0 | GateKind::Const1) {
                const_leaves.insert(l);
            }
        }
    }
    for &o in cc.outputs() {
        if matches!(cc.node(o).kind(), GateKind::Const0 | GateKind::Const1) {
            const_leaves.insert(o);
        }
    }
    let mut const_rows: Vec<NodeId> = const_leaves.into_iter().collect();
    const_rows.sort();
    for id in const_rows {
        let bit = u8::from(cc.node(id).kind() == GateKind::Const1);
        let _ = writeln!(out, "{} = LUT(0x{bit:x})", name_of(id));
    }
    for lut in &net.luts {
        let width = (1usize << lut.inputs.len()).div_ceil(4).max(1);
        let _ = write!(out, "{} = LUT(0x{:0width$x}", name_of(lut.root), lut.table.bits());
        for &l in &lut.inputs {
            let _ = write!(out, ", {}", name_of(l));
        }
        out.push_str(")\n");
    }
    // Output aliases, exactly like the `.bench` writer's trailing BUFs,
    // as identity LUTs.
    for (slot, &o) in cc.outputs().iter().enumerate() {
        if let Some(label) = cc.output_name(slot) {
            if label != name_of(o) {
                let _ = writeln!(out, "{label} = LUT(0x2, {})", name_of(o));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format;

    fn same_function(a: &Circuit, b: &Circuit) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        assert_eq!(a.outputs().len(), b.outputs().len());
        let n = a.inputs().len();
        assert!(n <= 12);
        for m in 0..1u64 << n {
            let v: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(a.eval_assignment(&v), b.eval_assignment(&v), "minterm {m}");
        }
    }

    const SRC: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n\
        OUTPUT(y)\nOUTPUT(z)\nt1 = AND(a, b, c)\nt2 = OR(d, e, f)\ny = XOR(t1, t2)\n\
        z = NAND(t1, d)\n";

    /// The `.bench` writer's name-collision repro through `.lut`: the
    /// unnamed gate at id 2 must not be written as a second `n2`.
    #[test]
    fn synthetic_names_avoid_taken_names() {
        let mut c = Circuit::new("clash");
        let a = c.add_input("n2");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        let text = write(&c, 2).unwrap();
        let back = parse(&text, "clash").expect("writer output parses");
        same_function(&c, &back);
    }

    #[test]
    fn round_trip_preserves_function() {
        let c = bench_format::parse(SRC, "t").unwrap();
        for k in [2, 4, 7] {
            let text = write(&c, k).unwrap();
            let back = parse(&text, "t").unwrap();
            same_function(&c, &back);
        }
    }

    #[test]
    fn write_is_deterministic() {
        let c = bench_format::parse(SRC, "t").unwrap();
        assert_eq!(write(&c, 4).unwrap(), write(&c, 4).unwrap());
        let reparsed = parse(&write(&c, 4).unwrap(), "t").unwrap();
        // Deterministic (not necessarily a textual fixpoint): two
        // write → parse → write cycles agree from the same start.
        assert_eq!(write(&reparsed, 4).unwrap(), write(&reparsed, 4).unwrap());
    }

    #[test]
    fn forward_references_and_aliases() {
        let text = "K 3\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, m)\nm = LUT(0x1, a)\n";
        let c = parse(text, "t").unwrap();
        // y = buf(m), m = not(a).
        assert_eq!(c.eval_assignment(&[true]), vec![false]);
        assert_eq!(c.eval_assignment(&[false]), vec![true]);
    }

    #[test]
    fn constants_round_trip() {
        let c =
            bench_format::parse("INPUT(a)\nOUTPUT(y)\nk = CONST1\ny = XOR(a, k)\n", "t").unwrap();
        let text = write(&c, 3).unwrap();
        let back = parse(&text, "t").unwrap();
        same_function(&c, &back);
    }

    #[test]
    fn zero_input_const_rows() {
        let text = "K 2\nINPUT(a)\nOUTPUT(y)\nOUTPUT(k)\nk = LUT(0x1)\ny = LUT(0x8, a, k)\n";
        let c = parse(text, "t").unwrap();
        assert_eq!(c.eval_assignment(&[true]), vec![true, true]);
        assert_eq!(c.eval_assignment(&[false]), vec![false, true]);
    }

    // --- Adversarial fixtures.

    #[test]
    fn missing_k_header_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = LUT(0x2, a)\n";
        assert!(matches!(parse(text, "t"), Err(IoError::Parse { line: 3, .. })));
        assert!(matches!(parse("INPUT(a)\nOUTPUT(a)\n", "t"), Err(IoError::Parse { line: 1, .. })));
    }

    #[test]
    fn out_of_range_k_rejected() {
        for bad in ["K 1", "K 8", "K -3", "K x"] {
            assert!(matches!(parse(bad, "t"), Err(IoError::Parse { line: 1, .. })), "{bad}");
        }
    }

    #[test]
    fn fanin_bomb_rejected() {
        let args: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let mut text = String::from("K 7\n");
        for a in &args {
            text.push_str(&format!("INPUT({a})\n"));
        }
        text.push_str("OUTPUT(y)\n");
        text.push_str(&format!("y = LUT(0x0, {})\n", args.join(", ")));
        match parse(&text, "t") {
            Err(IoError::Parse { message, .. }) => assert!(message.contains("inputs")),
            other => panic!("expected row-width error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_table_rejected() {
        let text = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x4, a)\n";
        assert!(matches!(parse(text, "t"), Err(IoError::Parse { line: 4, .. })));
    }

    #[test]
    fn malformed_rows_rejected() {
        for bad in [
            "K 4\nINPUT(a)\nOUTPUT(y)\ny = AND(a)\n",
            "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(cafe, a)\n",
            "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, a\n",
            "K 4\nINPUT(a\n",
            "K 4\nwhat is this\n",
        ] {
            assert!(parse(bad, "t").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn undefined_and_duplicate_signals_rejected() {
        let text = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, ghost)\n";
        assert!(matches!(parse(text, "t"), Err(IoError::Parse { line: 4, .. })));
        let text = "K 4\nINPUT(a)\nINPUT(a)\n";
        assert!(matches!(parse(text, "t"), Err(IoError::Parse { line: 3, .. })));
        let text = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, a)\ny = LUT(0x1, a)\n";
        assert!(matches!(parse(text, "t"), Err(IoError::Parse { line: 5, .. })));
    }

    #[test]
    fn cycles_rejected() {
        let text = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, z)\nz = LUT(0x2, y)\n";
        match parse(text, "t") {
            Err(IoError::Parse { message, .. }) => assert!(message.contains("cycle")),
            other => panic!("expected cycle error, got {other:?}"),
        }
        let text = "K 4\nINPUT(a)\nOUTPUT(y)\ny = LUT(0x2, y)\n";
        assert!(parse(text, "t").is_err());
    }
}
