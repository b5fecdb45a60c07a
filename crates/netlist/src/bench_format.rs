//! ISCAS-style `.bench` netlist format.
//!
//! The format is the one used by the ISCAS-85/89 benchmark distributions:
//!
//! ```text
//! # comment
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! n1 = NAND(a, b)
//! y  = NOT(n1)
//! ```
//!
//! Supported gate names: `AND`, `OR`, `NAND`, `NOR`, `XOR`, `XNOR`, `NOT`,
//! `BUF`/`BUFF`, and the extensions `CONST0`/`CONST1` (written without
//! arguments). Sequential elements (`DFF`) are rejected: this workspace
//! models fully-scanned circuits, i.e. the combinational core only — exactly
//! the form the paper evaluates ("irredundant, fully-scanned ISCAS89").
//!
//! # Examples
//!
//! ```
//! use sft_netlist::bench_format::{parse, write};
//!
//! let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
//! let c = parse(src, "tiny")?;
//! assert_eq!(c.inputs().len(), 2);
//! let round_trip = parse(&write(&c), "tiny2")?;
//! assert_eq!(round_trip.outputs().len(), 1);
//! # Ok::<(), sft_netlist::NetlistError>(())
//! ```

use crate::{Circuit, GateKind, NetlistError, NodeId};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Upper bound on the fanins of one parsed gate. Real netlists stay far
/// below it; an absurd count is either a corrupt file or a parser bomb,
/// and a daemon-side parser must reject it with a typed error instead of
/// attempting to build (and later walk) a pathological node.
pub const MAX_PARSE_FANINS: usize = 1024;

fn gate_kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name.to_ascii_uppercase().as_str() {
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "NAND" => GateKind::Nand,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "NOT" | "INV" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buf,
        "CONST0" | "GND" => GateKind::Const0,
        "CONST1" | "VDD" => GateKind::Const1,
        _ => return None,
    })
}

/// Parses `.bench` text into a [`Circuit`] named `name`.
///
/// Signals may be used before they are defined (two-pass resolution).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a 1-based line number for syntax
/// errors, unknown gate types, undefined signals, duplicate definitions, and
/// sequential elements.
pub fn parse(text: &str, name: impl Into<String>) -> Result<Circuit, NetlistError> {
    enum Item {
        Input(String),
        Output(String),
        Gate { target: String, kind: GateKind, args: Vec<String> },
    }
    let err = |line: usize, message: String| NetlistError::Parse { line, message };
    let mut items: Vec<(usize, Item)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("INPUT(").or_else(|| line.strip_prefix("input(")) {
            let sig = rest
                .strip_suffix(')')
                .ok_or_else(|| err(lineno, "missing ')' after INPUT".into()))?;
            items.push((lineno, Item::Input(sig.trim().to_string())));
        } else if let Some(rest) =
            line.strip_prefix("OUTPUT(").or_else(|| line.strip_prefix("output("))
        {
            let sig = rest
                .strip_suffix(')')
                .ok_or_else(|| err(lineno, "missing ')' after OUTPUT".into()))?;
            items.push((lineno, Item::Output(sig.trim().to_string())));
        } else if let Some((target, expr)) = line.split_once('=') {
            let target = target.trim().to_string();
            let expr = expr.trim();
            let (func, args_str) = match expr.split_once('(') {
                Some((f, rest)) => {
                    let inner = rest
                        .strip_suffix(')')
                        .ok_or_else(|| err(lineno, "missing ')' in gate expression".into()))?;
                    (f.trim(), inner)
                }
                None => (expr, ""),
            };
            if func.eq_ignore_ascii_case("DFF") {
                return Err(err(
                    lineno,
                    "sequential element DFF not supported; extract the combinational core".into(),
                ));
            }
            let kind = gate_kind_from_name(func)
                .ok_or_else(|| err(lineno, format!("unknown gate type {func:?}")))?;
            let args: Vec<String> = args_str
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if args.len() > MAX_PARSE_FANINS {
                return Err(err(
                    lineno,
                    format!("gate has {} fanins (limit {MAX_PARSE_FANINS})", args.len()),
                ));
            }
            items.push((lineno, Item::Gate { target, kind, args }));
        } else {
            return Err(err(lineno, format!("unrecognized line {line:?}")));
        }
    }

    // Every input/gate item becomes exactly one node: size the arena and
    // the name map once instead of re-growing them through a 1M-gate file.
    let node_items = items.iter().filter(|(_, i)| !matches!(i, Item::Output(_))).count();
    let mut c = Circuit::with_capacity(name, node_items);
    let mut by_name: HashMap<String, NodeId> = HashMap::with_capacity(node_items);
    // Pass 1: declare inputs and placeholder gates.
    for (lineno, item) in &items {
        match item {
            Item::Input(sig) => {
                if by_name.contains_key(sig) {
                    return Err(err(*lineno, format!("duplicate definition of {sig:?}")));
                }
                let id = c.add_input(sig.clone());
                by_name.insert(sig.clone(), id);
            }
            Item::Gate { target, kind, .. } => {
                if by_name.contains_key(target) {
                    return Err(err(*lineno, format!("duplicate definition of {target:?}")));
                }
                // Placeholder constant; rewired in pass 2.
                let id = c.add_const(*kind == GateKind::Const1);
                c.set_node_name(id, target.clone());
                by_name.insert(target.clone(), id);
            }
            Item::Output(_) => {}
        }
    }
    // Pass 2: connect gates and outputs.
    for (lineno, item) in &items {
        match item {
            Item::Gate { target, kind, args } => {
                if matches!(kind, GateKind::Const0 | GateKind::Const1) {
                    if !args.is_empty() {
                        return Err(err(*lineno, "constants take no arguments".into()));
                    }
                    continue;
                }
                // Pass 1 declared every gate target; `.get` (not indexing)
                // keeps even an internal inconsistency a typed error rather
                // than a panic on a hostile input path.
                let &target_id = by_name
                    .get(target)
                    .ok_or_else(|| err(*lineno, format!("undeclared gate target {target:?}")))?;
                let mut fanins = Vec::with_capacity(args.len());
                for a in args {
                    let &id = by_name
                        .get(a)
                        .ok_or_else(|| err(*lineno, format!("undefined signal {a:?}")))?;
                    fanins.push(id);
                }
                c.rewire(target_id, *kind, fanins).map_err(|e| match e {
                    NetlistError::Cycle(_) => {
                        err(*lineno, format!("combinational cycle through {target:?}"))
                    }
                    NetlistError::Arity { kind, got } => {
                        err(*lineno, format!("gate {kind} cannot take {got} inputs"))
                    }
                    other => other,
                })?;
            }
            Item::Output(sig) => {
                let &id = by_name
                    .get(sig)
                    .ok_or_else(|| err(*lineno, format!("undefined output signal {sig:?}")))?;
                c.add_output(id, sig.clone());
            }
            Item::Input(_) => {}
        }
    }
    Ok(c)
}

/// The name every node is written under, indexed by node id: its own name,
/// or for an unnamed node the synthetic `n<id>`. When a named node or
/// another signal's output label already uses `n<id>`, the synthetic name
/// takes the first free `n<id>_2`, `n<id>_3`, … instead, so the written
/// text always parses back. Circuits without such a collision keep plain
/// `n<id>` names.
///
/// ```
/// use sft_netlist::bench_format::{node_names, parse, write};
/// use sft_netlist::{Circuit, GateKind};
///
/// let mut c = Circuit::new("clash");
/// let a = c.add_input("n2");
/// let b = c.add_input("b");
/// let g = c.add_gate(GateKind::And, vec![a, b])?; // unnamed, id 2
/// c.add_output(g, "y");
/// assert_eq!(node_names(&c), ["n2", "b", "n2_2"]);
/// assert!(parse(&write(&c), "clash").is_ok());
/// # Ok::<(), sft_netlist::NetlistError>(())
/// ```
pub fn node_names(c: &Circuit) -> Vec<String> {
    // Every synthetic name starts with `n`, so only such names can clash.
    // Plain `n<id>` names never clash with each other, and a suffixed
    // `n<id>_<k>` never equals a plain one or one with another id. An
    // output label spelling its own unnamed driver's `n<id>` names that
    // driver rather than a second signal, so it takes nothing away.
    let labels = c.outputs().iter().enumerate().filter_map(|(slot, &o)| {
        let label = c.output_name(slot)?;
        let own = c.node(o).name().is_none() && label == format!("n{}", o.index());
        (!own).then_some(label)
    });
    let taken: HashSet<&str> = c
        .iter()
        .filter_map(|(_, node)| node.name())
        .chain(labels)
        .filter(|name| name.starts_with('n'))
        .collect();
    c.iter()
        .map(|(id, node)| match node.name() {
            Some(n) => n.to_string(),
            None => {
                let base = format!("n{}", id.index());
                if !taken.contains(base.as_str()) {
                    return base;
                }
                (2usize..)
                    .map(|k| format!("{base}_{k}"))
                    .find(|name| !taken.contains(name.as_str()))
                    .expect("a free suffix exists")
            }
        })
        .collect()
}

/// Serializes a circuit to `.bench` text. Unnamed nodes get synthetic
/// names ([`node_names`]); the output is parseable by [`parse`].
///
/// Gate definitions are emitted in a canonical order — by logic level, ties
/// broken by signal name — which depends only on the named structure, not
/// on node-id assignment. Re-parsing and re-writing therefore reproduces
/// the text bit-for-bit (after one stabilizing round trip when output
/// aliases have to be materialized as `BUF` gates).
pub fn write(c: &Circuit) -> String {
    // One name per node, materialized once: the old per-use closure
    // allocated a fresh `String` for every fanin reference, which dominated
    // serialization time (and memory churn) on 100K+-gate circuits.
    let names = node_names(c);
    let name_of = |id: NodeId| -> &str { &names[id.index()] };
    // Estimate: every node appears once as a target and once per fanin
    // reference, plus fixed per-line syntax.
    let name_bytes: usize = names.iter().map(String::len).sum();
    let fanin_refs: usize = c.iter().map(|(_, n)| n.fanins().len()).sum();
    let avg_name = name_bytes / c.len().max(1) + 1;
    let mut out = String::with_capacity(
        name_bytes + fanin_refs * (avg_name + 2) + 16 * (c.len() + c.outputs().len() + 1),
    );
    let _ = writeln!(out, "# {}", c.name());
    for &i in c.inputs() {
        let _ = writeln!(out, "INPUT({})", name_of(i));
    }
    for (slot, &o) in c.outputs().iter().enumerate() {
        let label = c.output_name(slot).unwrap_or_else(|| name_of(o));
        let _ = writeln!(out, "OUTPUT({label})");
    }
    // Gates in canonical (level, name) order — a topological order, since
    // every fanin sits at a strictly smaller level. Output aliases are
    // handled via BUF when the output name differs from the driver's name.
    let level = c.levels().expect("combinational circuit");
    let mut order: Vec<NodeId> = (0..c.len()).map(NodeId::from_index).collect();
    order.sort_by(|&a, &b| (level[a.index()], name_of(a)).cmp(&(level[b.index()], name_of(b))));
    for id in order {
        let node = c.node(id);
        match node.kind() {
            GateKind::Input => {}
            GateKind::Const0 => {
                let _ = writeln!(out, "{} = CONST0", name_of(id));
            }
            GateKind::Const1 => {
                let _ = writeln!(out, "{} = CONST1", name_of(id));
            }
            kind => {
                let _ = write!(out, "{} = {}(", name_of(id), kind.name());
                for (i, &f) in node.fanins().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(name_of(f));
                }
                out.push_str(")\n");
            }
        }
    }
    for (slot, &o) in c.outputs().iter().enumerate() {
        if let Some(label) = c.output_name(slot) {
            if label != name_of(o) {
                let _ = writeln!(out, "{label} = BUF({})", name_of(o));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    /// An input named `n2` next to an unnamed gate at id 2: the gate's
    /// synthetic name must not shadow the input, or the text reads
    /// `n2 = AND(n2, b)` and the parser rejects the duplicate definition.
    #[test]
    fn synthetic_names_avoid_taken_names() {
        let mut c = Circuit::new("clash");
        let a = c.add_input("n2");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        let text = write(&c);
        assert_eq!(
            text,
            "# clash\nINPUT(n2)\nINPUT(b)\nOUTPUT(y)\nn2_2 = AND(n2, b)\ny = BUF(n2_2)\n"
        );
        let back = parse(&text, "clash").expect("writer output parses");
        for m in 0..4u32 {
            let v = [m & 1 == 1, m & 2 == 2];
            assert_eq!(back.eval_assignment(&v), c.eval_assignment(&v), "minterm {m}");
        }
        // Without a clash the synthetic name stays plain, and a label that
        // spells its own driver's synthetic name is not a clash.
        let mut d = Circuit::new("plain");
        let a = d.add_input("a");
        let b = d.add_input("b");
        let g = d.add_gate(GateKind::And, vec![a, b]).unwrap();
        d.add_output(g, "n2");
        assert_eq!(write(&d), "# plain\nINPUT(a)\nINPUT(b)\nOUTPUT(n2)\nn2 = AND(a, b)\n");
    }

    #[test]
    fn parse_c17() {
        let c = parse(C17, "c17").unwrap();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.two_input_gate_count(), 6);
        c.validate().unwrap();
        // Known vector: all inputs 0 -> NAND outputs ... compute one case.
        // inputs (1,2,3,6,7) = (0,0,0,0,0): 10=1, 11=1, 16=1, 19=1, 22=0, 23=0.
        assert_eq!(c.eval_assignment(&[false; 5]), vec![false, false]);
    }

    #[test]
    fn c17_path_count() {
        let c = parse(C17, "c17").unwrap();
        // Paths: 22: via 10 (1,3) + via 16 (2, 11{3,6}) = 2 + 3 = 5;
        // 23: via 16 (3) + via 19 (11{3,6},7) = 3 + 3 = 6. Total 11.
        assert_eq!(c.path_count(), 11);
    }

    #[test]
    fn round_trip_preserves_function() {
        let c = parse(C17, "c17").unwrap();
        let text = write(&c);
        let c2 = parse(&text, "c17rt").unwrap();
        assert_eq!(c.inputs().len(), c2.inputs().len());
        for m in 0..32u32 {
            let a: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(c.eval_assignment(&a), c2.eval_assignment(&a));
        }
    }

    #[test]
    fn forward_references_allowed() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = BUF(a)\n";
        let c = parse(src, "fwd").unwrap();
        assert_eq!(c.eval_assignment(&[true]), vec![false]);
    }

    #[test]
    fn constants_supported() {
        let src = "INPUT(a)\nOUTPUT(y)\nk = CONST1\ny = AND(a, k)\n";
        let c = parse(src, "k").unwrap();
        assert_eq!(c.eval_assignment(&[true]), vec![true]);
        assert_eq!(c.eval_assignment(&[false]), vec![false]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
        match parse(bad, "bad") {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("FROB"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn dff_rejected() {
        let bad = "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
        assert!(matches!(parse(bad, "bad"), Err(NetlistError::Parse { line: 3, .. })));
    }

    #[test]
    fn undefined_signal_rejected() {
        let bad = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert!(matches!(parse(bad, "bad"), Err(NetlistError::Parse { line: 3, .. })));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let bad = "INPUT(a)\nINPUT(a)\n";
        assert!(matches!(parse(bad, "bad"), Err(NetlistError::Parse { line: 2, .. })));
    }

    #[test]
    fn cycle_rejected() {
        let bad = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n";
        assert!(parse(bad, "bad").is_err());
    }

    // --- Adversarial fixtures: a daemon parses untrusted files, so every
    // malformed shape below must surface as a typed `NetlistError::Parse`
    // (never a panic, never an index-out-of-bounds).

    #[test]
    fn truncated_mid_expression_rejected() {
        // File cut off mid-write: open paren, no close, then EOF.
        let bad = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,";
        assert!(matches!(parse(bad, "trunc"), Err(NetlistError::Parse { line: 4, .. })));
    }

    #[test]
    fn truncated_input_declaration_rejected() {
        let bad = "INPUT(a";
        assert!(matches!(parse(bad, "trunc"), Err(NetlistError::Parse { line: 1, .. })));
        let bad = "INPUT(a)\nOUTPUT(y";
        assert!(matches!(parse(bad, "trunc"), Err(NetlistError::Parse { line: 2, .. })));
    }

    #[test]
    fn absurd_fanin_count_rejected() {
        let mut src = String::from("INPUT(a)\nOUTPUT(y)\n");
        let args = vec!["a"; MAX_PARSE_FANINS + 1].join(", ");
        let _ = writeln!(src, "y = AND({args})");
        match parse(&src, "bomb") {
            Err(NetlistError::Parse { line: 3, message }) => {
                assert!(message.contains("fanins"), "unexpected message {message:?}");
            }
            other => panic!("expected fanin-cap parse error, got {other:?}"),
        }
        // Exactly at the cap is still accepted (the limit is a bomb guard,
        // not a functional restriction).
        let mut ok = String::from("INPUT(a)\nOUTPUT(y)\n");
        let args = vec!["a"; MAX_PARSE_FANINS].join(", ");
        let _ = writeln!(ok, "y = AND({args})");
        parse(&ok, "wide").unwrap();
    }

    #[test]
    fn binary_garbage_rejected_not_panicking() {
        let garbage = "\u{0}\u{1}\u{2}=\u{3}(\u{4}\n\nOUTPUT(\n= AND(x)\n";
        assert!(parse(garbage, "garbage").is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let bad = "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n";
        assert!(matches!(parse(bad, "selfloop"), Err(NetlistError::Parse { line: 3, .. })));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "\n# hello\nINPUT(a) # trailing\nOUTPUT(a)\n";
        let c = parse(src, "c").unwrap();
        assert_eq!(c.inputs().len(), 1);
        assert_eq!(c.outputs().len(), 1);
    }
}
