//! The brute-force stuck-at oracle the engine is tested against.
//!
//! For every fault the whole faulty machine is re-simulated explicitly, in
//! topological order, on the [`Circuit`] API — no SoA tables, fanout-free
//! regions, dominators or caches — so it shares no code path with the
//! engine beyond the gate functions themselves. A fault is detected on a
//! pattern exactly when some primary output differs between the good and
//! the faulty machine.

use crate::{Fault, FaultSite};
use sft_netlist::{Circuit, GateKind, NodeId};

/// The per-pattern detection mask of every fault over one 64-pattern block
/// (`input_words[i]` carries primary input `i`).
pub(crate) fn detect_masks(c: &Circuit, faults: &[Fault], input_words: &[u64]) -> Vec<u64> {
    let order = c.topo_order().expect("combinational circuit");
    let mut inputs = vec![0u64; c.len()];
    for (&id, &w) in c.inputs().iter().zip(input_words) {
        inputs[id.index()] = w;
    }
    let good = sweep(c, &order, None, &inputs);
    faults
        .iter()
        .map(|&fault| {
            let bad = sweep(c, &order, Some(fault), &inputs);
            c.outputs().iter().fold(0, |m, o| m | (good[o.index()] ^ bad[o.index()]))
        })
        .collect()
}

/// One explicit simulation of the machine with `fault` injected (the good
/// machine for `None`); `inputs` holds each primary input's word at its
/// node index. Returns one word per node.
fn sweep(c: &Circuit, order: &[NodeId], fault: Option<Fault>, inputs: &[u64]) -> Vec<u64> {
    let forced = |stuck: bool| if stuck { u64::MAX } else { 0 };
    let mut values = inputs.to_vec();
    let mut pins = Vec::new();
    for &id in order {
        let node = c.node(id);
        let mut v = match node.kind() {
            GateKind::Input => inputs[id.index()],
            kind => {
                pins.clear();
                pins.extend(node.fanins().iter().enumerate().map(|(pin, f)| match fault {
                    Some(Fault { site: FaultSite::Branch { gate, pin: p }, stuck })
                        if gate == id && usize::from(p) == pin =>
                    {
                        forced(stuck)
                    }
                    _ => values[f.index()],
                }));
                kind.eval_words(&pins)
            }
        };
        if let Some(Fault { site: FaultSite::Stem(s), stuck }) = fault {
            if s == id {
                v = forced(stuck);
            }
        }
        values[id.index()] = v;
    }
    values
}

mod tests {
    use super::*;
    use crate::fsim::{FaultSimTables, WideFaultSim};
    use crate::word::{SimWord, W256};
    use crate::{fault_list, pattern_block};
    use sft_circuits::random::{random_circuit, RandomCircuitConfig};
    use sft_netlist::bench_format::parse;
    use std::sync::Arc;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    /// Compares the engine with the oracle, fault by fault and pattern by
    /// pattern, over `blocks` (a multiple of four): once as `u64` sweeps,
    /// block by block, and once as `W256` sweeps of four blocks each, lane
    /// by lane. One simulator per width serves every block, so the
    /// per-block caches are reused across blocks.
    fn assert_matches_oracle(name: &str, c: &Circuit, blocks: &[Vec<u64>]) {
        assert!(!blocks.is_empty() && blocks.len().is_multiple_of(W256::LANES));
        let faults = fault_list(c);
        let expected: Vec<Vec<u64>> =
            blocks.iter().map(|words| detect_masks(c, &faults, words)).collect();
        let tables = Arc::new(FaultSimTables::new(c));
        let mut narrow = WideFaultSim::<u64>::with_tables(Arc::clone(&tables));
        for (b, words) in blocks.iter().enumerate() {
            let got = narrow.detect_masks(&faults, words);
            for (fi, fault) in faults.iter().enumerate() {
                assert_eq!(
                    got[fi],
                    expected[b][fi],
                    "{name} u64 block {b} fault {fault}: patterns {:#x} differ",
                    got[fi] ^ expected[b][fi]
                );
            }
        }
        let mut wide = WideFaultSim::<W256>::with_tables(tables);
        for (s, stride) in blocks.chunks(W256::LANES).enumerate() {
            let inputs: Vec<W256> =
                (0..c.inputs().len()).map(|i| W256::from_lanes(|l| stride[l][i])).collect();
            let got = wide.detect_masks(&faults, &inputs);
            for (fi, fault) in faults.iter().enumerate() {
                for l in 0..W256::LANES {
                    let b = s * W256::LANES + l;
                    assert_eq!(
                        got[fi].lane(l),
                        expected[b][fi],
                        "{name} W256 block {b} fault {fault}: patterns {:#x} differ",
                        got[fi].lane(l) ^ expected[b][fi]
                    );
                }
            }
        }
    }

    /// `count` seeded random blocks for `c`.
    fn random_blocks(c: &Circuit, seed: u64, count: u64) -> Vec<Vec<u64>> {
        (0..count).map(|b| pattern_block(seed, b, c.inputs().len())).collect()
    }

    #[test]
    fn oracle_sees_the_textbook_cases() {
        // y = OR(a, AND(a, b)): t s-a-0 is redundant (absorption), and the
        // branch a -> t s-a-1 is detected only by a=0, b=1.
        let c =
            parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n", "abs").unwrap();
        let t = c.iter().find(|(_, n)| n.name() == Some("t")).map(|(id, _)| id).unwrap();
        // Bit m carries a = m & 1, b = m >> 1 & 1.
        let words = [0b1010, 0b1100];
        let masks = detect_masks(&c, &[Fault::stem(t, false), Fault::branch(t, 0, true)], &words);
        assert_eq!(masks, vec![0, 0b0100]);
    }

    /// Eight blocks for a circuit of at most six inputs, each holding every
    /// input combination (repeated to fill 64 patterns), each block in a
    /// different order.
    fn exhaustive_blocks(c: &Circuit) -> Vec<Vec<u64>> {
        let n = c.inputs().len();
        assert!(n <= 6);
        (0..8u64)
            .map(|k| {
                (0..n)
                    .map(|i| {
                        (0..64u64)
                            .filter(|m| ((m + 5 * k) % (1 << n)) >> i & 1 == 1)
                            .map(|m| 1 << m)
                            .sum()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn c17_exhaustively() {
        let c = parse(C17, "c17").unwrap();
        let blocks = exhaustive_blocks(&c);
        assert_matches_oracle("c17", &c, &blocks);
        // c17 is fully testable, so exhaustive blocks detect every fault.
        let masks = detect_masks(&c, &fault_list(&c), &blocks[0]);
        assert!(masks.iter().all(|&m| m != 0), "c17 must be fully testable");
    }

    /// A reconvergent stem `r` whose immediate dominator `d` is observable
    /// only where the side input `s` is 1: the stem's cached observability
    /// must be gated by the dominator's, not just by delivery to it.
    #[test]
    fn dominator_with_partial_observability() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(e)\nINPUT(s)\nOUTPUT(y)\n\
                   r = AND(a, b)\np = OR(r, c)\nq = AND(r, e)\nd = XOR(p, q)\ny = AND(d, s)\n";
        let c = parse(src, "dom").unwrap();
        assert_matches_oracle("dom", &c, &exhaustive_blocks(&c));
    }

    #[test]
    fn irs_suite() {
        for entry in sft_circuits::suite() {
            let blocks = random_blocks(&entry.circuit, 0x5f7, 4);
            assert_matches_oracle(entry.name, &entry.circuit, &blocks);
        }
    }

    /// Deep random DAGs: long stem chains and real dominator regions.
    #[test]
    fn deep_random_dags() {
        for seed in [1u64, 9, 33, 77] {
            let c = random_circuit(&RandomCircuitConfig {
                inputs: 16,
                outputs: 8,
                gates: 220,
                window: 24,
                seed,
            });
            assert_matches_oracle(
                &format!("dag seed {seed}"),
                &c,
                &random_blocks(&c, 0xC0FFEE ^ seed, 8),
            );
        }
    }

    /// XOR checksum trees: the stitched shape where stems chain through
    /// dominators and large fanout-free regions defer their excitations.
    #[test]
    fn stitched_checksum_trees() {
        let c = sft_circuits::gen::stitched(
            6,
            &RandomCircuitConfig { inputs: 10, outputs: 4, gates: 80, window: 12, seed: 2 },
        );
        assert_matches_oracle("stitched x6", &c, &random_blocks(&c, 0x57AB, 4));
    }
}
