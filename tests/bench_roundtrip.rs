//! `.bench` round-trip property tests: `write` output must parse back, the
//! write → parse → write composition must be a textual fixpoint, and the
//! round-tripped circuit must compute the same function. Exercised on the
//! full `irs*` substitute suite, on its Procedure-2 output and on seeded
//! random DAGs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sft_circuits::random::{random_circuit, RandomCircuitConfig};
use sft_circuits::suite;
use sft_core::{procedure2, ResynthOptions};
use sft_netlist::bench_format::{parse, write};
use sft_netlist::Circuit;

/// Functional agreement: exhaustive when the input space is small, 512
/// seeded random vectors otherwise (the suite's larger entries are beyond
/// comfortable BDD equivalence checking under the natural variable order).
fn assert_same_function(a: &Circuit, b: &Circuit, tag: &str) {
    let n = a.inputs().len();
    assert_eq!(n, b.inputs().len(), "{tag}: input count changed");
    if n <= 12 {
        for m in 0..1u64 << n {
            let v: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(a.eval_assignment(&v), b.eval_assignment(&v), "{tag}: diverged on {v:?}");
        }
    } else {
        let mut rng = StdRng::seed_from_u64(0x5F7_B16C);
        for _ in 0..512 {
            let v: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(a.eval_assignment(&v), b.eval_assignment(&v), "{tag}: diverged on {v:?}");
        }
    }
}

/// The round-trip contract for one circuit. `write` uses a canonical
/// (level, name) gate order, so one round trip may materialize output
/// aliases as named `BUF` gates but the text is bit-stable from then on:
/// `parse → write` applied twice reaches a textual fixpoint, a further
/// `parse` reproduces the circuit bit-identically, and every iteration
/// preserves the ports and the function.
fn assert_roundtrip(c: &Circuit) {
    let t1 = write(c);
    let c1 = parse(&t1, c.name())
        .unwrap_or_else(|e| panic!("{}: writer output rejected by parser: {e}", c.name()));
    assert_eq!(c1.outputs().len(), c.outputs().len(), "{}: output count changed", c.name());
    assert_same_function(c, &c1, c.name());

    let t2 = write(&c1);
    let c2 = parse(&t2, c.name()).expect("stabilized text parses");
    assert_eq!(write(&c2), t2, "{}: write/parse/write is not a fixpoint", c.name());
    let c3 = parse(&write(&c2), c.name()).expect("fixpoint text parses");
    assert!(c2 == c3, "{}: parse -> write -> parse is not the identity", c.name());
    assert_same_function(c, &c2, c.name());
}

/// Every circuit of the `irs*` suite round-trips through the `.bench`
/// format (these carry real signal names, output aliases and shared
/// fanout, unlike the minimal circuits in the format's unit tests).
#[test]
fn irs_suite_round_trips() {
    for entry in suite() {
        assert_roundtrip(&entry.circuit);
    }
}

/// Procedure-2 output mixes parsed signal names with unnamed replacement
/// gates, whose synthetic names must never shadow a parsed one.
#[test]
fn irs_suite_procedure2_output_round_trips() {
    for entry in suite() {
        let mut c = entry.circuit.clone();
        procedure2(&mut c, &ResynthOptions { max_candidates_per_gate: 80, ..Default::default() })
            .unwrap_or_else(|e| panic!("{}: resynthesis failed: {e}", entry.name));
        assert_roundtrip(&c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Seeded random DAGs round-trip: unnamed internal nodes get synthetic
    /// names on write, which must survive a re-parse unchanged.
    #[test]
    fn random_dags_round_trip(
        inputs in 2usize..10,
        outputs in 1usize..5,
        gates in 5usize..60,
        window in 3usize..24,
        seed in any::<u64>(),
    ) {
        let c = random_circuit(&RandomCircuitConfig { inputs, outputs, gates, window, seed });
        assert_roundtrip(&c);
    }
}
