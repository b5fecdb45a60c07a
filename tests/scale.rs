//! Scale-tier integration tests: the `sft gen` generators must be
//! deterministic, valid, `.bench`-canonical, and the wide-word campaign
//! must be bit-identical to 64-pattern sweeps on a circuit large enough
//! that fault-dropping and FFR stem grouping engage. The exact campaign
//! decisions on the
//! 6K–12K-gate scale circuits are pinned in `tests/decisions.rs`.

use proptest::prelude::*;
use sft::circuits::gen::{alu, deep_dag, stitched, wide_adder, wide_multiplier};
use sft::circuits::random::RandomCircuitConfig;
use sft::netlist::bench_format::{parse, write};
use sft::netlist::Circuit;
use sft::sim::{campaign, fault_list, pattern_block, CampaignConfig, FaultSim};

/// The writer contract on generated netlists: one round trip may
/// materialize output aliases as named `BUF` gates, but the text is a
/// fixpoint from then on.
fn assert_textual_fixpoint(c: &Circuit) {
    let t1 = write(c);
    let c1 = parse(&t1, c.name())
        .unwrap_or_else(|e| panic!("{}: writer output rejected by parser: {e}", c.name()));
    let t2 = write(&c1);
    let c2 = parse(&t2, c.name()).expect("stabilized text parses");
    assert_eq!(write(&c2), t2, "{}: write/parse/write is not a textual fixpoint", c.name());
}

#[test]
fn fixed_generators_write_as_textual_fixpoints() {
    for c in [
        wide_multiplier(7),
        wide_multiplier(16),
        wide_adder(33),
        alu(17),
        deep_dag(&RandomCircuitConfig { gates: 900, window: 19, ..Default::default() }),
        stitched(7, &RandomCircuitConfig::default()),
    ] {
        c.validate().unwrap_or_else(|e| panic!("{}: invalid: {e}", c.name()));
        assert_textual_fixpoint(&c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generator family, over random shape parameters, emits a valid
    /// circuit whose `.bench` text reaches the writer fixpoint — and equal
    /// parameters regenerate the identical circuit.
    #[test]
    fn generated_circuits_are_deterministic_canonical_bench(
        width in 1usize..12,
        gates in 50usize..600,
        window in 4usize..48,
        copies in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cfg = RandomCircuitConfig { inputs: 12, outputs: 6, gates, window, seed };
        for c in [wide_multiplier(width), wide_adder(width), alu(width), deep_dag(&cfg), stitched(copies, &cfg)] {
            c.validate().unwrap_or_else(|e| panic!("{}: invalid: {e}", c.name()));
            assert_textual_fixpoint(&c);
        }
        prop_assert_eq!(deep_dag(&cfg), deep_dag(&cfg));
        prop_assert_eq!(stitched(copies, &cfg), stitched(copies, &cfg));
    }
}

/// The committed corpus is byte-identical to a fresh generator run: the
/// generators are pure functions of their parameters and the `.bench`
/// writer is canonical, so any platform- or RNG-drift shows up here.
#[test]
fn committed_corpus_matches_regenerated_output() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let dag = RandomCircuitConfig { inputs: 48, outputs: 24, gates: 4000, window: 40, seed: 11 };
    let stitch = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 177 };
    for (file, circuit) in [
        ("mul16.bench", wide_multiplier(16)),
        ("add64.bench", wide_adder(64)),
        ("alu32.bench", alu(32)),
        ("dag4k.bench", deep_dag(&dag)),
        ("stitch16.bench", stitched(16, &stitch)),
    ] {
        let committed = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("{file}: unreadable: {e}"));
        assert_eq!(committed, write(&circuit), "{file}: corpus drifted from generator output");
    }
}

/// The acceptance bit-identity check at CI-quick size: a ~50K-gate stitched
/// circuit, the 256-bit campaign compared with plain 64-pattern sweeps of
/// the same three blocks. Any divergence in detection indices or
/// effective-pattern statistics fails.
#[test]
fn wide_words_are_bit_identical_on_50k_gates() {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 };
    let c = stitched(210, &core);
    assert!(c.two_input_gate_count() >= 50_000, "{} gates", c.two_input_gate_count());
    let faults = fault_list(&c);
    let cfg = CampaignConfig { max_patterns: 192, plateau: 0, seed: 0x51f7 };
    // Three 64-pattern blocks, each fault credited with its first detecting
    // pattern.
    let mut fsim = FaultSim::new(&c);
    let mut first: Vec<Option<u64>> = vec![None; faults.len()];
    for block in 0..3 {
        let words = pattern_block(0x51f7, block, c.inputs().len());
        for (f, mask) in first.iter_mut().zip(fsim.detect_masks(&faults, &words)) {
            if f.is_none() && mask != 0 {
                *f = Some(64 * block + u64::from(mask.trailing_zeros()));
            }
        }
    }
    assert!(first.iter().any(Option::is_some), "campaign must detect something at this size");
    let r = campaign(&c, &faults, &cfg);
    assert_eq!(r.detection_pattern, first, "256-bit sweep vs 64-pattern blocks");
    assert_eq!(r.last_effective_pattern, first.iter().flatten().max().copied());
}

/// The at-scale path-count regression: a 100K-gate deep DAG overflows any
/// fixed-width path count; the label arithmetic must saturate (and report
/// it) instead of wrapping.
#[test]
fn path_count_saturates_on_100k_gate_deep_dag() {
    let c = deep_dag(&RandomCircuitConfig {
        inputs: 64,
        outputs: 32,
        gates: 100_000,
        window: 48,
        seed: 3,
    });
    assert!(c.len() > 90_000, "{} nodes", c.len());
    let paths = c.path_count_exact();
    assert!(paths.is_saturated(), "expected saturation, got {paths}");
    assert_eq!(c.path_count(), u128::MAX, "saturated count must clamp, not wrap");
}
