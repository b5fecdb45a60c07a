//! Pinned decisions: the exact integers resynthesis, fault simulation, test
//! generation, redundancy removal, edit rollback and the serve daemon decide
//! on fixed inputs.
//!
//! Each test is one table. A row names a circuit and the values the engines
//! must reproduce for it on every machine; the comment above a table names
//! its columns. Timing lives in `perfbench/`
//! (median of interleaved rounds). A change that moves a value here changes
//! what the program computes, and the new value belongs in this file
//! together with the reason.

use sft::atpg::{generate_test_set, remove_redundancies, TestSetOptions};
use sft::budget::{Budget, StopReason};
use sft::circuits::random::{random_circuit, RandomCircuitConfig};
use sft::circuits::{gen, suite_small, SuiteEntry};
use sft::core::{procedure2, resynthesize_with_budget, ResynthOptions};
use sft::netlist::{Circuit, GateKind, NodeId};
use sft::par::{derive_seed, Jobs};
use sft::serve::{serve, ServeConfig, ServeSummary};
use sft::sim::{
    campaign, collapse, fault_list, CampaignConfig, CampaignResult, Fault, FaultSite, Simulator,
    SoaCircuit,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// The small irs suite, checked against the circuit names of a table.
fn suite_named<T>(pins: &[(&str, T)]) -> Vec<SuiteEntry> {
    let entries = suite_small();
    let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
    let pinned: Vec<&str> = pins.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "the pinned table must cover the suite in order");
    entries
}

/// A random-pattern campaign with no plateau stop.
fn seeded_campaign(c: &Circuit, faults: &[Fault], max_patterns: u64, seed: u64) -> CampaignResult {
    campaign(c, faults, &CampaignConfig { max_patterns, plateau: 0, seed })
}

/// The sliding-window DAG of the scale and arena rows: shallow enough
/// (window 2000, 256 inputs) that 256 random patterns reach ~18% coverage.
fn dag12k() -> Circuit {
    let shape =
        RandomCircuitConfig { inputs: 256, outputs: 32, gates: 12_000, window: 2000, seed: 3 };
    gen::deep_dag(&shape)
}

/// 48 XOR-checksummed random cores of 260 gates each.
fn stitch48() -> Circuit {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 };
    gen::stitched(48, &core)
}

/// Procedure 2 with at most 60 candidates per gate.
#[test]
fn resynthesis_decisions_are_pinned() {
    // (gates_before, gates_after, paths_before, paths_after, replacements)
    let pins = [
        ("irs_a", (64, 64, 325, 318, 2)),
        ("irs_d", (91, 91, 336, 336, 0)),
        ("irs_f", (189, 189, 190, 190, 0)),
    ];
    for (entry, (name, pin)) in suite_named(&pins).iter().zip(pins) {
        let mut c = entry.circuit.clone();
        let opts = ResynthOptions { max_candidates_per_gate: 60, ..Default::default() };
        let r = procedure2(&mut c, &opts).expect("resynthesis verifies");
        let paths = (r.paths_before.value(), r.paths_after.value());
        let decided = (r.gates_before, r.gates_after, paths.0, paths.1, r.replacements);
        assert_eq!(decided, pin, "{name}: resynthesis decisions drifted");
    }
}

/// Procedure 2 at K = 6 and 7 (64- and 128-bit cut tables, 6- and 7-input
/// identification) on four stitched cores of the `sft gen stitch` shape.
#[test]
fn wide_cut_resynthesis_decisions_are_pinned() {
    // (K, replacements, gates_after, paths_after)
    let pins = [(6, 238, 476, 9393), (7, 249, 441, 8864)];
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 1 };
    let original = gen::stitched(4, &core);
    for pin in pins {
        let mut c = original.clone();
        let opts = ResynthOptions { max_inputs: pin.0, ..Default::default() };
        let r = procedure2(&mut c, &opts).expect("resynthesis verifies");
        let decided = (pin.0, r.replacements, r.gates_after, r.paths_after.value());
        assert_eq!(decided, pin, "K = {}: resynthesis decisions drifted", pin.0);
    }
}

/// Random stuck-at campaigns: 4,096 patterns, seed `0x5f7`, no plateau stop.
#[test]
fn campaign_decisions_are_pinned() {
    // (two-input gates, paths, faults, detected, patterns_applied)
    let pins = [
        ("irs_a", (64, 325, 346, 345, 4096)),
        ("irs_d", (91, 336, 448, 433, 4096)),
        ("irs_f", (189, 190, 792, 792, 704)),
    ];
    for (entry, (name, pin)) in suite_named(&pins).iter().zip(pins) {
        let c = &entry.circuit;
        let faults = fault_list(c);
        let r = seeded_campaign(c, &faults, 4096, 0x5f7);
        let decided = (
            c.two_input_gate_count(),
            c.path_count(),
            r.total_faults,
            r.detected,
            r.patterns_applied,
        );
        assert_eq!(decided, pin, "{name}: campaign decisions drifted");
    }
}

/// Campaigns on 6K–12K-gate generated circuits, seed `0x5ca1e`, no plateau
/// stop. The detection counts are the ones an independent per-fault
/// event-driven simulator reproduced. `ctrace` counts faults resolved inside
/// a fanout-free region, `dom` those whose region root has an immediate
/// dominator.
#[test]
fn scale_campaign_decisions_are_pinned() {
    // (two-input gates, faults, fault classes, ctrace, dom, detected, patterns_applied)
    let pins = [
        ("mul32", gen::wide_multiplier(32), 128, (5888, 31616, 29696, 11520, 0, 31152, 128)),
        ("dag12k", dag12k(), 256, (8165, 42480, 40825, 9176, 12398, 7501, 256)),
        ("stitch48", stitch48(), 128, (11937, 57558, 53320, 25608, 286, 24884, 128)),
    ];
    for (name, c, patterns, pin) in pins {
        let faults = fault_list(&c);
        let r = seeded_campaign(&c, &faults, patterns, 0x5ca1e);
        let soa = SoaCircuit::new(&c);
        let site = |site: FaultSite| match site {
            FaultSite::Stem(n) => n.index(),
            FaultSite::Branch { gate, .. } => gate.index(),
        };
        let ctrace = faults.iter().filter(|f| soa.ffr_interior(site(f.site))).count();
        let dom = faults.iter().filter(|f| soa.idom(soa.ffr_root(site(f.site))).is_some()).count();
        let classes = collapse(&c, &faults).len();
        let decided = (
            c.two_input_gate_count(),
            r.total_faults,
            classes,
            ctrace,
            dom,
            r.detected,
            r.patterns_applied,
        );
        assert_eq!(decided, pin, "{name}: scale campaign decisions drifted");
    }
}

/// Arena shape of the generated circuits, and one serial resynthesis under
/// a 2,000-step budget with at most 20 candidates per gate. The budget runs
/// out inside the first pass; every replacement that pass committed before
/// the stop is kept.
#[test]
fn arena_decisions_are_pinned() {
    // (nodes, live fanin references, interned names, replacements, gates_after)
    let pins = [
        ("dag12k", dag12k(), (12256, 25676, 256, 1, 8161)),
        ("stitch48", stitch48(), (12090, 22491, 1536, 4, 11932)),
    ];
    for (name, mut c, pin) in pins {
        assert!(c.fanin_spans_flat(), "{name}: generators end swept, pool must be flat");
        let mem = c.memory_stats();
        let opts = ResynthOptions { max_candidates_per_gate: 20, ..Default::default() };
        let budget = Budget::unlimited().with_step_limit(2_000);
        let r = resynthesize_with_budget(&mut c, &opts, &budget).expect("resynthesis verifies");
        let decided = (mem.nodes, mem.pool_live, mem.interned_names, r.replacements, r.gates_after);
        assert_eq!(decided, pin, "{name}: arena decisions drifted");
    }
}

/// Unbudgeted Procedure 2 with at most 20 candidates per gate on a circuit
/// whose whole-circuit BDDs do not fit the default node limit. The result
/// is compared with the input on 64 blocks of 64 random patterns instead.
#[test]
fn scale_resynthesis_decisions_are_pinned() {
    // (replacements, gates_after, paths_after, stop_reason)
    let pins = [("dag12k", dag12k(), (54, 7972, 5_602_281, StopReason::Converged))];
    for (name, original, pin) in pins {
        let mut c = original.clone();
        let opts = ResynthOptions { max_candidates_per_gate: 20, ..Default::default() };
        let r = procedure2(&mut c, &opts).expect("resynthesis runs");
        let decided = (r.replacements, r.gates_after, r.paths_after.value(), r.stop_reason);
        assert_eq!(decided, pin, "{name}: scale resynthesis decisions drifted");
        let (before, after) = (Simulator::new(&original), Simulator::new(&c));
        for block in 0..64 {
            let words: Vec<u64> =
                (0..original.inputs().len() as u64).map(|i| derive_seed(block, i)).collect();
            let outputs = |sim: &Simulator| sim.output_words(&sim.eval(&words));
            assert_eq!(outputs(&after), outputs(&before), "{name}: block {block} differs");
        }
    }
}

/// A deterministic edit burst the size of one resynthesis candidate: up to
/// 32 gates are narrowed to a `Not` of their first fanin (always acyclic),
/// with one `Buf` gate appended per eight rewires. Returns the number of
/// journaled edits.
fn edit_burst(c: &mut Circuit) -> usize {
    let mut rewires = 0;
    let mut edits = 0;
    for i in 0..c.len() {
        let id = NodeId::from_index(i);
        let node = c.node(id);
        if rewires == 32 {
            break;
        } else if !node.kind().is_gate() || node.fanins().is_empty() {
            continue;
        }
        let first = node.fanins()[0];
        c.rewire(id, GateKind::Not, vec![first]).expect("existing fanin cannot cycle");
        rewires += 1;
        edits += 1;
        if rewires % 8 == 0 {
            c.add_gate(GateKind::Buf, vec![first]).expect("fanin exists");
            edits += 1;
        }
    }
    edits
}

/// One journaled edit burst, rolled back with maintained views attached,
/// restores the circuit exactly.
#[test]
fn edit_rollback_decisions_are_pinned() {
    // (nodes, edits, restored)
    let pins = [("irs_a", (97, 36, true)), ("irs_d", (119, 36, true)), ("irs_f", (265, 36, true))];
    for (entry, (name, pin)) in suite_named(&pins).iter().zip(pins) {
        let mut c = entry.circuit.clone();
        c.enable_views();
        let pristine = c.clone();
        let cp = c.begin_edit();
        let edits = edit_burst(&mut c);
        c.rollback_to(cp);
        let decided = (entry.circuit.len(), edits, c == pristine);
        assert_eq!(decided, pin, "{name}: edit decisions drifted");
    }
}

/// Drains six jobs (the small suite, twice over) through the daemon with a
/// queue as long as the batch; returns the summary and the result netlists
/// by file name.
fn drain(root: &Path, jobs: Jobs) -> (ServeSummary, BTreeMap<String, String>) {
    let incoming = root.join("jobs/incoming");
    std::fs::create_dir_all(&incoming).expect("create incoming");
    for (i, entry) in suite_small().iter().cycle().take(6).enumerate() {
        let text = sft::netlist::bench_format::write(&entry.circuit);
        std::fs::write(incoming.join(format!("job{i}.bench")), text).expect("write bench");
        std::fs::write(incoming.join(format!("job{i}.job")), "objective = gates\n")
            .expect("write job");
    }
    let config = ServeConfig {
        jobs,
        queue: 6,
        once: true,
        handle_signals: false,
        poll: Duration::from_millis(1),
        ..ServeConfig::new(root)
    };
    let summary = serve(&config).expect("serve drains");
    let mut outputs = BTreeMap::new();
    for file in std::fs::read_dir(root.join("jobs/done")).expect("read done/") {
        let path = file.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        if name.ends_with(".bench") {
            outputs.insert(name, std::fs::read_to_string(&path).expect("read result"));
        }
    }
    (summary, outputs)
}

/// A serial drain, then a two-worker drain. Outcomes and result netlists
/// do not depend on the worker count.
#[test]
fn serve_outcome_decisions_are_pinned() {
    let scratch = std::env::temp_dir().join(format!("sft-decisions-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let (serial, serial_out) = drain(&scratch.join("serial"), Jobs::serial());
    let (two, two_out) = drain(&scratch.join("two"), Jobs::new(2));
    let _ = std::fs::remove_dir_all(&scratch);

    // (done, failed, shed)
    assert_eq!((serial.done, serial.failed, serial.shed), (6, 0, 0), "serial outcomes drifted");
    assert_eq!((two.done, two.failed, two.shed), (6, 0, 0), "two-worker outcomes drifted");
    assert_eq!(serial_out.len(), 6);
    assert_eq!(serial_out, two_out, "serve results must not depend on the worker count");
}

/// Test generation (default options) on the 15 random cores of perfbench's
/// testability workload, and redundancy removal (backtrack limit 50,000, as
/// `sft redundancy` runs it) on two stitched cores of the `sft gen stitch`
/// shape. Faults are targeted in node-id order, which a `.bench` round trip
/// renumbers, so the written-and-parsed circuit (what `sft redundancy` reads)
/// removes a different number of faults than the generated one.
#[test]
fn atpg_decisions_are_pinned() {
    // (seed, (vectors, redundant, aborted))
    let pins = [
        (101, (10, 319, 0)),
        (102, (22, 160, 0)),
        (103, (23, 178, 0)),
        (104, (23, 168, 0)),
        (105, (18, 169, 0)),
        (106, (20, 247, 0)),
        (107, (28, 94, 0)),
        (108, (17, 316, 0)),
        (109, (24, 121, 0)),
        (110, (22, 193, 0)),
        (111, (17, 284, 0)),
        (112, (19, 263, 0)),
        (113, (23, 271, 0)),
        (114, (24, 178, 0)),
        (115, (31, 171, 0)),
    ];
    for (seed, pin) in pins {
        let core = RandomCircuitConfig { inputs: 20, outputs: 10, gates: 120, window: 40, seed };
        let set = generate_test_set(&random_circuit(&core), &TestSetOptions::default());
        let decided = (set.vectors.len(), set.redundant, set.aborted);
        assert_eq!(decided, pin, "seed {seed}: test-set decisions drifted");
    }

    // (removed, aborted, passes, gates_before, gates_after)
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 1 };
    let generated = gen::stitched(2, &core);
    let text = sft::netlist::bench_format::write(&generated);
    let parsed = sft::netlist::bench_format::parse(&text, "stitch2").expect("round trip parses");
    let pins = [
        ("generated", generated, (532, 0, 4, 486, 111)),
        ("parsed", parsed, (546, 0, 4, 486, 111)),
    ];
    for (name, mut c, pin) in pins {
        let r = remove_redundancies(&mut c, 50_000);
        let decided = (r.removed, r.aborted, r.passes, r.gates_before, r.gates_after);
        assert_eq!(decided, pin, "stitch2 {name}: redundancy-removal decisions drifted");
    }
}
