//! Cross-crate integration tests: the full paper pipeline on real
//! workloads.

use sft::atpg::{generate_test, remove_redundancies};
use sft::circuits::builders;
use sft::core::{procedure2, procedure3, Objective, ResynthOptions};
use sft::delay::{pdf_campaign, PdfCampaignConfig};
use sft::netlist::Circuit;
use sft::rambo::{optimize, RamboOptions};
use sft::sim::{campaign, fault_list, CampaignConfig};
use sft::techmap::{map_circuit, Library};

fn opts() -> ResynthOptions {
    ResynthOptions { max_candidates_per_gate: 80, ..ResynthOptions::default() }
}

#[test]
fn procedure2_on_comparator_improves_and_verifies() {
    let original = builders::comparator(8);
    let mut c = original.clone();
    let report = procedure2(&mut c, &opts()).expect("verified resynthesis");
    assert!(report.gates_after <= report.gates_before);
    assert!(sft::bdd::equivalent(&original, &c).unwrap().is_equivalent());
    c.validate().unwrap();
}

#[test]
fn procedure3_on_mux_reduces_paths() {
    let original = builders::mux_tree(4);
    let mut c = original.clone();
    let report = procedure3(&mut c, &opts()).expect("verified resynthesis");
    assert!(report.paths_after <= report.paths_before);
    assert!(sft::bdd::equivalent(&original, &c).unwrap().is_equivalent());
}

#[test]
fn full_table2_recipe_on_adder() {
    let original = builders::ripple_carry_adder(6);
    let mut c = original.clone();
    procedure2(&mut c, &opts()).expect("verified resynthesis");
    let red = remove_redundancies(&mut c, 20_000);
    assert_eq!(red.aborted, 0, "small circuits must not abort");
    assert!(sft::bdd::equivalent(&original, &c).unwrap().is_equivalent());
    // Every remaining fault is testable (the paper's point of running
    // redundancy removal after Procedure 2).
    for fault in fault_list(&c) {
        assert!(generate_test(&c, fault, 50_000).is_test(), "{fault} untestable");
    }
}

#[test]
fn stuck_at_testability_does_not_deteriorate() {
    let original = builders::comparator(6);
    let mut modified = original.clone();
    procedure2(&mut modified, &opts()).expect("verified resynthesis");
    remove_redundancies(&mut modified, 20_000);
    let run = |c: &Circuit| {
        let faults = fault_list(c);
        campaign(c, &faults, &CampaignConfig { max_patterns: 4096, plateau: 0, seed: 5 }).coverage()
    };
    let before = run(&original);
    let after = run(&modified);
    assert!(after >= before - 1e-9, "coverage {before} -> {after}");
}

#[test]
fn pdf_coverage_improves_or_holds_on_reconvergent_logic() {
    // A mux tree has heavy reconvergence; Procedure 2 merges SOP cones into
    // comparison units with fewer paths.
    let original = builders::mux_tree(4);
    let mut modified = original.clone();
    procedure2(&mut modified, &opts()).expect("verified resynthesis");
    let cfg = PdfCampaignConfig {
        max_pairs: 4096,
        plateau: 0,
        seed: 5,
        path_limit: 1 << 20,
        ..Default::default()
    };
    let before = pdf_campaign(&original, &cfg).unwrap();
    let after = pdf_campaign(&modified, &cfg).unwrap();
    assert!(
        after.coverage() >= before.coverage() - 1e-9,
        "robust PDF coverage {:.4} -> {:.4}",
        before.coverage(),
        after.coverage()
    );
    assert!(after.total_faults <= before.total_faults, "fault universe must not grow");
}

#[test]
fn rar_then_procedure2_composes() {
    let original = builders::comparator(5);
    let mut c = original.clone();
    optimize(&mut c, &RamboOptions { candidate_attempts: 40, ..RamboOptions::default() })
        .expect("RAR verified");
    let mut both = c.clone();
    procedure2(&mut both, &opts()).expect("verified resynthesis");
    assert!(both.two_input_gate_count() <= c.two_input_gate_count());
    assert!(sft::bdd::equivalent(&original, &both).unwrap().is_equivalent());
}

#[test]
fn techmap_tracks_gate_reductions() {
    let original = builders::mux_tree(4);
    let mut modified = original.clone();
    procedure2(&mut modified, &opts()).expect("verified resynthesis");
    let lib = Library::standard();
    let before = map_circuit(&original, &lib);
    let after = map_circuit(&modified, &lib);
    // Table 4's observation: mapped size tracks the eq-2 reduction and the
    // longest path does not explode.
    assert!(after.literals <= before.literals + 2, "{before} -> {after}");
    assert!(after.longest_path <= before.longest_path + 2, "{before} -> {after}");
}

#[test]
fn combined_objective_sits_between_extremes() {
    let original = builders::mux_tree(4);
    let run = |objective| {
        let mut c = original.clone();
        let o = ResynthOptions { objective, ..opts() };
        sft::core::resynthesize(&mut c, &o).expect("verified");
        (c.two_input_gate_count(), c.path_count())
    };
    let (g_gates, _) = run(Objective::Gates);
    let (_, p_paths) = run(Objective::Paths);
    let (c_gates, c_paths) = run(Objective::Combined { gate_weight: 1, path_weight: 1 });
    // The combined point is no better than each extreme on its own axis.
    assert!(c_gates >= g_gates);
    assert!(c_paths >= p_paths);
}

#[test]
fn bench_format_round_trip_through_resynthesis() {
    let original = builders::ripple_carry_adder(4);
    let text = sft::netlist::bench_format::write(&original);
    let mut parsed = sft::netlist::bench_format::parse(&text, "rt").unwrap();
    procedure2(&mut parsed, &opts()).expect("verified resynthesis");
    assert!(sft::bdd::equivalent(&original, &parsed).unwrap().is_equivalent());
}
