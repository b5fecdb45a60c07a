//! The paper's full flow on an arithmetic workload: Procedure 2, redundancy
//! removal, random-pattern stuck-at testability before/after (Table 6
//! style), robust PDF coverage before/after (Table 7 style), and technology
//! mapping (Table 4 style).
//!
//! Run with `cargo run --release --example resynth_flow`.

use sft::atpg::remove_redundancies;
use sft::circuits::builders::comparator;
use sft::core::{procedure2, ResynthOptions};
use sft::delay::{pdf_campaign, PdfCampaignConfig};
use sft::netlist::Circuit;
use sft::sim::{campaign, fault_list, CampaignConfig};
use sft::techmap::{map_circuit, Library};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = comparator(10);
    println!("workload: 10-bit magnitude comparator, {}", original.stats());

    // Procedure 2 + redundancy removal (the Table 2 recipe).
    let mut modified = original.clone();
    let report = procedure2(&mut modified, &ResynthOptions::default())?;
    println!("\nProcedure 2: {report}");
    let red = remove_redundancies(&mut modified, 20_000);
    println!(
        "redundancy removal: {} removed, gates {} -> {}",
        red.removed, red.gates_before, red.gates_after
    );
    println!("modified: {}", modified.stats());

    // Exact equivalence.
    assert!(sft::bdd::equivalent(&original, &modified)?.is_equivalent());
    println!("BDD equivalence: OK");

    // Stuck-at random-pattern testability at equal budget & seed (Table 6).
    let stuck = |c: &Circuit| {
        let faults = fault_list(c);
        let r =
            campaign(c, &faults, &CampaignConfig { max_patterns: 1 << 14, plateau: 0, seed: 11 });
        (r.total_faults, r.remaining(), r.coverage())
    };
    let (fo, ro, co) = stuck(&original);
    let (fm, rm, cm) = stuck(&modified);
    println!("\nstuck-at (2^14 random patterns):");
    println!("  original: {fo} faults, {ro} remain, coverage {:.2}%", co * 100.0);
    println!("  modified: {fm} faults, {rm} remain, coverage {:.2}%", cm * 100.0);

    // Robust PDF coverage at equal budget & seed (Table 7).
    let pdf_cfg = PdfCampaignConfig {
        max_pairs: 1 << 13,
        plateau: 1 << 11,
        seed: 11,
        path_limit: 1 << 20,
        ..Default::default()
    };
    let pb = pdf_campaign(&original, &pdf_cfg)?;
    let pa = pdf_campaign(&modified, &pdf_cfg)?;
    println!("\nrobust path delay faults (random pairs):");
    println!(
        "  original: {}/{} detected ({:.2}%)",
        pb.detected,
        pb.total_faults,
        pb.coverage() * 100.0
    );
    println!(
        "  modified: {}/{} detected ({:.2}%)",
        pa.detected,
        pa.total_faults,
        pa.coverage() * 100.0
    );

    // Technology mapping (Table 4).
    let lib = Library::standard();
    println!("\ntechnology mapping:");
    println!("  original: {}", map_circuit(&original, &lib));
    println!("  modified: {}", map_circuit(&modified, &lib));
    Ok(())
}
