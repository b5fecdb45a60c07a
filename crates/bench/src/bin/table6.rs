//! Regenerates Table 6: random-pattern stuck-at testability, before and
//! after Procedure 2 + redundancy removal, equal seeds and budgets.

use sft_bench::format::{grouped, header, row};
use sft_bench::{table6_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!(
        "Table 6: Stuck-at random-pattern testability ({} patterns, seed {})",
        grouped(cfg.stuck_at_patterns as u128),
        cfg.seed
    );
    println!();
    header(&[
        ("circuit", 8),
        ("faults", 7),
        ("remain", 7),
        ("eff.patt", 9),
        ("m.faults", 8),
        ("m.remain", 8),
        ("m.eff.patt", 10),
    ]);
    for r in table6_rows(&cfg) {
        let eff = |e: Option<u64>| e.map_or_else(String::new, |v| grouped(v as u128));
        row(&[
            (r.name.to_string(), 8),
            (r.original.0.to_string(), 7),
            (r.original.1.to_string(), 7),
            (eff(r.original.2), 9),
            (r.modified.0.to_string(), 8),
            (r.modified.1.to_string(), 8),
            (eff(r.modified.2), 10),
        ]);
    }
}
