//! Regenerates Table 4: technology mapping (literals, longest path).

use sft_bench::format::{header, row};
use sft_bench::{table4_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    let rows = table4_rows(&cfg);
    println!("Table 4(a): Original circuits, before and after Procedure 2");
    println!();
    header(&[("circuit", 8), ("lits", 6), ("longest", 7), ("P2 lits", 7), ("longest", 7)]);
    for r in &rows {
        row(&[
            (r.name.to_string(), 8),
            (r.original.0.to_string(), 6),
            (r.original.1.to_string(), 7),
            (r.proc2.0.to_string(), 7),
            (r.proc2.1.to_string(), 7),
        ]);
    }
    println!();
    println!("Table 4(b): After the RAR baseline, before and after Procedure 2");
    println!();
    header(&[("circuit", 8), ("lits", 6), ("longest", 7), ("P2 lits", 7), ("longest", 7)]);
    for r in &rows {
        row(&[
            (r.name.to_string(), 8),
            (r.rambo.0.to_string(), 6),
            (r.rambo.1.to_string(), 7),
            (r.rambo_proc2.0.to_string(), 7),
            (r.rambo_proc2.1.to_string(), 7),
        ]);
    }
}
