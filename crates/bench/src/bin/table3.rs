//! Regenerates Table 3: comparison with the RAMBO_C-style RAR baseline.

use sft_bench::format::{grouped_paths, header, row};
use sft_bench::{table3_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!("Table 3: Comparison with RAMBO_C (RAR baseline), then Procedure 2 on top");
    println!();
    header(&[
        ("circuit", 8),
        ("orig 2-inp", 10),
        ("orig paths", 13),
        ("RAR 2-inp", 10),
        ("RAR paths", 13),
        ("K", 3),
        ("+P2 2-inp", 10),
        ("+P2 paths", 13),
    ]);
    for r in table3_rows(&cfg) {
        row(&[
            (r.name.to_string(), 8),
            (r.orig.0.to_string(), 10),
            (grouped_paths(r.orig.1), 13),
            (r.rambo.0.to_string(), 10),
            (grouped_paths(r.rambo.1), 13),
            (r.k.to_string(), 3),
            (r.both.0.to_string(), 10),
            (grouped_paths(r.both.1), 13),
        ]);
    }
}
