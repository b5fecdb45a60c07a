//! Regenerates Table 2: Procedure 2 followed by redundancy removal.

use sft_bench::format::{grouped_paths, header, row};
use sft_bench::{table2_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!("Table 2: Results of Procedure 2 (gates minimized, then redundancy removal)");
    println!();
    header(&[
        ("circuit(K)", 12),
        ("2-inp orig", 10),
        ("modif", 8),
        ("red.rem", 8),
        ("paths orig", 14),
        ("modif", 14),
        ("red.rem", 14),
    ]);
    for r in table2_rows(&cfg) {
        row(&[
            (format!("{} ({})", r.name, r.k), 12),
            (r.gates.0.to_string(), 10),
            (r.gates.1.to_string(), 8),
            (r.gates.2.map_or_else(String::new, |g| g.to_string()), 8),
            (grouped_paths(r.paths.0), 14),
            (grouped_paths(r.paths.1), 14),
            (r.paths.2.map_or_else(String::new, grouped_paths), 14),
        ]);
    }
}
