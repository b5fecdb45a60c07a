//! Regenerates Table 5: Procedure 3 (paths minimized).

use sft_bench::format::{grouped_paths, header, row};
use sft_bench::{table5_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!("Table 5: Results of Procedure 3 (paths minimized; gates may rise)");
    println!();
    header(&[
        ("circuit(K)", 12),
        ("inp", 5),
        ("out", 5),
        ("2-inp orig", 10),
        ("modif", 8),
        ("paths orig", 14),
        ("modif", 14),
    ]);
    for r in table5_rows(&cfg) {
        row(&[
            (format!("{} ({})", r.name, r.k), 12),
            (r.io.0.to_string(), 5),
            (r.io.1.to_string(), 5),
            (r.gates.0.to_string(), 10),
            (r.gates.1.to_string(), 8),
            (grouped_paths(r.paths.0), 14),
            (grouped_paths(r.paths.1), 14),
        ]);
    }
}
