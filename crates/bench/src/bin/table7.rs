//! Regenerates Table 7: robust path-delay-fault detection by random
//! pattern pairs, on the first suite circuit and its RAR variant, before
//! and after Procedure 2.

use sft_bench::format::{grouped, header, row};
use sft_bench::{table7_rows, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!(
        "Table 7: Robust PDF detection by random pairs (plateau {}, seed {})",
        grouped(cfg.pdf_plateau as u128),
        cfg.seed
    );
    println!();
    header(&[
        ("circuit", 9),
        ("pairs", 8),
        ("det/faults before P2", 22),
        ("det/faults after P2", 22),
    ]);
    for r in table7_rows(&cfg) {
        row(&[
            (r.variant.to_string(), 9),
            (r.pairs.0.to_string(), 8),
            (format!("{}/{}", grouped(r.before.0 as u128), grouped(r.before.1 as u128)), 22),
            (format!("{}/{}", grouped(r.after.0 as u128), grouped(r.after.1 as u128)), 22),
        ]);
    }
}
