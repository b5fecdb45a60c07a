//! The table experiments (Tables 2–7 of the paper).

use sft_atpg::remove_redundancies;
use sft_circuits::{suite, suite_small, SuiteEntry};
use sft_core::{procedure2, procedure3, ResynthOptions};
use sft_delay::{pdf_campaign, PdfCampaignConfig};
use sft_netlist::{Circuit, PathCount};
use sft_par::Jobs;
use sft_rambo::{optimize, RamboOptions};
use sft_sim::{campaign, fault_list, CampaignConfig};
use sft_techmap::{map_circuit, Library};

/// Budgets and scaling knobs shared by the experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cone input limits to try (the paper reports the best of K = 5, 6).
    pub k_values: Vec<usize>,
    /// Candidate cap per gate output.
    pub max_candidates: usize,
    /// Random-pattern budget for Table 6 (the paper used 30,000,000).
    pub stuck_at_patterns: u64,
    /// Plateau for Table 7 (the paper used 100,000 pairs).
    pub pdf_plateau: u64,
    /// Hard cap on pattern pairs for Table 7.
    pub pdf_max_pairs: u64,
    /// Path-enumeration cap for Table 7 circuits.
    pub path_limit: usize,
    /// Shared RNG seed — both sides of every before/after comparison see
    /// the identical pattern sequence.
    pub seed: u64,
    /// Use the 3-circuit quick suite instead of the full 8-circuit suite.
    pub quick: bool,
    /// Worker threads for the Table 7 robust PDF campaign's pattern-pair
    /// blocks. Results are bit-identical at any value; every other
    /// experiment runs serially.
    pub jobs: Jobs,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            k_values: vec![5, 6],
            max_candidates: 150,
            stuck_at_patterns: 1 << 16,
            pdf_plateau: 1 << 13,
            pdf_max_pairs: 1 << 16,
            path_limit: 1 << 21,
            seed: 0x5f7,
            quick: false,
            jobs: Jobs::serial(),
        }
    }
}

impl ExperimentConfig {
    /// Parses `--quick` and the `--jobs`, `--patterns`, `--pairs` and
    /// `--seed` value flags from CLI arguments; other arguments are ignored.
    ///
    /// # Errors
    ///
    /// A value flag that is last or whose value does not parse.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        fn value<T>(args: &mut impl Iterator<Item = String>, name: &str) -> Result<T, String>
        where
            T: std::str::FromStr,
            T::Err: std::fmt::Display,
        {
            let v = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map_err(|e| format!("{name} {v:?}: {e}"))
        }
        let mut cfg = ExperimentConfig::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cfg.quick = true,
                "--jobs" => cfg.jobs = value(&mut args, "--jobs")?,
                "--patterns" => cfg.stuck_at_patterns = value(&mut args, "--patterns")?,
                "--pairs" => cfg.pdf_max_pairs = value(&mut args, "--pairs")?,
                "--seed" => cfg.seed = value(&mut args, "--seed")?,
                _ => {}
            }
        }
        Ok(cfg)
    }

    /// [`from_args`](Self::from_args) over the process arguments, for the
    /// table binaries: a bad flag prints the error and exits with status 2.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// The benchmark suite selected by `quick`.
    pub fn suite(&self) -> Vec<SuiteEntry> {
        if self.quick {
            suite_small()
        } else {
            suite()
        }
    }

    fn resynth_options(&self, k: usize) -> ResynthOptions {
        ResynthOptions {
            max_inputs: k,
            max_candidates_per_gate: self.max_candidates,
            ..ResynthOptions::default()
        }
    }
}

/// Runs Procedure 2 for every configured K and returns the best result
/// (fewest gates, ties by fewest paths), with the winning K.
pub fn best_procedure2(circuit: &Circuit, cfg: &ExperimentConfig) -> (Circuit, usize) {
    let mut best: Option<(Circuit, usize)> = None;
    for &k in &cfg.k_values {
        let mut c = circuit.clone();
        procedure2(&mut c, &cfg.resynth_options(k)).expect("resynthesis must verify");
        let better = match &best {
            None => true,
            Some((b, _)) => {
                (c.two_input_gate_count(), c.path_count())
                    < (b.two_input_gate_count(), b.path_count())
            }
        };
        if better {
            best = Some((c, k));
        }
    }
    best.expect("at least one K configured")
}

/// Same selection for Procedure 3 (fewest paths wins).
pub fn best_procedure3(circuit: &Circuit, cfg: &ExperimentConfig) -> (Circuit, usize) {
    let mut best: Option<(Circuit, usize)> = None;
    for &k in &cfg.k_values {
        let mut c = circuit.clone();
        procedure3(&mut c, &cfg.resynth_options(k)).expect("resynthesis must verify");
        let better = match &best {
            None => true,
            Some((b, _)) => c.path_count() < b.path_count(),
        };
        if better {
            best = Some((c, k));
        }
    }
    best.expect("at least one K configured")
}

/// One row of Table 2 (Procedure 2 followed by redundancy removal).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub name: &'static str,
    /// Winning K.
    pub k: usize,
    /// Equivalent 2-input gates: original / modified / after red. removal.
    pub gates: (u64, u64, Option<u64>),
    /// Paths: original / modified / after red. removal
    /// (saturation-aware; see [`PathCount`]).
    pub paths: (PathCount, PathCount, Option<PathCount>),
}

/// Computes Table 2 over the suite.
pub fn table2_rows(cfg: &ExperimentConfig) -> Vec<Table2Row> {
    cfg.suite()
        .into_iter()
        .map(|entry| {
            let (modified, k) = best_procedure2(&entry.circuit, cfg);
            let mut cleaned = modified.clone();
            let report = remove_redundancies(&mut cleaned, 20_000);
            let red = report.removed > 0;
            Table2Row {
                name: entry.name,
                k,
                gates: (
                    entry.circuit.two_input_gate_count(),
                    modified.two_input_gate_count(),
                    red.then(|| cleaned.two_input_gate_count()),
                ),
                paths: (
                    entry.circuit.path_count_exact(),
                    modified.path_count_exact(),
                    red.then(|| cleaned.path_count_exact()),
                ),
            }
        })
        .collect()
}

/// One row of Table 3 (comparison with RAMBO_C).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Circuit name.
    pub name: &'static str,
    /// Original (eq-2 gates, paths).
    pub orig: (u64, PathCount),
    /// After the RAR baseline.
    pub rambo: (u64, PathCount),
    /// Winning K of the follow-up Procedure 2.
    pub k: usize,
    /// After RAR + Procedure 2.
    pub both: (u64, PathCount),
}

/// Computes Table 3 over the four smallest suite entries.
pub fn table3_rows(cfg: &ExperimentConfig) -> Vec<Table3Row> {
    let entries = cfg.suite();
    let take = entries.len().min(4);
    entries
        .into_iter()
        .take(take)
        .map(|entry| {
            let mut rambo = entry.circuit.clone();
            optimize(&mut rambo, &RamboOptions { seed: cfg.seed, ..RamboOptions::default() })
                .expect("RAR must verify");
            let (both, k) = best_procedure2(&rambo, cfg);
            Table3Row {
                name: entry.name,
                orig: (entry.circuit.two_input_gate_count(), entry.circuit.path_count_exact()),
                rambo: (rambo.two_input_gate_count(), rambo.path_count_exact()),
                k,
                both: (both.two_input_gate_count(), both.path_count_exact()),
            }
        })
        .collect()
}

/// One row of Table 4 (technology mapping).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Circuit name.
    pub name: &'static str,
    /// Mapped (literals, longest path) of the original circuit.
    pub original: (u64, u32),
    /// Mapped stats after Procedure 2.
    pub proc2: (u64, u32),
    /// Mapped stats after the RAR baseline.
    pub rambo: (u64, u32),
    /// Mapped stats after RAR + Procedure 2.
    pub rambo_proc2: (u64, u32),
}

/// Computes Table 4 (both sub-tables) over the Table 3 circuits.
pub fn table4_rows(cfg: &ExperimentConfig) -> Vec<Table4Row> {
    let lib = Library::standard();
    let stats = |c: &Circuit| {
        let m = map_circuit(c, &lib);
        (m.literals, m.longest_path)
    };
    let entries = cfg.suite();
    let take = entries.len().min(4);
    entries
        .into_iter()
        .take(take)
        .map(|entry| {
            let (proc2_c, _) = best_procedure2(&entry.circuit, cfg);
            let mut rambo = entry.circuit.clone();
            optimize(&mut rambo, &RamboOptions { seed: cfg.seed, ..RamboOptions::default() })
                .expect("RAR must verify");
            let (both, _) = best_procedure2(&rambo, cfg);
            Table4Row {
                name: entry.name,
                original: stats(&entry.circuit),
                proc2: stats(&proc2_c),
                rambo: stats(&rambo),
                rambo_proc2: stats(&both),
            }
        })
        .collect()
}

/// One row of Table 5 (Procedure 3).
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Circuit name.
    pub name: &'static str,
    /// Winning K.
    pub k: usize,
    /// Primary inputs / outputs.
    pub io: (usize, usize),
    /// Equivalent 2-input gates: original / modified.
    pub gates: (u64, u64),
    /// Paths: original / modified (saturation-aware).
    pub paths: (PathCount, PathCount),
}

/// Computes Table 5 over the suite.
pub fn table5_rows(cfg: &ExperimentConfig) -> Vec<Table5Row> {
    cfg.suite()
        .into_iter()
        .map(|entry| {
            let (modified, k) = best_procedure3(&entry.circuit, cfg);
            Table5Row {
                name: entry.name,
                k,
                io: (entry.circuit.inputs().len(), entry.circuit.outputs().len()),
                gates: (entry.circuit.two_input_gate_count(), modified.two_input_gate_count()),
                paths: (entry.circuit.path_count_exact(), modified.path_count_exact()),
            }
        })
        .collect()
}

/// One row of Table 6 (random-pattern stuck-at testability).
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Circuit name.
    pub name: &'static str,
    /// Original circuit: (faults, remaining, last effective pattern).
    pub original: (usize, usize, Option<u64>),
    /// Modified circuit (Procedure 2 + redundancy removal): same columns.
    pub modified: (usize, usize, Option<u64>),
}

/// Computes Table 6 over the suite: equal seeds and budgets on both sides.
pub fn table6_rows(cfg: &ExperimentConfig) -> Vec<Table6Row> {
    cfg.suite()
        .into_iter()
        .map(|entry| {
            let (mut modified, _) = best_procedure2(&entry.circuit, cfg);
            remove_redundancies(&mut modified, 20_000);
            let run = |c: &Circuit| {
                let faults = fault_list(c);
                let r = campaign(
                    c,
                    &faults,
                    &CampaignConfig {
                        max_patterns: cfg.stuck_at_patterns,
                        plateau: 0,
                        seed: cfg.seed,
                    },
                );
                (r.total_faults, r.remaining(), r.last_effective_pattern)
            };
            Table6Row { name: entry.name, original: run(&entry.circuit), modified: run(&modified) }
        })
        .collect()
}

/// One row of Table 7 (robust PDF detection by random pattern pairs).
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Circuit variant name (`original` or `RAMBO_C`).
    pub variant: &'static str,
    /// Pairs applied before the campaign plateaued.
    pub pairs: (u64, u64),
    /// Before Procedure 2: (detected, total PDF faults).
    pub before: (usize, usize),
    /// After Procedure 2: (detected, total PDF faults).
    pub after: (usize, usize),
}

/// Computes Table 7 on the first suite circuit whose paths are enumerable
/// under the configured limit: the original and its RAR variant, each
/// before and after Procedure 2 — the same 2×2 grid the paper shows for
/// irs13207.
pub fn table7_rows(cfg: &ExperimentConfig) -> Vec<Table7Row> {
    let entry = cfg
        .suite()
        .into_iter()
        .find(|e| e.circuit.path_count() <= cfg.path_limit as u128)
        .expect("some suite circuit must be enumerable");
    let mut rambo = entry.circuit.clone();
    optimize(&mut rambo, &RamboOptions { seed: cfg.seed, ..RamboOptions::default() })
        .expect("RAR must verify");
    let pdf_cfg = PdfCampaignConfig {
        max_pairs: cfg.pdf_max_pairs,
        plateau: cfg.pdf_plateau,
        seed: cfg.seed,
        path_limit: cfg.path_limit,
        jobs: cfg.jobs,
    };
    let run = |c: &Circuit| {
        let r = pdf_campaign(c, &pdf_cfg).expect("path count within limit");
        (r.pairs_applied, r.detected, r.total_faults)
    };
    [("original", entry.circuit), ("RAMBO_C", rambo)]
        .into_iter()
        .map(|(variant, circuit)| {
            let (modified, _) = best_procedure2(&circuit, cfg);
            let (pairs_b, det_b, tot_b) = run(&circuit);
            let (pairs_a, det_a, tot_a) = run(&modified);
            Table7Row {
                variant,
                pairs: (pairs_b, pairs_a),
                before: (det_b, tot_b),
                after: (det_a, tot_a),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            quick: true,
            k_values: vec![5],
            max_candidates: 60,
            stuck_at_patterns: 1 << 10,
            pdf_plateau: 1 << 8,
            pdf_max_pairs: 1 << 10,
            ..ExperimentConfig::default()
        }
    }

    fn parse(args: &[&str]) -> Result<ExperimentConfig, String> {
        ExperimentConfig::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn config_from_args() {
        let cfg = parse(&["--quick", "--patterns", "123", "--seed", "7"]).unwrap();
        assert!(cfg.quick);
        assert_eq!(cfg.stuck_at_patterns, 123);
        assert_eq!(cfg.seed, 7);
    }

    /// A value flag without a value, or with an unparsable one, is an
    /// error naming the flag, not a silent default.
    #[test]
    fn config_from_args_rejects_missing_and_garbage_values() {
        for flag in ["--jobs", "--patterns", "--pairs", "--seed"] {
            for args in [vec!["--quick", flag], vec![flag, "many", "--quick"]] {
                let err = parse(&args).unwrap_err();
                assert!(err.contains(flag), "{args:?}: {err}");
            }
        }
    }

    #[test]
    fn table2_never_increases_gates() {
        for row in table2_rows(&quick_cfg()) {
            assert!(row.gates.1 <= row.gates.0, "{}: {:?}", row.name, row.gates);
            if let Some(after) = row.gates.2 {
                assert!(after <= row.gates.1);
            }
        }
    }

    #[test]
    fn table5_never_increases_paths() {
        for row in table5_rows(&quick_cfg()) {
            assert!(row.paths.1 <= row.paths.0, "{}: {:?}", row.name, row.paths);
        }
    }

    #[test]
    fn table6_equal_budgets() {
        let cfg = quick_cfg();
        for row in table6_rows(&cfg) {
            assert!(row.original.0 > 0 && row.modified.0 > 0, "{}", row.name);
            // The headline claim: random-pattern stuck-at testability does
            // not deteriorate (coverage ratio at equal budget).
            let cov_o = 1.0 - row.original.1 as f64 / row.original.0 as f64;
            let cov_m = 1.0 - row.modified.1 as f64 / row.modified.0 as f64;
            assert!(
                cov_m >= cov_o - 0.02,
                "{}: coverage dropped {cov_o:.4} -> {cov_m:.4}",
                row.name
            );
        }
    }
}
