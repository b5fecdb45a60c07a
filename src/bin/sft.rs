//! `sft` — command-line driver for the synthesis-for-testability flow.
//!
//! ```text
//! sft stats      <in>                            circuit statistics
//! sft resynth    <in> <out> [opts]               Procedures 2/3
//! sft redundancy <in> <out>                      redundancy removal
//! sft testgen    <in>                            compact stuck-at test set
//! sft equiv      <a> <b>                         BDD equivalence check
//! sft techmap    <in>                            map & report literals/depth
//! sft pdf        <in> [--pairs N]                robust PDF campaign
//! sft convert    <in> <out>                      circuit format conversion
//! sft export     <in> (--verilog|--dot)          one-shot stdout export
//! sft serve      <root> [opts]                   job-directory daemon
//! sft gen        <kind> <out> [opts]             scale-tier circuit generation
//! ```
//!
//! Every command that reads or writes a circuit file speaks all the
//! formats of `docs/formats.md`: ISCAS-89 `.bench`, structural Verilog
//! (`.v`), ASCII/binary AIGER (`.aag`/`.aig`) and LUT-k coverings
//! (`.lut`). The format is chosen by file extension (unknown extensions
//! default to `.bench`) and can be forced with `--from <fmt>` for inputs
//! and `--to <fmt>` for outputs; `--lut-k N` sets the cut width of `.lut`
//! output. `sft convert a.bench b.aig` is the dedicated converter.
//!
//! `sft gen` kinds: `mul`/`adder`/`alu` (arithmetic, `--width N`), `dag`
//! (sliding-window random DAG, `--inputs/--outputs/--gates/--window/--seed`)
//! and `stitch` (`--copies N` XOR-checksummed random cores, same shape
//! options per core). Generation is deterministic in the parameters.
//!
//! Resynthesis options: `--objective gates|paths|combined`, `--k N` (1–7),
//! `--negation`, `--covers N`, `--dont-cares`.
//!
//! Every subcommand rejects, by name, a `--` option it does not read.
//!
//! Effort options (resynth, testgen, pdf): `--time-limit <dur>` (e.g.
//! `500ms`, `10s`, `2m`, `1h`, or bare seconds) and `--step-limit <N>`
//! bound the run. An exhausted budget is not an error: the command prints
//! the stop reason, writes the best verified partial result, and exits 0.
//!
//! Parallelism (pdf only): `--jobs N` simulates pattern-pair blocks on `N`
//! worker threads (`0` or `all` = every core; default 1). Results are
//! bit-identical at any value. Every other command runs on one thread.
//!
//! Fault simulation (testgen) resolves detections by critical-path tracing
//! inside fanout-free regions with dominator-gated stem observability.
//!
//! `sft serve <root>` watches `<root>/jobs/incoming/` for `.bench`+`.job`
//! pairs and writes results to `<root>/jobs/done|failed/`. Options:
//! `--jobs N` concurrent jobs (default: all cores), `--queue N` waiting
//! slots before shedding, `--once` (drain and exit), `--time-limit` /
//! `--step-limit` default per-job budgets, `--max-attempts N` and
//! `--stats-every <dur>`.
//! Stop with SIGINT/SIGTERM (once = drain, twice = cancel in-flight) or by
//! creating `<root>/jobs/control/stop`.

use sft::atpg::{generate_test_set_with_budget, remove_redundancies, TestSetOptions};
use sft::budget::{Budget, StopReason};
use sft::circuits::{gen, random::RandomCircuitConfig};
use sft::core::{resynthesize_with_budget, Objective, ResynthOptions};
use sft::delay::{pdf_campaign_with_budget, PdfCampaignConfig};
use sft::io::{Format, WriteOptions};
use sft::netlist::{export, Circuit};
use sft::par::Jobs;
use sft::techmap::{map_circuit, Library};
use sft::truth::MAX_INPUTS;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::time::Duration;

/// `println!` to stdout, with the closed-reader rule of [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that has gone away (`sft ... | head -1`) is
/// not an error: the rest of the output is dropped and the command still
/// finishes its work, such as writing its output file.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(e.kind() == ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}

/// Resolves the circuit format for `path`: an explicit `--from`/`--to`
/// name wins, otherwise the file extension decides, defaulting to
/// `.bench` for unknown extensions.
fn format_for(path: &str, forced: Option<&str>) -> Result<Format, String> {
    match forced {
        Some(name) => Format::from_name(name).ok_or_else(|| {
            format!("unknown format {name:?} (use bench, verilog, aag, aig or lut)")
        }),
        None => Ok(Format::from_path(std::path::Path::new(path)).unwrap_or(Format::Bench)),
    }
}

/// Reads a circuit in the format named by `--from` or the extension.
fn load(path: &str, args: &[String]) -> Result<Circuit, String> {
    let format = format_for(path, opt(args, "--from").as_deref())?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit")
        .to_string();
    sft::io::parse_bytes(&bytes, format, &name).map_err(|e| format!("{path}: {e}"))
}

/// Writes a circuit in the format named by `--to` or the extension.
fn save(path: &str, circuit: &Circuit, args: &[String]) -> Result<(), String> {
    let format = format_for(path, opt(args, "--to").as_deref())?;
    let options = WriteOptions { lut_k: num(args, "--lut-k", WriteOptions::default().lut_k)? };
    let bytes =
        sft::io::write_bytes(circuit, format, &options).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Options that take a value; their value token is not a positional arg.
const VALUE_OPTIONS: &[&str] = &[
    "--objective",
    "--k",
    "--covers",
    "--pairs",
    "--time-limit",
    "--step-limit",
    "--jobs",
    "--queue",
    "--max-attempts",
    "--stats-every",
    "--width",
    "--inputs",
    "--outputs",
    "--gates",
    "--window",
    "--seed",
    "--copies",
    "--from",
    "--to",
    "--lut-k",
];

/// The options of each subcommand, space-separated. `--from` goes with
/// every command that reads a circuit file, `--to` and `--lut-k` with every
/// one that writes one. `None` for `help` and unknown commands.
fn known_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "stats" | "equiv" | "techmap" => "--from",
        "resynth" => {
            "--from --to --lut-k --objective --k --negation --covers --dont-cares \
             --time-limit --step-limit"
        }
        "redundancy" | "convert" => "--from --to --lut-k",
        "testgen" => "--from --time-limit --step-limit",
        "pdf" => "--from --pairs --jobs --time-limit --step-limit",
        "export" => "--from --verilog --dot",
        "gen" => "--to --lut-k --width --inputs --outputs --gates --window --seed --copies",
        "serve" => "--jobs --once --queue --time-limit --step-limit --max-attempts --stats-every",
        _ => return None,
    })
}

/// Rejects a `--` option that `command` does not read, naming it, so a
/// misspelt or retired flag is not silently ignored.
fn check_options(command: &str, args: &[String]) -> Result<(), String> {
    let Some(known) = known_options(command) else { return Ok(()) };
    let mut skip = false;
    for a in args {
        if std::mem::take(&mut skip) {
            continue;
        }
        if a.starts_with("--") && !known.split_whitespace().any(|k| k == a) {
            return Err(format!("unknown option {a:?} for `sft {command}`"));
        }
        skip = VALUE_OPTIONS.contains(&a.as_str());
    }
    Ok(())
}

/// The value of option `name`, or `None` without it. The option given
/// without a value is an error.
fn value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match (flag(args, name), opt(args, name)) {
        (true, None) => Err(format!("{name} needs a value")),
        (_, v) => Ok(v),
    }
}

/// Parses the value of the numeric option `name` (a count, or `--jobs`),
/// or returns `default` without it. A missing or unparsable value is an
/// error.
fn num<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match value(args, name)? {
        Some(v) => v.parse().map_err(|e| format!("{name} {v:?}: {e}")),
        None => Ok(default),
    }
}

/// The non-flag arguments, in order, so flags may appear anywhere
/// (`sft resynth --time-limit 0s in.bench out.bench` works).
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_OPTIONS.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

/// Parses `10s`, `500ms`, `2m`, `1h` or bare seconds (`15`).
fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let (number, unit) = match text.find(|c: char| !c.is_ascii_digit() && c != '.') {
        Some(i) => text.split_at(i),
        None => (text, "s"),
    };
    let value: f64 =
        number.parse().map_err(|_| format!("bad duration {text:?} (try 10s, 500ms, 2m)"))?;
    let seconds = match unit {
        "ms" => value / 1000.0,
        "s" => value,
        "m" => value * 60.0,
        "h" => value * 3600.0,
        other => return Err(format!("bad duration unit {other:?} (use ms, s, m or h)")),
    };
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(format!("bad duration {text:?}"));
    }
    Ok(Duration::from_secs_f64(seconds))
}

/// Parses a `--step-limit` value.
fn step_limit(text: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("bad step limit {text:?}"))
}

/// Builds the effort budget from `--time-limit` / `--step-limit`.
fn budget_from(args: &[String]) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(limit) = value(args, "--time-limit")? {
        budget = budget.with_time_limit(parse_duration(&limit)?);
    }
    if let Some(limit) = value(args, "--step-limit")? {
        budget = budget.with_step_limit(step_limit(&limit)?);
    }
    Ok(budget)
}

/// One-line stop-reason note for budget-aware commands.
fn print_stop(reason: StopReason) {
    if reason.is_early() {
        outln!("stopped early: {reason} (partial result kept)");
    } else {
        outln!("stop reason: {reason}");
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(
            "usage: sft <stats|resynth|redundancy|testgen|equiv|techmap|pdf|convert|export|serve|gen> \
                    ...\nsee `sft help`"
                .into(),
        );
    };
    let rest = &args[1..];
    check_options(command, rest)?;
    match command.as_str() {
        "help" => {
            outln!("see the crate README for full usage; commands:");
            outln!("  stats resynth redundancy testgen equiv techmap pdf convert export serve gen");
            Ok(())
        }
        "stats" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("stats needs an input file")?, rest)?;
            outln!("{}: {}", c.name(), c.stats());
            outln!("{}: {}", c.name(), c.memory_stats());
            Ok(())
        }
        "resynth" => {
            let files = positionals(rest);
            let input = files.first().ok_or("resynth needs input and output files")?;
            let output = files.get(1).ok_or("resynth needs an output file")?;
            let mut c = load(input, rest)?;
            let objective = match opt(rest, "--objective").as_deref() {
                None | Some("gates") => Objective::Gates,
                Some("paths") => Objective::Paths,
                Some("combined") => Objective::Combined { gate_weight: 1, path_weight: 1 },
                Some(other) => return Err(format!("unknown objective {other:?}")),
            };
            let k = num(rest, "--k", 5)?;
            if !(1..=MAX_INPUTS).contains(&k) {
                return Err(format!("--k {k}: outside 1..={MAX_INPUTS}"));
            }
            let opts = ResynthOptions {
                objective,
                max_inputs: k,
                allow_input_negation: flag(rest, "--negation"),
                max_cover_units: num(rest, "--covers", 1)?,
                use_satisfiability_dont_cares: flag(rest, "--dont-cares"),
                ..ResynthOptions::default()
            };
            let budget = budget_from(rest)?;
            let report =
                resynthesize_with_budget(&mut c, &opts, &budget).map_err(|e| e.to_string())?;
            outln!("{report}");
            print_stop(report.stop_reason);
            save(output, &c, rest)
        }
        "redundancy" => {
            let files = positionals(rest);
            let input = files.first().ok_or("redundancy needs input and output files")?;
            let output = files.get(1).ok_or("redundancy needs an output file")?;
            let mut c = load(input, rest)?;
            let report = remove_redundancies(&mut c, 50_000);
            outln!(
                "{} removed, {} aborted, gates {} -> {}",
                report.removed,
                report.aborted,
                report.gates_before,
                report.gates_after
            );
            save(output, &c, rest)
        }
        "testgen" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("testgen needs an input file")?, rest)?;
            let budget = budget_from(rest)?;
            let set = generate_test_set_with_budget(&c, &TestSetOptions::default(), &budget);
            outln!(
                "# {} faults, {} redundant, {} aborted, {} untargeted, coverage {:.2}%",
                set.total_faults,
                set.redundant,
                set.aborted,
                set.untargeted,
                set.coverage() * 100.0
            );
            if set.stop_reason.is_early() {
                outln!("# stopped early: {} (partial test set kept)", set.stop_reason);
            }
            for v in &set.vectors {
                let s: String = v.iter().map(|&b| if b { '1' } else { '0' }).collect();
                outln!("{s}");
            }
            Ok(())
        }
        "equiv" => {
            let files = positionals(rest);
            let a = load(files.first().ok_or("equiv needs two files")?, rest)?;
            let b = load(files.get(1).ok_or("equiv needs two files")?, rest)?;
            match sft::bdd::equivalent(&a, &b).map_err(|e| e.to_string())? {
                sft::bdd::CheckResult::Equivalent => {
                    outln!("equivalent");
                    Ok(())
                }
                sft::bdd::CheckResult::Different { output, witness } => {
                    let w: String = witness.iter().map(|&x| if x { '1' } else { '0' }).collect();
                    Err(format!("NOT equivalent: output {output} differs on input {w}"))
                }
            }
        }
        "techmap" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("techmap needs an input file")?, rest)?;
            outln!("{}", map_circuit(&c, &Library::standard()));
            Ok(())
        }
        "pdf" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("pdf needs an input file")?, rest)?;
            let cfg = PdfCampaignConfig {
                max_pairs: num(rest, "--pairs", 1 << 14)?,
                jobs: num(rest, "--jobs", Jobs::serial())?,
                ..PdfCampaignConfig::default()
            };
            let budget = budget_from(rest)?;
            let r = pdf_campaign_with_budget(&c, &cfg, &budget).map_err(|e| e.to_string())?;
            outln!(
                "{}/{} robust path delay faults detected ({:.2}%) in {} pairs",
                r.detected,
                r.total_faults,
                r.coverage() * 100.0,
                r.pairs_applied
            );
            print_stop(r.stop_reason);
            Ok(())
        }
        "convert" => {
            let files = positionals(rest);
            let input = files.first().ok_or("convert needs input and output files")?;
            let output = files.get(1).ok_or("convert needs an output file")?;
            let c = load(input, rest)?;
            save(output, &c, rest)?;
            outln!(
                "{}: {} -> {} ({})",
                c.name(),
                format_for(input, opt(rest, "--from").as_deref())?,
                format_for(output, opt(rest, "--to").as_deref())?,
                c.stats()
            );
            Ok(())
        }
        "export" => {
            let files = positionals(rest);
            let c = load(files.first().ok_or("export needs an input file")?, rest)?;
            if flag(rest, "--verilog") {
                emit(format_args!("{}", sft::io::verilog::write(&c).map_err(|e| e.to_string())?));
            } else if flag(rest, "--dot") {
                emit(format_args!("{}", export::write_dot(&c)));
            } else {
                return Err("export needs --verilog or --dot".into());
            }
            Ok(())
        }
        "gen" => {
            let files = positionals(rest);
            let kind =
                files.first().ok_or("gen needs a kind: mul, adder, alu, dag or stitch")?.as_str();
            let output = files.get(1).ok_or("gen needs an output file")?;
            let size = |name: &str, default: usize| num(rest, name, default);
            let seed: u64 = num(rest, "--seed", 1)?;
            let c = match kind {
                "mul" => gen::wide_multiplier(size("--width", 32)?),
                "adder" => gen::wide_adder(size("--width", 64)?),
                "alu" => gen::alu(size("--width", 64)?),
                "dag" => gen::deep_dag(&RandomCircuitConfig {
                    inputs: size("--inputs", 64)?,
                    outputs: size("--outputs", 32)?,
                    gates: size("--gates", 100_000)?,
                    window: size("--window", 48)?,
                    seed,
                }),
                "stitch" => gen::stitched(
                    size("--copies", 100)?,
                    &RandomCircuitConfig {
                        inputs: size("--inputs", 32)?,
                        outputs: size("--outputs", 16)?,
                        gates: size("--gates", 260)?,
                        window: size("--window", 56)?,
                        seed,
                    },
                ),
                other => {
                    return Err(format!("unknown gen kind {other:?} (mul|adder|alu|dag|stitch)"))
                }
            };
            outln!("{}: {}", c.name(), c.stats());
            save(output, &c, rest)
        }
        "serve" => {
            let files = positionals(rest);
            let root = files.first().ok_or("serve needs a root directory")?;
            let mut config = sft::serve::ServeConfig::new(root.as_str());
            config.jobs = num(rest, "--jobs", config.jobs)?;
            config.once = flag(rest, "--once");
            config.queue = num(rest, "--queue", config.queue)?;
            if let Some(limit) = value(rest, "--time-limit")? {
                config.default_time_limit = Some(parse_duration(&limit)?);
            }
            if let Some(limit) = value(rest, "--step-limit")? {
                config.default_step_limit = Some(step_limit(&limit)?);
            }
            config.max_attempts = num(rest, "--max-attempts", config.max_attempts)?;
            if config.max_attempts == 0 {
                return Err("--max-attempts must be at least 1".into());
            }
            if let Some(period) = value(rest, "--stats-every")? {
                config.stats_every = parse_duration(&period)?;
            }
            sft::serve::serve(&config).map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; see `sft help`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
