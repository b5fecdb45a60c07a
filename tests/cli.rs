//! Smoke tests for the `sft` command-line driver.

use std::process::Command;

fn sft() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sft"))
}

fn write_bench(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sft-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write bench");
    path
}

const DEMO: &str = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(b, a)\no = OR(t1, t2)\ny = AND(o, c)\n";

#[test]
fn stats_prints_summary() {
    let input = write_bench("stats.bench", DEMO);
    let out = sft().args(["stats", input.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("eq2="), "{text}");
    assert!(text.contains("paths="), "{text}");
}

#[test]
fn resynth_then_equiv_round_trip() {
    let input = write_bench("resynth_in.bench", DEMO);
    let output = write_bench("resynth_out.bench", "");
    let out = sft()
        .args([
            "resynth",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--objective",
            "gates",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    // The CLI's own equivalence checker agrees the result is equivalent.
    let eq = sft()
        .args(["equiv", input.to_str().unwrap(), output.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(eq.status.success(), "{eq:?}");
    assert!(String::from_utf8_lossy(&eq.stdout).contains("equivalent"));
}

#[test]
fn equiv_detects_differences() {
    let a = write_bench("eq_a.bench", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n");
    let b = write_bench("eq_b.bench", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
    let out =
        sft().args(["equiv", a.to_str().unwrap(), b.to_str().unwrap()]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("NOT equivalent"));
}

#[test]
fn testgen_emits_vectors() {
    let input = write_bench("testgen.bench", DEMO);
    let out = sft().args(["testgen", input.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.chars().all(|c| c == '0' || c == '1') && !l.is_empty()));
    assert!(text.contains("coverage"));
}

#[test]
fn export_verilog_and_dot() {
    let input = write_bench("export.bench", DEMO);
    for (flag, needle) in [("--verilog", "module"), ("--dot", "digraph")] {
        let out = sft().args(["export", input.to_str().unwrap(), flag]).output().expect("spawn");
        assert!(out.status.success(), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains(needle), "{flag}");
    }
}

#[test]
fn resynth_with_expired_time_limit_exits_zero_with_partial_result() {
    let input = write_bench("budget_in.bench", DEMO);
    let output = write_bench("budget_out.bench", "");
    // Flags before the files: positional parsing must not eat "0s".
    let out = sft()
        .args(["resynth", "--time-limit", "0s", input.to_str().unwrap(), output.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deadline"), "{text}");
    assert!(text.contains("stopped early"), "{text}");
    // The written result is a valid .bench, function-identical to the input.
    let eq = sft()
        .args(["equiv", input.to_str().unwrap(), output.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(eq.status.success(), "{eq:?}");
    assert!(String::from_utf8_lossy(&eq.stdout).contains("equivalent"));
}

#[test]
fn resynth_step_limit_reports_stop_reason() {
    let input = write_bench("budget_steps_in.bench", DEMO);
    let output = write_bench("budget_steps_out.bench", "");
    let out = sft()
        .args(["resynth", input.to_str().unwrap(), output.to_str().unwrap(), "--step-limit", "1"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("step-budget"), "{text}");
    let eq = sft()
        .args(["equiv", input.to_str().unwrap(), output.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(eq.status.success(), "{eq:?}");
}

#[test]
fn resynth_rejects_bad_duration() {
    let input = write_bench("bad_dur.bench", DEMO);
    let output = write_bench("bad_dur_out.bench", "");
    let out = sft()
        .args([
            "resynth",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--time-limit",
            "tomorrow",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad duration"));
}

#[test]
fn testgen_with_step_limit_reports_partial_set() {
    let input = write_bench("testgen_budget.bench", DEMO);
    let out = sft()
        .args(["testgen", input.to_str().unwrap(), "--step-limit", "0"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stopped early"), "{text}");
    assert!(text.contains("untargeted"), "{text}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = sft().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn techmap_and_pdf_report() {
    let input = write_bench("tm.bench", DEMO);
    let out = sft().args(["techmap", input.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("literals"));

    let out =
        sft().args(["pdf", input.to_str().unwrap(), "--pairs", "512"]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("robust path delay faults"));
}

/// `sft pdf --jobs N` is bit-identical to the serial run: same report, on
/// an adder whose coverage is still rising after 16 pair blocks.
#[test]
fn pdf_jobs_flag_matches_serial_run() {
    let input = write_bench("jobs_in.bench", "");
    let out = sft()
        .args(["gen", "adder", input.to_str().unwrap(), "--width", "8"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let report = |jobs: &str| {
        let out = sft()
            .args(["pdf", input.to_str().unwrap(), "--pairs", "1024", "--jobs", jobs])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let serial = report("1");
    assert!(serial.contains("robust path delay faults detected"), "{serial}");
    assert!(!serial.starts_with("0/"), "the campaign must detect something: {serial}");
    assert_eq!(serial, report("2"));
}

#[test]
fn jobs_flag_rejects_missing_and_garbage_values() {
    let input = write_bench("jobs_bad.bench", DEMO);
    for extra in [vec!["--jobs"], vec!["--jobs", "zero"]] {
        let mut args = vec!["pdf", input.to_str().unwrap()];
        args.extend(extra);
        let out = sft().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--jobs"), "{err}");
    }
}

/// `sft serve` budget and stats options given without a value are errors,
/// not silent defaults.
#[test]
fn serve_rejects_options_without_values() {
    let root = std::env::temp_dir().join(format!("sft-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create serve root");
    for option in ["--step-limit", "--time-limit", "--stats-every"] {
        let out = sft()
            .args(["serve", root.to_str().unwrap(), "--once", option])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{option}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(option), "{option}: {err}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// An unparsable numeric option is an error, not a silent default.
#[test]
fn numeric_options_reject_garbage_values() {
    let input = write_bench("num_bad.bench", DEMO);
    let output = write_bench("num_bad_out.bench", "");
    let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
    for (args, option) in [
        (vec!["resynth", input, output, "--k", "six"], "--k"),
        (vec!["resynth", input, output, "--covers", "two"], "--covers"),
        (vec!["resynth", input, output, "--k"], "--k"),
        (vec!["resynth", input, output, "--k", "0"], "--k 0: outside 1..=7"),
        (vec!["resynth", input, output, "--k", "8"], "--k 8: outside 1..=7"),
        (vec!["resynth", input, output, "--k", "12"], "--k 12: outside 1..=7"),
        (vec!["pdf", input, "--pairs", "many"], "--pairs"),
    ] {
        let out = sft().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(option), "{args:?}: {err}");
    }
}

/// Both ends of the cut engine's range of K are accepted.
#[test]
fn resynth_accepts_k_1_and_7() {
    let input = write_bench("k_range_in.bench", DEMO);
    let output = write_bench("k_range_out.bench", "");
    let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
    for k in ["1", "7"] {
        let out = sft().args(["resynth", input, output, "--k", k]).output().expect("spawn");
        assert!(out.status.success(), "--k {k}: {out:?}");
    }
}

/// An option the subcommand does not read — misspelt, retired, or another
/// command's — is an error that names it, not silently ignored.
#[test]
fn unknown_options_are_rejected_by_name() {
    let input = write_bench("unknown_opt.bench", DEMO);
    let output = write_bench("unknown_opt_out.bench", "");
    let root = std::env::temp_dir().join(format!("sft-cli-unknown-{}", std::process::id()));
    let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
    for (args, option) in [
        (vec!["resynth", input, output, "--frobnicate"], "--frobnicate"),
        (vec!["resynth", input, output, "--jobs", "4"], "--jobs"),
        (vec!["testgen", input, "--jobs", "2", "--bogus", "3"], "--jobs"),
        (vec!["stats", input, "--bogus"], "--bogus"),
        (vec!["equiv", input, input, "--to", "aag"], "--to"),
        (vec!["gen", "adder", output, "--width", "4", "--copies2", "3"], "--copies2"),
        (vec!["serve", root.to_str().unwrap(), "--once", "--from", "bench"], "--from"),
    ] {
        let out = sft().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option") && err.contains(option), "{args:?}: {err}");
    }
    assert!(!root.exists(), "a rejected serve must not create its root");
}

#[test]
fn convert_round_trips_through_verilog_and_aiger() {
    let input = write_bench("conv.bench", DEMO);
    let dir = input.parent().unwrap().to_path_buf();
    for (mid, back) in [("conv.v", "conv_v.bench"), ("conv.aig", "conv_a.bench")] {
        let mid = dir.join(mid);
        let back = dir.join(back);
        let out = sft()
            .args(["convert", input.to_str().unwrap(), mid.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{out:?}");
        let out = sft()
            .args(["convert", mid.to_str().unwrap(), back.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{out:?}");
        let eq = sft()
            .args(["equiv", input.to_str().unwrap(), back.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(eq.status.success(), "{eq:?}");
        assert!(String::from_utf8_lossy(&eq.stdout).contains("equivalent"));
    }
}

#[test]
fn convert_honours_from_to_and_lut_k() {
    let input = write_bench("conv_force.txt", DEMO); // unknown extension
    let dir = input.parent().unwrap().to_path_buf();
    let lut = dir.join("conv_force.lut");
    let out = sft()
        .args([
            "convert",
            input.to_str().unwrap(),
            lut.to_str().unwrap(),
            "--from",
            "bench",
            "--to",
            "lut",
            "--lut-k",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&lut).unwrap();
    assert!(text.contains("K 3"), "{text}");

    let bad = sft()
        .args(["convert", input.to_str().unwrap(), lut.to_str().unwrap(), "--from", "edif"])
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown format"));
}

#[test]
fn convert_rejects_malformed_inputs_with_typed_errors() {
    let truncated = write_bench("broken.aag", "aag 3 2 0 1 1\n2\n4\n6\n");
    let out_path = write_bench("broken_out.bench", "");
    let out = sft()
        .args(["convert", truncated.to_str().unwrap(), out_path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line"), "{err}");

    let undeclared = write_bench(
        "ghost.v",
        "module m (input a, output y);\n  and g (y, a, ghost);\nendmodule\n",
    );
    let out = sft()
        .args(["convert", undeclared.to_str().unwrap(), out_path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ghost"), "{err}");
}

#[test]
fn gen_emits_any_format_by_extension() {
    let dir = std::env::temp_dir().join("sft-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for name in ["gen8.aag", "gen8.v", "gen8.lut"] {
        let path = dir.join(name);
        let out = sft()
            .args(["gen", "adder", path.to_str().unwrap(), "--width", "8"])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{name}: {out:?}");
        let stats = sft().args(["stats", path.to_str().unwrap()]).output().expect("spawn");
        assert!(stats.status.success(), "{name}: {stats:?}");
        assert!(String::from_utf8_lossy(&stats.stdout).contains("in=17"), "{name}");
    }
}

/// A reader that closes its end of the pipe early (`sft ... | head -1`)
/// drops the rest of the output quietly: no panic, exit 0, and a command
/// with an output file still writes it. The `--dot` export is larger than
/// a pipe buffer, so its writes fail whichever way the close races them.
#[test]
fn closed_stdout_ends_output_quietly() {
    let input = write_bench("pipe_in.bench", "");
    let out = sft()
        .args(["gen", "mul", input.to_str().unwrap(), "--width", "16"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let small = write_bench("pipe_small.bench", DEMO);
    let result = write_bench("pipe_out.bench", "");
    std::fs::remove_file(&result).expect("remove stale output");
    let (input, small, result) =
        (input.to_str().unwrap(), small.to_str().unwrap(), result.to_str().unwrap());
    for args in
        [vec!["export", input, "--dot"], vec!["resynth", small, result, "--step-limit", "20000"]]
    {
        let mut child = sft()
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    assert!(std::path::Path::new(result).exists(), "resynth must still write its output");
}
