//! End-to-end tests of `sft serve`: the job-directory protocol, crash
//! recovery (SIGKILL mid-campaign), panic isolation and graceful drain —
//! all through the real binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn sft() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sft"))
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sft-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create temp root");
    root
}

/// A small circuit Procedure 2 actually improves (duplicate AND cone).
const DEMO: &str = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(b, a)\no = OR(t1, t2)\ny = AND(o, c)\n";

/// Submits a job: `.bench` first, then the `.job` commit point.
fn submit(root: &Path, stem: &str, bench: &str, job: &str) {
    let incoming = root.join("jobs/incoming");
    std::fs::create_dir_all(&incoming).expect("create incoming");
    std::fs::write(incoming.join(format!("{stem}.bench")), bench).expect("write bench");
    std::fs::write(incoming.join(format!("{stem}.job")), job).expect("write job");
}

fn serve_once(root: &Path, jobs: &str) -> std::process::Output {
    let out = sft()
        .args(["serve", root.to_str().unwrap(), "--once", "--jobs", jobs])
        .output()
        .expect("spawn sft serve");
    assert!(out.status.success(), "serve failed: {out:?}");
    out
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn wait_for(what: &str, timeout: Duration, mut ready: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ready() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The CI smoke shape: three jobs, one malformed; the daemon drains with
/// two `done` results, one `failed` report, and a clean exit.
#[test]
fn smoke_three_jobs_one_malformed() {
    let root = temp_root("smoke");
    submit(&root, "alpha", DEMO, "objective = gates\n");
    submit(&root, "beta", DEMO, "objective = paths\n");
    submit(&root, "broken", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "");
    let out = serve_once(&root, "2");

    for stem in ["alpha", "beta"] {
        let report = read(root.join(format!("jobs/done/{stem}.report.json")));
        assert!(report.contains("\"outcome\":\"done\""), "{stem}: {report}");
        assert!(root.join(format!("jobs/done/{stem}.bench")).exists(), "{stem} result missing");
    }
    let failed = read(root.join("jobs/failed/broken.report.json"));
    assert!(failed.contains("\"outcome\":\"failed\""), "{failed}");
    assert!(failed.contains("FROB"), "{failed}");

    // The resynthesized output is equivalent to the input (the daemon runs
    // the same engine as `sft resynth`).
    let alpha_in = root.join("jobs_alpha_in.bench");
    std::fs::write(&alpha_in, DEMO).unwrap();
    let eq = sft()
        .args([
            "equiv",
            alpha_in.to_str().unwrap(),
            root.join("jobs/done/alpha.bench").to_str().unwrap(),
        ])
        .output()
        .expect("spawn equiv");
    assert!(eq.status.success(), "{eq:?}");

    // Transient dirs drained; final stats line emitted.
    assert_eq!(std::fs::read_dir(root.join("jobs/incoming")).unwrap().count(), 0);
    assert_eq!(std::fs::read_dir(root.join("jobs/running")).unwrap().count(), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("done=2"), "{stdout}");
    assert!(stdout.contains("failed=1"), "{stdout}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance drill: SIGKILL the daemon mid-campaign and restart —
/// orphans re-run idempotently, finished results never change bytes, and
/// no panic ever reaches the daemon loop.
#[test]
fn kill_daemon_recover_and_quarantine() {
    let root = temp_root("kill");

    // Phase 1 (drained): a baseline job.
    submit(&root, "baseline", DEMO, "objective = gates\n");
    serve_once(&root, "2");
    let baseline_report = read(root.join("jobs/done/baseline.report.json"));
    let baseline_bench = read(root.join("jobs/done/baseline.bench"));

    // Phase 2: a slow job plus quick ones, serving daemon, SIGKILL while
    // the slow job is mid-flight.
    submit(&root, "slow", DEMO, "chaos = sleep:3000\n");
    submit(&root, "quick1", DEMO, "");
    submit(&root, "quick2", DEMO, "");
    let mut daemon = sft()
        .args(["serve", root.to_str().unwrap(), "--jobs", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    wait_for("the slow job to be claimed", Duration::from_secs(20), || {
        root.join("jobs/running/slow.job").exists()
    });
    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap daemon");
    assert!(
        root.join("jobs/running/slow.job").exists(),
        "kill must strand the in-flight job in running/"
    );

    // Phase 3: restart and drain. Everything left must complete.
    let out = serve_once(&root, "1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("re-adopted"), "stdout: {stdout}");
    assert!(!stderr.contains("panicked at"), "panic escaped to daemon stderr: {stderr}");

    for stem in ["slow", "quick1", "quick2"] {
        let report = read(root.join(format!("jobs/done/{stem}.report.json")));
        assert!(report.contains("\"outcome\":\"done\""), "{stem}: {report}");
    }
    // Finished results are immutable across the crash and restart.
    assert_eq!(read(root.join("jobs/done/baseline.report.json")), baseline_report);
    assert_eq!(read(root.join("jobs/done/baseline.bench")), baseline_bench);
    // And the re-run jobs agree with the baseline bit-for-bit (same
    // netlist, same options).
    let slow_bench = read(root.join("jobs/done/slow.bench"));
    assert_eq!(
        baseline_bench.lines().skip(1).collect::<Vec<_>>(),
        slow_bench.lines().skip(1).collect::<Vec<_>>(),
    );
    assert_eq!(std::fs::read_dir(root.join("jobs/running")).unwrap().count(), 0);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A panicking job must not take down the daemon or poison its results.
#[test]
fn panicking_job_does_not_kill_the_daemon() {
    let root = temp_root("panic");
    submit(&root, "boom", DEMO, "chaos = panic\n");
    submit(&root, "calm", DEMO, "");
    let out = serve_once(&root, "2");
    let boom = read(root.join("jobs/failed/boom.report.json"));
    assert!(boom.contains("\"outcome\":\"panicked\""), "{boom}");
    let calm = read(root.join("jobs/done/calm.report.json"));
    assert!(calm.contains("\"outcome\":\"done\""), "{calm}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("panicked=1"), "{stdout}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// SIGTERM drains in-flight work and exits cleanly.
#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully() {
    let root = temp_root("sigterm");
    submit(&root, "steady", DEMO, "");
    let mut daemon = sft()
        .args(["serve", root.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    wait_for("the job to finish", Duration::from_secs(20), || {
        root.join("jobs/done/steady.report.json").exists()
    });
    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "drain exit must be clean: {status:?}");
    std::fs::remove_dir_all(&root).unwrap();
}
