//! The job-directory daemon: scan, admit, isolate, report, survive.
//!
//! # Job lifecycle
//!
//! A request is two files dropped into `<root>/jobs/incoming/`: the netlist
//! payload `<stem>.<ext>` and the spec `<stem>.job` (write the payload
//! first — the `.job` file is the commit point the scanner keys on). The
//! payload may be any circuit format `sft-io` reads — `.bench`, structural
//! Verilog `.v`, ASCII/binary AIGER `.aag`/`.aig`, or a `.lut` covering —
//! and the result netlist is written back in the *same* format. From there:
//!
//! ```text
//! incoming/ --claim (rename)--> running/ --success--> done/   (payload + .report.json)
//!     ^                           |
//!     |        retryable failure, |  terminal failure / panic / shed
//!     +------- attempts left -----+--------> failed/ (.job [+ payload] + .report.json)
//! ```
//!
//! Every transition is a `rename` on the same filesystem, so a job is in
//! exactly one directory at any instant and a crash at any point leaves it
//! in a well-defined place: on restart, everything found in `running/` is
//! an orphan of a dead daemon and is renamed back to `incoming/` to be
//! re-run. Re-running is idempotent — reports and result netlists are
//! written atomically and first-write-wins (see [`crate::outcome`]), so a
//! consumer can never observe a `done/` result change underneath it.
//!
//! # Isolation and degradation
//!
//! Each job runs under `catch_unwind`: a panicking engine produces a
//! `panicked` report for *that job* and the daemon keeps serving. A fixed
//! pool of `--jobs` worker threads runs the jobs; the main loop claims a
//! job only for a free worker and wakes as soon as one finishes. Admission
//! control puts a bounded wait queue on top: jobs beyond both are shed with
//! an explicit `overloaded` outcome rather than queued without bound.
//! Transient failures (unreadable files mid-drop) are retried with linear
//! backoff up to a per-job attempt cap, then reported terminally.
//!
//! # Shutdown
//!
//! The first SIGINT/SIGTERM (or the appearance of `<root>/jobs/control/stop`)
//! stops claiming and drains in-flight jobs; a second signal additionally
//! cancels in-flight engines through their budgets (they roll back to their
//! last verified pass and report `cancelled`). SIGKILL needs no
//! cooperation: the rename protocol plus atomic first-write-wins reports
//! make restart recovery exact.

use crate::outcome::{write_new, EngineOutcome, JobReport, Outcome};
use crate::spec::{parse_spec, Chaos};
use sft_budget::{Budget, CancelFlag};
use sft_core::{resynthesize_with_budget, ResynthReport};
use sft_io::{Format, WriteOptions};
use sft_par::Jobs;
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon configuration. Start from [`ServeConfig::new`] and override
/// fields; the defaults are production-shaped (all cores, bounded queue,
/// signals handled).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root directory; the daemon owns `<root>/jobs/*`.
    pub root: PathBuf,
    /// Worker threads in the pool: the most jobs in flight at once.
    pub jobs: Jobs,
    /// Jobs allowed to wait in `incoming/` once all slots are busy before
    /// new arrivals are shed with an `overloaded` outcome.
    pub queue: usize,
    /// Process everything present, drain, and exit (for tests, benches and
    /// batch use) instead of serving until a signal.
    pub once: bool,
    /// Ignored: the daemon keeps no cache image. Kept only because
    /// `perfbench/` still sets it.
    pub cache: Option<PathBuf>,
    /// Wall-clock budget applied to jobs whose spec names none.
    pub default_time_limit: Option<Duration>,
    /// Step budget applied to jobs whose spec names none.
    pub default_step_limit: Option<u64>,
    /// Attempts per job before a retryable failure becomes terminal.
    pub max_attempts: u32,
    /// Base backoff between attempts (linear: `attempt * backoff`).
    pub retry_backoff: Duration,
    /// The longest the main loop waits for a job to finish before it scans
    /// `incoming/` again (a finished job wakes it at once), and so the
    /// longest a new submission waits for a free worker to be noticed.
    pub poll: Duration,
    /// Period of the stats line.
    pub stats_every: Duration,
    /// Install SIGINT/SIGTERM handlers (disable when embedding the daemon
    /// in a process that owns its own signal disposition).
    pub handle_signals: bool,
}

impl ServeConfig {
    /// Production-shaped defaults rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            root: root.into(),
            jobs: Jobs::all_cores(),
            queue: 16,
            once: false,
            cache: None,
            default_time_limit: None,
            default_step_limit: None,
            max_attempts: 3,
            retry_backoff: Duration::from_millis(50),
            poll: Duration::from_millis(10),
            stats_every: Duration::from_secs(10),
            handle_signals: true,
        }
    }
}

/// Final counter snapshot returned by [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Jobs claimed and started.
    pub accepted: u64,
    /// Jobs that produced a `done` result.
    pub done: u64,
    /// Jobs that ended `failed` or `panicked`.
    pub failed: u64,
    /// Jobs shed with an `overloaded` outcome.
    pub shed: u64,
    /// Retry attempts scheduled (not jobs: one job may retry twice).
    pub retried: u64,
    /// Jobs whose worker panicked (also counted in `failed`).
    pub panicked: u64,
    /// Always 0: no cache image is loaded. Kept only because `perfbench/`
    /// still reads it.
    pub cache_loaded_entries: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retried: AtomicU64,
    panicked: AtomicU64,
}

impl Counters {
    fn summary(&self) -> ServeSummary {
        ServeSummary {
            accepted: self.accepted.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            cache_loaded_entries: 0,
        }
    }

    fn stats_line(&self) -> String {
        let s = self.summary();
        format!(
            "serve: accepted={} done={} failed={} shed={} retried={} panicked={}",
            s.accepted, s.done, s.failed, s.shed, s.retried, s.panicked,
        )
    }
}

/// Signal plumbing: the handler only bumps an atomic; the main loop polls
/// it. Async-signal-safe by construction (no allocation, no locks).
mod signals {
    use super::{AtomicUsize, Ordering};

    pub static COUNT: AtomicUsize = AtomicUsize::new(0);

    pub fn count() -> usize {
        COUNT.load(Ordering::SeqCst)
    }

    pub fn reset() {
        COUNT.store(0, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" fn on_signal(_signum: i32) {
            COUNT.fetch_add(1, Ordering::SeqCst);
        }
        // `signal` comes from libc, which std already links on unix; no
        // external crate needed for two classic dispositions.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

struct Dirs {
    incoming: PathBuf,
    running: PathBuf,
    done: PathBuf,
    failed: PathBuf,
    control: PathBuf,
}

impl Dirs {
    fn ensure(root: &Path) -> io::Result<Dirs> {
        let jobs = root.join("jobs");
        let dirs = Dirs {
            incoming: jobs.join("incoming"),
            running: jobs.join("running"),
            done: jobs.join("done"),
            failed: jobs.join("failed"),
            control: jobs.join("control"),
        };
        for d in [&dirs.incoming, &dirs.running, &dirs.done, &dirs.failed, &dirs.control] {
            std::fs::create_dir_all(d)?;
        }
        Ok(dirs)
    }

    fn stop_file(&self) -> PathBuf {
        self.control.join("stop")
    }
}

#[derive(Clone, Copy)]
struct RetryEntry {
    attempts: u32,
    eligible_at: Instant,
}

/// How a job attempt failed, and what the daemon should do about it.
enum JobFailure {
    /// Try again after backoff (transient I/O, injected transient chaos).
    Retryable(String),
    /// Report and move to `failed/` (bad request, engine error, panic).
    Terminal(Outcome, String),
}

#[derive(Clone, Copy)]
struct Ctx<'a> {
    dirs: &'a Dirs,
    config: &'a ServeConfig,
    counters: &'a Counters,
    retry: &'a Mutex<HashMap<String, RetryEntry>>,
    cancel: &'a CancelFlag,
}

fn lock_retry<'a>(
    retry: &'a Mutex<HashMap<String, RetryEntry>>,
) -> std::sync::MutexGuard<'a, HashMap<String, RetryEntry>> {
    // The map holds plain data; a panicking holder cannot leave it
    // inconsistent, so poisoning is ignorable.
    match retry.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sorted stems of `incoming/*.job` (the scanner's work list).
fn scan_incoming(dirs: &Dirs) -> io::Result<Vec<String>> {
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(&dirs.incoming)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("job") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();
    Ok(stems)
}

/// Payload extensions the daemon accepts, in claim-precedence order.
/// Mirrors [`Format::ALL`]; the first payload found wins when a stem has
/// several.
fn payload_extensions() -> impl Iterator<Item = &'static str> {
    Format::ALL.iter().map(|f| f.extension())
}

/// Claims `stem` by renaming its `.job` out of `incoming/`; any payload
/// file follows if present. Returns `false` when someone else won the
/// rename.
fn claim(dirs: &Dirs, stem: &str) -> bool {
    let job = format!("{stem}.job");
    if std::fs::rename(dirs.incoming.join(&job), dirs.running.join(&job)).is_err() {
        return false;
    }
    for ext in payload_extensions() {
        let payload = format!("{stem}.{ext}");
        let _ = std::fs::rename(dirs.incoming.join(&payload), dirs.running.join(&payload));
    }
    true
}

/// Renames the spec and every payload variant from `from` into `to`,
/// ignoring missing files.
fn move_job_files(from: &Path, to: &Path, stem: &str) {
    for ext in std::iter::once("job").chain(payload_extensions()) {
        let name = format!("{stem}.{ext}");
        let _ = std::fs::rename(from.join(&name), to.join(&name));
    }
}

/// Startup recovery: everything in `running/` belonged to a dead daemon.
fn adopt_orphans(dirs: &Dirs) -> io::Result<usize> {
    let mut adopted = 0;
    for entry in std::fs::read_dir(&dirs.running)? {
        let path = entry?.path();
        if let Some(name) = path.file_name() {
            if std::fs::rename(&path, dirs.incoming.join(name)).is_ok() {
                adopted += 1;
            }
        }
    }
    // Half-written reports from a crash mid-write are `.tmp` siblings that
    // never got renamed; they are garbage by construction.
    for dir in [&dirs.done, &dirs.failed] {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    Ok(adopted)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of one claimed job, classifying every failure.
fn run_attempt(
    ctx: Ctx<'_>,
    stem: &str,
    attempt: u32,
) -> Result<(ResynthReport, Format, Vec<u8>), JobFailure> {
    let job_path = ctx.dirs.running.join(format!("{stem}.job"));
    let spec_text = std::fs::read_to_string(&job_path)
        .map_err(|e| JobFailure::Retryable(format!("read {}: {e}", job_path.display())))?;
    let spec =
        parse_spec(&spec_text).map_err(|e| JobFailure::Terminal(Outcome::Failed, e.to_string()))?;
    let (format, payload_path) = Format::ALL
        .iter()
        .map(|&f| (f, ctx.dirs.running.join(format!("{stem}.{}", f.extension()))))
        .find(|(_, path)| path.exists())
        .ok_or_else(|| JobFailure::Retryable(format!("{stem}: no payload netlist found")))?;
    let payload = std::fs::read(&payload_path)
        .map_err(|e| JobFailure::Retryable(format!("read {}: {e}", payload_path.display())))?;
    let mut circuit = sft_io::parse_bytes(&payload, format, stem)
        .map_err(|e| JobFailure::Terminal(Outcome::Failed, e.to_string()))?;

    match spec.chaos {
        Some(Chaos::Sleep(pause)) => std::thread::sleep(pause),
        Some(Chaos::FailAttempts(n)) if attempt <= n => {
            return Err(JobFailure::Retryable(format!(
                "chaos: injected transient failure (attempt {attempt} of {n})"
            )));
        }
        _ => {}
    }

    let mut budget = Budget::unlimited().with_cancel(ctx.cancel.clone());
    if let Some(limit) = spec.time_limit.or(ctx.config.default_time_limit) {
        budget = budget.with_time_limit(limit);
    }
    if let Some(limit) = spec.step_limit.or(ctx.config.default_step_limit) {
        budget = budget.with_step_limit(limit);
    }
    let options = spec.resynth_options();
    let chaos_panic = spec.chaos == Some(Chaos::Panic);

    // The isolation boundary: nothing a job does past this point can take
    // the daemon down.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if chaos_panic {
            panic!("chaos: injected panic");
        }
        resynthesize_with_budget(&mut circuit, &options, &budget)
    }));
    match outcome {
        Err(payload) => Err(JobFailure::Terminal(Outcome::Panicked, panic_message(payload))),
        Ok(Err(e)) => Err(JobFailure::Terminal(Outcome::Failed, format!("resynthesis: {e}"))),
        Ok(Ok(report)) => {
            let bytes = sft_io::write_bytes(&circuit, format, &WriteOptions::default())
                .map_err(|e| JobFailure::Terminal(Outcome::Failed, e.to_string()))?;
            Ok((report, format, bytes))
        }
    }
}

fn base_report(stem: &str, outcome: Outcome, attempts: u32, elapsed_ms: u64) -> JobReport {
    JobReport { job: stem.to_string(), outcome, attempts, elapsed_ms, engine: None, error: None }
}

fn write_report(dir: &Path, stem: &str, report: &JobReport) {
    let path = dir.join(format!("{stem}.report.json"));
    if let Err(e) = write_new(&path, report.to_json_line().as_bytes()) {
        eprintln!("serve: writing {}: {e}", path.display());
    }
}

/// Drives one claimed job to a terminal state (or back to `incoming/` for
/// another attempt). Runs on a pool worker.
fn process(ctx: Ctx<'_>, stem: &str, attempt: u32) {
    let t0 = Instant::now();
    let result = run_attempt(ctx, stem, attempt);
    let elapsed_ms = t0.elapsed().as_millis().min(u64::MAX as u128) as u64;
    match result {
        Ok((engine_report, format, result_bytes)) => {
            // Result first, then the report: the report is the commit
            // point consumers watch for, so its presence must imply the
            // result netlist is in place. The result keeps the payload's
            // format and extension.
            let result_path = ctx.dirs.done.join(format!("{stem}.{}", format.extension()));
            if let Err(e) = write_new(&result_path, &result_bytes) {
                eprintln!("serve: writing {}: {e}", result_path.display());
            }
            let mut report = base_report(stem, Outcome::Done, attempt, elapsed_ms);
            report.engine = Some(EngineOutcome {
                stop_reason: engine_report.stop_reason.to_string(),
                passes: engine_report.passes,
                replacements: engine_report.replacements,
                gates_before: engine_report.gates_before,
                gates_after: engine_report.gates_after,
                paths_before: engine_report.paths_before.to_string(),
                paths_after: engine_report.paths_after.to_string(),
            });
            write_report(&ctx.dirs.done, stem, &report);
            for ext in std::iter::once("job").chain(payload_extensions()) {
                let _ = std::fs::remove_file(ctx.dirs.running.join(format!("{stem}.{ext}")));
            }
            lock_retry(ctx.retry).remove(stem);
            ctx.counters.done.fetch_add(1, Ordering::Relaxed);
        }
        Err(JobFailure::Retryable(message)) if attempt < ctx.config.max_attempts => {
            let eligible_at = Instant::now() + ctx.config.retry_backoff * attempt;
            lock_retry(ctx.retry)
                .insert(stem.to_string(), RetryEntry { attempts: attempt, eligible_at });
            move_job_files(&ctx.dirs.running, &ctx.dirs.incoming, stem);
            ctx.counters.retried.fetch_add(1, Ordering::Relaxed);
            eprintln!("serve: {stem}: attempt {attempt} failed, will retry: {message}");
        }
        Err(failure) => {
            let (outcome, message) = match failure {
                JobFailure::Retryable(message) => {
                    (Outcome::Failed, format!("{message} (gave up after {attempt} attempts)"))
                }
                JobFailure::Terminal(outcome, message) => (outcome, message),
            };
            let mut report = base_report(stem, outcome, attempt, elapsed_ms);
            report.error = Some(message);
            write_report(&ctx.dirs.failed, stem, &report);
            move_job_files(&ctx.dirs.running, &ctx.dirs.failed, stem);
            lock_retry(ctx.retry).remove(stem);
            ctx.counters.failed.fetch_add(1, Ordering::Relaxed);
            if outcome == Outcome::Panicked {
                ctx.counters.panicked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Sheds a job still in `incoming/`: explicit `overloaded` report, files
/// moved to `failed/`, nothing ran.
fn shed(ctx: Ctx<'_>, stem: &str) {
    let mut report = base_report(stem, Outcome::Overloaded, 0, 0);
    report.error = Some("shed by admission control; resubmit when the daemon is less busy".into());
    write_report(&ctx.dirs.failed, stem, &report);
    move_job_files(&ctx.dirs.incoming, &ctx.dirs.failed, stem);
    ctx.counters.shed.fetch_add(1, Ordering::Relaxed);
}

/// The payload of a panic that unwound out of [`process`].
type PanicPayload = Box<dyn std::any::Any + Send>;

/// One pool worker: runs each claimed `(stem, attempt)` it receives and
/// reports its completion, with the payload of a panic that escaped `run`
/// (past the engine's own `catch_unwind`). So such a panic neither ends the
/// worker nor leaves the job counted in flight. Returns when the job
/// channel closes.
fn worker(
    jobs: &Mutex<Receiver<(String, u32)>>,
    finished: &Sender<Option<PanicPayload>>,
    run: impl Fn(&str, u32),
) {
    loop {
        // The lock is held only while waiting for the next job.
        let next = jobs.lock().expect("no worker panics holding the job receiver").recv();
        let Ok((stem, attempt)) = next else { return };
        let panicked = catch_unwind(AssertUnwindSafe(|| run(&stem, attempt))).err();
        if finished.send(panicked).is_err() {
            return;
        }
    }
}

/// Runs the daemon until drained (`once`) or signalled. See the module
/// docs for the lifecycle; returns the final counter snapshot.
///
/// # Errors
///
/// Only infrastructure failures are errors: the job directories cannot be
/// created or listed. Job-level failures of every kind are reports, not
/// errors.
pub fn serve(config: &ServeConfig) -> io::Result<ServeSummary> {
    let dirs = Dirs::ensure(&config.root)?;
    let _ = std::fs::remove_file(dirs.stop_file());
    signals::reset();
    if config.handle_signals {
        signals::install();
    }
    let counters = Counters::default();
    let adopted = adopt_orphans(&dirs)?;
    if adopted > 0 {
        eprintln!("serve: re-adopted {adopted} orphaned job file(s) from running/");
    }
    eprintln!(
        "serve: watching {} (jobs={}, queue={}{})",
        dirs.incoming.display(),
        config.jobs.get(),
        config.queue,
        if config.once { ", once" } else { "" }
    );

    let cancel = CancelFlag::new();
    let retry: Mutex<HashMap<String, RetryEntry>> = Mutex::new(HashMap::new());
    let ctx = Ctx { dirs: &dirs, config, counters: &counters, retry: &retry, cancel: &cancel };
    let (job_tx, job_rx) = mpsc::channel::<(String, u32)>();
    let job_rx = Mutex::new(job_rx);
    let (finished_tx, finished_rx) = mpsc::channel();
    let mut panics = Vec::new();

    let loop_result: io::Result<()> = std::thread::scope(|scope| {
        // Moved in, so every exit from this closure closes the job channel
        // and the workers return once their current job is done.
        let job_tx = job_tx;
        for _ in 0..config.jobs.get() {
            let (jobs, finished) = (&job_rx, finished_tx.clone());
            scope.spawn(move || {
                worker(jobs, &finished, |stem, attempt| process(ctx, stem, attempt))
            });
        }
        let mut in_flight = 0usize;
        let mut draining = false;
        let mut last_stats = Instant::now();
        loop {
            let mut stop_level = signals::count();
            if stop_level < 1 && dirs.stop_file().exists() {
                stop_level = 1;
            }
            if stop_level >= 2 {
                cancel.cancel();
            }
            if stop_level >= 1 && !draining {
                draining = true;
                eprintln!("serve: stop requested, draining {in_flight} in-flight");
            }

            if !draining {
                let mut queued = 0usize;
                for stem in scan_incoming(&dirs)? {
                    let now = Instant::now();
                    let attempt = {
                        let retry_map = lock_retry(&retry);
                        match retry_map.get(&stem) {
                            Some(entry) if entry.eligible_at > now => {
                                // Backing off: occupies a queue slot but
                                // is not claimable yet.
                                queued += 1;
                                continue;
                            }
                            Some(entry) => entry.attempts + 1,
                            None => 1,
                        }
                    };
                    if in_flight < config.jobs.get() {
                        if claim(&dirs, &stem) {
                            counters.accepted.fetch_add(1, Ordering::Relaxed);
                            in_flight += 1;
                            // The receiver outlives the loop: this never fails.
                            let _ = job_tx.send((stem, attempt));
                        }
                    } else {
                        queued += 1;
                        if queued > config.queue {
                            shed(ctx, &stem);
                        }
                    }
                }
            }

            if last_stats.elapsed() >= config.stats_every {
                last_stats = Instant::now();
                eprintln!("{}", counters.stats_line());
            }

            // A retried job is back in `incoming/` before its completion
            // arrives, so this scan sees it.
            if draining {
                if in_flight == 0 {
                    break;
                }
            } else if config.once && in_flight == 0 && scan_incoming(&dirs)?.is_empty() {
                break;
            }
            // Sleep until a job finishes (its worker is free again) or for
            // at most one poll interval.
            if let Ok(first) = finished_rx.recv_timeout(config.poll) {
                for panicked in std::iter::once(first).chain(finished_rx.try_iter()) {
                    in_flight -= 1;
                    panics.extend(panicked);
                }
            }
        }
        Ok(())
    });
    // A panic that escaped a job is raised again once the pool is down.
    if let Some(payload) = panics.into_iter().next() {
        std::panic::resume_unwind(payload);
    }
    loop_result?;

    eprintln!("{}", counters.stats_line());
    Ok(counters.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("sft-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn submit(root: &Path, stem: &str, bench: &str, job: &str) {
        let incoming = root.join("jobs").join("incoming");
        std::fs::create_dir_all(&incoming).unwrap();
        std::fs::write(incoming.join(format!("{stem}.bench")), bench).unwrap();
        std::fs::write(incoming.join(format!("{stem}.job")), job).unwrap();
    }

    const TINY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = AND(a, b)\ny = OR(n1, a)\n";

    fn quick_config(root: &Path) -> ServeConfig {
        ServeConfig {
            once: true,
            handle_signals: false,
            jobs: Jobs::new(2),
            retry_backoff: Duration::from_millis(1),
            poll: Duration::from_millis(1),
            ..ServeConfig::new(root)
        }
    }

    #[test]
    fn once_drains_good_and_bad_jobs() {
        let root = temp_root("drain");
        submit(&root, "good", TINY, "objective = gates\n");
        submit(&root, "bad", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "");
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!((summary.done, summary.failed, summary.shed), (1, 1, 0));
        let done = root.join("jobs").join("done");
        let failed = root.join("jobs").join("failed");
        assert!(done.join("good.bench").exists());
        let good = std::fs::read_to_string(done.join("good.report.json")).unwrap();
        assert!(good.contains("\"outcome\":\"done\""), "{good}");
        let bad = std::fs::read_to_string(failed.join("bad.report.json")).unwrap();
        assert!(bad.contains("\"outcome\":\"failed\""), "{bad}");
        assert!(bad.contains("FROB"), "{bad}");
        // Nothing left behind in the transient directories.
        assert!(scan_incoming(&Dirs::ensure(&root).unwrap()).unwrap().is_empty());
        assert_eq!(std::fs::read_dir(root.join("jobs").join("running")).unwrap().count(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn multi_format_payloads_round_trip() {
        let root = temp_root("formats");
        let incoming = root.join("jobs").join("incoming");
        std::fs::create_dir_all(&incoming).unwrap();
        let c = sft_netlist::bench_format::parse(TINY, "tiny").unwrap();
        let formats = [Format::Verilog, Format::AigerAscii, Format::AigerBinary];
        for f in formats {
            let stem = format!("job_{}", f.extension());
            let bytes = sft_io::write_bytes(&c, f, &WriteOptions::default()).unwrap();
            std::fs::write(incoming.join(format!("{stem}.{}", f.extension())), bytes).unwrap();
            std::fs::write(incoming.join(format!("{stem}.job")), "objective = gates\n").unwrap();
        }
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!((summary.done, summary.failed), (3, 0));
        let done = root.join("jobs").join("done");
        for f in formats {
            let ext = f.extension();
            let path = done.join(format!("job_{ext}.{ext}"));
            assert!(path.exists(), "result should keep the payload format: {ext}");
            let bytes = std::fs::read(&path).unwrap();
            sft_io::parse_bytes(&bytes, f, "result").unwrap();
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn panicking_job_is_isolated() {
        let root = temp_root("panic");
        submit(&root, "boom", TINY, "chaos = panic\n");
        submit(&root, "calm", TINY, "");
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!((summary.done, summary.failed, summary.panicked), (1, 1, 1));
        let report =
            std::fs::read_to_string(root.join("jobs").join("failed").join("boom.report.json"))
                .unwrap();
        assert!(report.contains("\"outcome\":\"panicked\""), "{report}");
        assert!(report.contains("injected panic"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let root = temp_root("retry");
        submit(&root, "flaky", TINY, "chaos = fail:2\n");
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!(summary.done, 1);
        assert_eq!(summary.retried, 2);
        let report =
            std::fs::read_to_string(root.join("jobs").join("done").join("flaky.report.json"))
                .unwrap();
        assert!(report.contains("\"attempts\":3"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn transient_failures_exhaust_into_terminal_failure() {
        let root = temp_root("exhaust");
        submit(&root, "doomed", TINY, "chaos = fail:99\n");
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!((summary.done, summary.failed), (0, 1));
        let report =
            std::fs::read_to_string(root.join("jobs").join("failed").join("doomed.report.json"))
                .unwrap();
        assert!(report.contains("gave up after 3 attempts"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn overload_sheds_with_explicit_outcome() {
        let root = temp_root("overload");
        for i in 0..6 {
            submit(&root, &format!("job{i}"), TINY, "chaos = sleep:150\n");
        }
        let config = ServeConfig { jobs: Jobs::new(1), queue: 1, ..quick_config(&root) };
        let summary = serve(&config).unwrap();
        assert_eq!(summary.done + summary.shed, 6);
        assert!(summary.shed >= 1, "expected shedding, got {summary:?}");
        let failed = root.join("jobs").join("failed");
        let shed_reports = std::fs::read_dir(&failed)
            .unwrap()
            .filter_map(|e| std::fs::read_to_string(e.unwrap().path()).ok())
            .filter(|s| s.contains("\"outcome\":\"overloaded\""))
            .count();
        assert_eq!(shed_reports as u64, summary.shed);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn orphans_are_adopted_and_rerun_idempotently() {
        let root = temp_root("orphan");
        // Simulate a SIGKILLed daemon: job files stranded in running/.
        let running = root.join("jobs").join("running");
        std::fs::create_dir_all(&running).unwrap();
        std::fs::write(running.join("lost.bench"), TINY).unwrap();
        std::fs::write(running.join("lost.job"), "").unwrap();
        // And a half-written report from the crash.
        let done = root.join("jobs").join("done");
        std::fs::create_dir_all(&done).unwrap();
        std::fs::write(done.join("lost.report.json.tmp"), "garbage").unwrap();
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!(summary.done, 1);
        assert!(done.join("lost.bench").exists());
        assert!(done.join("lost.report.json").exists());
        assert!(!done.join("lost.report.json.tmp").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn done_results_are_never_rewritten() {
        let root = temp_root("immutable");
        let done = root.join("jobs").join("done");
        std::fs::create_dir_all(&done).unwrap();
        std::fs::write(done.join("fixed.report.json"), "{\"sentinel\":true}\n").unwrap();
        std::fs::write(done.join("fixed.bench"), "# sentinel\n").unwrap();
        submit(&root, "fixed", TINY, "");
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!(summary.done, 1);
        assert_eq!(
            std::fs::read_to_string(done.join("fixed.report.json")).unwrap(),
            "{\"sentinel\":true}\n"
        );
        assert_eq!(std::fs::read_to_string(done.join("fixed.bench")).unwrap(), "# sentinel\n");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_finished_job_wakes_the_loop_before_the_poll_interval() {
        let root = temp_root("wake");
        for i in 0..5 {
            submit(&root, &format!("job{i}"), TINY, "");
        }
        let config = ServeConfig {
            jobs: Jobs::serial(),
            poll: Duration::from_secs(1),
            ..quick_config(&root)
        };
        let t0 = Instant::now();
        let summary = serve(&config).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(summary.done, 5);
        // Sleeping out the poll interval once per job would take 5 s.
        assert!(elapsed < Duration::from_millis(2500), "drain took {elapsed:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn two_workers_drain_every_sleeping_job() {
        let root = temp_root("pool");
        for i in 0..8 {
            submit(&root, &format!("nap{i}"), TINY, "chaos = sleep:50\n");
        }
        let summary = serve(&quick_config(&root)).unwrap();
        assert_eq!((summary.accepted, summary.done, summary.failed, summary.shed), (8, 8, 0, 0));
        for i in 0..8 {
            let report = root.join("jobs").join("done").join(format!("nap{i}.report.json"));
            assert!(std::fs::read_to_string(report).unwrap().contains("\"outcome\":\"done\""));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_panic_outside_the_engine_keeps_the_worker_and_reports_completion() {
        let (job_tx, job_rx) = mpsc::channel();
        let (finished_tx, finished_rx) = mpsc::channel();
        for stem in ["boom", "calm"] {
            job_tx.send((stem.to_string(), 1)).unwrap();
        }
        drop(job_tx);
        worker(&Mutex::new(job_rx), &finished_tx, |stem, _| assert_ne!(stem, "boom"));
        let finished: Vec<_> = finished_rx.try_iter().map(|p| p.map(panic_message)).collect();
        assert_eq!(finished.len(), 2, "one completion per job, the panicked one included");
        assert!(finished[0].as_deref().is_some_and(|m| m.contains("boom")), "{finished:?}");
        assert_eq!(finished[1], None);
    }

    #[test]
    fn stop_file_drains_a_serving_daemon() {
        let root = temp_root("stopfile");
        let config = ServeConfig { once: false, ..quick_config(&root) };
        submit(&root, "one", TINY, "");
        let handle = {
            let config = config.clone();
            std::thread::spawn(move || serve(&config).unwrap())
        };
        // Give it time to start and process, then ask it to stop.
        std::thread::sleep(Duration::from_millis(300));
        std::fs::write(root.join("jobs").join("control").join("stop"), "").unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.done, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
