//! `perfbench` — the end-to-end benchmark of the sft library.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload serially through the crates' public API, checks every
//! output, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Diagnostics — every job's raw per-round times, its best and median of
//! them, and its stop reason — go to standard error. The exit code is
//! non-zero when any operation failed. See `perfbench/README.md` for the
//! metrics and why the workloads are what they are.

mod harness;
mod resynth;
mod serve;
mod testability;
mod trace;

use harness::{Metric, Round, Tally};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

/// Rounds every untraced run makes at least. A job's time is the median
/// of its rounds, so a burst of interference from other tenants of the
/// host that slows one round of three does not reach it.
const MIN_ROUNDS: usize = 3;
/// The set-up runs once before the first round and again between rounds:
/// before each of the next `SETUP_REPEATS - 1`, then while the set-ups have
/// taken less than `SETUP_SHARE` of the run so far, and after the last
/// round if it has not yet run `SETUP_REPEATS` times. The rounds still get
/// `--seconds` of their own.
/// `setup_s` is the median. The host's speed for this allocation-heavy work
/// shifts by up to half within a run, on a scale of seconds, so samples
/// spread over the whole run give a steadier median than a block of them
/// at its start.
const SETUP_REPEATS: usize = 5;
const SETUP_SHARE: f64 = 0.1;

/// A workload as the harness drives it.
pub trait Workload {
    /// A short name for job `job`.
    fn label(&self, job: usize) -> String;
    /// Resets process-global state and runs every job once, in order.
    /// Returns the timings and a digest of each job's output, or the
    /// error or panic that ended it. Round 0 keeps its outputs for
    /// [`check`](Workload::check).
    fn round(&mut self, index: usize) -> (Round, Vec<Result<u64, String>>);
    /// Checks round 0's outputs, one verdict per job.
    fn check(&mut self) -> Vec<Result<(), String>>;
    /// What job `job` reported in round 0: stop reason and counts.
    fn note(&self, job: usize) -> String;
    /// Result quality over round 0's outputs.
    fn quality(&self) -> Quality;
    /// Whether `jobs_per_s` divides by the median round's wall time — a
    /// daemon drain — rather than by the jobs' summed median times.
    fn batch_timed(&self) -> bool {
        false
    }
    /// Jobs run once after the checks, untimed, to show what they report.
    fn probes(&mut self) -> Vec<Probe> {
        Vec::new()
    }
}

/// An untimed job: its time is printed, not measured.
pub struct Probe {
    pub label: String,
    pub secs: f64,
    pub note: String,
    pub verdict: Result<(), String>,
}

/// Runs the workload's probes, prints them, and counts each as one
/// operation.
fn run_probes(w: &mut dyn Workload, tally: &mut Tally) {
    for p in w.probes() {
        let verdict = match &p.verdict {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        };
        eprintln!(
            "probe {:<24} once {:10.3} ms (untimed)  {verdict}  {}",
            p.label,
            p.secs * 1e3,
            p.note
        );
        tally.record(p.verdict.is_ok());
    }
}

/// Result quality, summed over a workload's circuits. A workload that
/// runs no engine of a kind leaves its pair at zero.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Quality {
    /// Equivalent 2-input gates (after, before).
    pub gates: (u64, u64),
    /// Paths (after, before), over circuits whose counts are exact.
    pub paths: (f64, f64),
    /// Random-pattern stuck-at faults (detected, total).
    pub random: (u64, u64),
    /// ATPG stuck-at faults (detected, testable).
    pub stuck_at: (u64, u64),
    /// Robust path delay faults (detected, total), over accepted circuits.
    pub pdf: (u64, u64),
}

/// `num / den`, or 1 — the value of an after ÷ before ratio with nothing
/// changed and of a coverage over no faults — when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// A stable digest of an output.
pub fn digest(value: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// The output check: `b` computes the same function as `a`. Both are
/// built into one BDD manager under the structural variable order of
/// [`sft::bdd::dfs_input_order`], which keeps adders and multiplexers
/// small where declaration order blows up.
pub fn equivalent(a: &sft::netlist::Circuit, b: &sft::netlist::Circuit) -> Result<(), String> {
    equivalent_within(a, b, sft::bdd::DEFAULT_NODE_LIMIT)
}

/// Random patterns the output check simulates when the BDDs do not fit.
const FALLBACK_PATTERNS: usize = 1 << 14;

/// [`equivalent`] with a BDD node limit. A circuit whose BDDs outgrow the
/// limit is not failed for it: the check falls back to comparing the
/// outputs on `FALLBACK_PATTERNS` seeded random patterns, and counts
/// `bdd.sim_fallbacks`.
fn equivalent_within(
    a: &sft::netlist::Circuit,
    b: &sft::netlist::Circuit,
    node_limit: usize,
) -> Result<(), String> {
    let _s = trace::span("bdd.equiv");
    trace::count("bdd.equiv_calls", 1.0);
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err("input or output count changed".into());
    }
    let order = sft::bdd::dfs_input_order(a);
    let mut manager = sft::bdd::Manager::with_node_limit(node_limit);
    let unlimited = sft::budget::Budget::unlimited();
    let mut build = |c: &sft::netlist::Circuit| {
        let refs = sft::bdd::circuit_node_bdds_ordered(&mut manager, c, &order, &unlimited)?;
        Ok::<_, sft::bdd::BddError>(c.outputs().iter().map(|o| refs[o.index()]).collect::<Vec<_>>())
    };
    let (fa, fb) = match build(a).and_then(|fa| Ok((fa, build(b)?))) {
        Ok(pair) => pair,
        Err(sft::bdd::BddError::NodeLimit(_)) => return simulated_equal(a, b),
        Err(e) => return Err(format!("equivalence check failed: {e}")),
    };
    match fa.iter().zip(&fb).position(|(x, y)| x != y) {
        Some(slot) => Err(format!("output {slot} differs from the input")),
        None => Ok(()),
    }
}

/// Compares the outputs of `a` and `b` on seeded random patterns, 64 at
/// a time.
fn simulated_equal(a: &sft::netlist::Circuit, b: &sft::netlist::Circuit) -> Result<(), String> {
    trace::count("bdd.sim_fallbacks", 1.0);
    let (sa, sb) = (sft::sim::Simulator::new(a), sft::sim::Simulator::new(b));
    let mut rng = harness::SplitMix::new(FALLBACK_PATTERNS as u64);
    for _ in 0..FALLBACK_PATTERNS / 64 {
        let words: Vec<u64> = a.inputs().iter().map(|_| rng.next_u64()).collect();
        let (oa, ob) = (sa.output_words(&sa.eval(&words)), sb.output_words(&sb.eval(&words)));
        if let Some(slot) = oa.iter().zip(&ob).position(|(x, y)| x != y) {
            return Err(format!("output {slot} differs from the input on a random pattern"));
        }
    }
    Ok(())
}

/// The circuit a user gets back: `bytes` parsed as `format`. The one
/// parse error let through is a known defect of the `.bench` writer: it
/// names an unnamed node `n<id>`, and after resynthesis that name can
/// collide with a node of the input named `n<id>` ("duplicate definition
/// of \"n8300\""). Then `written_from`, the circuit the bytes were written
/// from, stands in for them, and the collision counts as
/// `io.roundtrip_failed`. Any other parse error fails the check.
pub fn returned<'a>(
    bytes: &[u8],
    format: sft::io::Format,
    name: &str,
    written_from: &'a sft::netlist::Circuit,
) -> Result<Cow<'a, sft::netlist::Circuit>, String> {
    match sft::io::parse_bytes(bytes, format, name) {
        Ok(c) => Ok(Cow::Owned(c)),
        Err(sft::io::IoError::Parse { message, .. })
            if format == sft::io::Format::Bench && is_name_collision(&message) =>
        {
            trace::count("io.roundtrip_failed", 1.0);
            Ok(Cow::Borrowed(written_from))
        }
        Err(e) => Err(format!("returned bytes do not parse: {e}")),
    }
}

/// Whether a `.bench` parse error is the writer's `n<id>` name collision.
fn is_name_collision(message: &str) -> bool {
    message
        .strip_prefix("duplicate definition of \"n")
        .and_then(|rest| rest.strip_suffix('"'))
        .is_some_and(|id| !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()))
}

/// Every job execution of every round is one operation. It fails when it
/// errors or panics, when its output differs from round 0's, or when
/// round 0's output failed its check.
pub fn tally(digests: &[Vec<Result<u64, String>>], checks: &[Result<(), String>]) -> Tally {
    let mut tally = Tally::default();
    for round in digests {
        for (j, out) in round.iter().enumerate() {
            let same = matches!((out, &digests[0][j]), (Ok(a), Ok(b)) if a == b);
            tally.record(same && checks[j].is_ok());
        }
    }
    tally
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let seconds: u64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// The workloads, by name.
fn build(name: &str, seed: u64, work: &std::path::Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "resynth-stream" => Box::new(resynth::Resynth::stream(seed)),
        "testability" => Box::new(testability::Testability::new(seed)),
        "serve-batch" => Box::new(serve::ServeBatch::new(work)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (resynth-stream, testability, serve-batch)"
            ))
        }
    })
}

/// The checks of round 0's outputs, traced so that their BDD and I/O
/// counts can be reported.
fn checked(w: &mut dyn Workload) -> (Vec<Result<(), String>>, trace::Trace) {
    trace::start();
    let checks = w.check();
    (checks, trace::finish())
}

/// Prints every job's median-of-rounds, best-of-rounds and raw per-round
/// times, its verdict and what it reported.
fn print_jobs(w: &dyn Workload, rounds: &[Round], checks: &[Result<(), String>]) {
    let best = harness::best_per_job(rounds);
    let median = harness::median_per_job(rounds);
    for (j, check) in checks.iter().enumerate() {
        let raw: Vec<String> =
            rounds.iter().map(|r| format!("{:.3}", r.job_secs[j] * 1e3)).collect();
        let verdict = match check {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        };
        eprintln!(
            "job {j:3} {:<28} median {:10.3} ms  best {:10.3} ms  rounds [{}] ms  {verdict}  {}",
            w.label(j),
            median[j] * 1e3,
            best[j] * 1e3,
            raw.join(", "),
            w.note(j)
        );
    }
    let totals: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.total_secs)).collect();
    eprintln!("round totals [{}] s", totals.join(", "));
}

fn untraced(args: &Args, work: &std::path::Path) -> Result<(Tally, Vec<Metric>), String> {
    let run_start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        let w = build(&args.workload, args.seed, work)?;
        setups.push(start.elapsed().as_secs_f64());
        Ok::<_, String>(w)
    };
    let mut w = set_up(&mut setups)?;
    let mut setup_error = None;
    let mut digests = Vec::new();
    let rounds = harness::run_rounds(
        args.seconds,
        MIN_ROUNDS,
        |_| {
            let spent: f64 = setups.iter().sum();
            let share = spent / run_start.elapsed().as_secs_f64();
            if setups.len() < SETUP_REPEATS || share < SETUP_SHARE {
                if let Err(e) = set_up(&mut setups) {
                    setup_error = Some(e);
                }
            }
        },
        |i| {
            let (round, d) = w.round(i);
            digests.push(d);
            round
        },
    );
    if let Some(e) = setup_error {
        return Err(e);
    }
    while setups.len() < SETUP_REPEATS {
        set_up(&mut setups)?;
    }
    let (checks, (_, counters)) = checked(w.as_mut());
    print_jobs(w.as_ref(), &rounds, &checks);
    let mut tally = tally(&digests, &checks);
    if let Some(n) = counters.get("io.roundtrip_failed") {
        eprintln!("warning: {n} written output(s) do not parse back (io.roundtrip_failed)");
    }
    if let Some(n) = counters.get("bdd.sim_fallbacks") {
        eprintln!("warning: {n} output(s) outgrew the BDDs, checked by simulation instead");
    }
    // Before the probes, which are not part of the workload's footprint.
    let peak_rss = harness::peak_rss_mib()?;
    run_probes(w.as_mut(), &mut tally);

    let times = harness::median_per_job(&rounds);
    let jobs = times.len() as f64;
    let busy = if w.batch_timed() { harness::median_total(&rounds) } else { times.iter().sum() };
    let p50 = harness::median(&times);
    let p90 = harness::percentile(&times, 90.0).ok_or("job_p90_ms needs at least 100 jobs")?;
    let raw: Vec<String> = setups.iter().map(|s| format!("{:.4}", s)).collect();
    eprintln!(
        "{} jobs x {} rounds; {} set-ups, median {:.4} s [{}]",
        times.len(),
        rounds.len(),
        setups.len(),
        harness::median(&setups),
        raw.join(", ")
    );
    let q = w.quality();
    let f = |(a, b): (u64, u64)| ratio(a as f64, b as f64);
    let values = [
        harness::median(&setups),
        if busy > 0.0 { jobs / busy } else { 0.0 },
        p50 * 1e3,
        p90 * 1e3,
        peak_rss,
        tally.ok_ratio(),
        f(q.gates),
        ratio(q.paths.0, q.paths.1),
        f(q.random),
        f(q.stuck_at),
        f(q.pdf),
    ];
    let metrics =
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| Metric { name, unit, value });
    Ok((tally, metrics.collect()))
}

/// The end-to-end metrics, each with its unit, in the order `untraced`
/// computes them.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("eq2_ratio", "ratio"),
    ("paths_ratio", "ratio"),
    ("random_coverage", "ratio"),
    ("stuck_at_coverage", "ratio"),
    ("robust_pdf_coverage", "ratio"),
];

/// The per-layer metrics, each with its unit. Span names give the `_ms`
/// metrics (self time); counters give the rest.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("io.write_ms", "ms"),
    ("io.calls", "count"),
    ("io.roundtrip_failed", "count"),
    ("netlist.stats_ms", "ms"),
    ("core.resynth_ms", "ms"),
    ("core.passes", "count"),
    ("core.replacements", "count"),
    ("core.verify_nodes_peak", "count"),
    ("core.steps_used", "count"),
    ("core.kept_per_kstep", "1/kstep"),
    ("core.memo_hits", "count"),
    ("core.memo_misses", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("bdd.equiv_ms", "ms"),
    ("bdd.equiv_calls", "count"),
    ("bdd.sim_fallbacks", "count"),
    ("sim.snapshot_ms", "ms"),
    ("sim.campaign_ms", "ms"),
    ("sim.patterns", "count"),
    ("sim.detected", "count"),
    ("atpg.testgen_ms", "ms"),
    ("atpg.vectors", "count"),
    ("atpg.aborted", "count"),
    ("atpg.redundant", "count"),
    ("delay.pdf_ms", "ms"),
    ("delay.pairs", "count"),
    ("delay.detected", "count"),
    ("delay.refused", "count"),
    ("serve.drain_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_loaded_entries", "count"),
    ("serve.retried", "count"),
    ("serve.shed", "count"),
    ("job.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Alternates untraced and traced rounds, at least one of each, and
/// reports the per-layer metrics of the fastest traced round plus the
/// checks, with the tracing overhead: the fastest traced round against the
/// fastest untraced one.
fn traced(args: &Args, work: &std::path::Path) -> Result<(Tally, Vec<Metric>), String> {
    let mut w = build(&args.workload, args.seed, work)?;
    let mut digests = Vec::new();
    let mut traces: Vec<(f64, trace::Trace)> = Vec::new();
    let rounds = harness::run_rounds(
        args.seconds,
        2,
        |_| {},
        |i| {
            let on = i % 2 == 1;
            if on {
                trace::start();
            }
            let (round, d) = w.round(i);
            if on {
                traces.push((round.total_secs, trace::finish()));
            }
            digests.push(d);
            round
        },
    );
    let (checks, (check_spans, check_counters)) = checked(w.as_mut());
    print_jobs(w.as_ref(), &rounds, &checks);
    let mut tally = tally(&digests, &checks);
    run_probes(w.as_mut(), &mut tally);

    let fastest = |parity: usize| {
        rounds.iter().skip(parity).step_by(2).map(|r| r.total_secs).fold(f64::INFINITY, f64::min)
    };
    let overhead_pct = (fastest(1) / fastest(0) - 1.0) * 100.0;
    let (_, (spans, counters)) = traces
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("run_rounds made at least two rounds");
    write_spans(work, args, &spans, &check_spans)?;

    let mut ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (millis, _)) in
        trace::layer_totals(&spans).into_iter().chain(trace::layer_totals(&check_spans))
    {
        *ms.entry(name).or_insert(0.0) += millis;
    }
    let mut c = counters;
    for (name, value) in check_counters {
        *c.entry(name).or_insert(0.0) += value;
    }
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "core.kept_per_kstep" => match get("core.steps_used") {
                    steps if steps > 0.0 => 1000.0 * get("core.replacements") / steps,
                    _ => 0.0,
                },
                "job.self_ms" => ms.get("job").copied().unwrap_or(0.0),
                "core.memo_hit_ratio" => {
                    let (hits, misses) = (get("core.memo_hits"), get("core.memo_misses"));
                    if hits + misses == 0.0 {
                        0.0
                    } else {
                        hits / (hits + misses)
                    }
                }
                "serve.overhead_ms" => {
                    ms.get("serve.drain").copied().unwrap_or(0.0) - get("serve.engine_ms")
                }
                "trace.overhead_pct" => overhead_pct,
                _ => match c.get(name) {
                    Some(&v) => v,
                    None => {
                        name.strip_suffix("_ms").and_then(|n| ms.get(n)).copied().unwrap_or(0.0)
                    }
                },
            };
            Metric { name, unit, value }
        })
        .collect();
    Ok((tally, metrics))
}

/// Writes the spans as JSON lines under the work directory.
fn write_spans(
    work: &std::path::Path,
    args: &Args,
    rounds: &[trace::Span],
    checks: &[trace::Span],
) -> Result<(), String> {
    use std::fmt::Write;
    let mut text = String::new();
    for (phase, spans) in [("round", rounds), ("check", checks)] {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"phase\": \"{phase}\", \"id\": {i}, \"name\": \"{}\", \"job\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
        }
    }
    let path = work.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Scratch files (the serve daemon's job directories, the spans) stay
    // inside the directory the benchmark runs from.
    let work = std::path::Path::new(".perfbench");
    let outcome = parse_args(&argv).and_then(|args| {
        if args.trace {
            traced(&args, work)
        } else {
            untraced(&args, work)
        }
    });
    // Left only when the traced run wrote spans there.
    let _ = std::fs::remove_dir(work);
    match outcome {
        Ok((tally, metrics)) => {
            println!("{}", harness::result_line(tally, &metrics));
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `.bench` text with outputs `s0` and `s1` swapped: same counts,
    /// other function.
    pub fn swap_outputs(bench: &str) -> String {
        let swapped = bench
            .replacen("OUTPUT(s0)", "OUTPUT(tmp)", 1)
            .replacen("OUTPUT(s1)", "OUTPUT(s0)", 1)
            .replacen("OUTPUT(tmp)", "OUTPUT(s1)", 1);
        assert_ne!(swapped, bench);
        swapped
    }

    fn swapped_outputs(c: &sft::netlist::Circuit) -> sft::netlist::Circuit {
        let opts = sft::io::WriteOptions::default();
        let bench = sft::io::write_bytes(c, sft::io::Format::Bench, &opts).unwrap();
        let swapped = swap_outputs(std::str::from_utf8(&bench).unwrap());
        sft::io::parse_bytes(swapped.as_bytes(), sft::io::Format::Bench, "swapped").unwrap()
    }

    /// BDDs that outgrow the node limit do not fail the check: it falls
    /// back to random simulation, which still tells the functions apart.
    #[test]
    fn node_limit_falls_back_to_simulation() {
        let c = sft::circuits::gen::wide_adder(8);
        trace::start();
        assert_eq!(equivalent_within(&c, &c, 8), Ok(()));
        let err = equivalent_within(&c, &swapped_outputs(&c), 8).unwrap_err();
        assert!(err.contains("random pattern"), "{err}");
        assert_eq!(equivalent_within(&c, &c, sft::bdd::DEFAULT_NODE_LIMIT), Ok(()));
        let (_, counters) = trace::finish();
        assert_eq!(counters.get("bdd.sim_fallbacks"), Some(&2.0));
    }

    /// Returned bytes are parsed; only the `.bench` writer's `n<id>` name
    /// collision is let through, with the written circuit standing in.
    #[test]
    fn returned_bytes_are_parsed() {
        use sft::io::Format;
        let c = sft::circuits::gen::wide_adder(2);
        let collision = b"INPUT(a)\nINPUT(n3)\nOUTPUT(y)\nn3 = NOT(a)\ny = BUFF(n3)\n";
        let stand_in = returned(collision, Format::Bench, "x", &c).unwrap();
        assert!(matches!(stand_in, Cow::Borrowed(_)));
        let named = b"INPUT(a)\nINPUT(b)\nOUTPUT(y)\nb = NOT(a)\ny = BUFF(b)\n";
        assert!(returned(named, Format::Bench, "x", &c).is_err());
        assert!(returned(collision, Format::Verilog, "x", &c).is_err());
        let ok = b"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        assert!(matches!(returned(ok, Format::Bench, "x", &c), Ok(Cow::Owned(_))));
        assert!(is_name_collision("duplicate definition of \"n8300\""));
        assert!(!is_name_collision("duplicate definition of \"n\""));
        assert!(!is_name_collision("duplicate definition of \"n8x\""));
    }

    /// `BENCHMARK.json` declares exactly the metrics the benchmark prints,
    /// with the same units, and every name and unit fits the charset.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(harness::valid_name(name) && harness::valid_unit(unit), "{name} {unit}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
