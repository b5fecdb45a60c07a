//! The `serve-batch` workload: a batch of mostly tiny resynthesis jobs
//! drained by the `sft serve` daemon in once mode with one worker, from a
//! warm identification-cache image. Here the daemon's own per-job cost —
//! scanning, claiming, renaming, reporting, its poll sleep and the cache
//! load — is a large share of the time.

use crate::harness::Round;
use crate::trace::{self, span};
use crate::{digest, Quality, Workload};
use sft::budget::Budget;
use sft::circuits::random::{random_circuit, RandomCircuitConfig};
use sft::circuits::{builders, gen};
use sft::core::{identify_cache_clear, identify_cache_save, resynthesize_with_budget};
use sft::io::{Format, WriteOptions};
use sft::netlist::{Circuit, PathCount};
use sft::par::Jobs;
use sft::serve::{parse_spec, serve, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Instant, SystemTime};

struct Job {
    stem: String,
    label: String,
    format: Format,
    payload: Vec<u8>,
    spec: &'static str,
    /// The library's result for the same request, computed in set-up.
    expected: Vec<u8>,
    result: Circuit,
    /// Its eq2 gate and path counts (after, before).
    gates: (u64, u64),
    paths: (PathCount, PathCount),
}

/// A finished daemon job: the result bytes and what its report said.
struct Done {
    bytes: Vec<u8>,
    report: String,
}

pub struct ServeBatch {
    dir: PathBuf,
    image: PathBuf,
    jobs: Vec<Job>,
    first: Vec<Result<Done, String>>,
}

/// The tiny circuits: the textbook builders at small sizes, small adders
/// and ALUs, and small random circuits.
fn population() -> Vec<Circuit> {
    let mut circuits = Vec::new();
    for n in 1..=6 {
        circuits.push(builders::comparator(n));
        circuits.push(builders::ripple_carry_adder(n));
        circuits.push(builders::parity_tree(n + 1));
    }
    for k in 1..=3 {
        circuits.push(builders::mux_tree(k));
        circuits.push(builders::decoder(k));
    }
    circuits.push(builders::alu_slice());
    for w in [2, 3, 4, 6, 8] {
        circuits.push(gen::alu(w));
        circuits.push(gen::wide_adder(2 * w));
    }
    for seed in 1..=65 {
        let config = RandomCircuitConfig { inputs: 10, outputs: 4, gates: 48, window: 16, seed };
        circuits.push(random_circuit(&config));
    }
    circuits
}

impl ServeBatch {
    /// Builds the batch, the library's expected results and the warm
    /// cache image. The batch and the order in which the daemon claims its
    /// jobs are fixed, not seeded: a job's latency includes every job
    /// claimed before it.
    pub fn new(work: &Path) -> Result<Self, String> {
        const FORMATS: [Format; 3] = [Format::Bench, Format::Verilog, Format::AigerAscii];
        // Each set-up gets its own directory: an earlier one is dropped,
        // and removes its directory, only after this one is built.
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let dir = work.join(format!("serve-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let circuits = population();
        identify_cache_clear();
        let mut jobs = Vec::with_capacity(circuits.len());
        for (i, c) in circuits.iter().enumerate() {
            let format = FORMATS[i % 3];
            let spec = if i % 2 == 0 { "objective = gates\n" } else { "objective = paths\n" };
            let stem = format!("j{i:03}");
            let opts = WriteOptions::default();
            let payload = sft::io::write_bytes(c, format, &opts).map_err(|e| e.to_string())?;
            // What the daemon will do: parse under the stem, resynthesize,
            // write in the payload's format.
            let mut result =
                sft::io::parse_bytes(&payload, format, &stem).map_err(|e| e.to_string())?;
            let options = parse_spec(spec).map_err(|e| e.to_string())?.resynth_options();
            let report = resynthesize_with_budget(&mut result, &options, &Budget::unlimited())
                .map_err(|e| e.to_string())?;
            let expected =
                sft::io::write_bytes(&result, format, &opts).map_err(|e| e.to_string())?;
            let label = format!("{}-{}", c.name(), format.extension());
            let gates = (report.gates_after, report.gates_before);
            let paths = (report.paths_after, report.paths_before);
            jobs.push(Job { stem, label, format, payload, spec, expected, result, gates, paths });
        }
        let image = dir.join("identify.sigcache");
        identify_cache_save(&image).map_err(|e| format!("{}: {e}", image.display()))?;
        identify_cache_clear();
        Ok(ServeBatch { dir, image, jobs, first: Vec::new() })
    }

    /// Submits every job into a fresh daemon root with the warm image.
    fn submit(&self, root: &Path) -> std::io::Result<PathBuf> {
        let incoming = root.join("jobs").join("incoming");
        std::fs::create_dir_all(&incoming)?;
        for job in &self.jobs {
            // The payload first: the `.job` file is the commit point.
            let payload = incoming.join(format!("{}.{}", job.stem, job.format.extension()));
            std::fs::write(payload, &job.payload)?;
            std::fs::write(incoming.join(format!("{}.job", job.stem)), job.spec)?;
        }
        let cache = root.join("identify.sigcache");
        std::fs::copy(&self.image, &cache)?;
        Ok(cache)
    }

    /// Reads one job's result, or why it has none.
    fn collect(&self, root: &Path, job: &Job) -> Result<(Done, SystemTime), String> {
        let done = root.join("jobs").join("done");
        let report_path = done.join(format!("{}.report.json", job.stem));
        let Ok(report) = std::fs::read_to_string(&report_path) else {
            let failed = root.join("jobs").join("failed").join(format!("{}.report.json", job.stem));
            let report = std::fs::read_to_string(failed).unwrap_or_default();
            return Err(format!("job did not end done: {}", report.trim()));
        };
        if !report.contains("\"outcome\":\"done\"") {
            return Err(format!("unexpected report {}", report.trim()));
        }
        let finished = std::fs::metadata(&report_path)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: {e}", report_path.display()))?;
        let result = done.join(format!("{}.{}", job.stem, job.format.extension()));
        let bytes = std::fs::read(&result).map_err(|e| format!("{}: {e}", result.display()))?;
        Ok((Done { bytes, report }, finished))
    }
}

/// The `elapsed_ms` field of a report line.
fn elapsed_ms(report: &str) -> u64 {
    report
        .split("\"elapsed_ms\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .unwrap_or(0)
}

impl Workload for ServeBatch {
    fn label(&self, job: usize) -> String {
        format!("{} {}", self.jobs[job].stem, self.jobs[job].label)
    }

    fn batch_timed(&self) -> bool {
        true
    }

    fn round(&mut self, index: usize) -> (Round, Vec<Result<u64, String>>) {
        let root = self.dir.join(format!("round-{index}"));
        let _ = std::fs::remove_dir_all(&root);
        let fail = |e: String| {
            let errors = self.jobs.iter().map(|_| Err(e.clone())).collect();
            (Round { job_secs: vec![0.0; self.jobs.len()], total_secs: 0.0 }, errors)
        };
        let cache = match self.submit(&root) {
            Ok(cache) => cache,
            Err(e) => return fail(format!("submitting jobs: {e}")),
        };
        let config = ServeConfig {
            jobs: Jobs::serial(),
            queue: self.jobs.len(), // nothing is shed
            once: true,
            cache: Some(cache),
            handle_signals: false,
            ..ServeConfig::new(&root)
        };
        // The daemon loads the image into the process-wide memo.
        identify_cache_clear();
        let (began, start) = (SystemTime::now(), Instant::now());
        let summary = {
            let _s = span("serve.drain");
            serve(&config)
        };
        let total_secs = start.elapsed().as_secs_f64();
        let summary = match summary {
            Ok(summary) => summary,
            Err(e) => return fail(format!("serve: {e}")),
        };
        trace::count("serve.cache_loaded_entries", summary.cache_loaded_entries as f64);
        trace::count("serve.retried", summary.retried as f64);
        trace::count("serve.shed", summary.shed as f64);

        let results: Vec<_> = self.jobs.iter().map(|job| self.collect(&root, job)).collect();
        // A job's time is its latency: from the batch's submission (the
        // drain's start) to its report. File times may be as coarse as a
        // scheduler tick; a latency is hundreds of them.
        let job_secs = results
            .iter()
            .map(|r| match r {
                Ok((_, at)) => at.duration_since(began).map_or(0.0, |d| d.as_secs_f64()),
                Err(_) => 0.0,
            })
            .collect();
        let engine: u64 = results.iter().flatten().map(|(d, _)| elapsed_ms(&d.report)).sum();
        trace::count("serve.engine_ms", engine as f64);
        let digests = results
            .iter()
            .map(|r| r.as_ref().map(|(d, _)| digest(&d.bytes)).map_err(Clone::clone))
            .collect();
        if index == 0 {
            self.first = results.into_iter().map(|r| r.map(|(d, _)| d)).collect();
        }
        let _ = std::fs::remove_dir_all(&root);
        (Round { job_secs, total_secs }, digests)
    }

    /// Each result must be byte-identical to the library's result for the
    /// same request, and equivalent to the payload once parsed back.
    fn check(&mut self) -> Vec<Result<(), String>> {
        self.jobs
            .iter()
            .zip(&self.first)
            .map(|(job, done)| {
                let done = done.as_ref().map_err(Clone::clone)?;
                if done.bytes != job.expected {
                    return Err("result differs from the library's for the same request".into());
                }
                let input = sft::io::parse_bytes(&job.payload, job.format, &job.stem)
                    .map_err(|e| e.to_string())?;
                let returned = crate::returned(&done.bytes, job.format, &job.stem, &job.result)?;
                crate::equivalent(&input, &returned)
            })
            .collect()
    }

    fn note(&self, job: usize) -> String {
        match &self.first[job] {
            Ok(done) => done.report.trim().to_string(),
            Err(e) => format!("error: {e}"),
        }
    }

    fn quality(&self) -> Quality {
        let mut q = Quality::default();
        for job in &self.jobs {
            q.gates = (q.gates.0 + job.gates.0, q.gates.1 + job.gates.1);
            let (after, before) = job.paths;
            if !after.is_saturated() && !before.is_saturated() {
                q.paths = (q.paths.0 + after.value() as f64, q.paths.1 + before.value() as f64);
            }
        }
        q
    }
}

impl Drop for ServeBatch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
