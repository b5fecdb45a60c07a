//! The `resynth-stream` workload — about 100 small resynthesis jobs — and
//! its untimed defect probes, two ROADMAP-scale inputs. A job is what
//! `sft resynth` does for a user: parse bytes, count, run Procedure 2 or 3,
//! count again, write bytes.

use crate::harness::{Round, SplitMix};
use crate::trace::{self, span};
use crate::{digest, guarded, Probe, Quality, Workload};
use sft::budget::Budget;
use sft::circuits::gen;
use sft::circuits::random::RandomCircuitConfig;
use sft::core::{identify_cache_clear, identify_cache_stats, Objective, ResynthOptions};
use sft::core::{resynthesize_with_budget, ResynthReport};
use sft::io::{Format, WriteOptions};
use sft::netlist::{Circuit, PathCount};
use sft::par::Jobs;
use std::time::Instant;

/// One resynthesis request.
pub struct Job {
    label: String,
    /// The circuit's name, which the `.bench` writer puts in its header.
    name: String,
    payload: Vec<u8>,
    format: Format,
    objective: Objective,
    step_limit: Option<u64>,
}

/// What a job produced.
pub struct Output {
    report: ResynthReport,
    circuit: Circuit,
    bytes: Vec<u8>,
    counted: [(u64, PathCount); 2],
    steps_used: u64,
}

/// Writes `c` twice through a parse, so the payload is the canonical
/// writer's fixpoint: an unchanged circuit writes back byte for byte.
fn payload(c: &Circuit, format: Format) -> Vec<u8> {
    let opts = WriteOptions::default();
    let first = sft::io::write_bytes(c, format, &opts).expect("generated circuits are acyclic");
    let again = sft::io::parse_bytes(&first, format, c.name()).expect("writer output parses");
    sft::io::write_bytes(&again, format, &opts).expect("parsed circuits are acyclic")
}

fn counts(c: &Circuit) -> (u64, PathCount) {
    let _s = span("netlist.stats");
    (c.two_input_gate_count(), c.path_count_exact())
}

fn run(job: &Job) -> Result<Output, String> {
    let _s = span("job");
    let mut circuit = {
        let _s = span("io.parse");
        sft::io::parse_bytes(&job.payload, job.format, &job.name).map_err(|e| e.to_string())?
    };
    let before = counts(&circuit);
    let options =
        ResynthOptions { objective: job.objective, jobs: Jobs::serial(), ..Default::default() };
    // A step limit of u64::MAX never runs out; it only counts the steps.
    let limit = job.step_limit.unwrap_or(u64::MAX);
    let budget = Budget::unlimited().with_step_limit(limit);
    let memo = identify_cache_stats();
    let report = {
        let _s = span("core.resynth");
        resynthesize_with_budget(&mut circuit, &options, &budget).map_err(|e| e.to_string())?
    };
    let memo_after = identify_cache_stats();
    let after = counts(&circuit);
    let bytes = {
        let _s = span("io.write");
        sft::io::write_bytes(&circuit, job.format, &WriteOptions::default())
            .map_err(|e| e.to_string())?
    };
    let steps_used = limit - budget.remaining_steps().unwrap_or(limit);
    trace::count("io.calls", 2.0);
    trace::count("core.passes", report.passes as f64);
    trace::count("core.replacements", report.replacements as f64);
    trace::count("core.steps_used", steps_used as f64);
    trace::count("core.memo_hits", memo_after.hits.saturating_sub(memo.hits) as f64);
    trace::count("core.memo_misses", memo_after.misses.saturating_sub(memo.misses) as f64);
    trace::count_max("core.verify_nodes_peak", report.verify_nodes as f64);
    Ok(Output { report, circuit, bytes, counted: [before, after], steps_used })
}

/// A resynthesis workload: a job list, run in order every round. Each job
/// starts from a cold identification memo, as a fresh `sft resynth`
/// process does, so that its work does not depend on the job order; the
/// memo then warms across the job's cones and passes.
pub struct Resynth {
    jobs: Vec<Job>,
    first: Vec<Result<Output, String>>,
}

impl Resynth {
    /// `resynth-stream`: about 100 small jobs — stitched random cores and
    /// small adders and ALUs, as `.bench`, `.v` and `.aag` payloads under
    /// Procedure 2 or 3. The population is fixed so that its quality
    /// figures repeat exactly; the seed sets the order in which one client
    /// sends the jobs, closed loop.
    pub fn stream(seed: u64) -> Self {
        const FORMATS: [Format; 5] =
            [Format::Bench, Format::Verilog, Format::AigerAscii, Format::Bench, Format::Verilog];
        let mut circuits: Vec<Circuit> = Vec::new();
        for k in 0..70u64 {
            let core = RandomCircuitConfig {
                inputs: 12,
                outputs: 6,
                gates: 50,
                window: 18,
                seed: 1000 + k,
            };
            circuits.push(gen::stitched([1, 1, 2, 1, 2, 3][k as usize % 6], &core));
        }
        for w in [3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 32] {
            circuits.push(gen::wide_adder(w));
            circuits.push(gen::alu(w / 2));
        }
        // Formats rotate every third circuit, AIGER (whose AND-inverter
        // form makes the costliest jobs) one time in five, and objectives
        // every other circuit, so each core size meets every format and
        // both procedures.
        let mut jobs: Vec<Job> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let format = FORMATS[(i / 3) % 5];
                let objective = if i % 2 == 0 { Objective::Gates } else { Objective::Paths };
                let label = format!("{}-{}-p{}", c.name(), format.extension(), 2 + i % 2);
                let name = c.name().to_string();
                let payload = payload(c, format);
                Job { label, name, payload, format, objective, step_limit: None }
            })
            .collect();
        SplitMix::new(seed).shuffle(&mut jobs);
        Resynth { jobs, first: Vec::new() }
    }
}

/// The ROADMAP's scale inputs that show the seed's known defects, at their
/// sizes: `stitch48` under a 2000-step budget (running out mid-pass rolls
/// the whole pass back: 0 replacements) and a 7K-gate deep DAG (stops with
/// bdd-blowup while building the reference BDDs). They run once per run,
/// after the checks and untimed: their times swing by a quarter between
/// runs, and the unbudgeted `stitch48` (9 s serially) more.
fn defect_jobs() -> Vec<Job> {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 1 };
    let stitch = gen::stitched(48, &core);
    let dag = gen::deep_dag(&RandomCircuitConfig {
        inputs: 256,
        outputs: 32,
        gates: 12_000,
        window: 2000,
        seed: 3,
    });
    let job = |label: &str, c: &Circuit, step_limit| Job {
        label: label.to_string(),
        name: c.name().to_string(),
        payload: payload(c, Format::Bench),
        format: Format::Bench,
        objective: Objective::Gates,
        step_limit,
    };
    vec![job("stitch48-steps2000", &stitch, Some(2000)), job("dag12k", &dag, None)]
}

impl Workload for Resynth {
    fn label(&self, job: usize) -> String {
        self.jobs[job].label.clone()
    }

    fn round(&mut self, index: usize) -> (Round, Vec<Result<u64, String>>) {
        let mut job_secs = Vec::with_capacity(self.jobs.len());
        let mut digests = Vec::with_capacity(self.jobs.len());
        for (j, job) in self.jobs.iter().enumerate() {
            identify_cache_clear();
            trace::set_job(j as u32);
            let start = Instant::now();
            let out = guarded(|| run(job));
            job_secs.push(start.elapsed().as_secs_f64());
            digests.push(out.as_ref().map(|o| digest(&o.bytes)).map_err(Clone::clone));
            if index == 0 {
                self.first.push(out);
            }
        }
        let total_secs = job_secs.iter().sum();
        (Round { job_secs, total_secs }, digests)
    }

    fn check(&mut self) -> Vec<Result<(), String>> {
        self.jobs.iter().zip(&self.first).map(|(job, out)| check(job, out.as_ref()?)).collect()
    }

    fn note(&self, job: usize) -> String {
        note(&self.first[job])
    }

    fn probes(&mut self) -> Vec<Probe> {
        defect_jobs()
            .iter()
            .map(|job| {
                identify_cache_clear();
                let start = Instant::now();
                let out = guarded(|| run(job));
                let secs = start.elapsed().as_secs_f64();
                let verdict = out.as_ref().map_err(Clone::clone).and_then(|o| check(job, o));
                Probe { label: job.label.clone(), secs, note: note(&out), verdict }
            })
            .collect()
    }

    fn quality(&self) -> Quality {
        let mut q = Quality::default();
        for out in self.first.iter().flatten() {
            let [(g0, p0), (g1, p1)] = out.counted;
            q.gates = (q.gates.0 + g1, q.gates.1 + g0);
            if !p0.is_saturated() && !p1.is_saturated() {
                q.paths = (q.paths.0 + p1.value() as f64, q.paths.1 + p0.value() as f64);
            }
        }
        q
    }
}

fn note(out: &Result<Output, String>) -> String {
    match out {
        Ok(out) => format!("{}; {} steps", out.report, out.steps_used),
        Err(e) => format!("error: {e}"),
    }
}

/// The output check: the engine's own before and after counts must match
/// the netlist's, and the bytes the user gets back must be equivalent to
/// the input — by identical bytes, or else by parsing them and comparing
/// the functions (see [`crate::returned`] for the one parse error let
/// through).
fn check(job: &Job, out: &Output) -> Result<(), String> {
    let r = &out.report;
    let engine = [(r.gates_before, r.paths_before), (r.gates_after, r.paths_after)];
    if engine != out.counted {
        return Err(format!("engine counts {engine:?} differ from netlist {:?}", out.counted));
    }
    if out.bytes == job.payload {
        return Ok(());
    }
    let input = sft::io::parse_bytes(&job.payload, job.format, &job.name)
        .map_err(|e| format!("input does not parse: {e}"))?;
    let returned = crate::returned(&out.bytes, job.format, &job.name, &out.circuit)?;
    crate::equivalent(&input, &returned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injected output that is not equivalent to its input fails its
    /// check, and every execution of that job counts as failed.
    #[test]
    fn non_equivalent_output_raises_fail_ratio() {
        let c = gen::wide_adder(3);
        let job = |label: &str| Job {
            label: label.into(),
            name: c.name().to_string(),
            payload: payload(&c, Format::Bench),
            format: Format::Bench,
            objective: Objective::Gates,
            step_limit: None,
        };
        let mut w = Resynth { jobs: vec![job("a"), job("b")], first: vec![] };
        let digests: Vec<_> = (0..2).map(|i| w.round(i).1).collect();
        let clean = crate::tally(&digests, &w.check());
        assert_eq!((clean.attempted, clean.failed), (4, 0));

        // Swap two outputs in the bytes of job "a", leaving the in-memory
        // circuit alone.
        let out = w.first[0].as_mut().expect("adder resynthesizes");
        let src = String::from_utf8(out.bytes.clone()).unwrap();
        out.bytes = crate::tests::swap_outputs(&src).into_bytes();
        let checks = w.check();
        assert!(checks[0].as_ref().unwrap_err().contains("differs"), "{checks:?}");
        let tally = crate::tally(&digests, &checks);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.fail_ratio(), 0.5);
    }
}
