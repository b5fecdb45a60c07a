//! The `testability` workload: generated circuits through the random
//! stuck-at campaign, ATPG test-set generation and the robust path delay
//! fault campaign — the measurements of the paper's Tables 5–7, without
//! resynthesis.

use crate::harness::{Round, SplitMix};
use crate::trace::{self, span};
use crate::{digest, guarded, Quality, Workload};
use sft::atpg::{generate_test_set, TestSet, TestSetOptions};
use sft::circuits::random::{random_circuit, RandomCircuitConfig};
use sft::circuits::{builders, gen};
use sft::delay::{pdf_campaign, PdfCampaignConfig, PdfCampaignResult};
use sft::io::{Format, WriteOptions};
use sft::netlist::Circuit;
use sft::sim::{campaign, fault_list, CampaignConfig, CampaignResult, FaultSim, FaultSimTables};
use std::time::Instant;

/// The robust PDF campaign as `sft pdf` runs it by default: 16,384 pairs.
fn pdf_config() -> PdfCampaignConfig {
    PdfCampaignConfig { max_pairs: 1 << 14, ..PdfCampaignConfig::default() }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Campaign,
    Testgen,
    Pdf,
}

const ENGINES: [Engine; 3] = [Engine::Campaign, Engine::Testgen, Engine::Pdf];

#[derive(Debug)]
enum Output {
    Campaign(CampaignResult),
    Testgen(TestSet),
    /// The campaign's result, or the refusal of a circuit with more paths
    /// than the enumeration cap.
    Pdf(Result<PdfCampaignResult, String>),
}

/// Circuits, each run through the three engines in turn.
pub struct Testability {
    names: Vec<String>,
    payloads: Vec<Vec<u8>>,
    /// Round 0's circuits, for the checks.
    circuits: Vec<Circuit>,
    first: Vec<Result<Output, String>>,
}

impl Testability {
    /// A fixed population: ripple adders, ALUs and textbook blocks
    /// (ATPG-easy), small multipliers — the 7- and 8-bit ones over the PDF
    /// enumeration cap — and 120-gate random cores, which are ATPG-hard:
    /// most of their faults are redundant and must be proven so. Fixed so
    /// that the coverages repeat exactly; the seed sets the order of the
    /// circuits.
    pub fn new(seed: u64) -> Self {
        let mut circuits: Vec<Circuit> = Vec::new();
        for w in [8, 16, 24, 32] {
            circuits.push(gen::wide_adder(w));
        }
        for w in [2, 4, 6, 8, 12, 16] {
            circuits.push(gen::alu(w));
        }
        for w in [3, 4, 7, 8] {
            circuits.push(gen::wide_multiplier(w));
        }
        for n in [4, 8] {
            circuits.push(builders::comparator(n));
            circuits.push(builders::parity_tree(2 * n));
        }
        circuits.push(builders::mux_tree(3));
        circuits.push(builders::decoder(3));
        for seed in 101..=115 {
            let core =
                RandomCircuitConfig { inputs: 20, outputs: 10, gates: 120, window: 40, seed };
            circuits.push(random_circuit(&core));
        }
        SplitMix::new(seed).shuffle(&mut circuits);
        let opts = WriteOptions::default();
        let payloads = circuits
            .iter()
            .map(|c| {
                sft::io::write_bytes(c, Format::Bench, &opts)
                    .expect("generated circuits are acyclic")
            })
            .collect();
        let names = circuits.iter().map(|c| c.name().to_string()).collect();
        Testability { names, payloads, circuits: Vec::new(), first: Vec::new() }
    }
}

fn run(c: &Circuit, engine: Engine) -> Output {
    let _s = span("job");
    match engine {
        Engine::Campaign => {
            // The fault-simulation tables, cached in the circuit for the
            // campaign and the ATPG that follow.
            drop({
                let _s = span("sim.snapshot");
                FaultSimTables::snapshot(c)
            });
            let faults = fault_list(c);
            let r = {
                let _s = span("sim.campaign");
                campaign(c, &faults, &CampaignConfig::default())
            };
            trace::count("sim.patterns", r.patterns_applied as f64);
            trace::count("sim.detected", r.detected as f64);
            Output::Campaign(r)
        }
        Engine::Testgen => {
            let set = {
                let _s = span("atpg.testgen");
                generate_test_set(c, &TestSetOptions::default())
            };
            trace::count("atpg.vectors", set.vectors.len() as f64);
            trace::count("atpg.aborted", set.aborted as f64);
            trace::count("atpg.redundant", set.redundant as f64);
            Output::Testgen(set)
        }
        Engine::Pdf => {
            let r = {
                let _s = span("delay.pdf");
                pdf_campaign(c, &pdf_config()).map_err(|e| e.to_string())
            };
            match &r {
                Ok(r) => {
                    trace::count("delay.pairs", r.pairs_applied as f64);
                    trace::count("delay.detected", r.detected as f64);
                }
                Err(_) => trace::count("delay.refused", 1.0),
            }
            Output::Pdf(r)
        }
    }
}

/// Faults of `c` that `vectors` detect, by fault simulation.
fn resimulate(c: &Circuit, vectors: &[Vec<bool>]) -> usize {
    let faults = fault_list(c);
    let mut fsim = FaultSim::new(c);
    let mut detected = vec![false; faults.len()];
    for block in vectors.chunks(64) {
        let words: Vec<u64> = (0..c.inputs().len())
            .map(|i| block.iter().enumerate().fold(0, |w, (b, v)| w | (u64::from(v[i]) << b)))
            .collect();
        // Lanes past the block's vectors simulate all-zero inputs: mask them.
        let lanes = if block.len() == 64 { u64::MAX } else { (1u64 << block.len()) - 1 };
        for (d, mask) in detected.iter_mut().zip(fsim.detect_masks(&faults, &words)) {
            *d |= mask & lanes != 0;
        }
    }
    detected.iter().filter(|&&d| d).count()
}

/// Faults a test set claims to detect.
fn claimed(set: &TestSet) -> usize {
    set.total_faults - set.redundant - set.aborted - set.untargeted
}

fn check(c: &Circuit, out: &Output) -> Result<(), String> {
    match out {
        Output::Testgen(set) => {
            let found = resimulate(c, &set.vectors);
            if found != claimed(set) {
                return Err(format!("vectors detect {found} faults, set claims {}", claimed(set)));
            }
        }
        Output::Campaign(r) => {
            let marked = r.detection_pattern.iter().flatten().count();
            let late = r.detection_pattern.iter().flatten().any(|&p| p >= r.patterns_applied);
            if marked != r.detected || late || r.detected > r.total_faults {
                return Err(format!("inconsistent campaign result: {marked} marked, {r:?}"));
            }
        }
        Output::Pdf(Ok(r)) if r.detected > r.total_faults => {
            return Err(format!("{} of {} faults detected", r.detected, r.total_faults));
        }
        Output::Pdf(_) => {}
    }
    Ok(())
}

impl Workload for Testability {
    fn label(&self, job: usize) -> String {
        format!("{}/{:?}", self.names[job / ENGINES.len()], ENGINES[job % ENGINES.len()])
    }

    fn round(&mut self, index: usize) -> (Round, Vec<Result<u64, String>>) {
        // Fresh circuits each round: nothing derived from them is cached.
        let circuits: Vec<Result<Circuit, String>> = self
            .payloads
            .iter()
            .zip(&self.names)
            .map(|(p, name)| {
                sft::io::parse_bytes(p, Format::Bench, name).map_err(|e| e.to_string())
            })
            .collect();
        let mut job_secs = Vec::new();
        let mut digests = Vec::new();
        for (j, (c, engine)) in
            circuits.iter().flat_map(|c| ENGINES.iter().map(move |&e| (c, e))).enumerate()
        {
            trace::set_job(j as u32);
            let start = Instant::now();
            let out = guarded(|| Ok(run(c.as_ref().map_err(Clone::clone)?, engine)));
            job_secs.push(start.elapsed().as_secs_f64());
            digests.push(out.as_ref().map(|o| digest(&format!("{o:?}"))).map_err(Clone::clone));
            if index == 0 {
                self.first.push(out);
            }
        }
        if index == 0 {
            self.circuits = circuits.into_iter().flatten().collect();
        }
        let total_secs = job_secs.iter().sum();
        (Round { job_secs, total_secs }, digests)
    }

    fn check(&mut self) -> Vec<Result<(), String>> {
        self.first
            .iter()
            .enumerate()
            .map(|(j, out)| {
                let c = self.circuits.get(j / ENGINES.len()).ok_or("circuit did not parse")?;
                guarded(|| check(c, out.as_ref().map_err(Clone::clone)?))
            })
            .collect()
    }

    fn note(&self, job: usize) -> String {
        match &self.first[job] {
            Ok(Output::Campaign(r)) => {
                format!(
                    "{}/{} faults in {} patterns",
                    r.detected, r.total_faults, r.patterns_applied
                )
            }
            Ok(Output::Testgen(s)) => format!(
                "{} vectors, {} redundant, {} aborted, coverage {:.4} ({})",
                s.vectors.len(),
                s.redundant,
                s.aborted,
                s.coverage(),
                s.stop_reason
            ),
            Ok(Output::Pdf(Ok(r))) => format!(
                "{}/{} robust in {} pairs ({})",
                r.detected, r.total_faults, r.pairs_applied, r.stop_reason
            ),
            Ok(Output::Pdf(Err(e))) => format!("refused: {e}"),
            Err(e) => format!("error: {e}"),
        }
    }

    fn quality(&self) -> Quality {
        let mut q = Quality::default();
        for out in self.first.iter().flatten() {
            let add = |(a, b): (u64, u64), x: usize, y: usize| (a + x as u64, b + y as u64);
            match out {
                Output::Campaign(r) => q.random = add(q.random, r.detected, r.total_faults),
                Output::Testgen(s) => {
                    q.stuck_at = add(q.stuck_at, claimed(s), s.total_faults - s.redundant)
                }
                Output::Pdf(Ok(r)) => q.pdf = add(q.pdf, r.detected, r.total_faults),
                Output::Pdf(Err(_)) => {}
            }
        }
        q
    }
}
