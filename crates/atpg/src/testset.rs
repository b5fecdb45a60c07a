//! Deterministic test-set generation with static compaction.
//!
//! The classical two-phase flow: a random-pattern phase knocks out the
//! easy faults (keeping only *effective* patterns — those that detected a
//! previously-undetected fault), then PODEM targets every surviving fault
//! with fault dropping after each generated vector. A final reverse-order
//! static compaction pass removes vectors whose detections are covered by
//! the rest of the set; its detection matrix is fault simulated 64 vectors
//! per pass.

use crate::podem::{generate_test_with, PodemContext, TestResult};
use sft_budget::{Budget, StopReason};
use sft_netlist::Circuit;
use sft_sim::{fault_list, pattern_block, Fault, FaultSim};

/// Options for [`generate_test_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSetOptions {
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: u64,
    /// Number of 64-pattern random blocks in phase 1 (0 skips the phase).
    pub random_blocks: usize,
    /// Run reverse-order static compaction at the end.
    pub compact: bool,
    /// Seed for the random phase.
    pub seed: u64,
}

impl Default for TestSetOptions {
    fn default() -> Self {
        TestSetOptions { backtrack_limit: 50_000, random_blocks: 8, compact: true, seed: 0x7e57 }
    }
}

/// A generated stuck-at test set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSet {
    /// The test vectors (one `bool` per primary input, in input order).
    pub vectors: Vec<Vec<bool>>,
    /// Faults proven redundant (they need no test).
    pub redundant: usize,
    /// Faults whose PODEM search aborted (no test found, not proven
    /// redundant).
    pub aborted: usize,
    /// Faults never targeted because the effort budget ran out. Always 0
    /// when [`stop_reason`](Self::stop_reason) is [`StopReason::Converged`].
    pub untargeted: usize,
    /// Total faults targeted.
    pub total_faults: usize,
    /// Why generation stopped. [`StopReason::Converged`] means every fault
    /// was processed; budget exhaustion keeps the vectors generated so far.
    pub stop_reason: StopReason,
}

impl TestSet {
    /// Fault coverage over the testable faults: detected / (total −
    /// redundant). Aborted and budget-skipped faults count as undetected.
    pub fn coverage(&self) -> f64 {
        let testable = self.total_faults - self.redundant;
        if testable == 0 {
            1.0
        } else {
            (testable - self.aborted - self.untargeted) as f64 / testable as f64
        }
    }
}

fn vector_to_words(vector: &[bool]) -> Vec<u64> {
    vector.iter().map(|&b| if b { u64::MAX } else { 0 }).collect()
}

/// Which of `faults` the single `vector` detects.
fn detects(fsim: &mut FaultSim<'_>, faults: &[Fault], vector: &[bool]) -> Vec<bool> {
    let words = vector_to_words(vector);
    fsim.detect_block(faults, &words).into_iter().map(|d| d.is_some()).collect()
}

/// Generates a compact stuck-at test set for every fault of `circuit`.
///
/// # Panics
///
/// Panics if the circuit is cyclic or has no inputs.
pub fn generate_test_set(circuit: &Circuit, options: &TestSetOptions) -> TestSet {
    generate_test_set_with_budget(circuit, options, &Budget::unlimited())
}

/// Generates a stuck-at test set under an effort [`Budget`].
///
/// The budget is checked once per random-pattern block and consumed one
/// step per deterministically targeted fault. On exhaustion the vectors
/// generated so far are returned as-is (final compaction is also skipped
/// — it only shrinks the set, never completes it), the remaining faults
/// are counted in [`TestSet::untargeted`], and
/// [`TestSet::stop_reason`] records which limit cut in.
///
/// # Panics
///
/// Panics if the circuit is cyclic or has no inputs.
pub fn generate_test_set_with_budget(
    circuit: &Circuit,
    options: &TestSetOptions,
    budget: &Budget,
) -> TestSet {
    assert!(!circuit.inputs().is_empty(), "circuit must have inputs");
    let faults = fault_list(circuit);
    let mut fsim = FaultSim::new(circuit);
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut vectors: Vec<Vec<bool>> = Vec::new();
    let n_inputs = circuit.inputs().len();
    let mut stop = StopReason::Converged;

    // Phase 1: random patterns, keeping only effective ones. Block `b`
    // derives its patterns from `(seed, b)`; a vector is kept for every
    // pattern bit that first detects a still-alive fault.
    for block in 0..options.random_blocks as u64 {
        if alive.is_empty() {
            break;
        }
        if let Err(e) = budget.check() {
            stop = e.into();
            break;
        }
        let words = pattern_block(options.seed, block, n_inputs);
        let alive_faults: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
        let det = fsim.detect_block(&alive_faults, &words);
        let mut effective_bits: Vec<u32> = det.iter().flatten().copied().collect();
        effective_bits.sort_unstable();
        effective_bits.dedup();
        for bit in effective_bits {
            let vector: Vec<bool> = (0..n_inputs).map(|i| words[i] >> bit & 1 == 1).collect();
            vectors.push(vector);
        }
        alive = alive.iter().zip(&det).filter(|(_, d)| d.is_none()).map(|(&i, _)| i).collect();
    }

    // Phase 2: deterministic PODEM with fault dropping. The circuit is
    // immutable here, so one structural context serves every target.
    // `alive[next..]` are the faults not yet targeted or dropped.
    let ctx = PodemContext::new(circuit);
    let mut redundant = 0;
    let mut aborted = 0;
    let mut next = 0;
    while let Some(&target) = alive.get(next) {
        if let Err(e) = budget.consume(1) {
            stop = e.into();
            break;
        }
        match generate_test_with(&ctx, circuit, faults[target], options.backtrack_limit) {
            TestResult::Test(vector) => {
                let alive_faults: Vec<Fault> = alive[next..].iter().map(|&i| faults[i]).collect();
                let hit = detects(&mut fsim, &alive_faults, &vector);
                alive =
                    alive[next..].iter().zip(&hit).filter(|&(_, &h)| !h).map(|(&i, _)| i).collect();
                next = 0;
                vectors.push(vector);
            }
            TestResult::Untestable => {
                redundant += 1;
                next += 1;
            }
            TestResult::Aborted => {
                aborted += 1;
                next += 1;
            }
        }
    }

    let untargeted = if stop.is_early() { alive.len() - next } else { 0 };

    // Phase 3: reverse-order static compaction. Skipped when the budget
    // ran out: compaction only shrinks the set, and the remaining effort
    // is better reported back to the caller immediately.
    if options.compact && !vectors.is_empty() && !stop.is_early() {
        // The detection matrix, as the list of faults each vector detects.
        // A fault-simulation pass carries 64 vectors, one per pattern lane,
        // with the lanes past the last vector masked off, so the matrix is
        // the one simulating each vector alone gives. Then per-fault cover
        // counts, and vectors dropped from the back while every fault they
        // detect stays covered by another.
        let mut detected: Vec<Vec<u32>> = vec![Vec::new(); vectors.len()];
        for (chunk, rows) in vectors.chunks(64).zip(detected.chunks_mut(64)) {
            let words: Vec<u64> = (0..n_inputs)
                .map(|i| chunk.iter().enumerate().fold(0, |w, (lane, v)| w | (v[i] as u64) << lane))
                .collect();
            let lanes = if chunk.len() == 64 { u64::MAX } else { (1 << chunk.len()) - 1 };
            for (f, mut mask) in fsim.detect_masks(&faults, &words).into_iter().enumerate() {
                mask &= lanes;
                while mask != 0 {
                    rows[mask.trailing_zeros() as usize].push(f as u32);
                    mask &= mask - 1;
                }
            }
        }
        let mut cover_count: Vec<u32> = vec![0; faults.len()];
        for &f in detected.iter().flatten() {
            cover_count[f as usize] += 1;
        }
        let mut keep = vec![true; vectors.len()];
        for v in (0..vectors.len()).rev() {
            if detected[v].iter().all(|&f| cover_count[f as usize] >= 2) {
                keep[v] = false;
                for &f in &detected[v] {
                    cover_count[f as usize] -= 1;
                }
            }
        }
        vectors = vectors.into_iter().zip(keep).filter(|&(_, k)| k).map(|(v, _)| v).collect();
    }

    TestSet {
        vectors,
        redundant,
        aborted,
        untargeted,
        total_faults: faults.len(),
        stop_reason: stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    fn verify_complete(circuit: &Circuit, set: &TestSet) {
        // Every non-redundant, non-aborted fault must be detected by some
        // vector of the set.
        let faults = fault_list(circuit);
        let mut fsim = FaultSim::new(circuit);
        let mut covered = vec![false; faults.len()];
        for v in &set.vectors {
            for (f, hit) in detects(&mut fsim, &faults, v).into_iter().enumerate() {
                covered[f] = covered[f] || hit;
            }
        }
        let undetected = covered.iter().filter(|&&c| !c).count();
        assert_eq!(
            undetected,
            set.redundant + set.aborted,
            "test set must cover all detectable faults"
        );
    }

    #[test]
    fn c17_full_coverage_compact() {
        let c = parse(C17, "c17").unwrap();
        let set = generate_test_set(&c, &TestSetOptions::default());
        assert_eq!(set.redundant, 0);
        assert_eq!(set.aborted, 0);
        assert!((set.coverage() - 1.0).abs() < 1e-9);
        verify_complete(&c, &set);
        // c17 needs very few vectors; compaction should keep it small.
        assert!(set.vectors.len() <= 10, "{} vectors", set.vectors.len());
    }

    #[test]
    fn compaction_never_loses_coverage() {
        let c = parse(C17, "c17").unwrap();
        let loose =
            generate_test_set(&c, &TestSetOptions { compact: false, ..TestSetOptions::default() });
        let tight = generate_test_set(&c, &TestSetOptions::default());
        verify_complete(&c, &loose);
        verify_complete(&c, &tight);
        assert!(tight.vectors.len() <= loose.vectors.len());
    }

    #[test]
    fn redundant_faults_counted() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        let set = generate_test_set(&c, &TestSetOptions::default());
        assert!(set.redundant >= 1);
        verify_complete(&c, &set);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = parse(C17, "c17").unwrap();
        let a = generate_test_set(&c, &TestSetOptions::default());
        let b = generate_test_set(&c, &TestSetOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn pure_deterministic_phase_works() {
        let c = parse(C17, "c17").unwrap();
        let set = generate_test_set(
            &c,
            &TestSetOptions { random_blocks: 0, ..TestSetOptions::default() },
        );
        verify_complete(&c, &set);
    }

    #[test]
    fn pre_expired_deadline_yields_empty_set() {
        let c = parse(C17, "c17").unwrap();
        let budget = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let set = generate_test_set_with_budget(&c, &TestSetOptions::default(), &budget);
        assert_eq!(set.stop_reason, StopReason::Deadline);
        assert!(set.vectors.is_empty());
        assert_eq!(set.untargeted, set.total_faults);
        assert!(set.coverage() < 1e-9);
    }

    #[test]
    fn step_budget_limits_targeted_faults() {
        let c = parse(C17, "c17").unwrap();
        // Skip the random phase so every vector comes from a budgeted
        // PODEM target.
        let opts = TestSetOptions { random_blocks: 0, ..TestSetOptions::default() };
        let budget = Budget::unlimited().with_step_limit(2);
        let set = generate_test_set_with_budget(&c, &opts, &budget);
        assert_eq!(set.stop_reason, StopReason::StepBudget);
        assert!(set.vectors.len() <= 2, "{} vectors", set.vectors.len());
        assert!(set.untargeted > 0);
        assert!(set.coverage() < 1.0);
        // The partial set is still a valid (incomplete) test set.
        let full = generate_test_set(&c, &opts);
        assert_eq!(full.stop_reason, StopReason::Converged);
        assert_eq!(full.untargeted, 0);
        assert!(set.vectors.len() <= full.vectors.len());
    }
}
