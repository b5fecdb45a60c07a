//! Random-pattern testability campaigns (the Table 6 experiment).
//!
//! Campaigns are serial and seed-deterministic: the pattern words of block
//! `b` are a pure function of `(seed, b)` (counter-based stream
//! derivation, [`pattern_block`]), and each wide stride sweeps its blocks
//! once for every live fault, dropping detected faults after every stride.
//!
//! Each sweep carries a [`W256`] word: four consecutive 64-pattern blocks
//! per pass, lane `l` carrying exactly block `base + l` of the seeded
//! stream. Merging still happens per 64-pattern block in strict order, so
//! detection indices, effective-pattern statistics and plateau stops are
//! exactly those of a 64-pattern-at-a-time loop.

use crate::fsim::WideFaultSim;
use crate::word::{SimWord, W256};
use crate::Fault;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sft_netlist::Circuit;
use sft_par::derive_seed;

/// Configuration of a random-pattern campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Maximum number of random patterns to apply.
    pub max_patterns: u64,
    /// Stop early when no new fault has been detected for this many
    /// consecutive patterns (0 disables the plateau rule).
    pub plateau: u64,
    /// RNG seed; equal seeds give identical pattern sequences, which is how
    /// the before/after comparisons of Tables 6 and 7 are made fair.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { max_patterns: 1 << 16, plateau: 0, seed: 0x5f7 }
    }
}

/// Result of a random-pattern campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// Number of faults simulated.
    pub total_faults: usize,
    /// Number of faults detected.
    pub detected: usize,
    /// Pattern index (0-based) at which each fault was first detected.
    pub detection_pattern: Vec<Option<u64>>,
    /// The last pattern that detected a previously-undetected fault
    /// (the paper's "eff.patt" column), if any fault was detected.
    pub last_effective_pattern: Option<u64>,
    /// Number of patterns actually applied.
    pub patterns_applied: u64,
}

impl CampaignResult {
    /// Number of faults left undetected (the paper's "remain" column).
    pub fn remaining(&self) -> usize {
        self.total_faults - self.detected
    }

    /// Fault coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }

    /// The cumulative detection curve: `(pattern index, faults detected so
    /// far)` at every pattern that detected something new, in pattern
    /// order. Useful for plotting random-pattern testability profiles.
    pub fn coverage_curve(&self) -> Vec<(u64, usize)> {
        let mut events: Vec<u64> = self.detection_pattern.iter().flatten().copied().collect();
        events.sort_unstable();
        let mut curve = Vec::new();
        let mut cumulative = 0usize;
        let mut i = 0;
        while i < events.len() {
            let p = events[i];
            while i < events.len() && events[i] == p {
                cumulative += 1;
                i += 1;
            }
            curve.push((p, cumulative));
        }
        curve
    }
}

/// The 64 input patterns of pattern block `block`, as one word per primary
/// input, derived purely from `(seed, block)`.
///
/// Every engine that applies seeded random pattern blocks (the stuck-at
/// campaign here, the random phase of test-set generation) derives block
/// words through this function, so a sweep at any word width regenerates
/// exactly the block the 64-bit loop would have drawn.
pub fn pattern_block(seed: u64, block: u64, num_inputs: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, block));
    (0..num_inputs).map(|_| rng.gen()).collect()
}

/// Simulates up to four consecutive blocks in one wide sweep and returns
/// one wide detection mask per fault; lane `l` of a mask is the 64-pattern
/// mask of block `block_ids[l]`. Unused lanes are zero-filled and never
/// read back, so a partial stride is still exact. The masks stay in wide
/// form — the merge loop extracts lanes on the fly instead of materializing
/// a per-block `Vec<u64>` split (which would cost an extra multi-megabyte
/// allocation and a full pass per stride on scale fault lists).
fn detect_stride(
    fsim: &mut WideFaultSim<W256>,
    faults: &[Fault],
    seed: u64,
    block_ids: &[u64],
    num_inputs: usize,
) -> Vec<W256> {
    debug_assert!(!block_ids.is_empty() && block_ids.len() <= W256::LANES);
    let lanes: Vec<Vec<u64>> =
        block_ids.iter().map(|&b| pattern_block(seed, b, num_inputs)).collect();
    let inputs: Vec<W256> =
        (0..num_inputs).map(|i| W256::from_lanes(|l| lanes.get(l).map_or(0, |v| v[i]))).collect();
    fsim.detect_masks(faults, &inputs)
}

/// Runs a random-pattern stuck-at campaign over `faults` on `circuit`.
///
/// Patterns are drawn from seeded per-block RNG streams in blocks of 64;
/// per-fault first detection indices are exact (bit-accurate within each
/// block). Detected faults are dropped from subsequent strides, so the cost
/// per block shrinks as coverage saturates. One topological sweep carries
/// four blocks ([`W256`]).
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn campaign(circuit: &Circuit, faults: &[Fault], config: &CampaignConfig) -> CampaignResult {
    let num_inputs = circuit.inputs().len();
    let mut fsim = WideFaultSim::<W256>::new(circuit);
    let lanes = W256::LANES as u64;

    let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
    // Global indices of still-undetected faults; compacted as faults fall.
    let mut alive: Vec<u32> = (0..faults.len() as u32).collect();
    let mut alive_faults: Vec<Fault> = faults.to_vec();
    let mut last_effective: Option<u64> = None;
    let mut applied: u64 = 0;
    let mut block_index: u64 = 0;
    let mut stopped = false;

    while !stopped && applied < config.max_patterns && !alive.is_empty() {
        // One wide stride per iteration: up to `LANES` consecutive blocks
        // swept together over the current alive set. (offset, size)
        // describe each block's pattern range. All pattern-count arithmetic
        // saturates so extreme `max_patterns` values degrade to "stop at
        // u64::MAX" instead of wrapping.
        let blocks_left = config.max_patterns.saturating_sub(applied).div_ceil(64);
        let chunk = lanes.min(blocks_left);
        let blocks: Vec<(u64, u64, u64)> = (0..chunk)
            .map(|i| {
                let offset = applied.saturating_add(i.saturating_mul(64));
                (block_index + i, offset, config.max_patterns.saturating_sub(offset).min(64))
            })
            .collect();
        let ids: Vec<u64> = blocks.iter().map(|&(b, _, _)| b).collect();
        let masks = detect_stride(&mut fsim, &alive_faults, config.seed, &ids, num_inputs);
        // Merge strictly in block (lane) order. Faults detected by an
        // earlier block of this stride are skipped in later blocks (their
        // slot in `detection` is already set), reproducing the serial drop
        // order.
        for (l, &(_, offset, size)) in blocks.iter().enumerate() {
            for (slot, wide) in masks.iter().enumerate() {
                let fault_idx = alive[slot] as usize;
                if detection[fault_idx].is_some() {
                    continue;
                }
                let mask = wide.lane(l);
                let mask = if size < 64 { mask & ((1u64 << size) - 1) } else { mask };
                if mask != 0 {
                    let pattern = offset.saturating_add(u64::from(mask.trailing_zeros()));
                    detection[fault_idx] = Some(pattern);
                    last_effective = Some(last_effective.map_or(pattern, |l| l.max(pattern)));
                }
            }
            applied = offset.saturating_add(size);
            block_index += 1;
            let all_dead = detection.iter().all(Option::is_some);
            let plateaued = config.plateau > 0
                && match last_effective {
                    Some(last) => applied.saturating_sub(last) > config.plateau,
                    None => applied > config.plateau,
                };
            if all_dead || plateaued {
                // Later lanes of this stride are discarded, exactly as a
                // block-at-a-time loop would never have simulated them.
                stopped = true;
                break;
            }
        }
        // Compact the alive lists in place — no per-stride reallocation.
        let mut kept = 0;
        for slot in 0..alive.len() {
            let fault_idx = alive[slot];
            if detection[fault_idx as usize].is_none() {
                alive[kept] = fault_idx;
                alive_faults[kept] = alive_faults[slot];
                kept += 1;
            }
        }
        alive.truncate(kept);
        alive_faults.truncate(kept);
    }

    let detected = detection.iter().filter(|d| d.is_some()).count();
    CampaignResult {
        total_faults: faults.len(),
        detected,
        detection_pattern: detection,
        last_effective_pattern: last_effective,
        patterns_applied: applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list;
    use sft_netlist::bench_format::parse;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    fn cfg(max_patterns: u64, plateau: u64, seed: u64) -> CampaignConfig {
        CampaignConfig { max_patterns, plateau, seed }
    }

    #[test]
    fn c17_reaches_full_coverage() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        let r = campaign(&c, &faults, &cfg(4096, 0, 1));
        assert_eq!(r.remaining(), 0, "c17 is fully random-pattern testable");
        assert!(r.coverage() > 0.999);
        assert!(r.last_effective_pattern.is_some());
    }

    #[test]
    fn same_seed_same_result() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        let a = campaign(&c, &faults, &cfg(512, 0, 42));
        let b = campaign(&c, &faults, &cfg(512, 0, 42));
        assert_eq!(a, b);
    }

    /// The loop a four-block sweep must reproduce: one `u64` block at a
    /// time, faults dropped after every block, the same tail mask and
    /// plateau rule.
    fn block_at_a_time(c: &Circuit, faults: &[Fault], config: &CampaignConfig) -> CampaignResult {
        let mut fsim = WideFaultSim::<u64>::new(c);
        let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
        let (mut last, mut applied, mut block) = (None, 0u64, 0u64);
        while applied < config.max_patterns && detection.contains(&None) {
            let size = (config.max_patterns - applied).min(64);
            let alive: Vec<usize> = (0..faults.len()).filter(|&i| detection[i].is_none()).collect();
            let alive_faults: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
            let words = pattern_block(config.seed, block, c.inputs().len());
            for (&i, mask) in alive.iter().zip(fsim.detect_masks(&alive_faults, &words)) {
                let mask = if size < 64 { mask & ((1u64 << size) - 1) } else { mask };
                if mask != 0 {
                    let p = applied + u64::from(mask.trailing_zeros());
                    detection[i] = Some(p);
                    last = Some(last.map_or(p, |l: u64| l.max(p)));
                }
            }
            applied += size;
            block += 1;
            if config.plateau > 0 && applied - last.unwrap_or(0) > config.plateau {
                break;
            }
        }
        CampaignResult {
            total_faults: faults.len(),
            detected: detection.iter().flatten().count(),
            detection_pattern: detection,
            last_effective_pattern: last,
            patterns_applied: applied,
        }
    }

    /// Sweeping four blocks per pass changes nothing: detection indices,
    /// the effective-pattern statistic and the plateau stop (which may land
    /// mid-stride) equal the block-at-a-time loop.
    #[test]
    fn wide_sweeps_match_block_at_a_time_loop() {
        let c = sft_circuits::random::random_circuit(&sft_circuits::random::RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 90,
            window: 16,
            seed: 21,
        });
        let faults = fault_list(&c);
        for (max_patterns, plateau) in [(1000, 0), (1 << 14, 300), (130, 0)] {
            let reference = block_at_a_time(&c, &faults, &cfg(max_patterns, plateau, 13));
            let r = campaign(&c, &faults, &cfg(max_patterns, plateau, 13));
            assert_eq!(reference, r, "max={max_patterns} plateau={plateau}");
        }
    }

    #[test]
    fn redundant_faults_remain() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        let faults = fault_list(&c);
        let r = campaign(&c, &faults, &cfg(1024, 0, 3));
        assert!(r.remaining() >= 1, "absorption makes at least one fault redundant");
    }

    #[test]
    fn plateau_stops_early() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        let r = campaign(&c, &faults, &cfg(1 << 20, 256, 5));
        assert!(r.patterns_applied < 1 << 20);
        assert_eq!(r.remaining(), 0);
    }

    /// `max_patterns` near `u64::MAX` must not wrap any offset or
    /// pattern-count statistic — the campaign saturates and stops on the
    /// plateau rule instead (the at-scale overflow audit).
    #[test]
    fn extreme_max_patterns_saturates_instead_of_wrapping() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        let faults = fault_list(&c);
        for max_patterns in [u64::MAX, u64::MAX - 37] {
            let r = campaign(&c, &faults, &cfg(max_patterns, 192, 3));
            assert!(r.patterns_applied < 1 << 20, "plateau must stop the run");
        }
    }

    #[test]
    fn coverage_curve_is_monotone_and_complete() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        let r = campaign(&c, &faults, &cfg(4096, 0, 2));
        let curve = r.coverage_curve();
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(curve.last().unwrap().1, r.detected);
        assert_eq!(curve.last().unwrap().0, r.last_effective_pattern.unwrap());
    }

    #[test]
    fn detection_pattern_consistency() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        let r = campaign(&c, &faults, &cfg(4096, 0, 9));
        let max_det = r.detection_pattern.iter().flatten().max().copied();
        assert_eq!(max_det, r.last_effective_pattern);
        assert_eq!(r.detected, r.detection_pattern.iter().filter(|d| d.is_some()).count());
    }

    #[test]
    fn pattern_block_is_a_pure_function() {
        assert_eq!(pattern_block(5, 3, 4), pattern_block(5, 3, 4));
        assert_ne!(pattern_block(5, 3, 4), pattern_block(5, 4, 4));
        assert_ne!(pattern_block(5, 3, 4), pattern_block(6, 3, 4));
        assert_eq!(pattern_block(5, 3, 4).len(), 4);
    }

    /// A tail block shorter than 64 patterns must mask detections past the
    /// configured maximum.
    #[test]
    fn tail_block_masked_consistently() {
        let c = parse(C17, "c17").unwrap();
        let faults = fault_list(&c);
        for max in [1, 63, 65, 130] {
            let r = campaign(&c, &faults, &cfg(max, 0, 11));
            assert!(r.patterns_applied <= max);
            assert!(r.detection_pattern.iter().flatten().all(|&p| p < max));
        }
    }
}
