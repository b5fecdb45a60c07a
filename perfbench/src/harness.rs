//! Timing rounds, percentiles, failure counting and the result line.

use std::time::Instant;

/// What one round of a workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Seconds per job, in job order.
    pub job_secs: Vec<f64>,
    /// Seconds for the whole round: the sum of the jobs, or for the serve
    /// daemon the wall time of the drain.
    pub total_secs: f64,
}

/// Runs `round` at least `min_rounds` times, then again while another
/// round, estimated by the fastest so far, still ends within `seconds`.
/// `between` runs before every round but the first; its time does not
/// count against `seconds`.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    mut between: impl FnMut(usize),
    mut round: impl FnMut(usize) -> Round,
) -> Vec<Round> {
    let start = Instant::now();
    let mut excluded = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let fastest = rounds.iter().map(|r| r.total_secs).fold(f64::INFINITY, f64::min);
        let enough = rounds.len() >= min_rounds;
        if enough && start.elapsed().as_secs_f64() - excluded + fastest > seconds {
            return rounds;
        }
        if !rounds.is_empty() {
            let paused = Instant::now();
            between(rounds.len());
            excluded += paused.elapsed().as_secs_f64();
        }
        rounds.push(round(rounds.len()));
    }
}

/// Each job's times, one per round, in job order.
fn per_job(rounds: &[Round]) -> impl Iterator<Item = Vec<f64>> + '_ {
    let jobs = rounds.first().map_or(0, |r| r.job_secs.len());
    (0..jobs).map(move |j| rounds.iter().map(|r| r.job_secs[j]).collect())
}

/// Per-job best-of-rounds time: the minimum of each job's times.
pub fn best_per_job(rounds: &[Round]) -> Vec<f64> {
    per_job(rounds).map(|t| t.into_iter().fold(f64::INFINITY, f64::min)).collect()
}

/// Per-job median-of-rounds time: the median of each job's times.
pub fn median_per_job(rounds: &[Round]) -> Vec<f64> {
    per_job(rounds).map(|t| median(&t)).collect()
}

/// The median round total.
pub fn median_total(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.total_secs).collect::<Vec<_>>())
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` unless at
/// least ten samples lie beyond it — fewer leave the tail unresolved.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// The median (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Operations attempted and failed. A failure is an error, a panic, a
/// failed or shed serve job, or an output that fails its check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed operations as a share of attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Operations that did not fail, as a share of attempted ones.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.fail_ratio()
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The result line: `correct`, `attempted`, `failed` and every metric by
/// name with its unit.
///
/// # Panics
///
/// Panics on an invalid name or unit, a repeated name, or a value that is
/// not finite — each a bug in the benchmark.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let mut fields = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} for {}", m.unit, m.name);
        assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
        assert!(metrics[..i].iter().all(|o| o.name != m.name), "{} repeated", m.name);
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

/// The process's peak resident set in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// SplitMix64: the seed stream that orders each workload's jobs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 90.0), Some(90.0));
    }

    #[test]
    fn best_of_rounds_takes_each_jobs_minimum() {
        let rounds = vec![
            Round { job_secs: vec![3.0, 1.0, 5.0], total_secs: 9.0 },
            Round { job_secs: vec![2.0, 4.0, 5.5], total_secs: 11.5 },
            Round { job_secs: vec![2.5, 1.5, 4.0], total_secs: 8.0 },
        ];
        assert_eq!(best_per_job(&rounds), vec![2.0, 1.0, 4.0]);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_rounds_takes_each_jobs_median() {
        let rounds = vec![
            Round { job_secs: vec![3.0, 1.0, 5.0], total_secs: 9.0 },
            Round { job_secs: vec![2.0, 4.0, 5.5], total_secs: 11.5 },
            Round { job_secs: vec![2.5, 1.5, 4.0], total_secs: 8.0 },
        ];
        assert_eq!(median_per_job(&rounds), vec![2.5, 1.5, 5.0]);
        assert_eq!(median_total(&rounds), 9.0);
        // An even count of rounds takes the mean of the middle pair.
        assert_eq!(median_per_job(&rounds[..2]), vec![2.5, 2.5, 5.25]);
        assert_eq!(median_total(&rounds[..2]), 10.25);
    }

    #[test]
    fn rounds_run_the_minimum_then_stop_at_the_deadline() {
        let mut calls = 0;
        let rounds = run_rounds(
            0.0,
            3,
            |_| {},
            |i| {
                calls += 1;
                Round { job_secs: vec![i as f64], total_secs: 1.0 }
            },
        );
        assert_eq!((rounds.len(), calls), (3, 3));
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let round = |_| {
            sleep(100);
            Round { job_secs: vec![], total_secs: 0.1 }
        };
        let rounds = run_rounds(0.25, 1, |_| {}, round);
        assert_eq!(rounds.len(), 2, "a third 0.1 s round would end after 0.25 s");
        // Time spent between rounds does not count against the deadline.
        let mut between = Vec::new();
        let rounds = run_rounds(
            0.25,
            1,
            |i| {
                between.push(i);
                sleep(100);
            },
            round,
        );
        assert_eq!(rounds.len(), 2);
        assert_eq!(between, [1]);
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        for good in ["io.parse_ms", "job_p90_ms", "resynth-stream", "9lives", &"a".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "ms/s", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "MiB", "count", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seconds-per-kilo-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_counts_failures() {
        let mut tally = Tally::default();
        tally.record(true);
        tally.record(false);
        let line = result_line(tally, &[Metric { name: "x_ms", unit: "ms", value: 1.5 }]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(tally.fail_ratio(), 0.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
