//! Identifying comparison functions (Section 3.4 of the paper).
//!
//! Two procedures are provided:
//!
//! - [`IdentifyMethod::Permutations`] — the paper's method: try input
//!   permutations (all of them when `n!` fits the budget, otherwise a
//!   deterministic prefix) and check whether the 1-minterms become
//!   consecutive; the paper's experiments cap this at 200 permutations and
//!   also check the **complement** of the function.
//! - [`IdentifyMethod::Exact`] — a complete decision that returns the
//!   interval under the lexicographically first permutation that has one,
//!   trying the function before its complement.
//!   - For `n <= 5` the answer is a lookup. On first use for a given `n`,
//!     a table of every interval function over `n` inputs is built by
//!     walking the permutations in lexicographic order and every `[L, U]`
//!     under each; the first writer of a truth table keeps its
//!     certificate. A complemented certificate is the direct entry of the
//!     complement. The n = 5 table holds 20,646 interval functions (39,958
//!     comparison functions with their complements) and takes about a
//!     millisecond to build.
//!   - For `n = 6` and `7` a recursive search decides it: an on-set is an
//!     interval iff some variable either (a) is constant on it (a *free
//!     variable*) with the rest an interval, or (b) splits it into a
//!     suffix-interval (`>=L'`) low half and a prefix-interval (`<=U'`)
//!     high half under a shared permutation of the remaining variables.
//!     This removes the `n!` factor the paper mentions (their sketched
//!     alternative is a Hamiltonian-path formulation). Its answers are kept
//!     in one process-wide map keyed by the truth table, so a cone function
//!     that recurs is searched once; [`identify_cache_stats`] counts that
//!     map's hits and misses.
//!
//!   Both give the same certificate for the same table; a test compares
//!   them on every 4-input function and on every 5-input comparison
//!   function.
//!
//! Satisfiability don't-cares are supported by the permutation method: the
//! interval must contain all 1-minterms and no 0-minterm, while don't-cares
//! may fall on either side.

use crate::ComparisonSpec;
use sft_truth::TruthTable;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Which identification procedure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdentifyMethod {
    /// The paper's capped permutation search.
    Permutations,
    /// The exact decision: a table lookup for `n <= 5`, a recursive interval
    /// decomposition above (default).
    #[default]
    Exact,
}

/// Options for [`identify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifyOptions {
    /// The procedure to use.
    pub method: IdentifyMethod,
    /// Permutation budget for [`IdentifyMethod::Permutations`] (the paper
    /// used 200).
    pub max_permutations: usize,
    /// Also try to certify the complement (the paper's experiments do; the
    /// comparison unit then gets an output inverter).
    pub try_complement: bool,
}

impl Default for IdentifyOptions {
    fn default() -> Self {
        IdentifyOptions {
            method: IdentifyMethod::Exact,
            max_permutations: 200,
            try_complement: true,
        }
    }
}

impl IdentifyOptions {
    /// The configuration the paper's experiments used: up to 200
    /// permutations, complement included.
    pub fn paper() -> Self {
        IdentifyOptions {
            method: IdentifyMethod::Permutations,
            max_permutations: 200,
            try_complement: true,
        }
    }
}

/// Decides whether `f` is a comparison function and returns a certificate.
///
/// Constant functions are certified with the full or empty interval (their
/// comparison units degenerate to constants).
///
/// # Examples
///
/// ```
/// use sft_core::{identify, IdentifyOptions};
/// use sft_truth::TruthTable;
///
/// // XOR of two inputs is the interval [1, 2].
/// let xor2 = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
/// let spec = identify(&xor2, &IdentifyOptions::default()).expect("xor2 is comparison");
/// assert_eq!((spec.lower, spec.upper), (1, 2));
///
/// // 3-input majority is not a comparison function.
/// let maj = TruthTable::from_minterms(3, &[3, 5, 6, 7]).expect("in range");
/// assert!(identify(&maj, &IdentifyOptions::default()).is_none());
/// ```
pub fn identify(f: &TruthTable, options: &IdentifyOptions) -> Option<ComparisonSpec> {
    let n = f.inputs();
    if f.is_one() {
        let upper = if n == 0 { 0 } else { (1u64 << n) - 1 };
        return ComparisonSpec::new((0..n).collect(), 0, upper).ok();
    }
    if f.is_zero() {
        // Empty interval: certify as the complement of the full interval.
        let upper = if n == 0 { 0 } else { (1u64 << n) - 1 };
        return ComparisonSpec::new_complemented((0..n).collect(), 0, upper).ok();
    }
    match options.method {
        IdentifyMethod::Permutations => search(f, options.try_complement, |g| {
            identify_permutations(g, options.max_permutations)
        }),
        IdentifyMethod::Exact if n <= TABLE_MAX_INPUTS => lookup(f, options.try_complement),
        IdentifyMethod::Exact => memoized_search(f, options.try_complement),
    }
}

/// Runs `method` on `f`, then (when allowed) on its complement.
fn search(
    f: &TruthTable,
    try_complement: bool,
    method: impl Fn(&TruthTable) -> Option<ComparisonSpec>,
) -> Option<ComparisonSpec> {
    if let Some(spec) = method(f) {
        return Some(spec);
    }
    if !try_complement {
        return None;
    }
    let spec = method(&f.complement())?;
    ComparisonSpec::new_complemented(spec.perm, spec.lower, spec.upper).ok()
}

/// Input counts up to this one are answered from [`interval_table`].
const TABLE_MAX_INPUTS: usize = 5;

/// Distinct interval functions over `n` inputs for `n = 0..=5`, so each
/// table is allocated once at its final size.
const TABLE_SIZES: [usize; TABLE_MAX_INPUTS + 1] = [1, 3, 12, 90, 1_180, 20_646];

/// A multiply-fold hasher for the tables' `u32` keys: one 64×64→128-bit
/// multiply, folded, so both the low bits (the bucket) and the high bits
/// (the tag) depend on every key bit.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Truth-table bits (bit `m` = minterm `m`) to a packed certificate: bits
/// `3i..3i+3` hold `perm[i]`, then 5 bits each of `L` and `U`.
type IntervalTable = HashMap<u32, u32, BuildHasherDefault<FoldHasher>>;

const LOWER_SHIFT: u32 = 15;
const UPPER_SHIFT: u32 = 20;

/// The interval functions over `n <= 5` inputs, built on first use.
fn interval_table(n: usize) -> &'static IntervalTable {
    static TABLES: [OnceLock<IntervalTable>; TABLE_MAX_INPUTS + 1] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    TABLES[n].get_or_init(|| build_interval_table(n))
}

/// Walks the permutations of `0..n` in lexicographic order and every
/// interval `[L, U]` under each; the first (permutation, interval) to
/// produce a truth table is the certificate stored for it, which is the
/// one the recursive search returns.
fn build_interval_table(n: usize) -> IntervalTable {
    let size = 1usize << n;
    let mut table = IntervalTable::with_capacity_and_hasher(TABLE_SIZES[n], Default::default());
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        // The original minterm whose permuted value is `v`: bit `i`
        // (MSB-first) of `v` is original input `perm[i]`.
        let minterm_of: Vec<u32> = (0..size as u32)
            .map(|v| {
                perm.iter().enumerate().map(|(i, &p)| (v >> (n - 1 - i) & 1) << (n - 1 - p)).sum()
            })
            .collect();
        let packed_perm: u32 =
            perm.iter().enumerate().map(|(i, &p)| (p as u32) << (3 * i as u32)).sum();
        for lower in 0..size {
            let mut bits = 0u32;
            for (upper, &m) in minterm_of.iter().enumerate().skip(lower) {
                bits |= 1 << m;
                table.entry(bits).or_insert(
                    packed_perm | (lower as u32) << LOWER_SHIFT | (upper as u32) << UPPER_SHIFT,
                );
            }
        }
        if !next_permutation(&mut perm) {
            return table;
        }
    }
}

/// Exact identification of a non-constant `f` with `n <= 5` inputs.
fn lookup(f: &TruthTable, try_complement: bool) -> Option<ComparisonSpec> {
    let n = f.inputs();
    let table = interval_table(n);
    let bits = f.bits() as u32;
    let (packed, complemented) = match table.get(&bits) {
        Some(&packed) => (packed, false),
        None if try_complement => (*table.get(&(f.complement().bits() as u32))?, true),
        None => return None,
    };
    Some(ComparisonSpec {
        perm: (0..n).map(|i| (packed >> (3 * i) & 7) as usize).collect(),
        lower: u64::from(packed >> LOWER_SHIFT & 31),
        upper: u64::from(packed >> UPPER_SHIFT & 31),
        complemented,
    })
}

/// Counters of the process-wide map behind exact identification of 6- and
/// 7-input functions (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the map.
    pub hits: u64,
    /// Queries that ran the recursive search.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Recursive-search answers for `n = 6, 7`, keyed by
/// `(bits, n, try_complement)`.
#[derive(Default)]
struct SearchMemo {
    answers: HashMap<(u128, u8, bool), Option<ComparisonSpec>>,
    hits: u64,
    misses: u64,
}

fn search_memo() -> std::sync::MutexGuard<'static, SearchMemo> {
    static MEMO: OnceLock<Mutex<SearchMemo>> = OnceLock::new();
    // The map holds plain data and no search runs under the lock, so a
    // poisoned lock still guards a consistent map.
    MEMO.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Exact identification of a non-constant `f` with 6 or 7 inputs, through
/// the process-wide map.
fn memoized_search(f: &TruthTable, try_complement: bool) -> Option<ComparisonSpec> {
    let key = (f.bits(), f.inputs() as u8, try_complement);
    {
        let mut memo = search_memo();
        if let Some(answer) = memo.answers.get(&key).cloned() {
            memo.hits += 1;
            return answer;
        }
        memo.misses += 1;
    }
    let answer = search(f, try_complement, identify_exact);
    search_memo().answers.insert(key, answer.clone());
    answer
}

/// Hit and miss counters and the size of the process-wide map behind
/// exact identification of 6- and 7-input functions. Queries with five or
/// fewer inputs are table lookups and are not counted.
pub fn identify_cache_stats() -> CacheStats {
    let memo = search_memo();
    CacheStats { hits: memo.hits, misses: memo.misses, entries: memo.answers.len() }
}

/// Empties the process-wide map of 6- and 7-input answers and zeroes its
/// counters, so a timed run does not start warm.
pub fn identify_cache_clear() {
    *search_memo() = SearchMemo::default();
}

/// Writes an empty file at `path`: identification keeps no state worth
/// persisting. Kept only because `perfbench/` calls it and copies the file
/// it names.
///
/// # Errors
///
/// Any error creating the file.
pub fn identify_cache_save(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, [])
}

/// Identification extended with **input polarities**: searches for a
/// polarity assignment (which inputs to complement) under which `f`
/// becomes a comparison function. This strictly generalizes
/// [`identify`] — the unit is then fed through inverters on the negated
/// inputs, which cost no equivalent 2-input gates and add no paths.
///
/// Returns the certificate together with the polarity vector
/// (`negate[j] == true` means original input `j` is complemented before
/// entering the unit). The all-false polarity is tried first, so plain
/// comparison functions get plain certificates.
pub fn identify_with_polarities(
    f: &TruthTable,
    options: &IdentifyOptions,
) -> Option<(ComparisonSpec, Vec<bool>)> {
    let n = f.inputs();
    for polarity_bits in 0..1u32 << n {
        let negate: Vec<bool> = (0..n).map(|j| polarity_bits >> j & 1 == 1).collect();
        let mut g = *f;
        for (j, &neg) in negate.iter().enumerate() {
            if neg {
                g = g.flip_input(j).expect("index in range");
            }
        }
        if let Some(spec) = identify(&g, options) {
            return Some((spec, negate));
        }
    }
    None
}

/// Permutation-driven identification with satisfiability don't-cares: the
/// chosen interval must contain every minterm of `on` and no minterm of the
/// off-set (`!on & !dc`); don't-care minterms may land anywhere. Returns a
/// spec whose [`to_table`](ComparisonSpec::to_table) agrees with `on` on
/// every care minterm.
///
/// The complement is also tried when `options.try_complement` is set. Only
/// [`IdentifyMethod::Permutations`] supports don't-cares; the `method`
/// option is ignored here.
///
/// # Panics
///
/// Panics if `on` and `dc` have different input counts.
pub fn identify_with_dc(
    on: &TruthTable,
    dc: &TruthTable,
    options: &IdentifyOptions,
) -> Option<ComparisonSpec> {
    assert_eq!(on.inputs(), dc.inputs(), "on/dc input count mismatch");
    if dc.is_zero() {
        return identify(on, options);
    }
    let care_on = on.and(&dc.complement());
    let care_off = on.complement().and(&dc.complement());
    if care_on.is_zero() || care_off.is_zero() {
        // Some constant covers all care minterms.
        return identify(
            &if care_off.is_zero() {
                TruthTable::one(on.inputs())
            } else {
                TruthTable::zero(on.inputs())
            },
            options,
        );
    }
    if let Some(spec) = interval_search_dc(&care_on, &care_off, options.max_permutations) {
        return Some(spec);
    }
    if options.try_complement {
        if let Some(spec) = interval_search_dc(&care_off, &care_on, options.max_permutations) {
            return ComparisonSpec::new_complemented(spec.perm, spec.lower, spec.upper).ok();
        }
    }
    None
}

/// Generates permutations of `0..n` in lexicographic order, up to `cap`.
fn permutations(n: usize, cap: usize) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    loop {
        result.push(current.clone());
        if result.len() >= cap || !next_permutation(&mut current) {
            return result;
        }
    }
}

/// Steps `p` to the next permutation in lexicographic order; `false` after
/// the last one.
pub(crate) fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

fn interval_of(g: &TruthTable) -> Option<(u64, u64)> {
    let mut min = None;
    let mut max = 0;
    let mut count = 0u64;
    for m in g.on_set() {
        if min.is_none() {
            min = Some(m);
        }
        max = m;
        count += 1;
    }
    let min = min?;
    (max - min + 1 == count).then_some((min, max))
}

fn identify_permutations(f: &TruthTable, cap: usize) -> Option<ComparisonSpec> {
    for perm in permutations(f.inputs(), cap) {
        let g = f.permute(&perm).expect("generated permutations are valid");
        if let Some((lower, upper)) = interval_of(&g) {
            return ComparisonSpec::new(perm, lower, upper).ok();
        }
    }
    None
}

fn interval_search_dc(
    care_on: &TruthTable,
    care_off: &TruthTable,
    cap: usize,
) -> Option<ComparisonSpec> {
    for perm in permutations(care_on.inputs(), cap) {
        let on_p = care_on.permute(&perm).expect("valid permutation");
        let off_p = care_off.permute(&perm).expect("valid permutation");
        let lower = on_p.on_set().next()?;
        let upper = on_p.on_set().last()?;
        let clash = off_p.on_set().any(|m| lower <= m && m <= upper);
        if !clash {
            return ComparisonSpec::new(perm, lower, upper).ok();
        }
    }
    None
}

/// Exact recursive identification: removes the `n!` factor.
fn identify_exact(f: &TruthTable) -> Option<ComparisonSpec> {
    let n = f.inputs();
    let vars: Vec<usize> = (0..n).collect();
    let (perm, lower, upper) = find_interval(f, &vars)?;
    ComparisonSpec::new(perm, lower, upper).ok()
}

/// Finds `(perm_suffix, L, U)` over the remaining `vars` such that the
/// on-set of `f` restricted to those vars is exactly `[L, U]`.
fn find_interval(f: &TruthTable, vars: &[usize]) -> Option<(Vec<usize>, u64, u64)> {
    if f.is_zero() {
        return None; // handled by the caller (constant certificates)
    }
    if vars.is_empty() {
        // f is a nonzero constant over no remaining vars: the 1-point
        // interval [0, 0].
        return Some((Vec::new(), 0, 0));
    }
    let k = vars.len();
    for (vi, &v) in vars.iter().enumerate() {
        let rest: Vec<usize> =
            vars.iter().enumerate().filter(|&(i, _)| i != vi).map(|(_, &w)| w).collect();
        let c0 = f.cofactor(v, false).expect("var in range");
        let c1 = f.cofactor(v, true).expect("var in range");
        if c1.is_zero() {
            if let Some((mut perm, l, u)) = find_interval(&c0, &rest) {
                let mut p = vec![v];
                p.append(&mut perm);
                return Some((p, l, u));
            }
            continue;
        }
        if c0.is_zero() {
            if let Some((mut perm, l, u)) = find_interval(&c1, &rest) {
                let half = 1u64 << (k - 1);
                let mut p = vec![v];
                p.append(&mut perm);
                return Some((p, half + l, half + u));
            }
            continue;
        }
        // Both halves populated: need c0 to be a suffix interval and c1 a
        // prefix interval under a *shared* permutation.
        if let Some((mut perm, l, u)) = find_straddle(&c0, &c1, &rest) {
            let half = 1u64 << (k - 1);
            let mut p = vec![v];
            p.append(&mut perm);
            return Some((p, l, half + u));
        }
    }
    None
}

/// Whether `f` is constant 1 over the remaining variables `vars` (it may
/// still formally mention other, already-cofactored variables — those are
/// filled uniformly by `cofactor`, so a global check suffices).
fn is_one_over(f: &TruthTable) -> bool {
    f.is_one()
}

/// Finds a shared permutation of `vars` under which `g0`'s on-set is the
/// suffix interval `[L', max]` and `g1`'s the prefix `[0, U']`.
fn find_straddle(
    g0: &TruthTable,
    g1: &TruthTable,
    vars: &[usize],
) -> Option<(Vec<usize>, u64, u64)> {
    if g0.is_zero() || g1.is_zero() {
        return None; // straddle requires both halves populated
    }
    if vars.is_empty() {
        return (is_one_over(g0) && is_one_over(g1)).then(|| (Vec::new(), 0, 0));
    }
    let k = vars.len();
    for (vi, &v) in vars.iter().enumerate() {
        let rest: Vec<usize> =
            vars.iter().enumerate().filter(|&(i, _)| i != vi).map(|(_, &w)| w).collect();
        let g0_0 = g0.cofactor(v, false).expect("var in range");
        let g0_1 = g0.cofactor(v, true).expect("var in range");
        let g1_0 = g1.cofactor(v, false).expect("var in range");
        let g1_1 = g1.cofactor(v, true).expect("var in range");
        // Suffix candidates for g0: (l_bit, remaining suffix function).
        let mut g0_cases: Vec<(u64, &TruthTable)> = Vec::new();
        if is_one_over(&g0_1) {
            g0_cases.push((0, &g0_0)); // l=0: high half all 1, low half >= L''
        }
        if g0_0.is_zero() {
            g0_cases.push((1, &g0_1)); // l=1: low half all 0, high half >= L''
        }
        // Prefix candidates for g1.
        let mut g1_cases: Vec<(u64, &TruthTable)> = Vec::new();
        if is_one_over(&g1_0) {
            g1_cases.push((1, &g1_1)); // u=1: low half all 1, high half <= U''
        }
        if g1_1.is_zero() {
            g1_cases.push((0, &g1_0)); // u=0: high half all 0, low half <= U''
        }
        for &(lb, s0) in &g0_cases {
            for &(ub, s1) in &g1_cases {
                // s0 must remain a suffix interval, s1 a prefix interval.
                // Reuse find_straddle with the roles: suffix-only and
                // prefix-only are the degenerate cases where the partner is
                // constant 1.
                if let Some((mut perm, l, u)) = find_straddle(s0, s1, &rest) {
                    let bit = 1u64 << (k - 1);
                    let mut p = vec![v];
                    p.append(&mut perm);
                    return Some((p, lb * bit + l, ub * bit + u));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn exact(try_complement: bool) -> IdentifyOptions {
        IdentifyOptions { try_complement, ..IdentifyOptions::default() }
    }

    /// The recursive search with its complement fallback, bypassing the
    /// table and the map: the oracle both must reproduce exactly.
    fn recursive(f: &TruthTable, try_complement: bool) -> Option<ComparisonSpec> {
        if f.is_one() || f.is_zero() {
            return identify(f, &exact(try_complement));
        }
        search(f, try_complement, identify_exact)
    }

    fn assert_matches_recursive(f: &TruthTable) {
        for try_complement in [true, false] {
            assert_eq!(
                identify(f, &exact(try_complement)),
                recursive(f, try_complement),
                "n={} bits={:#x} try_complement={try_complement}",
                f.inputs(),
                f.bits()
            );
        }
    }

    /// xorshift64: a fixed stream of random truth tables.
    fn next_random(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The tables hold the interval functions; with their complements
    /// they are the 42,296 comparison functions of 1 to 5 inputs.
    #[test]
    fn table_sizes_are_the_interval_function_counts() {
        let mut comparison = 0;
        for (n, &size) in TABLE_SIZES.iter().enumerate() {
            let table = interval_table(n);
            assert_eq!(table.len(), size, "n={n}");
            let mask = u32::MAX >> (32 - (1 << n));
            let mut with_complements: HashSet<u32> = table.keys().copied().collect();
            with_complements.extend(table.keys().map(|bits| !bits & mask));
            comparison += if n > 0 { with_complements.len() } else { 0 };
        }
        assert_eq!(comparison, 42_296);
    }

    #[test]
    fn table_matches_recursive_search_on_every_function_up_to_4_inputs() {
        for n in 1..=4usize {
            for bits in 0..1u128 << (1 << n) {
                assert_matches_recursive(&TruthTable::from_bits(n, bits));
            }
        }
    }

    /// Every 5-input comparison function is a table key or the complement
    /// of one, and gets the recursive search's certificate.
    #[test]
    fn table_matches_recursive_search_on_every_5_input_comparison_function() {
        for &bits in interval_table(5).keys() {
            for g in [bits, !bits] {
                assert_matches_recursive(&TruthTable::from_bits(5, u128::from(g)));
            }
        }
    }

    #[test]
    fn table_matches_recursive_search_on_random_5_input_functions() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        for _ in 0..100_000 {
            let bits = next_random(&mut state) as u32;
            assert_matches_recursive(&TruthTable::from_bits(5, u128::from(bits)));
        }
    }

    /// The 6- and 7-input map returns exactly what the recursive search
    /// returns, certificate and all, on a first query and on a repeat.
    /// Other tests share the process-wide map, so this one never clears it
    /// and only asserts that the repeats were counted as hits.
    #[test]
    fn memo_is_bit_identical_to_direct() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let before = identify_cache_stats();
        let mut repeats = 0;
        for i in 0..200 {
            let n = 6 + i % 2;
            let r = next_random(&mut state);
            // Half random tables (almost never comparison functions), half
            // random intervals under a rotated input order.
            let f = if i % 4 < 2 {
                TruthTable::from_bits(n, u128::from(r) << 64 | u128::from(r.rotate_left(17)))
            } else {
                let max = (1u64 << n) - 1;
                let (a, b) = (r & max, r >> 8 & max);
                let perm = (0..n).map(|j| (j + i) % n).collect();
                ComparisonSpec::new(perm, a.min(b), a.max(b)).unwrap().to_table()
            };
            for try_complement in [true, false] {
                let direct = recursive(&f, try_complement);
                assert_eq!(identify(&f, &exact(try_complement)), direct, "cold: {f:?}");
                assert_eq!(identify(&f, &exact(try_complement)), direct, "warm: {f:?}");
                repeats += u64::from(!f.is_one() && !f.is_zero());
            }
        }
        let after = identify_cache_stats();
        assert!(after.hits >= before.hits + repeats, "{before:?} -> {after:?}");
    }

    #[test]
    fn cache_save_writes_an_empty_file() {
        let path = std::env::temp_dir().join(format!("sft-identify-{}.img", std::process::id()));
        identify_cache_save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), Vec::<u8>::new());
        std::fs::remove_file(&path).unwrap();
    }

    fn check_spec(f: &TruthTable, spec: &ComparisonSpec) {
        assert_eq!(&spec.to_table(), f, "certificate must reproduce the function");
    }

    #[test]
    fn paper_f2_identified_by_both_methods() {
        let f2 = TruthTable::from_minterms(4, &[1, 5, 6, 9, 10, 14]).unwrap();
        for method in [IdentifyMethod::Exact, IdentifyMethod::Permutations] {
            let opts = IdentifyOptions { method, max_permutations: 200, try_complement: true };
            let spec = identify(&f2, &opts).expect("f2 is a comparison function");
            check_spec(&f2, &spec);
            assert_eq!(spec.upper - spec.lower, 5, "interval holds 6 minterms");
        }
    }

    #[test]
    fn majority_rejected_by_both_methods() {
        let maj = TruthTable::from_minterms(3, &[3, 5, 6, 7]).unwrap();
        for method in [IdentifyMethod::Exact, IdentifyMethod::Permutations] {
            let opts = IdentifyOptions { method, max_permutations: 720, try_complement: true };
            assert!(identify(&maj, &opts).is_none(), "majority is not comparison ({method:?})");
        }
    }

    #[test]
    fn constants_certified() {
        let opts = IdentifyOptions::default();
        let one = TruthTable::one(3);
        let spec = identify(&one, &opts).unwrap();
        check_spec(&one, &spec);
        let zero = TruthTable::zero(3);
        let spec = identify(&zero, &opts).unwrap();
        check_spec(&zero, &spec);
    }

    #[test]
    fn basic_gates_are_comparison_functions() {
        let opts = IdentifyOptions::default();
        for n in 1..=4usize {
            let and = TruthTable::from_fn(n, |m| m == (1 << n) - 1);
            check_spec(&and, &identify(&and, &opts).unwrap());
            let or = TruthTable::from_fn(n, |m| m != 0);
            check_spec(&or, &identify(&or, &opts).unwrap());
            let nand = and.complement();
            check_spec(&nand, &identify(&nand, &opts).unwrap());
        }
        let xor2 = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
        check_spec(&xor2, &identify(&xor2, &opts).unwrap());
        // 3-input parity is NOT a comparison function.
        let xor3 = TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1);
        assert!(identify(&xor3, &opts).is_none());
    }

    /// The exact method agrees with the exhaustive permutation method on
    /// every 4-input function class sampled densely, and on ALL 3-input
    /// functions.
    #[test]
    fn exact_equals_exhaustive_all_3input_functions() {
        let exhaustive = IdentifyOptions {
            method: IdentifyMethod::Permutations,
            max_permutations: 6,
            try_complement: false,
        };
        let exact = IdentifyOptions {
            method: IdentifyMethod::Exact,
            max_permutations: 0,
            try_complement: false,
        };
        for bits in 0..=255u128 {
            let f = TruthTable::from_bits(3, bits);
            if f.is_zero() || f.is_one() {
                continue;
            }
            let a = identify(&f, &exhaustive);
            let b = identify(&f, &exact);
            assert_eq!(a.is_some(), b.is_some(), "disagreement on {bits:#04x}");
            if let Some(spec) = b {
                check_spec(&f, &spec);
            }
        }
    }

    #[test]
    fn exact_equals_exhaustive_sampled_4input_functions() {
        let exhaustive = IdentifyOptions {
            method: IdentifyMethod::Permutations,
            max_permutations: 24,
            try_complement: false,
        };
        let exact = IdentifyOptions {
            method: IdentifyMethod::Exact,
            max_permutations: 0,
            try_complement: false,
        };
        // Dense deterministic sample of the 65536 4-input functions.
        for i in 0..4096u128 {
            let bits = i * 16 + (i % 16);
            let f = TruthTable::from_bits(4, bits);
            if f.is_zero() || f.is_one() {
                continue;
            }
            let a = identify(&f, &exhaustive);
            let b = identify(&f, &exact);
            assert_eq!(a.is_some(), b.is_some(), "disagreement on {bits:#06x}");
            if let Some(spec) = b {
                check_spec(&f, &spec);
            }
        }
    }

    #[test]
    fn complement_certificates_work() {
        // NOR is the complement of OR = [1, max].
        let nor3 = TruthTable::from_fn(3, |m| m == 0);
        let opts = IdentifyOptions::default();
        let spec = identify(&nor3, &opts).unwrap();
        check_spec(&nor3, &spec);
    }

    #[test]
    fn dc_identification_uses_freedom() {
        // Majority is not comparison, but with its middle minterms DC it is.
        let on = TruthTable::from_minterms(3, &[3, 5, 6, 7]).unwrap();
        let opts = IdentifyOptions::paper();
        assert!(identify(&on, &opts).is_none());
        // Declare minterm 4 a don't-care: on-set {3,5,6,7}, off {0,1,2}.
        // Interval [3,7] then works under the identity permutation.
        let dc = TruthTable::from_minterms(3, &[4]).unwrap();
        let spec = identify_with_dc(&on, &dc, &opts).expect("dc freedom suffices");
        let t = spec.to_table();
        // Must agree on care minterms.
        for m in 0..8u64 {
            if !dc.value(m) {
                assert_eq!(t.value(m), on.value(m), "care minterm {m}");
            }
        }
    }

    #[test]
    fn dc_everything_is_trivially_comparison() {
        let on = TruthTable::from_minterms(2, &[1]).unwrap();
        let dc = TruthTable::one(2);
        let opts = IdentifyOptions::paper();
        assert!(identify_with_dc(&on, &dc, &opts).is_some());
    }

    #[test]
    fn polarity_extension_strictly_generalizes() {
        let opts = IdentifyOptions::default();
        // On-set {0, 3} over 3 inputs: not an interval under any
        // permutation, but flipping x3 maps it to {1, 2} = [1, 2].
        let f = TruthTable::from_minterms(3, &[0, 3]).unwrap();
        assert!(identify(&f, &IdentifyOptions { try_complement: false, ..opts.clone() }).is_none());
        let (spec, negate) = identify_with_polarities(
            &f,
            &IdentifyOptions { try_complement: false, ..opts.clone() },
        )
        .expect("polarity freedom suffices");
        // Applying the negations to the certificate's table restores f.
        let mut g = spec.to_table();
        for (j, &neg) in negate.iter().enumerate() {
            if neg {
                g = g.flip_input(j).unwrap();
            }
        }
        assert_eq!(g, f);
        assert!(negate.iter().any(|&b| b), "must actually use a negation");
        // Plain comparison functions get the all-false polarity.
        let plain = ComparisonSpec::new(vec![0, 1, 2], 2, 5).unwrap().to_table();
        let (_, negate) = identify_with_polarities(&plain, &opts).unwrap();
        assert!(negate.iter().all(|&b| !b));
    }

    #[test]
    fn permutation_generator_is_lexicographic_and_capped() {
        let perms = permutations(3, 100);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2]);
        assert_eq!(perms[5], vec![2, 1, 0]);
        assert_eq!(permutations(4, 5).len(), 5);
        assert_eq!(permutations(0, 10), vec![Vec::<usize>::new()]);
    }

    /// Every identified certificate, complemented or not, reproduces the
    /// function exactly (dense scan over 5-input functions built from
    /// random intervals plus permutations — these must ALL be identified).
    #[test]
    fn all_interval_functions_are_identified() {
        let opts = IdentifyOptions::default();
        // All intervals over 4 inputs under a fixed scrambled permutation.
        let perm = vec![2, 0, 3, 1];
        for l in 0..16u64 {
            for u in l..16 {
                let spec = ComparisonSpec::new(perm.clone(), l, u).unwrap();
                let f = spec.to_table();
                if f.is_one() {
                    continue;
                }
                let found = identify(&f, &opts).expect("interval functions must be identified");
                check_spec(&f, &found);
            }
        }
    }
}
