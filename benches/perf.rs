//! Parallel-scaling benchmark harness.
//!
//! Runs the two parallel hot paths — Procedure-2 resynthesis (candidate
//! scoring) and the random-pattern stuck-at campaign (pattern blocks) — on
//! the bundled benchmark suite at 1 thread and at all cores, checks that
//! both thread counts produce bit-identical results, and writes machine-
//! readable reports to `BENCH_resynth.json` and `BENCH_sim.json` (wall
//! time per thread count, speedup, gate counts, path counts, coverage).
//!
//! A third report, `BENCH_edit.json`, measures raw edit throughput on the
//! transactional netlist: a burst of journaled rewires + appends applied
//! inside a transaction and rolled back (with maintained views attached),
//! versus reverting the same burst by discarding a full clone.
//!
//! A fourth report, `BENCH_serve.json`, saturates the `sft serve` daemon:
//! a batch of jobs is dropped into a job directory and drained once cold
//! (empty identification-cache image) and once warm (image persisted by
//! the cold run), at 1 worker and at all cores, reporting per-job p50/p99
//! latency and the outcome decision counts. The harness asserts the warm
//! daemon's result netlists are bit-identical to the cold ones.
//!
//! A fifth report, `BENCH_scale.json`, runs random-pattern stuck-at
//! campaigns on the scale tier — generated 10K–100K+ gate circuits (wide
//! multiplier, ALU datapath, deep random DAG, stitched multi-core
//! composition) — with two engines: the **classic reference** (one
//! 64-pattern block at a time, one event-driven cone propagation per
//! alive fault; reimplemented here so it stays the honest pre-wide-word
//! baseline) and the production **ctrace** engine (critical-path tracing
//! inside fanout-free regions plus dominator-gated stem observability) at
//! `--jobs` 1, 2, 4 and 8. Both engines must return the bit-identical
//! `CampaignResult` — the check at every thread count doubles as the CI
//! bit-identity gate. The decision columns (`gates`, `faults`, `fault_classes`,
//! `faults_ctrace`, `faults_dom`, `detected`, `coverage`) are pinned by
//! `bench_check`, the timings are free.
//!
//! A sixth report, `BENCH_arena.json`, measures the flat-arena storage
//! layer on the scale-tier circuits: circuit construction time, the
//! Circuit→SoA campaign-entry conversion (legacy rebuild walk vs the
//! flat-pool fast path, and cold fault-table build vs the version-keyed
//! warm snapshot every campaign now enters through), and one step-budgeted
//! resynthesis pass. The warm snapshot must beat the cold per-campaign
//! build by >= 5x on the headline circuit; the arena shape columns
//! (`nodes`, `fanin_refs`, `interned_names`) and the resynthesis decisions
//! are pinned by `bench_check`.
//!
//! ```text
//! cargo bench --bench perf             # full suite
//! cargo bench --bench perf -- --quick  # 3-circuit smoke mode (CI)
//! cargo bench --bench perf -- --jobs 8 # explicit parallel thread count
//! ```
//!
//! The JSON is hand-rolled (the workspace vendors no serde); every row is
//! flat key/value so downstream tooling can `jq` it directly.

use sft::budget::Budget;
use sft::circuits::random::RandomCircuitConfig;
use sft::circuits::{gen, suite, suite_small, SuiteEntry};
use sft::core::{procedure2, resynthesize_with_budget, ResynthOptions};
use sft::netlist::{Circuit, GateKind, NodeId};
use sft::par::Jobs;
use sft::serve::{serve, ServeConfig, ServeSummary};
use sft::sim::{
    campaign, collapse, fault_list, pattern_block, CampaignConfig, CampaignResult, Fault,
    FaultSimTables, FaultSite, SoaCircuit,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Config {
    quick: bool,
    jobs: Jobs,
    patterns: u64,
    out_dir: std::path::PathBuf,
}

impl Config {
    fn from_args() -> Config {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = args.iter().any(|a| a == "--quick");
        let jobs = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(Jobs::all_cores);
        Config {
            quick,
            jobs,
            patterns: if quick { 1 << 12 } else { 1 << 16 },
            out_dir: std::env::var_os("CARGO_MANIFEST_DIR")
                .map(Into::into)
                .unwrap_or_else(|| ".".into()),
        }
    }

    fn suite(&self) -> Vec<SuiteEntry> {
        if self.quick {
            suite_small()
        } else {
            suite()
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One flat JSON object from `(key, rendered value)` pairs (values must
/// already be valid JSON fragments — numbers, booleans, quoted strings).
fn json_object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", json_escape(k), v);
    }
    out.push('}');
    out
}

fn json_report(meta: &[(&str, String)], rows: &[String]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in meta {
        let _ = writeln!(out, "  \"{}\": {},", json_escape(k), v);
    }
    out.push_str("  \"circuits\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Times `f` over `runs` runs and reports the fastest — the measurement,
/// not the mean of the measurement plus scheduler noise. Every run must
/// return the same value (the engines are deterministic), which doubles as
/// an extra identity check on the repeated rows.
fn time_best<R: PartialEq + std::fmt::Debug>(runs: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let (reference, mut best) = time(&mut f);
    for _ in 1..runs {
        let (r, secs) = time(&mut f);
        assert_eq!(r, reference, "a timed computation must be deterministic across runs");
        best = best.min(secs);
    }
    (reference, best)
}

fn resynth_row(entry: &SuiteEntry, cfg: &Config) -> String {
    let opts = |jobs: Jobs| ResynthOptions {
        max_candidates_per_gate: if cfg.quick { 60 } else { 150 },
        jobs,
        ..ResynthOptions::default()
    };
    let run = |jobs: Jobs| {
        // Every timed run starts with cold identification tables: the
        // serial run must not pre-warm the parallel one (or the next
        // circuit), and the reported counters are per-run.
        sft::core::identify_cache_clear();
        let mut c = entry.circuit.clone();
        let (report, secs) = time(|| procedure2(&mut c, &opts(jobs)).expect("resynth verifies"));
        (c, report, secs, sft::core::identify_cache_stats())
    };
    let (serial_c, report, serial_secs, stats) = run(Jobs::serial());
    let (par_c, _, par_secs, _) = run(cfg.jobs);
    assert_eq!(serial_c, par_c, "{}: resynthesis must be thread-count invariant", entry.name);
    json_object(&[
        ("name", format!("\"{}\"", json_escape(entry.name))),
        ("gates_before", report.gates_before.to_string()),
        ("gates_after", report.gates_after.to_string()),
        ("paths_before", report.paths_before.to_string()),
        ("paths_after", report.paths_after.to_string()),
        ("replacements", report.replacements.to_string()),
        ("cache_hits", stats.hits.to_string()),
        ("cache_misses", stats.misses.to_string()),
        ("secs_1_thread", format!("{serial_secs:.4}")),
        ("secs_n_threads", format!("{par_secs:.4}")),
        ("speedup", format!("{:.3}", serial_secs / par_secs.max(1e-9))),
    ])
}

fn sim_row(entry: &SuiteEntry, cfg: &Config) -> String {
    let faults = fault_list(&entry.circuit);
    let campaign_cfg = |jobs: Jobs| CampaignConfig {
        max_patterns: cfg.patterns,
        plateau: 0,
        seed: 0x5f7,
        jobs,
        ..CampaignConfig::default()
    };
    // Best of three: campaigns finish in milliseconds, where one scheduler
    // hiccup would otherwise dominate the measured ratio.
    let run = |jobs: Jobs| -> (CampaignResult, f64) {
        let (mut best_r, mut best_secs) =
            time(|| campaign(&entry.circuit, &faults, &campaign_cfg(jobs)));
        for _ in 0..2 {
            let (r, secs) = time(|| campaign(&entry.circuit, &faults, &campaign_cfg(jobs)));
            assert_eq!(best_r, r, "{}: campaign must be run-to-run deterministic", entry.name);
            if secs < best_secs {
                best_secs = secs;
            }
            best_r = r;
        }
        (best_r, best_secs)
    };
    let (serial_r, serial_secs) = run(Jobs::serial());
    let (par_r, par_secs) = run(cfg.jobs);
    assert_eq!(serial_r, par_r, "{}: campaign must be thread-count invariant", entry.name);
    // The parallel engine must never lose to serial: speedup >= 0.9, with
    // 2ms of absolute slack so micro-campaign timer noise cannot fail the
    // bench.
    assert!(
        par_secs <= serial_secs / 0.9 + 0.002,
        "{}: parallel campaign regressed: {par_secs:.4}s at {} threads vs {serial_secs:.4}s serial",
        entry.name,
        cfg.jobs,
    );
    let c: &Circuit = &entry.circuit;
    json_object(&[
        ("name", format!("\"{}\"", json_escape(entry.name))),
        ("gates", c.two_input_gate_count().to_string()),
        ("paths", c.path_count().to_string()),
        ("faults", serial_r.total_faults.to_string()),
        ("detected", serial_r.detected.to_string()),
        ("coverage", format!("{:.4}", serial_r.coverage())),
        ("patterns_applied", serial_r.patterns_applied.to_string()),
        ("secs_1_thread", format!("{serial_secs:.4}")),
        ("secs_n_threads", format!("{par_secs:.4}")),
        ("speedup", format!("{:.3}", serial_secs / par_secs.max(1e-9))),
    ])
}

/// The deterministic edit burst, sized like one resynthesis candidate: up
/// to 32 gates are narrowed to a `Not` of their first fanin (always
/// acyclic — the fanin was already a fanin), with one `Buf` gate appended
/// per eight rewires. Keeping the burst small relative to the circuit is
/// the point of the comparison: journal rollback pays per edit, clone
/// revert pays per circuit node. Returns the number of journaled edits.
fn edit_burst(c: &mut Circuit) -> usize {
    const MAX_REWIRES: usize = 32;
    let len = c.len();
    let mut rewires = 0;
    let mut edits = 0;
    for i in 0..len {
        if rewires == MAX_REWIRES {
            break;
        }
        let id = sft::netlist::NodeId::from_index(i);
        let node = c.node(id);
        if !node.kind().is_gate() || node.fanins().is_empty() {
            continue;
        }
        let first = node.fanins()[0];
        c.rewire(id, GateKind::Not, vec![first]).expect("existing fanin cannot cycle");
        rewires += 1;
        edits += 1;
        if rewires % 8 == 0 {
            c.add_gate(GateKind::Buf, vec![first]).expect("fanin exists");
            edits += 1;
        }
    }
    edits
}

/// Journal-vs-clone edit throughput on one suite circuit. `secs_1_thread`
/// carries the journaled time so the shared `bench_check` regression gate
/// applies to it; `edits`, `nodes` and `restored` are decision fields (they
/// must be bit-identical run to run).
fn edit_row(entry: &SuiteEntry, cfg: &Config) -> String {
    let cycles: u32 = if cfg.quick { 100 } else { 400 };
    let mut c = entry.circuit.clone();
    c.enable_views();
    c.refresh_views();

    // Correctness first: one untimed cycle must restore the circuit (and
    // report how many edits a cycle journals).
    let pristine = c.clone();
    let cp = c.begin_edit();
    let edits = edit_burst(&mut c);
    c.rollback_to(cp);
    let restored = c == pristine;

    let (_, journal_secs) = time(|| {
        for _ in 0..cycles {
            let cp = c.begin_edit();
            let n = edit_burst(&mut c);
            assert_eq!(n, edits, "{}: edit burst must be deterministic", entry.name);
            c.rollback_to(cp);
        }
    });
    let (_, clone_secs) = time(|| {
        for _ in 0..cycles {
            let mut scratch = entry.circuit.clone();
            let n = edit_burst(&mut scratch);
            assert_eq!(n, edits, "{}: edit burst must be deterministic", entry.name);
            drop(scratch); // revert = discard the clone
        }
    });
    json_object(&[
        ("name", format!("\"{}\"", json_escape(entry.name))),
        ("nodes", entry.circuit.len().to_string()),
        ("edits", edits.to_string()),
        ("cycles", cycles.to_string()),
        ("restored", restored.to_string()),
        ("secs_1_thread", format!("{journal_secs:.4}")),
        ("secs_clone_revert", format!("{clone_secs:.4}")),
        ("journal_speedup", format!("{:.3}", clone_secs / journal_secs.max(1e-9))),
    ])
}

/// One drained daemon run over `n` jobs cycled from the suite. Returns the
/// final counters, the wall time, per-job latencies (ms, sorted), and the
/// result netlists keyed by file name (for bit-identity checks).
fn run_serve(
    root: PathBuf,
    cache: &Path,
    jobs: Jobs,
    entries: &[SuiteEntry],
    n: usize,
) -> (ServeSummary, f64, Vec<u64>, BTreeMap<String, String>) {
    let incoming = root.join("jobs/incoming");
    std::fs::create_dir_all(&incoming).expect("create incoming");
    for i in 0..n {
        let entry = &entries[i % entries.len()];
        let text = sft::netlist::bench_format::write(&entry.circuit);
        std::fs::write(incoming.join(format!("job{i:02}.bench")), text).expect("write bench");
        std::fs::write(incoming.join(format!("job{i:02}.job")), "objective = gates\n")
            .expect("write job");
    }
    let config = ServeConfig {
        jobs,
        queue: n, // no shedding: decision counts must be saturation-invariant
        once: true,
        cache: Some(cache.to_path_buf()),
        handle_signals: false,
        poll: Duration::from_millis(1),
        ..ServeConfig::new(&root)
    };
    let (summary, secs) = time(|| serve(&config).expect("serve drains"));
    let mut latencies = Vec::new();
    let mut outputs = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("jobs/done")).expect("read done/") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        let text = std::fs::read_to_string(&path).expect("read result");
        if name.ends_with(".report.json") {
            let ms = text
                .split("\"elapsed_ms\":")
                .nth(1)
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse::<u64>().ok()
                })
                .expect("report carries elapsed_ms");
            latencies.push(ms);
        } else {
            outputs.insert(name, text);
        }
    }
    latencies.sort_unstable();
    (summary, secs, latencies, outputs)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Two rows — `serve_cold` and `serve_warm` — each measured serially (for
/// the regression gate's `secs_1_thread`) and at `cfg.jobs` workers (for
/// the saturation latencies). The outcome counts are decisions: they must
/// not depend on timing, cache temperature, or worker count.
fn serve_rows(entries: &[SuiteEntry], cfg: &Config) -> Vec<String> {
    let n = if cfg.quick { 6 } else { 24 };
    let scratch = std::env::temp_dir().join(format!("sft-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch");
    let image = scratch.join("identify.sigcache");
    let spare = scratch.join("identify-cold-n.sigcache");

    // Cold: no image on disk, cleared in-process tables. The serial run
    // persists `image`, which the warm runs below will load.
    sft::core::identify_cache_clear();
    let (cold, cold_serial, _, cold_out) =
        run_serve(scratch.join("cold1"), &image, Jobs::serial(), entries, n);
    sft::core::identify_cache_clear();
    let (cold_n, cold_par, cold_lat, cold_out_n) =
        run_serve(scratch.join("coldn"), &spare, cfg.jobs, entries, n);
    assert_eq!(
        (cold.done, cold.failed, cold.shed),
        (cold_n.done, cold_n.failed, cold_n.shed),
        "serve outcomes must be worker-count invariant"
    );
    assert_eq!(cold_out, cold_out_n, "serve results must be worker-count invariant");

    // Warm: fresh process-state simulation (tables cleared), image loaded.
    sft::core::identify_cache_clear();
    let (warm, warm_serial, _, warm_out) =
        run_serve(scratch.join("warm1"), &image, Jobs::serial(), entries, n);
    sft::core::identify_cache_clear();
    let (warm_n, warm_par, warm_lat, warm_out_n) =
        run_serve(scratch.join("warmn"), &image, cfg.jobs, entries, n);
    assert!(warm.cache_loads >= 1, "warm run must load the persisted image");
    assert_eq!(cold_out, warm_out, "warm-cache results must be bit-identical to cold");
    assert_eq!(cold_out, warm_out_n, "warm-cache results must be bit-identical to cold");
    assert_eq!(
        (warm.done, warm.failed, warm.shed),
        (warm_n.done, warm_n.failed, warm_n.shed),
        "serve outcomes must be cache-temperature invariant"
    );

    let row = |name: &str, s: &ServeSummary, serial: f64, par: f64, lat: &[u64]| {
        json_object(&[
            ("name", format!("\"{name}\"")),
            ("jobs_submitted", n.to_string()),
            ("done", s.done.to_string()),
            ("failed", s.failed.to_string()),
            ("shed", s.shed.to_string()),
            ("cache_hits", s.cache.hits.to_string()),
            ("cache_misses", s.cache.misses.to_string()),
            ("cache_loaded_entries", s.cache_loaded_entries.to_string()),
            ("p50_ms", percentile(lat, 0.50).to_string()),
            ("p99_ms", percentile(lat, 0.99).to_string()),
            ("secs_1_thread", format!("{serial:.4}")),
            ("secs_n_threads", format!("{par:.4}")),
            ("speedup", format!("{:.3}", serial / par.max(1e-9))),
        ])
    };
    let rows = vec![
        row("serve_cold", &cold_n, cold_serial, cold_par, &cold_lat),
        row("serve_warm", &warm_n, warm_serial, warm_par, &warm_lat),
    ];
    let _ = std::fs::remove_dir_all(&scratch);
    rows
}

// ---------------------------------------------------------------------------
// Scale tier: generated 10K–100K+ gate circuits, classic engine vs the
// production engine across a thread curve.

/// The classic reference fault simulator: 64 patterns per block, good
/// values recomputed per block by one full topological sweep, and one
/// event-driven cone propagation per simulated fault (a `BinaryHeap` in
/// topological order, values overlaid on the good words). This is the
/// algorithm the production engine replaced; it lives here, reimplemented
/// against the public netlist API only, so the speedup column always
/// compares against the real baseline rather than against whatever the
/// production engine used to be.
struct ClassicSim {
    kinds: Vec<GateKind>,
    fanins: Vec<Vec<u32>>,
    fanouts: Vec<Vec<u32>>,
    topo: Vec<u32>,
    topo_pos: Vec<u32>,
    is_output: Vec<bool>,
    good: Vec<u64>,
    faulty: Vec<u64>,
    dirty: Vec<bool>,
    queued: Vec<bool>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    scratch: Vec<u64>,
}

impl ClassicSim {
    fn new(circuit: &Circuit) -> ClassicSim {
        let n = circuit.len();
        let topo: Vec<u32> =
            circuit.topo_order().expect("acyclic").iter().map(|id| id.index() as u32).collect();
        let mut topo_pos = vec![0u32; n];
        for (pos, &id) in topo.iter().enumerate() {
            topo_pos[id as usize] = pos as u32;
        }
        let mut fanins = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        let mut fanouts: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, node) in circuit.iter() {
            kinds.push(node.kind());
            fanins.push(node.fanins().iter().map(|f| f.index() as u32).collect::<Vec<u32>>());
            for f in node.fanins() {
                fanouts[f.index()].push(id.index() as u32);
            }
        }
        for consumers in &mut fanouts {
            consumers.dedup();
        }
        let mut is_output = vec![false; n];
        for o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        ClassicSim {
            kinds,
            fanins,
            fanouts,
            topo,
            topo_pos,
            is_output,
            good: vec![0; n],
            faulty: vec![0; n],
            dirty: vec![false; n],
            queued: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Loads one 64-pattern block: inputs take their words, everything else
    /// is recomputed in topological order.
    fn load_block(&mut self, inputs: &[NodeId], words: &[u64]) {
        for (&id, &w) in inputs.iter().zip(words) {
            self.good[id.index()] = w;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        for pos in 0..self.topo.len() {
            let n = self.topo[pos] as usize;
            if self.kinds[n] == GateKind::Input {
                continue;
            }
            scratch.clear();
            for &f in &self.fanins[n] {
                scratch.push(self.good[f as usize]);
            }
            self.good[n] = self.kinds[n].eval_words(&scratch);
        }
        self.scratch = scratch;
    }

    fn value(&self, n: usize) -> u64 {
        if self.dirty[n] {
            self.faulty[n]
        } else {
            self.good[n]
        }
    }

    fn set(&mut self, n: usize, v: u64) {
        if !self.dirty[n] {
            self.dirty[n] = true;
            self.touched.push(n as u32);
        }
        self.faulty[n] = v;
    }

    fn schedule(&mut self, n: u32) {
        if !self.queued[n as usize] {
            self.queued[n as usize] = true;
            self.heap.push(Reverse((self.topo_pos[n as usize], n)));
        }
    }

    /// Detection mask of one fault under the loaded block.
    fn detect(&mut self, fault: Fault) -> u64 {
        let forced = if fault.stuck { !0u64 } else { 0 };
        let (root, out) = match fault.site {
            FaultSite::Stem(n) => (n.index(), forced),
            FaultSite::Branch { gate, pin } => {
                let g = gate.index();
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                for (p, &f) in self.fanins[g].iter().enumerate() {
                    scratch.push(if p == pin as usize { forced } else { self.good[f as usize] });
                }
                let out = self.kinds[g].eval_words(&scratch);
                self.scratch = scratch;
                (g, out)
            }
        };
        if out == self.good[root] {
            return 0;
        }
        self.set(root, out);
        for i in 0..self.fanouts[root].len() {
            let c = self.fanouts[root][i];
            self.schedule(c);
        }
        while let Some(Reverse((_, n))) = self.heap.pop() {
            let n = n as usize;
            self.queued[n] = false;
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            for &f in &self.fanins[n] {
                scratch.push(self.value(f as usize));
            }
            let out = self.kinds[n].eval_words(&scratch);
            self.scratch = scratch;
            if out != self.value(n) {
                self.set(n, out);
                for i in 0..self.fanouts[n].len() {
                    let c = self.fanouts[n][i];
                    self.schedule(c);
                }
            }
        }
        let mut detected = 0;
        for i in 0..self.touched.len() {
            let t = self.touched[i] as usize;
            if self.is_output[t] {
                detected |= self.faulty[t] ^ self.good[t];
            }
            self.dirty[t] = false;
        }
        self.touched.clear();
        detected
    }
}

/// The classic campaign loop: serial, 64-bit, detected faults dropped
/// after every block, with the same seeded pattern stream, first-detection
/// accounting and plateau rule as the production [`campaign`] — so the two
/// results can be asserted equal field by field.
fn classic_campaign(
    circuit: &Circuit,
    faults: &[Fault],
    config: &CampaignConfig,
) -> CampaignResult {
    let inputs = circuit.inputs().to_vec();
    let mut sim = ClassicSim::new(circuit);
    let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
    let mut alive: Vec<u32> = (0..faults.len() as u32).collect();
    let mut last_effective: Option<u64> = None;
    let mut applied: u64 = 0;
    let mut block_index: u64 = 0;
    while applied < config.max_patterns && !alive.is_empty() {
        let offset = applied;
        let size = (config.max_patterns - offset).min(64);
        let size_mask = if size < 64 { (1u64 << size) - 1 } else { !0 };
        sim.load_block(&inputs, &pattern_block(config.seed, block_index, inputs.len()));
        alive.retain(|&fi| {
            let mask = sim.detect(faults[fi as usize]) & size_mask;
            if mask == 0 {
                return true;
            }
            let pattern = offset + u64::from(mask.trailing_zeros());
            detection[fi as usize] = Some(pattern);
            last_effective = Some(last_effective.map_or(pattern, |l| l.max(pattern)));
            false
        });
        applied = offset + size;
        block_index += 1;
        let plateaued = config.plateau > 0
            && match last_effective {
                Some(last) => applied - last > config.plateau,
                None => applied > config.plateau,
            };
        if plateaued {
            break;
        }
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

struct ScaleEntry {
    name: &'static str,
    circuit: Circuit,
    patterns: u64,
    /// The acceptance row: >= 100K gates, and at 1 thread the ctrace engine
    /// must beat the classic engine by >= 3x.
    headline: bool,
}

/// The scale suite. Every entry is deterministic in its parameters, so the
/// decision columns can be pinned across machines. The stitched composition
/// is the headline: fault cones stay bounded by one core plus its checksum
/// path, which is exactly the shape where per-fault engines drown and
/// stem-grouped wide-word simulation pays off.
fn scale_suite(cfg: &Config) -> Vec<ScaleEntry> {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 };
    let entry =
        |name, circuit, patterns, headline| ScaleEntry { name, circuit, patterns, headline };
    if cfg.quick {
        vec![
            entry("mul32", gen::wide_multiplier(32), 128, false),
            // A shallower DAG: the old window-48 / 64-pattern row pinned
            // 0.22% coverage — a vacuous decision column that would pass
            // even if detection broke entirely. AND/OR-heavy chains lose
            // controllability exponentially with depth, so the quick row
            // trades depth for width (window 2000, 256 inputs) and reaches
            // ~18% coverage in 256 patterns — a pin that actually moves if
            // detection breaks.
            entry(
                "dag12k",
                gen::deep_dag(&RandomCircuitConfig {
                    inputs: 256,
                    outputs: 32,
                    gates: 12_000,
                    window: 2000,
                    seed: 3,
                }),
                256,
                false,
            ),
            entry("stitch48", gen::stitched(48, &core), 128, false),
        ]
    } else {
        vec![
            entry("mul96", gen::wide_multiplier(96), 1024, false),
            entry("alu2048", gen::alu(2048), 1024, false),
            entry(
                "dag60k",
                gen::deep_dag(&RandomCircuitConfig {
                    inputs: 64,
                    outputs: 32,
                    gates: 60_000,
                    window: 48,
                    seed: 3,
                }),
                256,
                false,
            ),
            entry("stitch420", gen::stitched(420, &core), 1024, true),
        ]
    }
}

fn scale_row(entry: &ScaleEntry, cfg: &Config) -> String {
    let faults = fault_list(&entry.circuit);
    let campaign_cfg = |jobs: Jobs| CampaignConfig {
        max_patterns: entry.patterns,
        plateau: 0,
        seed: 0x5ca1e,
        jobs,
        ..CampaignConfig::default()
    };
    // The headline row gates hard speedup asserts on single-shot wall
    // times; take the best of two runs there so a scheduler hiccup in
    // either engine's run cannot fail (or vacuously pass) the gate.
    let runs = if entry.headline { 2 } else { 1 };
    let (classic, classic_secs) = time_best(runs, || {
        classic_campaign(&entry.circuit, &faults, &campaign_cfg(Jobs::serial()))
    });
    // The ctrace curve. Asserting bit identity at every thread count is the
    // engine's CI gate: on the quick tier this runs on every push.
    let mut secs_at = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let j = if jobs == 1 { Jobs::serial() } else { Jobs::new(jobs) };
        let reps = if jobs == 1 { runs } else { 1 };
        let (r, secs) = time_best(reps, || campaign(&entry.circuit, &faults, &campaign_cfg(j)));
        assert_eq!(
            classic, r,
            "{}: ctrace engine at {jobs} job(s) must match the classic reference bit for bit",
            entry.name
        );
        secs_at.push(secs);
    }
    // Static structural decision columns: how much of the fault list each
    // layer of the engine resolves. A fault's deviation is injected at its
    // site gate; interior sites resolve through the shared critical-path
    // trace, and sites whose FFR root has a proper dominator are eligible
    // for the cached-observability shortcut.
    let soa = SoaCircuit::new(&entry.circuit);
    let site = |f: &Fault| match f.site {
        FaultSite::Stem(n) => n.index(),
        FaultSite::Branch { gate, .. } => gate.index(),
    };
    let fault_classes = collapse(&entry.circuit, &faults).len();
    let faults_ctrace = faults.iter().filter(|f| soa.ffr_interior(site(f))).count();
    let faults_dom = faults.iter().filter(|f| soa.idom(soa.ffr_root(site(f))).is_some()).count();
    let gates = entry.circuit.two_input_gate_count();
    let speedup_ctrace_vs_classic_1t = classic_secs / secs_at[0].max(1e-9);
    if entry.headline {
        assert!(gates >= 100_000, "{}: headline row shrank to {gates} gates", entry.name);
        assert!(
            cfg.quick || speedup_ctrace_vs_classic_1t >= 3.0,
            "{}: ctrace engine at 1 thread is only {speedup_ctrace_vs_classic_1t:.2}x over the \
             classic serial engine (need >= 3.0x)",
            entry.name
        );
    }
    json_object(&[
        ("name", format!("\"{}\"", json_escape(entry.name))),
        ("gates", gates.to_string()),
        ("faults", classic.total_faults.to_string()),
        ("fault_classes", fault_classes.to_string()),
        ("faults_ctrace", faults_ctrace.to_string()),
        ("faults_dom", faults_dom.to_string()),
        ("detected", classic.detected.to_string()),
        ("coverage", format!("{:.4}", classic.coverage())),
        ("patterns_applied", classic.patterns_applied.to_string()),
        ("secs_classic_1_thread", format!("{classic_secs:.4}")),
        ("secs_1_thread", format!("{:.4}", secs_at[0])),
        ("secs_2_threads", format!("{:.4}", secs_at[1])),
        ("secs_4_threads", format!("{:.4}", secs_at[2])),
        ("secs_8_threads", format!("{:.4}", secs_at[3])),
        ("speedup_ctrace_vs_classic_1t", format!("{speedup_ctrace_vs_classic_1t:.3}")),
        ("scaling_4_threads", format!("{:.3}", secs_at[0] / secs_at[2].max(1e-9))),
    ])
}

// ---------------------------------------------------------------------------
// Arena tier: flat-arena construction and the campaign-entry conversion.

/// Times `f` over `runs` runs and reports the fastest, discarding results
/// (for conversions whose output type carries no `PartialEq`).
fn best_secs<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (r, secs) = time(&mut f);
        std::hint::black_box(&r);
        best = best.min(secs);
    }
    best
}

/// One arena row: build the circuit (timed — construction is pure arena
/// appends plus one normalize/sweep), measure the Circuit→SoA conversion
/// both ways, measure the campaign-entry cost cold (a full fault-table
/// build, what every campaign used to pay) and warm (the version-keyed
/// snapshot campaigns now enter through), and run one step-budgeted serial
/// resynthesis pass over the arena.
///
/// `secs_1_thread` carries the resynthesis-pass time (the longest, most
/// stable timing) for the shared `bench_check` regression gate; the
/// conversion columns ride along, and the headline row hard-asserts the
/// >= 5x campaign-entry win.
fn arena_row(name: &str, build: impl Fn() -> Circuit, headline: bool, cfg: &Config) -> String {
    let (circuit, build_secs) = time(&build);
    let mem = circuit.memory_stats();
    assert!(circuit.fanin_spans_flat(), "{name}: generators end swept, pool must be flat");

    let runs = 3;
    let soa_rebuild_secs = best_secs(runs, || SoaCircuit::rebuild(&circuit));
    let soa_new_secs = best_secs(runs, || SoaCircuit::new(&circuit));
    let entry_cold_secs = best_secs(runs, || FaultSimTables::new(&circuit));
    // Prime the snapshot slot, then measure the warm path campaigns hit.
    let primed = FaultSimTables::snapshot(&circuit);
    const WARM_CALLS: usize = 512;
    let (_, warm_total) = time(|| {
        for _ in 0..WARM_CALLS {
            std::hint::black_box(FaultSimTables::snapshot(&circuit));
        }
    });
    let entry_warm_secs = warm_total / WARM_CALLS as f64;
    drop(primed);
    let speedup_entry = entry_cold_secs / entry_warm_secs.max(1e-12);
    if headline {
        assert!(
            speedup_entry >= 5.0,
            "{name}: warm campaign entry is only {speedup_entry:.2}x over the cold \
             per-campaign build (need >= 5.0x)"
        );
    }

    let mut c = circuit.clone();
    let opts = ResynthOptions {
        max_candidates_per_gate: 20,
        jobs: Jobs::serial(),
        ..ResynthOptions::default()
    };
    let budget = Budget::unlimited().with_step_limit(if cfg.quick { 2_000 } else { 20_000 });
    let (report, resynth_secs) =
        time(|| resynthesize_with_budget(&mut c, &opts, &budget).expect("resynth verifies"));

    json_object(&[
        ("name", format!("\"{}\"", json_escape(name))),
        ("nodes", mem.nodes.to_string()),
        ("fanin_refs", mem.pool_live.to_string()),
        ("interned_names", mem.interned_names.to_string()),
        ("bytes_per_node", format!("{:.1}", mem.bytes_per_node())),
        ("replacements", report.replacements.to_string()),
        ("gates_after", report.gates_after.to_string()),
        ("secs_build", format!("{build_secs:.4}")),
        ("secs_soa_rebuild", format!("{soa_rebuild_secs:.4}")),
        ("secs_soa_new", format!("{soa_new_secs:.4}")),
        ("secs_entry_cold", format!("{entry_cold_secs:.4}")),
        ("secs_entry_warm", format!("{entry_warm_secs:.9}")),
        ("speedup_entry_warm_vs_cold", format!("{speedup_entry:.1}")),
        ("secs_1_thread", format!("{resynth_secs:.4}")),
    ])
}

fn arena_rows(cfg: &Config) -> Vec<String> {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 };
    if cfg.quick {
        vec![
            arena_row(
                "dag12k",
                || {
                    gen::deep_dag(&RandomCircuitConfig {
                        inputs: 256,
                        outputs: 32,
                        gates: 12_000,
                        window: 2000,
                        seed: 3,
                    })
                },
                false,
                cfg,
            ),
            arena_row("stitch48", || gen::stitched(48, &core), true, cfg),
        ]
    } else {
        vec![
            arena_row(
                "dag60k",
                || {
                    gen::deep_dag(&RandomCircuitConfig {
                        inputs: 64,
                        outputs: 32,
                        gates: 60_000,
                        window: 48,
                        seed: 3,
                    })
                },
                false,
                cfg,
            ),
            arena_row("stitch420", || gen::stitched(420, &core), true, cfg),
        ]
    }
}

fn main() {
    let cfg = Config::from_args();
    let entries = cfg.suite();
    let meta = |kind: &str| {
        vec![
            ("benchmark", format!("\"{kind}\"")),
            ("threads", cfg.jobs.get().to_string()),
            ("quick", cfg.quick.to_string()),
        ]
    };

    eprintln!(
        "perf: {} circuits, 1 vs {} thread(s), {} patterns{}",
        entries.len(),
        cfg.jobs,
        cfg.patterns,
        if cfg.quick { " (quick)" } else { "" }
    );

    let resynth_rows: Vec<String> = entries
        .iter()
        .map(|e| {
            eprintln!("  resynth {}", e.name);
            resynth_row(e, &cfg)
        })
        .collect();
    let resynth_path = cfg.out_dir.join("BENCH_resynth.json");
    std::fs::write(&resynth_path, json_report(&meta("resynth"), &resynth_rows))
        .expect("write BENCH_resynth.json");
    eprintln!("wrote {}", resynth_path.display());

    let sim_rows: Vec<String> = entries
        .iter()
        .map(|e| {
            eprintln!("  campaign {}", e.name);
            sim_row(e, &cfg)
        })
        .collect();
    let sim_path = cfg.out_dir.join("BENCH_sim.json");
    std::fs::write(&sim_path, json_report(&meta("sim"), &sim_rows)).expect("write BENCH_sim.json");
    eprintln!("wrote {}", sim_path.display());

    let edit_rows: Vec<String> = entries
        .iter()
        .map(|e| {
            eprintln!("  edits {}", e.name);
            edit_row(e, &cfg)
        })
        .collect();
    let edit_path = cfg.out_dir.join("BENCH_edit.json");
    std::fs::write(&edit_path, json_report(&meta("edit"), &edit_rows))
        .expect("write BENCH_edit.json");
    eprintln!("wrote {}", edit_path.display());

    eprintln!("  serve saturation (cold + warm)");
    let serve_report_rows = serve_rows(&entries, &cfg);
    let serve_path = cfg.out_dir.join("BENCH_serve.json");
    std::fs::write(&serve_path, json_report(&meta("serve"), &serve_report_rows))
        .expect("write BENCH_serve.json");
    eprintln!("wrote {}", serve_path.display());

    let scale_rows: Vec<String> = scale_suite(&cfg)
        .iter()
        .map(|e| {
            eprintln!("  scale {} ({} patterns)", e.name, e.patterns);
            scale_row(e, &cfg)
        })
        .collect();
    let scale_path = cfg.out_dir.join("BENCH_scale.json");
    std::fs::write(&scale_path, json_report(&meta("scale"), &scale_rows))
        .expect("write BENCH_scale.json");
    eprintln!("wrote {}", scale_path.display());

    eprintln!("  arena (build + campaign-entry conversion + budgeted resynth)");
    let arena_report_rows = arena_rows(&cfg);
    let arena_path = cfg.out_dir.join("BENCH_arena.json");
    std::fs::write(&arena_path, json_report(&meta("arena"), &arena_report_rows))
        .expect("write BENCH_arena.json");
    eprintln!("wrote {}", arena_path.display());
}
