//! Property-based tests over the core invariants of the workspace.

use proptest::prelude::*;
use sft::budget::{Budget, CancelFlag, StopReason};
use sft::core::testability::{unit_test_set, validate_test_set};
use sft::core::{build_standalone_unit, identify, ComparisonSpec, IdentifyOptions};
use sft::core::{procedure2, procedure3, resynthesize_with_budget, ResynthOptions};
use sft::netlist::{simplify, Circuit, GateKind, NodeId};
use sft::truth::TruthTable;

/// The resynthesis options used by the budget property tests.
fn resynth_opts() -> ResynthOptions {
    ResynthOptions { max_candidates_per_gate: 40, ..ResynthOptions::default() }
}

/// Strategy: a random small combinational circuit over `n` inputs.
fn arb_circuit(inputs: usize, gates: usize) -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, any::<u16>(), any::<u16>()), gates).prop_map(move |specs| {
        let mut c = Circuit::new("arb");
        let mut pool: Vec<NodeId> = (0..inputs).map(|i| c.add_input(format!("i{i}"))).collect();
        for (kind, xa, xb) in specs {
            let a = pool[xa as usize % pool.len()];
            let b = pool[xb as usize % pool.len()];
            let g = if kind == GateKind::Not {
                c.add_gate(GateKind::Not, vec![a]).expect("valid")
            } else if a == b {
                c.add_gate(GateKind::Buf, vec![a]).expect("valid")
            } else {
                c.add_gate(kind, vec![a, b]).expect("valid")
            };
            pool.push(g);
        }
        let out = *pool.last().expect("nonempty");
        c.add_output(out, "y");
        if pool.len() > inputs + 2 {
            c.add_output(pool[inputs + 1], "z");
        }
        c
    })
}

/// Resynthesizes a copy of `c` under a step limit; returns the result, its
/// report and the steps it used.
fn budgeted_run(
    c: &Circuit,
    opts: &ResynthOptions,
    limit: u64,
) -> (Circuit, sft::core::ResynthReport, u64) {
    let budget = Budget::unlimited().with_step_limit(limit);
    let mut work = c.clone();
    let report = resynthesize_with_budget(&mut work, opts, &budget).expect("budgeted resynthesis");
    (work, report, limit - budget.remaining_steps().expect("step-limited"))
}

fn exhaustive_outputs(c: &Circuit) -> Vec<Vec<bool>> {
    let n = c.inputs().len();
    (0..1u32 << n)
        .map(|m| {
            let assignment: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            c.eval_assignment(&assignment)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Procedure 2 preserves the function of arbitrary random circuits
    /// (checked exhaustively over all input assignments), as written in the
    /// paper and with each extension of its search: satisfiability
    /// don't-cares, input negation, and covers of up to three units.
    #[test]
    fn procedure2_preserves_function(c in arb_circuit(5, 14), extension in 0..4usize) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        let plain = ResynthOptions { max_candidates_per_gate: 40, ..ResynthOptions::default() };
        let opts = match extension {
            0 => plain,
            1 => ResynthOptions { use_satisfiability_dont_cares: true, ..plain },
            2 => ResynthOptions { allow_input_negation: true, ..plain },
            _ => ResynthOptions { max_cover_units: 3, ..plain },
        };
        procedure2(&mut work, &opts).expect("verified resynthesis");
        prop_assert_eq!(exhaustive_outputs(&work), before);
        // And never increases the gate count.
        prop_assert!(work.two_input_gate_count() <= c.two_input_gate_count());
    }

    /// Procedure 3 preserves the function and never increases paths.
    #[test]
    fn procedure3_preserves_function(c in arb_circuit(5, 14)) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        let opts = ResynthOptions { max_candidates_per_gate: 40, ..ResynthOptions::default() };
        procedure3(&mut work, &opts).expect("verified resynthesis");
        prop_assert_eq!(exhaustive_outputs(&work), before);
        prop_assert!(work.path_count() <= c.path_count());
    }

    /// Normalization (constant propagation, buffer collapsing, strashing,
    /// sweeping) preserves the function.
    #[test]
    fn normalize_preserves_function(c in arb_circuit(5, 16)) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        simplify::normalize(&mut work);
        prop_assert_eq!(exhaustive_outputs(&work), before);
        work.validate().expect("normalized circuits validate");
    }

    /// Identification certificates always reproduce the function, whatever
    /// the function.
    #[test]
    fn identify_certificates_sound(bits in any::<u32>()) {
        let f = TruthTable::from_bits(5, bits as u128);
        if let Some(spec) = identify(&f, &IdentifyOptions::default()) {
            prop_assert_eq!(spec.to_table(), f);
        }
    }

    /// Every valid interval spec builds a unit implementing exactly the
    /// interval, with at most two paths per input, and a complete robust
    /// test set.
    #[test]
    fn units_correct_and_testable(
        lower in 0u64..32,
        span in 0u64..32,
        perm_seed in any::<u32>(),
        complemented in any::<bool>(),
    ) {
        let upper = (lower + span).min(31);
        // A seeded permutation of 0..5.
        let mut perm: Vec<usize> = (0..5).collect();
        let mut state = perm_seed;
        for i in (1..5).rev() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            perm.swap(i, (state as usize) % (i + 1));
        }
        let spec = ComparisonSpec { perm, lower, upper, complemented };
        spec.validate().expect("constructed valid");
        let unit = build_standalone_unit(&spec).expect("buildable");
        // Exact function.
        let table = spec.to_table();
        for m in 0..32u64 {
            let assignment: Vec<bool> = (0..5).map(|i| m >> (4 - i) & 1 == 1).collect();
            prop_assert_eq!(unit.eval_assignment(&assignment)[0], table.value(m));
        }
        // At most two paths per input.
        let out = unit.outputs()[0];
        for &i in unit.inputs() {
            prop_assert!(unit.path_count_between(i, out) <= 2);
        }
        // Fully robustly testable by the constructive set.
        let tests = unit_test_set(&spec);
        let (covered, total) = validate_test_set(&spec, &tests);
        prop_assert_eq!(covered, total);
    }

    /// Path counting is invariant under buffer insertion on any line.
    #[test]
    fn path_count_buffer_invariant(c in arb_circuit(4, 10), pick in any::<u16>()) {
        let before = c.path_count();
        let mut work = c.clone();
        // Insert a buffer after some gate: consumers of `victim` read the
        // buffer instead.
        let gates: Vec<NodeId> = work
            .iter()
            .filter(|(_, n)| n.kind().is_gate())
            .map(|(id, _)| id)
            .collect();
        let victim = gates[pick as usize % gates.len()];
        let buf = work.add_gate(GateKind::Buf, vec![victim]).expect("valid");
        let consumers: Vec<(NodeId, usize)> = work
            .fanout_table()[victim.index()]
            .iter()
            .copied()
            .filter(|&(g, _)| g != buf)
            .collect();
        for (gate, pin) in consumers {
            let kind = work.node(gate).kind();
            let mut fanins = work.node(gate).fanins().to_vec();
            fanins[pin] = buf;
            work.rewire(gate, kind, fanins).expect("acyclic");
        }
        prop_assert_eq!(work.path_count(), before);
    }

    /// The `.bench` format round-trips arbitrary circuits functionally.
    #[test]
    fn bench_round_trip(c in arb_circuit(4, 12)) {
        let text = sft::netlist::bench_format::write(&c);
        let parsed = sft::netlist::bench_format::parse(&text, "rt").expect("parseable");
        prop_assert_eq!(exhaustive_outputs(&parsed), exhaustive_outputs(&c));
    }

    /// BDD equivalence agrees with exhaustive simulation.
    #[test]
    fn bdd_equivalence_agrees_with_simulation(
        a in arb_circuit(4, 10),
        b in arb_circuit(4, 10),
    ) {
        if a.outputs().len() == b.outputs().len() {
            let sim_equal = exhaustive_outputs(&a) == exhaustive_outputs(&b);
            let bdd_equal = sft::bdd::equivalent(&a, &b).expect("fits").is_equivalent();
            prop_assert_eq!(sim_equal, bdd_equal);
        }
    }

    /// A step budget bounds resynthesis exactly: one step per scored
    /// candidate, no overshoot. A run whose limit exceeds the steps an
    /// unconstrained run consumes converges to the same circuit with the
    /// difference left over; any smaller limit stops with `StepBudget`,
    /// drains the counter to 0, and keeps a function-preserving circuit
    /// with the replacements committed before the stop. A limit of exactly the total
    /// drains the counter too, and finishes only if nothing checks the
    /// budget after the last scoring. Besides the random limit, every case
    /// runs the three limits around the total.
    #[test]
    fn resynth_step_budget_is_exact(c in arb_circuit(5, 14), limit in 1u64..40) {
        // Total work of an unconstrained run, measured on the same input.
        const BIG: u64 = 1 << 40;
        let full = Budget::unlimited().with_step_limit(BIG);
        let mut unconstrained = c.clone();
        resynthesize_with_budget(&mut unconstrained, &resynth_opts(), &full)
            .expect("unconstrained resynthesis");
        let total_work = BIG - full.remaining_steps().expect("step-limited");

        for limit in [limit, total_work.saturating_sub(1), total_work, total_work + 1] {
            let budget = Budget::unlimited().with_step_limit(limit);
            let mut work = c.clone();
            let report = resynthesize_with_budget(&mut work, &resynth_opts(), &budget)
                .expect("budgeted resynthesis");
            // Whatever happened, the result is verified equivalent.
            prop_assert_eq!(exhaustive_outputs(&work), exhaustive_outputs(&c));
            work.validate().expect("budgeted result validates");
            if limit > total_work {
                prop_assert_eq!(report.stop_reason, StopReason::Converged);
                prop_assert_eq!(&work, &unconstrained);
                prop_assert_eq!(budget.remaining_steps(), Some(limit - total_work));
            } else {
                prop_assert_eq!(budget.remaining_steps(), Some(0));
                if limit < total_work {
                    prop_assert_eq!(report.stop_reason, StopReason::StepBudget);
                }
            }
        }
    }

    /// Resynthesis is anytime under a step budget. Over a sweep of step
    /// limits on random circuits of up to 12 inputs, every budgeted run
    /// keeps the input's function, keeps at least as many replacements as
    /// any smaller limit, and reproduces the unbudgeted netlist and report
    /// once the limit exceeds the unbudgeted run's steps. A run whose
    /// budget runs out in pass `p` keeps at least the replacements of the
    /// unbudgeted run cut at `p - 1` passes and at most those of the run
    /// cut at `p`; when it kept more than the former, pass `p` counts. A
    /// budget that runs out on pass `p`'s last scoring loses at most the
    /// replacement that scoring would have made.
    #[test]
    fn resynth_is_anytime_under_step_limits(
        inputs in 4usize..=12,
        gates in 20usize..70,
        window in 8usize..24,
        seed in any::<u64>(),
    ) {
        use sft::circuits::random::{random_circuit, RandomCircuitConfig};
        let c = random_circuit(&RandomCircuitConfig { inputs, outputs: 4, gates, window, seed });
        let before = exhaustive_outputs(&c);
        let unbudgeted = |max_passes| {
            let opts = ResynthOptions { max_passes, ..resynth_opts() };
            budgeted_run(&c, &opts, u64::MAX)
        };
        let (full, full_report, total) = unbudgeted(resynth_opts().max_passes);
        // (steps, replacements) of the unbudgeted run cut at q passes.
        let cut: Vec<(u64, usize)> = (0..=full_report.passes)
            .map(|q| {
                let (_, report, steps) = unbudgeted(q);
                (steps, report.replacements)
            })
            .collect();
        let stride = (total / 12).max(1) as usize;
        let mut limits: Vec<u64> = (1..=total + 1).step_by(stride).collect();
        limits.extend(cut.iter().map(|&(steps, _)| steps.saturating_sub(1).max(1)));
        limits.extend([total, total + 1, total + 17]);
        limits.sort_unstable();
        limits.dedup();
        let mut kept = 0;
        for limit in limits {
            let (work, report, _) = budgeted_run(&c, &resynth_opts(), limit);
            prop_assert_eq!(exhaustive_outputs(&work), before.clone(), "limit {}", limit);
            prop_assert!(report.replacements >= kept, "limit {}: {}", limit, report);
            kept = report.replacements;
            if limit > total {
                prop_assert_eq!(&report, &full_report);
                prop_assert!(work == full, "limit {} must reproduce the unbudgeted netlist", limit);
                continue;
            }
            let p = (1..cut.len()).find(|&q| cut[q].0 >= limit).expect("limit <= total");
            prop_assert!(
                (cut[p - 1].1..=cut[p].1).contains(&report.replacements),
                "limit {} stops in pass {}: {} outside {:?}",
                limit,
                p,
                report,
                (cut[p - 1].1, cut[p].1)
            );
            if report.replacements > cut[p - 1].1 {
                prop_assert_eq!(report.passes, p, "limit {}: {}", limit, report);
            }
            if limit + 1 == cut[p].0 {
                // Out of steps on pass p's last scoring: only the
                // replacement that scoring would have made is lost.
                prop_assert!(report.replacements + 1 >= cut[p].1, "limit {}: {}", limit, report);
            }
        }
    }

    /// A cancellation raised before the search starts aborts immediately
    /// and leaves the circuit untouched.
    #[test]
    fn resynth_pre_cancelled_is_a_no_op(c in arb_circuit(5, 12)) {
        let flag = CancelFlag::new();
        flag.cancel();
        let budget = Budget::unlimited().with_cancel(flag);
        let mut work = c.clone();
        let report = resynthesize_with_budget(&mut work, &resynth_opts(), &budget)
            .expect("cancelled resynthesis still returns Ok");
        prop_assert_eq!(report.stop_reason, StopReason::Cancelled);
        prop_assert_eq!(report.replacements, 0);
        prop_assert_eq!(&work, &c);
    }
}

/// Cancelling from another thread mid-search aborts cleanly: the run
/// reports `Cancelled` (or finished first), and the circuit it hands back
/// is always function-preserving — every replacement in it was checked and
/// committed, none is half-applied.
#[test]
fn resynth_mid_run_cancellation_rolls_back_cleanly() {
    use sft::circuits::random::{random_circuit, RandomCircuitConfig};
    // Big enough that a handful of passes take a visible amount of time.
    let c = random_circuit(&RandomCircuitConfig {
        inputs: 12,
        outputs: 6,
        gates: 220,
        window: 10,
        seed: 11,
    });
    for delay_us in [0u64, 50, 400, 2000] {
        let flag = CancelFlag::new();
        let budget = Budget::unlimited().with_cancel(flag.clone());
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            flag.cancel();
        });
        let mut work = c.clone();
        let report = resynthesize_with_budget(&mut work, &resynth_opts(), &budget)
            .expect("cancelled resynthesis still returns Ok");
        killer.join().expect("killer thread");
        assert!(
            matches!(report.stop_reason, StopReason::Cancelled | StopReason::Converged),
            "unexpected stop reason {:?}",
            report.stop_reason
        );
        work.validate().expect("result validates after cancellation");
        assert!(
            sft::bdd::equivalent(&work, &c).expect("fits").is_equivalent(),
            "cancelled result must stay equivalent (delay {delay_us}us)"
        );
    }
}
