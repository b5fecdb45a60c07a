//! The effort governor end to end: resynthesis under a wall-clock
//! deadline, a step budget, and cooperative cancellation.
//!
//! The paper's procedures are anytime algorithms — every replacement is
//! checked on its cut's truth table, and a pass is committed whole or not
//! at all — so an exhausted budget returns the best checked circuit so far
//! together with a [`StopReason`], never an error that loses work.
//!
//! Run with `cargo run --release --example budgeted_resynthesis`.

use sft::budget::{Budget, CancelFlag, StopReason};
use sft::circuits::random::{random_circuit, RandomCircuitConfig};
use sft::core::{resynthesize_with_budget, ResynthOptions};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = random_circuit(&RandomCircuitConfig {
        inputs: 12,
        outputs: 6,
        gates: 80,
        window: 24,
        seed: 1,
    });
    println!("workload: {}", original.stats());
    let opts = ResynthOptions::default();

    // 1. Unlimited: the run converges on its own.
    let mut full = original.clone();
    let report = resynthesize_with_budget(&mut full, &opts, &Budget::unlimited())?;
    println!("\nunlimited:   {report}");
    assert!(!report.stop_reason.is_early());

    // 2. A step budget bounds the number of candidates scored. The result
    //    is a verified prefix of the full run — equivalent, partly improved.
    let budget = Budget::unlimited().with_step_limit(1000);
    let mut partial = original.clone();
    let report = resynthesize_with_budget(&mut partial, &opts, &budget)?;
    println!("step-limit:  {report}");
    assert_eq!(report.stop_reason, StopReason::StepBudget);
    assert!(sft::bdd::equivalent(&original, &partial)?.is_equivalent());
    assert!(report.passes >= 1, "enough budget for at least one pass");

    // 3. A pre-expired deadline returns the input unchanged — still Ok.
    let budget = Budget::unlimited().with_time_limit(Duration::ZERO);
    let mut untouched = original.clone();
    let report = resynthesize_with_budget(&mut untouched, &opts, &budget)?;
    println!("deadline 0s: {report}");
    assert_eq!(report.stop_reason, StopReason::Deadline);
    assert_eq!(untouched, original);

    // 4. Cancellation: any clone of the flag stops every engine holding a
    //    budget built from it (here raised up front; in a server it would
    //    come from a signal handler or supervisor thread).
    let flag = CancelFlag::new();
    flag.cancel();
    let budget = Budget::unlimited().with_cancel(flag);
    let mut cancelled = original.clone();
    let report = resynthesize_with_budget(&mut cancelled, &opts, &budget)?;
    println!("cancelled:   {report}");
    assert_eq!(report.stop_reason, StopReason::Cancelled);

    println!("\nevery stop kept a verified circuit — no work lost.");
    Ok(())
}
