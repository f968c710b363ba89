//! Regenerates the paper's **Figure 1** ("Overview of our approach") as a
//! live end-to-end trace: operation + args → binary variables → objective
//! and penalty functions in a QUBO matrix → (simulated) annealer →
//! decoded string.
//!
//! Run with: `cargo run --release -p qsmt-bench --bin figure1`

use qsmt_anneal::SimulatedAnnealer;
use qsmt_core::{Constraint, SolveTrace, StringSolver, DEFAULT_READS, DEFAULT_SWEEPS};
use std::sync::Arc;

fn main() {
    // The paper's annealer on every constraint: the built-in solver would
    // answer these decomposable models by exact enumeration instead.
    let solver = StringSolver::new(Arc::new(
        SimulatedAnnealer::new()
            .with_num_reads(DEFAULT_READS)
            .with_sweeps(DEFAULT_SWEEPS)
            .with_seed(7),
    ));
    println!("=== Figure 1: Overview of our approach (live trace) ===\n");

    for constraint in [
        Constraint::Equality {
            target: "abc".into(),
        },
        Constraint::Palindrome { len: 4 },
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 4,
        },
    ] {
        let outcome = solver.solve(&constraint).expect("constraint encodes");
        println!("{}", SolveTrace::new(&constraint, &outcome));
        println!(
            "result: {} (valid: {})\n{}",
            outcome.solution,
            outcome.valid,
            "=".repeat(72)
        );
    }
}
