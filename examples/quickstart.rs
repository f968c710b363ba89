//! Quickstart: solve one of each kind of string constraint on the
//! simulated annealer and print the results.
//!
//! Run with: `cargo run --release --example quickstart`

use qsmt::{Constraint, Pipeline, SolveOptions, Start, Step, StringSolver};

fn main() {
    let solver = StringSolver::with_defaults().with_seed(2026);

    println!("qsmt quickstart — QUBO string solving on a simulated annealer");
    println!("sampler: {}\n", solver.sampler_name());

    let constraints = vec![
        Constraint::Equality {
            target: "hello".into(),
        },
        Constraint::Reverse {
            input: "hello".into(),
        },
        Constraint::ReplaceAll {
            input: "hello world".into(),
            from: 'l',
            to: 'x',
        },
        Constraint::Palindrome { len: 6 },
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 5,
        },
        Constraint::SubstringMatch {
            substring: "cat".into(),
            len: 4,
        },
        Constraint::IndexOfPlacement {
            substring: "hi".into(),
            index: 2,
            len: 6,
        },
        Constraint::Includes {
            haystack: "hello world".into(),
            needle: "world".into(),
        },
    ];

    for c in &constraints {
        match solver.solve(c) {
            Ok(out) => println!(
                "{:<45} -> {:<16} vars={:<4} energy={:<8.2} valid={}",
                c.describe(),
                out.solution.to_string(),
                out.problem.num_vars(),
                out.energy,
                out.valid
            ),
            Err(e) => println!("{:<45} -> error: {e}", c.describe()),
        }
    }

    // §4.12: sequential combination — Table 1 row 1.
    println!("\nsequential pipeline (paper §4.12):");
    let report = Pipeline::new(Start::Literal("hello".into()))
        .then(Step::Reverse)
        .then(Step::ReplaceAll { from: 'e', to: 'a' })
        .run(&solver, &SolveOptions::default())
        .expect("pipeline encodes");
    for (i, stage) in report.stages.iter().enumerate() {
        println!(
            "  stage {}: {:<40} -> {:?}",
            i + 1,
            stage.constraint.describe(),
            stage.output
        );
    }
    println!("  final: {:?} (expected \"ollah\")", report.final_text);
}
