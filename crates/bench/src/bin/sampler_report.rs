//! Bench S2 companion: prints the full sampler-quality table —
//! ground-state probability, R99 repetitions, and time-to-solution — for
//! every sampler on every workload, against exact ground energies.
//!
//! Run with: `cargo run --release -p qsmt-bench --bin sampler_report`

use qsmt_anneal::metrics::{ground_state_probability, repetitions_to_confidence, time_to_solution};
use qsmt_anneal::{
    ExactSolver, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent,
};
use qsmt_core::Constraint;
use std::time::Instant;

fn main() {
    let workloads: Vec<(&str, Constraint)> = vec![
        (
            "equality(abc)",
            Constraint::Equality {
                target: "abc".into(),
            },
        ),
        ("palindrome(3)", Constraint::Palindrome { len: 3 }),
        (
            "regex a[bc] (2)",
            Constraint::Regex {
                pattern: "a[bc]".into(),
                len: 2,
            },
        ),
        (
            "includes(abcabc)",
            Constraint::Includes {
                haystack: "abcabcabc".into(),
                needle: "abc".into(),
            },
        ),
        (
            "palin ∧ prefix",
            Constraint::All(vec![
                Constraint::Palindrome { len: 3 },
                Constraint::Prefix {
                    prefix: "a".into(),
                    len: 3,
                },
            ]),
        ),
    ];

    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(SimulatedAnnealer::new().with_seed(1).with_num_reads(64)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(1)
                .with_num_reads(32),
        ),
        Box::new(SteepestDescent::new().with_seed(1).with_num_reads(64)),
    ];

    println!(
        "{:<18} {:<28} {:>8} {:>8} {:>6} {:>12}",
        "workload", "sampler", "p(gs)", "R99", "reads", "TTS(99%)"
    );
    for (wname, constraint) in &workloads {
        let problem = constraint.encode().expect("encodes");
        let (ground, _) = ExactSolver::new().ground_states(&problem.qubo);
        for sampler in &samplers {
            let t0 = Instant::now();
            let set = sampler.sample(&problem.qubo);
            let elapsed = t0.elapsed();
            let per_read = elapsed / set.total_reads().max(1);
            let p = ground_state_probability(&set, ground, 1e-9);
            let r99 = repetitions_to_confidence(p, 0.99);
            let tts = time_to_solution(&set, ground, 1e-9, per_read, 0.99);
            println!(
                "{:<18} {:<28} {:>7.1}% {:>8} {:>6} {:>12}",
                wname,
                sampler.name(),
                p * 100.0,
                r99.map_or("∞".to_string(), |r| r.to_string()),
                set.total_reads(),
                tts.map_or("—".to_string(), |d| format!("{d:.1?}")),
            );
        }
        println!();
    }
}
