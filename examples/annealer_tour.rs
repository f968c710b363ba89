//! A tour of the sampler substrate: run the same string-constraint QUBO
//! through every sampler and compare solution quality, plus a β-schedule
//! ablation for simulated annealing.
//!
//! Run with: `cargo run --release --example annealer_tour`

use qsmt::{
    BetaSchedule, Constraint, ExactSolver, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer,
    SteepestDescent,
};
use std::time::Instant;

fn main() {
    // A palindrome of length 3 (21 variables): small enough for the exact
    // solver, structured enough (couplings!) to differentiate samplers.
    let constraint = Constraint::Palindrome { len: 3 };
    let problem = constraint.encode().expect("encodes");
    println!(
        "model: {} — {} vars, {} interactions\n",
        problem.description,
        problem.num_vars(),
        problem.qubo.num_interactions()
    );

    let exact = ExactSolver::new();
    let (ground, _) = exact.ground_states(&problem.qubo);
    println!("exact ground energy: {ground:.3}\n");

    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(SimulatedAnnealer::new().with_seed(1).with_num_reads(32)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(1)
                .with_num_reads(32),
        ),
        Box::new(SteepestDescent::new().with_seed(1)),
    ];

    println!(
        "{:<28} {:>10} {:>12} {:>10} {:>10}",
        "sampler", "best E", "success %", "distinct", "time"
    );
    for sampler in &samplers {
        let t = Instant::now();
        let set = sampler.sample(&problem.qubo);
        let dt = t.elapsed();
        let best = set.lowest_energy().unwrap_or(f64::NAN);
        let hit = if (best - ground).abs() < 1e-9 {
            set.success_fraction(1e-9) * 100.0
        } else {
            0.0
        };
        println!(
            "{:<28} {:>10.3} {:>11.1}% {:>10} {:>9.1?}",
            sampler.name(),
            best,
            hit,
            set.len(),
            dt
        );
    }

    println!("\nβ-schedule ablation (simulated annealing, 32 reads):");
    let schedules: Vec<(&str, BetaSchedule)> = vec![
        (
            "geometric 0.1→10",
            BetaSchedule::Geometric {
                beta_min: 0.1,
                beta_max: 10.0,
                sweeps: 256,
            },
        ),
        (
            "linear    0.1→10",
            BetaSchedule::Linear {
                beta_min: 0.1,
                beta_max: 10.0,
                sweeps: 256,
            },
        ),
        (
            "cold-only 10→10",
            BetaSchedule::Geometric {
                beta_min: 10.0,
                beta_max: 10.0,
                sweeps: 256,
            },
        ),
    ];
    for (name, schedule) in schedules {
        let sa = SimulatedAnnealer::new()
            .with_seed(3)
            .with_num_reads(32)
            .with_schedule(schedule);
        let set = sa.sample(&problem.qubo);
        println!(
            "  {:<18} best={:>7.3} ground-hit={:>5.1}%",
            name,
            set.lowest_energy().unwrap(),
            set.success_fraction(1e-9) * 100.0
        );
    }
}
