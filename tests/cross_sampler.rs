//! Cross-crate consistency: the same encoded constraints solved through
//! every sampler implementation agree on ground energies and satisfy the
//! constraint semantics.

use qsmt::{
    Constraint, ExactSolver, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent,
    StringSolver,
};
use std::sync::Arc;

/// Small constraints (≤ 26 variables) so the exact solver can arbitrate.
fn small_constraints() -> Vec<Constraint> {
    vec![
        Constraint::Equality {
            target: "ab".into(),
        },
        Constraint::Reverse {
            input: "abc".into(),
        },
        Constraint::ReplaceAll {
            input: "aba".into(),
            from: 'a',
            to: 'z',
        },
        Constraint::Palindrome { len: 3 },
        Constraint::Regex {
            pattern: "a[bc]".into(),
            len: 2,
        },
        Constraint::Includes {
            haystack: "abcabc".into(),
            needle: "abc".into(),
        },
    ]
}

#[test]
fn all_samplers_reach_exact_ground_energy() {
    let exact = ExactSolver::new();
    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(SimulatedAnnealer::new().with_seed(3).with_num_reads(32)),
        Box::new(SteepestDescent::new().with_seed(3).with_num_reads(64)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(3)
                .with_num_reads(16)
                .with_sweeps(256),
        ),
    ];
    for c in small_constraints() {
        let p = c.encode().expect("encodes");
        let (ground, _) = exact.ground_states(&p.qubo);
        for s in &samplers {
            let best = s.sample(&p.qubo).lowest_energy().expect("reads");
            assert!(
                (best - ground).abs() < 1e-9,
                "{} missed ground on {}: {best} vs {ground}",
                s.name(),
                c.describe()
            );
        }
    }
}

#[test]
fn solver_facade_works_with_every_sampler() {
    let samplers: Vec<Arc<dyn Sampler>> = vec![
        Arc::new(SimulatedAnnealer::new().with_seed(9).with_num_reads(48)),
        Arc::new(SteepestDescent::new().with_seed(9).with_num_reads(16)),
        Arc::new(ExactSolver::new().with_keep(32)),
    ];
    for sampler in samplers {
        let name = sampler.name();
        let solver = StringSolver::new(sampler);
        let out = solver
            .solve(&Constraint::Reverse { input: "ab".into() })
            .expect("encodes");
        assert_eq!(
            out.solution.as_text(),
            Some("ba"),
            "sampler {name} disagrees"
        );
        assert!(out.valid);
    }
}

#[test]
fn validation_distinguishes_relaxed_ground_states() {
    // a[bd] admits out-of-class ground states (paper relaxation); the
    // exact solver surfaces them all and post-selection must still land
    // on a valid one.
    let c = Constraint::Regex {
        pattern: "a[bd]".into(),
        len: 2,
    };
    let solver = StringSolver::new(Arc::new(ExactSolver::new().with_keep(64)));
    let out = solver.solve(&c).expect("encodes");
    assert!(out.valid);
    let t = out.solution.as_text().expect("text");
    assert!(t == "ab" || t == "ad", "got {t:?}");
}

#[test]
fn deterministic_cross_run() {
    let a = StringSolver::with_defaults()
        .with_seed(5)
        .solve(&Constraint::Palindrome { len: 4 })
        .expect("encodes");
    let b = StringSolver::with_defaults()
        .with_seed(5)
        .solve(&Constraint::Palindrome { len: 4 })
        .expect("encodes");
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.energy, b.energy);
}
