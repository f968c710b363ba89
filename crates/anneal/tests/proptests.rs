//! Property-based tests: every sampler respects the exact ground energy
//! and produces internally consistent sample sets on random models.

use proptest::prelude::*;
use qsmt_anneal::{
    ExactSolver, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent,
};
use qsmt_qubo::QuboModel;

fn arb_model() -> impl Strategy<Value = QuboModel> {
    let linear = proptest::collection::vec(-3.0f64..3.0, 2..=10);
    let quads = proptest::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 0..=14);
    (linear, quads).prop_map(|(lin, quads)| {
        let n = lin.len();
        let mut m = QuboModel::new(n);
        for (i, v) in lin.into_iter().enumerate() {
            m.add_linear(i as u32, v);
        }
        for (a, b, v) in quads {
            let (a, b) = (a % n, b % n);
            if a != b {
                m.add_quadratic(a as u32, b as u32, v);
            }
        }
        m
    })
}

fn samplers(seed: u64) -> Vec<Box<dyn Sampler>> {
    vec![
        Box::new(SimulatedAnnealer::new().with_seed(seed).with_num_reads(8)),
        Box::new(
            SimulatedQuantumAnnealer::new()
                .with_seed(seed)
                .with_num_reads(4)
                .with_trotter_slices(8)
                .with_sweeps(128),
        ),
        Box::new(SteepestDescent::new().with_seed(seed).with_num_reads(8)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_sampler_reports_below_ground(m in arb_model(), seed in 0u64..1000) {
        let (ground, _) = ExactSolver::new().ground_states(&m);
        for s in samplers(seed) {
            let set = s.sample(&m);
            let best = set.lowest_energy().expect("reads were taken");
            prop_assert!(
                best >= ground - 1e-9,
                "{} reported {} below exact ground {}", s.name(), best, ground
            );
        }
    }

    #[test]
    fn reported_energies_match_model(m in arb_model(), seed in 0u64..1000) {
        for s in samplers(seed) {
            let set = s.sample(&m);
            for sample in set.iter() {
                prop_assert!(
                    (m.energy(&sample.state) - sample.energy).abs() < 1e-6,
                    "{} reported inconsistent energy", s.name()
                );
            }
        }
    }

    #[test]
    fn sample_sets_are_sorted_and_aggregated(m in arb_model(), seed in 0u64..1000) {
        for s in samplers(seed) {
            let set = s.sample(&m);
            let energies: Vec<f64> = set.iter().map(|x| x.energy).collect();
            prop_assert!(energies.windows(2).all(|w| w[0] <= w[1]));
            // distinct states only
            let mut states: Vec<&Vec<u8>> = set.iter().map(|x| &x.state).collect();
            let before = states.len();
            states.sort();
            states.dedup();
            prop_assert_eq!(states.len(), before, "{} returned duplicate states", s.name());
        }
    }

    #[test]
    fn stochastic_samplers_eventually_hit_ground(m in arb_model()) {
        // With generous budgets, SA must find the exact ground state of
        // these tiny models.
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let sa = SimulatedAnnealer::new().with_seed(0).with_num_reads(32).with_sweeps(512);
        let best = sa.sample(&m).lowest_energy().expect("reads");
        prop_assert!((best - ground).abs() < 1e-9, "SA missed: {best} vs {ground}");
    }
}
