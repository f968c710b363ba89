//! Property-based tests for the QUBO substrate.

use proptest::prelude::*;
use qsmt_qubo::{
    fix_variables, from_qbsolv, persistent_assignments, presolve, to_qbsolv, CompiledQubo,
    DenseQubo, IsingModel, QuboModel,
};

fn arb_model() -> impl Strategy<Value = QuboModel> {
    let linear = proptest::collection::vec(-4.0f64..4.0, 1..=8);
    let quads = proptest::collection::vec((0usize..8, 0usize..8, -4.0f64..4.0), 0..=16);
    let offset = -2.0f64..2.0;
    (linear, quads, offset).prop_map(|(lin, quads, offset)| {
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
        m.add_offset(offset);
        m
    })
}

fn all_states(n: usize) -> impl Iterator<Item = Vec<u8>> {
    (0u32..(1 << n)).map(move |bits| (0..n).map(|i| ((bits >> i) & 1) as u8).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qbsolv_round_trip_preserves_energy(m in arb_model()) {
        let back = from_qbsolv(&to_qbsolv(&m)).expect("round trip parses");
        for s in all_states(m.num_vars()) {
            prop_assert!((m.energy(&s) - back.energy(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn dense_round_trip_preserves_energy(m in arb_model()) {
        let back = DenseQubo::from_model(&m).to_model();
        for s in all_states(m.num_vars()) {
            prop_assert!((m.energy(&s) - back.energy(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn compiled_energy_and_deltas_agree(m in arb_model()) {
        let c = CompiledQubo::compile(&m);
        for s in all_states(m.num_vars()) {
            prop_assert!((m.energy(&s) - c.energy(&s)).abs() < 1e-9);
            for i in 0..m.num_vars() {
                let mut flipped = s.clone();
                flipped[i] ^= 1;
                let expect = m.energy(&flipped) - m.energy(&s);
                prop_assert!((c.flip_delta(&s, i as u32) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ising_round_trip_preserves_energy(m in arb_model()) {
        let back = IsingModel::from_qubo(&m).to_qubo();
        for s in all_states(m.num_vars()) {
            prop_assert!((m.energy(&s) - back.energy(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn persistency_is_sound(m in arb_model()) {
        // Every forced assignment must appear in at least one ground state
        // — in fact in all of them; check against brute force.
        let (ground, states) = m.brute_force_ground_states();
        let _ = ground;
        for (v, val) in persistent_assignments(&m) {
            for st in &states {
                prop_assert_eq!(
                    st[v as usize], val,
                    "persistent variable {} forced to {} but a ground state disagrees", v, val
                );
            }
        }
    }

    #[test]
    fn presolve_preserves_ground_energy(m in arb_model()) {
        let (ground, _) = m.brute_force_ground_states();
        let red = presolve(&m);
        let k = red.model.num_vars();
        let mut best = f64::INFINITY;
        for s in all_states(k) {
            best = best.min(red.model.energy(&s));
        }
        if k == 0 {
            best = red.model.energy(&[]);
        }
        prop_assert!((best - ground).abs() < 1e-9);
    }

    #[test]
    fn fixing_any_variable_preserves_conditional_energies(m in arb_model(), v in 0usize..8, val in 0u8..=1) {
        let v = (v % m.num_vars()) as u32;
        let red = fix_variables(&m, &[(v, val)]);
        for s in all_states(red.model.num_vars()) {
            let full = red.lift(&s);
            prop_assert!((red.model.energy(&s) - m.energy(&full)).abs() < 1e-9);
        }
    }

    #[test]
    fn fixing_multiple_variables_round_trips_energies(
        m in arb_model(),
        picks in proptest::collection::vec((0usize..8, 0u8..=1), 1..=4),
    ) {
        // Deduplicate to distinct variables (last pick wins, matching a
        // caller that composes fixes left to right).
        let mut fixes: Vec<(u32, u8)> = Vec::new();
        for (v, val) in picks {
            let v = (v % m.num_vars()) as u32;
            fixes.retain(|&(u, _)| u != v);
            fixes.push((v, val));
        }
        prop_assume!(fixes.len() < m.num_vars());
        let red = fix_variables(&m, &fixes);
        prop_assert_eq!(red.num_fixed(), fixes.len());
        for s in all_states(red.model.num_vars()) {
            let full = red.lift(&s);
            // The lift reinstates every fixed variable at its pinned value
            // exactly, and the reduced energy equals the full energy.
            prop_assert_eq!(full.len(), m.num_vars());
            for &(v, val) in &fixes {
                prop_assert_eq!(full[v as usize], val);
            }
            prop_assert!((red.model.energy(&s) - m.energy(&full)).abs() < 1e-9);
        }
    }

    #[test]
    fn persistent_assignments_never_fix_to_a_non_ground_value(m in arb_model()) {
        // Stronger framing than soundness-per-state: collect the set of
        // values each variable takes across *all* exact ground states; a
        // persistent fix must pick a value that every ground state uses.
        let (_, states) = m.brute_force_ground_states();
        prop_assert!(!states.is_empty());
        for (v, val) in persistent_assignments(&m) {
            let ground_values: std::collections::BTreeSet<u8> =
                states.iter().map(|s| s[v as usize]).collect();
            prop_assert_eq!(
                ground_values.len(), 1,
                "persistency fixed x{} but ground states disagree on it", v
            );
            prop_assert!(ground_values.contains(&val));
        }
    }

    #[test]
    fn reductions_and_merges_preserve_model_invariants(a in arb_model(), b in arb_model()) {
        prop_assert!(a.check_invariants().is_ok());
        let red = presolve(&a);
        prop_assert!(red.model.check_invariants().is_ok());
        let n = a.num_vars().max(b.num_vars());
        let mut merged = a;
        merged.grow_to(n);
        let mut b2 = b;
        b2.grow_to(n);
        merged.merge(&b2);
        prop_assert!(merged.check_invariants().is_ok());
    }

    #[test]
    fn merge_energy_is_sum_of_part_energies(a in arb_model(), b in arb_model()) {
        let n = a.num_vars().max(b.num_vars());
        let mut merged = QuboModel::new(n);
        let mut a2 = a;
        a2.grow_to(n);
        let mut b2 = b;
        b2.grow_to(n);
        merged.merge(&a2);
        merged.merge(&b2);
        for s in all_states(n) {
            let expect = a2.energy(&s) + b2.energy(&s);
            prop_assert!((merged.energy(&s) - expect).abs() < 1e-9);
        }
    }
}
