//! Property-based tests over the whole stack.

use proptest::prelude::*;
use qsmt::core::encode::{bits_to_string, string_to_bits, BITS_PER_CHAR};
use qsmt::{Constraint, ExactSolver, IsingModel, QuboModel, Sampler, SimulatedAnnealer};

/// Strategy: short ASCII strings from a friendly alphabet.
fn short_ascii() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::char::range('a', 'z'), 1..=3)
        .prop_map(|v| v.into_iter().collect())
}

/// Strategy: any-ASCII strings (including controls) for codec tests.
fn any_ascii() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..128, 0..=16)
        .prop_map(|v| v.into_iter().map(|b| b as char).collect())
}

/// Strategy: lowercase strings of 1 to 8 letters.
fn word() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::char::range('a', 'z'), 1..=8)
        .prop_map(|v| v.into_iter().collect())
}

/// Strategy: a ground transformation constraint — equality, concat,
/// replace-all, replace-first or reverse. The replaced character is
/// drawn independently of the input, so it is often absent from it.
fn ground_transformation() -> impl Strategy<Value = Constraint> {
    let ch = || proptest::char::range('a', 'z');
    prop_oneof![
        word().prop_map(|target| Constraint::Equality { target }),
        (
            proptest::collection::vec(word(), 1..=3),
            prop_oneof![Just(String::new()), Just(" ".to_string())],
        )
            .prop_map(|(parts, separator)| Constraint::Concat { parts, separator }),
        (word(), ch(), ch()).prop_map(|(input, from, to)| Constraint::ReplaceAll {
            input,
            from,
            to
        }),
        (word(), ch(), ch()).prop_map(|(input, from, to)| Constraint::ReplaceFirst {
            input,
            from,
            to
        }),
        word().prop_map(|input| Constraint::Reverse { input }),
    ]
}

/// Strategy: small random QUBO models.
fn small_qubo() -> impl Strategy<Value = QuboModel> {
    let linear = proptest::collection::vec(-3.0f64..3.0, 2..=8);
    let quads = proptest::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..=12);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ascii_codec_round_trips(s in any_ascii()) {
        let bits = string_to_bits(&s).expect("ascii");
        prop_assert_eq!(bits.len(), s.len() * BITS_PER_CHAR);
        prop_assert_eq!(bits_to_string(&bits).expect("well formed"), s);
    }

    #[test]
    fn equality_ground_state_is_exactly_the_target(s in short_ascii()) {
        let p = Constraint::Equality { target: s.clone() }.encode().expect("encodes");
        let (_, states) = ExactSolver::new().ground_states(&p.qubo);
        prop_assert_eq!(states.len(), 1);
        let decoded = p.decode_state(&states[0]).expect("decodes");
        prop_assert_eq!(decoded.as_text().expect("text"), s.as_str());
    }

    #[test]
    fn reverse_of_reverse_is_identity(s in short_ascii()) {
        let once = Constraint::Reverse { input: s.clone() };
        let p = once.encode().expect("encodes");
        let (_, states) = ExactSolver::new().ground_states(&p.qubo);
        let rev = p.decode_state(&states[0]).expect("decodes");
        let rev_text = rev.as_text().expect("text").to_string();
        let back = Constraint::Reverse { input: rev_text }.encode().expect("encodes");
        let (_, states2) = ExactSolver::new().ground_states(&back.qubo);
        let twice = back.decode_state(&states2[0]).expect("decodes");
        prop_assert_eq!(twice.as_text().expect("text"), s.as_str());
    }

    #[test]
    fn replace_all_ground_state_has_no_source_chars(
        s in short_ascii(),
        from in proptest::char::range('a', 'z'),
        to in proptest::char::range('a', 'z'),
    ) {
        prop_assume!(from != to);
        let p = Constraint::ReplaceAll { input: s.clone(), from, to }
            .encode().expect("encodes");
        let (_, states) = ExactSolver::new().ground_states(&p.qubo);
        let decoded = p.decode_state(&states[0]).expect("decodes");
        let text = decoded.as_text().expect("text");
        prop_assert!(!text.contains(from));
        let expected = s.replace(from, &to.to_string());
        prop_assert_eq!(text, expected.as_str());
    }

    #[test]
    fn qubo_ising_equivalence_on_random_models(m in small_qubo()) {
        let ising = IsingModel::from_qubo(&m);
        let n = m.num_vars();
        for bits in 0u32..(1 << n) {
            let state: Vec<u8> = (0..n).map(|i| ((bits >> i) & 1) as u8).collect();
            let spins: Vec<i8> = state.iter().map(|&x| if x == 1 { 1 } else { -1 }).collect();
            prop_assert!((m.energy(&state) - ising.energy(&spins)).abs() < 1e-9);
        }
    }

    #[test]
    fn annealer_never_beats_exact_ground(m in small_qubo()) {
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let set = SimulatedAnnealer::new().with_seed(7).with_num_reads(8).sample(&m);
        prop_assert!(set.lowest_energy().expect("reads") >= ground - 1e-9);
    }

    #[test]
    fn includes_ground_index_matches_std_find(
        hay in proptest::collection::vec(proptest::char::range('a', 'c'), 2..=6),
        nee in proptest::collection::vec(proptest::char::range('a', 'c'), 1..=2),
    ) {
        let haystack: String = hay.into_iter().collect();
        let needle: String = nee.into_iter().collect();
        prop_assume!(needle.len() <= haystack.len());
        prop_assume!(haystack.find(&needle).is_some());
        let c = Constraint::Includes { haystack: haystack.clone(), needle: needle.clone() };
        let p = c.encode().expect("encodes");
        let (_, states) = ExactSolver::new().ground_states(&p.qubo);
        // Every ground state must decode to the first occurrence.
        for st in &states {
            let sol = p.decode_state(st).expect("decodes");
            prop_assert_eq!(sol.as_index(), haystack.find(&needle));
        }
    }

    #[test]
    fn palindrome_ground_states_are_palindromes(len in 1usize..=3) {
        let p = Constraint::Palindrome { len }
            .encode_with(1.0, qsmt::BiasProfile::lowercase_block())
            .expect("encodes");
        let (_, states) = ExactSolver::new().ground_states(&p.qubo);
        for st in states.iter().take(32) {
            let t = p.decode_state(st).expect("decodes");
            let text = t.as_text().expect("text");
            let rev: String = text.chars().rev().collect();
            prop_assert_eq!(rev.as_str(), text);
        }
    }

    /// Presolve fixes every variable of a ground transformation, so the
    /// solver answers it from the one lifted state without sampling.
    #[test]
    fn ground_transformations_presolve_fully(c in ground_transformation()) {
        let p = c.encode().expect("ground transformations encode");
        let reduced = qsmt::qubo::presolve(&p.qubo);
        prop_assert_eq!(reduced.model.num_vars(), 0, "{:?}", c);
        let answer = p.decode_state(&reduced.lift(&[])).expect("decodes");
        prop_assert!(c.validate(&answer), "{:?} decoded to {}", c, answer);
    }

    #[test]
    fn solver_answers_validate_for_deterministic_ops(s in short_ascii()) {
        let solver = qsmt::StringSolver::with_defaults().with_seed(3);
        let c = Constraint::Reverse { input: s };
        let out = solver.solve(&c).expect("encodes");
        prop_assert!(out.valid);
        prop_assert!(c.validate(&out.solution));
    }
}
