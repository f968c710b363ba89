//! Soundness properties for the abstract interpreter (docs/ABSINT.md).
//!
//! Random small scripts over the alphabet {a, b, z} are analysed and
//! cross-checked against brute-force enumeration of every candidate
//! string up to length 4:
//!
//! * **Refutation soundness** — if absint answers unsat, no candidate
//!   satisfies the script (a checked certificate must never kill a
//!   satisfiable script);
//! * **Tightening soundness** — every candidate that satisfies the
//!   script agrees with the statically-derived pins and exact length
//!   (fixing those QUBO bits cannot lose a solution).

use proptest::prelude::*;
use qsmt::Script;

const ALPHABET: [char; 3] = ['a', 'b', 'z'];
const MAX_LEN: usize = 4;

/// One assertion shape the generator can emit, with its SMT-LIB
/// rendering and its reference semantics.
#[derive(Debug, Clone)]
enum Assert {
    LenEq(usize),
    Prefix(String),
    Suffix(String),
    Contains(String),
    PinAt(usize, char),
    InRe(String),
}

impl Assert {
    fn render(&self) -> String {
        match self {
            Assert::LenEq(n) => format!("(assert (= (str.len x) {n}))"),
            Assert::Prefix(p) => format!("(assert (str.prefixof \"{p}\" x))"),
            Assert::Suffix(s) => format!("(assert (str.suffixof \"{s}\" x))"),
            Assert::Contains(c) => format!("(assert (str.contains x \"{c}\"))"),
            Assert::PinAt(i, ch) => format!("(assert (= (str.at x {i}) \"{ch}\"))"),
            Assert::InRe(lit) => format!("(assert (str.in_re x (str.to_re \"{lit}\")))"),
        }
    }

    /// Reference SMT-LIB semantics, independent of both the analyser
    /// and the QUBO compiler.
    fn holds(&self, s: &str) -> bool {
        match self {
            Assert::LenEq(n) => s.len() == *n,
            Assert::Prefix(p) => s.starts_with(p.as_str()),
            Assert::Suffix(suf) => s.ends_with(suf.as_str()),
            Assert::Contains(c) => s.contains(c.as_str()),
            // `str.at` is "" out of range, and "" never equals a
            // single-char literal.
            Assert::PinAt(i, ch) => s.chars().nth(*i) == Some(*ch),
            Assert::InRe(lit) => s == lit,
        }
    }
}

fn letter() -> impl Strategy<Value = char> {
    (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

fn literal(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(letter(), 1..=max).prop_map(|v| v.into_iter().collect())
}

fn one_assert() -> impl Strategy<Value = Assert> {
    prop_oneof![
        (0usize..=MAX_LEN).prop_map(Assert::LenEq),
        literal(3).prop_map(Assert::Prefix),
        literal(3).prop_map(Assert::Suffix),
        literal(3).prop_map(Assert::Contains),
        (0usize..MAX_LEN, letter()).prop_map(|(i, c)| Assert::PinAt(i, c)),
        literal(3).prop_map(Assert::InRe),
    ]
}

fn script_for(asserts: &[Assert]) -> Script {
    let mut src = String::from("(set-logic QF_S)\n(declare-const x String)\n");
    for a in asserts {
        src.push_str(&a.render());
        src.push('\n');
    }
    src.push_str("(check-sat)\n");
    Script::parse(&src).expect("generated script parses")
}

/// Every string over the test alphabet with length ≤ MAX_LEN.
fn candidates() -> Vec<String> {
    let mut all = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..MAX_LEN {
        let mut next = Vec::new();
        for s in &frontier {
            for c in ALPHABET {
                let mut t = s.clone();
                t.push(c);
                next.push(t);
            }
        }
        all.extend(next.iter().cloned());
        frontier = next;
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn refutations_never_kill_a_satisfiable_script(
        asserts in proptest::collection::vec(one_assert(), 1..=4)
    ) {
        let script = script_for(&asserts);
        let run = script.absint();
        if run.is_refuted() {
            for s in candidates() {
                prop_assert!(
                    !asserts.iter().all(|a| a.holds(&s)),
                    "absint refuted a script satisfied by {s:?}: {asserts:?}"
                );
            }
        }
    }

    #[test]
    fn tightenings_never_lose_a_solution(
        asserts in proptest::collection::vec(one_assert(), 1..=4)
    ) {
        let script = script_for(&asserts);
        let run = script.absint();
        prop_assume!(!run.is_refuted());
        let Some(t) = run.analysis.tightening_for("x") else { return Ok(()) };
        for s in candidates() {
            if !asserts.iter().all(|a| a.holds(&s)) {
                continue;
            }
            // `s` satisfies the script, so it must agree with every
            // statically-derived fact.
            if let Some(n) = t.exact_len {
                prop_assert_eq!(
                    s.len(), n,
                    "exact-len tightening excludes witness {:?} of {:?}", &s, &asserts
                );
            }
            for &(i, ch) in &t.pins {
                prop_assert_eq!(
                    s.chars().nth(i), Some(ch),
                    "pin ({}, {:?}) excludes witness {:?} of {:?}", i, ch, &s, &asserts
                );
            }
        }
    }
}

/// Audit of the encoding errors `Script::run` reports as `unsat`: for
/// each, a script whose goal raises it (absint off, so the encoder is
/// what decides), the verdict, and the enumerator's check that no
/// candidate satisfies the script. `LengthOutOfRange` has no row: the
/// front end compiles a bare length to a fill of exactly that length,
/// which cannot raise it.
#[test]
fn encode_time_unsat_verdicts_have_no_model() {
    use qsmt::core::ConstraintError as E;
    use qsmt::smtlib::{Goal, SatStatus};
    use qsmt::{SolveOptions, StringSolver};
    let s = |lit: &str| lit.to_string();
    // The assertions, and the error their goal's encoding must raise.
    type Case = (Vec<Assert>, fn(&E) -> bool);
    let cases: Vec<Case> = vec![
        (vec![Assert::InRe(s("ab")), Assert::LenEq(3)], |e| {
            matches!(e, E::RegexUnsatisfiable { .. })
        }),
        (vec![Assert::Contains(s("abz")), Assert::LenEq(2)], |e| {
            matches!(e, E::SubstringTooLong { .. })
        }),
        // A prefix is a placement at index 0, so it fails its range check.
        (vec![Assert::Prefix(s("aba")), Assert::LenEq(2)], |e| {
            matches!(e, E::IndexOutOfRange { .. })
        }),
        (vec![Assert::Suffix(s("aba")), Assert::LenEq(2)], |e| {
            matches!(e, E::SubstringTooLong { .. })
        }),
        (vec![Assert::PinAt(3, 'a'), Assert::LenEq(2)], |e| {
            matches!(e, E::IndexOutOfRange { .. })
        }),
    ];
    let solver = StringSolver::with_defaults();
    let opts = SolveOptions {
        absint: false,
        ..SolveOptions::default()
    };
    for (asserts, raised) in cases {
        let script = script_for(&asserts);
        let goals = script.compile().expect("compiles");
        let [Goal::StringConstraint { constraint, .. }] = goals.as_slice() else {
            panic!("{asserts:?}: one string goal expected, got {goals:?}");
        };
        let err = constraint.encode().expect_err("the goal cannot encode");
        assert!(raised(&err), "{asserts:?}: {err:?}");
        let run = script.run(&solver, &opts).expect("runs");
        assert_eq!(run.outcome.status, SatStatus::Unsat, "{asserts:?}");
        for s in candidates() {
            assert!(
                !asserts.iter().all(|a| a.holds(&s)),
                "{asserts:?} answered unsat, but {s:?} satisfies it"
            );
        }
    }
}
