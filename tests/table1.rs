//! End-to-end reproduction of every row of the paper's Table 1.
//!
//! Absolute strings can differ where the paper's own outputs are samples
//! from degenerate ground states (palindrome content, regex choice,
//! flexible fill); what must hold — and is asserted here — is the *shape*:
//! the constraint is satisfied and deterministic rows match exactly.

use qsmt::{Constraint, Pipeline, SolveOptions, Start, Step, StringSolver};

fn solver() -> StringSolver {
    StringSolver::with_defaults().with_seed(1)
}

#[test]
fn row1_reverse_hello_and_replace_e_with_a() {
    let report = Pipeline::new(Start::Literal("hello".into()))
        .then(Step::Reverse)
        .then(Step::ReplaceAll { from: 'e', to: 'a' })
        .run(&solver(), &SolveOptions::default())
        .expect("encodes");
    // Deterministic output: must match the paper exactly.
    assert_eq!(report.final_text, "ollah");
    assert!(report.all_valid());
}

#[test]
fn row2_palindrome_of_length_6() {
    let out = solver()
        .solve(&Constraint::Palindrome { len: 6 })
        .expect("encodes");
    assert!(out.valid);
    let t = out.solution.as_text().expect("text");
    assert_eq!(t.len(), 6);
    assert_eq!(t.chars().rev().collect::<String>(), t);
}

#[test]
fn row2_matrix_shape_matches_paper() {
    // The paper's excerpt shows +1 diagonals and −2 mirrored couplings.
    let p = Constraint::Palindrome { len: 6 }
        .encode_with(1.0, qsmt::BiasProfile::none())
        .expect("encodes");
    assert_eq!(p.qubo.linear(0), 1.0);
    assert_eq!(p.qubo.quadratic(0, 35), -2.0); // bit 0 of chars 0 and 5
}

#[test]
fn row3_regex_a_bc_plus_length_5() {
    let constraint = Constraint::Regex {
        pattern: "a[bc]+".into(),
        len: 5,
    };
    let out = solver().solve(&constraint).expect("encodes");
    assert!(out.valid, "post-selected answer must match the regex");
    let t = out.solution.as_text().expect("text");
    assert!(t.starts_with('a'));
    assert!(t[1..].chars().all(|c| c == 'b' || c == 'c'));
    // The paper's own sample output is one of the valid ground strings.
    assert!(constraint.validate(&qsmt::Solution::Text("abcbb".into())));
}

#[test]
fn row4_concat_hello_world_and_replace_all_l_with_x() {
    let report = Pipeline::new(Start::Literal("hello".into()))
        .then(Step::Append {
            suffix: "world".into(),
            separator: " ".into(),
        })
        .then(Step::ReplaceAll { from: 'l', to: 'x' })
        .run(&solver(), &SolveOptions::default())
        .expect("encodes");
    assert_eq!(report.final_text, "hexxo worxd");
    assert!(report.all_valid());
}

#[test]
fn row5_length_6_with_hi_at_index_2() {
    let constraint = Constraint::IndexOfPlacement {
        substring: "hi".into(),
        index: 2,
        len: 6,
    };
    let out = solver().solve(&constraint).expect("encodes");
    assert!(out.valid);
    let t = out.solution.as_text().expect("text");
    assert_eq!(t.len(), 6);
    assert_eq!(&t[2..4], "hi");
    // The paper's sample fill is lowercase; the default bias reproduces
    // that block.
    assert!(constraint.validate(&qsmt::Solution::Text("qphiqp".into())));
}

#[test]
fn all_rows_solve_on_one_solver_instance() {
    let s = solver();
    for c in [
        Constraint::Palindrome { len: 6 },
        Constraint::Regex {
            pattern: "a[bc]+".into(),
            len: 5,
        },
        Constraint::IndexOfPlacement {
            substring: "hi".into(),
            index: 2,
            len: 6,
        },
    ] {
        let out = s.solve(&c).expect("encodes");
        assert!(out.valid, "{} must validate", c.describe());
    }
}
