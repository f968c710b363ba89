//! # qsmt-bench — workloads and harnesses for every table and figure
//!
//! Binaries:
//! * `table1` — regenerates the paper's Table 1 (constraint, matrix
//!   excerpt, output) — `cargo run -p qsmt-bench --bin table1`
//! * `figure1` — prints the Figure 1 pipeline trace for a sample
//!   constraint — `cargo run -p qsmt-bench --bin figure1`
//! * `qpu_row` — prints `BENCH_qpu.json`: every benchmark model
//!   minor-embedded and sampled on the simulated QPU —
//!   `cargo run --release -p qsmt-bench --bin qpu_row`
//!
//! Criterion benches (`cargo bench -p qsmt-bench`): `scaling`, `samplers`,
//! `embedding`, `crossover`, `multi_replica` — see DESIGN.md's experiment
//! index.

#![warn(missing_docs)]

use qsmt_core::Constraint;

/// The paper's five Table 1 workloads, in row order.
pub fn table1_generation_rows() -> Vec<(&'static str, Constraint)> {
    vec![
        (
            "Generate a palindrome with length 6",
            Constraint::Palindrome { len: 6 },
        ),
        (
            "Generate the regex a[bc]+ with length 5",
            Constraint::Regex {
                pattern: "a[bc]+".into(),
                len: 5,
            },
        ),
        (
            "Generate a string of length 6 that contains the substring 'hi' at index 2",
            Constraint::IndexOfPlacement {
                substring: "hi".into(),
                index: 2,
                len: 6,
            },
        ),
    ]
}

/// Equality constraints of growing size for the scaling bench.
pub fn sized_equality(n: usize) -> Constraint {
    let target: String = (0..n).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    Constraint::Equality { target }
}

/// Palindrome constraints of growing size for the scaling bench.
pub fn sized_palindrome(n: usize) -> Constraint {
    Constraint::Palindrome { len: n }
}

/// Substring-containment workloads for the crossover bench.
pub fn crossover_case(len: usize) -> Constraint {
    Constraint::SubstringMatch {
        substring: "zz".into(),
        len,
    }
}
