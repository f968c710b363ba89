//! # qsmt-core — quantum-based SMT solving for the theory of strings
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Quantum-Based SMT Solving for String Theory*, HPDC'25): a solver that
//! compiles string constraints into Quadratic Unconstrained Binary
//! Optimization (QUBO) form and solves them on a (simulated) quantum
//! annealer.
//!
//! ## The twelve formulations (paper §4)
//!
//! | § | Operation | Encoder |
//! |---|---|---|
//! | 4.1 | string equality | [`ops::equality::Equality`] |
//! | 4.2 | string concatenation | [`ops::concat::Concat`] |
//! | 4.3 | substring matching | [`ops::substring::SubstringMatch`] |
//! | 4.4 | string includes | [`ops::includes::Includes`] |
//! | 4.5 | substring indexOf | [`ops::index_of::IndexOfPlacement`] |
//! | 4.6 | string length | [`ops::length::LengthUnary`] / [`ops::length::LengthWithFill`] |
//! | 4.7 | string replaceAll | [`ops::replace::Replace`] |
//! | 4.8 | string replace | [`ops::replace::Replace`] |
//! | 4.9 | string reversal | [`ops::reverse::Reverse`] |
//! | 4.10 | palindrome generation | [`ops::palindrome::Palindrome`] |
//! | 4.11 | regex matching | [`ops::regex::RegexMatch`] |
//! | 4.12 | combining constraints | [`Pipeline`] |
//!
//! All encoders share the paper's conventions: 7-bit ASCII binary
//! variables ([`encode`]), coefficient `A = 1` by default, and a
//! `7n × 7n` QUBO matrix consumed by any [`qsmt_anneal::Sampler`]
//! (including the hardware-pipeline simulator in `qsmt-qpu`).
//!
//! ## Quickstart
//!
//! ```
//! use qsmt_core::{Constraint, StringSolver};
//!
//! let solver = StringSolver::with_defaults().with_seed(1);
//! let out = solver
//!     .solve(&Constraint::Regex { pattern: "a[bc]+".into(), len: 5 })
//!     .unwrap();
//! assert!(out.valid);
//! let s = out.solution.as_text().unwrap();
//! assert!(s.starts_with('a') && s.len() == 5);
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod ops;

mod constraint;
mod error;
mod pipeline;
mod problem;
mod solver;

pub use constraint::Constraint;
pub use error::ConstraintError;
pub use ops::BiasProfile;
pub use pipeline::{Pipeline, PipelineReport, StageReport, Start, Step};
pub use problem::{DecodeScheme, EncodedProblem, Solution};
pub use qsmt_lint::{LintConfig, LintReport};
pub use solver::{
    SolveOptions, SolveOutcome, SolveTrace, StringSolver, TraceStage, COMPONENT_MAX_VARS,
    DEFAULT_READS, DEFAULT_SWEEPS,
};
