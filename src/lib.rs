//! # qsmt — Quantum-Based SMT Solving for String Theory
//!
//! A full Rust reproduction of *"Quantum-Based SMT Solving for String
//! Theory"* (HPDC'25): string constraints are compiled to Quadratic
//! Unconstrained Binary Optimization (QUBO) form and solved on a simulated
//! quantum annealer, with a simulated QPU hardware pipeline (topologies,
//! minor embedding, chains), an SMT-LIB front end, and a classical
//! baseline — all implemented from scratch, no quantum SDK.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`core`] — the paper's twelve string→QUBO encoders, the
//!   [`StringSolver`] facade, and the §4.12 [`Pipeline`];
//! * [`qubo`] — QUBO/Ising models, penalties, energy kernels;
//! * [`anneal`] — simulated and simulated-quantum annealing, parallel
//!   tempering, tabu search, population annealing, exact enumeration;
//! * [`qpu`] — Chimera/Pegasus/Zephyr-style topologies, minor embedding,
//!   chain handling, gauges, QPU timing and noise;
//! * [`lint`] — the formulation linter: static soundness analysis of
//!   compiled QUBO/Ising encodings (see `docs/LINTS.md`);
//! * [`smtlib`] — the SMT-LIB v2 string-theory front end;
//! * [`telemetry`] — solver observability: per-stage statistics and
//!   JSON run reports (see `docs/OBSERVABILITY.md`);
//! * [`metrics`] — the metrics registry and flight recorder behind
//!   live exposition (see `docs/OBSERVABILITY.md`);
//! * [`trace`] — end-to-end job tracing: hierarchical spans (which also
//!   time every report stage), a process-wide trace registry with
//!   Chrome trace-event (Perfetto) and text views, and the run-history
//!   store behind `qsmt history` (see `docs/OBSERVABILITY.md`);
//! * [`serve`] — the `qsmt serve` Prometheus endpoint and `qsmt watch`
//!   scrape client;
//! * [`redex`] — the from-scratch regex/NFA/DFA substrate;
//! * [`baseline`] — the classical comparator;
//! * [`symex`] — symbolic execution for string programs (the paper's
//!   future-work application), with path conditions discharged on the
//!   QUBO solver.
//!
//! ## Quickstart
//!
//! ```
//! use qsmt::{Constraint, StringSolver};
//!
//! let solver = StringSolver::with_defaults().with_seed(1);
//! let out = solver
//!     .solve(&Constraint::Palindrome { len: 6 })
//!     .unwrap();
//! assert!(out.valid);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod serve;

pub use qsmt_absint as absint;
pub use qsmt_anneal as anneal;
pub use qsmt_baseline as baseline;
pub use qsmt_core as core;
pub use qsmt_lint as lint;
pub use qsmt_metrics as metrics;
pub use qsmt_qpu as qpu;
pub use qsmt_qubo as qubo;
pub use qsmt_redex as redex;
pub use qsmt_smtlib as smtlib;
pub use qsmt_symex as symex;
pub use qsmt_telemetry as telemetry;
pub use qsmt_trace as trace;

pub use qsmt_anneal::{
    BetaSchedule, ExactSolver, ParallelTempering, PopulationAnnealer, RandomSampler, Sample,
    SampleSet, Sampler, SimulatedAnnealer, SimulatedQuantumAnnealer, SteepestDescent, TabuSearch,
};
pub use qsmt_core::{
    member_seed, MemberKind, PlanMember, Portfolio, PortfolioPlan, Router, RoutingFeatures,
};
pub use qsmt_core::{
    BiasProfile, Constraint, ConstraintError, Pipeline, PipelineReport, Solution, SolveOptions,
    SolveOutcome, Start, Step, StringSolver,
};
pub use qsmt_lint::{Diagnostic, LintCode, LintConfig, LintReport, Severity};
pub use qsmt_qpu::{ChainBreakResolution, ChainStrength, QpuSimulator, Topology};
pub use qsmt_qubo::{IsingModel, QuboModel, StopFlag};
pub use qsmt_smtlib::{SatStatus, Script};

/// The production portfolio configuration: the default routing table
/// plus a classical member backed by [`baseline::ClassicalSolver`]. This
/// is what `qsmt solve --portfolio` and `qsmt serve --portfolio` race
/// (see `docs/PORTFOLIO.md`).
pub fn default_portfolio() -> Portfolio {
    let classical = qsmt_baseline::ClassicalSolver::new();
    Portfolio::new().with_classical_hook(std::sync::Arc::new(move |c: &Constraint| {
        classical.solve(c).solution
    }))
}
