//! # qsmt-telemetry — solver observability
//!
//! Dependency-free observability layer for the qsmt workspace: typed
//! per-stage statistics ([`QuboShape`], [`SamplerStats`], [`SelectStats`],
//! …) aggregated into a [`SolveReport`], and a minimal [`Json`] value
//! type so reports can be written (and read back) without external
//! crates. Spans live in `qsmt-trace`, which also times each report
//! [`StageTiming`].
//!
//! The crate is a leaf: `qsmt-qubo`, `qsmt-anneal`, `qsmt-qpu`, and
//! `qsmt-core` all depend on it and *push* their numbers in, which keeps
//! instrumentation types out of the hot-path crates' public APIs.
//!
//! Every field emitted by these types is documented in
//! `docs/OBSERVABILITY.md`.
//!
//! ```
//! use qsmt_telemetry::{parse, Json, StageTiming};
//!
//! let stage = StageTiming {
//!     label: "compile".into(),
//!     start_us: 0,
//!     dur_us: 14,
//! };
//! let doc = parse(&stage.to_json().to_string()).unwrap();
//! assert_eq!(doc.get("dur_us").and_then(Json::as_u64), Some(14));
//! ```

#![warn(missing_docs)]

pub mod dynamics;
pub mod json;
pub mod report;

pub use dynamics::{
    BetaAcceptance, DynamicsStats, HistogramSummary, StallVerdict, TimeToTarget, TracePoint,
};
pub use json::{parse, Json, JsonParseError};
pub use report::{
    AbsintStats, CompileStats, GoalKind, GoalReport, LintStats, PresolveStats, QuboShape,
    RunReport, SamplerStats, SelectStats, SolveReport, StageTiming,
};
