//! # qsmt-telemetry — solver observability
//!
//! Dependency-free observability layer for the qsmt workspace: a span/event
//! [`Recorder`] for tracing a solve, typed per-stage statistics
//! ([`QuboShape`], [`SamplerStats`], [`CacheStats`], …) aggregated into
//! a [`SolveReport`], and a minimal [`Json`] value type so reports can be
//! written (and read back) without external crates.
//!
//! The crate is a leaf: `qsmt-qubo`, `qsmt-anneal`, `qsmt-qpu`, and
//! `qsmt-core` all depend on it and *push* their numbers in, which keeps
//! instrumentation types out of the hot-path crates' public APIs.
//!
//! Every field emitted by these types is documented in
//! `docs/OBSERVABILITY.md`.
//!
//! ```
//! use qsmt_telemetry::{Json, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _span = rec.span("compile");
//! }
//! let spans = rec.finish();
//! let doc = Json::Arr(spans.iter().map(|s| s.to_json()).collect());
//! assert!(doc.to_string().contains("\"compile\""));
//! ```

#![warn(missing_docs)]

pub mod dynamics;
pub mod json;
pub mod recorder;
pub mod report;

pub use dynamics::{
    BetaAcceptance, DynamicsStats, EssPoint, HistogramSummary, StallVerdict, SwapAcceptance,
    TimeToTarget, TracePoint,
};
pub use json::{parse, Json, JsonParseError};
pub use recorder::{Recorder, SpanGuard, SpanRecord, TraceDisplay};
pub use report::{
    AbsintStats, CacheStats, CompileStats, GoalKind, GoalReport, LintStats, PortfolioMemberStats,
    PortfolioStats, PresolveStats, QuboShape, RunReport, SamplerStats, SelectStats, SolveReport,
    StageTiming,
};
