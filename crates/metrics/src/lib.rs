//! Dependency-free live metrics for the qsmt solver stack.
//!
//! This crate provides three building blocks used by the `qsmt serve`
//! endpoint and the `qsmt` CLI's flight recording:
//!
//! * [`Registry`] — a mutex-guarded metrics registry holding counters,
//!   gauges and log-bucketed histograms. `qsmt serve` is its only
//!   writer: it derives the solve series from each job's run report
//!   after the job, so no solver hot path touches the registry.
//! * Prometheus text-format exposition via [`Registry::render_prometheus`],
//!   suitable for serving on a `/metrics` endpoint.
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of timestamped events
//!   that can be dumped to JSON after a solve failure or on demand from
//!   `qsmt watch`.
//!
//! The crate depends only on `qsmt-telemetry` (for its JSON value type) and
//! the standard library, matching the workspace's offline-build constraint.

#![warn(missing_docs)]

pub mod flight;
pub mod registry;

pub use flight::{FlightEvent, FlightRecorder};
pub use registry::{MetricKey, MetricKind, Registry};

use std::sync::OnceLock;

/// Process-wide metrics registry rendered by `qsmt serve`'s `/metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Process-wide flight recorder (1024 most recent events).
pub fn global_flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(1024))
}
