//! # qsmt-qpu — simulated quantum annealing hardware
//!
//! The paper (§5) states its "QUBO formulations are compatible with a real
//! quantum annealer" and defers running on one to future work. This crate
//! validates that claim in software by reproducing the full submission
//! pipeline of a physical annealer, with no quantum SDK:
//!
//! 1. **Topology** — real annealers expose a fixed, sparse hardware graph.
//!    [`Topology::chimera`] builds the exact D-Wave Chimera graph
//!    (bipartite K_{t,t} unit cells in a grid); [`Topology::pegasus_like`]
//!    builds a higher-degree Pegasus-style topology (odd couplers +
//!    diagonal inter-cell couplers on top of Chimera).
//! 2. **Minor embedding** — an arbitrary problem graph rarely matches the
//!    hardware graph, so each logical variable is mapped to a *chain* of
//!    physical qubits ([`embed`]).
//! 3. **Chains** — chain qubits are locked together with a ferromagnetic
//!    penalty whose strength comes from a [`ChainStrength`] heuristic;
//!    broken chains are repaired by a [`ChainBreakResolution`] policy.
//! 4. **Sampling** — the embedded model is solved by a classical annealer
//!    standing in for the QPU, optionally with Gaussian control noise on
//!    the embedded coefficients (real QPUs have analogous integrated
//!    control errors), then *unembedded* back to logical variables.
//! 5. **Timing** — a [`QpuTimingModel`] reports the wall-clock a physical
//!    submission would bill (programming + anneal·reads + readout).
//!
//! The end result, [`QpuSimulator`], is a drop-in [`qsmt_anneal::Sampler`]:
//! every string-constraint QUBO in this workspace can be solved either
//! directly or through the simulated hardware path, which is exactly the
//! experiment Bench S4 runs.

#![warn(missing_docs)]

mod chain;
mod embedding;
mod gauge;
mod graph;
mod simulator;
mod timing;
mod topology;

pub use chain::{ChainBreakResolution, ChainStrength};
pub use embedding::{embed, EmbedError, Embedding};
pub use gauge::{apply_gauge, gauge_state, identity_gauge, random_gauge};
pub use graph::HardwareGraph;
pub use simulator::{QpuResponse, QpuSimulator};
pub use timing::{QpuTiming, QpuTimingModel};
pub use topology::Topology;
