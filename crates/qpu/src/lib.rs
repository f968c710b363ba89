//! # qsmt-qpu — simulated quantum annealing hardware
//!
//! The paper (§5) states its "QUBO formulations are compatible with a real
//! quantum annealer" and defers running on one to future work. This crate
//! checks that claim in software by reproducing the submission pipeline of
//! a physical annealer, with no quantum SDK:
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
//!    penalty of [`qsmt_lint::chain_strength`], the value the linter's
//!    `chain-strength` pass checks; broken chains are repaired by
//!    majority vote.
//! 4. **Sampling** — the embedded model, over the chain qubits only, is
//!    solved by a classical annealer standing in for the QPU, then
//!    *unembedded* back to logical variables.
//!
//! The end result, [`QpuSimulator`], is a drop-in [`qsmt_anneal::Sampler`].
//! `cargo run --release -p qsmt-bench --bin qpu_row` submits every model
//! `qsmt solve` builds for the sat benchmark scripts onto Chimera
//! C(16,16,4) and the Pegasus-like P(16), and prints `BENCH_qpu.json`,
//! which CI regenerates and diffs.

#![warn(missing_docs)]

mod chain;
mod embedding;
mod graph;
mod simulator;
mod topology;

pub use embedding::{embed, EmbedError, Embedding};
pub use graph::HardwareGraph;
pub use simulator::{QpuResponse, QpuSimulator};
pub use topology::Topology;
