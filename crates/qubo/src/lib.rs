//! # qsmt-qubo — QUBO and Ising model substrate
//!
//! This crate provides the optimization-model substrate for the quantum
//! string SMT solver: a sparse [`QuboModel`] (Quadratic Unconstrained Binary
//! Optimization), a dense matrix view for inspection and pretty-printing in
//! the style of the paper's Table 1, the equivalent [`IsingModel`] with
//! lossless conversions in both directions, penalty-function builders, and a
//! compiled CSR adjacency form ([`CompiledQubo`]) plus the incremental
//! local-field kernels ([`FlipKernel`], [`IsingFlipKernel`], and the
//! bit-sliced 64-replica [`MultiReplicaKernel`]) that samplers use for O(1)
//! single-flip energy deltas (see `docs/PERFORMANCE.md`).
//!
//! ## Model
//!
//! A QUBO instance over binary variables `x ∈ {0,1}^n` is the energy
//!
//! ```text
//! E(x) = Σ_i q_ii·x_i  +  Σ_{i<j} q_ij·x_i·x_j  +  offset
//! ```
//!
//! Minimizing `E` over all assignments yields the model's *ground states*.
//! The string-theory encoders in `qsmt-core` construct these models so that
//! ground states decode to strings satisfying the encoded constraint.
//!
//! ## Example
//!
//! ```
//! use qsmt_qubo::QuboModel;
//!
//! // minimize  -x0 + x1 + 2·x0·x1   → ground state x = (1, 0), energy -1
//! let mut m = QuboModel::new(2);
//! m.add_linear(0, -1.0);
//! m.add_linear(1, 1.0);
//! m.add_quadratic(0, 1, 2.0);
//! assert_eq!(m.energy(&[1, 0]), -1.0);
//! assert_eq!(m.energy(&[1, 1]), 2.0);
//! ```

#![warn(missing_docs)]

mod adjacency;
mod builder;
mod dense;
mod hash;
mod ising;
mod ising_compiled;
pub mod kernel;
mod model;
pub mod multi_kernel;
mod presolve;
mod serialize;
mod stop;

pub use adjacency::CompiledQubo;
pub use builder::PenaltyBuilder;
pub use dense::DenseQubo;
pub use hash::{FxBuildHasher, FxHasher};
pub use ising::{spins_to_state, state_to_spins, IsingModel};
pub use ising_compiled::CompiledIsing;
pub use kernel::{FlipKernel, IsingFlipKernel, KernelWatermark};
pub use model::{QuboModel, Var};
pub use multi_kernel::{MultiReplicaKernel, LANES};
pub use presolve::{fix_variables, persistent_assignments, presolve, ReducedModel};
pub use serialize::{from_qbsolv, to_qbsolv, FormatError};
pub use stop::StopFlag;

/// A binary assignment: one `0`/`1` entry per variable.
///
/// Stored as bytes rather than `bool`s so samplers can use arithmetic on the
/// raw values (`1 - 2*x`) without branching.
pub type State = Vec<u8>;

/// Asserts (in debug builds) that every entry of a state is 0 or 1.
#[inline]
pub fn debug_check_state(state: &[u8]) {
    debug_assert!(
        state.iter().all(|&b| b <= 1),
        "state contains a non-binary entry"
    );
}
