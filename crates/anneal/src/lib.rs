//! # qsmt-anneal — classical samplers for QUBO/Ising models
//!
//! The paper evaluates its formulations on "DWave's Simulated Annealer"
//! (§5), a classical Metropolis sampler over the QUBO energy landscape. This
//! crate is a from-scratch reimplementation of that sampler family — no
//! quantum SDK involved:
//!
//! * [`SimulatedAnnealer`] — single-flip Metropolis with geometric/linear/
//!   custom β schedules and 64-lane bit-sliced read blocks; the workhorse
//!   and the direct analog of the sampler the paper used.
//! * [`ParallelTempering`] — replica exchange across a β ladder; better
//!   mixing on rugged landscapes (used as an ablation).
//! * [`TabuSearch`] — deterministic local search with a recency tabu list,
//!   the classical baseline D-Wave ships alongside its annealer.
//! * [`SteepestDescent`] — greedy post-processing to the nearest local
//!   minimum.
//! * [`ExactSolver`] — Gray-code exhaustive enumeration; the ground-truth
//!   oracle for every encoder test in this workspace.
//! * [`RandomSampler`] — uniform states; the null baseline.
//!
//! All samplers implement [`Sampler`] and return a [`SampleSet`] sorted by
//! energy with duplicate states aggregated. Each has one sampling path,
//! [`Sampler::run`]: a plain run (`probes: None`) feeds `sample` and
//! `sample_stats`, and a probed run (`Some(&ProbeConfig)`) observes read 0
//! through the same read loop, so probes cannot drift from the samples
//! they describe.
//!
//! ```
//! use qsmt_qubo::QuboModel;
//! use qsmt_anneal::{Sampler, SimulatedAnnealer};
//!
//! // ground state 101 of E = -x0 + x1 - x2
//! let mut m = QuboModel::new(3);
//! m.add_linear(0, -1.0);
//! m.add_linear(1, 1.0);
//! m.add_linear(2, -1.0);
//! let sa = SimulatedAnnealer::new().with_seed(7).with_num_reads(8);
//! let set = sa.sample(&m);
//! assert_eq!(set.best().unwrap().state, vec![1, 0, 1]);
//! ```

#![warn(missing_docs)]

mod accept;
mod descent;
mod exact;
pub mod metrics;
pub mod multi;
mod polished;
mod population;
pub mod probes;
mod random;
mod sa;
mod sampleset;
mod schedule;
mod seeding;
mod sqa;
mod tabu;
mod tempering;
pub mod tune;

pub use accept::{AcceptanceTable, LN_ACCEPT_CUTOFF};
pub use descent::SteepestDescent;
pub use exact::ExactSolver;
pub use polished::Polished;
pub use population::PopulationAnnealer;
pub use probes::{ProbeConfig, SamplerDynamics};
pub use random::RandomSampler;
pub use sa::{SimulatedAnnealer, WARM_START_BETA_MAX, WARM_START_BETA_MIN, WARM_START_SWEEPS};
pub use sampleset::{EnergyStats, Sample, SampleSet};
pub use seeding::read_seed;

#[cfg(test)]
mod sampler_stats_tests {
    use super::*;

    #[test]
    fn default_sample_stats_matches_sample_with_empty_counters() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, -1.0);
        let exact = ExactSolver::new();
        let (set, stats) = exact.sample_stats(&m);
        assert_eq!(set, exact.sample(&m));
        assert_eq!(stats, SamplerRunStats::default());
        assert_eq!(stats.acceptance_rate(), None);
    }

    #[test]
    fn acceptance_rate_requires_nonzero_proposals() {
        let full = SamplerRunStats {
            sweeps: Some(10),
            proposals: Some(100),
            accepted: Some(25),
            elapsed_us: None,
            replicas: None,
        };
        assert_eq!(full.acceptance_rate(), Some(0.25));
        let empty = SamplerRunStats {
            sweeps: None,
            proposals: Some(0),
            accepted: Some(0),
            elapsed_us: None,
            replicas: None,
        };
        assert_eq!(empty.acceptance_rate(), None);
    }

    #[test]
    fn throughput_needs_counters_and_elapsed_time() {
        let stats = SamplerRunStats {
            sweeps: Some(10),
            proposals: Some(2_000_000),
            accepted: Some(500_000),
            elapsed_us: Some(1_000_000),
            replicas: Some(64),
        };
        assert_eq!(stats.proposals_per_sec(), Some(2_000_000.0));
        assert_eq!(stats.flips_per_sec(), Some(500_000.0));
        let untimed = SamplerRunStats {
            elapsed_us: None,
            ..stats
        };
        assert_eq!(untimed.proposals_per_sec(), None);
        let instant = SamplerRunStats {
            elapsed_us: Some(0),
            ..stats
        };
        assert_eq!(instant.flips_per_sec(), None);
    }
}
pub use qsmt_qubo::StopFlag;
pub use schedule::BetaSchedule;
pub use sqa::SimulatedQuantumAnnealer;
pub use tabu::TabuSearch;
pub use tempering::ParallelTempering;

use qsmt_qubo::QuboModel;

/// Auxiliary run counters a sampler may expose alongside its samples.
///
/// Every field is optional: samplers that don't track a counter leave it
/// `None` and the telemetry layer reports it as absent rather than zero.
/// The counters are side effects of the one [`Sampler::run`] path, so
/// [`Sampler::sample_stats`] returns the exact `SampleSet` of
/// [`Sampler::sample`] by construction, and a probed run counts the same
/// moves as a plain one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerRunStats {
    /// Sweeps performed per read, for sweep-based samplers.
    pub sweeps: Option<u64>,
    /// Total single-variable moves proposed across all reads.
    pub proposals: Option<u64>,
    /// Proposed moves that were accepted.
    pub accepted: Option<u64>,
    /// Wall-clock time the sampler spent producing the reads,
    /// microseconds, when the sampler timed itself. Feeds the
    /// proposals/flips-per-second throughput surface and the
    /// `BENCH_annealing.json` perf baseline.
    pub elapsed_us: Option<u64>,
    /// Replica lanes the sampler advances together per sweep — the width
    /// of its bit-sliced [`qsmt_qubo::MultiReplicaKernel`] batch (SA: up
    /// to 64 reads per word; PT: the ladder size). `None` for samplers
    /// that walk one configuration at a time.
    pub replicas: Option<u64>,
}

impl SamplerRunStats {
    /// `accepted / proposals`, when both counters are present and at
    /// least one move was proposed.
    pub fn acceptance_rate(&self) -> Option<f64> {
        match (self.proposals, self.accepted) {
            (Some(p), Some(a)) if p > 0 => Some(a as f64 / p as f64),
            _ => None,
        }
    }

    /// Proposal throughput in moves/second, when the sampler counted
    /// proposals and timed itself (and the clock advanced).
    pub fn proposals_per_sec(&self) -> Option<f64> {
        Self::rate(self.proposals, self.elapsed_us)
    }

    /// Accepted-flip throughput in flips/second, when the sampler counted
    /// accepts and timed itself (and the clock advanced).
    pub fn flips_per_sec(&self) -> Option<f64> {
        Self::rate(self.accepted, self.elapsed_us)
    }

    fn rate(count: Option<u64>, elapsed_us: Option<u64>) -> Option<f64> {
        match (count, elapsed_us) {
            (Some(c), Some(us)) if us > 0 => Some(c as f64 * 1e6 / us as f64),
            _ => None,
        }
    }
}

/// What one [`Sampler::run`] returns: the energy-sorted, aggregated
/// samples, the run's counters, and the probe read's dynamics (empty on
/// an un-probed run).
pub type SamplerRun = (SampleSet, SamplerRunStats, SamplerDynamics);

/// A sampler draws low-energy binary assignments from a QUBO model.
///
/// Implementations are configured at construction (reads, sweeps, seeds,
/// schedules) so they can be used as trait objects by the solver facade.
/// [`Sampler::run`] is the one sampling path every implementation
/// provides; [`Sampler::sample`] and [`Sampler::sample_stats`] are views
/// of its plain (un-probed) run.
pub trait Sampler: Send + Sync {
    /// Samples the model and returns the energy-sorted, aggregated
    /// [`SampleSet`] together with the run's counters and, when `probes`
    /// is `Some`, the trajectory observations of the probe read (read 0).
    ///
    /// Probes observe, they never steer — in particular they never touch
    /// a sampler's RNG streams — so the sample set and counters are the
    /// same whether or not `probes` is given. With `None` the dynamics
    /// are empty, as they are for samplers without probes.
    fn run(&self, model: &QuboModel, probes: Option<&ProbeConfig>) -> SamplerRun;

    /// Human-readable sampler name for reports and benches.
    fn name(&self) -> &'static str;

    /// Samples the model: the sample set of a plain [`Sampler::run`].
    fn sample(&self, model: &QuboModel) -> SampleSet {
        self.run(model, None).0
    }

    /// Samples the model with its run counters: a plain
    /// [`Sampler::run`] without the (empty) dynamics.
    fn sample_stats(&self, model: &QuboModel) -> (SampleSet, SamplerRunStats) {
        let (set, stats, _) = self.run(model, None);
        (set, stats)
    }

    /// Whether this sampler can start its reads from a caller-supplied
    /// state (reverse annealing). Gates the solve cache's shape-key warm
    /// path: callers check this capability — never the sampler's *name* —
    /// before asking for [`Sampler::warm_started`]. The default is
    /// `false`: a sampler that cannot be seeded takes the cold path, and
    /// the cache truthfully counts the lookup as a miss.
    fn supports_initial_state(&self) -> bool {
        false
    }

    /// Returns a reverse-annealing variant of **this** sampler that
    /// refines `state` instead of annealing from scratch, or `None` when
    /// the sampler cannot accept an initial state. Implementations that
    /// report `true` from [`Sampler::supports_initial_state`] must return
    /// `Some`, preserving their own configuration (reads, seed, stop
    /// flags, instrumentation) — warm starts go through the configured
    /// sampler, which is never silently swapped for a built-in one.
    fn warm_started(&self, state: Vec<u8>) -> Option<std::sync::Arc<dyn Sampler>> {
        let _ = state;
        None
    }
}
