//! Greedy post-processing wrapper: any sampler + steepest descent.
//!
//! The D-Wave stack offers "postprocessing" that pushes each raw sample
//! to its nearest local minimum before returning it. [`Polished`] makes
//! that composable: it wraps any inner [`Sampler`] and descends every
//! read, which can only lower (never raise) reported energies.

use crate::{Sampler, SamplerDynamics, SamplerRun, SamplerRunStats, SteepestDescent};
use qsmt_qubo::QuboModel;

/// A sampler decorator that greedily polishes every read of the inner
/// sampler with a default [`SteepestDescent`].
///
/// ```
/// use qsmt_anneal::{Polished, RandomSampler, Sampler};
/// use qsmt_qubo::QuboModel;
///
/// let mut m = QuboModel::new(3);
/// m.add_linear(0, -1.0);
/// m.add_linear(1, 2.0);
/// m.add_linear(2, -1.0);
/// // Even random sampling finds the ground state once polished:
/// let sampler = Polished::new(RandomSampler::new().with_seed(1));
/// let set = sampler.sample(&m);
/// assert_eq!(set.best().unwrap().state, vec![1, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Polished<S> {
    inner: S,
}

impl<S: Sampler> Polished<S> {
    /// Wraps a sampler.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped sampler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Sampler> Sampler for Polished<S> {
    /// Polishes a plain sample of the inner sampler. The wrapper reports
    /// no counters and no dynamics of its own.
    fn run(&self, model: &QuboModel, _probes: bool) -> SamplerRun {
        let raw = self.inner.sample(model);
        (
            SteepestDescent::new().polish(model, &raw),
            SamplerRunStats::default(),
            SamplerDynamics::default(),
        )
    }

    fn name(&self) -> &'static str {
        "polished"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactSolver, RandomSampler, SimulatedAnnealer};

    fn model() -> QuboModel {
        let mut m = QuboModel::new(6);
        for i in 0..6u32 {
            m.add_linear(i, if i % 2 == 0 { -1.0 } else { 0.5 });
        }
        m.add_quadratic(0, 1, -2.0);
        m.add_quadratic(2, 3, 1.0);
        m
    }

    #[test]
    fn polishing_never_raises_best_energy() {
        let m = model();
        let raw = RandomSampler::new().with_seed(3).sample(&m);
        let polished = Polished::new(RandomSampler::new().with_seed(3)).sample(&m);
        assert!(polished.lowest_energy().unwrap() <= raw.lowest_energy().unwrap());
    }

    #[test]
    fn polished_random_matches_exact_on_easy_models() {
        let m = model();
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let set = Polished::new(RandomSampler::new().with_seed(1).with_num_reads(64)).sample(&m);
        assert!((set.lowest_energy().unwrap() - ground).abs() < 1e-9);
    }

    #[test]
    fn read_counts_are_preserved() {
        let m = model();
        let set = Polished::new(RandomSampler::new().with_seed(2).with_num_reads(10)).sample(&m);
        assert_eq!(set.total_reads(), 10);
    }

    #[test]
    fn composes_with_annealer() {
        let m = model();
        let sampler = Polished::new(SimulatedAnnealer::new().with_seed(5).with_num_reads(4));
        let set = sampler.sample(&m);
        assert_eq!(sampler.name(), "polished");
        assert_eq!(sampler.inner().name(), "simulated-annealing");
        assert!(set.lowest_energy().is_some());
    }
}
