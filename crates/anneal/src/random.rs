//! Uniform random sampler — the null baseline.

use crate::{SampleSet, Sampler, SamplerDynamics, SamplerRun, SamplerRunStats};
use qsmt_qubo::QuboModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draws `num_reads` uniformly random states. Any sampler that cannot beat
/// this on a given model is not doing useful work; the sampler benches use
/// it to calibrate success-probability floors.
#[derive(Debug, Clone)]
pub struct RandomSampler {
    num_reads: usize,
    seed: u64,
}

impl Default for RandomSampler {
    fn default() -> Self {
        Self {
            num_reads: 32,
            seed: 0,
        }
    }
}

impl RandomSampler {
    /// Creates a random sampler with 32 reads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of reads.
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Sampler for RandomSampler {
    /// Draws the uniform states; no counters, no probes.
    fn run(&self, model: &QuboModel, _probes: bool) -> SamplerRun {
        let n = model.num_vars();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let reads: Vec<(Vec<u8>, f64)> = (0..self.num_reads)
            .map(|_| {
                let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
                let e = model.energy(&state);
                (state, e)
            })
            .collect();
        (
            SampleSet::from_reads(reads),
            SamplerRunStats::default(),
            SamplerDynamics::default(),
        )
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_reads() {
        let m = QuboModel::new(4);
        let set = RandomSampler::new().with_num_reads(17).sample(&m);
        assert_eq!(set.total_reads(), 17);
    }

    #[test]
    fn deterministic_for_seed() {
        let m = QuboModel::new(6);
        let a = RandomSampler::new().with_seed(8).sample(&m);
        let b = RandomSampler::new().with_seed(8).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn energies_are_correct() {
        let mut m = QuboModel::new(3);
        m.add_linear(0, 2.0);
        m.add_quadratic(1, 2, -1.0);
        let set = RandomSampler::new().with_seed(1).sample(&m);
        for s in set.iter() {
            assert_eq!(s.energy, m.energy(&s.state));
        }
    }
}
