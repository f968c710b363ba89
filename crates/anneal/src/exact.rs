//! Exhaustive ground-state enumeration via Gray-code traversal.

use crate::{SampleSet, Sampler, SamplerDynamics, SamplerRun, SamplerRunStats};
use qsmt_qubo::{CompiledQubo, QuboModel, Var};

/// Exact solver: walks all `2^n` states in Gray-code order so each step is a
/// single bit flip evaluated in O(degree), for a total cost of
/// O(2^n · avg-degree) instead of O(2^n · (n + m)).
///
/// This is the ground-truth oracle used throughout the workspace to verify
/// that the paper's QUBO formulations have the intended ground states.
#[derive(Debug, Clone)]
pub struct ExactSolver {
    max_vars: usize,
    keep: usize,
}

impl Default for ExactSolver {
    fn default() -> Self {
        Self {
            max_vars: Self::DEFAULT_MAX_VARS,
            keep: 64,
        }
    }
}

impl ExactSolver {
    /// The default variable-count safety limit.
    pub const DEFAULT_MAX_VARS: usize = 26;

    /// Creates an exact solver with a [`Self::DEFAULT_MAX_VARS`]-variable
    /// safety limit, keeping the 64 lowest-energy states.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises or lowers the variable-count safety limit (hard cap 30).
    pub fn with_max_vars(mut self, n: usize) -> Self {
        assert!(
            n <= 30,
            "exact enumeration beyond 30 variables is infeasible"
        );
        self.max_vars = n;
        self
    }

    /// How many lowest-energy distinct states to retain in the result.
    pub fn with_keep(mut self, k: usize) -> Self {
        assert!(k > 0, "must keep at least one state");
        self.keep = k;
        self
    }

    /// Enumerates and returns the exact ground energy and *all* ground
    /// states (within `1e-9`), without the `keep` cap.
    pub fn ground_states(&self, model: &QuboModel) -> (f64, Vec<Vec<u8>>) {
        let mut best = f64::NAN;
        let mut states = Vec::new();
        self.walk(model, |state, energy| {
            if states.is_empty() || energy < best - 1e-9 {
                best = energy;
                states.clear();
                states.push(state.to_vec());
            } else if (energy - best).abs() <= 1e-9 {
                states.push(state.to_vec());
            }
        });
        (best, states)
    }

    /// Visits all `2^n` states of `model` with their energies, starting
    /// from all zeros, in Gray-code order: each step flips one bit and
    /// adds that flip's delta to the running energy.
    ///
    /// # Panics
    /// Panics when the model has more than `max_vars` variables.
    fn walk(&self, model: &QuboModel, mut visit: impl FnMut(&[u8], f64)) {
        let n = model.num_vars();
        assert!(
            n <= self.max_vars,
            "model has {n} variables, exact limit is {}",
            self.max_vars
        );
        let compiled = CompiledQubo::compile(model);
        let mut state = vec![0u8; n];
        let mut energy = compiled.energy(&state);
        visit(&state, energy);
        let total: u64 = 1u64 << n;
        for k in 1..total {
            // Gray code: bit to flip is the index of the lowest set bit of k.
            let bit = k.trailing_zeros() as usize;
            energy += compiled.flip_delta(&state, bit as Var);
            state[bit] ^= 1;
            visit(&state, energy);
        }
    }
}

impl Sampler for ExactSolver {
    /// Enumerates every state, keeping the `keep` lowest. Enumeration has
    /// no moves to count and no trajectory to probe.
    fn run(&self, model: &QuboModel, _probes: bool) -> SamplerRun {
        // Keep the `keep` lowest-energy states seen so far.
        let mut kept: Vec<(Vec<u8>, f64)> = Vec::new();
        let mut worst_kept = f64::NEG_INFINITY;
        self.walk(model, |state, energy| {
            if kept.len() < self.keep || energy < worst_kept {
                kept.push((state.to_vec(), energy));
                if kept.len() > self.keep * 2 {
                    // periodic compaction to bound memory
                    kept.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                    kept.truncate(self.keep);
                }
                worst_kept = kept
                    .iter()
                    .map(|(_, e)| *e)
                    .fold(f64::NEG_INFINITY, f64::max);
            }
        });
        kept.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        kept.truncate(self.keep);
        (
            SampleSet::from_reads(kept),
            SamplerRunStats::default(),
            SamplerDynamics::default(),
        )
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_naive_brute_force_on_random_models() {
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..10 {
            let mut m = QuboModel::new(8);
            for i in 0..8u32 {
                m.add_linear(i, rng.gen_range(-2.0..2.0));
            }
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    if rng.gen_bool(0.3) {
                        m.add_quadratic(i, j, rng.gen_range(-2.0..2.0));
                    }
                }
            }
            let (naive_e, naive_states) = m.brute_force_ground_states();
            let (e, states) = ExactSolver::new().ground_states(&m);
            assert!((e - naive_e).abs() < 1e-9);
            let mut a = naive_states;
            let mut b = states;
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sample_returns_sorted_lowest_first() {
        let mut m = QuboModel::new(4);
        m.add_linear(0, -1.0);
        m.add_linear(1, -0.5);
        let set = ExactSolver::new().with_keep(4).sample(&m);
        assert_eq!(set.best().unwrap().state[0], 1);
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        assert!(energies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn keep_cap_is_respected() {
        let m = QuboModel::new(6);
        let set = ExactSolver::new().with_keep(5).sample(&m);
        assert_eq!(set.len(), 5);
    }

    #[test]
    #[should_panic(expected = "exact limit")]
    fn refuses_oversized_models() {
        let m = QuboModel::new(27);
        ExactSolver::new().ground_states(&m);
    }

    #[test]
    fn single_variable_model() {
        let mut m = QuboModel::new(1);
        m.add_linear(0, 4.0);
        let (e, states) = ExactSolver::new().ground_states(&m);
        assert_eq!(e, 0.0);
        assert_eq!(states, vec![vec![0]]);
    }
}
