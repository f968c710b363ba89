//! Greedy steepest-descent local search.

use crate::probes::{Decimator, SamplerDynamics, MAX_TRACE_POINTS};
use crate::{read_seed, SampleSet, Sampler, SamplerRun, SamplerRunStats};
use qsmt_qubo::{CompiledQubo, FlipKernel, QuboModel, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Steepest descent: from a random state, repeatedly flip the variable with
/// the most negative energy delta until no flip improves. Each read lands on
/// a local minimum; with enough restarts small models are solved exactly.
#[derive(Debug, Clone)]
pub struct SteepestDescent {
    num_reads: usize,
    seed: u64,
    max_steps: usize,
}

impl Default for SteepestDescent {
    fn default() -> Self {
        Self {
            num_reads: 32,
            seed: 0,
            max_steps: 100_000,
        }
    }
}

impl SteepestDescent {
    /// Creates a descent sampler with 32 restarts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of random restarts.
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of descent steps per read (safety valve; descent on
    /// a finite landscape always terminates, this guards against
    /// pathological float behaviour).
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Descends from `state` to its local minimum, returning the minimum,
    /// its energy and the move counters: the flips taken and the full
    /// delta scans performed (a read that reaches its minimum ends with
    /// one scan that finds no improving move; a read cut off by
    /// `max_steps` does not). With `trace` it is the probe read, recording
    /// a decimated energy-after-flip trace (axis = accepted flips) along
    /// the same flip sequence (no RNG involved).
    fn descend_counted(
        compiled: &CompiledQubo,
        state: Vec<u8>,
        max_steps: usize,
        mut trace: Option<&mut Decimator>,
    ) -> (Vec<u8>, f64, u64, u64) {
        let n = compiled.num_vars();
        // The kernel makes each scan O(n) instead of O(n·avg-degree).
        let mut kernel = FlipKernel::new(compiled, state);
        let mut flips = 0u64;
        let mut scans = 0u64;
        if let Some(t) = trace.as_deref_mut() {
            t.push(0, kernel.energy());
        }
        for _ in 0..max_steps {
            let mut best_var: Option<Var> = None;
            let mut best_delta = -1e-12f64;
            for i in 0..n {
                let d = kernel.delta(i as Var);
                if d < best_delta {
                    best_delta = d;
                    best_var = Some(i as Var);
                }
            }
            scans += 1;
            match best_var {
                Some(i) => {
                    kernel.flip(compiled, i);
                    flips += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(flips, kernel.energy());
                    }
                }
                None => break,
            }
        }
        let energy = kernel.energy();
        (kernel.into_state(), energy, flips, scans)
    }
}

impl Sampler for SteepestDescent {
    /// Descends from one random state per read, in read order; a probed
    /// run traces read 0.
    fn run(&self, model: &QuboModel, probes: bool) -> SamplerRun {
        let started = Instant::now();
        let compiled = CompiledQubo::compile(model);
        let n = compiled.num_vars();
        let mut trace = probes.then(|| Decimator::new(MAX_TRACE_POINTS));
        let (mut flips, mut scans) = (0u64, 0u64);
        let reads: Vec<(Vec<u8>, f64)> = (0..self.num_reads)
            .map(|r| {
                let mut rng = SmallRng::seed_from_u64(read_seed(self.seed, r as u64));
                let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
                let read_trace = if r == 0 { trace.as_mut() } else { None };
                let (state, energy, read_flips, read_scans) =
                    Self::descend_counted(&compiled, state, self.max_steps, read_trace);
                flips += read_flips;
                scans += read_scans;
                (state, energy)
            })
            .collect();
        let dynamics = SamplerDynamics {
            energy_trace: trace.map(Decimator::finish).unwrap_or_default(),
            ..SamplerDynamics::default()
        };
        // Every scan proposes all n single-variable moves.
        let stats = SamplerRunStats {
            sweeps: None,
            proposals: Some(scans * model.num_vars() as u64),
            accepted: Some(flips),
            elapsed_us: Some(started.elapsed().as_micros() as u64),
            replicas: None,
        };
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "steepest-descent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Descends from `state` to its local minimum and its energy.
    fn descend(compiled: &CompiledQubo, state: Vec<u8>, max_steps: usize) -> (Vec<u8>, f64) {
        let (state, energy, _, _) =
            SteepestDescent::descend_counted(compiled, state, max_steps, None);
        (state, energy)
    }

    #[test]
    fn descends_to_local_minimum() {
        // E = -x0 - x1 + 2 x0 x1 has two local minima (10 and 01) at -1.
        let mut m = QuboModel::new(2);
        m.add_linear(0, -1.0);
        m.add_linear(1, -1.0);
        m.add_quadratic(0, 1, 2.0);
        let c = CompiledQubo::compile(&m);
        let (s, e) = descend(&c, vec![0, 0], 100);
        assert_eq!(e, -1.0);
        assert!(s == vec![1, 0] || s == vec![0, 1]);
    }

    #[test]
    fn local_minimum_is_fixed_point() {
        let mut m = QuboModel::new(2);
        m.add_linear(0, -1.0);
        let c = CompiledQubo::compile(&m);
        let (s, _) = descend(&c, vec![1, 0], 100);
        let (s2, _) = descend(&c, s.clone(), 100);
        assert_eq!(s, s2);
    }

    #[test]
    fn restarts_find_global_optimum_on_easy_model() {
        let mut m = QuboModel::new(5);
        for i in 0..5u32 {
            m.add_linear(i, if i % 2 == 0 { -1.0 } else { 1.0 });
        }
        let set = SteepestDescent::new().with_seed(1).sample(&m);
        assert_eq!(set.best().unwrap().state, vec![1, 0, 1, 0, 1]);
        assert_eq!(set.lowest_energy().unwrap(), -3.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let mut m = QuboModel::new(6);
        m.add_quadratic(0, 5, -1.0);
        let a = SteepestDescent::new().with_seed(4).sample(&m);
        let b = SteepestDescent::new().with_seed(4).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn capped_reads_count_only_the_scans_they_make() {
        // E = −Σxᵢ: at `max_steps = 1` each read makes exactly one scan
        // and is cut off before the closing no-improvement scan an
        // uncapped read ends with.
        let mut m = QuboModel::new(8);
        for i in 0..8u32 {
            m.add_linear(i, -1.0);
        }
        let capped = SteepestDescent::new()
            .with_seed(2)
            .with_num_reads(16)
            .with_max_steps(1);
        let (_, stats) = capped.sample_stats(&m);
        assert_eq!(stats.proposals, Some(16 * 8), "one 8-delta scan per read");
        // Uncapped, every read also makes its closing scan.
        let (_, stats) = SteepestDescent::new()
            .with_seed(2)
            .with_num_reads(16)
            .sample_stats(&m);
        let flips = stats.accepted.unwrap();
        assert_eq!(stats.proposals, Some((flips + 16) * 8));
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let mut m = QuboModel::new(6);
        for i in 0..6u32 {
            m.add_linear(i, if i % 2 == 0 { -1.0 } else { 0.5 });
        }
        m.add_quadratic(0, 5, -1.0);
        let sd = SteepestDescent::new().with_seed(8);
        let plain = sd.sample(&m);
        let (probed, stats, dynamics) = sd.run(&m, true);
        assert_eq!(probed, plain, "probes must not change results");
        // Descent is strictly monotone: every flip lowers the energy, and
        // the trace axis counts accepted flips starting from step 0.
        assert!(dynamics.energy_trace.len() >= 2);
        assert_eq!(dynamics.energy_trace.first().unwrap().sweep, 0);
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy < w[0].best_energy));
        assert!(stats.accepted.unwrap() >= dynamics.energy_trace.last().unwrap().sweep);
        let (off, _, empty) = sd.run(&m, false);
        assert_eq!(off, plain);
        assert!(empty.is_empty());
    }
}
