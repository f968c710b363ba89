//! Tabu search over the QUBO landscape.

use crate::probes::{Decimator, SamplerDynamics, MAX_TRACE_POINTS};
use crate::{read_seed, SampleSet, Sampler, SamplerRun, SamplerRunStats};
use qsmt_qubo::{CompiledQubo, FlipKernel, QuboModel, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Recency-based tabu search: at each step flip the best non-tabu variable
/// (even if it worsens the energy), then forbid flipping it again for
/// `tenure` steps. An *aspiration* rule overrides the tabu status of a move
/// that would beat the best energy seen so far.
///
/// This mirrors the classical `TabuSampler` D-Wave ships next to its
/// annealer and serves as an ablation baseline in the sampler benches.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    num_reads: usize,
    steps: usize,
    tenure: Option<usize>,
    seed: u64,
}

impl Default for TabuSearch {
    fn default() -> Self {
        Self {
            num_reads: 8,
            steps: 2_000,
            tenure: None,
            seed: 0,
        }
    }
}

impl TabuSearch {
    /// Creates a tabu sampler with 8 restarts of 2000 steps each and an
    /// auto tenure of `max(4, n/4)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of restarts.
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets the number of moves per restart.
    pub fn with_steps(mut self, s: usize) -> Self {
        self.steps = s;
        self
    }

    /// Sets an explicit tabu tenure (how long a flipped variable stays
    /// forbidden).
    pub fn with_tenure(mut self, t: usize) -> Self {
        self.tenure = Some(t);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// One restart. With `probes` it is the probe read: the same move
    /// choices and RNG stream, plus an aspiration-hit counter and a
    /// decimated best-energy trace (axis = tabu steps).
    fn one_read(
        &self,
        compiled: &CompiledQubo,
        seed: u64,
        mut probes: Option<&mut TabuProbes>,
    ) -> (Vec<u8>, f64) {
        let n = compiled.num_vars();
        if n == 0 {
            return (Vec::new(), compiled.offset());
        }
        let tenure = self
            .tenure
            .unwrap_or_else(|| (n / 4).max(4))
            .min(n.saturating_sub(1));
        let mut rng = SmallRng::seed_from_u64(seed);
        let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
        // Tabu scans *every* variable's delta at *every* step, so the O(1)
        // cached delta matters even more here than for Metropolis samplers:
        // the scan drops from O(n·avg-degree) to O(n) per step.
        let mut kernel = FlipKernel::new(compiled, state);
        let mut best_state = kernel.state().to_vec();
        let mut best_energy = kernel.energy();
        if let Some(p) = probes.as_deref_mut() {
            p.trace.push(0, best_energy);
        }
        // tabu_until[i]: first step at which flipping i is allowed again
        let mut tabu_until = vec![0usize; n];
        for step in 0..self.steps {
            let energy = kernel.energy();
            let mut chosen: Option<(Var, f64)> = None;
            for (i, &until) in tabu_until.iter().enumerate() {
                let d = kernel.delta(i as Var);
                let is_tabu = until > step;
                // Aspiration: a tabu move is allowed if it strictly improves
                // on the best energy ever seen.
                if is_tabu && energy + d >= best_energy - 1e-12 {
                    continue;
                }
                match chosen {
                    Some((_, bd)) if d >= bd => {}
                    _ => chosen = Some((i as Var, d)),
                }
            }
            let i = match chosen {
                Some((i, _)) => i,
                // Everything tabu and no aspiration: force a random move to
                // keep the walk alive.
                None => rng.gen_range(0..n) as Var,
            };
            // A chosen move that was still tabu got through on the
            // aspiration criterion.
            if let Some(p) = probes.as_deref_mut() {
                if chosen.is_some() && tabu_until[i as usize] > step {
                    p.aspiration_hits += 1;
                }
            }
            kernel.flip(compiled, i);
            tabu_until[i as usize] = step + tenure + 1;
            if chosen.is_some() && kernel.energy() < best_energy {
                best_energy = kernel.energy();
                best_state.copy_from_slice(kernel.state());
            }
            if let Some(p) = probes.as_deref_mut() {
                p.trace.push(step as u64 + 1, best_energy);
            }
        }
        debug_assert!(
            (best_energy - compiled.energy(&best_state)).abs()
                < FlipKernel::drift_tolerance(compiled)
        );
        (best_state, best_energy)
    }
}

/// Probe state of one tabu probe read.
#[derive(Debug)]
struct TabuProbes {
    aspiration_hits: u64,
    trace: Decimator,
}

impl Sampler for TabuSearch {
    /// Runs every restart in read order; a probed run observes read 0.
    fn run(&self, model: &QuboModel, probes: bool) -> SamplerRun {
        let started = Instant::now();
        let compiled = CompiledQubo::compile(model);
        // An empty model returns before the walk, so it has no probe read.
        let mut probe =
            (probes && self.num_reads > 0 && compiled.num_vars() > 0).then(|| TabuProbes {
                aspiration_hits: 0,
                trace: Decimator::new(MAX_TRACE_POINTS),
            });
        let reads: Vec<(Vec<u8>, f64)> = (0..self.num_reads)
            .map(|r| {
                let read_probe = if r == 0 { probe.as_mut() } else { None };
                self.one_read(&compiled, read_seed(self.seed, r as u64), read_probe)
            })
            .collect();
        let dynamics = probe.map_or_else(SamplerDynamics::default, |p| SamplerDynamics {
            energy_trace: p.trace.finish(),
            aspiration_hits: Some(p.aspiration_hits),
            ..SamplerDynamics::default()
        });
        let n = model.num_vars() as u64;
        let (proposals, accepted) = if n == 0 {
            (0, 0)
        } else {
            // Each step scans every variable's delta and commits one flip.
            let steps = self.num_reads as u64 * self.steps as u64;
            (steps * n, steps)
        };
        let stats = SamplerRunStats {
            sweeps: Some(self.steps as u64),
            proposals: Some(proposals),
            accepted: Some(accepted),
            elapsed_us: Some(started.elapsed().as_micros() as u64),
            replicas: None,
        };
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "tabu-search"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frustrated_model() -> (QuboModel, f64) {
        // Ring of 5 antiferromagnetic couplings: can't all disagree; ground
        // energy leaves exactly one "unhappy" edge.
        let mut m = QuboModel::new(5);
        for i in 0..5u32 {
            let j = (i + 1) % 5;
            // penalty for x_i == x_j (bits_differ shape)
            m.add_linear(i, -1.0);
            m.add_linear(j, -1.0);
            m.add_quadratic(i, j, 2.0);
            m.add_offset(1.0);
        }
        let (e, _) = m.brute_force_ground_states();
        (m, e)
    }

    #[test]
    fn escapes_local_minima_on_frustrated_ring() {
        let (m, exact) = frustrated_model();
        let set = TabuSearch::new().with_seed(13).sample(&m);
        assert!((set.lowest_energy().unwrap() - exact).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let (m, _) = frustrated_model();
        let a = TabuSearch::new().with_seed(2).sample(&m);
        let b = TabuSearch::new().with_seed(2).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_model() {
        let m = QuboModel::new(0);
        let set = TabuSearch::new().sample(&m);
        assert_eq!(set.lowest_energy().unwrap(), 0.0);
    }

    #[test]
    fn single_variable() {
        let mut m = QuboModel::new(1);
        m.add_linear(0, -3.0);
        let set = TabuSearch::new().with_seed(0).sample(&m);
        assert_eq!(set.best().unwrap().state, vec![1]);
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let (m, _) = frustrated_model();
        let tabu = TabuSearch::new().with_seed(21);
        let plain = tabu.sample(&m);
        let (probed, _, dynamics) = tabu.run(&m, true);
        assert_eq!(probed, plain, "probes must not change results");
        // The counter is always present on a probed read (it may stay 0
        // on landscapes where no tabu move ever beats the best energy).
        let hits = dynamics.aspiration_hits.expect("tabu counts aspirations");
        assert!(hits <= 2_000);
        // Trace ends at the final step and is non-increasing.
        assert_eq!(dynamics.energy_trace.last().unwrap().sweep, 2_000);
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy <= w[0].best_energy));
        let (off, _, empty) = tabu.run(&m, false);
        assert_eq!(off, plain);
        assert!(empty.is_empty());
    }

    #[test]
    fn explicit_tenure_still_solves() {
        let (m, exact) = frustrated_model();
        let set = TabuSearch::new().with_tenure(2).with_seed(7).sample(&m);
        assert!((set.lowest_energy().unwrap() - exact).abs() < 1e-9);
    }
}
