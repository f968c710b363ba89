//! Population annealing: sequential Monte Carlo over an annealing
//! schedule.
//!
//! A population of R replicas is cooled through the β schedule; at each
//! step every replica is **resampled** with weight `exp(−Δβ·E)` (so
//! low-energy replicas multiply and high-energy ones die out) and then
//! decorrelated with a few Metropolis sweeps at the new β. Population
//! annealing is embarrassingly parallel like independent-restart SA but
//! shares information through the resampling step, which concentrates
//! compute on promising basins — a strong classical competitor for the
//! sampler benches.

use crate::probes::{Decimator, SamplerDynamics, MAX_TRACE_POINTS};
use crate::{
    read_seed, AcceptanceTable, BetaSchedule, SampleSet, Sampler, SamplerRun, SamplerRunStats,
};
use qsmt_qubo::{CompiledQubo, FlipKernel, QuboModel, Var};
use qsmt_telemetry::dynamics::EssPoint;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Metropolis sweeps that decorrelate the population after each
/// resampling.
const SWEEPS_PER_STEP: usize = 2;

/// The population annealing sampler.
#[derive(Debug, Clone)]
pub struct PopulationAnnealer {
    population: usize,
    schedule: Option<BetaSchedule>,
    steps: usize,
    seed: u64,
}

impl Default for PopulationAnnealer {
    fn default() -> Self {
        Self {
            population: 64,
            schedule: None,
            steps: 64,
            seed: 0,
        }
    }
}

impl PopulationAnnealer {
    /// Creates a sampler with a population of 64, 64 schedule steps, and
    /// 2 equilibration sweeps per step.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the population size (number of replicas).
    pub fn with_population(mut self, r: usize) -> Self {
        assert!(r >= 2, "population annealing needs at least two replicas");
        self.population = r;
        self
    }

    /// Sets the number of β steps (used with the auto schedule).
    pub fn with_steps(mut self, s: usize) -> Self {
        assert!(s > 0, "need at least one step");
        self.steps = s;
        self
    }

    /// Uses an explicit β schedule.
    pub fn with_schedule(mut self, schedule: BetaSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn sweep(
        compiled: &CompiledQubo,
        kernel: &mut FlipKernel,
        table: &AcceptanceTable,
        rng: &mut SmallRng,
    ) -> u64 {
        let mut accepted = 0;
        for i in 0..compiled.num_vars() as Var {
            if table.accept(kernel.delta(i), rng) {
                kernel.flip(compiled, i);
                accepted += 1;
            }
        }
        accepted
    }
}

/// Probe state of one population-annealing run.
#[derive(Debug)]
struct PaProbes {
    ess: Vec<EssPoint>,
    trace: Decimator,
}

impl Sampler for PopulationAnnealer {
    /// Runs the anneal and returns the final population. A probed run
    /// also records an ESS-per-step and min-energy trace; the hooks read
    /// population state between phases and never touch an RNG stream, so
    /// reads are identical either way.
    fn run(&self, model: &QuboModel, probes: bool) -> SamplerRun {
        let started = Instant::now();
        let mut probe = probes.then(|| PaProbes {
            ess: Vec::new(),
            trace: Decimator::new(MAX_TRACE_POINTS),
        });
        let compiled = CompiledQubo::compile(model);
        let n = compiled.num_vars();
        let betas = match &self.schedule {
            Some(s) => s.realize(),
            None => BetaSchedule::auto(&compiled, self.steps).realize(),
        };
        let tables = AcceptanceTable::for_schedule(&betas);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut population: Vec<FlipKernel> = (0..self.population)
            .map(|_| {
                let state: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=1u8)).collect();
                FlipKernel::new(&compiled, state)
            })
            .collect();
        let mut accepted_total = 0u64;
        let mut prev_beta = 0.0f64;
        let mut best = f64::INFINITY;
        for (step, table) in tables.iter().enumerate() {
            let beta = table.beta();
            let dbeta = beta - prev_beta;
            prev_beta = beta;
            // Resampling: multinomial by normalized Boltzmann reweighting.
            // Cloning a kernel clones state, local fields, and energy, so
            // resampled replicas keep O(1) proposals with no rebuild.
            if dbeta > 0.0 {
                let min_e = population
                    .iter()
                    .map(FlipKernel::energy)
                    .fold(f64::INFINITY, f64::min);
                let weights: Vec<f64> = population
                    .iter()
                    .map(|k| (-dbeta * (k.energy() - min_e)).exp())
                    .collect();
                let total: f64 = weights.iter().sum();
                if let Some(p) = probe.as_mut() {
                    // Effective sample size (Σw)²/Σw²: how many replicas
                    // still carry independent weight after reweighting.
                    let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
                    if sum_sq > 0.0 {
                        p.ess.push(EssPoint {
                            step: step as u64,
                            beta,
                            ess: total * total / sum_sq,
                        });
                    }
                }
                let mut next = Vec::with_capacity(self.population);
                for _ in 0..self.population {
                    let mut pick = rng.gen::<f64>() * total;
                    let mut idx = 0;
                    for (k, w) in weights.iter().enumerate() {
                        pick -= w;
                        if pick <= 0.0 {
                            idx = k;
                            break;
                        }
                    }
                    next.push(population[idx].clone());
                }
                population = next;
            }
            // Equilibrate each replica independently.
            let seed_base = self.seed.wrapping_add(beta.to_bits().rotate_left(17));
            accepted_total += population
                .iter_mut()
                .enumerate()
                .map(|(k, kernel)| {
                    let mut r = SmallRng::seed_from_u64(read_seed(seed_base, k as u64));
                    let mut acc = 0;
                    for _ in 0..SWEEPS_PER_STEP {
                        acc += Self::sweep(&compiled, kernel, table, &mut r);
                    }
                    acc
                })
                .sum::<u64>();
            if let Some(p) = probe.as_mut() {
                let min_e = population
                    .iter()
                    .map(FlipKernel::energy)
                    .fold(f64::INFINITY, f64::min);
                best = best.min(min_e);
                p.trace.push(step as u64 + 1, best);
            }
        }
        let tolerance = FlipKernel::drift_tolerance(&compiled);
        debug_assert!(population
            .iter()
            .all(|k| (compiled.energy(k.state()) - k.energy()).abs() < tolerance));
        let reads: Vec<(Vec<u8>, f64)> = population
            .into_iter()
            .map(|k| {
                let e = k.energy();
                (k.into_state(), e)
            })
            .collect();
        let sweeps = betas.len() as u64 * SWEEPS_PER_STEP as u64;
        let stats = SamplerRunStats {
            sweeps: Some(sweeps),
            proposals: Some(sweeps * model.num_vars() as u64 * self.population as u64),
            accepted: Some(accepted_total),
            elapsed_us: Some(started.elapsed().as_micros() as u64),
            // The population walks one configuration at a time (resampling
            // clones states mid-run, which the bit-sliced kernel cannot
            // express cheaply), so no word-level replica batch to report.
            replicas: None,
        };
        let dynamics = probe.map_or_else(SamplerDynamics::default, |p| SamplerDynamics {
            energy_trace: p.trace.finish(),
            ess_trace: p.ess,
            ..SamplerDynamics::default()
        });
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "population-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;

    fn hard_model() -> QuboModel {
        // Two competing wells (from the tempering tests) — needs global
        // information flow to solve reliably.
        let mut m = QuboModel::new(8);
        for i in 0..4u32 {
            m.add_linear(i, -1.0);
            for j in (i + 1)..4 {
                m.add_quadratic(i, j, -0.5);
            }
        }
        for i in 4..8u32 {
            m.add_linear(i, -1.2);
            for j in (i + 1)..8 {
                m.add_quadratic(i, j, -0.5);
            }
        }
        for i in 0..4u32 {
            for j in 4..8u32 {
                m.add_quadratic(i, j, 2.0);
            }
        }
        m
    }

    #[test]
    fn reaches_exact_ground_state() {
        let m = hard_model();
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let pa = PopulationAnnealer::new().with_seed(2);
        let set = pa.sample(&m);
        assert!((set.lowest_energy().unwrap() - ground).abs() < 1e-9);
    }

    #[test]
    fn population_size_is_preserved() {
        let m = hard_model();
        let set = PopulationAnnealer::new()
            .with_seed(1)
            .with_population(40)
            .sample(&m);
        assert_eq!(set.total_reads(), 40);
    }

    #[test]
    fn deterministic_for_seed() {
        let m = hard_model();
        let a = PopulationAnnealer::new().with_seed(7).sample(&m);
        let b = PopulationAnnealer::new().with_seed(7).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn resampling_concentrates_low_energies() {
        // After annealing, most of the population should sit at the
        // ground energy, not just one lucky replica.
        let m = hard_model();
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let set = PopulationAnnealer::new().with_seed(3).sample(&m);
        let frac = crate::metrics::ground_state_probability(&set, ground, 1e-9);
        assert!(
            frac > 0.5,
            "resampling should concentrate the population (got {frac})"
        );
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let m = hard_model();
        let pa = PopulationAnnealer::new().with_seed(11);
        let plain = pa.sample(&m);
        let (probed, _, dynamics) = pa.run(&m, true);
        assert_eq!(probed, plain, "probes must not change results");
        // ESS recorded for every β-increasing step, bounded by the
        // population size, axis ordered.
        assert!(!dynamics.ess_trace.is_empty());
        for p in &dynamics.ess_trace {
            assert!(p.ess >= 1.0 - 1e-9 && p.ess <= 64.0 + 1e-9, "ess {}", p.ess);
        }
        assert!(dynamics.ess_trace.windows(2).all(|w| w[0].step < w[1].step));
        assert!(dynamics.ess_trace.windows(2).all(|w| w[0].beta < w[1].beta));
        // Min-energy trace ends at the final step and is non-increasing.
        assert_eq!(dynamics.energy_trace.last().unwrap().sweep, 64);
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy <= w[0].best_energy));
        let (off, _, empty) = pa.run(&m, false);
        assert_eq!(off, plain);
        assert!(empty.is_empty());
    }

    #[test]
    fn energies_are_consistent() {
        let m = hard_model();
        let set = PopulationAnnealer::new().with_seed(5).sample(&m);
        for s in set.iter() {
            assert!((m.energy(&s.state) - s.energy).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_variable_model() {
        let m = QuboModel::new(0);
        let set = PopulationAnnealer::new().with_seed(0).sample(&m);
        assert_eq!(set.lowest_energy().unwrap(), 0.0);
    }
}
