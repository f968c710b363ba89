//! Parallel tempering (replica exchange) sampler.

use crate::probes::{Decimator, SamplerDynamics, MAX_TRACE_POINTS};
use crate::{read_seed, AcceptanceTable, SampleSet, Sampler, SamplerRun, SamplerRunStats};
use qsmt_qubo::{CompiledQubo, MultiReplicaKernel, QuboModel, LANES};
use qsmt_telemetry::dynamics::{BetaAcceptance, SwapAcceptance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Sweeps every rung performs between two exchange passes.
const SWEEPS_PER_ROUND: usize = 4;

/// Parallel tempering: `num_replicas` Metropolis walkers run at a ladder of
/// fixed inverse temperatures; after every 4 sweeps,
/// adjacent replicas propose to swap configurations with probability
/// `min(1, exp((β_a − β_b)(E_a − E_b)))`. Hot replicas roam the landscape
/// while cold replicas refine minima, and exchanges carry good
/// configurations down the ladder — markedly better mixing than plain SA on
/// rugged landscapes.
///
/// The whole ladder lives in one bit-sliced [`MultiReplicaKernel`] — rung
/// `r` is lane `r` — so one sweep advances every rung word-at-a-time, and
/// the exchange pass swaps lanes (state bits, field columns, and energy
/// move as one coherent unit). Deterministic for a fixed seed.
#[derive(Debug, Clone)]
pub struct ParallelTempering {
    num_replicas: usize,
    rounds: usize,
    beta_min: f64,
    beta_max: f64,
    seed: u64,
}

impl Default for ParallelTempering {
    fn default() -> Self {
        Self {
            num_replicas: 8,
            rounds: 64,
            beta_min: 0.05,
            beta_max: 10.0,
            seed: 0,
        }
    }
}

impl ParallelTempering {
    /// Creates a tempering sampler with 8 replicas, 64 exchange rounds of 4
    /// sweeps each, and a geometric β ladder on [0.05, 10].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of replicas (ladder rungs). Must be ≥ 2 and at
    /// most [`LANES`] (64): the whole ladder rides in one bit-sliced
    /// kernel word.
    pub fn with_num_replicas(mut self, n: usize) -> Self {
        assert!(n >= 2, "tempering needs at least two replicas");
        assert!(
            n <= LANES,
            "tempering holds the ladder in one bit-sliced word: at most {LANES} replicas"
        );
        self.num_replicas = n;
        self
    }

    /// Sets the number of exchange rounds.
    pub fn with_rounds(mut self, r: usize) -> Self {
        self.rounds = r;
        self
    }

    /// Sets the β ladder endpoints.
    pub fn with_beta_range(mut self, beta_min: f64, beta_max: f64) -> Self {
        assert!(
            beta_min > 0.0 && beta_min < beta_max,
            "need 0 < beta_min < beta_max"
        );
        self.beta_min = beta_min;
        self.beta_max = beta_max;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn ladder(&self) -> Vec<f64> {
        let k = self.num_replicas;
        let ratio = (self.beta_max / self.beta_min).powf(1.0 / (k as f64 - 1.0));
        (0..k)
            .map(|i| self.beta_min * ratio.powi(i as i32))
            .collect()
    }
}

/// Probe state of one tempering run.
#[derive(Debug)]
struct PtProbes {
    swap_attempts: Vec<u64>,
    swap_accepts: Vec<u64>,
    trace: Decimator,
}

impl Sampler for ParallelTempering {
    /// Runs the full exchange schedule, recording the coldest replica
    /// after every round. A probed run also counts swaps per ladder pair,
    /// accepts per rung and the coldest replica's best-energy trace; the
    /// probe hooks sit outside the sweep loops and never touch an RNG
    /// stream, so the reads are identical either way.
    fn run(&self, model: &QuboModel, probes: bool) -> SamplerRun {
        let started = Instant::now();
        let compiled = CompiledQubo::compile(model);
        let n = compiled.num_vars();
        let betas = self.ladder();
        // One acceptance table per ladder rung, built once for the run.
        let tables = AcceptanceTable::for_schedule(&betas);
        let k = self.num_replicas;
        let mut probe = probes.then(|| PtProbes {
            swap_attempts: vec![0; k - 1],
            swap_accepts: vec![0; k - 1],
            trace: Decimator::new(MAX_TRACE_POINTS),
        });
        // Rung r is lane r of one bit-sliced kernel. The RNG streams and
        // accept counters are indexed by rung and never move: exchanges
        // swap lanes (configurations), so the counter in slot r always
        // counts moves judged at β_r — exactly the scalar-kernel
        // semantics, where only the kernels were swapped wholesale.
        let mut rngs: Vec<SmallRng> = (0..k)
            .map(|r| SmallRng::seed_from_u64(read_seed(self.seed, r as u64)))
            .collect();
        let states: Vec<Vec<u8>> = rngs
            .iter_mut()
            .map(|rng| (0..n).map(|_| rng.gen_range(0..=1u8)).collect())
            .collect();
        let mut kernel = MultiReplicaKernel::new(&compiled, &states);
        let mut accepted = vec![0u64; k];
        let mut swap_rng = SmallRng::seed_from_u64(self.seed.wrapping_add(0x5157_2026));
        let mut reads: Vec<(Vec<u8>, f64)> = Vec::with_capacity(self.rounds);
        let mut best = f64::INFINITY;

        for round in 0..self.rounds {
            for _ in 0..SWEEPS_PER_ROUND {
                crate::multi::sweep_ladder(
                    &mut kernel,
                    &compiled,
                    &tables,
                    &mut rngs,
                    &mut accepted,
                );
            }
            // Exchange pass: alternate even/odd adjacent pairs per round so
            // every rung participates. Swapping the lanes moves state,
            // local fields, and energy as one coherent unit.
            let start = round % 2;
            for a in (start..k - 1).step_by(2) {
                let b = a + 1;
                let log_ratio = (betas[a] - betas[b]) * (kernel.energy(a) - kernel.energy(b));
                let swapped = log_ratio >= 0.0 || swap_rng.gen::<f64>() < log_ratio.exp();
                if swapped {
                    kernel.swap_lanes(a, b);
                }
                if let Some(p) = probe.as_mut() {
                    p.swap_attempts[a] += 1;
                    p.swap_accepts[a] += u64::from(swapped);
                }
            }
            // Record the coldest replica (the last lane) each round.
            reads.push((kernel.state(k - 1), kernel.energy(k - 1)));
            if let Some(p) = probe.as_mut() {
                best = best.min(kernel.energy(k - 1));
                p.trace.push(round as u64 + 1, best);
            }
        }
        let sweeps = (self.rounds * SWEEPS_PER_ROUND) as u64;
        let per_rung = sweeps * model.num_vars() as u64;
        let stats = SamplerRunStats {
            sweeps: Some(sweeps),
            proposals: Some(per_rung * k as u64),
            accepted: Some(accepted.iter().sum()),
            elapsed_us: Some(started.elapsed().as_micros() as u64),
            replicas: Some(k as u64),
        };
        let dynamics = probe.map_or_else(SamplerDynamics::default, |p| SamplerDynamics {
            energy_trace: p.trace.finish(),
            beta_acceptance: betas
                .iter()
                .zip(&accepted)
                .map(|(&beta, &acc)| BetaAcceptance {
                    beta,
                    proposals: per_rung,
                    accepted: acc,
                })
                .collect(),
            swap_acceptance: (0..k - 1)
                .map(|a| SwapAcceptance {
                    hotter_beta: betas[a],
                    colder_beta: betas[a + 1],
                    attempts: p.swap_attempts[a],
                    accepted: p.swap_accepts[a],
                })
                .collect(),
            ..SamplerDynamics::default()
        });
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "parallel-tempering"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_well() -> (QuboModel, f64) {
        // Two competing cliques; global minimum requires crossing a barrier.
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
        // make the wells mutually exclusive
        for i in 0..4u32 {
            for j in 4..8u32 {
                m.add_quadratic(i, j, 2.0);
            }
        }
        let (e, _) = m.brute_force_ground_states();
        (m, e)
    }

    #[test]
    fn reaches_ground_state_of_double_well() {
        let (m, exact) = double_well();
        let pt = ParallelTempering::new().with_seed(3).with_rounds(128);
        let set = pt.sample(&m);
        assert!(
            (set.lowest_energy().unwrap() - exact).abs() < 1e-9,
            "PT missed ground state: {} vs {exact}",
            set.lowest_energy().unwrap()
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let (m, _) = double_well();
        let a = ParallelTempering::new().with_seed(5).sample(&m);
        let b = ParallelTempering::new().with_seed(5).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn ladder_is_geometric_and_ordered() {
        let pt = ParallelTempering::new()
            .with_num_replicas(4)
            .with_beta_range(0.1, 0.8);
        let l = pt.ladder();
        assert_eq!(l.len(), 4);
        assert!((l[0] - 0.1).abs() < 1e-12);
        assert!((l[3] - 0.8).abs() < 1e-9);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        let r1 = l[1] / l[0];
        let r2 = l[2] / l[1];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn single_replica_rejected() {
        ParallelTempering::new().with_num_replicas(1);
    }

    #[test]
    #[should_panic(expected = "at most 64 replicas")]
    fn more_than_word_width_replicas_rejected() {
        ParallelTempering::new().with_num_replicas(65);
    }

    #[test]
    fn full_word_ladder_runs_and_reports_replicas() {
        let (m, _) = double_well();
        let pt = ParallelTempering::new()
            .with_num_replicas(64)
            .with_rounds(4)
            .with_seed(2);
        let (set, stats) = pt.sample_stats(&m);
        assert_eq!(set.total_reads(), 4);
        assert_eq!(stats.replicas, Some(64));
        assert!(set.lowest_energy().unwrap().is_finite());
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let (m, _) = double_well();
        let pt = ParallelTempering::new().with_seed(9).with_rounds(64);
        let plain = pt.sample(&m);
        let (probed, stats, dynamics) = pt.run(&m, true);
        assert_eq!(probed, plain, "probes must not change results");
        // Swap matrix: one entry per adjacent ladder pair, each pair
        // attempted every other round, ordered hot → cold.
        assert_eq!(dynamics.swap_acceptance.len(), 7);
        for pair in &dynamics.swap_acceptance {
            assert!(pair.hotter_beta < pair.colder_beta);
            assert_eq!(pair.attempts, 32);
            assert!(pair.accepted <= pair.attempts);
        }
        // Per-rung acceptance covers all proposals.
        assert_eq!(dynamics.beta_acceptance.len(), 8);
        let per_rung = 64 * 4 * m.num_vars() as u64;
        assert!(dynamics
            .beta_acceptance
            .iter()
            .all(|b| b.proposals == per_rung && b.accepted <= b.proposals));
        assert_eq!(
            dynamics
                .beta_acceptance
                .iter()
                .map(|b| b.accepted)
                .sum::<u64>(),
            stats.accepted.unwrap()
        );
        // Coldest-replica trace: one axis unit per round, non-increasing.
        assert_eq!(dynamics.energy_trace.last().unwrap().sweep, 64);
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy <= w[0].best_energy));
        // Disabled path stays empty and identical.
        let (off, _, empty) = pt.run(&m, false);
        assert_eq!(off, plain);
        assert!(empty.is_empty());
    }

    #[test]
    fn incremental_energies_consistent() {
        let (m, _) = double_well();
        let set = ParallelTempering::new()
            .with_seed(1)
            .with_rounds(16)
            .sample(&m);
        for s in set.iter() {
            assert!((m.energy(&s.state) - s.energy).abs() < 1e-6);
        }
    }
}
