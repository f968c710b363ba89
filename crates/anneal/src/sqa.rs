//! Path-integral Monte Carlo **simulated quantum annealing**.
//!
//! Physical quantum annealers evolve the transverse-field Ising
//! Hamiltonian `H(t) = −Γ(t)·Σ σᵢˣ + H_problem`. Via the Suzuki–Trotter
//! decomposition, the quantum system at inverse temperature β maps onto a
//! *classical* system of `P` coupled replicas ("Trotter slices"): each
//! slice carries the problem Hamiltonian at strength `1/P`, and the same
//! spin in adjacent slices is ferromagnetically coupled with
//!
//! ```text
//! J⊥(Γ) = −(P / 2β) · ln tanh(β·Γ / P)   > 0
//! ```
//!
//! Annealing Γ from strong to weak interpolates from independent
//! free spins to fully locked replicas. This is the closest classical
//! simulation of what a physical D-Wave machine actually does — one level
//! more faithful than plain simulated annealing, and the natural
//! "quantum" arm for the paper's experiments.

use crate::probes::{ProbeConfig, SamplerDynamics, SweepProbes};
use crate::{read_seed, AcceptanceTable, SampleSet, Sampler, SamplerRun, SamplerRunStats};
use qsmt_qubo::{
    spins_to_state, CompiledIsing, IsingFlipKernel, IsingModel, QuboModel, StopFlag, Var,
};
use qsmt_telemetry::dynamics::BetaAcceptance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The simulated quantum annealer (PIMC over Trotter replicas).
#[derive(Debug, Clone)]
pub struct SimulatedQuantumAnnealer {
    num_reads: usize,
    sweeps: usize,
    trotter_slices: usize,
    beta: f64,
    gamma_start: f64,
    gamma_end: f64,
    seed: u64,
    stop: Option<StopFlag>,
}

impl Default for SimulatedQuantumAnnealer {
    fn default() -> Self {
        Self {
            num_reads: 16,
            sweeps: 256,
            trotter_slices: 16,
            beta: 8.0,
            gamma_start: 3.0,
            gamma_end: 1e-3,
            seed: 0,
            stop: None,
        }
    }
}

impl SimulatedQuantumAnnealer {
    /// Creates an SQA sampler with defaults: 16 reads, 256 sweeps, 16
    /// Trotter slices, β = 8, Γ annealed 3 → 0.001.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of independent reads.
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets the sweeps per read (Γ schedule points).
    pub fn with_sweeps(mut self, s: usize) -> Self {
        assert!(s > 0, "need at least one sweep");
        self.sweeps = s;
        self
    }

    /// Sets the number of Trotter slices `P` (≥ 2). More slices = closer
    /// to the quantum partition function, linearly more work.
    pub fn with_trotter_slices(mut self, p: usize) -> Self {
        assert!(p >= 2, "Trotter decomposition needs at least two slices");
        self.trotter_slices = p;
        self
    }

    /// Sets the inverse temperature β of the quantum system.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "β must be positive");
        self.beta = beta;
        self
    }

    /// Sets the transverse-field schedule endpoints (Γ decreases linearly
    /// from `start` to `end`).
    pub fn with_gamma_range(mut self, start: f64, end: f64) -> Self {
        assert!(
            start > end && end > 0.0,
            "Γ must anneal downward through positive values"
        );
        self.gamma_start = start;
        self.gamma_end = end;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a cooperative [`StopFlag`], polled at sweep granularity:
    /// once tripped, every read stops annealing Γ and reads out its best
    /// slice immediately (see
    /// [`SimulatedAnnealer::with_stop`](crate::SimulatedAnnealer::with_stop)
    /// for the contract).
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Inter-slice coupling at transverse field `gamma`.
    fn j_perp(&self, gamma: f64) -> f64 {
        let p = self.trotter_slices as f64;
        let x = (self.beta * gamma / p).tanh();
        // tanh of a positive argument is in (0, 1): the log is negative
        // and J⊥ positive. Clamp for numeric safety at tiny Γ.
        let x = x.max(1e-300);
        -(p / (2.0 * self.beta)) * x.ln()
    }

    /// Change of the replica Hamiltonian when spin `i` of slice `k`
    /// flips, given the slices below (`down`) and above (`up`) it.
    #[inline]
    fn flip_delta(
        &self,
        replicas: &[IsingFlipKernel],
        (down, k, up): (usize, usize, usize),
        i: usize,
        j_perp: f64,
    ) -> f64 {
        let s = replicas[k].spins()[i] as f64;
        let classical = replicas[k].delta(i as Var) / self.trotter_slices as f64;
        // H contains −J⊥·s_i^k·(s_i^{k−1} + s_i^{k+1}); flipping s_i^k
        // changes that term by +2·J⊥·s_i^k·(neighbors).
        let neighbors = (replicas[down].spins()[i] + replicas[up].spins()[i]) as f64;
        let quantum = 2.0 * j_perp * s * neighbors;
        classical + quantum
    }

    /// One independent read. With `probes` it is the probe read: the
    /// same proposals, acceptance decisions and RNG draws, plus a
    /// per-sweep best-slice-energy trace and acceptance/latency
    /// observations.
    fn one_read(
        &self,
        compiled: &CompiledIsing,
        table: &AcceptanceTable,
        seed: u64,
        mut probes: Option<&mut SweepProbes>,
    ) -> (Vec<u8>, f64, u64) {
        let n = compiled.num_spins();
        let p = self.trotter_slices;
        let mut rng = SmallRng::seed_from_u64(seed);
        // replicas[k]: slice k, an incremental kernel so the classical part
        // of every proposal is O(1). Slice energies are the *full* problem
        // Hamiltonian of that slice; the 1/P Trotter weight is applied to
        // the delta at acceptance time.
        let mut replicas: Vec<IsingFlipKernel> = (0..p)
            .map(|_| {
                let spins: Vec<i8> = (0..n)
                    .map(|_| if rng.gen_bool(0.5) { 1i8 } else { -1 })
                    .collect();
                IsingFlipKernel::new(compiled, spins)
            })
            .collect();
        let lowest_slice = |replicas: &[IsingFlipKernel]| {
            replicas
                .iter()
                .map(IsingFlipKernel::energy)
                .fold(f64::INFINITY, f64::min)
        };
        let mut accepted = 0u64;
        let mut best = f64::INFINITY;
        if let Some(probe) = probes.as_deref_mut() {
            best = lowest_slice(&replicas);
            probe.start(best);
        }
        for sweep in 0..self.sweeps {
            if self.stop.as_ref().is_some_and(StopFlag::is_stopped) {
                break;
            }
            if let Some(probe) = probes.as_deref_mut() {
                probe.begin_sweep(best);
            }
            let f = sweep as f64 / (self.sweeps.max(2) - 1) as f64;
            let gamma = self.gamma_start + (self.gamma_end - self.gamma_start) * f;
            let j_perp = self.j_perp(gamma);
            for k in 0..p {
                let slices = ((k + p - 1) % p, k, (k + 1) % p);
                for i in 0..n {
                    let delta = self.flip_delta(&replicas, slices, i, j_perp);
                    if table.accept(delta, &mut rng) {
                        replicas[k].flip(compiled, i as Var);
                        accepted += 1;
                    }
                }
            }
            if let Some(probe) = probes.as_deref_mut() {
                // Best slice this sweep by (incremental) classical energy.
                best = best.min(lowest_slice(&replicas));
                probe.end_sweep(sweep, best, p * n);
            }
        }
        if let Some(probe) = probes {
            // SQA anneals Γ, not β: the whole run sits at one temperature,
            // so a single aggregate acceptance entry covers it.
            probe.beta_acceptance.push(BetaAcceptance {
                beta: table.beta(),
                proposals: self.sweeps as u64 * (p * n) as u64,
                accepted,
            });
        }
        // Read out the best slice by true classical energy (recomputed, so
        // reported energies carry no incremental drift at all).
        let (best_slice, best_energy) = replicas
            .iter()
            .map(|k| compiled.energy(k.spins()))
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
            .expect("at least two slices");
        (
            spins_to_state(replicas[best_slice].spins()),
            best_energy,
            accepted,
        )
    }
}

impl Sampler for SimulatedQuantumAnnealer {
    /// Runs every read in read order; a probed run observes read 0.
    fn run(&self, model: &QuboModel, probes: Option<&ProbeConfig>) -> SamplerRun {
        let started = Instant::now();
        let ising = IsingModel::from_qubo(model);
        let compiled = CompiledIsing::compile(&ising);
        // The classical replica system sits at a single fixed β for the
        // whole anneal (only Γ is scheduled), so one table serves the run.
        let table = AcceptanceTable::new(self.beta);
        let mut probe = probes
            .filter(|_| self.num_reads > 0)
            .map(|config| SweepProbes::new(config, self.sweeps));
        let mut accepted = 0u64;
        // Ising and QUBO energies agree (the conversion preserves them),
        // so the reported energies are already QUBO energies.
        let reads: Vec<(Vec<u8>, f64)> = (0..self.num_reads)
            .map(|r| {
                let read_probe = if r == 0 { probe.as_mut() } else { None };
                let (state, energy, read_accepted) = self.one_read(
                    &compiled,
                    &table,
                    read_seed(self.seed, r as u64),
                    read_probe,
                );
                accepted += read_accepted;
                (state, energy)
            })
            .collect();
        let dynamics = probe.map_or_else(SamplerDynamics::default, SweepProbes::finish);
        let sweeps = self.sweeps as u64;
        let stats = SamplerRunStats {
            sweeps: Some(sweeps),
            proposals: Some(
                self.num_reads as u64
                    * sweeps
                    * self.trotter_slices as u64
                    * model.num_vars() as u64,
            ),
            accepted: Some(accepted),
            elapsed_us: Some(started.elapsed().as_micros() as u64),
            replicas: None,
        };
        (SampleSet::from_reads(reads), stats, dynamics)
    }

    fn name(&self) -> &'static str {
        "simulated-quantum-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;

    fn frustrated() -> QuboModel {
        // Antiferromagnetic ring of 5 plus fields: nontrivial ground state.
        let mut m = QuboModel::new(5);
        for i in 0..5u32 {
            let j = (i + 1) % 5;
            m.add_linear(i, -1.0);
            m.add_linear(j, -1.0);
            m.add_quadratic(i, j, 2.0);
            m.add_offset(1.0);
        }
        m.add_linear(0, -0.5);
        m
    }

    #[test]
    fn finds_exact_ground_state() {
        let m = frustrated();
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let sqa = SimulatedQuantumAnnealer::new().with_seed(3);
        let set = sqa.sample(&m);
        assert!(
            (set.lowest_energy().unwrap() - ground).abs() < 1e-9,
            "SQA best {} vs exact {}",
            set.lowest_energy().unwrap(),
            ground
        );
    }

    #[test]
    fn reported_energies_are_qubo_energies() {
        let m = frustrated();
        let set = SimulatedQuantumAnnealer::new().with_seed(1).sample(&m);
        for s in set.iter() {
            assert!((m.energy(&s.state) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let m = frustrated();
        let a = SimulatedQuantumAnnealer::new().with_seed(9).sample(&m);
        let b = SimulatedQuantumAnnealer::new().with_seed(9).sample(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn untripped_stop_flag_is_bit_identical() {
        let m = frustrated();
        let plain = SimulatedQuantumAnnealer::new().with_seed(9).sample(&m);
        let flagged = SimulatedQuantumAnnealer::new()
            .with_seed(9)
            .with_stop(StopFlag::new())
            .sample(&m);
        assert_eq!(plain, flagged, "an un-tripped flag must not steer");
    }

    #[test]
    fn tripped_stop_flag_cancels_before_the_first_sweep() {
        let m = frustrated();
        let stop = StopFlag::new();
        stop.stop();
        let sqa = SimulatedQuantumAnnealer::new()
            .with_seed(2)
            .with_num_reads(4)
            .with_sweeps(100_000)
            .with_stop(stop);
        let started = Instant::now();
        let (set, stats) = sqa.sample_stats(&m);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "cancelled reads must not run the 100k-sweep budget"
        );
        assert_eq!(set.total_reads(), 4);
        assert_eq!(stats.accepted, Some(0));
    }

    #[test]
    fn j_perp_grows_as_gamma_shrinks() {
        let sqa = SimulatedQuantumAnnealer::new();
        let strong = sqa.j_perp(3.0);
        let weak = sqa.j_perp(0.01);
        assert!(strong > 0.0 && weak > 0.0);
        assert!(
            weak > strong,
            "slices must lock harder as the transverse field vanishes"
        );
    }

    #[test]
    fn more_slices_still_solve() {
        let m = frustrated();
        let (ground, _) = ExactSolver::new().ground_states(&m);
        let sqa = SimulatedQuantumAnnealer::new()
            .with_seed(5)
            .with_trotter_slices(32)
            .with_num_reads(8);
        let set = sqa.sample(&m);
        assert!((set.lowest_energy().unwrap() - ground).abs() < 1e-9);
    }

    #[test]
    fn probed_run_returns_identical_samples() {
        let m = frustrated();
        let sqa = SimulatedQuantumAnnealer::new()
            .with_seed(4)
            .with_num_reads(6);
        let plain = sqa.sample(&m);
        let (probed, stats, dynamics) = sqa.run(&m, Some(&ProbeConfig::default()));
        assert_eq!(probed, plain, "probes must not change results");
        // Trace covers the full Γ schedule and is non-increasing.
        assert_eq!(dynamics.energy_trace.last().unwrap().sweep, 256);
        assert!(dynamics
            .energy_trace
            .windows(2)
            .all(|w| w[1].best_energy <= w[0].best_energy));
        // One fixed-β acceptance entry covering all probe-read proposals.
        assert_eq!(dynamics.beta_acceptance.len(), 1);
        let entry = &dynamics.beta_acceptance[0];
        assert_eq!(entry.beta, 8.0);
        assert_eq!(entry.proposals, 256 * 16 * 5);
        assert!(entry.accepted <= entry.proposals);
        assert!(!dynamics.proposal_latency_ns.is_empty());
        assert_eq!(dynamics.sweep_improvement.len(), 256);
        assert!(stats.accepted.unwrap() >= entry.accepted);
        let (off, _, empty) = sqa.run(&m, None);
        assert_eq!(off, plain);
        assert!(empty.is_empty());
    }

    #[test]
    fn zero_model_is_handled() {
        let m = QuboModel::new(4);
        let set = SimulatedQuantumAnnealer::new().with_seed(0).sample(&m);
        assert_eq!(set.lowest_energy().unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two slices")]
    fn single_slice_rejected() {
        SimulatedQuantumAnnealer::new().with_trotter_slices(1);
    }

    #[test]
    #[should_panic(expected = "anneal downward")]
    fn inverted_gamma_range_rejected() {
        SimulatedQuantumAnnealer::new().with_gamma_range(0.1, 3.0);
    }
}
