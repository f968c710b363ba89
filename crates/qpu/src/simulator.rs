//! The simulated QPU: embed → chain → sample → unembed.

use crate::chain::{count_broken_chains, tie_break_rng, unembed_sample};
use crate::{
    embed, ChainBreakResolution, ChainStrength, EmbedError, Embedding, HardwareGraph, QpuTiming,
    QpuTimingModel, Topology,
};
use qsmt_anneal::{
    SampleSet, Sampler, SamplerDynamics, SamplerRun, SamplerRunStats, SimulatedAnnealer,
};
use qsmt_qubo::{QuboModel, Var};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: the structure of a logical problem graph (node count plus
/// sorted edge list). Models with identical interaction structure reuse
/// one minor embedding even when their coefficients differ.
type GraphKey = (usize, Vec<(Var, Var)>);

/// A software quantum annealer: accepts an arbitrary logical QUBO, minor-
/// embeds it onto a fixed hardware [`Topology`], locks chains with a
/// ferromagnetic penalty, solves the *embedded* model with a classical
/// annealer standing in for the physical device (optionally with Gaussian
/// control noise on the programmed coefficients), and unembeds the samples
/// back to logical variables with chain-break accounting.
///
/// This exercises the exact pipeline a real D-Wave submission would — the
/// "compatible with a real quantum annealer" claim of the paper's §5 —
/// while remaining entirely classical.
#[derive(Debug, Clone)]
pub struct QpuSimulator {
    topology: Topology,
    chain_strength: ChainStrength,
    resolution: ChainBreakResolution,
    noise_sigma: Option<f64>,
    num_reads: usize,
    sweeps: usize,
    seed: u64,
    embed_tries: usize,
    spin_reversal_transforms: usize,
    /// Embedding cache shared across clones of this simulator. Repeated
    /// submissions with the same interaction structure (pipelines,
    /// `solve_many`, parameter sweeps) skip the embedding search — the
    /// dominant cost of small submissions.
    embedding_cache: Arc<Mutex<HashMap<GraphKey, Embedding>>>,
}

impl QpuSimulator {
    /// Creates a simulator on the given topology with defaults: UTC chain
    /// strength, majority-vote resolution, 64 reads, 256 sweeps, no noise.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            chain_strength: ChainStrength::default(),
            resolution: ChainBreakResolution::MajorityVote,
            noise_sigma: None,
            num_reads: 64,
            sweeps: 256,
            seed: 0,
            embed_tries: 16,
            spin_reversal_transforms: 1,
            embedding_cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Number of embeddings currently cached.
    pub fn cached_embeddings(&self) -> usize {
        self.cache().len()
    }

    /// Locks the embedding cache, taking a poisoned lock as is: every
    /// critical section is a single `get` or `insert`.
    fn cache(&self) -> MutexGuard<'_, HashMap<GraphKey, Embedding>> {
        self.embedding_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Splits the reads across `n` random spin-reversal (gauge) transforms
    /// — the standard mitigation for systematic control biases. `n = 1`
    /// (default) uses the identity gauge only. See [`crate::apply_gauge`].
    pub fn with_spin_reversal_transforms(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one gauge");
        self.spin_reversal_transforms = n;
        self
    }

    /// Sets the chain strength heuristic.
    pub fn with_chain_strength(mut self, s: ChainStrength) -> Self {
        self.chain_strength = s;
        self
    }

    /// Sets the chain-break resolution policy.
    pub fn with_resolution(mut self, r: ChainBreakResolution) -> Self {
        self.resolution = r;
        self
    }

    /// Enables Gaussian control noise: each programmed coefficient is
    /// perturbed by `N(0, (sigma·max|coeff|)²)`, mimicking integrated
    /// control errors of physical hardware.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        self.noise_sigma = (sigma > 0.0).then_some(sigma);
        self
    }

    /// Sets the number of reads per call.
    pub fn with_num_reads(mut self, n: usize) -> Self {
        self.num_reads = n;
        self
    }

    /// Sets annealing sweeps of the internal sampler.
    pub fn with_sweeps(mut self, s: usize) -> Self {
        self.sweeps = s;
        self
    }

    /// Sets the RNG seed (embedding, annealing, noise, tie-breaking).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the embedding retry budget.
    pub fn with_embed_tries(mut self, t: usize) -> Self {
        self.embed_tries = t.max(1);
        self
    }

    /// The simulator's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Extracts the interaction graph of a logical model (nodes =
    /// variables, edges = nonzero quadratic terms).
    pub fn problem_graph(model: &QuboModel) -> HardwareGraph {
        let mut g = HardwareGraph::new(model.num_vars());
        for (i, j, _) in model.quadratic_iter() {
            g.add_edge(i, j);
        }
        g
    }

    /// Builds the embedded (physical) model for a logical model and
    /// embedding: linear terms split uniformly over chain qubits, couplings
    /// split uniformly over available inter-chain couplers, chains locked
    /// by a ferromagnetic `strength·(x_a + x_b − 2·x_a·x_b)` penalty on
    /// every intra-chain coupler.
    ///
    /// When all chains are intact, the embedded energy equals the logical
    /// energy (chain penalties contribute zero).
    pub fn embed_model(
        &self,
        logical: &QuboModel,
        embedding: &Embedding,
        strength: f64,
    ) -> QuboModel {
        let hw = self.topology.graph();
        let mut phys = QuboModel::new(hw.num_nodes());
        phys.add_offset(logical.offset());
        // Linear terms.
        for v in 0..logical.num_vars() as Var {
            let h = logical.linear(v);
            if h != 0.0 {
                let chain = embedding.chain(v);
                let share = h / chain.len() as f64;
                for &q in chain {
                    phys.add_linear(q, share);
                }
            }
        }
        // Logical couplings split across available physical couplers.
        for (u, v, q) in logical.quadratic_iter() {
            let cu = embedding.chain(u);
            let cv = embedding.chain(v);
            let mut couplers = Vec::new();
            for &a in cu {
                for &b in cv {
                    if hw.has_edge(a, b) {
                        couplers.push((a, b));
                    }
                }
            }
            debug_assert!(
                !couplers.is_empty(),
                "verified embedding must provide a coupler for every edge"
            );
            let share = q / couplers.len() as f64;
            for (a, b) in couplers {
                phys.add_quadratic(a, b, share);
            }
        }
        // Chain-locking penalties on intra-chain couplers.
        for chain in embedding.chains() {
            for &a in chain {
                for &b in chain {
                    if a < b && hw.has_edge(a, b) {
                        phys.add_linear(a, strength);
                        phys.add_linear(b, strength);
                        phys.add_quadratic(a, b, -2.0 * strength);
                        phys.add_offset(0.0);
                    }
                }
            }
        }
        phys
    }

    fn apply_noise(&self, model: &mut QuboModel, sigma: f64, seed: u64) {
        let scale = model.max_abs_coefficient();
        if scale == 0.0 {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gauss = move || -> f64 {
            // Box–Muller transform.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let sd = sigma * scale;
        for i in 0..model.num_vars() as Var {
            if model.linear(i) != 0.0 {
                model.add_linear(i, sd * gauss());
            }
        }
        let quads: Vec<(Var, Var, f64)> = model.quadratic_iter().collect();
        for (i, j, _) in quads {
            model.add_quadratic(i, j, sd * gauss());
        }
    }

    /// Submits a logical QUBO to the simulated QPU.
    ///
    /// # Errors
    /// Returns [`EmbedError`] when the problem cannot be minor-embedded in
    /// the topology within the retry budget.
    pub fn sample_qubo(&self, logical: &QuboModel) -> Result<QpuResponse, EmbedError> {
        let problem = Self::problem_graph(logical);
        let key: GraphKey = {
            let mut edges: Vec<(Var, Var)> = logical
                .quadratic_iter()
                .map(|(i, j, _)| (i.min(j), i.max(j)))
                .collect();
            edges.sort_unstable();
            (logical.num_vars(), edges)
        };
        let cached = self.cache().get(&key).cloned();
        let embedding = match cached {
            Some(e) => e,
            None => {
                let e = embed(&problem, self.topology.graph(), self.seed, self.embed_tries)?;
                self.cache().insert(key, e.clone());
                e
            }
        };
        let strength = self.chain_strength.resolve(logical);
        let physical = self.embed_model(logical, &embedding, strength);

        let chains = embedding.chains();
        let total_chains = chains.len().max(1);
        let mut tie_rng = tie_break_rng(self.seed ^ 0x7469_6573);
        let mut reads: Vec<(Vec<u8>, f64)> = Vec::new();
        let mut broken_total = 0usize;
        let mut discarded = 0usize;
        let mut reads_seen = 0usize;

        // Split reads across gauges (gauge 0 is the identity, so the
        // default single-transform configuration is a plain submission).
        let gauges = self.spin_reversal_transforms;
        let base_reads = self.num_reads / gauges;
        let remainder = self.num_reads % gauges;
        for g in 0..gauges {
            let gauge = if g == 0 {
                crate::identity_gauge(physical.num_vars())
            } else {
                crate::random_gauge(physical.num_vars(), self.seed ^ (0x6761_7567 + g as u64))
            };
            let mut programmed = if g == 0 {
                physical.clone()
            } else {
                crate::apply_gauge(&physical, &gauge)
            };
            if let Some(sigma) = self.noise_sigma {
                // Each gauge is a separate programming cycle with its own
                // control-noise realization — that independence is what
                // spin-reversal averaging exploits.
                self.apply_noise(&mut programmed, sigma, self.seed ^ 0x6e6f_6973 ^ g as u64);
            }
            let gauge_reads = base_reads + usize::from(g < remainder);
            if gauge_reads == 0 {
                continue;
            }
            let annealer = SimulatedAnnealer::new()
                .with_num_reads(gauge_reads)
                .with_sweeps(self.sweeps)
                .with_seed(self.seed.wrapping_add((g as u64) << 32));
            let physical_set = annealer.sample(&programmed);
            for sample in physical_set.iter() {
                for _ in 0..sample.occurrences {
                    reads_seen += 1;
                    // Un-gauge back to the original physical frame first.
                    let raw = crate::gauge_state(&sample.state, &gauge);
                    broken_total += count_broken_chains(&raw, chains);
                    match unembed_sample(&raw, chains, self.resolution, &mut tie_rng) {
                        Some((logical_state, _)) => {
                            let e = logical.energy(&logical_state);
                            reads.push((logical_state, e));
                        }
                        None => discarded += 1,
                    }
                }
            }
        }
        let chain_break_fraction = broken_total as f64 / (reads_seen.max(1) * total_chains) as f64;
        Ok(QpuResponse {
            samples: SampleSet::from_reads(reads),
            chain_break_fraction,
            broken_chains: broken_total as u64,
            chain_slots: (reads_seen * total_chains) as u64,
            discarded_reads: discarded,
            timing: QpuTimingModel::default().access_time(self.num_reads),
            chain_strength: strength,
            embedding,
        })
    }
}

impl Sampler for QpuSimulator {
    /// Samples through the full QPU pipeline. The simulated hardware
    /// reports no move counters and has no trajectory probes.
    ///
    /// # Panics
    /// Panics if the model cannot be embedded; use
    /// [`QpuSimulator::sample_qubo`] for fallible submission.
    fn run(&self, model: &QuboModel, _probes: bool) -> SamplerRun {
        let samples = self
            .sample_qubo(model)
            .expect("model could not be embedded in the QPU topology")
            .samples;
        (
            samples,
            SamplerRunStats::default(),
            SamplerDynamics::default(),
        )
    }

    fn name(&self) -> &'static str {
        "qpu-simulator"
    }
}

/// The result of one simulated QPU submission.
#[derive(Debug, Clone)]
pub struct QpuResponse {
    /// Unembedded logical samples with logical energies.
    pub samples: SampleSet,
    /// Broken chains per (read × chain): 0.0 = all chains intact.
    pub chain_break_fraction: f64,
    /// Raw broken-chain count behind
    /// [`QpuResponse::chain_break_fraction`] — counter-style for the
    /// metrics exporter, which prefers monotone numerators over ratios.
    pub broken_chains: u64,
    /// Total chain observations (reads × chains per read): the
    /// denominator paired with [`QpuResponse::broken_chains`].
    pub chain_slots: u64,
    /// Reads dropped by [`ChainBreakResolution::Discard`].
    pub discarded_reads: usize,
    /// Billed QPU access time.
    pub timing: QpuTiming,
    /// Resolved chain strength actually programmed.
    pub chain_strength: f64,
    /// The minor embedding used.
    pub embedding: Embedding,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-variable fully-connected logical model with a unique ground
    /// state 1010 — requires chains on Chimera.
    fn k4_model() -> (QuboModel, Vec<u8>) {
        let mut m = QuboModel::new(4);
        m.add_linear(0, -2.0);
        m.add_linear(1, 1.0);
        m.add_linear(2, -2.0);
        m.add_linear(3, 1.0);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                m.add_quadratic(i, j, 0.5);
            }
        }
        let (_, states) = m.brute_force_ground_states();
        assert_eq!(states.len(), 1);
        (m, states[0].clone())
    }

    #[test]
    fn qpu_pipeline_recovers_ground_state() {
        let (m, gs) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(3);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.samples.best().unwrap().state, gs);
        // Counter-style chain-break fields agree with the ratio.
        assert!(resp.chain_slots > 0);
        assert!(
            (resp.broken_chains as f64 / resp.chain_slots as f64 - resp.chain_break_fraction).abs()
                < 1e-12
        );
    }

    #[test]
    fn embedded_energy_matches_logical_when_chains_intact() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(1);
        let problem = QpuSimulator::problem_graph(&m);
        let emb = embed(&problem, qpu.topology().graph(), 1, 8).unwrap();
        let phys = qpu.embed_model(&m, &emb, 4.0);
        // Build a physical state from a logical one by copying chain values.
        for logical_state in [[0u8, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]] {
            let mut p = vec![0u8; phys.num_vars()];
            for (v, chain) in emb.chains().iter().enumerate() {
                for &q in chain {
                    p[q as usize] = logical_state[v];
                }
            }
            assert!(
                (phys.energy(&p) - m.energy(&logical_state)).abs() < 1e-9,
                "intact-chain energies must agree"
            );
        }
    }

    #[test]
    fn broken_chain_pays_penalty() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(1);
        let problem = QpuSimulator::problem_graph(&m);
        let emb = embed(&problem, qpu.topology().graph(), 1, 8).unwrap();
        let strength = 4.0;
        let phys = qpu.embed_model(&m, &emb, strength);
        // Find a chain of length ≥ 2 and break it.
        let (v, chain) = emb
            .chains()
            .iter()
            .enumerate()
            .find(|(_, c)| c.len() >= 2)
            .expect("K4 on Chimera must have a multi-qubit chain");
        let mut intact = vec![0u8; phys.num_vars()];
        for &q in chain {
            intact[q as usize] = 1;
        }
        let mut broken = intact.clone();
        broken[chain[0] as usize] = 0;
        let _ = v;
        assert!(
            phys.energy(&broken) > phys.energy(&intact) - 1e-9 + strength - 1e-9,
            "breaking a chain must cost at least one chain penalty"
        );
    }

    #[test]
    fn problem_graph_reflects_interactions() {
        let mut m = QuboModel::new(3);
        m.add_quadratic(0, 2, 1.0);
        let g = QpuSimulator::problem_graph(&m);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn unembeddable_model_errors() {
        let mut m = QuboModel::new(20);
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                m.add_quadratic(i, j, 1.0);
            }
        }
        // K20 cannot embed in a single Chimera cell (8 qubits).
        let qpu = QpuSimulator::new(Topology::chimera(1, 1, 4)).with_embed_tries(2);
        assert!(qpu.sample_qubo(&m).is_err());
    }

    #[test]
    fn timing_reflects_read_count() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_num_reads(10)
            .with_seed(2);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.timing.num_reads, 10);
        assert_eq!(
            resp.samples.total_reads() as usize + resp.discarded_reads,
            10
        );
    }

    #[test]
    fn noise_perturbs_but_mild_noise_keeps_ground_state() {
        let (m, gs) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_seed(5)
            .with_noise(0.01);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.samples.best().unwrap().state, gs);
    }

    #[test]
    fn discard_policy_accounts_for_reads() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_seed(7)
            .with_resolution(ChainBreakResolution::Discard)
            .with_num_reads(32);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(
            resp.samples.total_reads() as usize + resp.discarded_reads,
            32
        );
    }

    #[test]
    fn spin_reversal_transforms_preserve_read_accounting() {
        let (m, gs) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_seed(11)
            .with_num_reads(30)
            .with_spin_reversal_transforms(4); // 30 = 8+8+7+7
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(
            resp.samples.total_reads() as usize + resp.discarded_reads,
            30
        );
        assert_eq!(resp.samples.best().unwrap().state, gs);
    }

    #[test]
    fn spin_reversal_transforms_solve_under_noise() {
        let (m, gs) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_seed(13)
            .with_num_reads(64)
            .with_noise(0.02)
            .with_spin_reversal_transforms(4);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.samples.best().unwrap().state, gs);
    }

    #[test]
    #[should_panic(expected = "at least one gauge")]
    fn zero_gauges_rejected() {
        let _ = QpuSimulator::new(Topology::chimera(1, 1, 4)).with_spin_reversal_transforms(0);
    }

    #[test]
    fn embedding_cache_is_reused_across_submissions() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(1);
        assert_eq!(qpu.cached_embeddings(), 0);
        let first = qpu.sample_qubo(&m).unwrap();
        assert_eq!(qpu.cached_embeddings(), 1);
        let second = qpu.sample_qubo(&m).unwrap();
        assert_eq!(
            qpu.cached_embeddings(),
            1,
            "same structure must hit the cache"
        );
        assert_eq!(first.embedding, second.embedding);
        // A different coefficient pattern with the same structure also hits.
        let mut m2 = m;
        m2.add_linear(0, 0.25);
        qpu.sample_qubo(&m2).unwrap();
        assert_eq!(qpu.cached_embeddings(), 1);
        // A different structure misses.
        let mut m3 = QuboModel::new(4);
        m3.add_quadratic(0, 1, 1.0);
        qpu.sample_qubo(&m3).unwrap();
        assert_eq!(qpu.cached_embeddings(), 2);
    }

    #[test]
    fn deterministic_for_seed() {
        let (m, _) = k4_model();
        let mk = || {
            QpuSimulator::new(Topology::chimera(2, 2, 4))
                .with_seed(9)
                .with_noise(0.05)
                .sample_qubo(&m)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.chain_break_fraction, b.chain_break_fraction);
    }
}
