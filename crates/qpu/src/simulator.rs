//! The simulated QPU: embed → chain → sample → unembed.

use crate::chain::unembed_sample;
use crate::{embed, EmbedError, Embedding, HardwareGraph, Topology};
use qsmt_anneal::{
    SampleSet, Sampler, SamplerDynamics, SamplerRun, SamplerRunStats, SimulatedAnnealer,
};
use qsmt_qubo::{QuboModel, Var};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Embedding attempts per submission, each from a fresh randomized
/// variable order (see [`embed`]).
const EMBED_TRIES: usize = 16;

/// A software quantum annealer: accepts an arbitrary logical QUBO, minor-
/// embeds it onto a fixed hardware [`Topology`], locks chains with a
/// ferromagnetic penalty, solves the *embedded* model with a classical
/// annealer standing in for the physical device, and unembeds the samples
/// back to logical variables with chain-break accounting.
///
/// This exercises the pipeline a real D-Wave submission would — the
/// "compatible with a real quantum annealer" claim of the paper's §5 —
/// while remaining entirely classical.
#[derive(Debug, Clone)]
pub struct QpuSimulator {
    topology: Topology,
    num_reads: usize,
    sweeps: usize,
    seed: u64,
}

impl QpuSimulator {
    /// Creates a simulator on the given topology with defaults: 64 reads,
    /// 256 sweeps, seed 0.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            num_reads: 64,
            sweeps: 256,
            seed: 0,
        }
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

    /// Sets the RNG seed (embedding, annealing, tie-breaking).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
    /// The model spans only the chain qubits, in chain order: variable 0
    /// is the first qubit of chain 0, and chain `v` occupies the
    /// [`Embedding::chain`]`(v).len()` variables after those of chains
    /// `0..v`. Hardware qubits no chain uses are left out, so the annealer
    /// sweeps only what the embedding occupies.
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
        let mut index = vec![Var::MAX; hw.num_nodes()];
        for (i, &q) in embedding.chains().iter().flatten().enumerate() {
            index[q as usize] = i as Var;
        }
        let var = |q: u32| index[q as usize];
        let mut phys = QuboModel::new(embedding.num_physical_qubits());
        phys.add_offset(logical.offset());
        // Linear terms.
        for v in 0..logical.num_vars() as Var {
            let h = logical.linear(v);
            if h != 0.0 {
                let chain = embedding.chain(v);
                let share = h / chain.len() as f64;
                for &q in chain {
                    phys.add_linear(var(q), share);
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
                phys.add_quadratic(var(a), var(b), share);
            }
        }
        // Chain-locking penalties on intra-chain couplers.
        for chain in embedding.chains() {
            for &a in chain {
                for &b in chain {
                    if a < b && hw.has_edge(a, b) {
                        phys.add_linear(var(a), strength);
                        phys.add_linear(var(b), strength);
                        phys.add_quadratic(var(a), var(b), -2.0 * strength);
                    }
                }
            }
        }
        phys
    }

    /// Submits a logical QUBO to the simulated QPU.
    ///
    /// # Errors
    /// Returns [`EmbedError`] when the problem cannot be minor-embedded in
    /// the topology within the retry budget.
    pub fn sample_qubo(&self, logical: &QuboModel) -> Result<QpuResponse, EmbedError> {
        let problem = Self::problem_graph(logical);
        let embedding = embed(&problem, self.topology.graph(), self.seed, EMBED_TRIES)?;
        let strength = qsmt_lint::chain_strength(logical);
        let physical = self.embed_model(logical, &embedding, strength);
        let physical_set = SimulatedAnnealer::new()
            .with_num_reads(self.num_reads)
            .with_sweeps(self.sweeps)
            .with_seed(self.seed)
            .sample(&physical);

        let chain_lens = || embedding.chains().iter().map(Vec::len);
        let mut tie_rng = SmallRng::seed_from_u64(self.seed ^ 0x7469_6573);
        let mut reads: Vec<(Vec<u8>, f64)> = Vec::with_capacity(self.num_reads);
        let mut broken = 0usize;
        for sample in physical_set.iter() {
            for _ in 0..sample.occurrences {
                let (state, chains_broken) =
                    unembed_sample(&sample.state, chain_lens(), &mut tie_rng);
                broken += chains_broken;
                let energy = logical.energy(&state);
                reads.push((state, energy));
            }
        }
        let chain_slots = (reads.len() * embedding.num_logical()).max(1);
        Ok(QpuResponse {
            samples: SampleSet::from_reads(reads),
            chain_break_fraction: broken as f64 / chain_slots as f64,
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
    /// Chain strength programmed ([`qsmt_lint::chain_strength`]).
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

    /// The physical state of [`QpuSimulator::embed_model`]'s layout in
    /// which every chain holds its variable's logical value.
    fn intact(emb: &Embedding, logical: &[u8]) -> Vec<u8> {
        emb.chains()
            .iter()
            .zip(logical)
            .flat_map(|(chain, &bit)| vec![bit; chain.len()])
            .collect()
    }

    #[test]
    fn qpu_pipeline_recovers_ground_state() {
        let (m, gs) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(3);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.samples.best().unwrap().state, gs);
        assert!((0.0..=1.0).contains(&resp.chain_break_fraction));
    }

    #[test]
    fn embedded_energy_matches_logical_when_chains_intact() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4)).with_seed(1);
        let problem = QpuSimulator::problem_graph(&m);
        let emb = embed(&problem, qpu.topology().graph(), 1, 8).unwrap();
        let phys = qpu.embed_model(&m, &emb, 4.0);
        // Only the chain qubits are annealed, not the 32 of C(2,2,4).
        assert_eq!(phys.num_vars(), emb.num_physical_qubits());
        for logical_state in [[0u8, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]] {
            assert!(
                (phys.energy(&intact(&emb, &logical_state)) - m.energy(&logical_state)).abs()
                    < 1e-9,
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
        let v = emb
            .chains()
            .iter()
            .position(|c| c.len() >= 2)
            .expect("K4 on Chimera must have a multi-qubit chain");
        let mut logical = [0u8; 4];
        logical[v] = 1;
        let intact = intact(&emb, &logical);
        let first_of_chain: usize = emb.chains()[..v].iter().map(Vec::len).sum();
        let mut broken = intact.clone();
        broken[first_of_chain] = 0;
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
        let qpu = QpuSimulator::new(Topology::chimera(1, 1, 4));
        assert!(qpu.sample_qubo(&m).is_err());
    }

    #[test]
    fn every_read_is_unembedded() {
        let (m, _) = k4_model();
        let qpu = QpuSimulator::new(Topology::chimera(2, 2, 4))
            .with_num_reads(10)
            .with_seed(2);
        let resp = qpu.sample_qubo(&m).unwrap();
        assert_eq!(resp.samples.total_reads(), 10);
    }

    #[test]
    fn deterministic_for_seed() {
        let (m, _) = k4_model();
        let mk = || {
            QpuSimulator::new(Topology::chimera(2, 2, 4))
                .with_seed(9)
                .sample_qubo(&m)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.chain_break_fraction, b.chain_break_fraction);
        assert_eq!(a.embedding, b.embedding);
    }
}
