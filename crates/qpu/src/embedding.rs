//! Heuristic minor embedding (Cai–Macready–Roy).
//!
//! A QUBO's interaction graph rarely matches the sparse hardware graph, so
//! each logical variable must be represented by a *chain*: a connected set
//! of physical qubits acting as one. This module implements the standard
//! heuristic of Cai, Macready & Roy ("A practical heuristic for finding
//! graph minors", the algorithm behind D-Wave's `minorminer`): variables
//! are routed one at a time with Dijkstra fields whose node costs grow
//! exponentially with *qubit sharing*, and the whole placement is
//! iteratively ripped up and re-routed with increasing sharing penalties
//! until chains are disjoint.

use crate::HardwareGraph;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A minor embedding: `chains[v]` is the set of physical qubits
/// representing logical variable `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    chains: Vec<Vec<u32>>,
}

/// Embedding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// The hardware graph has fewer qubits than the problem has variables.
    NotEnoughQubits {
        /// Logical variable count.
        needed: usize,
        /// Physical qubit count.
        available: usize,
    },
    /// No disjoint chain placement was found within the retry budget.
    NoPlacement {
        /// A logical variable involved in the final conflict.
        var: u32,
    },
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::NotEnoughQubits { needed, available } => write!(
                f,
                "hardware has {available} qubits but the problem needs at least {needed}"
            ),
            EmbedError::NoPlacement { var } => {
                write!(f, "no chain placement found for logical variable {var}")
            }
        }
    }
}

impl std::error::Error for EmbedError {}

impl Embedding {
    /// The chain (physical qubit set) of logical variable `v`.
    pub fn chain(&self, v: u32) -> &[u32] {
        &self.chains[v as usize]
    }

    /// All chains, indexed by logical variable.
    pub fn chains(&self) -> &[Vec<u32>] {
        &self.chains
    }

    /// Number of logical variables.
    pub fn num_logical(&self) -> usize {
        self.chains.len()
    }

    /// Total physical qubits used across all chains.
    pub fn num_physical_qubits(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Length of the longest chain (0 if there are no variables).
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Verifies the embedding against the problem and hardware graphs:
    /// chains are nonempty, disjoint, connected in hardware, and every
    /// problem edge has at least one hardware coupler between its chains.
    pub fn verify(&self, problem: &HardwareGraph, hardware: &HardwareGraph) -> bool {
        if self.chains.len() != problem.num_nodes() {
            return false;
        }
        let mut owner = vec![u32::MAX; hardware.num_nodes()];
        for (v, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() || !hardware.is_connected_subset(chain) {
                return false;
            }
            for &q in chain {
                if owner[q as usize] != u32::MAX {
                    return false; // overlap
                }
                owner[q as usize] = v as u32;
            }
        }
        for u in 0..problem.num_nodes() as u32 {
            for &v in problem.neighbors(u) {
                if v < u {
                    continue;
                }
                let coupled = self.chains[u as usize].iter().any(|&qa| {
                    hardware
                        .neighbors(qa)
                        .iter()
                        .any(|&qb| owner[qb as usize] == v)
                });
                if !coupled {
                    return false;
                }
            }
        }
        true
    }
}

/// Finds a minor embedding of `problem` into `hardware`.
///
/// Deterministic for a fixed `seed`. Each of the `tries` attempts runs the
/// rip-up/re-route loop from a fresh randomized variable order; the first
/// attempt that converges to disjoint, verified chains is returned.
pub fn embed(
    problem: &HardwareGraph,
    hardware: &HardwareGraph,
    seed: u64,
    tries: usize,
) -> Result<Embedding, EmbedError> {
    let n = problem.num_nodes();
    if n > hardware.num_nodes() {
        return Err(EmbedError::NotEnoughQubits {
            needed: n,
            available: hardware.num_nodes(),
        });
    }
    if n == 0 {
        return Ok(Embedding { chains: Vec::new() });
    }
    let mut last_var = 0u32;
    for attempt in 0..tries.max(1) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(attempt as u64));
        match Router::new(problem, hardware).run(&mut rng) {
            Ok(embedding) => {
                if embedding.verify(problem, hardware) {
                    return Ok(embedding);
                }
            }
            Err(v) => last_var = v,
        }
    }
    Err(EmbedError::NoPlacement { var: last_var })
}

/// Rip-up/re-route state for one embedding attempt.
struct Router<'g> {
    problem: &'g HardwareGraph,
    hardware: &'g HardwareGraph,
    /// chains[v]: current (possibly overlapping) chain of variable v.
    chains: Vec<Vec<u32>>,
    /// usage[q]: how many chains currently contain qubit q.
    usage: Vec<u32>,
    /// Sharing penalty base; grows each improvement pass.
    alpha: f64,
    max_passes: usize,
}

impl<'g> Router<'g> {
    fn new(problem: &'g HardwareGraph, hardware: &'g HardwareGraph) -> Self {
        Self {
            problem,
            hardware,
            chains: vec![Vec::new(); problem.num_nodes()],
            usage: vec![0; hardware.num_nodes()],
            alpha: 2.0,
            max_passes: 12,
        }
    }

    /// Cost of routing *through* qubit `q` for variable `v`: exponential in
    /// the number of *other* chains already using it.
    #[inline]
    fn node_cost(&self, q: u32, v: u32) -> f64 {
        let mut shared = self.usage[q as usize];
        if self.chains[v as usize].contains(&q) {
            shared = shared.saturating_sub(1);
        }
        self.alpha.powi(shared as i32)
    }

    /// Dijkstra field from the chain of `src_var`, with per-node entry
    /// costs for variable `v`. Returns (distance, parent) arrays.
    fn field(&self, src_var: u32, v: u32) -> (Vec<f64>, Vec<u32>) {
        let n = self.hardware.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![u32::MAX; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        for &q in &self.chains[src_var as usize] {
            dist[q as usize] = 0.0;
            heap.push(Reverse((OrdF64(0.0), q)));
        }
        while let Some(Reverse((OrdF64(d), q))) = heap.pop() {
            if d > dist[q as usize] {
                continue;
            }
            for &w in self.hardware.neighbors(q) {
                let nd = d + self.node_cost(w, v);
                if nd < dist[w as usize] - 1e-15 {
                    dist[w as usize] = nd;
                    parent[w as usize] = q;
                    heap.push(Reverse((OrdF64(nd), w)));
                }
            }
        }
        (dist, parent)
    }

    /// Removes variable `v`'s chain from the usage map.
    fn rip_up(&mut self, v: u32) {
        for &q in &self.chains[v as usize] {
            self.usage[q as usize] -= 1;
        }
        self.chains[v as usize].clear();
    }

    /// Routes variable `v` given the chains of its already-placed
    /// neighbors. Returns false when no root is reachable.
    fn route(&mut self, v: u32, rng: &mut SmallRng) -> bool {
        let placed: Vec<u32> = self
            .problem
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| !self.chains[u as usize].is_empty())
            .collect();

        if placed.is_empty() {
            // Seed an isolated variable on a least-used, well-connected
            // qubit (random tie-break).
            let n = self.hardware.num_nodes();
            let offset = rand::Rng::gen_range(rng, 0..n);
            let q = (0..n)
                .map(|i| ((i + offset) % n) as u32)
                .min_by_key(|&q| (self.usage[q as usize], Reverse(self.hardware.degree(q))))
                .expect("hardware graph is nonempty");
            self.chains[v as usize] = vec![q];
            self.usage[q as usize] += 1;
            return true;
        }

        let fields: Vec<(Vec<f64>, Vec<u32>)> = placed.iter().map(|&u| self.field(u, v)).collect();

        // The root must not sit on a neighbor's chain (those are Dijkstra
        // sources at distance 0 and would alias the two variables).
        let mut forbidden = vec![false; self.hardware.num_nodes()];
        for &u in &placed {
            for &q in &self.chains[u as usize] {
                forbidden[q as usize] = true;
            }
        }

        // Root minimizing total path cost, counting the root's own entry
        // cost once rather than once per neighbor.
        let mut best: Option<(f64, u32)> = None;
        for q in 0..self.hardware.num_nodes() as u32 {
            if forbidden[q as usize] {
                continue;
            }
            let mut total = 0.0;
            let mut ok = true;
            for (dist, _) in &fields {
                let d = dist[q as usize];
                if !d.is_finite() {
                    ok = false;
                    break;
                }
                total += d;
            }
            if !ok {
                continue;
            }
            total -= (fields.len() as f64 - 1.0) * self.node_cost(q, v);
            match best {
                Some((b, _)) if b <= total => {}
                _ => best = Some((total, q)),
            }
        }
        let Some((_, root)) = best else {
            return false;
        };

        // Claim root and the parent-pointer paths back to each chain.
        let mut chain = vec![root];
        for (f_idx, &u) in placed.iter().enumerate() {
            let (_, parent) = &fields[f_idx];
            let src_chain = &self.chains[u as usize];
            let mut cur = root;
            while !src_chain.contains(&cur) {
                let p = parent[cur as usize];
                if p == u32::MAX {
                    break; // root itself is in / adjacent to the chain
                }
                if src_chain.contains(&p) {
                    break;
                }
                if !chain.contains(&p) {
                    chain.push(p);
                }
                cur = p;
            }
        }
        for &q in &chain {
            self.usage[q as usize] += 1;
        }
        self.chains[v as usize] = chain;
        true
    }

    fn has_overlap(&self) -> bool {
        self.usage.iter().any(|&u| u > 1)
    }

    fn run(mut self, rng: &mut SmallRng) -> Result<Embedding, u32> {
        let n = self.problem.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        order.sort_by_key(|&v| Reverse(self.problem.degree(v)));

        // Initial construction pass.
        for &v in &order {
            if !self.route(v, rng) {
                return Err(v);
            }
        }
        // Improvement passes with growing sharing penalty.
        for _pass in 0..self.max_passes {
            if !self.has_overlap() {
                break;
            }
            self.alpha *= 2.0;
            for &v in &order {
                self.rip_up(v);
                if !self.route(v, rng) {
                    return Err(v);
                }
            }
        }
        if self.has_overlap() {
            let v = (0..n as u32)
                .find(|&v| {
                    self.chains[v as usize]
                        .iter()
                        .any(|&q| self.usage[q as usize] > 1)
                })
                .unwrap_or(0);
            return Err(v);
        }
        // Prune: drop leaf qubits that are not needed for any adjacency
        // (cheap post-pass that shortens chains).
        self.prune();
        Ok(Embedding {
            chains: self.chains,
        })
    }

    /// Removes chain leaves that neither maintain chain connectivity
    /// requirements nor provide the only coupler to a neighbor chain.
    fn prune(&mut self) {
        let n = self.problem.num_nodes();
        let mut owner = vec![u32::MAX; self.hardware.num_nodes()];
        for (v, chain) in self.chains.iter().enumerate() {
            for &q in chain {
                owner[q as usize] = v as u32;
            }
        }
        for v in 0..n as u32 {
            loop {
                let chain = self.chains[v as usize].clone();
                if chain.len() <= 1 {
                    break;
                }
                let mut removed = false;
                for (idx, &q) in chain.iter().enumerate() {
                    let mut candidate = chain.clone();
                    candidate.swap_remove(idx);
                    if !self.hardware.is_connected_subset(&candidate) {
                        continue;
                    }
                    // Must still couple to every placed problem neighbor.
                    let still_coupled = self.problem.neighbors(v).iter().all(|&u| {
                        candidate.iter().any(|&qa| {
                            self.hardware
                                .neighbors(qa)
                                .iter()
                                .any(|&qb| owner[qb as usize] == u)
                        })
                    });
                    if still_coupled {
                        owner[q as usize] = u32::MAX;
                        self.usage[q as usize] -= 1;
                        self.chains[v as usize] = candidate;
                        removed = true;
                        break;
                    }
                }
                if !removed {
                    break;
                }
            }
        }
    }
}

/// Total-order wrapper for finite f64 keys in the Dijkstra heap.
#[derive(PartialEq, PartialOrd)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("Dijkstra keys are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn complete_graph(n: usize) -> HardwareGraph {
        let mut g = HardwareGraph::new(n);
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                g.add_edge(a, b);
            }
        }
        g
    }

    #[test]
    fn identity_embedding_on_matching_topology() {
        // Embedding a K4 into a K4: every chain should be a single qubit.
        let problem = complete_graph(4);
        let hw = complete_graph(4);
        let e = embed(&problem, &hw, 0, 4).unwrap();
        assert!(e.verify(&problem, &hw));
        assert_eq!(e.max_chain_length(), 1);
        assert_eq!(e.num_physical_qubits(), 4);
    }

    #[test]
    fn k4_embeds_into_one_chimera_cell() {
        // The canonical result: K4 minor-embeds in a single K(4,4) cell
        // with chains of length 2.
        let problem = complete_graph(4);
        let hw = Topology::chimera(1, 1, 4);
        let e = embed(&problem, hw.graph(), 1, 16).unwrap();
        assert!(e.verify(&problem, hw.graph()));
        assert!(e.max_chain_length() <= 2);
    }

    #[test]
    fn k8_requires_chains_on_chimera() {
        let problem = complete_graph(8);
        let hw = Topology::chimera(4, 4, 4);
        let e = embed(&problem, hw.graph(), 3, 32).unwrap();
        assert!(e.verify(&problem, hw.graph()));
        assert!(e.max_chain_length() >= 2, "K8 cannot embed 1:1 in Chimera");
    }

    #[test]
    fn pegasus_like_embeds_k8_compactly() {
        let problem = complete_graph(8);
        let pe = Topology::pegasus_like(4);
        let ep = embed(&problem, pe.graph(), 5, 32).unwrap();
        assert!(ep.verify(&problem, pe.graph()));
    }

    #[test]
    fn too_many_variables_fails_fast() {
        let problem = complete_graph(10);
        let hw = complete_graph(4);
        assert_eq!(
            embed(&problem, &hw, 0, 1),
            Err(EmbedError::NotEnoughQubits {
                needed: 10,
                available: 4
            })
        );
    }

    #[test]
    fn empty_problem_embeds_trivially() {
        let problem = HardwareGraph::new(0);
        let hw = complete_graph(3);
        let e = embed(&problem, &hw, 0, 1).unwrap();
        assert_eq!(e.num_logical(), 0);
    }

    #[test]
    fn isolated_variables_get_singleton_chains() {
        let problem = HardwareGraph::new(3); // no edges
        let hw = Topology::chimera(2, 2, 4);
        let e = embed(&problem, hw.graph(), 7, 4).unwrap();
        assert!(e.verify(&problem, hw.graph()));
        assert_eq!(e.max_chain_length(), 1);
    }

    #[test]
    fn deterministic_for_seed() {
        let problem = complete_graph(6);
        let hw = Topology::chimera(3, 3, 4);
        let a = embed(&problem, hw.graph(), 11, 8).unwrap();
        let b = embed(&problem, hw.graph(), 11, 8).unwrap();
        assert_eq!(a.chains(), b.chains());
    }

    #[test]
    fn path_problem_embeds_in_path_hardware() {
        let problem = HardwareGraph::from_edges(3, [(0, 1), (1, 2)]);
        let hw = HardwareGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let e = embed(&problem, &hw, 2, 8).unwrap();
        assert!(e.verify(&problem, &hw));
    }

    #[test]
    fn infeasible_problem_reports_no_placement() {
        // K3 cannot minor-embed into a path of 3 nodes... actually it can
        // (contract an edge), so use a star problem vs disconnected target.
        let problem = HardwareGraph::from_edges(2, [(0, 1)]);
        let hw = HardwareGraph::new(2); // no couplers at all
        let r = embed(&problem, &hw, 0, 3);
        assert!(matches!(r, Err(EmbedError::NoPlacement { .. })));
    }

    #[test]
    fn verify_rejects_overlapping_chains() {
        let problem = complete_graph(2);
        let hw = complete_graph(2);
        let bad = Embedding {
            chains: vec![vec![0], vec![0]],
        };
        assert!(!bad.verify(&problem, &hw));
    }

    #[test]
    fn verify_rejects_disconnected_chain() {
        let problem = HardwareGraph::from_edges(2, [(0, 1)]);
        let hw = HardwareGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let bad = Embedding {
            chains: vec![vec![0, 2], vec![1]],
        };
        assert!(!bad.verify(&problem, &hw));
    }

    #[test]
    fn verify_rejects_missing_coupler() {
        let problem = HardwareGraph::from_edges(2, [(0, 1)]);
        let hw = HardwareGraph::from_edges(4, [(0, 1), (2, 3)]);
        let bad = Embedding {
            chains: vec![vec![0], vec![2]],
        };
        assert!(!bad.verify(&problem, &hw));
    }

    #[test]
    fn prune_keeps_embedding_valid() {
        // A denser problem where pruning has material to work on.
        let problem = complete_graph(5);
        let hw = Topology::chimera(3, 3, 4);
        let e = embed(&problem, hw.graph(), 23, 16).unwrap();
        assert!(e.verify(&problem, hw.graph()));
        // Chains should be reasonably short after pruning.
        assert!(e.max_chain_length() <= 6);
    }
}
