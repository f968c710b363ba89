//! Annealer hardware topologies: Chimera and a Pegasus-style extension.

use crate::HardwareGraph;

/// A named hardware topology: the qubit/coupler graph a simulated QPU
/// exposes.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    graph: HardwareGraph,
}

impl Topology {
    /// The D-Wave **Chimera** C(m, n, t) topology: an `m × n` grid of unit
    /// cells, each a complete bipartite K_{t,t} between `t` "vertical" and
    /// `t` "horizontal" qubits. Vertical qubits couple to the vertical
    /// qubit with the same in-cell index in the cells above/below;
    /// horizontal qubits couple left/right.
    ///
    /// Qubit index: `((row·n + col)·2 + side)·t + k` with `side 0 =
    /// vertical`, `side 1 = horizontal`, `k ∈ 0..t`.
    ///
    /// C(16, 16, 4) is the 2048-qubit D-Wave 2000Q graph.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn chimera(m: usize, n: usize, t: usize) -> Self {
        assert!(
            m > 0 && n > 0 && t > 0,
            "chimera dimensions must be positive"
        );
        let num = m * n * 2 * t;
        let idx = |row: usize, col: usize, side: usize, k: usize| -> u32 {
            (((row * n + col) * 2 + side) * t + k) as u32
        };
        let mut g = HardwareGraph::new(num);
        for row in 0..m {
            for col in 0..n {
                // intra-cell complete bipartite
                for kv in 0..t {
                    for kh in 0..t {
                        g.add_edge(idx(row, col, 0, kv), idx(row, col, 1, kh));
                    }
                }
                // vertical inter-cell couplers
                if row + 1 < m {
                    for k in 0..t {
                        g.add_edge(idx(row, col, 0, k), idx(row + 1, col, 0, k));
                    }
                }
                // horizontal inter-cell couplers
                if col + 1 < n {
                    for k in 0..t {
                        g.add_edge(idx(row, col, 1, k), idx(row, col + 1, 1, k));
                    }
                }
            }
        }
        Self {
            name: format!("chimera-C({m},{n},{t})"),
            graph: g,
        }
    }

    /// A **Pegasus-style** topology: Chimera C(m, m, 4) augmented with the
    /// two structural features that give D-Wave's Pegasus its higher
    /// connectivity — *odd couplers* (edges between same-side qubit pairs
    /// `2j`/`2j+1` within a cell) and *diagonal inter-cell couplers*
    /// (vertical qubit `k` to the horizontal qubit `k` of the
    /// diagonally-adjacent cell).
    ///
    /// This is a structurally faithful approximation, not a
    /// coordinate-exact Pegasus P(m): it raises max degree from Chimera's
    /// 6 to 12 and shortens chains the way Pegasus does, which is what the
    /// QPU row (`BENCH_qpu.json`) measures. The exact lattice-offset
    /// construction of P(m) is out of scope and documented as such in
    /// DESIGN.md.
    pub fn pegasus_like(m: usize) -> Self {
        assert!(m > 0, "pegasus dimension must be positive");
        let t = 4usize;
        let base = Self::chimera(m, m, t);
        let mut g = base.graph;
        let idx = |row: usize, col: usize, side: usize, k: usize| -> u32 {
            (((row * m + col) * 2 + side) * t + k) as u32
        };
        for row in 0..m {
            for col in 0..m {
                // odd couplers within each side
                for side in 0..2 {
                    for j in 0..t / 2 {
                        g.add_edge(idx(row, col, side, 2 * j), idx(row, col, side, 2 * j + 1));
                    }
                }
                // diagonal inter-cell couplers (vertical k -> horizontal k)
                if row + 1 < m && col + 1 < m {
                    for k in 0..t {
                        g.add_edge(idx(row, col, 0, k), idx(row + 1, col + 1, 1, k));
                    }
                }
                if row + 1 < m && col > 0 {
                    for k in 0..t {
                        g.add_edge(idx(row, col, 0, k), idx(row + 1, col - 1, 1, k));
                    }
                }
            }
        }
        Self {
            name: format!("pegasus-like-P({m})"),
            graph: g,
        }
    }

    /// Topology name (e.g. `chimera-C(4,4,4)`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The qubit/coupler graph.
    pub fn graph(&self) -> &HardwareGraph {
        &self.graph
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of couplers.
    pub fn num_couplers(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_counts_match_formula() {
        // C(m,n,t): qubits = 2mnt; couplers = mn·t² + t·(n(m−1) + m(n−1))
        for (m, n, t) in [(1, 1, 4), (2, 2, 4), (3, 2, 2), (4, 4, 4)] {
            let c = Topology::chimera(m, n, t);
            assert_eq!(c.num_qubits(), 2 * m * n * t);
            let expected = m * n * t * t + t * (n * (m - 1) + m * (n - 1));
            assert_eq!(c.num_couplers(), expected, "C({m},{n},{t})");
        }
    }

    #[test]
    fn chimera_2000q_dimensions() {
        let c = Topology::chimera(16, 16, 4);
        assert_eq!(c.num_qubits(), 2048);
        assert_eq!(c.graph().max_degree(), 6);
    }

    #[test]
    fn chimera_cell_is_bipartite_complete() {
        let c = Topology::chimera(1, 1, 4);
        let g = c.graph();
        // vertical 0..4, horizontal 4..8
        for v in 0..4u32 {
            for h in 4..8u32 {
                assert!(g.has_edge(v, h));
            }
            for v2 in 0..4u32 {
                assert!(!g.has_edge(v, v2));
            }
        }
    }

    #[test]
    fn chimera_is_connected() {
        assert!(Topology::chimera(3, 3, 4).graph().is_connected());
    }

    #[test]
    fn pegasus_like_strictly_richer_than_chimera() {
        let c = Topology::chimera(3, 3, 4);
        let p = Topology::pegasus_like(3);
        assert_eq!(p.num_qubits(), c.num_qubits());
        assert!(p.num_couplers() > c.num_couplers());
        assert!(p.graph().max_degree() > c.graph().max_degree());
        assert!(p.graph().is_connected());
    }

    #[test]
    fn pegasus_like_has_odd_couplers() {
        let p = Topology::pegasus_like(2);
        // same-side pair (0,1) in cell (0,0), vertical side
        assert!(p.graph().has_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        Topology::chimera(0, 1, 1);
    }
}
