//! Undirected hardware graph with adjacency queries.

/// An undirected simple graph over nodes `0..num_nodes`, stored as sorted
/// adjacency lists. Used both for hardware topologies (qubits/couplers) and
/// for logical problem graphs during embedding.
#[derive(Debug, Clone)]
pub struct HardwareGraph {
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl HardwareGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list; duplicate edges and self-loops are
    /// ignored.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = Self::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Adds the undirected edge `(a, b)`. Self-loops and duplicates are
    /// no-ops.
    ///
    /// # Panics
    /// Panics if a node index is out of range.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        assert!(
            (a as usize) < self.adj.len() && (b as usize) < self.adj.len(),
            "edge ({a}, {b}) out of range for {} nodes",
            self.adj.len()
        );
        if a == b || self.has_edge(a, b) {
            return;
        }
        let (ai, bi) = (a as usize, b as usize);
        let pos_a = self.adj[ai].binary_search(&b).unwrap_err();
        self.adj[ai].insert(pos_a, b);
        let pos_b = self.adj[bi].binary_search(&a).unwrap_err();
        self.adj[bi].insert(pos_b, a);
        self.num_edges += 1;
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True when the edge `(a, b)` exists.
    #[inline]
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj
            .get(a as usize)
            .is_some_and(|n| n.binary_search(&b).is_ok())
    }

    /// Sorted neighbor list of node `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Mean node degree (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// True when the graph is connected (vacuously true for ≤ 1 node).
    pub fn is_connected(&self) -> bool {
        let n = self.adj.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// True when the node subset `nodes` induces a connected subgraph.
    /// Empty sets are considered disconnected; singletons connected.
    pub fn is_connected_subset(&self, nodes: &[u32]) -> bool {
        if nodes.is_empty() {
            return false;
        }
        if nodes.len() == 1 {
            return true;
        }
        let set: std::collections::HashSet<u32> = nodes.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![nodes[0]];
        seen.insert(nodes[0]);
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if set.contains(&w) && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen.len() == set.len()
    }

    /// Multi-source BFS distances over a node mask: distance from the
    /// nearest source to every node reachable through nodes allowed by
    /// `allowed` (sources are always allowed). Unreachable nodes get
    /// `u32::MAX`.
    pub fn multi_source_bfs(&self, sources: &[u32], allowed: impl Fn(u32) -> bool) -> Vec<u32> {
        let n = self.adj.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for &s in sources {
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for &w in self.neighbors(v) {
                if dist[w as usize] == u32::MAX && allowed(w) {
                    dist[w as usize] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> HardwareGraph {
        HardwareGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edges_are_symmetric_and_deduplicated() {
        let mut g = HardwareGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(0, 0);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = HardwareGraph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn connectivity() {
        assert!(path4().is_connected());
        let g = HardwareGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert!(HardwareGraph::new(1).is_connected());
        assert!(HardwareGraph::new(0).is_connected());
    }

    #[test]
    fn connected_subsets() {
        let g = path4();
        assert!(g.is_connected_subset(&[1, 2, 3]));
        assert!(!g.is_connected_subset(&[0, 2]));
        assert!(g.is_connected_subset(&[3]));
        assert!(!g.is_connected_subset(&[]));
    }

    #[test]
    fn bfs_distances() {
        let g = path4();
        let d = g.multi_source_bfs(&[0], |_| true);
        assert_eq!(d, vec![0, 1, 2, 3]);
        let d2 = g.multi_source_bfs(&[0, 3], |_| true);
        assert_eq!(d2, vec![0, 1, 1, 0]);
    }

    #[test]
    fn bfs_respects_mask() {
        let g = path4();
        // node 1 blocked: nothing past it is reachable from 0
        let d = g.multi_source_bfs(&[0], |v| v != 1);
        assert_eq!(d, vec![0, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn degree_statistics() {
        let g = path4();
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        HardwareGraph::new(2).add_edge(0, 5);
    }
}
