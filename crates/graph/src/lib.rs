//! Graph substrate for the WhatsUp reproduction.
//!
//! The paper's evaluation analyzes the *implicit social network* that WUP
//! builds: the fraction of nodes in the largest strongly connected component
//! (Fig. 4), the number of weakly connected components, and the average
//! clustering coefficient (§V-A). This crate provides those analytics on a
//! compact adjacency-list representation, plus the community sizes of the
//! synthetic Arxiv workload ([`generate::community_sizes`]). The Digg
//! cascade baseline's follower graph is built by the dataset crate.

pub mod clustering;
pub mod components;
pub mod generate;
pub mod scc;

/// A directed graph over nodes `0..n` stored as adjacency lists.
///
/// Parallel edges are permitted at construction but deduplicated by
/// [`Graph::dedup`]; self-loops are ignored by the analytics that do not
/// define them (clustering coefficient).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the directed edge `u -> v`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!((v as usize) < self.adj.len(), "edge target out of range");
        self.adj[u as usize].push(v);
    }

    /// Out-neighbors of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// Sorts adjacency lists and removes duplicate edges and self-loops.
    pub fn dedup(&mut self) {
        for (u, list) in self.adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            list.retain(|&v| v as usize != u);
        }
    }

    /// Returns the graph with every edge also reversed (symmetric closure) —
    /// the undirected view used by clustering-coefficient and WCC analyses.
    pub(crate) fn symmetric_closure(&self) -> Graph {
        let mut g = Graph::new(self.len());
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                g.add_edge(u as u32, v);
                g.add_edge(v, u as u32);
            }
        }
        g.dedup();
        g
    }

    /// Returns the reverse (transpose) graph.
    pub fn transpose(&self) -> Graph {
        let mut g = Graph::new(self.len());
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                g.add_edge(v, u as u32);
            }
        }
        g
    }

    /// Iterates over all directed edges.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| list.iter().map(move |&v| (u as u32, v)))
    }
}

/// Test-only constructors and counts, the references the crate's tests
/// build and check graphs with.
#[cfg(test)]
impl Graph {
    /// Builds a graph from an edge list.
    pub(crate) fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Total number of directed edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn dedup_removes_loops_and_dupes() {
        let mut g = Graph::from_edges(2, [(0, 1), (0, 1), (0, 0), (1, 0)]);
        g.dedup();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn symmetric_closure_is_symmetric() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let s = g.symmetric_closure();
        assert!(s.neighbors(1).contains(&0));
        assert!(s.neighbors(2).contains(&1));
    }

    #[test]
    fn transpose_reverses() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert!(t.neighbors(0).is_empty());
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        let g2 = Graph::from_edges(4, edges);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(1);
        g.add_edge(0, 5);
    }
}
