//! Weakly connected components via union-find.
//!
//! §V-A of the paper reports the average number of (weakly) connected
//! components of the overlay at small fanouts (e.g. 1.6 for WhatsUp vs 14.3
//! for CF-Cos at fanout 3) to show that the WUP metric avoids fragmenting the
//! topology.

use crate::Graph;

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    count: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            count: n,
        }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        self.count -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    fn set_count(&self) -> usize {
        self.count
    }
}

/// Number of weakly connected components (edge direction ignored).
pub fn weakly_connected_components(g: &Graph) -> usize {
    let mut uf = UnionFind::new(g.len());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    uf.set_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn isolated_nodes_are_components() {
        let g = Graph::new(5);
        assert_eq!(weakly_connected_components(&g), 5);
    }

    #[test]
    fn direction_is_ignored() {
        let g = Graph::from_edges(3, [(0, 1), (2, 1)]);
        assert_eq!(weakly_connected_components(&g), 1);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert_eq!(uf.set_count(), 3);
    }

    proptest! {
        #[test]
        fn component_count_matches_a_search(
            n in 1usize..30,
            edges in prop::collection::vec((0u32..30, 0u32..30), 0..60)
        ) {
            let edges: Vec<(u32, u32)> =
                edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
            let g = Graph::from_edges(n, edges);
            // Reference: count the searches over the undirected closure.
            let sym = g.symmetric_closure();
            let mut seen = vec![false; n];
            let mut searches = 0;
            for s in 0..n {
                if seen[s] {
                    continue;
                }
                searches += 1;
                seen[s] = true;
                let mut stack = vec![s as u32];
                while let Some(u) = stack.pop() {
                    for &v in sym.neighbors(u) {
                        if !seen[v as usize] {
                            seen[v as usize] = true;
                            stack.push(v);
                        }
                    }
                }
            }
            prop_assert_eq!(weakly_connected_components(&g), searches);
        }
    }
}
