//! Strongly connected components (iterative Tarjan).
//!
//! Fig. 4 of the paper plots the fraction of nodes inside the largest
//! strongly connected component (LSCC) of the WUP overlay as the fanout
//! grows; the overlay is a directed graph (views are asymmetric), hence SCC
//! rather than plain connectivity.

use crate::Graph;

/// The SCC decomposition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccDecomposition {
    /// `component[v]` is the id of v's SCC (ids are dense, 0-based).
    pub component: Vec<u32>,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<u32>,
}

impl SccDecomposition {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component; 0 for an empty graph.
    fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0) as usize
    }

    /// Fraction of nodes in the largest component (the Fig. 4 y-axis).
    pub fn largest_fraction(&self) -> f64 {
        if self.component.is_empty() {
            return 0.0;
        }
        self.largest() as f64 / self.component.len() as f64
    }
}

/// Computes SCCs with an iterative Tarjan algorithm (explicit stack, so deep
/// overlays cannot overflow the call stack).
pub fn tarjan_scc(g: &Graph) -> SccDecomposition {
    const UNVISITED: u32 = u32::MAX;
    let n = g.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut component = vec![0u32; n];
    let mut sizes: Vec<u32> = Vec::new();
    let mut next_index = 0u32;

    // Work-stack frames: (node, next neighbor offset to resume at).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ni)) = frames.last_mut() {
            let vi = v as usize;
            if *ni == 0 {
                index[vi] = next_index;
                lowlink[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let neighbors = g.neighbors(v);
            let mut descended = false;
            while *ni < neighbors.len() {
                let w = neighbors[*ni];
                *ni += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    frames.push((w, 0));
                    descended = true;
                    break;
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            }
            if descended {
                continue;
            }
            // v is finished: pop frame, maybe emit a component.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                let pi = parent as usize;
                lowlink[pi] = lowlink[pi].min(lowlink[vi]);
            }
            if lowlink[vi] == index[vi] {
                let id = sizes.len() as u32;
                let mut size = 0u32;
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    component[w as usize] = id;
                    size += 1;
                    if w == v {
                        break;
                    }
                }
                sizes.push(size);
            }
        }
    }
    SccDecomposition { component, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_cycle_is_one_scc() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.largest(), 4);
        assert_eq!(scc.largest_fraction(), 1.0);
    }

    #[test]
    fn dag_has_singleton_sccs() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        assert_eq!(scc.largest(), 1);
    }

    #[test]
    fn two_cycles_bridge() {
        // 0<->1 and 2<->3 with a one-way bridge 1->2.
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 2);
        assert_eq!(scc.largest(), 2);
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[2], scc.component[3]);
        assert_ne!(scc.component[0], scc.component[2]);
    }

    #[test]
    fn empty_graph() {
        let scc = tarjan_scc(&Graph::new(0));
        assert_eq!(scc.count(), 0);
        assert_eq!(scc.largest_fraction(), 0.0);
    }

    #[test]
    fn long_path_does_not_overflow() {
        // 200k-node path: recursion would overflow; the iterative version
        // must not.
        let n = 200_000;
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)));
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), n);
    }

    #[test]
    fn component_ids_are_dense() {
        let g = Graph::from_edges(5, [(0, 1), (1, 0), (2, 2), (3, 4)]);
        let scc = tarjan_scc(&g);
        let max_id = *scc.component.iter().max().unwrap() as usize;
        assert_eq!(max_id + 1, scc.count());
        let total: u32 = scc.sizes.iter().sum();
        assert_eq!(total as usize, g.len());
    }

    proptest! {
        #[test]
        fn sizes_partition_nodes(
            n in 1usize..40,
            edges in prop::collection::vec((0u32..40, 0u32..40), 0..120)
        ) {
            let edges: Vec<(u32, u32)> =
                edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
            let g = Graph::from_edges(n, edges);
            let scc = tarjan_scc(&g);
            let total: u32 = scc.sizes.iter().sum();
            prop_assert_eq!(total as usize, n);
            // Mutually reachable nodes share a component: check via sampling
            // the definition on direct 2-cycles.
            for (u, v) in g.edges() {
                if g.neighbors(v).contains(&u) {
                    prop_assert_eq!(scc.component[u as usize], scc.component[v as usize]);
                }
            }
        }
    }
}
