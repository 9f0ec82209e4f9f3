//! Contiguous node-id partition: shard `s` owns `[starts[s], starts[s+1])`.
//!
//! Contiguity is load-bearing for determinism: concatenating per-shard data
//! in shard-index order equals concatenating it in node-id order, which is
//! the total order the whole exchange protocol is built on.

use whatsup_core::NodeId;

/// The shard map. Balanced at construction (sizes differ by at most one);
/// nodes joining mid-run extend the last shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `n_shards + 1` boundaries; `starts[0] == 0`, `starts[S] == total`.
    starts: Vec<NodeId>,
}

impl Partition {
    /// Splits `n` nodes into `shards` contiguous ranges, the first
    /// `n % shards` ranges one node larger.
    ///
    /// # Panics
    /// Panics unless `1 <= shards <= n`.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(shards <= n, "more shards ({shards}) than nodes ({n})");
        let base = n / shards;
        let extra = n % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            starts.push(at as NodeId);
        }
        Self { starts }
    }

    /// Load-aware split: sizes the initial ranges against the population
    /// the run will *end* with. Every join — mass-join bursts, flash-crowd
    /// clones — lands on the last shard (`Partition::push_node`), so a
    /// balanced initial split leaves the last shard carrying all
    /// `expected_joins` extra nodes for the rest of the run. This planner
    /// instead balances `n + expected_joins` across the shards and assigns
    /// the last shard its final-size share minus the joins it will absorb
    /// (clamped so every shard starts with at least one node).
    ///
    /// Any contiguous split preserves bit-identity — shard-order
    /// concatenation equals node-id order regardless of where the
    /// boundaries sit — so this only moves load, never results. With
    /// `expected_joins == 0` it reduces exactly to [`Partition::new`].
    ///
    /// # Panics
    /// Panics unless `1 <= shards <= n`.
    pub fn plan(n: usize, shards: usize, expected_joins: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(shards <= n, "more shards ({shards}) than nodes ({n})");
        if shards == 1 {
            return Self::new(n, 1);
        }
        let fin = n + expected_joins;
        let (base, extra) = (fin / shards, fin % shards);
        // Final-size target of the last shard, minus the joins it absorbs.
        let last_target = base + usize::from(shards - 1 < extra);
        let last = last_target
            .saturating_sub(expected_joins)
            .clamp(1, n - (shards - 1));
        // The first `shards - 1` ranges split the rest evenly.
        let head = n - last;
        let (h_base, h_extra) = (head / (shards - 1), head % (shards - 1));
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..shards - 1 {
            at += h_base + usize::from(s < h_extra);
            starts.push(at as NodeId);
        }
        starts.push(n as NodeId);
        Self { starts }
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of nodes.
    pub fn total(&self) -> usize {
        *self.starts.last().expect("non-empty boundaries") as usize
    }

    /// The id range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<NodeId> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard owning node `id`.
    ///
    /// # Panics
    /// Panics for ids outside the population (a message addressed to an
    /// unknown node is an engine bug, not a recoverable condition).
    pub(crate) fn shard_of(&self, id: NodeId) -> usize {
        assert!(
            (id as usize) < self.total(),
            "message addressed to unknown node {id}"
        );
        self.starts.partition_point(|&s| s <= id) - 1
    }

    /// Registers one node joining at the end of the id space (owned by the
    /// last shard). Returns the new node's id.
    pub(crate) fn push_node(&mut self) -> NodeId {
        let id = *self.starts.last().expect("non-empty boundaries");
        *self.starts.last_mut().expect("non-empty boundaries") = id + 1;
        id
    }

    /// The raw boundaries (serialization support).
    pub(crate) fn starts(&self) -> &[NodeId] {
        &self.starts
    }

    /// Rebuilds a partition from its boundaries; `None` unless they start
    /// at 0 and never decrease, with at least one shard.
    pub(crate) fn from_starts(starts: Vec<NodeId>) -> Option<Self> {
        let valid = starts.len() >= 2
            && starts.first() == Some(&0)
            && starts.windows(2).all(|w| w[0] <= w[1]);
        valid.then_some(Self { starts })
    }

    /// The id range shard `s` owns, if there is a shard `s`.
    pub(crate) fn try_range(&self, s: usize) -> Option<std::ops::Range<NodeId>> {
        Some(*self.starts.get(s)?..*self.starts.get(s + 1)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_split_covers_all_ids() {
        for n in [1usize, 2, 7, 100, 101] {
            for s in 1..=n.min(8) {
                let p = Partition::new(n, s);
                assert_eq!(p.n_shards(), s);
                assert_eq!(p.total(), n);
                let mut seen = 0usize;
                for shard in 0..s {
                    let r = p.range(shard);
                    for id in r.clone() {
                        assert_eq!(p.shard_of(id), shard);
                    }
                    seen += r.len();
                    // Balanced: sizes differ by at most one.
                    assert!(r.len() >= n / s && r.len() <= n / s + 1);
                }
                assert_eq!(seen, n);
            }
        }
    }

    #[test]
    fn ranges_are_contiguous_and_ascending() {
        let p = Partition::new(10, 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
    }

    #[test]
    fn push_node_grows_last_shard() {
        let mut p = Partition::new(6, 2);
        assert_eq!(p.push_node(), 6);
        assert_eq!(p.total(), 7);
        assert_eq!(p.shard_of(6), 1);
        assert_eq!(p.range(0), 0..3, "earlier shards untouched");
    }

    #[test]
    fn plan_without_joins_is_the_balanced_split() {
        for n in [1usize, 2, 7, 100, 101, 1000] {
            for s in 1..=n.min(8) {
                assert_eq!(Partition::plan(n, s, 0), Partition::new(n, s), "{n}/{s}");
            }
        }
    }

    #[test]
    fn plan_balances_the_final_population() {
        // 100 nodes + 20 joins over 4 shards: final target 30 per shard,
        // so the last shard starts with 10 and ends at 30.
        let p = Partition::plan(100, 4, 20);
        assert_eq!(p.total(), 100);
        assert_eq!(p.range(3).len(), 10);
        let head: Vec<usize> = (0..3).map(|s| p.range(s).len()).collect();
        assert_eq!(head, vec![30, 30, 30]);
    }

    #[test]
    fn plan_clamps_to_one_node_per_shard() {
        // Joins dwarf the population: every shard still starts non-empty.
        let p = Partition::plan(4, 4, 1_000);
        assert_eq!(p.total(), 4);
        for s in 0..4 {
            assert_eq!(p.range(s).len(), 1);
        }
    }

    #[test]
    fn plan_ranges_stay_contiguous_ascending() {
        for joins in [0usize, 1, 7, 50, 500] {
            let p = Partition::plan(97, 5, joins);
            assert_eq!(p.total(), 97);
            let mut seen = 0usize;
            for s in 0..5 {
                let r = p.range(s);
                assert!(!r.is_empty(), "shard {s} empty at joins={joins}");
                assert_eq!(r.start as usize, seen);
                seen = r.end as usize;
            }
            assert_eq!(seen, 97);
        }
    }

    #[test]
    fn starts_roundtrip() {
        let p = Partition::new(11, 4);
        let q = Partition::from_starts(p.starts().to_vec());
        assert_eq!(Some(p), q);
        assert_eq!(Partition::from_starts(vec![0]), None);
        assert_eq!(Partition::from_starts(vec![1, 4]), None);
        assert_eq!(Partition::from_starts(vec![0, 4, 3]), None);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn out_of_range_id_panics() {
        Partition::new(4, 2).shard_of(4);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn too_many_shards_rejected() {
        Partition::new(2, 3);
    }
}
