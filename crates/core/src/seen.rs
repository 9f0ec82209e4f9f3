//! Compact exact set of already-received item ids (the SIR "removed"
//! state).
//!
//! A node sees every item exactly once per lifetime, so the set only ever
//! grows — and at scale it dominates per-node memory if kept as a hash
//! set (~48 B/entry with `std`'s table overhead). [`SeenSet`] stores the
//! same ids as a sorted run plus a small unsorted recent window: 8 B per
//! id amortized, probes are a binary search over the run plus a linear
//! scan of at most [`RECENT_CAP`] recent ids, and the recent window is
//! merged into the run when it fills.
//!
//! The set is **exact** — never probabilistic. `insert`/`contains` answer
//! identically to a `HashSet<ItemId>`, which is what keeps the engine's
//! dedup behavior (and therefore its reports) bit-identical to the
//! hash-set implementation it replaced.

use crate::item::ItemId;

/// Recent-window capacity before a merge into the sorted run. Small
/// enough that the linear probe stays cache-resident; large enough that
/// the O(n) merge amortizes to O(log n) per insert for realistic n.
const RECENT_CAP: usize = 32;

/// Sorted-run + recent-window set of item ids. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeenSet {
    /// Ascending, deduplicated.
    sorted: Vec<ItemId>,
    /// Insertion order, deduplicated against `sorted` and itself; merged
    /// into `sorted` when it reaches [`RECENT_CAP`].
    recent: Vec<ItemId>,
}

impl SeenSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds from an ascending, deduplicated id list (the
    /// [`crate::node::NodeState`] checkpoint form).
    ///
    /// # Panics
    /// Debug-asserts the input is strictly ascending.
    pub fn from_sorted(sorted: Vec<ItemId>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        Self {
            sorted,
            recent: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.sorted.len() + self.recent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.recent.is_empty()
    }

    pub fn contains(&self, item: ItemId) -> bool {
        self.sorted.binary_search(&item).is_ok() || self.recent.contains(&item)
    }

    /// Inserts `item`, returning whether it was new (the `HashSet::insert`
    /// contract).
    pub fn insert(&mut self, item: ItemId) -> bool {
        if self.contains(item) {
            return false;
        }
        if self.recent.len() == RECENT_CAP {
            self.merge();
        }
        self.recent.push(item);
        true
    }

    /// Folds the recent window into the sorted run.
    fn merge(&mut self) {
        self.sorted.append(&mut self.recent);
        self.sorted.sort_unstable();
    }

    /// Allocated heap bytes (capacity, not length) — memory diagnostics.
    #[doc(hidden)]
    pub fn capacity_bytes(&self) -> usize {
        (self.sorted.capacity() + self.recent.capacity()) * std::mem::size_of::<ItemId>()
    }

    /// Releases the sorted run's capacity slack left by merges. The recent
    /// window is already bounded by [`RECENT_CAP`] and is left alone.
    /// Answers are unaffected — memory hygiene only.
    pub fn trim_capacity(&mut self) {
        self.sorted.shrink_to_fit();
    }

    /// All ids, ascending (the canonical export form).
    pub fn to_sorted_vec(&self) -> Vec<ItemId> {
        let mut all = self.sorted.clone();
        all.extend_from_slice(&self.recent);
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = SeenSet::new();
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7), "duplicate rejected");
        assert!(s.insert(3));
        assert!(s.contains(7));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_preserves_exactness() {
        let mut s = SeenSet::new();
        // Enough inserts to force several merges, interleaved with
        // duplicate probes across the run/window boundary.
        for i in 0..10 * RECENT_CAP as u64 {
            let id = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3;
            assert!(s.insert(id));
            assert!(!s.insert(id));
            assert!(s.contains(id));
        }
        assert_eq!(s.len(), 10 * RECENT_CAP);
        let v = s.to_sorted_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "ascending, deduped");
        assert_eq!(v.len(), s.len());
    }

    #[test]
    fn roundtrips_through_sorted_vec() {
        let mut s = SeenSet::new();
        for id in [9, 1, 5, 3, 7] {
            s.insert(id);
        }
        let v = s.to_sorted_vec();
        assert_eq!(v, vec![1, 3, 5, 7, 9]);
        let r = SeenSet::from_sorted(v);
        assert_eq!(r.len(), 5);
        for id in [9, 1, 5, 3, 7] {
            assert!(r.contains(id));
        }
    }
}
