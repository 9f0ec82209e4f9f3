//! Exact set of already-received item ids (the SIR "removed" state).
//!
//! A node sees every item exactly once per lifetime, so the set only ever
//! grows. Every id a run publishes has a dense slot in the run's item
//! index ([`ItemIndexMap`]), which every node already holds, so
//! [`SeenSet`] keeps one bit per slot: a word vector grown to the highest
//! slot received, probed and set in O(1). Ids the index does not know —
//! a live peer built with an empty index, a hostile id — go to an ordered
//! spill instead, so an unknown id never grows the bits.
//!
//! The set is **exact** — never probabilistic. `insert`/`contains` answer
//! identically to a `HashSet<ItemId>`, which is what keeps the engine's
//! dedup behavior (and therefore its reports) bit-identical. Both take the
//! index: one set must always be probed with the one index its node holds.
//! The checkpoint form is the ascending id list ([`SeenSet::to_sorted_vec`],
//! [`SeenSet::from_sorted`]), so it does not depend on the numbering.

use std::collections::BTreeSet;

use crate::item::{ItemId, ItemIndexMap};

/// Item-index bitset plus an ordered spill. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeenSet {
    /// Bit `s % 64` of word `s / 64` is set once the item at slot `s` was
    /// received; no trailing word is all zero.
    bits: Vec<u64>,
    /// Received ids the index does not know.
    spill: BTreeSet<ItemId>,
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
    pub fn from_sorted(sorted: Vec<ItemId>, index: &ItemIndexMap) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut set = Self::new();
        for id in sorted {
            set.insert(id, index);
        }
        set
    }

    pub fn len(&self) -> usize {
        let bits: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        bits as usize + self.spill.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty() && self.spill.is_empty()
    }

    pub fn contains(&self, item: ItemId, index: &ItemIndexMap) -> bool {
        match index.get(&item) {
            Some(&slot) => self.has_slot(slot),
            None => self.spill.contains(&item),
        }
    }

    fn has_slot(&self, slot: u32) -> bool {
        let word = self.bits.get(slot as usize / 64);
        word.is_some_and(|w| w >> (slot % 64) & 1 != 0)
    }

    /// Inserts `item`, returning whether it was new (the `HashSet::insert`
    /// contract).
    pub fn insert(&mut self, item: ItemId, index: &ItemIndexMap) -> bool {
        let Some(&slot) = index.get(&item) else {
            return self.spill.insert(item);
        };
        let (word, bit) = (slot as usize / 64, 1 << (slot % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }

    /// Heap bytes: the allocated bitset words plus the spilled ids (8 B
    /// each, tree nodes not counted) — memory diagnostics.
    #[doc(hidden)]
    pub fn capacity_bytes(&self) -> usize {
        (self.bits.capacity() + self.spill.len()) * std::mem::size_of::<u64>()
    }

    /// All ids, ascending (the canonical export form). Walks the whole
    /// index — checkpoints only.
    pub fn to_sorted_vec(&self, index: &ItemIndexMap) -> Vec<ItemId> {
        let mut all: Vec<ItemId> = index
            .iter()
            .filter(|&(_, &slot)| self.has_slot(slot))
            .map(|(&id, _)| id)
            .chain(self.spill.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(ids: impl IntoIterator<Item = ItemId>) -> ItemIndexMap {
        ids.into_iter().zip(0..).collect()
    }

    #[test]
    fn insert_contains_len() {
        let index = index_of([7, 100]);
        let mut s = SeenSet::new();
        assert!(s.is_empty());
        assert!(s.insert(7, &index));
        assert!(!s.insert(7, &index), "duplicate rejected");
        assert!(s.insert(3, &index), "unknown id spills");
        assert!(!s.insert(3, &index));
        assert!(s.contains(7, &index));
        assert!(s.contains(3, &index));
        assert!(!s.contains(4, &index));
        assert!(!s.contains(100, &index));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bits_grow_to_the_highest_slot_only() {
        let index = index_of(1000..1200);
        let mut s = SeenSet::new();
        s.insert(1000 + 130, &index);
        assert_eq!(s.bits.len(), 3);
        s.insert(1000 + 5, &index);
        s.insert(42, &index);
        assert_eq!(
            s.bits.len(),
            3,
            "a lower slot or an unknown id adds no word"
        );
    }

    #[test]
    fn roundtrips_through_sorted_vec() {
        let index = index_of([9, 5, 7]);
        let mut s = SeenSet::new();
        for id in [9, 1, 5, 3, 7] {
            s.insert(id, &index);
        }
        let v = s.to_sorted_vec(&index);
        assert_eq!(v, vec![1, 3, 5, 7, 9]);
        let r = SeenSet::from_sorted(v, &index);
        assert_eq!(r, s);
        assert_eq!(r.len(), 5);
    }
}
