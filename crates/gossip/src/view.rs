//! Partial views: the per-node membership tables of both gossip layers.
//!
//! Each entry pairs a node id with the node's *descriptor payload* (its
//! profile, in WhatsUp) and an *age* — the number of cycles since the payload
//! was generated by its owner (the paper stores a generation timestamp; age
//! is the same information relative to the local clock and is what the
//! peer-sampling literature manipulates directly).

use rand::seq::SliceRandom;
use rand::Rng;

/// Identifier of a node (user) in the overlay.
pub type NodeId = u32;

/// A view entry: node id, payload snapshot, and the snapshot's age in cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor<P> {
    pub node: NodeId,
    pub age: u32,
    pub payload: P,
}

impl<P> Descriptor<P> {
    /// A fresh (age 0) descriptor.
    pub fn fresh(node: NodeId, payload: P) -> Self {
        Self {
            node,
            age: 0,
            payload,
        }
    }
}

/// A bounded set of descriptors with at most one entry per node.
#[derive(Debug, Clone, PartialEq)]
pub struct View<P> {
    capacity: usize,
    entries: Vec<Descriptor<P>>,
}

impl<P: Clone> View<P> {
    /// An empty view bounded by `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a view must hold at least one entry");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the capacity, truncating the freshest-first ordering if needed.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0);
        self.capacity = capacity;
        if self.entries.len() > capacity {
            self.entries.sort_by_key(|d| d.age);
            self.entries.truncate(capacity);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[Descriptor<P>] {
        &self.entries
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|d| d.node == node)
    }

    pub fn get(&self, node: NodeId) -> Option<&Descriptor<P>> {
        self.entries.iter().find(|d| d.node == node)
    }

    /// Node ids currently in the view.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|d| d.node)
    }

    /// Ages every entry by one cycle.
    pub fn age_all(&mut self) {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
    }

    /// The entry with the largest age (gossip partner selection is
    /// oldest-first in both layers, paper §II). Ties break on lower node id
    /// for determinism.
    pub fn oldest(&self) -> Option<&Descriptor<P>> {
        self.entries
            .iter()
            .max_by(|a, b| a.age.cmp(&b.age).then(b.node.cmp(&a.node)))
    }

    /// Removes and returns the entry for `node`, if present.
    pub fn remove(&mut self, node: NodeId) -> Option<Descriptor<P>> {
        let idx = self.entries.iter().position(|d| d.node == node)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Inserts `d`, keeping only the freshest descriptor per node. Returns
    /// false (and drops `d`) when the view is full of other, distinct nodes.
    pub fn insert(&mut self, d: Descriptor<P>) -> bool {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.node == d.node) {
            if d.age <= existing.age {
                *existing = d;
            }
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(d);
            true
        } else {
            false
        }
    }

    /// A uniform random sample of up to `count` entries (no replacement).
    pub fn sample(&self, count: usize, rng: &mut impl Rng) -> Vec<Descriptor<P>> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.shuffle(rng);
        idx.truncate(count);
        idx.into_iter().map(|i| self.entries[i].clone()).collect()
    }

    /// Uniform random node ids, up to `count`, without replacement.
    ///
    /// Draws the identical index shuffle as [`Self::sample`] (same RNG
    /// stream, same picks) but skips cloning the descriptors — the news
    /// forwarding path asks for ids only, and payload clones were the cost.
    pub fn sample_ids(&self, count: usize, rng: &mut impl Rng) -> Vec<NodeId> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.shuffle(rng);
        idx.truncate(count);
        idx.into_iter().map(|i| self.entries[i].node).collect()
    }

    /// Replaces the whole content with `entries` (already ≤ capacity, one per
    /// node). Used by the merge procedures which compute the next view in
    /// full.
    pub fn replace_with(&mut self, entries: Vec<Descriptor<P>>) {
        debug_assert!(entries.len() <= self.capacity, "merge overflow");
        debug_assert!(
            {
                let mut ids: Vec<NodeId> = entries.iter().map(|d| d.node).collect();
                ids.sort_unstable();
                ids.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate node in view"
        );
        self.entries = entries;
    }
}

/// Deduplicates descriptors by node id, keeping the freshest (lowest age) for
/// each node — the earliest of equally fresh ones — and drops `self_id`.
/// Order of first occurrence is preserved: the survivor takes the place of
/// its node's first descriptor.
///
/// Every WUP and RPS merge runs this over ~70 candidates, so a node's
/// earlier descriptor is found through a throw-away open-addressing table
/// (expected O(n)) rather than by searching the output once per candidate.
/// The table only answers "seen before, and where"; it is never iterated,
/// so the output order owes nothing to it.
pub fn dedup_freshest<P: Clone>(
    candidates: impl IntoIterator<Item = Descriptor<P>>,
    self_id: NodeId,
) -> Vec<Descriptor<P>> {
    let mut out: Vec<Descriptor<P>> = candidates
        .into_iter()
        .filter(|d| d.node != self_id)
        .collect();
    // At most half full. A slot holds 1 + the position, within the kept
    // prefix `out[..kept]`, of the node that claimed it; 0 is free.
    let mask = (2 * out.len()).next_power_of_two() - 1;
    let mut slots = vec![0usize; mask + 1];
    let mut kept = 0;
    for at in 0..out.len() {
        let node = out[at].node;
        // An odd multiplier permutes the low bits: dense ids never collide.
        let mut slot = node.wrapping_mul(0x9e37_79b1) as usize & mask;
        loop {
            match slots[slot] {
                0 => {
                    slots[slot] = kept + 1;
                    out.swap(kept, at);
                    kept += 1;
                    break;
                }
                claimed if out[claimed - 1].node == node => {
                    if out[at].age < out[claimed - 1].age {
                        out.swap(claimed - 1, at);
                    }
                    break;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
    out.truncate(kept);
    out
}

/// [`dedup_freshest`] as it was first written — a search of the output per
/// candidate — kept as the executable statement of the order and
/// freshest-wins rules the faster one must reproduce.
#[cfg(test)]
fn dedup_freshest_by_search<P: Clone>(
    candidates: impl IntoIterator<Item = Descriptor<P>>,
    self_id: NodeId,
) -> Vec<Descriptor<P>> {
    let mut out: Vec<Descriptor<P>> = Vec::new();
    for d in candidates {
        if d.node == self_id {
            continue;
        }
        match out.iter_mut().find(|e| e.node == d.node) {
            Some(existing) => {
                if d.age < existing.age {
                    *existing = d;
                }
            }
            None => out.push(d),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn d(node: NodeId, age: u32) -> Descriptor<u8> {
        Descriptor {
            node,
            age,
            payload: 0,
        }
    }

    #[test]
    fn insert_respects_capacity_and_uniqueness() {
        let mut v = View::new(2);
        assert!(v.insert(d(1, 5)));
        assert!(v.insert(d(2, 3)));
        assert!(!v.insert(d(3, 0))); // full
        assert!(v.insert(d(1, 0))); // fresher replaces
        assert_eq!(v.get(1).unwrap().age, 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn stale_duplicate_does_not_replace() {
        let mut v = View::new(2);
        v.insert(d(1, 0));
        v.insert(d(1, 9));
        assert_eq!(v.get(1).unwrap().age, 0);
    }

    #[test]
    fn oldest_breaks_ties_deterministically() {
        let mut v = View::new(3);
        v.insert(d(5, 4));
        v.insert(d(2, 4));
        v.insert(d(9, 1));
        assert_eq!(v.oldest().unwrap().node, 2);
    }

    #[test]
    fn age_all_increments() {
        let mut v = View::new(2);
        v.insert(d(1, 0));
        v.age_all();
        v.age_all();
        assert_eq!(v.get(1).unwrap().age, 2);
    }

    #[test]
    fn sample_is_without_replacement() {
        let mut v = View::new(10);
        for i in 0..10 {
            v.insert(d(i, 0));
        }
        let s = v.sample_ids(5, &mut rng());
        assert_eq!(s.len(), 5);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn sample_more_than_len_returns_all() {
        let mut v = View::new(4);
        v.insert(d(1, 0));
        v.insert(d(2, 0));
        assert_eq!(v.sample(10, &mut rng()).len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut v = View::new(2);
        v.insert(d(1, 0));
        assert!(v.remove(1).is_some());
        assert!(v.remove(1).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn set_capacity_truncates_oldest_out() {
        let mut v = View::new(3);
        v.insert(d(1, 9));
        v.insert(d(2, 1));
        v.insert(d(3, 5));
        v.set_capacity(2);
        assert_eq!(v.len(), 2);
        assert!(v.contains(2));
        assert!(v.contains(3));
        assert!(!v.contains(1));
    }

    #[test]
    fn dedup_keeps_freshest_and_drops_self() {
        let cands = vec![d(1, 5), d(2, 2), d(1, 1), d(7, 0), d(2, 9)];
        let out = dedup_freshest(cands, 7);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].node, 1);
        assert_eq!(out[0].age, 1);
        assert_eq!(out[1].node, 2);
        assert_eq!(out[1].age, 2);
    }

    proptest! {
        /// Same survivors, same payloads, same order as the search-based
        /// original — few distinct nodes and ages, so duplicates, age ties
        /// and self-descriptors are all common. The payload is the input
        /// position, which tells equally old descriptors of a node apart.
        /// `spread` makes the ids multiples of 2²⁸: their table slots all
        /// coincide, so every lookup walks the probe sequence.
        #[test]
        fn dedup_matches_the_search_based_original(
            self_id in 0u32..12,
            spread in 0u32..2,
            raw in prop::collection::vec((0u32..12, 0u32..4), 0..120),
        ) {
            let candidates: Vec<Descriptor<usize>> = raw
                .iter()
                .enumerate()
                .map(|(payload, &(node, age))| Descriptor {
                    node: node << (28 * spread),
                    age,
                    payload,
                })
                .collect();
            let self_id = self_id << (28 * spread);
            prop_assert_eq!(
                dedup_freshest(candidates.clone(), self_id),
                dedup_freshest_by_search(candidates, self_id)
            );
        }
    }
}
