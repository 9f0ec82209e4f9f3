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
    pub(crate) fn age_all(&mut self) {
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

    /// Empties the view and hands its entries to a merge, which computes the
    /// next view in full from them ([`Self::replace_with`]).
    pub(crate) fn take_entries(&mut self) -> Vec<Descriptor<P>> {
        std::mem::take(&mut self.entries)
    }

    /// Replaces the whole content with `entries` (already ≤ capacity, one per
    /// node). Used by the merge procedures which compute the next view in
    /// full.
    pub(crate) fn replace_with(&mut self, entries: Vec<Descriptor<P>>) {
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

/// Deduplicates merge candidates, given as `(node, age)`, by node: returns
/// the positions of the survivors, the freshest (lowest age) descriptor of
/// each node — the earliest of equally fresh ones — with `self_id` dropped.
/// Order of first occurrence is preserved: the survivor takes the place of
/// its node's first descriptor.
///
/// Every WUP and RPS merge runs this over ~70 borrowed candidates, so a
/// node's earlier descriptor is found through a throw-away open-addressing
/// table (expected O(n)) rather than by searching the output once per
/// candidate. The table only answers "seen before, how fresh, and where";
/// it is never iterated, so the output order owes nothing to it.
pub(crate) fn dedup_freshest<I>(candidates: I, self_id: NodeId) -> Vec<usize>
where
    I: IntoIterator<Item = (NodeId, u32)>,
    I::IntoIter: ExactSizeIterator,
{
    let candidates = candidates.into_iter();
    let mut out = Vec::with_capacity(candidates.len());
    // At most half full. A slot holds the node that claimed it, the age of
    // its freshest descriptor so far and 1 + that node's place in `out`;
    // a place of 0 is free.
    let mask = (2 * candidates.len()).next_power_of_two() - 1;
    let mut slots = vec![(0, 0, 0); mask + 1];
    for (at, (node, age)) in candidates.enumerate() {
        if node == self_id {
            continue;
        }
        // An odd multiplier permutes the low bits: dense ids never collide.
        let mut slot = node.wrapping_mul(0x9e37_79b1) as usize & mask;
        loop {
            let (claimed, freshest, place) = &mut slots[slot];
            if *place == 0 {
                out.push(at);
                (*claimed, *freshest, *place) = (node, age, out.len());
                break;
            }
            if *claimed == node {
                if age < *freshest {
                    *freshest = age;
                    out[*place - 1] = at;
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    out
}

/// The next view of a merge: the candidates at `picks`, in `picks` order,
/// out of the union `old ++ received ++ borrowed`; `picks` are distinct.
/// A picked descriptor of `old` or `received` moves, a picked one of
/// `borrowed` is cloned, and the rest of `old` and `received` drops — so a
/// payload (an `Arc` in WhatsUp) is touched only when its holder changes.
///
/// The view is allocated to fit: it lives until the next merge, and a
/// `collect` may reuse the buffer `picks` came in, several times its size.
pub(crate) fn gather<P: Clone, I>(
    old: Vec<Descriptor<P>>,
    received: Vec<Descriptor<P>>,
    borrowed: &[Descriptor<P>],
    picks: I,
) -> Vec<Descriptor<P>>
where
    I: IntoIterator<Item = usize>,
    I::IntoIter: ExactSizeIterator,
{
    let mut owned: Vec<Option<Descriptor<P>>> = old.into_iter().chain(received).map(Some).collect();
    let n_owned = owned.len();
    let picks = picks.into_iter();
    let mut view = Vec::with_capacity(picks.len());
    view.extend(picks.map(|at| match owned.get_mut(at) {
        Some(slot) => slot.take().expect("a merge picks each candidate once"),
        None => borrowed[at - n_owned].clone(),
    }));
    view
}

/// The first written dedup — clone every candidate, search the output per
/// candidate — kept as the executable statement of the order and
/// freshest-wins rules [`dedup_freshest`] must reproduce, and as the dedup
/// of the merges' cloning twins.
#[cfg(test)]
pub(crate) fn dedup_freshest_by_search<P: Clone>(
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

/// Whether two entry lists are equal entry by entry, in order: node, age
/// and payload *identity* — which of a node's descriptors survived, not
/// only an equal one.
#[cfg(test)]
pub(crate) fn same_entries<T>(
    a: &[Descriptor<std::sync::Arc<T>>],
    b: &[Descriptor<std::sync::Arc<T>>],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node && x.age == y.age && std::sync::Arc::ptr_eq(&x.payload, &y.payload)
        })
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
    fn dedup_keeps_freshest_and_drops_self() {
        let cands = [(1, 5), (2, 2), (1, 1), (7, 0), (2, 9)];
        assert_eq!(dedup_freshest(cands, 7), [2, 1]);
    }

    #[test]
    fn gather_moves_owned_picks_and_clones_borrowed_ones() {
        use std::sync::Arc;
        let arc = |node| Descriptor::fresh(node, Arc::new(node));
        let old = vec![arc(1), arc(2)];
        let received = vec![arc(3)];
        let borrowed = [arc(4), arc(5)];
        let (kept, dropped) = (Arc::clone(&old[1].payload), Arc::clone(&old[0].payload));
        let view = gather(old, received, &borrowed, [4, 1, 2]);
        let nodes: Vec<NodeId> = view.iter().map(|d| d.node).collect();
        assert_eq!(nodes, [5, 2, 3]);
        assert!(Arc::ptr_eq(&view[0].payload, &borrowed[1].payload));
        assert!(Arc::ptr_eq(&view[1].payload, &kept));
        // Moved: only the view and `kept` hold node 2's payload; the
        // unpicked one of node 1 was dropped; the borrowed one was cloned.
        assert_eq!(Arc::strong_count(&kept), 2);
        assert_eq!(Arc::strong_count(&dropped), 1);
        assert_eq!(Arc::strong_count(&borrowed[1].payload), 2);
        assert_eq!(Arc::strong_count(&borrowed[0].payload), 1);
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
            let survivors: Vec<Descriptor<usize>> =
                dedup_freshest(candidates.iter().map(|d| (d.node, d.age)), self_id)
                    .into_iter()
                    .map(|at| candidates[at].clone())
                    .collect();
            prop_assert_eq!(survivors, dedup_freshest_by_search(candidates, self_id));
        }
    }
}
