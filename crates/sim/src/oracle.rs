//! The opinions oracle: ground-truth likes with dynamic re-mapping.
//!
//! Experiments on interest dynamics (§V-C, Fig. 7) need two operations the
//! raw like matrix cannot express:
//!
//! * a **joining node** that enters mid-run with the same interests as an
//!   existing reference node;
//! * an **interest switch** between two users at a given cycle.
//!
//! Both are row *aliases*: `alias[node]` names the matrix row holding the
//! node's current interests. The matrix itself never changes.

use std::sync::Arc;
use whatsup_core::{ItemId, ItemIndexMap, NodeId, Opinions};
use whatsup_datasets::{LikeMatrix, LikeStore};

/// Ground-truth oracle mapping protocol-level ids to dataset rows/columns.
///
/// Everything immutable is shared (`Arc`): the like store — dense
/// bit-plane or compressed sparse rows, whichever [`LikeStore`] measured
/// smaller — and the run's item index, so the sharded engine hands every
/// shard in the process the *same* copy, and every node the index with it
/// ([`Oracle::id_map`]). The alias vector is logically per-clone
/// but copy-on-write: lockstep runs without joins or interest swaps never
/// materialize a second copy.
#[derive(Debug, Clone)]
pub struct Oracle {
    store: Arc<LikeStore>,
    /// The run's item index: content hash → dataset item index.
    id_to_index: Arc<ItemIndexMap>,
    /// Node → like-store row (identity for the initial population).
    alias: Arc<Vec<u32>>,
}

impl Oracle {
    /// Builds from a dense matrix, choosing the cheaper representation
    /// internally.
    pub fn new(matrix: LikeMatrix, id_to_index: ItemIndexMap) -> Self {
        Self::from_store(LikeStore::from_matrix(&matrix), id_to_index)
    }

    /// Builds with the representation forced (`true` = CSR, `false` =
    /// dense bit-plane) instead of chosen by byte cost. Test hook for the
    /// dense ≡ sparse equivalence properties — both must answer (and
    /// report) identically.
    #[doc(hidden)]
    pub fn new_forced(matrix: LikeMatrix, id_to_index: ItemIndexMap, sparse: bool) -> Self {
        let store = if sparse {
            LikeStore::Sparse(whatsup_datasets::CsrLikes::from_matrix(&matrix))
        } else {
            LikeStore::Dense(matrix)
        };
        Self::from_store(store, id_to_index)
    }

    /// Builds from an already-chosen like store.
    pub fn from_store(store: LikeStore, id_to_index: ItemIndexMap) -> Self {
        let alias = (0..store.n_users() as u32).collect();
        Self {
            store: Arc::new(store),
            id_to_index: Arc::new(id_to_index),
            alias: Arc::new(alias),
        }
    }

    /// Rebuilds an oracle from serialized parts, preserving a non-identity
    /// alias (shard-worker init path); `None` if an alias entry names a row,
    /// or the id map an item, outside the store.
    pub fn restore(store: LikeStore, id_to_index: ItemIndexMap, alias: Vec<u32>) -> Option<Self> {
        let valid = alias.iter().all(|&r| (r as usize) < store.n_users())
            && id_to_index
                .values()
                .all(|&i| (i as usize) < store.n_items());
        valid.then(|| Self {
            store: Arc::new(store),
            id_to_index: Arc::new(id_to_index),
            alias: Arc::new(alias),
        })
    }

    /// The current node → matrix-row aliasing.
    pub fn alias(&self) -> &[u32] {
        &self.alias
    }

    /// The run's item index (content hash → dataset index), the `Arc`
    /// every node of the run numbers its layouts by.
    pub fn id_map(&self) -> &Arc<ItemIndexMap> {
        &self.id_to_index
    }

    /// Number of protocol-level nodes (grows as joiners are added).
    pub fn n_nodes(&self) -> usize {
        self.alias.len()
    }

    /// The shared like store.
    pub fn store(&self) -> &LikeStore {
        &self.store
    }

    /// Dataset index of an item id, if known.
    pub fn index_of(&self, item: ItemId) -> Option<u32> {
        self.id_to_index.get(&item).copied()
    }

    /// Ground-truth opinion by dataset item *index*.
    pub fn likes_index(&self, node: NodeId, index: u32) -> bool {
        let row = self.alias[node as usize] as usize;
        self.store.likes(row, index as usize)
    }

    /// Nodes interested in item `index` under the current aliasing.
    pub fn interested(&self, index: u32) -> Vec<NodeId> {
        (0..self.alias.len() as u32)
            .filter(|&n| self.likes_index(n, index))
            .collect()
    }

    /// Number of nodes interested in item `index`, excluding `excluding`
    /// (the publishing source) — [`Oracle::interested`] without the
    /// allocation, for counters on the publish path.
    pub fn interested_count(&self, index: u32, excluding: NodeId) -> usize {
        (0..self.alias.len() as u32)
            .filter(|&n| n != excluding && self.likes_index(n, index))
            .count()
    }

    /// Registers a joining node whose interests mirror `reference`'s current
    /// row. Returns the new node id.
    pub fn add_clone_of(&mut self, reference: NodeId) -> NodeId {
        let row = self.alias[reference as usize];
        let alias = Arc::make_mut(&mut self.alias);
        alias.push(row);
        (alias.len() - 1) as NodeId
    }

    /// Swaps the interests of two nodes (§V-C's "changing node" experiment).
    pub fn swap_interests(&mut self, a: NodeId, b: NodeId) {
        Arc::make_mut(&mut self.alias).swap(a as usize, b as usize);
    }
}

impl Opinions for Oracle {
    fn likes(&self, node: NodeId, item: ItemId) -> bool {
        match self.id_to_index.get(&item) {
            Some(&idx) => self.likes_index(node, idx),
            // Unknown item (not part of the workload): nobody likes it.
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        let mut m = LikeMatrix::new(3, 2);
        m.set(0, 0, true);
        m.set(1, 1, true);
        m.set(2, 0, true);
        m.set(2, 1, true);
        let map = ItemIndexMap::from_iter([(100u64, 0u32), (200u64, 1u32)]);
        Oracle::new(m, map)
    }

    #[test]
    fn likes_resolve_through_map() {
        let o = oracle();
        assert!(o.likes(0, 100));
        assert!(!o.likes(0, 200));
        assert!(o.likes(2, 200));
        assert!(!o.likes(0, 999), "unknown items are disliked");
    }

    #[test]
    fn interested_lists_nodes() {
        let o = oracle();
        assert_eq!(o.interested(0), vec![0, 2]);
        assert_eq!(o.interested(1), vec![1, 2]);
        assert_eq!(o.interested_count(0, 0), 1, "source excluded");
        assert_eq!(o.interested_count(0, 1), 2, "non-liker exclusion is free");
    }

    #[test]
    fn clone_mirrors_reference() {
        let mut o = oracle();
        let j = o.add_clone_of(1);
        assert_eq!(j, 3);
        assert_eq!(o.n_nodes(), 4);
        assert!(o.likes(j, 200));
        assert!(!o.likes(j, 100));
        assert_eq!(o.interested(1), vec![1, 2, 3]);
    }

    #[test]
    fn swap_exchanges_interests() {
        let mut o = oracle();
        o.swap_interests(0, 1);
        assert!(o.likes(0, 200));
        assert!(!o.likes(0, 100));
        assert!(o.likes(1, 100));
    }

    #[test]
    fn restore_refuses_rows_and_items_past_the_store() {
        let o = oracle();
        let parts = |alias: Vec<u32>, map: ItemIndexMap| {
            Oracle::restore(o.store().clone(), map, alias).map(|r| r.alias().to_vec())
        };
        let map = || ItemIndexMap::clone(o.id_map());
        assert_eq!(parts(vec![2, 2, 0], map()), Some(vec![2, 2, 0]));
        assert_eq!(parts(vec![0, 3], map()), None, "row 3 of 3");
        let past = ItemIndexMap::from_iter([(100u64, 2u32)]);
        assert_eq!(parts(vec![0], past), None, "item 2 of 2");
    }
}
