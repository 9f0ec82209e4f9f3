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
use whatsup_core::{ItemId, ItemIndexMap, NodeId, Opinions, Timestamp};
use whatsup_datasets::LikeMatrix;

/// Ground-truth oracle mapping protocol-level ids to dataset rows/columns.
///
/// Everything immutable is shared (`Arc`): the like matrix and the run's
/// item index, so the sharded engine hands every shard in the process the
/// *same* copy, and every node the index with it ([`Oracle::id_map`]).
/// The alias vector is logically per-clone but copy-on-write: lockstep
/// runs without joins or interest swaps never materialize a second copy.
#[derive(Debug, Clone)]
pub struct Oracle {
    likes: Arc<LikeMatrix>,
    /// The run's item index: content hash → dataset item index, and each
    /// item's creation time.
    id_to_index: Arc<ItemIndexMap>,
    /// Node → matrix row (identity for the initial population).
    alias: Arc<Vec<u32>>,
}

impl Oracle {
    /// The oracle of a run's initial population over `matrix`.
    pub fn new(matrix: LikeMatrix, id_to_index: ItemIndexMap) -> Self {
        let alias = (0..matrix.n_users() as u32).collect();
        Self {
            likes: Arc::new(matrix),
            id_to_index: Arc::new(id_to_index),
            alias: Arc::new(alias),
        }
    }

    /// Rebuilds an oracle from serialized parts, preserving a non-identity
    /// alias (shard-worker init and checkpoint path). `ids` is the item
    /// index as the encoder writes it, in strictly ascending id order, and
    /// `created` the creation time of each of its items, in that order.
    /// `None` unless `ids` is that, one-to-one (planes and seen sets number
    /// items by it: two ids on one index would pass for each other) and
    /// within the matrix, `created` is as long, and every alias entry names
    /// a matrix row.
    pub(crate) fn restore(
        likes: LikeMatrix,
        ids: Vec<(ItemId, u32)>,
        created: Vec<Timestamp>,
        alias: Vec<u32>,
    ) -> Option<Self> {
        let mut indices: Vec<usize> = ids.iter().map(|&(_, i)| i as usize).collect();
        indices.sort_unstable();
        let valid = ids.windows(2).all(|w| w[0].0 < w[1].0)
            && indices.windows(2).all(|w| w[0] < w[1])
            && indices.last().is_none_or(|&i| i < likes.n_items())
            && created.len() == ids.len()
            && alias.iter().all(|&r| (r as usize) < likes.n_users());
        let index = ids.into_iter().zip(created);
        valid.then(|| Self {
            likes: Arc::new(likes),
            id_to_index: Arc::new(index.map(|((id, slot), t)| (id, slot, t)).collect()),
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

    /// The shared like matrix.
    pub fn matrix(&self) -> &LikeMatrix {
        &self.likes
    }

    /// Dataset index of an item id, if known.
    pub fn index_of(&self, item: ItemId) -> Option<u32> {
        self.id_to_index.get(&item).copied()
    }

    /// Ground-truth opinion by dataset item *index*.
    pub fn likes_index(&self, node: NodeId, index: u32) -> bool {
        let row = self.alias[node as usize] as usize;
        self.likes.likes(row, index as usize)
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
    pub(crate) fn add_clone_of(&mut self, reference: NodeId) -> NodeId {
        let row = self.alias[reference as usize];
        let alias = Arc::make_mut(&mut self.alias);
        alias.push(row);
        (alias.len() - 1) as NodeId
    }

    /// Swaps the interests of two nodes (§V-C's "changing node" experiment).
    pub(crate) fn swap_interests(&mut self, a: NodeId, b: NodeId) {
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
        let map = ItemIndexMap::from_iter([(100u64, 0u32, 3), (200u64, 1u32, 5)]);
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
    fn restore_refuses_rows_items_and_indices_the_encoder_never_writes() {
        let o = oracle();
        let parts = |alias: Vec<u32>, ids: &[(u64, u32)]| {
            let created = vec![0; ids.len()];
            Oracle::restore(o.matrix().clone(), ids.to_vec(), created, alias)
                .map(|r| r.alias().to_vec())
        };
        let ids = [(100, 0), (200, 1)];
        assert_eq!(parts(vec![2, 2, 0], &ids), Some(vec![2, 2, 0]));
        assert_eq!(parts(vec![0], &[]), Some(vec![0]), "an empty index");
        assert_eq!(parts(vec![0, 3], &ids), None, "row 3 of 3");
        let refused: [(&[(u64, u32)], &str); 4] = [
            (&[(100, 2)], "item 2 of 2"),
            (&[(100, 1), (200, 1)], "two ids, one index"),
            (&[(200, 1), (100, 0)], "ids descending"),
            (&[(100, 0), (100, 1)], "one id twice"),
        ];
        for (ids, what) in refused {
            assert_eq!(parts(vec![0], ids), None, "{what}");
        }
        let restore = |created: &[Timestamp]| {
            Oracle::restore(
                o.matrix().clone(),
                ids.to_vec(),
                created.to_vec(),
                vec![0, 1, 2],
            )
        };
        let restored = restore(&[3, 5]).map(|r| r.id_map().clone());
        assert_eq!(restored, Some(o.id_map().clone()));
        let created = restored.map(|index| [index.created_at(0), index.created_at(1)]);
        assert_eq!(created, Some([3, 5]), "every slot its creation time");
        for created in [&[3][..], &[3, 5, 5]] {
            assert!(restore(created).is_none(), "{created:?}: not one per id");
        }
    }
}
