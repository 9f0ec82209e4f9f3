//! Property tests pinning [`SeenSet`] to the plain `Vec` dedup it
//! replaced: for every receive order — duplicates, ids the item index
//! numbers (the bitset) and ids it does not (the spill), interleaved
//! probes — `insert`/`contains`/`len` must answer exactly like a
//! linear-scan `Vec<ItemId>`, and the sorted export must be the sorted
//! dedup of the input. The engine's SIR dedup (and therefore every
//! report) rides on this equivalence.

use proptest::prelude::*;
use std::sync::Arc;
use whatsup_core::seen::SeenSet;
use whatsup_core::{ItemId, ItemIndexMap, NodeState, Params, WhatsUpNode};

/// An index numbering the ids of `0..universe` whose flag in `known` is
/// set, in an order `salt` scrambles — so slots are not the ids' order.
fn index_of(universe: u64, known: &[bool], salt: u64) -> ItemIndexMap {
    let mut ids: Vec<ItemId> = (0..universe).filter(|&id| known[id as usize]).collect();
    ids.sort_by_key(|&id| (id ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    ids.into_iter().zip(0..).collect()
}

/// Feeds `ids` to `seen` and `reference` alike, checking every answer.
fn receive(seen: &mut SeenSet, reference: &mut Vec<ItemId>, ids: &[ItemId], index: &ItemIndexMap) {
    for &id in ids {
        let fresh_ref = !reference.contains(&id);
        if fresh_ref {
            reference.push(id);
        }
        let before = seen.capacity_bytes();
        prop_assert_eq!(seen.insert(id, index), fresh_ref);
        prop_assert!(seen.contains(id, index));
        if !index.contains_key(&id) {
            // An unknown id costs one spill entry and never a bitset word.
            let spilled = if fresh_ref {
                std::mem::size_of::<ItemId>()
            } else {
                0
            };
            prop_assert_eq!(seen.capacity_bytes(), before + spilled);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random receive orders over a small id universe (high duplicate
    /// rate) that the index covers in part: every answer matches the Vec
    /// dedup, whether the bitset or the spill gives it.
    #[test]
    fn matches_vec_dedup_across_receive_orders(
        ids in prop::collection::vec(0u64..200, 0..400),
        known in prop::collection::vec(prop::bool::ANY, 200..201),
        salt in 0u64..u64::MAX,
    ) {
        let index = index_of(200, &known, salt);
        let mut reference: Vec<ItemId> = Vec::new();
        let mut seen = SeenSet::new();
        receive(&mut seen, &mut reference, &ids, &index);
        prop_assert_eq!(seen.len(), reference.len());
        prop_assert_eq!(seen.is_empty(), reference.is_empty());
        for probe in 0..200u64 {
            prop_assert_eq!(seen.contains(probe, &index), reference.contains(&probe));
        }
        let mut sorted = reference;
        sorted.sort_unstable();
        prop_assert_eq!(seen.to_sorted_vec(&index), sorted);
    }

    /// Sparse ids (few duplicates) and a checkpoint round-trip mid-stream:
    /// the rebuilt set continues identically.
    #[test]
    fn checkpoint_roundtrip_preserves_equivalence(
        before in prop::collection::vec(0u64..2_000, 0..120),
        after in prop::collection::vec(0u64..2_000, 0..120),
        known in prop::collection::vec(prop::bool::ANY, 2_000..2_001),
        salt in 0u64..u64::MAX,
    ) {
        let index = index_of(2_000, &known, salt);
        let mut reference: Vec<ItemId> = Vec::new();
        let mut seen = SeenSet::new();
        receive(&mut seen, &mut reference, &before, &index);
        // The NodeState checkpoint form: sorted export, rebuild.
        let mut seen = SeenSet::from_sorted(seen.to_sorted_vec(&index), &index);
        receive(&mut seen, &mut reference, &after, &index);
        prop_assert_eq!(seen.len(), reference.len());
        let mut sorted = reference;
        sorted.sort_unstable();
        prop_assert_eq!(seen.to_sorted_vec(&index), sorted);
    }

    /// A node's seen ids survive `export_state` → `from_state` as the
    /// ascending list, and the rebuilt node answers `has_seen` like it.
    #[test]
    fn node_state_roundtrip_keeps_the_seen_ids(
        seen in prop::collection::btree_set(0u64..300, 0..150),
        known in prop::collection::vec(prop::bool::ANY, 300..301),
        salt in 0u64..u64::MAX,
    ) {
        let index = Arc::new(index_of(300, &known, salt));
        let state = NodeState {
            profile: Vec::new(),
            rps_view: Vec::new(),
            wup_view: Vec::new(),
            seen: seen.iter().copied().collect(),
        };
        let node = WhatsUpNode::from_state(3, Params::whatsup(2), Arc::clone(&index), state.clone());
        prop_assert_eq!(&node.export_state(), &state);
        let again = WhatsUpNode::from_state(3, Params::whatsup(2), index, node.export_state());
        for probe in 0..300u64 {
            prop_assert_eq!(node.has_seen(probe), seen.contains(&probe));
            prop_assert_eq!(again.has_seen(probe), seen.contains(&probe));
        }
    }
}
