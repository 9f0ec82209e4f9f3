//! News items (paper §II-A).
//!
//! A news item is a title, a short description and a link. Its source stamps
//! it with a creation timestamp and a dislike counter initialized to zero.
//! The item is identified by an 8-byte hash of its content, computed — not
//! transmitted — by every node that receives it.

use crate::hash::Fnv1a;

/// 8-byte content identifier of a news item (§II-A).
pub type ItemId = u64;

/// The run's item index: every item id of a run, numbered densely (the
/// dataset index) before cycle 0. One index per run, shared by `Arc`: the
/// oracle resolves ids through it, and every node numbers the bit planes
/// of its profiles by it (see `crate::planes`). It reads as its id → slot
/// map; beside it, two columns by slot — the id and the creation time its
/// source stamped the item with — turn a packed snapshot's planes back
/// into ⟨id, t, s⟩ entries (see `crate::profile`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemIndexMap {
    slots: Slots,
    /// The id, and the creation time, of each slot given out; `0` where
    /// none was.
    ids: Vec<ItemId>,
    created: Vec<Timestamp>,
}

impl ItemIndexMap {
    /// The id numbered `slot`; only asked of slots the index gave out.
    pub(crate) fn id_of(&self, slot: u32) -> ItemId {
        self.ids[slot as usize]
    }

    /// When the item numbered `slot` was created; only asked of given slots.
    pub fn created_at(&self, slot: u32) -> Timestamp {
        self.created[slot as usize]
    }
}

// lint:allow(det-map) BuildIdHasher keys, probe-only; serialization sorts the pairs first
type Slots = std::collections::HashMap<ItemId, u32, crate::hash::BuildIdHasher>;

impl std::ops::Deref for ItemIndexMap {
    type Target = Slots;

    fn deref(&self) -> &Self::Target {
        &self.slots
    }
}

/// `(id, slot, creation time)` triples; a later triple for an id or a
/// slot replaces an earlier one.
impl FromIterator<(ItemId, u32, Timestamp)> for ItemIndexMap {
    fn from_iter<I: IntoIterator<Item = (ItemId, u32, Timestamp)>>(triples: I) -> Self {
        let mut index = Self::default();
        for (id, slot, t) in triples {
            let (at, len) = (slot as usize, index.ids.len().max(slot as usize + 1));
            index.ids.resize(len, 0);
            index.created.resize(len, 0);
            (index.ids[at], index.created[at]) = (id, t);
            index.slots.insert(id, slot);
        }
        index
    }
}

/// `(id, slot)` pairs, every item created at time `0`.
impl FromIterator<(ItemId, u32)> for ItemIndexMap {
    fn from_iter<I: IntoIterator<Item = (ItemId, u32)>>(pairs: I) -> Self {
        pairs.into_iter().map(|(id, slot)| (id, slot, 0)).collect()
    }
}

/// Logical time. In simulation this is the gossip-cycle index; in the
/// network runtimes it is coarse wall-clock ticks of one gossip period.
pub type Timestamp = u32;

/// A full news item as published by its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewsItem {
    pub title: String,
    pub description: String,
    pub link: String,
    /// The publishing node.
    pub source: u32,
    /// Creation time set by the source.
    pub created_at: Timestamp,
}

impl NewsItem {
    pub fn new(
        title: impl Into<String>,
        description: impl Into<String>,
        link: impl Into<String>,
        source: u32,
        created_at: Timestamp,
    ) -> Self {
        Self {
            title: title.into(),
            description: description.into(),
            link: link.into(),
            source,
            created_at,
        }
    }

    /// The 8-byte identifier: an FNV-1a digest over all content fields.
    /// Field-prefixed so that moving bytes between fields changes the id.
    pub fn id(&self) -> ItemId {
        let mut h = Fnv1a::new();
        h.update_field(self.title.as_bytes())
            .update_field(self.description.as_bytes())
            .update_field(self.link.as_bytes())
            .update_field(&self.source.to_le_bytes())
            .update_field(&self.created_at.to_le_bytes());
        h.finish()
    }

    /// The compact header that travels with every copy.
    pub fn header(&self) -> ItemHeader {
        ItemHeader {
            id: self.id(),
            created_at: self.created_at,
        }
    }
}

/// The `<idI, tI>` pair of Algorithms 1–2: what dissemination actually
/// manipulates once the content has been hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItemHeader {
    pub id: ItemId,
    pub created_at: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> NewsItem {
        NewsItem::new("title", "desc", "https://x", 3, 17)
    }

    #[test]
    fn id_is_stable() {
        assert_eq!(item().id(), item().id());
    }

    #[test]
    fn id_depends_on_every_field() {
        let base = item();
        let mut v = item();
        v.title = "other".into();
        assert_ne!(base.id(), v.id());
        let mut v = item();
        v.description = "other".into();
        assert_ne!(base.id(), v.id());
        let mut v = item();
        v.link = "https://y".into();
        assert_ne!(base.id(), v.id());
        let mut v = item();
        v.source = 4;
        assert_ne!(base.id(), v.id());
        let mut v = item();
        v.created_at = 18;
        assert_ne!(base.id(), v.id());
    }

    #[test]
    fn header_carries_id_and_time() {
        let h = item().header();
        assert_eq!(h.id, item().id());
        assert_eq!(h.created_at, 17);
    }

    #[test]
    fn field_shifting_changes_id() {
        let a = NewsItem::new("ab", "c", "l", 0, 0);
        let b = NewsItem::new("a", "bc", "l", 0, 0);
        assert_ne!(a.id(), b.id());
    }
}
