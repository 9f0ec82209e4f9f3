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
/// dataset index) before cycle 0. One map per run, shared by `Arc`: the
/// oracle resolves ids through it, and every node numbers the bit planes
/// of its profiles by it (see `crate::planes`).
// lint:allow(det-map) BuildIdHasher keys, probe-only; serialization sorts the pairs first
pub type ItemIndexMap = std::collections::HashMap<ItemId, u32, crate::hash::BuildIdHasher>;

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
