//! Versioned per-node state and the replica each node keeps of it.
//!
//! Only the owner ever writes new versions of its record — everyone else
//! replicates it verbatim through deltas. That single-writer rule is what
//! makes `(incarnation, version)` a total order per owner and the digest a
//! complete summary: "send me everything of yours newer than v".

use std::collections::BTreeMap;
use whatsup_core::NodeId;
use whatsup_net::codec::{DeltaEntry, DeltaValue, DigestLine};

/// One owner's versioned state as replicated across the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeRecord {
    /// Bumped every time the owner rejoins after a crash; a higher
    /// incarnation replaces the record wholesale.
    pub incarnation: u32,
    /// `(version, cycle stamp)` of the owner's latest heartbeat.
    pub heartbeat: Option<(u64, u32)>,
    /// `(version, digest)` of the owner's interest profile.
    pub profile: Option<(u64, u64)>,
    /// Owned news keys: item index → `(version, publication cycle)`.
    pub news: BTreeMap<u32, (u64, u32)>,
    /// Highest version present in this copy of the record (the digest
    /// line; for a partial copy this is the resume point).
    pub max_version: u64,
}

impl NodeRecord {
    /// All entries with `version > after`, ascending by version, as wire
    /// entries for owner `node`. Ascending order is the convergence
    /// invariant: a budget cut mid-list leaves `max_version` at exactly
    /// the last applied entry, so the next digest resumes from the cut.
    pub(crate) fn entries_after(&self, node: NodeId, after: u64) -> Vec<DeltaEntry> {
        let mut out = Vec::new();
        if let Some((v, cycle)) = self.heartbeat {
            if v > after {
                out.push(self.entry(node, v, DeltaValue::Heartbeat(cycle)));
            }
        }
        if let Some((v, digest)) = self.profile {
            if v > after {
                out.push(self.entry(node, v, DeltaValue::ProfileDigest(digest)));
            }
        }
        for (&item, &(v, published_at)) in &self.news {
            if v > after {
                out.push(self.entry(node, v, DeltaValue::NewsKey { item, published_at }));
            }
        }
        out.sort_unstable_by_key(|e| e.version);
        out
    }

    fn entry(&self, node: NodeId, version: u64, value: DeltaValue) -> DeltaEntry {
        DeltaEntry {
            node,
            incarnation: self.incarnation,
            version,
            value,
        }
    }
}

/// One node's replica of the whole population's records, plus its own
/// version counter (for the record it owns).
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Indexed by owner id; missing/default = nothing known yet.
    pub records: Vec<NodeRecord>,
    /// The owner-side version counter for this replica's own record.
    pub next_version: u64,
}

impl Replica {
    /// Fresh replica knowing nothing (all records empty at incarnation 0).
    pub fn new(n: usize) -> Self {
        Replica {
            records: vec![NodeRecord::default(); n],
            next_version: 0,
        }
    }

    fn record_mut(&mut self, node: NodeId) -> &mut NodeRecord {
        let idx = node as usize;
        if idx >= self.records.len() {
            self.records.resize(idx + 1, NodeRecord::default());
        }
        &mut self.records[idx]
    }

    /// Allocates the next version of this replica's own record.
    pub(crate) fn bump(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    /// Owner-side write: stamps the own record's heartbeat at `cycle`.
    pub fn set_heartbeat(&mut self, own: NodeId, cycle: u32) {
        let v = self.bump();
        let rec = self.record_mut(own);
        rec.heartbeat = Some((v, cycle));
        rec.max_version = v;
    }

    /// Owner-side write: publishes the own profile digest.
    pub fn set_profile(&mut self, own: NodeId, digest: u64) {
        let v = self.bump();
        let rec = self.record_mut(own);
        rec.profile = Some((v, digest));
        rec.max_version = v;
    }

    /// Owner-side write: inserts (or re-inserts after a crash) a news key.
    pub fn insert_news(&mut self, own: NodeId, item: u32, published_at: u32) {
        let v = self.bump();
        let rec = self.record_mut(own);
        rec.news.insert(item, (v, published_at));
        rec.max_version = v;
    }

    /// The digest over every node this replica knows of (`0..n`): the
    /// highest `(incarnation, version)` held per owner. `n` is the current
    /// population so late joiners are advertised as `(0, 0)` and peers
    /// fill them in.
    pub fn digest(&self, n: usize) -> Vec<DigestLine> {
        (0..n)
            .map(|id| {
                let rec = self.records.get(id);
                DigestLine {
                    node: id as NodeId,
                    incarnation: rec.map_or(0, |r| r.incarnation),
                    max_version: rec.map_or(0, |r| r.max_version),
                }
            })
            .collect()
    }

    /// Applies one delta entry; returns `true` if the entry was new (and
    /// therefore mutated the replica). Entries for `own` are ignored —
    /// the owner is the single writer of its record.
    pub fn apply(&mut self, own: NodeId, e: &DeltaEntry) -> bool {
        if e.node == own {
            return false;
        }
        let rec = self.record_mut(e.node);
        if e.incarnation < rec.incarnation {
            return false;
        }
        if e.incarnation > rec.incarnation {
            // The owner rejoined: its old record is dead state.
            *rec = NodeRecord {
                incarnation: e.incarnation,
                ..NodeRecord::default()
            };
        }
        let newer = match e.value {
            DeltaValue::Heartbeat(cycle) => {
                if rec.heartbeat.is_none_or(|(v, _)| e.version > v) {
                    rec.heartbeat = Some((e.version, cycle));
                    true
                } else {
                    false
                }
            }
            DeltaValue::ProfileDigest(digest) => {
                if rec.profile.is_none_or(|(v, _)| e.version > v) {
                    rec.profile = Some((e.version, digest));
                    true
                } else {
                    false
                }
            }
            DeltaValue::NewsKey { item, published_at } => {
                let slot = rec.news.get(&item);
                if slot.is_none_or(|&(v, _)| e.version > v) {
                    rec.news.insert(item, (e.version, published_at));
                    true
                } else {
                    false
                }
            }
        };
        if newer {
            rec.max_version = rec.max_version.max(e.version);
        }
        newer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_writes_are_monotone_and_digested() {
        let mut r = Replica::new(3);
        r.set_heartbeat(1, 0);
        r.set_profile(1, 0xabcd);
        r.insert_news(1, 7, 2);
        let d = r.digest(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d[1].max_version, 3);
        assert_eq!(d[0].max_version, 0);
        let entries = r.records[1].entries_after(1, 0);
        assert_eq!(entries.len(), 3);
        assert!(entries.windows(2).all(|w| w[0].version < w[1].version));
        assert_eq!(r.records[1].entries_after(1, 2).len(), 1);
    }

    #[test]
    fn apply_is_idempotent_and_version_gated() {
        let mut owner = Replica::new(2);
        owner.set_heartbeat(0, 5);
        let entries = owner.records[0].entries_after(0, 0);
        let mut peer = Replica::new(2);
        assert!(peer.apply(1, &entries[0]));
        assert!(!peer.apply(1, &entries[0]), "re-apply must be a no-op");
        assert_eq!(peer.records[0].heartbeat, Some((1, 5)));
        // Own record is never writable through deltas.
        assert!(!peer.apply(0, &entries[0]));
    }

    #[test]
    fn higher_incarnation_replaces_the_record() {
        let mut peer = Replica::new(2);
        peer.apply(
            1,
            &DeltaEntry {
                node: 0,
                incarnation: 0,
                version: 9,
                value: DeltaValue::NewsKey {
                    item: 3,
                    published_at: 1,
                },
            },
        );
        assert_eq!(peer.records[0].max_version, 9);
        // Incarnation 1 arrives: the old news key is dead state.
        peer.apply(
            1,
            &DeltaEntry {
                node: 0,
                incarnation: 1,
                version: 1,
                value: DeltaValue::Heartbeat(4),
            },
        );
        assert_eq!(peer.records[0].incarnation, 1);
        assert_eq!(peer.records[0].max_version, 1);
        assert!(peer.records[0].news.is_empty());
        // Stale incarnation-0 entries are ignored from now on.
        assert!(!peer.apply(
            1,
            &DeltaEntry {
                node: 0,
                incarnation: 0,
                version: 10,
                value: DeltaValue::Heartbeat(2),
            }
        ));
    }
}
