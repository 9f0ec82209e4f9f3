//! Digest-side reconciliation: deciding, per owner, which versions a peer
//! is missing from the `(incarnation, max_version)` lines it advertised.

use super::state::NodeRecord;
use whatsup_core::NodeId;
use whatsup_net::codec::DigestLine;

/// Lookup over a received digest. Digest lines arrive sorted by node id
/// (the sender builds them that way); a node absent from the digest is
/// treated as `(0, 0)` — the receiver knows nothing about it, which is
/// exactly how late joiners become visible.
#[derive(Debug, Clone, Copy)]
pub struct DigestIndex<'a> {
    lines: &'a [DigestLine],
}

impl<'a> DigestIndex<'a> {
    pub fn new(lines: &'a [DigestLine]) -> Self {
        debug_assert!(
            lines.is_sorted_by(|a, b| a.node < b.node),
            "digest lines must be sorted by node"
        );
        DigestIndex { lines }
    }

    /// The advertised `(incarnation, max_version)` for `node`.
    fn advertised(&self, node: NodeId) -> (u32, u64) {
        let found = self.lines.binary_search_by_key(&node, |l| l.node).ok();
        found
            .and_then(|i| self.lines.get(i))
            .map_or((0, 0), |l| (l.incarnation, l.max_version))
    }

    /// The version floor to send from for `rec` (owned by `node`):
    /// `Some(after)` means "send every entry with `version > after`",
    /// `None` means the peer is already as fresh as (or fresher than) us.
    pub(crate) fn version_floor(&self, node: NodeId, rec: &NodeRecord) -> Option<u64> {
        let (inc, max_version) = self.advertised(node);
        if rec.incarnation > inc {
            // The peer holds a dead incarnation: resend everything.
            (rec.max_version > 0).then_some(0)
        } else if rec.incarnation == inc && rec.max_version > max_version {
            Some(max_version)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::Replica;
    use super::*;

    #[test]
    fn floors_follow_incarnation_then_version() {
        let mut r = Replica::new(2);
        r.set_heartbeat(0, 1);
        r.set_heartbeat(0, 2);
        let rec = &r.records[0];
        let line = |incarnation, max_version| {
            vec![DigestLine {
                node: 0,
                incarnation,
                max_version,
            }]
        };
        // Peer is behind on versions: send from its max.
        let lines = line(0, 1);
        assert_eq!(DigestIndex::new(&lines).version_floor(0, rec), Some(1));
        // Peer is current: nothing to send.
        let lines = line(0, 2);
        assert_eq!(DigestIndex::new(&lines).version_floor(0, rec), None);
        // Peer holds a dead incarnation: full resend.
        let mut rejoined = r.clone();
        rejoined.records[0].incarnation = 1;
        let lines = line(0, 99);
        assert_eq!(
            DigestIndex::new(&lines).version_floor(0, &rejoined.records[0]),
            Some(0)
        );
        // Peer is a fresher incarnation than us: we have nothing for it.
        let lines = line(2, 0);
        assert_eq!(DigestIndex::new(&lines).version_floor(0, rec), None);
        // Node absent from the digest counts as (0, 0).
        let empty: Vec<DigestLine> = Vec::new();
        assert_eq!(DigestIndex::new(&empty).version_floor(0, rec), Some(0));
    }
}
