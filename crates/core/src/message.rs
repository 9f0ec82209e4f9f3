//! Protocol messages: what a node emits and consumes.
//!
//! The sans-io node returns [`OutMessage`]s; the driving layer (simulator or
//! network runtime) is responsible for delivery, loss and latency.

use crate::item::ItemHeader;
use crate::profile::SharedProfile;
use whatsup_gossip::{Descriptor, NodeId};

/// A copy of a news item in flight (Algorithm 2's
/// `(<idI, tI>, P^I, dI)` triple).
///
/// `hops` is measurement instrumentation (Fig. 6 plots dissemination actions
/// by hop distance); it does not influence any forwarding decision.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsMessage {
    pub header: ItemHeader,
    /// The aggregated item profile, shared copy-on-write: fanning one
    /// reception out to `fLIKE` targets clones the `Arc`, not the entries;
    /// the next hop that actually aggregates builds a new one, folded in
    /// slot space from the liker's planes (`Profile::folded`) or merged
    /// flat ([`Profile::aggregated_with`]).
    pub profile: SharedProfile,
    /// Dislike counter `dI`.
    pub dislikes: u8,
    /// Hop distance from the source (0 at publication).
    pub hops: u16,
}

/// Wire payloads of the three protocols sharing the node.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// RPS push (half view + fresh self-descriptor).
    RpsRequest(Vec<Descriptor<SharedProfile>>),
    /// RPS pull reply.
    RpsResponse(Vec<Descriptor<SharedProfile>>),
    /// WUP clustering push (entire view + fresh self-descriptor).
    WupRequest(Vec<Descriptor<SharedProfile>>),
    /// WUP clustering pull reply.
    WupResponse(Vec<Descriptor<SharedProfile>>),
    /// BEEP news forward.
    News(NewsMessage),
}

impl Payload {
    /// Protocol family of this payload, for traffic accounting.
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::RpsRequest(_) | Payload::RpsResponse(_) => PayloadKind::Rps,
            Payload::WupRequest(_) | Payload::WupResponse(_) => PayloadKind::Wup,
            Payload::News(_) => PayloadKind::News,
        }
    }
}

/// Coarse message family used by the bandwidth and message-count metrics
/// (the paper reports WUP vs BEEP traffic separately, Fig. 8b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    Rps,
    Wup,
    News,
}

/// Stable wire identifiers shared by every transport that serializes
/// payloads (the `whatsup-net` codec and the simulator's shard-exchange
/// bundles). These are a compatibility contract: never renumber an existing
/// id, only append new ones.
pub mod wire {
    /// RPS push (half view + fresh self-descriptor).
    pub const RPS_REQUEST: u8 = 1;
    /// RPS pull reply.
    pub const RPS_RESPONSE: u8 = 2;
    /// WUP clustering push.
    pub const WUP_REQUEST: u8 = 3;
    /// WUP clustering pull reply.
    pub const WUP_RESPONSE: u8 = 4;
    /// BEEP news forward (full item content on the wire).
    pub const NEWS: u8 = 5;
    /// A mailbox bundle: a batch of addressed frames exchanged between
    /// engine shards. Not a protocol-level payload — bundles never nest and
    /// never reach a node.
    pub const MAILBOX_BUNDLE: u8 = 6;
    /// Anti-entropy digest: per-node `(incarnation, max version)` summary
    /// opening a scuttlebutt reconciliation round.
    pub const DIGEST: u8 = 7;
    /// Anti-entropy delta: versioned entries newer than the peer's digest,
    /// greedily packed to a datagram budget.
    pub const DELTA: u8 = 8;
}

impl Payload {
    /// The stable wire id of this payload's frame (see [`wire`]).
    pub fn wire_id(&self) -> u8 {
        match self {
            Payload::RpsRequest(_) => wire::RPS_REQUEST,
            Payload::RpsResponse(_) => wire::RPS_RESPONSE,
            Payload::WupRequest(_) => wire::WUP_REQUEST,
            Payload::WupResponse(_) => wire::WUP_RESPONSE,
            Payload::News(_) => wire::NEWS,
        }
    }
}

/// An outgoing message: destination plus payload. The sender id is implicit
/// (the node that returned it).
#[derive(Debug, Clone, PartialEq)]
pub struct OutMessage {
    pub to: NodeId,
    pub payload: Payload,
}

impl OutMessage {
    pub fn new(to: NodeId, payload: Payload) -> Self {
        Self { to, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    #[test]
    fn kinds_classify() {
        let news = Payload::News(NewsMessage {
            header: ItemHeader {
                id: 1,
                created_at: 0,
            },
            profile: SharedProfile::new(Profile::new()),
            dislikes: 0,
            hops: 0,
        });
        assert_eq!(news.kind(), PayloadKind::News);
        assert_eq!(Payload::RpsRequest(vec![]).kind(), PayloadKind::Rps);
        assert_eq!(Payload::RpsResponse(vec![]).kind(), PayloadKind::Rps);
        assert_eq!(Payload::WupRequest(vec![]).kind(), PayloadKind::Wup);
        assert_eq!(Payload::WupResponse(vec![]).kind(), PayloadKind::Wup);
    }

    #[test]
    fn wire_ids_are_stable_and_distinct() {
        let news = Payload::News(NewsMessage {
            header: ItemHeader {
                id: 1,
                created_at: 0,
            },
            profile: SharedProfile::new(Profile::new()),
            dislikes: 0,
            hops: 0,
        });
        let ids = [
            Payload::RpsRequest(vec![]).wire_id(),
            Payload::RpsResponse(vec![]).wire_id(),
            Payload::WupRequest(vec![]).wire_id(),
            Payload::WupResponse(vec![]).wire_id(),
            news.wire_id(),
        ];
        // Pinned values: renumbering is a wire-format break.
        assert_eq!(ids, [1, 2, 3, 4, 5]);
        assert_eq!(wire::MAILBOX_BUNDLE, 6);
        assert_eq!(wire::DIGEST, 7);
        assert_eq!(wire::DELTA, 8);
    }
}
