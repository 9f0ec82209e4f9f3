//! One deployed peer: the sans-io `WhatsUpNode` with the wire codec on both
//! sides of it and per-protocol traffic accounting.
//!
//! Everything a peer does not own comes from its executor
//! (`whatsup_sim::Runner::deploy`): the RNG each call draws from, the
//! ground-truth opinions a news reception consults, which received frames a
//! lossy network drops, and when the peer ticks. A [`Peer`] only turns
//! frames into protocol calls and protocol output back into frames.

use crate::codec;
use crate::stats::TrafficStats;
use bytes::Bytes;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use whatsup_core::{
    ItemId, NewsItem, NodeId, NodeStats, Opinions, OutMessage, Payload, WhatsUpNode,
};

/// One peer: protocol node + codec + traffic accounting.
pub struct Peer {
    node: WhatsUpNode,
    /// Protocol counters (the node itself stores none — see
    /// [`WhatsUpNode`]'s SoA contract).
    stats: NodeStats,
    traffic: Arc<TrafficStats>,
    /// News content this peer can forward: the wire carries items as
    /// content, so a peer learns them from its own publications and from
    /// the news frames it receives, like any real receiver.
    items: HashMap<ItemId, NewsItem>,
}

impl Peer {
    pub fn new(node: WhatsUpNode, traffic: Arc<TrafficStats>) -> Self {
        Self {
            node,
            stats: NodeStats::default(),
            traffic,
            items: HashMap::new(),
        }
    }

    pub fn node(&self) -> &WhatsUpNode {
        &self.node
    }

    /// One gossip cycle at logical time `now`.
    pub fn tick(&mut self, now: u32, rng: &mut impl Rng) -> Vec<(NodeId, Bytes)> {
        let out = self.node.on_cycle(now, &mut self.stats, rng);
        self.encode_all(out)
    }

    /// Publishes `item` (this peer is its source).
    pub fn publish(
        &mut self,
        item: &NewsItem,
        now: u32,
        rng: &mut impl Rng,
    ) -> Vec<(NodeId, Bytes)> {
        self.items.insert(item.id(), item.clone());
        let out = self.node.publish(item, now, &mut self.stats, rng);
        self.encode_all(out)
    }

    /// Decodes one received frame into `(sender, payload)`. `None` for any
    /// frame the codec rejects — truncated, a non-finite score, a
    /// shard-exchange bundle (a simulator batch, never a peer datagram) —
    /// which is then dropped, never answered: robustness over crash.
    pub fn decode(&mut self, frame: &[u8]) -> Option<(NodeId, Payload)> {
        let (from, payload, item) = codec::decode(frame).ok()?;
        if let Some(item) = item {
            self.items.entry(item.id()).or_insert(item);
        }
        Some((from, payload))
    }

    /// Hands one decoded message to the node and encodes its replies and
    /// forwards.
    pub fn handle(
        &mut self,
        from: NodeId,
        payload: Payload,
        now: u32,
        opinions: &impl Opinions,
        rng: &mut impl Rng,
    ) -> Vec<(NodeId, Bytes)> {
        let out = self
            .node
            .on_message(from, payload, now, opinions, &mut self.stats, rng);
        self.encode_all(out)
    }

    fn encode_all(&self, out: Vec<OutMessage>) -> Vec<(NodeId, Bytes)> {
        let id = self.node.id();
        out.into_iter()
            .filter_map(|m| {
                let kind = m.payload.kind();
                match codec::encode(id, &m.payload, |item| self.items.get(&item).cloned()) {
                    Ok(bytes) => {
                        self.traffic.record(kind, bytes.len());
                        Some((m.to, bytes))
                    }
                    Err(e) => {
                        // An oversized frame is a configuration error
                        // (gigantic profile window); drop loudly.
                        eprintln!("peer {id}: dropping frame: {e}");
                        None
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use whatsup_core::{Params, Profile};

    const N: NodeId = 6;

    /// `N` peers, each knowing every other one in both views.
    fn peers() -> Vec<Peer> {
        let traffic = Arc::new(TrafficStats::new());
        let items = Arc::default();
        (0..N)
            .map(|id| {
                let mut node = WhatsUpNode::new(id, Params::whatsup(3), Arc::clone(&items));
                let others = || {
                    (0..N)
                        .filter(move |&c| c != id)
                        .map(|c| (c, Profile::new()))
                };
                node.seed_views(others(), others());
                Peer::new(node, Arc::clone(&traffic))
            })
            .collect()
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn corrupt_and_bundle_frames_do_not_decode() {
        let mut peer = peers().remove(0);
        assert!(peer.decode(&[0xff, 0x01]).is_none());
        // A shard-exchange bundle is not a peer-level datagram: a confused
        // or malicious sender must not smuggle a batch past the
        // per-message path.
        let inner = vec![(0u32, 7u32, Payload::RpsRequest(vec![]))];
        assert!(peer
            .decode(&codec::encode_bundle(0, &inner, |_| None))
            .is_none());
    }

    #[test]
    fn gossip_round_trips_between_peers_and_is_accounted() {
        let mut peers = peers();
        let requests = peers[0].tick(0, &mut rng());
        assert!(!requests.is_empty());
        let mut responses = Vec::new();
        for (to, frame) in requests {
            let (from, payload) = peers[to as usize].decode(&frame).expect("a valid frame");
            assert_eq!(from, 0);
            let nobody = |_: NodeId, _: ItemId| false;
            responses.extend(peers[to as usize].handle(from, payload, 0, &nobody, &mut rng()));
        }
        assert!(!responses.is_empty(), "gossip requests produce responses");
        let traffic = peers[0].traffic.snapshot();
        assert_eq!(traffic.total_msgs() as usize, 2 * responses.len());
    }

    #[test]
    fn a_receiver_learns_news_content_and_can_forward_it() {
        let mut peers = peers();
        let item = NewsItem::new("t", "d", "https://l", 0, 1);
        let frames = peers[0].publish(&item, 1, &mut rng());
        let (to, frame) = frames.first().expect("the source has neighbours");
        let receiver = &mut peers[*to as usize];
        let (from, payload) = receiver.decode(frame).expect("a valid frame");
        let everyone = |_: NodeId, _: ItemId| true;
        let forwards = receiver.handle(from, payload, 1, &everyone, &mut rng());
        assert!(receiver.node().has_seen(item.id()));
        // Forwarding needs the content the wire carried in.
        assert!(!forwards.is_empty());
        for (_, frame) in &forwards {
            assert!(matches!(
                codec::decode(frame),
                Ok((_, Payload::News(_), Some(fwd))) if fwd == item
            ));
        }
    }
}
