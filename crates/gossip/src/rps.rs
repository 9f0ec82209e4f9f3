//! Random peer sampling (paper §II, following Jelasity et al., ACM TOCS'07).
//!
//! Periodically each node selects the *oldest* entry in its RPS view, and
//! exchanges its own fresh descriptor plus *half of its view* with it
//! (push-pull). Both sides then renew their view with a uniform random
//! sample of the union of the old view and the received entries. The union
//! of RPS views approximates a continuously changing random graph, which is
//! what gives WhatsUp its connectivity and its serendipity reservoir (BEEP's
//! dislike path picks targets here).

use crate::view::{dedup_freshest, gather, Descriptor, NodeId, View};
use rand::seq::SliceRandom;
use rand::Rng;

/// RPS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpsConfig {
    /// View size (`RPSvs` in Table II; paper default 30).
    pub view_size: usize,
    /// Number of descriptors shipped per exchange; the paper ships half the
    /// view, which is the classic setting.
    pub exchange_len: usize,
}

impl Default for RpsConfig {
    fn default() -> Self {
        Self {
            view_size: 30,
            exchange_len: 15,
        }
    }
}

/// The per-node RPS protocol state machine.
#[derive(Debug, Clone)]
pub struct Rps<P> {
    id: NodeId,
    config: RpsConfig,
    view: View<P>,
}

impl<P: Clone> Rps<P> {
    pub fn new(id: NodeId, config: RpsConfig) -> Self {
        let view = View::new(config.view_size);
        Self { id, config, view }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn view(&self) -> &View<P> {
        &self.view
    }

    pub fn config(&self) -> &RpsConfig {
        &self.config
    }

    /// Seeds the view at bootstrap (contact-node inheritance, §II-D).
    pub fn seed(&mut self, descriptors: impl IntoIterator<Item = Descriptor<P>>) {
        for d in descriptors {
            if d.node != self.id {
                self.view.insert(d);
            }
        }
    }

    /// Starts one gossip round: ages the view, picks the oldest partner and
    /// builds the request payload (own fresh descriptor + half view).
    /// Returns `None` while the view is empty (isolated node).
    pub fn initiate(
        &mut self,
        own_payload: P,
        rng: &mut impl Rng,
    ) -> Option<(NodeId, Vec<Descriptor<P>>)> {
        self.view.age_all();
        let partner = self.view.oldest()?.node;
        let payload = self.exchange_payload(own_payload, rng);
        Some((partner, payload))
    }

    /// Handles an incoming request; merges and returns the response payload.
    pub fn on_request(
        &mut self,
        received: Vec<Descriptor<P>>,
        own_payload: P,
        rng: &mut impl Rng,
    ) -> Vec<Descriptor<P>> {
        let response = self.exchange_payload(own_payload, rng);
        self.merge(received, rng);
        response
    }

    /// Handles the response of an exchange this node initiated.
    pub fn on_response(&mut self, received: Vec<Descriptor<P>>, rng: &mut impl Rng) {
        self.merge(received, rng);
    }

    fn exchange_payload(&self, own_payload: P, rng: &mut impl Rng) -> Vec<Descriptor<P>> {
        let mut payload = self
            .view
            .sample(self.config.exchange_len.saturating_sub(1), rng);
        payload.push(Descriptor::fresh(self.id, own_payload));
        payload
    }

    /// "Keeping a random sample of the union of its own view and the received
    /// one" (§II) — with per-node dedup keeping the freshest descriptor.
    ///
    /// The union is deduplicated by reference and its survivors' positions
    /// are shuffled — a shuffle's draws depend only on the length, so they
    /// are those of shuffling the descriptors — then the sample moves out
    /// of the old view and `received`: the view of the cloning twin
    /// (`merge_by_cloning`, the merge as first written), without a clone.
    fn merge(&mut self, received: Vec<Descriptor<P>>, rng: &mut impl Rng) {
        let old = self.view.take_entries();
        let union: Vec<&Descriptor<P>> = old.iter().chain(&received).collect();
        let mut picks = dedup_freshest(union.iter().map(|d| (d.node, d.age)), self.id);
        picks.shuffle(rng);
        picks.truncate(self.config.view_size);
        self.view.replace_with(gather(old, received, &[], picks));
    }
}

#[cfg(test)]
impl<P: Clone> Rps<P> {
    /// [`Self::merge`] as it was first written — clone the union, dedup
    /// it, shuffle it, cut — kept as the executable statement of the view a
    /// merge must produce.
    fn merge_by_cloning(&mut self, received: Vec<Descriptor<P>>, rng: &mut impl Rng) {
        let union = self.view.entries().iter().cloned().chain(received);
        let mut deduped = crate::view::dedup_freshest_by_search(union, self.id);
        deduped.shuffle(rng);
        deduped.truncate(self.config.view_size);
        self.view.replace_with(deduped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::same_entries;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    /// A view of `view_size` that ships half of it per exchange.
    fn half_view(view_size: usize) -> RpsConfig {
        RpsConfig {
            view_size,
            exchange_len: (view_size / 2).max(1),
        }
    }

    fn descriptors(ids: &[NodeId]) -> Vec<Descriptor<u8>> {
        ids.iter().map(|&i| Descriptor::fresh(i, 0)).collect()
    }

    #[test]
    fn empty_view_cannot_initiate() {
        let mut rps: Rps<u8> = Rps::new(0, RpsConfig::default());
        assert!(rps.initiate(0, &mut rng()).is_none());
    }

    #[test]
    fn seed_excludes_self() {
        let mut rps: Rps<u8> = Rps::new(1, half_view(4));
        rps.seed(descriptors(&[1, 2, 3]));
        assert!(!rps.view().contains(1));
        assert_eq!(rps.view().len(), 2);
    }

    #[test]
    fn initiate_targets_oldest_and_ships_self() {
        let mut rps: Rps<u8> = Rps::new(0, half_view(4));
        rps.seed(descriptors(&[1, 2]));
        // Age node 1 artificially by two extra rounds of no contact with 2:
        // insert 2 freshly again after aging once.
        rps.view.age_all();
        rps.view.insert(Descriptor::fresh(2, 0));
        let (partner, payload) = rps.initiate(7, &mut rng()).unwrap();
        assert_eq!(partner, 1);
        assert!(payload
            .iter()
            .any(|d| d.node == 0 && d.age == 0 && d.payload == 7));
        assert!(payload.len() <= rps.config().exchange_len);
    }

    #[test]
    fn merge_keeps_view_bounded_and_random() {
        let mut rps: Rps<u8> = Rps::new(
            0,
            RpsConfig {
                view_size: 4,
                exchange_len: 2,
            },
        );
        rps.seed(descriptors(&[1, 2, 3, 4]));
        rps.on_response(descriptors(&[5, 6, 7, 8]), &mut rng());
        assert_eq!(rps.view().len(), 4);
        for id in rps.view().node_ids() {
            assert!((1..=8).contains(&id));
        }
    }

    #[test]
    fn merge_never_contains_self() {
        let mut rps: Rps<u8> = Rps::new(9, half_view(8));
        rps.seed(descriptors(&[1, 2]));
        rps.on_response(descriptors(&[9, 9, 3]), &mut rng());
        assert!(!rps.view().contains(9));
    }

    #[test]
    fn on_request_returns_payload_with_self() {
        let mut rps: Rps<u8> = Rps::new(4, half_view(6));
        rps.seed(descriptors(&[1, 2, 3]));
        let resp = rps.on_request(descriptors(&[5]), 42, &mut rng());
        assert!(resp.iter().any(|d| d.node == 4 && d.payload == 42));
        assert!(rps.view().contains(5));
    }

    #[test]
    fn push_pull_spreads_membership() {
        // Star bootstrap: everyone only knows node 0. After a few rounds of
        // pairwise exchange, views should contain diverse peers.
        let n = 16u32;
        let cfg = RpsConfig {
            view_size: 6,
            exchange_len: 3,
        };
        let mut nodes: Vec<Rps<u8>> = (0..n).map(|i| Rps::new(i, cfg)).collect();
        for node in nodes.iter_mut().skip(1) {
            node.seed(descriptors(&[0]));
        }
        nodes[0].seed(descriptors(&[1, 2, 3]));
        let mut r = rng();
        for _round in 0..20 {
            for i in 0..n as usize {
                let initiated = nodes[i].initiate(0, &mut r);
                if let Some((partner, payload)) = initiated {
                    let (a, b) = (i, partner as usize);
                    // Split borrows: take partner out temporarily.
                    let response = {
                        let partner_node = &mut nodes[b];
                        partner_node.on_request(payload, 0, &mut r)
                    };
                    nodes[a].on_response(response, &mut r);
                }
            }
        }
        let avg_view: f64 = nodes.iter().map(|x| x.view().len() as f64).sum::<f64>() / n as f64;
        assert!(avg_view > 4.0, "views stayed starved: {avg_view}");
        // At least half the nodes should know someone other than node 0.
        let diverse = nodes
            .iter()
            .filter(|x| x.view().node_ids().any(|id| id != 0))
            .count();
        assert!(diverse >= n as usize / 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `on_request` and `on_response` leave the view the cloning union
        /// leaves, entry by entry — node, age and which `Arc` — and a
        /// request answers the same, from one RNG seed per case, after the
        /// same number of draws. Few nodes and ages: nodes repeated across
        /// the view and the received list, age ties and self-descriptors
        /// are all common.
        #[test]
        fn merges_match_the_cloning_union(
            self_id in 0u32..12,
            view_size in 1usize..10,
            seed in 0u64..1_000_000,
            request in prop::bool::ANY,
            own in prop::collection::vec((0u32..16, 0u32..4), 0..12),
            received in prop::collection::vec((0u32..16, 0u32..4), 0..20),
        ) {
            let arcs = |raw: &[(NodeId, u32)]| -> Vec<Descriptor<Arc<NodeId>>> {
                raw.iter()
                    .map(|&(node, age)| Descriptor { node, age, payload: Arc::new(node) })
                    .collect()
            };
            let mut fast = Rps::new(self_id, half_view(view_size));
            fast.seed(arcs(&own));
            let mut slow = fast.clone();
            let received = arcs(&received);
            let mut rng_fast = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_slow = ChaCha8Rng::seed_from_u64(seed);
            let (answer_fast, answer_slow) = if request {
                let own_payload = Arc::new(self_id);
                let answer_fast =
                    fast.on_request(received.clone(), Arc::clone(&own_payload), &mut rng_fast);
                let answer_slow = slow.exchange_payload(own_payload, &mut rng_slow);
                slow.merge_by_cloning(received, &mut rng_slow);
                (answer_fast, answer_slow)
            } else {
                fast.on_response(received.clone(), &mut rng_fast);
                slow.merge_by_cloning(received, &mut rng_slow);
                (Vec::new(), Vec::new())
            };
            prop_assert!(
                same_entries(fast.view().entries(), slow.view().entries()),
                "{:?} != {:?}",
                fast.view().entries(),
                slow.view().entries()
            );
            prop_assert!(same_entries(&answer_fast, &answer_slow));
            prop_assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }
}
