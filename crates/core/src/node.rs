//! The WhatsUp node: WUP + BEEP composed into one sans-io state machine.
//!
//! A node owns its user profile, the two gossip layers (RPS + WUP
//! clustering) and the set of item ids it has already received (SIR
//! "removed" state). It exposes three entry points —
//! [`WhatsUpNode::on_cycle`], [`WhatsUpNode::on_message`] and
//! [`WhatsUpNode::publish`] — each returning the messages to send. The
//! caller decides what "a cycle" and "delivery" mean: the simulator makes
//! them deterministic rounds, the network runtimes make them timers and
//! UDP datagrams.
//!
//! User opinions come from an [`Opinions`] oracle: in the evaluation this is
//! the dataset ground truth (a user's reaction is a fixed property of the
//! (user, item) pair, as in the paper's survey replay); in a live deployment
//! it would be the like/dislike buttons.

use crate::beep::{self, ForwardDecision};
use crate::bootstrap::{most_popular_items, ColdStart};
use crate::item::{ItemId, ItemIndexMap, NewsItem, Timestamp};
use crate::message::{NewsMessage, OutMessage, Payload};
use crate::obfuscation::Obfuscation;
use crate::params::Params;
use crate::profile::{Profile, ProfileEntry, SharedProfile};
use crate::seen::SeenSet;
use crate::similarity::Prepared;
use rand::Rng;
use std::sync::Arc;
use whatsup_gossip::{Clustering, ClusteringConfig, Descriptor, NodeId, Rps};

/// Oracle answering "would this user like this item?" (the `iLike` predicate
/// of Algorithms 1–2).
pub trait Opinions {
    fn likes(&self, node: NodeId, item: ItemId) -> bool;
}

impl<F: Fn(NodeId, ItemId) -> bool> Opinions for F {
    fn likes(&self, node: NodeId, item: ItemId) -> bool {
        self(node, item)
    }
}

/// Per-node traffic and dissemination counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// RPS messages sent (requests + responses).
    pub rps_sent: u64,
    /// WUP clustering messages sent (requests + responses).
    pub wup_sent: u64,
    /// News copies sent (BEEP forwards, including publications).
    pub news_sent: u64,
    /// First receptions of a news item.
    pub news_received: u64,
    /// Duplicate copies dropped.
    pub news_duplicates: u64,
    /// First receptions the user liked.
    pub news_liked: u64,
    /// Items published by this node.
    pub published: u64,
}

impl NodeStats {
    /// Books one copy, sent by `from`, of an item its receiver `to` has
    /// already received — the SIR rule of Algorithm 1: the copy is dropped
    /// unanswered and counted as a duplicate, unless it claims to come from
    /// `to` itself, which [`WhatsUpNode::on_message`] drops before any rule
    /// and counts nowhere. The rule's one statement: the node's news path
    /// calls it, and so does an engine that books a copy it knows to be a
    /// duplicate without delivering it.
    pub fn book_duplicate(&mut self, from: NodeId, to: NodeId) {
        self.news_duplicates += u64::from(from != to);
    }
}

/// Everything a [`WhatsUpNode`] remembers, in a canonical serializable
/// shape: checkpoint support for the simulator's worker supervision (and
/// any future migration of live nodes). Produced by
/// [`WhatsUpNode::export_state`], consumed by [`WhatsUpNode::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// True profile entries, ascending item-id order (the [`Profile`]
    /// invariant).
    pub profile: Vec<ProfileEntry>,
    /// RPS view entries in live iteration order, ages preserved.
    pub rps_view: Vec<Descriptor<SharedProfile>>,
    /// WUP view entries in live iteration order, ages preserved.
    pub wup_view: Vec<Descriptor<SharedProfile>>,
    /// Item ids already received, ascending (canonicalized from the live
    /// [`SeenSet`] so identical nodes export identical states).
    pub seen: Vec<ItemId>,
}

/// The per-user WhatsUp protocol stack.
///
/// Per-node counters ([`NodeStats`]) are *not* stored here: the node is
/// the hot-loop unit and the counters are cold, so callers own them in
/// SoA arrays (one `Vec<NodeStats>` per shard in the simulator) and pass
/// `&mut NodeStats` into each entry point.
#[derive(Debug, Clone)]
pub struct WhatsUpNode {
    id: NodeId,
    params: Params,
    rps: Rps<SharedProfile>,
    wup: Clustering<SharedProfile>,
    /// The true profile: its planes over `items` alone, rated and purged
    /// in place (flat only while the index cannot give its entries back,
    /// see `crate::profile`), never handed out, so a mutation never copies
    /// it.
    profile: Profile,
    obfuscation: Obfuscation,
    /// Memoized disclosed-profile snapshot; dropped whenever `profile`
    /// mutates.
    shared_cache: Option<SharedProfile>,
    seen: SeenSet,
    /// The run's item index, which numbers the layouts of every profile
    /// this node scores (see `crate::planes`).
    items: Arc<ItemIndexMap>,
}

impl WhatsUpNode {
    /// Creates a node with empty views and an empty profile.
    ///
    /// `items` is the run's item index. One index per run: every node of a
    /// run must be given the same `Arc` — the layouts of the profiles the
    /// nodes exchange are numbered by it, and a pair of layouts is counted
    /// only when both are numbered by one index. A node never changes it.
    ///
    /// # Panics
    /// Panics if `params` violates the Table II invariants
    /// (see [`Params::validate`]).
    pub fn new(id: NodeId, params: Params, items: Arc<ItemIndexMap>) -> Self {
        params.validate().expect("invalid WhatsUp parameters");
        let rps = Rps::new(id, params.rps);
        let wup = Clustering::new(
            id,
            ClusteringConfig {
                view_size: params.wup_view_size,
            },
        );
        // Per-node secret: local, never shared (id-derived here; a real
        // deployment would draw it from the OS).
        let obfuscation = Obfuscation::randomized_response(
            params.obfuscation_epsilon,
            (id as u64).wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x0b5e_55ed,
        );
        Self {
            id,
            params,
            rps,
            wup,
            profile: Profile::own([], &items),
            obfuscation,
            shared_cache: None,
            seen: SeenSet::new(),
            items,
        }
    }

    /// The profile this node *discloses*: its true profile, or the
    /// consistent randomized-response snapshot when obfuscation is on
    /// (§VII privacy extension). Everything that leaves the node — gossip
    /// descriptors and item-profile contributions — goes through here;
    /// local forwarding decisions keep using the true profile.
    ///
    /// The snapshot is memoized until the profile next mutates; obfuscation
    /// is a pure function of `(secret, node, profile)`, so the cache is
    /// exact. With obfuscation off it is the true profile packed into its
    /// planes ([`Profile::snapshot`]).
    fn shared_profile(&mut self) -> SharedProfile {
        if let Some(cached) = &self.shared_cache {
            return SharedProfile::clone(cached);
        }
        let shared = if self.obfuscation.is_off() {
            Profile::snapshot(&self.profile, &self.items)
        } else {
            self.obfuscation.share(self.id, &self.profile)
        };
        let shared = SharedProfile::new(shared);
        self.shared_cache = Some(SharedProfile::clone(&shared));
        shared
    }

    /// Records the user's opinion on `item` in the profile's planes; the
    /// disclosed-profile snapshot is stale after it, as after every
    /// profile mutation.
    fn rate(&mut self, item: ItemId, timestamp: Timestamp, liked: bool) {
        self.profile.rate_in(&self.items, item, timestamp, liked);
        self.shared_cache = None;
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn params(&self) -> &Params {
        &self.params
    }

    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Current WUP (implicit social network) neighbors.
    pub fn wup_neighbor_ids(&self) -> Vec<NodeId> {
        self.wup.view().node_ids().collect()
    }

    /// Current RPS (random overlay) neighbors.
    pub fn rps_neighbor_ids(&self) -> Vec<NodeId> {
        self.rps.view().node_ids().collect()
    }

    /// Whether this node already received (or published) `item`.
    pub fn has_seen(&self, item: ItemId) -> bool {
        self.seen.contains(item, &self.items)
    }

    /// Seeds both views directly — test/bootstrap helper. Each profile is
    /// wrapped in its own allocation; bulk seeding with a shared payload
    /// (e.g. one empty profile for a whole shard's bootstrap) goes through
    /// [`Self::seed_views_arcs`].
    pub fn seed_views(
        &mut self,
        rps: impl IntoIterator<Item = (NodeId, Profile)>,
        wup: impl IntoIterator<Item = (NodeId, Profile)>,
    ) {
        self.seed_views_arcs(
            rps.into_iter().map(|(n, p)| (n, SharedProfile::new(p))),
            wup.into_iter().map(|(n, p)| (n, SharedProfile::new(p))),
        );
    }

    /// Seeds both views from already-shared profile snapshots, so callers
    /// seeding many nodes with the same payload share one allocation.
    pub fn seed_views_arcs(
        &mut self,
        rps: impl IntoIterator<Item = (NodeId, SharedProfile)>,
        wup: impl IntoIterator<Item = (NodeId, SharedProfile)>,
    ) {
        self.rps
            .seed(rps.into_iter().map(|(n, p)| Descriptor::fresh(n, p)));
        self.wup
            .seed(wup.into_iter().map(|(n, p)| Descriptor::fresh(n, p)));
    }

    /// Cold start (§II-D): inherit the contact's views and rate the most
    /// popular items found in the inherited RPS view.
    pub fn cold_start(&mut self, inherited: ColdStart, opinions: &impl Opinions) {
        let popular = most_popular_items(&inherited.rps_view, self.params.cold_start_items);
        for (item, ts) in popular {
            let liked = opinions.likes(self.id, item);
            self.rate(item, ts, liked);
            self.seen.insert(item, &self.items);
        }
        self.rps.seed(inherited.rps_view);
        self.wup.seed(inherited.wup_view);
    }

    /// Snapshot of this node's views for a joiner to inherit.
    pub fn views_snapshot(&self) -> ColdStart {
        ColdStart {
            rps_view: self.rps.view().entries().to_vec(),
            wup_view: self.wup.view().entries().to_vec(),
        }
    }

    /// Memory accounting (diagnostics): own-profile heap bytes (entries
    /// and layout), seen-set heap bytes, per-node bookkeeping bytes (the
    /// view vectors), and a visit of every profile snapshot this node pins
    /// — view descriptors, the disclosed-snapshot memo. Visited `Arc`s may
    /// repeat; callers dedup by address.
    #[doc(hidden)]
    pub fn debug_heap_stats(&self, visit: &mut dyn FnMut(&SharedProfile)) -> (usize, usize, usize) {
        let views = [self.rps.view(), self.wup.view()].map(|view| view.entries());
        (views.iter().flat_map(|v| v.iter().map(|d| &d.payload)))
            .chain(&self.shared_cache)
            .for_each(visit);
        let descriptor = std::mem::size_of::<whatsup_gossip::Descriptor<SharedProfile>>();
        let views =
            (self.rps.view().entries().len() + self.wup.view().entries().len()) * descriptor;
        (self.profile.heap_bytes(), self.seen.capacity_bytes(), views)
    }

    /// Full behavioral state of this node, for checkpointing. Everything
    /// *not* captured here — the obfuscation secret, the memoized
    /// disclosed-profile snapshot — is a pure function of `(id, params,
    /// profile)` and is rebuilt by [`WhatsUpNode::from_state`].
    pub fn export_state(&self) -> NodeState {
        NodeState {
            profile: self.profile.entries().collect(),
            rps_view: self.rps.view().entries().to_vec(),
            wup_view: self.wup.view().entries().to_vec(),
            seen: self.seen.to_sorted_vec(&self.items),
        }
    }

    /// Rebuilds a node from an exported state, bit-exactly: the view entry
    /// *order* is preserved (views append while under capacity, and a
    /// checkpointed view never exceeds its capacity or contains the owner),
    /// descriptor ages are kept as captured, and the profile norm is
    /// recomputed from the exact same entries. A restored node is
    /// behaviorally indistinguishable from the one that was exported.
    ///
    /// `items` is the run's item index, as for [`Self::new`].
    ///
    /// # Panics
    /// Panics if `params` violates the Table II invariants.
    pub fn from_state(
        id: NodeId,
        params: Params,
        items: Arc<ItemIndexMap>,
        state: NodeState,
    ) -> Self {
        let mut node = Self::new(id, params, items);
        node.profile = Profile::own(state.profile, &node.items);
        node.rps.seed(state.rps_view);
        node.wup.seed(state.wup_view);
        node.seen = SeenSet::from_sorted(state.seen, &node.items);
        node
    }

    /// One gossip cycle (§II): purge the profile window, then initiate one
    /// RPS and one WUP exchange towards the oldest view entries.
    pub fn on_cycle(
        &mut self,
        now: Timestamp,
        stats: &mut NodeStats,
        rng: &mut impl Rng,
    ) -> Vec<OutMessage> {
        // Nothing is touched when the purge would remove nothing.
        let cutoff = now.saturating_sub(self.params.profile_window);
        if self.profile.any_older_than(cutoff) {
            self.profile.purge_in(&self.items, cutoff);
            self.shared_cache = None;
        }
        let mut out = Vec::with_capacity(2);
        let shared = self.shared_profile();
        // The RPS layer may run at a slower period (Table II: RPSf = 1h).
        if now.is_multiple_of(self.params.rps_period) {
            if let Some((partner, payload)) = self.rps.initiate(SharedProfile::clone(&shared), rng)
            {
                stats.rps_sent += 1;
                out.push(OutMessage::new(partner, Payload::RpsRequest(payload)));
            }
        }
        if let Some((partner, payload)) = self.wup.initiate(shared) {
            stats.wup_sent += 1;
            out.push(OutMessage::new(partner, Payload::WupRequest(payload)));
        }
        out
    }

    /// Handles one delivered message, returning any replies/forwards.
    ///
    /// Messages claiming to come from this node itself are dropped: they
    /// can only be delivery loops or spoofing, and answering one would make
    /// the node gossip with itself.
    pub fn on_message(
        &mut self,
        from: NodeId,
        payload: Payload,
        now: Timestamp,
        opinions: &impl Opinions,
        stats: &mut NodeStats,
        rng: &mut impl Rng,
    ) -> Vec<OutMessage> {
        if from == self.id {
            return Vec::new();
        }
        match payload {
            Payload::RpsRequest(descs) => {
                let shared = self.shared_profile();
                let resp = self.rps.on_request(descs, shared, rng);
                stats.rps_sent += 1;
                vec![OutMessage::new(from, Payload::RpsResponse(resp))]
            }
            Payload::RpsResponse(descs) => {
                self.rps.on_response(descs, rng);
                Vec::new()
            }
            Payload::WupRequest(descs) => {
                let resp = self.merge_wup(descs, true);
                stats.wup_sent += 1;
                vec![OutMessage::new(from, Payload::WupResponse(resp))]
            }
            Payload::WupResponse(descs) => {
                self.merge_wup(descs, false);
                Vec::new()
            }
            Payload::News(msg) => self.handle_news(from, msg, now, opinions, stats, rng),
        }
    }

    /// One WUP view merge (§II): ranks own view ∪ `received` ∪ RPS view
    /// against the *true* profile (split borrow: no clone). With `answer`
    /// (a request) returns the view to send back, as it was before the
    /// merge, with the (possibly obfuscated) shared snapshot — the payload
    /// that travels; otherwise an empty vector. With obfuscation off the
    /// snapshot holds the true profile's entries, laid out when it was
    /// taken, and the merge scores against it: one layout per version.
    ///
    /// The profile is prepared once for the ~70 candidates of the merge:
    /// snapshots with bit planes — a node's own disclosure from when it
    /// was taken, a decoded one from its first score — are counted against
    /// the profile's own planes, and one that can have none is walked
    /// pairwise. The candidates are scored by reference; the merge moves
    /// the survivors of the old view and of `received` into the new view
    /// and clones only those that join from the RPS view ([`Clustering`]'s
    /// merge).
    fn merge_wup(
        &mut self,
        received: Vec<Descriptor<SharedProfile>>,
        answer: bool,
    ) -> Vec<Descriptor<SharedProfile>> {
        let metric = self.params.metric;
        let shared = self.shared_profile();
        let Self {
            wup,
            rps,
            profile,
            obfuscation,
            items,
            ..
        } = self;
        let own = if obfuscation.is_off() {
            &shared
        } else {
            &*profile
        };
        let scorer = Prepared::new(own, items);
        let sim = |_own: &SharedProfile, cand: &SharedProfile| scorer.score(metric, cand);
        let rps_candidates = rps.view().entries();
        if answer {
            wup.on_request(
                received,
                rps_candidates,
                SharedProfile::clone(&shared),
                &sim,
            )
        } else {
            wup.on_response(received, rps_candidates, &shared, &sim);
            Vec::new()
        }
    }

    /// `item_profile` with what this node discloses folded in (`None` if
    /// that is empty). With obfuscation off that is the true profile
    /// itself — folded without taking a snapshot, since news discloses
    /// nothing gossip has not — and the fold runs in slot space, from the
    /// planes the profile is ([`Profile::folded`]). The obfuscated
    /// snapshot is merged flat.
    fn fold_disclosed(&mut self, item_profile: &Profile) -> Option<Profile> {
        if self.obfuscation.is_off() {
            let own = &self.profile;
            return (!own.is_empty()).then(|| item_profile.folded(own, &self.items));
        }
        let shared = self.shared_profile();
        (!shared.is_empty()).then(|| item_profile.merged(&shared))
    }

    /// Publishes a new item (Algorithm 1, `generateNewsItem`): the source
    /// rates it *liked*, folds its whole profile — including the fresh
    /// rating — into the new item profile, and BEEP-forwards.
    pub fn publish(
        &mut self,
        item: &NewsItem,
        now: Timestamp,
        stats: &mut NodeStats,
        rng: &mut impl Rng,
    ) -> Vec<OutMessage> {
        let header = item.header();
        self.seen.insert(header.id, &self.items);
        stats.published += 1;
        self.rate(header.id, header.created_at, true);
        let mut item_profile = self.fold_disclosed(&Profile::new()).unwrap_or_default();
        item_profile.purge_older_than(now.saturating_sub(self.params.profile_window));
        let decision = beep::decide(
            &self.params.beep,
            true,
            0,
            &item_profile,
            &self.items,
            self.wup.view(),
            self.rps.view(),
            self.params.metric,
            rng,
        );
        self.emit_news(
            header.into_message(SharedProfile::new(item_profile), decision.dislikes, 0),
            decision,
            stats,
        )
    }

    /// Algorithm 1 (receive path) + Algorithm 2 (forward).
    fn handle_news(
        &mut self,
        from: NodeId,
        mut msg: NewsMessage,
        now: Timestamp,
        opinions: &impl Opinions,
        stats: &mut NodeStats,
        rng: &mut impl Rng,
    ) -> Vec<OutMessage> {
        let id = msg.header.id;
        // SIR: a node receiving an item it has already received drops it.
        if !self.seen.insert(id, &self.items) {
            stats.book_duplicate(from, self.id);
            return Vec::new();
        }
        stats.news_received += 1;
        let liked = opinions.likes(self.id, id);
        if liked {
            stats.news_liked += 1;
            // Fold the *pre-rating* profile into the item profile (lines
            // 3–4), then record the own rating (line 5) — the paper's
            // order. What is folded is the *shared* profile: item profiles
            // travel the network, so they disclose whatever gossip does.
            // Copy-on-write: build the merged profile straight from the
            // shared predecessor, never cloning it first.
            if let Some(folded) = self.fold_disclosed(&msg.profile) {
                msg.profile = SharedProfile::new(folded);
            }
        }
        self.rate(id, msg.header.created_at, liked);
        // Purge non-recent entries from the item profile before forwarding
        // (lines 8–10). Copy the shared profile only when the purge would
        // actually remove something — the read-only scan is cheap and the
        // common case (all entries inside the window) stays zero-copy.
        let cutoff = now.saturating_sub(self.params.profile_window);
        if msg.profile.any_older_than(cutoff) {
            SharedProfile::make_mut(&mut msg.profile).purge_older_than(cutoff);
        }
        let decision = beep::decide(
            &self.params.beep,
            liked,
            msg.dislikes,
            &msg.profile,
            &self.items,
            self.wup.view(),
            self.rps.view(),
            self.params.metric,
            rng,
        );
        let hops = msg.hops.saturating_add(1);
        self.emit_news(
            NewsMessage {
                header: msg.header,
                profile: msg.profile,
                dislikes: decision.dislikes,
                hops,
            },
            decision,
            stats,
        )
    }

    /// Fans the message out to the decided targets. The template is *moved*
    /// into the last copy — only the first `n − 1` copies deep-clone the
    /// item profile, which on the dislike path (single target) means no
    /// clone at all.
    fn emit_news(
        &mut self,
        template: NewsMessage,
        decision: ForwardDecision,
        stats: &mut NodeStats,
    ) -> Vec<OutMessage> {
        let n = decision.targets.len();
        if n == 0 {
            return Vec::new();
        }
        stats.news_sent += n as u64;
        let mut out = Vec::with_capacity(n);
        let mut template = Some(template);
        for (i, t) in decision.targets.into_iter().enumerate() {
            let msg = if i + 1 == n {
                template.take().expect("template consumed only once")
            } else {
                template.as_ref().expect("template live until last").clone()
            };
            out.push(OutMessage::new(t, Payload::News(msg)));
        }
        out
    }
}

impl crate::item::ItemHeader {
    fn into_message(self, profile: SharedProfile, dislikes: u8, hops: u16) -> NewsMessage {
        NewsMessage {
            header: self,
            profile,
            dislikes,
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileEntry;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    fn score_of(profile: &Profile, item: ItemId) -> Option<f32> {
        profile.entries().find(|e| e.item == item).map(|e| e.score)
    }

    /// Opinions oracle: node n likes item i iff i % 2 == n % 2.
    struct Parity;
    impl Opinions for Parity {
        fn likes(&self, node: NodeId, item: ItemId) -> bool {
            item % 2 == (node as u64) % 2
        }
    }

    fn liked_profile(items: &[ItemId]) -> Profile {
        Profile::from_entries(items.iter().map(|&i| ProfileEntry {
            item: i,
            timestamp: 0,
            score: 1.0,
        }))
    }

    fn news(id: ItemId, dislikes: u8) -> NewsMessage {
        NewsMessage {
            header: crate::item::ItemHeader { id, created_at: 0 },
            profile: SharedProfile::new(Profile::new()),
            dislikes,
            hops: 0,
        }
    }

    #[test]
    fn publish_fans_out_to_wup_view() {
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views(
            [],
            [
                (1, Profile::new()),
                (2, Profile::new()),
                (3, Profile::new()),
            ],
        );
        let item = NewsItem::new("t", "d", "l", 0, 0);
        let mut st = NodeStats::default();
        let out = n.publish(&item, 0, &mut st, &mut rng());
        assert_eq!(out.len(), 2);
        assert!(n.has_seen(item.id()));
        assert_eq!(st.published, 1);
        assert_eq!(st.news_sent, 2);
        // The source's own fresh rating is inside the item profile (§II-C).
        for m in &out {
            match &m.payload {
                Payload::News(nm) => {
                    assert!(nm.profile.contains(item.id()));
                    assert_eq!(nm.hops, 0);
                }
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn liked_reception_updates_profile_and_amplifies() {
        // Node 0 likes even items (Parity).
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views(
            [(9, Profile::new())],
            [
                (1, Profile::new()),
                (2, Profile::new()),
                (3, Profile::new()),
            ],
        );
        let mut st = NodeStats::default();
        let out = n.on_message(
            7,
            Payload::News(news(4, 1)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert_eq!(out.len(), 2, "fLIKE copies");
        assert_eq!(score_of(n.profile(), 4), Some(1.0));
        for m in &out {
            if let Payload::News(nm) = &m.payload {
                assert_eq!(nm.dislikes, 1, "like path keeps the counter");
                assert_eq!(nm.hops, 1);
            }
        }
    }

    #[test]
    fn disliked_reception_orients_once() {
        // Node 0 dislikes odd items; RPS node 8's profile matches the item
        // profile, node 9's does not.
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views(
            [(8, liked_profile(&[100])), (9, liked_profile(&[200]))],
            [(1, Profile::new())],
        );
        let mut msg = news(5, 0);
        msg.profile = SharedProfile::new(liked_profile(&[100]));
        let mut st = NodeStats::default();
        let out = n.on_message(7, Payload::News(msg), 0, &Parity, &mut st, &mut rng());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, 8, "oriented to most-similar RPS node");
        if let Payload::News(nm) = &out[0].payload {
            assert_eq!(nm.dislikes, 1);
        }
        assert_eq!(score_of(n.profile(), 5), Some(0.0));
    }

    #[test]
    fn ttl_exhausted_dislike_is_dropped() {
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views([(8, liked_profile(&[1]))], [(1, Profile::new())]);
        let mut st = NodeStats::default();
        let out = n.on_message(
            7,
            Payload::News(news(5, 4)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert!(out.is_empty());
        // Profile still records the dislike.
        assert_eq!(score_of(n.profile(), 5), Some(0.0));
    }

    #[test]
    fn duplicates_are_dropped_silently() {
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views([], [(1, Profile::new()), (2, Profile::new())]);
        let mut st = NodeStats::default();
        let first = n.on_message(
            7,
            Payload::News(news(4, 0)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert!(!first.is_empty());
        let second = n.on_message(
            3,
            Payload::News(news(4, 0)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert!(second.is_empty());
        assert_eq!(st.news_duplicates, 1);
        assert_eq!(st.news_received, 1);
    }

    #[test]
    fn item_profile_aggregates_likers_history() {
        // Node 0 (likes even) has item 2 in its profile; when it likes item
        // 4, the outgoing item profile must contain item 2 as well.
        let mut n = WhatsUpNode::new(0, Params::whatsup(1), Default::default());
        n.seed_views([], [(1, Profile::new())]);
        let mut st = NodeStats::default();
        n.on_message(
            7,
            Payload::News(news(2, 0)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        let out = n.on_message(
            7,
            Payload::News(news(4, 0)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        let Payload::News(nm) = &out[0].payload else {
            panic!("expected news")
        };
        assert!(
            nm.profile.contains(2),
            "liker history folded into item profile"
        );
        // But per Algorithm 1 ordering, the item itself is folded only via
        // later likers, not by this one.
        assert!(!nm.profile.contains(4));
    }

    #[test]
    fn on_cycle_gossips_and_purges() {
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views([(5, Profile::new())], [(6, Profile::new())]);
        // An old rating that must fall out of the 13-cycle window.
        n.rate(99, 0, true);
        let mut st = NodeStats::default();
        let out = n.on_cycle(50, &mut st, &mut rng());
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].payload, Payload::RpsRequest(_)));
        assert!(matches!(out[1].payload, Payload::WupRequest(_)));
        assert!(n.profile().is_empty(), "window purge removes stale entries");
    }

    #[test]
    fn a_disclosed_snapshot_is_packed_and_equal_to_the_profile() {
        // Item k is created at time k, and rated stamped with it.
        let items: ItemIndexMap = (0..40).map(|k| (k, k as u32, k as u32)).collect();
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Arc::new(items));
        // One disclosure per rating, re-ratings and window purges among them.
        for (now, item) in (0..30).chain([27, 28, 29, 35]).enumerate() {
            let now = now as u32;
            n.on_cycle(now, &mut NodeStats::default(), &mut rng());
            n.rate(item, item as u32, item % 3 != 0);
            let snapshot = n.shared_profile();
            assert_eq!(*snapshot, *n.profile());
            assert_eq!(snapshot.norm().to_bits(), n.profile().norm().to_bits());
            // Planes alone: nothing of the entries is kept.
            assert_eq!(
                snapshot.heap_bytes(),
                snapshot.plane_bytes(),
                "{snapshot:?}"
            );
            assert!(snapshot.plane_bytes() > 0);
        }
        assert!(n.profile().len() < 30, "the window purged some");
        assert_eq!(score_of(&n.shared_profile(), 27), Some(0.0));
        // An entry stamped at another time than its item's creation keeps
        // the snapshot flat, and it still reads as the profile.
        n.rate(35, 36, true);
        let snapshot = n.shared_profile();
        assert_eq!(*snapshot, *n.profile());
        assert!(snapshot.heap_bytes() >= 16 * snapshot.len() + snapshot.plane_bytes());
    }

    /// Item profiles travel folded: over an index dense enough for their
    /// weights to fit, every copy a node forwards — published, folded by
    /// likers, oriented by dislikers down their chains — carries the
    /// packed weights its fold produced, equal to the flat merge of the
    /// copy it received with the node's profile, and no weights are ever
    /// laid out from an item profile's entries to orient it. With
    /// obfuscation on, a node folds its obfuscated share flat: what it
    /// forwards is that merge, laid out on its first orientation.
    #[test]
    fn folded_item_profiles_are_oriented_with_the_weights_they_were_folded_to() {
        let news_items: Vec<NewsItem> = (0..64)
            .map(|k| NewsItem::new(format!("n{k}"), "", "", 0, k / 8))
            .collect();
        let index: ItemIndexMap = (news_items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let index = Arc::new(index);
        let id = |k: usize| news_items[k].id();
        let slot_of = |item: ItemId| index.get(&item).copied().unwrap_or(64) as usize;
        let likes = |node: NodeId, item: ItemId| !(node as usize + slot_of(item)).is_multiple_of(3);
        for obfuscated in [false, true] {
            let mut params = Params::whatsup(2);
            params.obfuscation_epsilon = if obfuscated { 0.3 } else { 0.0 };
            let mut nodes: Vec<WhatsUpNode> = (0..8u32)
                .map(|n| WhatsUpNode::new(n, params.clone(), Arc::clone(&index)))
                .collect();
            for (n, node) in nodes.iter_mut().enumerate() {
                for k in (0..48).filter(|k| (k + n) % 4 != 0) {
                    let liked = likes(n as NodeId, id(k));
                    node.rate(id(k), news_items[k].created_at, liked);
                    node.seen.insert(id(k), &node.items);
                }
            }
            let snapshots: Vec<SharedProfile> =
                nodes.iter_mut().map(|n| n.shared_profile()).collect();
            for (n, node) in nodes.iter_mut().enumerate() {
                let others = (0..8)
                    .filter(|&o| o != n)
                    .map(|o| (o as NodeId, SharedProfile::clone(&snapshots[o])));
                node.seed_views_arcs(others.clone(), others.take(4));
            }
            let built = crate::planes::WEIGHTS_BUILT.with(std::cell::Cell::get);
            let (mut rng, mut stats) = (rng(), NodeStats::default());
            let (mut forwarded, mut oriented) = (0, 0);
            for (k, item) in news_items.iter().enumerate().skip(48) {
                let source = k % 8;
                let mut queue: std::collections::VecDeque<(NodeId, OutMessage)> = nodes[source]
                    .publish(item, 8, &mut stats, &mut rng)
                    .into_iter()
                    .map(|m| (source as NodeId, m))
                    .collect();
                while let Some((from, m)) = queue.pop_front() {
                    let Payload::News(received) = m.payload else {
                        panic!("news only")
                    };
                    let to = &mut nodes[m.to as usize];
                    let disclosed = match obfuscated {
                        true => to.shared_profile(),
                        false => SharedProfile::new(to.profile.clone()),
                    };
                    let fresh = !to.has_seen(received.header.id);
                    let liked = likes(to.id(), received.header.id);
                    let incoming = SharedProfile::clone(&received.profile);
                    let out = to.on_message(
                        from,
                        Payload::News(received),
                        8,
                        &likes,
                        &mut stats,
                        &mut rng,
                    );
                    oriented += usize::from(fresh && !liked && !out.is_empty());
                    for next in out {
                        let Payload::News(msg) = &next.payload else {
                            panic!("news only")
                        };
                        let expected = match fresh && liked {
                            true => incoming.merged(&disclosed),
                            false => (*incoming).clone(),
                        };
                        assert_eq!(*msg.profile, expected);
                        assert_eq!(msg.profile.norm().to_bits(), expected.norm().to_bits());
                        assert_eq!(msg.profile.is_packed(), !obfuscated);
                        forwarded += 1;
                        queue.push_back((m.to, next));
                    }
                }
            }
            assert!(
                forwarded > 50 && oriented > 5,
                "{forwarded} copies, {oriented} oriented"
            );
            let laid_out = crate::planes::WEIGHTS_BUILT.with(std::cell::Cell::get) - built;
            assert_eq!(
                laid_out == 0,
                !obfuscated,
                "{laid_out} item profiles weighed from entries"
            );
        }
    }

    /// A node's own profile does not fall back to its flat vector
    /// unseen: in a small run whose every rating the index gives back —
    /// eight nodes, four items a cycle over 24 cycles, so the window
    /// purges — each node's profile is packed, its planes alone, after
    /// every `on_cycle` and `on_message`; so is a joiner's after its cold
    /// start, and every node's after `from_state(export_state())`.
    #[test]
    fn every_exact_own_profile_stays_packed() {
        let news_items: Vec<NewsItem> = (0..96)
            .map(|k| NewsItem::new(format!("p{k}"), "", "", 0, k / 4))
            .collect();
        let index: ItemIndexMap = (news_items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let index = Arc::new(index);
        let likes = |node: NodeId, item: ItemId| !(u64::from(node) ^ item).is_multiple_of(3);
        let packed = |node: &WhatsUpNode| {
            let own = node.profile();
            let exact = crate::planes::Planes::build(&own.flat(), &index);
            assert!(exact.is_some_and(|p| p.is_pack()), "{own:?}");
            own.is_packed() && own.heap_bytes() == own.plane_bytes()
        };
        let params = Params::whatsup(2);
        let mut nodes: Vec<WhatsUpNode> = (0..8u32)
            .map(|n| WhatsUpNode::new(n, params.clone(), Arc::clone(&index)))
            .collect();
        for (n, node) in nodes.iter_mut().enumerate() {
            let others = (0..8u32)
                .filter(|&o| o as usize != n)
                .map(|o| (o, Profile::new()));
            node.seed_views(others.clone(), others.take(3));
        }
        let (mut rng, mut stats) = (rng(), NodeStats::default());
        let mut queue = std::collections::VecDeque::new();
        for (k, item) in news_items.iter().enumerate() {
            let now = item.created_at;
            if k % 4 == 0 {
                for (n, node) in nodes.iter_mut().enumerate() {
                    let out = node.on_cycle(now, &mut stats, &mut rng);
                    assert!(packed(node), "node {n} after on_cycle at {now}");
                    queue.extend(out.into_iter().map(|m| (n as NodeId, m)));
                }
            }
            let source = k % 8;
            let out = nodes[source].publish(item, now, &mut stats, &mut rng);
            queue.extend(out.into_iter().map(|m| (source as NodeId, m)));
            while let Some((from, m)) = queue.pop_front() {
                let to = m.to;
                let node = &mut nodes[to as usize];
                let out = node.on_message(from, m.payload, now, &likes, &mut stats, &mut rng);
                assert!(packed(node), "node {to} after on_message at {now}");
                queue.extend(out.into_iter().map(|r| (to, r)));
            }
        }
        assert!(stats.news_received > 200 && nodes.iter().all(|n| n.profile().len() > 8));
        assert!(
            !nodes[0].profile().contains(news_items[0].id()),
            "the window purged"
        );
        let mut joiner = WhatsUpNode::new(8, params.clone(), Arc::clone(&index));
        joiner.cold_start(nodes[0].views_snapshot(), &likes);
        assert!(!joiner.profile().is_empty() && packed(&joiner));
        for node in nodes.iter().chain([&joiner]) {
            let state = node.export_state();
            let restored =
                WhatsUpNode::from_state(node.id(), params.clone(), Arc::clone(&index), state);
            assert!(packed(&restored) && restored.profile() == node.profile());
        }
    }

    #[test]
    fn rps_request_produces_response_and_merge() {
        let mut a = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        let mut b = WhatsUpNode::new(1, Params::whatsup(2), Default::default());
        a.seed_views([(1, Profile::new())], []);
        b.seed_views([(0, Profile::new())], []);
        let mut r = rng();
        let mut st = NodeStats::default();
        let reqs = a.on_cycle(1, &mut st, &mut r);
        let req = &reqs[0];
        assert_eq!(req.to, 1);
        let Payload::RpsRequest(descs) = &req.payload else {
            panic!()
        };
        let resp = b.on_message(
            0,
            Payload::RpsRequest(descs.clone()),
            1,
            &Parity,
            &mut st,
            &mut r,
        );
        assert_eq!(resp.len(), 1);
        assert!(matches!(resp[0].payload, Payload::RpsResponse(_)));
        let out = a.on_message(1, resp[0].payload.clone(), 1, &Parity, &mut st, &mut r);
        assert!(out.is_empty());
    }

    #[test]
    fn wup_exchange_clusters_by_similarity() {
        // Node 0 likes items {2,4}. Candidate 1 likes the same; candidate 3
        // likes disjoint items. After a WUP exchange offering both, node 0's
        // view (size 2 here) must retain candidate 1.
        let mut n = WhatsUpNode::new(0, Params::whatsup(1), Default::default());
        n.rate(2, 10, true);
        n.rate(4, 10, true);
        n.seed_views([], [(9, Profile::new())]);
        let offered = vec![
            Descriptor::fresh(1, SharedProfile::new(liked_profile(&[2, 4]))),
            Descriptor::fresh(3, SharedProfile::new(liked_profile(&[101, 103]))),
        ];
        let mut st = NodeStats::default();
        let out = n.on_message(
            5,
            Payload::WupRequest(offered),
            10,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert!(matches!(out[0].payload, Payload::WupResponse(_)));
        let ids = n.wup_neighbor_ids();
        assert!(ids.contains(&1), "similar candidate retained: {ids:?}");
    }

    #[test]
    fn cold_start_builds_popular_profile() {
        let mut veteran = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        veteran.seed_views(
            [
                (1, liked_profile(&[10, 12])),
                (2, liked_profile(&[10])),
                (3, liked_profile(&[10, 14])),
            ],
            [(1, liked_profile(&[10]))],
        );
        let mut joiner = WhatsUpNode::new(42, Params::whatsup(2), Default::default());
        joiner.cold_start(veteran.views_snapshot(), &Parity);
        // 3 most popular: 10 (3 likes), 12 and 14 (1 like each).
        assert_eq!(joiner.profile().len(), 3);
        assert!(joiner.profile().contains(10));
        // Node 42 likes even items, so all three are rated like.
        assert_eq!(score_of(joiner.profile(), 10), Some(1.0));
        assert!(!joiner.rps_neighbor_ids().is_empty());
        assert!(!joiner.wup_neighbor_ids().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut n = WhatsUpNode::new(0, Params::whatsup(3), Default::default());
            n.seed_views(
                (1..20).map(|i| (i, liked_profile(&[i as u64]))),
                (1..8).map(|i| (i, liked_profile(&[i as u64]))),
            );
            let mut r = ChaCha8Rng::seed_from_u64(77);
            let mut st = NodeStats::default();
            let mut log = Vec::new();
            for cycle in 0..5 {
                log.extend(n.on_cycle(cycle, &mut st, &mut r));
                log.extend(n.on_message(
                    1,
                    Payload::News(news(cycle as u64 * 2, 0)),
                    cycle,
                    &Parity,
                    &mut st,
                    &mut r,
                ));
            }
            log
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    #[test]
    fn gossip_params_forward_disliked_items_randomly() {
        let mut n = WhatsUpNode::new(0, Params::gossip(3), Default::default());
        n.seed_views((1..10).map(|i| (i, Profile::new())), []);
        // Node 0 dislikes odd items but homogeneous gossip forwards anyway.
        let mut st = NodeStats::default();
        let out = n.on_message(
            5,
            Payload::News(news(5, 200)),
            0,
            &Parity,
            &mut st,
            &mut rng(),
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stats_add_up() {
        let mut n = WhatsUpNode::new(0, Params::whatsup(2), Default::default());
        n.seed_views([(1, Profile::new())], [(2, Profile::new())]);
        let mut r = rng();
        let mut st = NodeStats::default();
        n.on_cycle(0, &mut st, &mut r);
        n.on_message(1, Payload::News(news(2, 0)), 0, &Parity, &mut st, &mut r);
        assert!(st.rps_sent + st.wup_sent + st.news_sent >= 3);
    }
}
