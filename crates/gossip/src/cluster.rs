//! Similarity-based clustering overlay (paper §II; Vicinity-style).
//!
//! The WUP layer keeps, for each node, the `WUPvs` peers whose profiles are
//! most similar to its own. Each cycle the node picks the *oldest* WUP
//! neighbor and sends its *entire* view (plus its own fresh descriptor); the
//! receiver keeps the most similar nodes out of the union of its own view,
//! the received view, and — crucially — its RPS view, which continuously
//! injects fresh random candidates so the overlay can follow interest drift.
//!
//! The similarity function is injected via the [`Similarity`] trait: WhatsUp
//! plugs the asymmetric WUP metric here, the `*-Cos` variants plug plain
//! cosine, giving the paper's four-way comparison (Fig. 3) for free.

use crate::view::{dedup_freshest, Descriptor, NodeId, View};

/// Ranks a candidate payload against the node's own payload. Higher is more
/// similar. Implementations must be pure (no interior mutability observable
/// across calls) so that selection is deterministic.
pub trait Similarity<P> {
    fn score(&self, own: &P, candidate: &P) -> f64;
}

impl<P, F: Fn(&P, &P) -> f64> Similarity<P> for F {
    fn score(&self, own: &P, candidate: &P) -> f64 {
        self(own, candidate)
    }
}

/// SplitMix64-style avalanche of `(a, b)` for decorrelated tie-breaking.
#[inline]
pub fn mix(a: NodeId, b: NodeId) -> u64 {
    let mut x = ((a as u64) << 32) ^ b as u64 ^ 0x9e37_79b9_7f4a_7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Clustering-layer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusteringConfig {
    /// View size (`WUPvs`; the paper sets it to `2 · fLIKE`).
    pub view_size: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self { view_size: 20 }
    }
}

/// The per-node clustering protocol state machine.
#[derive(Debug, Clone)]
pub struct Clustering<P> {
    id: NodeId,
    config: ClusteringConfig,
    view: View<P>,
}

impl<P: Clone> Clustering<P> {
    pub fn new(id: NodeId, config: ClusteringConfig) -> Self {
        let view = View::new(config.view_size);
        Self { id, config, view }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn view(&self) -> &View<P> {
        &self.view
    }

    pub fn config(&self) -> &ClusteringConfig {
        &self.config
    }

    /// Seeds the view at bootstrap (view inheritance, §II-D).
    pub fn seed(&mut self, descriptors: impl IntoIterator<Item = Descriptor<P>>) {
        for d in descriptors {
            if d.node != self.id {
                self.view.insert(d);
            }
        }
    }

    /// Starts one round: ages entries, picks the oldest WUP neighbor and
    /// ships the whole view plus a fresh self-descriptor.
    pub fn initiate(&mut self, own_payload: P) -> Option<(NodeId, Vec<Descriptor<P>>)> {
        self.view.age_all();
        let partner = self.view.oldest()?.node;
        Some((partner, self.exchange_payload(own_payload)))
    }

    /// Handles an incoming exchange request: merges candidates (received ∪
    /// own view ∪ `rps_candidates`) keeping the most similar, then answers
    /// with this node's entire view.
    pub fn on_request<S: Similarity<P>>(
        &mut self,
        received: Vec<Descriptor<P>>,
        rps_candidates: &[Descriptor<P>],
        own_payload: P,
        sim: &S,
    ) -> Vec<Descriptor<P>> {
        let response = self.exchange_payload(own_payload.clone());
        self.merge(received, rps_candidates, &own_payload, sim);
        response
    }

    /// Handles the response to an exchange this node initiated.
    pub fn on_response<S: Similarity<P>>(
        &mut self,
        received: Vec<Descriptor<P>>,
        rps_candidates: &[Descriptor<P>],
        own_payload: &P,
        sim: &S,
    ) {
        self.merge(received, rps_candidates, own_payload, sim);
    }

    /// Re-ranks the current view against an updated own profile, dropping
    /// nothing but reordering nothing either — views are sets; ranking only
    /// matters during merges. Exposed for completeness/testing.
    pub fn contains(&self, node: NodeId) -> bool {
        self.view.contains(node)
    }

    /// Drops a peer believed failed.
    pub fn evict(&mut self, node: NodeId) {
        self.view.remove(node);
    }

    fn exchange_payload(&self, own_payload: P) -> Vec<Descriptor<P>> {
        let mut payload: Vec<Descriptor<P>> = self.view.entries().to_vec();
        payload.push(Descriptor::fresh(self.id, own_payload));
        payload
    }

    /// "The receiving node selects the nodes from the union of its own and
    /// the received views whose profiles are closest to its own" (§II).
    fn merge<S: Similarity<P>>(
        &mut self,
        received: Vec<Descriptor<P>>,
        rps_candidates: &[Descriptor<P>],
        own_payload: &P,
        sim: &S,
    ) {
        let union = self
            .view
            .entries()
            .iter()
            .cloned()
            .chain(received)
            .chain(rps_candidates.iter().cloned())
            .collect::<Vec<_>>();
        let mut deduped = dedup_freshest(union, self.id);
        // Rank by similarity descending; ties by freshness, then by a
        // per-node id mix. The mix matters: before profiles mature, *all*
        // scores tie, and any globally consistent tie order (e.g. lowest id
        // first) would collapse every node's view onto the same few peers,
        // wrecking the overlay. Mixing with the local id keeps tie-breaking
        // deterministic per node but decorrelated across nodes.
        // The id mix is precomputed per candidate: the sort comparator
        // would otherwise re-derive both sides' mixes on every comparison
        // (O(n log n) avalanche evaluations per merge, on the per-cycle
        // gossip path).
        let self_id = self.id;
        let scored = deduped
            .drain(..)
            .map(|d| (sim.score(own_payload, &d.payload), mix(self_id, d.node), d))
            .collect();
        self.view.replace_with(
            closest(scored, self.config.view_size)
                .into_iter()
                .map(|(_, _, d)| d)
                .collect(),
        );
    }
}

/// A merge candidate: similarity score, id mix, descriptor.
type Scored<P> = (f64, u64, Descriptor<P>);

/// The merge's ranking (see [`Clustering::merge`]).
fn rank<P>((sa, ma, da): &Scored<P>, (sb, mb, db): &Scored<P>) -> std::cmp::Ordering {
    sb.partial_cmp(sa)
        .expect("similarity scores must not be NaN")
        .then(da.age.cmp(&db.age))
        .then(ma.cmp(mb))
}

/// The `keep` best-ranked candidates, best first. A merge ranks ~60
/// candidates to keep 20, so the survivors are selected first and only
/// they are sorted. [`rank`] is a strict total order over the candidates
/// of one merge — after `dedup_freshest` their nodes are distinct, and
/// `mix(self_id, ·)` is injective (an XOR with a constant, then a
/// bijective finaliser) — so there is exactly one sorted sequence: the
/// survivors *and their order in the view* (which `View::oldest` ties and
/// the index shuffle of `View::sample_ids` depend on) are those of
/// [`closest_by_full_sort`], although neither the selection nor the sort
/// is stable.
fn closest<P>(mut scored: Vec<Scored<P>>, keep: usize) -> Vec<Scored<P>> {
    if keep < scored.len() {
        scored.select_nth_unstable_by(keep, rank);
        scored.truncate(keep);
    }
    scored.sort_unstable_by(rank);
    scored
}

/// [`closest`] as it was first written — sort everything, cut — kept as
/// the executable statement of what the selection must return.
#[cfg(test)]
fn closest_by_full_sort<P>(mut scored: Vec<Scored<P>>, keep: usize) -> Vec<Scored<P>> {
    scored.sort_by(rank);
    scored.truncate(keep);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Similarity for test payloads: negative distance between bytes.
    fn byte_sim(own: &u8, cand: &u8) -> f64 {
        -((*own as f64) - (*cand as f64)).abs()
    }

    fn d(node: NodeId, payload: u8) -> Descriptor<u8> {
        Descriptor::fresh(node, payload)
    }

    #[test]
    fn merge_keeps_most_similar() {
        let mut c: Clustering<u8> = Clustering::new(0, ClusteringConfig { view_size: 2 });
        c.seed([d(1, 100), d(2, 50)]);
        c.on_response(vec![d(3, 11), d(4, 90)], &[], &10, &byte_sim);
        // Own payload 10: closest are 11 (node 3) and 50 (node 2).
        assert!(c.contains(3));
        assert!(c.contains(2));
        assert!(!c.contains(1));
        assert_eq!(c.view().len(), 2);
    }

    #[test]
    fn rps_candidates_join_the_union() {
        let mut c: Clustering<u8> = Clustering::new(0, ClusteringConfig { view_size: 1 });
        c.seed([d(1, 200)]);
        c.on_response(vec![], &[d(9, 10)], &10, &byte_sim);
        assert!(c.contains(9));
    }

    #[test]
    fn initiate_ships_entire_view_plus_self() {
        let mut c: Clustering<u8> = Clustering::new(5, ClusteringConfig { view_size: 3 });
        c.seed([d(1, 1), d(2, 2)]);
        let (partner, payload) = c.initiate(42).unwrap();
        assert!(partner == 1 || partner == 2);
        assert_eq!(payload.len(), 3);
        assert!(payload.iter().any(|x| x.node == 5 && x.payload == 42));
    }

    #[test]
    fn on_request_answers_with_view() {
        let mut c: Clustering<u8> = Clustering::new(5, ClusteringConfig { view_size: 3 });
        c.seed([d(1, 1)]);
        let resp = c.on_request(vec![d(2, 2)], &[], 0, &byte_sim);
        assert!(resp.iter().any(|x| x.node == 5));
        assert!(resp.iter().any(|x| x.node == 1));
        assert!(c.contains(2));
    }

    #[test]
    fn never_contains_self() {
        let mut c: Clustering<u8> = Clustering::new(7, ClusteringConfig { view_size: 4 });
        c.on_response(vec![d(7, 0), d(1, 0)], &[d(7, 0)], &0, &byte_sim);
        assert!(!c.contains(7));
    }

    #[test]
    fn oldest_first_partner_selection() {
        let mut c: Clustering<u8> = Clustering::new(0, ClusteringConfig { view_size: 2 });
        c.seed([d(1, 1)]);
        c.initiate(0); // ages node 1 to 1
        c.on_response(vec![d(2, 2)], &[], &0, &byte_sim); // node 2 age 0
        let (partner, _) = c.initiate(0).unwrap();
        assert_eq!(partner, 1, "older entry must be chosen");
    }

    #[test]
    fn deterministic_merge_under_ties() {
        let run = |id: NodeId| {
            let mut c: Clustering<u8> = Clustering::new(id, ClusteringConfig { view_size: 2 });
            c.on_response(vec![d(3, 5), d(1, 5), d(2, 5)], &[], &5, &byte_sim);
            let mut ids: Vec<NodeId> = c.view().node_ids().collect();
            ids.sort_unstable();
            ids
        };
        // Deterministic per node…
        assert_eq!(run(0), run(0));
        assert_eq!(run(0).len(), 2);
        // …but decorrelated across nodes: with all scores tied, different
        // nodes must not all keep the same candidates (no global collapse).
        let distinct: std::collections::HashSet<Vec<NodeId>> =
            (0..16).map(|id| run(id + 100)).collect();
        assert!(distinct.len() > 1, "tie-breaking collapsed onto one order");
    }

    proptest! {
        /// Same survivors in the same order as the full stable sort, for
        /// every cut — including no cut at all and a cut inside a run of
        /// candidates that tie on score and age. `score_levels = 1` ties
        /// every score (the state of every view before profiles mature),
        /// `age_levels = 1` every age; nodes are distinct, as they are
        /// after `dedup_freshest`.
        #[test]
        fn selection_matches_the_full_sort(
            self_id in 0u32..64,
            keep in 1usize..40,
            score_levels in 1u32..4,
            age_levels in 1u32..4,
            raw in prop::collection::vec((0u32..1_000, 0u32..1_000), 0..90),
        ) {
            let scored: Vec<Scored<usize>> = raw
                .iter()
                .enumerate()
                .map(|(at, &(score, age))| {
                    let node = 1_000 + at as NodeId;
                    let d = Descriptor { node, age: age % age_levels, payload: at };
                    (f64::from(score % score_levels) / 4.0, mix(self_id, node), d)
                })
                .collect();
            prop_assert_eq!(
                closest(scored.clone(), keep),
                closest_by_full_sort(scored, keep)
            );
        }
    }
}
