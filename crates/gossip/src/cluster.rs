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

use crate::view::{dedup_freshest, gather, Descriptor, NodeId, View};

/// Ranks a candidate payload against the node's own payload. Higher is more
/// similar. Implementations must be pure (no interior mutability observable
/// across calls) so that selection is deterministic.
///
/// A merge ranks on the score's value only: −0.0 and +0.0 rank equal (the
/// tie falls to age, then to the id mix), and a NaN score panics the merge
/// with "similarity scores must not be NaN".
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

    /// Whether `node` is in the view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.view.contains(node)
    }

    fn exchange_payload(&self, own_payload: P) -> Vec<Descriptor<P>> {
        let mut payload: Vec<Descriptor<P>> = self.view.entries().to_vec();
        payload.push(Descriptor::fresh(self.id, own_payload));
        payload
    }

    /// "The receiving node selects the nodes from the union of its own and
    /// the received views whose profiles are closest to its own" (§II).
    ///
    /// Rank by similarity descending; ties by freshness, then by a per-node
    /// id mix. The mix matters: before profiles mature, *all* scores tie,
    /// and any globally consistent tie order (e.g. lowest id first) would
    /// collapse every node's view onto the same few peers, wrecking the
    /// overlay. Mixing with the local id keeps tie-breaking deterministic
    /// per node but decorrelated across nodes.
    ///
    /// The union own view ++ `received` ++ `rps_candidates` is deduplicated
    /// and scored by reference and ranked on integer keys ([`rank_key`]);
    /// only the survivors are gathered — moved out of the old view and
    /// `received`, cloned from the RPS view. The union's order and the
    /// ranking are those of the cloning twin (`merge_by_cloning`, the
    /// merge as first written), and so is the view.
    fn merge<S: Similarity<P>>(
        &mut self,
        received: Vec<Descriptor<P>>,
        rps_candidates: &[Descriptor<P>],
        own_payload: &P,
        sim: &S,
    ) {
        let old = self.view.take_entries();
        let union: Vec<&Descriptor<P>> =
            old.iter().chain(&received).chain(rps_candidates).collect();
        let self_id = self.id;
        let ranked = dedup_freshest(union.iter().map(|d| (d.node, d.age)), self_id)
            .into_iter()
            .map(|at| {
                let d = union[at];
                let (high, low) = rank_key(
                    sim.score(own_payload, &d.payload),
                    d.age,
                    mix(self_id, d.node),
                );
                (high, low, at)
            })
            .collect();
        let picks = closest(ranked, self.config.view_size);
        self.view.replace_with(gather(
            old,
            received,
            rps_candidates,
            picks.into_iter().map(|(_, _, at)| at),
        ));
    }
}

/// A merge candidate: its [`rank_key`], then its position in the union.
/// Keys are distinct within a merge, so the position never decides.
type Ranked = (u128, u32, usize);

/// The merge's ranking as one integer key, lower first: the score
/// descending, then the age ascending, then `mix` ascending — the order of
/// `rank`, the float comparator of the cloning twin, for every non-NaN
/// score. The high word holds, most significant first, the score's IEEE
/// total-order bits inverted (higher scores first), the age and the high
/// half of `mix`; the low word the low half of `mix`. −0.0 is folded into
/// +0.0 first: the total order would tell them apart, and `rank`,
/// comparing values, does not.
fn rank_key(score: f64, age: u32, mix: u64) -> (u128, u32) {
    assert!(!score.is_nan(), "similarity scores must not be NaN");
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // Flipping a negative's bits and setting a positive's sign bit makes
    // the unsigned order the numeric one.
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    let high = u128::from(!ascending) << 64 | u128::from(age) << 32 | u128::from(mix >> 32);
    (high, mix as u32)
}

/// The `keep` best-ranked candidates, best first. A merge ranks ~60
/// candidates to keep 20, so the survivors are selected first and only
/// they are sorted. The key is a strict total order over the candidates of
/// one merge — after `dedup_freshest` their nodes are distinct, and
/// `mix(self_id, ·)` is injective (an XOR with a constant, then a
/// bijective finaliser) — so there is exactly one sorted sequence: the
/// survivors *and their order in the view* (which `View::oldest` ties and
/// the index shuffle of `View::sample_ids` depend on) are those of
/// [`closest_by_full_sort`], although neither the selection nor the sort
/// is stable.
fn closest(mut ranked: Vec<Ranked>, keep: usize) -> Vec<Ranked> {
    if keep < ranked.len() {
        ranked.select_nth_unstable(keep);
        ranked.truncate(keep);
    }
    ranked.sort_unstable();
    ranked
}

/// A merge candidate of the cloning twin: score, id mix, descriptor.
#[cfg(test)]
type Scored<P> = (f64, u64, Descriptor<P>);

/// The merge's ranking as first written, on floats.
#[cfg(test)]
fn rank<P>((sa, ma, da): &Scored<P>, (sb, mb, db): &Scored<P>) -> std::cmp::Ordering {
    sb.partial_cmp(sa)
        .expect("similarity scores must not be NaN")
        .then(da.age.cmp(&db.age))
        .then(ma.cmp(mb))
}

/// [`closest`] as it was first written — sort everything on [`rank`], cut
/// — kept as the executable statement of what the selection must return.
#[cfg(test)]
fn closest_by_full_sort<P>(mut scored: Vec<Scored<P>>, keep: usize) -> Vec<Scored<P>> {
    scored.sort_by(rank);
    scored.truncate(keep);
    scored
}

#[cfg(test)]
impl<P: Clone> Clustering<P> {
    /// [`Self::merge`] as it was first written — clone the union, dedup
    /// it, score it, sort it whole on [`rank`], cut — kept as the
    /// executable statement of the view a merge must produce.
    fn merge_by_cloning<S: Similarity<P>>(
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
            .chain(rps_candidates.iter().cloned());
        let scored = crate::view::dedup_freshest_by_search(union, self.id)
            .into_iter()
            .map(|d| (sim.score(own_payload, &d.payload), mix(self.id, d.node), d))
            .collect();
        self.view.replace_with(
            closest_by_full_sort(scored, self.config.view_size)
                .into_iter()
                .map(|(_, _, d)| d)
                .collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::same_entries;
    use proptest::prelude::*;
    use std::sync::Arc;

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

    #[test]
    #[should_panic(expected = "similarity scores must not be NaN")]
    fn a_nan_score_panics_the_merge() {
        let mut c: Clustering<u8> = Clustering::new(0, ClusteringConfig { view_size: 2 });
        let nan_for_two = |_: &u8, cand: &u8| if *cand == 2 { f64::NAN } else { 1.0 };
        c.on_response(vec![d(1, 1), d(2, 2), d(3, 3)], &[], &0, &nan_for_two);
    }

    #[test]
    fn signed_zeros_tie_and_fall_to_age_then_mix() {
        let (zero, negative_zero) = (rank_key(0.0, 3, 7), rank_key(-0.0, 3, 7));
        assert_eq!(zero, negative_zero);
        assert!(rank_key(-0.0, 2, u64::MAX) < rank_key(0.0, 3, 0));
        assert!(rank_key(0.0, 3, 1 << 32) < rank_key(-0.0, 3, (1 << 32) + 1));
        assert!(rank_key(f64::MIN_POSITIVE, 9, 9) < zero);
        assert!(zero < rank_key(-f64::MIN_POSITIVE, 0, 0));
        assert!(rank_key(f64::INFINITY, 0, 0) < rank_key(f64::MAX, 0, 0));
        assert!(rank_key(-f64::MAX, 0, 0) < rank_key(f64::NEG_INFINITY, 0, 0));
    }

    /// A score for each test code, by `mode`: all tied, signed zeros only,
    /// negative levels (with ties), distinct values of both signs, or all
    /// of these mixed. Codes are below 1 000.
    fn score_of(mode: u32, code: u32) -> f64 {
        let mixed = [
            0.5,
            -0.0,
            0.0,
            -f64::from(code % 4) / 4.0,
            f64::from(code) / 7.0 - 50.0,
        ];
        match mode {
            0 => 0.5,
            1 => mixed[1 + code as usize % 2],
            2 => mixed[3],
            3 => mixed[4],
            _ => mixed[code as usize % mixed.len()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same survivors in the same order as the full stable sort on the
        /// float comparator, for every cut — including no cut at all and a
        /// cut inside a run of candidates that tie on score and age. Mode 0
        /// ties every score (the state of every view before profiles
        /// mature), `age_levels = 1` every age, mode 1 draws only −0.0 and
        /// +0.0; nodes are distinct, as they are after `dedup_freshest`.
        #[test]
        fn selection_matches_the_full_sort(
            self_id in 0u32..64,
            keep in 1usize..40,
            mode in 0u32..5,
            age_levels in 1u32..4,
            raw in prop::collection::vec((0u32..1_000, 0u32..1_000), 0..90),
        ) {
            let scored: Vec<Scored<usize>> = raw
                .iter()
                .enumerate()
                .map(|(at, &(code, age))| {
                    let node = 1_000 + at as NodeId;
                    let d = Descriptor { node, age: age % age_levels, payload: at };
                    (score_of(mode, code), mix(self_id, node), d)
                })
                .collect();
            let ranked: Vec<Ranked> = scored
                .iter()
                .map(|(score, mix, d)| {
                    let (high, low) = rank_key(*score, d.age, *mix);
                    (high, low, d.payload)
                })
                .collect();
            let fast: Vec<usize> = closest(ranked, keep).into_iter().map(|(_, _, at)| at).collect();
            let slow: Vec<usize> =
                closest_by_full_sort(scored, keep).into_iter().map(|(_, _, d)| d.payload).collect();
            prop_assert_eq!(fast, slow);
        }

        /// The clone-free merge leaves the view its cloning twin leaves,
        /// entry by entry — node, age and which `Arc` — through
        /// `on_request` and `on_response`. Few nodes and ages, so nodes
        /// repeat across the own, received and RPS lists, ages tie and
        /// self-descriptors occur; the payload is the candidate's score.
        /// The new view's allocation fits it, as views stand until the
        /// next merge.
        #[test]
        fn merges_match_the_cloning_twin(
            self_id in 0u32..12,
            view_size in 1usize..12,
            mode in 0u32..5,
            request in prop::bool::ANY,
            own in prop::collection::vec((0u32..20, 0u32..4, 0u32..1_000), 0..14),
            received in prop::collection::vec((0u32..20, 0u32..4, 0u32..1_000), 0..24),
            rps in prop::collection::vec((0u32..20, 0u32..4, 0u32..1_000), 0..30),
        ) {
            let arcs = |raw: &[(NodeId, u32, u32)]| -> Vec<Descriptor<Arc<f64>>> {
                raw.iter()
                    .map(|&(node, age, code)| Descriptor {
                        node,
                        age,
                        payload: Arc::new(score_of(mode, code)),
                    })
                    .collect()
            };
            let by_payload = |_: &Arc<f64>, cand: &Arc<f64>| **cand;
            let mut fast = Clustering::new(self_id, ClusteringConfig { view_size });
            fast.seed(arcs(&own));
            let mut slow = fast.clone();
            let (received, rps) = (arcs(&received), arcs(&rps));
            let own_payload = Arc::new(0.0);
            if request {
                fast.on_request(received.clone(), &rps, Arc::clone(&own_payload), &by_payload);
            } else {
                fast.on_response(received.clone(), &rps, &own_payload, &by_payload);
            }
            slow.merge_by_cloning(received, &rps, &own_payload, &by_payload);
            prop_assert!(
                same_entries(fast.view().entries(), slow.view().entries()),
                "{:?} != {:?}",
                fast.view().entries(),
                slow.view().entries()
            );
            let len = fast.view().len();
            prop_assert_eq!(fast.view.take_entries().capacity(), len);
        }
    }
}
