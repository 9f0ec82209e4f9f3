//! BEEP target selection (paper §III, Algorithm 2).
//!
//! BEEP is heterogeneous along two dimensions:
//!
//! * **Amplification** — the number of targets depends on the user's opinion:
//!   `fLIKE` copies for a liked item (social filtering: interest amplifies
//!   spread), a single copy for a disliked one.
//! * **Orientation** — *which* targets: liked items go to random WUP
//!   neighbors (already similar, randomness avoids over-clustering);
//!   disliked items go to the RPS node whose profile best matches the
//!   *item's* profile, giving the item a chance to find its community
//!   elsewhere (serendipity), bounded by a TTL carried in the message.
//!
//! The decision logic is pure: callers pass the views in and get the target
//! list out, so the paper's CF and gossip baselines are alternative
//! [`BeepConfig`]s rather than separate protocol stacks.

use crate::hash::mix64;
use crate::item::ItemIndexMap;
use crate::profile::{Profile, SharedProfile};
use crate::similarity::{Metric, Prepared};
use rand::Rng;
use whatsup_gossip::{NodeId, View};

/// Where like-forwarding picks its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPool {
    /// The WUP clustering view (WhatsUp, CF).
    Wup,
    /// The RPS view (homogeneous gossip baseline).
    Rps,
}

/// What to do with an item the user dislikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DislikeRule {
    /// Drop it (CF baselines take "no action", §IV-B).
    Drop,
    /// Forward up to `ttl` total dislike-hops. `oriented` selects the RPS
    /// node most similar to the item profile (BEEP) versus a uniform RPS
    /// node (ablation / homogeneous gossip).
    Forward {
        fanout: usize,
        ttl: u8,
        oriented: bool,
    },
}

/// BEEP policy knobs (a [`crate::params::Params`] fragment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeepConfig {
    /// Fanout for liked items (`fLIKE`).
    pub f_like: usize,
    /// Pool liked-item targets are drawn from.
    pub like_pool: TargetPool,
    /// CF mode: ignore `f_like` sampling and forward to the *entire* view
    /// ("forwards it to its k closest neighbors").
    pub like_entire_view: bool,
    /// Dislike-path rule.
    pub dislike: DislikeRule,
}

/// Outcome of Algorithm 2 for one received copy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ForwardDecision {
    /// Nodes to send the copy to (empty = drop).
    pub targets: Vec<NodeId>,
    /// The dislike counter to stamp on the outgoing copies.
    pub dislikes: u8,
}

/// Applies Algorithm 2.
///
/// * `liked` — the receiving user's opinion (`iLike`).
/// * `dislikes` — the counter `dI` carried by the received copy.
/// * `item_profile` — the copy's aggregated profile (used by orientation).
/// * `items` — the run's item index (numbers the layouts orientation
///   scores with).
/// * `wup_view`, `rps_view` — the node's current views.
#[allow(clippy::too_many_arguments)] // Algorithm 2 takes the full context
pub(crate) fn decide(
    config: &BeepConfig,
    liked: bool,
    dislikes: u8,
    item_profile: &Profile,
    items: &ItemIndexMap,
    wup_view: &View<SharedProfile>,
    rps_view: &View<SharedProfile>,
    metric: Metric,
    rng: &mut impl Rng,
) -> ForwardDecision {
    if liked {
        let pool = match config.like_pool {
            TargetPool::Wup => wup_view,
            TargetPool::Rps => rps_view,
        };
        let targets = if config.like_entire_view {
            pool.node_ids().collect()
        } else {
            pool.sample_ids(config.f_like, rng)
        };
        return ForwardDecision { targets, dislikes };
    }
    match config.dislike {
        DislikeRule::Drop => ForwardDecision {
            targets: Vec::new(),
            dislikes,
        },
        DislikeRule::Forward {
            fanout,
            ttl,
            oriented,
        } => {
            if dislikes >= ttl {
                return ForwardDecision {
                    targets: Vec::new(),
                    dislikes,
                };
            }
            let targets = if oriented {
                // The salt decorrelates tie-breaking: with an immature item
                // profile every candidate scores 0, and a fixed tie order
                // would funnel all disliked traffic to the same nodes.
                select_most_similar_k(item_profile, items, rps_view, metric, fanout, rng.gen())
            } else {
                rps_view.sample_ids(fanout, rng)
            };
            ForwardDecision {
                targets,
                dislikes: dislikes.saturating_add(1),
            }
        }
    }
}

/// The `k` RPS entries closest to the item profile:
/// `selectMostSimilarNode(P^I, RPS)` (Algorithm 2, line 27) is `k = 1`,
/// and the no-amplification ablation widens the dislike path to match
/// `fLIKE`. An empty view yields no entry.
/// Ties break on a salt-keyed mix of the node id, so equal-scoring
/// candidates do not collapse onto a global order.
pub fn select_most_similar_k(
    item_profile: &Profile,
    items: &ItemIndexMap,
    rps_view: &View<SharedProfile>,
    metric: Metric,
    k: usize,
    salt: u64,
) -> Vec<NodeId> {
    if k == 0 || rps_view.is_empty() {
        return Vec::new();
    }
    // This sits on the news hot path — one call per disliked first
    // reception, the whole RPS view each time — so the item profile is
    // prepared once and the candidates stream past it. The tie mix is
    // precomputed per candidate; a sort comparator would otherwise
    // re-derive it O(n log n) times.
    let scorer = Prepared::new(item_profile, items);
    let scored = rps_view.entries().iter().map(|d| {
        (
            scorer.score(metric, &d.payload),
            tie_mix(salt, d.node),
            d.node,
        )
    });
    // Best first: score descending, then tie mix ascending. BEEP proper
    // always asks for a single target (dislike fanout 1): one loop keeps
    // the best so far — a later candidate replaces it only if strictly
    // better, so the first of equals wins, as in the stable sort below —
    // instead of sorting. As there, comparing a NaN panics.
    if k == 1 {
        let mut scored = scored;
        let mut best = scored.next().expect("the view is not empty");
        for (score, mix, node) in scored {
            let nan = score.is_nan() || best.0.is_nan();
            assert!(!nan, "similarity is never NaN");
            if score > best.0 || score == best.0 && mix < best.1 {
                best = (score, mix, node);
            }
        }
        return vec![best.2];
    }
    let best_first = |(sa, ma, _): &(f64, u64, NodeId), (sb, mb, _): &(f64, u64, NodeId)| {
        sb.partial_cmp(sa)
            .expect("similarity is never NaN")
            .then(ma.cmp(mb))
    };
    let mut scored: Vec<(f64, u64, NodeId)> = scored.collect();
    scored.sort_by(best_first);
    scored.truncate(k);
    scored.into_iter().map(|(_, _, n)| n).collect()
}

/// SplitMix64-style avalanche for salt-keyed tie-breaking.
#[inline]
fn tie_mix(salt: u64, node: NodeId) -> u64 {
    mix64(salt ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileEntry;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use whatsup_gossip::Descriptor;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    /// The run's item index of these tests: ids 0..64.
    fn items() -> ItemIndexMap {
        (0..64).zip(0..).collect()
    }

    fn profile(likes: &[u64]) -> Profile {
        Profile::from_entries(likes.iter().map(|&i| ProfileEntry {
            item: i,
            timestamp: 0,
            score: 1.0,
        }))
    }

    fn view(entries: &[(NodeId, &[u64])]) -> View<SharedProfile> {
        let mut v = View::new(entries.len().max(1));
        for &(n, likes) in entries {
            v.insert(Descriptor::fresh(n, std::sync::Arc::new(profile(likes))));
        }
        v
    }

    fn whatsup_cfg() -> BeepConfig {
        BeepConfig {
            f_like: 2,
            like_pool: TargetPool::Wup,
            like_entire_view: false,
            dislike: DislikeRule::Forward {
                fanout: 1,
                ttl: 4,
                oriented: true,
            },
        }
    }

    #[test]
    fn liked_item_amplifies_from_wup() {
        let items = items();
        let wup = view(&[(1, &[]), (2, &[]), (3, &[])]);
        let rps = view(&[(9, &[])]);
        let d = decide(
            &whatsup_cfg(),
            true,
            0,
            &Profile::new(),
            &items,
            &wup,
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert_eq!(d.targets.len(), 2);
        assert!(d.targets.iter().all(|t| [1, 2, 3].contains(t)));
        assert_eq!(d.dislikes, 0, "like path never bumps the counter");
    }

    #[test]
    fn disliked_item_is_oriented_and_counted() {
        let items = items();
        // Item profile likes {1,2}; node 8's profile matches, node 9's not.
        let wup = view(&[(1, &[])]);
        let rps = view(&[(8, &[1, 2]), (9, &[50])]);
        let item_profile = profile(&[1, 2]);
        let d = decide(
            &whatsup_cfg(),
            false,
            1,
            &item_profile,
            &items,
            &wup,
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert_eq!(d.targets, vec![8]);
        assert_eq!(d.dislikes, 2);
    }

    #[test]
    fn ttl_exhaustion_drops() {
        let items = items();
        let rps = view(&[(8, &[1])]);
        let d = decide(
            &whatsup_cfg(),
            false,
            4,
            &profile(&[1]),
            &items,
            &view(&[]),
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert!(d.targets.is_empty());
        assert_eq!(d.dislikes, 4, "counter unchanged on drop");
    }

    #[test]
    fn cf_forwards_entire_view_and_drops_dislikes() {
        let items = items();
        let cfg = BeepConfig {
            f_like: 3,
            like_pool: TargetPool::Wup,
            like_entire_view: true,
            dislike: DislikeRule::Drop,
        };
        let wup = view(&[(1, &[]), (2, &[]), (3, &[]), (4, &[])]);
        let rps = view(&[(9, &[])]);
        let liked = decide(
            &cfg,
            true,
            0,
            &Profile::new(),
            &items,
            &wup,
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert_eq!(liked.targets.len(), 4, "CF sends to all k neighbors");
        let disliked = decide(
            &cfg,
            false,
            0,
            &Profile::new(),
            &items,
            &wup,
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert!(disliked.targets.is_empty());
    }

    #[test]
    fn gossip_forwards_dislikes_uniformly() {
        let items = items();
        let cfg = BeepConfig {
            f_like: 2,
            like_pool: TargetPool::Rps,
            like_entire_view: false,
            dislike: DislikeRule::Forward {
                fanout: 2,
                ttl: u8::MAX,
                oriented: false,
            },
        };
        let rps = view(&[(1, &[]), (2, &[]), (3, &[])]);
        let d = decide(
            &cfg,
            false,
            7,
            &Profile::new(),
            &items,
            &view(&[]),
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        assert_eq!(d.targets.len(), 2);
        assert_eq!(d.dislikes, 8);
    }

    #[test]
    fn orientation_tie_break_is_deterministic_per_salt() {
        let items = items();
        let rps = view(&[(5, &[1]), (3, &[1])]);
        let a = select_most_similar_k(&profile(&[1]), &items, &rps, Metric::Wup, 1, 0);
        let b = select_most_similar_k(&profile(&[1]), &items, &rps, Metric::Wup, 1, 0);
        assert_eq!(a, b, "same salt, same pick");
        assert!(matches!(a[..], [3] | [5]));
        // Different salts must be able to pick different tied candidates.
        let picks: std::collections::HashSet<NodeId> = (0..32u64)
            .filter_map(|salt| {
                select_most_similar_k(&profile(&[1]), &items, &rps, Metric::Wup, 1, salt)
                    .into_iter()
                    .next()
            })
            .collect();
        assert_eq!(picks.len(), 2, "ties must not collapse onto one node");
    }

    #[test]
    fn top_k_orientation_orders_by_similarity() {
        let items = items();
        // Node 8 matches both liked items, node 5 one (tied at 1.0 under
        // the asymmetric metric), node 3 none — 3 must always rank last.
        let rps = view(&[(5, &[1]), (3, &[50]), (8, &[1, 2])]);
        let ip = profile(&[1, 2]);
        let sel = select_most_similar_k(&ip, &items, &rps, Metric::Wup, 2, 0);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![5, 8],
            "zero-match candidate excluded from top 2"
        );
        let all = select_most_similar_k(&ip, &items, &rps, Metric::Wup, 10, 0);
        assert_eq!(all.len(), 3, "k larger than view returns everything");
        assert_eq!(*all.last().unwrap(), 3, "worst match last");
    }

    #[test]
    fn widened_dislike_fanout_sends_multiple_oriented_copies() {
        let items = items();
        let cfg = BeepConfig {
            f_like: 3,
            like_pool: TargetPool::Wup,
            like_entire_view: false,
            dislike: DislikeRule::Forward {
                fanout: 2,
                ttl: 4,
                oriented: true,
            },
        };
        let rps = view(&[(1, &[7]), (2, &[7]), (3, &[50])]);
        let d = decide(
            &cfg,
            false,
            0,
            &profile(&[7]),
            &items,
            &view(&[]),
            &rps,
            Metric::Wup,
            &mut rng(),
        );
        let mut targets = d.targets.clone();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 2], "both similar nodes targeted");
        assert_eq!(d.dislikes, 1);
    }

    #[test]
    fn the_single_pick_heads_the_sorted_ranking() {
        let items = items();
        // Scores tie in groups (likes of 0–3 of the item's four items), so
        // the tie mix and the first-of-equals rule decide most picks.
        let likes: Vec<Vec<u64>> = (0..12u64).map(|n| (1..=n % 4).collect()).collect();
        let entries: Vec<(NodeId, &[u64])> = (0..12u32)
            .map(|n| (n * 7 % 12, likes[n as usize].as_slice()))
            .collect();
        let rps = view(&entries);
        let item = profile(&[1, 2, 3, 4]);
        for salt in 0..64u64 {
            let sorted = select_most_similar_k(&item, &items, &rps, Metric::Wup, 12, salt);
            let single = select_most_similar_k(&item, &items, &rps, Metric::Wup, 1, salt);
            assert_eq!(single, sorted[..1], "salt {salt}");
        }
    }

    #[test]
    fn empty_rps_view_yields_no_target() {
        let items = items();
        let sel = select_most_similar_k(&profile(&[1]), &items, &View::new(1), Metric::Wup, 1, 0);
        assert!(sel.is_empty());
    }

    #[test]
    fn fanout_larger_than_view_takes_all() {
        let items = items();
        let cfg = BeepConfig {
            f_like: 10,
            ..whatsup_cfg()
        };
        let wup = view(&[(1, &[]), (2, &[])]);
        let d = decide(
            &cfg,
            true,
            0,
            &Profile::new(),
            &items,
            &wup,
            &View::new(1),
            Metric::Wup,
            &mut rng(),
        );
        assert_eq!(d.targets.len(), 2);
    }
}
