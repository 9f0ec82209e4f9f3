//! C-WhatsUp: the centralized variant with global knowledge
//! (paper §IV-B, Fig. 9).
//!
//! A server "gathers the global knowledge of all the profiles of its users
//! and news items" and "instantaneously updates node and item profiles"
//! (§V-G): every user's windowed profile is current the moment an item is
//! published — no gossip staleness, no partial sample. Dissemination then
//! mirrors BEEP with the gossip-sampled WUP view replaced by the *exact*
//! global similarity pools: on a like, the server delivers `fLIKE` copies
//! drawn from the top-`2·fLIKE` users closest to the liker (cosine over
//! user profiles) and `fLIKE` more from the top-`2·fLIKE` users best
//! correlated with the *item profile*; on a dislike it delivers to the
//! `fDISLIKE = 1` user most similar to the item profile, up to `TTL`
//! times. Already-covered users are simply not re-delivered (SIR damping).
//!
//! This bounds what decentralization costs WhatsUp: the paper reports that
//! the centralized variant gains ~17% precision, loses ~14% recall, and
//! ends up ~5% ahead in F1 — the same shape this engine reproduces.

use crate::config::{Protocol, SimConfig};
use crate::environment::Publications;
use crate::record::{Ledger, Reception, SimReport};
use crate::scenario::Scenario;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use whatsup_core::{cosine_similarity, Profile};
use whatsup_datasets::Dataset;

const TTL: u8 = 4;
const F_DISLIKE: usize = 1;

/// Runs C-WhatsUp with like-fanout `f_like` under `scenario`'s publication
/// schedule. The server is reliable (the paper compares against the
/// ideal), so the scenario's environment is not consulted.
pub(crate) fn run_scenario(
    dataset: &Dataset,
    f_like: usize,
    cfg: &SimConfig,
    scenario: &Scenario,
) -> SimReport {
    let n = dataset.n_users();
    let window = 13u32;

    let mut profiles: Vec<Profile> = vec![Profile::new(); n];
    let plan = Publications::plan(dataset, scenario, cfg);
    let mut ledger = Ledger::open(&plan.cycle_of, cfg, 0);

    let mut current_cycle = 0u32;
    // Items in publication order, cycle by cycle.
    for &index in plan.at_cycle.iter().flatten() {
        let published_at = plan.cycle_of[index as usize];
        // Advance the clock: purge profile windows on cycle boundaries.
        while current_cycle < published_at {
            current_cycle += 1;
            let cutoff = current_cycle.saturating_sub(window);
            for p in &mut profiles {
                p.purge_older_than(cutoff);
            }
        }
        let source = plan.items[index as usize].source;
        let item_id = plan.ids[index as usize];
        ledger.published(
            index,
            source,
            &dataset.likes.interested_users(index as usize),
        );

        let mut seen = vec![false; n];
        seen[source as usize] = true;
        let mut item_profile = Profile::new();

        // Global knowledge, instantaneous profile updates (§V-G): the
        // server maintains every user's opinion on every (windowed) item
        // the moment it is published — the limit case of "gathering the
        // global knowledge of all the profiles of its users".
        for (u, profile) in profiles.iter_mut().enumerate() {
            profile.rate(
                item_id,
                published_at,
                dataset.likes.likes(u, index as usize),
            );
        }
        item_profile.aggregate_user_profile(&profiles[source as usize]);

        // Queue of pending deliveries: (user, dislike counter, hop).
        // A selected user that already received the item is simply not
        // delivered again (the SIR "removed" state), which is what throttles
        // the centralized epidemic.
        let mut pick = ChaCha8Rng::seed_from_u64(cfg.seed ^ item_id ^ 0xc0ffee);
        let mut queue: VecDeque<(u32, u8, u16)> = VecDeque::new();
        let deliver = |targets: Vec<u32>,
                       seen: &mut Vec<bool>,
                       queue: &mut VecDeque<(u32, u8, u16)>,
                       ledger: &mut Ledger,
                       dislikes: u8,
                       hop: u16| {
            for t in targets {
                if seen[t as usize] {
                    continue;
                }
                seen[t as usize] = true;
                ledger.sent(published_at, index, 1);
                queue.push_back((t, dislikes, hop));
            }
        };

        // Initial placement: the source is the item's first liker, so the
        // server applies the like rule to it — fLIKE random picks from the
        // source-similarity pool and from the item-profile pool. For the
        // very first items (empty profiles everywhere) a deterministic
        // fallback seeds random users — the server has to show fresh items
        // to someone before any correlation exists.
        let src_pool = top_k_all(&profiles, source as usize, 2 * f_like, |p| {
            cosine_similarity(&profiles[source as usize], p)
        });
        let item_pool = top_k_all(&profiles, source as usize, 2 * f_like, |p| {
            cosine_similarity(&item_profile, p)
        });
        let mut first = sample_k(src_pool, f_like, &mut pick);
        first.extend(sample_k(item_pool, f_like, &mut pick));
        first.sort_unstable();
        first.dedup();
        if first.is_empty() {
            let mut fallback = ChaCha8Rng::seed_from_u64(cfg.seed ^ item_id);
            first = (0..f_like)
                .map(|_| fallback.gen_range(0..n as u32))
                .filter(|&u| u != source)
                .collect();
            first.sort_unstable();
            first.dedup();
        }
        deliver(first, &mut seen, &mut queue, &mut ledger, 0, 1);
        ledger.forwarded(index, 0, true);

        while let Some((user, dislikes, hop)) = queue.pop_front() {
            let u = user as usize;
            let likes = dataset.likes.likes(u, index as usize);
            let reception = Reception {
                likes,
                hop: Some((hop, true)),
                dislikes: Some(dislikes),
            };
            ledger.first_reception(published_at, index, user, reception);
            if likes {
                // Fold the liker into the item (community) profile.
                item_profile.aggregate_user_profile(&profiles[u]);
                ledger.forwarded(index, hop, true);
                // The server replaces WhatsUp's gossip-sampled WUP view by
                // the exact global top-2·fLIKE similarity pools, then — like
                // BEEP — delivers to fLIKE random members of each pool:
                // (a) the pool closest to the liker by user-profile cosine;
                // (b) the pool best correlated with the evolving item
                // profile. Already-covered selections are dropped by
                // `deliver` (SIR damping).
                let pool_user = top_k_all(&profiles, u, 2 * f_like, |p| {
                    cosine_similarity(&profiles[u], p)
                });
                let pool_item = top_k_all(&profiles, u, 2 * f_like, |p| {
                    cosine_similarity(&item_profile, p)
                });
                let by_user = sample_k(pool_user, f_like, &mut pick);
                let by_item = sample_k(pool_item, f_like, &mut pick);
                let next = hop + 1;
                deliver(by_user, &mut seen, &mut queue, &mut ledger, dislikes, next);
                deliver(by_item, &mut seen, &mut queue, &mut ledger, dislikes, next);
            } else {
                if dislikes < TTL {
                    ledger.forwarded(index, hop, false);
                    let targets = top_k_all(&profiles, u, F_DISLIKE, |p| {
                        cosine_similarity(&item_profile, p)
                    });
                    deliver(
                        targets,
                        &mut seen,
                        &mut queue,
                        &mut ledger,
                        dislikes + 1,
                        hop + 1,
                    );
                }
            }
        }
    }
    ledger.end_cycle(cfg.cycles - 1, n);
    let protocol = Protocol::CWhatsUp { f_like };
    ledger.into_report(protocol, dataset.name.clone(), n, scenario)
}

/// Uniform sample of `k` entries from a candidate pool (deterministic given
/// the caller's RNG) — the server-side analogue of BEEP's random selection
/// within the WUP view.
fn sample_k(mut pool: Vec<u32>, k: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    use rand::seq::SliceRandom;
    pool.shuffle(rng);
    pool.truncate(k);
    pool
}

/// Like [`top_k_by`] but over *all* users except `exclude`, covered or not —
/// the per-liker neighborhood of the paper's description. Selections that
/// were already covered are dropped at delivery time, which is what damps
/// the centralized epidemic.
fn top_k_all(
    profiles: &[Profile],
    exclude: usize,
    k: usize,
    score: impl Fn(&Profile) -> f64,
) -> Vec<u32> {
    let mut scored: Vec<(f64, u32)> = profiles
        .iter()
        .enumerate()
        .filter(|&(u, _)| u != exclude)
        .map(|(u, p)| (score(p), u as u32))
        .filter(|&(s, _)| s > 0.0)
        .collect();
    scored.sort_by(|(sa, ua), (sb, ub)| {
        sb.partial_cmp(sa)
            .expect("similarity is never NaN")
            .then(ua.cmp(ub))
    });
    scored.truncate(k);
    scored.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use whatsup_datasets::{survey, SurveyConfig};

    fn dataset() -> Dataset {
        survey::generate(&SurveyConfig::paper().scaled(0.12), 33)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            cycles: 20,
            publish_from: 2,
            measure_from: 8,
            ..Default::default()
        }
    }

    fn run(dataset: &Dataset, f_like: usize, cfg: &SimConfig) -> SimReport {
        crate::Runner::new(dataset, Protocol::CWhatsUp { f_like })
            .config(cfg.clone())
            .run()
    }

    #[test]
    fn centralized_produces_sane_scores() {
        let d = dataset();
        let r = run(&d, 5, &cfg());
        let s = r.scores();
        assert!(s.precision > 0.2, "{s:?}");
        assert!(s.recall > 0.2, "{s:?}");
        assert!(r.news_messages > 0);
    }

    #[test]
    fn centralized_beats_or_matches_decentralized_f1() {
        // Global knowledge should give at least comparable quality
        // (the paper reports decentralized within ~5%).
        let d = dataset();
        let c = run(&d, 5, &cfg());
        let w = crate::Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(cfg())
            .run();
        assert!(
            c.scores().f1 + 0.1 >= w.scores().f1,
            "centralized {:?} vs decentralized {:?}",
            c.scores(),
            w.scores()
        );
    }

    #[test]
    fn dislike_counters_bounded_by_ttl() {
        let d = dataset();
        let r = run(&d, 4, &cfg());
        for item in &r.items {
            assert!(item.dislikes_at_liked_reception.iter().all(|&x| x <= TTL));
        }
    }

    #[test]
    fn deterministic() {
        let d = dataset();
        let a = run(&d, 4, &cfg());
        let b = run(&d, 4, &cfg());
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.news_messages_all, b.news_messages_all);
    }

    #[test]
    fn top_k_all_is_deterministic_and_filtered() {
        let profiles = vec![Profile::new(); 4];
        let top = top_k_all(&profiles, 1, 2, |_| 1.0);
        assert_eq!(top, vec![0, 2], "ties break on lower id, exclusion skipped");
        let none = top_k_all(&profiles, 1, 2, |_| 0.0);
        assert!(
            none.is_empty(),
            "zero-correlation candidates never selected"
        );
    }

    #[test]
    fn sample_k_bounds_and_determinism() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = sample_k(vec![1, 2, 3, 4, 5], 3, &mut rng);
        assert_eq!(s.len(), 3);
        let mut rng2 = ChaCha8Rng::seed_from_u64(4);
        let s2 = sample_k(vec![1, 2, 3, 4, 5], 3, &mut rng2);
        assert_eq!(s, s2);
        let mut rng3 = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(sample_k(vec![9], 3, &mut rng3), vec![9]);
    }
}
