//! The survey-like workload (paper §IV-A).
//!
//! The paper surveyed 120 colleagues on 200 RSS items spanning mixed topics
//! (culture, politics, people, sports, …), then replicated each user and
//! item 4× to scale the system (Table I lists 480 users / 1000 news).
//!
//! Our substitute generates the *base* population, then applies the same ×4
//! replication. The base model is calibrated to the statistics the paper
//! exposes:
//!
//! * mean like rate ≈ 0.35 — Table III's homogeneous gossip reaches
//!   precision 0.35 at recall 0.99, and flooding precision equals the mean
//!   like rate;
//! * popularity mass concentrated below 0.5 with a thin tail of near-
//!   universally liked items (Fig. 10's distribution curve);
//! * overlapping interests (unlike the synthetic communities), which is what
//!   gives cosine similarity its hub problem (§V-A).
//!
//! Model: users hold a subset of topics (Zipf-weighted so some topics are
//! mainstream); each item has a topic and a quality factor; a user's like
//! probability is high for in-topic items scaled by quality, low otherwise;
//! a small fraction of items is "viral" and liked by nearly everyone.

use crate::matrix::LikeMatrix;
use crate::spec::{Dataset, ItemSpec};
use rand::distributions::WeightedIndex;
use rand::prelude::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generator knobs for the survey-like workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyConfig {
    /// Base users before replication (paper: 120).
    pub base_users: usize,
    /// Base items before replication (250 × 4 = Table I's 1000; the paper
    /// text, §IV-A, says 200 — Table I wins).
    pub base_items: usize,
    /// Replication factor (paper: 4).
    pub replication: usize,
    pub n_topics: usize,
    /// Zipf exponent for topic mainstream-ness.
    pub zipf_s: f64,
    /// Topics per user: uniform in `[min, max]`.
    pub min_interests: usize,
    pub max_interests: usize,
    /// P(like | in-topic) before quality scaling.
    pub in_topic_like: f64,
    /// P(like | off-topic) before quality scaling.
    pub off_topic_like: f64,
    /// Fraction of viral items.
    pub viral_fraction: f64,
    /// P(like | viral item), any user.
    pub viral_like: f64,
    /// Number of coarse RSS feeds (explicit pub/sub topics, §IV-B).
    pub n_feeds: usize,
}

impl SurveyConfig {
    /// Paper-scale configuration.
    pub fn paper() -> Self {
        Self {
            base_users: 120,
            base_items: 250,
            replication: 4,
            n_topics: 20,
            zipf_s: 0.7,
            min_interests: 4,
            max_interests: 7,
            in_topic_like: 0.82,
            off_topic_like: 0.07,
            viral_fraction: 0.04,
            viral_like: 0.92,
            n_feeds: 6,
        }
    }

    pub fn scaled(mut self, scale: f64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        self.base_users = ((self.base_users as f64 * scale) as usize).max(15);
        self.base_items = ((self.base_items as f64 * scale) as usize).max(20);
        self
    }

    /// Total users after replication.
    pub fn n_users(&self) -> usize {
        self.base_users * self.replication
    }

    /// Total items after replication.
    pub fn n_items(&self) -> usize {
        self.base_items * self.replication
    }
}

/// Generates the survey-like workload deterministically from `seed`.
pub fn generate(cfg: &SurveyConfig, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights: Vec<f64> = (1..=cfg.n_topics)
        .map(|k| 1.0 / (k as f64).powf(cfg.zipf_s))
        .collect();
    let topic_dist = WeightedIndex::new(&weights).expect("non-empty topics");

    // Base users: a topic set each.
    let mut interests: Vec<Vec<u32>> = Vec::with_capacity(cfg.base_users);
    for _ in 0..cfg.base_users {
        let k = rng.gen_range(cfg.min_interests..=cfg.max_interests);
        let mut cats: Vec<u32> = Vec::with_capacity(k);
        let mut guard = 0;
        while cats.len() < k && guard < 50 * k {
            guard += 1;
            let c = topic_dist.sample(&mut rng) as u32;
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        cats.sort_unstable();
        interests.push(cats);
    }

    // Base like matrix.
    let mut base = LikeMatrix::new(cfg.base_users, cfg.base_items);
    let mut base_topics = Vec::with_capacity(cfg.base_items);
    for item in 0..cfg.base_items {
        let topic = topic_dist.sample(&mut rng) as u32;
        base_topics.push(topic);
        let viral = rng.gen_bool(cfg.viral_fraction);
        let quality: f64 = rng.gen_range(0.55..1.25);
        for (u, cats) in interests.iter().enumerate() {
            let p = if viral {
                cfg.viral_like
            } else if cats.binary_search(&topic).is_ok() {
                (cfg.in_topic_like * quality).min(0.98)
            } else {
                (cfg.off_topic_like * quality).min(0.98)
            };
            if rng.gen_bool(p) {
                base.set(u, item, true);
            }
        }
        // Every survey item was rated; ensure at least one liker to source it.
        if base.interested_count(item) == 0 {
            let u = rng.gen_range(0..cfg.base_users);
            base.set(u, item, true);
        }
    }

    // ×replication: user clone (u, r) likes item clone (i, r') iff u likes i
    // — exactly the paper's instance duplication, which preserves all
    // per-pair statistics while scaling the population.
    let n_users = cfg.n_users();
    let n_items = cfg.n_items();
    let mut likes = LikeMatrix::new(n_users, n_items);
    for bu in 0..cfg.base_users {
        for bi in 0..cfg.base_items {
            if !base.likes(bu, bi) {
                continue;
            }
            for ru in 0..cfg.replication {
                for ri in 0..cfg.replication {
                    likes.set(ru * cfg.base_users + bu, ri * cfg.base_items + bi, true);
                }
            }
        }
    }
    let mut items = Vec::with_capacity(n_items);
    let mut feeds = Vec::with_capacity(n_items);
    for index in 0..n_items {
        let bi = index % cfg.base_items;
        let topic = base_topics[bi];
        let interested = likes.interested_users(index);
        debug_assert!(!interested.is_empty());
        let source = interested[rng.gen_range(0..interested.len())];
        items.push(ItemSpec {
            index: index as u32,
            topic,
            source,
        });
        // RSS feeds are much coarser than the latent interests: the survey
        // drew its items from a handful of feeds (culture, politics, people,
        // sports, …). Mapping topic ranks modulo n_feeds mixes mainstream
        // and niche topics within one feed, which is what keeps C-Pub/Sub's
        // precision near the paper's 0.40 (Table V).
        feeds.push(topic % cfg.n_feeds as u32);
    }

    let d = Dataset {
        name: "survey".into(),
        items,
        likes,
        social: None,
        n_topics: cfg.n_topics as u32,
        feeds: Some(feeds),
    };
    debug_assert!(d.validate().is_ok());
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SurveyConfig {
        SurveyConfig::paper().scaled(0.25)
    }

    #[test]
    fn paper_scale_matches_table_i() {
        let cfg = SurveyConfig::paper();
        assert_eq!(cfg.n_users(), 480);
        assert_eq!(cfg.n_items(), 1000);
    }

    #[test]
    fn like_rate_close_to_calibration_target() {
        let d = generate(&SurveyConfig::paper(), 11);
        let rate = d.likes.like_rate();
        assert!(
            (0.28..=0.42).contains(&rate),
            "survey like rate {rate} outside calibration band"
        );
    }

    #[test]
    fn popularity_has_low_mass_and_tail() {
        let d = generate(&SurveyConfig::paper(), 11);
        let pops: Vec<f64> = (0..d.n_items()).map(|i| d.likes.popularity(i)).collect();
        let low = pops.iter().filter(|&&p| p < 0.5).count() as f64 / pops.len() as f64;
        let tail = pops.iter().filter(|&&p| p > 0.8).count() as f64 / pops.len() as f64;
        assert!(low > 0.55, "most items must be niche: low={low}");
        assert!(tail > 0.005, "some viral items must exist: tail={tail}");
    }

    #[test]
    fn replication_clones_likes_exactly() {
        let cfg = small();
        let d = generate(&cfg, 11);
        for bu in 0..cfg.base_users {
            for bi in 0..cfg.base_items.min(30) {
                let reference = d.likes.likes(bu, bi);
                for r in 1..cfg.replication {
                    assert_eq!(
                        d.likes.likes(r * cfg.base_users + bu, bi),
                        reference,
                        "user clone differs"
                    );
                    assert_eq!(
                        d.likes.likes(bu, r * cfg.base_items + bi),
                        reference,
                        "item clone differs"
                    );
                }
            }
        }
    }

    #[test]
    fn valid_and_deterministic() {
        let a = generate(&small(), 1);
        assert!(a.validate().is_ok());
        let b = generate(&small(), 1);
        assert_eq!(a.likes, b.likes);
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn every_item_has_a_liker() {
        let d = generate(&small(), 13);
        for i in 0..d.n_items() {
            assert!(d.likes.interested_count(i) >= 1);
        }
    }
}
