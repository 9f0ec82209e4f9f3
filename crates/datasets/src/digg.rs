//! The Digg-like workload (paper §IV-A).
//!
//! Digg disseminated items along an explicit follower graph (cascading).
//! The paper's crawl: 750 users, 2500 items, 40 categories, 3 weeks of
//! traces. User interests were *de-biased*: a user is interested in every
//! item of the categories of the items she generated — not only those her
//! friends forwarded.
//!
//! Our substitute keeps that exact structure: Zipf-popular categories, users
//! interested in a handful of categories (weighted by the same Zipf), likes
//! = category membership, and a *directed* preferential-attachment follower
//! graph with interest homophily. Direction matters: a digg only reaches the
//! digger's followers, so most users expose a cascade to only a couple of
//! peers — branching stays subcritical and recall collapses (Table V's
//! 0.09), while homophily keeps the few reached followers interested
//! (precision ≈ WhatsUp's). The paper's §V-C analysis — "the explicit
//! social network does not necessarily connect all the nodes interested in
//! a given topic" — is exactly this structure.

use crate::matrix::LikeMatrix;
use crate::spec::{Dataset, ItemSpec};
use rand::distributions::WeightedIndex;
use rand::prelude::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whatsup_graph::Graph;

/// Generator knobs for the Digg-like workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DiggConfig {
    pub n_users: usize,
    pub n_items: usize,
    pub n_categories: usize,
    /// Zipf exponent of category popularity.
    pub zipf_s: f64,
    /// Categories per user: uniform in `[min, max]`.
    pub min_interests: usize,
    pub max_interests: usize,
    /// Accounts each new user follows when joining.
    pub attachment: usize,
    /// Homophily weight: how strongly users prefer following accounts that
    /// share their categories (0 = pure preferential attachment).
    pub homophily: f64,
}

impl DiggConfig {
    /// Paper-scale configuration (Table I: 750 users, 2500 items, §IV-A: 40
    /// categories).
    pub fn paper() -> Self {
        Self {
            n_users: 750,
            n_items: 2500,
            n_categories: 40,
            zipf_s: 1.0,
            min_interests: 2,
            max_interests: 6,
            attachment: 2,
            homophily: 4.0,
        }
    }

    pub fn scaled(mut self, scale: f64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        self.n_users = ((self.n_users as f64 * scale) as usize).max(20);
        self.n_items = ((self.n_items as f64 * scale) as usize).max(20);
        self.n_categories =
            ((self.n_categories as f64 * scale.sqrt()) as usize).clamp(4, self.n_categories);
        self
    }
}

/// Zipf weights `1/k^s` for ranks `1..=n`.
fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
}

/// Generates the Digg-like workload deterministically from `seed`.
pub fn generate(cfg: &DiggConfig, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = zipf_weights(cfg.n_categories, cfg.zipf_s);
    let cat_dist = WeightedIndex::new(&weights).expect("non-empty categories");

    // User interests: a set of categories, Zipf-weighted.
    let mut interests: Vec<Vec<u32>> = Vec::with_capacity(cfg.n_users);
    for _ in 0..cfg.n_users {
        let k = rng.gen_range(cfg.min_interests..=cfg.max_interests);
        let mut cats: Vec<u32> = Vec::with_capacity(k);
        let mut guard = 0;
        while cats.len() < k && guard < 50 * k {
            guard += 1;
            let c = cat_dist.sample(&mut rng) as u32;
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        cats.sort_unstable();
        interests.push(cats);
    }

    // Likes: strict category membership (the paper's de-biased definition).
    let mut likes = LikeMatrix::new(cfg.n_users, cfg.n_items);
    let mut items = Vec::with_capacity(cfg.n_items);
    for index in 0..cfg.n_items {
        let topic = cat_dist.sample(&mut rng) as u32;
        for (u, cats) in interests.iter().enumerate() {
            if cats.binary_search(&topic).is_ok() {
                likes.set(u, index, true);
            }
        }
        // Source: an interested user ("the categories of the news items she
        // generates" define her interests — generators are interested).
        let interested = likes.interested_users(index);
        let source = if interested.is_empty() {
            // No user holds this category: assign a random generator and
            // extend her interests to it, as the crawl's definition implies.
            let u = rng.gen_range(0..cfg.n_users);
            likes.set(u, index, true);
            u as u32
        } else {
            interested[rng.gen_range(0..interested.len())]
        };
        items.push(ItemSpec {
            index: index as u32,
            topic,
            source,
        });
    }

    let social = follower_graph(cfg, &interests, &mut rng);
    let d = Dataset {
        name: "digg".into(),
        items,
        likes,
        social: Some(social),
        n_topics: cfg.n_categories as u32,
        feeds: None,
    };
    debug_assert!(d.validate().is_ok());
    d
}

/// Directed, homophilous preferential-attachment follower graph.
///
/// Users join one by one and follow `attachment` existing accounts, chosen
/// with weight `(followers + 1) · (1 + homophily · shared_categories)`.
/// The stored edge direction is the *dissemination* direction: an edge
/// `v → u` means `u` follows `v`, so `neighbors(v)` are v's followers.
fn follower_graph(cfg: &DiggConfig, interests: &[Vec<u32>], rng: &mut ChaCha8Rng) -> Graph {
    let n = interests.len();
    let mut g = Graph::new(n);
    let mut followers = vec![0usize; n];
    for u in 1..n {
        let m = cfg.attachment.min(u);
        let mut weights: Vec<f64> = (0..u)
            .map(|v| {
                let shared = interests[u]
                    .iter()
                    .filter(|c| interests[v].binary_search(c).is_ok())
                    .count();
                (followers[v] + 1) as f64 * (1.0 + cfg.homophily * shared as f64)
            })
            .collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        for _ in 0..m {
            let Ok(dist) = WeightedIndex::new(&weights) else {
                break;
            };
            let v = dist.sample(rng);
            chosen.push(v);
            weights[v] = 0.0; // follow each account at most once
        }
        for v in chosen {
            g.add_edge(v as u32, u as u32);
            followers[v] += 1;
        }
    }
    g.dedup();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiggConfig {
        DiggConfig::paper().scaled(0.1)
    }

    #[test]
    fn paper_scale_matches_table_i() {
        let cfg = DiggConfig::paper();
        assert_eq!(cfg.n_users, 750);
        assert_eq!(cfg.n_items, 2500);
        assert_eq!(cfg.n_categories, 40);
    }

    #[test]
    fn generated_dataset_is_valid_with_graph() {
        let d = generate(&small(), 5);
        assert!(d.validate().is_ok());
        let g = d.social.as_ref().expect("digg has a social graph");
        assert_eq!(g.len(), d.n_users());
        assert!((0..g.len() as u32).any(|u| g.out_degree(u) > 0));
    }

    #[test]
    fn category_popularity_is_skewed() {
        let d = generate(&DiggConfig::paper().scaled(0.3), 5);
        let mut per_topic = vec![0usize; d.n_topics as usize];
        for it in &d.items {
            per_topic[it.topic as usize] += 1;
        }
        let max = *per_topic.iter().max().unwrap();
        let min = *per_topic.iter().min().unwrap();
        assert!(
            max >= 4 * (min + 1),
            "Zipf skew missing: max={max} min={min}"
        );
    }

    #[test]
    fn likes_follow_categories() {
        // Every item's interested set must be exactly the users holding its
        // category (modulo the forced source).
        let d = generate(&small(), 5);
        // Reconstruct interests from the matrix: a user interested in one
        // item of a topic must like (almost) all items of that topic.
        let by_topic: Vec<Vec<u32>> = (0..d.n_topics)
            .map(|t| {
                d.items
                    .iter()
                    .filter(|i| i.topic == t)
                    .map(|i| i.index)
                    .collect()
            })
            .collect();
        for topic_items in by_topic.iter().filter(|v| v.len() >= 2) {
            let first = topic_items[0] as usize;
            for &u in &d.likes.interested_users(first) {
                let liked_all = topic_items
                    .iter()
                    .filter(|&&i| d.likes.likes(u as usize, i as usize))
                    .count();
                // Forced sources may add one extra user to a single item, so
                // tolerate a single miss.
                assert!(
                    liked_all >= topic_items.len() - 1,
                    "user {u} likes only {liked_all}/{} of a topic",
                    topic_items.len()
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&small(), 5);
        let b = generate(&small(), 5);
        assert_eq!(a.likes, b.likes);
        assert_eq!(a.social, b.social);
    }
}
