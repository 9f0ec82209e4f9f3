//! The synthetic Arxiv-community workload (paper §IV-A).
//!
//! The paper ran Newman community detection over the Arxiv collaboration
//! graph to obtain 21 *clearly defined, disjoint* communities (31–1036
//! users, 3180 kept users) and published 120 items per community (~2000
//! total), with sources drawn from each community. We generate the
//! communities directly: each user belongs to exactly one community, each
//! item to one community's topic, and users like items of their own
//! community with high probability and foreign items with a small noise
//! probability. The resulting like matrix has the block-diagonal structure
//! the paper relies on to show WhatsUp's behavior on a clean topology
//! (Fig. 3a/3d).

use crate::matrix::LikeMatrix;
use crate::spec::{Dataset, ItemSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whatsup_graph::generate::community_sizes;

/// Generator knobs for the synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    pub n_users: usize,
    pub n_communities: usize,
    pub min_community: usize,
    pub max_community: usize,
    pub n_items: usize,
    /// P(like | item of own community).
    pub in_community_like: f64,
    /// P(like | item of another community) — the noise floor.
    pub cross_community_like: f64,
}

impl SyntheticConfig {
    /// Paper-scale configuration (Table I: 3180 users, 2000 items; §IV-A:
    /// 21 communities of 31–1036).
    pub fn paper() -> Self {
        Self {
            n_users: 3180,
            n_communities: 21,
            min_community: 31,
            max_community: 1036,
            n_items: 2000,
            in_community_like: 0.90,
            cross_community_like: 0.02,
        }
    }

    /// Shrinks users/items by `scale` (communities shrink with sqrt so small
    /// scales keep several communities alive).
    pub fn scaled(mut self, scale: f64) -> Self {
        let scale = scale.clamp(0.01, 1.0);
        self.n_users = ((self.n_users as f64 * scale) as usize).max(20);
        self.n_items = ((self.n_items as f64 * scale) as usize).max(20);
        self.n_communities =
            ((self.n_communities as f64 * scale.sqrt()) as usize).clamp(2, self.n_communities);
        self.min_community = self
            .min_community
            .min(self.n_users / self.n_communities / 2)
            .max(2);
        self.max_community = (self.n_users / 2).max(self.min_community + 1);
        self
    }
}

/// Generates the synthetic workload deterministically from `seed`.
pub fn generate(cfg: &SyntheticConfig, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sizes = community_sizes(
        cfg.n_communities,
        cfg.min_community,
        cfg.max_community,
        cfg.n_users,
        &mut rng,
    );
    // community[u] for every user, laid out contiguously.
    let mut community: Vec<u32> = Vec::with_capacity(cfg.n_users);
    for (c, &size) in sizes.iter().enumerate() {
        community.extend(std::iter::repeat_n(c as u32, size));
    }
    // Items round-robin over communities so every community publishes
    // (the paper publishes 120 per community).
    let mut likes = LikeMatrix::new(cfg.n_users, cfg.n_items);
    let mut items = Vec::with_capacity(cfg.n_items);
    for index in 0..cfg.n_items {
        let topic = (index % cfg.n_communities) as u32;
        for (u, &cu) in community.iter().enumerate() {
            let p = if cu == topic {
                cfg.in_community_like
            } else {
                cfg.cross_community_like
            };
            if rng.gen_bool(p) {
                likes.set(u, index, true);
            }
        }
        // Source: a community member; force-like so the source can publish.
        let members: Vec<u32> = community
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == topic)
            .map(|(u, _)| u as u32)
            .collect();
        let source = members[rng.gen_range(0..members.len())];
        likes.set(source as usize, index, true);
        items.push(ItemSpec {
            index: index as u32,
            topic,
            source,
        });
    }
    let d = Dataset {
        name: "synthetic".into(),
        items,
        likes,
        social: None,
        n_topics: cfg.n_communities as u32,
        feeds: None,
    };
    debug_assert!(d.validate().is_ok());
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticConfig {
        SyntheticConfig::paper().scaled(0.05)
    }

    #[test]
    fn paper_scale_matches_table_i() {
        let cfg = SyntheticConfig::paper();
        assert_eq!(cfg.n_users, 3180);
        assert_eq!(cfg.n_items, 2000);
        assert_eq!(cfg.n_communities, 21);
    }

    #[test]
    fn generated_dataset_is_valid() {
        let d = generate(&small(), 3);
        assert!(d.validate().is_ok());
        assert_eq!(d.n_users(), small().n_users);
        assert_eq!(d.n_items(), small().n_items);
    }

    #[test]
    fn block_structure_dominates() {
        let cfg = small();
        let d = generate(&cfg, 3);
        // The generator's first draws lay out the communities as
        // contiguous index ranges.
        let sizes = community_sizes(
            cfg.n_communities,
            cfg.min_community,
            cfg.max_community,
            cfg.n_users,
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        let communities: Vec<u32> = sizes
            .iter()
            .enumerate()
            .flat_map(|(c, &size)| std::iter::repeat_n(c as u32, size))
            .collect();
        let mut in_c = 0u64;
        let mut in_c_likes = 0u64;
        let mut out_c = 0u64;
        let mut out_c_likes = 0u64;
        for item in &d.items {
            for (u, &community) in communities.iter().enumerate() {
                if community == item.topic {
                    in_c += 1;
                    in_c_likes += d.likes.likes(u, item.index as usize) as u64;
                } else {
                    out_c += 1;
                    out_c_likes += d.likes.likes(u, item.index as usize) as u64;
                }
            }
        }
        let p_in = in_c_likes as f64 / in_c as f64;
        let p_out = out_c_likes as f64 / out_c as f64;
        assert!(p_in > 0.8, "in-community like rate too low: {p_in}");
        assert!(p_out < 0.1, "cross-community noise too high: {p_out}");
    }

    #[test]
    fn deterministic() {
        let a = generate(&small(), 9);
        let b = generate(&small(), 9);
        assert_eq!(a.likes, b.likes);
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small(), 1);
        let b = generate(&small(), 2);
        assert_ne!(a.likes, b.likes);
    }

    #[test]
    fn every_community_publishes() {
        let d = generate(&small(), 3);
        let mut topics: Vec<u32> = d.items.iter().map(|i| i.topic).collect();
        topics.sort_unstable();
        topics.dedup();
        assert_eq!(topics.len(), small().n_communities);
    }
}
