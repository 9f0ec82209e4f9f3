//! The [`Dataset`] container shared by all generators, plus Table I stats.

use crate::matrix::LikeMatrix;
use whatsup_graph::Graph;

/// Static description of one news item in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSpec {
    /// Dense index of the item within the dataset.
    pub index: u32,
    /// Topic/category of the item (pub/sub subscriptions, Digg categories,
    /// synthetic community id).
    pub topic: u32,
    /// The user that publishes the item. Sources always like their own items
    /// (Algorithm 1, line 14 rates the generated item *like*).
    pub source: u32,
}

/// A complete workload: ground-truth likes, item specs and (optionally) an
/// explicit social graph.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    pub items: Vec<ItemSpec>,
    pub likes: LikeMatrix,
    /// Explicit follower graph (only the Digg workload has one; cascade is
    /// evaluated there, §IV-B). Edges point from a user to her *followers*:
    /// `neighbors(u)` are the users that see what `u` likes.
    pub social: Option<Graph>,
    /// Number of distinct topics.
    pub n_topics: u32,
    /// Coarse per-item "RSS feed" labels for the explicit pub/sub baseline
    /// (§IV-B extracts topics "from keywords associated with the RSS
    /// feeds" — much coarser than the latent interest structure). `None`
    /// makes pub/sub fall back to the latent topics.
    pub feeds: Option<Vec<u32>>,
}

impl Dataset {
    pub fn n_users(&self) -> usize {
        self.likes.n_users()
    }

    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Users interested in item `index` (ground truth).
    pub fn interested_users(&self, index: usize) -> Vec<u32> {
        self.likes.interested_users(index)
    }

    /// Validates generator invariants: matrix shape matches the item list,
    /// every source likes its own item, topics within range.
    pub fn validate(&self) -> Result<(), String> {
        if self.likes.n_items() != self.items.len() {
            return Err("matrix/items shape mismatch".into());
        }
        for it in &self.items {
            if it.source as usize >= self.n_users() {
                return Err(format!("item {} source out of range", it.index));
            }
            if !self.likes.likes(it.source as usize, it.index as usize) {
                return Err(format!(
                    "source {} does not like item {}",
                    it.source, it.index
                ));
            }
            if it.topic >= self.n_topics {
                return Err(format!("item {} topic out of range", it.index));
            }
        }
        if let Some(g) = &self.social {
            if g.len() != self.n_users() {
                return Err("social graph size mismatch".into());
            }
        }
        if let Some(feeds) = &self.feeds {
            if feeds.len() != self.items.len() {
                return Err("feeds/items shape mismatch".into());
            }
        }
        Ok(())
    }

    /// The pub/sub topic of an item: its coarse feed label when available,
    /// the latent topic otherwise.
    pub fn pubsub_topic(&self, index: usize) -> u32 {
        match &self.feeds {
            Some(feeds) => feeds[index],
            None => self.items[index].topic,
        }
    }

    /// Number of distinct pub/sub topics.
    pub fn n_pubsub_topics(&self) -> u32 {
        match &self.feeds {
            Some(feeds) => feeds.iter().copied().max().map_or(1, |m| m + 1),
            None => self.n_topics,
        }
    }

    /// Table I row plus the first-order statistics the substitution argument
    /// rests on (see the crate docs).
    pub fn stats(&self) -> DatasetStats {
        let n_items = self.n_items();
        let mut pops: Vec<f64> = (0..n_items).map(|i| self.likes.popularity(i)).collect();
        pops.sort_by(|a, b| a.partial_cmp(b).expect("popularity is never NaN"));
        let median_popularity = if pops.is_empty() {
            0.0
        } else {
            pops[pops.len() / 2]
        };
        DatasetStats {
            name: self.name.clone(),
            n_users: self.n_users(),
            n_items,
            n_topics: self.n_topics as usize,
            like_rate: self.likes.like_rate(),
            median_popularity,
            has_social_graph: self.social.is_some(),
        }
    }
}

/// Summary row for the Table I harness.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub name: String,
    pub n_users: usize,
    pub n_items: usize,
    pub n_topics: usize,
    pub like_rate: f64,
    pub median_popularity: f64,
    pub has_social_graph: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut likes = LikeMatrix::new(3, 2);
        likes.set(0, 0, true);
        likes.set(1, 0, true);
        likes.set(2, 1, true);
        Dataset {
            name: "tiny".into(),
            items: vec![
                ItemSpec {
                    index: 0,
                    topic: 0,
                    source: 0,
                },
                ItemSpec {
                    index: 1,
                    topic: 1,
                    source: 2,
                },
            ],
            likes,
            social: None,
            n_topics: 2,
            feeds: None,
        }
    }

    #[test]
    fn valid_dataset_passes() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn source_must_like_item() {
        let mut d = tiny();
        d.items[0].source = 2; // user 2 dislikes item 0
        assert!(d.validate().is_err());
    }

    #[test]
    fn topic_range_checked() {
        let mut d = tiny();
        d.items[1].topic = 9;
        assert!(d.validate().is_err());
    }

    #[test]
    fn stats_reports_shape() {
        let s = tiny().stats();
        assert_eq!(s.n_users, 3);
        assert_eq!(s.n_items, 2);
        assert!((s.like_rate - 0.5).abs() < 1e-12);
        assert!(!s.has_social_graph);
    }

    #[test]
    fn interested_users_come_from_matrix() {
        assert_eq!(tiny().interested_users(0), vec![0, 1]);
    }

    #[test]
    fn pubsub_topics_prefer_feeds() {
        let mut d = tiny();
        assert_eq!(d.pubsub_topic(1), 1);
        assert_eq!(d.n_pubsub_topics(), 2);
        d.feeds = Some(vec![0, 0]);
        assert_eq!(d.pubsub_topic(1), 0);
        assert_eq!(d.n_pubsub_topics(), 1);
        assert!(d.validate().is_ok());
        d.feeds = Some(vec![0]);
        assert!(d.validate().is_err(), "feed arity checked");
    }
}
