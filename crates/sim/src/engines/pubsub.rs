//! C-Pub/Sub: the ideal centralized topic-based publish/subscribe
//! (paper §IV-B, Table V).
//!
//! A user subscribes to a topic if she likes at least one item of that
//! topic. The server disseminates every item to all subscribers of its
//! topic along a spanning tree (one message per subscriber — minimal
//! message complexity). By construction recall is 1 (every interested user
//! likes the item, hence at least one item of its topic, hence is
//! subscribed); precision is bounded by topic granularity — the topics are
//! the coarse RSS-feed labels ([`Dataset::pubsub_topic`]), not the latent
//! interest structure, exactly as the paper extracts them "from keywords
//! associated with the RSS feeds".

use crate::config::{Protocol, SimConfig};
use crate::environment::Publications;
use crate::record::{Ledger, Reception, SimReport};
use crate::scenario::Scenario;
use whatsup_datasets::Dataset;

/// Subscription table: `subscribers[topic]` = users liking ≥ 1 item of it.
fn subscriptions(dataset: &Dataset) -> Vec<Vec<u32>> {
    let n = dataset.n_users();
    let mut subs: Vec<Vec<u32>> = vec![Vec::new(); dataset.n_pubsub_topics() as usize];
    for (topic, list) in subs.iter_mut().enumerate() {
        let topic = topic as u32;
        'user: for u in 0..n {
            for spec in dataset.items.iter() {
                if dataset.pubsub_topic(spec.index as usize) == topic
                    && dataset.likes.likes(u, spec.index as usize)
                {
                    list.push(u as u32);
                    continue 'user;
                }
            }
        }
    }
    subs
}

/// Runs the C-Pub/Sub baseline under `scenario`'s publication schedule.
/// The centralized server is assumed reliable (the paper treats it as the
/// ideal reference), so the scenario's environment is not consulted.
pub(crate) fn run_scenario(dataset: &Dataset, cfg: &SimConfig, scenario: &Scenario) -> SimReport {
    let subs = subscriptions(dataset);
    let plan = Publications::plan(dataset, scenario, cfg);
    let mut ledger = Ledger::open(&plan.cycle_of, cfg, 0);

    for spec in &dataset.items {
        let index = spec.index;
        let cycle = plan.cycle_of[index as usize];
        let source = spec.source;
        ledger.published(
            index,
            source,
            &dataset.likes.interested_users(index as usize),
        );
        // One message per subscriber of the item's feed; no hop paths, no
        // dislike counters.
        let topic = dataset.pubsub_topic(index as usize);
        for &u in subs[topic as usize].iter().filter(|&&u| u != source) {
            ledger.sent(cycle, index, 1);
            let reception = Reception {
                likes: dataset.likes.likes(u as usize, index as usize),
                hop: None,
                dislikes: None,
            };
            ledger.first_reception(cycle, index, u, reception);
        }
    }
    ledger.end_cycle(cfg.cycles - 1, dataset.n_users());
    let name = dataset.name.clone();
    ledger.into_report(Protocol::CPubSub, name, dataset.n_users(), scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_datasets::{survey, SurveyConfig};

    fn dataset() -> Dataset {
        survey::generate(&SurveyConfig::paper().scaled(0.15), 21)
    }

    fn run(dataset: &Dataset) -> SimReport {
        crate::Runner::new(dataset, Protocol::CPubSub).run()
    }

    #[test]
    fn recall_is_one_by_construction() {
        let d = dataset();
        let r = run(&d);
        let s = r.scores();
        assert!(
            (s.recall - 1.0).abs() < 1e-9,
            "C-Pub/Sub recall must be 1: {s:?}"
        );
        assert!(s.precision > 0.0 && s.precision < 1.0);
    }

    #[test]
    fn messages_equal_subscriber_deliveries() {
        let d = dataset();
        let r = run(&d);
        for item in &r.items {
            assert_eq!(item.news_sent, item.reached as u64);
        }
    }

    #[test]
    fn subscriptions_cover_likers() {
        let d = dataset();
        let subs = subscriptions(&d);
        for spec in d.items.iter().take(50) {
            let topic = d.pubsub_topic(spec.index as usize);
            for u in d.likes.interested_users(spec.index as usize) {
                assert!(
                    subs[topic as usize].contains(&u),
                    "liker {u} not subscribed to feed {topic}"
                );
            }
        }
    }

    #[test]
    fn coarse_feeds_cap_precision() {
        // Feeds are coarser than latent topics, so precision must sit well
        // below the in-topic like probability and above the raw like rate.
        let d = dataset();
        let r = run(&d);
        let p = r.scores().precision;
        let rate = d.likes.like_rate();
        assert!(
            p >= rate - 0.05,
            "pub/sub cannot be worse than flooding: {p} vs {rate}"
        );
        assert!(p < 0.6, "feed granularity should cap precision: {p}");
    }

    #[test]
    fn series_reconciles_with_item_records() {
        let d = dataset();
        let r = run(&d);
        assert_eq!(r.series.len(), r.cycles as usize);
        let all = r.series.pooled(0, r.cycles);
        assert_eq!(all.news_sent, r.news_messages_all);
        assert_eq!(
            all.hits,
            r.items.iter().map(|i| u64::from(i.hits)).sum::<u64>()
        );
        assert_eq!(
            r.series.get(0).unwrap().live_nodes,
            d.n_users() as u64,
            "no churn: the full population is live every cycle"
        );
    }

    #[test]
    fn deterministic() {
        let d = dataset();
        let a = run(&d);
        let b = run(&d);
        assert_eq!(a.scores(), b.scores());
    }
}
