//! Explicit social cascade (paper §IV-B, Table V — the Digg baseline).
//!
//! "Whenever a node likes a news item, it forwards it to all of its explicit
//! social neighbors." Dissemination therefore only follows friendship
//! edges: an item can never escape the social neighborhood of its likers,
//! which is why cascade recall is so low (0.09 on the paper's Digg trace)
//! despite decent precision.

use crate::config::{Protocol, SimConfig};
use crate::environment::{dropped, Publications};
use crate::record::{Ledger, Reception, SimReport};
use crate::scenario::Scenario;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use whatsup_datasets::Dataset;

/// Runs the cascade baseline under `scenario`'s publication schedule and
/// (constant) loss model, on a dataset with an explicit social graph — a
/// run [`crate::Runner`]'s check admitted. Loss coins come from one
/// run-wide stream seeded with `cfg.seed`, one per delivery attempt in
/// BFS order.
pub(crate) fn run_scenario(dataset: &Dataset, cfg: &SimConfig, scenario: &Scenario) -> SimReport {
    let graph = dataset
        .social
        .as_ref()
        .expect("the runner admits cascade on a social graph only");
    let n = dataset.n_users();
    let loss = scenario.environment.loss;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
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

        // BFS along friendship edges; only likers forward — first the
        // source, which liked (generated) the item.
        let mut seen = vec![false; n];
        seen[source as usize] = true;
        let mut queue: VecDeque<(u32, u32, u16)> = VecDeque::new(); // (from, to, hop)
        let forward = |ledger: &mut Ledger, queue: &mut VecDeque<_>, from: u32, hop: u16| {
            ledger.forwarded(index, hop, true);
            let friends = graph.neighbors(from);
            ledger.sent(cycle, index, friends.len() as u64);
            queue.extend(friends.iter().map(|&f| (from, f, hop + 1)));
        };
        forward(&mut ledger, &mut queue, source, 0);
        while let Some((from, node, hop)) = queue.pop_front() {
            if dropped(loss, false, None, from, node, &mut rng) || seen[node as usize] {
                continue;
            }
            seen[node as usize] = true;
            let reception = Reception {
                likes: dataset.likes.likes(node as usize, index as usize),
                hop: Some((hop, true)), // cascade only forwards on like
                dislikes: Some(0),
            };
            ledger.first_reception(cycle, index, node, reception);
            if reception.likes {
                forward(&mut ledger, &mut queue, node, hop);
            }
        }
    }
    ledger.end_cycle(cfg.cycles - 1, n);
    ledger.into_report(Protocol::Cascade, dataset.name.clone(), n, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnModel, Environment, LossModel};
    use whatsup_datasets::{digg, DiggConfig};

    fn dataset() -> Dataset {
        digg::generate(&DiggConfig::paper().scaled(0.15), 9)
    }

    /// The cascade under constant loss `p` on the default config.
    fn run(dataset: &Dataset, p: f64) -> SimReport {
        let environment = Environment {
            loss: LossModel::Constant { p },
            churn: ChurnModel::None,
        };
        crate::Runner::new(dataset, Protocol::Cascade)
            .scenario(Scenario::default().with_environment(environment))
            .run()
    }

    #[test]
    fn cascade_reaches_fewer_than_interested() {
        let d = dataset();
        let r = run(&d, 0.0);
        let s = r.scores();
        assert!(s.recall < 0.9, "cascade recall should be limited: {s:?}");
        assert!(s.precision > 0.0);
        assert!(r.news_messages_all > 0);
    }

    #[test]
    fn cascade_is_deterministic() {
        let d = dataset();
        let a = run(&d, 0.0);
        let b = run(&d, 0.0);
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.news_messages_all, b.news_messages_all);
    }

    #[test]
    fn loss_reduces_reach() {
        let d = dataset();
        let clean = run(&d, 0.0);
        let lossy = run(&d, 0.6);
        assert!(lossy.scores().recall <= clean.scores().recall);
    }

    #[test]
    #[should_panic(expected = "explicit social graph")]
    fn requires_social_graph() {
        let mut d = dataset();
        d.social = None;
        let _ = run(&d, 0.0);
    }

    #[test]
    fn series_reconciles_with_item_records() {
        let d = dataset();
        let r = run(&d, 0.0);
        assert_eq!(r.series.len(), r.cycles as usize);
        let all = r.series.pooled(0, r.cycles);
        assert_eq!(all.news_sent, r.news_messages_all);
        assert_eq!(all.gossip_sent, 0, "cascade has no gossip layer");
        assert_eq!(
            all.first_receptions,
            r.items.iter().map(|i| u64::from(i.reached)).sum::<u64>()
        );
        assert_eq!(
            all.hits,
            r.items.iter().map(|i| u64::from(i.hits)).sum::<u64>()
        );
    }

    #[test]
    fn reached_bounded_by_population() {
        let d = dataset();
        let r = run(&d, 0.0);
        for item in &r.items {
            assert!((item.reached as usize) < d.n_users());
            assert!(item.hits <= item.reached);
        }
    }
}
