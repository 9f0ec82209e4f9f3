//! The run environment: *the* definition of every bootstrap, loss, churn,
//! join and schedule draw a [`Scenario`] implies. Every engine — the
//! sharded cycle engine, anti-entropy, the one-shot baselines and the
//! wall-clock swarm — consumes these functions and owns none of its own,
//! so "30 % loss" or "a crash wave at cycle 8" means the same coins under
//! each of them (`whatsup-lint`'s `env-draw` rule keeps `gen_bool` out of
//! the rest of the crate and out of `whatsup_net`).
//!
//! Draw rules, shared by all consumers:
//!
//! * per-node coins come from that node's counter-based
//!   [`node_stream`]`(seed, node, cycle, phase)` — CHANNEL for the
//!   Gilbert–Elliott transition, CHURN for the crash coin (and, on the
//!   same stream, the rejoin contact), the *receiver's* delivery stream
//!   for a loss coin — so no draw depends on population size, execution
//!   order or shard boundaries;
//! * a coin whose probability is zero is never drawn: lossless,
//!   churn-free models leave every stream untouched;
//! * the partition window is deterministic and coin-free;
//! * population changes at a cycle start draw from the engine's one
//!   driving RNG, in the fixed order [`CycleStart`] yields them.

use crate::config::SimConfig;
use crate::engine::{node_stream, phase};
use crate::scenario::{Event, LossModel, Scenario};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use whatsup_core::{ItemId, ItemIndexMap, NewsItem, NodeId};
use whatsup_datasets::Dataset;

/// Advances the Gilbert–Elliott channel chains of the nodes `base..` (one
/// transition per node per cycle; `bad[i]` is node `base + i`'s state,
/// `true` = Bad). The channel belongs to the *network*: crashes and
/// resets leave it alone. No-op under the other loss models.
pub(crate) fn advance_channels(
    loss: LossModel,
    seed: u64,
    base: NodeId,
    cycle: u32,
    bad: &mut [bool],
) {
    let LossModel::GilbertElliott {
        good_to_bad,
        bad_to_good,
        ..
    } = loss
    else {
        return;
    };
    for (id, bad) in (base..).zip(bad) {
        let flip = if *bad { bad_to_good } else { good_to_bad };
        if flip > 0.0 && node_stream(seed, id, cycle, phase::CHANNEL).gen_bool(flip) {
            *bad = !*bad;
        }
    }
}

/// The active partition frontier at `cycle`, if the loss model has its
/// split window open: node ids below the cut form one side.
#[inline]
pub(crate) fn partition_cut(loss: LossModel, cycle: u32, population: usize) -> Option<NodeId> {
    match loss {
        LossModel::Partition {
            from,
            until,
            frontier,
        } if cycle >= from && cycle < until => {
            Some((frontier * population as f64).floor() as NodeId)
        }
        _ => None,
    }
}

/// The probability of the loss coin a delivery to a receiver in channel
/// state `receiver_bad` draws; `None` when it draws none — a coin of
/// probability zero, or a partition, which drops by position.
#[inline]
fn loss_coin(loss: LossModel, receiver_bad: bool) -> Option<f64> {
    let p = match loss {
        LossModel::Constant { p } => p,
        LossModel::GilbertElliott { p_good, p_bad, .. } => {
            if receiver_bad {
                p_bad
            } else {
                p_good
            }
        }
        LossModel::Partition { .. } => return None,
    };
    (p > 0.0).then_some(p)
}

/// Whether one message `from → to` is dropped at delivery time.
/// `receiver_bad` is the receiver's channel state, `cut` this cycle's
/// [`partition_cut`], `rng` the receiver's delivery stream.
#[inline]
pub(crate) fn dropped(
    loss: LossModel,
    receiver_bad: bool,
    cut: Option<NodeId>,
    from: NodeId,
    to: NodeId,
    rng: &mut ChaCha8Rng,
) -> bool {
    match loss_coin(loss, receiver_bad) {
        Some(p) => rng.gen_bool(p),
        None => cut.is_some_and(|cut| (from < cut) != (to < cut)),
    }
}

/// [`dropped`] for a receiver whose delivery stream may not exist yet:
/// `stream` creates it in `rng`, and only if the model draws a coin.
#[inline]
pub(crate) fn dropped_lazily(
    loss: LossModel,
    receiver_bad: bool,
    cut: Option<NodeId>,
    from: NodeId,
    to: NodeId,
    rng: &mut Option<ChaCha8Rng>,
    stream: impl FnOnce() -> ChaCha8Rng,
) -> bool {
    match loss_coin(loss, receiver_bad) {
        Some(p) => rng.get_or_insert_with(stream).gen_bool(p),
        None => cut.is_some_and(|cut| (from < cut) != (to < cut)),
    }
}

/// `node`'s crash coin for `cycle` at the churn model's `rate`. A crashing
/// node gets its CHURN stream back, positioned after the coin, for the
/// [`rejoin_contact`] draw.
pub(crate) fn crash_coin(seed: u64, node: NodeId, cycle: u32, rate: f64) -> Option<ChaCha8Rng> {
    if rate <= 0.0 {
        return None;
    }
    let mut rng = node_stream(seed, node, cycle, phase::CHURN);
    rng.gen_bool(rate).then_some(rng)
}

/// A uniform rejoin contact for `node` among the other `population - 1`
/// nodes (rejection sampling; needs `population > 1`).
pub(crate) fn rejoin_contact(rng: &mut ChaCha8Rng, node: NodeId, population: usize) -> NodeId {
    loop {
        let c = rng.gen_range(0..population) as NodeId;
        if c != node {
            return c;
        }
    }
}

/// The bootstrap overlay, a stand-in for the paper's bootstrap server:
/// `degree` distinct random contacts for each of the `n` nodes, in id
/// order, by partial Fisher–Yates over the other `n - 1` ids. Drawn from
/// the engine's one driving RNG, which continues on the same stream, so
/// the contact lists depend on neither shards nor peer threads.
pub(crate) fn bootstrap_contacts(
    rng: &mut ChaCha8Rng,
    n: usize,
    degree: usize,
) -> Vec<Vec<NodeId>> {
    let take = degree.min(n - 1);
    (0..n)
        .map(|id| {
            rand::seq::index::sample(rng, n - 1, take)
                .into_iter()
                // Skip over `id` itself: [0, n-1) minus {id} ≅ shift ≥ id.
                .map(|c| if c >= id { c + 1 } else { c } as NodeId)
                .collect()
        })
        .collect()
}

/// Cursor over one cycle's start-of-cycle population changes: first the
/// churn model's mass-join arrivals, each expanded to an
/// [`Event::JoinClone`] of a uniformly drawn reference, then the timeline
/// events stamped for the cycle, in list order. A reference is drawn
/// against the population *as it grows*, and an engine may interleave its
/// own draws from the same RNG, so events are pulled one at a time, each
/// after the previous one was applied.
pub(crate) struct CycleStart {
    cycle: u32,
    joins_left: u32,
    next_event: usize,
}

impl CycleStart {
    pub(crate) fn new(scenario: &Scenario, cycle: u32) -> Self {
        Self {
            cycle,
            joins_left: scenario.environment.churn.joins_at(cycle),
            next_event: 0,
        }
    }

    /// The next event to apply, given the current `population`.
    pub(crate) fn next(
        &mut self,
        scenario: &Scenario,
        rng: &mut ChaCha8Rng,
        population: usize,
    ) -> Option<Event> {
        if self.joins_left > 0 {
            self.joins_left -= 1;
            let reference = rng.gen_range(0..population) as NodeId;
            return Some(Event::JoinClone { reference });
        }
        let rest = scenario.events.get(self.next_event..)?;
        let due = rest.iter().position(|e| e.at == self.cycle)?;
        self.next_event += due + 1;
        Some(rest[due].event)
    }
}

/// When and as what each dataset item is published: a pure function of
/// `(dataset, workload, config)` that consumes no randomness. Vectors are
/// indexed by dataset item index.
pub(crate) struct Publications {
    /// Item → publication cycle, in `[publish_from, cycles)`.
    pub cycle_of: Vec<u32>,
    /// Cycle → items published then, ascending.
    pub at_cycle: Vec<Vec<u32>>,
    /// Item → the news content its source publishes.
    pub items: Vec<NewsItem>,
    /// Item → content hash of `items` (hashing is string-heavy).
    pub ids: Vec<ItemId>,
}

impl Publications {
    pub(crate) fn plan(dataset: &Dataset, scenario: &Scenario, cfg: &SimConfig) -> Self {
        let topics: Vec<u32> = dataset.items.iter().map(|spec| spec.topic).collect();
        let cycle_of = scenario.workload.schedule(cfg, &topics);
        let mut at_cycle = vec![Vec::new(); cfg.cycles as usize];
        let mut items = Vec::with_capacity(dataset.n_items());
        for spec in &dataset.items {
            let cycle = cycle_of[spec.index as usize];
            at_cycle[cycle as usize].push(spec.index);
            items.push(NewsItem::new(
                format!("{}-news-{}", dataset.name, spec.index),
                format!("topic-{}", spec.topic),
                format!("https://news.example/{}/{}", dataset.name, spec.index),
                spec.source,
                cycle,
            ));
        }
        let ids = items.iter().map(NewsItem::id).collect();
        Self {
            cycle_of,
            at_cycle,
            items,
            ids,
        }
    }

    /// The id → item index map an [`crate::Oracle`] is built over, with
    /// each item's creation time: the cycle it is published in.
    pub(crate) fn id_to_index(&self) -> ItemIndexMap {
        let map: ItemIndexMap = (self.ids.iter().zip(&self.items).zip(0..))
            .map(|((&id, item), slot)| (id, slot, item.created_at))
            .collect();
        assert_eq!(map.len(), self.ids.len(), "item id (hash) collision");
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnModel, Environment, TimedEvent};
    use rand::{RngCore, SeedableRng};

    const GE: LossModel = LossModel::GilbertElliott {
        p_good: 0.0,
        p_bad: 0.0,
        good_to_bad: 0.0,
        bad_to_good: 1.0,
    };

    /// True when `f` left `rng` exactly where it found it.
    fn untouched(f: impl FnOnce(&mut ChaCha8Rng)) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        f(&mut rng);
        rng.next_u64() == ChaCha8Rng::seed_from_u64(5).next_u64()
    }

    #[test]
    fn lossless_models_never_advance_an_rng() {
        for loss in [
            LossModel::Constant { p: 0.0 },
            GE,
            LossModel::Partition {
                from: 0,
                until: 9,
                frontier: 0.5,
            },
        ] {
            for bad in [false, true] {
                assert!(untouched(|rng| {
                    let cut = partition_cut(loss, 3, 10);
                    for (from, to) in [(0, 9), (9, 0), (1, 2)] {
                        let lost = dropped(loss, bad, cut, from, to, rng);
                        let crossing = cut.is_some() && (from < 5) != (to < 5);
                        assert_eq!(lost, crossing, "{loss:?} {from}->{to}");
                    }
                }));
            }
        }
        assert!(crash_coin(1, 0, 0, 0.0).is_none());
        // A lossy coin, by contrast, does draw.
        assert!(!untouched(|rng| {
            dropped(LossModel::Constant { p: 0.5 }, false, None, 0, 1, rng);
        }));
    }

    #[test]
    fn a_lazy_stream_is_created_for_a_coin_only_and_draws_as_the_eager_one() {
        let fresh = || ChaCha8Rng::seed_from_u64(5);
        let lossy_ge = LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.7,
            good_to_bad: 0.0,
            bad_to_good: 1.0,
        };
        let partition = LossModel::Partition {
            from: 0,
            until: 9,
            frontier: 0.5,
        };
        // (model, whether it draws in the Good state, in the Bad state)
        let models = [
            (LossModel::Constant { p: 0.0 }, false, false),
            (LossModel::Constant { p: 0.5 }, true, true),
            (GE, false, false),
            (lossy_ge, false, true),
            (partition, false, false),
        ];
        for (loss, draws_good, draws_bad) in models {
            for bad in [false, true] {
                let cut = partition_cut(loss, 3, 10);
                let (mut eager, mut lazy) = (fresh(), None);
                for (from, to) in [(0, 9), (9, 0), (1, 2), (7, 8), (3, 4)] {
                    assert_eq!(
                        dropped(loss, bad, cut, from, to, &mut eager),
                        dropped_lazily(loss, bad, cut, from, to, &mut lazy, fresh),
                        "{loss:?} {from}->{to}"
                    );
                }
                assert_eq!(lazy.is_some(), if bad { draws_bad } else { draws_good });
                // Both streams stand at the same draw; one never created
                // means the eager one was never drawn from.
                let next = lazy.get_or_insert_with(fresh).next_u64();
                assert_eq!(next, eager.next_u64(), "{loss:?} bad={bad}");
            }
        }
    }

    #[test]
    fn partition_cut_drops_exactly_the_crossing_messages_inside_the_window() {
        let loss = LossModel::Partition {
            from: 4,
            until: 7,
            frontier: 0.4,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for cycle in 0..10 {
            let cut = partition_cut(loss, cycle, 10);
            assert_eq!(cut, (4..7).contains(&cycle).then_some(4), "cycle {cycle}");
            for from in 0..10 {
                for to in 0..10 {
                    let crossing = (from < 4) != (to < 4);
                    assert_eq!(
                        dropped(loss, false, cut, from, to, &mut rng),
                        cut.is_some() && crossing
                    );
                }
            }
        }
    }

    #[test]
    fn a_chain_that_cannot_turn_bad_never_flips() {
        // good_to_bad = 0: Good is absorbing, and Bad heals in one step.
        let mut bad = vec![false; 50];
        bad[7] = true;
        for cycle in 0..20 {
            advance_channels(GE, 3, 100, cycle, &mut bad);
            assert_eq!(bad, vec![false; 50], "cycle {cycle}");
        }
        // Under the other models the states are never touched.
        let mut frozen = vec![true; 4];
        advance_channels(LossModel::Constant { p: 0.9 }, 3, 0, 0, &mut frozen);
        assert_eq!(frozen, vec![true; 4]);
    }

    #[test]
    fn channel_and_crash_coins_are_keyed_by_node_id_not_position() {
        let loss = LossModel::GilbertElliott {
            p_good: 0.0,
            p_bad: 1.0,
            good_to_bad: 0.5,
            bad_to_good: 0.5,
        };
        let mut whole = vec![false; 40];
        let (mut low, mut high) = (vec![false; 15], vec![false; 25]);
        for cycle in 0..6 {
            advance_channels(loss, 9, 0, cycle, &mut whole);
            advance_channels(loss, 9, 0, cycle, &mut low);
            advance_channels(loss, 9, 15, cycle, &mut high);
            assert_eq!(whole, [low.clone(), high.clone()].concat());
        }
        assert!(whole.contains(&true) && whole.contains(&false));
        let crashed = (0..200).filter(|&id| crash_coin(9, id, 2, 0.3).is_some());
        assert!((30..90).contains(&crashed.count()));
        assert!((0..50).all(|id| crash_coin(9, id, 2, 1.0).is_some()));
    }

    #[test]
    fn mass_join_references_are_drawn_against_the_growing_population() {
        let scenario = Scenario::default()
            .with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn: ChurnModel::MassJoin { at: 3, count: 4 },
            })
            .with_events(vec![
                TimedEvent {
                    at: 3,
                    event: Event::ResetNode { node: 1 },
                },
                TimedEvent {
                    at: 2,
                    event: Event::SwapInterests { a: 0, b: 1 },
                },
                TimedEvent {
                    at: 3,
                    event: Event::JoinClone { reference: 2 },
                },
            ]);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut expected = ChaCha8Rng::seed_from_u64(11);
        let mut start = CycleStart::new(&scenario, 3);
        let mut population = 2;
        let mut seen = Vec::new();
        while let Some(event) = start.next(&scenario, &mut rng, population) {
            if seen.len() < 4 {
                // Population 2, 3, 4, 5: the k-th joiner may clone any of
                // the k - 1 before it.
                let reference = expected.gen_range(0..population) as NodeId;
                assert_eq!(event, Event::JoinClone { reference });
            }
            population += usize::from(matches!(event, Event::JoinClone { .. }));
            seen.push(event);
        }
        // Then the cycle-3 timeline events, in list order, drawing nothing.
        assert_eq!(
            seen[4..],
            [
                Event::ResetNode { node: 1 },
                Event::JoinClone { reference: 2 }
            ]
        );
        assert_eq!(rng.next_u64(), expected.next_u64());
        let mut quiet = CycleStart::new(&scenario, 4);
        assert_eq!(quiet.next(&scenario, &mut rng, population), None);
    }
}
