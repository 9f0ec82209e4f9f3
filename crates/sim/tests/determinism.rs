//! The engine's concurrency contract: reports are bit-identical across
//! shard counts and exchange transports, and per-node RNG streams are
//! stable under node insertion (see the `engine` module docs for the full
//! contract).

mod common;

use proptest::prelude::*;
use rand::RngCore;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::engine::{node_stream, phase};
use whatsup_sim::scenario::{Event, TimedEvent};
use whatsup_sim::{Protocol, Runner, Scenario, SimConfig, SimReport};

fn dataset() -> whatsup_datasets::Dataset {
    survey::generate(&SurveyConfig::paper().scaled(0.12), 42)
}

fn cfg() -> SimConfig {
    SimConfig {
        cycles: 18,
        publish_from: 2,
        measure_from: 7,
        ..Default::default()
    }
}

fn run_with_shards(shards: usize, scenario: Scenario) -> SimReport {
    let cfg = SimConfig { shards, ..cfg() };
    Runner::new(&dataset(), Protocol::WhatsUp { f_like: 5 })
        .config(cfg)
        .scenario(scenario)
        .run()
}

#[test]
fn report_is_bit_identical_across_shard_counts() {
    let single = run_with_shards(1, Scenario::default());
    // The per-cycle series is part of the report, so the equality below
    // pins it too — but assert it is actually there and reconciles with
    // the whole-run counters, or the pin would be vacuous.
    assert_eq!(single.series.len(), single.cycles as usize);
    let all = single.series.pooled(0, single.cycles);
    assert_eq!(all.news_sent, single.news_messages_all);
    assert_eq!(all.gossip_sent, single.gossip_messages);
    assert_eq!(
        all.first_receptions,
        single
            .items
            .iter()
            .map(|r| u64::from(r.reached))
            .sum::<u64>()
    );
    assert_eq!(
        all.hits,
        single.items.iter().map(|r| u64::from(r.hits)).sum::<u64>()
    );
    assert_eq!(
        all.interested,
        single
            .items
            .iter()
            .map(|r| u64::from(r.interested))
            .sum::<u64>()
    );
    for shards in [2, 4] {
        let sharded = run_with_shards(shards, Scenario::default());
        assert_eq!(
            single, sharded,
            "1-shard and {shards}-shard runs must produce identical reports"
        );
    }
}

#[test]
fn report_is_bit_identical_across_shard_counts_with_loss_and_churn() {
    let noisy = common::noise(0.2, 0.03);
    let single = run_with_shards(1, noisy.clone());
    for shards in [2, 4] {
        let sharded = run_with_shards(shards, noisy.clone());
        assert_eq!(
            single, sharded,
            "{shards} shards diverged under loss + churn"
        );
    }
}

#[test]
fn multiprocess_transport_matches_in_process() {
    // Small config: the multi-process path pays ~per-shard process spawn,
    // so keep the population modest but the noise knobs on.
    let d = survey::generate(&SurveyConfig::paper().scaled(0.08), 11);
    let base = SimConfig {
        cycles: 12,
        publish_from: 2,
        measure_from: 5,
        shards: 2,
        ..Default::default()
    };
    let in_process = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(base.clone())
        .scenario(common::noise(0.1, 0.02))
        .run();
    let worker = std::path::Path::new(env!("CARGO_BIN_EXE_sim-shard-worker"));
    let multi_process = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(base)
        .scenario(common::noise(0.1, 0.02))
        .multiprocess(worker)
        .try_run()
        .expect("worker processes run");
    assert_eq!(
        in_process, multi_process,
        "stdio-pipe transport must match the channel transport bit for bit"
    );
}

#[test]
fn socket_transport_matches_in_process() {
    let d = survey::generate(&SurveyConfig::paper().scaled(0.08), 11);
    let base = SimConfig {
        cycles: 12,
        publish_from: 2,
        measure_from: 5,
        shards: 2,
        ..Default::default()
    };
    let in_process = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(base.clone())
        .scenario(common::noise(0.1, 0.02))
        .run();
    // Workers first, then the driver dials them (shard k = k-th address).
    let (w1, a1) = common::spawn_listen_worker();
    let (w2, a2) = common::spawn_listen_worker();
    let socket = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(base)
        .scenario(common::noise(0.1, 0.02))
        .socket([a1, a2])
        .try_run()
        .expect("socket workers run");
    assert_eq!(
        in_process, socket,
        "loopback-socket transport must match the in-process engine bit for bit"
    );
    // Orderly teardown: both workers saw Stop and exited cleanly.
    common::assert_clean_exit(w1, "worker 1");
    common::assert_clean_exit(w2, "worker 2");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The three transports produce bit-identical reports for random seeds
    /// and noise knobs. (Few cases: each spawns four worker processes and
    /// runs three full simulations.)
    #[test]
    fn transports_are_bit_identical_under_random_noise(
        seed in 1u64..1_000_000,
        loss in 0.0f64..0.4,
        churn in 0.0f64..0.08,
    ) {
        let d = survey::generate(&SurveyConfig::paper().scaled(0.08), 7);
        let base = SimConfig {
            cycles: 10,
            publish_from: 2,
            measure_from: 5,
            seed,
            shards: 2,
            ..Default::default()
        };
        let noise = common::noise(loss, churn);
        let reference = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(base.clone())
            .scenario(noise.clone())
            .run();
        let worker = std::path::Path::new(env!("CARGO_BIN_EXE_sim-shard-worker"));
        prop_assert_eq!(reference.series.len(), reference.cycles as usize,
            "the per-cycle series must cover the run");
        let process = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(base.clone())
            .scenario(noise.clone())
            .multiprocess(worker)
            .try_run()
            .expect("worker processes run");
        prop_assert_eq!(&reference.series, &process.series,
            "child-process transport diverged on the time series");
        prop_assert_eq!(&reference, &process, "child-process transport diverged");
        let (w1, a1) = common::spawn_listen_worker();
        let (w2, a2) = common::spawn_listen_worker();
        let socket = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(base)
            .scenario(noise)
            .socket([a1, a2])
            .try_run()
            .expect("socket workers run");
        prop_assert_eq!(&reference.series, &socket.series,
            "socket transport diverged on the time series");
        prop_assert_eq!(&reference, &socket, "socket transport diverged");
        common::assert_clean_exit(w1, "worker 1");
        common::assert_clean_exit(w2, "worker 2");
    }
}

#[test]
fn joining_node_does_not_shift_existing_streams() {
    // Two simulations over *different-sized* populations, one of which also
    // inserts joiners mid-run. An existing node's streams must not depend on
    // either the population size or the insertions — the old shared-RNG
    // engine violated both (bootstrap and joiners consumed shared draws).
    // That the engine actually *uses* these streams for all per-cycle
    // behavior is pinned separately by the bit-identical-across-shard-count
    // tests above: any hidden shared generator would break those.
    let small = survey::generate(&SurveyConfig::paper().scaled(0.12), 42);
    let large = survey::generate(&SurveyConfig::paper().scaled(0.5), 42);
    assert_ne!(small.n_users(), large.n_users());
    let mut a = Runner::new(&small, Protocol::WhatsUp { f_like: 5 })
        .config(cfg())
        .build();
    let joins = vec![
        TimedEvent {
            at: 3,
            event: Event::JoinClone { reference: 0 },
        };
        5
    ];
    let mut b = Runner::new(&large, Protocol::WhatsUp { f_like: 5 })
        .config(cfg())
        .scenario(Scenario::default().with_events(joins))
        .build();
    for _ in 0..4 {
        a.step();
        b.step();
    }
    assert_eq!(b.n_nodes(), large.n_users() + 5, "the joiners arrived");
    for node in [0u32, 7, 101] {
        for cycle in [3u32, 9, 17] {
            for ph in [phase::CYCLE, phase::GOSSIP, phase::CHURN, phase::NEWS] {
                let mut sa = a.stream_for(node, cycle, ph);
                let mut sb = b.stream_for(node, cycle, ph);
                let va: Vec<u64> = (0..8).map(|_| sa.next_u64()).collect();
                let vb: Vec<u64> = (0..8).map(|_| sb.next_u64()).collect();
                assert_eq!(va, vb, "stream shifted for node {node} cycle {cycle}");
            }
        }
    }
}

#[test]
fn timeline_events_match_across_shard_counts() {
    // Joiners and interest swaps touch every shard's oracle copy and the
    // partition; the traces they feed (Fig. 7) must not see the shard count.
    let d = survey::generate(&SurveyConfig::paper().scaled(0.1), 55);
    let events = [
        Event::JoinClone { reference: 0 },
        Event::SwapInterests { a: 1, b: 2 },
    ];
    let scenario =
        Scenario::default().with_events(events.map(|event| TimedEvent { at: 8, event }).to_vec());
    // The joiner takes the next free id.
    let j = d.n_users() as u32;
    let run = |shards: usize| {
        let cfg = SimConfig { shards, ..cfg() };
        let mut sim = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg)
            .scenario(scenario.clone())
            .build();
        let mut trace = Vec::new();
        while sim.current_cycle() < 18 {
            sim.step();
            if sim.n_nodes() > j as usize {
                trace.push((
                    sim.interest_view_similarity(j).to_bits(),
                    sim.liked_receptions_last_cycle(j),
                ));
            }
        }
        (trace, sim.into_report())
    };
    let (trace1, report1) = run(1);
    for shards in [2, 3] {
        let (trace, report) = run(shards);
        assert_eq!(trace1, trace, "{shards}-shard dynamics trace diverged");
        assert_eq!(report1, report, "{shards}-shard report diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streams are pure functions of `(seed, node, cycle, phase)` and
    /// distinct coordinates give distinct streams (no cross-talk that an
    /// insertion or phase reordering could expose).
    #[test]
    fn node_streams_are_stable_and_decorrelated(
        seed in 0u64..1_000_000,
        node in 0u32..100_000,
        cycle in 0u32..10_000,
    ) {
        let draw = |n: u32, c: u32, p: u8| {
            let mut rng = node_stream(seed, n, c, p);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        // Stable: re-derivation yields the same stream.
        prop_assert_eq!(draw(node, cycle, phase::CYCLE), draw(node, cycle, phase::CYCLE));
        // Decorrelated across each coordinate.
        prop_assert_ne!(draw(node, cycle, phase::CYCLE), draw(node + 1, cycle, phase::CYCLE));
        prop_assert_ne!(draw(node, cycle, phase::CYCLE), draw(node, cycle + 1, phase::CYCLE));
        prop_assert_ne!(draw(node, cycle, phase::CYCLE), draw(node, cycle, phase::GOSSIP));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline acceptance property: for random seeds and noise knobs,
    /// the report is bit-identical for 1, 2 and 4 shards — message loss and
    /// churn included. (Few cases: each runs six full simulations.)
    #[test]
    fn shard_counts_are_bit_identical_under_random_noise(
        seed in 1u64..1_000_000,
        loss in 0.0f64..0.4,
        churn in 0.0f64..0.08,
    ) {
        let d = survey::generate(&SurveyConfig::paper().scaled(0.08), 7);
        let base = SimConfig {
            cycles: 12,
            publish_from: 2,
            measure_from: 5,
            seed,
            ..Default::default()
        };
        let run = |shards: usize| {
            Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
                .config(SimConfig { shards, ..base.clone() })
                .scenario(common::noise(loss, churn))
                .run()
        };
        let reference = run(1);
        prop_assert_eq!(reference.series.len(), reference.cycles as usize);
        for shards in [2usize, 4] {
            let sharded = run(shards);
            prop_assert_eq!(&reference, &sharded, "shards={} diverged", shards);
        }
    }
}
