//! The three testbeds (simulator, emulated swarm, UDP swarm) run the same
//! `whatsup-core` node under the same scenario; their reports must agree
//! (Fig. 8a's methodological claim). Also drives the paper harness end to
//! end on its two simulation-free ids.

use std::sync::{Mutex, MutexGuard, PoisonError};
use whatsup::prelude::*;
use whatsup_bench::paper;

/// The swarms run one thread per peer (~38) against the wall clock, so sibling tests competing for the same cores can starve
/// a peer past its cycle. Every test of this binary holds this lock for
/// its whole body: the real-time testbeds never share the machine with
/// the others (one of which generates three datasets).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-clock length of one swarm cycle: each peer's tick and its share of
/// the cycle's frames must fit in it with the machine's other peer threads.
const CYCLE_MS: u64 = 60;
/// How far a swarm's recall may sit from the simulator's. The swarm's
/// epidemics run at link latency instead of as a within-cycle BFS, its
/// protocol draws fall in arrival order, and a crashed peer restarts from
/// one contact's id instead of the contact's views.
const RECALL_TOL: f64 = 0.15;
/// How far a swarm's news message count may sit from the simulator's,
/// relative to it.
const NEWS_TOL: f64 = 0.25;

/// The simulator and a swarm on either fabric execute one scenario — the
/// committed crash-wave file, its timeline cleared — from one plan,
/// bootstrap overlay, set of environment draws and ledger. What timing
/// cannot touch is equal: every item's publication cycle and ground truth,
/// and every cycle's crashes. What it can, within the tolerances above.
#[test]
fn simulator_and_both_swarm_fabrics_run_one_scenario() {
    let _alone = exclusive();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/flash_crowd_crash_wave.json"
    );
    let text = std::fs::read_to_string(path).expect("committed scenario");
    let mut file = ScenarioFile::from_json_str(&text).expect("committed scenario parses");
    let dataset = file.dataset.build();
    let runner = |scenario: &Scenario| {
        Runner::new(&dataset, file.protocol)
            .config(file.config.clone())
            .scenario(scenario.clone())
    };
    // A swarm has no driver to fire the timeline: as committed, the file
    // is refused by the first event's name, not run without it.
    let refused = runner(&file.scenario).deploy(Fabric::Emulated, CYCLE_MS);
    let err = refused.expect_err("timeline events cannot fire on a swarm");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(err.to_string().contains("join_clone"), "{err}");

    file.scenario.events.clear();
    let sim = runner(&file.scenario).run();
    let plan = |r: &SimReport| {
        let items = r.items.iter();
        items
            .map(|i| (i.published_at, i.interested))
            .collect::<Vec<_>>()
    };
    let crashed = |r: &SimReport| {
        r.series
            .cycles()
            .iter()
            .map(|c| c.crashed)
            .collect::<Vec<_>>()
    };
    assert!(
        crashed(&sim).iter().sum::<u64>() > 0,
        "the wave crashes someone"
    );
    for fabric in [Fabric::Emulated, Fabric::Udp] {
        let run = runner(&file.scenario).deploy(fabric, CYCLE_MS);
        let swarm = run.expect("the fabric comes up").report;
        assert_eq!(plan(&swarm), plan(&sim), "{fabric:?}: publication plan");
        assert_eq!(crashed(&swarm), crashed(&sim), "{fabric:?}: crash set");
        let (s, w) = (sim.scores().recall, swarm.scores().recall);
        assert!(
            (s - w).abs() <= RECALL_TOL,
            "{fabric:?}: recall {w:.3} vs the simulator's {s:.3}"
        );
        let ratio = swarm.news_messages_all as f64 / sim.news_messages_all as f64;
        assert!(
            (ratio - 1.0).abs() <= NEWS_TOL,
            "{fabric:?}: {} news messages vs the simulator's {}",
            swarm.news_messages_all,
            sim.news_messages_all
        );
    }
}

#[test]
fn experiment_json_artifacts_roundtrip() {
    let _alone = exclusive();
    // `paper -- table1 table2`, as the bench target runs it: the artifact
    // it leaves must parse back as an object with named columns.
    let args = ["table1", "table2", "--bench"].map(String::from);
    assert_eq!(paper::cli(&args), std::process::ExitCode::SUCCESS);
    let text = std::fs::read_to_string(whatsup_bench::artifact("paper")).expect("artifact written");
    let artifact = serde::json::parse(&text).expect("valid JSON");
    assert_eq!(
        artifact.get("scale").and_then(|s| s.as_f64()),
        Some(paper::DEFAULT_SCALE)
    );
    let cell = |id: &str, key: &str, field: &str| {
        let cell = artifact.get("ids")?.get(id)?.get(key)?;
        cell.get(field)?.as_f64()
    };
    assert_eq!(cell("table2", "RPSvs", "value"), Some(30.0));
    assert!(cell("table2", "RPSvs", "tol").is_some_and(|tol| tol > 0.0));
    assert!(cell("table1", "survey.like_rate", "value").is_some_and(|rate| rate > 0.0));
    // An unknown id or flag is a usage error, not a run.
    for bad in ["table7", "--full"] {
        assert_eq!(
            paper::cli(&[bad.to_string()]),
            std::process::ExitCode::from(2)
        );
    }
}

#[test]
fn table1_driver_end_to_end() {
    let _alone = exclusive();
    // Tables I and II need no simulation; safe at any scale.
    let ids = ["table1", "table2"].map(String::from);
    let ctx = paper::Ctx::new(0.1);
    let entries = paper::select(&ctx, &ids, false).expect("known ids");
    let results = paper::run(&ctx, &entries);
    let boards: Vec<paper::Board> = entries
        .iter()
        .map(|e| e.board(&ctx, Some(&results), true))
        .collect();
    let value = |board: &paper::Board, key: &str| {
        let pin = board.pins.iter().find(|p| p.key == key);
        pin.unwrap_or_else(|| panic!("no pin {key}")).value
    };
    for name in ["synthetic", "digg", "survey"] {
        assert!(value(&boards[0], &format!("{name}.users")) >= 15.0);
        assert!(value(&boards[0], &format!("{name}.news")) >= 20.0);
    }
    assert!(boards[0].text.contains("scale 0.10"), "{}", boards[0].text);
    // Table II: the per-node defaults are the paper's.
    assert_eq!(value(&boards[1], "RPSvs"), 30.0);
    assert_eq!(value(&boards[1], "WUPvs_per_fLIKE"), 2.0);
    assert_eq!(value(&boards[1], "profile_window"), 13.0);
    assert_eq!(value(&boards[1], "BEEP_TTL"), 4.0);
    for pin in &boards[1].pins {
        assert_eq!(Some(pin.value), pin.paper, "{}", pin.key);
    }
}

#[test]
fn wire_codec_carries_simulated_dissemination() {
    let _alone = exclusive();
    // Encode/decode a full news payload produced by a live node.
    use rand::SeedableRng;
    use whatsup::core::prelude::*;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let item = NewsItem::new("t", "d", "https://l", 0, 0);
    let items = std::sync::Arc::new(ItemIndexMap::from_iter([(item.id(), 0)]));
    let mut node = WhatsUpNode::new(0, whatsup::core::Params::whatsup(2), items);
    node.seed_views(
        [(1, Profile::new())],
        [(1, Profile::new()), (2, Profile::new())],
    );
    let mut stats = NodeStats::default();
    let out = node.publish(&item, 0, &mut stats, &mut rng);
    assert!(!out.is_empty());
    let resolver = |id: ItemId| (id == item.id()).then(|| item.clone());
    for m in &out {
        let bytes = whatsup::net::codec::encode(0, &m.payload, resolver).unwrap();
        let (from, payload, content) = whatsup::net::codec::decode(&bytes).unwrap();
        assert_eq!(from, 0);
        assert_eq!(payload, m.payload);
        assert_eq!(content.as_ref(), Some(&item), "news carries its content");
    }
}
