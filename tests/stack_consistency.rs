//! The three testbeds (simulator, emulator, UDP swarm) run the same
//! `whatsup-core` node; their delivery quality must agree (Fig. 8a's
//! methodological claim). Also drives the paper harness end to end on its
//! two simulation-free ids.

use std::sync::{Mutex, MutexGuard, PoisonError};
use whatsup::prelude::*;
use whatsup_bench::paper;

/// The emulator and the UDP swarm run one thread per peer (~58) against
/// the wall clock, so sibling tests competing for the same cores can starve
/// a peer past its cycle. Every test of this binary holds this lock for
/// its whole body: the real-time testbeds never share the machine with
/// the others (one of which generates three datasets).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn simulator_emulator_udp_agree_on_f1() {
    let _alone = exclusive();
    // The peer threads of one cycle must all get scheduled within it:
    // 80 ms is comfortable on four cores, fewer cores get proportionally
    // longer cycles (available_parallelism honours CPU affinity).
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get() as u64);
    let cycle_ms = 80 * (4 / cores).max(1);
    let dataset = whatsup::datasets::survey::generate(&SurveyConfig::paper().scaled(0.12), 8);
    // Simulator.
    let sim_cfg = SimConfig {
        cycles: 16,
        publish_from: 2,
        measure_from: 6,
        ..Default::default()
    };
    let sim = run_protocol(&dataset, Protocol::WhatsUp { f_like: 5 }, &sim_cfg);
    // Emulated fabric.
    let swarm = SwarmConfig {
        params: Params::whatsup(5),
        cycles: 16,
        cycle_ms,
        publish_from: 2,
        measure_from: 6,
        drain_cycles: 2,
        ..Default::default()
    };
    let emu = whatsup::net::emulator::run(
        &dataset,
        &EmulatorConfig {
            swarm: swarm.clone(),
            latency_ms: (1, 5),
            link_loss: 0.0,
        },
    );
    // Real UDP sockets.
    let udp = whatsup::net::runtime::run(&dataset, &UdpConfig { swarm });

    let (s, e, u) = (sim.scores(), emu.scores(), udp.scores());
    assert!(s.f1 > 0.2, "simulator starved: {s:?}");
    assert!(e.f1 > 0.2, "emulator starved: {e:?}");
    assert!(u.f1 > 0.2, "udp starved: {u:?}");
    assert!(
        (s.f1 - e.f1).abs() < 0.2 && (s.f1 - u.f1).abs() < 0.2,
        "testbeds disagree: sim {s:?} emu {e:?} udp {u:?}"
    );
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
    let mut node = WhatsUpNode::new(0, whatsup::core::Params::whatsup(2));
    node.seed_views(
        [(1, Profile::new())],
        [(1, Profile::new()), (2, Profile::new())],
    );
    let item = NewsItem::new("t", "d", "https://l", 0, 0);
    let mut stats = NodeStats::default();
    let out = node.publish(&item, 0, &mut stats, &mut rng);
    assert!(!out.is_empty());
    let resolver = |id: ItemId| (id == item.id()).then(|| item.clone());
    for m in &out {
        let bytes = whatsup::net::codec::encode(0, &m.payload, resolver).unwrap();
        let (from, wire) = whatsup::net::codec::decode(&bytes).unwrap();
        assert_eq!(from, 0);
        assert_eq!(wire.try_into_payload().unwrap(), m.payload);
    }
}
