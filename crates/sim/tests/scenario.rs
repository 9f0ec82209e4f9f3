//! The scenario layer's two contracts:
//!
//! 1. **Serialization** — every scenario file the grammar can express
//!    round-trips through JSON (property-tested over the full grammar, every
//!    protocol, config field and dataset kind).
//! 2. **Determinism** — reports are bit-identical across shard counts and
//!    exchange transports for *every* scenario (bursty loss, crash waves,
//!    timeline events, mass joins), not just the default one. The committed
//!    `scenarios/flash_crowd_crash_wave.json` is pinned both through the
//!    library and through the `whatsup-sim` CLI.

mod common;

use proptest::prelude::*;
use serde::Json;
use whatsup_sim::scenario::{
    Anchor, ChurnModel, DatasetKind, DatasetRecipe, Environment, Event, LossModel, Measurement,
    Scenario, TimedEvent, WindowSpec, Workload,
};
use whatsup_sim::{Protocol, Runner, ScenarioFile, SimConfig, SimReport};

const COMMITTED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/flash_crowd_crash_wave.json"
);

fn committed_file() -> ScenarioFile {
    let text = std::fs::read_to_string(COMMITTED).expect("committed scenario file");
    ScenarioFile::from_json_str(&text).expect("committed scenario parses")
}

// ---------------------------------------------------------------------------
// Serde round-trips over the whole grammar
// ---------------------------------------------------------------------------

fn workload_from(sel: u8, at: u32, frac: f64, span: u32) -> Workload {
    match sel {
        0 => Workload::Uniform,
        1 => Workload::FlashCrowd {
            at,
            fraction: frac.clamp(0.05, 1.0),
        },
        2 => Workload::Diurnal {
            period: span.max(1),
            amplitude: frac.min(1.0),
        },
        _ => Workload::TopicHotspot {
            topic: at % 7,
            at,
            span: span.max(1),
        },
    }
}

fn loss_from(sel: u8, p: f64, q: f64, cut: u32) -> LossModel {
    match sel {
        0 => LossModel::Constant { p },
        1 => LossModel::GilbertElliott {
            p_good: p * 0.1,
            p_bad: q,
            good_to_bad: p,
            bad_to_good: q,
        },
        _ => LossModel::Partition {
            from: cut,
            until: cut + 5,
            frontier: p.clamp(0.01, 0.99),
        },
    }
}

fn churn_from(sel: u8, p: f64, at: u32) -> ChurnModel {
    match sel {
        0 => ChurnModel::None,
        1 => ChurnModel::Uniform { per_cycle: p },
        2 => ChurnModel::CrashWave { at, fraction: p },
        _ => ChurnModel::MassJoin { at, count: at % 9 },
    }
}

fn event_from(sel: u8, at: u32, a: u32, b: u32) -> TimedEvent {
    let event = match sel {
        0 => Event::JoinClone { reference: a },
        1 => Event::SwapInterests { a, b },
        _ => Event::ResetNode { node: a },
    };
    TimedEvent { at, event }
}

fn measurement_from(i: usize, sel: u8, a: u32, b: u32) -> Measurement {
    let anchor = match sel {
        0 => Anchor::Cycle { at: a },
        1 => Anchor::CrashWave,
        2 => Anchor::MassJoin,
        3 => Anchor::FlashCrowd,
        4 => Anchor::PartitionStart,
        5 => Anchor::PartitionEnd,
        _ => Anchor::Event {
            index: a as usize % 7,
        },
    };
    let window = if sel.is_multiple_of(2) {
        WindowSpec::Cycles {
            from: a,
            until: a + b.max(1),
        }
    } else {
        WindowSpec::Recovery {
            anchor,
            baseline: b.max(1),
        }
    };
    Measurement {
        name: format!("window_{i}"),
        window,
    }
}

/// Every protocol kind, at one knob value.
fn protocols(knob: usize) -> [Protocol; 11] {
    [
        Protocol::WhatsUp { f_like: knob },
        Protocol::WhatsUpCos { f_like: knob },
        Protocol::CfWup { k: knob },
        Protocol::CfCos { k: knob },
        Protocol::Gossip { fanout: knob },
        Protocol::Cascade,
        Protocol::CPubSub,
        Protocol::CWhatsUp { f_like: knob },
        Protocol::NoAmplification { fanout: knob },
        Protocol::NoOrientation { f_like: knob },
        Protocol::AntiEntropy { fanout: knob },
    ]
}

const DATASET_KINDS: [DatasetKind; 3] = [
    DatasetKind::Survey,
    DatasetKind::Digg,
    DatasetKind::Synthetic,
];

/// A config setting every field; bit `i` of `mask` makes the `i`-th
/// `Option` field `Some`.
fn config_from(
    (cycles, publish_from, measure_from, down_cycles): (u32, u32, u32, u32),
    (seed, bootstrap_degree, shards, datagram_budget): (u64, usize, usize, usize),
    (loss, churn_per_cycle, phi_threshold, obfuscation): (f64, f64, f64, f64),
    (mask, profile_window, ttl, wup_view): (u8, u32, u8, usize),
) -> SimConfig {
    let some = |bit: u8| mask & (1 << bit) != 0;
    SimConfig {
        cycles,
        publish_from,
        measure_from,
        loss,
        seed,
        bootstrap_degree,
        profile_window: some(0).then_some(profile_window),
        ttl_override: some(1).then_some(ttl),
        wup_view_override: some(2).then_some(wup_view),
        obfuscation: some(3).then_some(obfuscation),
        churn_per_cycle,
        shards,
        datagram_budget,
        phi_threshold,
        down_cycles,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any scenario file the grammar can express — all 11 protocol kinds,
    /// all 3 dataset kinds, every config field with each `Option` both
    /// `Some` and `None` — survives JSON round-trips, in both the pretty
    /// and the compact rendering (integers up to 2^53 included).
    #[test]
    fn scenario_grammar_round_trips(
        w in (0u8..4, 1u32..60, 0.05f64..1.0, 1u32..40),
        l in (0u8..3, 0.0f64..1.0, 0.0f64..1.0, 1u32..50),
        c in (0u8..4, 0.0f64..1.0, 1u32..60),
        evs in prop::collection::vec((0u8..3, 0u32..64, 0u32..30), 0..6),
        ms in prop::collection::vec((0u8..7, 0u32..60, 1u32..20), 0..4),
        knob in 0usize..64,
        recipe in (0.01f64..2.0, 0u64..(1 << 53) + 1),
        cfg_ints in (
            (1u32..500, 0u32..500, 0u32..500, 0u32..50),
            (0u64..(1 << 53) + 1, 0usize..64, 0usize..16, 0usize..65_536),
        ),
        cfg_rest in (
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..8.0, 0.0f64..1.0),
            (0u8..16, 0u32..100, 0u8..255, 0usize..100),
        ),
    ) {
        let scenario = Scenario {
            workload: workload_from(w.0, w.1, w.2, w.3),
            environment: Environment {
                loss: loss_from(l.0, l.1, l.2, l.3),
                churn: churn_from(c.0, c.1, c.2),
            },
            events: evs
                .into_iter()
                .map(|(sel, at, a)| event_from(sel, at, a, a + 1))
                .collect(),
            measurements: ms
                .into_iter()
                .enumerate()
                .map(|(i, (sel, a, b))| measurement_from(i, sel, a, b))
                .collect(),
        };
        let config = config_from(cfg_ints.0, cfg_ints.1, cfg_rest.0, cfg_rest.1);
        for (i, protocol) in protocols(knob).into_iter().enumerate() {
            let file = ScenarioFile {
                dataset: DatasetRecipe {
                    kind: DATASET_KINDS[i % 3],
                    scale: recipe.0,
                    seed: recipe.1,
                },
                protocol,
                config: config.clone(),
                scenario: scenario.clone(),
            };
            let json = file.to_json();
            for text in [json.pretty(), json.to_string()] {
                let value = serde::json::parse(&text).expect("rendering parses");
                prop_assert_eq!(&ScenarioFile::from_json(&value).expect("decodes"), &file);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism across shard counts and transports, per scenario
// ---------------------------------------------------------------------------

/// The committed showcase scenario: flash-crowd burst + Gilbert–Elliott
/// loss + correlated crash wave + join/swap/reset timeline — one report,
/// every shard count, every transport.
#[test]
fn committed_scenario_is_bit_identical_across_shards_and_transports() {
    let file = committed_file();
    let dataset = file.dataset.build();
    let run_with = |shards: usize| -> SimReport {
        Runner::new(&dataset, file.protocol)
            .config(file.config.clone())
            .scenario(file.scenario.clone())
            .shards(shards)
            .run()
    };
    let reference = run_with(1);
    assert_eq!(
        reference.n_nodes,
        dataset.n_users() + 1,
        "the join_clone event must grow the population"
    );
    // The committed file declares measurement windows: the report must
    // carry the full per-cycle series and a non-empty recovery table.
    assert_eq!(reference.series.len(), reference.cycles as usize);
    assert_eq!(reference.windows.len(), 2);
    let recovery = reference
        .windows
        .iter()
        .find_map(|w| w.recovery)
        .expect("the crash-wave window must carry recovery metrics");
    assert_eq!(recovery.anchor, 8, "anchored to the crash wave");
    assert!(recovery.baseline_recall > 0.0);
    for shards in [2, 4] {
        let sharded = run_with(shards);
        assert_eq!(
            reference.series, sharded.series,
            "{shards} shards diverged on the time series"
        );
        assert_eq!(
            reference.windows, sharded.windows,
            "{shards} shards diverged on the windowed aggregates"
        );
        assert_eq!(reference, sharded, "{shards} shards diverged");
    }
    let worker = std::path::Path::new(env!("CARGO_BIN_EXE_sim-shard-worker"));
    let multiprocess = Runner::new(&dataset, file.protocol)
        .config(file.config.clone())
        .scenario(file.scenario.clone())
        .shards(2)
        .multiprocess(worker)
        .try_run()
        .expect("worker processes run");
    assert_eq!(
        reference, multiprocess,
        "multiprocess transport diverged from in-process"
    );
    let (w1, a1) = common::spawn_listen_worker();
    let (w2, a2) = common::spawn_listen_worker();
    let socket = Runner::new(&dataset, file.protocol)
        .config(file.config.clone())
        .scenario(file.scenario.clone())
        .socket([a1, a2])
        .try_run()
        .expect("socket workers run");
    assert_eq!(
        reference, socket,
        "loopback-socket transport diverged from in-process"
    );
    common::assert_clean_exit(w1, "worker 1");
    common::assert_clean_exit(w2, "worker 2");
}

/// The same pin through the CLI: `whatsup-sim run` output is byte-identical
/// across `--shards` values and transports, and `check` accepts it.
#[test]
fn cli_runs_the_committed_scenario_identically() {
    let cli = env!("CARGO_BIN_EXE_whatsup-sim");
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    let run_cli = |extra: &[&str]| -> Vec<u8> {
        let out = std::process::Command::new(cli)
            .arg("run")
            .arg(COMMITTED)
            .args(extra)
            .output()
            .expect("spawn whatsup-sim");
        assert!(
            out.status.success(),
            "whatsup-sim failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let reference = run_cli(&[]);
    assert!(!reference.is_empty());
    for shards in ["2", "4"] {
        assert_eq!(
            reference,
            run_cli(&["--shards", shards]),
            "--shards {shards} changed the report"
        );
    }
    assert_eq!(
        reference,
        run_cli(&["--shards", "2", "--multiprocess", worker]),
        "multiprocess CLI run changed the report"
    );
    let (w1, a1) = common::spawn_listen_worker();
    let (w2, a2) = common::spawn_listen_worker();
    assert_eq!(
        reference,
        run_cli(&["--transport", "socket", "--workers", &format!("{a1},{a2}")]),
        "socket CLI run changed the report"
    );
    common::assert_clean_exit(w1, "worker 1");
    common::assert_clean_exit(w2, "worker 2");

    // `check` accepts what `run --out` writes.
    let dir = std::env::temp_dir().join("whatsup_sim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    let out = std::process::Command::new(cli)
        .args(["run", COMMITTED, "--out"])
        .arg(&report_path)
        .output()
        .expect("spawn whatsup-sim");
    assert!(out.status.success());
    let out = std::process::Command::new(cli)
        .args(["check", "--require-recovery"])
        .arg(&report_path)
        .output()
        .expect("spawn whatsup-sim check");
    assert!(
        out.status.success(),
        "check rejected the report: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A tampered schema version is rejected with a clean error.
    let text = std::fs::read_to_string(&report_path).unwrap();
    let skewed = dir.join("skewed.json");
    std::fs::write(
        &skewed,
        text.replace("\"schema_version\": 1", "\"schema_version\": 99"),
    )
    .unwrap();
    let out = std::process::Command::new(cli)
        .arg("check")
        .arg(&skewed)
        .output()
        .expect("spawn whatsup-sim check");
    assert!(!out.status.success(), "unknown schema version must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema_version 99"),
        "error must name the version: {stderr}"
    );

    // A ragged series fails `render` as it fails `check`: one line naming
    // the column, exit 1.
    let shortened = text.replacen("\"hits\": [\n      0,\n", "\"hits\": [\n", 1);
    assert_ne!(shortened, text, "fixture drifted: the first cycle has hits");
    let ragged = dir.join("ragged.json");
    std::fs::write(&ragged, shortened).unwrap();
    for command in ["check", "render"] {
        let out = std::process::Command::new(cli)
            .arg(command)
            .arg(&ragged)
            .output()
            .expect("spawn whatsup-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
        assert!(stderr.contains("series.hits: 13 entries"), "{stderr}");
        assert!(out.stdout.is_empty(), "{command} printed a ragged report");
    }

    // So is a scenario whose protocol no engine can run: the committed
    // file with anti-entropy at fanout 0 is one line and exit 1, not the
    // engine's assertion.
    let committed = std::fs::read_to_string(COMMITTED).unwrap();
    let fanless = dir.join("anti_entropy_fanout_0.json");
    let swapped = committed.replace(
        r#"{"kind": "whatsup", "f_like": 4}"#,
        r#"{"kind": "anti_entropy", "fanout": 0}"#,
    );
    assert_ne!(swapped, committed);
    std::fs::write(&fanless, swapped).unwrap();
    let out = std::process::Command::new(cli)
        .arg("run")
        .arg(&fanless)
        .output()
        .expect("spawn whatsup-sim run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("fanout ≥ 1"), "{stderr}");

    // The sweep subcommand emits one row per grid cell through the same
    // Runner path; cells differing only in shard count are identical.
    let out = std::process::Command::new(cli)
        .args(["sweep", COMMITTED, "--shards", "1,4", "--fanouts", "4"])
        .output()
        .expect("spawn whatsup-sim sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(rows.len(), 2, "one row per (shards, fanout) cell");
    let strip = |row: &str| {
        row.replacen("\"shards\": 1", "", 1)
            .replacen("\"shards\": 4", "", 1)
    };
    assert_eq!(
        strip(rows[0]),
        strip(rows[1]),
        "shard count leaked into a sweep report"
    );
}

/// On the socket transport the worker count *is* the shard count: the
/// one-line run summary on stderr must say so, whatever `shards` the
/// scenario file configures (the committed file says 1).
#[test]
fn cli_socket_summary_counts_one_shard_per_worker() {
    let (w1, a1) = common::spawn_listen_worker();
    let (w2, a2) = common::spawn_listen_worker();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_whatsup-sim"))
        .args(["run", COMMITTED, "--transport", "socket", "--workers"])
        .arg(format!("{a1},{a2}"))
        .output()
        .expect("spawn whatsup-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "whatsup-sim failed: {stderr}");
    common::assert_clean_exit(w1, "worker 1");
    common::assert_clean_exit(w2, "worker 2");
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("run: "))
        .unwrap_or_else(|| panic!("no run summary on stderr: {stderr}"));
    assert!(
        summary.contains(" 2 shard(s) with ["),
        "the summary must count the two socket workers: {summary}"
    );
    let counts = summary
        .rsplit_once('[')
        .unwrap()
        .1
        .trim_end_matches(" nodes");
    assert_eq!(
        counts.split(", ").count(),
        2,
        "one node count per worker: {summary}"
    );
}

/// A denser composite than the committed file — diurnal workload, timed
/// partition, mass join plus every event type — stays bit-identical across
/// shard counts.
#[test]
fn composite_scenario_is_bit_identical_across_shard_counts() {
    let dataset = whatsup_datasets::survey::generate(
        &whatsup_datasets::SurveyConfig::paper().scaled(0.1),
        23,
    );
    let cfg = SimConfig {
        cycles: 16,
        publish_from: 2,
        measure_from: 6,
        ..Default::default()
    };
    let scenario = Scenario {
        workload: Workload::Diurnal {
            period: 8,
            amplitude: 0.8,
        },
        environment: Environment {
            loss: LossModel::Partition {
                from: 7,
                until: 10,
                frontier: 0.4,
            },
            churn: ChurnModel::MassJoin { at: 5, count: 3 },
        },
        events: vec![
            TimedEvent {
                at: 4,
                event: Event::JoinClone { reference: 1 },
            },
            TimedEvent {
                at: 6,
                event: Event::SwapInterests { a: 0, b: 2 },
            },
            TimedEvent {
                at: 9,
                event: Event::ResetNode { node: 4 },
            },
        ],
        measurements: vec![
            Measurement {
                name: "partition_heal".into(),
                window: WindowSpec::Recovery {
                    anchor: Anchor::PartitionEnd,
                    baseline: 4,
                },
            },
            Measurement {
                name: "mass_join_window".into(),
                window: WindowSpec::Cycles { from: 5, until: 9 },
            },
        ],
    };
    let run_with = |shards: usize| {
        Runner::new(&dataset, Protocol::WhatsUp { f_like: 4 })
            .config(cfg.clone())
            .scenario(scenario.clone())
            .shards(shards)
            .run()
    };
    let reference = run_with(1);
    assert_eq!(
        reference.n_nodes,
        dataset.n_users() + 4,
        "3 mass + 1 event join"
    );
    assert_eq!(reference.windows.len(), 2);
    assert_eq!(
        reference.windows[0].from, 10,
        "recovery window anchored to the partition healing"
    );
    // The mass join at cycle 5 is visible in the series' population track.
    let live = |c: u32| reference.series.get(c).unwrap().live_nodes;
    assert_eq!(live(5), live(4) + 3);
    for shards in [2, 3] {
        assert_eq!(reference, run_with(shards), "{shards} shards diverged");
    }
}

/// Gilbert–Elliott loss with a harsh Bad state must hurt recall relative
/// to a lossless run — the model has to actually drop messages.
#[test]
fn bursty_loss_degrades_recall() {
    let dataset = whatsup_datasets::survey::generate(
        &whatsup_datasets::SurveyConfig::paper().scaled(0.1),
        31,
    );
    let cfg = SimConfig {
        cycles: 16,
        publish_from: 2,
        measure_from: 6,
        ..Default::default()
    };
    let clean = Runner::new(&dataset, Protocol::WhatsUp { f_like: 4 })
        .config(cfg.clone())
        .run();
    let bursty = Runner::new(&dataset, Protocol::WhatsUp { f_like: 4 })
        .config(cfg)
        .scenario(Scenario::default().with_environment(Environment {
            loss: LossModel::GilbertElliott {
                p_good: 0.02,
                p_bad: 0.8,
                good_to_bad: 0.3,
                bad_to_good: 0.3,
            },
            churn: ChurnModel::None,
        }))
        .run();
    assert!(
        bursty.scores().recall < clean.scores().recall,
        "bursty loss must hurt recall: clean {:?} bursty {:?}",
        clean.scores(),
        bursty.scores()
    );
}

/// The legacy knobs and the explicit legacy scenario are the same run.
#[test]
fn legacy_config_knobs_equal_explicit_scenario() {
    let dataset = whatsup_datasets::survey::generate(
        &whatsup_datasets::SurveyConfig::paper().scaled(0.08),
        9,
    );
    let cfg = SimConfig {
        cycles: 12,
        publish_from: 2,
        measure_from: 5,
        loss: 0.15,
        churn_per_cycle: 0.03,
        ..Default::default()
    };
    let implicit = Runner::new(&dataset, Protocol::WhatsUp { f_like: 4 })
        .config(cfg.clone())
        .run();
    let explicit = Runner::new(&dataset, Protocol::WhatsUp { f_like: 4 })
        .config(cfg.clone())
        .scenario(Scenario::from_config(&cfg))
        .run();
    assert_eq!(implicit, explicit);
}
