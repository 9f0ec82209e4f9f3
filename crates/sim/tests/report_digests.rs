//! Cross-commit byte identity for every engine: one FNV-1a digest of the
//! `Debug` rendering of the report per engine, under the richest scenario
//! the engine accepts. The constants were recorded at the commit *before*
//! the environment/ledger extraction, so they pin that refactor — and any
//! later one — to the bytes the per-engine bookkeeping used to produce. A
//! digest may only change together with a stated behaviour change.

use whatsup_datasets::{digg, Dataset, DiggConfig};
use whatsup_sim::scenario::{
    Anchor, ChurnModel, Environment, Event, LossModel, Measurement, Scenario, TimedEvent,
    WindowSpec, Workload,
};
use whatsup_sim::{Protocol, Runner, SimConfig, SimReport};

fn dataset() -> Dataset {
    digg::generate(&DiggConfig::paper().scaled(0.06), 3)
}

fn cfg() -> SimConfig {
    SimConfig {
        cycles: 14,
        publish_from: 2,
        measure_from: 5,
        seed: 77,
        ..Default::default()
    }
}

const BURST: Workload = Workload::FlashCrowd {
    at: 6,
    fraction: 0.3,
};

/// Everything the per-cycle engines accept: bursty loss, a crash wave,
/// one event of each kind, an explicit and a recovery window.
fn full_scenario() -> Scenario {
    Scenario {
        workload: BURST,
        environment: Environment {
            loss: LossModel::GilbertElliott {
                p_good: 0.02,
                p_bad: 0.45,
                good_to_bad: 0.15,
                bad_to_good: 0.5,
            },
            churn: ChurnModel::CrashWave {
                at: 8,
                fraction: 0.12,
            },
        },
        events: vec![
            TimedEvent {
                at: 6,
                event: Event::JoinClone { reference: 0 },
            },
            TimedEvent {
                at: 7,
                event: Event::SwapInterests { a: 1, b: 2 },
            },
            TimedEvent {
                at: 9,
                event: Event::ResetNode { node: 3 },
            },
        ],
        measurements: vec![
            Measurement {
                name: "burst".into(),
                window: WindowSpec::Cycles { from: 6, until: 8 },
            },
            Measurement {
                name: "recovery".into(),
                window: WindowSpec::Recovery {
                    anchor: Anchor::CrashWave,
                    baseline: 3,
                },
            },
        ],
    }
}

/// What the one-shot engines accept: the workload schedule and constant
/// loss.
fn global_scenario(loss: f64) -> Scenario {
    Scenario::default()
        .with_workload(BURST)
        .with_environment(Environment {
            loss: LossModel::Constant { p: loss },
            churn: ChurnModel::None,
        })
}

fn digest(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn check(name: &str, report: &SimReport, expected: u64) {
    assert!(report.measured_items() > 0, "{name} measured nothing");
    assert_eq!(
        digest(report),
        expected,
        "{name}: report bytes changed (got {:#018x})",
        digest(report)
    );
}

#[test]
fn whatsup_report_bytes_are_pinned_at_one_and_three_shards() {
    let d = dataset();
    for shards in [1, 3] {
        let report = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(SimConfig { shards, ..cfg() })
            .scenario(full_scenario())
            .run();
        assert_eq!(report.windows.len(), 2);
        check(&format!("whatsup/{shards}"), &report, 0x1c1d_3779_d0d4_011b);
    }
}

#[test]
fn anti_entropy_report_bytes_are_pinned() {
    let d = dataset();
    let report = Runner::new(&d, Protocol::AntiEntropy { fanout: 3 })
        .config(cfg())
        .scenario(full_scenario())
        .run();
    assert_eq!(report.windows.len(), 2);
    check("anti-entropy", &report, 0xcdfe_73fa_454f_08c7);
}

#[test]
fn global_engine_report_bytes_are_pinned() {
    let d = dataset();
    // Only cascade reads a loss; the centralized engines refuse one.
    for (protocol, loss, expected) in [
        (Protocol::Cascade, 0.3, 0xea21_30e1_ed20_32e8_u64),
        (Protocol::CPubSub, 0.0, 0x5e2e_94e2_0f5e_79e7),
        (Protocol::CWhatsUp { f_like: 3 }, 0.0, 0x09bc_923a_32b5_b37f),
    ] {
        // C-Pub/Sub draws no random number, and refuses a seed.
        let seed = match protocol {
            Protocol::CPubSub => SimConfig::default().seed,
            _ => cfg().seed,
        };
        let report = Runner::new(&d, protocol)
            .config(SimConfig { seed, ..cfg() })
            .scenario(global_scenario(loss))
            .run();
        check(&protocol.label(), &report, expected);
    }
}
