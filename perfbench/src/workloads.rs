//! The six workloads: what each simulates, how it executes, and why it
//! exists. Sizes were set once, by the dataset factors below only, so
//! that a single-shard repetition takes 2–2.5 s on the builder's box in a
//! quiet period (README, "Sizing rule"), then frozen.

use whatsup_datasets::{survey, Dataset, SurveyConfig};
use whatsup_sim::scenario::Scenario;
use whatsup_sim::{Protocol, Runner, ScenarioFile, SimConfig, SimReport, Simulation};

/// How the engine executes a workload's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Sharded engine, in-process: `shards == 1` runs inline, more run as
    /// scoped threads trading bundles over channels.
    InProcess { shards: usize },
    /// Sharded engine over `Transport::Process`: `sim-shard-worker`
    /// children on stdio pipes.
    Pipe { shards: usize },
    /// The anti-entropy engine (its own single-process loop).
    AntiEntropy,
}

impl Exec {
    /// Whether `BENCHMARK.json` lists a workload that executes this way,
    /// i.e. whether the driver judges changes by it: only runs that keep
    /// one thread of the sharded engine busy. On the 2-vCPU shared box
    /// this was built on, a lockstep of two threads or processes (their
    /// channels spin before they park, so waiting is CPU time too) and
    /// the O(n²), pointer-chasing anti-entropy engine differ by 0.25–0.32
    /// of their median between runs of one binary, beyond the largest
    /// bound the driver accepts (README, "Noise"). Those workloads are
    /// measured, checked and traced by every other command.
    pub fn listed(self) -> bool {
        self == Exec::InProcess { shards: 1 }
    }

    pub fn shards(self) -> usize {
        match self {
            Exec::InProcess { shards } | Exec::Pipe { shards } => shards,
            Exec::AntiEntropy => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    pub exec: Exec,
    /// The workload whose report this one's must equal bit for bit.
    pub same_report_as: Option<&'static str>,
    /// One repetition's wall time on the builder's box in a quiet period;
    /// ten times this is the repetition's timeout.
    pub expected_rep_s: f64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper-1shard",
        why: "the paper's regime: few nodes, deep 13-cycle profiles, time in the publish BFS; no byte crosses the codec",
        exec: Exec::InProcess { shards: 1 },
        same_report_as: None,
        expected_rep_s: 2.4,
    },
    Workload {
        name: "scale-1shard",
        why: "the scale_engine regime: more nodes, few items, shallow profiles, gossip and shard loops weigh in; baseline of the next two",
        exec: Exec::InProcess { shards: 1 },
        same_report_as: None,
        expected_rep_s: 2.4,
    },
    Workload {
        name: "scale-2shard",
        why: "same input on 2 in-process shards: bundle encode/decode, codec, channel round-trips and barrier wait all run",
        exec: Exec::InProcess { shards: 2 },
        same_report_as: Some("scale-1shard"),
        expected_rep_s: 10.0,
    },
    Workload {
        name: "scale-pipe",
        why: "same input on 2 sim-shard-worker children: adds command/reply codec, stream framing, pipe I/O, spawn and handshake",
        exec: Exec::Pipe { shards: 2 },
        same_report_as: Some("scale-1shard"),
        expected_rep_s: 13.0,
    },
    Workload {
        name: "stress-1shard",
        why: "scenario grammar from a file: flash crowd, bursty loss, crash wave, events, windows; guards the lossy, churny path",
        exec: Exec::InProcess { shards: 1 },
        same_report_as: None,
        expected_rep_s: 2.1,
    },
    Workload {
        name: "antientropy",
        why: "the separate anti-entropy engine: every sharded-engine change predicts no change here",
        exec: Exec::AntiEntropy,
        same_report_as: None,
        expected_rep_s: 2.1,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists (see [`Exec::listed`]).
pub fn listed() -> Vec<Workload> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| w.exec.listed())
        .collect()
}

pub fn names() -> String {
    WORKLOADS.map(|w| w.name).join(", ")
}

// The frozen size factors (see the module docs).
const PAPER_SCALE: f64 = 0.47;
const SCALE_BASE_USERS: usize = 200;
const SCALE_BASE_ITEMS: usize = 20;
const ANTIENTROPY_SCALE: f64 = 0.55;

/// The dataset generator's seed, the same for every workload and every
/// `--seed`: the population is part of the workload's definition. The
/// survey generator draws ~100 base users, so its like rate — hence
/// messages, F1 and host time — swings ±10 % with this seed, which would
/// drown every bound; `--seed` drives `SimConfig::seed` instead.
const POPULATION_SEED: u64 = 7;

/// `stress-1shard`'s scenario file: the committed
/// `scenarios/flash_crowd_crash_wave.json` semantics stretched to 30
/// cycles on a larger population. The file's dataset seed is replaced by
/// [`POPULATION_SEED`], its config seed by `--seed`.
const STRESS_SCENARIO: &str = include_str!("../scenarios/stress.json");

/// One workload's generated inputs — all the simulator ever receives.
pub struct Inputs {
    pub dataset: Dataset,
    pub protocol: Protocol,
    pub cfg: SimConfig,
    pub scenario: Option<Scenario>,
}

/// Generates `workload`'s inputs. `seed` becomes `SimConfig::seed` —
/// bootstrap contacts, every partner choice, BEEP target draw, loss and
/// churn coin; the population comes from [`POPULATION_SEED`].
pub fn generate(workload: &Workload, seed: u64) -> Result<Inputs, String> {
    let shards = workload.exec.shards();
    let inputs = match workload.name {
        "paper-1shard" => Inputs {
            dataset: survey::generate(&SurveyConfig::paper().scaled(PAPER_SCALE), POPULATION_SEED),
            protocol: Protocol::WhatsUp { f_like: 10 },
            cfg: SimConfig {
                cycles: 40,
                publish_from: 3,
                measure_from: 13,
                seed,
                shards,
                ..SimConfig::default()
            },
            scenario: None,
        },
        "scale-1shard" | "scale-2shard" | "scale-pipe" => Inputs {
            dataset: survey::generate(
                &SurveyConfig {
                    base_users: SCALE_BASE_USERS,
                    base_items: SCALE_BASE_ITEMS,
                    ..SurveyConfig::paper()
                },
                POPULATION_SEED,
            ),
            protocol: Protocol::WhatsUp { f_like: 12 },
            cfg: SimConfig {
                cycles: 30,
                publish_from: 4,
                measure_from: 14,
                seed,
                shards,
                ..SimConfig::default()
            },
            scenario: None,
        },
        "stress-1shard" => {
            let mut file = ScenarioFile::from_json_str(STRESS_SCENARIO)
                .map_err(|e| format!("scenarios/stress.json: {e}"))?;
            file.dataset.seed = POPULATION_SEED;
            file.config.seed = seed;
            file.config.shards = shards;
            Inputs {
                dataset: file.dataset.build(),
                protocol: file.protocol,
                cfg: file.config,
                scenario: Some(file.scenario),
            }
        }
        "antientropy" => Inputs {
            dataset: survey::generate(
                &SurveyConfig::paper().scaled(ANTIENTROPY_SCALE),
                POPULATION_SEED,
            ),
            protocol: Protocol::AntiEntropy { fanout: 3 },
            cfg: SimConfig {
                cycles: 30,
                publish_from: 3,
                measure_from: 10,
                seed,
                shards,
                ..SimConfig::default()
            },
            scenario: None,
        },
        other => return Err(format!("unknown workload '{other}' (known: {})", names())),
    };
    Ok(inputs)
}

impl Inputs {
    /// The `Runner` every execution path starts from.
    pub fn runner(&self) -> Runner<'_> {
        let runner = Runner::new(&self.dataset, self.protocol).config(self.cfg.clone());
        match &self.scenario {
            Some(scenario) => runner.scenario(scenario.clone()),
            None => runner,
        }
    }

    /// Builds the steppable in-process simulation (sharded-engine
    /// workloads only).
    pub fn build(&self) -> Simulation {
        self.runner().build()
    }
}

/// FNV-1a over the report's `Debug` rendering: every field, floats in
/// shortest round-trip form, so equal digests mean bit-identical reports.
pub fn report_digest(report: &SimReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
