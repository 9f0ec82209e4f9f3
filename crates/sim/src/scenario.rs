//! The scenario layer: one typed, serializable description of a workload.
//!
//! The paper evaluates WHATSUP under fanout sweeps, message loss, churn and
//! joining/switching nodes (§V-C–§V-E); real news systems add flash crowds,
//! diurnal publication waves and correlated failures on top. A [`Scenario`]
//! captures all of those as data:
//!
//! * [`Workload`] — when the dataset's items are published (uniform spread,
//!   flash-crowd burst, diurnal wave, topic-skewed hotspot);
//! * [`Environment`] — the network the run happens in: a [`LossModel`]
//!   (constant, bursty Gilbert–Elliott, timed partition window) and a
//!   [`ChurnModel`] (uniform per-cycle, correlated crash wave, mass join);
//! * `events` — a cycle-stamped timeline of typed [`Event`]s (join a clone,
//!   swap interests, reset a node) replacing hand-written choreography;
//! * `measurements` — named measurement windows ([`Measurement`]) over the
//!   run's per-cycle series: explicit cycle ranges, or recovery windows
//!   anchored to the scenario's own events ("from the crash wave firing
//!   until recall recovers to the pre-event baseline"), rendered into the
//!   report as window-scoped aggregates plus dip-depth/time-to-recover/
//!   messages-spent recovery metrics.
//!
//! Scenarios are applied at phase boundaries inside the sharded engine (see
//! `crate::engine`), so the determinism contract — reports bit-identical
//! across shard counts and exchange transports — holds for **every**
//! scenario, not just the default one. [`crate::Runner`] is the entry point
//! that takes one.
//!
//! # JSON schema
//!
//! Scenarios round-trip through JSON ([`serde::Json`]). Each type declares
//! its JSON form once, in the `serde::json_codec!` block next to it: that
//! block is the one place the schema lives, and both the encoder and the
//! decoder are generated from it. Every enum is a tagged object with a
//! `"kind"` discriminator.
//!
//! Files are strict JSON: quoted keys, one comma between members, no
//! trailing commas, nesting at most 128 deep. An integer field accepts a
//! number only if it is whole, non-negative, at most 2^53 and in range for
//! its type; anything else — like a missing required field, an unknown
//! `"kind"` or a key the schema does not declare (`"cycels"`) — is an error
//! naming the field's path (`scenario.events[2].at`, `config.cycels`).
//!
//! ```json
//! {
//!   "workload":
//!     {"kind": "uniform"}
//!     | {"kind": "flash_crowd", "at": 6, "fraction": 0.3}
//!     | {"kind": "diurnal", "period": 12, "amplitude": 0.8}
//!     | {"kind": "topic_hotspot", "topic": 2, "at": 6, "span": 3},
//!   "environment": {
//!     "loss":
//!       {"kind": "constant", "p": 0.1}
//!       | {"kind": "gilbert_elliott", "p_good": 0.02, "p_bad": 0.4,
//!          "good_to_bad": 0.15, "bad_to_good": 0.5}
//!       | {"kind": "partition", "from": 5, "until": 9, "frontier": 0.5},
//!     "churn":
//!       {"kind": "none"}
//!       | {"kind": "uniform", "per_cycle": 0.02}
//!       | {"kind": "crash_wave", "at": 8, "fraction": 0.15}
//!       | {"kind": "mass_join", "at": 8, "count": 5}
//!   },
//!   "events": [
//!     {"at": 6, "kind": "join_clone", "reference": 0},
//!     {"at": 7, "kind": "swap_interests", "a": 1, "b": 2},
//!     {"at": 9, "kind": "reset_node", "node": 3}
//!   ],
//!   "measurements": [
//!     {"name": "steady_state", "kind": "cycles", "from": 5, "until": 8},
//!     {"name": "crash_recovery", "kind": "recovery",
//!      "anchor": {"kind": "crash_wave"}, "baseline": 3}
//!   ]
//! }
//! ```
//!
//! A measurement is either `"kind": "cycles"` (explicit half-open range
//! `[from, until)`) or `"kind": "recovery"` (from the anchor's cycle until
//! recall recovers to the pooled recall of the `baseline` cycles before
//! it). Anchors name a cycle directly (`{"kind": "cycle", "at": 8}`) or
//! point at the scenario's own events — `"crash_wave"`, `"mass_join"`,
//! `"flash_crowd"`, `"partition_start"`, `"partition_end"`, or
//! `{"kind": "event", "index": k}` for the `k`-th timeline event.
//! Validation rejects anchors the scenario cannot resolve (e.g. a
//! `crash_wave` anchor without a crash-wave churn model) and empty or
//! duplicate window names. Window names are free-form; each becomes one
//! entry of the report's `windows` table.
//!
//! A [`ScenarioFile`] wraps a scenario with everything else a run needs —
//! dataset recipe, protocol and [`SimConfig`] — and is what the
//! `whatsup-sim` CLI executes:
//!
//! ```json
//! {
//!   "dataset": {"kind": "survey" | "digg" | "synthetic",
//!               "scale": 0.08, "seed": 11},
//!   "protocol": {"kind": "whatsup", "f_like": 4},
//!   "config": {"cycles": 14, "publish_from": 2, "measure_from": 5},
//!   "scenario": { ... }
//! }
//! ```
//!
//! `config` accepts any subset of [`SimConfig`]'s fields (missing fields
//! take their defaults).
//!
//! ## Protocol selection
//!
//! `protocol` picks the engine the scenario runs on. The `"kind"` values
//! are: the per-node gossip stack — `"whatsup"`, `"whatsup_cos"`,
//! `"no_amplification"`, `"no_orientation"` (knob `f_like`/`fanout`),
//! `"cf_wup"`, `"cf_cos"` (knob `k`), `"gossip"` (knob `fanout`); the
//! global-knowledge baselines — `"cascade"`, `"c_pub_sub"`, `"c_whatsup"`
//! (no per-cycle events or environment models; scenario validation rejects
//! those combinations); and `"anti_entropy"` (knob `fanout`) — the
//! scuttlebutt digest/delta engine (`crate::engines::antientropy`), which
//! runs under the full scenario grid like the gossip stack and additionally
//! reads the `datagram_budget`, `phi_threshold` and `down_cycles` config
//! fields. The `whatsup-sim run --protocol anti-entropy` flag overrides the
//! file's protocol from the CLI, and `whatsup-sim compare` runs both.

use crate::config::{Protocol, SimConfig};
use serde::json::Error;
use serde::Json;
use whatsup_core::NodeId;
use whatsup_datasets::{digg, survey, synthetic, Dataset};
use whatsup_datasets::{DiggConfig, SurveyConfig, SyntheticConfig};

/// When the dataset's items are published (the x-axis of every epidemic).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Items spread evenly over `[publish_from, cycles)` (the paper's
    /// methodology, and the legacy `SimConfig::schedule`).
    Uniform,
    /// A breaking-news spike: every `⌈1/fraction⌉`-th item publishes at
    /// cycle `at`; the rest keep their uniform slot. The stride selection
    /// approximates the fraction from below (e.g. `0.7` bursts every 2nd
    /// item = 50%); `1.0` bursts everything.
    FlashCrowd { at: u32, fraction: f64 },
    /// A sinusoidal day/night wave: per-cycle publication density follows
    /// `1 + amplitude · sin(2π · (cycle - publish_from) / period)`.
    Diurnal { period: u32, amplitude: f64 },
    /// One topic goes hot: its items publish inside `[at, at + span)`;
    /// items of other topics keep their uniform slot.
    TopicHotspot { topic: u32, at: u32, span: u32 },
}

serde::json_codec! {
    enum Workload {
        "uniform" => Uniform,
        "flash_crowd" => FlashCrowd { at, fraction },
        "diurnal" => Diurnal { period, amplitude },
        "topic_hotspot" => TopicHotspot { topic, at, span },
    }
}

impl Workload {
    /// Publication cycle per item. `topics[i]` is item `i`'s topic (only
    /// [`Workload::TopicHotspot`] reads it). Every returned cycle lies in
    /// `[publish_from, cycles)`; the mapping is a pure function of its
    /// inputs.
    pub fn schedule(&self, cfg: &SimConfig, topics: &[u32]) -> Vec<u32> {
        let n = topics.len();
        let clamp = |c: u32| c.clamp(cfg.publish_from, cfg.cycles.saturating_sub(1));
        let uniform = cfg.schedule(n);
        match *self {
            Workload::Uniform => uniform,
            Workload::FlashCrowd { at, fraction } => {
                let stride = (1.0 / fraction.max(f64::EPSILON)).ceil().max(1.0) as usize;
                let burst = clamp(at);
                uniform
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| if i % stride == 0 { burst } else { c })
                    .collect()
            }
            Workload::Diurnal { period, amplitude } => {
                let span = (cfg.cycles - cfg.publish_from).max(1);
                let weight = |c: u32| {
                    let t = (c - cfg.publish_from) as f64 / period.max(1) as f64;
                    1.0 + amplitude * (std::f64::consts::TAU * t).sin()
                };
                let total: f64 = (0..span).map(|k| weight(cfg.publish_from + k)).sum();
                let mut out = Vec::with_capacity(n);
                let mut cum = 0.0;
                let mut cycle = cfg.publish_from;
                for i in 0..n {
                    // Item i sits at quantile (i + ½)/n of the density.
                    let target = (i as f64 + 0.5) / n as f64 * total;
                    while cycle + 1 < cfg.publish_from + span && cum + weight(cycle) < target {
                        cum += weight(cycle);
                        cycle += 1;
                    }
                    out.push(cycle);
                }
                out
            }
            Workload::TopicHotspot { topic, at, span } => {
                let n_hot = topics.iter().filter(|&&t| t == topic).count().max(1) as u64;
                let mut rank = 0u64;
                uniform
                    .into_iter()
                    .zip(topics)
                    .map(|(c, &t)| {
                        if t == topic {
                            // u64 arithmetic: `at + rank·span/n_hot` cannot
                            // overflow before the clamp into the run window.
                            let slot = (at as u64 + rank * span.max(1) as u64 / n_hot)
                                .min(u32::MAX as u64) as u32;
                            rank += 1;
                            clamp(slot)
                        } else {
                            c
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Per-message loss (paper §V-E generalized). Every model draws its coins
/// from the *receiver's* phase stream (or none at all), so it cannot leak
/// across shard boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-message loss with a fixed probability (the legacy
    /// `SimConfig::loss`).
    Constant { p: f64 },
    /// Bursty loss: each node's inbound channel is a two-state Markov chain
    /// (Good/Bad) advanced once per cycle; messages drop with `p_good` or
    /// `p_bad` depending on the receiver's current state.
    GilbertElliott {
        p_good: f64,
        p_bad: f64,
        /// P(Good → Bad) per cycle.
        good_to_bad: f64,
        /// P(Bad → Good) per cycle.
        bad_to_good: f64,
    },
    /// A timed network split: during `[from, until)` every message crossing
    /// the id-space frontier (`frontier` = fraction of the population in
    /// the lower half) is dropped deterministically.
    Partition {
        from: u32,
        until: u32,
        frontier: f64,
    },
}

serde::json_codec! {
    enum LossModel {
        "constant" => Constant { p },
        "gilbert_elliott" => GilbertElliott { p_good, p_bad, good_to_bad, bad_to_good },
        "partition" => Partition { from, until, frontier },
    }
}

/// Node arrivals and departures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnModel {
    /// A stable population.
    None,
    /// Every cycle each node crashes (and rejoins cold) with this
    /// probability (the legacy `SimConfig::churn_per_cycle`).
    Uniform { per_cycle: f64 },
    /// A correlated failure: at cycle `at`, each node crashes with
    /// probability `fraction` — one burst, then quiet.
    CrashWave { at: u32, fraction: f64 },
    /// `count` fresh nodes join at cycle `at`, each cloning the interests
    /// of a uniformly drawn existing node.
    MassJoin { at: u32, count: u32 },
}

serde::json_codec! {
    enum ChurnModel {
        "none" => None,
        "uniform" => Uniform { per_cycle },
        "crash_wave" => CrashWave { at, fraction },
        "mass_join" => MassJoin { at, count },
    }
}

impl ChurnModel {
    /// The per-node crash probability at `cycle`.
    pub fn crash_rate(&self, cycle: u32) -> f64 {
        match *self {
            ChurnModel::Uniform { per_cycle } => per_cycle,
            ChurnModel::CrashWave { at, fraction } if cycle == at => fraction,
            _ => 0.0,
        }
    }

    /// Number of nodes joining at the start of `cycle`.
    pub fn joins_at(&self, cycle: u32) -> u32 {
        match *self {
            ChurnModel::MassJoin { at, count } if cycle == at => count,
            _ => 0,
        }
    }
}

/// The network conditions of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    pub loss: LossModel,
    pub churn: ChurnModel,
}

serde::json_codec! { struct Environment { loss, churn } }

impl Default for Environment {
    fn default() -> Self {
        Self {
            loss: LossModel::Constant { p: 0.0 },
            churn: ChurnModel::None,
        }
    }
}

/// One typed timeline event (paper §V-C's interactive experiments as data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A node joins with interests cloned from `reference` (cold start from
    /// a random contact's views, §II-D). Joiners take the next free id.
    JoinClone { reference: NodeId },
    /// Nodes `a` and `b` swap their ground-truth interests.
    SwapInterests { a: NodeId, b: NodeId },
    /// `node` crashes and rejoins fresh from a random contact's views.
    ResetNode { node: NodeId },
}

serde::json_codec! {
    enum Event {
        "join_clone" => JoinClone { reference },
        "swap_interests" => SwapInterests { a, b },
        "reset_node" => ResetNode { node },
    }
}

/// An [`Event`] stamped with the cycle it fires at (start of that cycle,
/// before the collect phase; same-cycle events apply in list order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    pub at: u32,
    pub event: Event,
}

serde::json_codec! { struct TimedEvent { at, event: flatten } }

/// Where a recovery measurement window is anchored: either an explicit
/// cycle, or one of the scenario's own events — so the window follows the
/// event when the scenario is tuned, instead of drifting out of sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// An explicit cycle.
    Cycle { at: u32 },
    /// The environment's [`ChurnModel::CrashWave`] firing cycle.
    CrashWave,
    /// The environment's [`ChurnModel::MassJoin`] arrival cycle.
    MassJoin,
    /// The workload's [`Workload::FlashCrowd`] burst cycle.
    FlashCrowd,
    /// The cycle the [`LossModel::Partition`] window opens.
    PartitionStart,
    /// The cycle the [`LossModel::Partition`] window closes (heals).
    PartitionEnd,
    /// The `index`-th timeline event's cycle (list order).
    Event { index: usize },
}

serde::json_codec! {
    enum Anchor {
        "cycle" => Cycle { at },
        "crash_wave" => CrashWave,
        "mass_join" => MassJoin,
        "flash_crowd" => FlashCrowd,
        "partition_start" => PartitionStart,
        "partition_end" => PartitionEnd,
        "event" => Event { index },
    }
}

impl Anchor {
    /// The cycle this anchor names in `scenario`, or `None` when the
    /// scenario has no such event (validation rejects those).
    pub fn resolve(&self, scenario: &Scenario) -> Option<u32> {
        match *self {
            Anchor::Cycle { at } => Some(at),
            Anchor::CrashWave => match scenario.environment.churn {
                ChurnModel::CrashWave { at, .. } => Some(at),
                _ => None,
            },
            Anchor::MassJoin => match scenario.environment.churn {
                ChurnModel::MassJoin { at, .. } => Some(at),
                _ => None,
            },
            Anchor::FlashCrowd => match scenario.workload {
                Workload::FlashCrowd { at, .. } => Some(at),
                _ => None,
            },
            Anchor::PartitionStart => match scenario.environment.loss {
                LossModel::Partition { from, .. } => Some(from),
                _ => None,
            },
            Anchor::PartitionEnd => match scenario.environment.loss {
                LossModel::Partition { until, .. } => Some(until),
                _ => None,
            },
            Anchor::Event { index } => scenario.events.get(index).map(|e| e.at),
        }
    }

    fn describe(&self) -> &'static str {
        match self {
            Anchor::Cycle { .. } => "cycle",
            Anchor::CrashWave => "crash_wave (scenario has no crash wave)",
            Anchor::MassJoin => "mass_join (scenario has no mass join)",
            Anchor::FlashCrowd => "flash_crowd (workload has no flash crowd)",
            Anchor::PartitionStart | Anchor::PartitionEnd => {
                "partition (loss model has no partition window)"
            }
            Anchor::Event { .. } => "event (index out of range)",
        }
    }
}

/// The cycle span one measurement covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// An explicit half-open cycle range `[from, until)`.
    Cycles { from: u32, until: u32 },
    /// From the anchor's cycle until recall recovers to the pre-event
    /// baseline (the pooled recall of the `baseline` cycles before the
    /// anchor), or the end of the run if it never does. Yields the derived
    /// recovery metrics (dip depth, time-to-recover, messages spent).
    Recovery { anchor: Anchor, baseline: u32 },
}

serde::json_codec! {
    enum WindowSpec {
        "cycles" => Cycles { from, until },
        "recovery" => Recovery { anchor, baseline },
    }
}

/// One named measurement window, rendered into the report as a
/// `crate::record::WindowReport` (window-scoped IR aggregate + traffic,
/// plus recovery metrics for [`WindowSpec::Recovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    pub name: String,
    pub window: WindowSpec,
}

serde::json_codec! { struct Measurement { name, window: flatten } }

/// Upper bound on one mass-join burst — a capacity guard, far above any
/// plausible experiment, so a typo'd scenario file cannot ask the engine to
/// allocate millions of nodes.
pub const MAX_MASS_JOIN: usize = 100_000;

/// A complete workload description: what publishes when, under which
/// network conditions, with which choreographed population changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub workload: Workload,
    pub environment: Environment,
    pub events: Vec<TimedEvent>,
    /// Named measurement windows rendered into the report (empty = only
    /// the whole-run aggregates).
    pub measurements: Vec<Measurement>,
}

serde::json_codec! {
    struct Scenario { workload, environment, events: default, measurements: default }
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            workload: Workload::Uniform,
            environment: Environment::default(),
            events: Vec::new(),
            measurements: Vec::new(),
        }
    }
}

impl Scenario {
    /// The legacy scenario a bare [`SimConfig`] describes: uniform
    /// publications, constant loss, uniform churn, no events. Runs built
    /// from it are bit-identical to the pre-scenario engine.
    pub fn from_config(cfg: &SimConfig) -> Self {
        Self {
            workload: Workload::Uniform,
            environment: Environment {
                loss: LossModel::Constant { p: cfg.loss },
                churn: if cfg.churn_per_cycle > 0.0 {
                    ChurnModel::Uniform {
                        per_cycle: cfg.churn_per_cycle,
                    }
                } else {
                    ChurnModel::None
                },
            },
            events: Vec::new(),
            measurements: Vec::new(),
        }
    }

    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    pub fn with_environment(mut self, environment: Environment) -> Self {
        self.environment = environment;
        self
    }

    pub fn with_events(mut self, events: Vec<TimedEvent>) -> Self {
        self.events = events;
        self
    }

    pub fn with_measurements(mut self, measurements: Vec<Measurement>) -> Self {
        self.measurements = measurements;
        self
    }

    /// Checks every model parameter against `cfg`'s run shape.
    pub fn validate(&self, cfg: &SimConfig) -> Result<(), String> {
        let prob = |p: f64, what: &str| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{what} must be a probability, got {p}"))
            }
        };
        let in_run = |at: u32, what: &str| {
            if at < cfg.cycles {
                Ok(())
            } else {
                Err(format!(
                    "{what} at cycle {at} falls outside the {}-cycle run",
                    cfg.cycles
                ))
            }
        };
        match self.workload {
            Workload::Uniform => {}
            Workload::FlashCrowd { at, fraction } => {
                in_run(at, "flash-crowd burst")?;
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!(
                        "flash-crowd fraction must be in (0, 1], got {fraction}"
                    ));
                }
            }
            Workload::Diurnal { period, amplitude } => {
                if period == 0 {
                    return Err("diurnal period must be ≥ 1".into());
                }
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err(format!(
                        "diurnal amplitude must be in [0, 1], got {amplitude}"
                    ));
                }
            }
            Workload::TopicHotspot { at, span, .. } => {
                in_run(at, "topic hotspot")?;
                if span == 0 {
                    return Err("hotspot span must be ≥ 1".into());
                }
            }
        }
        match self.environment.loss {
            LossModel::Constant { p } => prob(p, "loss")?,
            LossModel::GilbertElliott {
                p_good,
                p_bad,
                good_to_bad,
                bad_to_good,
            } => {
                prob(p_good, "p_good")?;
                prob(p_bad, "p_bad")?;
                prob(good_to_bad, "good_to_bad")?;
                prob(bad_to_good, "bad_to_good")?;
            }
            LossModel::Partition {
                from,
                until,
                frontier,
            } => {
                if !(frontier > 0.0 && frontier < 1.0) {
                    return Err(format!(
                        "partition frontier must be in (0, 1), got {frontier}"
                    ));
                }
                if from >= until {
                    return Err(format!(
                        "partition window [{from}, {until}) is empty — it would never open"
                    ));
                }
                in_run(from, "partition window start")?;
            }
        }
        match self.environment.churn {
            ChurnModel::None => {}
            ChurnModel::Uniform { per_cycle } => prob(per_cycle, "churn")?,
            ChurnModel::CrashWave { at, fraction } => {
                in_run(at, "crash wave")?;
                prob(fraction, "crash-wave fraction")?;
            }
            ChurnModel::MassJoin { at, count } => {
                in_run(at, "mass join")?;
                if count as usize > MAX_MASS_JOIN {
                    return Err(format!(
                        "mass join of {count} nodes exceeds the engine limit ({MAX_MASS_JOIN})"
                    ));
                }
            }
        }
        for e in &self.events {
            if e.at >= cfg.cycles {
                return Err(format!(
                    "event at cycle {} falls outside the {}-cycle run",
                    e.at, cfg.cycles
                ));
            }
        }
        let mut names = std::collections::BTreeSet::new();
        for m in &self.measurements {
            if m.name.is_empty() {
                return Err("measurement window name must not be empty".into());
            }
            if !names.insert(m.name.as_str()) {
                return Err(format!("duplicate measurement window name {:?}", m.name));
            }
            match m.window {
                WindowSpec::Cycles { from, until } => {
                    if from >= until {
                        return Err(format!(
                            "measurement {:?}: window [{from}, {until}) is empty",
                            m.name
                        ));
                    }
                    in_run(from, "measurement window start")?;
                }
                WindowSpec::Recovery { anchor, baseline } => {
                    if baseline == 0 {
                        return Err(format!(
                            "measurement {:?}: recovery baseline must span ≥ 1 cycle",
                            m.name
                        ));
                    }
                    let Some(at) = anchor.resolve(self) else {
                        return Err(format!(
                            "measurement {:?}: anchor does not resolve — {}",
                            m.name,
                            anchor.describe()
                        ));
                    };
                    in_run(at, "measurement anchor")?;
                }
            }
        }
        Ok(())
    }

    /// Checks that this scenario scripts nothing an executor without a
    /// driving thread could fire: no timeline events and no mass-join
    /// arrivals. The error names the first offender and the `engine`
    /// refusing it. The first half of [`Scenario::validate_for_global`],
    /// and all a swarm ([`crate::Runner::deploy`]) asks.
    pub fn validate_unscripted(&self, engine: &str) -> Result<(), String> {
        if let Some(e) = self.events.first() {
            return Err(format!(
                "timeline event {} at cycle {} cannot fire on the {engine}",
                e.event.to_json(),
                e.at
            ));
        }
        if let ChurnModel::MassJoin { at, .. } = self.environment.churn {
            return Err(format!(
                "mass join at cycle {at} cannot fire on the {engine}"
            ));
        }
        Ok(())
    }

    /// Checks that this scenario is expressible on the global baseline
    /// engines, which walk a server-side model once per item. What each
    /// honours: **cascade** — the workload schedule and constant message
    /// loss; **pub/sub** and **C-WhatsUp** — the workload schedule only
    /// (their server is reliable by assumption). Timeline events, bursty
    /// loss, partitions, crash waves, mass joins and measurement windows
    /// have no counterpart there and are rejected rather than silently
    /// ignored. Uniform churn passes for config-knob parity and is not
    /// consulted, as is constant loss on the two centralized engines.
    pub fn validate_for_global(&self, protocol: &Protocol) -> Result<(), String> {
        if !protocol.is_global() {
            return Ok(());
        }
        let engine = format!("global {} engine", protocol.label());
        self.validate_unscripted(&engine)?;
        if !matches!(self.environment.loss, LossModel::Constant { .. }) {
            return Err(format!("only constant loss is expressible on the {engine}"));
        }
        if let ChurnModel::CrashWave { .. } = self.environment.churn {
            return Err(format!("crash waves cannot fire on the {engine}"));
        }
        if !self.measurements.is_empty() {
            return Err(format!(
                "measurement windows need a per-cycle engine — the {engine} \
                 books everything an item causes under its publication cycle"
            ));
        }
        Ok(())
    }

    /// Total nodes the schedule will add over the run: the mass-join
    /// burst (if any) plus every choreographed `JoinClone` event. The
    /// load-aware partition planner
    /// ([`crate::engine::partition::Partition::plan`]) uses this to size
    /// the last shard — the one all joiners land on — for its *final*
    /// population instead of its initial one.
    pub fn expected_joins(&self) -> usize {
        let mass = match self.environment.churn {
            ChurnModel::MassJoin { count, .. } => count as usize,
            _ => 0,
        };
        let clones = self
            .events
            .iter()
            .filter(|e| matches!(e.event, Event::JoinClone { .. }))
            .count();
        mass + clones
    }

    /// Checks every event's node ids against the population the run will
    /// actually have when the event fires: `initial_nodes`, plus the mass
    /// join once its cycle has passed, plus every `JoinClone` that fired
    /// earlier (events execute ordered by cycle, list order within one).
    /// Call it once the dataset size is known — invalid ids would otherwise
    /// surface as index panics deep inside the engine.
    pub fn validate_events(&self, initial_nodes: usize) -> Result<(), String> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].at);
        let mass = |cycle: u32| match self.environment.churn {
            ChurnModel::MassJoin { at, count } if at <= cycle => count as usize,
            _ => 0,
        };
        let mut prior_joins = 0usize;
        for &i in &order {
            let e = &self.events[i];
            let population = initial_nodes + mass(e.at) + prior_joins;
            let check = |id: NodeId, what: &str| {
                if (id as usize) < population {
                    Ok(())
                } else {
                    Err(format!(
                        "{what} {id} is out of range at cycle {} (population {population})",
                        e.at
                    ))
                }
            };
            match e.event {
                Event::JoinClone { reference } => {
                    check(reference, "join reference")?;
                    prior_joins += 1;
                }
                Event::SwapInterests { a, b } => {
                    check(a, "swap node")?;
                    check(b, "swap node")?;
                }
                Event::ResetNode { node } => {
                    check(node, "reset node")?;
                    if population < 2 {
                        return Err(format!(
                            "reset at cycle {} needs a rejoin contact (population 1)",
                            e.at
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A reproducible dataset: generator kind + scale + seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRecipe {
    pub kind: DatasetKind,
    pub scale: f64,
    pub seed: u64,
}

serde::json_codec! { struct DatasetRecipe { kind: flatten, scale, seed } }

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    Survey,
    Digg,
    Synthetic,
}

serde::json_codec! {
    enum DatasetKind {
        "survey" => Survey,
        "digg" => Digg,
        "synthetic" => Synthetic,
    }
}

impl DatasetRecipe {
    /// Generates the dataset this recipe describes.
    pub fn build(&self) -> Dataset {
        match self.kind {
            DatasetKind::Survey => {
                survey::generate(&SurveyConfig::paper().scaled(self.scale), self.seed)
            }
            DatasetKind::Digg => digg::generate(&DiggConfig::paper().scaled(self.scale), self.seed),
            DatasetKind::Synthetic => {
                synthetic::generate(&SyntheticConfig::paper().scaled(self.scale), self.seed)
            }
        }
    }
}

/// Everything the `whatsup-sim` CLI needs to execute one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    pub dataset: DatasetRecipe,
    pub protocol: Protocol,
    pub config: SimConfig,
    pub scenario: Scenario,
}

// A missing `config` block is the default config, and a missing `scenario`
// block the scenario that config describes: its loss/churn knobs must not
// be silently discarded (the library path without `.scenario()` resolves
// the same way).
serde::json_codec! {
    struct ScenarioFile {
        dataset,
        protocol,
        config = SimConfig::default(),
        scenario = Scenario::from_config(&config),
    }
}

impl ScenarioFile {
    /// Parses a scenario file and validates it, protocol knobs included
    /// (view sizes are capacity-guarded before anything allocates them).
    pub fn from_json_str(text: &str) -> Result<Self, Error> {
        let file = Self::from_json_exact(&serde::json::parse(text)?)?;
        file.scenario.validate(&file.config).map_err(Error::new)?;
        file.config.validate().map_err(Error::new)?;
        file.config
            .validate_protocol(&file.protocol)
            .map_err(Error::new)?;
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            cycles: 20,
            publish_from: 4,
            measure_from: 8,
            ..Default::default()
        }
    }

    #[test]
    fn uniform_matches_legacy_schedule() {
        let c = cfg();
        let topics = vec![0u32; 50];
        assert_eq!(Workload::Uniform.schedule(&c, &topics), c.schedule(50));
    }

    #[test]
    fn flash_crowd_concentrates_a_fraction() {
        let c = cfg();
        let topics = vec![0u32; 100];
        let s = Workload::FlashCrowd {
            at: 10,
            fraction: 0.25,
        }
        .schedule(&c, &topics);
        let burst = s.iter().filter(|&&x| x == 10).count();
        assert!(
            (20..=35).contains(&burst),
            "≈25% of items must hit the burst cycle, got {burst}"
        );
        assert!(s.iter().all(|&x| (4..20).contains(&x)));
    }

    #[test]
    fn diurnal_peaks_beat_troughs() {
        let c = SimConfig {
            cycles: 28,
            publish_from: 4,
            measure_from: 8,
            ..Default::default()
        };
        let topics = vec![0u32; 600];
        let s = Workload::Diurnal {
            period: 24,
            amplitude: 0.9,
        }
        .schedule(&c, &topics);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "monotone in item index");
        assert!(s.iter().all(|&x| (4..28).contains(&x)));
        // First half-period (rising sine) must out-publish the second.
        let peak: usize = s.iter().filter(|&&x| x < 16).count();
        assert!(peak > 350, "peak half got {peak}/600");
    }

    #[test]
    fn topic_hotspot_clusters_its_topic() {
        let c = cfg();
        let topics: Vec<u32> = (0..90).map(|i| i % 3).collect();
        let s = Workload::TopicHotspot {
            topic: 1,
            at: 12,
            span: 2,
        }
        .schedule(&c, &topics);
        for (i, &cycle) in s.iter().enumerate() {
            if topics[i] == 1 {
                assert!((12..14).contains(&cycle), "hot item at {cycle}");
            }
        }
        // Other topics keep the uniform slots.
        let uniform = c.schedule(90);
        for (i, &cycle) in s.iter().enumerate() {
            if topics[i] != 1 {
                assert_eq!(cycle, uniform[i]);
            }
        }
    }

    #[test]
    fn crash_rate_and_joins_fire_on_schedule() {
        let wave = ChurnModel::CrashWave {
            at: 7,
            fraction: 0.3,
        };
        assert_eq!(wave.crash_rate(6), 0.0);
        assert_eq!(wave.crash_rate(7), 0.3);
        assert_eq!(wave.crash_rate(8), 0.0);
        let join = ChurnModel::MassJoin { at: 5, count: 4 };
        assert_eq!(join.joins_at(5), 4);
        assert_eq!(join.joins_at(6), 0);
        assert_eq!(ChurnModel::Uniform { per_cycle: 0.1 }.crash_rate(99), 0.1);
    }

    #[test]
    fn from_config_mirrors_legacy_knobs() {
        let c = SimConfig {
            loss: 0.2,
            churn_per_cycle: 0.05,
            ..cfg()
        };
        let s = Scenario::from_config(&c);
        assert_eq!(s.workload, Workload::Uniform);
        assert_eq!(s.environment.loss, LossModel::Constant { p: 0.2 });
        assert_eq!(s.environment.churn, ChurnModel::Uniform { per_cycle: 0.05 });
        assert!(s.events.is_empty());
        assert!(s.validate(&c).is_ok());
    }

    #[test]
    fn validation_rejects_bad_models() {
        let c = cfg();
        let bad_fraction = Scenario::default().with_workload(Workload::FlashCrowd {
            at: 5,
            fraction: 0.0,
        });
        assert!(bad_fraction.validate(&c).is_err());
        let bad_loss = Scenario::default().with_environment(Environment {
            loss: LossModel::Constant { p: 1.5 },
            churn: ChurnModel::None,
        });
        assert!(bad_loss.validate(&c).is_err());
        let late_event = Scenario::default().with_events(vec![TimedEvent {
            at: 99,
            event: Event::ResetNode { node: 0 },
        }]);
        assert!(late_event.validate(&c).is_err());
        let bad_frontier = Scenario::default().with_environment(Environment {
            loss: LossModel::Partition {
                from: 2,
                until: 6,
                frontier: 1.0,
            },
            churn: ChurnModel::None,
        });
        assert!(bad_frontier.validate(&c).is_err());
    }

    #[test]
    fn optional_config_fields_reject_garbage() {
        let base = r#"{"dataset": {"kind": "survey", "scale": 0.1, "seed": 1},
                       "protocol": {"kind": "whatsup", "f_like": 4},
                       "config": {"cycles": 30, CONFIG}}"#;
        let with = |extra: &str| ScenarioFile::from_json_str(&base.replace("CONFIG", extra));
        assert!(with(r#""ttl_override": 4"#).is_ok());
        assert!(with(r#""ttl_override": null"#).is_ok());
        assert!(with(r#""ttl_override": 300"#).is_err(), "u8 overflow");
        assert!(with(r#""ttl_override": "4""#).is_err(), "string typo");
        assert!(with(r#""obfuscation": "0.5""#).is_err(), "string typo");
        assert!(with(r#""profile_window": 13"#).is_ok());
        assert!(with(r#""seed": 9007199254740992"#).is_ok(), "2^53 is exact");
        assert!(with(r#""seed": 9007199254740994"#).is_err(), "above 2^53");
        assert!(with(r#""seed": 1e30"#).is_err(), "no saturation");
        assert!(with(r#""seed": -1"#).is_err(), "negative");
        assert!(with(r#""cycles": 30.5"#).is_err(), "fractional");
        let err = with(r#""seed": 1e30"#).unwrap_err().to_string();
        assert!(err.contains("config.seed"), "{err}");
        let err = with(r#""cycels": 14"#).unwrap_err().to_string();
        assert!(err.contains("config.cycels: unknown key"), "{err}");
        // View sizes are capacity-guarded before any node allocates one.
        let err = with(r#""wup_view_override": 4294967295"#).unwrap_err();
        assert!(err.to_string().contains("view size"), "{err}");
        let protocol = |p: &str| {
            let text = base.replace(r#"{"kind": "whatsup", "f_like": 4}"#, p);
            ScenarioFile::from_json_str(&text.replace(", CONFIG", ""))
        };
        assert!(protocol(r#"{"kind": "whatsup", "f_like": 4294967295}"#).is_err());
        assert!(protocol(r#"{"kind": "gossip", "fanout": 4294967295}"#).is_err());
        assert!(protocol(r#"{"kind": "gossip", "fanout": 6}"#).is_ok());
        let err = protocol(r#"{"kind": "anti_entropy", "fanout": 0}"#).unwrap_err();
        assert!(err.to_string().contains("fanout ≥ 1"), "{err}");
        assert!(protocol(r#"{"kind": "anti_entropy", "fanout": 2}"#).is_ok());
    }

    #[test]
    fn missing_scenario_block_inherits_the_config_knobs() {
        // Without an explicit scenario, the config's loss/churn knobs must
        // become the scenario — exactly like the library path without
        // `.scenario()`.
        let file = ScenarioFile::from_json_str(
            r#"{"dataset": {"kind": "survey", "scale": 0.1, "seed": 1},
                "protocol": {"kind": "whatsup", "f_like": 4},
                "config": {"cycles": 30, "loss": 0.3, "churn_per_cycle": 0.05}}"#,
        )
        .unwrap();
        assert_eq!(file.scenario, Scenario::from_config(&file.config));
        assert_eq!(
            file.scenario.environment.loss,
            LossModel::Constant { p: 0.3 }
        );
        assert_eq!(
            file.scenario.environment.churn,
            ChurnModel::Uniform { per_cycle: 0.05 }
        );
    }

    #[test]
    fn global_engines_reject_inexpressible_scenarios() {
        let global = Protocol::CPubSub;
        let node = Protocol::WhatsUp { f_like: 4 };
        let with_events = Scenario::default().with_events(vec![TimedEvent {
            at: 2,
            event: Event::ResetNode { node: 0 },
        }]);
        assert!(with_events.validate_for_global(&global).is_err());
        assert!(with_events.validate_for_global(&node).is_ok());
        // The unscripted half names what it refuses, and lets crash waves
        // through: a swarm's peers flip those coins themselves.
        let with_churn = |churn| {
            Scenario::default().with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn,
            })
        };
        let err = with_events.validate_unscripted("swarm").unwrap_err();
        assert!(err.contains("reset_node") && err.contains("swarm"), "{err}");
        let join = with_churn(ChurnModel::MassJoin { at: 3, count: 2 });
        let err = join.validate_unscripted("swarm").unwrap_err();
        assert!(err.contains("mass join"), "{err}");
        let wave = with_churn(ChurnModel::CrashWave {
            at: 3,
            fraction: 0.5,
        });
        assert!(wave.validate_unscripted("swarm").is_ok());
        assert!(wave.validate_for_global(&global).is_err());
        let bursty = Scenario::default().with_environment(Environment {
            loss: LossModel::GilbertElliott {
                p_good: 0.0,
                p_bad: 0.5,
                good_to_bad: 0.1,
                bad_to_good: 0.5,
            },
            churn: ChurnModel::None,
        });
        assert!(bursty.validate_for_global(&global).is_err());
        // The legacy config knobs stay expressible (engines document
        // ignoring them).
        let legacy = Scenario::from_config(&SimConfig {
            loss: 0.2,
            churn_per_cycle: 0.05,
            ..cfg()
        });
        assert!(legacy.validate_for_global(&global).is_ok());
    }

    #[test]
    fn partition_windows_must_open_inside_the_run() {
        let c = cfg();
        let window = |from: u32, until: u32| {
            Scenario::default()
                .with_environment(Environment {
                    loss: LossModel::Partition {
                        from,
                        until,
                        frontier: 0.5,
                    },
                    churn: ChurnModel::None,
                })
                .validate(&c)
        };
        assert!(window(5, 10).is_ok());
        assert!(window(10, 10).is_err(), "empty window");
        assert!(window(12, 8).is_err(), "inverted window");
        assert!(window(25, 30).is_err(), "opens after the run ends");
    }

    #[test]
    fn event_ids_are_checked_against_the_running_population() {
        // 10 initial nodes; node 10 only exists after a join.
        let bad = Scenario::default().with_events(vec![TimedEvent {
            at: 3,
            event: Event::ResetNode { node: 10 },
        }]);
        assert!(bad.validate_events(10).is_err());
        let grown = Scenario::default().with_events(vec![
            TimedEvent {
                at: 2,
                event: Event::JoinClone { reference: 9 },
            },
            TimedEvent {
                at: 3,
                event: Event::SwapInterests { a: 10, b: 0 },
            },
        ]);
        assert!(grown.validate_events(10).is_ok(), "joiner id usable later");
        // A mass join at cycle 2 makes ids 10..15 valid from cycle 2 on.
        let massed = Scenario::default()
            .with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn: ChurnModel::MassJoin { at: 2, count: 5 },
            })
            .with_events(vec![TimedEvent {
                at: 2,
                event: Event::ResetNode { node: 14 },
            }]);
        assert!(massed.validate_events(10).is_ok());
        let too_early = Scenario::default()
            .with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn: ChurnModel::MassJoin { at: 5, count: 5 },
            })
            .with_events(vec![TimedEvent {
                at: 2,
                event: Event::ResetNode { node: 14 },
            }]);
        assert!(too_early.validate_events(10).is_err());
    }

    #[test]
    fn scenario_json_round_trips() {
        let scenario = Scenario {
            workload: Workload::FlashCrowd {
                at: 6,
                fraction: 0.3,
            },
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
                    name: "steady".into(),
                    window: WindowSpec::Cycles { from: 3, until: 8 },
                },
                Measurement {
                    name: "crash".into(),
                    window: WindowSpec::Recovery {
                        anchor: Anchor::CrashWave,
                        baseline: 3,
                    },
                },
                Measurement {
                    name: "second_event".into(),
                    window: WindowSpec::Recovery {
                        anchor: Anchor::Event { index: 1 },
                        baseline: 2,
                    },
                },
            ],
        };
        let text = scenario.to_json().pretty();
        let back = Scenario::from_json(&serde::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn anchors_resolve_against_the_scenario() {
        let scenario = Scenario {
            workload: Workload::FlashCrowd {
                at: 6,
                fraction: 0.5,
            },
            environment: Environment {
                loss: LossModel::Partition {
                    from: 4,
                    until: 9,
                    frontier: 0.5,
                },
                churn: ChurnModel::CrashWave {
                    at: 8,
                    fraction: 0.2,
                },
            },
            events: vec![TimedEvent {
                at: 11,
                event: Event::ResetNode { node: 0 },
            }],
            measurements: Vec::new(),
        };
        assert_eq!(Anchor::Cycle { at: 3 }.resolve(&scenario), Some(3));
        assert_eq!(Anchor::CrashWave.resolve(&scenario), Some(8));
        assert_eq!(Anchor::FlashCrowd.resolve(&scenario), Some(6));
        assert_eq!(Anchor::PartitionStart.resolve(&scenario), Some(4));
        assert_eq!(Anchor::PartitionEnd.resolve(&scenario), Some(9));
        assert_eq!(Anchor::Event { index: 0 }.resolve(&scenario), Some(11));
        assert_eq!(Anchor::Event { index: 1 }.resolve(&scenario), None);
        assert_eq!(Anchor::MassJoin.resolve(&scenario), None);
    }

    #[test]
    fn measurement_validation_rejects_bad_windows() {
        let c = cfg();
        let with = |m: Measurement| Scenario::default().with_measurements(vec![m]);
        // Empty range.
        assert!(with(Measurement {
            name: "w".into(),
            window: WindowSpec::Cycles { from: 5, until: 5 },
        })
        .validate(&c)
        .is_err());
        // Out of the run.
        assert!(with(Measurement {
            name: "w".into(),
            window: WindowSpec::Cycles {
                from: 25,
                until: 30
            },
        })
        .validate(&c)
        .is_err());
        // Unresolvable anchor (no crash wave in the default environment).
        assert!(with(Measurement {
            name: "w".into(),
            window: WindowSpec::Recovery {
                anchor: Anchor::CrashWave,
                baseline: 2,
            },
        })
        .validate(&c)
        .is_err());
        // Zero-cycle baseline.
        assert!(with(Measurement {
            name: "w".into(),
            window: WindowSpec::Recovery {
                anchor: Anchor::Cycle { at: 5 },
                baseline: 0,
            },
        })
        .validate(&c)
        .is_err());
        // Empty and duplicate names.
        assert!(with(Measurement {
            name: String::new(),
            window: WindowSpec::Cycles { from: 0, until: 5 },
        })
        .validate(&c)
        .is_err());
        let dup = Scenario::default().with_measurements(vec![
            Measurement {
                name: "w".into(),
                window: WindowSpec::Cycles { from: 0, until: 5 },
            },
            Measurement {
                name: "w".into(),
                window: WindowSpec::Cycles { from: 5, until: 9 },
            },
        ]);
        assert!(dup.validate(&c).is_err());
        let good = with(Measurement {
            name: "w".into(),
            window: WindowSpec::Cycles { from: 0, until: 5 },
        });
        assert!(good.validate(&c).is_ok());
        // And not on the global engines.
        assert!(good.validate_for_global(&Protocol::CPubSub).is_err());
        assert!(good
            .validate_for_global(&Protocol::WhatsUp { f_like: 4 })
            .is_ok());
    }

    #[test]
    fn scenario_file_round_trips_and_validates() {
        let file = ScenarioFile {
            dataset: DatasetRecipe {
                kind: DatasetKind::Survey,
                scale: 0.08,
                seed: 11,
            },
            protocol: Protocol::WhatsUp { f_like: 4 },
            config: SimConfig {
                cycles: 14,
                publish_from: 2,
                measure_from: 5,
                ..Default::default()
            },
            scenario: Scenario::default().with_workload(Workload::FlashCrowd {
                at: 6,
                fraction: 0.3,
            }),
        };
        let text = file.to_json().pretty();
        let back = ScenarioFile::from_json_str(&text).unwrap();
        assert_eq!(back, file);
        // A partial config keeps defaults for the missing fields.
        let partial: ScenarioFile = ScenarioFile::from_json_str(
            r#"{"dataset": {"kind": "digg", "scale": 0.1, "seed": 3},
                "protocol": {"kind": "gossip", "fanout": 5},
                "config": {"cycles": 30}}"#,
        )
        .unwrap();
        assert_eq!(partial.config.cycles, 30);
        assert_eq!(
            partial.config.measure_from,
            SimConfig::default().measure_from
        );
        assert_eq!(partial.scenario, Scenario::default());
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        let parse = |text: &str| serde::json::parse(text).unwrap();
        assert!(Scenario::from_json(&parse("{}")).is_err());
        assert!(
            Workload::from_json(&parse(r#"{"kind": "surprise"}"#)).is_err(),
            "unknown kinds must fail"
        );
        assert!(
            ScenarioFile::from_json_str(
                r#"{"dataset": {"kind": "survey", "scale": 0.1, "seed": 1},
                    "protocol": {"kind": "whatsup", "f_like": 4},
                    "config": {"cycles": 10, "measure_from": 12}}"#
            )
            .is_err(),
            "file-level validation must run"
        );
        // A key the schema does not declare is an error naming its path,
        // wherever it sits: the top level, a nested enum, a flattened
        // event, and a variant that lacks the field another one has.
        let file = r#"{"dataset": {"kind": "survey", "scale": 0.1, "seed": 1},
                       "protocol": {"kind": "whatsup", "f_like": 4},
                       "config": {"cycles": 30},
                       "scenario": {
                         "workload": {"kind": "uniform"},
                         "environment": {"loss": {"kind": "constant", "p": 0.1},
                                         "churn": {"kind": "none"}},
                         "events": [{"at": 3, "kind": "reset_node", "node": 1}]}}"#;
        assert!(ScenarioFile::from_json_str(file).is_ok());
        for (from, to, path) in [
            (r#""config""#, r#""cycels": 14, "config""#, "cycels"),
            (
                r#""p": 0.1"#,
                r#""p": 0.1, "q": 0.2"#,
                "scenario.environment.loss.q",
            ),
            (
                r#""node": 1"#,
                r#""node": 1, "nod": 2"#,
                "scenario.events[0].nod",
            ),
            (
                r#""kind": "none""#,
                r#""kind": "none", "per_cycle": 0.1"#,
                "scenario.environment.churn.per_cycle",
            ),
        ] {
            let text = file.replacen(from, to, 1);
            let err = ScenarioFile::from_json_str(&text).unwrap_err().to_string();
            assert!(err.contains(&format!("{path}: unknown key")), "{err}");
        }
    }
}
