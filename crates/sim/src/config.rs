//! Simulation configuration, the protocol selector and the transport
//! selector.

use std::path::PathBuf;
use whatsup_core::{Metric, Params};

/// Where the engine's shard workers execute. A pure execution knob, like
/// [`SimConfig::shards`]: reports are bit-identical across all variants
/// (see the `engine` module docs for the determinism contract and the
/// distributed topology). Only the node engine has shards; the runner
/// refuses an external transport anywhere else.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Transport {
    /// Shard worker threads inside this process (a single shard runs
    /// inline without serialization).
    #[default]
    InProcess,
    /// `sim-shard-worker` child processes at this binary path, frames
    /// over stdio pipes.
    Process(PathBuf),
    /// Already-listening `sim-shard-worker --listen` processes, frames
    /// over TCP. One `host:port` address per shard, in shard order: the
    /// shard count is the worker count, and a [`SimConfig::shards`] other
    /// than 1 or the worker count is refused. Workers start first, the
    /// driver dials second.
    Socket(Vec<String>),
}

/// One protocol under evaluation (§IV-B). Everything the paper's Figs. 3–11
/// and Tables III–VI compare is expressible here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The full system: WUP metric + BEEP amplification/orientation.
    WhatsUp { f_like: usize },
    /// WhatsUp with cosine similarity (§V-A).
    WhatsUpCos { f_like: usize },
    /// Decentralized CF, WUP metric, k nearest neighbors (§IV-B).
    CfWup { k: usize },
    /// Decentralized CF, cosine similarity.
    CfCos { k: usize },
    /// Homogeneous gossip with fixed fanout (Table III).
    Gossip { fanout: usize },
    /// Explicit social cascade (Digg only, Table V).
    Cascade,
    /// Centralized complete topic-based pub/sub (Table V).
    CPubSub,
    /// Centralized WhatsUp with global knowledge (Fig. 9).
    CWhatsUp { f_like: usize },
    /// Ablation: BEEP without amplification (all fanouts equal).
    NoAmplification { fanout: usize },
    /// Ablation: BEEP with un-oriented (uniform random) dislike forwarding.
    NoOrientation { f_like: usize },
    /// Scuttlebutt anti-entropy: versioned per-node state reconciled by
    /// pairwise digest/delta exchange, phi-accrual failure detection. The
    /// modern point of comparison BEEP is measured against (ROADMAP).
    AntiEntropy { fanout: usize },
}

serde::json_codec! {
    enum Protocol {
        "whatsup" => WhatsUp { f_like },
        "whatsup_cos" => WhatsUpCos { f_like },
        "cf_wup" => CfWup { k },
        "cf_cos" => CfCos { k },
        "gossip" => Gossip { fanout },
        "cascade" => Cascade,
        "c_pub_sub" => CPubSub,
        "c_whatsup" => CWhatsUp { f_like },
        "no_amplification" => NoAmplification { fanout },
        "no_orientation" => NoOrientation { f_like },
        "anti_entropy" => AntiEntropy { fanout },
    }
}

impl Protocol {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Protocol::WhatsUp { .. } => "WhatsUp".into(),
            Protocol::WhatsUpCos { .. } => "WhatsUp-Cos".into(),
            Protocol::CfWup { .. } => "CF-Wup".into(),
            Protocol::CfCos { .. } => "CF-Cos".into(),
            Protocol::Gossip { .. } => "Gossip".into(),
            Protocol::Cascade => "Cascade".into(),
            Protocol::CPubSub => "C-Pub/Sub".into(),
            Protocol::CWhatsUp { .. } => "C-WhatsUp".into(),
            Protocol::NoAmplification { .. } => "NoAmplification".into(),
            Protocol::NoOrientation { .. } => "NoOrientation".into(),
            Protocol::AntiEntropy { .. } => "Anti-Entropy".into(),
        }
    }

    /// True for the global-knowledge baselines (cascade, pub/sub,
    /// centralized): they run on a server model, not the per-node gossip
    /// stack, so per-cycle scenario events and environment models cannot
    /// apply to them.
    pub(crate) fn is_global(&self) -> bool {
        matches!(
            self,
            Protocol::Cascade | Protocol::CPubSub | Protocol::CWhatsUp { .. }
        )
    }

    /// The fanout-style knob of this protocol, if any (x-axis of Fig. 3).
    pub fn fanout(&self) -> Option<usize> {
        match *self {
            Protocol::WhatsUp { f_like }
            | Protocol::WhatsUpCos { f_like }
            | Protocol::CWhatsUp { f_like }
            | Protocol::NoOrientation { f_like } => Some(f_like),
            Protocol::CfWup { k } | Protocol::CfCos { k } => Some(k),
            Protocol::Gossip { fanout }
            | Protocol::NoAmplification { fanout }
            | Protocol::AntiEntropy { fanout } => Some(fanout),
            Protocol::Cascade | Protocol::CPubSub => None,
        }
    }

    /// Same protocol at a different fanout (sweep helper).
    pub fn with_fanout(&self, f: usize) -> Protocol {
        match self {
            Protocol::WhatsUp { .. } => Protocol::WhatsUp { f_like: f },
            Protocol::WhatsUpCos { .. } => Protocol::WhatsUpCos { f_like: f },
            Protocol::CfWup { .. } => Protocol::CfWup { k: f },
            Protocol::CfCos { .. } => Protocol::CfCos { k: f },
            Protocol::Gossip { .. } => Protocol::Gossip { fanout: f },
            Protocol::CWhatsUp { .. } => Protocol::CWhatsUp { f_like: f },
            Protocol::NoAmplification { .. } => Protocol::NoAmplification { fanout: f },
            Protocol::NoOrientation { .. } => Protocol::NoOrientation { f_like: f },
            Protocol::AntiEntropy { .. } => Protocol::AntiEntropy { fanout: f },
            p => *p,
        }
    }

    /// Node parameters for protocols that run on the `whatsup-core` stack;
    /// `None` for the global engines (cascade, pub/sub, centralized).
    fn node_params(&self) -> Option<Params> {
        match *self {
            Protocol::WhatsUp { f_like } => Some(Params::whatsup(f_like)),
            Protocol::WhatsUpCos { f_like } => Some(Params::whatsup_cos(f_like)),
            Protocol::CfWup { k } => Some(Params::cf(k, Metric::Wup)),
            Protocol::CfCos { k } => Some(Params::cf(k, Metric::Cosine)),
            Protocol::Gossip { fanout } => Some(Params::gossip(fanout)),
            Protocol::NoAmplification { fanout } => {
                let mut p = Params::whatsup(fanout);
                // Amplification off: the like path uses the same fanout as
                // the dislike path (here: both `fanout`, dislike oriented).
                p.beep.dislike = whatsup_core::beep::DislikeRule::Forward {
                    fanout,
                    ttl: 4,
                    oriented: true,
                };
                Some(p)
            }
            Protocol::NoOrientation { f_like } => {
                let mut p = Params::whatsup(f_like);
                p.beep.dislike = whatsup_core::beep::DislikeRule::Forward {
                    fanout: 1,
                    ttl: 4,
                    oriented: false,
                };
                Some(p)
            }
            // Anti-entropy runs its own engine, not the whatsup-core node
            // stack (it reconciles versioned state, it does not push news).
            Protocol::Cascade
            | Protocol::CPubSub
            | Protocol::CWhatsUp { .. }
            | Protocol::AntiEntropy { .. } => None,
        }
    }
}

/// A [`SimConfig`] field some engine never reads: its name, and how to copy
/// its value from the second config into the first.
pub(crate) type UnreadField = (&'static str, fn(&mut SimConfig, &SimConfig));

/// Simulation run configuration. A field that the run's protocol never
/// reads must keep its default, or the run is refused.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total gossip cycles. The paper's profile window of 13 cycles is 1/5
    /// of the experiment, giving 65 cycles.
    pub cycles: u32,
    /// Publications start here (gives gossip a short view-mixing ramp).
    pub publish_from: u32,
    /// Items published at cycles `< measure_from` warm the profiles/topology
    /// but are excluded from the reported metrics.
    pub measure_from: u32,
    /// RNG seed; every run is a pure function of (dataset, config).
    pub seed: u64,
    /// Random contacts seeded into each node's views at bootstrap.
    pub bootstrap_degree: usize,
    /// Override the per-node profile window (cycles); `None` keeps the
    /// protocol default.
    pub profile_window: Option<u32>,
    /// Override the BEEP dislike TTL (Fig. 5 sweeps it; `None` keeps 4).
    pub ttl_override: Option<u8>,
    /// Override the WUP view size (the `WUPvs = 2·fLIKE` ablation).
    pub wup_view_override: Option<usize>,
    /// Randomized-response obfuscation level (§VII privacy extension);
    /// `None`/0 shares true profiles.
    pub obfuscation: Option<f64>,
    /// Engine shards the node table is partitioned into (contiguous id
    /// ranges, each run by its own worker), at least 1 and clamped to the
    /// population size. Pure execution knob: reports are bit-identical for
    /// every value. Only the node engine has shards, so every other engine
    /// and a swarm refuse a value other than 1; on [`Transport::Socket`]
    /// the shard count is the worker count, and a value other than 1 or
    /// the worker count is refused.
    pub shards: usize,
    /// Anti-entropy only: datagram byte budget deltas are greedily packed
    /// to (chitchat-style UDP sizing). Partial deltas are first-class; a
    /// truncated exchange resumes from the advertised digest next round.
    pub datagram_budget: usize,
    /// Anti-entropy only: φ above which a peer counts as failed. φ grows
    /// with heartbeat staleness relative to the observed inter-arrival
    /// history, so the threshold is in "suspicion" units, not cycles.
    /// Cycle-granular heartbeats keep φ far smaller than wall-clock
    /// deployments' 8–16: at a steady 1-cycle cadence, φ ≈ 0.43 per stale
    /// cycle, so the 1.0 default fires after ~3 missed cycles.
    pub phi_threshold: f64,
    /// Anti-entropy only: cycles a crashed node stays dark before it
    /// rejoins with a bumped incarnation. The BEEP engine resets crashed
    /// nodes instantly; anti-entropy needs real downtime for heartbeats to
    /// go stale, or φ would have nothing to detect.
    pub down_cycles: u32,
}

serde::json_codec! {
    struct SimConfig {
        cycles: default, publish_from: default, measure_from: default, seed: default,
        bootstrap_degree: default, profile_window: default, ttl_override: default,
        wup_view_override: default, obfuscation: default, shards: default,
        datagram_budget: default, phi_threshold: default, down_cycles: default,
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cycles: 65,
            publish_from: 3,
            measure_from: 20,
            seed: 0x000a_ce0f_5eed,
            bootstrap_degree: 8,
            profile_window: None,
            ttl_override: None,
            wup_view_override: None,
            obfuscation: None,
            shards: 1,
            datagram_budget: 1400,
            phi_threshold: 1.0,
            down_cycles: 5,
        }
    }
}

impl SimConfig {
    /// Node parameters for `protocol` with this config's overrides applied.
    pub(crate) fn build_params(&self, protocol: &Protocol) -> Option<whatsup_core::Params> {
        let mut params = protocol.node_params()?;
        if let Some(w) = self.profile_window {
            params.profile_window = w;
        }
        if let Some(ttl) = self.ttl_override {
            if let whatsup_core::beep::DislikeRule::Forward {
                fanout, oriented, ..
            } = params.beep.dislike
            {
                params.beep.dislike = whatsup_core::beep::DislikeRule::Forward {
                    fanout,
                    ttl,
                    oriented,
                };
            }
        }
        if let Some(vs) = self.wup_view_override {
            params.wup_view_size = vs.max(params.beep.f_like);
        }
        if let Some(eps) = self.obfuscation {
            params.obfuscation_epsilon = eps;
        }
        Some(params)
    }

    /// Checks `protocol`'s knobs under this config: the node parameters
    /// of the gossip stack (view sizes capacity-guarded), the fanout of
    /// anti-entropy, which runs its own engine, and that no field is set
    /// that `protocol`'s engine never reads ([`Self::unread_by`]) — a knob
    /// that changes nothing is refused, in one line naming the protocol
    /// and the field.
    pub(crate) fn validate_protocol(&self, protocol: &Protocol) -> Result<(), String> {
        if let Some(field) = self.unread_by(protocol) {
            return Err(format!(
                "{} never reads config.{field}: leave it at its default",
                protocol.label()
            ));
        }
        match self.build_params(protocol) {
            Some(params) => params.validate(),
            None if *protocol == (Protocol::AntiEntropy { fanout: 0 }) => {
                Err("anti-entropy needs a fanout ≥ 1".into())
            }
            None => Ok(()),
        }
    }

    /// The first field set away from its default that `protocol`'s engine
    /// never reads ([`Self::unread_fields`]): each field is copied into one
    /// default config, compared and copied back.
    fn unread_by(&self, protocol: &Protocol) -> Option<&'static str> {
        let (default, mut probe) = (Self::default(), Self::default());
        Self::unread_fields(protocol).find_map(|(field, copy)| {
            copy(&mut probe, self);
            let set = probe != default;
            copy(&mut probe, &default);
            set.then_some(field)
        })
    }

    /// The fields `protocol`'s engine never reads, each with how to copy it
    /// from one config into another. The node knobs (`bootstrap_degree` and the
    /// overrides of [`Self::build_params`]) mean nothing to the global
    /// baselines, which have no node views (C-WhatsUp keeps its own
    /// 13-cycle window), nor to anti-entropy, which knows its full
    /// membership; the dislike TTL nothing to CF, whose dislikes drop; the
    /// anti-entropy knobs nothing to any other engine; and the seed
    /// nothing to C-Pub/Sub, which draws no random number: its schedule
    /// and deliveries are a function of the dataset and the cycle bounds
    /// alone.
    pub(crate) fn unread_fields(protocol: &Protocol) -> impl Iterator<Item = UnreadField> {
        const SEED: UnreadField = ("seed", |c, d| c.seed = d.seed);
        const TTL: UnreadField = ("ttl_override", |c, d| c.ttl_override = d.ttl_override);
        const NODE: &[UnreadField] = &[
            ("bootstrap_degree", |c, d| {
                c.bootstrap_degree = d.bootstrap_degree
            }),
            ("profile_window", |c, d| c.profile_window = d.profile_window),
            TTL,
            ("wup_view_override", |c, d| {
                c.wup_view_override = d.wup_view_override
            }),
            ("obfuscation", |c, d| c.obfuscation = d.obfuscation),
        ];
        const ANTI_ENTROPY: &[UnreadField] = &[
            ("datagram_budget", |c, d| {
                c.datagram_budget = d.datagram_budget
            }),
            ("phi_threshold", |c, d| c.phi_threshold = d.phi_threshold),
            ("down_cycles", |c, d| c.down_cycles = d.down_cycles),
        ];
        let unread: &[&[UnreadField]] = match protocol {
            Protocol::AntiEntropy { .. } => &[NODE],
            Protocol::CPubSub => &[&[SEED], NODE, ANTI_ENTROPY],
            p if p.is_global() => &[NODE, ANTI_ENTROPY],
            Protocol::CfWup { .. } | Protocol::CfCos { .. } => &[&[TTL], ANTI_ENTROPY],
            _ => &[ANTI_ENTROPY],
        };
        unread.iter().flat_map(|fields| fields.iter().copied())
    }

    /// Checks the run's shape and the engine knobs' ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.publish_from >= self.cycles {
            return Err("publish_from must precede the end of the run".into());
        }
        if self.measure_from >= self.cycles {
            return Err(format!(
                "measure_from ({}) must precede the end of the run ({} cycles) — \
                 nothing would be measured",
                self.measure_from, self.cycles
            ));
        }
        if self.publish_from > self.measure_from {
            return Err(format!(
                "publish_from ({}) must not exceed measure_from ({}) — \
                 the measured window would start before any publication",
                self.publish_from, self.measure_from
            ));
        }
        if self.bootstrap_degree == 0 {
            return Err("bootstrap degree must be ≥ 1".into());
        }
        if self.shards == 0 {
            return Err("shards must be ≥ 1".into());
        }
        // Smallest useful datagram: the frame header plus one maximal delta
        // entry, or no entry could ever be packed.
        if self.datagram_budget < 64 {
            return Err("datagram_budget must be ≥ 64 bytes".into());
        }
        if !self.phi_threshold.is_finite() || self.phi_threshold <= 0.0 {
            return Err("phi_threshold must be a positive finite number".into());
        }
        if self.down_cycles == 0 {
            return Err("down_cycles must be ≥ 1 (crashes need real downtime)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_labels_and_fanouts() {
        assert_eq!(Protocol::WhatsUp { f_like: 10 }.label(), "WhatsUp");
        assert_eq!(Protocol::WhatsUp { f_like: 10 }.fanout(), Some(10));
        assert_eq!(Protocol::Cascade.fanout(), None);
        assert_eq!(Protocol::CfCos { k: 29 }.with_fanout(5).fanout(), Some(5));
        assert_eq!(Protocol::Cascade.with_fanout(5), Protocol::Cascade);
        let ae = Protocol::AntiEntropy { fanout: 2 };
        assert_eq!(ae.label(), "Anti-Entropy");
        assert!(!ae.is_global());
        assert_eq!(ae.with_fanout(3).fanout(), Some(3));
    }

    #[test]
    fn node_params_only_for_node_protocols() {
        assert!(Protocol::WhatsUp { f_like: 10 }.node_params().is_some());
        assert!(Protocol::Gossip { fanout: 4 }.node_params().is_some());
        assert!(Protocol::Cascade.node_params().is_none());
        assert!(Protocol::CPubSub.node_params().is_none());
        assert!(Protocol::CWhatsUp { f_like: 10 }.node_params().is_none());
        assert!(Protocol::AntiEntropy { fanout: 2 }.node_params().is_none());
    }

    #[test]
    fn ablation_params_differ_from_whatsup() {
        let wu = Protocol::WhatsUp { f_like: 5 }.node_params().unwrap();
        let na = Protocol::NoAmplification { fanout: 5 }
            .node_params()
            .unwrap();
        let no = Protocol::NoOrientation { f_like: 5 }.node_params().unwrap();
        assert_ne!(wu.beep, na.beep);
        assert_ne!(wu.beep, no.beep);
    }

    #[test]
    fn a_knob_the_engine_never_reads_is_refused() {
        let protocols = [
            Protocol::WhatsUp { f_like: 3 },
            Protocol::WhatsUpCos { f_like: 3 },
            Protocol::CfWup { k: 5 },
            Protocol::CfCos { k: 5 },
            Protocol::Gossip { fanout: 3 },
            Protocol::Cascade,
            Protocol::CPubSub,
            Protocol::CWhatsUp { f_like: 3 },
            Protocol::NoAmplification { fanout: 3 },
            Protocol::NoOrientation { f_like: 3 },
            Protocol::AntiEntropy { fanout: 3 },
        ];
        // Whose engine reads each field: the node stack all but the dislike
        // TTL, which only a forwarding dislike rule reads; anti-entropy its
        // own three.
        let reads = |field: &str, p: &Protocol| match field {
            "ttl_override" => p.node_params().is_some_and(|params| params.ttl().is_some()),
            "datagram_budget" | "phi_threshold" | "down_cycles" => {
                matches!(p, Protocol::AntiEntropy { .. })
            }
            _ => p.node_params().is_some(),
        };
        let set = |edit: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::default();
            edit(&mut cfg);
            cfg
        };
        let knobs = [
            ("bootstrap_degree", set(|c| c.bootstrap_degree = 4)),
            ("profile_window", set(|c| c.profile_window = Some(13))),
            ("ttl_override", set(|c| c.ttl_override = Some(4))),
            ("wup_view_override", set(|c| c.wup_view_override = Some(12))),
            ("obfuscation", set(|c| c.obfuscation = Some(0.0))),
            ("datagram_budget", set(|c| c.datagram_budget = 512)),
            ("phi_threshold", set(|c| c.phi_threshold = 2.0)),
            ("down_cycles", set(|c| c.down_cycles = 3)),
        ];
        for (field, cfg) in &knobs {
            for protocol in &protocols {
                let verdict = cfg.validate_protocol(protocol);
                if reads(field, protocol) {
                    assert_eq!(verdict, Ok(()), "{field} on {protocol:?}");
                    continue;
                }
                let err = verdict.expect_err(field);
                assert!(err.contains(&protocol.label()), "{err}");
                assert!(err.contains(&format!("config.{field}")), "{err}");
                assert_eq!(err.lines().count(), 1, "{err}");
            }
        }
        for protocol in &protocols {
            assert_eq!(SimConfig::default().validate_protocol(protocol), Ok(()));
        }
    }

    #[test]
    fn overrides_apply() {
        let cfg = SimConfig {
            obfuscation: Some(0.4),
            ttl_override: Some(7),
            wup_view_override: Some(25),
            ..Default::default()
        };
        let p = cfg.build_params(&Protocol::WhatsUp { f_like: 10 }).unwrap();
        assert_eq!(p.obfuscation_epsilon, 0.4);
        assert_eq!(p.ttl(), Some(7));
        assert_eq!(p.wup_view_size, 25);
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::default().validate().is_ok());
        let bad = SimConfig {
            publish_from: 99,
            cycles: 50,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            datagram_budget: 10,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            phi_threshold: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            down_cycles: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            shards: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_empty_measurement_windows() {
        // measure_from at/after the end: every metric would be empty.
        let bad = SimConfig {
            cycles: 50,
            measure_from: 50,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            cycles: 50,
            measure_from: 80,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // Publications starting after the measured window opens.
        let bad = SimConfig {
            cycles: 50,
            publish_from: 30,
            measure_from: 20,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // Boundary case: publishing exactly at the measurement threshold is
        // fine (everything published is measured).
        let ok = SimConfig {
            cycles: 50,
            publish_from: 20,
            measure_from: 20,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }
}
