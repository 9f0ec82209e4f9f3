//! System parameters (paper Table II) and per-protocol presets.

use crate::beep::{BeepConfig, DislikeRule, TargetPool};
use crate::similarity::Metric;
use whatsup_gossip::RpsConfig;

/// Upper bound on any view size (RPS, WUP, and with it `fLIKE`) — a
/// capacity guard, far above any plausible experiment (the paper's views
/// hold a few dozen peers), so a typo'd scenario file or sweep axis cannot
/// make every node preallocate gigabytes of view storage.
const MAX_VIEW_SIZE: usize = 10_000;

/// All per-node tunables. `Params::default()` reproduces Table II with the
/// survey-optimal `fLIKE = 10`.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Random peer sampling layer configuration (`RPSvs = 30`).
    pub rps: RpsConfig,
    /// RPS gossip period in cycles (Table II sets `RPSf = 1h` while news
    /// cycles are minutes: the random overlay refreshes much more slowly
    /// than the clustering layer). 1 = every cycle (the simulator default).
    pub rps_period: u32,
    /// WUP clustering view size (`WUPvs`); the paper fixes it to `2·fLIKE`.
    pub wup_view_size: usize,
    /// Similarity metric used for clustering and BEEP orientation.
    pub metric: Metric,
    /// Profile window in cycles: entries older than this are purged (§II-E;
    /// 13 cycles ≈ 1/5 of the experiment duration).
    pub profile_window: u32,
    /// BEEP forwarding policy.
    pub beep: BeepConfig,
    /// Number of popular items a joining node rates at cold start (§II-D).
    pub cold_start_items: usize,
    /// Randomized-response noise on everything the node *shares* (profiles
    /// in gossip descriptors and item-profile contributions); 0 = off.
    /// The privacy extension of §VII — see `crate::obfuscation`.
    pub obfuscation_epsilon: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self::whatsup(10)
    }
}

impl Params {
    /// WhatsUp with the WUP metric: the paper's full system.
    pub fn whatsup(f_like: usize) -> Self {
        Self {
            rps: RpsConfig::default(),
            rps_period: 1,
            wup_view_size: f_like.saturating_mul(2),
            metric: Metric::Wup,
            profile_window: 13,
            beep: BeepConfig {
                f_like,
                like_pool: TargetPool::Wup,
                like_entire_view: false,
                dislike: DislikeRule::Forward {
                    fanout: 1,
                    ttl: 4,
                    oriented: true,
                },
            },
            cold_start_items: 3,
            obfuscation_epsilon: 0.0,
        }
    }

    /// WhatsUp-Cos: identical machinery, cosine similarity (§V-A).
    pub fn whatsup_cos(f_like: usize) -> Self {
        Self {
            metric: Metric::Cosine,
            ..Self::whatsup(f_like)
        }
    }

    /// Decentralized CF (§IV-B): on a like, forward to *all* `k` nearest
    /// neighbors; no action on a dislike; no amplification/orientation.
    pub fn cf(k: usize, metric: Metric) -> Self {
        Self {
            rps: RpsConfig::default(),
            rps_period: 1,
            wup_view_size: k,
            metric,
            profile_window: 13,
            beep: BeepConfig {
                f_like: k,
                like_pool: TargetPool::Wup,
                like_entire_view: true,
                dislike: DislikeRule::Drop,
            },
            cold_start_items: 3,
            obfuscation_epsilon: 0.0,
        }
    }

    /// Homogeneous gossip (§IV-B, Table III): forward every first reception
    /// to `fanout` uniform RPS targets, liked or not.
    pub fn gossip(fanout: usize) -> Self {
        Self {
            rps: RpsConfig::default(),
            rps_period: 1,
            wup_view_size: fanout.max(1).saturating_mul(2),
            metric: Metric::Wup,
            profile_window: 13,
            beep: BeepConfig {
                f_like: fanout,
                like_pool: TargetPool::Rps,
                like_entire_view: false,
                dislike: DislikeRule::Forward {
                    fanout,
                    ttl: u8::MAX,
                    oriented: false,
                },
            },
            cold_start_items: 3,
            obfuscation_epsilon: 0.0,
        }
    }

    /// The dislike-path TTL, when the dislike rule forwards.
    pub fn ttl(&self) -> Option<u8> {
        match self.beep.dislike {
            DislikeRule::Forward { ttl, .. } => Some(ttl),
            DislikeRule::Drop => None,
        }
    }

    /// Validates the invariants the paper states (§IV-D): `WUPvs ≥ fLIKE`,
    /// non-zero window and fanout — and view sizes within `MAX_VIEW_SIZE`.
    pub fn validate(&self) -> Result<(), String> {
        if self.beep.f_like == 0 {
            return Err("fLIKE must be ≥ 1".into());
        }
        for (view, size) in [("WUP", self.wup_view_size), ("RPS", self.rps.view_size)] {
            if size > MAX_VIEW_SIZE {
                return Err(format!(
                    "{view} view size ({size}) exceeds the engine limit ({MAX_VIEW_SIZE})"
                ));
            }
        }
        if self.wup_view_size < self.beep.f_like {
            return Err(format!(
                "WUP view size ({}) must be ≥ fLIKE ({})",
                self.wup_view_size, self.beep.f_like
            ));
        }
        if self.profile_window == 0 {
            return Err("profile window must be ≥ 1 cycle".into());
        }
        if self.rps.view_size == 0 {
            return Err("RPS view must be non-empty".into());
        }
        if self.rps_period == 0 {
            return Err("RPS period must be ≥ 1 cycle".into());
        }
        if !(0.0..=1.0).contains(&self.obfuscation_epsilon) {
            return Err("obfuscation epsilon must be a probability".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let p = Params::default();
        assert_eq!(p.rps.view_size, 30);
        assert_eq!(p.wup_view_size, 2 * p.beep.f_like);
        assert_eq!(p.profile_window, 13);
        assert_eq!(p.ttl(), Some(4));
        assert_eq!(p.metric, Metric::Wup);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn cf_forwards_whole_view_and_drops_dislikes() {
        let p = Params::cf(19, Metric::Wup);
        assert!(p.beep.like_entire_view);
        assert_eq!(p.wup_view_size, 19);
        assert_eq!(p.ttl(), None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn gossip_is_homogeneous() {
        let p = Params::gossip(4);
        assert_eq!(p.beep.f_like, 4);
        match p.beep.dislike {
            DislikeRule::Forward {
                fanout, oriented, ..
            } => {
                assert_eq!(fanout, 4);
                assert!(!oriented);
            }
            DislikeRule::Drop => panic!("gossip must forward dislikes too"),
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut p = Params::whatsup(10);
        p.wup_view_size = 5;
        assert!(p.validate().is_err());
        let mut p = Params::whatsup(10);
        p.beep.f_like = 0;
        assert!(p.validate().is_err());
        let mut p = Params::whatsup(10);
        p.profile_window = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn view_sizes_are_capacity_guarded() {
        assert!(Params::whatsup(MAX_VIEW_SIZE / 2).validate().is_ok());
        assert!(Params::whatsup(MAX_VIEW_SIZE / 2 + 1).validate().is_err());
        assert!(Params::cf(MAX_VIEW_SIZE + 1, Metric::Wup)
            .validate()
            .is_err());
        assert!(
            Params::gossip(usize::MAX).validate().is_err(),
            "no overflow"
        );
        let mut p = Params::whatsup(10);
        p.rps.view_size = MAX_VIEW_SIZE + 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rps_period_validated() {
        let mut p = Params::whatsup(10);
        assert_eq!(p.rps_period, 1, "simulator default: every cycle");
        p.rps_period = 0;
        assert!(p.validate().is_err());
        p.rps_period = 120;
        assert!(p.validate().is_ok(), "deployment-style slow RPS is valid");
    }

    #[test]
    fn obfuscation_epsilon_validated() {
        let mut p = Params::whatsup(10);
        assert_eq!(
            p.obfuscation_epsilon, 0.0,
            "privacy extension off by default"
        );
        p.obfuscation_epsilon = 0.5;
        assert!(p.validate().is_ok());
        p.obfuscation_epsilon = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn whatsup_cos_only_changes_metric() {
        let a = Params::whatsup(8);
        let b = Params::whatsup_cos(8);
        assert_eq!(b.metric, Metric::Cosine);
        assert_eq!(a.beep, b.beep);
    }
}
