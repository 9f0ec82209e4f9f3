//! Profile obfuscation (paper §VII).
//!
//! The concluding remarks describe an explored extension: "obfuscation
//! mechanisms to hide the exact tastes of users", trading recommendation
//! accuracy for privacy. This module implements the classic *randomized
//! response* scheme over shared profiles:
//!
//! * with probability `1 − ε` an entry is shared truthfully;
//! * with probability `ε` its score is replaced by a fair coin flip.
//!
//! Two design points matter for a gossip recommender:
//!
//! 1. **Only the shared view is obfuscated.** A node's own forwarding
//!    decisions still use its true profile — privacy concerns only what
//!    *other* nodes (and the item profiles traveling the network) see.
//! 2. **Lies are consistent.** The coin for `(node, item)` is a
//!    deterministic hash, not a fresh random draw: re-gossiping the same
//!    profile reveals nothing new, so an observer cannot average the noise
//!    away over many exchanges — the standard defense against repeated-
//!    query deanonymization.
//!
//! Plausible deniability: with flip probability `ε`, an observed *like*
//! carries likelihood ratio `(1 − ε/2) / (ε/2)` instead of certainty.

use crate::hash::mix64;
use crate::item::ItemId;
use crate::profile::{Profile, ProfileEntry};
use whatsup_gossip::NodeId;

/// Obfuscation policy for everything a node shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Obfuscation {
    /// Randomized-response noise level in `[0, 1]`: the probability that an
    /// entry's shared score is replaced by a coin flip. 0 = share truth.
    pub(crate) epsilon: f64,
    /// Per-node secret seeding the deterministic coins. In a deployment
    /// this is local and never shared.
    pub(crate) secret: u64,
}

impl Obfuscation {
    /// Randomized response at noise level `epsilon`.
    pub(crate) fn randomized_response(epsilon: f64, secret: u64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon is a probability");
        Self { epsilon, secret }
    }

    pub(crate) fn is_off(&self) -> bool {
        self.epsilon <= 0.0
    }

    /// The score the node *shares* for an entry (its true score, or a
    /// consistent lie).
    fn shared_score(&self, node: NodeId, item: ItemId, truth: f32) -> f32 {
        if self.is_off() {
            return truth;
        }
        // Two independent deterministic coins: replace? and flip-value.
        let h = coin(self.secret, node, item);
        let replace = (h >> 32) as f64 / u32::MAX as f64; // uniform [0,1]
        if replace >= self.epsilon {
            truth
        } else if h & 1 == 0 {
            1.0
        } else {
            0.0
        }
    }

    /// The obfuscated snapshot of a profile, as shared in gossip
    /// descriptors and folded into item profiles.
    pub(crate) fn share(&self, node: NodeId, profile: &Profile) -> Profile {
        if self.is_off() {
            return profile.clone();
        }
        Profile::from_entries(profile.entries().map(|e| ProfileEntry {
            item: e.item,
            timestamp: e.timestamp,
            score: self.shared_score(node, e.item, e.score),
        }))
    }
}

/// Deterministic per-(secret, node, item) coin: SplitMix64 avalanche.
#[inline]
fn coin(secret: u64, node: NodeId, item: ItemId) -> u64 {
    mix64(secret ^ (node as u64).rotate_left(17) ^ item.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn liked(items: &[ItemId]) -> Profile {
        Profile::from_entries(items.iter().map(|&i| ProfileEntry {
            item: i,
            timestamp: 3,
            score: 1.0,
        }))
    }

    #[test]
    fn off_is_identity() {
        let p = liked(&[1, 2, 3]);
        let o = Obfuscation::randomized_response(0.0, 0);
        assert_eq!(o.share(5, &p), p);
        assert!(o.is_off());
    }

    #[test]
    fn full_noise_flips_about_half() {
        let items: Vec<ItemId> = (0..2000).collect();
        let p = liked(&items);
        let o = Obfuscation::randomized_response(1.0, 42);
        let shared = o.share(5, &p);
        let flips = shared.entries().filter(|e| e.score < 0.5).count() as f64 / 2000.0;
        // ε = 1 flips each shared opinion with probability ε/2.
        assert!(
            (flips - 0.5).abs() < 0.05,
            "flip rate {flips} should be ≈ 0.5"
        );
    }

    #[test]
    fn lies_are_consistent_across_calls() {
        let p = liked(&(0..100).collect::<Vec<_>>());
        let o = Obfuscation::randomized_response(0.5, 7);
        assert_eq!(o.share(3, &p), o.share(3, &p), "same node shares same lies");
    }

    #[test]
    fn different_nodes_lie_differently() {
        let p = liked(&(0..200).collect::<Vec<_>>());
        let o = Obfuscation::randomized_response(0.8, 7);
        assert_ne!(o.share(3, &p), o.share(4, &p));
    }

    #[test]
    fn structure_is_preserved() {
        // Obfuscation changes scores, never the item set or timestamps.
        let p = liked(&[5, 9, 11]);
        let o = Obfuscation::randomized_response(1.0, 13);
        let s = o.share(2, &p);
        assert_eq!(s.len(), p.len());
        for (a, b) in s.entries().zip(p.entries()) {
            assert_eq!(a.item, b.item);
            assert_eq!(a.timestamp, b.timestamp);
        }
    }

    #[test]
    #[should_panic]
    fn epsilon_must_be_probability() {
        let _ = Obfuscation::randomized_response(1.5, 0);
    }

    proptest! {
        #[test]
        fn shared_scores_are_binary_for_binary_profiles(
            items in prop::collection::btree_set(0u64..500, 1..50),
            epsilon in 0.0f64..1.0,
            secret in 0u64..u64::MAX,
        ) {
            let p = liked(&items.iter().copied().collect::<Vec<_>>());
            let o = Obfuscation::randomized_response(epsilon, secret);
            let s = o.share(1, &p);
            for e in s.entries() {
                prop_assert!(e.score == 0.0 || e.score == 1.0);
            }
        }

        #[test]
        fn flip_rate_scales_with_epsilon(secret in 0u64..1000) {
            let items: Vec<ItemId> = (0..1500).collect();
            let p = liked(&items);
            let lo = Obfuscation::randomized_response(0.2, secret);
            let hi = Obfuscation::randomized_response(0.9, secret);
            let flips = |o: &Obfuscation| {
                o.share(1, &p).entries().filter(|e| e.score < 0.5).count()
            };
            prop_assert!(flips(&hi) > flips(&lo));
        }
    }
}
