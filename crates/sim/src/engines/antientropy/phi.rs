//! Phi-accrual failure detection (Hayashibara et al.) in cycle units.
//!
//! Every node keeps, per peer, the cycles between *observed heartbeat
//! advances* — an advance is seeing a strictly newer `(incarnation,
//! heartbeat version)` for the peer through any gossip path. Suspicion is
//! continuous: `φ = -log10 P(staleness)` under an exponential
//! inter-arrival model, i.e. `φ = 0.434 · staleness / mean interval`.
//! The caller compares φ against a threshold; nothing here is a hard
//! timeout, so a slow-but-alive peer accrues suspicion smoothly and a
//! single fresh heartbeat clears it.

use whatsup_core::NodeId;

/// log10(e): converts the exponential tail exponent to φ's log10 scale.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Inter-arrival samples kept per peer (chitchat uses a sliding window
/// too; a short one adapts quickly after churn).
const WINDOW: usize = 8;

/// Per-peer arrival history inside one observer.
#[derive(Debug, Clone, Default)]
struct PeerHistory {
    /// Highest `(incarnation, heartbeat version)` observed.
    last_seen: (u32, u64),
    /// Cycle of the last observed advance.
    last_change: u32,
    /// Ring of the last [`WINDOW`] inter-arrival intervals, in cycles.
    intervals: Vec<f64>,
    next_slot: usize,
}

impl PeerHistory {
    fn record(&mut self, cycle: u32) {
        let gap = f64::from(cycle - self.last_change);
        if gap > 0.0 {
            if self.intervals.len() < WINDOW {
                self.intervals.push(gap);
            } else {
                self.intervals[self.next_slot] = gap;
            }
            self.next_slot = (self.next_slot + 1) % WINDOW;
        }
        self.last_change = cycle;
    }

    fn phi(&self, now: u32) -> f64 {
        // Under two samples there is no cadence to be suspicious against.
        if self.intervals.len() < 2 {
            return 0.0;
        }
        let mean = self.intervals.iter().sum::<f64>() / self.intervals.len() as f64;
        let staleness = f64::from(now.saturating_sub(self.last_change));
        LOG10_E * staleness / mean.max(f64::EPSILON)
    }
}

/// One node's phi-accrual detector over all of its peers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhiDetector {
    peers: Vec<PeerHistory>,
}

impl PhiDetector {
    pub(crate) fn new(n: usize) -> Self {
        PhiDetector {
            peers: vec![PeerHistory::default(); n],
        }
    }

    fn peer_mut(&mut self, peer: NodeId) -> &mut PeerHistory {
        let idx = peer as usize;
        if idx >= self.peers.len() {
            self.peers.resize(idx + 1, PeerHistory::default());
        }
        &mut self.peers[idx]
    }

    /// Feeds one observed heartbeat for `peer`. Only a strictly newer
    /// `(incarnation, version)` counts as an arrival; replays of state the
    /// observer already had do not reset staleness.
    pub(crate) fn observe(&mut self, peer: NodeId, incarnation: u32, version: u64, cycle: u32) {
        let h = self.peer_mut(peer);
        if (incarnation, version) > h.last_seen {
            h.last_seen = (incarnation, version);
            h.record(cycle);
        }
    }

    /// Current suspicion level for `peer` at `now`.
    pub(crate) fn phi(&self, peer: NodeId, now: u32) -> f64 {
        self.peers.get(peer as usize).map_or(0.0, |h| h.phi(now))
    }

    /// Whether `peer` is suspected at `now` under `threshold`.
    pub(crate) fn suspects(&self, peer: NodeId, now: u32, threshold: f64) -> bool {
        self.phi(peer, now) > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_grows_with_staleness_and_clears_on_arrival() {
        let mut d = PhiDetector::new(2);
        // Heartbeats observed every cycle for a while.
        for c in 1..=5 {
            d.observe(1, 0, c as u64, c);
        }
        assert!(d.phi(1, 5) < 0.1);
        // Staleness accrues: φ at 3 cycles > φ at 1 cycle.
        assert!(d.phi(1, 8) > d.phi(1, 6));
        assert!(d.suspects(1, 12, 1.0), "7 cycles stale at cadence 1");
        // One fresh heartbeat clears the suspicion entirely.
        d.observe(1, 0, 6, 12);
        assert!(d.phi(1, 12) < 0.1);
    }

    #[test]
    fn replays_do_not_reset_staleness() {
        let mut d = PhiDetector::new(2);
        d.observe(1, 0, 1, 1);
        d.observe(1, 0, 2, 2);
        d.observe(1, 0, 3, 3);
        let before = d.phi(1, 9);
        d.observe(1, 0, 3, 9); // same version again: not an arrival
        assert_eq!(d.phi(1, 9), before);
        // A newer incarnation at a lower version is an arrival.
        d.observe(1, 1, 1, 9);
        assert!(d.phi(1, 9) < before);
    }

    #[test]
    fn too_little_history_never_suspects() {
        let mut d = PhiDetector::new(2);
        assert!(!d.suspects(1, 50, 0.1));
        d.observe(1, 0, 1, 1);
        assert!(!d.suspects(1, 50, 0.1), "one sample is no cadence");
    }
}
