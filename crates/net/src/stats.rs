//! Per-protocol traffic accounting (Fig. 8b: WUP vs BEEP bandwidth).

use std::sync::atomic::{AtomicU64, Ordering};
use whatsup_core::message::PayloadKind;

/// Thread-safe byte/message counters, one set per protocol family.
/// Shared across all peers of a swarm via `Arc`.
#[derive(Debug, Default)]
pub struct TrafficStats {
    rps_bytes: AtomicU64,
    wup_bytes: AtomicU64,
    news_bytes: AtomicU64,
    rps_msgs: AtomicU64,
    wup_msgs: AtomicU64,
    news_msgs: AtomicU64,
}

impl TrafficStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of `kind` with the given encoded size.
    pub fn record(&self, kind: PayloadKind, bytes: usize) {
        let (b, m) = match kind {
            PayloadKind::Rps => (&self.rps_bytes, &self.rps_msgs),
            PayloadKind::Wup => (&self.wup_bytes, &self.wup_msgs),
            PayloadKind::News => (&self.news_bytes, &self.news_msgs),
        };
        b.fetch_add(bytes as u64, Ordering::Relaxed);
        m.fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable snapshot of the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            rps_bytes: self.rps_bytes.load(Ordering::Relaxed),
            wup_bytes: self.wup_bytes.load(Ordering::Relaxed),
            news_bytes: self.news_bytes.load(Ordering::Relaxed),
            rps_msgs: self.rps_msgs.load(Ordering::Relaxed),
            wup_msgs: self.wup_msgs.load(Ordering::Relaxed),
            news_msgs: self.news_msgs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data traffic totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    pub rps_bytes: u64,
    pub wup_bytes: u64,
    pub news_bytes: u64,
    pub rps_msgs: u64,
    pub wup_msgs: u64,
    pub news_msgs: u64,
}

impl TrafficSnapshot {
    pub fn total_bytes(&self) -> u64 {
        self.rps_bytes + self.wup_bytes + self.news_bytes
    }

    pub fn total_msgs(&self) -> u64 {
        self.rps_msgs + self.wup_msgs + self.news_msgs
    }

    /// Gossip-overlay bytes (the paper groups RPS under WUP maintenance).
    pub fn wup_layer_bytes(&self) -> u64 {
        self.rps_bytes + self.wup_bytes
    }

    /// Average consumed bandwidth in Kbps per node over `secs` seconds —
    /// the Fig. 8b y-axis.
    pub fn kbps_per_node(bytes: u64, nodes: usize, secs: f64) -> f64 {
        if nodes == 0 || secs <= 0.0 {
            return 0.0;
        }
        (bytes as f64 * 8.0 / 1000.0) / nodes as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_kind() {
        let s = TrafficStats::new();
        s.record(PayloadKind::Rps, 100);
        s.record(PayloadKind::Wup, 200);
        s.record(PayloadKind::News, 50);
        s.record(PayloadKind::News, 50);
        let snap = s.snapshot();
        assert_eq!(snap.rps_bytes, 100);
        assert_eq!(snap.wup_bytes, 200);
        assert_eq!(snap.news_bytes, 100);
        assert_eq!(snap.news_msgs, 2);
        assert_eq!(snap.total_bytes(), 400);
        assert_eq!(snap.total_msgs(), 4);
        assert_eq!(snap.wup_layer_bytes(), 300);
    }

    #[test]
    fn kbps_math() {
        // 1000 bytes over 1s across 1 node = 8 kbit/s / 1000 = 8 Kbps.
        let v = TrafficSnapshot::kbps_per_node(1000, 1, 1.0);
        assert!((v - 8.0).abs() < 1e-12);
        assert_eq!(TrafficSnapshot::kbps_per_node(1000, 0, 1.0), 0.0);
        assert_eq!(TrafficSnapshot::kbps_per_node(1000, 1, 0.0), 0.0);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(TrafficStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record(PayloadKind::News, 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().news_msgs, 8000);
        assert_eq!(s.snapshot().news_bytes, 80_000);
    }
}
