//! Per-cycle measurement series and the windowed/recovery aggregates
//! derived from them.
//!
//! The simulator's dynamic scenarios (crash waves, partition windows,
//! flash crowds) are invisible in a single end-of-run aggregate; news
//! recommendation is a *temporal* problem. A [`CycleSeries`] is the
//! time-resolved counterpart: one [`CycleStats`] row per gossip cycle,
//! carrying the raw counters everything else is derived from — first
//! receptions, hits, ground-truth interest at publication, message
//! traffic, population. Because every epidemic completes within its
//! publication cycle, pooling the counters of one cycle yields that
//! cycle's exact micro-averaged precision/recall, and pooling a window of
//! cycles yields the window's aggregate.
//!
//! [`CycleSeries::recovery`] turns the series into per-event recovery
//! metrics: given an anchor cycle (a crash wave firing, a partition
//! closing) and a pre-event baseline span, it reports how deep recall
//! dipped, when (if ever) it recovered to the baseline, and how many
//! messages the network spent getting there.
//!
//! Everything here is integer sums and ratios of them, folded in a fixed
//! order — a series built from deterministic counters is itself
//! bit-deterministic, which is what lets the engine promise bit-identical
//! time series across shard counts and transports.

use crate::ir::IrScores;

/// Raw measurement counters of one gossip cycle (or a pooled window of
/// cycles — the counters are additive, except `live_nodes`, which pooling
/// takes from the *last* cycle of the window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// First receptions among this cycle's published items (every item's
    /// epidemic completes within its publication cycle).
    pub first_receptions: u64,
    /// Liked first receptions.
    pub hits: u64,
    /// Ground-truth interested nodes (excluding sources) summed over the
    /// items published this cycle.
    pub interested: u64,
    /// News (dissemination) messages emitted this cycle, lost ones
    /// included.
    pub news_sent: u64,
    /// Gossip-layer (RPS + WUP) messages emitted this cycle.
    pub gossip_sent: u64,
    /// Population at the end of the cycle.
    pub live_nodes: u64,
    /// Nodes that crashed and rejoined fresh during the cycle.
    pub crashed: u64,
}

impl CycleStats {
    /// Adds another cycle's (or shard's) counters into this one.
    /// `live_nodes` sums too: shards report disjoint node ranges, so the
    /// fold across shards yields the population.
    pub fn merge(&mut self, other: &CycleStats) {
        self.first_receptions += other.first_receptions;
        self.hits += other.hits;
        self.interested += other.interested;
        self.news_sent += other.news_sent;
        self.gossip_sent += other.gossip_sent;
        self.live_nodes += other.live_nodes;
        self.crashed += other.crashed;
    }

    /// Micro-averaged precision/recall/F1 of the pooled counters.
    pub fn scores(&self) -> IrScores {
        let precision = ratio(self.hits, self.first_receptions);
        let recall = ratio(self.hits, self.interested);
        IrScores::from_pr(precision, recall)
    }

    /// Pooled recall, `None` when nothing was published (recall of an
    /// empty workload is undefined, not zero).
    pub fn recall(&self) -> Option<f64> {
        (self.interested > 0).then(|| ratio(self.hits, self.interested))
    }

    /// Pooled precision, `None` when nothing was received.
    pub fn precision(&self) -> Option<f64> {
        (self.first_receptions > 0).then(|| ratio(self.hits, self.first_receptions))
    }

    /// Total message traffic (news + gossip).
    pub fn messages(&self) -> u64 {
        self.news_sent + self.gossip_sent
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-cycle time series of one run: `cycles()[c]` holds cycle `c`'s
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleSeries {
    cycles: Vec<CycleStats>,
}

impl CycleSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next cycle's folded counters.
    pub fn push(&mut self, stats: CycleStats) {
        self.cycles.push(stats);
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// All recorded cycles, index = cycle number.
    pub fn cycles(&self) -> &[CycleStats] {
        &self.cycles
    }

    /// Cycle `c`'s counters, if recorded.
    pub fn get(&self, cycle: u32) -> Option<&CycleStats> {
        self.cycles.get(cycle as usize)
    }

    /// Pools the counters of the half-open cycle window `[from, until)`
    /// (clamped to the recorded range). `live_nodes` is taken from the
    /// last cycle of the window — populations do not add up over time.
    pub fn pooled(&self, from: u32, until: u32) -> CycleStats {
        let until = (until as usize).min(self.cycles.len());
        let from = (from as usize).min(until);
        let mut pooled = CycleStats::default();
        for stats in &self.cycles[from..until] {
            pooled.merge(stats);
            pooled.live_nodes = stats.live_nodes;
        }
        pooled
    }

    /// Recovery metrics around an event at cycle `anchor`.
    ///
    /// The pre-event baseline is the pooled recall over the
    /// `baseline_cycles` cycles right before the anchor (cycles without
    /// publications contribute nothing). Scanning forward from the anchor,
    /// the dip is the lowest per-cycle recall seen before recovery, and
    /// recovery is the first cycle whose recall reaches the baseline
    /// again; cycles without publications cannot recover (recall is
    /// undefined there) but their message traffic still counts as spent.
    ///
    /// Returns `None` when the anchor lies outside the series or no
    /// publication precedes it (no baseline to recover to).
    pub fn recovery(&self, anchor: u32, baseline_cycles: u32) -> Option<RecoveryMetrics> {
        if (anchor as usize) >= self.cycles.len() {
            return None;
        }
        let base = self.pooled(anchor.saturating_sub(baseline_cycles), anchor);
        let baseline_recall = base.recall()?;
        let mut dip_recall = baseline_recall;
        let mut dip_cycle = anchor;
        let mut recovered_at = None;
        let mut messages_spent = 0u64;
        for (c, stats) in self.cycles.iter().enumerate().skip(anchor as usize) {
            messages_spent += stats.messages();
            if let Some(r) = stats.recall() {
                if r < dip_recall {
                    dip_recall = r;
                    dip_cycle = c as u32;
                }
                if r >= baseline_recall {
                    recovered_at = Some(c as u32);
                    break;
                }
            }
        }
        Some(RecoveryMetrics {
            anchor,
            baseline_recall,
            dip_depth: baseline_recall - dip_recall,
            dip_cycle,
            recovered_at,
            messages_spent,
        })
    }
}

impl FromIterator<CycleStats> for CycleSeries {
    fn from_iter<I: IntoIterator<Item = CycleStats>>(iter: I) -> Self {
        Self {
            cycles: iter.into_iter().collect(),
        }
    }
}

/// How one event played out: dip depth, time to recover, messages spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryMetrics {
    /// The event cycle the window is anchored to.
    pub anchor: u32,
    /// Pooled recall over the baseline cycles before the anchor.
    pub baseline_recall: f64,
    /// Baseline recall minus the lowest per-cycle recall seen before
    /// recovery (0 when recall never dipped below the baseline).
    pub dip_depth: f64,
    /// Cycle of that lowest recall (the anchor itself when no dip).
    pub dip_cycle: u32,
    /// First cycle at/after the anchor whose recall reached the baseline
    /// again; `None` when the run ended still below it.
    pub recovered_at: Option<u32>,
    /// Messages (news + gossip) sent from the anchor through the recovery
    /// cycle (or through the end of the run when it never recovered).
    pub messages_spent: u64,
}

impl RecoveryMetrics {
    /// Cycles from the anchor until recall was back at the baseline.
    pub fn time_to_recover(&self) -> Option<u32> {
        self.recovered_at.map(|c| c - self.anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, interested: u64, news: u64, gossip: u64) -> CycleStats {
        CycleStats {
            first_receptions: hits + 2,
            hits,
            interested,
            news_sent: news,
            gossip_sent: gossip,
            live_nodes: 100,
            crashed: 0,
        }
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = stats(5, 10, 20, 30);
        a.merge(&stats(3, 6, 10, 10));
        assert_eq!(a.hits, 8);
        assert_eq!(a.interested, 16);
        assert_eq!(a.messages(), 70);
        assert_eq!(a.live_nodes, 200, "shards report disjoint populations");
    }

    #[test]
    fn scores_pool_counts() {
        let s = stats(5, 10, 0, 0); // 7 received, 5 hits, 10 interested
        let scores = s.scores();
        assert!((scores.precision - 5.0 / 7.0).abs() < 1e-12);
        assert!((scores.recall - 0.5).abs() < 1e-12);
        assert_eq!(s.recall(), Some(0.5));
        assert_eq!(CycleStats::default().recall(), None);
        assert_eq!(CycleStats::default().precision(), None);
        assert_eq!(CycleStats::default().scores(), IrScores::default());
    }

    #[test]
    fn pooled_clamps_and_keeps_last_population() {
        let series: CycleSeries = [stats(1, 2, 5, 5), stats(3, 4, 5, 5), stats(0, 0, 1, 1)]
            .into_iter()
            .collect();
        let w = series.pooled(0, 2);
        assert_eq!(w.hits, 4);
        assert_eq!(w.interested, 6);
        assert_eq!(w.live_nodes, 100);
        // Clamped past the end; empty window is all-zero.
        assert_eq!(series.pooled(1, 99).hits, 3);
        assert_eq!(series.pooled(5, 9), CycleStats::default());
    }

    fn recall_series(recalls: &[Option<(u64, u64)>]) -> CycleSeries {
        // Each entry: Some((hits, interested)) or None for a quiet cycle.
        recalls
            .iter()
            .map(|r| match r {
                Some((h, i)) => CycleStats {
                    first_receptions: *h,
                    hits: *h,
                    interested: *i,
                    news_sent: 10,
                    gossip_sent: 10,
                    live_nodes: 50,
                    crashed: 0,
                },
                None => CycleStats {
                    gossip_sent: 10,
                    live_nodes: 50,
                    ..CycleStats::default()
                },
            })
            .collect()
    }

    #[test]
    fn recovery_finds_dip_and_return() {
        // Baseline recall 0.8 (cycles 0-1), dip to 0.2 at cycle 2, back to
        // 0.9 ≥ 0.8 at cycle 4.
        let series = recall_series(&[
            Some((8, 10)),
            Some((8, 10)),
            Some((2, 10)),
            Some((5, 10)),
            Some((9, 10)),
            Some((9, 10)),
        ]);
        let r = series.recovery(2, 2).expect("baseline exists");
        assert!((r.baseline_recall - 0.8).abs() < 1e-12);
        assert!((r.dip_depth - 0.6).abs() < 1e-12);
        assert_eq!(r.dip_cycle, 2);
        assert_eq!(r.recovered_at, Some(4));
        assert_eq!(r.time_to_recover(), Some(2));
        // Cycles 2, 3 and 4: 20 messages each.
        assert_eq!(r.messages_spent, 60);
    }

    #[test]
    fn recovery_may_never_happen() {
        let series = recall_series(&[Some((9, 10)), Some((1, 10)), Some((2, 10))]);
        let r = series.recovery(1, 1).expect("baseline exists");
        assert_eq!(r.recovered_at, None);
        assert_eq!(r.time_to_recover(), None);
        assert!((r.dip_depth - 0.8).abs() < 1e-12);
        assert_eq!(r.messages_spent, 40, "spent through the end of the run");
    }

    #[test]
    fn recovery_skips_quiet_cycles_but_counts_their_traffic() {
        let series = recall_series(&[Some((8, 10)), None, None, Some((8, 10))]);
        let r = series.recovery(1, 1).expect("baseline exists");
        assert_eq!(r.recovered_at, Some(3));
        assert_eq!(r.dip_depth, 0.0);
        assert_eq!(r.dip_cycle, 1, "no dip: the anchor stands in");
        // Two quiet cycles at 10 msgs + the recovery cycle at 20.
        assert_eq!(r.messages_spent, 40);
    }

    #[test]
    fn recovery_needs_a_baseline_and_an_in_range_anchor() {
        let series = recall_series(&[None, Some((5, 10))]);
        assert!(series.recovery(1, 1).is_none(), "quiet baseline window");
        assert!(series.recovery(9, 2).is_none(), "anchor past the end");
        assert!(CycleSeries::new().recovery(0, 1).is_none());
    }

    #[test]
    fn immediate_recovery_has_zero_dip() {
        let series = recall_series(&[Some((8, 10)), Some((9, 10))]);
        let r = series.recovery(1, 1).expect("baseline exists");
        assert_eq!(r.recovered_at, Some(1));
        assert_eq!(r.time_to_recover(), Some(0));
        assert_eq!(r.dip_depth, 0.0);
    }
}
