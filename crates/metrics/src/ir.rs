//! Information-retrieval metrics: precision, recall and F1-Score (paper §IV-C).
//!
//! For a news item, with `I` the set of interested users and `R` the set of
//! reached users (users that received the item, excluding its source):
//!
//! ```text
//! precision = |I ∩ R| / |R|        (accuracy: did we spam anyone?)
//! recall    = |I ∩ R| / |I|        (completeness: did we miss anyone?)
//! F1        = 2·p·r / (p + r)      (harmonic mean)
//! ```
//!
//! The paper plots averages over all disseminated items; [`IrAggregate`]
//! supports both *micro* averaging (pooling counts, used for headline
//! numbers) and *macro* averaging (mean of per-item scores, used in the
//! per-item breakdowns of Figs. 10–11).

/// Raw dissemination outcome for one news item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ItemOutcome {
    /// Number of users interested in the item (would click *like*).
    pub interested: usize,
    /// Number of users that received the item (excluding the source).
    pub reached: usize,
    /// Number of interested users among the reached ones.
    pub hits: usize,
}

impl ItemOutcome {
    /// Builds an outcome, checking the IR invariants in debug builds.
    pub fn new(interested: usize, reached: usize, hits: usize) -> Self {
        debug_assert!(hits <= reached, "hits cannot exceed reached");
        debug_assert!(hits <= interested, "hits cannot exceed interested");
        Self {
            interested,
            reached,
            hits,
        }
    }

    /// Precision of this item's dissemination; 0 when nothing was reached.
    pub fn precision(&self) -> f64 {
        ratio(self.hits, self.reached)
    }

    /// Recall of this item's dissemination; 0 when nobody is interested.
    pub fn recall(&self) -> f64 {
        ratio(self.hits, self.interested)
    }

    /// F1-Score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        f1(self.precision(), self.recall())
    }

    /// Scores bundle for this single item.
    pub fn scores(&self) -> IrScores {
        IrScores {
            precision: self.precision(),
            recall: self.recall(),
            f1: self.f1(),
        }
    }
}

/// A precision/recall/F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IrScores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl IrScores {
    /// Builds the triple from precision and recall, deriving F1.
    pub fn from_pr(precision: f64, recall: f64) -> Self {
        Self {
            precision,
            recall,
            f1: f1(precision, recall),
        }
    }
}

/// Accumulates [`ItemOutcome`]s over a workload: the item count and the
/// three counts pooled as each outcome is pushed.
#[derive(Debug, Clone, Default)]
pub struct IrAggregate {
    items: usize,
    hits: usize,
    reached: usize,
    interested: usize,
}

impl IrAggregate {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of one item's dissemination.
    pub fn push(&mut self, outcome: ItemOutcome) {
        self.items += 1;
        self.hits += outcome.hits;
        self.reached += outcome.reached;
        self.interested += outcome.interested;
    }

    /// Number of items recorded.
    pub fn len(&self) -> usize {
        self.items
    }

    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Micro-averaged scores: counts are pooled across items before dividing,
    /// so items reaching many users weigh proportionally more. This matches
    /// the headline precision/recall numbers of the paper's tables.
    pub fn micro(&self) -> IrScores {
        let precision = ratio(self.hits, self.reached);
        let recall = ratio(self.hits, self.interested);
        IrScores {
            precision,
            recall,
            f1: f1(precision, recall),
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Harmonic mean of precision and recall; 0 when both are 0.
pub fn f1(precision: f64, recall: f64) -> f64 {
    let s = precision + recall;
    if s <= 0.0 {
        0.0
    } else {
        2.0 * precision * recall / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_dissemination() {
        let o = ItemOutcome::new(10, 10, 10);
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 1.0);
        assert_eq!(o.f1(), 1.0);
    }

    #[test]
    fn flooding_has_low_precision_full_recall() {
        // 100 users reached, only 35 interested: precision = like rate.
        let o = ItemOutcome::new(35, 100, 35);
        assert!((o.precision() - 0.35).abs() < 1e-12);
        assert_eq!(o.recall(), 1.0);
    }

    #[test]
    fn unreached_item_scores_zero() {
        let o = ItemOutcome::new(12, 0, 0);
        assert_eq!(o.precision(), 0.0);
        assert_eq!(o.recall(), 0.0);
        assert_eq!(o.f1(), 0.0);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let s = IrScores::from_pr(0.5, 1.0);
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn micro_pools_counts() {
        let mut agg = IrAggregate::new();
        agg.push(ItemOutcome::new(10, 20, 10)); // p=0.5 r=1.0
        agg.push(ItemOutcome::new(10, 0, 0)); // lost item
        let micro = agg.micro();
        assert!((micro.precision - 0.5).abs() < 1e-12);
        assert!((micro.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = IrAggregate::new();
        assert_eq!(agg.micro(), IrScores::default());
    }
}
