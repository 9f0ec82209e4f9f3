//! Post-run analyses: overlay topology (Fig. 4 and §V-A text), recall vs
//! popularity (Fig. 10) and F1 vs sociability (Fig. 11).

use crate::engine::Simulation;
use crate::record::SimReport;

/// `(x, mean y, samples)` rows of a binned scatter.
pub type BinnedSeries = Vec<(f64, f64, u64)>;
/// `(x, y)` rows of an aggregated curve.
pub type MeanSeries = Vec<(f64, f64)>;
use whatsup_datasets::Dataset;
use whatsup_graph::clustering::average_clustering;
use whatsup_graph::components::weakly_connected_components;
use whatsup_graph::scc::tarjan_scc;
use whatsup_metrics::hist::BinnedMean;

/// Topology numbers the paper quotes for the WUP overlay (§V-A, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayStats {
    /// Fraction of nodes in the largest strongly connected component.
    pub lscc_fraction: f64,
    /// Number of weakly connected components.
    pub components: usize,
    /// Average clustering coefficient (undirected view).
    pub clustering_coefficient: f64,
}

/// Computes the overlay stats of a running simulation's WUP graph.
pub fn overlay_stats(sim: &Simulation) -> OverlayStats {
    let g = sim.wup_overlay();
    let scc = tarjan_scc(&g);
    OverlayStats {
        lscc_fraction: scc.largest_fraction(),
        components: weakly_connected_components(&g),
        clustering_coefficient: average_clustering(&g),
    }
}

/// Fig. 10: mean recall per item-popularity bin plus the popularity
/// distribution. Returns `(rows, distribution)` where `rows` is
/// `(popularity bin center, mean recall, items)`.
pub fn recall_vs_popularity(
    report: &SimReport,
    dataset: &Dataset,
    bins: usize,
) -> (BinnedSeries, MeanSeries) {
    let mut bm = BinnedMean::new(0.0, 1.0, bins);
    for rec in report.items.iter().filter(|r| r.measured) {
        let popularity = dataset.likes.popularity(rec.index as usize);
        bm.record(popularity, rec.outcome().recall());
    }
    (bm.rows(), bm.distribution())
}

/// Fig. 11: mean per-user F1 per sociability bin plus the sociability
/// distribution. Sociability of a user = mean ground-truth similarity to
/// her `k` most similar users (§V-H; the paper uses k = 15).
pub fn f1_vs_sociability(
    report: &SimReport,
    dataset: &Dataset,
    k: usize,
    bins: usize,
) -> (BinnedSeries, MeanSeries) {
    let mut bm = BinnedMean::new(0.0, 1.0, bins);
    for (u, ir) in report.per_node.iter().enumerate().take(dataset.n_users()) {
        let sociability = dataset.likes.sociability(u, k);
        bm.record(sociability, ir.scores().f1);
    }
    (bm.rows(), bm.distribution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protocol, SimConfig};
    use whatsup_datasets::{survey, SurveyConfig};

    fn setup() -> (Dataset, SimReport, OverlayStats) {
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 5);
        let cfg = SimConfig {
            cycles: 18,
            publish_from: 2,
            measure_from: 6,
            ..Default::default()
        };
        let mut sim = crate::Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg)
            .build();
        while sim.current_cycle() < 18 {
            sim.step();
        }
        // Overlay stats read the live simulation; the report consumes it
        // (records move out, nothing is cloned).
        let stats = overlay_stats(&sim);
        let report = sim.into_report();
        (d, report, stats)
    }

    #[test]
    fn overlay_stats_are_consistent() {
        let (_, _, s) = setup();
        assert!(s.lscc_fraction > 0.0 && s.lscc_fraction <= 1.0);
        assert!(s.components >= 1);
        assert!((0.0..=1.0).contains(&s.clustering_coefficient));
    }

    #[test]
    fn popularity_rows_cover_items() {
        let (d, report, _) = setup();
        let (rows, dist) = recall_vs_popularity(&report, &d, 10);
        assert!(!rows.is_empty());
        let total: u64 = rows.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total as usize, report.measured_items());
        let mass: f64 = dist.iter().map(|&(_, f)| f).sum();
        assert!((mass - 1.0).abs() < 1e-9);
        for &(_, recall, _) in &rows {
            assert!((0.0..=1.0).contains(&recall));
        }
    }

    #[test]
    fn sociability_rows_cover_users() {
        let (d, report, _) = setup();
        let (rows, _) = f1_vs_sociability(&report, &d, 15, 10);
        let total: u64 = rows.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total as usize, d.n_users());
    }
}
