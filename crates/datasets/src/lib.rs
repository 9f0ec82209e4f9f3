//! Workload synthesis for the WhatsUp reproduction (paper §IV-A).
//!
//! The paper evaluates on three traces we cannot redistribute or re-crawl:
//!
//! 1. a **synthetic** trace derived from the Arxiv collaboration graph — 21
//!    disjoint interest communities of 31–1036 users (3180 total), ~2000
//!    items, 120 per community;
//! 2. a **Digg** crawl — 750 users, 2500 items in 40 categories, plus the
//!    explicit follower graph used by the cascade baseline;
//! 3. a **user survey** — 120 colleagues rating 200 RSS items, replicated ×4
//!    (Table I lists 480 users / 1000 items).
//!
//! Every experiment consumes nothing but the *like matrix* (who would like
//! what), the item→category map, the item sources, and (for Digg) the social
//! graph. The generators here synthesize those objects with the same
//! first-order statistics (community structure, mean like rate, popularity
//! skew, hub-dominated follower graph), which is what preserves the paper's
//! qualitative results (PAPER.md; workloads: paper §IV-A, Table I).
//!
//! All generators are deterministic given a seed.

pub mod digg;
pub mod matrix;
pub mod spec;
pub mod survey;
pub mod synthetic;

pub use digg::DiggConfig;
pub use matrix::LikeMatrix;
pub use spec::{Dataset, DatasetStats, ItemSpec};
pub use survey::SurveyConfig;
pub use synthetic::SyntheticConfig;

/// The three paper workloads at a given scale factor (1.0 = paper scale).
/// Scale shrinks users and items proportionally — the `paper` bench harness
/// runs at 0.35 by default and takes `--scale 1.0` for the paper's sizes.
pub fn paper_workloads(scale: f64, seed: u64) -> Vec<Dataset> {
    vec![
        synthetic::generate(&SyntheticConfig::paper().scaled(scale), seed),
        digg::generate(&DiggConfig::paper().scaled(scale), seed ^ 0x5eed_0001),
        survey::generate(&SurveyConfig::paper().scaled(scale), seed ^ 0x5eed_0002),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_have_expected_names() {
        let sets = paper_workloads(0.1, 7);
        let names: Vec<&str> = sets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["synthetic", "digg", "survey"]);
    }

    #[test]
    fn scaling_shrinks_users() {
        let small = paper_workloads(0.1, 7);
        let smaller = paper_workloads(0.05, 7);
        for (a, b) in small.iter().zip(&smaller) {
            assert!(b.n_users() <= a.n_users());
        }
    }
}
