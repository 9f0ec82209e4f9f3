//! Evaluation metrics for the WhatsUp reproduction.
//!
//! This crate provides the *user metrics* and *system metrics* of the paper
//! (§IV-C): precision, recall and F1-Score per news item and aggregated over a
//! workload, plus the statistical plumbing used by every experiment harness —
//! histograms, means and deviations, x/y series for the figures, and ASCII
//! table rendering for the tables.
//!
//! Everything here is plain data with no protocol knowledge, so it is reused
//! by the simulator, the network runtimes and the benchmark harnesses alike.

pub mod cycles;
pub mod hist;
pub mod ir;
pub mod series;
pub mod stats;
pub mod table;

pub use cycles::{CycleSeries, CycleStats, RecoveryMetrics};
pub use hist::Histogram;
pub use ir::{IrAggregate, IrScores, ItemOutcome};
pub use series::{Series, SeriesSet};
pub use stats::{mean, std_dev};
pub use table::TextTable;
