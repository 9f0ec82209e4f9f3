//! Cycle-based simulator for WhatsUp and every competitor of the paper's
//! evaluation (§IV–§V).
//!
//! The simulator follows the paper's methodology: time advances in *gossip
//! cycles*; each cycle every node runs one RPS and one WUP exchange, the
//! scheduled news items are published, and each item's epidemic completes
//! within its publication cycle (hop-indexed, so Fig. 6's hop histograms
//! fall out directly). Message loss is injected per message (§V-E).
//!
//! Protocol families:
//!
//! * [`engine::Simulation`] — node-based protocols sharing the
//!   `whatsup-core` stack: WhatsUp, WhatsUp-Cos, CF-WUP, CF-Cos and
//!   homogeneous gossip (all expressed as [`whatsup_core::Params`]).
//! * `engines::cascade` — dissemination over the explicit social graph
//!   (Digg baseline).
//! * `engines::pubsub` — C-Pub/Sub, the ideal centralized topic-based
//!   publish/subscribe.
//! * `engines::centralized` — C-WhatsUp, the centralized variant with
//!   global knowledge (§IV-B, Fig. 9).
//! * [`engines::antientropy`] — scuttlebutt anti-entropy: versioned
//!   per-node state reconciled through digest/delta exchanges packed to a
//!   datagram budget, with phi-accrual failure detection (an eventual-
//!   delivery contrast to WhatsUp's within-cycle epidemics).
//! * [`engines::swarm`] — not a simulation: the node-based protocols
//!   deployed as live peers over an emulated router or loopback UDP
//!   ([`Runner::deploy`], Fig. 8), under the same scenario, draws and
//!   report.
//!
//! Everything simulated is deterministic given a seed. There is one way to
//! run any of it: a [`Runner`] (protocol × config × [`Scenario`], any shard
//! count or transport), and one way to run many: [`runner::pool_map`], the job
//! pool behind `whatsup-sim sweep` and the `paper` bench harness. The
//! paper's figures and tables are not library surface: they are one table
//! of jobs in `crates/bench` (`cargo bench -p whatsup_bench --bench paper`),
//! with [`analysis`] holding the post-run measurements they share.

pub mod analysis;
pub mod config;
pub mod engine;
pub mod engines;
mod environment;
pub mod oracle;
pub mod record;
pub mod runner;
pub mod scenario;

pub use config::{Protocol, SimConfig, Transport};
pub use engine::exchange::Supervision;
pub use engine::Simulation;
pub use engines::swarm::{Deployment, Fabric};
pub use oracle::Oracle;
pub use record::{ItemRecord, SimReport, Summary, WindowReport, REPORT_SCHEMA_VERSION};
pub use runner::{pool_map, Runner};
pub use scenario::{Scenario, ScenarioFile};
