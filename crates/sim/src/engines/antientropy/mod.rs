//! Scuttlebutt anti-entropy with phi-accrual failure detection.
//!
//! The modern point of comparison the ROADMAP asks for: instead of BEEP's
//! push gossip with hard crash timeouts, every node keeps a *versioned
//! replica* of the whole population's state (heartbeat, profile digest,
//! owned news keys — one monotone version counter per owner) and
//! reconciles it pairwise, Cassandra/chitchat style:
//!
//! 1. **Syn** — the initiator sends a compact digest: per known node, the
//!    highest `(incarnation, version)` it holds.
//! 2. **SynAck** — the responder answers with a delta (entries strictly
//!    newer than the digest, greedily packed to
//!    [`crate::config::SimConfig::datagram_budget`] bytes) plus its own
//!    digest.
//! 3. **Ack** — the initiator closes with the delta the responder's digest
//!    asks for.
//!
//! Partial deltas are first-class: entries for one owner are always packed
//! in ascending version order, so a budget-truncated exchange leaves the
//! receiver's per-owner maximum at a resumable point and repeated rounds
//! converge (property-tested in `crates/sim/tests/antientropy.rs`).
//!
//! **Failure detection** is phi-accrual instead of a hard timeout: each
//! node tracks, per peer, the history of cycles between *observed
//! heartbeat advances* (an advance arrives through any gossip path) and
//! computes `φ = log10-scale suspicion = 0.434 · staleness / mean
//! interval`. A peer is suspected when φ exceeds
//! [`crate::config::SimConfig::phi_threshold`]; suspected peers are
//! excluded from partner selection until a fresh heartbeat clears them.
//! Crashed nodes stay dark for [`crate::config::SimConfig::down_cycles`]
//! cycles and rejoin with a bumped incarnation (the node engine's instant
//! resets would leave φ nothing to detect).
//!
//! News dissemination rides the same reconciliation: publishing inserts a
//! versioned *news key* into the source's own record, and the key reaches
//! every node through anti-entropy. `ItemRecord::news_sent` therefore
//! counts news-key entries packed into emitted deltas (lost datagrams
//! included), while `gossip_messages` counts the datagrams themselves —
//! news keys travel *inside* gossip datagrams, not as separate frames.
//!
//! The engine runs under the full scenario grid (crash waves, mass joins,
//! Gilbert–Elliott loss, partitions, timeline events, measurement
//! windows): every environment draw is `crate::environment`'s and the
//! report comes out of the shared `crate::record` ledger, so a scenario
//! means here what it means under BEEP; reports are bit-identical across
//! repeated runs.

pub mod delta;
pub mod digest;
pub mod engine;
pub(crate) mod phi;
pub mod state;

pub(crate) use engine::run_scenario;
pub use engine::{run_with_detection, DetectionReport};
