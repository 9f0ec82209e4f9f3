//! Networked WhatsUp: the deployment side of the reproduction (paper §V-D/F).
//!
//! The paper evaluates its Java prototype on a ModelNet-emulated cluster and
//! on PlanetLab. This crate provides the equivalents:
//!
//! * [`codec`] — a compact binary wire format. News items travel as content
//!   (title/description/link); the 8-byte id is *computed* by receivers, as
//!   §II-A specifies. Encoded sizes drive the bandwidth accounting of
//!   Fig. 8b.
//! * [`emulator`] — a ModelNet-like fabric: every peer is a thread, messages
//!   flow through a router thread that applies per-link latency, iid loss
//!   and in-order delivery. This is the "cluster" testbed.
//! * [`runtime`] — a real UDP swarm on the loopback interface, one socket
//!   per peer, with receive-side loss injection standing in for PlanetLab's
//!   flaky wide-area links.
//! * [`peer`] — the shared peer event loop (`whatsup-core`'s sans-io node +
//!   codec + traffic accounting) used by both fabrics.
//! * [`swarm`] — experiment configuration and the report both fabrics
//!   produce (delivery quality + per-protocol bandwidth).
//!
//! Both fabrics run the *same* protocol implementation as the simulator —
//! `whatsup_core::WhatsUpNode` — so differences in results come from the
//! transport, not from reimplementation drift (this is what Fig. 8a checks).

pub mod codec;
pub mod emulator;
pub mod peer;
pub mod runtime;
pub mod stats;
pub mod swarm;

pub use codec::WireMessage;
pub use emulator::EmulatorConfig;
pub use runtime::UdpConfig;
pub use stats::TrafficStats;
pub use swarm::{SwarmConfig, SwarmReport};

/// Locks `m` whether or not a peer thread panicked while holding it: every
/// update under these locks is a single push or clone, so the data is
/// valid at every step and one dead peer must not take the swarm's
/// delivery log (or the next test) down with it.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Swarm runs are wall-clock sensitive (hundreds of peer threads ticking on
/// real timers); concurrent swarm tests starve each other's schedulers and
/// produce bogus delivery numbers. Every test that spins up a swarm holds
/// this lock for its full duration.
#[cfg(test)]
pub(crate) mod test_support {
    pub static SWARM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
