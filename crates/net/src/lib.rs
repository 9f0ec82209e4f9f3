//! Networked WhatsUp: the deployment side of the reproduction (paper §V-D/F).
//!
//! The paper evaluates its Java prototype on a ModelNet-emulated cluster and
//! on PlanetLab. This crate holds the pieces a deployed peer is made of:
//!
//! * [`wire`] — the workspace's one binary codec: the [`wire::Wire`] trait,
//!   its primitive impls, the [`wire_codec!`] declaration macro and the
//!   layouts of the core types that cross any wire. The simulator's shard
//!   exchange declares its frames with it too.
//! * [`codec`] — the datagram layouts built on it: gossip, news, mailbox
//!   bundles and the anti-entropy digest/delta frames. News items travel
//!   as content (title/description/link); the 8-byte id is *computed* by
//!   receivers, as §II-A specifies. Encoded sizes drive the bandwidth
//!   accounting of Fig. 8b.
//! * [`peer`] — one [`Peer`]: `whatsup-core`'s sans-io node between the
//!   codec and the traffic counters. The caller supplies its RNG and its
//!   opinions; it keeps no loss coin and no delivery log.
//! * [`link`] — the two datagram networks behind one [`Link`] trait: a
//!   ModelNet-like router thread with a latency heap, and real UDP sockets
//!   on the loopback interface.
//! * [`stats`] — per-protocol traffic accounting (Fig. 8b).
//!
//! What a run *is* — its schedule, environment, crashes and report — is
//! defined once, in `whatsup_sim`: `Runner::deploy` is the executor that
//! drives these peers over either link, under the same `Scenario`, draws
//! and ledger as the simulator. Both run the same protocol implementation
//! (`whatsup_core::WhatsUpNode`), so differences in results come from the
//! transport, not from reimplementation drift (this is what Fig. 8a
//! checks).

pub mod codec;
pub mod link;
pub mod peer;
pub mod stats;
pub mod wire;

pub use link::{Link, Router, RouterLink, UdpLink};
pub use peer::Peer;
pub use stats::{TrafficSnapshot, TrafficStats};
