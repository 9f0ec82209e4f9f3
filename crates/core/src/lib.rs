//! # whatsup-core
//!
//! Sans-io implementation of the WhatsUp decentralized instant news
//! recommender (Boutet, Frey, Guerraoui, Jégou, Kermarrec — IPDPS 2013):
//!
//! * **WUP** (§II): an implicit social network. Every node runs a random
//!   peer sampling layer and a similarity-clustering layer (from
//!   `whatsup-gossip`) whose descriptors carry *user profiles* — vectors of
//!   (item, timestamp, like/dislike) opinions. The clustering layer ranks
//!   candidates with the asymmetric [WUP similarity
//!   metric](similarity::wup_similarity).
//! * **BEEP** (§III): a biased epidemic dissemination protocol. Liked items
//!   are *amplified* — forwarded to `fLIKE` random WUP neighbors; disliked
//!   items are *oriented* — forwarded to the single RPS neighbor whose
//!   profile is closest to the item's aggregated *item profile*, at most
//!   `TTL` times.
//!
//! The central type is [`node::WhatsUpNode`]: a pure state machine that maps
//! input events (cycle ticks, received messages, publications) to output
//! messages. It performs no I/O and draws all randomness from a caller-
//! provided RNG, so the deterministic simulator (`whatsup-sim`) and the real
//! network runtimes (`whatsup-net`) share every line of protocol logic.
//!
//! ```
//! use whatsup_core::prelude::*;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let item = NewsItem::new("hello", "a first item", "https://example.org", 0, 0);
//! // The run's item index: every item id, numbered densely, one `Arc`
//! // shared by all the nodes of the run.
//! let items = Arc::new(ItemIndexMap::from_iter([(item.id(), 0)]));
//! let params = Params::default();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut alice = WhatsUpNode::new(0, params.clone(), Arc::clone(&items));
//! let mut bob = WhatsUpNode::new(1, params, items);
//! // Introduce them to each other (RPS and WUP views).
//! alice.seed_views([(1, Profile::new())], [(1, Profile::new())]);
//! bob.seed_views([(0, Profile::new())], [(0, Profile::new())]);
//!
//! let mut stats = NodeStats::default(); // counters live with the caller
//! let out = alice.publish(&item, 0, &mut stats, &mut rng);
//! assert!(!out.is_empty()); // the item leaves Alice immediately
//!
//! // Bob receives it and reacts according to his opinions (here: likes all).
//! let everyone_likes = |_node: NodeId, _item: ItemId| true;
//! let forwards = bob.on_message(0, out[0].payload.clone(), 0, &everyone_likes, &mut stats, &mut rng);
//! assert!(bob.profile().contains(item.id()));
//! # let _ = forwards;
//! ```

pub mod beep;
pub mod bootstrap;
pub mod hash;
pub mod item;
pub mod message;
pub mod node;
pub(crate) mod obfuscation;
pub mod params;
mod planes;
pub mod profile;
pub mod seen;
pub mod similarity;

/// Convenient re-exports of the whole public surface.
pub mod prelude {
    pub use crate::beep::BeepConfig;
    pub use crate::bootstrap::ColdStart;
    pub use crate::hash::fnv1a64;
    pub use crate::item::{ItemHeader, ItemId, ItemIndexMap, NewsItem, Timestamp};
    pub use crate::message::{NewsMessage, OutMessage, Payload};
    pub use crate::node::{NodeState, NodeStats, Opinions, WhatsUpNode};
    pub use crate::params::Params;
    pub use crate::profile::{Profile, ProfileEntry, SharedProfile};
    pub use crate::seen::SeenSet;
    pub use crate::similarity::{cosine_similarity, wup_similarity, Metric};
    pub use whatsup_gossip::{Descriptor, NodeId, RpsConfig, View};
}

pub use prelude::*;
