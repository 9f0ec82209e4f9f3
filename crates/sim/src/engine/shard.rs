//! One shard: the node states of a contiguous id range plus the phase
//! logic the driver orchestrates.
//!
//! A shard mutates only its own nodes. Everything it learns about the rest
//! of the network arrives as mailbox bundles or snapshot requests through
//! the exchange protocol, and everything it emits leaves the same way —
//! which is exactly what keeps the execution identical across shard counts
//! and transports (see the module docs of [`crate::engine`]).

use crate::engine::exchange::{
    decode, encode, ensure, wire_codec, Command, FirstReception, NewsOutcome, Outbound, Reply,
};
use crate::engine::mailbox::{decode_shard_bundle_each, MailEntry, Mailbox};
use crate::engine::partition::Partition;
use crate::engine::{node_stream, phase};
use crate::environment::{
    advance_channels, crash_coin, dropped, dropped_lazily, partition_cut, rejoin_contact,
};
use crate::oracle::Oracle;
use crate::scenario::{ChurnModel, LossModel};
use bytes::{Bytes, BytesMut};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
// lint:allow(det-map) import for the probe-only item store annotated below
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use whatsup_core::{
    ColdStart, ItemId, ItemIndexMap, NewsItem, NodeId, NodeState, NodeStats, Opinions, OutMessage,
    Params, Payload, Profile, SharedProfile, WhatsUpNode,
};
use whatsup_net::codec::{self, DecodeError};

/// Fixed-item opinion view for the news phase: one publication round
/// delivers exactly one item, so the oracle's id→index map is probed once
/// per round here instead of once per reception (millions of map lookups
/// per cycle at scale).
struct ItemOpinions<'a> {
    oracle: &'a Oracle,
    /// Dataset index of the round's item; `None` for an unknown item
    /// (outside the workload — nobody likes it).
    idx: Option<u32>,
}

impl Opinions for ItemOpinions<'_> {
    fn likes(&self, node: NodeId, _item: ItemId) -> bool {
        match self.idx {
            Some(ix) => self.oracle.likes_index(node, ix),
            None => false,
        }
    }
}

/// Which owned nodes have handled a copy of the item in flight: one bit
/// per node, set once [`WhatsUpNode::on_message`] has handled a copy from
/// another node. Every later copy to such a node is a duplicate (see
/// "Duplicates booked at the mailbox" in the engine docs). A reset clears
/// only the words it set, so it costs the nodes touched, not the shard.
#[derive(Default)]
struct Contacted {
    /// The item the bits are about; `None` after a reset.
    item: Option<ItemId>,
    words: Vec<u64>,
    /// The indices of the non-zero words.
    touched: Vec<usize>,
}

impl Contacted {
    fn new(n_nodes: usize) -> Self {
        Self {
            words: vec![0; n_nodes.div_ceil(64)],
            ..Self::default()
        }
    }

    /// Keeps the record if it is about `item`, else starts one that is.
    fn track(&mut self, item: ItemId) {
        if self.item != Some(item) {
            self.reset();
            self.item = Some(item);
        }
    }

    /// Forgets every node: node state was replaced.
    fn reset(&mut self) {
        for w in self.touched.drain(..) {
            self.words[w] = 0;
        }
        self.item = None;
    }

    /// [`Self::reset`], with room for `n_nodes`.
    fn resize(&mut self, n_nodes: usize) {
        self.reset();
        self.words.resize(n_nodes.div_ceil(64), 0);
    }

    /// Whether owned node `local` handled a copy; `false` for an index
    /// past the shard, which the mailbox then turns away.
    fn contains(&self, local: usize) -> bool {
        self.words
            .get(local / 64)
            .is_some_and(|w| w >> (local % 64) & 1 != 0)
    }

    fn insert(&mut self, local: usize) {
        let w = &mut self.words[local / 64];
        if *w == 0 {
            self.touched.push(local / 64);
        }
        *w |= 1 << (local % 64);
    }
}

/// Everything needed to build one shard's state — produced by the driver,
/// consumed directly (in-process) or as the handshake's init frame (worker
/// processes). Both paths construct through [`ShardState::from_init`], so
/// the transports cannot diverge at bootstrap.
#[derive(Debug, Clone)]
pub struct ShardInit {
    pub index: usize,
    pub partition: Partition,
    pub seed: u64,
    pub loss: LossModel,
    pub churn: ChurnModel,
    pub params: Params,
    pub oracle: Oracle,
    /// Bootstrap contacts per owned node, in local id order (drawn by the
    /// driver so the engine RNG stays on the driving thread).
    pub bootstrap: Vec<Vec<NodeId>>,
}

wire_codec! { struct ShardInit { index, partition, seed, loss, churn, params, oracle, bootstrap } }

impl ShardInit {
    /// What [`ShardState::from_init`] relies on and a decoded frame may
    /// break: the shard exists, one bootstrap list per owned node, every
    /// contact and every node inside the population, valid parameters.
    pub(crate) fn check(&self) -> Result<(), DecodeError> {
        let owned = self.partition.try_range(self.index).map(|r| r.len());
        ensure(owned == Some(self.bootstrap.len()), "bootstrap lists")?;
        let total = self.partition.total();
        let last = self.bootstrap.iter().flatten().max();
        ensure(last.is_none_or(|&c| (c as usize) < total), "contacts")?;
        ensure(self.oracle.n_nodes() == total, "oracle size")?;
        ensure(self.params.validate().is_ok(), "params")
    }
}

/// One shard's dynamic state at a cycle boundary: the frame
/// [`ShardState::encode_checkpoint`] writes.
struct Checkpoint {
    partition: Partition,
    /// Per-node channel states.
    channel_bad: Vec<bool>,
    /// The known news items, ascending id (identical shards must
    /// checkpoint to identical bytes).
    known_items: Vec<NewsItem>,
    oracle: Oracle,
    /// One per owned node, in id order.
    nodes: Vec<NodeRecord>,
}

wire_codec! { struct Checkpoint { partition, channel_bad, known_items, oracle, nodes } }

/// One node in a [`Checkpoint`]: its [`NodeState`] (views in the wire
/// codec's descriptor encoding, seen ids ascending) and its counters.
struct NodeRecord {
    profile: Profile,
    views: ColdStart,
    seen: Vec<ItemId>,
    stats: NodeStats,
}

wire_codec! { struct NodeRecord { profile, views, seen, stats } }

/// A fresh node of the run whose item index is `items`, its views
/// starting at its bootstrap `contacts`, every one carrying the `empty`
/// profile: the RPS view gets all of them, the WUP view the first half (at
/// least one).
pub(crate) fn bootstrapped(
    id: NodeId,
    params: &Params,
    items: &Arc<ItemIndexMap>,
    contacts: &[NodeId],
    empty: &SharedProfile,
) -> WhatsUpNode {
    let mut node = WhatsUpNode::new(id, params.clone(), Arc::clone(items));
    let wup_take = (contacts.len() / 2).max(1);
    let descriptor = |&c: &NodeId| (c, SharedProfile::clone(empty));
    node.seed_views_arcs(
        contacts.iter().map(descriptor),
        contacts.iter().take(wup_take).map(descriptor),
    );
    node
}

/// The owned state of one shard.
pub struct ShardState {
    index: usize,
    partition: Partition,
    seed: u64,
    loss: LossModel,
    churn: ChurnModel,
    /// Per-node Gilbert–Elliott channel state (`true` = Bad), advanced once
    /// per cycle at the collect phase; all-Good under the other loss models.
    channel_bad: Vec<bool>,
    params: Params,
    /// This shard's oracle copy; the driver keeps every copy in lockstep
    /// when interests are re-mapped.
    oracle: Oracle,
    nodes: Vec<WhatsUpNode>,
    /// Per-node counters, SoA: parallel to [`Self::nodes`]. Cold data the
    /// hot loops only append to — keeping it out of [`WhatsUpNode`] keeps
    /// node iteration from dragging the counter bytes through cache.
    node_stats: Vec<NodeStats>,
    /// Per-node phase RNGs, lazily derived per `(cycle, phase)`.
    phase_rngs: Vec<Option<ChaCha8Rng>>,
    mailbox: Mailbox,
    /// Self-destined emissions of the current round, merged (unserialized)
    /// into the mailboxes at this shard's slot of the next deliver.
    pending_local: Vec<MailEntry>,
    /// News content this shard can re-encode (learned from publishes and
    /// inbound news frames, like a real receiver).
    // lint:allow(det-map) BuildIdHasher keys, probed by id only; checkpoint encode sorts entries
    known_items: HashMap<ItemId, NewsItem, whatsup_core::hash::BuildIdHasher>,
    /// Route-phase staging, reused round-over-round (capacity kept): the
    /// emissions of the current phase loop, and the per-destination-shard
    /// buckets [`Self::route_out`] groups them into.
    emit_scratch: Vec<(NodeId, OutMessage)>,
    route_scratch: Vec<Vec<(NodeId, NodeId, Payload)>>,
    /// Bundle encode buffer, reused round-over-round so steady-state
    /// encoding never grows a fresh allocation.
    encode_buf: BytesMut,
    /// The nodes that handled a copy of the item [`Self::deliver_news`]
    /// last delivered.
    contacted: Contacted,
}

impl ShardState {
    /// Builds the shard: fresh nodes for the owned range, views seeded from
    /// the driver-drawn bootstrap contacts (empty profiles, RPS gets all
    /// contacts, WUP the first half).
    pub fn from_init(init: ShardInit) -> Self {
        let range = init.partition.range(init.index);
        assert_eq!(range.len(), init.bootstrap.len(), "bootstrap list mismatch");
        // Every bootstrap descriptor carries the same empty profile: one
        // allocation for the whole shard instead of one per view slot.
        let empty = SharedProfile::new(Profile::new());
        let nodes: Vec<WhatsUpNode> = range
            .clone()
            .zip(&init.bootstrap)
            .map(|(id, contacts)| {
                bootstrapped(id, &init.params, init.oracle.id_map(), contacts, &empty)
            })
            .collect();
        let n_local = nodes.len();
        Self {
            index: init.index,
            partition: init.partition,
            seed: init.seed,
            loss: init.loss,
            churn: init.churn,
            channel_bad: vec![false; n_local],
            params: init.params,
            oracle: init.oracle,
            nodes,
            node_stats: vec![NodeStats::default(); n_local],
            phase_rngs: vec![None; n_local],
            mailbox: Mailbox::new(range),
            pending_local: Vec::new(),
            known_items: HashMap::default(), // lint:allow(det-map) see field declaration
            emit_scratch: Vec::new(),
            route_scratch: Vec::new(),
            encode_buf: BytesMut::new(),
            contacted: Contacted::new(n_local),
        }
    }

    pub fn index(&self) -> usize {
        self.index
    }

    fn base(&self) -> NodeId {
        self.partition.range(self.index).start
    }

    /// The slot of owned node `id`. A command naming a node this shard
    /// does not own decodes but does not fit the shard: an error, which
    /// the worker loop reports like a frame that does not decode.
    fn local(&self, id: NodeId) -> Result<usize, DecodeError> {
        id.checked_sub(self.base())
            .map(|local| local as usize)
            .filter(|&local| local < self.nodes.len())
            .ok_or(DecodeError::Invalid("node not owned by this shard"))
    }

    /// The owned node `id`.
    ///
    /// # Panics
    /// Panics if this shard does not own `id`.
    pub fn node(&self, id: NodeId) -> &WhatsUpNode {
        let local = self.local(id).expect("node not owned by this shard");
        &self.nodes[local]
    }

    /// The owned nodes, in id order.
    pub fn nodes(&self) -> &[WhatsUpNode] {
        &self.nodes
    }

    /// Heap accounting by component (diagnostics; backs the byte-budget
    /// table in the engine module docs). Returns `(component, bytes)`
    /// rows. Snapshot bytes count each distinct pinned profile `Arc` once.
    #[doc(hidden)]
    pub fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        let mut profiles = 0usize;
        let mut seen = 0usize;
        let mut caches = 0usize;
        let mut snapshots = BTreeSet::new();
        let mut snapshot_bytes = 0usize;
        for node in &self.nodes {
            let (p, s, c) = node.debug_heap_stats(&mut |shared| {
                // The Arc block (counts + Profile struct) plus what the
                // profile owns: a flat entries buffer (capacity) or a
                // packed snapshot's timestamps, and, once built, its layout.
                if snapshots.insert(Arc::as_ptr(shared) as usize) {
                    snapshot_bytes += shared.heap_bytes()
                        + std::mem::size_of::<whatsup_core::profile::Profile>()
                        + 16;
                }
            });
            profiles += p;
            seen += s;
            caches += c;
        }
        vec![
            ("own profiles", profiles),
            ("pinned snapshots", snapshot_bytes),
            ("seen sets", seen),
            ("node caches", caches),
            ("mailbox arena", self.mailbox.capacity_bytes()),
            (
                "emit scratch",
                self.emit_scratch.capacity() * std::mem::size_of::<(NodeId, OutMessage)>(),
            ),
            (
                "pending local",
                self.pending_local.capacity() * std::mem::size_of::<MailEntry>(),
            ),
            (
                "phase rngs",
                self.phase_rngs.capacity() * std::mem::size_of::<Option<ChaCha8Rng>>(),
            ),
        ]
    }

    /// Registers a node joining at the end of the id space with interests
    /// cloned from `reference`. Every shard updates its partition and
    /// oracle copies; the owning (last) shard additionally receives the
    /// rejoin view `snapshot` and builds the node from it (§II-D cold
    /// start). A snapshot that does not decode or is sent to another shard
    /// than the last, and a `reference` outside the population, are errors
    /// that change no state.
    fn admit(&mut self, reference: NodeId, snapshot: Option<&[u8]>) -> Result<(), DecodeError> {
        let snapshot: Option<ColdStart> = snapshot.map(decode).transpose()?;
        let last = self.index + 1 == self.partition.n_shards();
        ensure(
            snapshot.is_none() || last,
            "joiners belong to the last shard",
        )?;
        self.check_population(&[reference], "admission reference")?;
        self.oracle.add_clone_of(reference);
        let id = self.partition.push_node();
        if let Some(snapshot) = snapshot {
            let items = Arc::clone(self.oracle.id_map());
            let mut node = WhatsUpNode::new(id, self.params.clone(), items);
            node.cold_start(snapshot, &self.oracle);
            self.nodes.push(node);
            self.node_stats.push(NodeStats::default());
            self.phase_rngs.push(None);
            self.channel_bad.push(false);
            self.mailbox.grow();
        }
        self.contacted.resize(self.nodes.len());
        Ok(())
    }

    /// Refuses, as `what`, any id of `ids` that names no node of the
    /// population (on any shard).
    fn check_population(&self, ids: &[NodeId], what: &'static str) -> Result<(), DecodeError> {
        let n = self.oracle.n_nodes();
        ensure(ids.iter().all(|&id| (id as usize) < n), what)
    }

    /// Executes one phase command. The single entry point shared by the
    /// inline driver, the channel workers and the worker processes.
    ///
    /// # Panics
    /// Panics if a snapshot, checkpoint or bundle inside `cmd` does not
    /// decode, or if `cmd` does not fit the shard (see
    /// [`Self::try_handle`], which the worker loop uses).
    pub fn handle(&mut self, cmd: Command) -> Reply {
        self.try_handle(cmd)
            .expect("malformed frame inside a command")
    }

    /// [`Self::handle`], with a frame nested in `cmd` that does not decode,
    /// a node id the shard does not own (`TakeSnapshots`, `ApplyChurn`,
    /// `Publish`), an id outside the population (`Admit`'s reference,
    /// `SwapInterests`) or a joiner's snapshot sent to another shard than
    /// the last, returned as an error. Snapshots, checkpoints and ids are
    /// refused before they change any state; a bundle that breaks off
    /// midway leaves the mail before the bad entry queued, so the shard
    /// must not be driven further (the worker loop exits).
    pub(crate) fn try_handle(&mut self, cmd: Command) -> Result<Reply, DecodeError> {
        Ok(match cmd {
            Command::Collect { cycle } => Reply::Outbound(self.collect(cycle)),
            Command::DeliverGossip { cycle, bundles } => {
                Reply::Outbound(self.deliver_gossip(cycle, &bundles)?)
            }
            Command::ChurnDecide { cycle } => Reply::ChurnDecisions(self.churn_decide(cycle)),
            Command::TakeSnapshots { ids } => Reply::Snapshots(
                ids.iter()
                    .map(|&id| {
                        let node = &self.nodes[self.local(id)?];
                        Ok(Bytes::from(encode(&node.views_snapshot())))
                    })
                    .collect::<Result<_, DecodeError>>()?,
            ),
            Command::ApplyChurn { resets } => {
                self.apply_churn(&resets)?;
                Reply::Ack
            }
            Command::Admit {
                reference,
                snapshot,
            } => {
                self.admit(reference, snapshot.as_deref())?;
                Reply::Ack
            }
            Command::SwapInterests { a, b } => {
                self.check_population(&[a, b], "interest swap")?;
                self.oracle.swap_interests(a, b);
                Reply::Ack
            }
            Command::BeginNews => {
                self.phase_rngs.iter_mut().for_each(|r| *r = None);
                Reply::Ack
            }
            Command::Publish { cycle, item } => self.publish(cycle, item)?,
            Command::DeliverNews {
                cycle,
                item,
                bundles,
            } => self.deliver_news(cycle, item, &bundles)?,
            Command::TakeCheckpoint => Reply::Checkpoint(self.encode_checkpoint()),
            Command::Restore { frame } => {
                self.restore_checkpoint(&frame)?;
                Reply::Ack
            }
            Command::Stop => Reply::Ack,
        })
    }

    /// Serializes this shard's full dynamic state as one checkpoint frame,
    /// laid out as [`Checkpoint`] declares: partition boundaries, per-node
    /// channel states, the known news items (ascending id, canonical), the
    /// oracle copy, then one [`NodeRecord`] per owned node in id order
    /// (profile, RPS and WUP views, seen ids ascending, stats). Per-cycle
    /// measurement counters live in the driver (folded from the phase
    /// replies), so checkpoints carry no counter residue.
    ///
    /// Static state (`index`, `seed`, loss/churn models, params) is *not*
    /// serialized: a restoring worker already received it via the bootstrap
    /// handshake's [`ShardInit`]. Phase RNGs are derived per
    /// `(cycle, phase)` and the restart replays from a cycle boundary, so
    /// no RNG state needs capturing either.
    ///
    /// # Panics
    /// Panics if any mail is in flight — checkpoints are only meaningful at
    /// cycle boundaries, where every mailbox is provably drained.
    pub fn encode_checkpoint(&self) -> Bytes {
        assert!(
            self.mailbox.is_empty() && self.pending_local.is_empty(),
            "checkpoint requires an empty mailbox (cycle boundary)"
        );
        let mut known_items: Vec<NewsItem> = self.known_items.values().cloned().collect();
        known_items.sort_unstable_by_key(NewsItem::id);
        let nodes = self.nodes.iter().zip(&self.node_stats);
        let checkpoint = Checkpoint {
            partition: self.partition.clone(),
            channel_bad: self.channel_bad.clone(),
            known_items,
            oracle: self.oracle.clone(),
            nodes: nodes
                .map(|(node, &stats)| {
                    let st = node.export_state();
                    NodeRecord {
                        profile: Profile::from_vec(st.profile),
                        views: ColdStart {
                            rps_view: st.rps_view,
                            wup_view: st.wup_view,
                        },
                        seen: st.seen,
                        stats,
                    }
                })
                .collect(),
        };
        Bytes::from(encode(&checkpoint))
    }

    /// Replaces this shard's dynamic state with a checkpoint frame
    /// (recovery path — the shard was just rebuilt from its original init).
    /// The frame is decoded and checked against the shard in full first: a
    /// frame that does not decode, describes another shard, or lists a
    /// node's seen ids out of ascending order is an error and leaves the
    /// state as it was. Transient state is reset: mailboxes
    /// empty (guaranteed at the checkpointed boundary), phase RNGs
    /// re-derived on first use.
    pub fn restore_checkpoint(&mut self, frame: &[u8]) -> Result<(), DecodeError> {
        let cp: Checkpoint = decode(frame)?;
        let n_nodes = cp.nodes.len();
        let range = cp.partition.try_range(self.index).unwrap_or_default();
        let fits = range.len() == n_nodes && cp.channel_bad.len() == n_nodes;
        ensure(fits, "checkpoint of another shard")?;
        ensure(cp.oracle.n_nodes() == cp.partition.total(), "oracle size")?;
        let ascending = |r: &NodeRecord| r.seen.windows(2).all(|w| w[0] < w[1]);
        ensure(cp.nodes.iter().all(ascending), "seen ids not ascending")?;
        let items = cp.oracle.id_map();
        let (nodes, node_stats) = range
            .zip(cp.nodes)
            .map(|(id, record)| {
                let state = NodeState {
                    profile: record.profile.entries().collect(),
                    rps_view: record.views.rps_view,
                    wup_view: record.views.wup_view,
                    seen: record.seen,
                };
                let node =
                    WhatsUpNode::from_state(id, self.params.clone(), Arc::clone(items), state);
                (node, record.stats)
            })
            .unzip();
        self.nodes = nodes;
        self.node_stats = node_stats;
        self.partition = cp.partition;
        self.channel_bad = cp.channel_bad;
        self.known_items = cp.known_items.into_iter().map(|i| (i.id(), i)).collect();
        self.oracle = cp.oracle;
        self.phase_rngs = vec![None; n_nodes];
        self.mailbox = Mailbox::new(self.partition.range(self.index));
        self.pending_local = Vec::new();
        self.contacted = Contacted::new(n_nodes);
        Ok(())
    }

    /// Groups the staged emissions ([`Self::emit_scratch`]) by destination
    /// shard: local mail queues without serialization, remote mail becomes
    /// one wire bundle per destination (in emission order, which the
    /// emitting loops keep in `(sender id, emission order)` order). All
    /// staging buffers are drained, not dropped — their capacity carries to
    /// the next round.
    fn route_out(&mut self) -> Outbound {
        let shards = self.partition.n_shards();
        if self.route_scratch.len() != shards {
            self.route_scratch.resize_with(shards, Vec::new);
        }
        let sent = self.emit_scratch.len() as u64;
        let mut local = 0u64;
        for (from, m) in self.emit_scratch.drain(..) {
            let dest = self.partition.shard_of(m.to);
            if dest == self.index {
                local += 1;
                self.pending_local.push(MailEntry {
                    to: m.to,
                    from,
                    payload: m.payload,
                });
            } else {
                self.route_scratch[dest].push((m.to, from, m.payload));
            }
        }
        let bundles = self
            .route_scratch
            .iter_mut()
            .map(|entries| {
                if entries.is_empty() {
                    return Bytes::new();
                }
                self.encode_buf.clear();
                codec::encode_bundle_into(&mut self.encode_buf, self.index as u32, entries, |id| {
                    self.known_items.get(&id)
                });
                entries.clear();
                Bytes::copy_from_slice(&self.encode_buf)
            })
            .collect();
        Outbound {
            sent,
            local,
            bundles,
        }
    }

    /// Collect phase: every owned node's cycle tick, in id order.
    fn collect(&mut self, cycle: u32) -> Outbound {
        // Fresh gossip-phase streams for the delivery rounds that follow,
        // and this cycle's channel states for the loss coins.
        self.phase_rngs.iter_mut().for_each(|r| *r = None);
        let base = self.base();
        let seed = self.seed;
        advance_channels(self.loss, seed, base, cycle, &mut self.channel_bad);
        let Self {
            nodes,
            node_stats,
            emit_scratch,
            ..
        } = self;
        {
            for (local, node) in nodes.iter_mut().enumerate() {
                let id = base + local as NodeId;
                let mut rng = node_stream(seed, id, cycle, phase::CYCLE);
                for m in node.on_cycle(cycle, &mut node_stats[local], &mut rng) {
                    emit_scratch.push((id, m));
                }
            }
        }
        self.route_out()
    }

    /// One gossip delivery round over the owned receivers, ascending.
    fn deliver_gossip(&mut self, cycle: u32, bundles: &[Bytes]) -> Result<Outbound, DecodeError> {
        let owned = self.partition.range(self.index);
        let Self {
            index,
            pending_local,
            known_items,
            mailbox,
            ..
        } = self;
        merge_inbound(
            *index,
            owned,
            false,
            bundles,
            pending_local,
            known_items,
            |to, from, payload| mailbox.push_parts(to, from, payload),
        )?;
        let receivers = self.mailbox.take_receivers();
        let base = self.base();
        let seed = self.seed;
        let loss = self.loss;
        let cut = partition_cut(loss, cycle, self.partition.total());
        let Self {
            nodes,
            node_stats,
            phase_rngs,
            mailbox,
            oracle,
            channel_bad,
            emit_scratch,
            ..
        } = self;
        for &id in &receivers {
            let local = (id - base) as usize;
            let rng = phase_rngs[local]
                .get_or_insert_with(|| node_stream(seed, id, cycle, phase::GOSSIP));
            let node = &mut nodes[local];
            let stats = &mut node_stats[local];
            mailbox.drain_mail(id, |from, payload| {
                if dropped(loss, channel_bad[local], cut, from, id, rng) {
                    return;
                }
                for reply in node.on_message(from, payload, cycle, oracle, stats, rng) {
                    debug_assert!(
                        !matches!(reply.payload, Payload::News(_)),
                        "news cannot appear in the gossip phase"
                    );
                    emit_scratch.push((id, reply));
                }
            });
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        Ok(self.route_out())
    }

    /// Churn decisions for the owned nodes: `(crasher, rejoin contact)` per
    /// node whose crash coin fires, the contact uniform over the whole
    /// population.
    fn churn_decide(&mut self, cycle: u32) -> Vec<(NodeId, NodeId)> {
        let n = self.partition.total();
        let rate = self.churn.crash_rate(cycle);
        self.partition
            .range(self.index)
            .filter_map(|id| {
                let mut rng = crash_coin(self.seed, id, cycle, rate)?;
                Some((id, rejoin_contact(&mut rng, id, n)))
            })
            .collect()
    }

    /// Applies churn resets: each crashed node rejoins as a fresh instance
    /// cold-started from its contact's (pre-churn) view snapshot. Snapshot
    /// state makes the application order irrelevant.
    fn apply_churn(&mut self, resets: &[(NodeId, Bytes)]) -> Result<(), DecodeError> {
        let snapshots = resets
            .iter()
            .map(|(id, frame)| Ok((*id, self.local(*id)?, decode::<ColdStart>(frame)?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        for (id, local, snapshot) in snapshots {
            let items = Arc::clone(self.oracle.id_map());
            let mut fresh = WhatsUpNode::new(id, self.params.clone(), items);
            fresh.cold_start(snapshot, &self.oracle);
            self.nodes[local] = fresh;
            // A rejoining node is a fresh instance: its counters restart
            // with it, exactly as when they lived inside the node.
            self.node_stats[local] = NodeStats::default();
        }
        self.contacted.reset();
        Ok(())
    }

    /// Publishes `item` from its source node (owned by this shard), drawing
    /// from the source's NEWS stream (shared with its deliveries this
    /// cycle).
    fn publish(&mut self, cycle: u32, item: NewsItem) -> Result<Reply, DecodeError> {
        let source = item.source;
        let local = self.local(source)?;
        self.known_items.insert(item.id(), item.clone());
        let seed = self.seed;
        let out = {
            let rng = self.phase_rngs[local]
                .get_or_insert_with(|| node_stream(seed, source, cycle, phase::NEWS));
            self.nodes[local].publish(&item, cycle, &mut self.node_stats[local], rng)
        };
        let first_forward_hop = match out.first().map(|m| &m.payload) {
            Some(Payload::News(first)) => Some(first.hops),
            _ => None,
        };
        self.emit_scratch
            .extend(out.into_iter().map(|m| (source, m)));
        let out = self.route_out();
        Ok(Reply::Published {
            first_forward_hop,
            out,
        })
    }

    /// One news (BFS) delivery round over the owned receivers, ascending,
    /// reporting per-receiver reception outcomes for the driver's fold.
    ///
    /// A copy to a node that already handled a copy of the item is booked
    /// where it is merged — its loss coin, then the duplicate rule — and
    /// never queued, and so is every copy after the first a receiver
    /// handles in the drain (see "Duplicates booked at the mailbox" in the
    /// engine docs). A receiver whose mail was all booked reports no
    /// outcome; it had nothing to report.
    fn deliver_news(
        &mut self,
        cycle: u32,
        item_id: ItemId,
        bundles: &[Bytes],
    ) -> Result<Reply, DecodeError> {
        self.contacted.track(item_id);
        let base = self.base();
        let seed = self.seed;
        let loss = self.loss;
        let cut = partition_cut(loss, cycle, self.partition.total());
        let Self {
            index,
            partition,
            nodes,
            node_stats,
            phase_rngs,
            mailbox,
            pending_local,
            known_items,
            oracle,
            channel_bad,
            emit_scratch,
            contacted,
            ..
        } = self;
        let news_stream = |id: NodeId| move || node_stream(seed, id, cycle, phase::NEWS);
        merge_inbound(
            *index,
            partition.range(*index),
            true,
            bundles,
            pending_local,
            known_items,
            |to, from, payload| {
                let local = to.wrapping_sub(base) as usize;
                if !contacted.contains(local) {
                    mailbox.push_parts(to, from, payload);
                    return;
                }
                debug_assert!(nodes[local].has_seen(item_id));
                let (bad, rng) = (channel_bad[local], &mut phase_rngs[local]);
                if !dropped_lazily(loss, bad, cut, from, to, rng, news_stream(to)) {
                    node_stats[local].book_duplicate(from, to);
                }
            },
        )?;
        let receivers = mailbox.take_receivers();
        let mut outcomes = Vec::with_capacity(receivers.len());
        let oracle: &Oracle = oracle;
        let opinions = ItemOpinions {
            oracle,
            idx: oracle.index_of(item_id),
        };
        for &id in &receivers {
            let local = (id - base) as usize;
            let rng = phase_rngs[local].get_or_insert_with(news_stream(id));
            let node = &mut nodes[local];
            let stats = &mut node_stats[local];
            // Fixed per (receiver, round): hoisted out of the per-message
            // closure instead of re-resolving on every copy.
            let receiver_likes = opinions.likes(id, item_id);
            let mut outcome = NewsOutcome {
                receiver: id,
                first: None,
                forward: None,
            };
            // Whether `on_message` handled a copy from another node: every
            // later copy is a duplicate.
            let mut handled = false;
            mailbox.drain_mail(id, |from, payload| {
                if dropped(loss, channel_bad[local], cut, from, id, rng) {
                    return;
                }
                if handled {
                    debug_assert!(node.has_seen(item_id));
                    stats.book_duplicate(from, id);
                    return;
                }
                let Payload::News(news) = &payload else {
                    unreachable!("merge_inbound admits only news in a news round")
                };
                debug_assert_eq!(news.header.id, item_id);
                let (hop, dislikes) = (news.hops + 1, news.dislikes);
                // The node's own verdict books a first reception: it counts
                // one exactly when the copy is neither a duplicate nor one
                // it sent itself.
                let received = stats.news_received;
                let replies = node.on_message(from, payload, cycle, &opinions, stats, rng);
                handled = from != id;
                if stats.news_received > received {
                    outcome.first = Some(FirstReception {
                        hop,
                        sender_liked: opinions.likes(from, item_id),
                        receiver_likes,
                        dislikes,
                    });
                }
                if let Some(Payload::News(first_out)) = replies.first().map(|m| &m.payload) {
                    outcome.forward = Some((first_out.hops, receiver_likes));
                }
                emit_scratch.extend(replies.into_iter().map(|m| (id, m)));
            });
            if handled {
                contacted.insert(local);
            }
            outcomes.push(outcome);
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        let out = self.route_out();
        Ok(Reply::NewsDelivered { out, outcomes })
    }
}

/// Hands one round's inbound mail to `sink` as `(to, from, payload)`, in
/// ascending source-shard order — the shard's own `pending_local` queue
/// takes slot `index` — and adds each news content the bundles carry to
/// `known_items`. With contiguous ascending shard ranges this reproduces
/// the global `(sender id, emission order)` mailbox order of a
/// single-shard run. A bundle that does not decode is an error, and so is
/// an entry for a node outside `owned`, or of the other round (`news`
/// tells which this is); the entries before it have reached `sink`.
fn merge_inbound(
    index: usize,
    owned: Range<NodeId>,
    news: bool,
    bundles: &[Bytes],
    pending_local: &mut Vec<MailEntry>,
    known_items: &mut impl Extend<(ItemId, NewsItem)>,
    mut sink: impl FnMut(NodeId, NodeId, Payload),
) -> Result<(), DecodeError> {
    let mut register = |item: NewsItem| known_items.extend([(item.id(), item)]);
    let what = ["news in a gossip round", "gossip in a news round"][usize::from(news)];
    for (src, bundle) in bundles.iter().enumerate() {
        if src == index {
            for entry in pending_local.drain(..) {
                sink(entry.to, entry.from, entry.payload);
            }
        } else if !bundle.is_empty() {
            let mut fits = Ok(());
            decode_shard_bundle_each(bundle, &mut register, |to, from, payload| {
                if fits.is_ok() {
                    fits = ensure(owned.contains(&to), "mail for a node of another shard")
                        .and(ensure(matches!(payload, Payload::News(_)) == news, what));
                    if fits.is_ok() {
                        sink(to, from, payload);
                    }
                }
            })?;
            fits?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mailbox::encode_shard_bundle;
    use crate::environment::bootstrap_contacts;
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};
    use std::collections::BTreeMap;
    use whatsup_core::{NewsMessage, ProfileEntry};
    use whatsup_datasets::LikeMatrix;

    /// The news delivery round as first written — every copy goes through
    /// the arena, the drain and `on_message`, and every drained receiver
    /// reports an outcome — the reference [`ShardState::deliver_news`] is
    /// held to. It neither reads nor writes the contacted record.
    fn deliver_news_by_node(
        shard: &mut ShardState,
        cycle: u32,
        item_id: ItemId,
        bundles: &[Bytes],
    ) -> Reply {
        let ShardState {
            index,
            partition,
            pending_local,
            known_items,
            mailbox,
            ..
        } = shard;
        merge_inbound(
            *index,
            partition.range(*index),
            true,
            bundles,
            pending_local,
            known_items,
            |to, from, payload| mailbox.push_parts(to, from, payload),
        )
        .unwrap();
        let receivers = shard.mailbox.take_receivers();
        let base = shard.base();
        let seed = shard.seed;
        let loss = shard.loss;
        let cut = partition_cut(loss, cycle, shard.partition.total());
        let mut outcomes = Vec::with_capacity(receivers.len());
        let ShardState {
            nodes,
            node_stats,
            phase_rngs,
            mailbox,
            oracle,
            channel_bad,
            emit_scratch,
            ..
        } = shard;
        let oracle: &Oracle = oracle;
        let opinions = ItemOpinions {
            oracle,
            idx: oracle.index_of(item_id),
        };
        for &id in &receivers {
            let local = (id - base) as usize;
            let rng =
                phase_rngs[local].get_or_insert_with(|| node_stream(seed, id, cycle, phase::NEWS));
            let node = &mut nodes[local];
            let stats = &mut node_stats[local];
            let receiver_likes = opinions.likes(id, item_id);
            let mut outcome = NewsOutcome {
                receiver: id,
                first: None,
                forward: None,
            };
            mailbox.drain_mail(id, |from, payload| {
                if dropped(loss, channel_bad[local], cut, from, id, rng) {
                    return;
                }
                let Payload::News(news) = &payload else {
                    unreachable!("only news flows in the publication phase")
                };
                let (hop, dislikes) = (news.hops + 1, news.dislikes);
                let received = stats.news_received;
                let replies = node.on_message(from, payload, cycle, &opinions, stats, rng);
                if stats.news_received > received {
                    outcome.first = Some(FirstReception {
                        hop,
                        sender_liked: opinions.likes(from, item_id),
                        receiver_likes,
                        dislikes,
                    });
                }
                if let Some(Payload::News(first_out)) = replies.first().map(|m| &m.payload) {
                    outcome.forward = Some((first_out.hops, receiver_likes));
                }
                emit_scratch.extend(replies.into_iter().map(|m| (id, m)));
            });
            outcomes.push(outcome);
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        let out = shard.route_out();
        Reply::NewsDelivered { out, outcomes }
    }

    const CYCLE: u32 = 20;

    /// Shard 1 of three over 30 nodes — it owns ids 10..20, and mail
    /// reaches it from a lower and a higher shard — with three items whose
    /// sources it owns; likes and bootstrap contacts drawn from `seed`.
    fn middle_shard(seed: u64, loss: LossModel) -> (ShardInit, Vec<NewsItem>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let items: Vec<NewsItem> = (0..3)
            .map(|k| NewsItem::new(format!("item {k}"), "d", "l", 10 + 3 * k, CYCLE))
            .collect();
        let mut likes = LikeMatrix::new(30, items.len());
        for user in 0..30 {
            for item in 0..items.len() {
                likes.set(user, item, rng.gen_bool(0.5));
            }
        }
        let ids = items.iter().map(NewsItem::id).zip(0..).collect();
        let contacts = bootstrap_contacts(&mut rng, 30, 6);
        let init = ShardInit {
            index: 1,
            partition: Partition::new(30, 3),
            seed,
            loss,
            churn: ChurnModel::None,
            params: Params::whatsup(3),
            oracle: Oracle::new(likes, ids),
            bootstrap: contacts[10..20].to_vec(),
        };
        (init, items)
    }

    /// A copy of `item` with a small random item profile.
    fn copy(item: &NewsItem, dislikes: u8, rng: &mut ChaCha8Rng) -> Payload {
        let entries = (0..rng.gen_range(0..6u32)).map(|_| ProfileEntry {
            item: 1000 + rng.gen_range(0..10u64),
            timestamp: rng.gen_range(0..CYCLE),
            score: [0.0, 0.5, 1.0][rng.gen_range(0..3usize)],
        });
        Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(Profile::from_entries(entries)),
            dislikes,
            hops: rng.gen_range(0..4),
        })
    }

    /// A reply with the outcomes that report nothing left out: the twin
    /// reports one for every receiver whose mail the booked path took at
    /// the merge.
    fn reporting(reply: Reply) -> Reply {
        match reply {
            Reply::NewsDelivered { out, mut outcomes } => {
                outcomes.retain(|o| o.first.is_some() || o.forward.is_some());
                Reply::NewsDelivered { out, outcomes }
            }
            other => other,
        }
    }

    /// Every owned node's next NEWS draw, creating the streams not yet
    /// created.
    fn next_news_draws(shard: &ShardState) -> Vec<u64> {
        let base = shard.base();
        let stream =
            |local: usize| node_stream(shard.seed, base + local as NodeId, CYCLE, phase::NEWS);
        (0..shard.nodes.len())
            .map(|local| {
                let mut rng = shard.phase_rngs[local]
                    .clone()
                    .unwrap_or_else(|| stream(local));
                rng.next_u64()
            })
            .collect()
    }

    #[test]
    fn init_check_refuses_what_from_init_cannot_build() {
        let (init, _) = middle_shard(1, LossModel::Constant { p: 0.0 });
        assert_eq!(init.check(), Ok(()));
        let broken: [fn(&mut ShardInit); 5] = [
            |i| i.index = 3,
            |i| i.bootstrap.truncate(9),
            |i| i.bootstrap[4].push(30),
            |i| {
                i.oracle.add_clone_of(0);
            },
            |i| i.params.beep.f_like = 0,
        ];
        for (k, breaks) in broken.iter().enumerate() {
            let mut init = init.clone();
            breaks(&mut init);
            assert!(init.check().is_err(), "break {k} passed");
        }
    }

    /// A node's own profile costs its spanned words alone: after every
    /// cycle of a small survey run with churn, whose rejoins cold start
    /// from decoded views, the "own profiles" row is at most 16 B per
    /// word the nodes' planes span. One own profile that fell back to its
    /// flat vector would keep every report and digest, and break this.
    #[test]
    fn the_own_profiles_row_is_the_spanned_words() {
        use crate::scenario::Environment;
        use whatsup_datasets::{survey, SurveyConfig};
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 42);
        let cfg = crate::SimConfig {
            cycles: 20,
            publish_from: 2,
            measure_from: 8,
            ..Default::default()
        };
        let mut sim = crate::Runner::new(&d, crate::Protocol::WhatsUp { f_like: 5 })
            .config(cfg)
            .scenario(crate::Scenario::default().with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn: ChurnModel::Uniform { per_cycle: 0.05 },
            }))
            .build();
        for cycle in 0..20 {
            sim.step();
            let rows = sim.memory_breakdown();
            let own = rows.iter().find(|(name, _)| *name == "own profiles");
            let words: usize = (0..sim.n_nodes() as NodeId)
                .map(|id| sim.node(id).profile().plane_bytes())
                .sum();
            let own = own.expect("an own-profiles row").1;
            assert!(
                own <= words,
                "cycle {cycle}: {own} B for {words} B of words"
            );
            assert!(cycle < 4 || own > 0, "cycle {cycle}: nothing rated");
        }
    }

    #[test]
    fn a_copy_to_a_contacted_node_is_booked_at_the_merge() {
        let (init, items) = middle_shard(3, LossModel::Constant { p: 0.0 });
        let mut shard = ShardState::from_init(init);
        let id = items[0].id();
        let map = BTreeMap::from([(id, items[0].clone())]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut deliver = |from: &[NodeId]| {
            let entries: Vec<_> = from
                .iter()
                .map(|&f| (12, f, copy(&items[0], 4, &mut rng)))
                .collect();
            let bundles = [
                encode_shard_bundle(0, &entries, &map),
                Bytes::new(),
                Bytes::new(),
            ];
            match shard.deliver_news(CYCLE, id, &bundles).unwrap() {
                Reply::NewsDelivered { outcomes, .. } => outcomes,
                other => panic!("unexpected {other:?}"),
            }
        };
        let first = deliver(&[0, 1]);
        assert_eq!(first.len(), 1);
        assert!(first[0].first.is_some());
        assert!(deliver(&[2, 3, 4]).is_empty(), "all booked, no outcome");
        assert!(shard.contacted.contains(2));
        assert_eq!(shard.node_stats[2].news_duplicates, 4);
        assert_eq!(shard.node_stats[2].news_received, 1);
        assert!(shard.mailbox.is_empty());
        // A new item starts a new record.
        let other = items[1].id();
        shard
            .deliver_news(CYCLE, other, &[Bytes::new(), Bytes::new(), Bytes::new()])
            .unwrap();
        assert!(!shard.contacted.contains(2));
        assert_eq!(shard.contacted.touched, Vec::<usize>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The booked path against the node path, bit for bit: two shards
        /// built from one init, one delivering through
        /// [`ShardState::deliver_news`], the other through its twin, over
        /// random rounds of one item at a time — copies repeated across
        /// rounds, self-sent copies, copies from the lower and the higher
        /// shard and from the shard's own queue — under each loss model.
        /// After every round the replies (less the outcomes that report
        /// nothing) and every node's next NEWS draw agree, and whenever
        /// the item changes, so do the checkpoints, which carry the
        /// duplicate counts no report shows.
        #[test]
        fn booked_duplicates_match_the_node_path(
            seed in 0u64..1 << 40,
            loss_kind in 0usize..3,
            rounds in prop::collection::vec(
                (0usize..3, prop::collection::vec((0usize..3, 0u32..10, 0u32..10, 0u8..5), 0..16)),
                1..14,
            ),
        ) {
            let loss = [
                LossModel::Constant { p: 0.3 },
                LossModel::GilbertElliott {
                    p_good: 0.2,
                    p_bad: 0.7,
                    good_to_bad: 0.3,
                    bad_to_good: 0.3,
                },
                LossModel::Partition { from: 0, until: 100, frontier: 0.5 },
            ][loss_kind];
            let (init, items) = middle_shard(seed, loss);
            let mut booked = ShardState::from_init(init.clone());
            let mut by_node = ShardState::from_init(init);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let bad: Vec<bool> = (0..10).map(|_| rng.gen_bool(0.5)).collect();
            let map: BTreeMap<ItemId, NewsItem> = items.iter().map(|i| (i.id(), i.clone())).collect();
            for shard in [&mut booked, &mut by_node] {
                shard.channel_bad.clone_from(&bad);
                shard.handle(Command::BeginNews);
            }
            let (mut current, mut published) = (None, [false; 3]);
            for (k, copies) in rounds {
                let item = &items[k];
                if current != Some(k) {
                    // The last item's epidemic ends: its local copies drop.
                    for shard in [&mut booked, &mut by_node] {
                        shard.pending_local.clear();
                    }
                    prop_assert_eq!(booked.encode_checkpoint(), by_node.encode_checkpoint());
                    current = Some(k);
                    if !std::mem::replace(&mut published[k], true) {
                        let publish = || Command::Publish { cycle: CYCLE, item: item.clone() };
                        prop_assert_eq!(booked.handle(publish()), by_node.handle(publish()));
                    }
                }
                let mut remote: [Vec<(NodeId, NodeId, Payload)>; 3] = Default::default();
                for (src, from, to, dislikes) in copies {
                    let (to, from) = (10 + to, 10 * src as NodeId + from);
                    let payload = copy(item, dislikes, &mut rng);
                    if src == 1 {
                        for shard in [&mut booked, &mut by_node] {
                            let payload = payload.clone();
                            shard.pending_local.push(MailEntry { to, from, payload });
                        }
                    } else {
                        remote[src].push((to, from, payload));
                    }
                }
                let bundles: Vec<Bytes> = remote
                    .iter()
                    .enumerate()
                    .map(|(src, entries)| match entries.is_empty() {
                        true => Bytes::new(),
                        false => encode_shard_bundle(src as u32, entries, &map),
                    })
                    .collect();
                let deliver = Command::DeliverNews { cycle: CYCLE, item: item.id(), bundles: bundles.clone() };
                let reply = booked.handle(deliver);
                let reference = deliver_news_by_node(&mut by_node, CYCLE, item.id(), &bundles);
                prop_assert_eq!(reporting(reply), reporting(reference));
                prop_assert_eq!(next_news_draws(&booked), next_news_draws(&by_node));
            }
            for shard in [&mut booked, &mut by_node] {
                shard.pending_local.clear();
            }
            prop_assert_eq!(booked.encode_checkpoint(), by_node.encode_checkpoint());
        }
    }
}
