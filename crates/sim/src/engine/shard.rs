//! One shard: the node states of a contiguous id range plus the phase
//! logic the driver orchestrates.
//!
//! A shard mutates only its own nodes. Everything it learns about the rest
//! of the network arrives as mailbox bundles or snapshot requests through
//! the exchange protocol, and everything it emits leaves the same way —
//! which is exactly what keeps the execution identical across shard counts
//! and transports (see the module docs of [`crate::engine`]).

use crate::engine::exchange::{self, Command, FirstReception, NewsOutcome, Outbound, Reply};
use crate::engine::mailbox::{decode_shard_bundle_each, MailEntry, Mailbox};
use crate::engine::partition::Partition;
use crate::engine::{node_stream, phase};
use crate::environment::{advance_channels, crash_coin, dropped, partition_cut, rejoin_contact};
use crate::oracle::Oracle;
use crate::scenario::{ChurnModel, LossModel};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand_chacha::ChaCha8Rng;
// lint:allow(det-map) import for the probe-only item store annotated below
use std::collections::HashMap;
use whatsup_core::{
    ColdStart, ItemId, NewsItem, NodeId, NodeState, NodeStats, Opinions, OutMessage, Params,
    Payload, Profile, SharedProfile, WhatsUpNode,
};
use whatsup_net::codec;

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

/// Everything needed to build one shard's state — produced by the driver,
/// consumed directly (in-process) or via `exchange::encode_init` (worker
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

/// A fresh node whose views start at its bootstrap `contacts`, every one
/// carrying the `empty` profile: the RPS view gets all of them, the WUP
/// view the first half (at least one).
pub(crate) fn bootstrapped(
    id: NodeId,
    params: &Params,
    contacts: &[NodeId],
    empty: &SharedProfile,
) -> WhatsUpNode {
    let mut node = WhatsUpNode::new(id, params.clone());
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
            .map(|(id, contacts)| bootstrapped(id, &init.params, contacts, &empty))
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
        }
    }

    pub fn index(&self) -> usize {
        self.index
    }

    fn base(&self) -> NodeId {
        self.partition.range(self.index).start
    }

    fn local(&self, id: NodeId) -> usize {
        let local = id
            .checked_sub(self.base())
            .expect("node not owned by this shard") as usize;
        assert!(local < self.nodes.len(), "node not owned by this shard");
        local
    }

    /// The owned node `id`.
    pub fn node(&self, id: NodeId) -> &WhatsUpNode {
        &self.nodes[self.local(id)]
    }

    /// The owned nodes, in id order.
    pub fn nodes(&self) -> &[WhatsUpNode] {
        &self.nodes
    }

    /// View snapshot of an owned node.
    pub fn snapshot_of(&self, id: NodeId) -> ColdStart {
        self.node(id).views_snapshot()
    }

    /// Heap accounting by component (diagnostics; backs the byte-budget
    /// table in the engine module docs). Returns `(component, bytes)`
    /// rows. Snapshot bytes count each distinct pinned profile `Arc` once,
    /// excluding the nodes' own live profiles.
    #[doc(hidden)]
    pub fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        use std::collections::HashSet; // lint:allow(det-map) diagnostics only, result order is fixed below
        let mut profiles = 0usize;
        let mut seen = 0usize;
        let mut caches = 0usize;
        // lint:allow(det-map) dedup probe for byte totals; never iterated
        let mut pinned: HashSet<usize> = HashSet::new();
        // lint:allow(det-map) membership probe only; never iterated
        let own: HashSet<usize> = self
            .nodes
            .iter()
            .map(|n| n.profile().entries().as_ptr() as usize)
            .collect();
        let mut snapshot_bytes = 0usize;
        for node in &self.nodes {
            let (p, s, c) = node.debug_heap_stats(&mut |shared| {
                let key = shared.entries().as_ptr() as usize;
                if !own.contains(&key) && pinned.insert(key) {
                    // The Arc block (counts + Profile struct) plus what the
                    // profile owns: the entries buffer (capacity) and, once
                    // a merge has scored it, its bit planes.
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
    /// start).
    pub fn admit(&mut self, reference: NodeId, snapshot: Option<&[u8]>) {
        self.oracle.add_clone_of(reference);
        let id = self.partition.push_node();
        if let Some(frame) = snapshot {
            assert_eq!(
                self.index + 1,
                self.partition.n_shards(),
                "joiners belong to the last shard"
            );
            let mut node = WhatsUpNode::new(id, self.params.clone());
            node.cold_start(exchange::decode_cold_start(frame), &self.oracle);
            self.nodes.push(node);
            self.node_stats.push(NodeStats::default());
            self.phase_rngs.push(None);
            self.channel_bad.push(false);
            self.mailbox.grow();
        }
    }

    /// Executes one phase command. The single entry point shared by the
    /// inline driver, the channel workers and the worker processes.
    pub fn handle(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Collect { cycle } => Reply::Outbound(self.collect(cycle)),
            Command::DeliverGossip { cycle, bundles } => {
                Reply::Outbound(self.deliver_gossip(cycle, &bundles))
            }
            Command::ChurnDecide { cycle } => Reply::ChurnDecisions(self.churn_decide(cycle)),
            Command::TakeSnapshots { ids } => Reply::Snapshots(
                ids.iter()
                    .map(|&id| exchange::encode_cold_start(&self.snapshot_of(id)))
                    .collect(),
            ),
            Command::ApplyChurn { resets } => {
                self.apply_churn(&resets);
                Reply::Ack
            }
            Command::Admit {
                reference,
                snapshot,
            } => {
                self.admit(reference, snapshot.as_deref());
                Reply::Ack
            }
            Command::SwapInterests { a, b } => {
                self.oracle.swap_interests(a, b);
                Reply::Ack
            }
            Command::BeginNews => {
                self.phase_rngs.iter_mut().for_each(|r| *r = None);
                Reply::Ack
            }
            Command::Publish { cycle, item } => self.publish(cycle, item),
            Command::DeliverNews {
                cycle,
                item,
                bundles,
            } => self.deliver_news(cycle, item, &bundles),
            Command::TakeCheckpoint => Reply::Checkpoint(self.encode_checkpoint()),
            Command::Restore { frame } => {
                self.restore_checkpoint(&frame);
                Reply::Ack
            }
            Command::Stop => Reply::Ack,
        }
    }

    /// Serializes this shard's full dynamic state as one checkpoint frame.
    ///
    /// Layout (all little-endian, wire-codec encodings for the node data):
    /// partition starts, per-node channel states, the known news items
    /// (ascending item id, canonical), the oracle copy, then one
    /// [`NodeState`] per owned node in id order (profile entries, RPS view,
    /// WUP view, seen ids ascending, stats). Per-cycle measurement counters
    /// live in the driver (folded from the phase replies), so checkpoints
    /// carry no counter residue.
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
        let mut buf = BytesMut::with_capacity(4096);
        let starts = self.partition.starts();
        buf.put_u32_le(starts.len() as u32);
        for &s in starts {
            buf.put_u32_le(s);
        }
        buf.put_u32_le(self.channel_bad.len() as u32);
        for &bad in &self.channel_bad {
            buf.put_u8(u8::from(bad));
        }
        // HashMap iteration order is unspecified; sort for a canonical
        // frame (identical shards must checkpoint to identical bytes).
        let mut items: Vec<&NewsItem> = self.known_items.values().collect();
        items.sort_unstable_by_key(|item| item.id());
        buf.put_u32_le(items.len() as u32);
        for item in items {
            exchange::put_news_item(&mut buf, item);
        }
        exchange::put_oracle(&mut buf, &self.oracle);
        buf.put_u32_le(self.nodes.len() as u32);
        for (node, stats) in self.nodes.iter().zip(&self.node_stats) {
            let st = node.export_state();
            codec::put_profile(&mut buf, &Profile::from_vec(st.profile));
            codec::put_descriptors(&mut buf, &st.rps_view);
            codec::put_descriptors(&mut buf, &st.wup_view);
            buf.put_u32_le(st.seen.len() as u32);
            for item in &st.seen {
                buf.put_u64_le(*item);
            }
            put_node_stats(&mut buf, stats);
        }
        buf.freeze()
    }

    /// Replaces this shard's dynamic state with a checkpoint frame
    /// (recovery path — the shard was just rebuilt from its original init).
    /// Transient state is reset: mailboxes empty (guaranteed at the
    /// checkpointed boundary), phase RNGs re-derived on first use.
    pub fn restore_checkpoint(&mut self, mut frame: &[u8]) {
        let buf = &mut frame;
        let n_starts = buf.get_u32_le() as usize;
        let starts = (0..n_starts).map(|_| buf.get_u32_le()).collect();
        self.partition = Partition::from_starts(starts);
        let n_channels = buf.get_u32_le() as usize;
        self.channel_bad = (0..n_channels).map(|_| buf.get_u8() != 0).collect();
        let n_items = buf.get_u32_le() as usize;
        self.known_items = (0..n_items)
            .map(|_| {
                let item = exchange::get_news_item(buf);
                (item.id(), item)
            })
            .collect();
        self.oracle = exchange::get_oracle(buf);
        let range = self.partition.range(self.index);
        let n_nodes = buf.get_u32_le() as usize;
        assert_eq!(range.len(), n_nodes, "checkpoint/partition node mismatch");
        assert_eq!(n_channels, n_nodes, "checkpoint channel-state mismatch");
        let mut node_stats = Vec::with_capacity(n_nodes);
        self.nodes = range
            .zip(0..n_nodes)
            .map(|(id, _)| {
                let profile = codec::get_profile(buf)
                    .expect("malformed checkpoint profile")
                    .entries()
                    .to_vec();
                let rps_view = codec::get_descriptors(buf).expect("malformed checkpoint view");
                let wup_view = codec::get_descriptors(buf).expect("malformed checkpoint view");
                let n_seen = buf.get_u32_le() as usize;
                let seen = (0..n_seen).map(|_| buf.get_u64_le()).collect();
                let node = WhatsUpNode::from_state(
                    id,
                    self.params.clone(),
                    NodeState {
                        profile,
                        rps_view,
                        wup_view,
                        seen,
                    },
                );
                node_stats.push(get_node_stats(buf));
                node
            })
            .collect();
        self.node_stats = node_stats;
        self.phase_rngs = vec![None; n_nodes];
        self.mailbox = Mailbox::new(self.partition.range(self.index));
        self.pending_local = Vec::new();
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
                    self.known_items.get(&id).cloned()
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

    /// Merges one round's inbound mail into the per-node mailboxes, in
    /// ascending source-shard order (this shard's own pending queue takes
    /// its slot). With contiguous ascending shard ranges this reproduces
    /// the global `(sender id, emission order)` mailbox order of a
    /// single-shard run.
    fn merge_inbound(&mut self, bundles: &[Bytes]) {
        debug_assert_eq!(bundles.len(), self.partition.n_shards());
        let Self {
            pending_local,
            mailbox,
            known_items,
            ..
        } = self;
        for (src, bundle) in bundles.iter().enumerate() {
            if src == self.index {
                for entry in pending_local.drain(..) {
                    mailbox.push(entry);
                }
            } else if !bundle.is_empty() {
                decode_shard_bundle_each(
                    bundle,
                    &mut |item| {
                        known_items.insert(item.id(), item);
                    },
                    |to, from, payload| mailbox.push_parts(to, from, payload),
                );
            }
        }
    }

    /// Collect phase: every owned node's cycle tick, in id order.
    fn collect(&mut self, cycle: u32) -> Outbound {
        // Cycle start: trim last cycle's allocation slack before growing
        // again (capacities never influence behavior — see
        // `WhatsUpNode::compact`). This keeps standing memory proportional
        // to live state instead of ratcheting to every Vec's high-water.
        self.nodes.iter_mut().for_each(WhatsUpNode::compact);
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
    fn deliver_gossip(&mut self, cycle: u32, bundles: &[Bytes]) -> Outbound {
        self.merge_inbound(bundles);
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
        self.route_out()
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
    fn apply_churn(&mut self, resets: &[(NodeId, Bytes)]) {
        for (id, frame) in resets {
            let snapshot = exchange::decode_cold_start(frame);
            let mut fresh = WhatsUpNode::new(*id, self.params.clone());
            fresh.cold_start(snapshot, &self.oracle);
            let local = self.local(*id);
            self.nodes[local] = fresh;
            // A rejoining node is a fresh instance: its counters restart
            // with it, exactly as when they lived inside the node.
            self.node_stats[local] = NodeStats::default();
        }
    }

    /// Publishes `item` from its source node (owned by this shard), drawing
    /// from the source's NEWS stream (shared with its deliveries this
    /// cycle).
    fn publish(&mut self, cycle: u32, item: NewsItem) -> Reply {
        let item_id = item.id();
        self.known_items.insert(item_id, item.clone());
        let source = item.source;
        let local = self.local(source);
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
        Reply::Published {
            first_forward_hop,
            out,
        }
    }

    /// One news (BFS) delivery round over the owned receivers, ascending,
    /// reporting per-receiver reception outcomes for the driver's fold.
    fn deliver_news(&mut self, cycle: u32, item_id: ItemId, bundles: &[Bytes]) -> Reply {
        self.merge_inbound(bundles);
        let receivers = self.mailbox.take_receivers();
        let base = self.base();
        let seed = self.seed;
        let loss = self.loss;
        let cut = partition_cut(loss, cycle, self.partition.total());
        let mut outcomes = Vec::with_capacity(receivers.len());
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
            // Fixed per (receiver, round): hoisted out of the per-message
            // closure instead of re-resolving on every copy.
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
                debug_assert_eq!(news.header.id, item_id);
                let (hop, dislikes) = (news.hops + 1, news.dislikes);
                // The node's own verdict books a first reception: it counts
                // one exactly when the copy is neither a duplicate nor one
                // it sent itself.
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
        let out = self.route_out();
        Reply::NewsDelivered { out, outcomes }
    }
}

/// Wire form of one node's counters: seven `u64`s in [`NodeStats`] field
/// order.
fn put_node_stats(buf: &mut BytesMut, stats: &NodeStats) {
    buf.put_u64_le(stats.rps_sent);
    buf.put_u64_le(stats.wup_sent);
    buf.put_u64_le(stats.news_sent);
    buf.put_u64_le(stats.news_received);
    buf.put_u64_le(stats.news_duplicates);
    buf.put_u64_le(stats.news_liked);
    buf.put_u64_le(stats.published);
}

fn get_node_stats(buf: &mut &[u8]) -> NodeStats {
    NodeStats {
        rps_sent: buf.get_u64_le(),
        wup_sent: buf.get_u64_le(),
        news_sent: buf.get_u64_le(),
        news_received: buf.get_u64_le(),
        news_duplicates: buf.get_u64_le(),
        news_liked: buf.get_u64_le(),
        published: buf.get_u64_le(),
    }
}
