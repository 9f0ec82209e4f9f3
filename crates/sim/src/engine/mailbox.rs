//! Per-node mailboxes and the serialized mailbox-bundle exchange.
//!
//! A [`Mailbox`] owns the mail for one shard's node range, stored in a
//! per-shard **arena**: one contiguous entry vector plus per-node chain
//! heads/tails, instead of one heap `Vec` per node. The route step appends
//! to the arena in arrival order (`O(1)`, no per-node allocation); the
//! deliver step drains receivers in ascending id order by walking their
//! chains; [`Mailbox::recycle`] then resets the arena *keeping its
//! capacity*, so steady-state rounds allocate nothing. Bundles are encoded
//! with the `whatsup-net` wire codec (`MAILBOX_BUNDLE` frames), so
//! cross-shard traffic uses exactly the deployment stack's message
//! encoding.

use bytes::BytesMut;
use std::collections::BTreeMap;
use whatsup_core::{ItemId, NewsItem, NodeId, Payload};
use whatsup_net::codec::{self, DecodeError};

/// One addressed in-flight message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MailEntry {
    pub to: NodeId,
    pub from: NodeId,
    pub payload: Payload,
}

/// Chain terminator / empty-slot marker in the arena index arrays.
const NONE: u32 = u32::MAX;

/// One arena cell: a received message plus the index of the next message
/// for the same receiver.
#[derive(Debug)]
struct ArenaEntry {
    from: NodeId,
    payload: Payload,
    next: u32,
}

/// A payload that owns no heap memory — what a drained arena cell is left
/// holding (an empty descriptor list never allocates).
fn empty_payload() -> Payload {
    Payload::RpsRequest(Vec::new())
}

/// The per-node mailboxes of one shard's id range, arena-backed.
#[derive(Debug)]
pub struct Mailbox {
    /// First owned node id.
    base: NodeId,
    /// This round's messages, in push order, chained per receiver. Cleared
    /// (capacity kept) by [`Self::recycle`] after every delivery round.
    arena: Vec<ArenaEntry>,
    /// Per owned node: arena index of its first/last pending message.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Owned ids with mail, in first-touch order (sorted on drain).
    receivers: Vec<NodeId>,
    /// Spare buffer the sorted receiver list is built in, cycled back via
    /// [`Self::restore_receiver_buf`] so neither list reallocates in steady
    /// state.
    receivers_spare: Vec<NodeId>,
}

impl Mailbox {
    pub fn new(range: std::ops::Range<NodeId>) -> Self {
        let n = (range.end - range.start) as usize;
        Self {
            base: range.start,
            arena: Vec::new(),
            heads: vec![NONE; n],
            tails: vec![NONE; n],
            receivers: Vec::new(),
            receivers_spare: Vec::new(),
        }
    }

    fn slot_index(&self, id: NodeId) -> usize {
        let local = id
            .checked_sub(self.base)
            .expect("message routed to the wrong shard") as usize;
        assert!(local < self.heads.len(), "message routed to unknown node");
        local
    }

    /// Appends one message to its receiver's chain (mailbox order is push
    /// order — callers must push in the global total order).
    pub fn push_parts(&mut self, to: NodeId, from: NodeId, payload: Payload) {
        let local = self.slot_index(to);
        let idx = self.arena.len() as u32;
        match self.tails[local] {
            NONE => {
                self.receivers.push(to);
                self.heads[local] = idx;
            }
            tail => self.arena[tail as usize].next = idx,
        }
        self.tails[local] = idx;
        self.arena.push(ArenaEntry {
            from,
            payload,
            next: NONE,
        });
    }

    /// The receivers with mail, ascending, clearing the bookkeeping for the
    /// next round. The returned vector is the mailbox's own spare buffer —
    /// hand it back via [`Self::restore_receiver_buf`] after the drain loop
    /// so its capacity survives the round.
    pub fn take_receivers(&mut self) -> Vec<NodeId> {
        let mut out = std::mem::take(&mut self.receivers_spare);
        out.clear();
        out.append(&mut self.receivers);
        out.sort_unstable();
        out
    }

    /// Returns the buffer from [`Self::take_receivers`] for reuse.
    pub fn restore_receiver_buf(&mut self, buf: Vec<NodeId>) {
        self.receivers_spare = buf;
    }

    /// Drains one receiver's mail in push order, passing each `(from,
    /// payload)` to `visit`. The drained cells stay in the arena (their
    /// payloads replaced by an allocation-free empty) until
    /// [`Self::recycle`] reclaims the round's memory in one sweep.
    pub fn drain_mail(&mut self, id: NodeId, mut visit: impl FnMut(NodeId, Payload)) {
        let local = self.slot_index(id);
        let mut cur = self.heads[local];
        self.heads[local] = NONE;
        self.tails[local] = NONE;
        while cur != NONE {
            let cell = &mut self.arena[cur as usize];
            let from = cell.from;
            let payload = std::mem::replace(&mut cell.payload, empty_payload());
            cur = cell.next;
            visit(from, payload);
        }
    }

    /// Resets the arena after a delivery round, keeping its capacity —
    /// steady-state rounds reuse the same backing memory. Every receiver
    /// must have been drained first.
    pub fn recycle(&mut self) {
        debug_assert!(
            self.receivers.is_empty() && self.heads.iter().all(|&h| h == NONE),
            "recycle with undelivered mail"
        );
        self.arena.clear();
    }

    /// Standing capacity of the arena and its index arrays, in bytes
    /// (diagnostics: the steady-state memory the mailbox holds between
    /// rounds).
    #[doc(hidden)]
    pub fn capacity_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<ArenaEntry>()
            + (self.heads.capacity()
                + self.tails.capacity()
                + self.receivers.capacity()
                + self.receivers_spare.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Adds a slot for a node appended to this shard's range.
    pub(crate) fn grow(&mut self) {
        self.heads.push(NONE);
        self.tails.push(NONE);
    }

    /// Whether no mail is pending — true at every cycle boundary (each
    /// delivery round drains what the previous route step filled and
    /// recycles the arena), which is what lets checkpoints skip in-flight
    /// mail entirely.
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty() && self.arena.is_empty()
    }
}

/// Encodes one shard's outbound mail for another shard as a wire bundle.
/// `items` resolves news ids to content (news travels as content on the
/// wire; ids are recomputed by the receiver).
pub fn encode_shard_bundle(
    from_shard: u32,
    entries: &[(NodeId, NodeId, Payload)],
    items: &BTreeMap<ItemId, NewsItem>,
) -> bytes::Bytes {
    let mut buf = BytesMut::with_capacity(16 + entries.len() * 128);
    codec::encode_bundle_into(&mut buf, from_shard, entries, |id| items.get(&id));
    buf.freeze()
}

/// Streams a wire bundle's mail entries to `sink` without materializing an
/// intermediate vector: each inner frame is decoded as a borrowed view over
/// `frame` and converted straight into its payload. Each *distinct* news
/// content is passed to `register` once per repetition run (the receiving
/// shard caches it so its nodes can re-forward the item later); consecutive
/// entries with identical content or forwarding bytes decode through a
/// [`codec::NewsDecodeCache`], which turns a fan-out's repeated copies into
/// `Arc` clones of one parse.
///
/// A frame that does not decode is an error; the entries before the bad
/// one have already reached `sink`.
pub fn decode_shard_bundle_each(
    frame: &[u8],
    register: &mut impl FnMut(NewsItem),
    mut sink: impl FnMut(NodeId, NodeId, Payload),
) -> Result<(), DecodeError> {
    let mut cache = codec::NewsDecodeCache::default();
    for entry in codec::bundle_view(frame)? {
        let (to, inner) = entry?;
        let (from, payload, fresh_item) = codec::decode_bundle_entry(inner, &mut cache)?;
        if let Some(item) = fresh_item {
            register(item);
        }
        sink(to, from, payload);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::{NewsMessage, Profile, SharedProfile};

    fn push(m: &mut Mailbox, to: NodeId, from: NodeId) {
        m.push_parts(to, from, Payload::RpsRequest(vec![]));
    }

    #[test]
    fn mailbox_preserves_push_order_and_sorts_receivers() {
        let mut m = Mailbox::new(10..20);
        push(&mut m, 15, 1);
        push(&mut m, 12, 2);
        push(&mut m, 15, 3);
        let receivers = m.take_receivers();
        assert_eq!(receivers, vec![12, 15]);
        let mut senders = Vec::new();
        m.drain_mail(15, |from, _| senders.push(from));
        assert_eq!(senders, vec![1, 3], "push order kept");
        m.drain_mail(12, |from, _| senders.push(from));
        assert_eq!(senders, vec![1, 3, 2]);
        m.restore_receiver_buf(receivers);
        m.recycle();
        assert!(m.is_empty());
        assert!(m.take_receivers().is_empty(), "bookkeeping cleared");
    }

    #[test]
    fn arena_capacity_survives_recycle() {
        let mut m = Mailbox::new(0..4);
        for round in 0..3 {
            for i in 0..50u32 {
                push(&mut m, i % 4, i);
            }
            let receivers = m.take_receivers();
            for &id in &receivers {
                m.drain_mail(id, |_, _| {});
            }
            m.restore_receiver_buf(receivers);
            m.recycle();
            assert!(m.is_empty(), "round {round} left mail behind");
            assert!(m.arena.capacity() >= 50, "arena capacity must be kept");
        }
    }

    #[test]
    #[should_panic(expected = "wrong shard")]
    fn foreign_id_rejected() {
        push(&mut Mailbox::new(10..20), 3, 0);
    }

    #[test]
    fn bundle_roundtrip_restores_mail_and_registers_items() {
        let item = NewsItem::new("t", "d", "l", 4, 2);
        let mut items = BTreeMap::new();
        items.insert(item.id(), item.clone());
        let entries = vec![
            (
                7u32,
                4u32,
                Payload::News(NewsMessage {
                    header: item.header(),
                    profile: SharedProfile::new(Profile::new()),
                    dislikes: 0,
                    hops: 1,
                }),
            ),
            (8u32, 5u32, Payload::WupRequest(vec![])),
        ];
        let frame = encode_shard_bundle(0, &entries, &items);
        let mut registered = Vec::new();
        let mut mail = Vec::new();
        decode_shard_bundle_each(&frame, &mut |i| registered.push(i), |to, from, payload| {
            mail.push(MailEntry { to, from, payload })
        })
        .unwrap();
        assert_eq!(mail.len(), 2);
        assert_eq!((mail[0].to, mail[0].from), (7, 4));
        assert_eq!(mail[0].payload, entries[0].2);
        assert_eq!(mail[1].payload, entries[1].2);
        assert_eq!(registered, vec![item]);
    }
}
