//! The shard command protocol and the one link that carries it.
//!
//! The driver orchestrates every phase as a lockstep *round-trip*: one
//! [`Command`] per participating shard, one [`Reply`] back from each.
//! `ShardLink` is one shard's end of that conversation and
//! `roundtrip` the only send-all/receive-all loop in the crate;
//! `engine::driver` is generic over both. Three base links exist because
//! three kinds of traffic do (tabulated in the engine module docs):
//! `InlineLink` runs the shard in place, `ThreadLink` hands values to
//! a worker thread, `stream::StreamLink` moves frames to a worker
//! process. Pipe and TCP workers are that one struct — [`stream`] owns
//! framing, the versioned handshake, `Stop`/teardown sequencing, restart
//! and the worker serve loop (`sim-shard-worker` is a thin shell around
//! it), while `process` and `socket` only say how a connection is
//! opened and (TCP) deadline-armed. `supervisor::Supervised` wraps a
//! restartable link and is a `ShardLink` itself.
//!
//! Every frame is hand-encoded little-endian via the `bytes` buffers;
//! mailbox traffic and view snapshots embed the `whatsup-net` wire codec's
//! encodings, so the two stacks share one message format. Command/reply
//! payloads are engine-internal: both peers have already passed the
//! versioned handshake, so a malformed *payload* is an engine bug and
//! panics. Everything at the conversation boundary — connecting, the
//! handshake, a peer vanishing, a frame truncated on the wire — surfaces
//! as a typed [`TransportError`] naming the endpoint instead.

pub(crate) mod process;
pub(crate) mod socket;
pub mod stream;
pub mod supervisor;

pub use supervisor::Supervision;

use crate::engine::partition::Partition;
use crate::engine::shard::{ShardInit, ShardState};
use crate::oracle::Oracle;
use crate::scenario::{ChurnModel, LossModel};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io;
use std::sync::mpsc;
use whatsup_core::beep::{DislikeRule, TargetPool};
use whatsup_core::{ColdStart, ItemId, Metric, NewsItem, NodeId, Params};
use whatsup_datasets::{CsrLikes, LikeMatrix, LikeStore};
use whatsup_net::codec;

/// A transport-level failure: the conversation with a shard worker could
/// not start or could not continue. Carries the worker's endpoint (a
/// `host:port` address, a child pid, a thread index) so a distributed
/// failure names the machine that caused it.
#[derive(Debug)]
pub struct TransportError {
    /// Human-readable worker endpoint, e.g. `10.0.0.2:7401` or
    /// `sim-shard-worker pid 4242 (shard 1)`.
    pub endpoint: String,
    pub kind: TransportErrorKind,
}

/// What went wrong at the transport boundary.
#[derive(Debug)]
pub enum TransportErrorKind {
    /// Connect, read or write failed — includes a peer closing the
    /// connection mid-run and frames truncated on the wire.
    Io(io::Error),
    /// The peer's greeting was not a shard-worker hello frame.
    HandshakeMagic,
    /// The peer speaks a different protocol version.
    HandshakeVersion { got: u16, want: u16 },
    /// A worker process exited with a failure status.
    WorkerExit(String),
}

impl TransportErrorKind {
    /// Whether a supervisor may retry the conversation with a fresh
    /// worker. I/O failures (crashes, timeouts, torn frames) and worker
    /// exits are environmental — a respawned or redialed worker can
    /// succeed. Handshake failures are *configuration* errors: the peer is
    /// not a shard worker, or speaks a different protocol version, and a
    /// restarted peer would fail identically — restart-looping it would
    /// mask a version-skewed deployment instead of reporting it.
    pub fn is_retryable(&self) -> bool {
        match self {
            TransportErrorKind::Io(_) | TransportErrorKind::WorkerExit(_) => true,
            TransportErrorKind::HandshakeMagic | TransportErrorKind::HandshakeVersion { .. } => {
                false
            }
        }
    }
}

impl TransportError {
    pub fn io(endpoint: impl Into<String>, err: io::Error) -> Self {
        Self {
            endpoint: endpoint.into(),
            kind: TransportErrorKind::Io(err),
        }
    }

    /// An `Io` error for a peer that closed the connection at a frame
    /// boundary where more frames were required.
    pub fn closed(endpoint: impl Into<String>, what: &str) -> Self {
        Self::io(
            endpoint,
            io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string()),
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TransportErrorKind::Io(e) => write!(f, "shard worker {}: {e}", self.endpoint),
            TransportErrorKind::HandshakeMagic => write!(
                f,
                "shard worker {}: handshake failed — peer is not a sim-shard-worker",
                self.endpoint
            ),
            TransportErrorKind::HandshakeVersion { got, want } => write!(
                f,
                "shard worker {}: handshake failed — peer speaks exchange \
                 protocol v{got}, this driver speaks v{want}",
                self.endpoint
            ),
            TransportErrorKind::WorkerExit(status) => {
                write!(f, "shard worker {}: exited with {status}", self.endpoint)
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            TransportErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for io::Error {
    fn from(err: TransportError) -> Self {
        io::Error::other(err.to_string())
    }
}

/// A driver → shard phase command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run `on_cycle` for every owned node; route the emissions.
    Collect { cycle: u32 },
    /// Merge inbound gossip bundles (one per source shard, empty allowed)
    /// and drain the mailboxes; route the replies.
    DeliverGossip { cycle: u32, bundles: Vec<Bytes> },
    /// Draw the per-node crash coins and rejoin contacts.
    ChurnDecide { cycle: u32 },
    /// Snapshot the views of the given owned nodes (pre-churn state).
    TakeSnapshots { ids: Vec<NodeId> },
    /// Reset each `(node, snapshot)` to a fresh cold-started instance.
    ApplyChurn { resets: Vec<(NodeId, Bytes)> },
    /// A node joins at the end of the id space, interests cloned from
    /// `reference`. Broadcast to every shard (each updates its partition and
    /// oracle copies); only the owning (last) shard receives the rejoin
    /// snapshot and builds the node.
    Admit {
        reference: NodeId,
        snapshot: Option<Bytes>,
    },
    /// Swap the ground-truth interests of two nodes in this shard's oracle
    /// copy (broadcast; the driver keeps every copy in lockstep).
    SwapInterests { a: NodeId, b: NodeId },
    /// Reset the news-phase RNGs (start of the publication phase).
    BeginNews,
    /// Publish `item` from its source node (owned by this shard).
    Publish { cycle: u32, item: NewsItem },
    /// Merge inbound news bundles and drain; report reception outcomes.
    DeliverNews {
        cycle: u32,
        item: ItemId,
        bundles: Vec<Bytes>,
    },
    /// Serialize the shard's full state (issued at a cycle boundary, where
    /// the mailboxes are provably empty). Answered with
    /// [`Reply::Checkpoint`].
    TakeCheckpoint,
    /// Replace the shard's state with a previously taken checkpoint frame
    /// (recovery path; the worker was freshly handshaken with its original
    /// init before this arrives). Answered with [`Reply::Ack`].
    Restore { frame: Bytes },
    /// Exit the serve loop.
    Stop,
}

/// Routed emissions of one shard for one round: the total emission count
/// (for traffic accounting, self-shard mail included) and one bundle per
/// destination shard (empty for none; the self slot is always empty —
/// local mail stays in the shard's pending queue).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outbound {
    pub sent: u64,
    /// Messages parked in the emitting shard's own pending queue. The
    /// driver uses this to skip delivery round-trips to shards with no
    /// inbound mail at all (sparse BFS tails).
    pub local: u64,
    pub bundles: Vec<Bytes>,
}

impl Outbound {
    /// An empty round for a shard that was skipped (no mail anywhere).
    pub fn empty(shards: usize) -> Self {
        Outbound {
            sent: 0,
            local: 0,
            bundles: vec![Bytes::new(); shards],
        }
    }
}

/// Wire form of one receiver's first reception of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstReception {
    pub hop: u16,
    pub sender_liked: bool,
    pub receiver_likes: bool,
    pub dislikes: u8,
}

/// Wire form of one receiver's outcome in a news delivery round, folded by
/// the driver in receiver order.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsOutcome {
    pub receiver: NodeId,
    pub first: Option<FirstReception>,
    /// `(hop, forwarder_liked)` when the receiver forwarded (Fig. 6).
    pub forward: Option<(u16, bool)>,
}

/// A shard → driver phase reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Outbound(Outbound),
    ChurnDecisions(Vec<(NodeId, NodeId)>),
    /// Snapshots in request order (encoded [`ColdStart`]s).
    Snapshots(Vec<Bytes>),
    Ack,
    Published {
        /// Hop stamp of the source's forwards, when it forwarded.
        first_forward_hop: Option<u16>,
        out: Outbound,
    },
    NewsDelivered {
        out: Outbound,
        outcomes: Vec<NewsOutcome>,
    },
    /// The shard's serialized state (see
    /// [`crate::engine::shard::ShardState::encode_checkpoint`] for the
    /// frame layout).
    Checkpoint(Bytes),
}

/// One shard's end of the driver↔shard conversation: commands go in,
/// exactly one reply comes back per command, in FIFO order. A failed call
/// leaves the link in an unspecified state: the driver must abandon the
/// run (dropping the link tears its worker down) — unless the link is a
/// [`supervisor::Supervised`] wrapper, which recovers the shard internally
/// and only fails after exhausting its restart budget.
pub(crate) trait ShardLink {
    /// Human-readable worker endpoint, named in errors.
    fn endpoint(&self) -> String;

    /// Hands one command to the shard. Must not wait for the reply, so
    /// that a batch keeps every shard computing at once.
    fn send(&mut self, cmd: Command) -> Result<(), TransportError>;

    /// The reply to the oldest unanswered command.
    fn recv(&mut self) -> Result<Reply, TransportError>;

    /// Graceful teardown once the run is over: the worker is told to stop
    /// and waited for. Links with nothing to reap tear down by dropping.
    fn shutdown(self) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        Ok(())
    }
}

/// The lockstep round-trip — the one send-all/receive-all loop of the
/// engine. `batch` names at most one command per shard; every command is
/// sent before the first reply is read (the shards compute in parallel),
/// and the replies come back in batch order.
pub(crate) fn roundtrip<L: ShardLink>(
    links: &mut [L],
    batch: Vec<(usize, Command)>,
) -> Result<Vec<Reply>, TransportError> {
    let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
    for (s, cmd) in batch {
        links[s].send(cmd)?;
    }
    targets.into_iter().map(|s| links[s].recv()).collect()
}

/// Single-shard fast path: the shard is driven in place on the calling
/// thread — `send` runs the command, the reply waits for `recv`. No codec,
/// no copy.
pub(crate) struct InlineLink<'a> {
    shard: &'a mut ShardState,
    reply: Option<Reply>,
}

impl<'a> InlineLink<'a> {
    /// One link per shard, in shard order.
    pub(crate) fn over(shards: &'a mut [ShardState]) -> Vec<Self> {
        let link = |shard| Self { shard, reply: None };
        shards.iter_mut().map(link).collect()
    }
}

impl ShardLink for InlineLink<'_> {
    fn endpoint(&self) -> String {
        "inline shard".into()
    }

    fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
        self.reply = Some(self.shard.handle(cmd));
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, TransportError> {
        Ok(self.reply.take().expect("recv follows a send"))
    }
}

/// In-process link to a shard worker thread: [`Command`] and [`Reply`]
/// *values* over channels, dispatched through [`ShardState::handle`].
///
/// No command/reply codec runs on this path: the workers share the
/// driver's address space, so the `Bytes` bundles inside commands and
/// replies travel as refcounted clones. Encoding frames here would
/// deep-copy every gossip bundle once per shard per phase — the dominant
/// term in the multi-shard in-process memory footprint. The byte-stream
/// link still exercises the full codec, and bundles themselves are
/// wire-encoded on every link, so cross-link byte parity is unaffected.
pub(crate) struct ThreadLink {
    shard: usize,
    to: mpsc::Sender<Command>,
    from: mpsc::Receiver<Reply>,
}

impl ThreadLink {
    /// Spawns the worker thread of shard number `shard` on `scope`. The
    /// thread serves until the link is dropped (the command channel
    /// closes), which is what lets the scope join.
    pub(crate) fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        shard: usize,
        state: &'scope mut ShardState,
    ) -> Self {
        let (to, commands) = mpsc::channel();
        let (replies, from) = mpsc::channel();
        scope.spawn(move || {
            while let Ok(cmd) = commands.recv() {
                let _ = replies.send(state.handle(cmd));
            }
        });
        Self { shard, to, from }
    }

    fn hung_up(&self) -> TransportError {
        TransportError::closed(self.endpoint(), "shard thread hung up")
    }
}

impl ShardLink for ThreadLink {
    fn endpoint(&self) -> String {
        format!("in-process thread (shard {})", self.shard)
    }

    fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
        self.to.send(cmd).map_err(|_| self.hung_up())
    }

    fn recv(&mut self) -> Result<Reply, TransportError> {
        self.from.recv().map_err(|_| self.hung_up())
    }
}

// ---------------------------------------------------------------------------
// Frame encoding helpers
// ---------------------------------------------------------------------------

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut &[u8]) -> Bytes {
    let len = buf.get_u32_le() as usize;
    let out = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    out
}

fn put_str(buf: &mut BytesMut, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string field too long");
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> String {
    let len = buf.get_u16_le() as usize;
    let out = String::from_utf8(buf[..len].to_vec()).expect("utf-8 string field");
    buf.advance(len);
    out
}

fn put_bundle_list(buf: &mut BytesMut, bundles: &[Bytes]) {
    buf.put_u32_le(bundles.len() as u32);
    for b in bundles {
        put_bytes(buf, b);
    }
}

fn get_bundle_list(buf: &mut &[u8]) -> Vec<Bytes> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| get_bytes(buf)).collect()
}

pub(crate) fn put_news_item(buf: &mut BytesMut, item: &NewsItem) {
    put_str(buf, &item.title);
    put_str(buf, &item.description);
    put_str(buf, &item.link);
    buf.put_u32_le(item.source);
    buf.put_u32_le(item.created_at);
}

pub(crate) fn get_news_item(buf: &mut &[u8]) -> NewsItem {
    let title = get_str(buf);
    let description = get_str(buf);
    let link = get_str(buf);
    let source = buf.get_u32_le();
    let created_at = buf.get_u32_le();
    NewsItem {
        title,
        description,
        link,
        source,
        created_at,
    }
}

/// Serializes a view snapshot with the wire codec's descriptor encoding.
pub fn encode_cold_start(cs: &ColdStart) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    codec::put_descriptors(&mut buf, &cs.rps_view);
    codec::put_descriptors(&mut buf, &cs.wup_view);
    buf.freeze()
}

/// Inverse of [`encode_cold_start`].
pub fn decode_cold_start(mut frame: &[u8]) -> ColdStart {
    let rps_view = codec::get_descriptors(&mut frame).expect("malformed snapshot");
    let wup_view = codec::get_descriptors(&mut frame).expect("malformed snapshot");
    ColdStart { rps_view, wup_view }
}

// ---------------------------------------------------------------------------
// Command / reply frames
// ---------------------------------------------------------------------------

const CMD_COLLECT: u8 = 1;
const CMD_DELIVER_GOSSIP: u8 = 2;
const CMD_CHURN_DECIDE: u8 = 3;
const CMD_TAKE_SNAPSHOTS: u8 = 4;
const CMD_APPLY_CHURN: u8 = 5;
const CMD_BEGIN_NEWS: u8 = 6;
const CMD_PUBLISH: u8 = 7;
const CMD_DELIVER_NEWS: u8 = 8;
const CMD_STOP: u8 = 9;
const CMD_ADMIT: u8 = 10;
const CMD_SWAP_INTERESTS: u8 = 11;
// Opcode 12 was `TakeCycleCounters` in protocol v2; the driver now folds
// cycle counters from the phase replies it already receives, so the
// end-of-cycle counter round-trip no longer exists.
const CMD_TAKE_CHECKPOINT: u8 = 13;
const CMD_RESTORE: u8 = 14;

pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    match cmd {
        Command::Collect { cycle } => {
            buf.put_u8(CMD_COLLECT);
            buf.put_u32_le(*cycle);
        }
        Command::DeliverGossip { cycle, bundles } => {
            buf.put_u8(CMD_DELIVER_GOSSIP);
            buf.put_u32_le(*cycle);
            put_bundle_list(&mut buf, bundles);
        }
        Command::ChurnDecide { cycle } => {
            buf.put_u8(CMD_CHURN_DECIDE);
            buf.put_u32_le(*cycle);
        }
        Command::TakeSnapshots { ids } => {
            buf.put_u8(CMD_TAKE_SNAPSHOTS);
            buf.put_u32_le(ids.len() as u32);
            for id in ids {
                buf.put_u32_le(*id);
            }
        }
        Command::ApplyChurn { resets } => {
            buf.put_u8(CMD_APPLY_CHURN);
            buf.put_u32_le(resets.len() as u32);
            for (node, snapshot) in resets {
                buf.put_u32_le(*node);
                put_bytes(&mut buf, snapshot);
            }
        }
        Command::BeginNews => buf.put_u8(CMD_BEGIN_NEWS),
        Command::Publish { cycle, item } => {
            buf.put_u8(CMD_PUBLISH);
            buf.put_u32_le(*cycle);
            put_news_item(&mut buf, item);
        }
        Command::DeliverNews {
            cycle,
            item,
            bundles,
        } => {
            buf.put_u8(CMD_DELIVER_NEWS);
            buf.put_u32_le(*cycle);
            buf.put_u64_le(*item);
            put_bundle_list(&mut buf, bundles);
        }
        Command::Admit {
            reference,
            snapshot,
        } => {
            buf.put_u8(CMD_ADMIT);
            buf.put_u32_le(*reference);
            buf.put_u8(u8::from(snapshot.is_some()));
            if let Some(frame) = snapshot {
                put_bytes(&mut buf, frame);
            }
        }
        Command::SwapInterests { a, b } => {
            buf.put_u8(CMD_SWAP_INTERESTS);
            buf.put_u32_le(*a);
            buf.put_u32_le(*b);
        }
        Command::TakeCheckpoint => buf.put_u8(CMD_TAKE_CHECKPOINT),
        Command::Restore { frame } => {
            buf.put_u8(CMD_RESTORE);
            put_bytes(&mut buf, frame);
        }
        Command::Stop => buf.put_u8(CMD_STOP),
    }
    Vec::from(buf)
}

pub fn decode_command(mut frame: &[u8]) -> Command {
    let buf = &mut frame;
    match buf.get_u8() {
        CMD_COLLECT => Command::Collect {
            cycle: buf.get_u32_le(),
        },
        CMD_DELIVER_GOSSIP => Command::DeliverGossip {
            cycle: buf.get_u32_le(),
            bundles: get_bundle_list(buf),
        },
        CMD_CHURN_DECIDE => Command::ChurnDecide {
            cycle: buf.get_u32_le(),
        },
        CMD_TAKE_SNAPSHOTS => {
            let n = buf.get_u32_le() as usize;
            Command::TakeSnapshots {
                ids: (0..n).map(|_| buf.get_u32_le()).collect(),
            }
        }
        CMD_APPLY_CHURN => {
            let n = buf.get_u32_le() as usize;
            Command::ApplyChurn {
                resets: (0..n)
                    .map(|_| {
                        let node = buf.get_u32_le();
                        let snapshot = get_bytes(buf);
                        (node, snapshot)
                    })
                    .collect(),
            }
        }
        CMD_BEGIN_NEWS => Command::BeginNews,
        CMD_PUBLISH => Command::Publish {
            cycle: buf.get_u32_le(),
            item: get_news_item(buf),
        },
        CMD_DELIVER_NEWS => Command::DeliverNews {
            cycle: buf.get_u32_le(),
            item: buf.get_u64_le(),
            bundles: get_bundle_list(buf),
        },
        CMD_ADMIT => {
            let reference = buf.get_u32_le();
            let has_snapshot = buf.get_u8() != 0;
            Command::Admit {
                reference,
                snapshot: has_snapshot.then(|| get_bytes(buf)),
            }
        }
        CMD_SWAP_INTERESTS => Command::SwapInterests {
            a: buf.get_u32_le(),
            b: buf.get_u32_le(),
        },
        CMD_TAKE_CHECKPOINT => Command::TakeCheckpoint,
        CMD_RESTORE => Command::Restore {
            frame: get_bytes(buf),
        },
        CMD_STOP => Command::Stop,
        other => panic!("unknown command opcode {other}"),
    }
}

const REP_OUTBOUND: u8 = 1;
const REP_CHURN: u8 = 2;
const REP_SNAPSHOTS: u8 = 3;
const REP_ACK: u8 = 4;
const REP_PUBLISHED: u8 = 5;
const REP_NEWS: u8 = 6;
// Opcode 7 was `CycleCounters` in protocol v2 (see the command-side note).
const REP_CHECKPOINT: u8 = 8;

fn put_outbound(buf: &mut BytesMut, out: &Outbound) {
    buf.put_u64_le(out.sent);
    buf.put_u64_le(out.local);
    put_bundle_list(buf, &out.bundles);
}

fn get_outbound(buf: &mut &[u8]) -> Outbound {
    Outbound {
        sent: buf.get_u64_le(),
        local: buf.get_u64_le(),
        bundles: get_bundle_list(buf),
    }
}

pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    match reply {
        Reply::Outbound(out) => {
            buf.put_u8(REP_OUTBOUND);
            put_outbound(&mut buf, out);
        }
        Reply::ChurnDecisions(pairs) => {
            buf.put_u8(REP_CHURN);
            buf.put_u32_le(pairs.len() as u32);
            for (node, contact) in pairs {
                buf.put_u32_le(*node);
                buf.put_u32_le(*contact);
            }
        }
        Reply::Snapshots(snaps) => {
            buf.put_u8(REP_SNAPSHOTS);
            put_bundle_list(&mut buf, snaps);
        }
        Reply::Ack => buf.put_u8(REP_ACK),
        Reply::Published {
            first_forward_hop,
            out,
        } => {
            buf.put_u8(REP_PUBLISHED);
            buf.put_u8(u8::from(first_forward_hop.is_some()));
            buf.put_u16_le(first_forward_hop.unwrap_or(0));
            put_outbound(&mut buf, out);
        }
        Reply::NewsDelivered { out, outcomes } => {
            buf.put_u8(REP_NEWS);
            put_outbound(&mut buf, out);
            buf.put_u32_le(outcomes.len() as u32);
            for o in outcomes {
                buf.put_u32_le(o.receiver);
                let first = o.first.unwrap_or(FirstReception {
                    hop: 0,
                    sender_liked: false,
                    receiver_likes: false,
                    dislikes: 0,
                });
                let (fwd_hop, fwd_liked) = o.forward.unwrap_or((0, false));
                let flags = u8::from(o.first.is_some())
                    | u8::from(first.sender_liked) << 1
                    | u8::from(first.receiver_likes) << 2
                    | u8::from(o.forward.is_some()) << 3
                    | u8::from(fwd_liked) << 4;
                buf.put_u8(flags);
                buf.put_u16_le(first.hop);
                buf.put_u8(first.dislikes);
                buf.put_u16_le(fwd_hop);
            }
        }
        Reply::Checkpoint(frame) => {
            buf.put_u8(REP_CHECKPOINT);
            put_bytes(&mut buf, frame);
        }
    }
    Vec::from(buf)
}

pub fn decode_reply(mut frame: &[u8]) -> Reply {
    let buf = &mut frame;
    match buf.get_u8() {
        REP_OUTBOUND => Reply::Outbound(get_outbound(buf)),
        REP_CHURN => {
            let n = buf.get_u32_le() as usize;
            Reply::ChurnDecisions(
                (0..n)
                    .map(|_| {
                        let node = buf.get_u32_le();
                        let contact = buf.get_u32_le();
                        (node, contact)
                    })
                    .collect(),
            )
        }
        REP_SNAPSHOTS => Reply::Snapshots(get_bundle_list(buf)),
        REP_ACK => Reply::Ack,
        REP_PUBLISHED => {
            let has_hop = buf.get_u8() != 0;
            let hop = buf.get_u16_le();
            Reply::Published {
                first_forward_hop: has_hop.then_some(hop),
                out: get_outbound(buf),
            }
        }
        REP_NEWS => {
            let out = get_outbound(buf);
            let n = buf.get_u32_le() as usize;
            let outcomes = (0..n)
                .map(|_| {
                    let receiver = buf.get_u32_le();
                    let flags = buf.get_u8();
                    let hop = buf.get_u16_le();
                    let dislikes = buf.get_u8();
                    let fwd_hop = buf.get_u16_le();
                    NewsOutcome {
                        receiver,
                        first: (flags & 1 != 0).then_some(FirstReception {
                            hop,
                            sender_liked: flags & 2 != 0,
                            receiver_likes: flags & 4 != 0,
                            dislikes,
                        }),
                        forward: (flags & 8 != 0).then_some((fwd_hop, flags & 16 != 0)),
                    }
                })
                .collect();
            Reply::NewsDelivered { out, outcomes }
        }
        REP_CHECKPOINT => Reply::Checkpoint(get_bytes(buf)),
        other => panic!("unknown reply opcode {other}"),
    }
}

// ---------------------------------------------------------------------------
// Shard init frame (multi-process bootstrap)
// ---------------------------------------------------------------------------

fn put_params(buf: &mut BytesMut, p: &Params) {
    buf.put_u32_le(p.rps.view_size as u32);
    buf.put_u32_le(p.rps.exchange_len as u32);
    buf.put_u32_le(p.rps_period);
    buf.put_u32_le(p.wup_view_size as u32);
    buf.put_u8(match p.metric {
        Metric::Wup => 0,
        Metric::Cosine => 1,
        Metric::Jaccard => 2,
    });
    buf.put_u32_le(p.profile_window);
    buf.put_u32_le(p.beep.f_like as u32);
    buf.put_u8(match p.beep.like_pool {
        TargetPool::Wup => 0,
        TargetPool::Rps => 1,
    });
    buf.put_u8(u8::from(p.beep.like_entire_view));
    match p.beep.dislike {
        DislikeRule::Drop => {
            buf.put_u8(0);
            buf.put_u32_le(0);
            buf.put_u8(0);
            buf.put_u8(0);
        }
        DislikeRule::Forward {
            fanout,
            ttl,
            oriented,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(fanout as u32);
            buf.put_u8(ttl);
            buf.put_u8(u8::from(oriented));
        }
    }
    buf.put_u32_le(p.cold_start_items as u32);
    buf.put_f64_le(p.obfuscation_epsilon);
}

fn get_params(buf: &mut &[u8]) -> Params {
    let mut p = Params::default();
    p.rps.view_size = buf.get_u32_le() as usize;
    p.rps.exchange_len = buf.get_u32_le() as usize;
    p.rps_period = buf.get_u32_le();
    p.wup_view_size = buf.get_u32_le() as usize;
    p.metric = match buf.get_u8() {
        0 => Metric::Wup,
        1 => Metric::Cosine,
        2 => Metric::Jaccard,
        other => panic!("unknown metric tag {other}"),
    };
    p.profile_window = buf.get_u32_le();
    p.beep.f_like = buf.get_u32_le() as usize;
    p.beep.like_pool = match buf.get_u8() {
        0 => TargetPool::Wup,
        1 => TargetPool::Rps,
        other => panic!("unknown target pool tag {other}"),
    };
    p.beep.like_entire_view = buf.get_u8() != 0;
    let dislike_tag = buf.get_u8();
    let fanout = buf.get_u32_le() as usize;
    let ttl = buf.get_u8();
    let oriented = buf.get_u8() != 0;
    p.beep.dislike = match dislike_tag {
        0 => DislikeRule::Drop,
        1 => DislikeRule::Forward {
            fanout,
            ttl,
            oriented,
        },
        other => panic!("unknown dislike tag {other}"),
    };
    p.cold_start_items = buf.get_u32_le() as usize;
    p.obfuscation_epsilon = buf.get_f64_le();
    p
}

fn put_loss_model(buf: &mut BytesMut, loss: &LossModel) {
    match *loss {
        LossModel::Constant { p } => {
            buf.put_u8(0);
            buf.put_f64_le(p);
        }
        LossModel::GilbertElliott {
            p_good,
            p_bad,
            good_to_bad,
            bad_to_good,
        } => {
            buf.put_u8(1);
            buf.put_f64_le(p_good);
            buf.put_f64_le(p_bad);
            buf.put_f64_le(good_to_bad);
            buf.put_f64_le(bad_to_good);
        }
        LossModel::Partition {
            from,
            until,
            frontier,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(from);
            buf.put_u32_le(until);
            buf.put_f64_le(frontier);
        }
    }
}

fn get_loss_model(buf: &mut &[u8]) -> LossModel {
    match buf.get_u8() {
        0 => LossModel::Constant {
            p: buf.get_f64_le(),
        },
        1 => LossModel::GilbertElliott {
            p_good: buf.get_f64_le(),
            p_bad: buf.get_f64_le(),
            good_to_bad: buf.get_f64_le(),
            bad_to_good: buf.get_f64_le(),
        },
        2 => LossModel::Partition {
            from: buf.get_u32_le(),
            until: buf.get_u32_le(),
            frontier: buf.get_f64_le(),
        },
        other => panic!("unknown loss model tag {other}"),
    }
}

fn put_churn_model(buf: &mut BytesMut, churn: &ChurnModel) {
    match *churn {
        ChurnModel::None => buf.put_u8(0),
        ChurnModel::Uniform { per_cycle } => {
            buf.put_u8(1);
            buf.put_f64_le(per_cycle);
        }
        ChurnModel::CrashWave { at, fraction } => {
            buf.put_u8(2);
            buf.put_u32_le(at);
            buf.put_f64_le(fraction);
        }
        ChurnModel::MassJoin { at, count } => {
            buf.put_u8(3);
            buf.put_u32_le(at);
            buf.put_u32_le(count);
        }
    }
}

fn get_churn_model(buf: &mut &[u8]) -> ChurnModel {
    match buf.get_u8() {
        0 => ChurnModel::None,
        1 => ChurnModel::Uniform {
            per_cycle: buf.get_f64_le(),
        },
        2 => ChurnModel::CrashWave {
            at: buf.get_u32_le(),
            fraction: buf.get_f64_le(),
        },
        3 => ChurnModel::MassJoin {
            at: buf.get_u32_le(),
            count: buf.get_u32_le(),
        },
        other => panic!("unknown churn model tag {other}"),
    }
}

/// Like-store wire tags (see [`put_oracle`]).
const ORACLE_STORE_DENSE: u8 = 0;
const ORACLE_STORE_SPARSE: u8 = 1;

pub(crate) fn put_oracle(buf: &mut BytesMut, oracle: &Oracle) {
    // One tag byte selects the like-store representation; the chosen form
    // travels as-is, so a worker reconstructs the exact store the driver
    // measured cheaper (never re-deciding, which keeps every copy equal).
    match oracle.store() {
        LikeStore::Dense(m) => {
            buf.put_u8(ORACLE_STORE_DENSE);
            buf.put_u32_le(m.n_users() as u32);
            buf.put_u32_le(m.n_items() as u32);
            buf.put_u32_le(m.words().len() as u32);
            for &w in m.words() {
                buf.put_u64_le(w);
            }
        }
        LikeStore::Sparse(c) => {
            buf.put_u8(ORACLE_STORE_SPARSE);
            buf.put_u32_le(c.n_users() as u32);
            buf.put_u32_le(c.n_items() as u32);
            buf.put_u32_le(c.items().len() as u32);
            // offsets[0] is always 0: ship the n_users tail offsets.
            for &o in &c.offsets()[1..] {
                buf.put_u32_le(o);
            }
            for &i in c.items() {
                buf.put_u32_le(i);
            }
        }
    }
    // HashMap iteration order is unspecified; sort for a canonical frame.
    let mut pairs: Vec<(ItemId, u32)> = oracle.id_map().iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    buf.put_u32_le(pairs.len() as u32);
    for (id, index) in pairs {
        buf.put_u64_le(id);
        buf.put_u32_le(index);
    }
    buf.put_u32_le(oracle.alias().len() as u32);
    for &row in oracle.alias() {
        buf.put_u32_le(row);
    }
}

pub(crate) fn get_oracle(buf: &mut &[u8]) -> Oracle {
    let store = match buf.get_u8() {
        ORACLE_STORE_DENSE => {
            let n_users = buf.get_u32_le() as usize;
            let n_items = buf.get_u32_le() as usize;
            let n_words = buf.get_u32_le() as usize;
            let words = (0..n_words).map(|_| buf.get_u64_le()).collect();
            LikeStore::Dense(LikeMatrix::from_words(n_users, n_items, words))
        }
        ORACLE_STORE_SPARSE => {
            let n_users = buf.get_u32_le() as usize;
            let n_items = buf.get_u32_le() as usize;
            let nnz = buf.get_u32_le() as usize;
            let mut offsets = Vec::with_capacity(n_users + 1);
            offsets.push(0u32);
            offsets.extend((0..n_users).map(|_| buf.get_u32_le()));
            let items = (0..nnz).map(|_| buf.get_u32_le()).collect();
            LikeStore::Sparse(CsrLikes::from_parts(n_items, offsets, items))
        }
        other => panic!("unknown like-store tag {other}"),
    };
    let n_pairs = buf.get_u32_le() as usize;
    let id_to_index: crate::oracle::ItemIndexMap = (0..n_pairs)
        .map(|_| {
            let id = buf.get_u64_le();
            let index = buf.get_u32_le();
            (id, index)
        })
        .collect();
    let n_alias = buf.get_u32_le() as usize;
    let alias = (0..n_alias).map(|_| buf.get_u32_le()).collect();
    Oracle::restore(store, id_to_index, alias)
}

/// Serializes everything a worker process needs to build its
/// [`crate::engine::ShardState`].
pub fn encode_init(init: &ShardInit) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_u32_le(init.index as u32);
    let starts = init.partition.starts();
    buf.put_u32_le(starts.len() as u32);
    for &s in starts {
        buf.put_u32_le(s);
    }
    buf.put_u64_le(init.seed);
    put_loss_model(&mut buf, &init.loss);
    put_churn_model(&mut buf, &init.churn);
    put_params(&mut buf, &init.params);
    put_oracle(&mut buf, &init.oracle);
    buf.put_u32_le(init.bootstrap.len() as u32);
    for contacts in &init.bootstrap {
        buf.put_u32_le(contacts.len() as u32);
        for &c in contacts {
            buf.put_u32_le(c);
        }
    }
    Vec::from(buf)
}

/// Inverse of [`encode_init`].
pub fn decode_init(mut frame: &[u8]) -> ShardInit {
    let buf = &mut frame;
    let index = buf.get_u32_le() as usize;
    let n_starts = buf.get_u32_le() as usize;
    let starts = (0..n_starts).map(|_| buf.get_u32_le()).collect();
    let partition = Partition::from_starts(starts);
    let seed = buf.get_u64_le();
    let loss = get_loss_model(buf);
    let churn = get_churn_model(buf);
    let params = get_params(buf);
    let oracle = get_oracle(buf);
    let n_nodes = buf.get_u32_le() as usize;
    let bootstrap = (0..n_nodes)
        .map(|_| {
            let n = buf.get_u32_le() as usize;
            (0..n).map(|_| buf.get_u32_le()).collect()
        })
        .collect();
    ShardInit {
        index,
        partition,
        seed,
        loss,
        churn,
        params,
        oracle,
        bootstrap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A link that records every call in a log shared by all shards and
    /// answers `Collect` with its own shard index as the `sent` total.
    struct RecordingLink {
        shard: u64,
        calls: Rc<RefCell<Vec<String>>>,
    }

    impl ShardLink for RecordingLink {
        fn endpoint(&self) -> String {
            format!("recording link {}", self.shard)
        }

        fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
            assert!(matches!(cmd, Command::Collect { cycle: 7 }));
            self.calls.borrow_mut().push(format!("send {}", self.shard));
            Ok(())
        }

        fn recv(&mut self) -> Result<Reply, TransportError> {
            self.calls.borrow_mut().push(format!("recv {}", self.shard));
            Ok(Reply::Outbound(Outbound {
                sent: self.shard,
                ..Outbound::default()
            }))
        }
    }

    #[test]
    fn roundtrip_sends_the_whole_batch_before_reading_replies_in_batch_order() {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut links: Vec<RecordingLink> = (0..4)
            .map(|shard| RecordingLink {
                shard,
                calls: Rc::clone(&calls),
            })
            .collect();
        // A subset of the shards, deliberately not in shard order.
        let batch = [3, 0, 2]
            .map(|s| (s, Command::Collect { cycle: 7 }))
            .to_vec();
        let replies = roundtrip(&mut links, batch).expect("mock links cannot fail");
        let sent: Vec<u64> = replies
            .iter()
            .map(|r| match r {
                Reply::Outbound(o) => o.sent,
                other => panic!("expected Outbound, got {other:?}"),
            })
            .collect();
        assert_eq!(sent, [3, 0, 2], "replies come back in batch order");
        assert_eq!(
            *calls.borrow(),
            ["send 3", "send 0", "send 2", "recv 3", "recv 0", "recv 2"],
            "every send precedes the first recv; shard 1 is never touched"
        );
    }

    #[test]
    fn command_frames_roundtrip() {
        let cmds = vec![
            Command::Collect { cycle: 7 },
            Command::DeliverGossip {
                cycle: 7,
                bundles: vec![Bytes::new(), Bytes::copy_from_slice(b"abc")],
            },
            Command::ChurnDecide { cycle: 9 },
            Command::TakeSnapshots { ids: vec![3, 5, 8] },
            Command::ApplyChurn {
                resets: vec![(2, Bytes::copy_from_slice(b"xy"))],
            },
            Command::BeginNews,
            Command::Publish {
                cycle: 3,
                item: NewsItem::new("t", "d", "l", 9, 3),
            },
            Command::DeliverNews {
                cycle: 3,
                item: 0xdead_beef,
                bundles: vec![Bytes::copy_from_slice(b"zz")],
            },
            Command::Admit {
                reference: 4,
                snapshot: Some(Bytes::copy_from_slice(b"view")),
            },
            Command::Admit {
                reference: 9,
                snapshot: None,
            },
            Command::SwapInterests { a: 3, b: 17 },
            Command::TakeCheckpoint,
            Command::Restore {
                frame: Bytes::copy_from_slice(b"checkpointed state"),
            },
            Command::Stop,
        ];
        for cmd in cmds {
            assert_eq!(decode_command(&encode_command(&cmd)), cmd);
        }
    }

    #[test]
    fn reply_frames_roundtrip() {
        let replies = vec![
            Reply::Outbound(Outbound {
                sent: 12,
                local: 3,
                bundles: vec![Bytes::new(), Bytes::copy_from_slice(b"q")],
            }),
            Reply::ChurnDecisions(vec![(1, 9), (4, 2)]),
            Reply::Snapshots(vec![Bytes::copy_from_slice(b"snap")]),
            Reply::Ack,
            Reply::Published {
                first_forward_hop: Some(3),
                out: Outbound::default(),
            },
            Reply::Published {
                first_forward_hop: None,
                out: Outbound::default(),
            },
            Reply::NewsDelivered {
                out: Outbound {
                    sent: 2,
                    local: 1,
                    bundles: vec![],
                },
                outcomes: vec![
                    NewsOutcome {
                        receiver: 5,
                        first: Some(FirstReception {
                            hop: 2,
                            sender_liked: true,
                            receiver_likes: false,
                            dislikes: 3,
                        }),
                        forward: None,
                    },
                    NewsOutcome {
                        receiver: 6,
                        first: None,
                        forward: Some((4, true)),
                    },
                ],
            },
            Reply::Checkpoint(Bytes::copy_from_slice(b"shard state frame")),
        ];
        for reply in replies {
            assert_eq!(decode_reply(&encode_reply(&reply)), reply);
        }
    }

    #[test]
    fn params_roundtrip_all_presets() {
        for p in [
            Params::whatsup(7),
            Params::whatsup_cos(3),
            Params::cf(9, Metric::Wup),
            Params::gossip(4),
        ] {
            let mut buf = BytesMut::new();
            put_params(&mut buf, &p);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_params(&mut slice), p);
        }
    }

    #[test]
    fn environment_models_roundtrip() {
        let losses = [
            LossModel::Constant { p: 0.25 },
            LossModel::GilbertElliott {
                p_good: 0.01,
                p_bad: 0.6,
                good_to_bad: 0.2,
                bad_to_good: 0.4,
            },
            LossModel::Partition {
                from: 3,
                until: 9,
                frontier: 0.5,
            },
        ];
        for loss in losses {
            let mut buf = BytesMut::new();
            put_loss_model(&mut buf, &loss);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_loss_model(&mut slice), loss);
        }
        let churns = [
            ChurnModel::None,
            ChurnModel::Uniform { per_cycle: 0.05 },
            ChurnModel::CrashWave {
                at: 7,
                fraction: 0.3,
            },
            ChurnModel::MassJoin { at: 2, count: 11 },
        ];
        for churn in churns {
            let mut buf = BytesMut::new();
            put_churn_model(&mut buf, &churn);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_churn_model(&mut slice), churn);
        }
    }
}
