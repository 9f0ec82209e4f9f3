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
//! Every frame goes through the workspace's one binary codec
//! (`whatsup_net::wire`): each command, reply, init and checkpoint layout
//! is declared once, with `wire_codec!`, next to its type (`wire` holds
//! the two written by hand), and decoding is fallible. Mailbox traffic and
//! view snapshots are the peers' own gossip and news encodings, so the two
//! stacks share one message format. Connecting, the handshake, a peer
//! vanishing, a frame truncated on the wire, a reply that does not decode
//! and one that does not answer its command (`unpack`) all surface as a
//! typed `TransportError` naming the endpoint, and a worker handed a
//! frame that does not decode, mailbox bundles included, exits with a
//! one-line
//! [`stream::WorkerError`]. So does one handed a command that decodes but
//! does not fit the shard (a node it does not own): the shard's
//! `try_handle` refuses it like a frame that does not decode, and the
//! worker exits 1.

pub(crate) mod process;
pub(crate) mod socket;
pub mod stream;
pub mod supervisor;

pub use supervisor::Supervision;

mod wire;

pub(crate) use whatsup_net::wire::{decode, encode, ensure};
pub(crate) use whatsup_net::wire_codec;

use crate::engine::shard::ShardState;
use bytes::Bytes;
use std::fmt;
use std::io;
use std::sync::mpsc;
use whatsup_core::{ItemId, NewsItem, NodeId};
use whatsup_net::codec::DecodeError;

/// A transport-level failure: the conversation with a shard worker could
/// not start or could not continue. Carries the worker's endpoint (a
/// `host:port` address, a child pid, a thread index) so a distributed
/// failure names the machine that caused it.
#[derive(Debug)]
pub(crate) struct TransportError {
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
    /// A frame arrived whole but does not decode: an init or a reply.
    Decode(DecodeError),
}

impl TransportErrorKind {
    /// Whether a supervisor may retry the conversation with a fresh
    /// worker. I/O failures (crashes, timeouts, torn frames) and worker
    /// exits are environmental — a respawned or redialed worker can
    /// succeed. Handshake failures are *configuration* errors: the peer is
    /// not a shard worker, or speaks a different protocol version, and a
    /// restarted peer would fail identically — restart-looping it would
    /// mask a version-skewed deployment instead of reporting it. So would a
    /// peer that passed the handshake and then sent a frame that does not
    /// decode.
    pub(crate) fn is_retryable(&self) -> bool {
        match self {
            TransportErrorKind::Io(_) | TransportErrorKind::WorkerExit(_) => true,
            TransportErrorKind::HandshakeMagic
            | TransportErrorKind::HandshakeVersion { .. }
            | TransportErrorKind::Decode(_) => false,
        }
    }
}

impl TransportError {
    pub(crate) fn io(endpoint: impl Into<String>, err: io::Error) -> Self {
        Self {
            endpoint: endpoint.into(),
            kind: TransportErrorKind::Io(err),
        }
    }

    /// An `Io` error for a peer that closed the connection at a frame
    /// boundary where more frames were required.
    pub(crate) fn closed(endpoint: impl Into<String>, what: &str) -> Self {
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
            TransportErrorKind::Decode(e) => {
                write!(f, "shard worker {}: malformed frame — {e}", self.endpoint)
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
    /// Snapshots in request order (encoded [`whatsup_core::ColdStart`]s).
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
/// and the replies come back in batch order, each unpacked with `pick`
/// (see [`unpack`]).
pub(crate) fn roundtrip<L: ShardLink, T>(
    links: &mut [L],
    batch: Vec<(usize, Command)>,
    pick: impl Fn(Reply) -> Option<T>,
) -> Result<Vec<T>, TransportError> {
    let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
    for (s, cmd) in batch {
        links[s].send(cmd)?;
    }
    targets
        .into_iter()
        .map(|s| {
            let reply = links[s].recv()?;
            unpack(&links[s], reply, &pick)
        })
        .collect()
}

/// The one way a reply is unpacked: `pick` returns what the command's
/// answer carries, or `None` when `reply` is another variant. A worker
/// that answers a command with a well-formed reply of the wrong variant is
/// a protocol fault naming `link`, and not retryable — a restarted worker
/// would answer alike.
pub(crate) fn unpack<T>(
    link: &impl ShardLink,
    reply: Reply,
    pick: impl FnOnce(Reply) -> Option<T>,
) -> Result<T, TransportError> {
    pick(reply).ok_or_else(|| TransportError {
        endpoint: link.endpoint(),
        kind: TransportErrorKind::Decode(DecodeError::Invalid("reply does not answer its command")),
    })
}

/// The picker [`unpack`] takes for a command answered by the reply
/// `pattern`: `Some(value)` for it, `None` for any other reply.
macro_rules! answer {
    ($pattern:pat => $value:expr) => {
        |reply: $crate::engine::exchange::Reply| match reply {
            $pattern => Some($value),
            _ => None,
        }
    };
}
pub(crate) use answer;

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
// Frame layouts
// ---------------------------------------------------------------------------

wire_codec! {
    enum Command {
        1 => Collect { cycle },
        2 => DeliverGossip { cycle, bundles },
        3 => ChurnDecide { cycle },
        4 => TakeSnapshots { ids },
        5 => ApplyChurn { resets },
        6 => BeginNews,
        7 => Publish { cycle, item },
        8 => DeliverNews { cycle, item, bundles },
        9 => Stop,
        10 => Admit { reference, snapshot },
        11 => SwapInterests { a, b },
        // Tag 12 was `TakeCycleCounters` until protocol v3.
        13 => TakeCheckpoint,
        14 => Restore { frame },
    }
}

wire_codec! {
    enum Reply {
        1 => Outbound(out),
        2 => ChurnDecisions(pairs),
        3 => Snapshots(frames),
        4 => Ack,
        5 => Published { first_forward_hop, out },
        6 => NewsDelivered { out, outcomes },
        // Tag 7 was `CycleCounters` until protocol v3.
        8 => Checkpoint(frame),
    }
}

wire_codec! { struct Outbound { sent, local, bundles } }
wire_codec! { struct NewsOutcome { receiver, first, forward } }
wire_codec! { struct FirstReception { hop, sender_liked, receiver_likes, dislikes } }

/// Encodes a reply frame.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    encode(reply)
}

/// Decodes a command frame this process encoded.
///
/// # Panics
/// Panics on a malformed frame. The worker loop decodes untrusted frames
/// fallibly instead ([`stream::serve_stream`]).
pub fn decode_command(frame: &[u8]) -> Command {
    decode(frame).expect("malformed command frame")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::partition::Partition;
    use crate::engine::shard::ShardInit;
    use crate::oracle::Oracle;
    use crate::scenario::{ChurnModel, LossModel};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::RefCell;
    use std::rc::Rc;
    use whatsup_core::{Metric, Params};
    use whatsup_datasets::LikeMatrix;

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
        let replies = roundtrip(&mut links, batch, answer!(Reply::Outbound(o) => o))
            .expect("mock links cannot fail");
        let sent: Vec<u64> = replies.iter().map(|o| o.sent).collect();
        assert_eq!(sent, [3, 0, 2], "replies come back in batch order");
        assert_eq!(
            *calls.borrow(),
            ["send 3", "send 0", "send 2", "recv 3", "recv 0", "recv 2"],
            "every send precedes the first recv; shard 1 is never touched"
        );
    }

    /// A few random bytes, empty included.
    fn blob(rng: &mut ChaCha8Rng) -> Bytes {
        let len = rng.gen_range(0..6usize);
        Bytes::from((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
    }

    fn blobs(rng: &mut ChaCha8Rng) -> Vec<Bytes> {
        (0..rng.gen_range(0..4usize)).map(|_| blob(rng)).collect()
    }

    fn outbound(rng: &mut ChaCha8Rng) -> Outbound {
        Outbound {
            sent: rng.gen(),
            local: rng.gen(),
            bundles: blobs(rng),
        }
    }

    fn news_item(rng: &mut ChaCha8Rng) -> NewsItem {
        let title = format!("item {}", rng.gen::<u16>());
        NewsItem::new(title, "déjà vu", "", rng.gen(), rng.gen())
    }

    fn command(rng: &mut ChaCha8Rng) -> Command {
        let cycle = rng.gen();
        match rng.gen_range(0..14u32) {
            0 => Command::Collect { cycle },
            1 => Command::DeliverGossip {
                cycle,
                bundles: blobs(rng),
            },
            2 => Command::ChurnDecide { cycle },
            3 => Command::TakeSnapshots {
                ids: (0..rng.gen_range(0..5usize)).map(|_| rng.gen()).collect(),
            },
            4 => Command::ApplyChurn {
                resets: (0..rng.gen_range(0..3usize))
                    .map(|_| (rng.gen(), blob(rng)))
                    .collect(),
            },
            5 => Command::Admit {
                reference: rng.gen(),
                snapshot: rng.gen::<bool>().then(|| blob(rng)),
            },
            6 => Command::SwapInterests {
                a: rng.gen(),
                b: rng.gen(),
            },
            7 => Command::BeginNews,
            8 => Command::Publish {
                cycle,
                item: news_item(rng),
            },
            9 => Command::DeliverNews {
                cycle,
                item: rng.gen(),
                bundles: blobs(rng),
            },
            10 => Command::TakeCheckpoint,
            11 => Command::Restore { frame: blob(rng) },
            _ => Command::Stop,
        }
    }

    fn reply(rng: &mut ChaCha8Rng) -> Reply {
        match rng.gen_range(0..7u32) {
            0 => Reply::Outbound(outbound(rng)),
            1 => Reply::ChurnDecisions(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (rng.gen(), rng.gen()))
                    .collect(),
            ),
            2 => Reply::Snapshots(blobs(rng)),
            3 => Reply::Ack,
            4 => Reply::Published {
                first_forward_hop: rng.gen::<bool>().then(|| rng.gen()),
                out: outbound(rng),
            },
            5 => Reply::NewsDelivered {
                out: outbound(rng),
                outcomes: (0..rng.gen_range(0..4usize))
                    .map(|_| NewsOutcome {
                        receiver: rng.gen(),
                        first: rng.gen::<bool>().then(|| FirstReception {
                            hop: rng.gen(),
                            sender_liked: rng.gen(),
                            receiver_likes: rng.gen(),
                            dislikes: rng.gen(),
                        }),
                        forward: rng.gen::<bool>().then(|| (rng.gen(), rng.gen())),
                    })
                    .collect(),
            },
            _ => Reply::Checkpoint(blob(rng)),
        }
    }

    /// A shard of a random population: 2 to 12 nodes in up to three
    /// shards, likes over up to 70 items (two bit-plane words per row),
    /// interests swapped, every environment model and parameter preset.
    fn shard_init(rng: &mut ChaCha8Rng) -> (ShardInit, Vec<NewsItem>) {
        let n = rng.gen_range(2..13usize);
        let shards = rng.gen_range(1..4usize).min(n);
        let index = rng.gen_range(0..shards);
        let items: Vec<NewsItem> = (0..rng.gen_range(1..71usize))
            .map(|_| news_item(rng))
            .collect();
        let mut likes = LikeMatrix::new(n, items.len());
        for user in 0..n {
            for item in 0..items.len() {
                likes.set(user, item, rng.gen());
            }
        }
        let ids = (items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let mut oracle = Oracle::new(likes, ids);
        oracle.swap_interests(0, rng.gen_range(0..n as NodeId));
        let partition = Partition::new(n, shards);
        let bootstrap = partition
            .range(index)
            .map(|_| {
                let degree = rng.gen_range(1..4usize);
                (0..degree).map(|_| rng.gen_range(0..n as NodeId)).collect()
            })
            .collect();
        let f_like = rng.gen_range(1..5usize);
        let mut params = [
            Params::whatsup(f_like),
            Params::whatsup_cos(f_like),
            Params::cf(f_like, Metric::Cosine),
            Params::gossip(f_like),
        ][rng.gen_range(0..4usize)]
        .clone();
        params.obfuscation_epsilon = [0.0, 0.25][rng.gen_range(0..2usize)];
        let loss = [
            LossModel::Constant { p: 0.1 },
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
        ][rng.gen_range(0..3usize)];
        let churn = [
            ChurnModel::None,
            ChurnModel::Uniform { per_cycle: 0.05 },
            ChurnModel::CrashWave {
                at: 7,
                fraction: 0.3,
            },
            ChurnModel::MassJoin { at: 2, count: 11 },
        ][rng.gen_range(0..4usize)];
        let init = ShardInit {
            index,
            partition,
            seed: rng.gen(),
            loss,
            churn,
            params,
            oracle,
            bootstrap,
        };
        (init, items)
    }

    /// Runs `cmd` and then delivers the shard's own mail until none is
    /// left (the other shards' bundles are dropped), leaving the shard at
    /// a boundary where it can checkpoint.
    fn settle(shard: &mut ShardState, shards: usize, cmd: Command) {
        let deliver = |cycle| match &cmd {
            Command::Publish { item, .. } => Command::DeliverNews {
                cycle,
                item: item.id(),
                bundles: vec![Bytes::new(); shards],
            },
            _ => Command::DeliverGossip {
                cycle,
                bundles: vec![Bytes::new(); shards],
            },
        };
        let mut next = Some(cmd.clone());
        while let Some(cmd) = next.take() {
            let local = match shard.handle(cmd) {
                Reply::Outbound(out)
                | Reply::Published { out, .. }
                | Reply::NewsDelivered { out, .. } => out.local,
                _ => 0,
            };
            if local > 0 {
                next = Some(deliver(5));
            }
        }
    }

    /// Every strict prefix of `frame` is refused, and flipping any one
    /// byte of it decodes to a value or an error, never a panic.
    fn hostile_variants_of(frame: &[u8], mask: u8, decodes: &mut dyn FnMut(&[u8]) -> bool) {
        for len in 0..frame.len() {
            assert!(!decodes(&frame[..len]), "prefix of {len} bytes decoded");
        }
        let mut flipped = frame.to_vec();
        for at in 0..frame.len() {
            flipped[at] ^= mask;
            decodes(&flipped);
            flipped[at] ^= mask;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The codec over random commands, replies, inits and checkpoints:
        /// values round-trip — a decoded init's item index gives every slot
        /// its item's creation time — every strict prefix
        /// is refused, a flipped byte never panics the decoder, and a
        /// restored checkpoint re-encodes to the same bytes.
        #[test]
        fn frames_roundtrip_and_hostile_bytes_never_panic(
            seed in 0u64..1 << 40,
            mask in 1u8..255,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..8 {
                let cmd = command(&mut rng);
                let frame = encode(&cmd);
                prop_assert_eq!(&decode::<Command>(&frame).unwrap(), &cmd);
                prop_assert_eq!(&decode_command(&frame), &cmd);
                hostile_variants_of(&frame, mask, &mut |f| decode::<Command>(f).is_ok());
                let rep = reply(&mut rng);
                let frame = encode_reply(&rep);
                prop_assert_eq!(&decode::<Reply>(&frame).unwrap(), &rep);
                hostile_variants_of(&frame, mask, &mut |f| decode::<Reply>(f).is_ok());
            }
            for _ in 0..2 {
                let (init, items) = shard_init(&mut rng);
                init.check().unwrap();
                let frame = encode(&init);
                let back: ShardInit = decode(&frame).unwrap();
                prop_assert_eq!(encode(&back), frame.clone());
                let index = back.oracle.id_map();
                for item in &items {
                    let slot = index.get(&item.id()).copied();
                    prop_assert_eq!(slot.map(|s| index.created_at(s)), Some(item.created_at));
                }
                hostile_variants_of(&frame, mask, &mut |f| {
                    decode::<ShardInit>(f).is_ok_and(|init| init.check().is_ok())
                });

                let shards = init.partition.n_shards();
                let mut shard = ShardState::from_init(init.clone());
                settle(&mut shard, shards, Command::Collect { cycle: 4 });
                let base = init.partition.range(init.index).start;
                let mut item = items[0].clone();
                item.source = base;
                settle(&mut shard, shards, Command::Publish { cycle: 5, item });
                let checkpoint = shard.encode_checkpoint();
                let mut restored = ShardState::from_init(init.clone());
                restored.restore_checkpoint(&checkpoint).unwrap();
                prop_assert_eq!(restored.encode_checkpoint(), checkpoint.clone());
                let mut scratch = ShardState::from_init(init);
                hostile_variants_of(&checkpoint, mask, &mut |f| {
                    scratch.restore_checkpoint(f).is_ok()
                });
            }
        }
    }
}
