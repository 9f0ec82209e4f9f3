//! The byte-stream half of the exchange: length-prefixed framing over
//! generic [`Read`]/[`Write`], the versioned bootstrap handshake, the one
//! driver-side link for framed workers (`StreamLink` — child-process
//! pipes and TCP sockets alike) and the worker serve loop.
//!
//! # Bootstrap handshake
//!
//! Workers start first, the driver dials second (over pipes, "dialing" is
//! spawning the child). Every conversation opens the same way regardless
//! of the byte stream underneath:
//!
//! 1. **worker → driver** *hello*: `magic:u32 version:u16` — sent as soon
//!    as the stream exists (on spawn for pipes, on accept for sockets).
//! 2. **driver → worker** *handshake*: `magic:u32 version:u16` followed by
//!    the [`ShardInit`] payload (its layout is declared next to the type).
//! 3. Command/reply frames until a `Stop` command ends the conversation.
//!
//! Each side validates the other's magic and version *before* touching the
//! payload, so a mixed-version deployment fails with a one-line typed error
//! that names both versions. Bumping [`PROTOCOL_VERSION`] whenever a frame
//! layout changes is what keeps that promise. A frame that still does not
//! decode is a typed error as well, never a panic.

use super::supervisor::Restartable;
use super::{
    decode, encode, process, socket, wire_codec, Command, Reply, ShardLink, TransportError,
    TransportErrorKind,
};
use crate::engine::shard::{ShardInit, ShardState};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::time::Duration;
use whatsup_net::codec::DecodeError;

/// `"WUPS"` — first bytes of every hello/handshake frame.
pub const HANDSHAKE_MAGIC: u32 = 0x5755_5053;

/// Version of the whole exchange protocol (frames, commands, replies).
/// Peers refuse to talk across versions. v2 added the checkpoint/restore
/// command pair (worker supervision); v3 removed the end-of-cycle
/// `TakeCycleCounters`/`CycleCounters` frames (counters are now folded
/// driver-side from the phase replies) and the counter residue from
/// checkpoint frames; v4 added the like-store tag to oracle frames
/// (dense bit-plane or compressed sparse rows); v5 declares every layout
/// once (`wire_codec!`): an absent `Option` is its `0` tag alone (a
/// `Published` reply without a forward hop), a news outcome is its
/// receiver and two `Option`s instead of a packed flag byte, the `Drop`
/// dislike rule carries no padding, and a sparse like store sends
/// `n_items`, then its offsets and items as counted sequences; v6 moves the
/// codec into `whatsup_net`, where a news item has one layout for every
/// wire — the news frame's content order (`source`, `created_at`, title,
/// description, link) — so `Publish` commands and checkpoints carry items
/// in that order; v7 drops the like-store tag again (an oracle is always
/// the dense matrix) and metric tag 2, a metric no run could select; v8
/// adds the item index's creation times to oracle frames, one per id.
pub const PROTOCOL_VERSION: u16 = 8;

/// How long the driver waits for a TCP connect to a worker.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long either side waits for the other's half of the handshake
/// before declaring the peer dead or foreign. Sockets arm it as a read
/// timeout; a pipe bounds its hello wait with it (a child can be alive yet
/// silent — e.g. not a shard worker at all).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on a single frame, as a guard against garbage length
/// prefixes from a confused peer (a real init frame for a million-node
/// run stays well under this).
const MAX_FRAME_LEN: usize = 1 << 28;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one `len:u32` + payload frame and flushes. A frame over
/// `MAX_FRAME_LEN` is an [`io::ErrorKind::InvalidInput`] error and
/// nothing is written: the peer's [`read_frame`] would refuse it mid-run
/// (and past 4 GiB the prefix would silently truncate).
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
                frame.len()
            ),
        ));
    }
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary. EOF
/// inside a frame (a truncated write from a dying peer) is an
/// [`io::ErrorKind::UnexpectedEof`] error, an oversized length prefix an
/// [`io::ErrorKind::InvalidData`] error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            // Retry EINTR like read_exact does below: a signal landing on
            // a header byte must not abort a healthy run.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame payload")
        } else {
            e
        }
    })?;
    Ok(Some(frame))
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

/// The opening of both greetings: `"WUPS"` and a protocol version.
struct Hello {
    magic: u32,
    version: u16,
}

wire_codec! { struct Hello { magic, version } }

/// The worker's greeting: magic + the version it speaks. Takes the version
/// as a parameter so fault-injection tests can impersonate a mismatched
/// worker; real workers always send [`PROTOCOL_VERSION`].
pub fn encode_hello(version: u16) -> Vec<u8> {
    encode(&Hello {
        magic: HANDSHAKE_MAGIC,
        version,
    })
}

/// Parses a hello frame into the peer's version; `Err` when the frame is
/// not a shard-worker greeting at all.
pub fn decode_hello(frame: &[u8]) -> Result<u16, TransportErrorKind> {
    match decode(frame) {
        Ok(Hello {
            magic: HANDSHAKE_MAGIC,
            version,
        }) => Ok(version),
        _ => Err(TransportErrorKind::HandshakeMagic),
    }
}

/// The driver's reply to a hello: a hello at [`PROTOCOL_VERSION`], then
/// the shard's init.
pub fn encode_handshake(init: &ShardInit) -> Vec<u8> {
    let mut frame = encode_hello(PROTOCOL_VERSION);
    frame.extend_from_slice(&encode(init));
    frame
}

/// Validates magic + version, then decodes the carried [`ShardInit`] and
/// checks it describes a shard that can be built.
fn decode_handshake(frame: &[u8]) -> Result<ShardInit, TransportErrorKind> {
    // The hello is the first 6 bytes, `magic:u32 version:u16`.
    let (hello, init) = frame.split_at_checked(6).unwrap_or((frame, &[]));
    match decode_hello(hello)? {
        PROTOCOL_VERSION => {}
        got => {
            return Err(TransportErrorKind::HandshakeVersion {
                got,
                want: PROTOCOL_VERSION,
            })
        }
    }
    let init: ShardInit = decode(init).map_err(TransportErrorKind::Decode)?;
    init.check().map_err(TransportErrorKind::Decode)?;
    Ok(init)
}

/// Driver-side validation of a worker's hello: takes the raw outcome of
/// [`read_frame`] so openers can bound the read however their stream
/// allows (socket read timeout, watchdog thread for pipes). `endpoint`
/// names the worker in errors.
fn check_hello(endpoint: &str, hello: io::Result<Option<Vec<u8>>>) -> Result<(), TransportError> {
    let fail = |kind| TransportError {
        endpoint: endpoint.into(),
        kind,
    };
    let frame = hello
        .map_err(|e| TransportError::io(endpoint, e))?
        .ok_or_else(|| TransportError::closed(endpoint, "worker closed before its hello"))?;
    match decode_hello(&frame).map_err(fail)? {
        PROTOCOL_VERSION => Ok(()),
        got => Err(fail(TransportErrorKind::HandshakeVersion {
            got,
            want: PROTOCOL_VERSION,
        })),
    }
}

// ---------------------------------------------------------------------------
// The driver-side link
// ---------------------------------------------------------------------------

/// Where a framed worker lives — the only thing a pipe and a TCP worker
/// differ in: how the connection is opened ([`process::spawn`] /
/// [`socket::dial`]), closed, and — TCP only — deadline-armed.
pub(crate) enum Peer {
    /// A `sim-shard-worker` child of this process, frames over its stdio.
    Pipe { worker: PathBuf },
    /// A `sim-shard-worker --listen` process at `addr` (`host:port`).
    Tcp {
        addr: String,
        /// Window over which a refused or unreachable dial is retried.
        dial_window: Duration,
        /// Per-read/write hang deadline of the command/reply phase; `None`
        /// (unsupervised) blocks freely — a lockstep round may
        /// legitimately take long on big shards.
        deadline: Option<Duration>,
    },
}

/// One open connection: the framed byte stream plus the handle that
/// closes it.
pub(crate) struct Conn {
    /// Names the worker in errors (`host:port`, or the child's pid).
    pub(crate) endpoint: String,
    pub(crate) reader: Box<dyn Read>,
    pub(crate) writer: Box<dyn Write>,
    pub(crate) handle: Handle,
}

pub(crate) enum Handle {
    Child(Child),
    Socket(TcpStream),
}

/// What an opener hands back: the connection and the raw outcome of
/// reading the worker's hello on it.
pub(crate) type Opened = (Conn, io::Result<Option<Vec<u8>>>);

impl Conn {
    /// Hard close: kill + reap the child (it may already be gone — errors
    /// are ignored — so a respawn loop cannot accumulate zombies), or shut
    /// both socket directions down so a worker blocked in read sees EOF
    /// immediately and its replacement finds the address free.
    fn close(&mut self) {
        match &mut self.handle {
            Handle::Child(child) => {
                // Close the pipe first: a healthy worker exits on EOF.
                self.writer = Box::new(io::sink());
                let _ = child.kill();
                let _ = child.wait();
            }
            Handle::Socket(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Orderly close after a `Stop`: close the write side, then wait for
    /// the worker to acknowledge by exiting 0 (child) or closing its end
    /// (socket) — proof it left its serve loop instead of being left
    /// behind mid-conversation.
    fn finish(&mut self) -> Result<(), TransportError> {
        self.writer = Box::new(io::sink());
        match &mut self.handle {
            Handle::Child(child) => match child.wait() {
                Ok(status) if !status.success() => Err(TransportError {
                    endpoint: self.endpoint.clone(),
                    kind: TransportErrorKind::WorkerExit(status.to_string()),
                }),
                Ok(_) => Ok(()),
                Err(e) => Err(TransportError::io(&*self.endpoint, e)),
            },
            Handle::Socket(stream) => {
                let _ = stream.shutdown(Shutdown::Write);
                // Unlike mid-round reads (unbounded — shard compute takes
                // as long as it takes), the EOF is a bounded-time event,
                // so re-arm the timeout: a wedged or partitioned worker
                // must not hang a completed run.
                let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
                match read_frame(&mut self.reader) {
                    Ok(None) => Ok(()),
                    Ok(Some(_)) => Err(TransportError::closed(
                        &*self.endpoint,
                        "worker sent a frame after Stop",
                    )),
                    Err(e) => Err(TransportError::io(&*self.endpoint, e)),
                }
            }
        }
    }
}

/// The driver's link to one framed worker. Workers are never leaked: the
/// graceful [`ShardLink::shutdown`] sends `Stop` and waits, and [`Drop`]
/// covers every early-error path (a sibling that failed to open, a failed
/// round-trip, a driver panic) with a best-effort `Stop` and a hard close,
/// so an aborted run cannot leave zombie or lingering workers behind.
pub(crate) struct StreamLink {
    shard: usize,
    peer: Peer,
    /// The handshake frame (magic + version + encoded init), encoded once
    /// at bootstrap and replayed verbatim on restart — the init never
    /// changes, so a recovery never re-serializes it (which for large
    /// shards would dominate recovery time).
    handshake: Vec<u8>,
    conn: Conn,
    /// Set by a graceful shutdown so [`Drop`] skips the hard close.
    stopped: bool,
}

/// Opens a connection to `peer` and runs the driver half of the bootstrap
/// on it: validate the worker's hello (read by the opener under
/// [`HANDSHAKE_TIMEOUT`], by whatever means its stream allows), send the
/// handshake, arm the steady-state deadline. The connection is closed on
/// any failure, so the caller never inherits a half-handshaken worker.
fn connect(shard: usize, peer: &Peer, handshake: &[u8]) -> Result<Conn, TransportError> {
    let (mut conn, hello) = match peer {
        Peer::Pipe { worker } => process::spawn(worker, shard)?,
        Peer::Tcp {
            addr, dial_window, ..
        } => socket::dial(addr, *dial_window)?,
    };
    let greeted = check_hello(&conn.endpoint, hello).and_then(|()| {
        write_frame(&mut conn.writer, handshake).map_err(|e| TransportError::io(&*conn.endpoint, e))
    });
    let armed = greeted.and_then(|()| match (&conn.handle, peer) {
        (Handle::Socket(stream), Peer::Tcp { deadline, .. }) => {
            socket::arm_deadline(&conn.endpoint, stream, *deadline)
        }
        _ => Ok(()),
    });
    if let Err(e) = armed {
        conn.close();
        return Err(e);
    }
    Ok(conn)
}

impl StreamLink {
    /// Connects shard `init.index` to its worker at `peer`.
    pub(crate) fn open(peer: Peer, init: &ShardInit) -> Result<Self, TransportError> {
        let handshake = encode_handshake(init);
        let conn = connect(init.index, &peer, &handshake)?;
        Ok(Self {
            shard: init.index,
            peer,
            handshake,
            conn,
            stopped: false,
        })
    }
}

impl ShardLink for StreamLink {
    fn endpoint(&self) -> String {
        self.conn.endpoint.clone()
    }

    fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
        write_frame(&mut self.conn.writer, &encode(&cmd))
            .map_err(|e| TransportError::io(&*self.conn.endpoint, e))
    }

    fn recv(&mut self) -> Result<Reply, TransportError> {
        let frame = read_frame(&mut self.conn.reader)
            .map_err(|e| TransportError::io(&*self.conn.endpoint, e))?
            .ok_or_else(|| {
                TransportError::closed(&*self.conn.endpoint, "worker closed the stream mid-phase")
            })?;
        decode(&frame).map_err(|e| TransportError {
            endpoint: self.conn.endpoint.clone(),
            kind: TransportErrorKind::Decode(e),
        })
    }

    /// Errors report the failure but the worker is still reaped/closed.
    fn shutdown(mut self) -> Result<(), TransportError> {
        self.stopped = true;
        let stopped = self.send(Command::Stop);
        let finished = self.conn.finish();
        stopped.and(finished)
    }
}

impl Restartable for StreamLink {
    /// Respawns the child / redials the address, then replays the
    /// bootstrap handshake. On failure the closed connection stays in
    /// place, so further traffic fails with I/O errors and another restart
    /// can be attempted.
    fn restart(&mut self) -> Result<(), TransportError> {
        self.conn.close();
        self.conn = connect(self.shard, &self.peer, &self.handshake)?;
        Ok(())
    }
}

impl Drop for StreamLink {
    fn drop(&mut self) {
        if !self.stopped {
            // Best-effort Stop so a healthy worker exits cleanly, then
            // make sure: the hard close reaps even a wedged child.
            let _ = self.send(Command::Stop);
            self.conn.close();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker serve loop
// ---------------------------------------------------------------------------

/// Why a worker conversation ended without a `Stop` — one line for stderr.
#[derive(Debug)]
pub enum WorkerError {
    /// The driver's handshake was missing, foreign, or version-mismatched.
    Handshake(TransportErrorKind),
    /// The driver vanished mid-conversation: EOF or I/O error before
    /// `Stop`. A driver killed mid-run lands here.
    ConnectionLost(io::Error),
    /// A command frame, or a snapshot, checkpoint or mailbox bundle inside
    /// one, did not decode.
    Malformed(DecodeError),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Handshake(TransportErrorKind::HandshakeVersion { got, want }) => write!(
                f,
                "handshake failed: driver speaks exchange protocol v{got}, \
                 this worker speaks v{want}"
            ),
            WorkerError::Handshake(TransportErrorKind::HandshakeMagic) => {
                write!(f, "handshake failed: peer is not a whatsup-sim driver")
            }
            WorkerError::Handshake(TransportErrorKind::Decode(e)) => {
                write!(f, "handshake failed: malformed init — {e}")
            }
            WorkerError::Handshake(other) => write!(f, "handshake failed: {other:?}"),
            WorkerError::ConnectionLost(e) => write!(f, "driver connection lost: {e}"),
            WorkerError::Malformed(e) => write!(f, "malformed command: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// The worker half of the bootstrap over any framed byte stream: send the
/// hello, read + validate the driver's handshake, build the shard state
/// it carries. Callers that can bound reads (sockets) arm a timeout
/// around this and disarm it before [`serve_stream`].
pub fn accept_handshake(
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<ShardState, WorkerError> {
    write_frame(output, &encode_hello(PROTOCOL_VERSION)).map_err(WorkerError::ConnectionLost)?;
    let frame = read_frame(input)
        .map_err(WorkerError::ConnectionLost)?
        .ok_or_else(|| {
            WorkerError::ConnectionLost(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "driver closed the stream before the handshake",
            ))
        })?;
    let init = decode_handshake(&frame).map_err(WorkerError::Handshake)?;
    Ok(ShardState::from_init(init))
}

/// The worker end of one driver conversation over any framed byte stream:
/// hello, handshake, build the shard, then serve commands until `Stop`.
///
/// Returns `Ok` only on an orderly `Stop`; a driver that merely closes the
/// stream (killed mid-run) is a [`WorkerError::ConnectionLost`], so the
/// worker process can exit non-zero with a one-line message instead of a
/// panic backtrace.
pub fn run_worker(input: &mut impl Read, output: &mut impl Write) -> Result<(), WorkerError> {
    let mut state = accept_handshake(input, output)?;
    serve_stream(&mut state, input, output)
}

/// The post-handshake serve loop: one reply frame per command frame, until
/// `Stop` (`Ok`), the stream dies or a frame does not decode (`Err`).
/// Commands run through [`ShardState::handle`]'s fallible form, the single
/// dispatch point every link shares, so the links cannot diverge on
/// command semantics.
pub fn serve_stream(
    state: &mut ShardState,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), WorkerError> {
    loop {
        let frame = read_frame(input)
            .map_err(WorkerError::ConnectionLost)?
            .ok_or_else(|| {
                WorkerError::ConnectionLost(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "driver closed the stream without sending Stop",
                ))
            })?;
        let cmd: Command = decode(&frame).map_err(WorkerError::Malformed)?;
        if matches!(cmd, Command::Stop) {
            return Ok(());
        }
        let reply = state.try_handle(cmd).map_err(WorkerError::Malformed)?;
        write_frame(output, &encode(&reply)).map_err(WorkerError::ConnectionLost)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn framing_roundtrip_and_clean_eof() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut r: &[u8] = &pipe;
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof");
        let mut torn: &[u8] = &pipe[..2];
        assert!(read_frame(&mut torn).is_err(), "eof inside header");
    }

    #[test]
    fn truncated_payload_is_a_typed_eof() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"full frame").unwrap();
        let mut torn: &[u8] = &pipe[..7];
        let err = read_frame(&mut torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(u32::MAX).to_le_bytes());
        pipe.extend_from_slice(b"junk");
        let mut r: &[u8] = &pipe;
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_is_refused_on_the_write_side() {
        let frame = vec![0u8; MAX_FRAME_LEN + 1];
        let mut pipe = Vec::new();
        let err = write_frame(&mut pipe, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&frame.len().to_string()), "{err}");
        assert!(pipe.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn hello_roundtrips_and_rejects_foreign_greetings() {
        assert_eq!(decode_hello(&encode_hello(7)).unwrap(), 7);
        assert!(matches!(
            decode_hello(b"GET / HTTP/1.1"),
            Err(TransportErrorKind::HandshakeMagic)
        ));
        assert!(matches!(
            decode_hello(&[0, 0, 0, 0, 0, 0]),
            Err(TransportErrorKind::HandshakeMagic)
        ));
    }

    #[test]
    fn handshake_rejects_version_skew_before_touching_the_init() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(HANDSHAKE_MAGIC);
        buf.put_u16_le(PROTOCOL_VERSION + 1);
        // No init payload at all: the version gate must fire first.
        match decode_handshake(&buf) {
            Err(TransportErrorKind::HandshakeVersion { got, want }) => {
                assert_eq!(got, PROTOCOL_VERSION + 1);
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(matches!(
            decode_handshake(b"junk"),
            Err(TransportErrorKind::HandshakeMagic)
        ));
    }

    #[test]
    fn handshake_rejects_a_garbage_init_after_a_valid_header() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(HANDSHAKE_MAGIC);
        buf.put_u16_le(PROTOCOL_VERSION);
        buf.put_slice(&[0xff; 7]);
        assert!(matches!(
            decode_handshake(&buf),
            Err(TransportErrorKind::Decode(_))
        ));
        let mut input: &[u8] = &{
            let mut stream = Vec::new();
            write_frame(&mut stream, &buf).unwrap();
            stream
        };
        let err = run_worker(&mut input, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            WorkerError::Handshake(TransportErrorKind::Decode(_))
        ));
        assert!(err.to_string().contains("malformed init"), "{err}");
    }
}
