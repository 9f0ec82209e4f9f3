//! How a TCP connection is opened and deadline-armed: shard workers as
//! `sim-shard-worker --listen` processes, possibly on other machines,
//! exchanging exactly the frames a pipe worker does (the bundle payloads
//! already are the `whatsup-net` wire codec). Everything after the dial —
//! handshake, traffic, teardown, redial — is [`super::stream::StreamLink`].
//!
//! Launch order is *workers first, then driver* — but only loosely: each
//! worker binds, prints its address, and blocks in accept, while the
//! driver retries refused/unreachable dials over a window
//! ([`DIAL_RETRY_WINDOW`] by default), so a worker that comes up a moment
//! after the driver still gets its shard. Dialing and the hello are
//! guarded by [`CONNECT_TIMEOUT`]/[`HANDSHAKE_TIMEOUT`], so a worker that
//! stays down, is unreachable, or never speaks surfaces as a typed
//! [`TransportError`] naming the address — a run never hangs on bootstrap.
//!
//! This is the one engine file allowed to read the wall clock (the
//! `det-clock` lint excludes it by path): the retry window and the
//! read/write deadlines are real-time by nature and never reach a report.

use super::stream::{read_frame, Conn, Handle, Opened, CONNECT_TIMEOUT, HANDSHAKE_TIMEOUT};
use super::TransportError;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default window over which an initial dial is retried before failing
/// (supervised runs use [`super::Supervision::dial_window`], for redials
/// too). Covers the workers-come-up-late race without making a
/// genuinely-down worker slow to diagnose.
pub(crate) const DIAL_RETRY_WINDOW: Duration = Duration::from_secs(3);

/// Dials `addr` with [`CONNECT_TIMEOUT`], trying every resolved socket
/// address in order (like `TcpStream::connect`, which has no timeout
/// variant) — `localhost` may resolve to `::1` before `127.0.0.1`.
fn dial_once(addr: &str) -> Result<TcpStream, TransportError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::io(addr, e))?
        .collect();
    let mut last_err = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        "address resolved to nothing",
    );
    for sock_addr in resolved {
        match TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e,
        }
    }
    Err(TransportError::io(addr, last_err))
}

/// Dials `addr`, retrying failures over `window` with a short exponential
/// backoff (25 ms doubling to 400 ms). Tolerates workers that bind a
/// moment late — and, under supervision, replacement listeners that take a
/// moment to come up on a crashed worker's address. The last error
/// surfaces once the window closes.
fn dial_retry(addr: &str, window: Duration) -> Result<TcpStream, TransportError> {
    let start = Instant::now();
    let mut pause = Duration::from_millis(25);
    loop {
        match dial_once(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if start.elapsed() >= window {
                    return Err(e);
                }
                std::thread::sleep(pause.min(window.saturating_sub(start.elapsed())));
                pause = (pause * 2).min(Duration::from_millis(400));
            }
        }
    }
}

/// Dials the worker at `addr` (retrying over `window`) and reads its
/// hello under a [`HANDSHAKE_TIMEOUT`] read timeout, which stays armed
/// until [`arm_deadline`] replaces it after the handshake. Returns the
/// connection and the raw hello for the shared handshake check.
pub(crate) fn dial(addr: &str, window: Duration) -> Result<Opened, TransportError> {
    let stream = dial_retry(addr, window)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| TransportError::io(addr, e))?;
    let clone = || stream.try_clone().map_err(|e| TransportError::io(addr, e));
    let mut reader = BufReader::new(clone()?);
    let writer = BufWriter::new(clone()?);
    let hello = read_frame(&mut reader);
    let conn = Conn {
        endpoint: addr.to_string(),
        reader: Box::new(reader),
        writer: Box::new(writer),
        handle: Handle::Socket(stream),
    };
    Ok((conn, hello))
}

/// Applies `deadline` as both the read and write timeout of `stream`:
/// `None` lets long lockstep rounds block freely; supervised runs bound
/// every read and write, so a wedged worker surfaces as a timed-out
/// (retryable) I/O error instead of blocking the driver forever.
pub(crate) fn arm_deadline(
    addr: &str,
    stream: &TcpStream,
    deadline: Option<Duration>,
) -> Result<(), TransportError> {
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|e| TransportError::io(addr, e))
}
