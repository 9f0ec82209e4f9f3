//! How a pipe connection is opened: spawn one `sim-shard-worker` child and
//! talk length-prefixed frames over its stdio. Everything after the open —
//! handshake, traffic, teardown, respawn — is [`super::stream::StreamLink`].

use super::stream::{read_frame, Conn, Handle, Opened, HANDSHAKE_TIMEOUT};
use super::TransportError;
use std::io::{self, BufReader};
use std::path::Path;
use std::process::Stdio;
use std::sync::mpsc;

/// Spawns the worker for `shard` and reads its hello, bounded by
/// [`HANDSHAKE_TIMEOUT`]. Pipes cannot arm read timeouts, so the read runs
/// on a watchdog thread: on timeout the child is killed and reaped (not a
/// shard worker — e.g. a binary that never speaks), which unblocks the
/// reader thread with an EOF and lets it exit. Returns the connection and
/// the raw hello for the shared handshake check.
pub(crate) fn spawn(worker: &Path, shard: usize) -> Result<Opened, TransportError> {
    let mut child = std::process::Command::new(worker)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| TransportError::io(format!("spawn {}", worker.display()), e))?;
    let endpoint = format!("sim-shard-worker pid {} (shard {shard})", child.id());
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let hello = read_frame(&mut stdout);
        let _ = tx.send((hello, stdout));
    });
    match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
        Ok((hello, stdout)) => Ok((
            Conn {
                endpoint,
                reader: Box::new(stdout),
                writer: Box::new(stdin),
                handle: Handle::Child(child),
            },
            hello,
        )),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(TransportError::io(
                endpoint,
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no hello within {HANDSHAKE_TIMEOUT:?} — \
                         is this a sim-shard-worker binary?"
                    ),
                ),
            ))
        }
    }
}
