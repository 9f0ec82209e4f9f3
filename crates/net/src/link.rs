//! The datagram links a deployed peer talks through, behind one
//! [`Link`] trait (paper §V-D's two testbeds):
//!
//! * [`Router`] — a ModelNet-like emulated fabric ("an emulated network of
//!   245 nodes deployed on a 25-node cluster equipped with the ModelNet
//!   network emulator"): every frame crosses one router thread that holds
//!   it for a uniform `LATENCY_MS` delay before it reaches the
//!   receiver's inbox;
//! * [`UdpLink`] — one real UDP socket per peer on the loopback interface,
//!   the PlanetLab analogue.
//!
//! Neither link drops a frame on purpose: message loss is the executor's
//! coin, drawn at the receiver like the simulator's.

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whatsup_core::NodeId;

/// One-way latency band of the emulated fabric, in milliseconds (uniform,
/// both ends included).
const LATENCY_MS: (u64, u64) = (1, 8);

/// A peer's endpoint on a datagram network.
pub trait Link: Send {
    /// Sends `frame` to peer `to`. Like a datagram, a frame that cannot be
    /// delivered — an unknown peer, a full socket buffer — is dropped
    /// silently.
    fn send(&self, to: NodeId, frame: Bytes);

    /// The next frame addressed to this peer, waiting at most `timeout`;
    /// `Ok(None)` when none arrived in time.
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Bytes>>;
}

/// The emulated fabric's router; [`Router::run`] it on a thread of its own.
pub struct Router {
    frames: Receiver<(NodeId, Vec<u8>)>,
    inboxes: Vec<Sender<Bytes>>,
    rng: ChaCha8Rng,
}

/// A peer's endpoint on the emulated fabric.
pub struct RouterLink {
    router: Sender<(NodeId, Vec<u8>)>,
    inbox: Receiver<Bytes>,
}

impl Router {
    /// A fabric of `n` peers whose latencies are drawn from `seed`, and the
    /// peers' links in id order.
    pub fn new(n: usize, seed: u64) -> (Self, Vec<RouterLink>) {
        let (router, frames) = mpsc::channel();
        let (inboxes, links) = (0..n)
            .map(|_| {
                let (tx, inbox) = mpsc::channel();
                let link = RouterLink {
                    router: router.clone(),
                    inbox,
                };
                (tx, link)
            })
            .unzip();
        let rng = ChaCha8Rng::seed_from_u64(seed);
        (
            Self {
                frames,
                inboxes,
                rng,
            },
            links,
        )
    }

    /// Routes frames until every link is dropped.
    pub fn run(mut self) {
        // Earliest due first; a frame is held as bytes so the tuple orders.
        let mut held: BinaryHeap<Reverse<(Instant, NodeId, Vec<u8>)>> = BinaryHeap::new();
        loop {
            let now = Instant::now();
            while held.peek().is_some_and(|Reverse(f)| f.0 <= now) {
                let Reverse((_, to, frame)) = held.pop().expect("peeked");
                if let Some(inbox) = self.inboxes.get(to as usize) {
                    // A closed inbox is a peer that finished its run.
                    let _ = inbox.send(Bytes::from(frame));
                }
            }
            let idle = held.peek().map_or(Duration::from_millis(10), |Reverse(f)| {
                f.0.saturating_duration_since(now)
            });
            match self.frames.recv_timeout(idle) {
                Ok((to, frame)) => {
                    let delay = self.rng.gen_range(LATENCY_MS.0..=LATENCY_MS.1);
                    let due = Instant::now() + Duration::from_millis(delay);
                    held.push(Reverse((due, to, frame)));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

impl Link for RouterLink {
    fn send(&self, to: NodeId, frame: Bytes) {
        // Only a router that already stopped refuses a frame.
        let _ = self.router.send((to, frame.to_vec()));
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Bytes>> {
        // A disconnected inbox is a stopped router: nothing more arrives.
        Ok(self.inbox.recv_timeout(timeout).ok())
    }
}

/// A peer's UDP socket on the loopback interface.
pub struct UdpLink {
    socket: UdpSocket,
    /// Every peer's address, by id (the paper's bootstrap server, reduced
    /// to a table).
    peers: Arc<[SocketAddr]>,
    buf: Vec<u8>,
}

impl UdpLink {
    /// Binds one socket per peer for `n` peers, in id order.
    pub fn bind(n: usize) -> io::Result<Vec<Self>> {
        let sockets = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let peers = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<io::Result<Arc<[_]>>>()?;
        Ok(sockets
            .into_iter()
            .map(|socket| Self {
                socket,
                peers: Arc::clone(&peers),
                buf: vec![0; crate::codec::MAX_FRAME + 64],
            })
            .collect())
    }
}

impl Link for UdpLink {
    fn send(&self, to: NodeId, frame: Bytes) {
        if let Some(addr) = self.peers.get(to as usize) {
            let _ = self.socket.send_to(&frame, addr);
        }
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Bytes>> {
        // A zero read timeout is an error, not a poll.
        let timeout = timeout.max(Duration::from_millis(1));
        self.socket.set_read_timeout(Some(timeout))?;
        match self.socket.recv_from(&mut self.buf) {
            Ok((len, _)) => Ok(Some(Bytes::copy_from_slice(&self.buf[..len]))),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one frame 0 → 1 and one to a peer that does not exist, then
    /// receives at 1.
    fn one_frame_crosses(links: &mut [impl Link]) {
        let frame = Bytes::from(vec![1, 2, 3]);
        links[0].send(1, frame.clone());
        links[0].send(99, frame.clone());
        let got = links[1].recv(Duration::from_secs(5)).expect("link healthy");
        assert_eq!(got, Some(frame));
        assert_eq!(links[1].recv(Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn both_fabrics_deliver_to_known_peers_only() {
        let (router, mut links) = Router::new(2, 1);
        std::thread::scope(|s| {
            s.spawn(move || router.run());
            let sent = Instant::now();
            one_frame_crosses(&mut links);
            assert!(sent.elapsed() >= Duration::from_millis(LATENCY_MS.0));
            // Dropping every link stops the router, and the scope joins it.
            drop(links);
        });
        one_frame_crosses(&mut UdpLink::bind(2).expect("loopback UDP"));
    }
}
