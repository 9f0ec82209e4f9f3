//! ModelNet-like network emulator (paper §V-D: "an emulated network of 245
//! nodes deployed on a 25-node cluster equipped with the ModelNet network
//! emulator").
//!
//! Each peer runs on its own thread; all traffic flows through a router
//! thread that applies per-message latency (uniform in a configurable band)
//! and iid loss — the knobs ModelNet provides at the granularity the
//! protocol can observe. Peers tick themselves off the shared start instant,
//! so cycles stay aligned without a coordinator, exactly like the real
//! deployment.

use crate::peer::{NetOracle, Peer};
use crate::stats::TrafficStats;
use crate::swarm::{ItemTable, SwarmConfig, SwarmReport};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whatsup_core::NodeId;
use whatsup_datasets::Dataset;

/// Emulator fabric configuration.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    pub swarm: SwarmConfig,
    /// Per-message one-way latency band (uniform), in milliseconds.
    pub latency_ms: (u64, u64),
    /// Router-level loss probability (link loss; receive-side loss from
    /// `swarm.loss` also applies — use one or the other).
    pub link_loss: f64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            swarm: SwarmConfig::default(),
            latency_ms: (1, 5),
            link_loss: 0.0,
        }
    }
}

enum RouterMsg {
    Frame { to: NodeId, frame: Bytes },
    Stop,
}

struct Scheduled {
    due: Instant,
    to: NodeId,
    frame: Bytes,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on due time.
        other.due.cmp(&self.due)
    }
}

/// Runs a full emulated swarm experiment; blocks until completion.
pub fn run(dataset: &Dataset, cfg: &EmulatorConfig) -> SwarmReport {
    let n = dataset.n_users();
    let table = Arc::new(ItemTable::build(dataset, &cfg.swarm));
    let matrix = Arc::new(dataset.likes.clone());
    let stats = Arc::new(TrafficStats::new());
    let deliveries = Arc::new(Mutex::new(Vec::new()));

    // Peer inboxes and the router channel.
    let (router_tx, router_rx) = mpsc::channel::<RouterMsg>();
    let mut inbox_tx: Vec<Sender<Bytes>> = Vec::with_capacity(n);
    let mut inbox_rx: Vec<Option<Receiver<Bytes>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<Bytes>();
        inbox_tx.push(tx);
        inbox_rx.push(Some(rx));
    }

    let start = Instant::now() + Duration::from_millis(20);
    let total_cycles = cfg.swarm.cycles + cfg.swarm.drain_cycles;
    let cycle_ms = cfg.swarm.cycle_ms;

    // Router thread: latency + loss.
    let router = {
        let latency = cfg.latency_ms;
        let loss = cfg.link_loss;
        let seed = cfg.swarm.seed;
        let inboxes = inbox_tx.clone();
        std::thread::spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x707e7);
            let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
            loop {
                // Deliver everything due.
                let now = Instant::now();
                while heap.peek().is_some_and(|s| s.due <= now) {
                    let s = heap.pop().expect("peeked");
                    // A closed inbox means the peer is done; drop silently.
                    let _ = inboxes[s.to as usize].send(s.frame);
                }
                let timeout = heap
                    .peek()
                    .map(|s| s.due.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(10));
                match router_rx.recv_timeout(timeout) {
                    Ok(RouterMsg::Frame { to, frame }) => {
                        if loss > 0.0 && rng.gen_bool(loss) {
                            continue;
                        }
                        let delay = if latency.1 > latency.0 {
                            rng.gen_range(latency.0..=latency.1)
                        } else {
                            latency.0
                        };
                        heap.push(Scheduled {
                            due: Instant::now() + Duration::from_millis(delay),
                            to,
                            frame,
                        });
                    }
                    Ok(RouterMsg::Stop) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        })
    };

    // Peer threads.
    let handles: Vec<_> = (0..n)
        .map(|id| {
            let rx = inbox_rx[id].take().expect("each inbox taken once");
            let router_tx = router_tx.clone();
            let oracle = NetOracle::new(Arc::clone(&matrix), Arc::clone(&table));
            let mut peer = Peer::new(
                id as NodeId,
                &cfg.swarm,
                oracle,
                Arc::clone(&stats),
                Arc::clone(&deliveries),
            );
            peer.bootstrap(n, cfg.swarm.bootstrap_degree);
            // Which items this peer publishes, in cycle order.
            let mut my_items: Vec<(u32, u32)> = table
                .publish_cycle
                .iter()
                .enumerate()
                .filter(|&(idx, _)| table.items[idx].source == id as u32)
                .map(|(idx, &cycle)| (cycle, idx as u32))
                .collect();
            my_items.sort_unstable();
            std::thread::spawn(move || {
                let send_all = |frames: Vec<(NodeId, Bytes)>| {
                    for (to, frame) in frames {
                        let _ = router_tx.send(RouterMsg::Frame { to, frame });
                    }
                };
                let mut next_cycle: u32 = 0;
                let mut pending = my_items.into_iter().peekable();
                loop {
                    let now_cycle = cycle_of(start, cycle_ms);
                    // Run due ticks and publications.
                    while next_cycle <= now_cycle.min(total_cycles) {
                        let t = next_cycle;
                        if t < cfg_cycles_end(total_cycles) {
                            send_all(peerify(&mut peer, t, &mut pending));
                        }
                        next_cycle += 1;
                    }
                    if now_cycle > total_cycles {
                        break;
                    }
                    // Drain the inbox until the next cycle boundary.
                    let deadline = start + Duration::from_millis((now_cycle as u64 + 1) * cycle_ms);
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(timeout.min(Duration::from_millis(5))) {
                        Ok(frame) => {
                            send_all(peer.handle_frame(&frame, now_cycle));
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
        })
        .collect();

    // Wait for the experiment to finish.
    let run_time = cfg.swarm.duration() + Duration::from_millis(80);
    std::thread::sleep(run_time);
    for h in handles {
        let _ = h.join();
    }
    let _ = router_tx.send(RouterMsg::Stop);
    let _ = router.join();

    let duration_secs = cfg.swarm.duration().as_secs_f64();
    let deliveries = crate::lock(&deliveries).clone();
    SwarmReport::from_deliveries(
        "ModelNet",
        dataset,
        &cfg.swarm,
        &deliveries,
        stats.snapshot(),
        duration_secs,
    )
}

/// Current cycle index relative to the shared start instant.
fn cycle_of(start: Instant, cycle_ms: u64) -> u32 {
    let elapsed = Instant::now().saturating_duration_since(start);
    (elapsed.as_millis() as u64 / cycle_ms.max(1)) as u32
}

fn cfg_cycles_end(total: u32) -> u32 {
    total
}

/// One cycle's actions for a peer: gossip tick plus any due publications.
fn peerify(
    peer: &mut Peer,
    cycle: u32,
    pending: &mut std::iter::Peekable<std::vec::IntoIter<(u32, u32)>>,
) -> Vec<(NodeId, Bytes)> {
    let mut frames = peer.tick(cycle);
    while pending.peek().is_some_and(|&(c, _)| c <= cycle) {
        let (_, index) = pending.next().expect("peeked");
        frames.extend(peer.publish(index, cycle));
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::Params;
    use whatsup_datasets::{survey, SurveyConfig};

    fn quick_cfg() -> EmulatorConfig {
        EmulatorConfig {
            swarm: SwarmConfig {
                params: Params::whatsup(5),
                cycles: 14,
                cycle_ms: 80,
                publish_from: 2,
                measure_from: 5,
                drain_cycles: 2,
                ..Default::default()
            },
            latency_ms: (1, 4),
            link_loss: 0.0,
        }
    }

    #[test]
    fn emulated_swarm_disseminates() {
        let _guard = crate::lock(&crate::test_support::SWARM_LOCK);
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 17);
        let report = run(&d, &quick_cfg());
        let s = report.scores();
        assert!(s.recall > 0.1, "emulated swarm must deliver news: {s:?}");
        assert!(report.traffic.news_msgs > 0);
        assert!(report.traffic.rps_msgs > 0);
        assert!(report.traffic.wup_msgs > 0);
    }

    #[test]
    fn heavy_link_loss_reduces_recall() {
        let _guard = crate::lock(&crate::test_support::SWARM_LOCK);
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 17);
        let clean = run(&d, &quick_cfg());
        let mut lossy_cfg = quick_cfg();
        lossy_cfg.link_loss = 0.85;
        let lossy = run(&d, &lossy_cfg);
        assert!(
            lossy.scores().recall < clean.scores().recall,
            "85% link loss must hurt: clean {:?} lossy {:?}",
            clean.scores(),
            lossy.scores()
        );
    }
}
