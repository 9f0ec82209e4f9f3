//! Real UDP swarm on the loopback interface (the PlanetLab analogue,
//! paper §V-D).
//!
//! One OS thread and one UDP socket per peer; peers look each other up in a
//! shared address registry (standing in for the paper's bootstrap server).
//! Receive-side loss injection (`SwarmConfig::loss`) reproduces the message
//! loss the paper measured on PlanetLab ("nodes do not receive up to 30% of
//! the news that are correctly sent to them") — on loopback, the kernel is
//! too reliable to produce it naturally.

use crate::peer::{NetOracle, Peer};
use crate::stats::TrafficStats;
use crate::swarm::{ItemTable, SwarmConfig, SwarmReport};
use bytes::Bytes;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whatsup_core::NodeId;
use whatsup_datasets::Dataset;

/// UDP runtime configuration.
#[derive(Debug, Clone, Default)]
pub struct UdpConfig {
    pub swarm: SwarmConfig,
}

/// Runs a full UDP swarm experiment on 127.0.0.1; blocks until completion.
///
/// # Panics
/// Panics if sockets cannot be bound (no loopback available).
pub fn run(dataset: &Dataset, cfg: &UdpConfig) -> SwarmReport {
    let n = dataset.n_users();
    let table = Arc::new(ItemTable::build(dataset, &cfg.swarm));
    let matrix = Arc::new(dataset.likes.clone());
    let stats = Arc::new(TrafficStats::new());
    let deliveries = Arc::new(Mutex::new(Vec::new()));

    // Bind one socket per peer and build the address registry.
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind loopback UDP socket"))
        .collect();
    let registry: Arc<Vec<SocketAddr>> = Arc::new(
        sockets
            .iter()
            .map(|s| s.local_addr().expect("bound socket has addr"))
            .collect(),
    );

    let start = Instant::now() + Duration::from_millis(30);
    let total_cycles = cfg.swarm.cycles + cfg.swarm.drain_cycles;
    let cycle_ms = cfg.swarm.cycle_ms;

    let handles: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(id, socket)| {
            let registry = Arc::clone(&registry);
            let oracle = NetOracle::new(Arc::clone(&matrix), Arc::clone(&table));
            let mut peer = Peer::new(
                id as NodeId,
                &cfg.swarm,
                oracle,
                Arc::clone(&stats),
                Arc::clone(&deliveries),
            );
            peer.bootstrap(n, cfg.swarm.bootstrap_degree);
            let mut my_items: Vec<(u32, u32)> = table
                .publish_cycle
                .iter()
                .enumerate()
                .filter(|&(idx, _)| table.items[idx].source == id as u32)
                .map(|(idx, &cycle)| (cycle, idx as u32))
                .collect();
            my_items.sort_unstable();
            std::thread::spawn(move || {
                socket
                    .set_read_timeout(Some(Duration::from_millis(3)))
                    .expect("set UDP read timeout");
                let send_all = |frames: Vec<(NodeId, Bytes)>, socket: &UdpSocket| {
                    for (to, frame) in frames {
                        let _ = socket.send_to(&frame, registry[to as usize]);
                    }
                };
                let mut buf = vec![0u8; crate::codec::MAX_FRAME + 64];
                let mut next_cycle: u32 = 0;
                let mut pending = my_items.into_iter().peekable();
                loop {
                    let elapsed = Instant::now().saturating_duration_since(start);
                    let now_cycle = (elapsed.as_millis() as u64 / cycle_ms.max(1)) as u32;
                    while next_cycle <= now_cycle.min(total_cycles) {
                        let t = next_cycle;
                        if t < total_cycles {
                            let mut frames = peer.tick(t);
                            while pending.peek().is_some_and(|&(c, _)| c <= t) {
                                let (_, index) = pending.next().expect("peeked");
                                frames.extend(peer.publish(index, t));
                            }
                            send_all(frames, &socket);
                        }
                        next_cycle += 1;
                    }
                    if now_cycle > total_cycles {
                        break;
                    }
                    match socket.recv_from(&mut buf) {
                        Ok((len, _)) => {
                            let replies = peer.handle_frame(&buf[..len], now_cycle);
                            send_all(replies, &socket);
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(e) => {
                            eprintln!("peer {id}: socket error: {e}");
                            break;
                        }
                    }
                }
            })
        })
        .collect();

    for h in handles {
        let _ = h.join();
    }

    let duration_secs = cfg.swarm.duration().as_secs_f64();
    let deliveries = crate::lock(&deliveries).clone();
    SwarmReport::from_deliveries(
        "UDP",
        dataset,
        &cfg.swarm,
        &deliveries,
        stats.snapshot(),
        duration_secs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::Params;
    use whatsup_datasets::{survey, SurveyConfig};

    fn quick_cfg(loss: f64) -> UdpConfig {
        UdpConfig {
            swarm: SwarmConfig {
                params: Params::whatsup(5),
                cycles: 14,
                cycle_ms: 80,
                publish_from: 2,
                measure_from: 5,
                drain_cycles: 2,
                loss,
                ..Default::default()
            },
        }
    }

    #[test]
    fn udp_swarm_disseminates() {
        let _guard = crate::lock(&crate::test_support::SWARM_LOCK);
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 23);
        let report = run(&d, &quick_cfg(0.0));
        let s = report.scores();
        assert!(s.recall > 0.1, "UDP swarm must deliver news: {s:?}");
        assert!(report.traffic.news_msgs > 0);
        assert!(report.total_kbps() > 0.0);
    }

    #[test]
    fn injected_loss_reduces_recall() {
        let _guard = crate::lock(&crate::test_support::SWARM_LOCK);
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 23);
        let clean = run(&d, &quick_cfg(0.0));
        let lossy = run(&d, &quick_cfg(0.9));
        assert!(
            lossy.scores().recall < clean.scores().recall,
            "90% receive loss must hurt: clean {:?} lossy {:?}",
            clean.scores(),
            lossy.scores()
        );
    }
}
