//! The swarm: a [`Scenario`] executed by live peers against the wall clock
//! (paper §V-D's deployments, [`crate::Runner::deploy`]).
//!
//! One thread per node runs a `whatsup_net::Peer` — the `WhatsUpNode` the
//! simulator steps, between the wire codec and the traffic counters — over
//! a [`Fabric`]. Every peer ticks its cycles itself off one shared start
//! instant, as in a real deployment. Only transport and timing are the
//! swarm's own; the rest is the simulator's code:
//!
//! * node parameters, bootstrap overlay, publication plan, ground truth
//!   and item index from `SimConfig::build_params`, `crate::environment`
//!   and [`Oracle`] (every peer holds the oracle's index);
//! * protocol randomness from [`node_stream`]: CYCLE for a tick, NEWS for
//!   a cycle's publications and receptions — and for the one loss coin,
//!   [`dropped`] at the receiver under a Gilbert–Elliott bit each peer
//!   advances at its tick;
//! * crashes from [`crash_coin`] at the tick, each a cold restart seeded
//!   with the [`rejoin_contact`]'s id (a peer cannot read the contact's
//!   views the way the simulator's driver does);
//! * the report from the `record` ledger: each peer logs its bookings,
//!   replayed into one ledger after the run.
//!
//! Timeline events and mass joins need a driver to fire them, and the
//! runner's check refuses them up front. After the last cycle peers only
//! receive, for `DRAIN_CYCLES` more, so news in flight lands; those
//! receptions fall in the last cycle, which keeps
//! `report.cycles == cfg.cycles`.

use crate::config::{Protocol, SimConfig};
use crate::engine::shard::bootstrapped;
use crate::engine::{node_stream, phase};
use crate::environment::{
    advance_channels, bootstrap_contacts, crash_coin, dropped, partition_cut, rejoin_contact,
    Publications,
};
use crate::oracle::Oracle;
use crate::record::{Ledger, Reception, SimReport};
use crate::scenario::Scenario;
use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use whatsup_core::{NodeId, Params, Payload};
use whatsup_datasets::Dataset;
use whatsup_net::{Link, Peer, Router, TrafficSnapshot, TrafficStats, UdpLink};

/// The network a swarm's peers talk through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// A ModelNet-like router thread holding every frame for 1–8 ms: the
    /// paper's emulated cluster.
    Emulated,
    /// One UDP socket per peer on the loopback interface: the PlanetLab
    /// analogue.
    Udp,
}

/// What a swarm run produced.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The ledger's report, as the simulator renders it.
    pub report: SimReport,
    /// Bytes and frames sent, per protocol family (Fig. 8b).
    pub traffic: TrafficSnapshot,
    /// Wall-clock seconds from the first tick to the last peer's exit.
    pub wall_s: f64,
}

/// Cycles after the last one during which peers only receive.
const DRAIN_CYCLES: u32 = 3;

/// One ledger call a peer logs, as the arguments of the `Ledger` method
/// of the same name (the node is the log's owner).
enum Booking {
    GossipSent(u32, u64),
    Sent(u32, u32, u64),
    FirstReception(u32, u32, Reception),
    Forwarded(u32, u16, bool),
    Crashed(u32),
}

/// Runs `scenario` on a swarm over `fabric`, one cycle every `cycle_ms`
/// (see [`crate::Runner::deploy`], whose check admitted the run).
pub(crate) fn deploy(
    dataset: &Dataset,
    protocol: Protocol,
    cfg: &SimConfig,
    scenario: &Scenario,
    fabric: Fabric,
    cycle_ms: u64,
) -> io::Result<Deployment> {
    let params = cfg
        .build_params(&protocol)
        .expect("the runner deploys node protocols only");
    let n = dataset.n_users();
    let plan = Publications::plan(dataset, scenario, cfg);
    let oracle = Oracle::new(dataset.likes.clone(), plan.id_to_index());
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let swarm = Swarm {
        cfg,
        scenario,
        params: &params,
        plan: &plan,
        oracle: &oracle,
        contacts: bootstrap_contacts(&mut rng, n, cfg.bootstrap_degree),
        traffic: Arc::default(),
        // Time for the peer threads to start before cycle 0.
        start: Instant::now() + Duration::from_millis(30),
        cycle: Duration::from_millis(cycle_ms),
    };
    let logs = match fabric {
        Fabric::Emulated => {
            let (router, links) = Router::new(n, cfg.seed);
            thread::scope(|s| {
                s.spawn(move || router.run());
                swarm.run(s, links)
            })
        }
        Fabric::Udp => {
            let links = UdpLink::bind(n)?;
            thread::scope(|s| swarm.run(s, links))
        }
    }?;
    let wall_s = swarm.start.elapsed().as_secs_f64();

    let mut ledger = Ledger::open(&plan.cycle_of, cfg, n);
    for (index, item) in (0..).zip(&plan.items) {
        ledger.published(index, item.source, &oracle.interested(index));
    }
    for (node, log) in (0..).zip(logs) {
        for booking in log {
            match booking {
                Booking::GossipSent(cycle, frames) => ledger.gossip_sent(cycle, frames),
                Booking::Sent(cycle, index, copies) => ledger.sent(cycle, index, copies),
                Booking::FirstReception(cycle, index, r) => {
                    ledger.first_reception(cycle, index, node, r)
                }
                Booking::Forwarded(index, hop, liked) => ledger.forwarded(index, hop, liked),
                Booking::Crashed(cycle) => ledger.crashed(cycle, 1),
            }
        }
    }
    ledger.end_cycle(cfg.cycles - 1, n);
    Ok(Deployment {
        report: ledger.into_report(protocol, dataset.name.clone(), n, scenario),
        traffic: swarm.traffic.snapshot(),
        wall_s,
    })
}

/// What every peer thread shares, read-only (the traffic counters are
/// atomic).
struct Swarm<'a> {
    cfg: &'a SimConfig,
    scenario: &'a Scenario,
    params: &'a Params,
    plan: &'a Publications,
    oracle: &'a Oracle,
    /// Bootstrap contacts by node; its length is the population.
    contacts: Vec<Vec<NodeId>>,
    traffic: Arc<TrafficStats>,
    /// When cycle 0 begins.
    start: Instant,
    cycle: Duration,
}

/// One peer and the state its executor keeps beside it.
struct Node {
    id: NodeId,
    peer: Peer,
    /// Gilbert–Elliott channel state (`true` = Bad).
    bad: bool,
    /// The current cycle's NEWS stream.
    news: ChaCha8Rng,
    /// Items this node published or whose reception it booked. A restart
    /// forgets what the peer has seen, so an epidemic still in flight may
    /// reach it twice; this, which survives restarts, keeps the ledger's
    /// count at one reception per node and none at the source.
    booked: Vec<bool>,
    log: Vec<Booking>,
}

impl Swarm<'_> {
    /// Runs one peer thread per link, in id order, and returns their logs.
    fn run<'s, L: Link + 's>(
        &'s self,
        s: &'s thread::Scope<'s, '_>,
        links: Vec<L>,
    ) -> io::Result<Vec<Vec<Booking>>> {
        let peers: Vec<_> = (0..)
            .zip(links)
            .map(|(id, link)| s.spawn(move || self.live(id, link)))
            .collect();
        peers
            .into_iter()
            .map(|peer| peer.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }

    fn fresh(&self, id: NodeId, contacts: &[NodeId]) -> Peer {
        let items = self.oracle.id_map();
        let node = bootstrapped(id, self.params, items, contacts, &Default::default());
        Peer::new(node, Arc::clone(&self.traffic))
    }

    /// One peer's run — the workspace's one per-peer wall-clock loop: tick
    /// every cycle that has begun, then receive until the next one does;
    /// after the last cycle, receive through the drain.
    fn live(&self, id: NodeId, mut link: impl Link) -> io::Result<Vec<Booking>> {
        let mut node = Node {
            id,
            peer: self.fresh(id, &self.contacts[id as usize]),
            bad: false,
            news: node_stream(self.cfg.seed, id, 0, phase::NEWS),
            booked: vec![false; self.plan.items.len()],
            log: Vec::new(),
        };
        thread::sleep(self.start.saturating_duration_since(Instant::now()));
        let mut ticked = 0;
        loop {
            let now = (self.start.elapsed().as_nanos() / self.cycle.as_nanos()) as u32;
            while ticked <= now && ticked < self.cfg.cycles {
                self.tick(&mut node, &link, ticked);
                ticked += 1;
            }
            if now >= self.cfg.cycles + DRAIN_CYCLES {
                return Ok(node.log);
            }
            let boundary = self.start + self.cycle * (now + 1);
            if let Some(frame) = link.recv(boundary.saturating_duration_since(Instant::now()))? {
                // A peer's logical time is its last tick, so drain-time
                // receptions fall in the last cycle.
                self.receive(&mut node, &link, ticked - 1, &frame);
            }
        }
    }

    /// Cycle start at one peer, in the simulator's phase order: gossip,
    /// churn, then the peer's publications.
    fn tick(&self, node: &mut Node, link: &impl Link, cycle: u32) {
        let (seed, id, env) = (self.cfg.seed, node.id, &self.scenario.environment);
        advance_channels(
            env.loss,
            seed,
            id,
            cycle,
            std::slice::from_mut(&mut node.bad),
        );
        let frames = node
            .peer
            .tick(cycle, &mut node_stream(seed, id, cycle, phase::CYCLE));
        node.log
            .push(Booking::GossipSent(cycle, send(link, frames)));
        let n = self.contacts.len();
        let coin = crash_coin(seed, id, cycle, env.churn.crash_rate(cycle)).filter(|_| n > 1);
        if let Some(mut coin) = coin {
            node.peer = self.fresh(id, &[rejoin_contact(&mut coin, id, n)]);
            node.log.push(Booking::Crashed(cycle));
        }
        node.news = node_stream(seed, id, cycle, phase::NEWS);
        for &index in &self.plan.at_cycle[cycle as usize] {
            let item = &self.plan.items[index as usize];
            if item.source == id {
                node.booked[index as usize] = true;
                let frames = node.peer.publish(item, cycle, &mut node.news);
                let copies = send(link, frames);
                if copies > 0 {
                    let liked = self.oracle.likes_index(id, index);
                    node.log.push(Booking::Forwarded(index, 0, liked));
                }
                node.log.push(Booking::Sent(cycle, index, copies));
            }
        }
    }

    /// One received frame at one peer: decode, the loss coin, then the
    /// protocol, booking what it sent and a first news reception.
    fn receive(&self, node: &mut Node, link: &impl Link, cycle: u32, frame: &[u8]) {
        let n = self.contacts.len();
        let member = |(from, _): &(NodeId, Payload)| (*from as usize) < n;
        let Some((from, payload)) = node.peer.decode(frame).filter(member) else {
            return;
        };
        let loss = self.scenario.environment.loss;
        let cut = partition_cut(loss, cycle, n);
        if dropped(loss, node.bad, cut, from, node.id, &mut node.news) {
            return;
        }
        // (index, hop, dislikes, unseen) of news about a workload item.
        let news = match &payload {
            Payload::News(m) => self.oracle.index_of(m.header.id).map(|index| {
                let unseen = !node.peer.node().has_seen(m.header.id);
                (index, m.hops.saturating_add(1), m.dislikes, unseen)
            }),
            _ => None,
        };
        let gossip = !matches!(payload, Payload::News(_));
        let frames = node
            .peer
            .handle(from, payload, cycle, self.oracle, &mut node.news);
        let copies = send(link, frames);
        if let Some((index, hop, dislikes, unseen)) = news {
            if unseen && !std::mem::replace(&mut node.booked[index as usize], true) {
                let likes = self.oracle.likes_index(node.id, index);
                let reception = Reception {
                    likes,
                    hop: Some((hop, self.oracle.likes_index(from, index))),
                    dislikes: Some(dislikes),
                };
                node.log
                    .push(Booking::FirstReception(cycle, index, reception));
                if copies > 0 {
                    node.log.push(Booking::Forwarded(index, hop, likes));
                }
            }
            node.log.push(Booking::Sent(cycle, index, copies));
        } else if gossip {
            node.log.push(Booking::GossipSent(cycle, copies));
        }
    }
}

/// Sends `frames`, returning how many.
fn send(link: &impl Link, frames: Vec<(NodeId, Bytes)>) -> u64 {
    let count = frames.len() as u64;
    for (to, frame) in frames {
        link.send(to, frame);
    }
    count
}
