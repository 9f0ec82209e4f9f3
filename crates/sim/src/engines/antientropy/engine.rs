//! The anti-entropy cycle loop: heartbeats, scuttlebutt exchanges, churn
//! with real downtime, publications as news keys, and phi evaluation.
//!
//! Determinism: every random draw comes from a counter-based ChaCha8
//! stream keyed by `(seed, node, cycle, phase)` or from the single driving
//! RNG seeded with `cfg.seed`, and every loop runs in ascending id order —
//! repeated runs at the same seed are bit-identical.
//!
//! The engine's own draw is partner selection, from each initiator's
//! GOSSIP stream. Loss, channel, crash and join draws are the
//! `crate::environment` module's; the engine only supplies the stream its
//! datagram loss coins come from — the *receiver's* NEWS stream, created
//! lazily once per cycle.

use super::delta::pack_delta;
use super::digest::DigestIndex;
use super::phi::PhiDetector;
use super::state::Replica;
use crate::config::{Protocol, SimConfig};
use crate::engine::{node_stream, phase};
use crate::environment::{
    advance_channels, crash_coin, dropped, partition_cut, CycleStart, Publications,
};
use crate::oracle::Oracle;
use crate::record::{Ledger, Reception, SimReport};
use crate::runner::{Runner, Way};
use crate::scenario::{Event, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whatsup_core::hash::mix64;
use whatsup_core::NodeId;
use whatsup_datasets::Dataset;
use whatsup_net::codec::{DeltaEntry, DeltaValue};

/// What the phi-accrual layer concluded over the run: every crash victim,
/// when it was first suspected by any live observer *while actually
/// down*, and every suspicion raised against a node that was up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionReport {
    /// The φ threshold the run used.
    pub threshold: f64,
    /// `(node, crash cycle)` for every churn-phase crash.
    pub victims: Vec<(NodeId, u32)>,
    /// `(victim, cycle)` of the first suspicion raised against each victim
    /// during one of its down windows.
    pub detections: Vec<(NodeId, u32)>,
    /// `(cycle, observer, peer)` suspicion transitions against up peers.
    pub false_positives: Vec<(u32, NodeId, NodeId)>,
}

impl DetectionReport {
    /// Victims no observer ever suspected while they were down.
    pub fn undetected(&self) -> Vec<NodeId> {
        self.victims
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| !self.detections.iter().any(|&(d, _)| d == *v))
            .collect()
    }
}

/// Runs anti-entropy under `scenario` and reports, with the phi-accrual
/// [`DetectionReport`]. Panics with the one line of a refused run.
pub fn run_with_detection(
    dataset: &Dataset,
    cfg: &SimConfig,
    scenario: &Scenario,
    fanout: usize,
) -> (SimReport, DetectionReport) {
    let runner = Runner::new(dataset, Protocol::AntiEntropy { fanout })
        .config(cfg.clone())
        .scenario(scenario.clone());
    runner.check(Way::Run).unwrap_or_else(|e| panic!("{e}"));
    run_scenario(dataset, cfg, scenario, fanout)
}

/// [`run_with_detection`] of a run the runner's check admitted.
pub(crate) fn run_scenario(
    dataset: &Dataset,
    cfg: &SimConfig,
    scenario: &Scenario,
    fanout: usize,
) -> (SimReport, DetectionReport) {
    let mut engine = Engine::new(dataset, cfg, scenario, fanout);
    for cycle in 0..cfg.cycles {
        engine.run_cycle(cycle);
    }
    engine.into_reports()
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    scenario: &'a Scenario,
    fanout: usize,
    dataset_name: String,
    oracle: Oracle,
    /// Current population (grows on joins; includes down nodes).
    n: usize,
    replicas: Vec<Replica>,
    detectors: Vec<PhiDetector>,
    /// End-of-previous-cycle suspicion matrix, observer-major. Feeds
    /// partner selection and the transition bookkeeping.
    suspected: Vec<Vec<bool>>,
    up: Vec<bool>,
    rejoin_at: Vec<Option<u32>>,
    incarnation: Vec<u32>,
    /// Bumped on interest swaps so the profile digest re-propagates.
    profile_epoch: Vec<u32>,
    /// Items each source has durably published (re-inserted on rejoin).
    owned_items: Vec<Vec<u32>>,
    /// Items scheduled while their source was down, inserted at rejoin.
    pending_publish: Vec<Vec<u32>>,
    /// Gilbert–Elliott channel state per node (`true` = Bad).
    channel_bad: Vec<bool>,
    /// Per-receiver loss-coin streams for the current cycle.
    phase_rngs: Vec<Option<ChaCha8Rng>>,
    /// item → node → already counted as a first reception. Global and
    /// crash-proof, so re-learning state after a rejoin never recounts.
    seen: Vec<Vec<bool>>,
    /// item → node → liked, frozen at publication (source excluded).
    /// Dissemination spans cycles here, so the ground truth must be
    /// pinned: a clone joining (or an interest swap) after publication
    /// must not shift an already-published item's interested set.
    liked_at_publish: Vec<Vec<bool>>,
    ledger: Ledger,
    /// Driving RNG for the cycle-start join references.
    driver_rng: ChaCha8Rng,
    plan: Publications,
    detection: DetectionReport,
}

impl<'a> Engine<'a> {
    fn new(dataset: &Dataset, cfg: &'a SimConfig, scenario: &'a Scenario, fanout: usize) -> Self {
        let n = dataset.n_users();
        // Anti-entropy addresses items by dataset index throughout; the
        // id map only serves the oracle's construction.
        let plan = Publications::plan(dataset, scenario, cfg);
        let mut engine = Engine {
            cfg,
            scenario,
            fanout,
            dataset_name: dataset.name.clone(),
            oracle: Oracle::new(dataset.likes.clone(), plan.id_to_index()),
            n,
            replicas: (0..n).map(|_| Replica::new(n)).collect(),
            detectors: (0..n).map(|_| PhiDetector::new(n)).collect(),
            suspected: vec![vec![false; n]; n],
            up: vec![true; n],
            rejoin_at: vec![None; n],
            incarnation: vec![0; n],
            profile_epoch: vec![0; n],
            owned_items: vec![Vec::new(); n],
            pending_publish: vec![Vec::new(); n],
            channel_bad: vec![false; n],
            phase_rngs: vec![None; n],
            seen: vec![vec![false; n]; dataset.n_items()],
            liked_at_publish: vec![Vec::new(); dataset.n_items()],
            ledger: Ledger::open(&plan.cycle_of, cfg, n),
            driver_rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            plan,
            detection: DetectionReport {
                threshold: cfg.phi_threshold,
                ..DetectionReport::default()
            },
        };
        for id in 0..n as NodeId {
            let digest = engine.profile_digest(id);
            engine.replicas[id as usize].set_profile(id, digest);
        }
        engine
    }

    /// Opaque-on-the-wire profile digest: a hash of the node's identity
    /// and interest epoch (the wire never carries profile content).
    fn profile_digest(&self, id: NodeId) -> u64 {
        mix64(
            self.cfg.seed
                ^ (u64::from(id) << 32)
                ^ (u64::from(self.profile_epoch[id as usize]) << 8)
                ^ u64::from(self.incarnation[id as usize]),
        )
    }

    fn run_cycle(&mut self, cycle: u32) {
        // --- Cycle start: rejoins, mass joins, timeline events -----------
        for id in 0..self.n {
            if self.rejoin_at[id] == Some(cycle) {
                self.rejoin(id as NodeId);
            }
        }
        let mut start = CycleStart::new(self.scenario, cycle);
        while let Some(event) = start.next(self.scenario, &mut self.driver_rng, self.n) {
            self.apply_event(event, cycle);
        }

        // --- Heartbeats: every up node stamps the cycle ------------------
        for id in 0..self.n {
            if self.up[id] {
                self.replicas[id].set_heartbeat(id as NodeId, cycle);
            }
        }

        // --- Environment for this cycle ----------------------------------
        let loss = self.scenario.environment.loss;
        advance_channels(loss, self.cfg.seed, 0, cycle, &mut self.channel_bad);
        self.phase_rngs.iter_mut().for_each(|r| *r = None);
        let cut = partition_cut(loss, cycle, self.n);

        // --- Gossip: every up node initiates `fanout` exchanges ----------
        for u in 0..self.n {
            if !self.up[u] {
                continue;
            }
            for v in self.select_partners(u as NodeId, cycle) {
                self.exchange(u as NodeId, v, cycle, cut);
            }
        }

        // --- Churn: every up node's crash coin ---------------------------
        let rate = self.scenario.environment.churn.crash_rate(cycle);
        if self.n > 1 {
            for id in 0..self.n as NodeId {
                if self.up[id as usize] && crash_coin(self.cfg.seed, id, cycle, rate).is_some() {
                    self.crash(id, cycle);
                }
            }
        }

        // --- Publications ------------------------------------------------
        for k in 0..self.plan.at_cycle[cycle as usize].len() {
            self.publish(self.plan.at_cycle[cycle as usize][k], cycle);
        }

        // --- Phi evaluation + suspicion transitions ----------------------
        self.evaluate_suspicion(cycle);

        self.ledger.end_cycle(cycle, self.n);
    }

    // --- Membership ------------------------------------------------------

    fn join_clone(&mut self, reference: NodeId) {
        let id = self.oracle.add_clone_of(reference);
        debug_assert_eq!(id as usize, self.n);
        self.n += 1;
        self.replicas.push(Replica::new(self.n));
        self.detectors.push(PhiDetector::new(self.n));
        self.suspected.push(vec![false; self.n]);
        self.up.push(true);
        self.rejoin_at.push(None);
        self.incarnation.push(0);
        self.profile_epoch.push(0);
        self.owned_items.push(Vec::new());
        self.pending_publish.push(Vec::new());
        self.channel_bad.push(false);
        self.phase_rngs.push(None);
        self.ledger.joined();
        let digest = self.profile_digest(id);
        self.replicas[id as usize].set_profile(id, digest);
    }

    fn crash(&mut self, id: NodeId, cycle: u32) {
        self.up[id as usize] = false;
        self.rejoin_at[id as usize] = Some(cycle + self.cfg.down_cycles);
        self.ledger.crashed(cycle, 1);
        self.detection.victims.push((id, cycle));
    }

    /// Rejoin after downtime: bumped incarnation, cold replica, durable
    /// state (profile, published news keys) re-inserted under fresh
    /// versions. The phi history and suspicion row restart from scratch.
    fn rejoin(&mut self, id: NodeId) {
        let idx = id as usize;
        self.up[idx] = true;
        self.rejoin_at[idx] = None;
        self.incarnation[idx] += 1;
        self.cold_restart(id);
    }

    fn apply_event(&mut self, event: Event, cycle: u32) {
        match event {
            Event::JoinClone { reference } => self.join_clone(reference),
            Event::SwapInterests { a, b } => {
                self.oracle.swap_interests(a, b);
                for id in [a, b] {
                    self.profile_epoch[id as usize] += 1;
                    if self.up[id as usize] {
                        let digest = self.profile_digest(id);
                        self.replicas[id as usize].set_profile(id, digest);
                    }
                }
            }
            Event::ResetNode { node } => {
                // Instant cold restart (the node engine's reset semantics):
                // no downtime, but a bumped incarnation and a fresh replica.
                self.incarnation[node as usize] += 1;
                self.rejoin_at[node as usize] = None;
                self.up[node as usize] = true;
                self.cold_restart(node);
                self.ledger.crashed(cycle, 1);
            }
        }
    }

    /// Fresh-replica cold start for `id` at its current incarnation:
    /// everything learned is dropped; the profile digest and every durably
    /// published news key are re-inserted under fresh versions so the
    /// bumped incarnation re-propagates them.
    fn cold_restart(&mut self, id: NodeId) {
        let idx = id as usize;
        self.replicas[idx] = Replica::new(self.n);
        self.detectors[idx] = PhiDetector::new(self.n);
        self.suspected[idx] = vec![false; self.n];
        let digest = self.profile_digest(id);
        self.replicas[idx].set_profile(id, digest);
        let deferred = std::mem::take(&mut self.pending_publish[idx]);
        self.owned_items[idx].extend(deferred);
        let owned = self.owned_items[idx].clone();
        for item in owned {
            let published_at = self.plan.cycle_of[item as usize];
            self.replicas[idx].insert_news(id, item, published_at);
        }
        // Carry the bumped incarnation into the owner's own record so its
        // digest and outgoing entries advertise the new epoch.
        self.replicas[idx].records[idx].incarnation = self.incarnation[idx];
    }

    /// Whether one `from → to` datagram is lost, its coin (if the loss
    /// model draws one) coming from the receiver's per-cycle stream.
    fn dropped(&mut self, from: NodeId, to: NodeId, cycle: u32, cut: Option<NodeId>) -> bool {
        let seed = self.cfg.seed;
        let rng = self.phase_rngs[to as usize]
            .get_or_insert_with(|| node_stream(seed, to, cycle, phase::NEWS));
        let bad = self.channel_bad[to as usize];
        dropped(self.scenario.environment.loss, bad, cut, from, to, rng)
    }

    // --- Gossip ------------------------------------------------------------

    /// The initiator's partners this cycle: `fanout` distinct peers drawn
    /// from its GOSSIP stream over the nodes it does not suspect.
    fn select_partners(&self, u: NodeId, cycle: u32) -> Vec<NodeId> {
        // A node that joined this cycle is absent from older suspicion
        // rows (they are resized at the end-of-cycle evaluation) — absent
        // means not suspected.
        let row = &self.suspected[u as usize];
        let candidates: Vec<NodeId> = (0..self.n as NodeId)
            .filter(|&v| v != u && !row.get(v as usize).copied().unwrap_or(false))
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let take = self.fanout.min(candidates.len());
        let mut rng = node_stream(self.cfg.seed, u, cycle, phase::GOSSIP);
        rand::seq::index::sample(&mut rng, candidates.len(), take)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    }

    /// One three-way scuttlebutt exchange `u → v`: Syn (digest), SynAck
    /// (delta + digest), Ack (delta). Every datagram counts as one gossip
    /// message even when it is lost; a drop or a down responder truncates
    /// the rest of the handshake.
    fn exchange(&mut self, u: NodeId, v: NodeId, cycle: u32, cut: Option<NodeId>) {
        // Syn: u → v carries u's digest.
        self.ledger.gossip_sent(cycle, 1);
        if !self.up[v as usize] || self.dropped(u, v, cycle, cut) {
            return;
        }
        // SynAck: v → u carries Δ(v | u's digest) and v's digest.
        let u_digest = self.replicas[u as usize].digest(self.n);
        let (delta_vu, _) = pack_delta(
            &self.replicas[v as usize],
            &DigestIndex::new(&u_digest),
            self.cfg.datagram_budget,
        );
        self.count_news_entries(&delta_vu, cycle);
        self.ledger.gossip_sent(cycle, 1);
        if self.dropped(v, u, cycle, cut) {
            return;
        }
        self.apply_delta(u, &delta_vu, cycle);
        // Ack: u → v carries Δ(u | v's digest).
        let v_digest = self.replicas[v as usize].digest(self.n);
        let (delta_uv, _) = pack_delta(
            &self.replicas[u as usize],
            &DigestIndex::new(&v_digest),
            self.cfg.datagram_budget,
        );
        self.count_news_entries(&delta_uv, cycle);
        self.ledger.gossip_sent(cycle, 1);
        if self.dropped(u, v, cycle, cut) {
            return;
        }
        self.apply_delta(v, &delta_uv, cycle);
    }

    /// News-key entries packed into an emitted delta count as news copies
    /// sent (lost ones included — the paper's "number of sent messages").
    fn count_news_entries(&mut self, delta: &[DeltaEntry], cycle: u32) {
        for e in delta {
            if let DeltaValue::NewsKey { item, .. } = e.value {
                self.ledger.sent(cycle, item, 1);
            }
        }
    }

    fn apply_delta(&mut self, receiver: NodeId, delta: &[DeltaEntry], cycle: u32) {
        for e in delta {
            if let DeltaValue::Heartbeat(_) = e.value {
                self.detectors[receiver as usize].observe(e.node, e.incarnation, e.version, cycle);
            }
            let applied = self.replicas[receiver as usize].apply(receiver, e);
            if applied {
                if let DeltaValue::NewsKey { item, .. } = e.value {
                    self.reception(receiver, item, cycle);
                }
            }
        }
    }

    /// First reception of `item` by `receiver` (globally deduplicated, so
    /// state re-learned after a crash never recounts).
    fn reception(&mut self, receiver: NodeId, item: u32, cycle: u32) {
        let row = &mut self.seen[item as usize];
        let idx = receiver as usize;
        if idx >= row.len() {
            row.resize(idx + 1, false);
        }
        if row[idx] {
            return;
        }
        row[idx] = true;
        let likes = self.liked_at_publish[item as usize]
            .get(idx)
            .copied()
            .unwrap_or(false);
        // Keys reconcile state-to-state: no hop path, and a dislike
        // counter that is always zero.
        let reception = Reception {
            likes,
            hop: None,
            dislikes: Some(0),
        };
        self.ledger
            .first_reception(cycle, item, receiver, reception);
    }

    // --- Publications ------------------------------------------------------

    fn publish(&mut self, index: u32, cycle: u32) {
        let source = self.plan.items[index as usize].source;
        // Freeze the ground truth: the interested set at publication is
        // what the item is scored against for the rest of the run.
        let likers = self.oracle.interested(index);
        self.ledger.published(index, source, &likers);
        let mut liked = vec![false; self.n];
        for u in likers.into_iter().filter(|&u| u != source) {
            liked[u as usize] = true;
        }
        self.liked_at_publish[index as usize] = liked;
        if self.up[source as usize] {
            self.owned_items[source as usize].push(index);
            self.replicas[source as usize].insert_news(source, index, cycle);
        } else {
            // The source is dark: the key enters the network at rejoin.
            self.pending_publish[source as usize].push(index);
        }
    }

    // --- Phi bookkeeping ---------------------------------------------------

    /// End-of-cycle suspicion sweep: every up observer re-evaluates φ for
    /// every peer; transitions into suspicion are classified as a
    /// detection (peer actually down) or a false positive (peer up). Down
    /// observers keep their frozen matrix rows until they rejoin.
    fn evaluate_suspicion(&mut self, cycle: u32) {
        let threshold = self.cfg.phi_threshold;
        for observer in 0..self.n {
            if !self.up[observer] {
                continue;
            }
            if self.suspected[observer].len() < self.n {
                self.suspected[observer].resize(self.n, false);
            }
            for peer in 0..self.n {
                if peer == observer {
                    continue;
                }
                let now_suspect =
                    self.detectors[observer].suspects(peer as NodeId, cycle, threshold);
                let was = self.suspected[observer][peer];
                if now_suspect && !was {
                    if self.up[peer] {
                        self.detection.false_positives.push((
                            cycle,
                            observer as NodeId,
                            peer as NodeId,
                        ));
                    } else if !self
                        .detection
                        .detections
                        .iter()
                        .any(|&(v, _)| v == peer as NodeId)
                    {
                        self.detection.detections.push((peer as NodeId, cycle));
                    }
                }
                self.suspected[observer][peer] = now_suspect;
            }
        }
    }

    fn into_reports(self) -> (SimReport, DetectionReport) {
        let protocol = Protocol::AntiEntropy {
            fanout: self.fanout,
        };
        let report = self
            .ledger
            .into_report(protocol, self.dataset_name, self.n, self.scenario);
        (report, self.detection)
    }
}
