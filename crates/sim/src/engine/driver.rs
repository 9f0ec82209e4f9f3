//! The simulation driver: owns the run-level state (records, counters,
//! oracle, schedule), orchestrates the phase round-trips over any slice of
//! `ShardLink`s, and exposes the public [`Simulation`] API.
//!
//! The driver never touches node state directly during a cycle — every
//! phase is a command to the shards and a fold of their replies, in shard
//! order (= node-id order, since shard ranges are contiguous ascending).
//! That is what lets the same `run_cycle` drive the inline single-shard
//! path, the in-process worker threads, the `sim-shard-worker` child
//! processes and remote socket workers to bit-identical reports.

use crate::config::{Protocol, SimConfig, Transport};
use crate::engine::exchange::socket::DIAL_RETRY_WINDOW;
use crate::engine::exchange::stream::{Peer, StreamLink};
use crate::engine::exchange::supervisor::Supervised;
use crate::engine::exchange::{
    answer, roundtrip, Command, InlineLink, NewsOutcome, Outbound, Reply, ShardLink, Supervision,
    ThreadLink, TransportError,
};
use crate::engine::node_stream;
use crate::engine::partition::Partition;
use crate::engine::shard::{ShardInit, ShardState};
use crate::environment::{bootstrap_contacts, rejoin_contact, CycleStart, Publications};
use crate::oracle::Oracle;
use crate::record::{Ledger, Reception, SimReport};
use crate::scenario::{Event, Scenario};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io;
use whatsup_core::similarity::Prepared;
use whatsup_core::{NodeId, Opinions, Params, Profile, WhatsUpNode};
use whatsup_datasets::Dataset;
use whatsup_graph::Graph;

/// Driver-side run state: everything that is not node state.
pub(crate) struct DriverCore {
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    params: Params,
    dataset_name: String,
    /// What publishes when (also serves the windowed ground-truth lookups:
    /// O(window), not O(items)).
    plan: Publications,
    oracle: Oracle,
    /// Records, counters and series; fed from the phase replies the driver
    /// already folds, so there is no dedicated counter round-trip. Lives on
    /// the core (not `run_cycle`) because it outlives every cycle: the
    /// report is rendered from it once the run ends.
    ledger: Ledger,
    /// Driving-thread RNG for bootstrap and the timeline events; the cycle
    /// phases use [`node_stream`] exclusively.
    rng: ChaCha8Rng,
    cycle: u32,
    /// Liked first receptions per node during the current cycle (Fig. 7c).
    liked_this_cycle: Vec<u32>,
    partition: Partition,
}

impl DriverCore {
    fn into_report(self) -> SimReport {
        let n_nodes = self.partition.total();
        self.ledger
            .into_report(self.protocol, self.dataset_name, n_nodes, &self.scenario)
    }
}

/// Builds the driver core and one init per shard from `(dataset, protocol,
/// config, scenario)` over the run's `shards` (the runner resolves the
/// count) — shared by the in-process constructor and the multi-process
/// runner so both start from identical state.
fn build(
    dataset: &Dataset,
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    shards: usize,
) -> (DriverCore, Vec<ShardInit>) {
    let params = cfg
        .build_params(&protocol)
        .expect("the runner admits node protocols only");
    let n = dataset.n_users();
    let plan = Publications::plan(dataset, &scenario, &cfg);
    let oracle = Oracle::new(dataset.likes.clone(), plan.id_to_index());

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let bootstrap = bootstrap_contacts(&mut rng, n, cfg.bootstrap_degree);

    // Load-aware split: the last shard absorbs every scheduled join, so
    // plan its initial range against the final population. Boundaries
    // never affect results — any contiguous split is bit-identical.
    let partition = Partition::plan(n, shards, scenario.expected_joins());
    let inits = (0..partition.n_shards())
        .map(|s| ShardInit {
            index: s,
            partition: partition.clone(),
            seed: cfg.seed,
            loss: scenario.environment.loss,
            churn: scenario.environment.churn,
            params: params.clone(),
            oracle: oracle.clone(),
            bootstrap: partition
                .range(s)
                .map(|id| bootstrap[id as usize].clone())
                .collect(),
        })
        .collect();

    let core = DriverCore {
        protocol,
        ledger: Ledger::open(&plan.cycle_of, &cfg, n),
        cfg,
        scenario,
        params,
        dataset_name: dataset.name.clone(),
        plan,
        oracle,
        rng,
        cycle: 0,
        liked_this_cycle: vec![0; n],
        partition,
    };
    (core, inits)
}

/// The bundles destined for `dest`, one per source shard in shard order.
fn bundles_for(outs: &[Outbound], dest: usize) -> Vec<Bytes> {
    outs.iter().map(|o| o.bundles[dest].clone()).collect()
}

/// Fetches one node's view snapshot from its owning shard.
fn fetch_snapshot(
    core: &DriverCore,
    t: &mut [impl ShardLink],
    id: NodeId,
) -> Result<Bytes, TransportError> {
    let owner = core.partition.shard_of(id);
    let batch = vec![(owner, Command::TakeSnapshots { ids: vec![id] })];
    let [frame] = roundtrip(
        t,
        batch,
        answer!(Reply::Snapshots(f) => <[Bytes; 1]>::try_from(f).ok()?),
    )?
    .pop()
    .expect("one reply per command");
    Ok(frame)
}

/// Applies one timeline event through the transport (see the engine module
/// docs for when events fire and which RNG they draw from).
fn apply_event(
    core: &mut DriverCore,
    t: &mut [impl ShardLink],
    event: Event,
) -> Result<(), TransportError> {
    match event {
        // A node cloning `reference`'s interests (§V-C): cold start from a
        // random contact's views, state built on the last shard while every
        // shard's oracle copy and partition stay in lockstep.
        Event::JoinClone { reference } => {
            let contact = core.rng.gen_range(0..core.partition.total()) as NodeId;
            let snapshot = fetch_snapshot(core, t, contact)?;
            core.oracle.add_clone_of(reference);
            core.partition.push_node();
            let last = t.len() - 1;
            let batch = (0..t.len())
                .map(|s| {
                    (
                        s,
                        Command::Admit {
                            reference,
                            snapshot: (s == last).then(|| snapshot.clone()),
                        },
                    )
                })
                .collect();
            roundtrip(t, batch, answer!(Reply::Ack => ()))?;
            core.liked_this_cycle.push(0);
            core.ledger.joined();
        }
        Event::SwapInterests { a, b } => {
            core.oracle.swap_interests(a, b);
            let batch = (0..t.len())
                .map(|s| (s, Command::SwapInterests { a, b }))
                .collect();
            roundtrip(t, batch, answer!(Reply::Ack => ()))?;
        }
        Event::ResetNode { node } => {
            let n = core.partition.total();
            assert!(n > 1, "a 1-node network has no rejoin contact");
            let contact = rejoin_contact(&mut core.rng, node, n);
            let snapshot = fetch_snapshot(core, t, contact)?;
            let owner = core.partition.shard_of(node);
            let reset = Command::ApplyChurn {
                resets: vec![(node, snapshot)],
            };
            roundtrip(t, vec![(owner, reset)], answer!(Reply::Ack => ()))?;
            core.ledger.crashed(core.cycle, 1);
        }
    }
    Ok(())
}

/// Advances the run by one cycle over `t`: scenario events, gossip, churn,
/// publications.
fn run_cycle(core: &mut DriverCore, t: &mut [impl ShardLink]) -> Result<(), TransportError> {
    let cycle = core.cycle;
    let mut start = CycleStart::new(&core.scenario, cycle);
    while let Some(event) = start.next(&core.scenario, &mut core.rng, core.partition.total()) {
        apply_event(core, t, event)?;
    }
    let shards = t.len();
    core.liked_this_cycle.iter_mut().for_each(|c| *c = 0);

    // --- Gossip phase: collect, then route/deliver until quiet ------------
    let collect = (0..shards)
        .map(|s| (s, Command::Collect { cycle }))
        .collect();
    let mut outs = roundtrip(t, collect, answer!(Reply::Outbound(o) => o))?;
    loop {
        let sent: u64 = outs.iter().map(|o| o.sent).sum();
        if sent == 0 {
            break;
        }
        core.ledger.gossip_sent(cycle, sent);
        let batch = (0..shards)
            .map(|dest| {
                (
                    dest,
                    Command::DeliverGossip {
                        cycle,
                        bundles: bundles_for(&outs, dest),
                    },
                )
            })
            .collect();
        outs = roundtrip(t, batch, answer!(Reply::Outbound(o) => o))?;
    }

    // --- Churn phase ------------------------------------------------------
    // Decisions come from per-node CHURN streams on the shards; the driver
    // moves contact view snapshots (all taken from the pre-churn state, so
    // application order cannot matter) to the crashing shards.
    if core.scenario.environment.churn.crash_rate(cycle) > 0.0 && core.partition.total() > 1 {
        let decide = (0..shards)
            .map(|s| (s, Command::ChurnDecide { cycle }))
            .collect();
        let decisions = roundtrip(t, decide, answer!(Reply::ChurnDecisions(p) => p))?;
        let pairs: Vec<(NodeId, NodeId)> = decisions.into_iter().flatten().collect();
        core.ledger.crashed(cycle, pairs.len() as u64);
        if !pairs.is_empty() {
            let mut wanted: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
            for &(_, contact) in &pairs {
                wanted[core.partition.shard_of(contact)].push(contact);
            }
            for w in &mut wanted {
                w.sort_unstable();
                w.dedup();
            }
            let batch: Vec<(usize, Command)> = wanted
                .iter()
                .enumerate()
                .filter(|(_, w)| !w.is_empty())
                .map(|(s, w)| (s, Command::TakeSnapshots { ids: w.clone() }))
                .collect();
            let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
            let replies = roundtrip(t, batch, answer!(Reply::Snapshots(f) => f))?;
            let mut snapshots: BTreeMap<NodeId, Bytes> = BTreeMap::new();
            for (s, frames) in targets.into_iter().zip(replies) {
                for (&id, frame) in wanted[s].iter().zip(frames) {
                    snapshots.insert(id, frame);
                }
            }
            let mut resets: Vec<Vec<(NodeId, Bytes)>> = vec![Vec::new(); shards];
            for (node, contact) in pairs {
                resets[core.partition.shard_of(node)].push((node, snapshots[&contact].clone()));
            }
            let batch: Vec<(usize, Command)> = resets
                .into_iter()
                .enumerate()
                .filter(|(_, r)| !r.is_empty())
                .map(|(s, r)| (s, Command::ApplyChurn { resets: r }))
                .collect();
            roundtrip(t, batch, answer!(Reply::Ack => ()))?;
        }
    }

    // --- Publication phase ------------------------------------------------
    if !core.plan.at_cycle[cycle as usize].is_empty() {
        let batch = (0..shards).map(|s| (s, Command::BeginNews)).collect();
        roundtrip(t, batch, answer!(Reply::Ack => ()))?;
    }
    for k in 0..core.plan.at_cycle[cycle as usize].len() {
        let index = core.plan.at_cycle[cycle as usize][k];
        disseminate(core, t, index, cycle)?;
    }

    // --- Measurement flush -------------------------------------------------
    // The cycle's counters were booked from the phase replies it already
    // produced (integer sums in a fixed fold order), so the series stays
    // bit-identical across shard counts and transports (see the engine
    // module docs' "measurement pipeline").
    core.ledger.end_cycle(cycle, core.partition.total());
    core.cycle += 1;
    Ok(())
}

/// Publishes one item and runs its epidemic to completion as a BFS: every
/// copy at hop distance `h` is delivered before any copy at `h + 1`;
/// outcome folds happen in receiver order.
fn disseminate(
    core: &mut DriverCore,
    t: &mut [impl ShardLink],
    index: u32,
    cycle: u32,
) -> Result<(), TransportError> {
    let shards = t.len();
    let item = core.plan.items[index as usize].clone();
    let item_id = core.plan.ids[index as usize];
    let source = item.source;

    // Ground truth at publication.
    core.ledger
        .published(index, source, &core.oracle.interested(index));

    let owner = core.partition.shard_of(source);
    let published =
        answer!(Reply::Published { first_forward_hop, out } => (first_forward_hop, out));
    let (first_forward_hop, out) = roundtrip(
        t,
        vec![(owner, Command::Publish { cycle, item })],
        published,
    )?
    .pop()
    .expect("one reply per command");
    // Fig. 6 forwarding record for the source's own publication.
    if let Some(hop) = first_forward_hop {
        let liked = core.oracle.likes(source, item_id);
        core.ledger.forwarded(index, hop, liked);
    }

    let mut outs: Vec<Outbound> = (0..shards).map(|_| Outbound::empty(shards)).collect();
    outs[owner] = out;
    loop {
        let sent: u64 = outs.iter().map(|o| o.sent).sum();
        if sent == 0 {
            break;
        }
        core.ledger.sent(cycle, index, sent);
        // Sparse BFS tails leave most shards with no inbound mail at all
        // (no bundle addressed to them, nothing in their pending queue).
        // Skipping their round-trip cannot change any mailbox: a skipped
        // shard would merge nothing, drain nothing and emit nothing.
        let active: Vec<usize> = (0..shards)
            .filter(|&dest| {
                outs[dest].local > 0 || outs.iter().any(|o| !o.bundles[dest].is_empty())
            })
            .collect();
        let batch = active
            .iter()
            .map(|&dest| {
                (
                    dest,
                    Command::DeliverNews {
                        cycle,
                        item: item_id,
                        bundles: bundles_for(&outs, dest),
                    },
                )
            })
            .collect();
        let delivered = answer!(Reply::NewsDelivered { out, outcomes } => (out, outcomes));
        let replies = roundtrip(t, batch, delivered)?;
        let mut next_outs: Vec<Outbound> = (0..shards).map(|_| Outbound::empty(shards)).collect();
        for (&dest, (out, outcomes)) in active.iter().zip(replies) {
            fold_outcomes(core, cycle, index, &outcomes);
            next_outs[dest] = out;
        }
        outs = next_outs;
    }
    Ok(())
}

/// Books one shard's per-receiver outcomes (receivers arrive in ascending
/// order, shards fold in shard order).
fn fold_outcomes(core: &mut DriverCore, cycle: u32, index: u32, outcomes: &[NewsOutcome]) {
    for o in outcomes {
        if let Some(first) = o.first {
            let reception = Reception {
                likes: first.receiver_likes,
                hop: Some((first.hop, first.sender_liked)),
                dislikes: Some(first.dislikes),
            };
            core.ledger
                .first_reception(cycle, index, o.receiver, reception);
            core.liked_this_cycle[o.receiver as usize] += u32::from(first.receiver_likes);
        }
        if let Some((hop, liked)) = o.forward {
            core.ledger.forwarded(index, hop, liked);
        }
    }
}

/// Runs every remaining cycle of `core` over `t`. With `checkpoint_every`
/// (supervised links, which keep the replies on their way up), every shard
/// is sent a `TakeCheckpoint` each time that many cycles completed: at a
/// cycle boundary every mailbox is provably drained, so no in-flight mail
/// is ever serialized.
fn drive(
    core: &mut DriverCore,
    t: &mut [impl ShardLink],
    checkpoint_every: Option<u32>,
) -> Result<(), TransportError> {
    while core.cycle < core.cfg.cycles {
        run_cycle(core, t)?;
        if checkpoint_every.is_some_and(|every| core.cycle.is_multiple_of(every)) {
            let batch = (0..t.len()).map(|s| (s, Command::TakeCheckpoint)).collect();
            roundtrip(t, batch, answer!(Reply::Checkpoint(_) => ()))?;
        }
    }
    Ok(())
}

/// Tears every link down; reports the first failure but still stops and
/// reaps every worker.
fn shutdown_all(links: Vec<impl ShardLink>) -> Result<(), TransportError> {
    let mut outcome = Ok(());
    for link in links {
        outcome = outcome.and(link.shutdown());
    }
    outcome
}

/// Builds and runs a whole simulation on `shards` external shard workers,
/// one stream link each (see [`Transport`] for where they live; on
/// [`Transport::Socket`] the runner passes one shard per worker). Events
/// flow to the workers as phase commands, so the full scenario grammar
/// works across process boundaries. With `supervision`, crashed or hung
/// workers are restarted and recovered by checkpoint/replay instead of
/// failing the run (see [`Supervised`]).
pub(crate) fn run_external(
    dataset: &Dataset,
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    shards: usize,
    transport: &Transport,
    supervision: Option<Supervision>,
) -> io::Result<SimReport> {
    let (mut core, inits) = build(dataset, protocol, cfg, scenario, shards);
    // On any error from here on, dropping the links stops the workers
    // (children are killed and reaped, connections closed), so none
    // lingers behind an aborted run.
    let mut links = Vec::with_capacity(inits.len());
    for init in &inits {
        let peer = match transport {
            Transport::Process(worker) => Peer::Pipe {
                worker: worker.clone(),
            },
            Transport::Socket(workers) => Peer::Tcp {
                addr: workers[init.index].clone(),
                dial_window: supervision
                    .as_ref()
                    .map_or(DIAL_RETRY_WINDOW, |sup| sup.dial_window),
                deadline: supervision.as_ref().map(|sup| sup.deadline),
            },
            Transport::InProcess => unreachable!("in-process runs step a Simulation"),
        };
        links.push(StreamLink::open(peer, init)?);
    }
    let Some(sup) = supervision else {
        drive(&mut core, &mut links, None)?;
        shutdown_all(links)?;
        return Ok(core.into_report());
    };
    let mut links: Vec<_> = links
        .into_iter()
        .enumerate()
        .map(|(s, link)| Supervised::new(link, s, sup.clone()))
        .collect();
    drive(&mut core, &mut links, Some(sup.checkpoint_every))?;
    let restarts: u32 = links.iter().map(Supervised::restarts).sum();
    shutdown_all(links)?;
    if restarts > 0 {
        eprintln!("supervisor: recovered {restarts} worker restart(s)");
    }
    Ok(core.into_report())
}

/// A running simulation of one node-based protocol over one dataset.
pub struct Simulation {
    core: DriverCore,
    shards: Vec<ShardState>,
}

impl Simulation {
    /// Builds a simulation with `shards` in-process shards running
    /// `scenario` — what [`crate::Runner::build`] and
    /// [`crate::Runner::run`] construct once their check admits the run.
    pub(crate) fn with_scenario(
        dataset: &Dataset,
        protocol: Protocol,
        cfg: SimConfig,
        scenario: Scenario,
        shards: usize,
    ) -> Self {
        let (core, inits) = build(dataset, protocol, cfg, scenario, shards);
        let shards = inits.into_iter().map(ShardState::from_init).collect();
        Self { core, shards }
    }

    pub fn protocol(&self) -> Protocol {
        self.core.protocol
    }

    pub fn current_cycle(&self) -> u32 {
        self.core.cycle
    }

    pub fn n_nodes(&self) -> usize {
        self.core.partition.total()
    }

    /// Aggregated per-component heap accounting across shards
    /// (diagnostics; see `ShardState::memory_breakdown`).
    #[doc(hidden)]
    pub fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        let mut totals: Vec<(&'static str, usize)> = Vec::new();
        for shard in &self.shards {
            for (name, bytes) in shard.memory_breakdown() {
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, t)) => *t += bytes,
                    None => totals.push((name, bytes)),
                }
            }
        }
        let (records, per_node) = self.core.ledger.heap_bytes();
        totals.push(("item records", records));
        // The run's item index: one `Arc`, shared by the oracle and every
        // node, so counted here once and not per shard. Its id → slot map,
        // and its slot → id and slot → creation-time columns, one id and
        // one time per slot of the dense index.
        let items = self.core.oracle.id_map();
        let entry = std::mem::size_of::<(whatsup_core::ItemId, u32)>() + 1;
        let columns = std::mem::size_of::<whatsup_core::ItemId>()
            + std::mem::size_of::<whatsup_core::Timestamp>();
        totals.push((
            "item index",
            items.capacity() * entry + items.len() * columns,
        ));
        totals.push((
            "driver per-node",
            per_node + self.core.liked_this_cycle.capacity() * 4,
        ));
        totals
    }

    pub fn oracle(&self) -> &Oracle {
        &self.core.oracle
    }

    pub fn node(&self, id: NodeId) -> &WhatsUpNode {
        self.shards[self.core.partition.shard_of(id)].node(id)
    }

    /// Liked first receptions per node during the last completed cycle.
    pub fn liked_receptions_last_cycle(&self, id: NodeId) -> u32 {
        self.core.liked_this_cycle[id as usize]
    }

    /// The per-node RNG stream this simulation uses for `(node, cycle,
    /// phase)` — exposed so tests can assert stream stability.
    pub fn stream_for(&self, node: NodeId, cycle: u32, phase: u8) -> ChaCha8Rng {
        node_stream(self.core.cfg.seed, node, cycle, phase)
    }

    /// Runs all remaining cycles and reports.
    pub fn run(mut self) -> SimReport {
        while self.core.cycle < self.core.cfg.cycles {
            self.step();
        }
        self.into_report()
    }

    /// Advances one cycle: gossip phase, churn, then publications. With one
    /// shard the phases run inline; with more, each shard runs on its own
    /// scoped worker thread and the phases exchange serialized bundles over
    /// channels.
    pub fn step(&mut self) {
        assert!(
            self.core.cycle < self.core.cfg.cycles,
            "simulation already finished"
        );
        let core = &mut self.core;
        let states = &mut self.shards;
        if states.len() == 1 {
            run_cycle(core, &mut InlineLink::over(states)).expect("inline links cannot fail");
        } else {
            std::thread::scope(|scope| {
                let mut links: Vec<ThreadLink> = states
                    .iter_mut()
                    .enumerate()
                    .map(|(shard, state)| ThreadLink::spawn(scope, shard, state))
                    .collect();
                // A link failure means a shard thread panicked; the scope
                // re-raises that panic when it joins, so this expect only
                // adds context.
                run_cycle(core, &mut links).expect("shard worker thread failed");
            });
        }
    }

    /// Fig. 7's y-axis: mean similarity between `id`'s *ground-truth
    /// interest profile* (its opinions on the items of the current profile
    /// window) and the live profiles of its WUP view members. Using the
    /// ground truth rather than the node's own lagging profile makes an
    /// interest switch visible immediately: the old view scores poorly for
    /// the new interests until WUP rebuilds it.
    pub fn interest_view_similarity(&self, id: NodeId) -> f64 {
        let gt = self.ground_truth_profile(id);
        self.view_similarity_against(id, &gt)
    }

    /// The windowed ground-truth profile of a node: its true opinion on
    /// every item published within the current profile window. Uses the
    /// per-cycle publication index, so the scan is O(window · items/cycle),
    /// not O(total items).
    fn ground_truth_profile(&self, id: NodeId) -> Profile {
        let window = self.core.params.profile_window;
        let now = self.core.cycle;
        let cutoff = now.saturating_sub(window);
        let last = now.min(self.core.plan.at_cycle.len() as u32);
        Profile::from_entries((cutoff..last).flat_map(|cycle| {
            self.core.plan.at_cycle[cycle as usize]
                .iter()
                .map(move |&index| {
                    let liked = self.core.oracle.likes_index(id, index);
                    whatsup_core::ProfileEntry {
                        item: self.core.plan.ids[index as usize],
                        timestamp: cycle,
                        score: if liked { 1.0 } else { 0.0 },
                    }
                })
        }))
    }

    /// Scored like a WUP merge ranks its candidates: `reference` laid out
    /// once over the run's index, each neighbor's packed profile counted
    /// from its planes, with the pairwise scores' bits.
    fn view_similarity_against(&self, id: NodeId, reference: &Profile) -> f64 {
        let node = self.node(id);
        let metric = node.params().metric;
        let neighbors = node.wup_neighbor_ids();
        if neighbors.is_empty() {
            return 0.0;
        }
        let scorer = Prepared::new(reference, self.core.oracle.id_map());
        let sum: f64 = neighbors
            .iter()
            .map(|&nb| scorer.score(metric, self.node(nb).profile()))
            .sum();
        sum / neighbors.len() as f64
    }

    /// The current WUP overlay as a directed graph (Fig. 4 analyses).
    pub(crate) fn wup_overlay(&self) -> Graph {
        let n = self.core.partition.total();
        let mut g = Graph::new(n);
        for shard in &self.shards {
            for node in shard.nodes() {
                for v in node.wup_neighbor_ids() {
                    if (v as usize) < n {
                        g.add_edge(node.id(), v);
                    }
                }
            }
        }
        g
    }

    /// Report for the cycles executed so far, consuming the simulation (the
    /// records move — nothing is cloned).
    pub fn into_report(self) -> SimReport {
        self.core.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnModel, Environment, LossModel, TimedEvent};
    use crate::Runner;
    use whatsup_datasets::{survey, SurveyConfig};

    fn tiny_dataset() -> Dataset {
        survey::generate(&SurveyConfig::paper().scaled(0.12), 42)
    }

    fn simulation(d: &Dataset, protocol: Protocol, cfg: SimConfig) -> Simulation {
        Runner::new(d, protocol).config(cfg).build()
    }

    /// `events` at the start of cycle `at`, in list order.
    fn events_at(at: u32, events: &[Event]) -> Scenario {
        Scenario::default().with_events(
            events
                .iter()
                .map(|&event| TimedEvent { at, event })
                .collect(),
        )
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            cycles: 20,
            publish_from: 2,
            measure_from: 8,
            ..Default::default()
        }
    }

    #[test]
    fn whatsup_run_produces_sane_report() {
        let d = tiny_dataset();
        let sim = simulation(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg());
        let report = sim.run();
        assert_eq!(report.n_nodes, d.n_users());
        assert!(report.measured_items() > 0);
        let s = report.scores();
        assert!(s.recall > 0.2, "recall collapsed: {s:?}");
        assert!(s.precision > 0.2, "precision collapsed: {s:?}");
        assert!(report.news_messages > 0);
        assert!(report.gossip_messages > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = tiny_dataset();
        let r1 = simulation(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        let r2 = simulation(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        assert_eq!(r1.scores(), r2.scores());
        assert_eq!(r1.news_messages, r2.news_messages);
        assert_eq!(r1.gossip_messages, r2.gossip_messages);
        assert_eq!(r1, r2, "full reports must be bit-identical");
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        let d = tiny_dataset();
        let single = simulation(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        for shards in [2usize, 3] {
            let cfg = SimConfig {
                shards,
                ..quick_cfg()
            };
            let sim = simulation(&d, Protocol::WhatsUp { f_like: 5 }, cfg);
            assert_eq!(sim.shards.len(), shards);
            let sharded = sim.run();
            assert_eq!(single, sharded, "{shards} shards diverged");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_population() {
        let d = tiny_dataset();
        let cfg = SimConfig {
            shards: 10_000_000,
            ..quick_cfg()
        };
        let sim = simulation(&d, Protocol::WhatsUp { f_like: 5 }, cfg);
        assert_eq!(sim.shards.len(), d.n_users());
    }

    #[test]
    fn gossip_floods_with_high_recall_low_precision() {
        let d = tiny_dataset();
        let gossip = simulation(&d, Protocol::Gossip { fanout: 5 }, quick_cfg()).run();
        let s = gossip.scores();
        assert!(s.recall > 0.9, "homogeneous gossip must flood: {s:?}");
        // Flooding precision ≈ mean like rate (well below 0.6).
        assert!(s.precision < 0.6, "flooding precision too high: {s:?}");
    }

    #[test]
    fn whatsup_beats_gossip_precision_at_same_fanout() {
        let d = tiny_dataset();
        let wu = simulation(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        let go = simulation(&d, Protocol::Gossip { fanout: 5 }, quick_cfg()).run();
        assert!(
            wu.scores().precision > go.scores().precision,
            "whatsup {:?} vs gossip {:?}",
            wu.scores(),
            go.scores()
        );
    }

    #[test]
    fn loss_degrades_recall() {
        let d = tiny_dataset();
        let clean = simulation(&d, Protocol::WhatsUp { f_like: 3 }, quick_cfg()).run();
        let lossy = Runner::new(&d, Protocol::WhatsUp { f_like: 3 })
            .config(quick_cfg())
            .scenario(Scenario::default().with_environment(Environment {
                loss: LossModel::Constant { p: 0.5 },
                churn: ChurnModel::None,
            }))
            .run();
        assert!(
            lossy.scores().recall < clean.scores().recall,
            "50% loss must hurt recall: clean {:?} lossy {:?}",
            clean.scores(),
            lossy.scores()
        );
    }

    #[test]
    fn dislike_counters_stay_within_ttl() {
        let d = tiny_dataset();
        let report = simulation(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        let dist = report.dislike_distribution(4);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for r in &report.items {
            assert!(r.dislikes_at_liked_reception.iter().all(|&x| x <= 4));
        }
    }

    #[test]
    fn overlay_graph_has_out_degree_bounded_by_view() {
        let d = tiny_dataset();
        let mut sim = simulation(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg());
        for _ in 0..10 {
            sim.step();
        }
        let g = sim.wup_overlay();
        assert_eq!(g.len(), d.n_users());
        for u in 0..g.len() as u32 {
            assert!(g.out_degree(u) <= 10, "view size bound violated");
        }
    }

    #[test]
    fn joining_node_integrates() {
        let d = tiny_dataset();
        let mut sim = Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(quick_cfg())
            .scenario(events_at(6, &[Event::JoinClone { reference: 0 }]))
            .build();
        for _ in 0..quick_cfg().cycles {
            sim.step();
        }
        // The joiner takes the next free id.
        assert_eq!(sim.n_nodes(), d.n_users() + 1);
        let joiner = d.n_users() as NodeId;
        // The joiner must have acquired neighbors and a profile.
        assert!(!sim.node(joiner).wup_neighbor_ids().is_empty());
        assert!(sim.view_similarity_against(joiner, sim.node(joiner).profile()) >= 0.0);
    }

    #[test]
    fn joining_node_integrates_on_sharded_engine() {
        let d = tiny_dataset();
        let cfg = SimConfig {
            shards: 3,
            ..quick_cfg()
        };
        let events = [
            Event::JoinClone { reference: 0 },
            Event::SwapInterests { a: 1, b: 2 },
        ];
        let mut sim = Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(cfg)
            .scenario(events_at(6, &events))
            .build();
        for _ in 0..quick_cfg().cycles {
            sim.step();
        }
        let joiner = d.n_users() as NodeId;
        assert!(!sim.node(joiner).wup_neighbor_ids().is_empty());
        assert!(sim.view_similarity_against(joiner, sim.node(joiner).profile()) >= 0.0);
    }

    #[test]
    fn measured_flag_follows_threshold() {
        let d = tiny_dataset();
        let report = simulation(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        for r in &report.items {
            assert_eq!(r.measured, r.published_at >= quick_cfg().measure_from);
        }
    }

    #[test]
    fn churn_keeps_running_and_degrades_gracefully() {
        let d = tiny_dataset();
        let churny = Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(quick_cfg())
            .scenario(Scenario::default().with_environment(Environment {
                loss: LossModel::Constant { p: 0.0 },
                churn: ChurnModel::Uniform { per_cycle: 0.05 },
            }));
        let a = churny.clone().run();
        let b = churny.run();
        assert_eq!(a, b, "churn must stay deterministic");
        assert!(a.scores().recall > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not run on the node engine")]
    fn global_protocols_rejected() {
        let d = tiny_dataset();
        let _ = simulation(&d, Protocol::Cascade, quick_cfg());
    }

    /// A worker that acknowledges every command, whatever it asked for.
    struct AckLink;

    impl ShardLink for AckLink {
        fn endpoint(&self) -> String {
            "ack-only worker".into()
        }

        fn send(&mut self, _: Command) -> Result<(), TransportError> {
            Ok(())
        }

        fn recv(&mut self) -> Result<Reply, TransportError> {
            Ok(Reply::Ack)
        }
    }

    #[test]
    fn a_reply_of_the_wrong_variant_is_an_error_naming_the_worker() {
        let d = tiny_dataset();
        let scenario = Scenario::default();
        let protocol = Protocol::WhatsUp { f_like: 5 };
        let (mut core, _) = build(&d, protocol, quick_cfg(), scenario, 1);
        let err = run_cycle(&mut core, &mut [AckLink]).expect_err("Ack does not answer Collect");
        assert!(!err.kind.is_retryable(), "{err}");
        assert_eq!(
            err.to_string(),
            "shard worker ack-only worker: malformed frame — \
             invalid frame: reply does not answer its command"
        );
    }
}
