//! The traced socket run: the harness is its own shard workers.
//!
//! Each worker is a thread listening on `127.0.0.1:0` that speaks the
//! byte-stream protocol through the crate's public functions —
//! `accept_handshake`, then per command `read_frame`, `decode_command`,
//! `ShardState::handle`, `encode_reply`, `write_frame` — and stamps a time
//! around every call. The workload runs through `Runner::socket`, so the
//! driver is untouched and unaware. Spans stay in memory until the run is
//! over.

use crate::workloads::Inputs;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use whatsup_sim::engine::exchange::stream::{accept_handshake, read_frame, write_frame};
use whatsup_sim::engine::exchange::{decode_command, encode_reply, Command, Outbound, Reply};
use whatsup_sim::SimReport;

/// The engine phase a command belongs to (the `shard.*_s` rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Collect,
    DeliverGossip,
    Churn,
    Publish,
    DeliverNews,
    Other,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Collect,
        Phase::DeliverGossip,
        Phase::Churn,
        Phase::Publish,
        Phase::DeliverNews,
        Phase::Other,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Phase::Collect => "shard.collect_s",
            Phase::DeliverGossip => "shard.deliver_gossip_s",
            Phase::Churn => "shard.churn_s",
            Phase::Publish => "shard.publish_s",
            Phase::DeliverNews => "shard.deliver_news_s",
            Phase::Other => "shard.other_s",
        }
    }

    fn is_gossip(self) -> bool {
        matches!(self, Phase::Collect | Phase::DeliverGossip)
    }

    fn is_news(self) -> bool {
        matches!(self, Phase::Publish | Phase::DeliverNews)
    }
}

/// One command as a worker saw it: seven timestamps (ns since the trace
/// epoch) bounding its six steps, and the counts taken at the same
/// boundaries.
#[derive(Debug, Clone)]
pub struct CommandSpan {
    pub name: &'static str,
    pub phase: Phase,
    pub shard: u32,
    pub cycle: u32,
    /// News item the command concerns (`Publish`, `DeliverNews`).
    item: Option<u64>,
    /// Driver round-trip this command was part of (see [`assign_rounds`]).
    pub round: u32,
    /// `read_frame` entered: the worker starts waiting for the driver.
    pub read_start: u64,
    /// Command frame fully read.
    pub arrived: u64,
    pub decoded: u64,
    pub handled: u64,
    pub encoded: u64,
    /// Reply frame written and flushed.
    pub written: u64,
    /// Command frame, reply and reply frame freed — the shipped
    /// `serve_stream` has freed the same three by the end of each turn —
    /// and this span recorded.
    pub released: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Messages the shard emitted (`Outbound::sent`, self-shard included).
    pub msgs: u64,
    /// Of those, messages that stayed on the shard.
    pub local: u64,
    /// Inbound bundle sizes by source shard / outbound by destination.
    in_bundles: Vec<u32>,
    out_bundles: Vec<u32>,
}

impl CommandSpan {
    fn handle_ns(&self) -> u64 {
        self.handled - self.decoded
    }
    fn bundle_bytes_out(&self) -> u64 {
        self.out_bundles.iter().map(|&b| u64::from(b)).sum()
    }
}

/// Everything one worker thread recorded.
pub struct WorkerTrace {
    pub shard: u32,
    /// Connection accepted / handshake done / thread about to return.
    pub born: u64,
    pub handshaken: u64,
    pub died: u64,
    pub commands: Vec<CommandSpan>,
    /// The wait for, and decode of, the final `Stop` (no reply follows).
    stop_wait: (u64, u64, u64),
}

fn describe(cmd: &Command, last_cycle: u32) -> (&'static str, Phase, u32, Option<u64>, Vec<u32>) {
    let lens = |bundles: &[bytes::Bytes]| bundles.iter().map(|b| b.len() as u32).collect();
    match cmd {
        Command::Collect { cycle } => ("Collect", Phase::Collect, *cycle, None, vec![]),
        Command::DeliverGossip { cycle, bundles } => (
            "DeliverGossip",
            Phase::DeliverGossip,
            *cycle,
            None,
            lens(bundles),
        ),
        Command::ChurnDecide { cycle } => ("ChurnDecide", Phase::Churn, *cycle, None, vec![]),
        Command::TakeSnapshots { .. } => ("TakeSnapshots", Phase::Churn, last_cycle, None, vec![]),
        Command::ApplyChurn { .. } => ("ApplyChurn", Phase::Churn, last_cycle, None, vec![]),
        Command::Admit { .. } => ("Admit", Phase::Other, last_cycle, None, vec![]),
        Command::SwapInterests { .. } => ("SwapInterests", Phase::Other, last_cycle, None, vec![]),
        Command::BeginNews => ("BeginNews", Phase::Other, last_cycle, None, vec![]),
        Command::Publish { cycle, item } => {
            ("Publish", Phase::Publish, *cycle, Some(item.id()), vec![])
        }
        Command::DeliverNews {
            cycle,
            item,
            bundles,
        } => (
            "DeliverNews",
            Phase::DeliverNews,
            *cycle,
            Some(*item),
            lens(bundles),
        ),
        Command::TakeCheckpoint => ("TakeCheckpoint", Phase::Other, last_cycle, None, vec![]),
        Command::Restore { .. } => ("Restore", Phase::Other, last_cycle, None, vec![]),
        Command::Stop => ("Stop", Phase::Other, last_cycle, None, vec![]),
    }
}

fn outbound_of(reply: &Reply) -> Option<&Outbound> {
    match reply {
        Reply::Outbound(out) | Reply::Published { out, .. } | Reply::NewsDelivered { out, .. } => {
            Some(out)
        }
        _ => None,
    }
}

/// Accepts one driver connection (bounded wait, so a driver that never
/// dials cannot hang the thread) and closes the listener.
fn accept_one(listener: TcpListener) -> Result<TcpStream, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| format!("accepted stream: {e}"))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err("no driver connected within 20 s".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
}

/// One traced worker: the `sim-shard-worker --listen` conversation with a
/// clock read between every step.
fn serve_traced(listener: TcpListener, shard: u32, epoch: Instant) -> Result<WorkerTrace, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let stream = accept_one(listener)?;
    let born = now();
    let _ = stream.set_nodelay(true);
    let mut input = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut output = BufWriter::new(stream);
    let mut state =
        accept_handshake(&mut input, &mut output).map_err(|e| format!("shard {shard}: {e}"))?;
    let handshaken = now();

    let mut commands: Vec<CommandSpan> = Vec::new();
    let mut last_cycle = 0;
    let stop_wait = loop {
        let read_start = now();
        let frame = read_frame(&mut input)
            .map_err(|e| format!("shard {shard}: {e}"))?
            .ok_or_else(|| format!("shard {shard}: driver closed the stream without Stop"))?;
        let arrived = now();
        let cmd = decode_command(&frame);
        let decoded = now();
        if matches!(cmd, Command::Stop) {
            break (read_start, arrived, decoded);
        }
        let (name, phase, cycle, item, in_bundles) = describe(&cmd, last_cycle);
        last_cycle = cycle;
        let reply = state.handle(cmd);
        let handled = now();
        let reply_frame = encode_reply(&reply);
        let encoded = now();
        write_frame(&mut output, &reply_frame).map_err(|e| format!("shard {shard}: {e}"))?;
        let written = now();
        let out = outbound_of(&reply);
        commands.push(CommandSpan {
            name,
            phase,
            shard,
            cycle,
            item,
            round: 0,
            read_start,
            arrived,
            decoded,
            handled,
            encoded,
            written,
            released: 0,
            bytes_in: frame.len() as u64 + 4,
            bytes_out: reply_frame.len() as u64 + 4,
            msgs: out.map_or(0, |o| o.sent),
            local: out.map_or(0, |o| o.local),
            in_bundles,
            out_bundles: out.map_or_else(Vec::new, |o| {
                o.bundles.iter().map(|b| b.len() as u32).collect()
            }),
        });
        drop((frame, reply, reply_frame));
        if let Some(span) = commands.last_mut() {
            span.released = now();
        }
    };
    Ok(WorkerTrace {
        shard,
        born,
        handshaken,
        died: now(),
        commands,
        stop_wait,
    })
}

/// The traced run's raw material.
pub struct SocketTrace {
    pub report: SimReport,
    /// `Runner::try_run` over the socket transport, seconds.
    pub wall_s: f64,
    pub workers: Vec<WorkerTrace>,
    pub rounds: u32,
}

/// Runs the workload through `Runner::socket` against `shards` traced
/// worker threads. Every worker is joined before this returns, whether
/// the run succeeded or not.
pub fn run_socket(inputs: &Inputs, shards: usize) -> Result<SocketTrace, String> {
    let epoch = Instant::now();
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..shards {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind a worker: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read the bound address: {e}"))?;
        addrs.push(addr.to_string());
        handles.push(std::thread::spawn(move || {
            serve_traced(listener, shard as u32, epoch)
        }));
    }
    let started = Instant::now();
    let outcome = inputs.runner().socket(addrs).try_run();
    let wall_s = started.elapsed().as_secs_f64();
    // A failed run drops its connections, so every worker sees EOF and
    // returns; join them all before reporting either outcome.
    let joined: Vec<Result<WorkerTrace, String>> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("a traced worker panicked".into()))
        })
        .collect();
    let report = outcome.map_err(|e| format!("traced socket run: {e}"))?;
    let mut workers = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rounds = assign_rounds(&mut workers);
    Ok(SocketTrace {
        report,
        wall_s,
        workers,
        rounds,
    })
}

/// Groups the workers' commands into the driver's lockstep round-trips
/// (at most one command per shard, all of one kind, cycle and item) and
/// stamps each command with its round id; returns the number of rounds.
///
/// The driver reads every reply of a round before it sends the next, so
/// walking all commands in arrival order visits the rounds in order. Two
/// consecutive rounds of one kind on disjoint shards (sparse BFS tails)
/// are told apart by data flow: a command whose inbound bundle from shard
/// `a` has exactly the size of the bundle `a` just emitted for it belongs
/// to the next round.
fn assign_rounds(workers: &mut [WorkerTrace]) -> u32 {
    let mut order: Vec<(usize, usize)> = workers
        .iter()
        .enumerate()
        .flat_map(|(w, t)| (0..t.commands.len()).map(move |c| (w, c)))
        .collect();
    order.sort_by_key(|&(w, c)| (workers[w].commands[c].arrived, w));
    let mut round = 0u32;
    let mut members: Vec<(usize, usize)> = Vec::new();
    for (w, c) in order {
        let joins = {
            let cmd = &workers[w].commands[c];
            members.first().is_some_and(|&(fw, fc)| {
                let first = &workers[fw].commands[fc];
                (first.name, first.cycle, first.item) == (cmd.name, cmd.cycle, cmd.item)
            }) && members.iter().all(|&(mw, mc)| {
                let member = &workers[mw].commands[mc];
                let fed_by_member = match (
                    cmd.in_bundles.get(member.shard as usize),
                    member.out_bundles.get(cmd.shard as usize),
                ) {
                    (Some(&inbound), Some(&outbound)) => inbound > 0 && inbound == outbound,
                    _ => false,
                };
                member.shard != cmd.shard && !fed_by_member
            })
        };
        if !joins {
            if !members.is_empty() {
                round += 1;
            }
            members.clear();
        }
        members.push((w, c));
        workers[w].commands[c].round = round;
    }
    if members.is_empty() {
        0
    } else {
        round + 1
    }
}

const NS: f64 = 1e-9;

impl SocketTrace {
    fn commands(&self) -> impl Iterator<Item = &CommandSpan> {
        self.workers.iter().flat_map(|w| w.commands.iter())
    }

    /// Share of each worker thread's life covered by a span (handshake,
    /// waits, and the five timed steps of every command), smallest first.
    pub fn worker_coverage(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| {
                let covered: u64 = (w.handshaken - w.born)
                    + w.commands
                        .iter()
                        .map(|c| {
                            (c.arrived - c.read_start)
                                + (c.decoded - c.arrived)
                                + (c.handled - c.decoded)
                                + (c.encoded - c.handled)
                                + (c.written - c.encoded)
                                + (c.released - c.written)
                        })
                        .sum::<u64>()
                    + (w.stop_wait.2 - w.stop_wait.0);
                covered as f64 / (w.died - w.born).max(1) as f64
            })
            .fold(1.0, f64::min)
    }

    /// The per-layer metrics this run yields, by name.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let shards = self.workers.len() as f64;
        let secs = |ns: u64| ns as f64 * NS;

        let mut busy_ns = 0u64;
        for phase in Phase::ALL {
            let ns: u64 = self
                .commands()
                .filter(|c| c.phase == phase)
                .map(CommandSpan::handle_ns)
                .sum();
            busy_ns += ns;
            m.insert(phase.metric(), secs(ns));
        }
        m.insert("shard.busy_s", secs(busy_ns));

        // Per round: the slowest shard's handle time blocks the driver,
        // and so does the slowest shard's whole decode-to-written time.
        let mut slowest_handle = vec![0u64; self.rounds as usize];
        let mut slowest_worker = vec![0u64; self.rounds as usize];
        let mut round_phase = vec![Phase::Other; self.rounds as usize];
        for c in self.commands() {
            let r = c.round as usize;
            slowest_handle[r] = slowest_handle[r].max(c.handle_ns());
            slowest_worker[r] = slowest_worker[r].max(c.written - c.arrived);
            round_phase[r] = c.phase;
        }
        let crit_ns: u64 = slowest_handle.iter().sum();
        m.insert("shard.crit_path_s", secs(crit_ns));
        m.insert(
            "shard.imbalance",
            crit_ns as f64 / (busy_ns as f64 / shards).max(1.0),
        );
        m.insert(
            "shard.gossip_rounds",
            round_phase.iter().filter(|p| p.is_gossip()).count() as f64,
        );
        m.insert(
            "shard.news_rounds",
            round_phase.iter().filter(|p| p.is_news()).count() as f64,
        );

        let sum = |pick: &dyn Fn(&CommandSpan) -> u64, keep: &dyn Fn(&CommandSpan) -> bool| {
            self.commands().filter(|c| keep(c)).map(pick).sum::<u64>()
        };
        let all = |_: &CommandSpan| true;
        let gossip = |c: &CommandSpan| c.phase.is_gossip();
        let news = |c: &CommandSpan| c.phase.is_news();
        let gossip_msgs = sum(&|c| c.msgs, &gossip);
        let news_msgs = sum(&|c| c.msgs, &news);
        m.insert("shard.gossip_msgs", gossip_msgs as f64);
        m.insert("shard.news_msgs", news_msgs as f64);
        m.insert(
            "shard.ns_per_gossip_msg",
            sum(&CommandSpan::handle_ns, &gossip) as f64 / (gossip_msgs as f64).max(1.0),
        );
        m.insert(
            "shard.ns_per_news_msg",
            sum(&CommandSpan::handle_ns, &news) as f64 / (news_msgs as f64).max(1.0),
        );

        m.insert("exchange.roundtrips", f64::from(self.rounds));
        m.insert("exchange.cmd_bytes", sum(&|c| c.bytes_in, &all) as f64);
        m.insert("exchange.reply_bytes", sum(&|c| c.bytes_out, &all) as f64);
        m.insert(
            "exchange.decode_command_s",
            secs(sum(&|c| c.decoded - c.arrived, &all)),
        );
        m.insert(
            "exchange.encode_reply_s",
            secs(sum(&|c| c.encoded - c.handled, &all)),
        );
        m.insert(
            "exchange.write_frame_s",
            secs(sum(&|c| c.written - c.encoded, &all)),
        );
        m.insert(
            "exchange.release_s",
            secs(sum(&|c| c.released - c.written, &all)),
        );
        let idle_ns = sum(&|c| c.arrived - c.read_start, &all)
            + self
                .workers
                .iter()
                .map(|w| w.stop_wait.1 - w.stop_wait.0)
                .sum::<u64>();
        m.insert("exchange.idle_s", secs(idle_ns));
        m.insert(
            "exchange.handshake_s",
            secs(
                self.workers
                    .iter()
                    .map(|w| w.handshaken - w.born)
                    .max()
                    .unwrap_or(0),
            ),
        );

        m.insert(
            "mailbox.gossip_bundle_bytes",
            sum(&CommandSpan::bundle_bytes_out, &gossip) as f64,
        );
        m.insert(
            "mailbox.news_bundle_bytes",
            sum(&CommandSpan::bundle_bytes_out, &news) as f64,
        );
        let sent = gossip_msgs + news_msgs;
        let local = sum(&|c| c.local, &all);
        m.insert(
            "mailbox.cross_shard_share",
            sent.saturating_sub(local) as f64 / (sent as f64).max(1.0),
        );

        // What is left of the traced wall once the slowest worker of
        // every round is taken out: routing, outcome folding, the driver's
        // own codec work and the transport.
        let worker_side_s = secs(slowest_worker.iter().sum());
        let self_s = (self.wall_s - worker_side_s).max(0.0);
        m.insert("driver.self_s", self_s);
        m.insert(
            "driver.attributed_share",
            (self.wall_s - self_s) / self.wall_s,
        );
        m.insert("trace.traced_wall_s", self.wall_s);
        m.insert("trace.worker_coverage", self.worker_coverage());
        m
    }

    /// Writes one JSON line per span: a parent span per command, its five
    /// timed steps as children, and the wait before it as a sibling.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut id = 0u64;
        for w in &self.workers {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"handshake\", \"shard\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": null}}",
                w.shard, w.born, w.handshaken
            )?;
            id += 1;
            for c in &w.commands {
                let parent = id + 1;
                let common = format!(
                    "\"shard\": {}, \"cycle\": {}, \"round\": {}",
                    c.shard, c.cycle, c.round
                );
                writeln!(
                    out,
                    "{{\"id\": {id}, \"name\": \"idle.read_frame\", {common}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": null}}",
                    c.read_start, c.arrived
                )?;
                writeln!(
                    out,
                    "{{\"id\": {parent}, \"name\": \"command.{}\", {common}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": null, \"bytes_in\": {}, \"bytes_out\": {}, \"msgs\": {}}}",
                    c.name, c.arrived, c.released, c.bytes_in, c.bytes_out, c.msgs
                )?;
                let steps = [
                    ("exchange.decode_command", c.arrived, c.decoded),
                    (
                        c.phase.metric().trim_end_matches("_s"),
                        c.decoded,
                        c.handled,
                    ),
                    ("exchange.encode_reply", c.handled, c.encoded),
                    ("exchange.write_frame", c.encoded, c.written),
                    ("exchange.release", c.written, c.released),
                ];
                for (k, (name, start, end)) in steps.into_iter().enumerate() {
                    writeln!(
                        out,
                        "{{\"id\": {}, \"name\": \"{name}\", {common}, \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": {parent}}}",
                        parent + 1 + k as u64
                    )?;
                }
                id += 7;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(
        name: &'static str,
        shard: u32,
        at: u64,
        item: Option<u64>,
        in_bundles: &[u32],
        out_bundles: &[u32],
    ) -> CommandSpan {
        CommandSpan {
            name,
            phase: Phase::Other,
            shard,
            cycle: 0,
            item,
            round: u32::MAX,
            read_start: at,
            arrived: at,
            decoded: at,
            handled: at + 1,
            encoded: at + 1,
            written: at + 1,
            released: at + 1,
            bytes_in: 0,
            bytes_out: 0,
            msgs: 0,
            local: 0,
            in_bundles: in_bundles.to_vec(),
            out_bundles: out_bundles.to_vec(),
        }
    }

    fn worker(shard: u32, commands: Vec<CommandSpan>) -> WorkerTrace {
        WorkerTrace {
            shard,
            born: 0,
            handshaken: 0,
            died: 1000,
            commands,
            stop_wait: (0, 0, 0),
        }
    }

    #[test]
    fn rounds_follow_kind_shard_and_bundle_data_flow() {
        let news = Some(7);
        let mut workers = vec![
            worker(
                0,
                vec![
                    command("Collect", 0, 10, None, &[], &[0, 3]),
                    // Two gossip deliveries of one cycle: same kind, same
                    // shard, so two rounds.
                    command("DeliverGossip", 0, 20, None, &[0, 4], &[0, 5]),
                    command("DeliverGossip", 0, 30, None, &[0, 6], &[0, 0]),
                    // A sparse BFS tail: shard 0 alone, emitting 9 bytes
                    // for shard 1 …
                    command("DeliverNews", 0, 40, news, &[0, 0], &[0, 9]),
                    command("DeliverNews", 0, 60, news, &[0, 2], &[0, 0]),
                ],
            ),
            worker(
                1,
                vec![
                    command("Collect", 1, 12, None, &[], &[4, 0]),
                    command("DeliverGossip", 1, 22, None, &[3, 0], &[6, 0]),
                    command("DeliverGossip", 1, 32, None, &[5, 0], &[0, 0]),
                    // … which shard 1 alone receives in the next round.
                    command("DeliverNews", 1, 50, news, &[9, 0], &[2, 0]),
                    // Same item, both shards, no bundle handed over: one
                    // round.
                    command("DeliverNews", 1, 61, news, &[0, 0], &[0, 0]),
                ],
            ),
        ];
        assert_eq!(assign_rounds(&mut workers), 6);
        let rounds = |w: &WorkerTrace| w.commands.iter().map(|c| c.round).collect::<Vec<_>>();
        assert_eq!(rounds(&workers[0]), [0, 1, 2, 3, 5]);
        assert_eq!(rounds(&workers[1]), [0, 1, 2, 4, 5]);
    }
}
