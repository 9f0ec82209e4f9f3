//! The [`Runner`]: the one entry point for every run.
//!
//! A run is described one way. [`SimConfig`] says how long the run is and
//! how it executes (cycles, seed, node overrides, shard count); the
//! [`Scenario`] says what happens in it (publication workload, message
//! loss and churn, timeline events, measurement windows); the
//! [`Transport`] says where the shards execute (in-process threads,
//! `sim-shard-worker` child processes, or remote socket workers). The
//! runner alone decides how many shards a run executes on: one per socket
//! worker, otherwise `config.shards` clamped to the population. Any
//! protocol, node-based or global baseline, runs as one builder chain:
//!
//! ```no_run
//! use whatsup_sim::{Runner, Protocol, SimConfig};
//! use whatsup_sim::scenario::{Scenario, Workload};
//! # let dataset = whatsup_datasets::survey::generate(
//! #     &whatsup_datasets::SurveyConfig::paper().scaled(0.1), 42);
//!
//! let report = Runner::new(&dataset, Protocol::WhatsUp { f_like: 10 })
//!     .config(SimConfig { cycles: 65, shards: 4, ..Default::default() })
//!     .scenario(Scenario::default().with_workload(
//!         Workload::FlashCrowd { at: 30, fraction: 0.25 }))
//!     .run();
//! ```
//!
//! The `whatsup-sim` CLI and the `paper` bench harness (every figure and
//! table of the evaluation) both route through here. Reports are a pure
//! function of `(dataset, protocol, config, scenario)` — bit-identical
//! across shard counts and transports (see the engine module docs for the
//! contract).
//!
//! The same chain ending in [`Runner::deploy`] instead of `run` executes
//! the run on a live swarm (paper §V-D) — the workspace's one wall-clock
//! entry point, and the only one whose result, a [`Deployment`], carries
//! wall-clock time and is not a pure function of its inputs.
//!
//! Many independent runs go through [`pool_map`], the one job pool of the
//! workspace: a scoped work queue as wide as the machine. Each run being
//! deterministic, the pool changes nothing but wall-clock time.
//! [`Runner::grid_sweep`] (the `whatsup-sim sweep` subcommand) and the
//! `paper` harness are its users. The sweep is also the one way to put
//! protocols side by side: its cells are protocols × shard counts ×
//! fanouts, each under the config projected onto its engine (`project`).
//!
//! A run is refused in one place, `check`, before anything executes: a
//! malformed config or scenario (`shards: 0` included), a knob its engine
//! never reads (a config field, a scenario model, a transport, a
//! supervision, a shard count other than 1 on an engine or a swarm
//! without shards), a socket run whose `config.shards` is neither 1 nor
//! its worker count, an event naming a node the run will not have, or
//! what the way to run cannot express. Every way to run asks it once —
//! every method below, each sweep cell, [`antientropy::run_with_detection`]
//! and [`crate::ScenarioFile`]'s reader, which has no population yet — and
//! no engine asks again. A sweep is a set of such runs: a knob or shard
//! axis that no cell's engine reads stays in every cell's config for
//! `check` to refuse, and a fanout axis that no cell's protocol has is
//! refused before the cells are laid out.

use crate::config::{Protocol, SimConfig, Transport};
use crate::engine::driver::run_external;
use crate::engine::exchange::Supervision;
use crate::engine::{Partition, Simulation};
use crate::engines::swarm::{self, Deployment, Fabric};
use crate::engines::{antientropy, cascade, centralized, pubsub};
use crate::record::SimReport;
use crate::scenario::Scenario;
use std::io;
use std::panic::resume_unwind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use whatsup_datasets::Dataset;

/// Maps `run` over `jobs` on one scoped thread per available core, each
/// pulling the next unclaimed job off a shared index; results come back in
/// input order.
///
/// # Panics
/// A panicking job propagates its panic once the other workers have
/// drained the queue.
pub fn pool_map<T: Sync, R: Send>(jobs: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let width = thread::available_parallelism().map_or(1, |n| n.get());
    // Relaxed: the counter only hands out distinct indices; the results
    // reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { return done };
            done.push((i, run(job)));
        }
    };
    let mut done: Vec<(usize, R)> = thread::scope(|s| {
        let workers: Vec<_> = (0..width.min(jobs.len()))
            .map(|_| s.spawn(worker))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// How a run is asked to execute: stepped ([`Runner::build`]), run to
/// completion (alone or as a [`Runner::grid_sweep`] cell), or deployed on
/// a swarm ticking every so many ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Way {
    Step,
    Run,
    Deploy(u64),
}

/// Refuses a run (see the module docs) in one line naming the knob and the
/// engine: `Unsupported` where the engine cannot express the request,
/// `InvalidInput` otherwise. Without a `dataset`, no population checks.
pub(crate) fn check(
    protocol: Protocol,
    cfg: &SimConfig,
    scenario: &Scenario,
    dataset: Option<&Dataset>,
    transport: &Transport,
    supervision: Option<&Supervision>,
    way: Way,
) -> io::Result<()> {
    use io::ErrorKind::{InvalidInput, Unsupported};
    let invalid = |e: String| io::Error::new(InvalidInput, e);
    let unsupported = |e: String| io::Error::new(Unsupported, e);
    cfg.validate().map_err(invalid)?;
    scenario.validate(cfg).map_err(invalid)?;
    cfg.validate_protocol(&protocol).map_err(invalid)?;
    let label = protocol.label();
    if let Way::Deploy(_) = way {
        scenario.validate_unscripted("swarm").map_err(unsupported)?;
    } else if protocol.is_global() {
        let engine = format!("global {label} engine");
        scenario.validate_unscripted(&engine).map_err(unsupported)?;
        let for_global = scenario.validate_for_global(&protocol);
        for_global.map_err(unsupported)?;
    }
    let nodeless = nodeless(protocol);
    // Where a run executes unless a node protocol runs on shard workers.
    let home = match way {
        Way::Deploy(_) => "a swarm".to_string(),
        _ if nodeless => format!("the {label} engine"),
        _ => "the in-process transport".into(),
    };
    let (carrier, workers) = match transport {
        Transport::InProcess => (None, None),
        Transport::Process(_) => (Some("process"), None),
        Transport::Socket(workers) => (Some("socket"), Some(workers.len())),
    };
    let shards = cfg.shards;
    Err(if let (Way::Deploy(_), true) = (way, nodeless) {
        unsupported(format!("{label} has no node to deploy"))
    } else if let (Way::Step, true) = (way, nodeless) {
        unsupported(format!("{label} does not run on the node engine"))
    } else if let (Way::Step, Some(t)) = (way, carrier) {
        unsupported(format!("a stepped run has no shard for the {t} transport"))
    } else if let (Some(t), true) = (carrier, way != Way::Run || nodeless) {
        unsupported(format!("{home} has no shard for the {t} transport"))
    } else if shards != 1 && (nodeless || matches!(way, Way::Deploy(_))) {
        unsupported(format!(
            "{home} has no shards: config.shards must be 1, not {shards}"
        ))
    } else if carrier.is_none() && supervision.is_some() {
        invalid(format!("{home} has no worker to supervise"))
    } else if supervision.is_some_and(|sup| sup.checkpoint_every == 0) {
        invalid("supervision checkpoints every ≥ 1 cycles".into())
    } else if workers == Some(0) {
        invalid("socket transport needs at least one worker address".into())
    } else if let Some(w) = workers.filter(|&w| shards != 1 && shards != w) {
        invalid(format!(
            "config.shards is {shards} for {w} socket workers — the socket transport runs \
             one shard per worker"
        ))
    } else if way == Way::Deploy(0) {
        invalid("a swarm cycle lasts at least 1 ms".into())
    } else if let Some(dataset) = dataset {
        let n = dataset.n_users();
        if n == 0 {
            invalid("dataset has no users".into())
        } else if let Some(w) = workers.filter(|&w| w > n) {
            invalid(format!(
                "{w} socket workers for {n} nodes — shards cannot outnumber nodes"
            ))
        } else if protocol == Protocol::Cascade && dataset.social.is_none() {
            unsupported("cascade requires a dataset with an explicit social graph".into())
        } else {
            return scenario.validate_events(n).map_err(invalid);
        }
    } else {
        return Ok(());
    })
}

/// Whether `protocol` runs on an engine with no node of the gossip stack:
/// one loop in this process, with no shards.
fn nodeless(protocol: Protocol) -> bool {
    protocol.is_global() || matches!(protocol, Protocol::AntiEntropy { .. })
}

/// The config `protocol`'s cell of a sweep over `protocols` runs under:
/// every field its engine never reads ([`SimConfig::unread_fields`]) that
/// another engine of the sweep reads back at its default, and on an engine
/// without shards the shard count at 1 where another engine has shards.
/// So a knob of one cell is never another cell's refusal, while a knob or
/// shard count that no engine of the sweep reads stays for [`check`] to
/// refuse — and a sweep of one protocol runs its cells unprojected. The one
/// place a config is projected onto another protocol.
pub(crate) fn project(protocol: Protocol, cfg: &SimConfig, protocols: &[Protocol]) -> SimConfig {
    let (mut projected, default) = (cfg.clone(), SimConfig::default());
    let read_by_another =
        |field| (protocols.iter()).any(|p| SimConfig::unread_fields(p).all(|(f, _)| f != field));
    for (field, copy) in SimConfig::unread_fields(&protocol) {
        if read_by_another(field) {
            copy(&mut projected, &default);
        }
    }
    if nodeless(protocol) && !protocols.iter().all(|&p| nodeless(p)) {
        projected.shards = 1;
    }
    projected
}

/// One cell of [`Runner::grid_sweep`]; `report.protocol` and
/// `report.fanout` name its protocol and column.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Engine shard count the cell ran on, as the runner resolved it (a
    /// pure execution knob — cells that differ only in `shards` carry
    /// identical reports; 1 on an engine without shards).
    pub shards: usize,
    pub report: SimReport,
}

/// Builder for one simulation run. See the module docs for the grammar.
#[derive(Debug, Clone)]
pub struct Runner<'a> {
    dataset: &'a Dataset,
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    transport: Transport,
    supervision: Option<Supervision>,
}

impl<'a> Runner<'a> {
    /// A runner with the default config and [`Scenario::default`]:
    /// uniform publications, no loss, no churn, no events.
    pub fn new(dataset: &'a Dataset, protocol: Protocol) -> Self {
        Self {
            dataset,
            protocol,
            cfg: SimConfig::default(),
            scenario: Scenario::default(),
            transport: Transport::InProcess,
            supervision: None,
        }
    }

    /// Replaces the run configuration: length, seed, node overrides and
    /// shard count ([`SimConfig::shards`], a pure execution knob of the
    /// node engine).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the scenario: workload, environment (message loss and
    /// churn), timeline events and measurement windows.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Selects how the shard workers execute: node-based protocols run to
    /// completion only, as the other engines have no shards.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Shorthand for [`Runner::transport`] with [`Transport::Process`]:
    /// runs the shards as `sim-shard-worker` child processes found at
    /// `worker` (stdio-pipe transport) instead of in-process threads.
    pub fn multiprocess(self, worker: impl Into<PathBuf>) -> Self {
        self.transport(Transport::Process(worker.into()))
    }

    /// Shorthand for [`Runner::transport`] with [`Transport::Socket`]:
    /// runs the shards on already-listening `sim-shard-worker --listen`
    /// processes, one `host:port` address per shard (the shard count is
    /// the worker count, and a `config.shards` other than 1 or the worker
    /// count is refused; workers must be started before the run).
    pub fn socket<I, S>(self, workers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.transport(Transport::Socket(
            workers.into_iter().map(Into::into).collect(),
        ))
    }

    /// Supervises the external transports: crashed or hung shard workers
    /// are restarted (respawned children / redialed addresses) and
    /// recovered by checkpoint/replay, up to `max_restarts` restarts per
    /// shard, with a checkpoint every `checkpoint_every` (≥ 1) cycles
    /// ([`Supervision::new`] sets those two and defaults the hang
    /// deadline, restart backoff and dial window). Determinism makes
    /// recovery exact — a supervised run that survives faults reports
    /// bit-identically to an undisturbed one. Refused where there is no
    /// worker to restart.
    pub fn supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
        self
    }

    /// The shard count the run executes on, decided here alone: one shard
    /// per socket worker, otherwise `config.shards` clamped to the
    /// population.
    fn shards(&self) -> usize {
        match &self.transport {
            Transport::Socket(workers) => workers.len(),
            _ => self.cfg.shards.min(self.dataset.n_users()),
        }
    }

    /// The per-shard node counts an admitted run ends with: the load-aware
    /// initial split over [`Runner`]'s shard count, plus every scheduled
    /// join on the last shard. Run-summary instrumentation for the CLI —
    /// the engine builds the same partition, and the counts never appear
    /// in [`SimReport`] (which stays byte-identical across shard counts).
    ///
    /// # Panics
    /// On a runner the check refuses for having no shard or no node.
    pub fn planned_shard_node_counts(&self) -> Vec<usize> {
        let joins = self.scenario.expected_joins();
        let partition = Partition::plan(self.dataset.n_users(), self.shards(), joins);
        let mut counts: Vec<usize> = (0..partition.n_shards())
            .map(|s| partition.range(s).len())
            .collect();
        *counts.last_mut().expect("at least one shard") += joins;
        counts
    }

    /// [`check`] on this runner.
    pub(crate) fn check(&self, way: Way) -> io::Result<()> {
        check(
            self.protocol,
            &self.cfg,
            &self.scenario,
            Some(self.dataset),
            &self.transport,
            self.supervision.as_ref(),
            way,
        )
    }

    /// Builds a steppable in-process [`Simulation`] (node-based protocols
    /// only). Scenario events fire automatically as the cycles advance.
    ///
    /// # Panics
    /// Panics with the one line of a refused run, a global or anti-entropy
    /// protocol and an external transport included.
    pub fn build(self) -> Simulation {
        self.check(Way::Step).unwrap_or_else(|e| panic!("{e}"));
        let shards = self.shards();
        Simulation::with_scenario(self.dataset, self.protocol, self.cfg, self.scenario, shards)
    }

    /// Runs to completion and reports.
    ///
    /// `Err` for a refused run (see the module docs) and for external-transport
    /// failures: a worker that cannot be spawned, dialed or handshaken, or
    /// that dies mid-run — the error names the failing endpoint.
    pub fn try_run(self) -> io::Result<SimReport> {
        self.check(Way::Run)?;
        self.execute()
    }

    /// Runs a checked runner to completion on its protocol's engine.
    fn execute(self) -> io::Result<SimReport> {
        let shards = self.shards();
        let (d, cfg, scenario) = (self.dataset, &self.cfg, &self.scenario);
        Ok(match self.protocol {
            Protocol::Cascade => cascade::run_scenario(d, cfg, scenario),
            Protocol::CPubSub => pubsub::run_scenario(d, cfg, scenario),
            Protocol::CWhatsUp { f_like } => centralized::run_scenario(d, f_like, cfg, scenario),
            Protocol::AntiEntropy { fanout } => {
                antientropy::run_scenario(d, cfg, scenario, fanout).0
            }
            node_protocol => match self.transport {
                Transport::InProcess => {
                    Simulation::with_scenario(d, node_protocol, self.cfg, self.scenario, shards)
                        .run()
                }
                external => {
                    return run_external(
                        d,
                        node_protocol,
                        self.cfg,
                        self.scenario,
                        shards,
                        &external,
                        self.supervision,
                    )
                }
            },
        })
    }

    /// Runs to completion and reports.
    ///
    /// # Panics
    /// Panics with [`Runner::try_run`]'s `Err` as its one line.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Deploys the run instead of simulating it — the one wall-clock entry
    /// point: live peers, a thread each, exchanging wire frames over
    /// `fabric` and ticking every `cycle_ms` ([`crate::engines::swarm`]).
    /// The report comes from the plan, environment draws and ledger
    /// [`Runner::run`] uses; beside it, the traffic and wall-clock time a
    /// simulation has no use for.
    ///
    /// `Err` for a refused run (a swarm has no global or
    /// anti-entropy node, timeline events, mass joins, transport,
    /// supervision or shard count other than 1) and for a fabric that
    /// cannot be set up or fails mid-run: a swarm runs one peer per node.
    pub fn deploy(self, fabric: Fabric, cycle_ms: u64) -> io::Result<Deployment> {
        self.check(Way::Deploy(cycle_ms))?;
        swarm::deploy(
            self.dataset,
            self.protocol,
            &self.cfg,
            &self.scenario,
            fabric,
            cycle_ms,
        )
    }

    /// Runs this runner across a protocols × shard counts × fanouts grid on
    /// the job pool — the `whatsup-sim sweep` subcommand's engine — in grid
    /// order, protocol outermost. An empty axis keeps the runner's own
    /// protocol, shard count or knob. Each cell runs under the config
    /// projected onto its engine ([`project`]); a protocol whose engine
    /// does not read an axis (shards, a fanout knob) gets one cell for it.
    ///
    /// `Err` if any cell is refused, before the first runs, or fails: an
    /// axis or config knob that no cell's engine reads is refused in one
    /// line naming it.
    pub fn grid_sweep(
        &self,
        protocols: &[Protocol],
        shard_counts: &[usize],
        fanouts: &[usize],
    ) -> io::Result<Vec<SweepCell>> {
        let protocols = match protocols {
            [] => std::slice::from_ref(&self.protocol),
            protocols => protocols,
        };
        if !fanouts.is_empty() && protocols.iter().all(|p| p.fanout().is_none()) {
            let label = protocols[0].label();
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{label} has no fanout knob for the sweep's fanout axis"),
            ));
        }
        let shard_counts = match shard_counts {
            [] => std::slice::from_ref(&self.cfg.shards),
            shard_counts => shard_counts,
        };
        // `with_fanout` leaves a protocol without a fanout knob as it is,
        // and `project` pins a shard count nothing reads: such copies are
        // equal, and collapse into one cell.
        let mut cells: Vec<Runner> = Vec::new();
        for &protocol in protocols {
            for &shards in shard_counts {
                let cfg = SimConfig {
                    shards,
                    ..self.cfg.clone()
                };
                let cfg = project(protocol, &cfg, protocols);
                let fanned = fanouts.iter().map(|&f| protocol.with_fanout(f));
                for protocol in fanned.chain(fanouts.is_empty().then_some(protocol)) {
                    if !(cells.iter()).any(|c| c.protocol == protocol && c.cfg == cfg) {
                        let cfg = cfg.clone();
                        cells.push(Runner {
                            protocol,
                            cfg,
                            ..self.clone()
                        });
                    }
                }
            }
        }
        for cell in &cells {
            cell.check(Way::Run)?;
        }
        pool_map(&cells, |cell| {
            let shards = cell.shards();
            let report = cell.clone().execute()?;
            Ok(SweepCell { shards, report })
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        Anchor, ChurnModel, Environment, Event, LossModel, Measurement, TimedEvent, WindowSpec,
        Workload,
    };
    use whatsup_datasets::{digg, survey, DiggConfig, SurveyConfig};

    fn dataset() -> Dataset {
        survey::generate(&SurveyConfig::paper().scaled(0.1), 21)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            cycles: 16,
            publish_from: 2,
            measure_from: 6,
            ..Default::default()
        }
    }

    #[test]
    fn pool_map_equals_the_sequential_map_in_input_order() {
        let width = thread::available_parallelism().map_or(1, |n| n.get());
        for n in [0, 1, 4 * width + 3] {
            let jobs: Vec<usize> = (0..n).collect();
            let sequential: Vec<usize> = jobs.iter().map(|j| j * j + 1).collect();
            assert_eq!(pool_map(&jobs, |j| j * j + 1), sequential, "{n} jobs");
        }
    }

    #[test]
    fn pool_map_propagates_a_job_panic() {
        let jobs: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            pool_map(&jobs, |&j| {
                assert_ne!(j, 5, "job five fails");
                j
            })
        });
        let panic = caught.expect_err("the panic must reach the caller");
        let message = panic.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("job five fails"), "{message}");
    }

    #[test]
    fn grid_sweep_covers_every_cell_and_shards_stay_invisible() {
        let d = dataset();
        let whatsup = Protocol::WhatsUp { f_like: 0 };
        let anti = Protocol::AntiEntropy { fanout: 1 };
        let protocols = [whatsup, anti, Protocol::CPubSub];
        let base = Runner::new(&d, whatsup).config(cfg());
        let cells = base.grid_sweep(&protocols, &[1, 2], &[3, 5]);
        let cells = cells.expect("admitted");
        let grid: Vec<_> = (cells.iter())
            .map(|c| (c.report.protocol.as_str(), c.shards, c.report.fanout))
            .collect();
        // Anti-entropy reads no shard count and C-Pub/Sub no fanout: one
        // cell each for that axis, not one per value.
        assert_eq!(
            grid,
            [
                ("WhatsUp", 1, Some(3)),
                ("WhatsUp", 1, Some(5)),
                ("WhatsUp", 2, Some(3)),
                ("WhatsUp", 2, Some(5)),
                ("Anti-Entropy", 1, Some(3)),
                ("Anti-Entropy", 1, Some(5)),
                ("C-Pub/Sub", 1, None),
            ]
        );
        // Same fanout, different shard count → bit-identical report.
        assert_eq!(cells[0].report, cells[2].report);
        assert_eq!(cells[1].report, cells[3].report);
        assert_ne!(cells[0].report.scores(), cells[1].report.scores());
        // A pooled cell is the plain run of the same protocol, under the
        // config projected onto its engine.
        let alone = Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(cfg())
            .run();
        assert_eq!(cells[1].report, alone);
        for (cell, fanout) in cells[4..6].iter().zip([3, 5]) {
            let anti = Protocol::AntiEntropy { fanout };
            let sharded = SimConfig { shards: 2, ..cfg() };
            let projected = project(anti, &sharded, &protocols);
            let alone = Runner::new(&d, anti).config(projected).run();
            assert_eq!(cell.report, alone);
        }
        // Empty axes keep the runner's own protocol and knob.
        let own = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .grid_sweep(&[], &[1], &[])
            .expect("admitted");
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].report.fanout, Some(4));
    }

    /// Each cell runs under the config projected onto the knobs its
    /// engine reads: a node knob and a shard count that anti-entropy would
    /// refuse are left to the node cell, whose report is a plain run's,
    /// and the anti-entropy report is a plain run of the config without
    /// them.
    #[test]
    fn grid_sweep_projects_the_config_onto_each_engine() {
        let d = dataset();
        let knobbed = SimConfig {
            bootstrap_degree: 4,
            obfuscation: Some(0.1),
            shards: 2,
            ..cfg()
        };
        let anti = Protocol::AntiEntropy { fanout: 3 };
        let refused = Runner::new(&d, anti).config(knobbed.clone()).try_run();
        assert!(refused.is_err(), "anti-entropy reads no node knob");
        let whatsup = Protocol::WhatsUp { f_like: 3 };
        let runner = Runner::new(&d, whatsup).config(knobbed);
        let cells = runner.grid_sweep(&[whatsup, anti], &[], &[]);
        let [node, other] = &cells.expect("both cells run")[..] else {
            panic!("one cell per protocol")
        };
        assert_eq!(format!("{:?}", node.report), format!("{:?}", runner.run()));
        let plain = Runner::new(&d, anti).config(cfg()).run();
        assert_eq!(format!("{:?}", other.report), format!("{plain:?}"));
        // The other way round, anti-entropy's own knobs stay behind.
        let budget = SimConfig {
            datagram_budget: 512,
            ..cfg()
        };
        let gossip = Protocol::Gossip { fanout: 3 };
        let cells = (Runner::new(&d, anti).config(budget))
            .grid_sweep(&[anti, gossip], &[], &[])
            .expect("both cells run");
        let plain = Runner::new(&d, gossip).config(cfg()).run();
        assert_eq!(format!("{:?}", cells[1].report), format!("{plain:?}"));
    }

    #[test]
    fn runner_dispatches_every_engine() {
        let d = digg::generate(&DiggConfig::paper().scaled(0.06), 3);
        for p in [
            Protocol::WhatsUp { f_like: 3 },
            Protocol::Cascade,
            Protocol::CPubSub,
            Protocol::CWhatsUp { f_like: 3 },
            Protocol::AntiEntropy { fanout: 3 },
        ] {
            let r = Runner::new(&d, p).config(cfg()).run();
            assert_eq!(r.protocol, p.label());
            assert!(r.measured_items() > 0, "{} produced no items", p.label());
        }
    }

    /// The ways to run a refusal table row goes through: a `Sweep` over
    /// protocols (none: the runner's own), shard counts and fanouts.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Build,
        TryRun,
        Sweep(&'static [Protocol], &'static [usize], &'static [usize]),
        Deploy,
    }

    /// The runner's own protocol over two shard counts.
    const SHARD_SWEEP: Entry = Entry::Sweep(&[], &[1, 2], &[]);

    /// Runs `runner` the `entry` way and returns its refusal: the `Err`'s
    /// kind and line, or `build`'s panic line (no kind).
    fn refusal(runner: Runner, entry: Entry) -> (Option<io::ErrorKind>, String) {
        let err = match entry {
            Entry::Build => {
                let run = std::panic::AssertUnwindSafe(|| drop(runner.build()));
                let panic = std::panic::catch_unwind(run).expect_err("build refuses");
                let line = panic.downcast_ref::<String>().expect("a formatted line");
                return (None, line.clone());
            }
            Entry::TryRun => runner.try_run().map(drop),
            Entry::Sweep(protocols, shards, fanouts) => {
                runner.grid_sweep(protocols, shards, fanouts).map(drop)
            }
            Entry::Deploy => runner.deploy(Fabric::Emulated, 1).map(drop),
        };
        let err = err.expect_err("the run is refused");
        (Some(err.kind()), err.to_string())
    }

    #[test]
    fn every_way_to_run_refuses_alike() {
        use io::ErrorKind::{InvalidInput, Unsupported};
        use Entry::{Build, Deploy, Sweep, TryRun};
        let d = dataset();
        let runner = |protocol| Runner::new(&d, protocol).config(cfg());
        let whatsup = Protocol::WhatsUp { f_like: 3 };
        let with_loss = |loss| {
            Scenario::default().with_environment(Environment {
                loss,
                churn: ChurnModel::None,
            })
        };
        let joining = |reference| {
            Scenario::default().with_events(vec![TimedEvent {
                at: 5,
                event: Event::JoinClone { reference },
            }])
        };
        let every_way: &[Entry] = &[Build, TryRun, SHARD_SWEEP, Deploy];
        let to_completion: &[Entry] = &[TryRun, SHARD_SWEEP];
        let simulated: &[Entry] = &[Build, TryRun, SHARD_SWEEP];
        const ANTI: Protocol = Protocol::AntiEntropy { fanout: 3 };
        const C_WHATSUP: Protocol = Protocol::CWhatsUp { f_like: 3 };
        let sharded = |shards| SimConfig { shards, ..cfg() };
        // (row, runner, kind, what the line names, the ways that refuse it
        // with this line)
        let rows = [
            (
                "bad config shape",
                runner(whatsup).config(SimConfig {
                    publish_from: 16,
                    ..cfg()
                }),
                InvalidInput,
                "publish_from",
                every_way,
            ),
            (
                "bad scenario model",
                runner(whatsup).scenario(with_loss(LossModel::Constant { p: 1.5 })),
                InvalidInput,
                "loss must be a probability",
                every_way,
            ),
            (
                "a config knob the engine never reads",
                runner(Protocol::CWhatsUp { f_like: 3 }).config(SimConfig {
                    profile_window: Some(5),
                    ..cfg()
                }),
                InvalidInput,
                "C-WhatsUp never reads config.profile_window",
                every_way,
            ),
            (
                "a scenario knob a global engine never reads",
                runner(Protocol::CPubSub).scenario(with_loss(LossModel::Constant { p: 0.2 })),
                Unsupported,
                "global C-Pub/Sub engine never loses a message: loss.p",
                to_completion,
            ),
            (
                "an event id out of range",
                runner(whatsup).scenario(joining(10_000)),
                InvalidInput,
                "join reference 10000 is out of range",
                simulated,
            ),
            (
                "an external transport on a global engine",
                runner(Protocol::Cascade).multiprocess("sim-shard-worker"),
                Unsupported,
                "the Cascade engine has no shard for the process transport",
                to_completion,
            ),
            (
                "an external transport on anti-entropy",
                runner(Protocol::AntiEntropy { fanout: 3 }).socket(["127.0.0.1:1"]),
                Unsupported,
                "the Anti-Entropy engine has no shard for the socket transport",
                to_completion,
            ),
            (
                "a supervision without workers",
                runner(whatsup).supervision(Supervision::new(3, 2)),
                InvalidInput,
                "the in-process transport has no worker to supervise",
                simulated,
            ),
            (
                "a supervision on a global engine",
                runner(Protocol::CPubSub).supervision(Supervision::new(3, 2)),
                InvalidInput,
                "the C-Pub/Sub engine has no worker to supervise",
                to_completion,
            ),
            (
                "a scripted scenario on a global engine",
                runner(Protocol::CWhatsUp { f_like: 3 }).scenario(joining(0)),
                Unsupported,
                "cannot fire on the global C-WhatsUp engine",
                to_completion,
            ),
            (
                "a scripted scenario on a swarm",
                runner(whatsup).scenario(joining(0)),
                Unsupported,
                "cannot fire on the swarm",
                &[Deploy],
            ),
            (
                "a transport on a swarm",
                runner(whatsup).multiprocess("sim-shard-worker"),
                Unsupported,
                "a swarm has no shard for the process transport",
                &[Deploy],
            ),
            (
                "a supervision on a swarm",
                runner(whatsup).supervision(Supervision::new(3, 2)),
                InvalidInput,
                "a swarm has no worker to supervise",
                &[Deploy],
            ),
            (
                "a socket run whose shards are neither 1 nor its workers",
                runner(whatsup).config(sharded(2)).socket([
                    "127.0.0.1:1",
                    "127.0.0.1:2",
                    "127.0.0.1:3",
                ]),
                InvalidInput,
                "config.shards is 2 for 3 socket workers",
                to_completion,
            ),
            (
                "no shard at all",
                runner(whatsup).config(sharded(0)),
                InvalidInput,
                "shards must be ≥ 1",
                // A sweep sets each cell's shard count itself.
                &[Build, TryRun, Deploy],
            ),
            (
                "shards on cascade",
                runner(Protocol::Cascade).config(sharded(2)),
                Unsupported,
                "the Cascade engine has no shards: config.shards must be 1, not 2",
                // The sweep's 1-shard cell is refused first: this survey
                // dataset has no social graph.
                &[TryRun],
            ),
            (
                "shards on C-Pub/Sub",
                runner(Protocol::CPubSub).config(sharded(2)),
                Unsupported,
                "the C-Pub/Sub engine has no shards: config.shards must be 1, not 2",
                to_completion,
            ),
            (
                "shards on C-WhatsUp",
                runner(Protocol::CWhatsUp { f_like: 3 }).config(sharded(2)),
                Unsupported,
                "the C-WhatsUp engine has no shards: config.shards must be 1, not 2",
                to_completion,
            ),
            (
                "shards on anti-entropy",
                runner(Protocol::AntiEntropy { fanout: 3 }).config(sharded(2)),
                Unsupported,
                "the Anti-Entropy engine has no shards: config.shards must be 1, not 2",
                to_completion,
            ),
            (
                "shards on a swarm",
                runner(whatsup).config(sharded(2)),
                Unsupported,
                "a swarm has no shards: config.shards must be 1, not 2",
                &[Deploy],
            ),
            (
                "a fanout axis on a protocol without a fanout knob",
                runner(Protocol::CPubSub),
                InvalidInput,
                "C-Pub/Sub has no fanout knob for the sweep's fanout axis",
                &[Sweep(&[], &[1], &[3, 5])],
            ),
            (
                "a config knob that no cell reads",
                runner(C_WHATSUP).config(SimConfig {
                    profile_window: Some(5),
                    ..cfg()
                }),
                InvalidInput,
                "C-WhatsUp never reads config.profile_window",
                &[Sweep(&[C_WHATSUP, ANTI], &[1], &[])],
            ),
            (
                "a fanout axis that no cell's protocol has",
                runner(Protocol::CPubSub),
                InvalidInput,
                "C-Pub/Sub has no fanout knob for the sweep's fanout axis",
                &[Sweep(
                    &[Protocol::CPubSub, Protocol::Cascade],
                    &[1],
                    &[3, 5],
                )],
            ),
            (
                "a shard axis when every protocol is nodeless",
                runner(ANTI),
                Unsupported,
                "the Anti-Entropy engine has no shards: config.shards must be 1, not 2",
                &[Sweep(&[ANTI, Protocol::CPubSub], &[1, 2], &[])],
            ),
        ];
        for (row, runner, kind, names, entries) in rows {
            let lines: Vec<String> = entries
                .iter()
                .map(|&entry| {
                    let (got, line) = refusal(runner.clone(), entry);
                    assert!(
                        got.is_none_or(|got| got == kind),
                        "{row}, {entry:?}: {got:?}"
                    );
                    line
                })
                .collect();
            let line = &lines[0];
            assert!(line.contains(names), "{row}: {line}");
            assert_eq!(line.lines().count(), 1, "{row}: {line}");
            for (entry, other) in entries.iter().zip(&lines) {
                assert_eq!(other, line, "{row}: {entry:?} refuses otherwise");
            }
        }
    }

    /// The config rows of the knob matrix: every [`SimConfig`] field, set
    /// to a strong non-default value, against one engine of each kind,
    /// under as much of a constant-loss, uniform-churn environment as the
    /// engine honours. A cell is refused in one line naming the field, or
    /// it runs and moves the report (semantic), or it leaves the report
    /// bit-identical (execution) — which only `shards` on the node engine
    /// may. A field an engine reads whose report does not move is a
    /// silent knob, and fails the test: it must be refused instead.
    #[test]
    fn every_config_knob_is_refused_or_moves_the_report() {
        use serde::Json;
        #[derive(Debug, PartialEq)]
        enum Outcome {
            Refused,
            Semantic,
            Execution,
        }
        let d = digg::generate(&DiggConfig::paper().scaled(0.06), 3);
        let set = |edit: fn(&mut SimConfig)| {
            let mut cfg = cfg();
            edit(&mut cfg);
            cfg
        };
        let knobs = [
            ("cycles", set(|c| c.cycles = 20)),
            ("publish_from", set(|c| c.publish_from = 5)),
            ("measure_from", set(|c| c.measure_from = 9)),
            ("seed", set(|c| c.seed = 99)),
            ("bootstrap_degree", set(|c| c.bootstrap_degree = 2)),
            ("profile_window", set(|c| c.profile_window = Some(2))),
            ("ttl_override", set(|c| c.ttl_override = Some(1))),
            ("wup_view_override", set(|c| c.wup_view_override = Some(30))),
            ("obfuscation", set(|c| c.obfuscation = Some(0.9))),
            ("shards", set(|c| c.shards = 3)),
            ("datagram_budget", set(|c| c.datagram_budget = 64)),
            ("phi_threshold", set(|c| c.phi_threshold = 0.2)),
            ("down_cycles", set(|c| c.down_cycles = 1)),
        ];
        let fields: Vec<&str> = knobs.iter().map(|&(field, _)| field).collect();
        assert_eq!(
            fields,
            SimConfig::FIELDS,
            "one strong value per config field"
        );
        let whatsup = Protocol::WhatsUp { f_like: 3 };
        let engines = [
            whatsup,
            Protocol::Cascade,
            Protocol::CPubSub,
            Protocol::CWhatsUp { f_like: 3 },
            Protocol::AntiEntropy { fanout: 3 },
        ];
        let environment = |p: Protocol| {
            let (loss, churn) = (
                LossModel::Constant { p: 0.1 },
                ChurnModel::Uniform { per_cycle: 0.05 },
            );
            let (loss, churn) = match p {
                Protocol::Cascade => (loss, ChurnModel::None),
                p if p.is_global() => (LossModel::Constant { p: 0.0 }, ChurnModel::None),
                _ => (loss, churn),
            };
            Scenario::default().with_environment(Environment { loss, churn })
        };
        let expected = |field: &str, p: Protocol| {
            let reads = match field {
                "cycles" | "publish_from" | "measure_from" => true,
                "seed" => p != Protocol::CPubSub,
                "datagram_budget" | "phi_threshold" | "down_cycles" => {
                    matches!(p, Protocol::AntiEntropy { .. })
                }
                _ => p == whatsup,
            };
            match (reads, field) {
                (false, _) => Outcome::Refused,
                (true, "shards") => Outcome::Execution,
                (true, _) => Outcome::Semantic,
            }
        };
        let run = |p: Protocol, cfg: &SimConfig| {
            let runner = Runner::new(&d, p).config(cfg.clone());
            let report = runner.scenario(environment(p)).try_run();
            report.map(|report| format!("{report:?}"))
        };
        let mut wrong = Vec::new();
        for p in engines {
            let base = run(p, &cfg()).expect("the default config runs");
            for (field, cfg) in &knobs {
                let outcome = match run(p, cfg) {
                    Err(e) => {
                        let line = e.to_string();
                        if !line.contains(field) || line.lines().count() != 1 {
                            wrong.push(format!("{field} on {}: refused as {line}", p.label()));
                        }
                        Outcome::Refused
                    }
                    Ok(report) if report == base => Outcome::Execution,
                    Ok(_) => Outcome::Semantic,
                };
                let want = expected(field, p);
                if outcome != want {
                    let label = p.label();
                    wrong.push(format!("{field} on {label}: {outcome:?}, not {want:?}"));
                }
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn global_protocols_honor_the_workload_schedule() {
        let d = digg::generate(&DiggConfig::paper().scaled(0.06), 3);
        let burst = Runner::new(&d, Protocol::CPubSub)
            .config(cfg())
            .scenario(Scenario::default().with_workload(Workload::FlashCrowd {
                at: 7,
                fraction: 1.0,
            }))
            .run();
        // fraction 1.0: every item publishes in the burst cycle.
        assert!(burst.items.iter().all(|r| r.published_at == 7));
    }

    #[test]
    fn cascade_honours_an_explicit_scenario_loss() {
        // Regression: cascade used to read `cfg.loss` while the runner
        // handed it no environment, so an explicit scenario's constant
        // loss was validated and then silently ignored.
        let d = digg::generate(&DiggConfig::paper().scaled(0.15), 9);
        let lossy = Environment {
            loss: LossModel::Constant { p: 0.6 },
            churn: ChurnModel::None,
        };
        let via_scenario = Runner::new(&d, Protocol::Cascade)
            .config(cfg())
            .scenario(Scenario::default().with_environment(lossy))
            .run();
        let lossless = Runner::new(&d, Protocol::Cascade).config(cfg()).run();
        assert_ne!(via_scenario, lossless);
        let reached = |r: &SimReport| r.items.iter().map(|i| i.reached).sum::<u32>();
        assert!(reached(&via_scenario) < reached(&lossless));
    }

    #[test]
    fn shards_knob_is_invisible_in_the_report() {
        let d = dataset();
        let one = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .run();
        let four = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(SimConfig { shards: 4, ..cfg() })
            .run();
        assert_eq!(one, four);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let d = dataset();
        let scenario = Scenario {
            workload: Workload::FlashCrowd {
                at: 6,
                fraction: 0.3,
            },
            environment: Environment {
                loss: LossModel::GilbertElliott {
                    p_good: 0.01,
                    p_bad: 0.4,
                    good_to_bad: 0.2,
                    bad_to_good: 0.5,
                },
                churn: ChurnModel::CrashWave {
                    at: 8,
                    fraction: 0.1,
                },
            },
            events: vec![
                TimedEvent {
                    at: 5,
                    event: Event::JoinClone { reference: 0 },
                },
                TimedEvent {
                    at: 7,
                    event: Event::SwapInterests { a: 1, b: 2 },
                },
                TimedEvent {
                    at: 9,
                    event: Event::ResetNode { node: 3 },
                },
            ],
            measurements: vec![
                Measurement {
                    name: "warmup".into(),
                    window: WindowSpec::Cycles { from: 2, until: 8 },
                },
                Measurement {
                    name: "crash_recovery".into(),
                    window: WindowSpec::Recovery {
                        anchor: Anchor::CrashWave,
                        baseline: 3,
                    },
                },
            ],
        };
        let report = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .scenario(scenario)
            .run();
        // The joiner grew the population by one.
        assert_eq!(report.n_nodes, d.n_users() + 1);
        assert!(report.measured_items() > 0);
        assert!(report.scores().recall > 0.0);
        // The series covers every cycle and its totals reconcile with the
        // whole-run counters.
        assert_eq!(report.series.len(), report.cycles as usize);
        let all = report.series.pooled(0, report.cycles);
        assert_eq!(all.news_sent, report.news_messages_all);
        assert_eq!(all.gossip_sent, report.gossip_messages);
        assert_eq!(
            report.series.cycles().last().unwrap().live_nodes,
            report.n_nodes as u64
        );
        // Both windows resolved; the recovery one is anchored to cycle 8.
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows[0].name, "warmup");
        assert!(report.windows[0].items > 0);
        assert!(report.windows[0].recovery.is_none());
        let crash = &report.windows[1];
        assert_eq!(crash.from, 8);
        let recovery = crash.recovery.expect("publications precede the wave");
        assert_eq!(recovery.anchor, 8);
        assert!(recovery.baseline_recall > 0.0);
        // Item-based window scores equal the series' pooled counters.
        let pooled = report.series.pooled(crash.from, crash.until);
        assert_eq!(crash.scores, pooled.scores());
    }

    #[test]
    fn mass_join_grows_the_population() {
        let d = dataset();
        let scenario = Scenario::default().with_environment(Environment {
            loss: LossModel::Constant { p: 0.0 },
            churn: ChurnModel::MassJoin { at: 4, count: 5 },
        });
        let report = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .scenario(scenario)
            .run();
        assert_eq!(report.n_nodes, d.n_users() + 5);
    }

    #[test]
    fn partition_window_hurts_recall() {
        let d = dataset();
        let clean = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .run();
        let split = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .scenario(Scenario::default().with_environment(Environment {
                loss: LossModel::Partition {
                    from: 6,
                    until: 16,
                    frontier: 0.5,
                },
                churn: ChurnModel::None,
            }))
            .run();
        assert!(
            split.scores().recall < clean.scores().recall,
            "a 10-cycle half-split must hurt recall: clean {:?} split {:?}",
            clean.scores(),
            split.scores()
        );
    }

    #[test]
    fn build_gives_a_steppable_simulation_with_events() {
        let d = dataset();
        let joiner_id = d.n_users() as u32;
        let mut sim = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .scenario(Scenario::default().with_events(vec![TimedEvent {
                at: 5,
                event: Event::JoinClone { reference: 0 },
            }]))
            .build();
        while sim.current_cycle() < 5 {
            sim.step();
        }
        assert_eq!(
            sim.n_nodes(),
            d.n_users(),
            "join fires at the start of cycle 5"
        );
        sim.step();
        assert_eq!(sim.n_nodes(), d.n_users() + 1);
        while sim.current_cycle() < 16 {
            sim.step();
        }
        assert!(!sim.node(joiner_id).wup_neighbor_ids().is_empty());
    }
}
