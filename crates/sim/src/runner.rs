//! The [`Runner`]: the one entry point for every run.
//!
//! A run is described one way. [`SimConfig`] says how long the run is and
//! how it executes (cycles, seed, node overrides, shard count); the
//! [`Scenario`] says what happens in it (publication workload, message
//! loss and churn, timeline events, measurement windows); the
//! [`Transport`] says where the shards execute (in-process threads,
//! `sim-shard-worker` child processes, or remote socket workers). Any
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
//! `paper` harness are its users.

use crate::config::{Protocol, SimConfig, Transport};
use crate::engine::driver::run_external;
use crate::engine::exchange::Supervision;
use crate::engine::Simulation;
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

/// One cell of [`Runner::grid_sweep`]; `report.fanout` names its column.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Engine shard count the cell ran on (a pure execution knob — cells
    /// that differ only in `shards` carry identical reports).
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
    /// shard count ([`SimConfig::shards`], a pure execution knob).
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

    /// Selects how the shard workers execute. Only meaningful for
    /// node-based protocols (the global baselines have no shards).
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
    /// the worker count; workers must be started before the run).
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
    /// shard, with a checkpoint every `checkpoint_every` cycles.
    /// Determinism makes recovery exact — a supervised run that survives
    /// faults reports bit-identically to an undisturbed one. Ignored by
    /// the in-process transport (nothing external can crash).
    pub fn supervised(self, max_restarts: u32, checkpoint_every: u32) -> Self {
        self.supervision(Supervision::new(max_restarts, checkpoint_every))
    }

    /// [`Runner::supervised`] with full control over the supervision knobs
    /// (hang deadline, restart backoff, dial window).
    pub fn supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
        self
    }

    /// Builds a steppable in-process [`Simulation`] (node-based protocols
    /// only). Scenario events fire automatically as the cycles advance.
    ///
    /// # Panics
    /// Panics for protocols without a steppable node engine (cascade,
    /// pub/sub, centralized, anti-entropy — use [`Runner::run`]), if a
    /// non-in-process transport was configured, or if the config/scenario
    /// is invalid ([`SimConfig::validate_protocol`] included).
    pub fn build(self) -> Simulation {
        assert!(
            self.transport == Transport::InProcess,
            "build() is in-process; external transports run to completion via run()"
        );
        self.validate_protocol();
        Simulation::with_scenario(self.dataset, self.protocol, self.cfg, self.scenario)
    }

    /// Runs to completion and reports; `Err` only for external-transport
    /// failures (a worker that cannot be spawned, dialed or handshaken, or
    /// that dies mid-run — the error names the failing endpoint).
    ///
    /// # Panics
    /// Panics if the config or scenario is invalid
    /// ([`SimConfig::validate_protocol`] included).
    pub fn try_run(self) -> io::Result<SimReport> {
        self.validate_protocol();
        let scenario = self.scenario;
        match self.protocol {
            // Global baselines walk a server-side model once per item: the
            // workload schedule applies (and constant loss, to cascade);
            // everything else is rejected here rather than ignored.
            p if p.is_global() => {
                self.cfg.validate().expect("invalid simulation config");
                scenario.validate(&self.cfg).expect("invalid scenario");
                scenario
                    .validate_for_global(&self.protocol)
                    .expect("scenario not expressible on a global engine");
                let (d, cfg) = (self.dataset, &self.cfg);
                Ok(match self.protocol {
                    Protocol::Cascade => cascade::run_scenario(d, cfg, &scenario),
                    Protocol::CPubSub => pubsub::run_scenario(d, cfg, &scenario),
                    Protocol::CWhatsUp { f_like } => {
                        centralized::run_scenario(d, f_like, cfg, &scenario)
                    }
                    _ => unreachable!("matched above"),
                })
            }
            // Anti-entropy runs its own single-process engine: the full
            // scenario grid applies, but there is no sharded transport
            // (reports are bit-identical across repeated runs, which is
            // the determinism contract the compare path needs).
            Protocol::AntiEntropy { fanout } => {
                if self.transport != Transport::InProcess {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "the anti-entropy engine is in-process only; drop --worker/--workers",
                    ));
                }
                Ok(antientropy::run_scenario(
                    self.dataset,
                    &self.cfg,
                    &scenario,
                    fanout,
                ))
            }
            node_protocol => match self.transport {
                Transport::InProcess => {
                    Ok(
                        Simulation::with_scenario(self.dataset, node_protocol, self.cfg, scenario)
                            .run(),
                    )
                }
                external => run_external(
                    self.dataset,
                    node_protocol,
                    self.cfg,
                    scenario,
                    &external,
                    self.supervision,
                ),
            },
        }
    }

    /// Runs to completion and reports.
    ///
    /// # Panics
    /// Panics if the config or scenario is invalid, or on worker I/O
    /// failures (use [`Runner::try_run`] to handle those).
    pub fn run(self) -> SimReport {
        self.try_run().expect("shard worker transport failed")
    }

    /// Deploys the run instead of simulating it — the one wall-clock entry
    /// point: live peers, a thread each, exchanging wire frames over
    /// `fabric` and ticking every `cycle_ms` ([`crate::engines::swarm`]).
    /// The report comes from the plan, environment draws and ledger
    /// [`Runner::run`] uses; beside it, the traffic and wall-clock time a
    /// simulation has no use for. The execution knobs (shards, transport,
    /// supervision) do not apply.
    ///
    /// `Err` for what no swarm can express — a global or anti-entropy
    /// protocol, timeline events or mass joins (`Unsupported`, naming the
    /// offender), a zero `cycle_ms` — and for a fabric that cannot be set
    /// up or fails mid-run.
    ///
    /// # Panics
    /// Panics if the config or scenario is invalid
    /// ([`SimConfig::validate_protocol`] included).
    pub fn deploy(self, fabric: Fabric, cycle_ms: u64) -> io::Result<Deployment> {
        self.validate_protocol();
        swarm::deploy(
            self.dataset,
            self.protocol,
            &self.cfg,
            &self.scenario,
            fabric,
            cycle_ms,
        )
    }

    /// The protocol's knobs under the config, checked once by every way
    /// to run: a field the protocol's engine never reads is refused.
    fn validate_protocol(&self) {
        if let Err(e) = self.cfg.validate_protocol(&self.protocol) {
            panic!("invalid protocol knobs: {e}");
        }
    }

    /// Runs this runner across a shards × fanout grid on the job pool —
    /// the `whatsup-sim sweep` subcommand's engine — in grid order, shard
    /// count outermost. An empty `fanouts` keeps the protocol's own knob.
    ///
    /// A protocol without a fanout knob ignores the fanout axis
    /// ([`Protocol::with_fanout`] is the identity there), so every cell of
    /// a row would be identical — callers should reject that combination
    /// up front, as the CLI does.
    pub fn grid_sweep(&self, shard_counts: &[usize], fanouts: &[usize]) -> Vec<SweepCell> {
        let protocols: Vec<Protocol> = if fanouts.is_empty() {
            vec![self.protocol]
        } else {
            fanouts
                .iter()
                .map(|&f| self.protocol.with_fanout(f))
                .collect()
        };
        let cells: Vec<(usize, Protocol)> = shard_counts
            .iter()
            .flat_map(|&s| protocols.iter().map(move |&p| (s, p)))
            .collect();
        pool_map(&cells, |&(shards, protocol)| SweepCell {
            shards,
            report: Runner {
                protocol,
                cfg: SimConfig {
                    shards,
                    ..self.cfg.clone()
                },
                ..self.clone()
            }
            .run(),
        })
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
        let base = Runner::new(&d, Protocol::WhatsUp { f_like: 0 }).config(cfg());
        let cells = base.grid_sweep(&[1, 2], &[3, 5]);
        let grid: Vec<_> = cells.iter().map(|c| (c.shards, c.report.fanout)).collect();
        assert_eq!(
            grid,
            [(1, Some(3)), (1, Some(5)), (2, Some(3)), (2, Some(5))]
        );
        // Same fanout, different shard count → bit-identical report.
        assert_eq!(cells[0].report, cells[2].report);
        assert_eq!(cells[1].report, cells[3].report);
        assert_ne!(cells[0].report.scores(), cells[1].report.scores());
        // A pooled cell is the plain run of the same protocol.
        let alone = Runner::new(&d, Protocol::WhatsUp { f_like: 5 })
            .config(cfg())
            .run();
        assert_eq!(cells[1].report, alone);
        // An empty fanout axis keeps the protocol's own knob.
        let own = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(cfg())
            .grid_sweep(&[1], &[]);
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].report.fanout, Some(4));
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

    #[test]
    fn every_way_to_run_refuses_a_knob_its_engine_never_reads() {
        // C-WhatsUp keeps its own 13-cycle window: a profile window would
        // change nothing, whichever way the run goes.
        let d = dataset();
        let window = SimConfig {
            profile_window: Some(5),
            ..cfg()
        };
        let refused = |run: fn(Runner)| {
            let runner = Runner::new(&d, Protocol::CWhatsUp { f_like: 3 }).config(window.clone());
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(runner)))
                .expect_err("the knob is refused");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("config.profile_window"), "{message}");
        };
        refused(|r| drop(r.try_run()));
        refused(|r| drop(r.build()));
        refused(|r| drop(r.deploy(Fabric::Emulated, 1)));
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
