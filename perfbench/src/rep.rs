//! One repetition: a fresh process generates the workload's inputs, runs
//! the simulator once with tracing off, and prints one JSON line.

use crate::sys;
use crate::workloads::{self, Exec, Workload};
use serde::json::Value;
use std::path::PathBuf;
use std::time::Instant;
use whatsup_sim::SimReport;

/// What one repetition measured (host cost) and computed (simulated
/// statistics, which must repeat exactly for a fixed seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// `Runner::try_run`: engine build, every cycle, the report — and on
    /// the pipe transport worker spawn, handshake and reaping.
    pub wall_s: f64,
    /// User + system time of this process and the children it reaped.
    pub cpu_s: f64,
    /// `VmHWM` of this process.
    pub peak_rss_mb: f64,
    /// Largest `ru_maxrss` among reaped children (pipe workers), else 0.
    pub worker_peak_rss_mb: f64,
    /// Process start to the run's entry point: input generation,
    /// scenario-file parse, `Runner` construction.
    pub setup_s: f64,
    pub f1: f64,
    pub recall: f64,
    pub gossip_messages: u64,
    pub news_messages_all: u64,
    pub measured_items: u64,
    pub digest: String,
}

impl Rep {
    /// The paper's cost axis: every message any layer sent.
    pub fn sim_messages(&self) -> u64 {
        self.gossip_messages + self.news_messages_all
    }

    /// This repetition's four host-cost end-to-end metrics, by name. Time
    /// is per simulated message: seeds differ in how much work they
    /// simulate (`sim_messages`, a metric of its own), and host time per
    /// simulated event is what a code change moves.
    pub fn host_cost(&self) -> [(&'static str, f64); 4] {
        let us_per_msg = 1e6 / self.sim_messages().max(1) as f64;
        [
            ("wall_us_per_msg", self.wall_s * us_per_msg),
            ("cpu_us_per_msg", self.cpu_s * us_per_msg),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", self.setup_s),
        ]
    }

    /// The fields that must be bit-identical on every repetition.
    pub fn simulated(&self) -> (u64, u64, u64, u64, u64, &str) {
        (
            self.f1.to_bits(),
            self.recall.to_bits(),
            self.gossip_messages,
            self.news_messages_all,
            self.measured_items,
            &self.digest,
        )
    }

    pub fn to_json(&self) -> Value {
        let num = Value::Number;
        Value::object([
            ("wall_s", num(self.wall_s)),
            ("cpu_s", num(self.cpu_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("worker_peak_rss_mb", num(self.worker_peak_rss_mb)),
            ("setup_s", num(self.setup_s)),
            ("f1", num(self.f1)),
            ("recall", num(self.recall)),
            ("gossip_messages", num(self.gossip_messages as f64)),
            ("news_messages_all", num(self.news_messages_all as f64)),
            ("measured_items", num(self.measured_items as f64)),
            ("digest", Value::String(self.digest.clone())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Rep, String> {
        let f = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("repetition output lacks number \"{key}\""))
        };
        let u = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("repetition output lacks count \"{key}\""))
        };
        Ok(Rep {
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            worker_peak_rss_mb: f("worker_peak_rss_mb")?,
            setup_s: f("setup_s")?,
            f1: f("f1")?,
            recall: f("recall")?,
            gossip_messages: u("gossip_messages")?,
            news_messages_all: u("news_messages_all")?,
            measured_items: u("measured_items")?,
            digest: v
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("repetition output lacks \"digest\"")?
                .to_owned(),
        })
    }
}

/// The shard worker `scale-pipe` spawns: built from the repo's own
/// `crates/sim/src/bin/sim_shard_worker.rs` as this package's second
/// executable, so it sits next to this one.
fn shard_worker() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let worker = exe.with_file_name("sim-shard-worker");
    if worker.is_file() {
        Ok(worker)
    } else {
        Err(format!(
            "{} is missing; build it with \
             `cargo build --release --manifest-path perfbench/Cargo.toml --bins` \
             (or start the benchmark through perfbench/run.sh)",
            worker.display()
        ))
    }
}

/// Runs `workload` once in this process. `started` is the process's first
/// instant.
pub fn run(workload: &Workload, seed: u64, started: Instant) -> Result<Rep, String> {
    let inputs = workloads::generate(workload, seed)?;
    let runner = match workload.exec {
        Exec::InProcess { .. } | Exec::AntiEntropy => inputs.runner(),
        Exec::Pipe { .. } => inputs.runner().multiprocess(shard_worker()?),
    };
    let setup_s = started.elapsed().as_secs_f64();
    let run_started = Instant::now();
    let report: SimReport = runner
        .try_run()
        .map_err(|e| format!("{}: {e}", workload.name))?;
    let wall_s = run_started.elapsed().as_secs_f64();
    let own = sys::usage_self();
    let children = sys::usage_children();
    let scores = report.scores();
    Ok(Rep {
        wall_s,
        cpu_s: own.cpu_s + children.cpu_s,
        peak_rss_mb: sys::peak_rss_mb(),
        worker_peak_rss_mb: children.max_rss_mb,
        setup_s,
        f1: scores.f1,
        recall: scores.recall,
        gossip_messages: report.gossip_messages,
        news_messages_all: report.news_messages_all,
        measured_items: report.measured_items() as u64,
        digest: workloads::report_digest(&report),
    })
}
