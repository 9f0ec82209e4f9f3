//! Step spans for the sharded-engine workloads: the same
//! `Runner::build()` + `Simulation::step()` path `run()` takes, with a
//! clock read around each call, plus the engine's own memory breakdown
//! and a sample of end-of-run node state for the kernels.

use crate::metrics::per_layer_name;
use crate::stats::median;
use crate::workloads::{self, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use whatsup_core::WhatsUpNode;
use whatsup_sim::Oracle;

/// End-of-run state the kernels run on: real profiles, views and likes.
pub struct Harvest {
    pub nodes: Vec<WhatsUpNode>,
    pub oracle: Oracle,
    pub cycles: u32,
}

/// Nodes sampled for the kernels, evenly spaced over the id range.
const SAMPLED_NODES: usize = 64;

pub struct Steps {
    pub metrics: BTreeMap<&'static str, f64>,
    pub harvest: Harvest,
    pub digest: String,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The listed `mem.<component>_mb` metric for one row of
/// `Simulation::memory_breakdown()`; a row the table does not know yet
/// still counts towards `mem.accounted_share`.
fn mem_metric(component: &str) -> Option<&'static str> {
    per_layer_name(&format!("mem.{}_mb", component.replace([' ', '-'], "_")))
}

/// Runs `workload` cycle by cycle in this process. `peak_rss_mb` is the
/// untraced repetition's, the base of `mem.accounted_share`.
pub fn run(workload: &Workload, seed: u64, peak_rss_mb: f64) -> Result<Steps, String> {
    let mut metrics = BTreeMap::new();
    let started = Instant::now();
    let inputs = workloads::generate(workload, seed)?;
    metrics.insert("datasets.generate_s", started.elapsed().as_secs_f64());

    let started = Instant::now();
    let mut sim = inputs.build();
    metrics.insert("driver.build_s", started.elapsed().as_secs_f64());

    let mut warmup = Vec::new();
    let mut news = Vec::new();
    for cycle in 0..inputs.cfg.cycles {
        let started = Instant::now();
        sim.step();
        let secs = started.elapsed().as_secs_f64();
        if cycle < inputs.cfg.publish_from {
            warmup.push(secs);
        } else {
            news.push(secs);
        }
    }
    metrics.insert("driver.warmup_cycle_s", median(&warmup));
    metrics.insert("driver.news_cycle_s", median(&news));

    let mut accounted = 0.0;
    for (component, bytes) in sim.memory_breakdown() {
        let mb = bytes as f64 / MIB;
        accounted += mb;
        if let Some(name) = mem_metric(component) {
            metrics.insert(name, mb);
        }
    }
    metrics.insert("mem.accounted_share", accounted / peak_rss_mb);

    let n = sim.n_nodes();
    let stride = (n / SAMPLED_NODES).max(1);
    let harvest = Harvest {
        nodes: (0..n)
            .step_by(stride)
            .take(SAMPLED_NODES)
            .map(|id| sim.node(id as u32).clone())
            .collect(),
        oracle: sim.oracle().clone(),
        cycles: inputs.cfg.cycles,
    };

    let started = Instant::now();
    let report = sim.into_report();
    metrics.insert("driver.into_report_s", started.elapsed().as_secs_f64());
    Ok(Steps {
        metrics,
        harvest,
        digest: workloads::report_digest(&report),
    })
}
