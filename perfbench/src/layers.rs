//! The traced run of one workload: every per-layer metric, from three
//! sources — the traced socket run, the step spans, the kernels on
//! harvested state — plus the ratios against sibling workloads. It is
//! never the source of an end-to-end number: those come from untraced
//! repetitions, one of which runs here as the reference the traced run's
//! digest and wall time are compared to.

use crate::measure::{spawn_rep, Ops, RUN_DEADLINE};
use crate::metrics::PER_LAYER;
use crate::rep::Rep;
use crate::trace::SocketTrace;
use crate::workloads::{self, Exec, Workload};
use crate::{kernels, steps, sys, trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Layers {
    /// Every name of [`PER_LAYER`], 0 where the layer does not run.
    pub metrics: BTreeMap<&'static str, f64>,
    pub ops: Ops,
    pub socket: Option<SocketTrace>,
}

/// One untraced repetition, cut off at ten times its expected length or
/// at the traced run's deadline, whichever comes first.
fn untraced_rep(workload: &Workload, seed: u64, started: Instant, ops: &mut Ops) -> Option<Rep> {
    let timeout = Duration::from_secs_f64(10.0 * workload.expected_rep_s)
        .min(RUN_DEADLINE.saturating_sub(started.elapsed()));
    ops.attempted += 1;
    spawn_rep(workload, seed, timeout)
        .map_err(|e| ops.failures.push(e))
        .ok()
}

/// `Err` only when the untraced reference repetition itself fails: there
/// is then nothing to compare a traced run with.
pub fn run(workload: &Workload, seed: u64) -> Result<Layers, String> {
    let started = Instant::now();
    let steal_before = sys::cpu_ticks();
    let mut ops = Ops::default();
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect();
    let Some(reference) = untraced_rep(workload, seed, started, &mut ops) else {
        return Err(format!(
            "{}: the untraced reference run failed: {}",
            workload.name,
            ops.failures.join("; ")
        ));
    };
    let mut socket = None;
    let traced = match workload.exec {
        Exec::AntiEntropy => antientropy_layers(workload, seed, &mut metrics),
        Exec::InProcess { shards } | Exec::Pipe { shards } => {
            sharded_layers(workload, seed, shards, &reference, &mut metrics, &mut ops)
                .map(|trace| socket = Some(trace))
        }
    };
    if let Err(e) = traced {
        ops.check(false, || e);
    }
    sibling_ratios(workload, seed, started, &reference, &mut metrics, &mut ops);
    metrics.insert("env.steal_share", sys::steal_share_since(steal_before));
    Ok(Layers {
        metrics,
        ops,
        socket,
    })
}

fn sharded_layers(
    workload: &Workload,
    seed: u64,
    shards: usize,
    reference: &Rep,
    metrics: &mut BTreeMap<&'static str, f64>,
    ops: &mut Ops,
) -> Result<SocketTrace, String> {
    // Step spans first, while this process's heap is still fresh. The
    // pipe workload steps through its in-process twin: same shards, same
    // `run_cycle`, only the transport differs.
    let steps = steps::run(workload, seed, reference.peak_rss_mb)?;
    ops.check(steps.digest == reference.digest, || {
        format!(
            "{}: stepped run reports {}, the untraced run {}",
            workload.name, steps.digest, reference.digest
        )
    });
    metrics.extend(steps.metrics);

    let inputs = workloads::generate(workload, seed)?;
    let traced = trace::run_socket(&inputs, shards)?;
    let digest = workloads::report_digest(&traced.report);
    ops.check(digest == reference.digest, || {
        format!(
            "{}: traced socket run reports {digest}, the untraced run {}",
            workload.name, reference.digest
        )
    });
    let m = traced.metrics();
    ops.check(
        m["shard.gossip_msgs"] == traced.report.gossip_messages as f64
            && m["shard.news_msgs"] == traced.report.news_messages_all as f64,
        || {
            format!(
                "{}: spans count {} gossip + {} news messages, the report {} + {}",
                workload.name,
                m["shard.gossip_msgs"],
                m["shard.news_msgs"],
                traced.report.gossip_messages,
                traced.report.news_messages_all
            )
        },
    );
    ops.check(m["trace.worker_coverage"] >= 0.99, || {
        format!(
            "{}: spans cover only {:.4} of a worker thread's life",
            workload.name, m["trace.worker_coverage"]
        )
    });
    metrics.extend(m);
    metrics.insert("trace.overhead_ratio", traced.wall_s / reference.wall_s);

    metrics.extend(kernels::sharded(&steps.harvest));
    Ok(traced)
}

fn antientropy_layers(
    workload: &Workload,
    seed: u64,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let started = Instant::now();
    let inputs = workloads::generate(workload, seed)?;
    metrics.insert("datasets.generate_s", started.elapsed().as_secs_f64());
    metrics.extend(kernels::antientropy(
        &inputs.dataset,
        inputs.cfg.cycles,
        inputs.cfg.datagram_budget,
    ));
    Ok(())
}

/// The sharding penalties ROADMAP wants explained. A traced run of any
/// `scale-*` workload measures the family: one untraced repetition of
/// each of the three executions of the one input (the reference is its
/// own), which must all report the same digest (`perfbench run` derives
/// the same numbers from whole sets of repetitions).
fn sibling_ratios(
    workload: &Workload,
    seed: u64,
    started: Instant,
    reference: &Rep,
    metrics: &mut BTreeMap<&'static str, f64>,
    ops: &mut Ops,
) {
    const FAMILY: [&str; 3] = ["scale-1shard", "scale-2shard", "scale-pipe"];
    if !FAMILY.contains(&workload.name) {
        return;
    }
    let mut member = |name: &str| {
        if name == workload.name {
            return Some(reference.clone());
        }
        let sibling = workloads::find(name).expect("the family is in the table");
        let rep = untraced_rep(&sibling, seed, started, ops)?;
        ops.check(rep.digest == reference.digest, || {
            format!(
                "{name}: report digest {} differs from {}'s {}",
                rep.digest, workload.name, reference.digest
            )
        });
        Some(rep)
    };
    let [inline, threads, pipe] = FAMILY.map(&mut member);
    if let (Some(inline), Some(threads)) = (&inline, &threads) {
        metrics.insert("exchange.shard_penalty", threads.wall_s / inline.wall_s);
        metrics.insert(
            "exchange.rss_penalty",
            threads.peak_rss_mb / inline.peak_rss_mb,
        );
    }
    if let (Some(threads), Some(pipe)) = (&threads, &pipe) {
        metrics.insert("exchange.pipe_overhead_s", pipe.wall_s - threads.wall_s);
        metrics.insert("exchange.worker_peak_rss_mb", pipe.worker_peak_rss_mb);
    }
}

/// The layers that have a self time, largest first: `(row, seconds)`.
pub fn self_times(metrics: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<(&'static str, f64)> = [
        "shard.collect_s",
        "shard.deliver_gossip_s",
        "shard.churn_s",
        "shard.publish_s",
        "shard.deliver_news_s",
        "shard.other_s",
        "exchange.decode_command_s",
        "exchange.encode_reply_s",
        "exchange.write_frame_s",
        "exchange.release_s",
        "exchange.idle_s",
        "exchange.handshake_s",
        "driver.self_s",
        "driver.build_s",
        "driver.into_report_s",
        "datasets.generate_s",
    ]
    .into_iter()
    .map(|name| (name, metrics.get(name).copied().unwrap_or(0.0)))
    .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}
