//! The acceptance check, automated: the same binary measured twice, the
//! way the driver judges a benchmark. Each set runs every workload once
//! per seed (a full run each: repetitions for the window, their median
//! reported); per workload × end-to-end metric the spread of a set's
//! values (the distance between their first and third quartile as a share
//! of their median) must stay within the metric's bound, and the second
//! set's median must not be worse than the first's by more than the bound.
//!
//! The sets run one after the other, not alternating: slow drift of the
//! box between sets is exactly what the second rule has to survive.

use crate::measure;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::Workload;
use crate::{end_to_end_values, out_dir, rep};
use serde::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

pub fn run(set: &[Workload], window: Duration, seeds: u64) -> Result<ExitCode, String> {
    let raw_path = out_dir()?.join("noise-raw.jsonl");
    let mut raw =
        std::fs::File::create(&raw_path).map_err(|e| format!("{}: {e}", raw_path.display()))?;
    // values[set][workload][metric] — one value per seed.
    let mut values: [BTreeMap<&str, BTreeMap<&str, Vec<f64>>>; 2] = Default::default();
    let mut failed_ops = 0;
    for (set_index, set_values) in values.iter_mut().enumerate() {
        for seed in 1..=seeds {
            for workload in set {
                let run = measure::run(workload, seed, window);
                for failure in &run.ops.failures {
                    eprintln!("perfbench: FAILED {failure}");
                }
                failed_ops += run.ops.failed();
                let line = Value::object([
                    ("set", Value::Number(set_index as f64)),
                    ("workload", Value::String(workload.name.to_owned())),
                    ("seed", Value::Number(seed as f64)),
                    (
                        "reps",
                        Value::Array(run.reps.iter().map(rep::Rep::to_json).collect()),
                    ),
                ]);
                writeln!(raw, "{line}").map_err(|e| format!("{}: {e}", raw_path.display()))?;
                let Some(metrics) = end_to_end_values(&run) else {
                    continue;
                };
                eprintln!(
                    "set {} seed {seed:>2} {:<14} {} reps  wall {:.3} us/msg",
                    set_index + 1,
                    workload.name,
                    run.reps.len(),
                    metrics["wall_us_per_msg"]
                );
                let per_metric = set_values.entry(workload.name).or_default();
                for (name, value) in metrics {
                    per_metric.entry(name).or_default().push(value);
                }
            }
        }
    }

    println!(
        "| workload | metric | median 1 | median 2 | spread 1 | spread 2 | worse by | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    let empty = Vec::new();
    for workload in set {
        for m in &END_TO_END {
            let column = |s: usize| {
                values[s]
                    .get(workload.name)
                    .and_then(|v| v.get(m.name))
                    .unwrap_or(&empty)
            };
            let (a, b) = (column(0), column(1));
            if a.is_empty() || b.is_empty() {
                failures += 1;
                println!(
                    "| {} | {} | no values | | | | | | FAIL |",
                    workload.name, m.name
                );
                continue;
            }
            let (spread_a, spread_b) = (spread(a), spread(b));
            let worse = worsening(median(a), median(b), m.better);
            // The driver exempts set-up time from the spread rule only.
            let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let pass = spread_ok && worse <= m.bound;
            let steady = spread_a.max(spread_b) <= m.bound / 3.0;
            failures += usize::from(!pass);
            println!(
                "| {} | {} | {:.6} | {:.6} | {:.4} | {:.4} | {:+.4} | {} | {} |",
                workload.name,
                m.name,
                median(a),
                median(b),
                spread_a,
                spread_b,
                worse,
                m.bound,
                match (pass, steady) {
                    (false, _) => "FAIL",
                    (true, true) => "PASS",
                    (true, false) => "PASS (spread above bound/3)",
                }
            );
        }
    }
    println!("\nraw repetitions: {}", raw_path.display());
    println!("failed rows: {failures}  failed operations: {failed_ops}");
    Ok(if failures == 0 && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
