//! The repo benchmark: a batch, closed-loop, single-client benchmark of a
//! deterministic simulator. Fixed simulated work per workload, host time
//! and memory as cost, simulated statistics as exact-repeat quality. See
//! `README.md` for the metric glossary and the reasoning.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   the driver's contract
//! perfbench run   [--seed N] [--reps R] [--workload W]      all six workloads, interleaved
//! perfbench trace --workload W [--seed N] [--summary]       per-layer metrics + spans
//! perfbench noise [--seconds S] [--seeds K] [--workload W]  the acceptance check (listed workloads)
//! perfbench manifest                                        prints BENCHMARK.json
//! perfbench rep   --workload W --seed N                     internal: one repetition
//! ```

mod kernels;
mod layers;
mod measure;
mod metrics;
mod noise;
mod rep;
mod stats;
mod steps;
mod sys;
mod trace;
mod workloads;

use measure::{Ops, Run};
use metrics::{END_TO_END, PER_LAYER};
use serde::json::Value;
use stats::{fastest, median, slowest, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// The window one run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 36;

const DEFAULT_SEED: u64 = 7;

struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
    summary: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            command: None,
            flags: BTreeMap::new(),
            summary: false,
        };
        let mut words = std::env::args().skip(1);
        while let Some(word) = words.next() {
            match word.strip_prefix("--") {
                Some("summary") => args.summary = true,
                Some(flag) => {
                    let value = words
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.insert(flag.to_owned(), value);
                }
                None if args.command.is_none() => args.command = Some(word),
                None => return Err(format!("unexpected argument '{word}'")),
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{flag}: '{text}' is not a valid number")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.flags.get("workload") {
            None => Ok(None),
            Some(name) => workloads::find(name).map(Some).ok_or_else(|| {
                format!("unknown workload '{name}' (known: {})", workloads::names())
            }),
        }
    }

    fn required_workload(&self) -> Result<Workload, String> {
        self.workload()?
            .ok_or_else(|| format!("--workload is required (one of: {})", workloads::names()))
    }

    /// One workload if `--workload` names it, else `default`.
    fn workload_set(&self, default: Vec<Workload>) -> Result<Vec<Workload>, String> {
        Ok(self.workload()?.map_or(default, |w| vec![w]))
    }
}

/// Where result files and span dumps go: next to the executable, so
/// inside the build directory of whichever checkout built it.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let dir = exe.with_file_name("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let started = Instant::now();
    match dispatch(started) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(started: Instant) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build; start the benchmark with `sh perfbench/run.sh …`, \
                    which builds with --release"
                .into(),
        );
    }
    let args = Args::parse()?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    if args.command.as_deref() == Some("rep") {
        let rep = rep::run(&args.required_workload()?, seed, started)?;
        println!("{}", rep.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    let profile = sys::release_profile()?;
    match args.command.as_deref() {
        None => {
            let workload = args.required_workload()?;
            let seconds = args.number("seconds", RUN_SECONDS)?;
            match args.number("trace", 0u8)? {
                0 => end_to_end(&workload, seed, Duration::from_secs(seconds), &profile),
                1 => per_layer(&workload, seed, false),
                other => Err(format!("--trace takes 0 or 1, not {other}")),
            }
        }
        Some("trace") => per_layer(&args.required_workload()?, seed, args.summary),
        Some("run") => run_all(
            &args.workload_set(WORKLOADS.to_vec())?,
            seed,
            args.number("reps", measure::MIN_REPS)?,
            &profile,
        ),
        Some("noise") => noise::run(
            &args.workload_set(workloads::listed())?,
            Duration::from_secs(args.number("seconds", RUN_SECONDS)?),
            args.number("seeds", 10u64)?,
        ),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!(
            "unknown command '{other}' (commands: run, trace, noise, manifest)"
        )),
    }
}

/// The host-cost metrics of a run's repetitions, one column per metric.
fn host_cost_columns(run: &Run) -> Vec<(&'static str, Vec<f64>)> {
    let Some(first) = run.reps.first() else {
        return Vec::new();
    };
    let column = |i: usize| run.reps.iter().map(|rep| rep.host_cost()[i].1).collect();
    first
        .host_cost()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, column(i)))
        .collect()
}

/// The end-to-end metrics of one run: host cost as the median over its
/// repetitions, simulated statistics from the first (all are identical,
/// or the run has already failed a check).
pub fn end_to_end_values(run: &Run) -> Option<BTreeMap<&'static str, f64>> {
    let first = run.reps.first()?;
    let mut values: BTreeMap<&'static str, f64> = host_cost_columns(run)
        .into_iter()
        .map(|(name, column)| (name, median(&column)))
        .collect();
    values.insert("f1", first.f1);
    values.insert("recall", first.recall);
    values.insert("sim_messages", first.sim_messages() as f64);
    Some(values)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(
    ops: &Ops,
    metrics: impl Iterator<Item = (&'static str, f64, &'static str)>,
) -> String {
    let metrics = metrics.map(|(name, value, unit)| {
        (
            name,
            Value::object([
                ("value", Value::Number(value)),
                ("unit", Value::String(unit.to_owned())),
            ]),
        )
    });
    Value::object([
        ("correct", Value::Bool(ops.failed() == 0)),
        ("attempted", Value::Number(ops.attempted.max(1) as f64)),
        ("failed", Value::Number(ops.failed() as f64)),
        ("metrics", Value::object(metrics)),
    ])
    .to_string()
}

fn report_failures(ops: &Ops) {
    for failure in &ops.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
}

/// Each host-cost metric's median with its fastest and slowest repetition,
/// interquartile distance over median, and repetition count beside it.
fn host_cost_json(run: &Run) -> Value {
    Value::object(host_cost_columns(run).into_iter().map(|(name, column)| {
        (
            name,
            Value::object([
                ("median", Value::Number(median(&column))),
                ("min", Value::Number(fastest(&column))),
                ("max", Value::Number(slowest(&column))),
                ("iqr_over_median", Value::Number(spread(&column))),
                ("reps", Value::Number(column.len() as f64)),
            ]),
        )
    }))
}

fn reps_json(run: &Run) -> Value {
    Value::Array(run.reps.iter().map(rep::Rep::to_json).collect())
}

/// `--trace 0`: repetitions for `window`, their median, the result line.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    window: Duration,
    profile: &str,
) -> Result<ExitCode, String> {
    let steal_before = sys::cpu_ticks();
    let run = measure::run(workload, seed, window);
    report_failures(&run.ops);
    let values = end_to_end_values(&run)
        .ok_or_else(|| format!("{}: no repetition completed", workload.name))?;
    for (i, rep) in run.reps.iter().enumerate() {
        eprintln!(
            "{} rep {i}: wall {:.3} s  cpu {:.3} s  rss {:.1} MiB  setup {:.2} ms",
            workload.name,
            rep.wall_s,
            rep.cpu_s,
            rep.peak_rss_mb,
            rep.setup_s * 1e3
        );
    }
    let record = Value::object([
        ("workload", Value::String(workload.name.to_owned())),
        ("seed", Value::Number(seed as f64)),
        ("window_s", Value::Number(window.as_secs_f64())),
        ("environment", sys::environment(profile)),
        (
            "steal_share",
            Value::Number(sys::steal_share_since(steal_before)),
        ),
        ("cpu_pressure", Value::String(sys::cpu_pressure())),
        ("ops_attempted", Value::Number(run.ops.attempted as f64)),
        ("ops_failed", Value::Number(run.ops.failed() as f64)),
        ("digest", Value::String(run.reps[0].digest.clone())),
        ("host_cost", host_cost_json(&run)),
        ("reps", reps_json(&run)),
    ]);
    let path = out_dir()?.join(format!("result-{}.json", workload.name));
    std::fs::write(&path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}",
        result_line(
            &run.ops,
            END_TO_END.iter().map(|m| (m.name, values[m.name], m.unit)),
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// `--trace 1` and `trace`: the traced run, every per-layer metric, the
/// span dump.
fn per_layer(workload: &Workload, seed: u64, summary: bool) -> Result<ExitCode, String> {
    let layers = layers::run(workload, seed)?;
    report_failures(&layers.ops);
    if let Some(socket) = &layers.socket {
        let path = out_dir()?.join(format!("trace-{}.jsonl", workload.name));
        socket
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
    }
    if summary {
        println!("{:<28} {:>12}", "layer", "self time");
        for (name, secs) in layers::self_times(&layers.metrics) {
            println!("{name:<28} {secs:>10.4} s");
        }
        println!();
        for (name, unit, _) in PER_LAYER {
            println!("{name:<32} {:>16.4} {unit}", layers.metrics[name]);
        }
    }
    println!(
        "{}",
        result_line(
            &layers.ops,
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| (*name, layers.metrics[name], *unit)),
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// `run`: every workload, `reps` repetitions each, interleaved; prints
/// every end-to-end metric with its spread and the cross-workload ratios.
fn run_all(set: &[Workload], seed: u64, reps: usize, profile: &str) -> Result<ExitCode, String> {
    let steal_before = sys::cpu_ticks();
    let runs = measure::run_round_robin(set, seed, reps.max(1));
    let mut attempted = 0;
    let mut failed = 0;
    // Per workload: its end-to-end values, and its plain wall seconds.
    let mut reported: BTreeMap<&str, (BTreeMap<&'static str, f64>, f64)> = BTreeMap::new();
    let mut records = Vec::new();
    for (workload, run) in set.iter().zip(&runs) {
        report_failures(&run.ops);
        attempted += run.ops.attempted;
        failed += run.ops.failed();
        let Some(values) = end_to_end_values(run) else {
            continue;
        };
        println!(
            "\n{} — {} reps, digest {}",
            workload.name,
            run.reps.len(),
            run.reps[0].digest
        );
        println!(
            "  {:<16} {:>14} {:>12} {:>12} {:>8}  unit",
            "metric", "median", "min", "max", "iqr/med"
        );
        let columns = host_cost_columns(run);
        for m in &END_TO_END {
            match columns.iter().find(|(name, _)| *name == m.name) {
                Some((_, column)) => println!(
                    "  {:<16} {:>14.6} {:>12.6} {:>12.6} {:>8.4}  {}",
                    m.name,
                    values[m.name],
                    fastest(column),
                    slowest(column),
                    spread(column),
                    m.unit
                ),
                None => println!(
                    "  {:<16} {:>14.6} {:>12} {:>12} {:>8}  {}",
                    m.name, values[m.name], "exact", "exact", "0", m.unit
                ),
            }
        }
        records.push((
            workload.name,
            Value::object([
                ("digest", Value::String(run.reps[0].digest.clone())),
                ("host_cost", host_cost_json(run)),
                ("reps", reps_json(run)),
            ]),
        ));
        let wall_s: Vec<f64> = run.reps.iter().map(|r| r.wall_s).collect();
        println!("  {:<16} {:>14.6} {:>41}", "(wall_s)", median(&wall_s), "s");
        reported.insert(workload.name, (values, median(&wall_s)));
    }

    println!();
    if let (Some((sharded, _)), Some((inline, _))) =
        (reported.get("scale-2shard"), reported.get("scale-1shard"))
    {
        println!(
            "exchange.shard_penalty     {:.3} ratio (scale-2shard / scale-1shard wall)",
            sharded["wall_us_per_msg"] / inline["wall_us_per_msg"]
        );
        println!(
            "exchange.rss_penalty       {:.3} ratio (same, peak_rss_mb)",
            sharded["peak_rss_mb"] / inline["peak_rss_mb"]
        );
    }
    if let (Some((_, pipe)), Some((_, threads))) =
        (reported.get("scale-pipe"), reported.get("scale-2shard"))
    {
        println!(
            "exchange.pipe_overhead_s   {:.3} s (scale-pipe − scale-2shard wall_s)",
            pipe - threads
        );
    }
    let steal = sys::steal_share_since(steal_before);
    println!("env.steal_share            {steal:.4} ratio");
    println!("ops_attempted {attempted}  ops_failed {failed}");

    let record = Value::object([
        ("seed", Value::Number(seed as f64)),
        ("reps", Value::Number(reps as f64)),
        ("environment", sys::environment(profile)),
        ("steal_share", Value::Number(steal)),
        ("cpu_pressure", Value::String(sys::cpu_pressure())),
        ("ops_attempted", Value::Number(attempted as f64)),
        ("ops_failed", Value::Number(failed as f64)),
        ("workloads", Value::object(records)),
    ]);
    let path = out_dir()?.join("result.json");
    std::fs::write(&path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written: {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, rendered from the tables the program measures by.
fn manifest() -> String {
    let text = |s: &str| Value::String(s.to_owned());
    let command = ["sh", "perfbench/run.sh"];
    Value::object([
        ("command", Value::Array(command.map(text).to_vec())),
        ("paths", Value::Array(vec![text("perfbench")])),
        ("run_seconds", Value::Number(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                workloads::listed()
                    .iter()
                    .map(|w| Value::object([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Value::Number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::object([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}
