//! Engine scaling: single-run throughput (cycles/sec) across shard counts
//! (1/2/4) at 1k/5k/20k nodes — plus a 100k-node axis — under a uniform
//! and a flash-crowd publication workload.
//!
//! The sharded engine is deterministic across shard counts, so the speedup
//! columns are pure wall-clock: same seed, same report, more shard worker
//! threads. On a single-core host the ratio is ~1.0 by construction (one
//! shard runs inline; more shards add exchange overhead without
//! parallelism). The flash-crowd axis stresses the publication phase: a
//! quarter of the items disseminate in one cycle, which is where the
//! sparse-BFS-tail round-trip skipping pays.
//!
//! The 100k- and 1M-node axes run a reduced subgrid (1 shard, uniform
//! workload): on a single host the multi-shard rows at that scale only
//! measure exchange overhead again, several minutes per row — the full
//! grid there is a multi-machine job (socket transport), not a bench row.
//!
//! `WHATSUP_SCALE_MAX_NODES=<n>` caps the largest population (useful for
//! quick local/CI runs); the default exercises every axis including 1M.
//! `WHATSUP_SCALE_QUICK=1` instead runs exactly one row — 100k nodes, 1
//! shard, uniform — and asserts its peak RSS stays under
//! [`QUICK_RSS_CEILING_MB`]; CI uses it as the memory-regression smoke.
//! Rows are saved as JSON objects with named columns: `{"nodes", "shards",
//! "workload" ("uniform"/"flash"), "secs" (wall clock for the 10 cycles),
//! "messages", "peak_rss_mb"}`. The committed `BENCH_scale.json` at the
//! repo root is a snapshot of those rows — the
//! perf trajectory baseline CI prints deltas against (and fails on
//! `messages` divergence, which would mean a determinism break, and on
//! `peak_rss_mb` regressions past the comparison script's tolerance).
//!
//! Peak RSS is the process high-water mark (`VmHWM`). **Every grid row
//! runs in its own child process** (the bench re-executes itself with
//! `WHATSUP_SCALE_ONE_ROW` set): `VmHWM` is monotone per process and the
//! allocator retains freed heap across runs, so rows sharing a process
//! inherit the largest previous row's footprint — at 20k nodes a
//! same-process single-shard row read ~440 MiB against ~300 MiB clean.
//! Process isolation makes each `peak_rss_mb` that row's own footprint,
//! which is what the regression gate compares. Within a row the child
//! still trims the allocator and resets `VmHWM` (Linux: writing `5` to
//! `/proc/self/clear_refs`) so dataset generation is excluded from the
//! row's peak.

use serde::json::Value;
use std::time::Instant;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::scenario::{Scenario, Workload};
use whatsup_sim::{Protocol, Runner, SimConfig};

const CYCLES: u32 = 10;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Populations above this run the reduced subgrid (1 shard, uniform).
const FULL_GRID_MAX_NODES: usize = 20_000;

fn dataset(n_users: usize) -> whatsup_datasets::Dataset {
    // Fixed item load across scales so the cycles/sec column isolates the
    // per-node gossip cost; users scale through the replication base.
    let cfg = SurveyConfig {
        base_users: (n_users / 4).max(15),
        base_items: 100,
        ..SurveyConfig::paper()
    };
    survey::generate(&cfg, 7)
}

fn workloads() -> [(&'static str, Workload); 2] {
    [
        ("uniform", Workload::Uniform),
        (
            "flash",
            Workload::FlashCrowd {
                at: 5,
                fraction: 0.25,
            },
        ),
    ]
}

/// Ceiling for the `WHATSUP_SCALE_QUICK` smoke row (100k nodes, 1 shard,
/// uniform): the committed row's peak RSS plus headroom for
/// allocator and host noise. A run past this is a memory regression.
const QUICK_RSS_CEILING_MB: f64 = 1550.0;

/// The process's peak resident set in MiB (`VmHWM`, Linux); 0 elsewhere.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS (Linux: `echo 5 > clear_refs`), so
/// the next [`peak_rss_mb`] read is the peak *since this call*. Best
/// effort — on failure the column keeps the monotone high-water semantic.
fn reset_peak_rss() {
    // The previous row's simulation is dropped by now, but glibc retains
    // the freed heap, so without a trim the current RSS — and therefore
    // the reset high-water floor — carries the *largest previous row*
    // instead of this row's own footprint. Returning the freed pages to
    // the OS first makes every row's peak its own (within ~the residue a
    // fragmented arena can't release).
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        unsafe extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim is async-signal-unsafe but thread-safe; it
        // only releases free memory back to the OS and is called between
        // rows with no allocator activity in flight on other threads.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn run(dataset: &whatsup_datasets::Dataset, shards: usize, workload: Workload) -> (f64, u64) {
    let cfg = SimConfig {
        cycles: CYCLES,
        publish_from: 2,
        measure_from: 4,
        shards,
        ..Default::default()
    };
    let started = Instant::now();
    let report = Runner::new(dataset, Protocol::WhatsUp { f_like: 5 })
        .config(cfg)
        .scenario(Scenario::default().with_workload(workload))
        .run();
    let secs = started.elapsed().as_secs_f64();
    (
        CYCLES as f64 / secs,
        report.gossip_messages + report.news_messages_all,
    )
}

fn row_value(n_users: usize, shards: usize, w: &str, cps: f64, msgs: u64, rss: f64) -> Value {
    Value::object(vec![
        ("nodes", Value::Number(n_users as f64)),
        ("shards", Value::Number(shards as f64)),
        ("workload", Value::String(w.into())),
        ("secs", Value::Number(f64::from(CYCLES) / cps)),
        ("messages", Value::Number(msgs as f64)),
        ("peak_rss_mb", Value::Number(rss)),
    ])
}

/// Child mode: `WHATSUP_SCALE_ONE_ROW="nodes,shards,workload"`.
/// Runs exactly that row in this (fresh) process and prints one
/// machine-readable line; the parent grid loop parses it. Keeping rows in
/// separate processes is what makes the `peak_rss_mb` column honest —
/// see the module docs.
fn run_one_row(spec: &str) -> Result<(), String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [nodes, shards, w_name] = parts[..] else {
        return Err(format!("bad WHATSUP_SCALE_ONE_ROW spec: {spec:?}"));
    };
    let nodes: usize = nodes.parse().map_err(|e| format!("nodes: {e}"))?;
    let shards: usize = shards.parse().map_err(|e| format!("shards: {e}"))?;
    let workload = workloads()
        .into_iter()
        .find(|(n, _)| *n == w_name)
        .ok_or_else(|| format!("unknown workload {w_name:?}"))?
        .1;
    let d = dataset(nodes);
    reset_peak_rss();
    let (cps, msgs) = run(&d, shards, workload);
    println!(
        "ROW {} {} {} {:.6}",
        d.n_users(),
        f64::from(CYCLES) / cps,
        msgs,
        peak_rss_mb()
    );
    Ok(())
}

/// Spawns [`run_one_row`] for `spec` in a fresh copy of this executable
/// and returns `(n_users, secs, messages, peak_rss_mb)` from its `ROW`
/// line.
fn spawn_row(spec: &str) -> (usize, f64, u64, f64) {
    let exe = std::env::current_exe().expect("bench executable path");
    let out = std::process::Command::new(exe)
        .env("WHATSUP_SCALE_ONE_ROW", spec)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn row child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "row child {spec:?} failed ({}): {stdout}",
        out.status
    );
    let fields: Vec<&str> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("ROW "))
        .unwrap_or_else(|| panic!("row child {spec:?} printed no ROW line: {stdout}"))
        .split_whitespace()
        .collect();
    let [n_users, secs, msgs, rss] = fields[..] else {
        panic!("malformed ROW line from {spec:?}: {stdout}");
    };
    (
        n_users.parse().expect("n_users"),
        secs.parse().expect("secs"),
        msgs.parse().expect("messages"),
        rss.parse().expect("rss"),
    )
}

/// The `WHATSUP_SCALE_QUICK` path: the single 100k / 1 shard / uniform
/// row, asserted under [`QUICK_RSS_CEILING_MB`]. CI's
/// memory-regression smoke.
fn run_quick() {
    let d = dataset(100_000);
    reset_peak_rss();
    let (cps, msgs) = run(&d, 1, Workload::Uniform);
    let rss = peak_rss_mb();
    println!(
        "quick: nodes={} shards=1 uniform -> {:.2} cyc/s, messages={}, peak rss {:.1} MiB (ceiling {QUICK_RSS_CEILING_MB})",
        d.n_users(),
        cps,
        msgs,
        rss
    );
    save_rows(vec![row_value(d.n_users(), 1, "uniform", cps, msgs, rss)]);
    assert!(
        rss < QUICK_RSS_CEILING_MB,
        "peak RSS {rss:.1} MiB exceeds the {QUICK_RSS_CEILING_MB} MiB ceiling — memory regression"
    );
}

/// Persists the rows where `scripts/compare_scale_baseline.py` reads them;
/// the table on stdout is the primary artifact, so a failed write only warns.
fn save_rows(rows: Vec<Value>) {
    let path = whatsup_bench::artifact("scale_engine");
    if let Err(e) = whatsup_bench::save_json_value(&path, &Value::Array(rows)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() {
    if let Ok(spec) = std::env::var("WHATSUP_SCALE_ONE_ROW") {
        if let Err(e) = run_one_row(&spec) {
            eprintln!("scale_engine row child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let t = whatsup_bench::start(
        "scale_engine",
        "single-run engine scaling across shard counts and workloads",
    );
    if std::env::var("WHATSUP_SCALE_QUICK").is_ok() {
        run_quick();
        whatsup_bench::finish("scale_engine", t);
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap: usize = std::env::var("WHATSUP_SCALE_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    println!("host parallelism: {cores} core(s); {CYCLES} cycles per run\n");
    println!(
        "{:>8} {:>8} {:>7} {:>12} {:>9} {:>12} {:>9}",
        "nodes", "workload", "shards", "cyc/s", "vs 1-sh", "messages", "rss MiB"
    );
    let mut rows = Vec::new();
    for &n in [1_000usize, 5_000, 20_000, 100_000, 1_000_000]
        .iter()
        .filter(|&&n| n <= cap)
    {
        let full_grid = n <= FULL_GRID_MAX_NODES;
        let shard_counts: &[usize] = if full_grid { &SHARD_COUNTS } else { &[1] };
        let n_workloads = if full_grid { 2 } else { 1 };
        for (w_name, _) in workloads().into_iter().take(n_workloads) {
            let mut baseline = 0.0f64;
            let mut baseline_msgs = 0u64;
            for &shards in shard_counts {
                let (n_users, secs, msgs, rss) = spawn_row(&format!("{n},{shards},{w_name}"));
                let cps = f64::from(CYCLES) / secs;
                if shards == 1 {
                    baseline = cps;
                    baseline_msgs = msgs;
                } else {
                    assert_eq!(
                        msgs, baseline_msgs,
                        "shard count changed the traffic — determinism broken"
                    );
                }
                let speedup = cps / baseline;
                println!(
                    "{:>8} {:>8} {:>7} {:>12.2} {:>8.2}x {:>12} {:>9.1}",
                    n_users, w_name, shards, cps, speedup, msgs, rss
                );
                rows.push(row_value(n_users, shards, w_name, cps, msgs, rss));
            }
            println!();
        }
    }
    save_rows(rows);
    whatsup_bench::finish("scale_engine", t);
}
