//! `whatsup-sim`: run a scenario file to a report JSON.
//!
//! ```text
//! whatsup-sim run <scenario.json> [--out <report.json>] [--shards N]
//!                 [--protocol anti-entropy]
//!                 [--multiprocess <sim-shard-worker path>]
//!                 [--transport socket --workers host:port,…]
//!                 [--supervise [--max-restarts N] [--checkpoint-every C]]
//! whatsup-sim compare <scenario.json> [--fanout F] [--out <table.txt>]
//! whatsup-sim render <report.json> [--out <table.txt>]
//! whatsup-sim sweep <scenario.json> [--shards N,N,…] [--fanouts F,F,…]
//!                   [--out <rows.jsonl>]
//! whatsup-sim check <report.json> [--require-recovery]
//! whatsup-sim echo <scenario.json>
//! ```
//!
//! * `run` executes the scenario (dataset recipe + protocol + config +
//!   scenario grammar — see the `whatsup_sim::scenario` module docs for the
//!   JSON schema) and writes the report summary JSON to `--out` (stdout by
//!   default). The summary carries a `schema_version`, the per-cycle
//!   series and the scenario's resolved measurement windows (recovery
//!   table included). Reports are a pure function of the file:
//!   bit-identical across `--shards` values and across the in-process,
//!   child-process and socket transports. `--transport socket` dials
//!   already-running `sim-shard-worker --listen` processes, one address
//!   per shard, in shard order — start the workers first, then the driver
//!   (see the engine module docs' "distributed topology" section). With an
//!   explicit `--shards N`, N must equal the worker count — a mismatch is
//!   a usage error caught before any dialing. `--supervise` (external
//!   transports only) turns worker crashes and hangs into checkpoint/replay
//!   recoveries: every `--checkpoint-every` cycles (default 5) each shard's
//!   state is snapshotted, and a failed worker is restarted — respawned
//!   child, or redialed address once a replacement listener takes it over —
//!   up to `--max-restarts` times per shard (default 3), with the run's
//!   report staying bit-identical to an undisturbed one (see the engine
//!   module docs' "supervision & recovery" section). `--protocol
//!   anti-entropy` overrides the file's protocol with the scuttlebutt
//!   anti-entropy engine (fanout taken from the file's protocol knob when
//!   it has one) — the quick way to replay a committed BEEP scenario under
//!   the alternative engine without editing the file.
//! * `compare` runs the scenario file twice — once under the file's own
//!   protocol and once under anti-entropy at the same fanout (or
//!   `--fanout`) — and renders one side-by-side text-table row per
//!   protocol: messages sent, recall/precision/F1 and time-to-recover
//!   (from the first recovery window). This is the head-to-head the
//!   anti-entropy engine exists for.
//! * `render` re-reads a report JSON written by `run` and renders its
//!   per-cycle `series` and resolved measurement `windows` as aligned
//!   text tables (the `whatsup-metrics` table format) — the human view of
//!   a report that was archived as JSON.
//! * `sweep` runs the scenario file across a `--shards` × `--fanouts`
//!   grid (`Runner::grid_sweep`: the same Runner path, cells in parallel
//!   on the workspace's one job pool), emitting one JSON row per cell
//!   (JSON Lines: `{"shards": …, "fanout": …, "report": …}`). Omitting
//!   `--fanouts` keeps the file's own protocol knob; omitting `--shards`
//!   sweeps only the file's shard count.
//! * `check` parses a report produced by `run`, validates its
//!   `schema_version` and verifies its shape (headline numbers, series
//!   columns, windows table) — the CI smoke test. `--require-recovery`
//!   additionally fails unless at least one window carries recovery
//!   metrics.
//! * `echo` parses, validates and re-renders a scenario file in canonical
//!   form (round-trip check / formatter).

use serde::Json;
use std::process::ExitCode;
use whatsup_metrics::table::{f2, human_count};
use whatsup_metrics::TextTable;
use whatsup_sim::{
    Protocol, Runner, ScenarioFile, Supervision, Transport, REPORT_SCHEMA_VERSION, SERIES_COLUMNS,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  whatsup-sim run <scenario.json> [--out <report.json>] [--shards N] \
         [--protocol anti-entropy] [--multiprocess <worker>] \
         [--transport in-process|process|socket] \
         [--workers host:port,...] [--supervise [--max-restarts N] [--checkpoint-every C]]\n  \
         whatsup-sim compare <scenario.json> [--fanout F] [--out <table.txt>]\n  \
         whatsup-sim render <report.json> [--out <table.txt>]\n  \
         whatsup-sim sweep <scenario.json> [--shards N,N,...] \
         [--fanouts F,F,...] [--out <rows.jsonl>]\n  whatsup-sim check <report.json> \
         [--require-recovery]\n  whatsup-sim echo <scenario.json>"
    );
    ExitCode::from(2)
}

fn fail(what: &str, err: impl std::fmt::Display) -> ExitCode {
    eprintln!("whatsup-sim: {what}: {err}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("render") => render(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("echo") => echo(&args[1..]),
        _ => usage(),
    }
}

/// Folds the `--transport` / `--multiprocess` / `--workers` flags into one
/// [`Transport`], rejecting contradictory combinations.
fn resolve_transport(
    kind: Option<String>,
    worker: Option<String>,
    workers: Option<String>,
    shards: Option<usize>,
) -> Result<Transport, String> {
    // `--multiprocess <path>` keeps working as a shorthand for
    // `--transport process` with the worker path attached.
    let kind = match (kind.as_deref(), &worker) {
        (None, Some(_)) => "process",
        (Some(k), _) => k,
        (None, None) => "in-process",
    };
    match kind {
        "in-process" => {
            if workers.is_some() {
                return Err("--workers only applies to --transport socket".into());
            }
            if worker.is_some() {
                return Err("--multiprocess conflicts with --transport in-process".into());
            }
            Ok(Transport::InProcess)
        }
        "process" => {
            if workers.is_some() {
                return Err("--workers only applies to --transport socket".into());
            }
            let worker = worker.ok_or("--transport process needs --multiprocess <worker path>")?;
            Ok(Transport::Process(worker.into()))
        }
        "socket" => {
            if worker.is_some() {
                return Err("--multiprocess conflicts with --transport socket".into());
            }
            let list = workers.ok_or("--transport socket needs --workers host:port,...")?;
            let list = Transport::parse_workers(&list)?;
            // The shard count *is* the worker count on the socket
            // transport; an explicit --shards must agree. Caught here, so
            // a mismatched invocation fails before any worker is dialed.
            if let Some(n) = shards {
                if n != list.len() {
                    return Err(format!(
                        "--shards {n} does not match the {} --workers address(es) — on \
                         --transport socket the shard count is the worker count (drop \
                         --shards or pass one address per shard)",
                        list.len()
                    ));
                }
            }
            Ok(Transport::Socket(list))
        }
        other => Err(format!(
            "unknown transport '{other}' (expected in-process, process or socket)"
        )),
    }
}

fn load(path: &str) -> Result<ScenarioFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScenarioFile::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a scenario file and runs every validation that needs the dataset
/// size — shared by `run` and `sweep`.
fn load_for_run(path: &str) -> Result<(ScenarioFile, whatsup_datasets::Dataset), String> {
    let file = load(path)?;
    file.scenario
        .validate_for_global(&file.protocol)
        .map_err(|e| format!("{path}: {e}"))?;
    let dataset = file.dataset.build();
    // Event node ids can only be range-checked once the dataset size is
    // known — catch them here instead of panicking mid-run.
    file.scenario
        .validate_events(dataset.n_users())
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((file, dataset))
}

/// Maps a `--protocol` override name onto a [`Protocol`], inheriting the
/// scenario file's fanout knob where the override needs one.
fn parse_protocol_override(name: &str, file_protocol: Protocol) -> Result<Protocol, String> {
    match name {
        "anti-entropy" | "anti_entropy" => Ok(Protocol::AntiEntropy {
            fanout: file_protocol.fanout().unwrap_or(3),
        }),
        other => Err(format!(
            "unknown protocol override '{other}' (supported: anti-entropy)"
        )),
    }
}

/// Writes `text` to `out` (or stdout when `None`), treating a broken pipe
/// as a normal end of consumption. `note` is logged to stderr on a
/// successful file write.
fn emit(text: &str, out: Option<&str>, note: &str) -> ExitCode {
    match out {
        None => {
            use std::io::Write;
            let mut stdout = std::io::stdout();
            match stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => fail("cannot write to stdout", e),
            }
        }
        Some(out) => match std::fs::write(out, text) {
            Ok(()) => {
                eprintln!("wrote {out}: {note}");
                ExitCode::SUCCESS
            }
            Err(e) => fail("cannot write output", format!("{out}: {e}")),
        },
    }
}

/// Parses a `--shards 1,2,4`-style comma list of non-negative integers.
fn parse_usize_list(list: &str) -> Option<Vec<usize>> {
    let parts: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if parts.is_empty() {
        return None;
    }
    parts.iter().map(|p| p.parse::<usize>().ok()).collect()
}

fn sweep(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out = None;
    let mut shard_counts: Option<Vec<usize>> = None;
    let mut fanouts: Vec<usize> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) if !v.starts_with("--") => out = Some(v.clone()),
                _ => return usage(),
            },
            "--shards" => match it.next().and_then(|v| parse_usize_list(v)) {
                Some(list) => shard_counts = Some(list),
                None => return usage(),
            },
            "--fanouts" => match it.next().and_then(|v| parse_usize_list(v)) {
                Some(list) => fanouts = list,
                None => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let (file, dataset) = match load_for_run(&path) {
        Ok(loaded) => loaded,
        Err(e) => return fail("invalid scenario", e),
    };
    // A fanout axis on a knob-less protocol would silently run identical
    // cells — reject it instead.
    if !fanouts.is_empty() && file.protocol.fanout().is_none() {
        return fail(
            "invalid sweep",
            format!(
                "{}: protocol {} has no fanout knob — drop --fanouts",
                path,
                file.protocol.label()
            ),
        );
    }
    // Every fanout's protocol knobs pass the same checks as the file's
    // own, view-size capacity guard included, before the first cell runs.
    for &f in &fanouts {
        if let Err(e) = file.config.validate_protocol(&file.protocol.with_fanout(f)) {
            return fail("invalid sweep", format!("--fanouts {f}: {e}"));
        }
    }
    // No --shards axis = the file's own shard count, a 1×F grid.
    let shard_counts = shard_counts.unwrap_or_else(|| vec![file.config.shards]);
    let cells = Runner::new(&dataset, file.protocol)
        .config(file.config.clone())
        .scenario(file.scenario.clone())
        .grid_sweep(&shard_counts, &fanouts);
    // JSON Lines: one compact row per grid cell, in grid order.
    let mut rows = String::new();
    for cell in &cells {
        use serde::json::Value;
        let row = Value::object(vec![
            ("shards", Value::Number(cell.shards as f64)),
            (
                "fanout",
                cell.report
                    .fanout
                    .map(|f| Value::Number(f as f64))
                    .unwrap_or(Value::Null),
            ),
            ("report", cell.report.summary_json()),
        ]);
        rows.push_str(&row.to_string());
        rows.push('\n');
    }
    let note = format!(
        "{} rows ({} shard counts × {} fanouts)",
        cells.len(),
        shard_counts.len(),
        fanouts.len().max(1)
    );
    emit(&rows, out.as_deref(), &note)
}

fn run(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out = None;
    let mut shards = None;
    let mut worker = None;
    let mut transport_kind = None;
    let mut workers = None;
    let mut supervise = false;
    let mut max_restarts = None;
    let mut checkpoint_every = None;
    let mut protocol_override = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) if !v.starts_with("--") => out = Some(v.clone()),
                _ => return usage(),
            },
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = Some(n),
                None => return usage(),
            },
            "--protocol" => match it.next() {
                Some(v) if !v.starts_with("--") => protocol_override = Some(v.clone()),
                _ => return usage(),
            },
            "--multiprocess" => match it.next() {
                Some(v) if !v.starts_with("--") => worker = Some(v.clone()),
                _ => return usage(),
            },
            "--transport" => match it.next() {
                Some(v) if !v.starts_with("--") => transport_kind = Some(v.clone()),
                _ => return usage(),
            },
            "--workers" => match it.next() {
                Some(v) if !v.starts_with("--") => workers = Some(v.clone()),
                _ => return usage(),
            },
            "--supervise" => supervise = true,
            "--max-restarts" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => max_restarts = Some(n),
                None => return usage(),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n > 0 => checkpoint_every = Some(n),
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let transport = match resolve_transport(transport_kind, worker, workers, shards) {
        Ok(t) => t,
        Err(e) => return fail("invalid transport", e),
    };
    if (max_restarts.is_some() || checkpoint_every.is_some()) && !supervise {
        return fail(
            "invalid transport",
            "--max-restarts/--checkpoint-every need --supervise",
        );
    }
    if supervise && transport == Transport::InProcess {
        return fail(
            "invalid transport",
            "--supervise needs an external transport (--multiprocess or --transport socket) — \
             in-process shards have no workers to restart",
        );
    }
    let (file, dataset) = match load_for_run(&path) {
        Ok(loaded) => loaded,
        Err(e) => return fail("invalid scenario", e),
    };
    let protocol = match protocol_override.as_deref() {
        None => file.protocol,
        Some(name) => match parse_protocol_override(name, file.protocol) {
            Ok(p) => p,
            Err(e) => return fail("invalid protocol override", e),
        },
    };
    // On the socket transport the shard count *is* the worker count.
    let requested_shards = match &transport {
        Transport::Socket(workers) => workers.len(),
        _ => shards.unwrap_or(file.config.shards),
    };
    let mut runner = Runner::new(&dataset, protocol)
        .config(file.config.clone())
        .scenario(file.scenario.clone())
        .transport(transport);
    if supervise {
        let defaults = Supervision::default();
        runner = runner.supervised(
            max_restarts.unwrap_or(defaults.max_restarts),
            checkpoint_every.unwrap_or(defaults.checkpoint_every),
        );
    }
    if let Some(n) = shards {
        runner = runner.shards(n);
    }
    let report = match runner.try_run() {
        Ok(report) => report,
        Err(e) => return fail("run failed", e),
    };
    // One-line run summary (stderr, never part of the report): peak RSS
    // and where the nodes ended up. Shard counts live here and not in the
    // report because the report is byte-identical across shard counts.
    let shard_counts = whatsup_sim::engine::planned_shard_node_counts(
        dataset.n_users(),
        requested_shards,
        &file.scenario,
    );
    eprintln!(
        "run: {} cycles, {} messages, peak rss {:.1} MiB, {} shard(s) with {:?} nodes",
        report.cycles,
        report.news_messages_all + report.gossip_messages,
        peak_rss_mb(),
        shard_counts.len(),
        shard_counts
    );
    let json = report.summary_json().pretty() + "\n";
    let note = format!(
        "{} on {} ({} nodes, F1 {:.3}, {} windows)",
        report.protocol,
        report.dataset,
        report.n_nodes,
        report.scores().f1,
        report.windows.len()
    );
    emit(&json, out.as_deref(), &note)
}

/// One `compare` table row: traffic, scores and recovery speed of a
/// finished report. Time-to-recover comes from the first window carrying
/// recovery metrics — `-` when the scenario declares none, `never` when
/// recall did not climb back within the run.
fn comparison_row(report: &whatsup_sim::SimReport) -> Vec<String> {
    let s = report.scores();
    let messages = report.news_messages_all + report.gossip_messages;
    let ttr = report
        .windows
        .iter()
        .find_map(|w| w.recovery.as_ref())
        .map_or_else(
            || "-".to_string(),
            |r| {
                r.time_to_recover()
                    .map_or_else(|| "never".to_string(), |t| t.to_string())
            },
        );
    vec![
        report.protocol.clone(),
        human_count(messages as f64),
        human_count(report.news_messages_all as f64),
        human_count(report.gossip_messages as f64),
        f2(s.recall),
        f2(s.precision),
        f2(s.f1),
        ttr,
    ]
}

fn compare(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out = None;
    let mut fanout = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) if !v.starts_with("--") => out = Some(v.clone()),
                _ => return usage(),
            },
            "--fanout" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(f) if f > 0 => fanout = Some(f),
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let (file, dataset) = match load_for_run(&path) {
        Ok(loaded) => loaded,
        Err(e) => return fail("invalid scenario", e),
    };
    if matches!(file.protocol, Protocol::AntiEntropy { .. }) {
        return fail(
            "invalid comparison",
            format!(
                "{path}: the file's protocol already is anti-entropy — point compare at the \
                 scenario's BEEP/gossip form"
            ),
        );
    }
    // The anti-entropy side runs at the file protocol's fanout unless
    // --fanout overrides it, so the head-to-head is knob-for-knob fair.
    let anti = Protocol::AntiEntropy {
        fanout: fanout.or(file.protocol.fanout()).unwrap_or(3),
    };
    let run_one = |protocol: Protocol| {
        Runner::new(&dataset, protocol)
            .config(file.config.clone())
            .scenario(file.scenario.clone())
            .try_run()
    };
    let baseline = match run_one(file.protocol) {
        Ok(report) => report,
        Err(e) => return fail("baseline run failed", e),
    };
    let anti_report = match run_one(anti) {
        Ok(report) => report,
        Err(e) => return fail("anti-entropy run failed", e),
    };
    let mut table = TextTable::new(
        format!(
            "{} vs {} on {} ({} nodes, {} cycles)",
            baseline.protocol,
            anti_report.protocol,
            baseline.dataset,
            baseline.n_nodes,
            baseline.cycles
        ),
        &[
            "Protocol",
            "Messages",
            "News",
            "Gossip",
            "Recall",
            "Precision",
            "F1",
            "TimeToRecover",
        ],
    );
    table.row(&comparison_row(&baseline));
    table.row(&comparison_row(&anti_report));
    emit(&table.render(), out.as_deref(), "comparison table (2 rows)")
}

fn render(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) if !v.starts_with("--") => out = Some(v.clone()),
                _ => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let path = path.as_str();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail("cannot read report", format!("{path}: {e}")),
    };
    let value = match serde::json::parse(&text) {
        Ok(value) => value,
        Err(e) => return fail("report is not valid JSON", e),
    };
    match value.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == u64::from(REPORT_SCHEMA_VERSION) => {}
        _ => {
            return fail(
                "report schema",
                format!(
                    "{path}: missing or unsupported schema_version — this binary renders \
                     v{REPORT_SCHEMA_VERSION} reports (produce one with whatsup-sim run)"
                ),
            )
        }
    }
    let str_of = |key: &str| {
        value
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let heading = format!("{} on {}", str_of("protocol"), str_of("dataset"));

    // Per-cycle series: one row per cycle, the columns exactly as `run`
    // wrote them (and `check` validates them).
    let mut header = vec!["cycle"];
    header.extend(SERIES_COLUMNS);
    let mut series_table = TextTable::new(format!("{heading} — per-cycle series"), &header);
    let series = value.get("series");
    let column = |key: &str| {
        series
            .and_then(|s| s.get(key))
            .and_then(|c| c.as_array())
            .map(<[serde::json::Value]>::to_vec)
            .unwrap_or_default()
    };
    let columns: Vec<(&str, Vec<serde::json::Value>)> = SERIES_COLUMNS
        .iter()
        .map(|key| (*key, column(key)))
        .collect();
    let n_cycles = columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for cycle in 0..n_cycles {
        let mut row = vec![cycle.to_string()];
        for (key, cells) in &columns {
            row.push(match cells.get(cycle).and_then(|v| v.as_f64()) {
                // The derived ratio columns are null on quiet cycles.
                None => "-".to_string(),
                Some(x) if matches!(*key, "recall" | "precision") => f2(x),
                Some(x) => format!("{x:.0}"),
            });
        }
        series_table.row(&row);
    }

    // Measurement windows, recovery metrics inline.
    let mut windows_table = TextTable::new(
        format!("{heading} — measurement windows"),
        &[
            "Window",
            "Cycles",
            "Items",
            "Recall",
            "Precision",
            "F1",
            "News",
            "Gossip",
            "DipDepth",
            "TimeToRecover",
            "MessagesSpent",
        ],
    );
    let windows = value
        .get("windows")
        .and_then(|w| w.as_array())
        .map(<[serde::json::Value]>::to_vec)
        .unwrap_or_default();
    for w in &windows {
        let num = |key: &str| w.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let score = |key: &str| {
            w.get("scores")
                .and_then(|s| s.get(key))
                .and_then(|v| v.as_f64())
                .map_or_else(|| "-".to_string(), f2)
        };
        let recovery = w
            .get("recovery")
            .filter(|r| !matches!(r, serde::json::Value::Null));
        let rec_num = |key: &str| {
            recovery
                .and_then(|r| r.get(key))
                .and_then(|v| v.as_f64())
                .map_or_else(|| "-".to_string(), |x| format!("{x:.0}"))
        };
        let dip = recovery
            .and_then(|r| r.get("dip_depth"))
            .and_then(|v| v.as_f64())
            .map_or_else(|| "-".to_string(), f2);
        windows_table.row(&[
            w.get("name")
                .and_then(|n| n.as_str())
                .unwrap_or("?")
                .to_string(),
            format!("[{:.0}, {:.0})", num("from"), num("until")),
            format!("{:.0}", num("items")),
            score("recall"),
            score("precision"),
            score("f1"),
            human_count(num("news_sent")),
            human_count(num("gossip_sent")),
            dip,
            rec_num("time_to_recover"),
            rec_num("messages_spent"),
        ]);
    }

    let text = format!("{}\n{}", series_table.render(), windows_table.render());
    let note = format!("{n_cycles} cycles, {} windows", windows.len());
    emit(&text, out.as_deref(), &note)
}

fn check(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut require_recovery = false;
    for arg in args {
        match arg.as_str() {
            "--require-recovery" => require_recovery = true,
            flag if flag.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let path = path.as_str();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail("cannot read report", format!("{path}: {e}")),
    };
    let value = match serde::json::parse(&text) {
        Ok(value) => value,
        Err(e) => return fail("report is not valid JSON", e),
    };
    // Schema version gates everything else: an unknown version means the
    // rest of the shape cannot be trusted, so reject it with a clean error
    // instead of a cascade of shape violations.
    match value.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == u64::from(REPORT_SCHEMA_VERSION) => {}
        Some(v) => {
            return fail(
                "report schema",
                format!(
                    "{path}: schema_version {v} is not supported — this binary \
                     reads v{REPORT_SCHEMA_VERSION}"
                ),
            )
        }
        None => {
            return fail(
                "report schema",
                format!(
                    "{path}: missing schema_version — not a whatsup-sim report, \
                     or one predating the versioned schema"
                ),
            )
        }
    }
    // The summary shape `run` promises: every key a downstream consumer
    // (CI, dashboards) relies on, with sane ranges.
    let scores = value.get("scores");
    let checks: [(&str, bool); 6] = [
        (
            "protocol is a string",
            value.get("protocol").and_then(|v| v.as_str()).is_some(),
        ),
        (
            "dataset is a string",
            value.get("dataset").and_then(|v| v.as_str()).is_some(),
        ),
        (
            "n_nodes is a positive number",
            value
                .get("n_nodes")
                .and_then(|v| v.as_u64())
                .is_some_and(|n| n > 0),
        ),
        (
            "cycles is a positive number",
            value
                .get("cycles")
                .and_then(|v| v.as_u64())
                .is_some_and(|n| n > 0),
        ),
        (
            "scores.{precision,recall,f1} are probabilities",
            scores.is_some_and(|s| {
                ["precision", "recall", "f1"].iter().all(|k| {
                    s.get(k)
                        .and_then(|v| v.as_f64())
                        .is_some_and(|x| (0.0..=1.0).contains(&x))
                })
            }),
        ),
        (
            "message counters are numbers",
            ["news_messages", "news_messages_all", "gossip_messages"]
                .iter()
                .all(|k| value.get(k).and_then(|v| v.as_f64()).is_some()),
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            return fail("report shape", format!("{path}: {what} — violated"));
        }
    }
    // Per-cycle series: every column an equally long array of numbers (the
    // derived recall/precision columns allow null on quiet cycles).
    let Some(series) = value.get("series") else {
        return fail("report shape", format!("{path}: series object missing"));
    };
    let mut column_len = None;
    for key in SERIES_COLUMNS {
        let Some(column) = series.get(key).and_then(|c| c.as_array()) else {
            return fail(
                "report shape",
                format!("{path}: series.{key} is not an array"),
            );
        };
        if *column_len.get_or_insert(column.len()) != column.len() {
            return fail(
                "report shape",
                format!("{path}: series.{key} length differs from its siblings"),
            );
        }
        if !column
            .iter()
            .all(|v| v.as_f64().is_some() || matches!(v, serde::json::Value::Null))
        {
            return fail(
                "report shape",
                format!("{path}: series.{key} holds a non-number"),
            );
        }
    }
    // Measurement windows: named, cycle-ranged, with probability scores;
    // recovery is null or a metrics object.
    let Some(windows) = value.get("windows").and_then(|w| w.as_array()) else {
        return fail("report shape", format!("{path}: windows array missing"));
    };
    let mut recoveries = 0usize;
    for w in windows {
        let name = w.get("name").and_then(|n| n.as_str());
        let Some(name) = name.filter(|n| !n.is_empty()) else {
            return fail(
                "report shape",
                format!("{path}: window without a non-empty name"),
            );
        };
        let shaped = w.get("from").and_then(|v| v.as_u64()).is_some()
            && w.get("until").and_then(|v| v.as_u64()).is_some()
            && w.get("scores").is_some_and(|s| {
                ["precision", "recall", "f1"].iter().all(|k| {
                    s.get(k)
                        .and_then(|v| v.as_f64())
                        .is_some_and(|x| (0.0..=1.0).contains(&x))
                })
            });
        if !shaped {
            return fail(
                "report shape",
                format!("{path}: window {name:?} is missing cycles or scores"),
            );
        }
        match w.get("recovery") {
            Some(serde::json::Value::Null) | None => {}
            Some(r) => {
                let shaped = ["anchor", "baseline_recall", "dip_depth", "messages_spent"]
                    .iter()
                    .all(|k| r.get(k).and_then(|v| v.as_f64()).is_some());
                if !shaped {
                    return fail(
                        "report shape",
                        format!("{path}: window {name:?} has a malformed recovery block"),
                    );
                }
                recoveries += 1;
            }
        }
    }
    if require_recovery && recoveries == 0 {
        return fail(
            "report shape",
            format!("{path}: no window carries recovery metrics (--require-recovery)"),
        );
    }
    println!(
        "{path}: ok ({} windows, {recoveries} with recovery)",
        windows.len()
    );
    ExitCode::SUCCESS
}

/// The process's peak resident set in MiB (`VmHWM`, Linux); 0 elsewhere.
/// On the external transports this covers the driver process only — the
/// shard workers account for their own memory.
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

fn echo(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match load(path) {
        Ok(file) => {
            println!("{}", file.to_json().pretty());
            ExitCode::SUCCESS
        }
        Err(e) => fail("invalid scenario", e),
    }
}
