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
//! * `render` re-reads a report JSON written by `run`, exactly as `check`
//!   does, and renders its per-cycle `series` and resolved measurement
//!   `windows` as aligned text tables (the `whatsup-metrics` table format)
//!   — the human view of a report that was archived as JSON.
//! * `sweep` runs the scenario file across a `--shards` × `--fanouts`
//!   grid (`Runner::grid_sweep`: the same Runner path, cells in parallel
//!   on the workspace's one job pool), emitting one JSON row per cell
//!   (JSON Lines: `{"shards": …, "fanout": …, "report": …}`). Omitting
//!   `--fanouts` keeps the file's own protocol knob; omitting `--shards`
//!   sweeps only the file's shard count.
//! * `check` reads a report produced by `run` — the CI smoke test: the
//!   `schema_version` gate, then the one report schema (`Summary`, which
//!   `run` encodes; an unknown key is an error), then `Summary::validate`.
//!   Errors name the field's path. `--require-recovery` additionally fails
//!   unless at least one window carries recovery metrics.
//! * `echo` parses, validates and re-renders a scenario file in canonical
//!   form (round-trip check / formatter).

use serde::Json;
use std::process::ExitCode;
use whatsup_metrics::table::{f2, human_count};
use whatsup_metrics::TextTable;
use whatsup_sim::record::Series;
use whatsup_sim::{
    Protocol, Runner, ScenarioFile, Summary, Supervision, Transport, REPORT_SCHEMA_VERSION,
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

/// The arguments after a flag.
type Args<'a> = std::slice::Iter<'a, String>;

/// Walks a subcommand's arguments: returns its one operand and hands every
/// flag to `flag`, with `it` after the flag. `None` — a usage error — for
/// no or a second operand, or a flag `flag` rejects (`None`).
fn parse_args(
    args: &[String],
    mut flag: impl FnMut(&str, &mut Args) -> Option<()>,
) -> Option<String> {
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            flag(arg, &mut it)?;
        } else if path.replace(arg.clone()).is_some() {
            return None;
        }
    }
    path
}

/// A flag's value: the next argument, unless it is missing or a flag.
fn value(it: &mut Args) -> Option<String> {
    it.next().filter(|v| !v.starts_with("--")).cloned()
}

/// A flag's value, parsed as a number.
fn number<T: std::str::FromStr>(it: &mut Args) -> Option<T> {
    it.next()?.parse().ok()
}

/// A flag's value, parsed as a `1,2,4`-style comma list of non-negative
/// integers.
fn numbers(it: &mut Args) -> Option<Vec<usize>> {
    let parts: Vec<&str> = it
        .next()?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if parts.is_empty() {
        return None;
    }
    parts.iter().map(|p| p.parse::<usize>().ok()).collect()
}

/// One `sweep` output line: a grid cell and its report.
struct SweepRow {
    shards: usize,
    fanout: Option<usize>,
    report: Summary,
}

serde::json_codec! { struct SweepRow { shards, fanout, report } }

fn sweep(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut shard_counts: Option<Vec<usize>> = None;
    let mut fanouts: Vec<usize> = Vec::new();
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        "--shards" => numbers(it).map(|l| shard_counts = Some(l)),
        "--fanouts" => numbers(it).map(|l| fanouts = l),
        _ => None,
    });
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
        let row = SweepRow {
            shards: cell.shards,
            fanout: cell.report.fanout,
            report: cell.report.summary(),
        };
        rows.push_str(&row.to_json().to_string());
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
    let mut out = None;
    let mut shards = None;
    let mut worker = None;
    let mut transport_kind = None;
    let mut workers = None;
    let mut supervise = false;
    let mut max_restarts = None;
    let mut checkpoint_every = None;
    let mut protocol_override = None;
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        "--shards" => number(it).map(|n| shards = Some(n)),
        "--protocol" => value(it).map(|v| protocol_override = Some(v)),
        "--multiprocess" => value(it).map(|v| worker = Some(v)),
        "--transport" => value(it).map(|v| transport_kind = Some(v)),
        "--workers" => value(it).map(|v| workers = Some(v)),
        "--supervise" => {
            supervise = true;
            Some(())
        }
        "--max-restarts" => number(it).map(|n| max_restarts = Some(n)),
        "--checkpoint-every" => number(it)
            .filter(|&n| n > 0)
            .map(|n| checkpoint_every = Some(n)),
        _ => None,
    });
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
    let json = report.summary().to_json().pretty() + "\n";
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
    let mut out = None;
    let mut fanout = None;
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        "--fanout" => number(it).filter(|&f| f > 0).map(|f| fanout = Some(f)),
        _ => None,
    });
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

/// Reads a report written by `run`: its `schema_version` first (under
/// another version the rest of the shape cannot be trusted), then the one
/// [`Summary`] schema, unknown keys included, then what the types cannot
/// say ([`Summary::validate`]). Failures are reported here.
fn read_report(path: &str, require_recovery: bool) -> Result<Summary, ExitCode> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail("cannot read report", format!("{path}: {e}")))?;
    let value = serde::json::parse(&text).map_err(|e| fail("report is not valid JSON", e))?;
    let unsupported = match value.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == u64::from(REPORT_SCHEMA_VERSION) => None,
        Some(v) => Some(format!(
            "schema_version {v} is not supported — this binary reads v{REPORT_SCHEMA_VERSION}"
        )),
        None => Some(
            "missing schema_version — not a whatsup-sim report, or one predating the \
             versioned schema"
                .to_string(),
        ),
    };
    if let Some(e) = unsupported {
        return Err(fail("report schema", format!("{path}: {e}")));
    }
    let shape = |e: String| fail("report shape", format!("{path}: {e}"));
    let summary = Summary::from_json_exact(&value).map_err(|e| shape(e.to_string()))?;
    summary.validate(require_recovery).map_err(shape)?;
    Ok(summary)
}

fn render(args: &[String]) -> ExitCode {
    let mut out = None;
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        _ => None,
    });
    let Some(path) = path else { return usage() };
    let summary = match read_report(&path, false) {
        Ok(summary) => summary,
        Err(code) => return code,
    };
    let heading = format!("{} on {}", summary.protocol, summary.dataset);

    // Per-cycle series: one row per cycle, the columns as `run` wrote them.
    let mut header = vec!["cycle"];
    header.extend(Series::FIELDS);
    let mut series_table = TextTable::new(format!("{heading} — per-cycle series"), &header);
    let (counts, ratios) = summary.series.columns();
    let n_cycles = counts[0].len();
    for cycle in 0..n_cycles {
        let mut row = vec![cycle.to_string()];
        row.extend(counts.map(|c| c[cycle].to_string()));
        // The derived ratio columns are empty on quiet cycles.
        row.extend(ratios.map(|c| c[cycle].map_or_else(|| "-".into(), f2)));
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
    let dash = || "-".to_string();
    for w in &summary.windows {
        let r = w.recovery.as_ref();
        windows_table.row(&[
            w.name.clone(),
            format!("[{}, {})", w.from, w.until),
            w.items.to_string(),
            f2(w.scores.recall),
            f2(w.scores.precision),
            f2(w.scores.f1),
            human_count(w.news_sent as f64),
            human_count(w.gossip_sent as f64),
            r.map_or_else(dash, |r| f2(r.dip_depth)),
            r.and_then(|r| r.time_to_recover)
                .map_or_else(dash, |t| t.to_string()),
            r.map_or_else(dash, |r| r.messages_spent.to_string()),
        ]);
    }

    let text = format!("{}\n{}", series_table.render(), windows_table.render());
    let note = format!("{n_cycles} cycles, {} windows", summary.windows.len());
    emit(&text, out.as_deref(), &note)
}

fn check(args: &[String]) -> ExitCode {
    let mut require_recovery = false;
    let path = parse_args(args, |flag, _| match flag {
        "--require-recovery" => {
            require_recovery = true;
            Some(())
        }
        _ => None,
    });
    let Some(path) = path else { return usage() };
    let summary = match read_report(&path, require_recovery) {
        Ok(summary) => summary,
        Err(code) => return code,
    };
    let recoveries = summary.windows.iter().filter(|w| w.recovery.is_some());
    println!(
        "{path}: ok ({} windows, {} with recovery)",
        summary.windows.len(),
        recoveries.count()
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
