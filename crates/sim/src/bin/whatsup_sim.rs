//! `whatsup-sim`: run a scenario file to a report JSON.
//!
//! ```text
//! whatsup-sim run <scenario.json> [--out <report.json>] [--shards N]
//!                 [--multiprocess <sim-shard-worker path> | --workers host:port,…]
//!                 [--supervise [--max-restarts N] [--checkpoint-every C]]
//! whatsup-sim render <report.json | rows.jsonl> [--out <table.txt>]
//! whatsup-sim sweep <scenario.json> [--protocols file,KIND,…] [--shards N,N,…]
//!                   [--fanouts F,F,…] [--out <rows.jsonl>]
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
//!   child-process (`--multiprocess`) and socket (`--workers`) transports.
//!   `--workers` dials already-running `sim-shard-worker --listen`
//!   processes, one address per shard, in shard order — start the workers
//!   first, then the driver (see the engine module docs' "distributed
//!   topology" section); a shard count other than 1 or the worker count
//!   is refused before any dialing. `--supervise` (external
//!   transports only) turns worker crashes and hangs into checkpoint/replay
//!   recoveries: every `--checkpoint-every` cycles (default 5) each shard's
//!   state is snapshotted, and a failed worker is restarted — respawned
//!   child, or redialed address once a replacement listener takes it over —
//!   up to `--max-restarts` times per shard (default 3), with the run's
//!   report staying bit-identical to an undisturbed one (see the engine
//!   module docs' "supervision & recovery" section). A file names one
//!   protocol; `sweep` is the way to run it under another.
//! * `render` re-reads a report JSON written by `run`, exactly as `check`
//!   does, and renders its per-cycle `series` and resolved measurement
//!   `windows` as aligned text tables (the `whatsup-metrics` table format)
//!   — the human view of a report that was archived as JSON. Given the
//!   rows `sweep` wrote, it renders them side by side instead, one table
//!   row per cell: messages sent, recall/precision/F1 and time-to-recover
//!   (from the first recovery window).
//! * `sweep` runs the scenario file across a `--protocols` × `--shards` ×
//!   `--fanouts` grid (`Runner::grid_sweep`: cells in parallel on the
//!   workspace's one job pool), emitting one JSON row per cell (JSON Lines:
//!   `{"report": …, "shards": …}`). A `--protocols` entry is `file` (the
//!   file's own protocol) or a protocol `"kind"` of the scenario grammar
//!   at the file protocol's fanout knob, or the first `--fanouts` value.
//!   An omitted axis keeps the file's own protocol, shard count or knob.
//! * `check` reads a report produced by `run` — the CI smoke test: the
//!   `schema_version` gate, then the one report schema (`Summary`, which
//!   `run` encodes; an unknown key is an error), then `Summary::validate`.
//!   Errors name the field's path. `--require-recovery` additionally fails
//!   unless at least one window carries recovery metrics.
//! * `echo` parses, validates and re-renders a scenario file in canonical
//!   form (round-trip check / formatter).
//!
//! The CLI checks its flags only: the library refuses a file or a run
//! (`ScenarioFile::from_json_str`, then the `Runner`), and the CLI prints
//! the refusal as one stderr line, exit 1.

use serde::json::Value;
use serde::Json;
use std::process::ExitCode;
use whatsup_metrics::table::{f2, human_count};
use whatsup_metrics::TextTable;
use whatsup_sim::record::Series;
use whatsup_sim::{
    Protocol, Runner, ScenarioFile, SimConfig, Summary, Supervision, Transport,
    REPORT_SCHEMA_VERSION,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  whatsup-sim run <scenario.json> [--out <report.json>] [--shards N] \
         [--multiprocess <worker> | --workers host:port,...] \
         [--supervise [--max-restarts N] [--checkpoint-every C]]\n  \
         whatsup-sim render <report.json | rows.jsonl> [--out <table.txt>]\n  \
         whatsup-sim sweep <scenario.json> [--protocols file,KIND,...] [--shards N,N,...] \
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
        Some("render") => render(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("echo") => echo(&args[1..]),
        _ => usage(),
    }
}

fn load(path: &str) -> Result<ScenarioFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScenarioFile::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// A `--protocols` entry: `file` is the file's own protocol, any other a
/// protocol `"kind"` of the scenario grammar, read by the grammar's codec
/// at `fanout` under each of the grammar's knob names (a kind reads the
/// one it has, if any).
fn named_protocol(name: &str, file: Protocol, fanout: Option<usize>) -> Result<Protocol, String> {
    if name == "file" {
        return Ok(file);
    }
    let mut fields = vec![("kind", name.to_string().to_json())];
    if let Some(f) = fanout {
        fields.extend(["f_like", "k", "fanout"].map(|knob| (knob, f.to_json())));
    }
    let protocol = Protocol::from_json(&Value::object(fields));
    protocol.map_err(|e| format!("{name}: {e}"))
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

/// The trimmed, non-empty items of an `a, b,c`-style comma list.
fn items(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// A flag's value, parsed as a `1,2,4`-style comma list of non-negative
/// integers.
fn numbers(it: &mut Args) -> Option<Vec<usize>> {
    let parts = items(it.next()?);
    if parts.is_empty() {
        return None;
    }
    parts.iter().map(|p| p.parse::<usize>().ok()).collect()
}

/// A `--workers host:port,host:port,…` list: one address per shard.
fn parse_workers(list: &str) -> Result<Vec<String>, String> {
    let workers = items(list);
    if workers.is_empty() {
        return Err("worker list is empty".into());
    }
    for w in &workers {
        if !w.contains(':') {
            return Err(format!("worker address '{w}' is not host:port"));
        }
    }
    Ok(workers)
}

/// One `sweep` output line: a grid cell's shard count and its report,
/// which names the cell's protocol and fanout.
struct SweepRow {
    shards: usize,
    report: Summary,
}

serde::json_codec! { struct SweepRow { shards, report } }

fn sweep(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut kinds: Vec<String> = Vec::new();
    let mut shard_counts: Vec<usize> = Vec::new();
    let mut fanouts: Vec<usize> = Vec::new();
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        "--protocols" => value(it).map(|v| kinds = items(&v)),
        "--shards" => numbers(it).map(|l| shard_counts = l),
        "--fanouts" => numbers(it).map(|l| fanouts = l),
        _ => None,
    });
    let Some(path) = path else { return usage() };
    let file = match load(&path) {
        Ok(file) => file,
        Err(e) => return fail("invalid scenario", e),
    };
    let fanout = fanouts.first().copied().or(file.protocol.fanout());
    let protocols: Result<Vec<Protocol>, String> = (kinds.iter())
        .map(|name| named_protocol(name, file.protocol, fanout))
        .collect();
    let protocols = match protocols {
        Ok(protocols) => protocols,
        Err(e) => return fail("invalid protocol", e),
    };
    let dataset = file.dataset.build();
    let swept = Runner::new(&dataset, file.protocol)
        .config(file.config)
        .scenario(file.scenario)
        .grid_sweep(&protocols, &shard_counts, &fanouts);
    let cells = match swept {
        Ok(cells) => cells,
        Err(e) => return fail("sweep failed", e),
    };
    // JSON Lines: one compact row per grid cell, in grid order.
    let mut rows = String::new();
    for cell in &cells {
        let row = SweepRow {
            shards: cell.shards,
            report: cell.report.summary(),
        };
        rows.push_str(&row.to_json().to_string());
        rows.push('\n');
    }
    emit(&rows, out.as_deref(), &format!("{} rows", cells.len()))
}

fn run(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut shards = None;
    let mut worker = None;
    let mut workers = None;
    let mut supervise = false;
    let mut max_restarts = None;
    let mut checkpoint_every = None;
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        "--shards" => number(it).map(|n| shards = Some(n)),
        "--multiprocess" => value(it).map(|v| worker = Some(v)),
        "--workers" => value(it).map(|v| workers = Some(v)),
        "--supervise" => {
            supervise = true;
            Some(())
        }
        "--max-restarts" => number(it).map(|n| max_restarts = Some(n)),
        "--checkpoint-every" => number(it).map(|n| checkpoint_every = Some(n)),
        _ => None,
    });
    let Some(path) = path else { return usage() };
    let transport = match (worker, workers) {
        (None, None) => Transport::InProcess,
        (Some(worker), None) => Transport::Process(worker.into()),
        (None, Some(list)) => match parse_workers(&list) {
            Ok(list) => Transport::Socket(list),
            Err(e) => return fail("invalid transport", e),
        },
        (Some(_), Some(_)) => {
            return fail(
                "invalid transport",
                "--multiprocess and --workers name two transports",
            )
        }
    };
    if (max_restarts.is_some() || checkpoint_every.is_some()) && !supervise {
        return fail(
            "invalid transport",
            "--max-restarts/--checkpoint-every need --supervise",
        );
    }
    let file = match load(&path) {
        Ok(file) => file,
        Err(e) => return fail("invalid scenario", e),
    };
    let config = SimConfig {
        shards: shards.unwrap_or(file.config.shards),
        ..file.config.clone()
    };
    let dataset = file.dataset.build();
    let mut runner = Runner::new(&dataset, file.protocol)
        .config(config)
        .scenario(file.scenario.clone())
        .transport(transport);
    if supervise {
        let defaults = Supervision::default();
        runner = runner.supervision(Supervision::new(
            max_restarts.unwrap_or(defaults.max_restarts),
            checkpoint_every.unwrap_or(defaults.checkpoint_every),
        ));
    }
    let report = match runner.clone().try_run() {
        Ok(report) => report,
        Err(e) => return fail("run failed", e),
    };
    // One-line run summary (stderr, never part of the report): peak RSS
    // and where the nodes ended up. Shard counts live here and not in the
    // report because the report is byte-identical across shard counts.
    let shard_counts = runner.planned_shard_node_counts();
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

/// The text of the report file at `path`.
fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| fail("cannot read report", format!("{path}: {e}")))
}

/// Reads a report written by `run` to `path`, given its text: its
/// `schema_version` first (under another version the rest of the shape
/// cannot be trusted), then the one [`Summary`] schema, unknown keys
/// included, then what the types cannot say ([`Summary::validate`]).
/// Failures are reported here.
fn read_report(path: &str, text: &str, require_recovery: bool) -> Result<Summary, ExitCode> {
    let value = serde::json::parse(text).map_err(|e| fail("report is not valid JSON", e))?;
    summary(path, &value, require_recovery)
}

/// [`read_report`] on a report's parsed JSON; `at` names it in errors.
fn summary(at: &str, value: &Value, require_recovery: bool) -> Result<Summary, ExitCode> {
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
        return Err(fail("report schema", format!("{at}: {e}")));
    }
    let shape = |e: String| fail("report shape", format!("{at}: {e}"));
    let summary = Summary::from_json_exact(value).map_err(|e| shape(e.to_string()))?;
    summary.validate(require_recovery).map_err(shape)?;
    Ok(summary)
}

/// The rows `sweep` wrote to `path`, given its text, if its first line is
/// one: each row's report read as [`read_report`] reads a report.
/// `Ok(None)` for a file that is not sweep rows.
fn read_rows(path: &str, text: &str) -> Result<Option<Vec<SweepRow>>, ExitCode> {
    // A line and its report, if the line is an object holding one.
    let row = |line: &str| {
        let value = serde::json::parse(line).ok()?;
        let report = value.get("report")?.clone();
        Some((value, report))
    };
    if text.lines().next().and_then(row).is_none() {
        return Ok(None);
    }
    let rows = text.lines().enumerate().map(|(i, line)| {
        let at = format!("{path}:{}", i + 1);
        let (value, report) =
            row(line).ok_or_else(|| fail("sweep row", format!("{at}: not a row")))?;
        summary(&at, &report, false)?;
        SweepRow::from_json_exact(&value).map_err(|e| fail("sweep row", format!("{at}: {e}")))
    });
    rows.collect::<Result<_, _>>().map(Some)
}

/// The side-by-side table of a sweep's rows: one row per cell — traffic,
/// scores and the time-to-recover of its first recovery window (`-` when
/// the scenario declares none, `never` when recall did not climb back
/// within the run). A cell is named by its protocol, and by its fanout and
/// shard count too where another cell runs the same protocol.
fn side_by_side(rows: &[SweepRow]) -> String {
    // Grid order runs a protocol's cells one after another.
    let mut protocols: Vec<&str> = rows.iter().map(|r| r.report.protocol.as_str()).collect();
    protocols.dedup();
    let first = &rows[0].report;
    let mut table = TextTable::new(
        format!(
            "{} on {} ({} nodes, {} cycles)",
            protocols.join(" vs "),
            first.dataset,
            first.n_nodes,
            first.cycles
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
    for SweepRow { shards, report: r } in rows {
        let mut name = r.protocol.clone();
        let same_protocol = rows.iter().filter(|o| o.report.protocol == r.protocol);
        if same_protocol.count() > 1 {
            let fanout = r.fanout.map_or_else(String::new, |f| format!(" f={f}"));
            name = format!("{name}{fanout} shards={shards}");
        }
        let recovery = r.windows.iter().find_map(|w| w.recovery.as_ref());
        let ttr = match recovery.map(|r| r.time_to_recover) {
            None => "-".to_string(),
            Some(None) => "never".to_string(),
            Some(Some(t)) => t.to_string(),
        };
        table.row(&[
            name,
            human_count((r.news_messages_all + r.gossip_messages) as f64),
            human_count(r.news_messages_all as f64),
            human_count(r.gossip_messages as f64),
            f2(r.scores.recall),
            f2(r.scores.precision),
            f2(r.scores.f1),
            ttr,
        ]);
    }
    table.render()
}

fn render(args: &[String]) -> ExitCode {
    let mut out = None;
    let path = parse_args(args, |flag, it| match flag {
        "--out" => value(it).map(|v| out = Some(v)),
        _ => None,
    });
    let Some(path) = path else { return usage() };
    let text = match read(&path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    match read_rows(&path, &text) {
        Ok(Some(rows)) => {
            let note = format!("{} sweep cells side by side", rows.len());
            return emit(&side_by_side(&rows), out.as_deref(), &note);
        }
        Ok(None) => {}
        Err(code) => return code,
    }
    let summary = match read_report(&path, &text, false) {
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
    let report = read(&path).and_then(|text| read_report(&path, &text, require_recovery));
    let summary = match report {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_lists_parse_and_reject_junk() {
        assert_eq!(
            parse_workers("10.0.0.1:7000, 10.0.0.2:7000 ,localhost:9"),
            Ok(vec![
                "10.0.0.1:7000".to_string(),
                "10.0.0.2:7000".to_string(),
                "localhost:9".to_string(),
            ])
        );
        assert!(parse_workers("").is_err());
        assert!(parse_workers(" , ,").is_err());
        assert!(parse_workers("127.0.0.1:1,no-port").is_err());
    }
}
