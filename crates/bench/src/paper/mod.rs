//! The paper harness: every figure and table of the evaluation as one
//! table of jobs (paper §IV–V).
//!
//! [`TABLE`] maps an id (`fig3` … `fig11`, `table1` … `table6`,
//! `ablations`) to a title and a declaration, written once on a [`Board`]:
//! the **job grid** it reads (each [`Job`] a dataset × protocol × config ×
//! scenario, optionally with a stepped observation), the
//! **pins** it extracts from those jobs — named headline numbers, each with
//! a tolerance and, where the paper states one, the published value — and
//! the text of whatever its figure shows beyond them. The jobs of all
//! selected ids are collected, run once when equal (eight ids read the
//! survey / WhatsUp fLIKE=10 / paper-config run) through
//! [`whatsup_sim::Runner`] on [`whatsup_sim::pool_map`]; an id then renders
//! as its pins laid out `paper | measured` ([`Pin::key`] is `row.column`)
//! followed by its text.
//!
//! ```text
//! cargo bench -p whatsup_bench --bench paper -- [ids…] [--scale f]
//!                                               [--check FILE | --write FILE]
//! ```
//!
//! * no mode: render the selected ids (all by default) and save their pins
//!   as `target/experiments/paper.json`;
//! * `--write FILE`: record the pins of the selected ids (default: every id
//!   that pins something) — how `BENCH_paper.json` is made; a relative FILE
//!   is taken from the workspace root, here and under `--check`;
//! * `--check FILE`: re-run at the file's scale and print per key
//!   `baseline | fresh | tol`; exit 1 on a key out of band, missing or
//!   extra.
//!
//! `--scale` (default 0.35, 1.0 = the paper's populations) is the only
//! knob; the seed is fixed and every pin is a pure function of the scale,
//! whatever the core count or the load. The bands exist so that an intended
//! refactor may move a number a little, not to absorb noise.

mod table;

pub use table::TABLE;

use crate::save_json_value;
use serde::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use whatsup_datasets::{paper_workloads, survey, Dataset, SurveyConfig};
use whatsup_metrics::table::human_count;
use whatsup_metrics::{IrScores, TextTable};
use whatsup_sim::analysis::{self, OverlayStats};
use whatsup_sim::scenario::Scenario;
use whatsup_sim::{pool_map, Protocol, Runner, SimConfig, SimReport};

/// Base seed of every dataset and run.
pub const SEED: u64 = 0x0057_ab1e_5eed;
/// The scale `BENCH_paper.json` is recorded at: every qualitative
/// relationship of the paper holds, and the full table runs in ~1.5 min.
pub const DEFAULT_SCALE: f64 = 0.35;

const NOTE: &str = "Headline numbers of `cargo bench -p whatsup_bench --bench paper`. \
    Deterministic: every value is a pure function of (scale, seed), independent of core \
    count, load and wall-clock, so a re-run reproduces it exactly. The tol bands leave room \
    for intended refactors, not for noise; re-record with `-- --write BENCH_paper.json` when \
    a change means to move a value.";

/// The workloads of Table I in [`paper_workloads`] order, plus the
/// 245-user survey slice of the paper's deployment (Fig. 8), scaled like
/// the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Synthetic,
    Digg,
    Survey,
    Survey245,
}

/// What a run is a function of besides its [`Job`]: the scale, and the
/// datasets generated at it (once, on first use).
#[derive(Debug)]
pub struct Ctx {
    pub scale: f64,
    workloads: OnceLock<Vec<Dataset>>,
    survey245: OnceLock<Dataset>,
}

impl Ctx {
    pub fn new(scale: f64) -> Self {
        Self {
            scale,
            workloads: OnceLock::new(),
            survey245: OnceLock::new(),
        }
    }

    pub fn data(&self, which: Data) -> &Dataset {
        let workloads = || paper_workloads(self.scale, SEED);
        match which {
            // The paper's testbed held 245 of the survey's 480 users, on a
            // shorter trace (§V-D: "5 news items per cycle").
            Data::Survey245 => self.survey245.get_or_init(|| {
                let mut population = SurveyConfig::paper().scaled(245.0 / 480.0 * self.scale);
                population.base_items = (population.base_items / 7).max(10);
                survey::generate(&population, SEED ^ 0x5eed_0002)
            }),
            table1 => &self.workloads.get_or_init(workloads)[table1 as usize],
        }
    }
}

/// What a job measures besides its final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing: run to completion.
    Report,
    /// The WUP overlay's topology after the last cycle (Fig. 4).
    Overlay,
    /// After every cycle, each node's WUP-view similarity and the liked
    /// items it received that cycle (Fig. 7); a node that has not joined
    /// yet samples as zero.
    Watch([u32; 3]),
}

/// One simulation of the table. Equal jobs run once.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub data: Data,
    pub protocol: Protocol,
    pub cfg: SimConfig,
    /// Loss, churn and the event timeline (default: none of them).
    pub scenario: Scenario,
    pub observe: Observe,
}

impl Job {
    /// `protocol` on `data` in the paper's simulation shape: 65 cycles,
    /// window 13 = 1/5 of the run, measurement after the clustering ramp,
    /// seeded with [`SEED`] — but for C-Pub/Sub, which draws no random
    /// number and refuses a seed.
    pub fn paper(data: Data, protocol: Protocol) -> Self {
        let seed = match protocol {
            Protocol::CPubSub => SimConfig::default().seed,
            _ => SEED,
        };
        Self {
            data,
            protocol,
            cfg: SimConfig {
                cycles: 65,
                publish_from: 3,
                measure_from: 20,
                seed,
                ..Default::default()
            },
            scenario: Scenario::default(),
            observe: Observe::Report,
        }
    }

    /// The same job with its config edited.
    pub fn with(mut self, edit: impl FnOnce(&mut SimConfig)) -> Self {
        edit(&mut self.cfg);
        self
    }

    fn run(&self, ctx: &Ctx) -> Outcome {
        let runner = Runner::new(ctx.data(self.data), self.protocol)
            .config(self.cfg.clone())
            .scenario(self.scenario.clone());
        if self.observe == Observe::Report {
            return Outcome {
                report: runner.run(),
                overlay: None,
                trace: Vec::new(),
            };
        }
        let mut sim = runner.build();
        let mut trace = Vec::new();
        while sim.current_cycle() < self.cfg.cycles {
            sim.step();
            if let Observe::Watch(nodes) = self.observe {
                trace.push(nodes.map(|id| {
                    if (id as usize) < sim.n_nodes() {
                        let liked = sim.liked_receptions_last_cycle(id);
                        (sim.interest_view_similarity(id), f64::from(liked))
                    } else {
                        (0.0, 0.0)
                    }
                }));
            }
        }
        let overlay = (self.observe == Observe::Overlay).then(|| analysis::overlay_stats(&sim));
        Outcome {
            report: sim.into_report(),
            overlay,
            trace,
        }
    }
}

/// One cycle's `(similarity, liked receptions)` of the three watched nodes.
pub(crate) type Sample = [(f64, f64); 3];
/// A number read off a `T`.
pub(crate) type Stat<T> = fn(&T) -> f64;

/// What a [`Job`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub report: SimReport,
    /// Set under [`Observe::Overlay`].
    pub overlay: Option<OverlayStats>,
    /// One `Sample` per cycle under [`Observe::Watch`].
    pub trace: Vec<Sample>,
}

/// The outcomes of a run, looked up by the job that produced them.
#[derive(Debug)]
pub struct Results {
    jobs: Vec<Job>,
    outcomes: Vec<Outcome>,
}

impl Results {
    /// # Panics
    /// Panics if the id reading `job` did not declare it.
    pub fn get(&self, job: &Job) -> &Outcome {
        let at = self.jobs.iter().position(|j| j == job);
        &self.outcomes[at.unwrap_or_else(|| panic!("undeclared job: {job:?}"))]
    }
}

/// Width of a pin's band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tol {
    /// `±a`, in the value's unit (ratios, fractions, cycles).
    Abs(f64),
    /// `±r·|value|` (message counts, whose magnitude follows the scale).
    Rel(f64),
}

/// One named headline number.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// `row.column` of the id's rendering (split at the last dot).
    pub key: String,
    pub tol: Tol,
    /// What the paper reports, if it does.
    pub paper: Option<f64>,
    /// NaN on a board that only lists.
    pub value: f64,
}

/// What an id declares: the jobs it reads, the pins it extracts from them
/// and the rest of its figure. An [`Entry`] fills a board twice: first
/// without results, which lists its jobs and its pins' keys and bands (no
/// closure runs, nothing is generated), then with them, which evaluates.
#[derive(Debug, Default)]
pub struct Board<'a> {
    results: Option<&'a Results>,
    /// Whether [`Board::text`] closures run (some cost wall-clock time).
    render: bool,
    /// As declared: a job read by two pins is listed twice.
    pub jobs: Vec<Job>,
    pub pins: Vec<Pin>,
    pub text: String,
}

impl Board<'_> {
    /// Declares `jobs` and, once they have run, pins `value` of their
    /// outcomes (same order) under `key`.
    pub(crate) fn pin_over(
        &mut self,
        key: impl Into<String>,
        tol: Tol,
        paper: Option<f64>,
        jobs: &[Job],
        value: impl FnOnce(&[&Outcome]) -> f64,
    ) {
        let value = match self.results {
            Some(r) => value(&jobs.iter().map(|j| r.get(j)).collect::<Vec<_>>()),
            None => f64::NAN,
        };
        self.jobs.extend_from_slice(jobs);
        let key = key.into();
        self.pins.push(Pin {
            key,
            tol,
            paper,
            value,
        });
    }

    /// `Board::pin_over` for a number read off one job's report.
    pub fn pin(
        &mut self,
        key: impl Into<String>,
        tol: Tol,
        paper: Option<f64>,
        job: &Job,
        value: impl FnOnce(&SimReport) -> f64,
    ) {
        let jobs = std::slice::from_ref(job);
        self.pin_over(key, tol, paper, jobs, |o| value(&o[0].report));
    }

    /// Pins `job`'s precision, recall and F1 as three columns of `row`.
    pub fn scores(&mut self, row: &str, job: &Job, paper: [Option<f64>; 3]) {
        let columns: [(&str, Stat<IrScores>); 3] = [
            ("precision", |s| s.precision),
            ("recall", |s| s.recall),
            ("f1", |s| s.f1),
        ];
        for ((column, score), paper) in columns.into_iter().zip(paper) {
            let key = format!("{row}.{column}");
            self.pin(key, Tol::Abs(0.03), paper, job, |r| score(&r.scores()));
        }
    }

    /// Appends what the figure shows beyond its pins; `text` runs only
    /// when the id is rendered, and may read the jobs in [`Board::jobs`].
    pub fn text(&mut self, text: impl FnOnce(&Results) -> String) {
        if let (Some(results), true) = (self.results, self.render) {
            self.text += &text(results);
        }
    }

    /// Appends the paper's shape to check the numbers against.
    pub fn note(&mut self, shape: &str) {
        self.text(|_| format!("{shape}\n"));
    }
}

/// One row of [`TABLE`].
pub struct Entry {
    pub id: &'static str,
    pub title: &'static str,
    /// Declares the id's job grid, pins and text on a [`Board`].
    declare: fn(&Ctx, &mut Board),
}

impl Entry {
    /// The id's board: listing only without `results`, evaluated with them.
    pub fn board<'a>(&self, ctx: &Ctx, results: Option<&'a Results>, render: bool) -> Board<'a> {
        let mut board = Board {
            results,
            render,
            ..Default::default()
        };
        (self.declare)(ctx, &mut board);
        board
    }
}

/// Lays pins out by key: the part before the last dot names the row, the
/// part after it the column; consecutive rows with the same columns share
/// a table. A cell reads `paper | measured` where the paper has a number.
fn layout(pins: &[Pin]) -> String {
    let show = |x: f64, as_stated: bool| match x {
        x if x.abs() >= 1e4 => human_count(x),
        x if as_stated => x.to_string(),
        x if x.abs() >= 100.0 || x.fract() == 0.0 => format!("{x:.0}"),
        x => format!("{x:.3}"),
    };
    let mut rows: Vec<(&str, Vec<&str>, Vec<String>)> = Vec::new();
    for p in pins {
        let (row, column) = p.key.rsplit_once('.').unwrap_or(("", &p.key));
        if rows.last().is_none_or(|last| last.0 != row) {
            rows.push((row, Vec::new(), Vec::new()));
        }
        let last = rows.last_mut().expect("pushed above");
        last.1.push(column);
        let paper = p.paper.map_or(String::new(), |x| show(x, true) + " | ");
        last.2.push(paper + &show(p.value, false));
    }
    let mut out = String::new();
    for table in rows.chunk_by(|a, b| a.1 == b.1) {
        let mut t = TextTable::new("", &[&[""], &table[0].1[..]].concat());
        for (row, _, cells) in table {
            t.row(&[&[row.to_string()], &cells[..]].concat());
        }
        out += &t.render();
        out.push('\n');
    }
    out
}

/// Resolves `ids` against [`TABLE`], in table order. No ids selects every
/// entry, or with `pinned_only` every entry that pins something.
pub fn select(ctx: &Ctx, ids: &[String], pinned_only: bool) -> Result<Vec<&'static Entry>, String> {
    if let Some(unknown) = ids.iter().find(|id| TABLE.iter().all(|e| e.id != **id)) {
        let known = TABLE.iter().map(|e| e.id).collect::<Vec<_>>().join(" ");
        return Err(format!("unknown id '{unknown}' (known: {known})"));
    }
    let pinned = |e: &Entry| !e.board(ctx, None, false).pins.is_empty();
    let selected = |e: &&Entry| match ids.is_empty() {
        true => !pinned_only || pinned(e),
        false => ids.iter().any(|id| id == e.id),
    };
    Ok(TABLE.iter().filter(selected).collect())
}

/// Runs the jobs `entries` declare, equal ones once, on the job pool.
pub fn run(ctx: &Ctx, entries: &[&Entry]) -> Results {
    let mut jobs: Vec<Job> = Vec::new();
    for job in entries.iter().flat_map(|e| e.board(ctx, None, false).jobs) {
        if !jobs.contains(&job) {
            jobs.push(job);
        }
    }
    let outcomes = pool_map(&jobs, |job| job.run(ctx));
    Results { jobs, outcomes }
}

/// The artifact: `{note, scale, seed, ids: {id: {key: {value, tol}}}}`,
/// `tol` being the absolute half-width of the key's band.
pub fn to_json(ctx: &Ctx, entries: &[&Entry], results: &Results) -> Value {
    let cell = |p: Pin| {
        let tol = match p.tol {
            Tol::Abs(a) => a,
            Tol::Rel(r) => r * p.value.abs(),
        };
        let fields = [("value", p.value), ("tol", tol)];
        let fields = fields.map(|(k, v)| (k, Value::Number(v)));
        (p.key, Value::object(fields))
    };
    let ids = entries.iter().map(|e| {
        let pins = e.board(ctx, Some(results), false).pins;
        (e.id, Value::object(pins.into_iter().map(cell)))
    });
    Value::object([
        ("note", Value::String(NOTE.into())),
        ("scale", Value::Number(ctx.scale)),
        ("seed", Value::Number(SEED as f64)),
        ("ids", Value::object(ids)),
    ])
}

/// An artifact's `(id, key) → (value, tol)`.
type Cells<'a> = BTreeMap<(&'a str, &'a str), (Option<f64>, Option<f64>)>;

fn cells(artifact: &Value) -> Cells<'_> {
    let mut cells = BTreeMap::new();
    let Some(Value::Object(ids)) = artifact.get("ids") else {
        return cells;
    };
    for (id, keys) in ids {
        let Value::Object(keys) = keys else { continue };
        for (key, cell) in keys {
            let field = |name| cell.get(name).and_then(Value::as_f64);
            cells.insert((id.as_str(), key.as_str()), (field("value"), field("tol")));
        }
    }
    cells
}

/// Compares two artifacts key by key: the table of `baseline | fresh | tol`
/// rows, and whether every key is in band and on both sides. Baseline ids
/// outside `ids` are not looked at.
pub fn check(baseline: &Value, fresh: &Value, ids: &[&str]) -> (String, bool) {
    let (baseline, fresh) = (cells(baseline), cells(fresh));
    let header = ["id", "key", "baseline", "fresh", "tol", ""];
    let mut table = TextTable::new("paper pins vs baseline", &header);
    let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
    let mut ok = true;
    let keys: std::collections::BTreeSet<_> = baseline.keys().chain(fresh.keys()).collect();
    for &&(id, key) in keys.iter().filter(|k| ids.contains(&k.0)) {
        let (b, f) = (baseline.get(&(id, key)), fresh.get(&(id, key)));
        let (bv, tol) = b.copied().unwrap_or_default();
        let fv = f.and_then(|f| f.0);
        let verdict = match (bv, fv, tol) {
            (Some(bv), Some(fv), Some(tol)) if (fv - bv).abs() <= tol => "ok",
            (Some(_), Some(_), Some(_)) => "OUT OF BAND",
            _ if f.is_none() => "MISSING",
            _ if b.is_none() => "EXTRA",
            _ => "NOT A NUMBER",
        };
        ok &= verdict == "ok";
        table.row_str(&[id, key, &show(bv), &show(fv), &show(tol), verdict]);
    }
    (table.render(), ok)
}

enum Mode {
    Render,
    Check(Value),
    Write(PathBuf),
}

/// `cargo bench` runs a bench executable from its package's directory, never
/// from where cargo was called: a relative FILE means the workspace root.
fn from_root(file: &String) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "paper: {problem}\nusage: cargo bench -p whatsup_bench --bench paper -- \
         [ids…] [--scale f] [--check FILE | --write FILE]"
    );
    ExitCode::from(2)
}

/// The `paper` bench target's `main`: see the module docs for the grammar.
pub fn cli(args: &[String]) -> ExitCode {
    let (mut ids, mut scale, mut mode) = (Vec::new(), None, Mode::Render);
    let read = |file: PathBuf| {
        let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
        serde::json::parse(&text).map_err(|e| e.to_string())
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), &mode) {
            // cargo appends `--bench` to every bench executable's arguments.
            ("--bench", _) => {}
            ("--scale", _) => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 1.0 => scale = Some(v),
                _ => return usage("--scale takes a number in (0, 1]"),
            },
            ("--write", Mode::Render) => match it.next() {
                Some(file) => mode = Mode::Write(from_root(file)),
                None => return usage("--write takes a file"),
            },
            ("--check", Mode::Render) => match it.next().map(|file| read(from_root(file))) {
                Some(Ok(baseline)) => mode = Mode::Check(baseline),
                Some(Err(e)) => return usage(&format!("unreadable baseline: {e}")),
                None => return usage("--check takes a file"),
            },
            (flag, _) if flag.starts_with("--") => return usage(&format!("unexpected {flag}")),
            (id, _) => ids.push(id.to_string()),
        }
    }
    // A check re-runs at the scale its baseline was recorded at.
    if let Mode::Check(baseline) = &mode {
        if scale.is_some() {
            return usage("--check takes the scale from the file");
        }
        scale = baseline.get("scale").and_then(Value::as_f64);
    }
    let scale = scale.unwrap_or(DEFAULT_SCALE);
    let ctx = Ctx::new(scale);
    let entries = match select(&ctx, &ids, !matches!(mode, Mode::Render)) {
        Ok(entries) => entries,
        Err(e) => return usage(&e),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ids_run = entries.len();
    let what = format!("{ids_run} ids at scale {scale:.2}, seed {SEED:#x}, {cores} cores");
    let started = crate::start("paper", &what);
    let results = run(&ctx, &entries);
    let secs = started.elapsed().as_secs_f64();
    println!("{} simulations in {secs:.1}s", results.jobs.len());
    if matches!(mode, Mode::Render) {
        for e in &entries {
            let board = e.board(&ctx, Some(&results), true);
            println!("\n=== {} — {} ===", e.id, e.title);
            println!("{}{}", layout(&board.pins), board.text);
        }
    }
    let fresh = to_json(&ctx, &entries, &results);
    let outcome = match &mode {
        Mode::Render => save_json_value(&crate::artifact("paper"), &fresh),
        Mode::Write(file) => save_json_value(file, &fresh),
        Mode::Check(baseline) => {
            // With no ids given, every id of the baseline is held to account.
            let mut compared: Vec<&str> = entries.iter().map(|e| e.id).collect();
            if ids.is_empty() {
                compared.extend(cells(baseline).keys().map(|k| k.0));
            }
            let (table, ok) = check(baseline, &fresh, &compared);
            println!("{table}");
            let verdict = std::io::Error::other("pins differ from the baseline");
            ok.then(|| println!("every pin is within its band"))
                .ok_or(verdict)
        }
    };
    crate::finish("paper", started);
    if let Err(e) = &outcome {
        eprintln!("paper: {e}");
    }
    ExitCode::from(u8::from(outcome.is_err()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(cells: &[(&str, &str, f64, f64)]) -> Value {
        let mut ids: BTreeMap<String, Value> = BTreeMap::new();
        for &(id, key, value, tol) in cells {
            let cell =
                Value::object([("value", Value::Number(value)), ("tol", Value::Number(tol))]);
            let Value::Object(keys) = ids
                .entry(id.into())
                .or_insert(Value::object([("", Value::Null); 0]))
            else {
                unreachable!("inserted as an object")
            };
            keys.insert(key.into(), cell);
        }
        Value::object([("ids", Value::Object(ids))])
    }

    #[test]
    fn check_passes_inside_the_band_and_fails_outside_missing_or_extra() {
        let baseline = artifact(&[
            ("fig5", "ttl4.f1", 0.60, 0.03),
            ("table2", "RPSvs", 30.0, 0.1),
        ]);
        let inside = artifact(&[
            ("fig5", "ttl4.f1", 0.62, 9.0),
            ("table2", "RPSvs", 30.0, 9.0),
        ]);
        let (table, ok) = check(&baseline, &inside, &["fig5", "table2"]);
        assert!(ok, "{table}");
        // The band is the baseline's, not the fresh run's.
        let outside = artifact(&[
            ("fig5", "ttl4.f1", 0.64, 9.0),
            ("table2", "RPSvs", 30.0, 9.0),
        ]);
        let (table, ok) = check(&baseline, &outside, &["fig5", "table2"]);
        assert!(!ok && table.contains("OUT OF BAND"), "{table}");
        // …unless the id is not under comparison.
        assert!(check(&baseline, &outside, &["table2"]).1);
        let missing = artifact(&[("fig5", "ttl4.f1", 0.60, 0.03)]);
        let (table, ok) = check(&baseline, &missing, &["fig5", "table2"]);
        assert!(!ok && table.contains("MISSING"), "{table}");
        let (table, ok) = check(&missing, &baseline, &["fig5", "table2"]);
        assert!(!ok && table.contains("EXTRA"), "{table}");
        let nan = artifact(&[
            ("fig5", "ttl4.f1", f64::NAN, 0.03),
            ("table2", "RPSvs", 30.0, 0.1),
        ]);
        assert!(!check(&baseline, &nan, &["fig5"]).1, "NaN renders as null");
    }

    #[test]
    fn layout_splits_keys_into_rows_and_columns_and_groups_equal_columns() {
        let pin = |key: &str, paper, value| Pin {
            key: key.into(),
            tol: Tol::Abs(0.03),
            paper,
            value,
        };
        let text = layout(&[
            pin("a.f3.recall", Some(0.63), 0.4841),
            pin("a.f3.msgs", Some(228e3), 7908.4),
            pin("a.f6.recall", None, 0.8271),
            pin("a.f6.msgs", None, 2536.0),
            pin("gap", Some(0.05), -0.014),
        ]);
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(
            lines.len(),
            5,
            "two tables: header + two rows, header + one row:\n{text}"
        );
        assert!(
            lines[0].contains("recall") && lines[0].contains("msgs"),
            "{text}"
        );
        assert!(
            lines[1].contains("a.f3") && lines[1].contains("0.63 | 0.484"),
            "{text}"
        );
        assert!(lines[1].contains("228.0k | 7908"), "{text}");
        assert!(
            lines[2].contains("a.f6") && lines[2].contains("0.827"),
            "{text}"
        );
        assert!(lines[4].contains("0.05 | -0.014"), "{text}");
    }

    #[test]
    fn selection_follows_the_table_and_rejects_unknown_ids() {
        let ctx = Ctx::new(0.1);
        let all = select(&ctx, &[], false).unwrap();
        assert_eq!(all.len(), TABLE.len());
        let pinned = select(&ctx, &[], true).unwrap();
        let pinned: Vec<&str> = pinned.iter().map(|e| e.id).collect();
        assert!(!pinned.contains(&"fig8") && pinned.len() == TABLE.len() - 1);
        let picked = select(&ctx, &["table6".into(), "fig3".into()], true).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.id).collect::<Vec<_>>(),
            ["fig3", "table6"]
        );
        assert!(select(&ctx, &["fig12".into()], false).is_err());
    }

    #[test]
    fn equal_jobs_run_once_and_paper_config_matches_section_iv() {
        let job = Job::paper(Data::Survey, Protocol::WhatsUp { f_like: 10 });
        assert_eq!(job.cfg.cycles, 65);
        // table3 ∪ table4 ∪ table6: the fLIKE=10 run is shared by the first two.
        let ctx = Ctx::new(0.1);
        let ids = ["table3", "table4", "table6"].map(String::from);
        let entries = select(&ctx, &ids, false).unwrap();
        let results = run(&ctx, &entries);
        assert_eq!(results.jobs.len(), 5 + 8);
        assert_eq!(results.jobs.iter().filter(|j| **j == job).count(), 1);
        // Two artifacts of one run are the same bytes, and so are two runs.
        let json = to_json(&ctx, &entries, &results).pretty();
        assert_eq!(json, to_json(&ctx, &entries, &run(&ctx, &entries)).pretty());
        assert!(
            check(
                &serde::json::parse(&json).unwrap(),
                &serde::json::parse(&json).unwrap(),
                &["table3", "table4", "table6"]
            )
            .1
        );
    }
}
