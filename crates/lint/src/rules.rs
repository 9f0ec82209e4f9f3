//! The rule set: what each check means, where it applies, and the token
//! passes that implement it.

use crate::scan::{scan, Scan, TokKind, Token};
use std::collections::BTreeMap;
use std::fmt;

/// The eight contract rules. Names (the `lint:allow` keys) are kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in determinism-critical code: report paths
    /// must never depend on unspecified iteration order. Use `BTreeMap`/
    /// `BTreeSet` or annotate a probe-only/sorted-before-iteration use.
    DetMap,
    /// No process-global mutable state in determinism-critical code: no
    /// `static mut`, no `thread_local!`, and no `static` whose type names
    /// a lazy or once cell, a lock, a `Cell`/`RefCell` or an atomic. What
    /// every run of a process shares is where a result can come to depend
    /// on what ran before it, or on which thread got there first.
    DetGlobal,
    /// No wall-clock reads (`Instant::now`, `SystemTime`) outside the swarm
    /// executor, its datagram links and the socket-transport deadline
    /// code: simulated time is the only clock the engines may see.
    DetClock,
    /// No `unwrap`/`expect`/`panic!`-family macros or unchecked slice
    /// indexing in wire decode paths: untrusted bytes must surface typed
    /// errors, never a crash.
    WirePanic,
    /// No truncating `as` casts on wire length/count fields: a silently
    /// wrapped count corrupts the frame for every later field.
    WireCast,
    /// Every `unsafe` carries a `// SAFETY:` comment on the same or an
    /// immediately preceding line.
    SafetyComment,
    /// No `gen_bool(` in the simulator outside its environment module, nor
    /// in the deployment crate: loss, channel and crash coins are defined
    /// once, so an engine or a peer that flips its own can no longer drift
    /// from the others.
    EnvDraw,
    /// No `pub fn` that no other file names: public means called from
    /// outside. Every other scanned file counts as a caller — tests,
    /// benches, examples and other crates alike — except through a `pub
    /// use`, which re-exports a name without calling it. Functions only: a
    /// type can be reached through a public signature without being named.
    DeadPub,
}

const ALL_RULES: [Rule; 8] = [
    Rule::DetMap,
    Rule::DetGlobal,
    Rule::DetClock,
    Rule::WirePanic,
    Rule::WireCast,
    Rule::SafetyComment,
    Rule::EnvDraw,
    Rule::DeadPub,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::DetMap => "det-map",
            Rule::DetGlobal => "det-global",
            Rule::DetClock => "det-clock",
            Rule::WirePanic => "wire-panic",
            Rule::WireCast => "wire-cast",
            Rule::SafetyComment => "safety-comment",
            Rule::EnvDraw => "env-draw",
            Rule::DeadPub => "dead-pub",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where one rule applies: workspace-relative path prefixes (`/`-separated;
/// a prefix of `""` matches everything). A file is in scope when it matches
/// an include prefix and no exclude prefix. Paths containing a `tests/`,
/// `benches/`, `examples/` or `fixtures/` segment are always out of scope —
/// the contracts govern shipped code, not test harnesses.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub include: Vec<String>,
    pub exclude: Vec<String>,
}

impl Scope {
    pub fn matches(&self, rel_path: &str) -> bool {
        self.include
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
            && !self
                .exclude
                .iter()
                .any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// Per-rule scopes. [`Config::workspace_default`] encodes this repository's
/// contract; fixture tests build narrow configs by hand.
#[derive(Debug, Clone)]
pub struct Config {
    pub scopes: BTreeMap<Rule, Scope>,
}

impl Config {
    /// A config applying every rule to every scanned file (fixture tests).
    pub fn all_everywhere() -> Self {
        let mut scopes = BTreeMap::new();
        for rule in ALL_RULES {
            scopes.insert(
                rule,
                Scope {
                    include: vec![String::new()],
                    exclude: vec![],
                },
            );
        }
        Config { scopes }
    }

    /// This repository's contract, one scope per rule:
    ///
    /// * `det-map` and `det-global` — the determinism-critical crates:
    ///   `core`, `gossip`, `metrics`, and all of `sim` (engine, engines,
    ///   scenario pipeline — everything that feeds a `SimReport`).
    /// * `det-clock` — everywhere except the wall-clock swarm executor
    ///   (`crates/sim/src/engines/swarm.rs`), the datagram links whose
    ///   router holds frames on a deadline heap (`crates/net/src/link.rs`),
    ///   the one engine file that holds only the TCP dial-retry and
    ///   deadline code (`crates/sim/src/engine/exchange/socket.rs` — not
    ///   the shared stream link), the benchmark crate (wall clocks are its
    ///   purpose) and the dependency shims.
    /// * `wire-panic` / `wire-cast` — the untrusted-input decode surface:
    ///   the one binary codec (`crates/net/src/wire.rs`: the primitive
    ///   impls, `wire_codec!`, the profile and descriptor-list impls), the
    ///   datagram layouts on it (`crates/net/src/codec.rs`), the shard
    ///   exchange's hand-written oracle and partition impls
    ///   (`crates/sim/src/engine/exchange/wire.rs`) and the anti-entropy
    ///   digest/delta frame readers.
    /// * `safety-comment` — everywhere except the shims (which mirror
    ///   upstream crates' APIs verbatim).
    /// * `env-draw` — all of `crates/sim/src` except
    ///   `crates/sim/src/environment.rs`, the one place the loss/churn
    ///   coins are flipped, and all of `crates/net/src`, whose peers and
    ///   links take their coins from the swarm executor.
    /// * `dead-pub` — every workspace crate's shipped code, the shims
    ///   excepted (they mirror upstream crates' APIs); its callers are
    ///   searched in every scanned file, `perfbench/src` included.
    pub fn workspace_default() -> Self {
        let mut scopes = BTreeMap::new();
        let determinism_critical = Scope {
            include: vec![
                "crates/core/src/".into(),
                "crates/gossip/src/".into(),
                "crates/metrics/src/".into(),
                "crates/sim/src/".into(),
            ],
            exclude: vec![],
        };
        scopes.insert(Rule::DetMap, determinism_critical.clone());
        scopes.insert(Rule::DetGlobal, determinism_critical);
        scopes.insert(
            Rule::DetClock,
            Scope {
                include: vec!["crates/".into(), "src/".into()],
                exclude: vec![
                    "crates/sim/src/engines/swarm.rs".into(),
                    "crates/net/src/link.rs".into(),
                    "crates/sim/src/engine/exchange/socket.rs".into(),
                    "crates/bench/".into(),
                    "crates/shims/".into(),
                ],
            },
        );
        let wire = Scope {
            include: vec![
                "crates/net/src/wire.rs".into(),
                "crates/net/src/codec.rs".into(),
                "crates/sim/src/engine/exchange/wire.rs".into(),
                "crates/sim/src/engines/antientropy/digest.rs".into(),
                "crates/sim/src/engines/antientropy/delta.rs".into(),
            ],
            exclude: vec![],
        };
        scopes.insert(Rule::WirePanic, wire.clone());
        scopes.insert(Rule::WireCast, wire);
        scopes.insert(
            Rule::SafetyComment,
            Scope {
                include: vec!["crates/".into(), "src/".into()],
                exclude: vec!["crates/shims/".into()],
            },
        );
        scopes.insert(
            Rule::EnvDraw,
            Scope {
                include: vec!["crates/sim/src/".into(), "crates/net/src/".into()],
                exclude: vec!["crates/sim/src/environment.rs".into()],
            },
        );
        scopes.insert(
            Rule::DeadPub,
            Scope {
                include: vec!["crates/".into(), "src/".into()],
                exclude: vec!["crates/shims/".into()],
            },
        );
        Config { scopes }
    }
}

/// One rule hit. `allowed` carries the `lint:allow` reason when the site is
/// annotated — such findings are recorded, not fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub path: String,
    pub line: u32,
    pub excerpt: String,
    pub allowed: Option<String>,
}

/// Path segments that take a file out of every rule's scope.
fn harness_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| {
        matches!(
            seg,
            "tests" | "benches" | "examples" | "fixtures" | "target"
        )
    })
}

/// Lints one file. `rel_path` is workspace-relative with `/` separators.
/// `dead-pub` needs the other files, so only [`crate::lint_workspace`]
/// applies it.
pub fn check_file(rel_path: &str, source: &str, config: &Config) -> Vec<Finding> {
    check_scanned(rel_path, source, &scan(source), config, &|_| true)
}

/// Which files name each identifier: the first file that does, and
/// whether another one does too. Tokens of a `pub use` are left out, and
/// so are those of a `#[cfg(test)]` item in shipped code: a function only
/// a unit test calls is test code. Files under a harness path (`tests/`,
/// `benches/`, `examples/`) are callers whole.
#[derive(Debug, Default)]
pub(crate) struct Callers<'a>(BTreeMap<&'a str, (usize, bool)>);

impl<'a> Callers<'a> {
    pub(crate) fn add(&mut self, file: usize, rel_path: &str, scan: &'a Scan) {
        let harness = harness_path(rel_path);
        let toks = &scan.tokens;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].text == "pub" && reexport(toks, i) {
                while i < toks.len() && toks[i].kind != TokKind::Punct(';') {
                    i += 1;
                }
            } else if toks[i].kind == TokKind::Ident && (harness || !toks[i].in_test) {
                self.0
                    .entry(&toks[i].text)
                    .and_modify(|(first, more)| *more |= *first != file)
                    .or_insert((file, false));
            }
            i += 1;
        }
    }

    /// True when a file other than `file` names `name`.
    pub(crate) fn elsewhere(&self, file: usize, name: &str) -> bool {
        self.0
            .get(name)
            .is_some_and(|&(first, more)| more || first != file)
    }
}

/// Lints one scanned file; `named_elsewhere` tells `dead-pub` whether some
/// other file names an identifier.
pub(crate) fn check_scanned(
    rel_path: &str,
    source: &str,
    scan: &Scan,
    config: &Config,
    named_elsewhere: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    if harness_path(rel_path) {
        return Vec::new();
    }
    let active: Vec<Rule> = ALL_RULES
        .iter()
        .copied()
        .filter(|r| config.scopes.get(r).is_some_and(|s| s.matches(rel_path)))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }

    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    // Resolve each allow comment to the code line it governs: its own line
    // when trailing, otherwise the next line carrying code.
    let mut allow_map: BTreeMap<(u32, Rule), String> = BTreeMap::new();
    for site in &scan.allows {
        let target = if site.trailing {
            Some(site.line)
        } else {
            scan.code_lines.range(site.line + 1..).next().copied()
        };
        let Some(target) = target else { continue };
        for rule_name in &site.rules {
            let Some(rule) = Rule::from_name(rule_name) else {
                continue;
            };
            // An allow without a reason does not suppress: the recorded
            // justification is the point of the escape hatch.
            if site.reason.is_empty() {
                continue;
            }
            allow_map.insert((target, rule), site.reason.clone());
        }
    }

    let mut findings = Vec::new();
    let mut emit = |rule: Rule, line: u32| {
        findings.push(Finding {
            rule,
            path: rel_path.to_string(),
            line,
            excerpt: excerpt(line),
            allowed: allow_map.get(&(line, rule)).cloned(),
        });
    };

    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        for &rule in &active {
            match rule {
                Rule::DetMap => {
                    if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                        emit(rule, t.line);
                    }
                }
                Rule::DetGlobal => {
                    let global = match t.text.as_str() {
                        "static" => mutable_static(toks, i),
                        "thread_local" => next_punct(toks, i) == Some('!'),
                        _ => false,
                    };
                    if t.kind == TokKind::Ident && global {
                        emit(rule, t.line);
                    }
                }
                Rule::DetClock => {
                    if t.kind == TokKind::Ident && t.text == "SystemTime" {
                        emit(rule, t.line);
                    }
                    if t.kind == TokKind::Ident
                        && t.text == "Instant"
                        && matches_seq(toks, i + 1, &["::", "now"])
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::WirePanic => {
                    if t.kind == TokKind::Ident
                        && (t.text == "unwrap" || t.text == "expect")
                        && prev_punct(toks, i) == Some('.')
                    {
                        emit(rule, t.line);
                    }
                    if t.kind == TokKind::Ident
                        && matches!(
                            t.text.as_str(),
                            "panic" | "unreachable" | "todo" | "unimplemented"
                        )
                        && next_punct(toks, i) == Some('!')
                    {
                        emit(rule, t.line);
                    }
                    // Unchecked indexing: `[` as a postfix operator — the
                    // previous token ends an expression. `#[…]` attributes,
                    // array literals and slice types don't match.
                    if t.kind == TokKind::Punct('[') && i > 0 {
                        let prev = &toks[i - 1];
                        let postfix = matches!(prev.kind, TokKind::Ident | TokKind::Number)
                            || matches!(prev.kind, TokKind::Punct(')') | TokKind::Punct(']'));
                        // `ident[` where ident is a macro name (`vec![…]`)
                        // would need a `!` between — which tokenizes as
                        // Punct('!'), so `prev` is not an Ident there.
                        if postfix {
                            emit(rule, t.line);
                        }
                    }
                }
                Rule::WireCast => {
                    if t.kind == TokKind::Ident
                        && t.text == "as"
                        && toks.get(i + 1).is_some_and(|n| {
                            n.kind == TokKind::Ident
                                && matches!(n.text.as_str(), "u8" | "u16" | "u32")
                        })
                        && lookback_has_length_ident(toks, i)
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::EnvDraw => {
                    if t.kind == TokKind::Ident
                        && t.text == "gen_bool"
                        && next_punct(toks, i) == Some('(')
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::DeadPub => {
                    if t.text == "pub" && pub_fn_name(toks, i).is_some_and(|n| !named_elsewhere(n))
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::SafetyComment => {
                    if t.kind == TokKind::Ident && t.text == "unsafe" {
                        let documented = (t.line.saturating_sub(3)..=t.line)
                            .any(|l| scan.safety_lines.contains(&l));
                        if !documented {
                            emit(rule, t.line);
                        }
                    }
                }
            }
        }
    }
    // Two hits on one line (e.g. `buf[0], buf[1]`) are one finding: the
    // unit of fixing/annotating is the line.
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// True when the `static` item at `i` holds mutable state: it is `static
/// mut`, or its type — the tokens up to the `=` or `;` that ends it, outside
/// brackets — names an interior-mutability type.
fn mutable_static(toks: &[Token], i: usize) -> bool {
    if matches_seq(toks, i + 1, &["mut"]) {
        return true;
    }
    let mut depth = 0i32;
    for t in &toks[i + 1..] {
        match t.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('=' | ';') if depth <= 0 => return false,
            TokKind::Ident
                if t.text.starts_with("Atomic")
                    || matches!(
                        t.text.as_str(),
                        "LazyLock" | "OnceLock" | "Mutex" | "RwLock" | "Cell" | "RefCell"
                    ) =>
            {
                return true
            }
            _ => {}
        }
    }
    false
}

/// The name the `pub fn` at `i` declares, past any `const`, `async`,
/// `unsafe` or `extern` qualifier; `None` for any other item, and for
/// `pub(crate)` or `pub(super)`.
fn pub_fn_name(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i + 1;
    while toks.get(j).is_some_and(|t| {
        t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
    }) {
        j += 1;
    }
    let name = toks.get(j + 1)?;
    (matches_seq(toks, j, &["fn"]) && name.kind == TokKind::Ident).then_some(name.text.as_str())
}

/// True when the `pub` at `i` starts a re-export: `pub use` or `pub(…) use`.
fn reexport(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('(')) {
        while toks.get(j).is_some_and(|t| t.kind != TokKind::Punct(')')) {
            j += 1;
        }
        j += 1;
    }
    matches_seq(toks, j, &["use"])
}

/// True when one of the 8 tokens before `i` is a length/count identifier —
/// the honest token-level approximation of "this cast truncates a wire
/// length/count field".
fn lookback_has_length_ident(toks: &[Token], i: usize) -> bool {
    let start = i.saturating_sub(8);
    toks[start..i].iter().any(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "len" | "count" | "length" | "size" | "remaining"
            )
    })
}

fn prev_punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i.wrapping_sub(1))?.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

fn next_punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i + 1)?.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

/// True when tokens starting at `i` spell the given sequence, where each
/// element is either a punctuation string (matched char by char) or an
/// identifier.
fn matches_seq(toks: &[Token], mut i: usize, seq: &[&str]) -> bool {
    for want in seq {
        if want.chars().all(|c| !c.is_alphanumeric()) {
            for c in want.chars() {
                match toks.get(i) {
                    Some(t) if t.kind == TokKind::Punct(c) => i += 1,
                    _ => return false,
                }
            }
        } else {
            match toks.get(i) {
                Some(t) if t.kind == TokKind::Ident && t.text == *want => i += 1,
                _ => return false,
            }
        }
    }
    true
}
