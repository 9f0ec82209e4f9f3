//! `whatsup-lint`: in-tree static analysis enforcing the workspace's
//! determinism and wire-safety contracts.
//!
//! The repo's core claim — bit-identical reports across shard counts,
//! transports and supervised recovery — is property-tested after the fact,
//! but nothing in the compiler stops a new change from iterating a
//! `HashMap` in a report path or reading a wall clock inside an engine.
//! This crate is the compile-adjacent gate: a small hand-rolled token
//! scanner (no crates.io access, so no `syn`; see `scan.rs`) walks every
//! `.rs` file in the workspace and enforces eight rules with per-crate
//! scopes (see [`rules::Config::workspace_default`]):
//!
//! | rule | contract |
//! |------|----------|
//! | `det-map` | no `HashMap`/`HashSet` in determinism-critical crates |
//! | `det-global` | no process-global mutable state (`static mut`, `thread_local!`, statics of cells, locks and atomics) in the same crates |
//! | `det-clock` | no `Instant::now`/`SystemTime` outside the swarm executor, its links and socket deadlines |
//! | `wire-panic` | no panicking decode of untrusted wire input |
//! | `wire-cast` | no truncating `as` casts on wire length/count fields |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` line |
//! | `env-draw` | no `gen_bool(` in `crates/sim/src` outside its environment module, nor in `crates/net/src` |
//! | `dead-pub` | no `pub fn` that no other `.rs` file names (a `pub use` re-export and another file's `#[cfg(test)]` items do not count) |
//!
//! Sites that are individually safe carry an inline escape hatch —
//! `// lint:allow(<rule>) <reason>` — which suppresses the finding but
//! records it (with its reason) in the report, so the audit trail lives
//! next to the code. A reason is mandatory; a bare `lint:allow` does not
//! suppress.
//!
//! Run as `cargo run -p whatsup-lint -- --check` (the CI gate) or without
//! `--check` for the full report including annotated sites; `--format
//! json` emits a machine-readable report.

pub mod rules;
mod scan;

pub use rules::{check_file, Config, Finding, Rule, Scope};

use rules::{check_scanned, Callers};
use std::fs;
use std::path::{Path, PathBuf};

/// A whole-workspace lint result: violations (fatal under `--check`) and
/// annotated sites (recorded, never fatal).
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Finding>,
    pub allowed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Walks `root` for `.rs` files (skipping `target/`, VCS metadata and the
/// lint fixtures) and lints each against `config`; every file walked is a
/// possible caller for `dead-pub`. File order is sorted, so output is
/// deterministic.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut scanned = Vec::with_capacity(files.len());
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let rel = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let tokens = scan::scan(&source);
        scanned.push((rel, source, tokens));
    }
    let mut callers = Callers::default();
    for (file, (rel, _, tokens)) in scanned.iter().enumerate() {
        callers.add(file, rel, tokens);
    }
    let mut report = Report::default();
    for (file, (rel, source, tokens)) in scanned.iter().enumerate() {
        let named_elsewhere = |name: &str| callers.elsewhere(file, name);
        for finding in check_scanned(rel, source, tokens, config, &named_elsewhere) {
            if finding.allowed.is_some() {
                report.allowed.push(finding);
            } else {
                report.violations.push(finding);
            }
        }
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds deliberately-violating inputs for the
            // lint's own tests; `target/` holds build products.
            if matches!(
                name.as_ref(),
                "target" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

impl Report {
    /// Human-readable rendering: one `file:line: rule: excerpt` per
    /// violation, then the annotated sites with their reasons.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.violations {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                f.path, f.line, f.rule, f.excerpt
            ));
        }
        if !self.allowed.is_empty() {
            out.push_str(&format!(
                "\n{} annotated site(s) (lint:allow):\n",
                self.allowed.len()
            ));
            for f in &self.allowed {
                out.push_str(&format!(
                    "{}:{}: {} allowed: {}\n",
                    f.path,
                    f.line,
                    f.rule,
                    f.allowed.as_deref().unwrap_or("")
                ));
            }
        }
        out.push_str(&format!(
            "\n{} file(s) scanned, {} violation(s), {} annotated\n",
            self.files_scanned,
            self.violations.len(),
            self.allowed.len()
        ));
        out
    }

    /// Strict-JSON rendering (hand-rolled; the serde shims live above this
    /// crate in the dependency order on purpose — the linter depends on
    /// nothing it lints).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn finding(f: &Finding) -> String {
            let mut obj = format!(
                "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"excerpt\": \"{}\"",
                esc(&f.path),
                f.line,
                f.rule,
                esc(&f.excerpt)
            );
            if let Some(reason) = &f.allowed {
                obj.push_str(&format!(", \"allowed\": \"{}\"", esc(reason)));
            }
            obj.push('}');
            obj
        }
        let violations: Vec<String> = self.violations.iter().map(finding).collect();
        let allowed: Vec<String> = self.allowed.iter().map(finding).collect();
        format!(
            "{{\"files_scanned\": {}, \"violations\": [{}], \"allowed\": [{}]}}",
            self.files_scanned,
            violations.join(", "),
            allowed.join(", ")
        )
    }
}
