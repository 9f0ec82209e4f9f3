//! The bench side of the workspace: three `cargo bench` targets
//! (`harness = false`).
//!
//! * `paper` — the paper's whole evaluation (§IV–V: Figs. 3–11, Tables
//!   I–VI, plus the ablations) as one table-driven harness, [`paper`]:
//!   `cargo bench -p whatsup_bench --bench paper -- [ids…] [--scale f]
//!   [--check FILE | --write FILE]`. Its headline numbers at the default
//!   scale are committed as `BENCH_paper.json` and compared in CI.
//! * `scale_engine` — single-run engine scaling rows (`BENCH_scale.json`).
//! * `micro` — criterion micro-benchmarks of the hot paths.
//!
//! This file holds what the targets share: the banner and the one JSON
//! artifact writer.

pub mod paper;

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Prints the harness banner and returns a timer for the footer.
pub fn start(name: &str, what: &str) -> Instant {
    println!("==============================================================");
    println!("{name} — {what}");
    println!("==============================================================");
    Instant::now()
}

/// Prints the footer with elapsed time.
pub fn finish(name: &str, started: Instant) {
    println!("\n[{name}] done in {:.1}s", started.elapsed().as_secs_f64());
}

/// Where a harness persists the artifact called `name`:
/// `$CARGO_TARGET_DIR/experiments/<name>.json`, `target/` when unset. The
/// path is relative to the working directory, which `cargo bench` sets to
/// this package's root — [`save_json_value`] prints where that ended up.
pub fn artifact(name: &str) -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(dir)
        .join("experiments")
        .join(format!("{name}.json"))
}

/// The one JSON writer of the bench targets: pretty-prints `value` — strict
/// JSON by construction — to `path`, creating its directory, and prints the
/// absolute path written.
pub fn save_json_value(path: &Path, value: &serde::json::Value) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, value.pretty() + "\n")?;
    let written = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    println!("JSON written to {}", written.display());
    Ok(())
}
