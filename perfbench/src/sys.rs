//! What the benchmark reads from the operating system: process CPU time
//! and peak memory, the machine description, and the `/proc` counters
//! that let a noisy invocation be recognised after the fact. Linux only.

use serde::json::Value;
use std::fs;
use std::path::Path;
use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and assumes the 64-bit Linux `struct rusage` layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

/// CPU seconds (user + system) and peak RSS in MiB of one `getrusage` scope.
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_mb: f64,
}

fn usage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (checked by the cfg gate above), and `who`
    // is one of the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        max_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    }
}

/// This process's own threads.
pub fn usage_self() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child this process has waited for.
pub fn usage_children() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// Kills every process of the group `pgid` leads (a timed-out repetition
/// and any shard workers it spawned).
pub fn kill_group(pgid: u32) {
    let Ok(pgid) = i32::try_from(pgid) else {
        return;
    };
    if pgid <= 1 {
        return;
    }
    // SAFETY: `kill` takes plain integers; a negative pid addresses the
    // process group, which the caller created with `process_group(0)`.
    unsafe { kill(-pgid, SIGKILL) };
}

fn proc_status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM`: the high-water mark of this process's resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// The aggregate `cpu` line of `/proc/stat`: `(steal ticks, all ticks)`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user/nice).
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU ticks since `before` that the hypervisor stole.
pub fn steal_share_since(before: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    now.0.saturating_sub(before.0) as f64 / total as f64
}

/// The `some` line of `/proc/pressure/cpu` (empty without PSI).
pub fn cpu_pressure() -> String {
    fs::read_to_string("/proc/pressure/cpu")
        .ok()
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_default()
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile_of(manifest: &Path) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_owned)
        .collect())
}

/// The release profile this executable was built with — and a one-line
/// error if `perfbench/Cargo.toml`'s copy has drifted from the root
/// manifest's, because the benchmark would then measure a different build
/// than users get.
pub fn release_profile() -> Result<String, String> {
    let own = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let (ours, theirs) = (release_profile_of(&own)?, release_profile_of(&root)?);
    if ours == theirs {
        Ok(ours.join(" "))
    } else {
        Err(format!(
            "[profile.release] of perfbench/Cargo.toml ({}) differs from the root manifest's \
             ({}); copy the root's over it",
            ours.join(" "),
            theirs.join(" ")
        ))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build the numbers were taken on.
pub fn environment(release_profile: &str) -> Value {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::object([
        ("nproc", Value::Number(nproc as f64)),
        ("cpu_model", Value::String(cpu_model)),
        ("kernel", Value::String(command_line("uname", &["-sr"]))),
        (
            "rustc",
            Value::String(command_line("rustc", &["--version"])),
        ),
        ("release_profile", Value::String(release_profile.to_owned())),
        ("allocator", Value::String("system (glibc malloc)".into())),
        (
            "git_commit",
            Value::String(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}
