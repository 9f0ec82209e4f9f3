//! Shared helpers for the transport integration tests.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};

/// Spawns `sim-shard-worker --listen 127.0.0.1:0` with piped stdout and
/// stderr, waits for its `LISTEN <addr>` line, and returns the child plus
/// the bound address. Callers own the child: wait on it for an orderly
/// exit, or kill it on the test's failure path.
#[allow(dead_code)]
pub fn spawn_listen_worker() -> (Child, String) {
    spawn_listen_worker_at("127.0.0.1:0")
}

/// [`spawn_listen_worker`] at an explicit address — how the supervisor
/// tests stand up a replacement listener on a crashed worker's port.
#[allow(dead_code)]
pub fn spawn_listen_worker_at(addr: &str) -> (Child, String) {
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    let mut child = Command::new(worker)
        .args(["--listen", addr])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sim-shard-worker --listen");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the LISTEN line");
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected 'LISTEN <addr>', got {line:?}"))
        .to_string();
    (child, addr)
}

/// Waits for a worker and asserts it exited 0 without a panic backtrace.
#[allow(dead_code)]
pub fn assert_clean_exit(child: Child, who: &str) {
    let out = child.wait_with_output().expect("wait for worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{who} exited with {}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{who} panicked: {stderr}");
}

/// Constant message loss `p` and uniform churn `per_cycle` on the default
/// workload: the noise the transport and shard-count tests run under.
#[allow(dead_code)]
pub fn noise(p: f64, per_cycle: f64) -> whatsup_sim::Scenario {
    use whatsup_sim::scenario::{ChurnModel, Environment, LossModel};
    whatsup_sim::Scenario::default().with_environment(Environment {
        loss: LossModel::Constant { p },
        churn: ChurnModel::Uniform { per_cycle },
    })
}
