//! The measuring side of an end-to-end run: repetitions as fresh child
//! processes, one at a time, with the output checks counted as operations.

use crate::rep::Rep;
use crate::stats::median;
use crate::sys;
use crate::workloads::{self, Workload};
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fewest repetitions a run reports on, whatever its time window.
pub const MIN_REPS: usize = 5;

/// A run must end well inside the driver's 180 s limit.
pub const RUN_DEADLINE: Duration = Duration::from_secs(160);

/// Operations attempted and failed so far: every repetition and every
/// output check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Runs one repetition of `workload` in a fresh process of this
/// executable, in its own process group so that a hang can be killed
/// together with any shard workers it spawned.
pub fn spawn_rep(workload: &Workload, seed: u64, timeout: Duration) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "rep",
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        // The receiver only goes away after a timeout, when the output no
        // longer matters.
        let _ = tx.send(read);
    });
    let output = rx.recv_timeout(timeout);
    if output.is_err() {
        sys::kill_group(child.id());
    }
    let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
    reader.join().expect("the stdout reader does not panic");
    let text = match output {
        Ok(read) => read.map_err(|e| format!("cannot read the repetition's output: {e}"))?,
        Err(_) => {
            return Err(format!(
                "{} repetition exceeded {:.0} s and was killed",
                workload.name,
                timeout.as_secs_f64()
            ))
        }
    };
    if !status.success() {
        return Err(format!("{} repetition exited with {status}", workload.name));
    }
    let line = text.lines().last().unwrap_or("");
    let value = serde::json::parse(line).map_err(|e| format!("bad repetition output: {e}"))?;
    Rep::from_json(&value)
}

/// Every repetition of one run, and what the checks on them found.
pub struct Run {
    pub reps: Vec<Rep>,
    /// One repetition of the workload this one must report identically to.
    pub reference: Option<Rep>,
    pub ops: Ops,
}

/// Repeats `workload` for `window` (and at least [`MIN_REPS`] times), one
/// fresh process after another, then checks the outputs. A repetition
/// starts only if one of the median length so far would still end inside
/// the window, so a run lasts about `window`, not a repetition more.
pub fn run(workload: &Workload, seed: u64, window: Duration) -> Run {
    let started = Instant::now();
    let mut ops = Ops::default();
    let timeout_for = |w: &Workload| {
        let budget = RUN_DEADLINE.saturating_sub(started.elapsed());
        Duration::from_secs_f64(10.0 * w.expected_rep_s).min(budget)
    };

    // The reference is outside the measurement window: it is a check, not
    // a sample.
    let reference = workload.same_report_as.and_then(|name| {
        let other = workloads::find(name).expect("reference workloads are in the table");
        let rep = spawn_rep(&other, seed, timeout_for(&other));
        ops.attempted += 1;
        rep.map_err(|e| ops.failures.push(e)).ok()
    });

    let measuring = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut spawned = 0;
    let mut lengths: Vec<f64> = Vec::new();
    let typical = |lengths: &[f64]| match lengths {
        [] => Duration::ZERO,
        _ => Duration::from_secs_f64(median(lengths)),
    };
    while spawned < MIN_REPS || measuring.elapsed() + typical(&lengths) < window {
        if started.elapsed() >= RUN_DEADLINE {
            break;
        }
        spawned += 1;
        ops.attempted += 1;
        let rep_started = Instant::now();
        match spawn_rep(workload, seed, timeout_for(workload)) {
            Ok(rep) => reps.push(rep),
            Err(e) => ops.failures.push(e),
        }
        lengths.push(rep_started.elapsed().as_secs_f64());
    }

    check_outputs(workload, &reps, reference.as_ref(), &mut ops);
    Run {
        reps,
        reference,
        ops,
    }
}

/// `reps` repetitions of each workload, interleaved round-robin
/// (w1, w2, …, w1, …) so that every workload samples the whole invocation
/// window; sharded workloads are checked against their inline sibling's
/// report when it is in the set.
pub fn run_round_robin(set: &[Workload], seed: u64, reps: usize) -> Vec<Run> {
    let mut runs: Vec<Run> = set
        .iter()
        .map(|_| Run {
            reps: Vec::new(),
            reference: None,
            ops: Ops::default(),
        })
        .collect();
    for _ in 0..reps {
        for (workload, run) in set.iter().zip(&mut runs) {
            run.ops.attempted += 1;
            let timeout = Duration::from_secs_f64(10.0 * workload.expected_rep_s);
            match spawn_rep(workload, seed, timeout) {
                Ok(rep) => run.reps.push(rep),
                Err(e) => run.ops.failures.push(e),
            }
        }
    }
    for i in 0..set.len() {
        runs[i].reference = set[i].same_report_as.and_then(|name| {
            let at = set.iter().position(|w| w.name == name)?;
            runs[at].reps.first().cloned()
        });
        let Run {
            reps,
            reference,
            ops,
        } = &mut runs[i];
        check_outputs(&set[i], reps, reference.as_ref(), ops);
    }
    runs
}

/// A deterministic simulator: every repetition must agree bit for bit,
/// the statistics must be sane, and sharded runs must equal the inline
/// one. Digests are compared with each other, never with a committed
/// constant, so a later protocol fix is not a failure.
fn check_outputs(workload: &Workload, reps: &[Rep], reference: Option<&Rep>, ops: &mut Ops) {
    let Some(first) = reps.first() else {
        ops.check(false, || {
            format!("{}: no repetition completed", workload.name)
        });
        return;
    };
    for (i, rep) in reps.iter().enumerate().skip(1) {
        ops.check(rep.simulated() == first.simulated(), || {
            format!(
                "{}: repetition {i} reports {:?}, repetition 0 {:?}",
                workload.name,
                rep.simulated(),
                first.simulated()
            )
        });
    }
    let unit = |x: f64| x > 0.0 && x <= 1.0;
    ops.check(
        unit(first.f1)
            && unit(first.recall)
            && first.sim_messages() > 0
            && first.measured_items > 0,
        || {
            format!(
                "{}: implausible statistics f1={} recall={} messages={} measured items={}",
                workload.name,
                first.f1,
                first.recall,
                first.sim_messages(),
                first.measured_items
            )
        },
    );
    if let (Some(name), Some(reference)) = (workload.same_report_as, reference) {
        ops.check(reference.digest == first.digest, || {
            format!(
                "{}: report digest {} differs from {name}'s {}",
                workload.name, first.digest, reference.digest
            )
        });
    }
}
