//! Fault injection for the worker/transport failure paths: a worker that
//! is down, dies early, truncates a frame, or speaks the wrong protocol
//! version must surface a typed error naming the endpoint — no hang, no
//! panic — on both the process and the socket transport; and a worker
//! that loses its driver must exit non-zero with a one-line message
//! instead of a panic backtrace.

mod common;

use bytes::Bytes;
use serde::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use whatsup_core::{
    BeepConfig, ColdStart, ItemId, NewsItem, NewsMessage, NodeId, NodeStats, Payload, Profile,
    RpsConfig, SharedProfile,
};
use whatsup_net::codec::DecodeError;
use whatsup_net::wire::encode;
use whatsup_sim::engine::exchange::stream::{
    encode_handshake, encode_hello, read_frame, run_worker, write_frame, WorkerError,
    HANDSHAKE_MAGIC, PROTOCOL_VERSION,
};
use whatsup_sim::engine::exchange::TransportErrorKind;
use whatsup_sim::engine::mailbox::encode_shard_bundle;
use whatsup_sim::engine::{Command, Partition, ShardInit, ShardState};
use whatsup_sim::scenario::{ChurnModel, LossModel};
use whatsup_sim::{Oracle, Protocol, Runner, SimConfig, Supervision};

fn dataset() -> whatsup_datasets::Dataset {
    whatsup_datasets::survey::generate(&whatsup_datasets::SurveyConfig::paper().scaled(0.08), 5)
}

fn cfg() -> SimConfig {
    SimConfig {
        cycles: 8,
        publish_from: 2,
        measure_from: 4,
        ..Default::default()
    }
}

/// Runs the committed entry point against `workers` and returns the error
/// message (the run must fail).
fn socket_run_err(workers: Vec<String>) -> String {
    let d = dataset();
    let err = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(cfg())
        .socket(workers)
        .try_run()
        .expect_err("the run must fail");
    err.to_string()
}

/// A fake worker: binds a loopback listener, runs `peer` on the first
/// connection in a background thread, and returns the address.
fn fake_worker(
    peer: impl FnOnce(TcpStream) + Send + 'static,
) -> (std::thread::JoinHandle<()>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        peer(stream);
    });
    (handle, addr)
}

// ---------------------------------------------------------------------------
// Socket transport, driver-side faults
// ---------------------------------------------------------------------------

#[test]
fn dialing_a_down_worker_fails_cleanly_naming_the_address() {
    // Bind-then-drop guarantees the port exists but nothing listens on it.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("local addr").to_string()
    };
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
}

#[test]
fn handshake_version_mismatch_fails_cleanly_naming_the_address() {
    let (handle, addr) = fake_worker(|mut stream| {
        write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION + 41)).expect("send hello");
        // Hold the socket until the driver has read the hello.
        let _ = read_frame(&mut stream);
    });
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
    let want = format!("v{}", PROTOCOL_VERSION + 41);
    assert!(msg.contains(&want), "error must name the version: {msg}");
    handle.join().expect("fake worker thread");
}

#[test]
fn foreign_peer_greeting_fails_cleanly() {
    let (handle, addr) = fake_worker(|mut stream| {
        // An 11-byte frame that is not a hello at all.
        write_frame(&mut stream, b"HTTP/1.1 OK").expect("send junk");
        let _ = read_frame(&mut stream);
    });
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
    assert!(
        msg.contains("not a sim-shard-worker"),
        "error must call out the foreign greeting: {msg}"
    );
    handle.join().expect("fake worker thread");
}

#[test]
fn premature_peer_close_fails_cleanly_instead_of_hanging() {
    let (handle, addr) = fake_worker(|mut stream| {
        write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION)).expect("send hello");
        let _ = read_frame(&mut stream).expect("read handshake");
        // Drop without serving a single command.
    });
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
    handle.join().expect("fake worker thread");
}

#[test]
fn truncated_reply_frame_fails_cleanly() {
    let (handle, addr) = fake_worker(|mut stream| {
        write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION)).expect("send hello");
        let _ = read_frame(&mut stream).expect("read handshake");
        let _ = read_frame(&mut stream).expect("read first command");
        // A frame header promising 100 bytes, followed by 3 and EOF.
        stream.write_all(&100u32.to_le_bytes()).expect("header");
        stream.write_all(b"abc").expect("torn payload");
        // Dropping the stream truncates the frame on the wire.
    });
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
    handle.join().expect("fake worker thread");
}

#[test]
fn undecodable_reply_frame_fails_cleanly_naming_the_address() {
    let (handle, addr) = fake_worker(|mut stream| {
        write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION)).expect("send hello");
        let _ = read_frame(&mut stream).expect("read handshake");
        let _ = read_frame(&mut stream).expect("read first command");
        // A whole frame, but no reply has tag 99.
        write_frame(&mut stream, &[99]).expect("send garbage reply");
        let _ = read_frame(&mut stream);
    });
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(msg.contains(&addr), "error must name the address: {msg}");
    assert!(msg.contains("malformed"), "error must say why: {msg}");
    handle.join().expect("fake worker thread");
}

// ---------------------------------------------------------------------------
// Process transport, driver-side faults (impostor worker scripts)
// ---------------------------------------------------------------------------

/// Writes an executable shell script that plays a broken worker.
fn impostor_script(name: &str, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let path =
        std::env::temp_dir().join(format!("whatsup-impostor-{}-{name}.sh", std::process::id()));
    std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("write script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    path
}

/// Octal-escapes bytes for a POSIX `printf`.
fn printf_escape(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("\\{b:03o}")).collect()
}

/// The exact on-wire bytes of a hello frame at `version`.
fn hello_frame(version: u16) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &encode_hello(version)).expect("in-memory write");
    buf
}

fn process_run_err(script: &PathBuf) -> String {
    let d = dataset();
    let err = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(cfg())
        .multiprocess(script)
        .try_run()
        .expect_err("the run must fail");
    let _ = std::fs::remove_file(script);
    err.to_string()
}

#[test]
fn worker_process_that_never_speaks_times_out_instead_of_hanging() {
    // A child that is alive but silent (e.g. not a shard worker at all):
    // the bounded hello wait must kill it and fail typed, well before the
    // impostor's sleep ends.
    let script = impostor_script("mute", "sleep 30");
    let start = std::time::Instant::now();
    let msg = process_run_err(&script);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(25),
        "the hello wait must be bounded"
    );
    assert!(msg.contains("no hello"), "error must explain: {msg}");
}

#[test]
fn silent_socket_peer_times_out_instead_of_hanging() {
    let (_handle, addr) = fake_worker(|stream| {
        // Accept, say nothing, hold the socket past the driver's timeout.
        std::thread::sleep(std::time::Duration::from_secs(14));
        drop(stream);
    });
    let start = std::time::Instant::now();
    let msg = socket_run_err(vec![addr.clone()]);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(13),
        "the handshake read must be bounded"
    );
    assert!(msg.contains(&addr), "error must name the address: {msg}");
}

#[test]
fn worker_process_that_exits_immediately_fails_cleanly() {
    let script = impostor_script("exit", "exit 0");
    let msg = process_run_err(&script);
    assert!(
        msg.contains("sim-shard-worker"),
        "error must name the worker: {msg}"
    );
}

#[test]
fn worker_process_with_version_skew_fails_cleanly() {
    let hello = printf_escape(&hello_frame(PROTOCOL_VERSION + 99));
    let script = impostor_script("skew", &format!("printf '{hello}'\nsleep 2"));
    let msg = process_run_err(&script);
    let want = format!("v{}", PROTOCOL_VERSION + 99);
    assert!(msg.contains(&want), "error must name the version: {msg}");
}

#[test]
fn worker_process_that_truncates_a_frame_fails_cleanly() {
    let hello = printf_escape(&hello_frame(PROTOCOL_VERSION));
    // Valid hello, then a frame header promising 100 bytes followed by 3.
    let torn = printf_escape(&{
        let mut b = 100u32.to_le_bytes().to_vec();
        b.extend_from_slice(b"abc");
        b
    });
    let script = impostor_script(
        "truncate",
        &format!("printf '{hello}'\nprintf '{torn}'\nsleep 2"),
    );
    let msg = process_run_err(&script);
    assert!(
        msg.contains("sim-shard-worker"),
        "error must name the worker: {msg}"
    );
}

// ---------------------------------------------------------------------------
// Supervised recovery: kills and hangs become checkpoint/replay restarts,
// and the surviving run reports bit-identically to a fault-free one.
// ---------------------------------------------------------------------------

/// Long enough (~seconds over an external transport in a debug build) that
/// a kill 500 ms in reliably lands mid-run.
fn recovery_cfg() -> SimConfig {
    SimConfig {
        cycles: 40,
        publish_from: 2,
        measure_from: 4,
        ..Default::default()
    }
}

/// Production-shaped supervision with test-sized waits: instant backoff, a
/// deadline short enough that the hung-worker test trips it in seconds.
fn test_supervision() -> Supervision {
    Supervision {
        max_restarts: 3,
        checkpoint_every: 3,
        deadline: Duration::from_secs(2),
        backoff: Duration::from_millis(1),
        dial_window: Duration::from_secs(5),
    }
}

/// The fault-free reference report (transport-invariant by the engine's
/// determinism contract, so the in-process engine provides it).
fn fault_free_report() -> whatsup_sim::SimReport {
    let d = dataset();
    Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(recovery_cfg())
        .run()
}

/// Asserts a supervised run's report is byte-identical to the fault-free
/// reference — the recovery proof the supervision layer promises.
fn assert_bit_identical(survived: &whatsup_sim::SimReport, reference: &whatsup_sim::SimReport) {
    assert_eq!(survived, reference);
    assert_eq!(
        survived.summary().to_json().pretty(),
        reference.summary().to_json().pretty(),
        "the report JSON must be byte-identical to a fault-free run"
    );
}

/// Waits up to `secs` for a worker to exit cleanly; reaps it if it never
/// does (e.g. a replacement that was spawned but never dialed because the
/// fault raced the end of the run on a slow machine).
fn reap_within(mut child: std::process::Child, secs: u64, who: &str) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().expect("poll worker") {
            Some(status) => {
                assert!(status.success(), "{who} must exit cleanly, got {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                child.kill().expect("reap worker");
                let _ = child.wait();
                return;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn supervised_process_run_survives_a_worker_killed_mid_run() {
    let reference = fault_free_report();
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    // The wrapper plays a real worker whose first spawn (whichever shard
    // wins the mkdir) schedules its own SIGKILL 500 ms in — a crash at an
    // arbitrary mid-run cycle. Respawns take the else branch and serve
    // normally.
    let lock = std::env::temp_dir().join(format!("whatsup-kill-once-{}", std::process::id()));
    let _ = std::fs::remove_dir(&lock);
    let script = impostor_script(
        "kill-once",
        &format!(
            "if mkdir '{lock}' 2>/dev/null; then\n  ( sleep 0.5; kill -9 $$ ) 2>/dev/null &\nfi\nexec '{worker}'",
            lock = lock.display()
        ),
    );
    let d = dataset();
    let survived = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(SimConfig {
            shards: 2,
            ..recovery_cfg()
        })
        .multiprocess(&script)
        .supervision(test_supervision())
        .try_run();
    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_dir(&lock);
    let survived = survived.expect("the supervised run must survive the kill");
    assert_bit_identical(&survived, &reference);
}

#[test]
fn supervised_process_run_survives_a_crash_during_recovery() {
    let reference = fault_free_report();
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    // Single shard, two staged crashes: the original worker dies 500 ms
    // into the run, and its first replacement dies 50 ms after spawning —
    // during the restore/replay conversation or just after it. The second
    // replacement (third spawn) must complete the recovery within the
    // 3-restart budget.
    let locks = std::env::temp_dir().join(format!("whatsup-kill-twice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&locks);
    std::fs::create_dir(&locks).expect("lock dir");
    let script = impostor_script(
        "kill-twice",
        &format!(
            "if mkdir '{locks}/first' 2>/dev/null; then\n  \
               ( sleep 0.5; kill -9 $$ ) 2>/dev/null &\n\
             elif mkdir '{locks}/second' 2>/dev/null; then\n  \
               ( sleep 0.05; kill -9 $$ ) 2>/dev/null &\nfi\nexec '{worker}'",
            locks = locks.display()
        ),
    );
    let d = dataset();
    let survived = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(SimConfig {
            shards: 1,
            ..recovery_cfg()
        })
        .multiprocess(&script)
        .supervision(test_supervision())
        .try_run();
    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_dir_all(&locks);
    let survived = survived.expect("recovery must survive a crash during recovery");
    assert_bit_identical(&survived, &reference);
}

/// Runs a supervised socket driver against `addrs` on a background thread.
fn spawn_supervised_socket_driver(
    addrs: Vec<String>,
    supervision: Supervision,
) -> std::thread::JoinHandle<std::io::Result<whatsup_sim::SimReport>> {
    std::thread::spawn(move || {
        let d = dataset();
        Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
            .config(recovery_cfg())
            .socket(addrs)
            .supervision(supervision)
            .try_run()
    })
}

#[test]
fn supervised_socket_run_survives_a_worker_killed_mid_run() {
    let reference = fault_free_report();
    let (w0, a0) = common::spawn_listen_worker();
    let (mut w1, a1) = common::spawn_listen_worker();
    let driver = spawn_supervised_socket_driver(vec![a0, a1.clone()], test_supervision());
    std::thread::sleep(Duration::from_millis(500));
    // A listen worker drops its listener once the driver connects, so the
    // replacement can take over the address before the victim even dies —
    // the redial then finds it listening immediately.
    let (w1b, _) = common::spawn_listen_worker_at(&a1);
    w1.kill().expect("kill worker 1 mid-run");
    let _ = w1.wait();
    let survived = driver
        .join()
        .expect("driver thread")
        .expect("the supervised run must survive the kill");
    common::assert_clean_exit(w0, "undisturbed worker");
    reap_within(w1b, 20, "replacement worker");
    assert_bit_identical(&survived, &reference);
}

#[test]
fn supervised_socket_run_recovers_a_hung_worker() {
    let reference = fault_free_report();
    let (w0, a0) = common::spawn_listen_worker();
    let (mut w1, a1) = common::spawn_listen_worker();
    let driver = spawn_supervised_socket_driver(vec![a0, a1.clone()], test_supervision());
    std::thread::sleep(Duration::from_millis(500));
    // SIGSTOP, not SIGKILL: the connection stays open but goes silent —
    // the failure mode only the read/write deadline can detect.
    let stopped = std::process::Command::new("kill")
        .args(["-STOP", &w1.id().to_string()])
        .status()
        .expect("send SIGSTOP");
    assert!(stopped.success(), "SIGSTOP must land");
    let (w1b, _) = common::spawn_listen_worker_at(&a1);
    let survived = driver
        .join()
        .expect("driver thread")
        .expect("the supervised run must recover the hung worker");
    // Thaw-free teardown: the frozen worker is dead weight — reap it.
    let _ = std::process::Command::new("kill")
        .args(["-KILL", &w1.id().to_string()])
        .status();
    let _ = w1.wait();
    common::assert_clean_exit(w0, "undisturbed worker");
    reap_within(w1b, 20, "replacement worker");
    assert_bit_identical(&survived, &reference);
}

#[test]
fn supervised_exhaustion_surfaces_the_original_error() {
    let (mut w0, a0) = common::spawn_listen_worker();
    // No replacement ever takes over the address: every redial is refused,
    // the 2-restart budget burns out, and the error that surfaces must be
    // the ORIGINAL mid-run failure naming the worker — not the last
    // connection-refused dial of the recovery loop. The cycle count is
    // effectively unbounded so the kill lands mid-run in any build
    // profile; the run only ever ends through the expected error.
    let driver = std::thread::spawn({
        let addr = a0.clone();
        move || {
            let d = dataset();
            Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
                .config(SimConfig {
                    cycles: 1_000_000,
                    ..recovery_cfg()
                })
                .socket(vec![addr])
                .supervision(Supervision {
                    max_restarts: 2,
                    checkpoint_every: 3,
                    deadline: Duration::from_secs(2),
                    backoff: Duration::from_millis(1),
                    dial_window: Duration::from_millis(300),
                })
                .try_run()
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    w0.kill().expect("kill the only worker");
    let _ = w0.wait();
    let err = driver
        .join()
        .expect("driver thread")
        .expect_err("no replacement ever comes up — the run must fail");
    let msg = err.to_string();
    assert!(msg.contains(&a0), "error must name the worker: {msg}");
    assert!(
        !msg.to_lowercase().contains("refused"),
        "the original failure must surface, not the recovery loop's dial error: {msg}"
    );
}

// ---------------------------------------------------------------------------
// Worker-side faults: a vanished driver must not leave a panic backtrace
// ---------------------------------------------------------------------------

fn assert_one_line_failure(child: std::process::Child, who: &str) {
    let out = child.wait_with_output().expect("wait for worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{who} must exit non-zero: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "{who} must not panic: {stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("sim-shard-worker:")),
        "{who} must leave a one-line message: {stderr:?}"
    );
}

#[test]
fn socket_worker_survives_a_driver_that_connects_and_vanishes() {
    let (child, addr) = common::spawn_listen_worker();
    drop(TcpStream::connect(&addr).expect("connect"));
    assert_one_line_failure(child, "listen worker");
}

#[test]
fn socket_worker_rejects_a_version_skewed_driver() {
    let (child, addr) = common::spawn_listen_worker();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let hello = read_frame(&mut stream)
        .expect("read hello")
        .expect("hello frame");
    assert_eq!(
        whatsup_sim::engine::exchange::stream::decode_hello(&hello).expect("worker hello"),
        PROTOCOL_VERSION
    );
    // A handshake header with a skewed version and no init: the version
    // gate must fire before the payload is touched.
    write_frame(&mut stream, &encode_hello(PROTOCOL_VERSION + 7)).expect("send skewed handshake");
    let out = child.wait_with_output().expect("wait for worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "worker must exit non-zero: {stderr}");
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    assert!(
        stderr.contains(&format!("v{}", PROTOCOL_VERSION + 7)),
        "message must name the version: {stderr}"
    );
}

#[test]
fn stdio_worker_survives_a_driver_that_dies_before_the_handshake() {
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    let child = std::process::Command::new(worker)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn worker");
    // Dropping the handles closes stdin: EOF before the handshake.
    assert_one_line_failure(child, "stdio worker");
}

#[test]
fn killing_the_driver_leaves_no_zombie_and_no_backtrace() {
    // Drive a real listen worker through the handshake with a real driver
    // process (the CLI), kill the driver mid-run, and check the worker
    // dies promptly and quietly. The scenario is the committed showcase,
    // big enough that the kill lands mid-run.
    let (mut worker, addr) = common::spawn_listen_worker();
    let cli = env!("CARGO_BIN_EXE_whatsup-sim");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/flash_crowd_crash_wave.json"
    );
    let mut driver = std::process::Command::new(cli)
        .args(["run", committed, "--workers", &addr])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn driver");
    // Wait until the worker has accepted the connection (its LISTEN line is
    // already consumed; give the handshake a moment), then kill the driver.
    std::thread::sleep(std::time::Duration::from_millis(300));
    driver.kill().expect("kill driver");
    let _ = driver.wait();
    // Bounded wait so the suite can never hang: once the driver is gone,
    // the worker must die promptly (EOF on its connection).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = worker.try_wait().expect("poll worker") {
            break Some(status);
        }
        if std::time::Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let Some(status) = status else {
        // The kill raced ahead of the driver's connect on a slow machine:
        // the worker is still (legitimately) blocked in accept, waiting
        // for a driver that will never dial. Reap it instead of hanging;
        // the deterministic driver-vanishes path is pinned by
        // `socket_worker_survives_a_driver_that_connects_and_vanishes`.
        worker.kill().expect("reap the never-dialed worker");
        let _ = worker.wait();
        return;
    };
    let mut stderr = String::new();
    if let Some(mut pipe) = worker.stderr.take() {
        use std::io::Read;
        pipe.read_to_string(&mut stderr)
            .expect("read worker stderr");
    }
    // Either the run was still going (worker exits 1 with its one-line
    // message) or the kill raced the final Stop (clean exit 0) — what must
    // never happen is a panic backtrace or a hang.
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");
    if !status.success() {
        assert!(
            stderr.lines().any(|l| l.starts_with("sim-shard-worker:")),
            "one-line message expected: {stderr:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Worker-side faults: hostile command streams end in a typed error
// ---------------------------------------------------------------------------

/// Shard 0 of two in a four-node run whose one item is id 7.
fn shard_0_init() -> ShardInit {
    let likes = whatsup_datasets::LikeMatrix::new(4, 1);
    let ids = [(7u64, 0u32)].into_iter().collect();
    let partition = Partition::new(4, 2);
    ShardInit {
        index: 0,
        bootstrap: partition.range(0).map(|id| vec![(id + 1) % 4]).collect(),
        partition,
        seed: 1,
        loss: LossModel::Constant { p: 0.0 },
        churn: ChurnModel::None,
        params: whatsup_core::Params::whatsup(2),
        oracle: Oracle::new(likes, ids),
    }
}

/// The handshake frame a driver sends shard 0 of a four-node run.
fn real_handshake() -> Vec<u8> {
    encode_handshake(&shard_0_init())
}

/// A checkpoint frame laid out as `ShardState::encode_checkpoint` writes
/// it, so a test can put in it what that encoder never would.
struct Checkpoint {
    partition: Partition,
    channel_bad: Vec<bool>,
    known_items: Vec<NewsItem>,
    oracle: OracleFrame,
    nodes: Vec<NodeRecord>,
}

whatsup_net::wire_codec! { struct Checkpoint { partition, channel_bad, known_items, oracle, nodes } }

struct NodeRecord {
    profile: Profile,
    views: ColdStart,
    seen: Vec<ItemId>,
    stats: NodeStats,
}

whatsup_net::wire_codec! { struct NodeRecord { profile, views, seen, stats } }

/// A checkpoint of [`shard_0_init`]'s shard at cycle 0, except that its
/// first node has received `seen`, in that order.
fn checkpoint_with_seen(seen: &[ItemId]) -> Vec<u8> {
    checkpoint_with(seen, &[0])
}

/// [`checkpoint_with_seen`], and an item index whose one item has the
/// creation times `created`.
fn checkpoint_with(seen: &[ItemId], created: &[u32]) -> Vec<u8> {
    let init = shard_0_init();
    let owned = init.partition.range(0).len();
    let nodes = (0..owned)
        .map(|local| NodeRecord {
            profile: Profile::new(),
            views: ColdStart::default(),
            seen: if local == 0 {
                seen.to_vec()
            } else {
                Vec::new()
            },
            stats: NodeStats::default(),
        })
        .collect();
    encode(&Checkpoint {
        partition: init.partition,
        channel_bad: vec![false; owned],
        known_items: Vec::new(),
        oracle: oracle_with(&[(7, 0)], created),
        nodes,
    })
}

#[test]
fn restore_refuses_seen_ids_out_of_order_and_keeps_the_state() {
    let mut shard = ShardState::from_init(shard_0_init());
    let ascending = checkpoint_with_seen(&[3, 7]);
    shard
        .restore_checkpoint(&ascending)
        .expect("ascending ids restore");
    let restored = shard.encode_checkpoint();
    assert!(
        shard.nodes()[0].has_seen(3),
        "an id the index does not know"
    );
    assert!(shard.nodes()[0].has_seen(7), "the indexed item");
    for seen in [&[7, 3][..], &[7, 7]] {
        let err = shard.restore_checkpoint(&checkpoint_with_seen(seen));
        let refused = matches!(err, Err(DecodeError::Invalid("seen ids not ascending")));
        assert!(refused, "{seen:?}: {err:?}");
        assert_eq!(
            shard.encode_checkpoint(),
            restored,
            "{seen:?}: state untouched"
        );
    }
}

#[test]
fn restore_refuses_creation_times_not_one_per_id_and_keeps_the_state() {
    let mut shard = ShardState::from_init(shard_0_init());
    shard
        .restore_checkpoint(&checkpoint_with(&[7], &[0]))
        .expect("one creation time for the one id restores");
    let restored = shard.encode_checkpoint();
    for created in [&[][..], &[0, 0]] {
        let err = shard.restore_checkpoint(&checkpoint_with(&[3, 7], created));
        assert!(
            matches!(err, Err(DecodeError::Invalid(_))),
            "{created:?}: {err:?}"
        );
        assert_eq!(
            shard.encode_checkpoint(),
            restored,
            "{created:?}: state untouched"
        );
    }
}

/// A [`ShardInit`] frame laid out as the driver writes it, with the params'
/// metric tag and the oracle spelled out, so a test can put in them what
/// the driver never would.
struct InitFrame {
    index: usize,
    partition: Partition,
    seed: u64,
    loss: LossModel,
    churn: ChurnModel,
    params: ParamsFrame,
    oracle: OracleFrame,
    bootstrap: Vec<Vec<NodeId>>,
}

whatsup_net::wire_codec! {
    struct InitFrame { index, partition, seed, loss, churn, params, oracle, bootstrap }
}

struct ParamsFrame {
    rps: RpsConfig,
    rps_period: u32,
    wup_view_size: usize,
    metric: u8,
    profile_window: u32,
    beep: BeepConfig,
    cold_start_items: usize,
    obfuscation_epsilon: f64,
}

whatsup_net::wire_codec! {
    struct ParamsFrame {
        rps, rps_period, wup_view_size, metric, profile_window, beep, cold_start_items,
        obfuscation_epsilon,
    }
}

struct OracleFrame {
    n_users: usize,
    n_items: usize,
    words: Vec<u64>,
    ids: Vec<(ItemId, u32)>,
    created: Vec<u32>,
    alias: Vec<u32>,
}

whatsup_net::wire_codec! { struct OracleFrame { n_users, n_items, words, ids, created, alias } }

/// [`shard_0_init`]'s oracle with item index `ids` and creation times
/// `created` (its one item is id 7 at index 0, created at 0).
fn oracle_with(ids: &[(ItemId, u32)], created: &[u32]) -> OracleFrame {
    let oracle = shard_0_init().oracle;
    let likes = oracle.matrix();
    OracleFrame {
        n_users: likes.n_users(),
        n_items: likes.n_items(),
        words: likes.words().to_vec(),
        ids: ids.to_vec(),
        created: created.to_vec(),
        alias: oracle.alias().to_vec(),
    }
}

/// [`shard_0_init`]'s init frame with metric tag `metric` and an oracle
/// of item index `ids` and creation times `created` (its metric is WUP,
/// tag 0).
fn init_with(metric: u8, ids: &[(ItemId, u32)], created: &[u32]) -> Vec<u8> {
    let init = shard_0_init();
    let params = init.params;
    encode(&InitFrame {
        index: init.index,
        partition: init.partition,
        seed: init.seed,
        loss: init.loss,
        churn: init.churn,
        params: ParamsFrame {
            rps: params.rps,
            rps_period: params.rps_period,
            wup_view_size: params.wup_view_size,
            metric,
            profile_window: params.profile_window,
            beep: params.beep,
            cold_start_items: params.cold_start_items,
            obfuscation_epsilon: params.obfuscation_epsilon,
        },
        oracle: oracle_with(ids, created),
        bootstrap: init.bootstrap,
    })
}

#[test]
fn the_init_mirror_writes_what_the_driver_writes() {
    assert_eq!(init_with(0, &[(7, 0)], &[0]), encode(&shard_0_init()));
}

/// A handshake header at the current version followed by `init`.
fn handshake_with(init: &[u8]) -> Vec<u8> {
    let mut frame = HANDSHAKE_MAGIC.to_le_bytes().to_vec();
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.extend_from_slice(init);
    frame
}

/// Frames with this tag and these bytes after it.
fn tagged(tag: u8, rest: &[&[u8]]) -> Vec<u8> {
    let mut frame = vec![tag];
    rest.iter().for_each(|part| frame.extend_from_slice(part));
    frame
}

/// A cycle-0 `DeliverGossip` to shard 0 of two: its own (empty) slot,
/// then `bundle` from shard 1.
fn deliver_gossip(bundle: &[u8]) -> Vec<u8> {
    let len = u32::try_from(bundle.len()).expect("a small bundle");
    let counts = [0u32, 2, 0, len].map(u32::to_le_bytes);
    let mut frame = tagged(2, &counts.each_ref().map(|c| &c[..]));
    frame.extend_from_slice(bundle);
    frame
}

/// Hostile streams — each a sequence of frames a driver could send — and
/// what they exercise. The first six once crashed the worker (unknown
/// opcode, truncation, counts no frame can hold, a garbage init); the next
/// four carry well-formed commands whose nested frames do not decode, two
/// of them mailbox bundles from shard 1; the next three decode entirely
/// but name a node shard 0 does not own; the next three decode but do not
/// fit shard 0 of two in a four-node run (a joiner's snapshot belongs to
/// the last shard; ids beyond the population); the next three carry
/// bundles from shard 1 that decode but do not fit the round (mail for a
/// node of shard 1, gossip in a news round, news in a gossip round); the
/// next restores a checkpoint that decodes but whose seen ids are out of
/// order; the last three are inits the decoder refuses: two item ids on
/// one index, a metric tag no metric has, and a creation-time column
/// longer than the item index.
fn hostile_streams() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let handshake = real_handshake();
    let stream = |cmd: Vec<u8>| vec![handshake.clone(), cmd];
    let max = u32::MAX.to_le_bytes();
    let foreign = 1_000_000;
    let snapshot = Bytes::from(encode(&ColdStart::default()));
    let item = NewsItem::new("title", "description", "link", foreign, 0);
    // Shard 1's mail to `to`, as one bundle entry from node 2.
    let from_shard_1 = |to, payload| {
        let items = BTreeMap::from([(item.id(), item.clone())]);
        vec![
            Bytes::new(),
            encode_shard_bundle(1, &[(to, 2, payload)], &items),
        ]
    };
    let gossip = || Payload::RpsRequest(Vec::new());
    let news = || {
        Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::default(),
            dislikes: 0,
            hops: 1,
        })
    };
    vec![
        ("unknown opcode", stream(vec![99])),
        ("truncated Collect", stream(tagged(1, &[&[0, 0]]))),
        (
            "TakeSnapshots with 2^30 ids",
            stream(tagged(4, &[&(1u32 << 30).to_le_bytes()])),
        ),
        (
            "DeliverGossip with 2^32-1 bundles",
            stream(tagged(2, &[&3u32.to_le_bytes(), &max])),
        ),
        ("5-byte Restore", stream(tagged(14, &[&max]))),
        ("garbage init", vec![handshake_with(&[0xff; 7])]),
        (
            "ApplyChurn with a garbage snapshot",
            stream(tagged(
                5,
                &[
                    &1u32.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &[2, 0, 0, 0, 9, 9],
                ],
            )),
        ),
        (
            "Restore with a garbage checkpoint",
            stream(tagged(14, &[&3u32.to_le_bytes(), &[1, 2, 3]])),
        ),
        (
            "DeliverGossip with a 3-byte junk bundle",
            stream(deliver_gossip(&[1, 2, 3])),
        ),
        (
            "DeliverGossip with a junk frame in a bundle",
            stream(deliver_gossip(&tagged(
                6,
                &[
                    &1u32.to_le_bytes(),
                    &1u32.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &3u32.to_le_bytes(),
                    &[9, 9, 9],
                ],
            ))),
        ),
        (
            "TakeSnapshots of a foreign node",
            stream(encode(&Command::TakeSnapshots { ids: vec![foreign] })),
        ),
        (
            "ApplyChurn of a foreign node",
            stream(encode(&Command::ApplyChurn {
                resets: vec![(foreign, snapshot)],
            })),
        ),
        (
            "Publish from a foreign node",
            stream(encode(&Command::Publish {
                cycle: 0,
                item: item.clone(),
            })),
        ),
        (
            "Admit with a snapshot to a shard other than the last",
            stream(encode(&Command::Admit {
                reference: 0,
                snapshot: Some(Bytes::from(encode(&ColdStart::default()))),
            })),
        ),
        (
            "Admit cloning a node outside the population",
            stream(encode(&Command::Admit {
                reference: foreign,
                snapshot: None,
            })),
        ),
        (
            "SwapInterests outside the population",
            stream(encode(&Command::SwapInterests { a: 1, b: foreign })),
        ),
        (
            "DeliverGossip with mail for a node of another shard",
            stream(encode(&Command::DeliverGossip {
                cycle: 0,
                bundles: from_shard_1(3, gossip()),
            })),
        ),
        (
            "DeliverNews with a gossip frame in a bundle",
            stream(encode(&Command::DeliverNews {
                cycle: 0,
                item: item.id(),
                bundles: from_shard_1(0, gossip()),
            })),
        ),
        (
            "DeliverGossip with a news frame in a bundle",
            stream(encode(&Command::DeliverGossip {
                cycle: 0,
                bundles: from_shard_1(1, news()),
            })),
        ),
        (
            "Restore with seen ids out of order",
            stream(encode(&Command::Restore {
                frame: Bytes::from(checkpoint_with_seen(&[7, 3])),
            })),
        ),
        (
            "init whose item index gives two ids one slot",
            vec![handshake_with(&init_with(0, &[(7, 0), (8, 0)], &[0, 0]))],
        ),
        (
            "init whose params name metric tag 2",
            vec![handshake_with(&init_with(2, &[(7, 0)], &[0]))],
        ),
        (
            "init whose item index has two creation times for one id",
            vec![handshake_with(&init_with(0, &[(7, 0)], &[0, 0]))],
        ),
    ]
}

fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for frame in frames {
        write_frame(&mut stream, frame).expect("in-memory write");
    }
    stream
}

#[test]
fn hostile_command_streams_end_in_a_typed_worker_error() {
    for (what, frames) in hostile_streams() {
        let mut output = Vec::new();
        let err = run_worker(&mut &framed(&frames)[..], &mut output)
            .expect_err(what)
            .to_string();
        assert_eq!(err.lines().count(), 1, "{what}: one line, got {err:?}");
        let typed = match run_worker(&mut &framed(&frames)[..], &mut Vec::new()) {
            Err(WorkerError::Malformed(_)) => frames.len() == 2,
            Err(WorkerError::Handshake(TransportErrorKind::Decode(_))) => frames.len() == 1,
            _ => false,
        };
        assert!(typed, "{what}: {err}");
    }
}

#[test]
fn stdio_worker_exits_1_on_each_hostile_command_stream() {
    let worker = env!("CARGO_BIN_EXE_sim-shard-worker");
    for (what, frames) in hostile_streams() {
        let mut child = std::process::Command::new(worker)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker");
        let mut stdin = child.stdin.take().expect("worker stdin");
        // The worker may exit before it reads everything: ignore EPIPE.
        let _ = stdin.write_all(&framed(&frames));
        drop(stdin);
        let out = child.wait_with_output().expect("wait for worker");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{what}: {stderr:?}");
        assert!(
            stderr.starts_with("sim-shard-worker:"),
            "{what}: {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(!stderr.contains("memory allocation"), "{what}: {stderr}");
    }
}
