//! Shard worker process for the multi-process and distributed sharded
//! engine.
//!
//! ```text
//! sim-shard-worker                      # stdio mode (spawned by the driver)
//! sim-shard-worker --listen <addr>      # socket mode (started before the driver)
//! ```
//!
//! Both modes speak the same conversation (see
//! `whatsup_sim::engine::exchange::stream`): the worker sends a versioned
//! hello, the driver answers with a handshake frame carrying this shard's
//! `ShardInit`, then one reply frame per command frame until `Stop`.
//!
//! In socket mode the worker binds `<addr>` (`host:port`; port `0` picks a
//! free one), prints `LISTEN <actual-addr>` on stdout so launchers can
//! discover the port, serves exactly one driver connection, and exits —
//! workers never outlive their run. Start the workers first, then the
//! driver (`whatsup-sim run … --workers addr,…`).
//!
//! Exit status: `0` after an orderly `Stop`; `1` with a one-line stderr
//! message when the driver vanishes mid-run (EOF/broken pipe) or the
//! handshake fails; `2` for bad usage. A killed driver must never leave a
//! panic backtrace here.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use whatsup_sim::engine::exchange::stream::{
    accept_handshake, run_worker, serve_stream, HANDSHAKE_TIMEOUT,
};

fn usage() -> ExitCode {
    eprintln!("usage: sim-shard-worker [--listen <host:port>]");
    ExitCode::from(2)
}

fn fail(err: impl std::fmt::Display) -> ExitCode {
    eprintln!("sim-shard-worker: {err}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => serve_stdio(),
        [flag, addr] if flag == "--listen" => serve_socket(addr),
        _ => usage(),
    }
}

/// Stdio mode: the driver is the parent process, frames ride the pipes.
fn serve_stdio() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = BufWriter::new(stdout.lock());
    match run_worker(&mut input, &mut output) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// Socket mode: bind, announce, serve one driver connection, exit.
fn serve_socket(addr: &str) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(format_args!("cannot listen on {addr}: {e}")),
    };
    match listener.local_addr() {
        Ok(local) => {
            // The launcher reads this line to learn the bound port
            // (relevant with `--listen host:0`).
            println!("LISTEN {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => return fail(format_args!("cannot read bound address: {e}")),
    }
    let (stream, peer) = match listener.accept() {
        Ok(conn) => conn,
        Err(e) => return fail(format_args!("accept failed: {e}")),
    };
    drop(listener);
    let _ = stream.set_nodelay(true);
    // A peer that connects and then says nothing must not wedge the
    // worker forever: bound the handshake reads, then let the lockstep
    // rounds block freely once the driver has proven itself.
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return fail("cannot arm the handshake timeout");
    }
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => return fail(format_args!("cannot clone the connection: {e}")),
    };
    let mut input = BufReader::new(reader);
    let mut output = BufWriter::new(stream);
    let mut state = match accept_handshake(&mut input, &mut output) {
        Ok(state) => state,
        Err(e) => return fail(format_args!("driver {peer}: {e}")),
    };
    if output.get_ref().set_read_timeout(None).is_err() {
        return fail("cannot disarm the handshake timeout");
    }
    match serve_stream(&mut state, &mut input, &mut output) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(format_args!("driver {peer}: {e}")),
    }
}
