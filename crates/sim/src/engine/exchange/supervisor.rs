//! Worker supervision: checkpoint/replay recovery around a restartable
//! link, so a crashed or hung `sim-shard-worker` becomes a pause instead
//! of a dead run.
//!
//! `Supervised` wraps one shard's `Restartable` link and is a
//! `ShardLink` itself, so the driver above is oblivious: a call either
//! succeeds — the failure handled internally — or fails only after the
//! restart budget is exhausted or a fatal (non-retryable) error surfaces.
//! Wrapping per shard is what makes recovery local: one shard's traffic
//! is re-issued while the others' pipes keep their unread replies.
//!
//! # Recovery protocol
//!
//! The wrapper keeps the shard's last checkpoint (the driver issues a
//! `TakeCheckpoint` round-trip every [`Supervision::checkpoint_every`]
//! cycles; the wrapper keeps the reply on its way up) and the log of
//! every command answered since. When the conversation fails with a
//! *retryable* error (`super::TransportErrorKind::is_retryable`):
//!
//! 1. back off (bounded exponential, deterministic jitter);
//! 2. `Restartable::restart`: respawn the child or redial the address
//!    and re-run the versioned handshake with the shard's original init;
//! 3. send [`Command::Restore`] with the last checkpoint (skipped before
//!    the first checkpoint — the freshly handshaken worker already sits at
//!    the `from_init` state the log starts from);
//! 4. replay the logged commands, discarding the replies — shards are
//!    deterministic functions of `(init, command sequence)`, so the
//!    replayed replies are identical to the ones the driver already
//!    consumed;
//! 5. re-issue the in-flight command and hand its reply to the driver.
//!
//! A crash *during* recovery simply burns another restart from the same
//! budget and tries again; exhaustion surfaces the original error.

use super::{answer, unpack, Command, Reply, ShardLink, TransportError};
use bytes::Bytes;
use std::time::Duration;
use whatsup_core::fnv1a64;

/// Supervision knobs, handed to [`crate::Runner::supervision`]. The two
/// first-class ones (restart budget, checkpoint cadence) are what
/// [`Supervision::new`] and the CLI set; the rest have defaults tuned for
/// real deployments and are overridable field by field (tests shrink
/// them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervision {
    /// Restarts allowed *per shard* before the run gives up and surfaces
    /// the original error.
    pub max_restarts: u32,
    /// Cycles between checkpoints (≥ 1). Checkpoints bound both the
    /// command log replayed on recovery and its memory footprint.
    pub checkpoint_every: u32,
    /// Hang detection: per-read/write deadline on socket conversations (a
    /// hard-deadline simplification of a phi-accrual liveness detector). A
    /// worker that neither answers nor closes within the deadline is
    /// treated as dead. Generous by default — a lockstep round on a big
    /// shard legitimately takes seconds. Pipes cannot arm deadlines; a
    /// crashed child surfaces as EOF instead.
    pub deadline: Duration,
    /// Base of the exponential backoff between restart attempts.
    pub backoff: Duration,
    /// Window over which a socket redial (and the initial dial) is
    /// retried before the attempt counts as failed.
    pub dial_window: Duration,
}

impl Default for Supervision {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            checkpoint_every: 5,
            deadline: Duration::from_secs(30),
            backoff: Duration::from_millis(100),
            dial_window: Duration::from_secs(3),
        }
    }
}

impl Supervision {
    /// The two first-class knobs, every other one at its default.
    pub fn new(max_restarts: u32, checkpoint_every: u32) -> Self {
        Self {
            max_restarts,
            checkpoint_every,
            ..Self::default()
        }
    }
}

/// A link whose worker can be replaced.
pub(crate) trait Restartable: ShardLink {
    /// Tears the conversation down and re-establishes it with a fresh
    /// worker, which on success sits at the `from_init` state.
    fn restart(&mut self) -> Result<(), TransportError>;
}

/// The supervision wrapper of one shard's link. See the module docs for
/// the protocol.
pub(crate) struct Supervised<L> {
    link: L,
    shard: usize,
    sup: Supervision,
    /// Last checkpoint; `None` until the first cadence point (recovery
    /// then replays from the `from_init` state).
    checkpoint: Option<Bytes>,
    /// Commands answered since the last checkpoint (appended only after
    /// the command's reply arrived).
    log: Vec<Command>,
    /// Restarts consumed.
    restarts: u32,
    /// The command sent and not yet answered.
    inflight: Option<Command>,
    /// The in-flight command's reply when a failed send already recovered
    /// the shard completely; handed out by the next `recv`.
    parked: Option<Reply>,
}

impl<L: Restartable> Supervised<L> {
    /// Wraps the link of `shard` (the index only seeds the backoff
    /// jitter) under a supervision the runner's check admitted
    /// (`checkpoint_every` ≥ 1).
    pub(crate) fn new(link: L, shard: usize, sup: Supervision) -> Self {
        Self {
            link,
            shard,
            sup,
            checkpoint: None,
            log: Vec::new(),
            restarts: 0,
            inflight: None,
            parked: None,
        }
    }

    /// Restarts consumed so far (observability/tests).
    pub(crate) fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Bounded exponential backoff with deterministic jitter: attempt `k`
    /// sleeps in `[d/2, d)` for `d = backoff·2^k` capped at 2 s. The
    /// jitter is a pure function of `(shard, restart count, attempt)` —
    /// no entropy source, so supervised runs stay reproducible end to end.
    fn backoff_sleep(&self, attempt: u32) {
        if self.sup.backoff.is_zero() {
            return;
        }
        let exp = self.sup.backoff.saturating_mul(1 << attempt.min(4));
        let capped = exp.min(Duration::from_secs(2));
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&(self.shard as u64).to_le_bytes());
        key[8..16].copy_from_slice(&u64::from(self.restarts).to_le_bytes());
        key[16..].copy_from_slice(&u64::from(attempt).to_le_bytes());
        let frac = (fnv1a64(&key) % 1024) as f64 / 2048.0;
        std::thread::sleep(capped.mul_f64(0.5 + frac));
    }

    /// Recovers the shard after `original` failed its conversation, then
    /// re-issues the in-flight `cmd` and returns its reply. Retries the
    /// whole recovery (a replacement can die mid-replay) until the restart
    /// budget runs out, at which point the *original* error surfaces;
    /// non-retryable errors surface immediately.
    fn recover_and_reissue(
        &mut self,
        cmd: &Command,
        original: TransportError,
    ) -> Result<Reply, TransportError> {
        if !original.kind.is_retryable() {
            return Err(original);
        }
        let mut attempt = 0u32;
        loop {
            if self.restarts >= self.sup.max_restarts {
                return Err(original);
            }
            self.restarts += 1;
            self.backoff_sleep(attempt);
            attempt += 1;
            match self.try_recover(cmd) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.kind.is_retryable() => continue,
                // A fatal error from the *replacement* (e.g. a
                // version-skewed worker took over the address) must not be
                // restart-looped.
                Err(e) => return Err(e),
            }
        }
    }

    /// One recovery attempt: restart, restore the last checkpoint, replay
    /// the command log (replies discarded — determinism makes them
    /// identical to the ones already consumed), re-issue the in-flight
    /// command and return its reply.
    fn try_recover(&mut self, inflight: &Command) -> Result<Reply, TransportError> {
        self.link.restart()?;
        if let Some(cp) = &self.checkpoint {
            self.link.send(Command::Restore { frame: cp.clone() })?;
            let reply = self.link.recv()?;
            debug_assert!(matches!(reply, Reply::Ack));
        }
        for logged in &self.log {
            self.link.send(logged.clone())?;
            self.link.recv()?;
        }
        self.link.send(inflight.clone())?;
        self.link.recv()
    }
}

impl<L: Restartable> ShardLink for Supervised<L> {
    fn endpoint(&self) -> String {
        self.link.endpoint()
    }

    /// A send failure recovers the shard completely, in-flight command
    /// included — its reply is parked for `recv`, so the batch above stays
    /// pipelined.
    fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
        if let Err(e) = self.link.send(cmd.clone()) {
            self.parked = Some(self.recover_and_reissue(&cmd, e)?);
        }
        self.inflight = Some(cmd);
        Ok(())
    }

    /// A checkpoint reply is kept and truncates the replay log — the
    /// checkpoint command itself is recovered like any other, and is never
    /// logged.
    fn recv(&mut self) -> Result<Reply, TransportError> {
        let cmd = self.inflight.take().expect("recv follows a send");
        let reply = match self.parked.take() {
            Some(reply) => reply,
            None => match self.link.recv() {
                Ok(reply) => reply,
                Err(e) => self.recover_and_reissue(&cmd, e)?,
            },
        };
        if matches!(cmd, Command::TakeCheckpoint) {
            let cp = unpack(
                &self.link,
                reply.clone(),
                answer!(Reply::Checkpoint(cp) => cp),
            )?;
            self.checkpoint = Some(cp);
            self.log.clear();
        } else {
            self.log.push(cmd);
        }
        Ok(reply)
    }

    fn shutdown(self) -> Result<(), TransportError> {
        self.link.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exchange::{roundtrip, Outbound, TransportErrorKind};
    use std::collections::VecDeque;

    /// A scripted in-memory worker: a counter that `BeginNews` increments
    /// — a stand-in for deterministic shard state. `Collect` exposes the
    /// counter (as the outbound `sent` total), `TakeCheckpoint`/`Restore`
    /// snapshot and reinstate it, and `restart` resets it to 0 (a fresh
    /// `from_init` worker). Failures are injected as a queue of [`Fault`]s
    /// consumed by `recv`/`restart`.
    #[derive(Clone, Copy)]
    enum Fault {
        /// The next `recv` fails retryably (the worker "died").
        RecvIo,
        /// The next `restart` fails retryably (redial refused).
        RestartIo,
        /// The next `restart` "reaches" a version-skewed worker: fatal.
        RestartVersionSkew,
    }

    #[derive(Default)]
    struct MockLink {
        counter: u64,
        inbox: VecDeque<Reply>,
        faults: VecDeque<Fault>,
        restart_count: u32,
        /// Answer `TakeCheckpoint` with `Ack`: a well-formed reply of the
        /// wrong variant.
        ack_checkpoints: bool,
    }

    impl MockLink {
        fn err(&self) -> TransportError {
            TransportError::io(
                self.endpoint(),
                std::io::Error::new(std::io::ErrorKind::ConnectionReset, "mock fault"),
            )
        }
    }

    impl ShardLink for MockLink {
        fn endpoint(&self) -> String {
            "mock worker".into()
        }

        fn send(&mut self, cmd: Command) -> Result<(), TransportError> {
            let reply = match cmd {
                Command::BeginNews => {
                    self.counter += 1;
                    Reply::Ack
                }
                Command::Collect { .. } => Reply::Outbound(Outbound {
                    sent: self.counter,
                    local: 0,
                    bundles: Vec::new(),
                }),
                Command::TakeCheckpoint if self.ack_checkpoints => Reply::Ack,
                Command::TakeCheckpoint => {
                    Reply::Checkpoint(Bytes::copy_from_slice(&self.counter.to_le_bytes()))
                }
                Command::Restore { frame } => {
                    self.counter =
                        u64::from_le_bytes(frame.as_ref().try_into().expect("8-byte checkpoint"));
                    Reply::Ack
                }
                other => panic!("mock worker got {other:?}"),
            };
            self.inbox.push_back(reply);
            Ok(())
        }

        fn recv(&mut self) -> Result<Reply, TransportError> {
            if let Some(Fault::RecvIo) = self.faults.front() {
                self.faults.pop_front();
                self.inbox.clear();
                return Err(self.err());
            }
            Ok(self.inbox.pop_front().expect("a reply was owed"))
        }
    }

    impl Restartable for MockLink {
        fn restart(&mut self) -> Result<(), TransportError> {
            match self.faults.front() {
                Some(Fault::RestartIo) => {
                    self.faults.pop_front();
                    return Err(self.err());
                }
                Some(Fault::RestartVersionSkew) => {
                    self.faults.pop_front();
                    return Err(TransportError {
                        endpoint: self.endpoint(),
                        kind: TransportErrorKind::HandshakeVersion { got: 1, want: 2 },
                    });
                }
                _ => {}
            }
            self.restart_count += 1;
            self.counter = 0;
            self.inbox.clear();
            Ok(())
        }
    }

    type Links = Vec<Supervised<MockLink>>;

    /// `shards` supervised mock links with zero backoff, so the fault
    /// loops run instantly.
    fn links(shards: usize, max_restarts: u32, checkpoint_every: u32) -> Links {
        let sup = Supervision {
            max_restarts,
            checkpoint_every,
            backoff: Duration::ZERO,
            ..Supervision::default()
        };
        (0..shards)
            .map(|s| Supervised::new(MockLink::default(), s, sup.clone()))
            .collect()
    }

    /// One round-trip of `cmd` to every shard.
    fn all(t: &mut Links, cmd: Command) -> Vec<Reply> {
        let batch = (0..t.len()).map(|s| (s, cmd.clone())).collect();
        roundtrip(t, batch, Some).expect("supervised round-trip")
    }

    fn bump(t: &mut Links) {
        let replies = all(t, Command::BeginNews);
        assert!(replies.iter().all(|r| matches!(r, Reply::Ack)));
    }

    /// The cadence round-trip the driver issues at a checkpoint boundary.
    fn checkpoint(t: &mut Links) {
        let replies = all(t, Command::TakeCheckpoint);
        assert!(replies.iter().all(|r| matches!(r, Reply::Checkpoint(_))));
    }

    fn counter(t: &mut Links, shard: usize) -> u64 {
        let batch = vec![(shard, Command::Collect { cycle: 0 })];
        let replies = roundtrip(t, batch, answer!(Reply::Outbound(o) => o)).expect("counter probe");
        replies[0].sent
    }

    fn restarts_used(t: &Links) -> u32 {
        t.iter().map(Supervised::restarts).sum()
    }

    #[test]
    fn crash_recovers_from_checkpoint_plus_replay() {
        let mut t = links(2, 3, 1);
        bump(&mut t);
        checkpoint(&mut t); // snapshots counter = 1
        bump(&mut t); // logged since the checkpoint
        t[1].link.faults.push_back(Fault::RecvIo);
        bump(&mut t); // shard 1 dies here and recovers mid-roundtrip
        assert_eq!(counter(&mut t, 0), 3, "undisturbed shard");
        assert_eq!(
            counter(&mut t, 1),
            3,
            "restore(1) + replay(1) + reissue(1) must equal the fault-free state"
        );
        assert_eq!(restarts_used(&t), 1);
        assert_eq!((t[0].link.restart_count, t[1].link.restart_count), (0, 1));
    }

    #[test]
    fn crash_before_any_checkpoint_replays_from_scratch() {
        let mut t = links(1, 3, 10);
        bump(&mut t);
        bump(&mut t);
        t[0].link.faults.push_back(Fault::RecvIo);
        bump(&mut t);
        assert_eq!(counter(&mut t, 0), 3, "full replay from the init state");
    }

    #[test]
    fn crash_during_replay_burns_another_restart_and_recovers() {
        let mut t = links(1, 3, 1);
        bump(&mut t);
        checkpoint(&mut t);
        bump(&mut t);
        // The worker dies; its first replacement dies again during the
        // replay (first recv after the restart); the second replacement
        // completes recovery.
        t[0].link.faults.extend([Fault::RecvIo, Fault::RecvIo]);
        bump(&mut t);
        assert_eq!(counter(&mut t, 0), 3);
        assert_eq!(restarts_used(&t), 2);
        assert_eq!(t[0].link.restart_count, 2);
    }

    #[test]
    fn failed_restarts_burn_budget_until_exhaustion_surfaces_the_original_error() {
        let mut t = links(1, 2, 1);
        t[0].link
            .faults
            .extend([Fault::RecvIo, Fault::RestartIo, Fault::RestartIo]);
        let err =
            roundtrip(&mut t, vec![(0, Command::BeginNews)], Some).expect_err("budget exhausted");
        // The surfaced error is the ORIGINAL conversation failure, not the
        // last redial failure — that is what names the actual fault.
        assert_eq!(err.to_string(), t[0].link.err().to_string());
        assert_eq!(restarts_used(&t), 2);
        assert_eq!(t[0].link.restart_count, 0, "no restart ever succeeded");
    }

    #[test]
    fn fatal_error_during_recovery_surfaces_immediately() {
        let mut t = links(1, 5, 1);
        t[0].link
            .faults
            .extend([Fault::RecvIo, Fault::RestartVersionSkew]);
        let err = roundtrip(&mut t, vec![(0, Command::BeginNews)], Some)
            .expect_err("version skew is fatal");
        assert!(
            matches!(err.kind, TransportErrorKind::HandshakeVersion { .. }),
            "the skew must surface, not be retried or masked: {err}"
        );
        assert_eq!(restarts_used(&t), 1, "only the one attempt that hit it");
    }

    #[test]
    fn non_retryable_original_error_is_not_recovered() {
        let mut t = links(1, 5, 1);
        let fatal = TransportError {
            endpoint: "mock worker".into(),
            kind: TransportErrorKind::HandshakeMagic,
        };
        let err = t[0]
            .recover_and_reissue(&Command::BeginNews, fatal)
            .expect_err("fatal errors pass through");
        assert!(matches!(err.kind, TransportErrorKind::HandshakeMagic));
        assert_eq!(restarts_used(&t), 0);
    }

    #[test]
    fn checkpoint_cadence_truncates_the_replay_log() {
        let mut t = links(1, 3, 2);
        for cycle in 0..4 {
            bump(&mut t);
            // Cadence 2: the driver checkpoints after cycles 1 and 3.
            if cycle % 2 == 1 {
                checkpoint(&mut t);
            }
        }
        assert_eq!(t[0].checkpoint.as_deref(), Some(&4u64.to_le_bytes()[..]));
        assert!(t[0].log.is_empty(), "log cleared at the checkpoint");
        bump(&mut t);
        assert_eq!(t[0].log.len(), 1, "post-checkpoint commands logged");
        t[0].link.faults.push_back(Fault::RecvIo);
        assert_eq!(counter(&mut t, 0), 5, "restore(4) + replay(1)");
    }

    #[test]
    fn fault_at_the_checkpoint_roundtrip_recovers_and_is_never_logged() {
        let mut t = links(2, 3, 1);
        bump(&mut t);
        checkpoint(&mut t); // counter = 1 stored on both shards
        bump(&mut t);
        bump(&mut t);
        // Shard 1 dies with the TakeCheckpoint in flight: it is restored
        // from the old checkpoint, replays both bumps, and the re-issued
        // TakeCheckpoint snapshots the recovered state.
        t[1].link.faults.push_back(Fault::RecvIo);
        checkpoint(&mut t);
        assert_eq!(restarts_used(&t), 1);
        for link in &t {
            assert_eq!(link.checkpoint.as_deref(), Some(&3u64.to_le_bytes()[..]));
            assert!(link.log.is_empty(), "the checkpoint clears the log");
        }
        // A later crash restores the *new* checkpoint and replays only
        // what followed it — TakeCheckpoint itself is never in the log
        // (the mock would answer a replayed one, but the counts would
        // betray a stale restore).
        bump(&mut t);
        assert!(t
            .iter()
            .all(|l| l.log.len() == 1 && matches!(l.log[0], Command::BeginNews)));
        t[1].link.faults.push_back(Fault::RecvIo);
        assert_eq!(counter(&mut t, 1), 4, "restore(3) + replay(1)");
    }

    #[test]
    fn a_checkpoint_answered_by_another_reply_is_a_fatal_error() {
        let mut t = links(1, 3, 1);
        t[0].link.ack_checkpoints = true;
        let err = roundtrip(&mut t, vec![(0, Command::TakeCheckpoint)], Some)
            .expect_err("an Ack does not answer TakeCheckpoint");
        assert!(!err.kind.is_retryable(), "{err}");
        assert_eq!(err.endpoint, "mock worker");
        assert!(t[0].checkpoint.is_none());
        assert_eq!(restarts_used(&t), 0);
    }
}
