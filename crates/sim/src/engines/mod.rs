//! Alternative dissemination engines beyond the per-node gossip stack, and
//! the swarm that deploys that stack on a live network.
//!
//! # Engine comparison
//!
//! | Engine | Assumptions | Message complexity | Failure model | Shards |
//! |---|---|---|---|---|
//! | **BEEP gossip** (`crate::engine`, protocols `whatsup`/`gossip`/`cf_*`) | Per-node state only; partial views via RPS/WUP sampling; no global knowledge | Per item: `O(reached · fanout)` push copies, plus a steady `O(n · view)` gossip layer per cycle | Crash-stop with instant cold rejoin from a contact's view; hard timeouts implicit in view aging; loses profile/view/seen state | `config.shards` in-process or on child processes; one per socket worker |
//! | **Cascade** (`cascade`) | Explicit social graph, global knowledge of edges; forwards only on likes | Per item: `O(Σ likers' degrees)` — bounded by the likers' neighborhoods, which caps recall | Nodes never fail (a non-zero uniform churn is refused); honours the workload schedule and *constant* message loss (one coin per delivery attempt) | 1 (another count is refused) |
//! | **Centralized pub/sub & C-WhatsUp** (`pubsub`, `centralized`) | Omniscient reliable server; complete subscription/interest knowledge | Per item: exactly one message per subscriber (pub/sub) or per selected receiver (C-WhatsUp) | None: the server is assumed reliable; honours the workload schedule only (a non-zero constant loss or uniform churn is refused by validation) | 1 (another count is refused) |
//! | **Anti-entropy** ([`antientropy`]) | Full membership list known; only *state* is reconciled; versioned single-writer records | Per cycle: `O(n · fanout)` datagrams of ≤ `datagram_budget` bytes each, independent of item count (keys batch into deltas); eventual delivery | Phi-accrual suspicion from heartbeat inter-arrival history — a continuous scale, no hard timeout; crashes have real downtime and rejoin with a bumped incarnation | 1 (another count is refused) |
//! | **Swarm** ([`swarm`], [`crate::Runner::deploy`]) | The BEEP gossip stack, one thread per node against the wall clock, real wire frames over an emulated router or loopback UDP; no driver | As BEEP gossip; an epidemic runs at link latency instead of as a within-cycle BFS, so it may cross a cycle boundary | Constant, bursty and partition loss at the receiver; crash-stop with instant cold rejoin from the contact's id alone; no timeline events or mass joins | 1 (another count is refused): one peer per node |
//!
//! Cascade and the centralized engines do not run per-cycle: they walk a
//! server-side model once per item, and everything an item causes is
//! booked under its publication cycle — so they do report a per-cycle
//! series, with the full population live every cycle and no gossip
//! traffic. The runner refuses what they cannot honour or would never read
//! (see its module docs), one line naming the engine and the knob. The
//! anti-entropy engine *is* per-cycle and supports the full scenario grid,
//! which is what makes its recovery metrics comparable against BEEP's.
//!
//! Every engine takes the run's [`crate::Scenario`], draws loss, churn
//! and schedule through `crate::environment`, and books its run into the
//! `crate::record` ledger that renders the report — an engine is its
//! state machine plus message handling, nothing else. [`crate::Runner`]
//! dispatches to them uniformly, so sweeps and harnesses treat all
//! protocols alike.

pub mod antientropy;
pub(crate) mod cascade;
pub(crate) mod centralized;
pub(crate) mod pubsub;
pub mod swarm;
