//! The sharded cycle engine for node-based protocols.
//!
//! Methodology (paper §IV/§V): time is a sequence of gossip cycles. Each
//! cycle:
//!
//! 1. every node runs one RPS and one WUP exchange (requests and the
//!    matching responses are delivered within the cycle);
//! 2. the items scheduled for the cycle are published and each epidemic
//!    runs to completion (hop-ordered BFS), which matches the paper's use
//!    of the gossip cycle as time unit — dissemination is fast relative to
//!    clustering dynamics.
//!
//! Message loss (§V-E) applies to every message of every protocol layer.
//! The engine is a pure function of `(dataset, protocol, config)`.
//!
//! # Architecture: shards, phases, exchanges
//!
//! The node table is split into `S` *shards* — contiguous node-id ranges
//! ([`partition::Partition`]) — each owning its nodes' full state:
//! protocol stacks, per-node mailboxes ([`mailbox::Mailbox`]) and lazily
//! derived phase RNGs ([`shard::ShardState`]). A cycle advances through
//! *phases*; each phase is a lockstep round-trip driven by
//! [`driver::Simulation`]:
//!
//! 1. **Collect** — every shard runs [`whatsup_core::WhatsUpNode::on_cycle`]
//!    for its nodes in id order, emitting RPS/WUP requests.
//! 2. **Route/exchange** — each shard groups its emissions by destination
//!    shard and serializes each group into a *mailbox bundle* (the
//!    `whatsup-net` wire codec's bundle frame: addressed single-message
//!    frames, in `(sender id, emission order)` order). The driver forwards
//!    every bundle to its destination shard inside the next phase command.
//!    Messages that stay on their own shard skip serialization entirely
//!    and wait in the shard's local pending queue.
//! 3. **Deliver** — each shard merges the inbound bundles *in source-shard
//!    order* (its own pending queue takes its shard's slot) into per-node
//!    mailboxes, then drains each receiver in ascending id order, drawing
//!    the per-message loss coin from the receiver's phase stream in mailbox
//!    order. Replies feed the next route/deliver round until the cycle is
//!    quiet (requests, then responses — gossip needs exactly two delivery
//!    rounds).
//! 4. **Churn** — shards draw per-node crash coins in parallel and report
//!    `(crasher, contact)` pairs; the driver fetches the contacts' view
//!    snapshots (all taken from the *pre-churn* state) from their owning
//!    shards and hands each crashing shard the snapshots to rejoin from.
//! 5. **Publish** — each scheduled item's epidemic runs as a BFS over the
//!    same route/exchange/deliver machinery: all copies at hop distance `h`
//!    are delivered before any copy at `h + 1`. Shards report per-receiver
//!    reception outcomes; the driver folds them into the records in
//!    receiver order.
//! 6. **Measurement flush** — the driver flushes the cycle's counters
//!    (accumulated from the phase replies above) into the run's time
//!    series (see "Measurement pipeline" below).
//!
//! Every phase is the same operation: `exchange::roundtrip` sends one
//! [`Command`] to each participating shard, then reads one [`Reply`] from
//! each, over a slice of per-shard *links*. That loop exists once and the
//! driver is generic over the one link trait (`exchange::ShardLink`: send
//! a command, receive a reply, name the endpoint, tear down), so the ways
//! of running a shard differ only in how a command reaches it:
//!
//! | link            | shard runs…                        | moves  | restartable | deadline       |
//! |-----------------|------------------------------------|--------|-------------|----------------|
//! | inline          | in place, on the driver thread     | values | no          | —              |
//! | thread          | on a scoped worker thread          | values | no          | —              |
//! | stream (pipe)   | in a `sim-shard-worker` child      | frames | respawn     | hello watchdog |
//! | stream (TCP)    | in a `sim-shard-worker --listen`   | frames | redial      | per read/write |
//!
//! A single shard runs inline; more shards in one process get a thread
//! each ([`crate::Transport::InProcess`]). Value links hand `Command` and
//! `Reply` over as they are — no codec, bundles travel as refcounted
//! `Bytes`; the stream link encodes both into length-prefixed frames. All
//! of them execute the same [`shard::ShardState`] code on the same command
//! sequence.
//!
//! # Distributed topology
//!
//! Over TCP the simulator is a distributable system: one driver, `S`
//! workers, one connection per worker, each worker owning one shard.
//!
//! * **Launch order** — *workers first, then driver*, but only loosely:
//!   each worker binds its `--listen` address, prints `LISTEN <addr>` on
//!   stdout, and blocks in accept; the driver dials every address
//!   (`whatsup-sim run --workers host:port,…`), retrying refused or
//!   unreachable dials over a bounded window (3 s; supervised runs use
//!   [`Supervision::dial_window`]), so workers that come up moments after
//!   the driver still get their shard. The `k`-th address becomes shard
//!   `k`: one address per shard, so the shard count is the worker count,
//!   and a `config.shards` other than 1 or the worker count is refused
//!   before any dial.
//! * **Handshake** (frame layouts: [`exchange::stream`]) — as soon as the
//!   stream exists the worker sends a versioned *hello*; the driver
//!   validates it and answers with a versioned *handshake* carrying the
//!   shard's [`ShardInit`] (params, partition, environment models, oracle,
//!   bootstrap contacts). Version skew, a foreign peer or an init that does
//!   not decode is a typed error naming the endpoint on the driver, a
//!   one-line stderr exit on the worker — never a frame-decode panic.
//!   Pipes run the identical handshake; a restart replays the same bytes.
//! * **Failure paths** — connect and handshake are bounded by timeouts (a
//!   read timeout on sockets, a watchdog thread on pipes), so a dead,
//!   unreachable or mute worker fails the run cleanly instead of hanging
//!   it. Mid-run, a worker that loses its driver (EOF/broken pipe before
//!   `Stop`) exits non-zero with a one-line message; a driver that loses a
//!   worker surfaces a typed `exchange::TransportError` naming the
//!   endpoint, and dropping the links stops (and, for child processes,
//!   kills + reaps) the surviving workers. A completed run sends `Stop`
//!   and waits for each worker to exit 0 / close its end.
//! * **Determinism** — the contract below is link-blind: a scenario
//!   report is bit-identical whether the shards run inline, as threads,
//!   as child processes, or spread over socket workers on other machines,
//!   because every ordering and every RNG draw is fixed by the command
//!   sequence itself, not by who executes it (property-tested across all
//!   links, CI-smoked over loopback sockets).
//!
//! # Supervision & recovery
//!
//! A stream link can be wrapped, per shard, in
//! `exchange::supervisor::Supervised` ([`crate::Runner::supervision`],
//! `whatsup-sim run --supervise`), which turns a crashed or hung worker
//! from a fatal `exchange::TransportError` into a recoverable event —
//! without changing a single byte of the final report. The wrapper is a
//! link itself, so nothing above it changes. Three pieces:
//!
//! * **Checkpoints** — every `checkpoint_every` completed cycles the
//!   driver issues one more ordinary round-trip, `TakeCheckpoint` to every
//!   shard, at the cycle boundary (mailboxes are provably drained there,
//!   so no in-flight mail is ever serialized); each wrapper keeps its
//!   shard's `Checkpoint` reply as it passes: one frame holding the
//!   shard's full dynamic state (layout and what is deliberately left
//!   out: [`shard::ShardState::encode_checkpoint`]). A `Restore` command
//!   feeds the same frame back into a fresh worker and is acknowledged
//!   with `Ack`.
//! * **Command log + replay** — every command answered since the last
//!   checkpoint is logged and the log is cleared when a checkpoint
//!   arrives (`TakeCheckpoint` itself is never logged). On a retryable
//!   failure the wrapper restarts the worker (respawn for child
//!   processes, redial for sockets), which re-runs the versioned
//!   handshake with the original `ShardInit`, restores the last
//!   checkpoint, replays the log discarding the replies, then re-issues
//!   the in-flight command. Replay is exact because a shard is a
//!   deterministic function of `(init, command sequence)` — the
//!   determinism contract below means the replayed replies are identical
//!   to the originals, so discarding them loses nothing. The restart
//!   budget (`max_restarts` per shard) bounds the loop; when it is
//!   exhausted the *original* error surfaces, not the last recovery
//!   attempt's. Fatal errors (handshake magic/version skew —
//!   `exchange::TransportErrorKind::is_retryable`) are never retried.
//! * **Hang detection** — supervised TCP connections arm read/write
//!   deadlines, so a frozen worker trips a timeout (a retryable I/O
//!   error) instead of hanging the run; pipes cannot arm deadlines and
//!   surface EOF when the child dies. Initial dials retry over a bounded
//!   window, and supervised redials reuse it.
//!
//! The fault-injection suite (`tests/transport_faults.rs`) kills and
//! freezes workers mid-run over both pipes and sockets and asserts the
//! recovered report is bit-identical to a fault-free run; CI repeats the
//! kill over loopback sockets and `cmp`s the report JSON.
//!
//! # Shard-exchange protocol
//!
//! A conversation is hello, handshake, then strictly alternating command
//! and reply frames until `Stop` (no reply); [`Command`] and [`Reply`]
//! list every frame, and `exchange::stream::PROTOCOL_VERSION` changes with
//! any layout. There is one binary codec in the workspace,
//! `whatsup_net::wire` (which tabulates the encoding): each layout is
//! declared once, with `wire_codec!` next to its type, and both directions
//! are generated from it. A frame that does not decode — truncated, an
//! unknown tag, a count its bytes cannot hold — is a typed error: a
//! `TransportError` on the driver, a one-line exit 1 on the worker. So
//! is a well-formed reply that does not answer its command: the driver
//! unpacks every reply through one helper, `exchange::unpack`.
//! Mailbox traffic rides inside the commands as *bundles* (see
//! `whatsup_net::codec`): `tag=MAILBOX_BUNDLE`, `from_shard:u32`,
//! `count:u32`, then `count` entries of
//! `to:u32 len:u32 frame`, where `frame` is the standard single-message
//! wire frame — the simulator and the deployment stack share one message
//! encoding, so anything that crosses a shard boundary is by construction
//! expressible on the real network. Bundles are wire-encoded on every
//! link, value links included. News frames carry full item content;
//! receiving shards recompute ids and cache content for re-forwarding,
//! exactly like real receivers. A bundle that does not decode ends the
//! worker like any other malformed frame.
//!
//! Ordering guarantees, which make the exchange invisible to the results:
//!
//! * a link is FIFO, and a round-trip returns replies in batch order;
//! * a bundle preserves the emitting shard's `(sender id, emission order)`
//!   order;
//! * receivers merge bundles in ascending source-shard order, and shard
//!   ranges are contiguous and ascending — so every mailbox ends up in the
//!   same global `(sender id, emission order)` total order a single-shard
//!   run produces;
//! * outcome folds (news receptions, churn resets) happen in ascending
//!   receiver order across shards.
//!
//! # Measurement pipeline
//!
//! Measurement is streaming and windowed, not a single end-of-run
//! aggregate. The driver books a per-cycle counter block
//! ([`whatsup_metrics::CycleStats`]) into the run's ledger
//! (`crate::record`, shared with every other engine) from the phase
//! replies every cycle already produces — the counters ride the existing
//! round-trips, so there is no dedicated end-of-cycle counter exchange:
//!
//! * *gossip_sent* from the `Outbound` totals of the collect + gossip
//!   delivery rounds, *news_sent* from the publish + BFS rounds — lost
//!   messages included, mirroring the paper's "number of sent messages";
//! * *first_receptions* / *hits* as the per-receiver news outcomes are
//!   folded (a hit is a liked first reception);
//! * *interested* at publish time from the driver's own oracle (each item
//!   counted exactly once);
//! * *crashed* from the churn decisions and explicit node resets;
//!   *live_nodes* is stamped with the population total at the flush.
//!
//! At the end of every cycle the driver ends the ledger's block, which
//! becomes one row of the run's [`whatsup_metrics::CycleSeries`]. Every
//! input arrives through
//! reply folds that happen **in shard-index (or ascending receiver)
//! order**, and the fold is pure integer addition over that fixed order,
//! so the series inherits the engine's determinism contract verbatim:
//! **the full time series is bit-identical across shard counts and every
//! link** (property-tested in `tests/determinism.rs` and
//! `tests/scenario.rs`, CI-smoked by `cmp`ing report JSON across shard
//! counts).
//!
//! Because every epidemic completes within its publication cycle, one
//! cycle's pooled counters are exactly that cycle's micro-averaged IR
//! numbers, and the scenario's measurement windows
//! ([`crate::scenario::Measurement`]) are resolved against the finished
//! series at `into_report` time — window-scoped aggregates plus recovery
//! metrics (dip depth, time-to-recover, messages spent) for
//! event-anchored windows.
//!
//! # Hot path & allocation discipline
//!
//! The route → deliver loop runs millions of times per simulated cycle,
//! so its steady state is built to allocate nothing and copy bytes once:
//!
//! * **Arena mailboxes** — a shard's mailboxes are one contiguous arena
//!   (`Vec` of `(from, payload, next)` cells) plus per-node chain
//!   heads/tails, not one heap `Vec` per node. A route push is `O(1)` into
//!   the arena; a deliver drain walks the receiver's chain, moving each
//!   payload out and leaving an allocation-free empty behind; `recycle()`
//!   then clears the arena *keeping its capacity*, so after warm-up no
//!   delivery round allocates. Receiver lists cycle through a spare
//!   buffer (`take_receivers`/`restore_receiver_buf`) for the same
//!   reason.
//! * **Zero-copy bundle decode** — inbound bundles are walked with
//!   `codec::bundle_view`, an iterator of borrowed `(to, frame)` slices
//!   over the received buffer; each inner frame decodes straight into its
//!   payload and lands in the arena. No intermediate `Vec<MailEntry>`, no
//!   per-entry frame copies. The borrow ends before the next round's
//!   buffers are touched, so the scratch frames can be reused.
//! * **Encode scratch reuse** — outbound routing drains into per-shard
//!   staging vectors (`emit_scratch`/`route_scratch`) and encodes through
//!   one per-shard `encode_buf`, all drained or cleared rather than
//!   dropped, so their capacity carries cycle-over-cycle.
//! * **Copy-on-write item profiles** — a news message carries its
//!   aggregated profile as an `Arc` ([`whatsup_core::SharedProfile`]):
//!   fanning one reception out to `fLIKE` targets clones the pointer, not
//!   the entries, and the next hop that actually aggregates builds its
//!   merged profile straight from the shared predecessor — word-wise, in
//!   slot space (`whatsup_core::profile`). Cross-shard, the per-bundle
//!   `codec::NewsDecodeCache` restores that sharing on the receiving side: a bundle entry whose item content or forwarding span
//!   (dislikes, hops, profile) starts with the bytes last decoded reuses
//!   that parse (a prefix match is exact — the layouts are length-prefixed,
//!   and the decoders pure functions of the bytes).
//! * **Profile fingerprints** — every [`whatsup_core::Profile`] maintains
//!   a 128-bit Bloom fingerprint of its rated items at mutation time; the
//!   similarity metrics reject provably disjoint pairs before the scalar
//!   merge-join scan. The rejection is exact for the metrics' semantics
//!   (no shared rated item ⇒ the score is `+0.0` bit-for-bit), so the
//!   fast path cannot perturb determinism — property-tested against the
//!   scan-only reference implementations in `whatsup_core::similarity`.
//! * **Counted view-merge scores** — user profiles and gossip snapshots
//!   hold only the scores 0 and 1, so a WUP merge scores each candidate
//!   by intersecting bit planes (`whatsup_core::similarity`, "Counting
//!   path"). The planes are derived state of the profile allocation,
//!   built once — for a node's own snapshot when it is taken, for a
//!   decoded one the first time a merge ranks it — and shared by every
//!   view slot that pins it, its bits numbered by the run's item index
//!   (the oracle's, which every node holds). The counts are exact, so the
//!   ranking — and every downstream bit — is what the entry-walking
//!   reference produces.
//! * **Clone-free view merges** — a WUP or RPS merge takes the old view
//!   out of the node and deduplicates and scores own view ∪ received ∪
//!   (WUP only) RPS view *by reference*; the WUP merge ranks on one packed
//!   integer key (score, age, id mix). The survivors of the old view and
//!   of the received message are moved into the new view, only those that
//!   join from the RPS view are cloned, and the rest drop: a snapshot's
//!   `Arc` count moves only when a holder changes. The new view is
//!   allocated to fit (the cloning merge collected it in place, so a
//!   20-entry WUP view kept the buffer of its ~60 ranked candidates, room
//!   for ~120 descriptors, until the next merge). The union is walked in
//!   the order the cloning merge built it, the RPS shuffle permutes the
//!   survivors' positions with the draws it spent on the descriptors, and
//!   the key orders candidates exactly as the float comparator did
//!   (−0.0 = +0.0, a NaN panics), so the views — entries and order — are
//!   the same (`whatsup_gossip`'s `#[cfg(test)]` twins and their
//!   proptests pin it).
//! * **Duplicates booked at the mailbox** — BEEP sends `fLIKE` copies of
//!   every liked item and a node drops any item it already received, so
//!   most news copies are duplicates (~80 % on perfbench's `paper` and
//!   `stress` workloads). A news BFS delivers one item, and a node's seen
//!   set cannot lose it during the BFS, so once one copy from another node
//!   went through a node's `on_message`, every later copy to it is a
//!   duplicate whatever the order. The shard keeps one bit per node for
//!   the item in flight (cleared word by word when the item changes, and
//!   on churn, joins and restores) and books each later copy where it is
//!   merged — its loss coin, drawn from the receiver's NEWS stream through
//!   `environment.rs` (created only for a model that draws), then
//!   `NodeStats::book_duplicate`, the rule `on_message` applies — so it
//!   never enters the arena, the drain or the node; in the drain, copies
//!   after a receiver's first handled one are booked the same way. Coin
//!   order cannot change: a contacted receiver gets only duplicates that
//!   round, so the merge is the only thing drawing from its stream, and
//!   merge order per receiver is drain order. Checkpoints cannot change:
//!   the counters end the same, and the record is never serialized — a
//!   restored shard starts it empty, which only sends the next copies
//!   through the node. A receiver whose mail was all booked reports no
//!   outcome, where it used to report an empty one. The delivery loop as
//!   first written is kept as a `#[cfg(test)]` twin, and a proptest holds
//!   replies, checkpoints and every NEWS stream to it under each loss
//!   model.
//!
//! None of this changes observable ordering: the arena preserves push
//! order per receiver, routing preserves `(sender id, emission order)`,
//! and the borrowed decode yields entries in exactly the order the
//! encoder wrote. The determinism suites (shard counts × transports) are
//! the regression net for that claim.
//!
//! # Memory model
//!
//! At scale the footprint is **standing live state, not transient
//! spikes**: peak RSS equals the standing RSS at every cycle boundary
//! (measured by the counting-allocator probe in
//! `bench/examples/hotpath_probe.rs`), and allocator overhead is ~30% of
//! RSS — so the only levers that matter are the bytes the protocol
//! actually keeps alive. The budget below is the measured breakdown of a
//! 100 k-node, 10-cycle uniform run (1 shard,
//! `Simulation::memory_breakdown`, 351 MiB peak RSS, 243 MiB live heap);
//! absolute numbers scale with nodes × cycles × publication rate, the
//! *shape* is what to remember:
//!
//! | standing state                | 100 k example | grows with                  |
//! |-------------------------------|--------------:|-----------------------------|
//! | own profiles                  |        ~8 MiB | spanned words (16 B each)   |
//! | pinned view snapshots         |       ~58 MiB | versions pinned × span      |
//! | seen sets                     |        ~5 MiB | items published (1 bit each)|
//! | view descriptors              |       ~60 MiB | view size                   |
//! | item records (driver)         |     < 0.1 MiB | items, largest hop/counter  |
//! | mailbox arena + scratch       |       ~40 MiB | peak per-round traffic      |
//! | item profiles                 |     in flight | spanned words (272 B each)  |
//! | oracle (like matrix)          |    n × m bits | users (n) × items (m)       |
//!
//! What keeps each row tight:
//!
//! * **One bit per item** — a node's received set
//!   ([`whatsup_core::SeenSet`]) is a bitset over the run's item index,
//!   grown to the highest slot received; only ids the index does not
//!   know take a spill entry.
//! * **An own profile is its planes** — a node's own profile keeps no
//!   entry vector: its rated and liked bit planes over the run's item
//!   index (16 bytes per 64 slots spanned) are its whole store, set by
//!   each rating and cleared by each window purge in place, and the
//!   index gives back each id and its creation time, with which a node
//!   stamps what it rates. Only a profile the index cannot give back —
//!   an id it does not know, an entry stamped at another time, a
//!   `-0.0` from a checkpoint — or whose planes would span more words
//!   than it has entries is a flat vector, until a rating or purge lets
//!   it pack again. The sorted entry vector this replaced cost 16 bytes
//!   an entry plus capacity slack that trimming could not return (a
//!   `shrink_to_fit` after each purge raised perfbench's `stress-1shard`
//!   peak RSS). In the 100 k example the row went from 252 MiB, vectors
//!   and planes, to 8 MiB, and peak RSS from 720 to 459 MiB.
//! * **Packed snapshots** — a disclosed profile is one `Arc` allocation
//!   shared by every view slot and in-flight message that references it,
//!   and it keeps no copy of its entries: the bit planes it is scored
//!   with (16 bytes per 64 slots spanned) hold every id (by slot) and
//!   every score, and a node stamps each entry with its item's creation
//!   time, which the run's item index keeps once per item. So besides
//!   its planes a snapshot keeps an entry count and a pointer to the
//!   index, whose slot → id and slot → creation-time columns rebuild the
//!   id-ordered entries for the encoder, walked pairs and cold start
//!   (`whatsup_core::profile`). The live profile is never handed out, so
//!   rating never copies it, and a snapshot copies its planes word for
//!   word instead of looking every id up again. "pinned view snapshots"
//!   counts each allocation once, planes included; the index is the
//!   breakdown's "item index" row, counted once. In the 100 k example,
//!   packing cut that row from 251 MiB of per-disclosure runs, which the versions of one node
//!   shared, to 150 MiB with one 4-byte timestamp per entry, and to
//!   58 MiB with none; peak RSS went 926 → 817 → 773 MiB. A snapshot
//!   decoded from another shard's bundle, one whose planes decline and
//!   one holding an entry stamped at another time than its item's
//!   creation are flat: 16 bytes an entry.
//! * **Packed item profiles** — an item profile a node folds is its
//!   weights alone — per spanned 64-slot word, a mask of the slots held,
//!   one of those weighing anything and 64 × `u32` — folded word-wise from
//!   the liker's planes and shared like a snapshot's planes, alive while
//!   any copy holds it. The fold
//!   keeps it flat (16 bytes an entry, weights laid out on its first
//!   orientation) where the index cannot express it, and where its words
//!   would take more than twice the bytes of its entries; so does a
//!   decoded copy. A liker folds a flat one in slot space again where
//!   the index gives back every entry and the fold's weights fit.
//! * **One shared oracle** — [`crate::Oracle`] holds the dataset's like
//!   matrix, one bit per (user, item), and is **process-`Arc`-shared**:
//!   in-process links hand every shard one pointer. Only the stream
//!   links (child process / socket) pay one copy per worker, which is
//!   the price of actually being distributed.
//! * **The books count** — an item record is its fixed-size counters,
//!   and the distributions Table IV and Fig. 6 plot are histograms of
//!   counts keyed by the raw dislike counter and hop, one set over the
//!   measured items and one over the warmup items
//!   ([`crate::record::Histograms`]), so no book grows with an item's
//!   receptions. The readers clamp when they read, so one histogram
//!   answers for any bound. The books are driver-owned and exist once
//!   regardless of shard count.
//!
//! Ownership is strictly two-tier. **Shard-owned** (per shard, moves
//! with its partition): node protocol stacks, mailbox arena and scratch,
//! phase RNGs, per-node stats. **Process-shared** (one per process,
//! `Arc`): the oracle (and the item index in it, which every node holds)
//! and the dataset's item table. Nothing is globally mutable — a shard can be checkpointed, moved, or restored from its
//! own frame alone (`exchange::supervisor::Supervised`).
//!
//! [`partition::Partition`] is load-aware: `Partition::plan` consumes
//! the scenario's scheduled joins so shards are balanced by their
//! *eventual* node counts, not the bootstrap counts — the contract is
//! that contiguous ascending id ranges cover the final population
//! exactly, and the determinism section below makes the boundary
//! placement invisible to results (only to per-shard RSS).
//!
//! # Determinism contract & static checks
//!
//! Reports are **bit-identical across shard counts and links**
//! (including the single-shard inline case) for a fixed seed, because no
//! randomness or ordering leaks from the partitioned execution:
//!
//! * every node draws from its own counter-based RNG stream, derived by
//!   [`node_stream`]`(seed, node, cycle, phase)` — never from a shared
//!   generator, and never dependent on how many other nodes exist, where
//!   the shard boundaries fall, or which link moves the bundles.
//!   Adding nodes (a `JoinClone` event, a mass join) therefore never
//!   shifts the streams of existing nodes;
//! * mailbox contents and the driver folds follow the fixed total orders
//!   above;
//! * the environment's coins — message loss, channel transitions, crashes
//!   — follow the draw rules of `crate::environment`, *the* definition
//!   shared with every other engine; this engine only fixes where they
//!   fall: loss coins on the receiver's phase stream at delivery time, in
//!   mailbox order;
//! * churn rejoins inherit contact views snapshotted from the pre-churn
//!   state, so application order cannot matter;
//! * the wire codec is lossless for everything behavior depends on
//!   (profiles round-trip entry-exact, scores bit-exact, item ids are
//!   recomputed from identical content).
//!
//! The contract is *enforced statically* by the in-tree `whatsup-lint`
//! pass (`cargo run -p whatsup-lint -- --check`, a blocking CI gate):
//! `det-map` forbids `HashMap`/`HashSet` in the crates that feed a
//! `SimReport` — unspecified iteration order is exactly the kind of
//! nondeterminism the property tests can miss — `det-global` forbids
//! process-global mutable state there, and `det-clock` forbids
//! `Instant::now`/`SystemTime` outside the wall-clock swarm executor
//! (`crate::engines::swarm`), its datagram links and the socket
//! deadlines, so simulated time stays the only clock the engines can
//! observe. Sites that are individually safe (probe-only maps keyed by the
//! deterministic `BuildIdHasher`, maps whose iteration is sorted before it
//! escapes) carry a `// lint:allow(<rule>) <reason>` annotation, which the lint
//! records in its report instead of suppressing silently — the audit
//! trail for every exception lives next to the code it excuses.
//!
//! # Scenario application points
//!
//! A [`crate::scenario::Scenario`] is applied entirely at phase boundaries,
//! which is what extends the determinism contract to every scenario. What
//! each step draws is defined in `crate::environment`; in cycle order:
//!
//! 1. **Start of cycle** (before collect): the environment's cycle-start
//!    events — mass-join arrivals, then the timeline events stamped
//!    `at == cycle`, in list order. Join references, join contacts and
//!    reset contacts come from the driver's engine RNG (one stream,
//!    driving thread, in that order); view snapshots move via
//!    `TakeSnapshots`/`Admit`/`ApplyChurn` commands, and interest swaps
//!    broadcast `SwapInterests` so every shard's oracle copy stays in
//!    lockstep.
//! 2. **Collect**: each shard advances its nodes' channel states before
//!    emitting; they are fixed for the whole cycle.
//! 3. **Deliver (gossip and news)**: every message passes the loss model
//!    at its receiver.
//! 4. **Churn phase**: shards flip the crash coins of the cycle's
//!    `crash_rate` (skipped entirely when it is zero).
//! 5. **Publish**: the environment's publication plan decides which items
//!    publish this cycle; dissemination itself is scenario-independent.
//!    Delivery round-trips skip shards with no inbound mail (empty bundles
//!    everywhere and nothing pending locally) — a pure traffic
//!    optimization in the sparse BFS tail that cannot change any mailbox.

pub mod driver;
pub mod exchange;
pub mod mailbox;
pub mod partition;
pub mod shard;

pub use driver::Simulation;
pub use exchange::{Command, Reply, Supervision};
pub use partition::Partition;
pub use shard::{ShardInit, ShardState};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whatsup_core::hash::mix64;
use whatsup_core::NodeId;

/// Phase tags for [`node_stream`] derivation. Distinct phases of the same
/// cycle must never share a stream, or coins drawn in one phase would shift
/// draws in another depending on message volume.
pub mod phase {
    /// `on_cycle` emissions (RPS/WUP initiation).
    pub const CYCLE: u8 = 0;
    /// Gossip mailbox drains (request/response handling + loss coins).
    pub const GOSSIP: u8 = 1;
    /// Churn crash coin and rejoin contact choice.
    pub const CHURN: u8 = 2;
    /// News delivery (BEEP decisions + loss coins).
    pub const NEWS: u8 = 3;
    /// Gilbert–Elliott channel-state transition (scenario loss models).
    pub(crate) const CHANNEL: u8 = 4;
}

/// The counter-based per-node RNG stream for one `(cycle, phase)`.
///
/// A pure function of its arguments: independent of node count, execution
/// order, shard boundaries and transport. This is the engine's only source
/// of randomness inside a cycle.
pub fn node_stream(seed: u64, node: NodeId, cycle: u32, phase: u8) -> ChaCha8Rng {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = mix64(seed ^ GOLDEN.wrapping_mul(node as u64 ^ 0xfeed_5eed));
    h = mix64(h ^ GOLDEN.wrapping_mul(cycle as u64 + 1));
    h = mix64(h ^ GOLDEN.wrapping_mul(phase as u64 + 1));
    ChaCha8Rng::seed_from_u64(h)
}
