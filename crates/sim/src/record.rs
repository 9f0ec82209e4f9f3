//! Per-item dissemination records and the aggregated simulation report,
//! including the per-cycle time series and its measurement windows — the
//! `Ledger` every engine books its run into to produce one — and the
//! report's one on-disk form, [`Summary`]: what `whatsup-sim run` writes
//! and `sweep` nests, and what `check` and `render` decode. Its
//! `json_codec!` blocks are the only place a report key is declared.
//!
//! Every book is a fixed-size count or a histogram of counts: an item's
//! record holds its counters, and the distributions Table IV and Fig. 6
//! plot are [`Histograms`] over the measured and the warmup items, keyed
//! by the raw dislike counter and hop. The readers clamp when they read,
//! so a histogram answers for any bound.

use crate::config::{Protocol, SimConfig};
use crate::scenario::{Scenario, WindowSpec};
use serde::Json;
use whatsup_core::NodeId;
use whatsup_metrics::{
    CycleSeries, CycleStats, IrAggregate, IrScores, ItemOutcome, RecoveryMetrics,
};

/// Version stamp of the report summary ([`Summary::schema_version`]).
/// Bump on any breaking change to the summary's shape; `whatsup-sim check`
/// and `render` reject reports carrying any other version.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Everything the evaluation needs to know about one item's dissemination.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemRecord {
    /// Dataset index of the item.
    pub index: u32,
    /// Cycle the item was published at.
    pub published_at: u32,
    /// Ground-truth interested nodes at publication time (excluding source).
    pub interested: u32,
    /// Nodes that received the item at least once (excluding source).
    pub reached: u32,
    /// Interested nodes among the reached.
    pub hits: u32,
    /// News copies sent for this item (including lost ones — the paper's
    /// "number of sent messages").
    pub news_sent: u64,
    /// Whether this item counts towards the reported metrics (published
    /// after the measurement threshold).
    pub measured: bool,
}

impl ItemRecord {
    pub fn outcome(&self) -> ItemOutcome {
        ItemOutcome::new(
            self.interested as usize,
            self.reached as usize,
            self.hits as usize,
        )
    }
}

/// Per-node delivery counters over measured items (Fig. 11 needs per-user
/// precision/recall).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeIr {
    /// Measured items delivered to this node (first receptions).
    pub received: u64,
    /// Measured items delivered that the node liked.
    pub hits: u64,
    /// Measured items the node was interested in (and did not publish).
    pub interested: u64,
}

impl NodeIr {
    /// This user's own precision/recall/F1 over the workload.
    pub fn scores(&self) -> IrScores {
        let precision = if self.received == 0 {
            0.0
        } else {
            self.hits as f64 / self.received as f64
        };
        let recall = if self.interested == 0 {
            0.0
        } else {
            self.hits as f64 / self.interested as f64
        };
        IrScores::from_pr(precision, recall)
    }
}

/// Exact counts of the events Table IV and Fig. 6 read, over the measured
/// or the warmup items, each keyed by its raw value: a count does not
/// depend on the order its events were booked in, and a reader clamps
/// when it reads. Each vector ends at the largest key booked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histograms {
    /// Liked first receptions per dislike counter of the delivering copy
    /// (Table IV).
    pub dislikes: Vec<u64>,
    /// Forwards per hop distance of the forwarding node from the source,
    /// as `[by dislike, by like]` (Fig. 6 "Forward by …").
    pub forwards: Vec<[u64; 2]>,
    /// First receptions per hop, as `[by dislike, by like]` of the
    /// *sender's* opinion (Fig. 6 "Infection by …").
    pub infections: Vec<[u64; 2]>,
}

impl Histograms {
    fn heap_bytes(&self) -> usize {
        self.dislikes.capacity() * std::mem::size_of::<u64>()
            + (self.forwards.capacity() + self.infections.capacity())
                * std::mem::size_of::<[u64; 2]>()
    }
}

/// Sums `counts` into `0..=max` buckets, clamping every key above `max`
/// into the last one.
fn clamped<T>(counts: &[T], max: usize, count: impl Fn(&T) -> u64) -> Vec<u64> {
    let mut buckets = vec![0u64; max + 1];
    for (key, c) in counts.iter().enumerate() {
        buckets[key.min(max)] += count(c);
    }
    buckets
}

/// Aggregated result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    pub protocol: String,
    pub dataset: String,
    /// Fanout knob of the run, when the protocol has one.
    pub fanout: Option<usize>,
    pub n_nodes: usize,
    pub cycles: u32,
    /// Per-item records (measured and warmup items alike).
    pub items: Vec<ItemRecord>,
    /// Table IV and Fig. 6 events of the measured items.
    pub measured: Histograms,
    /// The same events of the warmup items.
    pub warmup: Histograms,
    /// Per-node counters over measured items (empty for engines that do not
    /// track them).
    pub per_node: Vec<NodeIr>,
    /// Total news (dissemination) messages sent, measured items only.
    pub news_messages: u64,
    /// Total news messages including warmup items.
    pub news_messages_all: u64,
    /// Gossip-layer messages (RPS + WUP) over the whole run.
    pub gossip_messages: u64,
    /// Per-cycle measurement series — on the sharded engine folded from
    /// the phase replies in shard-index order, so bit-identical across
    /// shard counts and transports.
    pub series: CycleSeries,
    /// The scenario's named measurement windows, resolved against the
    /// finished series (empty when the scenario declares none).
    pub windows: Vec<WindowReport>,
}

/// One resolved measurement window of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// The scenario's window name.
    pub name: String,
    /// Resolved half-open cycle range `[from, until)`. For recovery
    /// windows, `until` is the cycle after recovery (or the end of the
    /// run when recall never recovered).
    pub from: u32,
    pub until: u32,
    /// Items published inside the window (warmup items included — the
    /// window is the measurement boundary here, not `measured`).
    pub items: u32,
    /// Micro-averaged precision/recall/F1 over those items.
    pub scores: IrScores,
    /// News messages sent during the window's cycles.
    pub news_sent: u64,
    /// Gossip messages sent during the window's cycles.
    pub gossip_sent: u64,
    /// Recovery metrics, present for event-anchored recovery windows.
    pub recovery: Option<RecoveryMetrics>,
}

impl SimReport {
    /// IR aggregate over measured items.
    fn aggregate(&self) -> IrAggregate {
        let mut agg = IrAggregate::new();
        for r in self.items.iter().filter(|r| r.measured) {
            agg.push(r.outcome());
        }
        agg
    }

    /// Micro-averaged precision/recall/F1 over measured items — the paper's
    /// headline numbers.
    pub fn scores(&self) -> IrScores {
        self.aggregate().micro()
    }

    /// IR aggregate over the items published in the cycle window
    /// `[from, until)` — warmup items included (the window *is* the
    /// measurement boundary). Because every epidemic completes within its
    /// publication cycle, this item-based pool equals the series' pooled
    /// reception counters over the same window.
    fn aggregate_window(&self, from: u32, until: u32) -> IrAggregate {
        let mut agg = IrAggregate::new();
        for r in self
            .items
            .iter()
            .filter(|r| r.published_at >= from && r.published_at < until)
        {
            agg.push(r.outcome());
        }
        agg
    }

    /// Builds one resolved measurement window over this report: the
    /// window-scoped item aggregate plus the series' pooled traffic, with
    /// `recovery` attached for event-anchored windows.
    fn window_report(
        &self,
        name: &str,
        from: u32,
        until: u32,
        recovery: Option<RecoveryMetrics>,
    ) -> WindowReport {
        let agg = self.aggregate_window(from, until);
        let pooled = self.series.pooled(from, until);
        WindowReport {
            name: name.to_string(),
            from,
            until,
            items: agg.len() as u32,
            scores: agg.micro(),
            news_sent: pooled.news_sent,
            gossip_sent: pooled.gossip_sent,
            recovery,
        }
    }

    /// Number of measured items.
    pub fn measured_items(&self) -> usize {
        self.items.iter().filter(|r| r.measured).count()
    }

    /// The report as written to disk. Every derived field is computed
    /// here and nowhere else: `measured_items`, `messages_per_user`, the
    /// series' `recall`/`precision` columns and `time_to_recover`.
    pub fn summary(&self) -> Summary {
        let cycles = self.series.cycles();
        let counts = |f: fn(&CycleStats) -> u64| cycles.iter().map(f).collect();
        let ratios = |f: fn(&CycleStats) -> Option<f64>| cycles.iter().map(f).collect();
        Summary {
            schema_version: REPORT_SCHEMA_VERSION,
            protocol: self.protocol.clone(),
            dataset: self.dataset.clone(),
            fanout: self.fanout,
            n_nodes: self.n_nodes,
            cycles: self.cycles,
            measured_items: self.measured_items(),
            scores: self.scores().into(),
            news_messages: self.news_messages,
            news_messages_all: self.news_messages_all,
            gossip_messages: self.gossip_messages,
            messages_per_user: self.messages_per_user(),
            series: Series {
                first_receptions: counts(|c| c.first_receptions),
                hits: counts(|c| c.hits),
                interested: counts(|c| c.interested),
                news_sent: counts(|c| c.news_sent),
                gossip_sent: counts(|c| c.gossip_sent),
                live_nodes: counts(|c| c.live_nodes),
                crashed: counts(|c| c.crashed),
                recall: ratios(CycleStats::recall),
                precision: ratios(CycleStats::precision),
            },
            windows: self
                .windows
                .iter()
                .map(|w| Window {
                    name: w.name.clone(),
                    from: w.from,
                    until: w.until,
                    items: w.items,
                    scores: w.scores.into(),
                    news_sent: w.news_sent,
                    gossip_sent: w.gossip_sent,
                    recovery: w.recovery.map(|r| Recovery {
                        anchor: r.anchor,
                        baseline_recall: r.baseline_recall,
                        dip_depth: r.dip_depth,
                        dip_cycle: r.dip_cycle,
                        recovered_at: r.recovered_at,
                        time_to_recover: r.time_to_recover(),
                        messages_spent: r.messages_spent,
                    }),
                })
                .collect(),
        }
    }

    /// Fig. 3 x-axis: news messages per cycle per node (measured items,
    /// measured cycle span).
    pub fn messages_per_cycle_per_node(&self) -> f64 {
        let span: u32 = self.measured_span().max(1);
        self.news_messages as f64 / span as f64 / self.n_nodes.max(1) as f64
    }

    /// Table III/V: news messages per user (whole run, measured items).
    pub fn messages_per_user(&self) -> f64 {
        self.news_messages as f64 / self.n_nodes.max(1) as f64
    }

    fn measured_span(&self) -> u32 {
        let mut min = u32::MAX;
        let mut max = 0;
        for r in self.items.iter().filter(|r| r.measured) {
            min = min.min(r.published_at);
            max = max.max(r.published_at);
        }
        if min == u32::MAX {
            0
        } else {
            max - min + 1
        }
    }

    /// Table IV: fraction of liked receptions per dislike-counter value
    /// `0..=max_ttl` (anything above the last bucket is clamped into it).
    pub fn dislike_distribution(&self, max_ttl: usize) -> Vec<f64> {
        let counts = clamped(&self.measured.dislikes, max_ttl, |&c| c);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; max_ttl + 1];
        }
        counts
            .into_iter()
            .map(|c| c as f64 / total as f64)
            .collect()
    }

    /// Fig. 6 series: per-hop counts of (forward by like, infection by like,
    /// forward by dislike, infection by dislike), averaged per measured item
    /// (hops above `max_hops` are clamped into the last bucket).
    pub fn hop_profile(&self, max_hops: usize) -> HopProfile {
        let measured = self.measured_items().max(1) as f64;
        let per_item = |counts: &[[u64; 2]], like: bool| {
            clamped(counts, max_hops, |c| c[usize::from(like)])
                .into_iter()
                .map(|c| c as f64 / measured)
                .collect()
        };
        let h = &self.measured;
        HopProfile {
            forward_like: per_item(&h.forwards, true),
            forward_dislike: per_item(&h.forwards, false),
            infection_like: per_item(&h.infections, true),
            infection_dislike: per_item(&h.infections, false),
        }
    }
}

/// The report as written to disk, built by [`SimReport::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub schema_version: u32,
    pub protocol: String,
    pub dataset: String,
    pub fanout: Option<usize>,
    pub n_nodes: usize,
    pub cycles: u32,
    pub measured_items: usize,
    /// Over the measured items.
    pub scores: Scores,
    pub news_messages: u64,
    pub news_messages_all: u64,
    pub gossip_messages: u64,
    pub messages_per_user: f64,
    pub series: Series,
    pub windows: Vec<Window>,
}

serde::json_codec! {
    struct Summary {
        schema_version, protocol, dataset, fanout, n_nodes, cycles, measured_items, scores,
        news_messages, news_messages_all, gossip_messages, messages_per_user, series, windows,
    }
}

/// Micro-averaged precision, recall and F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

serde::json_codec! { struct Scores { precision, recall, f1 } }

impl From<IrScores> for Scores {
    fn from(s: IrScores) -> Self {
        Self {
            precision: s.precision,
            recall: s.recall,
            f1: s.f1,
        }
    }
}

/// The per-cycle series as parallel columns (index = cycle). The derived
/// `recall`/`precision` columns are `None` on cycles without
/// publications/receptions.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub first_receptions: Vec<u64>,
    pub hits: Vec<u64>,
    pub interested: Vec<u64>,
    pub news_sent: Vec<u64>,
    pub gossip_sent: Vec<u64>,
    pub live_nodes: Vec<u64>,
    pub crashed: Vec<u64>,
    pub recall: Vec<Option<f64>>,
    pub precision: Vec<Option<f64>>,
}

serde::json_codec! {
    struct Series {
        first_receptions, hits, interested, news_sent, gossip_sent, live_nodes, crashed, recall,
        precision,
    }
}

impl Series {
    /// The columns in the order of [`Json::FIELDS`]: the seven counts,
    /// then the two ratios.
    pub fn columns(&self) -> ([&[u64]; 7], [&[Option<f64>]; 2]) {
        let counts = [
            &self.first_receptions,
            &self.hits,
            &self.interested,
            &self.news_sent,
            &self.gossip_sent,
            &self.live_nodes,
            &self.crashed,
        ];
        (
            counts.map(|c| &c[..]),
            [&self.recall, &self.precision].map(|c| &c[..]),
        )
    }
}

/// One resolved measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub name: String,
    pub from: u32,
    pub until: u32,
    pub items: u32,
    pub scores: Scores,
    pub news_sent: u64,
    pub gossip_sent: u64,
    /// Present for event-anchored recovery windows.
    pub recovery: Option<Recovery>,
}

serde::json_codec! {
    struct Window { name, from, until, items, scores, news_sent, gossip_sent, recovery }
}

/// A recovery window's metrics ([`RecoveryMetrics`] plus
/// `time_to_recover`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    pub anchor: u32,
    pub baseline_recall: f64,
    pub dip_depth: f64,
    pub dip_cycle: u32,
    pub recovered_at: Option<u32>,
    pub time_to_recover: Option<u32>,
    pub messages_spent: u64,
}

serde::json_codec! {
    struct Recovery {
        anchor, baseline_recall, dip_depth, dip_cycle, recovered_at, time_to_recover,
        messages_spent,
    }
}

impl Summary {
    /// Checks what the types cannot say, naming the offending field's path:
    /// positive `n_nodes` and `cycles`, probability scores, equally long
    /// series columns, named windows and, when `require_recovery`, one
    /// with recovery metrics. (Per-cycle ratios are no scores: anti-entropy
    /// delivers in later cycles, and its recall column exceeds 1.)
    pub fn validate(&self, require_recovery: bool) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("n_nodes: must be positive".into());
        }
        if self.cycles == 0 {
            return Err("cycles: must be positive".into());
        }
        let probabilities = |path: &str, s: &Scores| {
            let named = Scores::FIELDS.iter().zip([s.precision, s.recall, s.f1]);
            match named.into_iter().find(|(_, x)| !(0.0..=1.0).contains(x)) {
                Some((key, x)) => Err(format!("{path}.{key}: {x} is not a probability")),
                None => Ok(()),
            }
        };
        probabilities("scores", &self.scores)?;
        let (counts, ratios) = self.series.columns();
        let lens = counts
            .map(<[_]>::len)
            .into_iter()
            .chain(ratios.map(<[_]>::len));
        let mut keyed = Series::FIELDS.iter().zip(lens);
        if let Some((key, n)) = keyed.find(|&(_, n)| n != counts[0].len()) {
            let (first, len) = (Series::FIELDS[0], counts[0].len());
            return Err(format!(
                "series.{key}: {n} entries, series.{first} has {len}"
            ));
        }
        for (i, w) in self.windows.iter().enumerate() {
            if w.name.is_empty() {
                return Err(format!("windows[{i}].name: must not be empty"));
            }
            probabilities(&format!("windows[{i}].scores"), &w.scores)?;
        }
        if require_recovery && self.windows.iter().all(|w| w.recovery.is_none()) {
            return Err("windows: no window carries recovery metrics".into());
        }
        Ok(())
    }
}

/// One first reception, as far as the booking engine models it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reception {
    /// Whether the receiver likes the item (a *hit*).
    pub likes: bool,
    /// `(hop, sender_liked)` where items travel hop by hop (Fig. 6).
    pub hop: Option<(u16, bool)>,
    /// Dislike counter of the delivering copy, where copies carry one
    /// (Table IV; only liked receptions record it).
    pub dislikes: Option<u8>,
}

/// The run's books: per-item records, the Table IV and Fig. 6 histograms,
/// per-node and per-cycle counters and the measured/all message totals,
/// fed by the events of whichever engine runs, and the only way to a
/// [`SimReport`]. Every book is a count, folded as its event is booked:
/// nothing grows with the receptions of an item, and no result depends on
/// the order events arrive in. An event names the cycle it is booked
/// under, so per-cycle engines pass the running cycle and the one-shot
/// engines, which walk items in dataset order, the item's publication
/// cycle.
pub(crate) struct Ledger {
    records: Vec<ItemRecord>,
    measured: Histograms,
    warmup: Histograms,
    /// Empty for engines that do not track per-node counters.
    per_node: Vec<NodeIr>,
    /// Counter blocks of the cycles touched so far (index = cycle).
    cycles: Vec<CycleStats>,
    /// Cycles ended so far; later blocks are still accumulating.
    ended: u32,
    gossip_messages: u64,
    news_all: u64,
    news_measured: u64,
}

/// The entry under `key`, growing `books` with zeros to reach it.
fn slot<T: Clone + Default>(books: &mut Vec<T>, key: u32) -> &mut T {
    if books.len() <= key as usize {
        books.resize(key as usize + 1, T::default());
    }
    &mut books[key as usize]
}

impl Ledger {
    /// Opens one record per item of the schedule `cycle_of` (item index →
    /// publication cycle) and per-node counters for `tracked_nodes` nodes
    /// (0 = the engine reports none).
    pub(crate) fn open(cycle_of: &[u32], cfg: &SimConfig, tracked_nodes: usize) -> Self {
        Self {
            records: (0u32..)
                .zip(cycle_of)
                .map(|(index, &published_at)| ItemRecord {
                    index,
                    published_at,
                    measured: published_at >= cfg.measure_from,
                    ..ItemRecord::default()
                })
                .collect(),
            measured: Histograms::default(),
            warmup: Histograms::default(),
            per_node: vec![NodeIr::default(); tracked_nodes],
            cycles: Vec::new(),
            ended: 0,
            gossip_messages: 0,
            news_all: 0,
            news_measured: 0,
        }
    }

    /// Item `index` is published (at its scheduled cycle) by `source`;
    /// `likers` is everyone who likes it right now. The ground truth it is
    /// scored against is the likers other than the source.
    pub(crate) fn published(&mut self, index: u32, source: NodeId, likers: &[NodeId]) {
        let rec = &mut self.records[index as usize];
        for &u in likers.iter().filter(|&&u| u != source) {
            rec.interested += 1;
            if rec.measured {
                if let Some(node) = self.per_node.get_mut(u as usize) {
                    node.interested += 1;
                }
            }
        }
        slot(&mut self.cycles, rec.published_at).interested += u64::from(rec.interested);
    }

    /// `copies` news copies of item `index` were sent (lost ones included
    /// — the paper's "number of sent messages").
    pub(crate) fn sent(&mut self, cycle: u32, index: u32, copies: u64) {
        let rec = &mut self.records[index as usize];
        rec.news_sent += copies;
        self.news_all += copies;
        if rec.measured {
            self.news_measured += copies;
        }
        slot(&mut self.cycles, cycle).news_sent += copies;
    }

    pub(crate) fn gossip_sent(&mut self, cycle: u32, messages: u64) {
        self.gossip_messages += messages;
        slot(&mut self.cycles, cycle).gossip_sent += messages;
    }

    /// The histograms item `index` books into.
    fn histograms(&mut self, index: u32) -> &mut Histograms {
        if self.records[index as usize].measured {
            &mut self.measured
        } else {
            &mut self.warmup
        }
    }

    /// `node` receives item `index` for the first time.
    pub(crate) fn first_reception(&mut self, cycle: u32, index: u32, node: NodeId, r: Reception) {
        let h = self.histograms(index);
        if let Some((hop, sender_liked)) = r.hop {
            slot(&mut h.infections, hop.into())[usize::from(sender_liked)] += 1;
        }
        if let (true, Some(d)) = (r.likes, r.dislikes) {
            *slot(&mut h.dislikes, d.into()) += 1;
        }
        let rec = &mut self.records[index as usize];
        rec.reached += 1;
        rec.hits += u32::from(r.likes);
        if rec.measured {
            if let Some(node) = self.per_node.get_mut(node as usize) {
                node.received += 1;
                node.hits += u64::from(r.likes);
            }
        }
        let stats = slot(&mut self.cycles, cycle);
        stats.first_receptions += 1;
        stats.hits += u64::from(r.likes);
    }

    /// A node at hop distance `hop` forwarded item `index` (Fig. 6).
    pub(crate) fn forwarded(&mut self, index: u32, hop: u16, liked: bool) {
        slot(&mut self.histograms(index).forwards, hop.into())[usize::from(liked)] += 1;
    }

    pub(crate) fn crashed(&mut self, cycle: u32, nodes: u64) {
        slot(&mut self.cycles, cycle).crashed += nodes;
    }

    /// A node joined (per-node engines only): its counters start at zero.
    pub(crate) fn joined(&mut self) {
        self.per_node.push(NodeIr::default());
    }

    /// Ends every cycle up to and including `cycle` that has not ended
    /// yet, stamping each with the population `live_nodes`.
    pub(crate) fn end_cycle(&mut self, cycle: u32, live_nodes: usize) {
        slot(&mut self.cycles, cycle);
        for stats in &mut self.cycles[self.ended as usize..=cycle as usize] {
            stats.live_nodes = live_nodes as u64;
        }
        self.ended = cycle + 1;
    }

    /// `(item records and histograms, per-node counters)` heap bytes
    /// (diagnostics).
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let records = self.records.capacity() * std::mem::size_of::<ItemRecord>()
            + self.measured.heap_bytes()
            + self.warmup.heap_bytes();
        let per_node = self.per_node.capacity() * std::mem::size_of::<NodeIr>();
        (records, per_node)
    }

    /// Closes the books over the cycles ended so far and resolves the
    /// scenario's measurement windows against the finished series
    /// (anchors were validated up front, so one that cannot resolve here
    /// is a bug, not bad input).
    pub(crate) fn into_report(
        mut self,
        protocol: Protocol,
        dataset: String,
        n_nodes: usize,
        scenario: &Scenario,
    ) -> SimReport {
        self.cycles.truncate(self.ended as usize);
        let mut report = SimReport {
            protocol: protocol.label(),
            dataset,
            fanout: protocol.fanout(),
            n_nodes,
            cycles: self.ended,
            items: self.records,
            measured: self.measured,
            warmup: self.warmup,
            per_node: self.per_node,
            news_messages: self.news_measured,
            news_messages_all: self.news_all,
            gossip_messages: self.gossip_messages,
            series: self.cycles.into_iter().collect(),
            windows: Vec::new(),
        };
        report.windows = scenario
            .measurements
            .iter()
            .map(|m| {
                let (from, until, recovery) = match m.window {
                    WindowSpec::Cycles { from, until } => (from, until.min(report.cycles), None),
                    WindowSpec::Recovery { anchor, baseline } => {
                        let at = anchor
                            .resolve(scenario)
                            .expect("anchor validated against the scenario");
                        let recovery = report.series.recovery(at, baseline);
                        let until = recovery
                            .and_then(|r| r.recovered_at)
                            .map_or(report.cycles, |c| c + 1);
                        (at, until, recovery)
                    }
                };
                report.window_report(&m.name, from, until, recovery)
            })
            .collect();
        report
    }
}

/// Per-hop dissemination activity (Fig. 6), averaged per item.
#[derive(Debug, Clone, PartialEq)]
pub struct HopProfile {
    pub forward_like: Vec<f64>,
    pub forward_dislike: Vec<f64>,
    pub infection_like: Vec<f64>,
    pub infection_dislike: Vec<f64>,
}

impl HopProfile {
    /// Mean hop distance of infections (the paper reports ≈5 on the survey).
    pub fn mean_infection_hop(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for (h, (l, d)) in self
            .infection_like
            .iter()
            .zip(&self.infection_dislike)
            .enumerate()
        {
            weighted += h as f64 * (l + d);
            total += l + d;
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Measurement;
    use proptest::prelude::*;
    use serde::json::Value;

    fn record(measured: bool) -> ItemRecord {
        ItemRecord {
            index: 0,
            published_at: 10,
            interested: 10,
            reached: 20,
            hits: 10,
            news_sent: 100,
            measured,
        }
    }

    fn report() -> SimReport {
        SimReport {
            protocol: "WhatsUp".into(),
            dataset: "survey".into(),
            fanout: Some(10),
            n_nodes: 100,
            cycles: 65,
            items: vec![record(true), record(false)],
            measured: Histograms::default(),
            warmup: Histograms::default(),
            per_node: vec![NodeIr {
                received: 10,
                hits: 5,
                interested: 8,
            }],
            news_messages: 100,
            news_messages_all: 200,
            gossip_messages: 40,
            series: CycleSeries::default(),
            windows: Vec::new(),
        }
    }

    #[test]
    fn node_ir_scores() {
        let n = NodeIr {
            received: 10,
            hits: 5,
            interested: 8,
        };
        let s = n.scores();
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 0.625).abs() < 1e-12);
        let empty = NodeIr::default();
        assert_eq!(empty.scores(), IrScores::default());
    }

    #[test]
    fn only_measured_items_count() {
        let r = report();
        assert_eq!(r.measured_items(), 1);
        let s = r.scores();
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_normalizations() {
        let r = report();
        // One measured item at cycle 10 → span 1.
        assert!((r.messages_per_cycle_per_node() - 1.0).abs() < 1e-12);
        assert!((r.messages_per_user() - 1.0).abs() < 1e-12);
    }

    /// Books events over two items, the first measured and the second
    /// warmup: `receptions` as `(item, receiver, hop, dislikes, receiver
    /// likes, sender liked)` first receptions, and `forwards` as `(item,
    /// hop, liked)`.
    fn booked(
        receptions: &[(u32, NodeId, u16, u8, bool, bool)],
        forwards: &[(u32, u16, bool)],
    ) -> SimReport {
        let cfg = SimConfig {
            measure_from: 10,
            ..SimConfig::default()
        };
        let mut ledger = Ledger::open(&[10, 9], &cfg, 0);
        let likers: Vec<NodeId> = (0..20).collect();
        ledger.published(0, 99, &likers);
        ledger.published(1, 99, &likers);
        for &(index, node, hop, dislikes, likes, sender_liked) in receptions {
            let reception = Reception {
                likes,
                hop: Some((hop, sender_liked)),
                dislikes: Some(dislikes),
            };
            ledger.first_reception(10, index, node, reception);
        }
        for &(index, hop, liked) in forwards {
            ledger.forwarded(index, hop, liked);
        }
        ledger.end_cycle(10, 100);
        ledger.into_report(
            Protocol::WhatsUp { f_like: 10 },
            "survey".into(),
            100,
            &Scenario::default(),
        )
    }

    #[test]
    fn dislike_distribution_normalizes() {
        let r = booked(
            &[
                (0, 1, 1, 0, true, true),
                (0, 2, 1, 0, true, true),
                (0, 3, 2, 1, true, false),
                (0, 4, 3, 2, true, false),
                // Not liked, or not measured: no Table IV entry.
                (0, 5, 1, 3, false, true),
                (1, 1, 1, 3, true, true),
            ],
            &[],
        );
        let d = r.dislike_distribution(4);
        assert_eq!(d.len(), 5);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 0.25).abs() < 1e-12);
        assert_eq!(d[3], 0.0);
        // Counters above the last bucket are clamped into it.
        assert_eq!(r.dislike_distribution(1), vec![0.5, 0.5]);
        assert_eq!(r.warmup.dislikes, vec![0, 0, 0, 1]);
    }

    #[test]
    fn hop_profile_buckets() {
        let r = booked(
            &[
                (0, 1, 1, 0, true, true),
                (0, 2, 2, 0, false, false),
                (1, 3, 7, 0, true, true),
            ],
            &[(0, 0, true), (0, 1, false), (1, 5, true)],
        );
        let p = r.hop_profile(30);
        assert!((p.forward_like[0] - 1.0).abs() < 1e-12);
        assert!((p.forward_dislike[1] - 1.0).abs() < 1e-12);
        assert!((p.infection_like[1] - 1.0).abs() < 1e-12);
        assert!((p.infection_dislike[2] - 1.0).abs() < 1e-12);
        assert_eq!(
            p.forward_like.iter().sum::<f64>(),
            1.0,
            "the warmup forward is not read"
        );
        let mean = p.mean_infection_hop();
        assert!((mean - 1.5).abs() < 1e-12);
        // Hops above the last bucket are clamped into it.
        assert_eq!(r.hop_profile(1).infection_dislike, vec![0.0, 1.0]);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::default();
        assert_eq!(r.scores(), IrScores::default());
        assert_eq!(r.dislike_distribution(4), vec![0.0; 5]);
        assert_eq!(r.hop_profile(5).mean_infection_hop(), 0.0);
        assert!(r.series.is_empty());
        assert!(r.windows.is_empty());
    }

    #[test]
    fn window_aggregate_filters_by_publication_cycle() {
        let mut r = report();
        r.items[1].published_at = 20; // the warmup record, moved out of range
        let agg = r.aggregate_window(10, 11);
        assert_eq!(agg.len(), 1, "only the cycle-10 item");
        let s = agg.micro();
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
        assert_eq!(r.aggregate_window(0, 10).len(), 0);
        // The warmup flag is irrelevant here: windows measure by cycle.
        assert_eq!(r.aggregate_window(0, 30).len(), 2);
    }

    #[test]
    fn window_report_pools_series_traffic() {
        let mut r = report();
        r.series = (0..12)
            .map(|_| whatsup_metrics::CycleStats {
                news_sent: 3,
                gossip_sent: 7,
                live_nodes: 100,
                ..Default::default()
            })
            .collect();
        let w = r.window_report("probe", 10, 12, None);
        assert_eq!(w.name, "probe");
        assert_eq!(w.items, 2, "both fixture items publish at cycle 10");
        assert_eq!(w.news_sent, 6);
        assert_eq!(w.gossip_sent, 14);
        assert!(w.recovery.is_none());
    }

    /// The committed scenario's report: two windows, the second one a
    /// crash-wave recovery.
    fn committed_summary() -> Summary {
        let text = include_str!("../../../scenarios/flash_crowd_crash_wave.json");
        let file = crate::ScenarioFile::from_json_str(text).unwrap();
        crate::Runner::new(&file.dataset.build(), file.protocol)
            .config(file.config)
            .scenario(file.scenario)
            .run()
            .summary()
    }

    #[test]
    fn summary_round_trips_through_its_schema() {
        let s = committed_summary();
        assert!(s.windows[1].recovery.is_some());
        assert_eq!(s.validate(true), Ok(()));
        let json = s.to_json();
        for text in [json.pretty(), json.to_string()] {
            let back = Summary::from_json_exact(&serde::json::parse(&text).unwrap());
            assert_eq!(back, Ok(s.clone()));
        }
        // `columns` lists the columns in the order `FIELDS` names them.
        let (counts, ratios) = s.series.columns();
        let columns = counts.map(|c| c.to_vec().to_json());
        let columns = columns
            .into_iter()
            .chain(ratios.map(|c| c.to_vec().to_json()));
        for (key, column) in Series::FIELDS.iter().zip(columns) {
            assert_eq!(json.get("series").unwrap().get(key), Some(&column), "{key}");
        }
    }

    /// The value under `path`: object keys, and array indices.
    fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
        path.iter().fold(v, |v, step| match v {
            Value::Object(map) => map.get_mut(*step).unwrap(),
            Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("nothing under {step}"),
        })
    }

    #[test]
    fn tampered_reports_name_their_fault() {
        let read = |v: &Value| {
            let s = Summary::from_json_exact(v).map_err(|e| e.to_string())?;
            s.validate(false)
        };
        let report = committed_summary().to_json();
        assert_eq!(read(&report), Ok(()));
        type Tamper = fn(&mut Value);
        let cases: [(&str, Tamper); 6] = [
            ("scores.recall: 1.5 is not a probability", |v| {
                *at(v, &["scores", "recall"]) = 1.5f64.to_json();
            }),
            (
                "series.hits: 13 entries, series.first_receptions has 14",
                |v| {
                    if let Value::Array(hits) = at(v, &["series", "hits"]) {
                        hits.pop();
                    }
                },
            ),
            ("windows[0].name: must not be empty", |v| {
                *at(v, &["windows", "0", "name"]) = Value::String(String::new());
            }),
            (r#"windows[1].recovery: missing field "dip_depth""#, |v| {
                if let Value::Object(recovery) = at(v, &["windows", "1", "recovery"]) {
                    recovery.remove("dip_depth");
                }
            }),
            ("n_nodes: expected an integer", |v| {
                *at(v, &["n_nodes"]) = Value::String("61".into());
            }),
            ("series.misses: unknown key", |v| {
                if let Value::Object(series) = at(v, &["series"]) {
                    series.insert("misses".into(), Value::Array(Vec::new()));
                }
            }),
        ];
        for (fault, tamper) in cases {
            let mut v = report.clone();
            tamper(&mut v);
            let err = read(&v).unwrap_err();
            assert!(err.contains(fault), "{fault}: {err}");
        }
        let mut plain = committed_summary();
        plain.windows[1].recovery = None;
        assert_eq!(
            plain.validate(true),
            Err("windows: no window carries recovery metrics".into())
        );
    }

    /// One item's books as they were kept before they became counts: a
    /// list per item, read by the loops the readers ran then.
    #[derive(Clone, Default)]
    struct Lists {
        published_at: u32,
        measured: bool,
        interested: usize,
        reached: usize,
        hits: usize,
        dislikes_at_liked_reception: Vec<u8>,
        forward_hops: Vec<(u16, bool)>,
        infection_hops: Vec<(u16, bool)>,
    }

    /// Micro-averaged scores over `items`, summed from a list of outcomes
    /// as `IrAggregate` once kept it.
    fn pooled<'a>(items: impl Iterator<Item = &'a Lists>) -> IrScores {
        let outcomes: Vec<ItemOutcome> = items
            .map(|r| ItemOutcome::new(r.interested, r.reached, r.hits))
            .collect();
        let hits: usize = outcomes.iter().map(|o| o.hits).sum();
        let reached: usize = outcomes.iter().map(|o| o.reached).sum();
        let interested: usize = outcomes.iter().map(|o| o.interested).sum();
        let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        IrScores::from_pr(ratio(hits, reached), ratio(hits, interested))
    }

    fn reference_dislikes(lists: &[Lists], max_ttl: usize) -> Vec<f64> {
        let mut counts = vec![0u64; max_ttl + 1];
        let mut total = 0u64;
        for r in lists.iter().filter(|r| r.measured) {
            for &d in &r.dislikes_at_liked_reception {
                counts[(d as usize).min(max_ttl)] += 1;
                total += 1;
            }
        }
        if total == 0 {
            return vec![0.0; max_ttl + 1];
        }
        counts
            .into_iter()
            .map(|c| c as f64 / total as f64)
            .collect()
    }

    fn reference_hops(lists: &[Lists], max_hops: usize) -> HopProfile {
        let mut p = HopProfile {
            forward_like: vec![0.0; max_hops + 1],
            forward_dislike: vec![0.0; max_hops + 1],
            infection_like: vec![0.0; max_hops + 1],
            infection_dislike: vec![0.0; max_hops + 1],
        };
        let measured = lists.iter().filter(|r| r.measured).count().max(1) as f64;
        for r in lists.iter().filter(|r| r.measured) {
            for &(h, like) in &r.forward_hops {
                let h = (h as usize).min(max_hops);
                if like {
                    p.forward_like[h] += 1.0;
                } else {
                    p.forward_dislike[h] += 1.0;
                }
            }
            for &(h, like) in &r.infection_hops {
                let h = (h as usize).min(max_hops);
                if like {
                    p.infection_like[h] += 1.0;
                } else {
                    p.infection_dislike[h] += 1.0;
                }
            }
        }
        for v in [
            &mut p.forward_like,
            &mut p.forward_dislike,
            &mut p.infection_like,
            &mut p.infection_dislike,
        ] {
            for x in v.iter_mut() {
                *x /= measured;
            }
        }
        p
    }

    /// Bit for bit: a float compare that tells `0.0` from `-0.0` and
    /// matches NaN with itself.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn hop_bits(p: &HopProfile) -> [Vec<u64>; 4] {
        [
            &p.forward_like,
            &p.forward_dislike,
            &p.infection_like,
            &p.infection_dislike,
        ]
        .map(|v| bits(v))
    }

    fn score_bits(s: IrScores) -> [u64; 3] {
        [s.precision, s.recall, s.f1].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ledger's histograms against the per-item lists they
        /// replaced, bit for bit: random events on measured and warmup
        /// items, booked in any interleaving, with hops past the read
        /// bound and dislike counters above the TTL, read at bounds
        /// below, at and above the largest key.
        #[test]
        fn histograms_read_as_the_per_item_lists_did(
            schedule in prop::collection::vec((0u32..8, 0u32..12, 0u32..1 << 12), 1..7),
            events in prop::collection::vec(
                ((0usize..7, 0u8..3, 0u32..12, 0u16..40), (0u8..12, 0u8..8)),
                0..160,
            ),
            bounds in (0usize..4, 0usize..4),
        ) {
            const NODES: u32 = 12;
            let cfg = SimConfig {
                measure_from: 4,
                ..SimConfig::default()
            };
            let cycle_of: Vec<u32> = schedule.iter().map(|&(at, _, _)| at).collect();
            let mut ledger = Ledger::open(&cycle_of, &cfg, NODES as usize);
            let mut lists = vec![Lists::default(); schedule.len()];
            let likes = |index: usize, node: u32| schedule[index].2 >> node & 1 == 1;
            for (index, &(at, source, _)) in schedule.iter().enumerate() {
                let likers: Vec<NodeId> = (0..NODES).filter(|&u| likes(index, u)).collect();
                ledger.published(index as u32, source, &likers);
                let list = &mut lists[index];
                list.published_at = at;
                list.measured = at >= cfg.measure_from;
                list.interested = likers.iter().filter(|&&u| u != source).count();
            }
            let mut received = std::collections::BTreeSet::new();
            for ((index, kind, node, hop), (dislikes, flags)) in events {
                let index = index % schedule.len();
                let (at, source, _) = schedule[index];
                let list = &mut lists[index];
                let liked = flags & 1 == 1;
                if kind == 0 {
                    ledger.forwarded(index as u32, hop, liked);
                    list.forward_hops.push((hop, liked));
                    continue;
                }
                // A first reception, once per receiver and never at the source.
                if node == source || !received.insert((index, node)) {
                    continue;
                }
                let reception = Reception {
                    likes: likes(index, node),
                    hop: (flags & 2 == 0).then_some((hop, liked)),
                    dislikes: (flags & 4 == 0).then_some(dislikes),
                };
                ledger.first_reception(at, index as u32, node, reception);
                list.reached += 1;
                list.infection_hops.extend(reception.hop);
                if reception.likes {
                    list.hits += 1;
                    list.dislikes_at_liked_reception.extend(reception.dislikes);
                }
            }
            let last = cycle_of.iter().copied().max().unwrap_or(0);
            ledger.end_cycle(last, NODES as usize);
            let windows = [(0, 4), (2, 6), (4, 8), (7, 8)];
            let scenario = Scenario {
                measurements: windows
                    .iter()
                    .map(|&(from, until)| Measurement {
                        name: format!("{from}-{until}"),
                        window: WindowSpec::Cycles { from, until },
                    })
                    .collect(),
                ..Scenario::default()
            };
            let report = ledger.into_report(
                Protocol::WhatsUp { f_like: 5 },
                "random".into(),
                NODES as usize,
                &scenario,
            );

            let max_dislike = lists
                .iter()
                .flat_map(|r| &r.dislikes_at_liked_reception)
                .map(|&d| usize::from(d))
                .max()
                .unwrap_or(0);
            let max_hop = lists
                .iter()
                .flat_map(|r| r.forward_hops.iter().chain(&r.infection_hops))
                .map(|&(h, _)| usize::from(h))
                .max()
                .unwrap_or(0);
            let (below, above) = bounds;
            let around = |max: usize| [max.saturating_sub(below + 1), max, max + above];
            for k in around(max_dislike) {
                prop_assert_eq!(
                    bits(&report.dislike_distribution(k)),
                    bits(&reference_dislikes(&lists, k)),
                    "dislike_distribution({})", k
                );
            }
            for k in around(max_hop) {
                prop_assert_eq!(
                    hop_bits(&report.hop_profile(k)),
                    hop_bits(&reference_hops(&lists, k)),
                    "hop_profile({})", k
                );
            }
            prop_assert_eq!(
                score_bits(report.scores()),
                score_bits(pooled(lists.iter().filter(|r| r.measured)))
            );
            prop_assert_eq!(
                report.measured_items(),
                lists.iter().filter(|r| r.measured).count()
            );
            for (w, &(from, until)) in report.windows.iter().zip(&windows) {
                let inside = || lists.iter().filter(|r| (from..until).contains(&r.published_at));
                prop_assert_eq!(w.items as usize, inside().count());
                prop_assert_eq!(score_bits(w.scores), score_bits(pooled(inside())));
            }
        }
    }
}
