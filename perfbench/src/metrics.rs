//! The metric tables: the one place that names every metric, its unit,
//! its direction and (end to end) the bound by which it may worsen.
//! `perfbench manifest` renders `BENCHMARK.json` from these tables, so the
//! contract file and the program cannot drift apart.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// What a user of the simulator sees. The first four are host cost, the
/// median over a run's repetitions; the last three are simulated
/// statistics, exact for a given seed. Each bound is three times the
/// widest spread over ten seeds that the listed workloads showed on the
/// builder's box, rounded up (README, "Noise" and "Bounds"): for the host
/// times that is the box's weather, for the rest the simulator's own
/// seed-to-seed variation.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_us_per_msg",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_msg",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.16,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "f1",
        unit: "ratio",
        better: "higher",
        bound: 0.03,
    },
    EndToEnd {
        name: "recall",
        unit: "ratio",
        better: "higher",
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_messages",
        unit: "count",
        better: "lower",
        bound: 0.08,
    },
];

/// `(name, unit, better)` of every per-layer metric, grouped by the layer
/// that produces it. A traced run prints all of them; a layer that does
/// not run in a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    // Worker-side spans of the traced socket run, by engine phase.
    ("shard.collect_s", "s", "lower"),
    ("shard.deliver_gossip_s", "s", "lower"),
    ("shard.churn_s", "s", "lower"),
    ("shard.publish_s", "s", "lower"),
    ("shard.deliver_news_s", "s", "lower"),
    ("shard.other_s", "s", "lower"),
    ("shard.busy_s", "s", "lower"),
    ("shard.crit_path_s", "s", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.gossip_rounds", "count", "lower"),
    ("shard.news_rounds", "count", "lower"),
    ("shard.gossip_msgs", "count", "lower"),
    ("shard.news_msgs", "count", "lower"),
    ("shard.ns_per_gossip_msg", "ns", "lower"),
    ("shard.ns_per_news_msg", "ns", "lower"),
    // The command/reply exchange, at the socket boundary.
    ("exchange.roundtrips", "count", "lower"),
    ("exchange.cmd_bytes", "B", "lower"),
    ("exchange.reply_bytes", "B", "lower"),
    ("exchange.decode_command_s", "s", "lower"),
    ("exchange.encode_reply_s", "s", "lower"),
    ("exchange.write_frame_s", "s", "lower"),
    ("exchange.release_s", "s", "lower"),
    ("exchange.idle_s", "s", "lower"),
    ("exchange.handshake_s", "s", "lower"),
    ("exchange.shard_penalty", "ratio", "lower"),
    ("exchange.rss_penalty", "ratio", "lower"),
    ("exchange.pipe_overhead_s", "s", "lower"),
    ("exchange.worker_peak_rss_mb", "MiB", "lower"),
    // Mailbox bundles crossing shards, and the mailbox kernels.
    ("mailbox.gossip_bundle_bytes", "B", "lower"),
    ("mailbox.news_bundle_bytes", "B", "lower"),
    ("mailbox.cross_shard_share", "ratio", "lower"),
    ("mailbox.push_ns", "ns", "lower"),
    ("mailbox.drain_ns", "ns", "lower"),
    ("mailbox.bundle_encode_mb_s", "MiB/s", "higher"),
    ("mailbox.bundle_decode_mb_s", "MiB/s", "higher"),
    // The driver: what the worker spans leave unexplained, and step spans.
    ("driver.self_s", "s", "lower"),
    ("driver.attributed_share", "ratio", "higher"),
    ("driver.build_s", "s", "lower"),
    ("driver.warmup_cycle_s", "s", "lower"),
    ("driver.news_cycle_s", "s", "lower"),
    ("driver.into_report_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.worker_coverage", "ratio", "higher"),
    ("datasets.generate_s", "s", "lower"),
    // `Simulation::memory_breakdown()`, one row per component.
    ("mem.own_profiles_mb", "MiB", "lower"),
    ("mem.pinned_snapshots_mb", "MiB", "lower"),
    ("mem.seen_sets_mb", "MiB", "lower"),
    ("mem.node_caches_mb", "MiB", "lower"),
    ("mem.mailbox_arena_mb", "MiB", "lower"),
    ("mem.emit_scratch_mb", "MiB", "lower"),
    ("mem.pending_local_mb", "MiB", "lower"),
    ("mem.phase_rngs_mb", "MiB", "lower"),
    ("mem.item_records_mb", "MiB", "lower"),
    ("mem.driver_per_node_mb", "MiB", "lower"),
    ("mem.accounted_share", "ratio", "higher"),
    // Kernels on harvested state.
    ("similarity.wup_ns", "ns", "lower"),
    ("similarity.profile_len_p50", "count", "lower"),
    ("profile.aggregate_ns", "ns", "lower"),
    ("view.merge_ns", "ns", "lower"),
    ("node.on_cycle_ns", "ns", "lower"),
    ("node.on_gossip_ns", "ns", "lower"),
    ("node.on_news_ns", "ns", "lower"),
    ("codec.gossip_encode_ns", "ns", "lower"),
    ("codec.gossip_decode_ns", "ns", "lower"),
    ("codec.news_encode_ns", "ns", "lower"),
    ("codec.news_decode_ns", "ns", "lower"),
    ("codec.gossip_frame_bytes", "B", "lower"),
    ("codec.news_frame_bytes", "B", "lower"),
    ("codec.digest_rt_ns", "ns", "lower"),
    ("codec.delta_rt_ns", "ns", "lower"),
    ("antientropy.digest_ns", "ns", "lower"),
    ("antientropy.pack_delta_ns", "ns", "lower"),
    ("antientropy.apply_ns", "ns", "lower"),
    ("env.steal_share", "ratio", "lower"),
];

/// The listed per-layer metric called `name`, if there is one.
pub fn per_layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|(listed, _, _)| *listed)
        .find(|listed| *listed == name)
}
