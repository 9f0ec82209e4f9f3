//! Single-layer kernels, timed on state harvested at the end of a real
//! run (profiles, views and likes taken from `sim.node(id)`), never on
//! synthetic profiles: what a call costs depends on how long the profiles
//! and views have grown in that workload.

use crate::steps::Harvest;
use bytes::BytesMut;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use whatsup_core::similarity::wup_similarity;
use whatsup_core::{NewsItem, NewsMessage, NodeId, NodeStats, Payload, Profile, WhatsUpNode};
use whatsup_datasets::Dataset;
use whatsup_net::codec;
use whatsup_sim::engine::mailbox::{decode_shard_bundle_each, encode_shard_bundle, Mailbox};
use whatsup_sim::engines::antientropy::delta::pack_delta;
use whatsup_sim::engines::antientropy::digest::DigestIndex;
use whatsup_sim::engines::antientropy::state::Replica;

/// Time given to each kernel.
const BUDGET: Duration = Duration::from_millis(40);

/// Nanoseconds per call of `op`, over batches of inputs that `prepare`
/// builds outside the timed region (clones of state the call consumes).
fn ns_per_op<I>(mut prepare: impl FnMut() -> Vec<I>, mut op: impl FnMut(I)) -> f64 {
    let deadline = Instant::now() + BUDGET;
    let mut ns = 0u128;
    let mut ops = 0u64;
    loop {
        let batch = prepare();
        if batch.is_empty() {
            return 0.0;
        }
        ops += batch.len() as u64;
        let started = Instant::now();
        for input in batch {
            op(input);
        }
        ns += started.elapsed().as_nanos();
        if Instant::now() >= deadline {
            return ns as f64 / ops as f64;
        }
    }
}

/// Nanoseconds per call of an `op` that needs no per-call input.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    ns_per_op(|| vec![()], |()| op())
}

/// A news item the harvested nodes have not seen, shaped like the
/// engine's own (`<dataset>-news-<index>` strings).
fn probe_item(source: NodeId, now: u32) -> NewsItem {
    NewsItem::new(
        "survey-news-probe",
        "topic-probe",
        "https://news.example/survey/probe",
        source,
        now,
    )
}

fn first_news(out: Vec<whatsup_core::OutMessage>) -> Option<NewsMessage> {
    out.into_iter().find_map(|m| match m.payload {
        Payload::News(msg) => Some(msg),
        _ => None,
    })
}

/// Kernels of the node, similarity, profile, view, codec and mailbox
/// layers for the sharded-engine workloads.
pub fn sharded(h: &Harvest) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let nodes = &h.nodes;
    if nodes.len() < 4 {
        return m;
    }
    let now = h.cycles;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let mut stats = NodeStats::default();
    // The probe item borrows a real item's likes: who would have liked
    // item 0 likes the probe.
    let oracle = &h.oracle;
    let opinions = |node: NodeId, _item: u64| oracle.likes_index(node, 0);
    let peer = |i: usize| &nodes[(i + 1) % nodes.len()];

    // Similarity: each node's profile against every profile in its views.
    let states: Vec<_> = nodes.iter().map(WhatsUpNode::export_state).collect();
    let pairs: Vec<(&Profile, &Profile)> = nodes
        .iter()
        .zip(&states)
        .flat_map(|(node, state)| {
            state
                .wup_view
                .iter()
                .chain(&state.rps_view)
                .map(move |d| (node.profile(), &*d.payload))
        })
        .collect();
    m.insert(
        "similarity.wup_ns",
        ns_per_op(
            || pairs.clone(),
            |(a, b)| {
                black_box(wup_similarity(black_box(a), black_box(b)));
            },
        ),
    );
    let mut lens: Vec<f64> = nodes.iter().map(|n| n.profile().len() as f64).collect();
    lens.sort_by(f64::total_cmp);
    m.insert("similarity.profile_len_p50", lens[lens.len() / 2]);

    // Gossip: real requests (one node's `on_cycle` output) delivered to
    // another node, and the WUP response merged back.
    m.insert(
        "node.on_cycle_ns",
        ns_per_op(
            || nodes.to_vec(),
            |mut node| {
                black_box(node.on_cycle(now, &mut stats, &mut rng));
            },
        ),
    );
    let requests: Vec<(NodeId, Payload)> = nodes
        .iter()
        .flat_map(|node| {
            let id = node.id();
            node.clone()
                .on_cycle(now, &mut stats, &mut rng)
                .into_iter()
                .map(move |out| (id, out.payload))
        })
        .collect();
    let gossip_inputs = || -> Vec<(WhatsUpNode, NodeId, Payload)> {
        requests
            .iter()
            .enumerate()
            .map(|(i, (from, payload))| (peer(i).clone(), *from, payload.clone()))
            .filter(|(node, from, _)| node.id() != *from)
            .collect()
    };
    m.insert(
        "node.on_gossip_ns",
        ns_per_op(gossip_inputs, |(mut node, from, payload)| {
            black_box(node.on_message(from, payload, now, &opinions, &mut stats, &mut rng));
        }),
    );
    let responses: Vec<(usize, NodeId, Payload)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            let request = node
                .clone()
                .on_cycle(now, &mut stats, &mut rng)
                .into_iter()
                .find(|out| matches!(out.payload, Payload::WupRequest(_)))?;
            let responder = peer(i);
            let reply = responder
                .clone()
                .on_message(
                    node.id(),
                    request.payload,
                    now,
                    &opinions,
                    &mut stats,
                    &mut rng,
                )
                .pop()?;
            Some((i, responder.id(), reply.payload))
        })
        .collect();
    m.insert(
        "view.merge_ns",
        ns_per_op(
            || {
                responses
                    .iter()
                    .map(|(i, from, payload)| (nodes[*i].clone(), *from, payload.clone()))
                    .collect()
            },
            |(mut node, from, payload): (WhatsUpNode, NodeId, Payload)| {
                black_box(node.on_message(from, payload, now, &opinions, &mut stats, &mut rng));
            },
        ),
    );

    // News: the probe item published by one harvested node and forwarded
    // through two more, so its profile is aggregated like a hop-2 copy.
    let source = &nodes[0];
    let item = probe_item(source.id(), now);
    let mut msg = match first_news(source.clone().publish(&item, now, &mut stats, &mut rng)) {
        Some(msg) => msg,
        None => return m,
    };
    for hop in nodes.iter().skip(1).take(2) {
        let forwards = hop.clone().on_message(
            source.id(),
            Payload::News(msg.clone()),
            now,
            &opinions,
            &mut stats,
            &mut rng,
        );
        if let Some(next) = first_news(forwards) {
            msg = next;
        }
    }
    m.insert(
        "profile.aggregate_ns",
        ns_per_op(
            || nodes.iter().map(WhatsUpNode::profile).collect(),
            |user: &Profile| {
                black_box(msg.profile.aggregated_with(black_box(user)));
            },
        ),
    );
    m.insert(
        "node.on_news_ns",
        ns_per_op(
            || {
                nodes
                    .iter()
                    .skip(1)
                    .map(|node| (node.clone(), msg.clone()))
                    .collect()
            },
            |(mut node, msg): (WhatsUpNode, NewsMessage)| {
                black_box(node.on_message(
                    source.id(),
                    Payload::News(msg),
                    now,
                    &opinions,
                    &mut stats,
                    &mut rng,
                ));
            },
        ),
    );

    // Codec: the same payloads as single-message frames.
    let gossip_payloads: Vec<&Payload> = requests.iter().map(|(_, p)| p).collect();
    let news_payload = Payload::News(msg.clone());
    let resolve = |_: u64| Some(item.clone());
    let mut buf = BytesMut::new();
    let mut encode_ns = |payloads: &[&Payload]| {
        ns_per_op(
            || payloads.to_vec(),
            |payload| {
                buf.clear();
                codec::encode_into(&mut buf, 1, black_box(payload), resolve);
                black_box(buf.len());
            },
        )
    };
    m.insert("codec.gossip_encode_ns", encode_ns(&gossip_payloads));
    m.insert("codec.news_encode_ns", encode_ns(&[&news_payload]));
    let frame_of = |payload: &Payload| {
        let mut buf = BytesMut::new();
        codec::encode_into(&mut buf, 1, payload, resolve);
        buf.freeze()
    };
    let gossip_frames: Vec<bytes::Bytes> = gossip_payloads.iter().map(|p| frame_of(p)).collect();
    let news_frame = frame_of(&news_payload);
    let decode_ns = |frames: &[bytes::Bytes]| {
        ns_per_op(
            || frames.iter().collect(),
            |frame: &bytes::Bytes| {
                black_box(codec::decode(black_box(frame)).expect("own frame decodes"));
            },
        )
    };
    m.insert("codec.gossip_decode_ns", decode_ns(&gossip_frames));
    m.insert(
        "codec.news_decode_ns",
        decode_ns(std::slice::from_ref(&news_frame)),
    );
    m.insert(
        "codec.gossip_frame_bytes",
        gossip_frames.iter().map(|f| f.len() as f64).sum::<f64>() / gossip_frames.len() as f64,
    );
    m.insert("codec.news_frame_bytes", news_frame.len() as f64);

    // Mailbox: one delivery round's worth of mixed mail, pushed, drained
    // in receiver order and recycled; then the same mail as one bundle.
    let n_boxes = nodes.len() as u32;
    let mail: Vec<(NodeId, NodeId, Payload)> = (0..8)
        .flat_map(|_| requests.iter())
        .enumerate()
        .map(|(i, (from, payload))| {
            let payload = if i % 2 == 0 {
                payload.clone()
            } else {
                news_payload.clone()
            };
            (i as u32 % n_boxes, *from, payload)
        })
        .collect();
    let mut mailbox = Mailbox::new(0..n_boxes);
    let (mut push_ns, mut drain_ns, mut rounds) = (0u128, 0u128, 0u64);
    let deadline = Instant::now() + BUDGET;
    while Instant::now() < deadline {
        let round = mail.clone();
        let started = Instant::now();
        for (to, from, payload) in round {
            mailbox.push_parts(to, from, payload);
        }
        push_ns += started.elapsed().as_nanos();
        let started = Instant::now();
        let receivers = mailbox.take_receivers();
        for &id in &receivers {
            mailbox.drain_mail(id, |from, payload| {
                black_box((from, payload));
            });
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        drain_ns += started.elapsed().as_nanos();
        rounds += 1;
    }
    let messages = (rounds * mail.len() as u64) as f64;
    m.insert("mailbox.push_ns", push_ns as f64 / messages);
    m.insert("mailbox.drain_ns", drain_ns as f64 / messages);

    let items = BTreeMap::from([(item.id(), item.clone())]);
    let bundle = encode_shard_bundle(0, &mail, &items);
    let mb = bundle.len() as f64 / (1024.0 * 1024.0);
    let encode = ns_per_call(|| {
        black_box(encode_shard_bundle(0, black_box(&mail), &items));
    });
    m.insert("mailbox.bundle_encode_mb_s", mb / (encode * 1e-9));
    let decode = ns_per_call(|| {
        decode_shard_bundle_each(
            black_box(&bundle),
            &mut |item| {
                black_box(item);
            },
            |to, from, payload| {
                black_box((to, from, payload));
            },
        );
    });
    m.insert("mailbox.bundle_decode_mb_s", mb / (decode * 1e-9));
    m
}

/// Kernels of the anti-entropy engine's layers. Its engine is one closed
/// function, so there is no state to harvest: the replicas are built
/// through the public `Replica` API at the workload's population, items
/// and run length — one that saw the whole run, one that stopped halfway.
pub fn antientropy(dataset: &Dataset, cycles: u32, budget: usize) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let n = dataset.n_users();
    let replica_at = |until: u32| {
        let mut r = Replica::new(n);
        for cycle in 0..until {
            for node in 0..n as u32 {
                r.set_heartbeat(node, cycle);
            }
            let due = |index: u32| index * cycles / dataset.n_items().max(1) as u32 == cycle;
            for spec in dataset.items.iter().filter(|spec| due(spec.index)) {
                r.insert_news(spec.source, spec.index, cycle);
            }
        }
        r
    };
    let full = replica_at(cycles);
    let stale = replica_at(cycles / 2);
    let stale_digest = stale.digest(n);

    m.insert(
        "antientropy.digest_ns",
        ns_per_call(|| {
            black_box(black_box(&full).digest(n));
        }),
    );
    m.insert(
        "antientropy.pack_delta_ns",
        ns_per_call(|| {
            let index = DigestIndex::new(black_box(&stale_digest));
            black_box(pack_delta(&full, &index, budget));
        }),
    );
    // Everything the stale replica lacks, applied entry by entry.
    let (missing, _) = pack_delta(&full, &DigestIndex::new(&stale_digest), usize::MAX);
    m.insert(
        "antientropy.apply_ns",
        ns_per_op(
            || vec![stale.clone()],
            |mut replica| {
                for entry in &missing {
                    black_box(replica.apply(u32::MAX, entry));
                }
            },
        ) / missing.len().max(1) as f64,
    );

    let (datagram, _) = pack_delta(&full, &DigestIndex::new(&stale_digest), budget);
    m.insert(
        "codec.delta_rt_ns",
        ns_per_call(|| {
            let frame = codec::encode_delta(1, black_box(&datagram)).expect("packed to budget");
            black_box(codec::decode_delta(&frame).expect("own frame decodes"));
        }),
    );
    m.insert(
        "codec.digest_rt_ns",
        ns_per_call(|| {
            let frame =
                codec::encode_digest(1, black_box(&stale_digest)).expect("a digest fits one frame");
            black_box(codec::decode_digest(&frame).expect("own frame decodes"));
        }),
    );
    m
}
