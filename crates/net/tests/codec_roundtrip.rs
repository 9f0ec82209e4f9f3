//! Roundtrip property tests for every wire-format frame: gossip (all four
//! kinds), news, and the shard-exchange mailbox bundles.
//!
//! The simulator's determinism across shard counts leans on the codec
//! being lossless for everything node behavior depends on — profile
//! entries and scores bit-exact, descriptor order preserved, item ids
//! recomputed from identical content — so these properties are
//! load-bearing, not just hygiene.

use proptest::prelude::*;
use whatsup_core::message::wire;
use whatsup_core::{
    ColdStart, Descriptor, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry,
    SharedProfile,
};
use whatsup_net::codec::{
    bundle_view, decode, decode_bundle_entry, decode_delta, decode_digest, encode, encode_bundle,
    encode_delta, encode_digest, DecodeError, DeltaEntry, DeltaValue, DigestLine, NewsDecodeCache,
    ANTI_ENTROPY_HEADER_BYTES,
};

/// Builds a profile from generated `(item, timestamp, liked)` triples.
/// `from_entries` dedupes by item id, so the roundtrip comparison runs on
/// the canonical form.
fn profile(entries: &[(u64, u32, bool)]) -> Profile {
    Profile::from_entries(
        entries
            .iter()
            .map(|&(item, timestamp, liked)| ProfileEntry {
                item,
                timestamp,
                score: if liked { 1.0 } else { 0.0 },
            }),
    )
}

/// `(node, age, profile entries)` of one generated descriptor.
type DescriptorSpec = (u32, u32, Vec<(u64, u32, bool)>);

fn descriptors(specs: &[DescriptorSpec]) -> Vec<Descriptor<SharedProfile>> {
    specs
        .iter()
        .map(|(node, age, entries)| Descriptor {
            node: *node,
            age: *age,
            payload: SharedProfile::new(profile(entries)),
        })
        .collect()
}

fn news_item(title: u64, desc: u64, source: u32, created: u32) -> NewsItem {
    NewsItem::new(
        format!("title-{title}"),
        format!("description {desc}"),
        format!("https://news.example/{title}/{desc}"),
        source,
        created,
    )
}

fn gossip_payload(kind: u8, descs: Vec<Descriptor<SharedProfile>>) -> Payload {
    match kind {
        wire::RPS_REQUEST => Payload::RpsRequest(descs),
        wire::RPS_RESPONSE => Payload::RpsResponse(descs),
        wire::WUP_REQUEST => Payload::WupRequest(descs),
        _ => Payload::WupResponse(descs),
    }
}

fn news_payload(item: &NewsItem, entries: &[(u64, u32, bool)], dislikes: u8, hops: u16) -> Payload {
    Payload::News(NewsMessage {
        header: item.header(),
        profile: SharedProfile::new(profile(entries)),
        dislikes,
        hops,
    })
}

fn profile_strategy() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
    prop::collection::vec((0u64..1_000_000, 0u32..10_000, prop::bool::ANY), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every gossip kind roundtrips to an equal payload from the same
    /// sender.
    #[test]
    fn gossip_frames_roundtrip(
        from in 0u32..1_000_000,
        kind in 1u8..5,
        specs in prop::collection::vec(
            (0u32..100_000, 0u32..1_000, profile_strategy()),
            0..8,
        ),
    ) {
        let payload = gossip_payload(kind, descriptors(&specs));
        let frame = encode(from, &payload, |_| None).unwrap();
        prop_assert_eq!(frame[0], payload.wire_id(), "tag is the stable wire id");
        prop_assert_eq!(decode(&frame).unwrap(), (from, payload, None));
    }

    /// News frames roundtrip with the id recomputed from content.
    #[test]
    fn news_frames_roundtrip(
        from in 0u32..1_000_000,
        title in 0u64..1_000_000,
        desc in 0u64..1_000_000,
        source in 0u32..100_000,
        created in 0u32..10_000,
        entries in profile_strategy(),
        dislikes in 0u8..255,
        hops in 0u16..2_000,
    ) {
        let item = news_item(title, desc, source, created);
        let payload = news_payload(&item, &entries, dislikes, hops);
        let content = item.clone();
        let frame = encode(from, &payload, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        })
        .unwrap();
        prop_assert_eq!(frame[0], wire::NEWS);
        // The frame carries the full item; the payload's id is recomputed
        // from that content.
        prop_assert_eq!(decode(&frame).unwrap(), (from, payload, Some(item)));
    }

    /// Mailbox bundles roundtrip entry-exact: addressing, order, and every
    /// embedded message (news content included).
    #[test]
    fn bundle_frames_roundtrip(
        shard in 0u32..64,
        entry_specs in prop::collection::vec(
            (
                (0u32..100_000, 0u32..100_000),
                (0u64..1_000, 0u32..1_000, 0u32..500),
                profile_strategy(),
                (1u8..6, 0u8..255, 0u16..100),
            ),
            0..12,
        ),
    ) {
        let mut items: std::collections::HashMap<u64, NewsItem> = Default::default();
        let mut entries: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        for ((to, from), (title, source, created), prof, (kind, dislikes, hops)) in &entry_specs {
            let payload = if *kind == wire::NEWS {
                let item = news_item(*title, 1, *source, *created);
                items.insert(item.id(), item.clone());
                news_payload(&item, prof, *dislikes, *hops)
            } else {
                gossip_payload(*kind, descriptors(&[(*from, 3, prof.clone())]))
            };
            entries.push((*to, *from, payload));
        }
        let frame = encode_bundle(shard, &entries, |id| items.get(&id).cloned());
        prop_assert_eq!(frame[0], wire::MAILBOX_BUNDLE);
        prop_assert_eq!(decode(&frame), Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE)));
        let view = bundle_view(&frame).unwrap();
        prop_assert_eq!(view.from_shard(), shard);
        prop_assert_eq!(view.len(), entries.len());
        for (got, (to, from, payload)) in view.zip(entries) {
            let (got_to, inner) = got.unwrap();
            prop_assert_eq!(got_to, to);
            let (got_from, got_payload, _) = decode(inner).unwrap();
            prop_assert_eq!(got_from, from);
            prop_assert_eq!(got_payload, payload);
        }
    }

    /// The per-bundle news cache of `decode_bundle_entry` must be
    /// invisible: over bundles mixing every wire variant — drawn from small
    /// item/profile pools so fan-out-style repetition drives the cache hit
    /// paths — it yields exactly what a one-shot `decode` of each entry
    /// yields, registers every distinct news content (and nothing else),
    /// and the decoded entries re-encode to the original frame
    /// byte-for-byte.
    #[test]
    fn zero_copy_bundle_decode_is_byte_exact(
        shard in 0u32..64,
        item_pool in prop::collection::vec((0u64..1_000, 0u32..1_000, 0u32..500), 1..3),
        profile_pool in prop::collection::vec(profile_strategy(), 1..3),
        picks in prop::collection::vec(
            (
                (0u8..6, 0usize..8, 0usize..8),
                (0u32..100_000, 0u32..100_000),
                (0u8..255, 0u16..100),
            ),
            0..16,
        ),
    ) {
        let item_vec: Vec<NewsItem> = item_pool
            .iter()
            .enumerate()
            .map(|(i, &(title, source, created))| news_item(title, i as u64, source, created))
            .collect();
        let items: std::collections::HashMap<u64, NewsItem> =
            item_vec.iter().map(|i| (i.id(), i.clone())).collect();
        let mut entries: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        for ((kind, item_ix, prof_ix), (to, from), (dislikes, hops)) in &picks {
            let prof = &profile_pool[prof_ix % profile_pool.len()];
            // Tags 1–4 are the gossip kinds; 0 and 5 both map to news so
            // consecutive news entries (the cache's hit case) are common.
            let payload = if *kind == 0 || *kind == wire::NEWS {
                let item = &item_vec[item_ix % item_vec.len()];
                news_payload(item, prof, *dislikes, *hops)
            } else {
                gossip_payload(*kind, descriptors(&[(*from, 3, prof.clone())]))
            };
            entries.push((*to, *from, payload));
        }
        let frame = encode_bundle(shard, &entries, |id| items.get(&id).cloned());

        // Reference: a one-shot decode of each entry.
        let plain: Vec<(NodeId, NodeId, Payload)> = bundle_view(&frame)
            .unwrap()
            .map(|entry| {
                let (to, inner) = entry.unwrap();
                let (from, payload, _) = decode(inner).unwrap();
                (to, from, payload)
            })
            .collect();

        // Through the shared per-bundle news cache.
        let view = bundle_view(&frame).unwrap();
        prop_assert_eq!(view.from_shard(), shard);
        let mut cache = NewsDecodeCache::default();
        let mut streamed: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        let mut registered: Vec<NewsItem> = Vec::new();
        for entry in view {
            let (to, inner) = entry.unwrap();
            let (from, payload, fresh) = decode_bundle_entry(inner, &mut cache).unwrap();
            if let Some(item) = fresh {
                registered.push(item);
            }
            streamed.push((to, from, payload));
        }
        prop_assert_eq!(&streamed, &plain, "the cache must match one-shot decodes");
        prop_assert_eq!(&streamed, &entries, "decode must invert encode");

        // Every distinct news content surfaced as fresh at least once (so
        // the receiving shard can register it), every fresh item is a real
        // bundle item, and a cache hit never yields a stale header.
        let registered_ids: std::collections::BTreeSet<u64> =
            registered.iter().map(|i| i.id()).collect();
        let expected_ids: std::collections::BTreeSet<u64> = entries
            .iter()
            .filter_map(|(_, _, p)| match p {
                Payload::News(m) => Some(m.header.id),
                _ => None,
            })
            .collect();
        prop_assert_eq!(registered_ids, expected_ids);
        for item in &registered {
            prop_assert_eq!(Some(item), items.get(&item.id()).as_ref().copied());
        }

        // Byte-for-byte: re-encoding what the zero-copy path decoded
        // reproduces the original frame exactly.
        let reencoded = encode_bundle(shard, &streamed, |id| items.get(&id).cloned());
        prop_assert_eq!(&reencoded[..], &frame[..], "re-encode must be byte-identical");
    }

    /// Truncating any frame at any point is a decode error, never a panic
    /// or a silently short message.
    #[test]
    fn truncated_frames_never_decode(
        from in 0u32..1_000,
        specs in prop::collection::vec(
            (0u32..1_000, 0u32..100, profile_strategy()),
            1..4,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = gossip_payload(wire::WUP_REQUEST, descriptors(&specs));
        let single = encode(from, &payload, |_| None).unwrap();
        let entries = vec![(9u32, from, payload)];
        let bundle = encode_bundle(0, &entries, |_| None);
        let cut = ((single.len() as f64) * cut_fraction) as usize;
        prop_assert!(decode(&single[..cut]).is_err(), "cut at {} must fail", cut);
        let cut = ((bundle.len() as f64) * cut_fraction) as usize;
        let unbundled = bundle_view(&bundle[..cut]).and_then(|view| {
            view.map(|entry| decode(entry?.1)).collect::<Result<Vec<_>, _>>()
        });
        prop_assert!(unbundled.is_err(), "bundle cut at {} must fail", cut);
    }
}

/// Derives a [`DeltaValue`] from two generated numbers: `pick` chooses the
/// variant, `raw` the payload (tuples cap at four elements in the
/// strategy set, so the variant is folded into the scalars).
fn delta_value(pick: u8, raw: u64) -> DeltaValue {
    match pick % 3 {
        0 => DeltaValue::Heartbeat(raw as u32),
        1 => DeltaValue::ProfileDigest(raw),
        _ => DeltaValue::NewsKey {
            item: raw as u32,
            published_at: (raw >> 32) as u32,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Anti-entropy digests roundtrip line-for-line in order.
    #[test]
    fn digest_frames_roundtrip(
        from in 0u32..1_000_000,
        lines in prop::collection::vec(
            (0u32..100_000, 0u32..1_000, 0u64..1_000_000),
            0..32,
        ),
    ) {
        let lines: Vec<DigestLine> = lines
            .iter()
            .map(|&(node, incarnation, max_version)| DigestLine {
                node,
                incarnation,
                max_version,
            })
            .collect();
        let frame = encode_digest(from, &lines).unwrap();
        prop_assert_eq!(frame[0], wire::DIGEST);
        let (decoded_from, decoded) = decode_digest(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(decoded, lines);
    }

    /// Anti-entropy deltas roundtrip for every value kind, and the
    /// per-entry `wire_bytes` sizing adds up to the exact frame length —
    /// the invariant budget packing depends on.
    #[test]
    fn delta_frames_roundtrip_and_size_exactly(
        from in 0u32..1_000_000,
        raw_entries in prop::collection::vec(
            (0u32..100_000, 0u64..1_000_000, (0u8..6, 0u64..u64::MAX)),
            0..32,
        ),
    ) {
        let entries: Vec<DeltaEntry> = raw_entries
            .iter()
            .map(|&(node, version, (pick, raw))| DeltaEntry {
                node,
                incarnation: u32::from(pick),
                version,
                value: delta_value(pick, raw),
            })
            .collect();
        let frame = encode_delta(from, &entries).unwrap();
        prop_assert_eq!(frame[0], wire::DELTA);
        let sized: usize = ANTI_ENTROPY_HEADER_BYTES
            + entries.iter().map(DeltaEntry::wire_bytes).sum::<usize>();
        prop_assert_eq!(frame.len(), sized, "wire_bytes must sum to the frame length");
        let (decoded_from, decoded) = decode_delta(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(decoded, entries);
    }

    /// Truncated anti-entropy frames are decode errors, never panics.
    #[test]
    fn truncated_anti_entropy_frames_never_decode(
        from in 0u32..1_000,
        lines in prop::collection::vec(
            (0u32..1_000, 0u32..100, 0u64..1_000),
            1..8,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let digest_lines: Vec<DigestLine> = lines
            .iter()
            .map(|&(node, incarnation, max_version)| DigestLine {
                node,
                incarnation,
                max_version,
            })
            .collect();
        let entries: Vec<DeltaEntry> = lines
            .iter()
            .map(|&(node, incarnation, version)| DeltaEntry {
                node,
                incarnation,
                version,
                value: DeltaValue::NewsKey {
                    item: node,
                    published_at: incarnation,
                },
            })
            .collect();
        let digest_frame = encode_digest(from, &digest_lines).unwrap();
        let delta_frame = encode_delta(from, &entries).unwrap();
        let digest_cut = ((digest_frame.len() as f64) * cut_fraction) as usize;
        if digest_cut < digest_frame.len() {
            prop_assert!(decode_digest(&digest_frame[..digest_cut]).is_err());
        }
        let delta_cut = ((delta_frame.len() as f64) * cut_fraction) as usize;
        if delta_cut < delta_frame.len() {
            prop_assert!(decode_delta(&delta_frame[..delta_cut]).is_err());
        }
    }
}

/// Every layout byte for byte: fixed inputs encode to the frames the codec
/// wrote before its layouts were declared with `wire_codec!`. A layout
/// change that both directions make alike passes every roundtrip property;
/// it cannot pass this.
#[test]
fn frames_match_their_recorded_bytes() {
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let profile = |entries: &[(u64, u32, f32)]| {
        let entries = entries
            .iter()
            .map(|&(item, timestamp, score)| ProfileEntry {
                item,
                timestamp,
                score,
            });
        SharedProfile::new(Profile::from_entries(entries))
    };
    let descs = vec![
        Descriptor {
            node: 3,
            age: 1,
            payload: profile(&[(10, 7, 1.0), (0x0102_0304_0506_0708, 9, 0.25)]),
        },
        Descriptor {
            node: 0xdead,
            age: 0,
            payload: profile(&[]),
        },
    ];
    let item = NewsItem::new("Title", "déjà", "https://x/1", 17, 42);
    let resolve = |id: u64| (id == item.id()).then(|| item.clone());
    let news = Payload::News(NewsMessage {
        header: item.header(),
        profile: profile(&[(5, 3, 0.5)]),
        dislikes: 2,
        hops: 513,
    });
    let views = "0200030000000100000002000a00000000000000070000000000803f\
                 0807060504030201090000000000803eadde0000000000000000";
    for kind in 1u8..5 {
        let frame = encode(0x0a0b_0c0d, &gossip_payload(kind, descs.clone()), resolve).unwrap();
        assert_eq!(
            hex(&frame),
            format!("0{kind}0d0c0b0a{views}"),
            "gossip kind {kind}"
        );
    }
    let news_body = "110000002a00000005005469746c65060064c3a96ac3a00b0068747470733a2f2f782f31\
                     02010201000500000000000000030000000000003f";
    assert_eq!(
        hex(&encode(9, &news, resolve).unwrap()),
        format!("0509000000{news_body}")
    );
    let entries = [
        (4, 9, news.clone()),
        (5, 3, Payload::WupResponse(descs[..1].to_vec())),
    ];
    assert_eq!(
        hex(&encode_bundle(2, &entries, resolve)),
        format!(
            "06020000000200000004000000\
             3e0000000509000000{news_body}05000000310000000403000000\
             0100030000000100000002000a00000000000000070000000000803f\
             0807060504030201090000000000803e"
        )
    );
    let lines = [
        DigestLine {
            node: 1,
            incarnation: 2,
            max_version: 3,
        },
        DigestLine {
            node: 0x1000,
            incarnation: 0,
            max_version: u64::MAX,
        },
    ];
    assert_eq!(
        hex(&encode_digest(6, &lines).unwrap()),
        "070600000002000000010000000200000003000000000000000010000000000000ffffffffffffffff"
    );
    let deltas = [
        DeltaEntry {
            node: 1,
            incarnation: 2,
            version: 3,
            value: DeltaValue::Heartbeat(4),
        },
        DeltaEntry {
            node: 5,
            incarnation: 6,
            version: 7,
            value: DeltaValue::ProfileDigest(0x1122_3344_5566_7788),
        },
        DeltaEntry {
            node: 8,
            incarnation: 9,
            version: 10,
            value: DeltaValue::NewsKey {
                item: 11,
                published_at: 12,
            },
        },
    ];
    assert_eq!(
        hex(&encode_delta(6, &deltas).unwrap()),
        "08060000000300000001000000020000000300000000000000000400000005000000060000000700000000\
         00000001887766554433221108000000090000000a00000000000000020b0000000c000000"
    );
    let snapshot = ColdStart {
        rps_view: descs.clone(),
        wup_view: descs[1..].to_vec(),
    };
    assert_eq!(
        hex(&whatsup_net::wire::encode(&snapshot)),
        format!("{views}0100adde0000000000000000")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The snapshot a node discloses, after random batches of first
    /// receptions, one disclosure a cycle and the window purge, encodes to
    /// the bytes of the flat profile of the same entries, and decodes to an
    /// equal profile. The node's index numbers its items with their
    /// creation times, so its snapshots pack. In half the cases a peer also
    /// sends one item stamped at another time than its creation: every
    /// snapshot holding that entry stays flat, and encodes the same.
    #[test]
    fn a_disclosed_snapshot_encodes_as_its_flat_profile(
        batches in prop::collection::vec(prop::collection::vec(0usize..400, 0..12), 1..30),
        off in (prop::bool::ANY, 0u32..30, 1u32..20),
    ) {
        use rand::SeedableRng;
        use std::sync::Arc;
        use whatsup_core::{ItemHeader, ItemIndexMap, NodeStats, Params, WhatsUpNode};
        use whatsup_net::wire;

        // Item 400 is the one a peer sends stamped `late` cycles late.
        let items: Vec<NewsItem> = (0..401).map(|k| news_item(k, 0, 9, k as u32 % 40)).collect();
        let index: ItemIndexMap = (items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let (off, (at, late)) = (items[400].header(), (off.0.then_some(off.1), off.2));
        let mut node = WhatsUpNode::new(0, Params::whatsup(2), Arc::new(index));
        node.seed_views([], [(1, Profile::new())]);
        let likes = |_: NodeId, item: u64| !item.is_multiple_of(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut stats = NodeStats::default();
        for (cycle, batch) in (0u32..).zip(&batches) {
            let stamped = (at == Some(cycle)).then_some(ItemHeader {
                created_at: off.created_at + late,
                ..off
            });
            for header in batch.iter().map(|&k| items[k].header()).chain(stamped) {
                let news = NewsMessage {
                    header,
                    profile: SharedProfile::default(),
                    dislikes: 0,
                    hops: 0,
                };
                node.on_message(2, Payload::News(news), cycle, &likes, &mut stats, &mut rng);
            }
            let out = node.on_cycle(cycle + 1, &mut stats, &mut rng);
            let own = out.iter().find_map(|m| match &m.payload {
                Payload::WupRequest(descriptors) => descriptors.last(),
                _ => None,
            });
            let snapshot = &own.expect("a WUP request with the own descriptor").payload;
            let flat = Profile::from_entries(node.profile().entries());
            let bytes = wire::encode(&**snapshot);
            prop_assert_eq!(&bytes, &wire::encode(&flat));
            prop_assert_eq!(&wire::decode::<Profile>(&bytes).unwrap(), &flat);
            let (owned, planes) = (snapshot.heap_bytes(), snapshot.plane_bytes());
            let off_entry = flat.entries().find(|e| e.item == off.id);
            if off_entry.is_some_and(|e| e.timestamp != off.created_at) {
                prop_assert!(owned >= 16 * flat.len() + planes, "packed: {:?}", snapshot);
            } else if planes > 0 {
                prop_assert_eq!(owned, planes, "not packed: {:?}", snapshot);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A node whose views hold its peers' packed snapshots — planes over
    /// an index of content-hash ids, numbered in publication order, not
    /// in id order — exports a state whose views and profile encode and
    /// decode to flat profiles that restore a node with equal views, and
    /// every view profile scores the same against the profile either way.
    #[test]
    fn a_node_state_with_packed_views_roundtrips(
        receptions in prop::collection::vec((0usize..4, 0u64..60), 20..120),
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;
        use std::sync::Arc;
        use whatsup_core::similarity::{Metric, Prepared};
        use whatsup_core::{ItemIndexMap, NodeState, NodeStats, Params, WhatsUpNode};
        use whatsup_net::wire;

        let items: Vec<NewsItem> = (0..60).map(|k| news_item(k, k, 9, k as u32 / 10)).collect();
        let index: ItemIndexMap = (items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let index = Arc::new(index);
        let params = Params::whatsup(2);
        let mut nodes: Vec<WhatsUpNode> = (0..4u32)
            .map(|id| {
                let mut node = WhatsUpNode::new(id, params.clone(), Arc::clone(&index));
                let peers = (0..4).filter(|&p| p != id).map(|p| (p, Profile::new()));
                node.seed_views(peers.clone(), peers);
                node
            })
            .collect();
        let likes = |node: NodeId, item: u64| (item ^ u64::from(node)).is_multiple_of(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut stats = NodeStats::default();
        for (cycle, chunk) in (0u32..).zip(receptions.chunks(10)) {
            for &(to, k) in chunk {
                let news = NewsMessage {
                    header: items[k as usize].header(),
                    profile: SharedProfile::default(),
                    dislikes: 0,
                    hops: 0,
                };
                nodes[to].on_message(9, Payload::News(news), cycle, &likes, &mut stats, &mut rng);
            }
            // Every request is answered, and every answer merged.
            for from in 0..4u32 {
                for request in nodes[from as usize].on_cycle(cycle, &mut stats, &mut rng) {
                    let to = request.to as usize;
                    let replies = nodes[to].on_message(from, request.payload, cycle, &likes, &mut stats, &mut rng);
                    for reply in replies {
                        nodes[from as usize].on_message(to as u32, reply.payload, cycle, &likes, &mut stats, &mut rng);
                    }
                }
            }
        }
        let mut packed_views = 0;
        for node in &nodes {
            let state = node.export_state();
            let views = ColdStart { rps_view: state.rps_view.clone(), wup_view: state.wup_view.clone() };
            let profiles = views.rps_view.iter().chain(&views.wup_view).map(|d| &d.payload);
            for p in profiles.clone().filter(|p| !p.is_empty()) {
                prop_assert_eq!(p.heap_bytes(), p.plane_bytes(), "not packed: {:?}", p);
                packed_views += 1;
            }
            let views: ColdStart = wire::decode(&wire::encode(&views)).unwrap();
            let own: Profile = wire::decode(&wire::encode(node.profile())).unwrap();
            let decoded = NodeState {
                profile: own.entries().collect(),
                rps_view: views.rps_view,
                wup_view: views.wup_view,
                seen: state.seen.clone(),
            };
            prop_assert_eq!(&decoded, &state);
            let restored = WhatsUpNode::from_state(node.id(), params.clone(), Arc::clone(&index), decoded.clone());
            prop_assert_eq!(&restored.export_state(), &state);
            let flat = decoded.rps_view.iter().chain(&decoded.wup_view).map(|d| &d.payload);
            for (packed, flat) in profiles.zip(flat) {
                for metric in [Metric::Wup, Metric::Cosine] {
                    let score = |p: &Profile| Prepared::new(node.profile(), &index).score(metric, p);
                    prop_assert_eq!(score(packed).to_bits(), score(flat).to_bits());
                    prop_assert_eq!(metric.score(node.profile(), packed).to_bits(), metric.score(&own, flat).to_bits());
                }
            }
        }
        prop_assert!(packed_views > 0, "no view holds a rated snapshot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The `f_like` siblings of a liked reception share one item-profile
    /// allocation — packed, folded in slot space from the liker's planes.
    /// A bundle of them is byte-identical to the bundle of the same
    /// entries with every profile a flat copy in an allocation of its own,
    /// and it decodes to equal payloads.
    #[test]
    fn folded_copies_encode_as_their_flat_profiles(
        ratings in prop::collection::vec(0usize..80, 1..40),
        receptions in prop::collection::vec((0usize..80, 0usize..3), 1..12),
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;
        use std::sync::Arc;
        use whatsup_core::{ItemIndexMap, NodeStats, Params, WhatsUpNode};
        use whatsup_net::codec::encode_bundle_into;

        let items: Vec<NewsItem> = (0..80).map(|k| news_item(k, 7, 3, k as u32 / 8)).collect();
        let index: ItemIndexMap = (items.iter().zip(0..))
            .map(|(item, slot)| (item.id(), slot, item.created_at))
            .collect();
        let known: std::collections::HashMap<u64, NewsItem> =
            items.iter().map(|item| (item.id(), item.clone())).collect();
        let index = Arc::new(index);
        let mut nodes: Vec<WhatsUpNode> = (0..3u32)
            .map(|id| {
                let mut node = WhatsUpNode::new(id, Params::whatsup(3), Arc::clone(&index));
                let peers = (10..16).map(|p| (p, Profile::new()));
                node.seed_views(peers.clone(), peers);
                node
            })
            .collect();
        let likes = |node: NodeId, item: u64| !(item ^ u64::from(node)).is_multiple_of(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut stats = NodeStats::default();
        let news = |k: usize, profile: SharedProfile| NewsMessage {
            header: items[k].header(),
            profile,
            dislikes: 0,
            hops: 0,
        };
        for (i, &k) in ratings.iter().enumerate() {
            let node = &mut nodes[i % 3];
            node.on_message(9, Payload::News(news(k, SharedProfile::default())), 10, &likes, &mut stats, &mut rng);
        }
        // Each item reaches a node with an empty profile, and its first
        // forward the next node: a fold from nothing, then one of weights.
        let mut entries: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        for &(k, at) in &receptions {
            let mut payload = Payload::News(news(k, SharedProfile::default()));
            for hop in [at, (at + 1) % 3] {
                let out = nodes[hop].on_message(9, payload, 10, &likes, &mut stats, &mut rng);
                let Some(first) = out.first() else { break };
                payload = first.payload.clone();
                entries.extend(out.into_iter().map(|m| (m.to, nodes[hop].id(), m.payload)));
            }
        }
        let shared = entries.windows(2).any(|w| match (&w[0].2, &w[1].2) {
            (Payload::News(a), Payload::News(b)) => SharedProfile::ptr_eq(&a.profile, &b.profile),
            _ => false,
        });
        let flat: Vec<(NodeId, NodeId, Payload)> = entries
            .iter()
            .map(|(to, from, payload)| {
                let Payload::News(msg) = payload else { unreachable!("news only") };
                let copy = Profile::from_entries(msg.profile.entries());
                let msg = NewsMessage { profile: SharedProfile::new(copy), ..msg.clone() };
                (*to, *from, Payload::News(msg))
            })
            .collect();
        let mut frame = bytes::BytesMut::new();
        encode_bundle_into(&mut frame, 1, &entries, |id| known.get(&id));
        prop_assert_eq!(&frame[..], &encode_bundle(1, &flat, |id| known.get(&id).cloned())[..]);
        for (got, (to, from, payload)) in bundle_view(&frame).unwrap().zip(flat) {
            let (got_to, inner) = got.unwrap();
            let (got_from, got_payload, _) = decode(inner).unwrap();
            prop_assert_eq!((got_to, got_from, got_payload), (to, from, payload));
        }
        prop_assert!(entries.is_empty() || shared, "no reception was liked");
    }
}
