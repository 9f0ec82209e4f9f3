//! Property tests over the WhatsUp node: arbitrary message storms must
//! never panic, never leak self-references into views, and must maintain
//! the SIR and windowing invariants of Algorithms 1–2.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whatsup_core::prelude::*;

/// Deterministic opinions: node n likes item i iff (n + i) % 3 != 0.
struct Mix;
impl Opinions for Mix {
    fn likes(&self, node: NodeId, item: ItemId) -> bool {
        !(node as u64 + item).is_multiple_of(3)
    }
}

/// A run's item index over the ids these tests rate, `0..60`.
fn items() -> std::sync::Arc<ItemIndexMap> {
    std::sync::Arc::new((0..60).zip(0..).collect())
}

fn profile_of(items: &[(u64, bool)]) -> Profile {
    Profile::from_entries(items.iter().map(|&(i, liked)| ProfileEntry {
        item: i,
        timestamp: 0,
        score: if liked { 1.0 } else { 0.0 },
    }))
}

/// An arbitrary inbound payload built from fuzz input.
fn payload_from(kind: u8, descs: Vec<(u32, u64, bool)>, item: u64, dislikes: u8) -> Payload {
    let descriptors: Vec<Descriptor<SharedProfile>> = descs
        .into_iter()
        .map(|(n, i, liked)| Descriptor::fresh(n, SharedProfile::new(profile_of(&[(i, liked)]))))
        .collect();
    match kind % 5 {
        0 => Payload::RpsRequest(descriptors),
        1 => Payload::RpsResponse(descriptors),
        2 => Payload::WupRequest(descriptors),
        3 => Payload::WupResponse(descriptors),
        _ => Payload::News(NewsMessage {
            header: ItemHeader {
                id: item,
                created_at: 0,
            },
            profile: SharedProfile::new(profile_of(&[(item.wrapping_add(1), true)])),
            dislikes,
            hops: 0,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn message_storms_never_violate_invariants(
        seed in 0u64..500,
        msgs in prop::collection::vec(
            (0u8..5, prop::collection::vec((0u32..20, 0u64..50, prop::bool::ANY), 0..6),
             0u64..50, 0u8..10),
            1..60
        ),
    ) {
        let params = Params::whatsup(3);
        let window = params.profile_window;
        let mut node = WhatsUpNode::new(7, params, items());
        node.seed_views(
            (0..5).map(|i| (i, Profile::new())),
            (0..3).map(|i| (i, Profile::new())),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut stats = NodeStats::default();
        let mut now: Timestamp = 0;
        for (i, (kind, descs, item, dislikes)) in msgs.into_iter().enumerate() {
            if i % 7 == 0 {
                now += 1;
                let _ = node.on_cycle(now, &mut stats, &mut rng);
            }
            let out = node.on_message(
                (i % 19) as NodeId,
                payload_from(kind, descs, item, dislikes),
                now,
                &Mix,
                &mut stats,
                &mut rng,
            );
            // No message is ever addressed to the node itself.
            prop_assert!(out.iter().all(|m| m.to != 7));
            // The dislike path never extends a counter beyond the TTL; the
            // like path forwards the incoming counter unchanged (it may be
            // above the TTL if a remote peer crafted it — that's inherited,
            // not produced).
            for m in &out {
                if let Payload::News(nm) = &m.payload {
                    prop_assert!(nm.dislikes <= dislikes.max(4).saturating_add(0));
                    prop_assert!(nm.dislikes <= dislikes.saturating_add(1));
                }
            }
            // Views never contain the node itself.
            prop_assert!(!node.wup_neighbor_ids().contains(&7));
            prop_assert!(!node.rps_neighbor_ids().contains(&7));
            // The profile respects the window (entries stamped within it).
            let cutoff = now.saturating_sub(window);
            // Ratings use the *item* timestamp (0 in this storm), so after
            // `window` cycles the profile must have been purged of them.
            if cutoff > 0 {
                prop_assert!(node
                    .profile()
                    .entries()
                    .all(|e| e.timestamp >= cutoff || e.timestamp == 0 && cutoff == 0));
            }
        }
    }

    #[test]
    fn duplicate_news_never_forwards_twice(
        seed in 0u64..500,
        item in 0u64..100,
        copies in 2usize..6,
    ) {
        let mut node = WhatsUpNode::new(1, Params::whatsup(2), items());
        node.seed_views(
            (2..8).map(|i| (i, Profile::new())),
            (2..6).map(|i| (i, Profile::new())),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut stats = NodeStats::default();
        let mut forwarded = 0usize;
        for c in 0..copies {
            let out = node.on_message(
                9,
                Payload::News(NewsMessage {
                    header: ItemHeader { id: item, created_at: 0 },
                    profile: SharedProfile::new(Profile::new()),
                    dislikes: 0,
                    hops: c as u16,
                }),
                0,
                &Mix,
                &mut stats,
                &mut rng,
            );
            if !out.is_empty() {
                forwarded += 1;
            }
        }
        prop_assert!(forwarded <= 1, "SIR: only the first copy may forward");
        prop_assert_eq!(stats.news_received, 1);
        prop_assert_eq!(stats.news_duplicates as usize, copies - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// BEEP orientation scores the RPS view through the prepared
    /// one-vs-many scorer; the targets must be exactly those a ranking by
    /// the pairwise `Metric::score` picks, for the single-target call and
    /// the widened one, under every metric.
    #[test]
    fn orientation_picks_what_pairwise_ranking_picks(
        salt in 0u64..u64::MAX,
        item_profile in prop::collection::vec((0u64..60, 0u32..5), 0..60),
        view in prop::collection::vec(
            prop::collection::vec((0u64..60, prop::bool::ANY), 0..40),
            1..30,
        ),
    ) {
        use whatsup_core::beep::select_most_similar_k;
        use whatsup_core::similarity::Metric;
        // Real-valued scores, as an item profile aggregated over several
        // likers carries.
        let item_profile = Profile::from_entries(item_profile.iter().map(|&(item, q)| {
            ProfileEntry { item, timestamp: 0, score: q as f32 / 4.0 }
        }));
        let mut rps = View::new(view.len());
        for (node, entries) in view.iter().enumerate() {
            rps.insert(Descriptor::fresh(
                node as NodeId,
                SharedProfile::new(profile_of(entries)),
            ));
        }
        // The salt-keyed tie order, read off the function itself: against
        // an empty item profile every candidate scores 0.
        let items = items();
        let tie_order = select_most_similar_k(&Profile::new(), &items, &rps, Metric::Wup, rps.len(), salt);
        prop_assert_eq!(tie_order.len(), rps.len());
        for metric in [Metric::Wup, Metric::Cosine] {
            let mut ranked = tie_order.clone();
            // Stable: equal scores keep the tie order.
            ranked.sort_by(|&a, &b| {
                let score = |n| metric.score(&item_profile, &rps.get(n).unwrap().payload);
                score(b).partial_cmp(&score(a)).unwrap()
            });
            for k in [1, 3] {
                let picked = select_most_similar_k(&item_profile, &items, &rps, metric, k, salt);
                let expected = &ranked[..k.min(ranked.len())];
                prop_assert_eq!(&picked[..], expected, "{} k={}", metric.label(), k);
            }
        }
    }
}

#[test]
fn window_purge_enables_reintegration() {
    // §II-E: a user inactive for a full window has an empty profile and is
    // treated as new — and can still receive and rate items afterwards.
    let mut node = WhatsUpNode::new(0, Params::whatsup(2), items());
    node.seed_views(
        (1..6).map(|i| (i, Profile::new())),
        (1..4).map(|i| (i, Profile::new())),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut stats = NodeStats::default();
    // Rate something at t=0.
    let _ = node.on_message(
        1,
        Payload::News(NewsMessage {
            header: ItemHeader {
                id: 10,
                created_at: 0,
            },
            profile: SharedProfile::new(Profile::new()),
            dislikes: 0,
            hops: 0,
        }),
        0,
        &Mix,
        &mut stats,
        &mut rng,
    );
    assert!(!node.profile().is_empty());
    // A long quiet period: the window purges everything.
    for t in 1..20 {
        let _ = node.on_cycle(t, &mut stats, &mut rng);
    }
    assert!(
        node.profile().is_empty(),
        "inactive user must look like a new node"
    );
    // New item arrives: the node rates and (here) likes it — reintegrated.
    let out = node.on_message(
        2,
        Payload::News(NewsMessage {
            header: ItemHeader {
                id: 20,
                created_at: 20,
            },
            profile: SharedProfile::new(Profile::new()),
            dislikes: 0,
            hops: 0,
        }),
        20,
        &Mix,
        &mut stats,
        &mut rng,
    );
    assert!(node.profile().contains(20));
    assert!(
        !out.is_empty(),
        "likes keep propagating after reintegration"
    );
}

#[test]
fn item_profile_windowing_applies_in_flight() {
    // Algorithm 1 lines 8–10: stale entries are purged from the *item*
    // profile before forwarding.
    let mut node = WhatsUpNode::new(0, Params::whatsup(1), items());
    node.seed_views([], [(1, Profile::new())]);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut stats = NodeStats::default();
    let mut stale_profile = Profile::new();
    stale_profile.upsert(ProfileEntry {
        item: 99,
        timestamp: 0,
        score: 1.0,
    });
    stale_profile.upsert(ProfileEntry {
        item: 98,
        timestamp: 40,
        score: 1.0,
    });
    let out = node.on_message(
        5,
        Payload::News(NewsMessage {
            header: ItemHeader {
                id: 4,
                created_at: 40,
            }, // node 0 likes 4
            profile: SharedProfile::new(stale_profile),
            dislikes: 0,
            hops: 0,
        }),
        40,
        &Mix,
        &mut stats,
        &mut rng,
    );
    let Payload::News(nm) = &out[0].payload else {
        panic!("expected news")
    };
    assert!(
        !nm.profile.contains(99),
        "stale entry must be purged in flight"
    );
    assert!(nm.profile.contains(98), "fresh entry survives");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A WUP merge scores its candidates through the prepared scorer —
    /// counting bit planes where both profiles are binary, walking an
    /// index or the pair where one is not — and keeps its survivors by
    /// selection. What it leaves in the view, *and in which order*, must
    /// be what the clustering layer leaves when every candidate is scored
    /// by the pairwise `Metric::score`: for a request and a response,
    /// under every metric, with and without obfuscation (which changes
    /// what the node discloses, never what it ranks by).
    #[test]
    fn wup_merge_keeps_what_pairwise_ranking_keeps(
        own in prop::collection::vec((0u64..60, prop::bool::ANY), 0..40),
        descriptors in prop::collection::vec(
            (0u32..40, 0u32..3, 0u32..4,
             prop::collection::vec((0u64..60, 0u32..5), 0..40)),
            0..90,
        ),
        obfuscated in prop::bool::ANY,
        request in prop::bool::ANY,
    ) {
        use whatsup_core::similarity::Metric;
        use whatsup_gossip::{Clustering, ClusteringConfig};
        const ME: NodeId = 7;
        // One snapshot in four is real-valued (what only a foreign peer
        // sends); tied scores and equal ages are common by construction.
        let descriptors: Vec<Descriptor<SharedProfile>> = descriptors
            .iter()
            .map(|(node, age, kind, entries)| Descriptor {
                node: *node,
                age: *age,
                payload: SharedProfile::new(Profile::from_entries(entries.iter().map(
                    |&(item, q)| ProfileEntry {
                        item,
                        timestamp: 0,
                        score: if *kind == 0 { q as f32 / 4.0 } else { (q % 2) as f32 },
                    },
                ))),
            })
            .collect();
        let (views, received) = descriptors.split_at(descriptors.len() * 2 / 3);
        let (wup_view, rps_view) = views.split_at(views.len() / 2);
        let items = items();
        for metric in [Metric::Wup, Metric::Cosine] {
            let params = Params {
                metric,
                obfuscation_epsilon: if obfuscated { 0.3 } else { 0.0 },
                ..Params::whatsup(4)
            };
            let mut seeded = WhatsUpNode::new(ME, params.clone(), std::sync::Arc::clone(&items));
            seeded.seed_views_arcs(
                rps_view.iter().map(|d| (d.node, d.payload.clone())),
                wup_view.iter().map(|d| (d.node, d.payload.clone())),
            );
            let mut state = seeded.export_state();
            state.profile = profile_of(&own).entries().collect();
            let items = std::sync::Arc::clone(&items);
            let mut node = WhatsUpNode::from_state(ME, params.clone(), items, state.clone());

            let mut expected = Clustering::new(ME, ClusteringConfig { view_size: params.wup_view_size });
            expected.seed(state.wup_view.clone());
            let own_profile = profile_of(&own);
            expected.on_response(
                received.to_vec(),
                &state.rps_view,
                &SharedProfile::new(Profile::new()),
                &|_: &SharedProfile, cand: &SharedProfile| metric.score(&own_profile, cand),
            );

            let payload = if request {
                Payload::WupRequest(received.to_vec())
            } else {
                Payload::WupResponse(received.to_vec())
            };
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let _ = node.on_message(3, payload, 0, &Mix, &mut NodeStats::default(), &mut rng);
            prop_assert_eq!(
                &node.export_state().wup_view[..],
                expected.view().entries(),
                "{} obfuscated={} request={}", metric.label(), obfuscated, request
            );
        }
    }
}
