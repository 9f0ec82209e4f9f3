//! Failure-injection integration tests: the paper's robustness story
//! (§V-E) plus degraded-mode behaviors the system must survive.

use std::sync::Arc;
use whatsup::prelude::*;

fn survey(scale: f64, seed: u64) -> Dataset {
    whatsup::datasets::survey::generate(&SurveyConfig::paper().scaled(scale), seed)
}

fn cfg() -> SimConfig {
    SimConfig {
        cycles: 40,
        publish_from: 3,
        measure_from: 14,
        ..Default::default()
    }
}

/// `protocol` on `d` for `cfg`'s run, under constant message loss `p`.
fn run(d: &Dataset, protocol: Protocol, cfg: SimConfig, p: f64) -> SimReport {
    Runner::new(d, protocol)
        .config(cfg)
        .scenario(Scenario::default().with_environment(Environment {
            loss: LossModel::Constant { p },
            churn: ChurnModel::None,
        }))
        .run()
}

#[test]
fn graceful_degradation_under_increasing_loss() {
    // Recall must degrade monotonically-ish (within noise) and never
    // cliff-drop before 20% at fanout 6 — Table VI's core claim.
    let d = survey(0.2, 31);
    let mut recalls = Vec::new();
    for loss in [0.0, 0.05, 0.2, 0.5] {
        let r = run(&d, Protocol::WhatsUp { f_like: 6 }, cfg(), loss);
        recalls.push((loss, r.scores().recall));
    }
    assert!(
        recalls[2].1 > 0.8 * recalls[0].1,
        "20% loss must be nearly free at fanout 6: {recalls:?}"
    );
    assert!(
        recalls[3].1 < recalls[0].1,
        "50% loss must cost something: {recalls:?}"
    );
}

#[test]
fn extreme_loss_starves_but_never_panics() {
    let d = survey(0.12, 32);
    let r = run(&d, Protocol::WhatsUp { f_like: 4 }, cfg(), 0.95);
    let s = r.scores();
    assert!(
        s.recall < 0.4,
        "95% loss cannot sustain dissemination: {s:?}"
    );
}

#[test]
fn zero_fanout_views_still_terminate() {
    // Minimal fanout (1) with a tiny view: the epidemic barely moves but
    // the simulation must terminate and produce consistent records.
    let d = survey(0.12, 33);
    let r = run(&d, Protocol::WhatsUp { f_like: 1 }, cfg(), 0.0);
    for item in &r.items {
        assert!(item.hits <= item.reached);
        assert!((item.reached as usize) < d.n_users());
    }
}

#[test]
fn dense_publication_burst_is_handled() {
    // All items published in a 3-cycle burst: windowing and dedup must cope.
    let d = survey(0.12, 34);
    let c = SimConfig {
        cycles: 30,
        publish_from: 10,
        measure_from: 10,
        ..Default::default()
    };
    // publish_from..cycles is the span; shrink it by scheduling via a short
    // run instead: publish over cycles 10..13.
    let c2 = SimConfig {
        cycles: 13,
        publish_from: 10,
        measure_from: 10,
        ..c
    };
    let r = run(&d, Protocol::WhatsUp { f_like: 6 }, c2, 0.0);
    assert!(r.measured_items() == d.n_items());
    assert!(r.scores().recall > 0.0);
}

#[test]
fn every_protocol_survives_every_dataset() {
    // Cross-product smoke: no engine may panic on any workload it supports.
    let datasets = whatsup::datasets::paper_workloads(0.08, 35);
    let quick = SimConfig {
        cycles: 16,
        publish_from: 2,
        measure_from: 6,
        ..Default::default()
    };
    for d in &datasets {
        for p in [
            Protocol::WhatsUp { f_like: 4 },
            Protocol::WhatsUpCos { f_like: 4 },
            Protocol::CfWup { k: 4 },
            Protocol::CfCos { k: 4 },
            Protocol::Gossip { fanout: 4 },
            Protocol::CPubSub,
            Protocol::CWhatsUp { f_like: 4 },
            Protocol::NoAmplification { fanout: 4 },
            Protocol::NoOrientation { f_like: 4 },
        ] {
            let r = run(d, p, quick.clone(), 0.0);
            assert!(
                r.measured_items() > 0,
                "{} on {} produced no measured items",
                p.label(),
                d.name
            );
        }
        if d.social.is_some() {
            let r = run(d, Protocol::Cascade, quick.clone(), 0.0);
            assert!(r.measured_items() > 0);
        }
    }
}

/// One datagram must not be able to kill a peer. Gossip and news frames
/// whose profiles carry a `NaN` score on an item the receiver has rated
/// used to decode, reach the similarity ranking (`partial_cmp(..).expect`
/// in the WUP merge and in BEEP orientation) and panic; the codec now
/// rejects the score, so the frame is dropped like any other corrupt input
/// — at a `Peer`, and on the bare decode → `on_message` path.
#[test]
fn nan_scores_on_the_wire_are_dropped_not_fatal() {
    use rand::SeedableRng;
    use whatsup::net::{codec, Peer};

    let item = |k: u32| NewsItem::new(format!("news-{k}"), "d", "https://l", 5, 0);
    let (item0, other) = (item(0), item(1));
    // Only the victim likes anything.
    let victim: NodeId = item0.source;
    let oracle = |node: NodeId, _: ItemId| node == victim;
    let params = Params::whatsup(6);
    let items = Arc::new(ItemIndexMap::from_iter([(item0.id(), 0), (other.id(), 1)]));
    let seeded = || {
        let mut node = WhatsUpNode::new(victim, params.clone(), Arc::clone(&items));
        node.seed_views(
            (0..8).filter(|&n| n != victim).map(|n| (n, Profile::new())),
            (0..4).filter(|&n| n != victim).map(|n| (n, Profile::new())),
        );
        node
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(36);
    // The victim publishes item 0, so it has rated (liked) that item.
    let mut peer = Peer::new(seeded(), Default::default());
    assert!(!peer.publish(&item0, 1, &mut rng).is_empty());
    let rated = item0.id();
    assert!(peer.node().profile().contains(rated));

    let attacker: NodeId = 0;
    let poisoned = || {
        SharedProfile::new(Profile::from_entries([ProfileEntry {
            item: rated,
            timestamp: 1,
            score: f32::NAN,
        }]))
    };
    let resolve = |id| (id == other.id()).then(|| other.clone());
    let payloads = [
        Payload::WupRequest(vec![Descriptor::fresh(attacker, poisoned())]),
        Payload::WupResponse(vec![Descriptor::fresh(attacker, poisoned())]),
        Payload::RpsRequest(vec![Descriptor::fresh(attacker, poisoned())]),
        Payload::News(NewsMessage {
            header: other.header(),
            profile: poisoned(),
            dislikes: 0,
            hops: 1,
        }),
    ];
    // The second target: a bare node fed through the codec.
    let mut node = seeded();
    let mut stats = NodeStats::default();
    let _ = node.publish(&item0, 1, &mut stats, &mut rng);
    let views_before = (node.rps_neighbor_ids(), node.wup_neighbor_ids());
    for payload in &payloads {
        let frame = codec::encode(attacker, payload, resolve).expect("frame fits a datagram");
        assert!(
            peer.decode(&frame).is_none(),
            "a poisoned frame must be dropped, not answered: {payload:?}"
        );
        let delivered = codec::decode(&frame).map(|(from, payload, _)| {
            node.on_message(from, payload, 2, &oracle, &mut stats, &mut rng)
        });
        assert!(delivered.is_err(), "the codec must reject {payload:?}");
    }
    assert_eq!(
        (node.rps_neighbor_ids(), node.wup_neighbor_ids()),
        views_before
    );
    assert!(!peer.node().has_seen(other.id()));
}

/// Item ids are whatever a peer puts on the wire, and the counting path of
/// the WUP merge numbers them by the run's item index. Gossip frames whose
/// (binary) profiles carry thousands of ids the index does not know, the
/// ids `0` and `u64::MAX`, and ids numbered so far apart that their bit
/// planes would be mostly padding must be handled like any other: decoded,
/// merged — the profiles of unknown ids and the wide one declining their
/// planes and being ranked pairwise — and the view left exactly as a
/// ranking by the pairwise metric leaves it.
#[test]
fn hostile_item_ids_in_gossip_merge_like_the_pairwise_ranking() {
    use whatsup::gossip::{Clustering, ClusteringConfig};
    use whatsup::net::codec;

    const ME: NodeId = 9;
    let binary = |likes: &[u64], dislikes: &[u64]| {
        let entry = |score| {
            move |&item| ProfileEntry {
                item,
                timestamp: 1,
                score,
            }
        };
        Profile::from_entries(
            likes
                .iter()
                .map(entry(1.0))
                .chain(dislikes.iter().map(entry(0.0))),
        )
    };
    let id = |k: u64| 0x0bad_1d00_0000_0000 + k;
    // The run's item index: the extremes of the id space, then `id(k)` at
    // slot `k + 1`.
    let index = [0, u64::MAX].into_iter().chain((1..3_410).map(id));
    let items = Arc::new(ItemIndexMap::from_iter(index.zip(0..)));
    let own = binary(&[0, u64::MAX, id(1), id(2)], &[id(3)]);
    let params = Params::whatsup(2);
    let mut node = WhatsUpNode::from_state(
        ME,
        params.clone(),
        items,
        NodeState {
            profile: own.entries().collect(),
            rps_view: Vec::new(),
            wup_view: Vec::new(),
            seen: Vec::new(),
        },
    );
    let mut expected = Clustering::new(
        ME,
        ClusteringConfig {
            view_size: params.wup_view_size,
        },
    );

    let crowd: Vec<u64> = (0..3_500).map(|k| 0x0bad_5700_0000_0000 + k).collect();
    let frames = [
        // The extremes of the id space, liked and disliked.
        vec![
            Descriptor::fresh(1, SharedProfile::new(binary(&[0, id(1)], &[u64::MAX]))),
            Descriptor::fresh(2, SharedProfile::new(binary(&[u64::MAX], &[0, id(2)]))),
        ],
        // 3 500 ids the index does not know, in one profile (a full
        // datagram).
        vec![Descriptor::fresh(
            3,
            SharedProfile::new(binary(&crowd, &[id(1)])),
        )],
        // Ids 53 words of slots apart, for a profile of three entries.
        vec![
            Descriptor::fresh(4, SharedProfile::new(binary(&[id(1), id(3_400)], &[id(2)]))),
            Descriptor::fresh(5, SharedProfile::new(binary(&[id(2), id(3)], &[id(1)]))),
        ],
    ];
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(37);
    let mut stats = NodeStats::default();
    for descriptors in frames {
        let frame = codec::encode(8, &Payload::WupRequest(descriptors), |_| None)
            .expect("frame fits a datagram");
        let (from, payload, _) = codec::decode(&frame).expect("well-formed frame");
        let Payload::WupRequest(received) = payload else {
            panic!("a WUP request decodes as one");
        };
        expected.on_response(
            received.clone(),
            &[],
            &SharedProfile::new(Profile::new()),
            &|_: &SharedProfile, cand: &SharedProfile| Metric::Wup.score(&own, cand),
        );
        let reply = node.on_message(
            from,
            Payload::WupRequest(received),
            2,
            &|_: NodeId, _: u64| true,
            &mut stats,
            &mut rng,
        );
        assert_eq!(reply.len(), 1, "a request is answered");
        assert_eq!(&node.export_state().wup_view[..], expected.view().entries());
    }
    // Candidates get planes the first time they are scored, if they can
    // have any: what the view kept shows which.
    let view = node.export_state().wup_view;
    assert_eq!(view.len(), 4, "view of 4, five candidates: {view:?}");
    let planes_of = |n: NodeId| {
        view.iter()
            .find(|d| d.node == n)
            .map(|d| d.payload.plane_bytes())
    };
    assert!(
        planes_of(5) > Some(0),
        "a compact binary snapshot is counted"
    );
    for walked in [3, 4] {
        assert!(
            planes_of(walked).unwrap_or(0) == 0,
            "{walked} declines and is walked"
        );
    }
}

/// The run's item index is shared by every thread that builds planes
/// (shards under the thread link are). Four threads, released together,
/// build planes over overlapping id sets — their own profiles and ones all
/// four share — and every score, within and across threads, must be the
/// reference's.
#[test]
fn concurrent_plane_builds_agree_on_every_slot() {
    use std::sync::Barrier;
    use whatsup::core::similarity::{reference, Prepared};

    const THREADS: u64 = 4;
    let id = |k: u64| 0x5107_7ab1_0000_0000 + k;
    let index = ItemIndexMap::from_iter((0..400).map(id).zip(0..));
    // Thread `t` profile `k`: 40 ids out of a universe of 400, a stride
    // apart, so that any two profiles share some.
    let build = |t: u64, k: u64| {
        Profile::from_entries((0..40u64).map(|i| ProfileEntry {
            item: id((t * 7 + k * 13 + i * (k % 5 + 1)) % 400),
            timestamp: 0,
            score: if (t + k + i).is_multiple_of(3) {
                0.0
            } else {
                1.0
            },
        }))
    };
    let check = |pn: &Profile, pc: &Profile| {
        let scorer = Prepared::new(pn, &index);
        for (metric, slow) in [
            (Metric::Wup, reference::wup_similarity(pn, pc)),
            (Metric::Cosine, reference::cosine_similarity(pn, pc)),
        ] {
            let fast = scorer.score(metric, pc);
            assert_eq!(fast.to_bits(), slow.to_bits(), "{pn:?} vs {pc:?}");
        }
    };
    let shared: Vec<Profile> = (0..16).map(|k| build(THREADS, k)).collect();
    let barrier = Barrier::new(THREADS as usize);
    let per_thread: Vec<Vec<Profile>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || {
                    let own: Vec<Profile> = (0..16).map(|k| build(t, k)).collect();
                    barrier.wait();
                    for (a, b) in own.iter().zip(shared.iter().cycle().skip(t as usize)) {
                        check(a, b);
                        check(b, a);
                    }
                    for pair in own.windows(2) {
                        check(&pair[0], &pair[1]);
                    }
                    own
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no thread panics"))
            .collect()
    });
    // Planes built on different threads, scored against each other.
    for (t, own) in per_thread.iter().enumerate() {
        let other = &per_thread[(t + 1) % per_thread.len()];
        for (a, b) in own.iter().zip(other) {
            check(a, b);
        }
    }
    // The scores above were counted, not walked: (nearly) every profile
    // has been scored as a candidate and has its planes — short of one
    // whose every pair the fingerprints reject.
    for profiles in per_thread.iter().chain([&shared]) {
        let counted = profiles.iter().filter(|p| p.plane_bytes() > 0).count();
        assert!(counted >= 12, "{counted} of 16 profiles have planes");
    }
}

const COMMITTED_SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/flash_crowd_crash_wave.json"
);

/// The committed scenario file is hand-formatted and partial; its
/// canonical form (what `whatsup-sim echo` prints) is a fixpoint: render,
/// parse, render again is byte-identical, and the parse is the committed
/// file.
#[test]
fn committed_scenario_canonical_form_is_a_fixpoint() {
    use serde::Json;
    let text = std::fs::read_to_string(COMMITTED_SCENARIO).expect("committed scenario");
    let committed = ScenarioFile::from_json_str(&text).expect("committed scenario parses");
    let canonical = committed.to_json().pretty();
    let reparsed = ScenarioFile::from_json_str(&canonical).expect("canonical form parses");
    assert_eq!(reparsed, committed);
    assert_eq!(reparsed.to_json().pretty(), canonical);
}

/// A malformed scenario file is an error that names the field's path,
/// never a guess: missing and mistyped fields, integers an f64 cannot hold
/// exactly, Debug-style leniency and hostile nesting.
#[test]
fn malformed_scenario_files_name_the_field() {
    let text = std::fs::read_to_string(COMMITTED_SCENARIO).expect("committed scenario");
    let error = |from: &str, to: &str| {
        assert!(text.contains(from), "fixture drifted: {from}");
        let err = ScenarioFile::from_json_str(&text.replacen(from, to, 1))
            .expect_err("malformed file must be rejected");
        err.to_string()
    };
    let missing = error(r#""at": 6, "fraction": 0.3"#, r#""at": 6"#);
    assert!(
        missing.contains(r#"scenario.workload: missing field "fraction""#),
        "{missing}"
    );
    let mistyped = error(r#""seed": 77"#, r#""seed": "77""#);
    assert!(
        mistyped.contains("config.seed: expected an integer"),
        "{mistyped}"
    );
    let inexact = error(r#""seed": 77"#, r#""seed": 1e30"#);
    assert!(inexact.contains("config.seed"), "{inexact}");
    let fractional = error(r#""at": 7,"#, r#""at": 7.5,"#);
    assert!(fractional.contains("scenario.events[1].at"), "{fractional}");
    let kind = error(r#""kind": "crash_wave""#, r#""kind": "meteor""#);
    assert!(kind.contains(r#"unknown kind "meteor""#), "{kind}");
    error(r#""seed": 11}"#, r#""seed": 11,}"#);
    error(r#""dataset""#, "dataset");
    let deep = "[".repeat(200_000);
    assert!(ScenarioFile::from_json_str(&deep).is_err());
}
