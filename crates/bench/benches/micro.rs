//! Criterion microbenchmarks for the hot paths: similarity metrics, profile
//! maintenance, view merges, BEEP decisions, the wire codec and a full
//! simulator cycle.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use whatsup_core::beep::select_most_similar_k;
use whatsup_core::prelude::*;
use whatsup_core::similarity::Prepared;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, SimConfig};

/// The item index of the node benches: the ids `profile_with` rates, item
/// `k` created at time `k / 3`, so the profiles a node discloses pack.
fn dense_index() -> Arc<ItemIndexMap> {
    Arc::new((0..512).map(|k| (k, k as u32, k as u32 / 3)).collect())
}

/// `n` entries, on every third id from `offset`, each stamped with its
/// item's creation time in [`dense_index`].
fn profile_with(n: usize, offset: u64) -> Profile {
    Profile::from_entries((0..n as u64).map(|i| ProfileEntry {
        item: offset + i * 3,
        timestamp: ((offset + i * 3) / 3) as u32,
        score: if i % 3 == 0 { 0.0 } else { 1.0 },
    }))
}

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    for &n in &[32usize, 256] {
        let a = profile_with(n, 0);
        let b = profile_with(n, n as u64); // ~2/3 overlap
        group.bench_function(format!("wup/{n}"), |bench| {
            bench.iter(|| black_box(wup_similarity(black_box(&a), black_box(&b))))
        });
        group.bench_function(format!("cosine/{n}"), |bench| {
            bench.iter(|| black_box(cosine_similarity(black_box(&a), black_box(&b))))
        });
    }
    group.finish();
}

fn hash(words: [u64; 3]) -> u64 {
    fnv1a64(&words.map(u64::to_le_bytes).concat())
}

/// The item index of a universe of `universe` content-hashed ids.
fn universe_index(universe: u64) -> ItemIndexMap {
    (0..universe).map(|i| hash([i, 0, 0])).zip(0..).collect()
}

/// A profile over a universe of `universe` content-hashed ids: it rates a
/// `seed`-drawn `keep_of_twenty`/20 of them, with scores in quarters if
/// `real`, else 0 or 1.
fn rated(universe: u64, seed: u64, keep_of_twenty: u64, real: bool) -> Profile {
    let draw = |item: u64, salt: u64| hash([item, seed, salt]) >> 20;
    Profile::from_entries(
        (0..universe)
            .filter(|&i| draw(i, 1) % 20 < keep_of_twenty)
            .map(|i| ProfileEntry {
                item: hash([i, 0, 0]),
                timestamp: 0,
                score: if real {
                    (draw(i, 2) % 5) as f32 / 4.0
                } else {
                    (draw(i, 2) % 2) as f32
                },
            }),
    )
}

/// One item profile ranked against the thirty snapshots of an RPS view —
/// what every disliked first reception does (and, with ~70 candidates,
/// every WUP merge): the pairwise merge-join per candidate versus the
/// prepared one-vs-many scorer, build included (the item profile's scores
/// are quarters, so it is weighed against the snapshots' planes; every
/// iteration orients a fresh clone, which leaves the weights behind).
/// `prepared_3x30` orients one fresh item profile against three RPS views
/// in a row — its `f_like` siblings' receivers, or a dislike chain
/// forwarding it unchanged — which build its weights once. Ids are
/// content hashes; the item profile rates a random 4/5 of a shared
/// universe and a snapshot 13/20 of it, so ~80 % of a snapshot's items are
/// common. `deep` is the paper regime (a 13-cycle window: ~160 against
/// ~130 entries), `shallow` the scale regime (~33 against ~27). Every
/// iteration takes the next of 64 different views: a
/// single repeated view would let the branch predictor learn the
/// merge-join's compare sequence, which no real run offers it. The
/// `planes_1x70` rows are the other one-vs-many call site, the WUP merge.
fn bench_one_vs_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    for (regime, universe) in [("deep", 200u64), ("shallow", 41)] {
        // A WUP merge: the node's own *binary* profile (131 and 33 entries)
        // against the ~70 snapshots of own view ∪ received view ∪ RPS
        // view, every one binary — the counting path. Snapshots outlive a
        // merge (view slots pin them, and with obfuscation off they are
        // the owners' live profiles), so the steady state scores planes
        // that already exist; `_cold` clones all 71 profiles first — a
        // clone leaves the planes behind — and merges once: a candidate is
        // laid out the first time it is scored, so that one pass builds
        // all 71 pairs of planes, index lookups included, and counts.
        let index = universe_index(universe);
        let own = rated(universe, 0, if universe > 100 { 13 } else { 16 }, false);
        let merges: Vec<Vec<Profile>> = (0..16)
            .map(|v| {
                (0..70)
                    .map(|n| rated(universe, 5_000 + v * 70 + n, 13, false))
                    .collect()
            })
            .collect();
        let score_all = |own: &Profile, candidates: &[Profile]| {
            let scorer = Prepared::new(black_box(own), &index);
            candidates
                .iter()
                .map(|pc| scorer.score(Metric::Wup, pc))
                .sum::<f64>()
        };
        let mut next = 0;
        group.bench_function(format!("planes_1x70/{regime}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % merges.len();
                score_all(&own, &merges[next])
            })
        });
        group.bench_function(format!("planes_1x70_cold/{regime}"), |bench| {
            bench.iter_batched(
                || {
                    next = (next + 1) % merges.len();
                    (own.clone(), merges[next].clone())
                },
                |(own, candidates)| score_all(&own, &candidates),
                BatchSize::SmallInput,
            )
        });

        let item_profile = rated(universe, 0, 16, true);
        let views: Vec<Vec<Profile>> = (0..64)
            .map(|v| {
                (0..30)
                    .map(|n| rated(universe, 1 + v * 30 + n, 13, false))
                    .collect()
            })
            .collect();
        let mut next = 0;
        group.bench_function(format!("pairwise_1x30/{regime}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % views.len();
                views[next]
                    .iter()
                    .map(|pc| Metric::Wup.score(black_box(&item_profile), pc))
                    .sum::<f64>()
            })
        });
        let orient = |item_profile: &Profile, view: &[Profile]| {
            let scorer = Prepared::new(black_box(item_profile), &index);
            view.iter()
                .map(|pc| scorer.score(Metric::Wup, pc))
                .sum::<f64>()
        };
        group.bench_function(format!("prepared_1x30/{regime}"), |bench| {
            bench.iter_batched(
                || {
                    next = (next + 1) % views.len();
                    (item_profile.clone(), next)
                },
                |(fresh, at)| orient(&fresh, &views[at]),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("prepared_3x30/{regime}"), |bench| {
            bench.iter_batched(
                || {
                    next = (next + 3) % views.len();
                    (item_profile.clone(), next)
                },
                |(fresh, at)| {
                    (at..at + 3)
                        .map(|v| orient(&fresh, &views[v % views.len()]))
                        .sum::<f64>()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// `select_most_similar_k` end to end, as a disliked first reception runs
/// it: a fresh clone of the item profile (its weights built on the way)
/// picks one of a 30-entry RPS view — scoring, tie mixes and the ranking
/// loop — over the profiles of `prepared_1x30`. The views are warm: every
/// snapshot has been scored before, so it carries planes, as the
/// snapshots a view keeps do. Every iteration takes the next of 64 views
/// and salts its ties anew.
fn bench_beep(c: &mut Criterion) {
    let mut group = c.benchmark_group("beep");
    for (regime, universe) in [("deep", 200u64), ("shallow", 41)] {
        let index = universe_index(universe);
        let item_profile = rated(universe, 0, 16, true);
        let views: Vec<View<SharedProfile>> = (0..64u64)
            .map(|v| {
                let mut view = View::new(30);
                for n in 0..30u32 {
                    let snapshot = rated(universe, 1 + v * 30 + u64::from(n), 13, false);
                    view.insert(Descriptor::fresh(n, SharedProfile::new(snapshot)));
                }
                view
            })
            .collect();
        let orient = |fresh: &Profile, at: usize| {
            select_most_similar_k(fresh, &index, &views[at], Metric::Wup, 1, at as u64)
        };
        for at in 0..views.len() {
            orient(&item_profile.clone(), at);
        }
        let mut next = 0;
        group.bench_function(format!("orient_1x30/{regime}"), |bench| {
            bench.iter_batched(
                || {
                    next = (next + 1) % views.len();
                    (item_profile.clone(), next)
                },
                |(fresh, at)| orient(&fresh, at),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_profile_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile");
    group.bench_function("rate_256", |bench| {
        bench.iter_batched(
            Profile::new,
            |mut p| {
                for i in 0..256u64 {
                    p.rate((i * 7) % 512, i as u32, i % 2 == 0);
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
    let big = profile_with(256, 0);
    group.bench_function("aggregate_item_profile", |bench| {
        bench.iter_batched(
            || profile_with(128, 64),
            |mut item_profile| {
                item_profile.aggregate_user_profile(black_box(&big));
                item_profile
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("purge_window", |bench| {
        bench.iter_batched(
            || profile_with(256, 0),
            |mut p| {
                p.purge_older_than(128);
                p
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_node_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("node");
    let items = dense_index();
    let make_node = || {
        let mut node = WhatsUpNode::new(0, Params::whatsup(10), Arc::clone(&items));
        node.seed_views(
            (1..=30).map(|i| (i, profile_with(64, i as u64 * 5))),
            (1..=20).map(|i| (i, profile_with(64, i as u64 * 5))),
        );
        node
    };
    group.bench_function("on_cycle", |bench| {
        bench.iter_batched(
            || (make_node(), ChaCha8Rng::seed_from_u64(1)),
            |(mut node, mut rng)| node.on_cycle(10, &mut NodeStats::default(), &mut rng),
            BatchSize::SmallInput,
        )
    });
    let item = NewsItem::new("bench", "desc", "https://bench", 0, 5);
    group.bench_function("handle_liked_news", |bench| {
        bench.iter_batched(
            || (make_node(), ChaCha8Rng::seed_from_u64(1)),
            |(mut node, mut rng)| {
                let msg = Payload::News(NewsMessage {
                    header: item.header(),
                    profile: SharedProfile::new(profile_with(64, 9)),
                    dislikes: 0,
                    hops: 2,
                });
                node.on_message(
                    3,
                    msg,
                    5,
                    &|_: NodeId, _: ItemId| true,
                    &mut NodeStats::default(),
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One WUP response merged into a full view: the union of the 20-entry
/// view (nodes 21–40), 21 received descriptors (35–55) and the 30-entry
/// RPS view (1–30), deduplicated, ranked, cut to 20.
///
/// `merge_topk`: every profile is empty, so every score is one fingerprint
/// rejection and they all tie (the state of every view before profiles
/// mature): the time is the merge's bookkeeping — union, dedup, id mix,
/// selection of the survivors — and none of it similarity.
/// `merge_scored`: the node rates 64 items and every node's descriptor
/// carries its own 64-entry binary profile (one allocation per node,
/// shared by both views and the response), so scores differ and are
/// counted on planes — built by the first iteration, then reused, as a
/// view's snapshots are — and the ranking decides which 20 survive.
fn bench_view_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("view");
    let items = dense_index();
    let mut merge_row = |name: &str, own: Profile, payload: &dyn Fn(NodeId) -> SharedProfile| {
        let descriptors =
            |nodes: std::ops::RangeInclusive<NodeId>| -> Vec<Descriptor<SharedProfile>> {
                nodes.map(|i| Descriptor::fresh(i, payload(i))).collect()
            };
        let state = NodeState {
            profile: own.entries().collect(),
            rps_view: descriptors(1..=30),
            wup_view: descriptors(21..=40),
            seen: Vec::new(),
        };
        let node = WhatsUpNode::from_state(0, Params::whatsup(10), Arc::clone(&items), state);
        let received = descriptors(35..=55);
        group.bench_function(name, |bench| {
            bench.iter_batched(
                || (node.clone(), Payload::WupResponse(received.clone())),
                |(mut node, response)| {
                    node.on_message(
                        35,
                        response,
                        5,
                        &|_: NodeId, _: ItemId| true,
                        &mut NodeStats::default(),
                        &mut ChaCha8Rng::seed_from_u64(1),
                    );
                    node
                },
                BatchSize::SmallInput,
            )
        });
    };
    let empty = SharedProfile::new(Profile::new());
    merge_row("merge_topk", Profile::new(), &|_| empty.clone());
    // Node i rates items 3i, 3i + 3, …: it shares 64 − i of them with the
    // node's own profile, so the scores spread over the candidates.
    let profiles: Vec<SharedProfile> = (0..=55u64)
        .map(|i| SharedProfile::new(profile_with(64, i * 3)))
        .collect();
    merge_row("merge_scored", profile_with(64, 0), &|i| {
        profiles[i as usize].clone()
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let descs: Vec<Descriptor<SharedProfile>> = (0..15)
        .map(|i| Descriptor::fresh(i, SharedProfile::new(profile_with(64, i as u64))))
        .collect();
    let payload = Payload::RpsRequest(descs);
    group.bench_function("encode_gossip_15x64", |bench| {
        bench.iter(|| whatsup_net::codec::encode(1, black_box(&payload), |_| None).unwrap())
    });
    let frame = whatsup_net::codec::encode(1, &payload, |_| None).unwrap();
    group.bench_function("decode_gossip_15x64", |bench| {
        bench.iter(|| whatsup_net::codec::decode(black_box(&frame)).unwrap())
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let dataset = survey::generate(&SurveyConfig::paper().scaled(0.1), 5);
    let cfg = SimConfig {
        cycles: 10,
        publish_from: 2,
        measure_from: 4,
        ..Default::default()
    };
    group.bench_function("survey48users_10cycles", |bench| {
        bench.iter(|| {
            Runner::new(black_box(&dataset), Protocol::WhatsUp { f_like: 5 })
                .config(cfg.clone())
                .run()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_similarity,
    bench_one_vs_many,
    bench_beep,
    bench_profile_ops,
    bench_node_paths,
    bench_view_merge,
    bench_codec,
    bench_simulation
);
criterion_main!(benches);
