//! Adversarial decode tests: every wire-format frame kind, corrupted by
//! truncation and bit flips, fed to every decoder — the decoder must
//! return a typed [`DecodeError`] (or a well-formed wrong message, for
//! flips that land in content bytes), **never panic**.
//!
//! This is the executable form of the `wire-panic` contract that
//! `whatsup-lint` enforces statically on `codec.rs`: untrusted bytes reach
//! `decode`/`bundle_view`/`decode_digest`/`decode_delta` from the network,
//! so every slice index on those paths must be bounds-checked. Checkpoint
//! frames are covered through their building blocks: shard checkpoints
//! (see `whatsup_sim::engine::shard`) store node state as [`Profile`] and
//! descriptor-list [`Wire`] spans, so corrupting those spans and taking
//! them back exercises exactly the parsing a checkpoint restore performs.

use proptest::prelude::*;
use whatsup_core::message::wire as tag;
use whatsup_core::{
    Descriptor, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry, SharedProfile,
};
use whatsup_net::codec::{
    bundle_view, decode, decode_bundle_entry, decode_delta, decode_digest, encode, encode_bundle,
    encode_delta, encode_digest, DecodeError, DeltaEntry, DeltaValue, DigestLine, NewsDecodeCache,
};
use whatsup_net::wire::{self, Wire};

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

fn descriptor(node: u32, entries: &[(u64, u32, bool)]) -> Descriptor<SharedProfile> {
    Descriptor {
        node,
        age: 3,
        payload: SharedProfile::new(profile(entries)),
    }
}

fn news_item(tag: u64, source: u32) -> NewsItem {
    NewsItem::new(
        format!("title-{tag}"),
        format!("description {tag}"),
        format!("https://news.example/{tag}"),
        source,
        7,
    )
}

fn news_payload(item: &NewsItem, entries: &[(u64, u32, bool)]) -> Payload {
    Payload::News(NewsMessage {
        header: item.header(),
        profile: SharedProfile::new(profile(entries)),
        dislikes: 2,
        hops: 5,
    })
}

/// One valid frame of every wire kind, built from the generated entries:
/// the four gossip kinds, a news frame, a mailbox bundle mixing gossip and
/// news, an anti-entropy digest and delta, and the checkpoint span
/// building blocks (a profile span and a descriptor-list span).
fn all_frames(from: NodeId, entries: &[(u64, u32, bool)]) -> Vec<Vec<u8>> {
    let item = news_item(entries.len() as u64, from);
    let resolve = |id| (id == item.id()).then(|| item.clone());
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for kind in [
        tag::RPS_REQUEST,
        tag::RPS_RESPONSE,
        tag::WUP_REQUEST,
        tag::WUP_RESPONSE,
    ] {
        let descs = vec![descriptor(from, entries)];
        let payload = match kind {
            tag::RPS_REQUEST => Payload::RpsRequest(descs),
            tag::RPS_RESPONSE => Payload::RpsResponse(descs),
            tag::WUP_REQUEST => Payload::WupRequest(descs),
            _ => Payload::WupResponse(descs),
        };
        frames.push(encode(from, &payload, resolve).unwrap().to_vec());
    }
    frames.push(
        encode(from, &news_payload(&item, entries), resolve)
            .unwrap()
            .to_vec(),
    );
    let bundle_entries: Vec<(NodeId, NodeId, Payload)> = vec![
        (
            1,
            from,
            Payload::RpsRequest(vec![descriptor(from, entries)]),
        ),
        (2, from, news_payload(&item, entries)),
        (3, from, news_payload(&item, entries)),
    ];
    frames.push(encode_bundle(9, &bundle_entries, resolve).to_vec());
    let digest: Vec<DigestLine> = (0..3)
        .map(|i| DigestLine {
            node: i,
            incarnation: u32::from(i == 1),
            max_version: u64::from(i) * 7,
        })
        .collect();
    frames.push(encode_digest(from, &digest).unwrap().to_vec());
    let delta: Vec<DeltaEntry> = vec![
        DeltaEntry {
            node: 0,
            incarnation: 0,
            version: 1,
            value: DeltaValue::Heartbeat(4),
        },
        DeltaEntry {
            node: 1,
            incarnation: 2,
            version: 9,
            value: DeltaValue::ProfileDigest(0xdead_beef),
        },
        DeltaEntry {
            node: 2,
            incarnation: 0,
            version: 3,
            value: DeltaValue::NewsKey {
                item: 11,
                published_at: 13,
            },
        },
    ];
    frames.push(encode_delta(from, &delta).unwrap().to_vec());
    // Checkpoint span building blocks (what a shard checkpoint embeds).
    frames.push(wire::encode(&profile(entries)));
    frames.push(wire::encode(&vec![descriptor(from, entries)]));
    frames
}

/// Feeds one byte buffer to every decode entry point. The only acceptable
/// outcomes are `Ok` or a typed error; a panic fails the test by
/// unwinding.
fn exercise_all_decoders(buf: &[u8]) {
    let _ = decode(buf);
    let _ = unbundle(buf);
    let _ = decode_digest(buf);
    let _ = decode_delta(buf);
    let _ = Profile::take(&mut &buf[..]);
    let _ = Vec::<Descriptor<SharedProfile>>::take(&mut &buf[..]);
}

/// Decodes every entry of a bundle frame through one news cache, as a
/// receiving shard does; the number of entries.
fn unbundle(buf: &[u8]) -> Result<usize, DecodeError> {
    let mut cache = NewsDecodeCache::default();
    let mut count = 0;
    for entry in bundle_view(buf)? {
        let (_, inner) = entry?;
        decode_bundle_entry(inner, &mut cache)?;
        count += 1;
    }
    Ok(count)
}

fn profile_strategy() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
    prop::collection::vec((0u64..1_000_000, 0u32..10_000, prop::bool::ANY), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncations of every frame kind: each decoder either rejects the
    /// prefix with a typed error or parses a shorter valid message — and
    /// the frame's own decoder must reject any strict prefix.
    #[test]
    fn truncated_frames_never_panic(
        from in 0u32..1_000,
        entries in profile_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        for frame in all_frames(from, &entries) {
            let cut = ((frame.len() as f64) * cut_fraction) as usize;
            if cut < frame.len() {
                exercise_all_decoders(&frame[..cut]);
            }
        }
    }

    /// Bit-flipped frames of every kind never panic any decoder. A flip in
    /// a content byte may still decode (to different content) — the
    /// contract is no panic, not rejection.
    #[test]
    fn bit_flipped_frames_never_panic(
        from in 0u32..1_000,
        entries in profile_strategy(),
        flips in prop::collection::vec((0usize..10_000, 0u8..8), 1..6),
    ) {
        for frame in all_frames(from, &entries) {
            let mut corrupt = frame.clone();
            for &(pos, bit) in &flips {
                let at = pos % corrupt.len();
                corrupt[at] ^= 1 << bit;
            }
            exercise_all_decoders(&corrupt);
        }
    }

    /// Arbitrary byte soup — no structure at all — never panics.
    #[test]
    fn random_bytes_never_panic(noise in prop::collection::vec(0u8..255, 0..256)) {
        exercise_all_decoders(&noise);
    }
}

/// Exhaustive (non-sampled) corruption of one small frame per kind: every
/// strict prefix, and every single-bit flip of every byte. Deterministic,
/// so a regression names the exact frame kind and offset on failure.
#[test]
fn every_prefix_and_single_bit_flip_is_panic_free() {
    let entries = [(42u64, 9u32, true), (7u64, 3u32, false)];
    let frames = all_frames(5, &entries);
    // The last two buffers are checkpoint *spans* (no tag byte), so the
    // strict-prefix rejection contract below applies to the tagged frames
    // only; the spans still get the full no-panic treatment.
    let tagged = frames.len() - 2;
    for (frame_ix, frame) in frames.into_iter().enumerate() {
        for cut in 0..frame.len() {
            exercise_all_decoders(&frame[..cut]);
        }
        // A strict prefix must never satisfy the full-frame decoders: the
        // wire format carries explicit counts/lengths, so short input is
        // always a typed error, not a silently short message.
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            if frame_ix < tagged {
                assert!(
                    decode(prefix).is_err(),
                    "frame {frame_ix}: decode accepted a {cut}-byte prefix of {} bytes",
                    frame.len()
                );
            }
            if frame[0] == tag::MAILBOX_BUNDLE {
                assert!(unbundle(prefix).is_err(), "bundle prefix of {cut} bytes");
            }
            if frame[0] == tag::DIGEST {
                assert!(decode_digest(prefix).is_err());
            }
            if frame[0] == tag::DELTA {
                assert!(decode_delta(prefix).is_err());
            }
        }
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[at] ^= 1 << bit;
                exercise_all_decoders(&corrupt);
            }
        }
    }
}

/// A score that is not a finite number in `[0, 1]` is a typed decode error
/// in every frame kind that carries a profile: similarity ranks with
/// `partial_cmp(..).expect(..)`, so a `NaN` let through here is a peer
/// panicked by one datagram. The boundary values and `-0.0` are scores.
#[test]
fn out_of_range_scores_are_rejected_by_every_profile_decoder() {
    let item = news_item(1, 5);
    let resolve = |id| (id == item.id()).then(|| item.clone());
    let frames_with = |score: f32| {
        let profile = || {
            SharedProfile::new(Profile::from_entries([ProfileEntry {
                item: 42,
                timestamp: 9,
                score,
            }]))
        };
        let gossip = Payload::WupRequest(vec![Descriptor::fresh(5, profile())]);
        let news = Payload::News(NewsMessage {
            header: item.header(),
            profile: profile(),
            dislikes: 0,
            hops: 0,
        });
        let bundle = encode_bundle(9, &[(1, 5, gossip.clone()), (2, 5, news.clone())], resolve);
        (
            encode(5, &gossip, resolve).unwrap(),
            encode(5, &news, resolve).unwrap(),
            bundle,
        )
    };
    for score in [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.25,
        1.0 + f32::EPSILON,
    ] {
        let bad = DecodeError::BadScore(score.to_bits());
        let (gossip, news, bundle) = frames_with(score);
        assert_eq!(decode(&gossip).unwrap_err(), bad, "gossip, {score}");
        assert_eq!(decode(&news).unwrap_err(), bad, "news, {score}");
        let mut cache = NewsDecodeCache::default();
        for entry in bundle_view(&bundle).unwrap() {
            let (_, inner) = entry.unwrap();
            assert_eq!(
                decode_bundle_entry(inner, &mut cache).unwrap_err(),
                bad,
                "bundle entry, {score}"
            );
        }
        assert!(!bad.to_string().is_empty());
    }
    for score in [0.0, -0.0, 0.5, 1.0] {
        let (gossip, news, bundle) = frames_with(score);
        assert!(decode(&gossip).is_ok(), "gossip, {score}");
        assert!(decode(&news).is_ok(), "news, {score}");
        let mut cache = NewsDecodeCache::default();
        for entry in bundle_view(&bundle).unwrap() {
            let (_, inner) = entry.unwrap();
            assert!(decode_bundle_entry(inner, &mut cache).is_ok());
        }
    }
}

/// A peer chooses the item ids it sends, and the bit planes number only
/// the ids of the run's item index. Frame after frame of never-seen ids —
/// 3 500 a datagram — gets no layout, on either side of a score, and is
/// scored by walking, bit-identically; one stranger is enough to turn a
/// snapshot of known ids away. The item profile of a news frame is
/// weighed over the ids the index knows. Known ids are counted as before.
#[test]
fn never_seen_item_ids_get_no_layout_and_score_the_reference() {
    use whatsup_core::similarity::{reference, Metric, Prepared};
    use whatsup_core::ItemIndexMap;

    const PER_FRAME: u64 = 3_500;
    let id = |frame: u64, k: u64| 0xfeed_0000_0000 + frame * PER_FRAME + k;
    // The run's item index: the ids of frame 0.
    let index: ItemIndexMap = (0..PER_FRAME).map(|k| id(0, k)).zip(0..).collect();
    // A binary profile of `len` ids of `frame`, as a receiver decodes it.
    let received = |frame: u64, len: u64| {
        let entries: Vec<(u64, u32, bool)> =
            (0..len).map(|k| (id(frame, k), 1, k % 3 != 2)).collect();
        let sent = Payload::WupRequest(vec![descriptor(7, &entries)]);
        let bytes = encode(7, &sent, |_| None).expect("3 500 entries fit a datagram");
        match decode(&bytes).expect("well-formed frame").1 {
            Payload::WupRequest(mut descriptors) => descriptors.remove(0).payload,
            other => panic!("a WUP request decodes as one, not {other:?}"),
        }
    };
    // Once: a candidate gets its planes, if it can have any, the first
    // time it is scored.
    let score = |own: &Profile, candidate: &Profile| {
        let walked = reference::wup_similarity(own, candidate);
        assert!(walked > 0.0, "they share likes");
        let scored = Prepared::new(own, &index).score(Metric::Wup, candidate);
        assert_eq!(scored.to_bits(), walked.to_bits());
    };

    let (first_own, first) = (received(0, 4), received(0, PER_FRAME));
    score(&first_own, &first);
    assert!(first_own.plane_bytes() > 0 && first.plane_bytes() > 0);

    // The news route: item profiles of never-seen ids but four, with
    // scores that can be weighed, each oriented against a snapshot with
    // planes.
    let item = news_item(3, 7);
    let oriented = |frame: u64| {
        let averaged = (0..PER_FRAME).map(|k| ProfileEntry {
            item: if k < 4 { id(0, k) } else { id(frame, k) },
            timestamp: 1,
            score: 0.5,
        });
        let sent = Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(Profile::from_entries(averaged)),
            dislikes: 0,
            hops: 1,
        });
        let resolve = |id| (id == item.id()).then(|| item.clone());
        let bytes = encode(7, &sent, resolve).expect("3 500 entries fit a datagram");
        match decode(&bytes).expect("well-formed frame").1 {
            Payload::News(news) => news.profile,
            other => panic!("a news frame decodes as one, not {other:?}"),
        }
    };
    for frame in 1_000..1_010 {
        score(&oriented(frame), &first);
    }

    // Strangers on either side of a score: no planes, walked.
    for frame in 1..20 {
        let (own, candidate) = (received(frame, 4), received(frame, PER_FRAME));
        score(&own, &candidate);
        assert_eq!(own.plane_bytes() + candidate.plane_bytes(), 0);
    }
    let mut mixed = (*first).clone();
    mixed.rate(id(20, 0), 1, true);
    score(&first_own, &mixed);
    assert_eq!(mixed.plane_bytes(), 0, "one stranger declines the planes");
    // Known ids are counted as before, in a fresh decode.
    let again = received(0, PER_FRAME);
    score(&first_own, &again);
    assert!(again.plane_bytes() > 0);
}
