//! Binary wire format: every frame a peer or a shard sends.
//!
//! Little-endian throughout; tags are the stable wire ids of
//! [`whatsup_core::message::wire`]; each body is a [`Wire`] declaration
//! (`crate::wire` tabulates the primitives):
//!
//! ```text
//! frame        := tag:u8 from:u32 body
//! gossip       := descriptor list: count:u16 (node:u32 age:u32 profile)*
//! news         := item forwarding
//! item         := source:u32 created:u32 title:str desc:str link:str
//! forwarding   := dislikes:u8 hops:u16 profile
//! profile      := len:u16 (item:u64 timestamp:u32 score:f32)*
//! str          := len:u16 utf8-bytes
//! bundle       := count:u32 (to:u32 len:u32 frame)*      [from = shard id]
//! digest       := count:u32 (node:u32 incarnation:u32 max_version:u64)*
//! delta        := count:u32 (node:u32 incarnation:u32 version:u64 value)*
//! value        := 0:u8 heartbeat:u32 | 1:u8 profile_digest:u64
//!               | 2:u8 item:u32 published_at:u32
//! ```
//!
//! The news item's 8-byte id is deliberately absent from the wire: receivers
//! recompute it from the content (paper §II-A), and [`decode`] does exactly
//! that when rebuilding the in-memory [`NewsMessage`].
//!
//! Mailbox bundles are the simulator's shard-exchange unit: a batch of
//! addressed single-message frames, concatenated in `(sender, emission
//! order)` order by the emitting shard. Bundles travel over pipes,
//! channels and the shard-exchange TCP sockets — not UDP — so
//! `MAX_FRAME` applies to single-message frames only, and bundles never
//! nest.
//!
//! The sharded engine's transports (`sim-shard-worker`, one shard per
//! process or machine) move these very bundle encodings inside their
//! command frames, so anything the simulator exchanges is expressible on
//! the deployment stack's network encoding (see the `whatsup_sim::engine`
//! module docs, "distributed topology").
//!
//! Anti-entropy deltas for one node are emitted in ascending version order
//! so that a budget-truncated delta always leaves the receiver's per-node
//! max version at a resumable point: the next digest advertises exactly
//! the cut, and the following delta resumes from there. Out-of-order
//! emission would let the digest max leapfrog unsent versions and stall
//! convergence forever.

use crate::wire::{put_seq, take_slice, Wire};
use bytes::{Bytes, BytesMut};
use std::borrow::Borrow;
use whatsup_core::message::wire;
use whatsup_core::{ItemHeader, NewsItem, NewsMessage, NodeId, Payload, SharedProfile};

/// Maximum single-message frame size we allow on the wire (UDP datagram
/// safety margin). Mailbox bundles are exempt — they are batches for
/// stream-like transports.
pub(crate) const MAX_FRAME: usize = 60 * 1024;

/// Encoding error: the only failure mode is an oversized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTooLarge(pub usize);

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            self.0
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadTag(u8),
    BadUtf8,
    /// A profile entry whose score is not a finite number in `[0, 1]` (the
    /// [`whatsup_core::Profile`] invariant). Carries the offending `f32`'s
    /// bits: `NaN` would make the error unequal to itself.
    BadScore(u32),
    /// A frame whose fields decode but break the invariant they form
    /// together (e.g. bytes left over after the last field, a count that
    /// disagrees with the data it describes). Names the broken invariant.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadScore(bits) => {
                write!(f, "profile score {} outside [0, 1]", f32::from_bits(*bits))
            }
            DecodeError::Invalid(what) => write!(f, "invalid frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// BEEP's forwarding state: what follows the item in a news frame.
#[derive(Debug, Clone)]
struct Forwarding {
    dislikes: u8,
    hops: u16,
    profile: SharedProfile,
}

crate::wire_codec! { struct Forwarding { dislikes, hops, profile } }

/// Reads a frame's `tag:u8 from:u32` header, refusing any tag but `tag`.
fn take_header(buf: &mut &[u8], tag: u8) -> Result<NodeId, DecodeError> {
    match <(u8, NodeId)>::take(buf)? {
        (got, from) if got == tag => Ok(from),
        (other, _) => Err(DecodeError::BadTag(other)),
    }
}

/// `buf` frozen, unless it outgrew [`MAX_FRAME`].
fn datagram(buf: BytesMut) -> Result<Bytes, FrameTooLarge> {
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Encodes a payload from `from`. News payloads need the full item content
/// (the header alone is not enough to reconstruct the wire form), so the
/// caller passes a resolver from item id to content.
pub fn encode(
    from: NodeId,
    payload: &Payload,
    resolve: impl Fn(u64) -> Option<NewsItem>,
) -> Result<Bytes, FrameTooLarge> {
    let mut buf = BytesMut::with_capacity(256);
    encode_into(&mut buf, from, payload, resolve);
    datagram(buf)
}

/// Appends the single-message frame for `payload` to `buf` without the
/// `MAX_FRAME` check (bundle building blocks; datagram callers use
/// [`encode`]), resolving news content by loan or by value.
pub fn encode_into<R: Borrow<NewsItem>>(
    buf: &mut BytesMut,
    from: NodeId,
    payload: &Payload,
    resolve: impl Fn(u64) -> Option<R>,
) {
    (payload.wire_id(), from).put(buf);
    match payload {
        Payload::RpsRequest(d)
        | Payload::RpsResponse(d)
        | Payload::WupRequest(d)
        | Payload::WupResponse(d) => d.put(buf),
        Payload::News(msg) => {
            let item =
                resolve(msg.header.id).expect("news content must be resolvable for encoding"); // lint:allow(wire-panic) encode path: the emitting node holds the content it forwards
            item.borrow().put(buf);
            let forwarding = Forwarding {
                dislikes: msg.dislikes,
                hops: msg.hops,
                profile: SharedProfile::clone(&msg.profile),
            };
            forwarding.put(buf);
        }
    }
}

/// Encodes a mailbox bundle from shard `from_shard`: every `(to, from,
/// payload)` triple as an embedded single-message frame, in the given
/// order. No `MAX_FRAME` cap — bundles travel pipes/channels, and each
/// embedded message stays individually datagram-sized by construction of
/// the protocol.
pub fn encode_bundle(
    from_shard: u32,
    entries: &[(NodeId, NodeId, Payload)],
    resolve: impl Fn(u64) -> Option<NewsItem>,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + entries.len() * 128);
    encode_bundle_into(&mut buf, from_shard, entries, resolve);
    buf.freeze()
}

/// Appends a mailbox bundle to `buf` (same frame as [`encode_bundle`]),
/// resolving news content by loan or by value. Each inner message is
/// encoded directly into `buf` after a 4-byte length placeholder that is
/// patched once the message's true size is known — one pass, no staging
/// buffer, no second copy. Callers that reuse `buf` across rounds amortize
/// the allocation to zero in steady state.
pub fn encode_bundle_into<R: Borrow<NewsItem>>(
    buf: &mut BytesMut,
    from_shard: u32,
    entries: &[(NodeId, NodeId, Payload)],
    resolve: impl Fn(u64) -> Option<R>,
) {
    (wire::MAILBOX_BUNDLE, from_shard).put(buf);
    entries.len().put(buf);
    for (to, from, payload) in entries {
        to.put(buf);
        let at = buf.len();
        0u32.put(buf); // length placeholder
        encode_into(buf, *from, payload, &resolve);
        let len = wire_count_u32(buf.len() - at - 4, "bundle inner frame length");
        // lint:allow(wire-panic) encode path: patching the 4-byte placeholder written just above
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Narrows an encode-side length/count to its wire field width, loudly.
/// Encode inputs are protocol-bounded (view sizes, profile windows,
/// per-shard mail volumes), so overflow here is a caller bug — but a
/// *silent* `as` truncation would corrupt the frame for every later field,
/// so the narrowing is checked and panics with the field name instead.
/// Decode paths never use these: untrusted input gets typed errors.
pub(crate) fn wire_count_u32(n: usize, what: &str) -> u32 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u32 wire bound"))
}

/// As [`wire_count_u32`], for `u16` wire fields.
pub(crate) fn wire_count_u16(n: usize, what: &str) -> u16 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u16::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u16 wire bound"))
}

/// A borrowed view over an encoded mailbox bundle: iterates `(to, inner
/// frame)` pairs straight out of the frame buffer without materializing
/// the entries. Each inner frame slice decodes with [`decode_bundle_entry`]
/// (or [`decode`]); consumers that only route by destination never pay for
/// decoding the message bodies at all.
#[derive(Debug, Clone)]
pub struct BundleView<'a> {
    from_shard: u32,
    remaining_entries: u32,
    rest: &'a [u8],
}

/// Opens a borrowed iterator over a bundle frame. Errors if the frame is
/// not a bundle header; per-entry truncation surfaces lazily from the
/// iterator.
pub fn bundle_view(mut frame: &[u8]) -> Result<BundleView<'_>, DecodeError> {
    let from_shard = take_header(&mut frame, wire::MAILBOX_BUNDLE)?;
    let remaining_entries = u32::take(&mut frame)?;
    Ok(BundleView {
        from_shard,
        remaining_entries,
        rest: frame,
    })
}

impl<'a> BundleView<'a> {
    /// The emitting shard's index (the frame-level `from`).
    pub fn from_shard(&self) -> u32 {
        self.from_shard
    }

    /// Entries not yet yielded.
    pub fn len(&self) -> usize {
        self.remaining_entries as usize
    }

    pub fn is_empty(&self) -> bool {
        self.remaining_entries == 0
    }

    /// The next `to:u32 len:u32 frame` entry.
    fn take_entry(&mut self) -> Result<(NodeId, &'a [u8]), DecodeError> {
        let (to, len) = <(NodeId, usize)>::take(&mut self.rest)?;
        let inner = take_slice(&mut self.rest, len)?;
        // Nested bundles are forbidden on the wire; reject before a caller
        // recurses into them.
        if inner.first() == Some(&wire::MAILBOX_BUNDLE) {
            return Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE));
        }
        Ok((to, inner))
    }
}

impl<'a> Iterator for BundleView<'a> {
    /// `(destination node, borrowed inner single-message frame)`.
    type Item = Result<(NodeId, &'a [u8]), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining_entries == 0 {
            return None;
        }
        self.remaining_entries -= 1;
        let entry = self.take_entry();
        if entry.is_err() {
            self.remaining_entries = 0;
        }
        Some(entry)
    }
}

/// Decodes one single-message frame into `(sender, payload, item)`: `item`
/// is the news content the frame carried, for the receiver to keep so it
/// can forward the item; `None` for gossip. A mailbox bundle is not a
/// single message and is refused ([`bundle_view`] opens one).
pub fn decode(frame: &[u8]) -> Result<(NodeId, Payload, Option<NewsItem>), DecodeError> {
    decode_bundle_entry(frame, &mut NewsDecodeCache::default())
}

/// One decoded value and the bytes it was decoded from.
#[derive(Debug)]
struct Memo<'a, T> {
    bytes: &'a [u8],
    value: Option<T>,
}

impl<T> Default for Memo<'_, T> {
    fn default() -> Self {
        Self {
            bytes: &[],
            value: None,
        }
    }
}

impl<'a, T: Clone> Memo<'a, T> {
    /// The next value in `buf`: the remembered one when `buf` starts with
    /// its bytes, else `parse`'s, which is remembered in turn. Layouts are
    /// length-prefixed, hence prefix-free, so a match is exactly the span
    /// `parse` would read, and it decodes to the same value.
    fn take(
        &mut self,
        buf: &mut &'a [u8],
        parse: impl FnOnce(&mut &'a [u8]) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if let Some(value) = &self.value {
            if let Some(rest) = buf.strip_prefix(self.bytes) {
                *buf = rest;
                return Ok(value.clone());
            }
        }
        let mut rest = *buf;
        let value = parse(&mut rest)?;
        self.bytes = take_slice(buf, buf.len() - rest.len())?;
        self.value = Some(value.clone());
        Ok(value)
    }
}

/// Per-bundle news-decode memo. A delivery round fans one item out to many
/// receivers, so a bundle's news entries repeat the same item-content
/// bytes, and sibling fan-out copies repeat identical forwarding bytes.
/// A hit reuses the previous result: the item header (skipping three string
/// allocations and the content hash) and the forwarding state (skipping the
/// profile parse, its allocation and the norm recompute). Profile reuse
/// also restores the sender-side `Arc` sharing that encoding flattened;
/// receivers treat it copy-on-write either way. The memo borrows the
/// bundle it decodes, so remembering a span copies nothing.
#[derive(Debug, Default)]
pub struct NewsDecodeCache<'a> {
    item: Memo<'a, ItemHeader>,
    forwarding: Memo<'a, Forwarding>,
}

/// Decodes one single-message frame (a bundle's inner frame) straight to
/// its protocol payload, using `cache` to short-circuit repeated news
/// content within the bundle. The third return is the news item's content
/// when it was decoded fresh (the caller must register it with its item
/// store); `None` for gossip frames and for cache hits — a hit means an
/// entry with identical content bytes was already yielded through this
/// cache.
pub fn decode_bundle_entry<'a>(
    mut buf: &'a [u8],
    cache: &mut NewsDecodeCache<'a>,
) -> Result<(NodeId, Payload, Option<NewsItem>), DecodeError> {
    let (tag, from) = <(u8, NodeId)>::take(&mut buf)?;
    let mut fresh = None;
    let payload = match tag {
        wire::RPS_REQUEST => Payload::RpsRequest(Wire::take(&mut buf)?),
        wire::RPS_RESPONSE => Payload::RpsResponse(Wire::take(&mut buf)?),
        wire::WUP_REQUEST => Payload::WupRequest(Wire::take(&mut buf)?),
        wire::WUP_RESPONSE => Payload::WupResponse(Wire::take(&mut buf)?),
        wire::NEWS => {
            let header = cache.item.take(&mut buf, |buf| {
                let item = NewsItem::take(buf)?;
                Ok(fresh.insert(item).header())
            })?;
            let Forwarding {
                dislikes,
                hops,
                profile,
            } = cache.forwarding.take(&mut buf, Forwarding::take)?;
            Payload::News(NewsMessage {
                header,
                profile,
                dislikes,
                hops,
            })
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((from, payload, fresh))
}

// ---------------------------------------------------------------------------
// Anti-entropy frames (scuttlebutt digest/delta reconciliation)
// ---------------------------------------------------------------------------

/// One line of an anti-entropy digest: the highest `(incarnation, version)`
/// the sender holds for `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestLine {
    pub node: NodeId,
    pub incarnation: u32,
    pub max_version: u64,
}

crate::wire_codec! { struct DigestLine { node, incarnation, max_version } }

/// Bytes each digest line occupies on the wire.
const DIGEST_LINE_BYTES: usize = 16;

/// The versioned value carried by one delta entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaValue {
    /// Liveness counter: the cycle stamp of the owner's latest heartbeat.
    Heartbeat(u32),
    /// Opaque 64-bit digest of the owner's interest profile.
    ProfileDigest(u64),
    /// A news key the owner published: `(item index, publication cycle)`.
    NewsKey { item: u32, published_at: u32 },
}

crate::wire_codec! {
    enum DeltaValue {
        0 => Heartbeat(cycle),
        1 => ProfileDigest(digest),
        2 => NewsKey { item, published_at },
    }
}

/// One versioned entry of an anti-entropy delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEntry {
    pub node: NodeId,
    pub incarnation: u32,
    pub version: u64,
    pub value: DeltaValue,
}

crate::wire_codec! { struct DeltaEntry { node, incarnation, version, value } }

/// Frame header bytes shared by digest and delta frames
/// (`tag:u8 from:u32 count:u32`).
pub const ANTI_ENTROPY_HEADER_BYTES: usize = 9;

impl DeltaEntry {
    /// Bytes this entry occupies on the wire (header fields + payload).
    pub fn wire_bytes(&self) -> usize {
        17 + match self.value {
            DeltaValue::Heartbeat(_) => 4,
            DeltaValue::ProfileDigest(_) => 8,
            DeltaValue::NewsKey { .. } => 8,
        }
    }
}

/// Encodes a `tag from count item*` anti-entropy frame, capped at
/// [`MAX_FRAME`].
fn encode_anti_entropy<T: Wire>(
    tag: u8,
    from: NodeId,
    items: &[T],
    item_bytes: usize,
) -> Result<Bytes, FrameTooLarge> {
    let mut buf = BytesMut::with_capacity(ANTI_ENTROPY_HEADER_BYTES + items.len() * item_bytes);
    (tag, from).put(&mut buf);
    put_seq(items, &mut buf);
    datagram(buf)
}

/// Encodes an anti-entropy digest frame. Digests summarize whole states and
/// are not budget-packed, so `MAX_FRAME` is the only cap.
pub fn encode_digest(from: NodeId, lines: &[DigestLine]) -> Result<Bytes, FrameTooLarge> {
    encode_anti_entropy(wire::DIGEST, from, lines, DIGEST_LINE_BYTES)
}

/// Inverse of [`encode_digest`].
pub fn decode_digest(mut buf: &[u8]) -> Result<(NodeId, Vec<DigestLine>), DecodeError> {
    let from = take_header(&mut buf, wire::DIGEST)?;
    Ok((from, Wire::take(&mut buf)?))
}

/// Encodes an anti-entropy delta frame. The caller is responsible for
/// budget-packing the entry list ([`DeltaEntry::wire_bytes`] +
/// [`ANTI_ENTROPY_HEADER_BYTES`] give exact sizes); `MAX_FRAME` still
/// applies as the transport's hard cap.
pub fn encode_delta(from: NodeId, entries: &[DeltaEntry]) -> Result<Bytes, FrameTooLarge> {
    encode_anti_entropy(wire::DELTA, from, entries, 25)
}

/// Inverse of [`encode_delta`].
pub fn decode_delta(mut buf: &[u8]) -> Result<(NodeId, Vec<DeltaEntry>), DecodeError> {
    let from = take_header(&mut buf, wire::DELTA)?;
    Ok((from, Wire::take(&mut buf)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::{Descriptor, ItemId, Profile, ProfileEntry};

    fn profile(items: &[(ItemId, f32)]) -> Profile {
        Profile::from_entries(items.iter().map(|&(item, score)| ProfileEntry {
            item,
            timestamp: 7,
            score,
        }))
    }

    #[test]
    fn gossip_roundtrip_all_kinds() {
        let descs = vec![
            Descriptor {
                node: 3,
                age: 2,
                payload: SharedProfile::new(profile(&[(10, 1.0), (11, 0.0)])),
            },
            Descriptor {
                node: 9,
                age: 0,
                payload: SharedProfile::default(),
            },
        ];
        for make in [
            Payload::RpsRequest as fn(_) -> _,
            Payload::RpsResponse,
            Payload::WupRequest,
            Payload::WupResponse,
        ] {
            let payload = make(descs.clone());
            let frame = encode(42, &payload, |_| None).unwrap();
            assert_eq!(decode(&frame).unwrap(), (42, payload, None));
        }
    }

    #[test]
    fn news_roundtrip_recomputes_id() {
        let item = NewsItem::new("Breaking", "short desc", "https://x/y", 7, 123);
        let payload = Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(profile(&[(5, 0.75)])),
            dislikes: 2,
            hops: 4,
        });
        let content = item.clone();
        let frame = encode(1, &payload, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        })
        .unwrap();
        let decoded = decode(&frame).unwrap();
        assert_eq!(
            decoded,
            (1, payload, Some(item)),
            "id recomputed from content must match"
        );
    }

    #[test]
    fn truncated_frames_error() {
        let descs = vec![Descriptor {
            node: 1,
            age: 0,
            payload: SharedProfile::new(profile(&[(1, 1.0)])),
        }];
        let frame = encode(0, &Payload::RpsRequest(descs), |_| None).unwrap();
        for cut in [0, 3, 6, frame.len() - 1] {
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [99u8, 0, 0, 0, 0, 0, 0];
        assert_eq!(decode(&buf), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn bundle_is_not_a_single_message() {
        let frame = encode_bundle(0, &[], |_| None);
        assert_eq!(
            decode(&frame),
            Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE))
        );
    }

    #[test]
    fn encoded_size_reflects_profile_length() {
        let small = encode(
            0,
            &Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::default(),
            }]),
            |_| None,
        )
        .unwrap();
        let big = encode(
            0,
            &Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::new(profile(
                    &(0..100).map(|i| (i as u64, 1.0)).collect::<Vec<_>>(),
                )),
            }]),
            |_| None,
        )
        .unwrap();
        assert_eq!(big.len() - small.len(), 100 * 16);
    }

    /// `(to, from, payload)` per entry.
    type Mail = Vec<(NodeId, NodeId, Payload)>;

    /// The entries of a bundle, each inner frame decoded on its own.
    fn unbundle(frame: &[u8]) -> Result<(u32, Mail), DecodeError> {
        let view = bundle_view(frame)?;
        let shard = view.from_shard();
        let entries = view
            .map(|entry| {
                let (to, inner) = entry?;
                let (from, payload, _) = decode(inner)?;
                Ok((to, from, payload))
            })
            .collect::<Result<_, DecodeError>>()?;
        Ok((shard, entries))
    }

    #[test]
    fn bundle_roundtrip_mixed_entries() {
        let item = NewsItem::new("hello", "world", "https://n/1", 3, 9);
        let news = Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(profile(&[(4, 1.0)])),
            dislikes: 1,
            hops: 2,
        });
        let gossip = Payload::WupRequest(vec![Descriptor {
            node: 8,
            age: 1,
            payload: SharedProfile::new(profile(&[(2, 0.0)])),
        }]);
        let entries = vec![(5u32, 1u32, news), (6u32, 2u32, gossip)];
        let content = item.clone();
        let frame = encode_bundle(3, &entries, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        });
        assert_eq!(unbundle(&frame).unwrap(), (3, entries));
    }

    #[test]
    fn empty_bundle_roundtrips() {
        let frame = encode_bundle(0, &[], |_| None);
        assert_eq!(unbundle(&frame).unwrap(), (0, vec![]));
    }

    #[test]
    fn truncated_bundle_errors() {
        let entries = vec![(
            1u32,
            0u32,
            Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::new(profile(&[(1, 1.0)])),
            }]),
        )];
        let frame = encode_bundle(0, &entries, |_| None);
        for cut in [4, 8, 12, frame.len() - 1] {
            assert!(unbundle(&frame[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let huge: Vec<(u64, f32)> = (0..4000u64).map(|i| (i, 1.0)).collect();
        let descs: Vec<Descriptor<SharedProfile>> = (0..10)
            .map(|n| Descriptor {
                node: n,
                age: 0,
                payload: SharedProfile::new(profile(&huge)),
            })
            .collect();
        let err = encode(0, &Payload::WupRequest(descs), |_| None);
        assert!(matches!(err, Err(FrameTooLarge(_))));
    }
}
