//! Binary wire format.
//!
//! Layout (little-endian throughout; tags are the stable wire ids of
//! [`whatsup_core::message::wire`]):
//!
//! ```text
//! frame      := tag:u8 from:u32 body
//! gossip     := count:u16 descriptor*
//! descriptor := node:u32 age:u32 profile
//! profile    := len:u16 entry*
//! entry      := item:u64 timestamp:u32 score:f32
//! news       := source:u32 created:u32 title:str desc:str link:str
//!               dislikes:u8 hops:u16 profile
//! str        := len:u16 utf8-bytes
//! bundle     := count:u32 (to:u32 len:u32 frame)*       [from = shard id]
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
//! [`MAX_FRAME`] applies to single-message frames only, and bundles never
//! nest.
//!
//! This codec is also the `whatsup-sim` distributed wire format: the
//! sharded engine's socket transport (`sim-shard-worker --listen`, one
//! shard per remote machine) moves these very bundle encodings inside its
//! length-prefixed command frames, so anything the simulator exchanges
//! across machines is by construction expressible on the deployment
//! stack's network encoding. The engine's per-cycle measurement counters
//! are folded driver-side from the phase replies, so no engine-internal
//! counter frame rides on top of this codec. See the
//! `whatsup_sim::engine` module docs, "distributed topology" and
//! "measurement pipeline".

use bytes::{Buf, BufMut, Bytes, BytesMut};
use whatsup_core::message::wire;
use whatsup_core::{
    Descriptor, ItemHeader, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry,
    SharedProfile,
};

/// Maximum single-message frame size we allow on the wire (UDP datagram
/// safety margin). Mailbox bundles are exempt — they are batches for
/// stream-like transports.
pub const MAX_FRAME: usize = 60 * 1024;

/// One addressed message inside a mailbox bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleEntry {
    /// Destination node.
    pub to: NodeId,
    /// Sending node (the inner frame's `from`).
    pub from: NodeId,
    /// The message itself (never a nested bundle).
    pub message: WireMessage,
}

/// A decoded frame: the sender and what it sent. News carries the full item
/// content; the protocol-level [`Payload`] is derived via
/// [`WireMessage::try_into_payload`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    Gossip {
        kind: u8,
        descriptors: Vec<Descriptor<SharedProfile>>,
    },
    News {
        item: NewsItem,
        profile: SharedProfile,
        dislikes: u8,
        hops: u16,
    },
    /// A shard-exchange mailbox bundle; the frame-level `from` is the
    /// emitting shard's index, not a node id.
    Bundle(Vec<BundleEntry>),
}

impl WireMessage {
    /// Converts to the sans-io node's payload. News ids are recomputed from
    /// content here — the wire never carried them.
    ///
    /// Fallible because a [`WireMessage`] can be built by hand with a
    /// gossip kind [`decode`] would never produce, and because a
    /// [`WireMessage::Bundle`] is a transport batch, not a protocol
    /// payload — unpack the entries instead. Both cases surface typed
    /// errors so no frame handler on an untrusted input path has a panic
    /// to reach.
    pub fn try_into_payload(self) -> Result<Payload, DecodeError> {
        match self {
            WireMessage::Gossip { kind, descriptors } => match kind {
                wire::RPS_REQUEST => Ok(Payload::RpsRequest(descriptors)),
                wire::RPS_RESPONSE => Ok(Payload::RpsResponse(descriptors)),
                wire::WUP_REQUEST => Ok(Payload::WupRequest(descriptors)),
                wire::WUP_RESPONSE => Ok(Payload::WupResponse(descriptors)),
                other => Err(DecodeError::BadTag(other)),
            },
            WireMessage::News {
                item,
                profile,
                dislikes,
                hops,
            } => {
                let header = ItemHeader {
                    id: item.id(),
                    created_at: item.created_at,
                };
                Ok(Payload::News(NewsMessage {
                    header,
                    profile,
                    dislikes,
                    hops,
                }))
            }
            WireMessage::Bundle(_) => Err(DecodeError::BundlePayload),
        }
    }
}

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
    /// A mailbox bundle where a protocol payload was required: bundles are
    /// transport batches and never convert to a [`Payload`].
    BundlePayload,
    /// A profile entry whose score is not a finite number in `[0, 1]` (the
    /// [`Profile`] invariant). Carries the offending `f32`'s bits: `NaN`
    /// would make the error unequal to itself.
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
            DecodeError::BundlePayload => {
                write!(f, "mailbox bundle is not a protocol payload")
            }
            DecodeError::BadScore(bits) => {
                write!(f, "profile score {} outside [0, 1]", f32::from_bits(*bits))
            }
            DecodeError::Invalid(what) => write!(f, "invalid frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

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
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Appends the single-message frame for `payload` to `buf` without the
/// [`MAX_FRAME`] check (bundle building blocks; datagram callers use
/// [`encode`]).
pub fn encode_into(
    buf: &mut BytesMut,
    from: NodeId,
    payload: &Payload,
    resolve: impl Fn(u64) -> Option<NewsItem>,
) {
    match payload {
        Payload::RpsRequest(d)
        | Payload::RpsResponse(d)
        | Payload::WupRequest(d)
        | Payload::WupResponse(d) => {
            buf.put_u8(payload.wire_id());
            buf.put_u32_le(from);
            put_descriptors(buf, d);
        }
        Payload::News(msg) => {
            let item =
                resolve(msg.header.id).expect("news content must be resolvable for encoding"); // lint:allow(wire-panic) encode path: the emitting node holds the content it forwards
            buf.put_u8(wire::NEWS);
            buf.put_u32_le(from);
            buf.put_u32_le(item.source);
            buf.put_u32_le(item.created_at);
            put_str(buf, &item.title);
            put_str(buf, &item.description);
            put_str(buf, &item.link);
            buf.put_u8(msg.dislikes);
            buf.put_u16_le(msg.hops);
            put_profile(buf, &msg.profile);
        }
    }
}

/// Encodes a mailbox bundle from shard `from_shard`: every `(to, from,
/// payload)` triple as an embedded single-message frame, in the given
/// order. No [`MAX_FRAME`] cap — bundles travel pipes/channels, and each
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

/// Appends a mailbox bundle to `buf` (same frame as [`encode_bundle`]).
/// Each inner message is encoded directly into `buf` after a 4-byte length
/// placeholder that is patched once the message's true size is known — one
/// pass, no staging buffer, no second copy. Callers that reuse `buf` across
/// rounds amortize the allocation to zero in steady state.
pub fn encode_bundle_into(
    buf: &mut BytesMut,
    from_shard: u32,
    entries: &[(NodeId, NodeId, Payload)],
    resolve: impl Fn(u64) -> Option<NewsItem>,
) {
    buf.put_u8(wire::MAILBOX_BUNDLE);
    buf.put_u32_le(from_shard);
    buf.put_u32_le(wire_count_u32(entries.len(), "bundle entry count"));
    for (to, from, payload) in entries {
        buf.put_u32_le(*to);
        let at = buf.len();
        buf.put_u32_le(0); // length placeholder
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
/// Decode paths never use these: untrusted input gets typed errors. The
/// simulator's shard-exchange codec narrows through these two as well.
pub fn wire_count_u32(n: usize, what: &str) -> u32 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u32 wire bound"))
}

/// As [`wire_count_u32`], for `u16` wire fields.
pub fn wire_count_u16(n: usize, what: &str) -> u16 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u16::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u16 wire bound"))
}

/// A borrowed view over an encoded mailbox bundle: iterates `(to, inner
/// frame)` pairs straight out of the frame buffer without materializing a
/// `Vec<BundleEntry>`. Each inner frame slice decodes with [`decode`] (which
/// rejects nested bundles); consumers that only route by destination never
/// pay for decoding the message bodies at all.
#[derive(Debug, Clone)]
pub struct BundleView<'a> {
    from_shard: u32,
    remaining_entries: u32,
    rest: &'a [u8],
}

/// Opens a borrowed iterator over a bundle frame. Errors if the frame is
/// not a bundle header; per-entry truncation surfaces lazily from the
/// iterator.
pub fn bundle_view(frame: &[u8]) -> Result<BundleView<'_>, DecodeError> {
    let mut buf = frame;
    if buf.remaining() < 9 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != wire::MAILBOX_BUNDLE {
        return Err(DecodeError::BadTag(tag));
    }
    let from_shard = buf.get_u32_le();
    let remaining_entries = buf.get_u32_le();
    Ok(BundleView {
        from_shard,
        remaining_entries,
        rest: buf,
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
}

impl<'a> Iterator for BundleView<'a> {
    /// `(destination node, borrowed inner single-message frame)`.
    type Item = Result<(NodeId, &'a [u8]), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining_entries == 0 {
            return None;
        }
        self.remaining_entries -= 1;
        if self.rest.remaining() < 8 {
            self.remaining_entries = 0;
            return Some(Err(DecodeError::Truncated));
        }
        let to = self.rest.get_u32_le();
        let len = self.rest.get_u32_le() as usize;
        if self.rest.remaining() < len {
            self.remaining_entries = 0;
            return Some(Err(DecodeError::Truncated));
        }
        // lint:allow(wire-panic) bounds checked: remaining >= len two lines above
        let inner = &self.rest[..len];
        self.rest.advance(len);
        // Nested bundles are forbidden on the wire; reject before a caller
        // recurses into `decode`.
        if inner.first() == Some(&wire::MAILBOX_BUNDLE) {
            self.remaining_entries = 0;
            return Some(Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE)));
        }
        Some(Ok((to, inner)))
    }
}

/// Serializes a descriptor list (`count:u16 descriptor*`). Exposed so the
/// simulator's shard exchange can serialize view snapshots with the same
/// encoding gossip frames use.
pub fn put_descriptors(buf: &mut BytesMut, descs: &[Descriptor<SharedProfile>]) {
    buf.put_u16_le(wire_count_u16(descs.len(), "descriptor count"));
    for d in descs {
        buf.put_u32_le(d.node);
        buf.put_u32_le(d.age);
        put_profile(buf, &d.payload);
    }
}

/// Inverse of [`put_descriptors`].
pub fn get_descriptors(buf: &mut &[u8]) -> Result<Vec<Descriptor<SharedProfile>>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let count = buf.get_u16_le() as usize;
    let mut descriptors = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if buf.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        let node = buf.get_u32_le();
        let age = buf.get_u32_le();
        let payload = SharedProfile::new(get_profile(buf)?);
        descriptors.push(Descriptor { node, age, payload });
    }
    Ok(descriptors)
}

/// Serializes one profile (`len:u16 (item:u64 timestamp:u32 score:f32)*`).
/// Exposed alongside [`put_descriptors`] so the simulator's shard
/// checkpoints reuse the gossip wire encoding (f32 scores round-trip
/// bit-exactly).
pub fn put_profile(buf: &mut BytesMut, p: &Profile) {
    buf.put_u16_le(wire_count_u16(p.len(), "profile entry count"));
    for e in p.entries() {
        buf.put_u64_le(e.item);
        buf.put_u32_le(e.timestamp);
        buf.put_f32_le(e.score);
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(wire_count_u16(s.len(), "string field length"));
    buf.put_slice(s.as_bytes());
}

/// Decodes one frame into `(sender, message)`. For bundle frames the
/// "sender" is the emitting shard's index.
pub fn decode(mut buf: &[u8]) -> Result<(NodeId, WireMessage), DecodeError> {
    if buf.remaining() < 5 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    let from = buf.get_u32_le();
    match tag {
        wire::RPS_REQUEST | wire::RPS_RESPONSE | wire::WUP_REQUEST | wire::WUP_RESPONSE => {
            let descriptors = get_descriptors(&mut buf)?;
            Ok((
                from,
                WireMessage::Gossip {
                    kind: tag,
                    descriptors,
                },
            ))
        }
        wire::MAILBOX_BUNDLE => {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let count = buf.get_u32_le() as usize;
            let mut entries = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                let to = buf.get_u32_le();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::Truncated);
                }
                // lint:allow(wire-panic) bounds checked: remaining >= len just above
                let (inner_from, message) = decode(&buf[..len])?;
                if matches!(message, WireMessage::Bundle(_)) {
                    // Bundles never nest.
                    return Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE));
                }
                buf.advance(len);
                entries.push(BundleEntry {
                    to,
                    from: inner_from,
                    message,
                });
            }
            Ok((from, WireMessage::Bundle(entries)))
        }
        wire::NEWS => {
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let source = buf.get_u32_le();
            let created_at = buf.get_u32_le();
            let title = get_str(&mut buf)?;
            let description = get_str(&mut buf)?;
            let link = get_str(&mut buf)?;
            if buf.remaining() < 3 {
                return Err(DecodeError::Truncated);
            }
            let dislikes = buf.get_u8();
            let hops = buf.get_u16_le();
            let profile = SharedProfile::new(get_profile(&mut buf)?);
            let item = NewsItem {
                title,
                description,
                link,
                source,
                created_at,
            };
            Ok((
                from,
                WireMessage::News {
                    item,
                    profile,
                    dislikes,
                    hops,
                },
            ))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Per-bundle news-decode memo. A delivery round fans one item out to many
/// receivers, so a bundle's news entries repeat the same item-content
/// bytes, and sibling fan-out copies repeat identical profile bytes. Byte
/// equality against the last-decoded span is exact — the decoders are pure
/// functions of the bytes — so a hit reuses the previous result: the item
/// header (skipping three string allocations and the content hash) and the
/// shared profile (skipping the entry parse, the allocation and the norm
/// recompute). Profile reuse also restores the sender-side `Arc` sharing
/// that encoding flattened; receivers treat it copy-on-write either way.
#[derive(Debug, Default)]
pub struct NewsDecodeCache {
    item_bytes: Vec<u8>,
    item_header: Option<ItemHeader>,
    profile_bytes: Vec<u8>,
    profile: Option<SharedProfile>,
}

/// Decodes one bundle inner frame straight to its protocol payload, using
/// `cache` to short-circuit repeated news content within the bundle. The
/// third return is the news item's content when it was decoded fresh (the
/// caller must register it with its item store); `None` for gossip frames
/// and for cache hits — a hit means an entry with identical content bytes
/// was already yielded through this cache.
pub fn decode_bundle_entry(
    mut buf: &[u8],
    cache: &mut NewsDecodeCache,
) -> Result<(NodeId, Payload, Option<NewsItem>), DecodeError> {
    if buf.remaining() < 5 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    let from = buf.get_u32_le();
    match tag {
        wire::RPS_REQUEST | wire::RPS_RESPONSE | wire::WUP_REQUEST | wire::WUP_RESPONSE => {
            let d = get_descriptors(&mut buf)?;
            let payload = match tag {
                wire::RPS_REQUEST => Payload::RpsRequest(d),
                wire::RPS_RESPONSE => Payload::RpsResponse(d),
                wire::WUP_REQUEST => Payload::WupRequest(d),
                _ => Payload::WupResponse(d),
            };
            Ok((from, payload, None))
        }
        wire::NEWS => {
            // Delimit the content span (source, created_at, three
            // length-prefixed strings) without parsing it yet.
            let start = buf;
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            buf.advance(8);
            for _ in 0..3 {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let len = buf.get_u16_le() as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::Truncated);
                }
                buf.advance(len);
            }
            // lint:allow(wire-panic) in bounds: buf is a strict suffix of start after the advances above
            let content = &start[..start.len() - buf.len()];
            if buf.remaining() < 3 {
                return Err(DecodeError::Truncated);
            }
            let dislikes = buf.get_u8();
            let hops = buf.get_u16_le();
            // Delimit the profile span (`len:u16` + 16 bytes per entry).
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            // lint:allow(wire-panic) bounds checked: remaining >= 2 just above
            let n_entries = u16::from_le_bytes([buf[0], buf[1]]) as usize;
            let profile_len = 2 + n_entries * 16;
            if buf.remaining() < profile_len {
                return Err(DecodeError::Truncated);
            }
            // lint:allow(wire-panic) bounds checked: remaining >= profile_len just above
            let profile_span = &buf[..profile_len];

            let (header, fresh_item) = match cache.item_header {
                Some(h) if cache.item_bytes == content => (h, None),
                _ => {
                    let mut cbuf = content;
                    let source = cbuf.get_u32_le();
                    let created_at = cbuf.get_u32_le();
                    let title = get_str(&mut cbuf)?;
                    let description = get_str(&mut cbuf)?;
                    let link = get_str(&mut cbuf)?;
                    let item = NewsItem {
                        title,
                        description,
                        link,
                        source,
                        created_at,
                    };
                    let header = item.header();
                    cache.item_bytes.clear();
                    cache.item_bytes.extend_from_slice(content);
                    cache.item_header = Some(header);
                    (header, Some(item))
                }
            };
            let profile = match &cache.profile {
                Some(p) if cache.profile_bytes == profile_span => SharedProfile::clone(p),
                _ => {
                    let mut pbuf = profile_span;
                    let p = SharedProfile::new(get_profile(&mut pbuf)?);
                    cache.profile_bytes.clear();
                    cache.profile_bytes.extend_from_slice(profile_span);
                    cache.profile = Some(SharedProfile::clone(&p));
                    p
                }
            };
            Ok((
                from,
                Payload::News(NewsMessage {
                    header,
                    profile,
                    dislikes,
                    hops,
                }),
                fresh_item,
            ))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Inverse of [`put_profile`]. Enforces the [`Profile`] score invariant —
/// finite, in `[0, 1]` — on what is untrusted input here.
pub fn get_profile(buf: &mut &[u8]) -> Result<Profile, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u16_le() as usize;
    let mut entries = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        if buf.remaining() < 16 {
            return Err(DecodeError::Truncated);
        }
        let item = buf.get_u64_le();
        let timestamp = buf.get_u32_le();
        let score = buf.get_f32_le();
        // Similarity ranks by `partial_cmp` and expects it to succeed; one
        // `NaN` here would be one datagram that panics the receiver.
        if !(0.0..=1.0).contains(&score) {
            return Err(DecodeError::BadScore(score.to_bits()));
        }
        entries.push(ProfileEntry {
            item,
            timestamp,
            score,
        });
    }
    // Wire profiles are serialized from sorted storage, so this takes the
    // allocation-reusing sorted path on every well-formed frame.
    Ok(Profile::from_vec(entries))
}

fn get_str(buf: &mut &[u8]) -> Result<String, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    // lint:allow(wire-panic) bounds checked: remaining >= len just above
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

// ---------------------------------------------------------------------------
// Anti-entropy frames (scuttlebutt digest/delta reconciliation)
// ---------------------------------------------------------------------------
//
// ```text
// digest       := DIGEST:u8 from:u32 count:u32 (node:u32 incarnation:u32 max_version:u64)*
// delta        := DELTA:u8 from:u32 count:u32 delta_entry*
// delta_entry  := node:u32 incarnation:u32 version:u64 kind:u8 payload
// payload      := heartbeat:u32            (kind 0)
//               | profile_digest:u64       (kind 1)
//               | item:u32 published_at:u32 (kind 2)
// ```
//
// Entries for one node are emitted in ascending version order so that a
// budget-truncated delta always leaves the receiver's per-node max version
// at a resumable point: the next digest advertises exactly the cut, and the
// following delta resumes from there. Out-of-order emission would let the
// digest max leapfrog unsent versions and stall convergence forever.

/// One line of an anti-entropy digest: the highest `(incarnation, version)`
/// the sender holds for `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestLine {
    pub node: NodeId,
    pub incarnation: u32,
    pub max_version: u64,
}

/// Bytes each digest line occupies on the wire.
pub const DIGEST_LINE_BYTES: usize = 16;

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

/// One versioned entry of an anti-entropy delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEntry {
    pub node: NodeId,
    pub incarnation: u32,
    pub version: u64,
    pub value: DeltaValue,
}

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

/// Encodes an anti-entropy digest frame. Digests summarize whole states and
/// are not budget-packed, so [`MAX_FRAME`] is the only cap.
pub fn encode_digest(from: NodeId, lines: &[DigestLine]) -> Result<Bytes, FrameTooLarge> {
    let mut buf =
        BytesMut::with_capacity(ANTI_ENTROPY_HEADER_BYTES + lines.len() * DIGEST_LINE_BYTES);
    buf.put_u8(wire::DIGEST);
    buf.put_u32_le(from);
    buf.put_u32_le(wire_count_u32(lines.len(), "digest line count"));
    for line in lines {
        buf.put_u32_le(line.node);
        buf.put_u32_le(line.incarnation);
        buf.put_u64_le(line.max_version);
    }
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_digest`].
pub fn decode_digest(mut buf: &[u8]) -> Result<(NodeId, Vec<DigestLine>), DecodeError> {
    if buf.remaining() < ANTI_ENTROPY_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != wire::DIGEST {
        return Err(DecodeError::BadTag(tag));
    }
    let from = buf.get_u32_le();
    let count = buf.get_u32_le() as usize;
    let mut lines = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        if buf.remaining() < DIGEST_LINE_BYTES {
            return Err(DecodeError::Truncated);
        }
        lines.push(DigestLine {
            node: buf.get_u32_le(),
            incarnation: buf.get_u32_le(),
            max_version: buf.get_u64_le(),
        });
    }
    Ok((from, lines))
}

/// Encodes an anti-entropy delta frame. The caller is responsible for
/// budget-packing the entry list ([`DeltaEntry::wire_bytes`] +
/// [`ANTI_ENTROPY_HEADER_BYTES`] give exact sizes); [`MAX_FRAME`] still
/// applies as the transport's hard cap.
pub fn encode_delta(from: NodeId, entries: &[DeltaEntry]) -> Result<Bytes, FrameTooLarge> {
    let mut buf = BytesMut::with_capacity(ANTI_ENTROPY_HEADER_BYTES + entries.len() * 25);
    buf.put_u8(wire::DELTA);
    buf.put_u32_le(from);
    buf.put_u32_le(wire_count_u32(entries.len(), "delta entry count"));
    for entry in entries {
        buf.put_u32_le(entry.node);
        buf.put_u32_le(entry.incarnation);
        buf.put_u64_le(entry.version);
        match entry.value {
            DeltaValue::Heartbeat(cycle) => {
                buf.put_u8(0);
                buf.put_u32_le(cycle);
            }
            DeltaValue::ProfileDigest(digest) => {
                buf.put_u8(1);
                buf.put_u64_le(digest);
            }
            DeltaValue::NewsKey { item, published_at } => {
                buf.put_u8(2);
                buf.put_u32_le(item);
                buf.put_u32_le(published_at);
            }
        }
    }
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_delta`].
pub fn decode_delta(mut buf: &[u8]) -> Result<(NodeId, Vec<DeltaEntry>), DecodeError> {
    if buf.remaining() < ANTI_ENTROPY_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != wire::DELTA {
        return Err(DecodeError::BadTag(tag));
    }
    let from = buf.get_u32_le();
    let count = buf.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        if buf.remaining() < 17 {
            return Err(DecodeError::Truncated);
        }
        let node = buf.get_u32_le();
        let incarnation = buf.get_u32_le();
        let version = buf.get_u64_le();
        let kind = buf.get_u8();
        let value = match kind {
            0 => {
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                DeltaValue::Heartbeat(buf.get_u32_le())
            }
            1 => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                DeltaValue::ProfileDigest(buf.get_u64_le())
            }
            2 => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                DeltaValue::NewsKey {
                    item: buf.get_u32_le(),
                    published_at: buf.get_u32_le(),
                }
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        entries.push(DeltaEntry {
            node,
            incarnation,
            version,
            value,
        });
    }
    Ok((from, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::ItemId;

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
            let (from, wire) = decode(&frame).unwrap();
            assert_eq!(from, 42);
            assert_eq!(wire.try_into_payload().unwrap(), payload);
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
        let (from, wire) = decode(&frame).unwrap();
        assert_eq!(from, 1);
        let decoded = wire.try_into_payload().unwrap();
        assert_eq!(decoded, payload, "id recomputed from content must match");
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
    fn bundle_is_not_a_payload() {
        let frame = encode_bundle(0, &[], |_| None);
        let (_, wire) = decode(&frame).unwrap();
        assert_eq!(wire.try_into_payload(), Err(DecodeError::BundlePayload));
    }

    #[test]
    fn hand_built_gossip_kind_is_a_typed_error() {
        // `decode` never produces this, but a hand-assembled WireMessage
        // can — the conversion must not be a panic site.
        let wire = WireMessage::Gossip {
            kind: 0xEE,
            descriptors: vec![],
        };
        assert_eq!(wire.try_into_payload(), Err(DecodeError::BadTag(0xEE)));
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
        let entries = vec![(5u32, 1u32, news.clone()), (6u32, 2u32, gossip.clone())];
        let content = item.clone();
        let frame = encode_bundle(3, &entries, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        });
        let (shard, wire) = decode(&frame).unwrap();
        assert_eq!(shard, 3);
        let WireMessage::Bundle(decoded) = wire else {
            panic!("expected bundle")
        };
        assert_eq!(decoded.len(), 2);
        assert_eq!((decoded[0].to, decoded[0].from), (5, 1));
        assert_eq!((decoded[1].to, decoded[1].from), (6, 2));
        assert_eq!(decoded[0].message.clone().try_into_payload().unwrap(), news);
        assert_eq!(
            decoded[1].message.clone().try_into_payload().unwrap(),
            gossip
        );
    }

    #[test]
    fn empty_bundle_roundtrips() {
        let frame = encode_bundle(0, &[], |_| None);
        let (_, wire) = decode(&frame).unwrap();
        assert_eq!(wire, WireMessage::Bundle(vec![]));
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
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut} must fail");
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
