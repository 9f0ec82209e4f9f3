//! The workspace's one binary codec.
//!
//! Every frame any wire carries — the peers' datagrams ([`crate::codec`])
//! and the simulator's shard exchange alike — is built from [`Wire`]
//! values: the scalars, `Bytes`, `String`, `Vec`, `Option`, `Arc` and pairs
//! implement it here, and every other type declares its layout once with
//! [`wire_codec!`](crate::wire_codec), next to its definition — both
//! directions are generated from that one field list, so an encoder and its
//! decoder cannot drift.
//!
//! ```text
//! u8 u16 u32 u64 f32 f64  little-endian
//! bool                    u8, 0 or 1
//! usize                   u32 (checked narrowing on encode)
//! Bytes                   len:u32 bytes
//! String                  len:u16 utf-8
//! Vec<T>                  count:u32 T*
//! Option<T>               0:u8 | 1:u8 T
//! Arc<T>                  T
//! (A, B)                  A B
//! struct                  its fields in declaration order
//! enum                    tag:u8, then the variant's fields
//! ```
//!
//! Gossip's two datagram-bounded lists count in a `u16` instead and are the
//! only layouts written by hand here: a [`Profile`] (`len:u16 entry*`,
//! every score checked) and a descriptor list (`count:u16 (node:u32 age:u32
//! profile)*`). The core types that cross any wire are declared below,
//! because only this crate may implement its trait for them.
//!
//! Decoding is total: truncated input, an unknown tag, bad utf-8, a count
//! the remaining bytes cannot hold (refused before anything is allocated)
//! or a value its type's constructor refuses is a [`DecodeError`], never a
//! panic.

use crate::codec::{wire_count_u16, wire_count_u32, DecodeError};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::Arc;
use whatsup_core::beep::{BeepConfig, DislikeRule, TargetPool};
use whatsup_core::{
    ColdStart, Descriptor, Metric, NewsItem, NodeStats, Params, Profile, ProfileEntry, RpsConfig,
    SharedProfile,
};

/// A value with one binary form: `take` reads back exactly what `put`
/// wrote.
pub trait Wire: Sized {
    /// A lower bound on the encoded size in bytes: a `Vec` count is
    /// checked against it before the vector is allocated.
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut);

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Encodes `value` as one frame.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(256);
    value.put(&mut buf);
    buf.into()
}

/// Decodes a frame holding exactly one `T`: bytes left over are an error.
pub fn decode<T: Wire>(mut frame: &[u8]) -> Result<T, DecodeError> {
    let value = T::take(&mut frame)?;
    ensure(frame.is_empty(), "bytes after the last field")?;
    Ok(value)
}

/// `Err(Invalid(what))` unless `ok`: a decoded value broke an invariant.
pub fn ensure(ok: bool, what: &'static str) -> Result<(), DecodeError> {
    ok.then_some(()).ok_or(DecodeError::Invalid(what))
}

/// Declares a type's binary form once, generating its [`Wire`] impl.
///
/// A struct is its fields in the order listed, which must name them all:
/// `struct Outbound { sent, local, bundles }`. An enum is a `u8` tag, then
/// the variant's fields: `enum ChurnModel { 0 => None, 1 => Uniform {
/// per_cycle } }`; a tuple variant binds its fields by position,
/// `8 => Checkpoint(frame)`. An unknown tag decodes to
/// [`DecodeError::BadTag`].
#[macro_export]
macro_rules! wire_codec {
    (struct $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::wire::Wire::put(&self.$field, buf);)+
            }

            fn take(buf: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                $(let $field = $crate::wire::Wire::take(buf)?;)+
                Ok(Self { $($field),+ })
            }
        }
    };
    (enum $ty:ty {
        $($tag:literal => $variant:ident
            $({ $($field:ident),+ $(,)? })?
            $(( $($pos:ident),+ ))?
        ),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))? => {
                        <u8 as $crate::wire::Wire>::put(&$tag, buf);
                        $($($crate::wire::Wire::put($field, buf);)+)?
                        $($($crate::wire::Wire::put($pos, buf);)+)?
                    })+
                }
            }

            fn take(buf: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                match <u8 as $crate::wire::Wire>::take(buf)? {
                    $($tag => {
                        $($(let $field = $crate::wire::Wire::take(buf)?;)+)?
                        $($(let $pos = $crate::wire::Wire::take(buf)?;)+)?
                        Ok(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))?)
                    })+
                    other => Err($crate::codec::DecodeError::BadTag(other)),
                }
            }
        }
    };
}

/// The next `N` bytes.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = (*buf).split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// The next `len` bytes, borrowed from the frame.
pub(crate) fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
    let (head, rest) = (*buf).split_at_checked(len).ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(head)
}

macro_rules! le_bytes {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            fn put(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                take_array(buf).map(<$ty>::from_le_bytes)
            }
        }
    )+};
}
le_bytes!(u8, u16, u32, u64, f32, f64);

impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        u8::from(*self).put(buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::take(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

impl Wire for usize {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        wire_count_u32(*self, "length, count or size").put(buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        u32::take(buf).map(|n| n as usize)
    }
}

impl Wire for Bytes {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        self.len().put(buf);
        buf.put_slice(self);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = usize::take(buf)?;
        take_slice(buf, len).map(Bytes::copy_from_slice)
    }
}

impl Wire for String {
    const MIN_LEN: usize = 2;

    fn put(&self, buf: &mut BytesMut) {
        wire_count_u16(self.len(), "string field length").put(buf);
        buf.put_slice(self.as_bytes());
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u16::take(buf)?;
        let bytes = take_slice(buf, usize::from(len))?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Writes `items` the way a `Vec` is written.
pub fn put_seq<T: Wire>(items: &[T], buf: &mut BytesMut) {
    items.len().put(buf);
    for item in items {
        item.put(buf);
    }
}

/// `count` values of `T`, refused before allocating when the remaining
/// bytes cannot hold them.
fn take_seq<T: Wire>(buf: &mut &[u8], count: usize) -> Result<Vec<T>, DecodeError> {
    if count.saturating_mul(T::MIN_LEN) > buf.len() {
        return Err(DecodeError::Truncated);
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(T::take(buf)?);
    }
    Ok(items)
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        put_seq(self, buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let count = usize::take(buf)?;
        take_seq(buf, count)
    }
}

/// A `bool` tag, then the value when there is one.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        bool::take(buf)?.then(|| T::take(buf)).transpose()
    }
}

impl<T: Wire> Wire for Arc<T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        T::put(self, buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        T::take(buf).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::take(buf)?, B::take(buf)?))
    }
}

// ---------------------------------------------------------------------------
// Core types
// ---------------------------------------------------------------------------

// In a news frame's order; receivers recompute the id from this content.
crate::wire_codec! { struct NewsItem { source, created_at, title, description, link } }
crate::wire_codec! { struct ProfileEntry { item, timestamp, score } }

/// A [`ProfileEntry`]'s encoded size: `item:u64 timestamp:u32 score:f32`.
const ENTRY_BYTES: usize = 16;

/// `len:u16 entry*`. A score that is not a finite number in `[0, 1]` (the
/// [`Profile`] invariant) is refused: similarity ranks by `partial_cmp`
/// and expects it to succeed, so one `NaN` would be one datagram that
/// panics the receiver.
impl Wire for Profile {
    const MIN_LEN: usize = 2;

    fn put(&self, buf: &mut BytesMut) {
        wire_count_u16(self.len(), "profile entry count").put(buf);
        self.entries().for_each(|e| e.put(buf));
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        // Sliced once up front, so reading an entry cannot run short.
        let len = usize::from(u16::take(buf)?);
        let bytes = take_slice(buf, len * ENTRY_BYTES)?;
        let mut entries = Vec::with_capacity(len);
        for mut span in bytes.chunks_exact(ENTRY_BYTES) {
            let entry = ProfileEntry::take(&mut span)?;
            if !(0.0..=1.0).contains(&entry.score) {
                return Err(DecodeError::BadScore(entry.score.to_bits()));
            }
            entries.push(entry);
        }
        // Wire profiles are serialized from sorted storage, so this takes
        // the allocation-reusing sorted path on every well-formed frame.
        Ok(Profile::from_vec(entries))
    }
}

/// A gossip view, `count:u16 (node:u32 age:u32 profile)*`.
impl Wire for Vec<Descriptor<SharedProfile>> {
    const MIN_LEN: usize = 2;

    fn put(&self, buf: &mut BytesMut) {
        wire_count_u16(self.len(), "descriptor count").put(buf);
        for d in self {
            (d.node, d.age).put(buf);
            d.payload.put(buf);
        }
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let count = u16::take(buf)?;
        // Each takes 10 bytes at least: node, age and an empty profile.
        let mut descriptors = Vec::with_capacity(usize::from(count).min(buf.len() / 10));
        for _ in 0..count {
            let (node, age) = Wire::take(buf)?;
            let payload = Wire::take(buf)?;
            descriptors.push(Descriptor { node, age, payload });
        }
        Ok(descriptors)
    }
}

crate::wire_codec! { struct ColdStart { rps_view, wup_view } }

crate::wire_codec! {
    struct Params {
        rps, rps_period, wup_view_size, metric, profile_window, beep, cold_start_items,
        obfuscation_epsilon,
    }
}
crate::wire_codec! { struct RpsConfig { view_size, exchange_len } }
crate::wire_codec! { struct BeepConfig { f_like, like_pool, like_entire_view, dislike } }
crate::wire_codec! { enum Metric { 0 => Wup, 1 => Cosine } }
crate::wire_codec! { enum TargetPool { 0 => Wup, 1 => Rps } }
crate::wire_codec! { enum DislikeRule { 0 => Drop, 1 => Forward { fanout, ttl, oriented } } }

crate::wire_codec! {
    struct NodeStats {
        rps_sent, wup_sent, news_sent, news_received, news_duplicates, news_liked, published,
    }
}
