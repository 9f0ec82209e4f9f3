//! The shard exchange's one binary codec.
//!
//! Every command, reply, init and checkpoint frame is a [`Wire`] value:
//! the scalars, `Bytes`, `String`, `Vec`, `Option` and pairs implement it
//! here, and every other type declares its layout once with
//! [`wire_codec!`], next to its definition — both directions are generated
//! from that one field list, so an encoder and its decoder cannot drift.
//!
//! ```text
//! u8 u16 u32 u64 f64  little-endian
//! bool                u8, 0 or 1
//! usize               u32 (checked narrowing on encode)
//! Bytes               len:u32 bytes
//! String              len:u16 utf-8
//! Vec<T>              count:u32 T*
//! Option<T>           0:u8 | 1:u8 T
//! (A, B)              A B
//! struct              its fields in declaration order
//! enum                tag:u8, then the variant's fields
//! ```
//!
//! Decoding is total: truncated input, an unknown tag, bad utf-8, a count
//! the remaining bytes cannot hold (refused before anything is allocated)
//! or a value its type's constructor refuses is a [`DecodeError`], never a
//! panic. Written by hand: [`Partition`] and [`Oracle`] (canonical id-map
//! order, dense/sparse tag), and the view and profile adapters, which keep
//! `whatsup_net::codec`'s gossip encodings.

use crate::engine::partition::Partition;
use crate::oracle::{ItemIndexMap, Oracle};
use bytes::{BufMut, Bytes, BytesMut};
use whatsup_core::{ColdStart, ItemId, Profile};
use whatsup_datasets::{CsrLikes, LikeMatrix, LikeStore};
use whatsup_net::codec::{self, DecodeError};

/// A value with one binary form: `take` reads back exactly what `put`
/// wrote.
pub(crate) trait Wire: Sized {
    /// A lower bound on the encoded size in bytes: a `Vec` count is
    /// checked against it before the vector is allocated.
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut);

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Encodes `value` as one frame.
pub(crate) fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(256);
    value.put(&mut buf);
    buf.into()
}

/// Decodes a frame holding exactly one `T`: bytes left over are an error.
pub(crate) fn decode<T: Wire>(mut frame: &[u8]) -> Result<T, DecodeError> {
    let value = T::take(&mut frame)?;
    ensure(frame.is_empty(), "bytes after the last field")?;
    Ok(value)
}

/// `Err(Invalid(what))` unless `ok`: a decoded value broke an invariant.
pub(crate) fn ensure(ok: bool, what: &'static str) -> Result<(), DecodeError> {
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
macro_rules! wire_codec {
    (struct $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::engine::exchange::Wire for $ty {
            fn put(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::engine::exchange::Wire::put(&self.$field, buf);)+
            }

            fn take(buf: &mut &[u8]) -> Result<Self, ::whatsup_net::codec::DecodeError> {
                $(let $field = $crate::engine::exchange::Wire::take(buf)?;)+
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
        impl $crate::engine::exchange::Wire for $ty {
            fn put(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))? => {
                        <u8 as $crate::engine::exchange::Wire>::put(&$tag, buf);
                        $($($crate::engine::exchange::Wire::put($field, buf);)+)?
                        $($($crate::engine::exchange::Wire::put($pos, buf);)+)?
                    })+
                }
            }

            fn take(buf: &mut &[u8]) -> Result<Self, ::whatsup_net::codec::DecodeError> {
                match <u8 as $crate::engine::exchange::Wire>::take(buf)? {
                    $($tag => {
                        $($(let $field = $crate::engine::exchange::Wire::take(buf)?;)+)?
                        $($(let $pos = $crate::engine::exchange::Wire::take(buf)?;)+)?
                        Ok(Self::$variant $({ $($field),+ })? $(( $($pos),+ ))?)
                    })+
                    other => Err(::whatsup_net::codec::DecodeError::BadTag(other)),
                }
            }
        }
    };
}
pub(crate) use wire_codec;

/// The next `N` bytes.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = (*buf).split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// The next `len` bytes.
fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
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
le_bytes!(u8, u16, u32, u64, f64);

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
        codec::wire_count_u32(*self, "length, count or size").put(buf);
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
        codec::wire_count_u16(self.len(), "string field length").put(buf);
        buf.put_slice(self.as_bytes());
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u16::take(buf)?;
        let bytes = take_slice(buf, usize::from(len))?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Writes `items` the way a `Vec` is written.
fn put_seq<T: Wire>(items: &[T], buf: &mut BytesMut) {
    items.len().put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        put_seq(self, buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let count = usize::take(buf)?;
        if count.saturating_mul(T::MIN_LEN) > buf.len() {
            return Err(DecodeError::Truncated);
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::take(buf)?);
        }
        Ok(items)
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

/// A view snapshot: the two descriptor lists in `whatsup_net::codec`'s
/// gossip encoding.
impl Wire for ColdStart {
    fn put(&self, buf: &mut BytesMut) {
        codec::put_descriptors(buf, &self.rps_view);
        codec::put_descriptors(buf, &self.wup_view);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let rps_view = codec::get_descriptors(buf)?;
        let wup_view = codec::get_descriptors(buf)?;
        Ok(ColdStart { rps_view, wup_view })
    }
}

/// A profile in `whatsup_net::codec`'s encoding, scores checked.
impl Wire for Profile {
    fn put(&self, buf: &mut BytesMut) {
        codec::put_profile(buf, self);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        codec::get_profile(buf)
    }
}

/// The boundaries, as a `Vec`.
impl Wire for Partition {
    fn put(&self, buf: &mut BytesMut) {
        put_seq(self.starts(), buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Partition::from_starts(Vec::take(buf)?).ok_or(DecodeError::Invalid("partition boundaries"))
    }
}

/// One tag byte selects the like-store form, which travels as-is, so a
/// worker rebuilds the exact store the driver measured cheaper:
///
/// ```text
/// dense  := 0:u8 n_users:u32 n_items:u32 words:Vec<u64>
/// sparse := 1:u8 n_items:u32 offsets:Vec<u32> items:Vec<u32>
/// oracle := (dense | sparse) ids:Vec<(u64, u32)> alias:Vec<u32>
/// ```
///
/// The sparse offsets omit the leading 0. The id map travels sorted (a
/// `HashMap` iterates in no fixed order), so equal oracles encode to
/// equal bytes.
impl Wire for Oracle {
    fn put(&self, buf: &mut BytesMut) {
        match self.store() {
            LikeStore::Dense(m) => {
                0u8.put(buf);
                m.n_users().put(buf);
                m.n_items().put(buf);
                put_seq(m.words(), buf);
            }
            LikeStore::Sparse(c) => {
                1u8.put(buf);
                c.n_items().put(buf);
                put_seq(c.offsets().get(1..).unwrap_or_default(), buf);
                put_seq(c.items(), buf);
            }
        }
        let mut ids: Vec<(ItemId, u32)> = self.id_map().iter().map(|(&k, &v)| (k, v)).collect();
        ids.sort_unstable();
        ids.put(buf);
        put_seq(self.alias(), buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let store = match u8::take(buf)? {
            0 => {
                let (n_users, n_items) = (usize::take(buf)?, usize::take(buf)?);
                LikeMatrix::from_words(n_users, n_items, Vec::take(buf)?).map(LikeStore::Dense)
            }
            1 => {
                let n_items = usize::take(buf)?;
                let offsets = [vec![0], Vec::take(buf)?].concat();
                CsrLikes::from_parts(n_items, offsets, Vec::take(buf)?).map(LikeStore::Sparse)
            }
            other => return Err(DecodeError::BadTag(other)),
        }
        .ok_or(DecodeError::Invalid("like-store shape"))?;
        let ids: Vec<(ItemId, u32)> = Vec::take(buf)?;
        let ids: ItemIndexMap = ids.into_iter().collect();
        Oracle::restore(store, ids, Vec::take(buf)?).ok_or(DecodeError::Invalid(
            "oracle row or item past the like store",
        ))
    }
}
