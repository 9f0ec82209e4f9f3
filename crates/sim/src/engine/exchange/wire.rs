//! The shard exchange's hand-written layouts.
//!
//! Every other command, reply, init and checkpoint layout is declared with
//! `whatsup_net`'s `wire_codec!` next to its type, in the one binary codec
//! `whatsup_net::wire` defines (its docs tabulate the encoding). These two
//! are written by hand: [`Partition`] travels as its boundaries, and
//! [`Oracle`] in canonical id-map order behind a dense/sparse tag.

use crate::engine::partition::Partition;
use crate::oracle::Oracle;
use bytes::BytesMut;
use whatsup_core::{ItemId, ItemIndexMap};
use whatsup_datasets::{CsrLikes, LikeMatrix, LikeStore};
use whatsup_net::codec::DecodeError;
use whatsup_net::wire::{put_seq, Wire};

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
