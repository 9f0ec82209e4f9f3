//! The shard exchange's hand-written layouts.
//!
//! Every other command, reply, init and checkpoint layout is declared with
//! `whatsup_net`'s `wire_codec!` next to its type, in the one binary codec
//! `whatsup_net::wire` defines (its docs tabulate the encoding). These two
//! are written by hand: [`Partition`] travels as its boundaries, and
//! [`Oracle`] in canonical id-map order.

use crate::engine::partition::Partition;
use crate::oracle::Oracle;
use bytes::BytesMut;
use whatsup_core::ItemId;
use whatsup_datasets::LikeMatrix;
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

/// The like matrix, then the item index, its creation times and the
/// alias:
///
/// ```text
/// oracle := n_users:u32 n_items:u32 words:Vec<u64> ids:Vec<(u64, u32)>
///           created:Vec<u32> alias:Vec<u32>
/// ```
///
/// The id map travels sorted (a `HashMap` iterates in no fixed order), so
/// equal oracles encode to equal bytes, and a decoder refuses ids that are
/// not strictly ascending (`Oracle::restore`). `created[i]` is the
/// creation time of the item `ids[i]` names; a decoder refuses a column
/// of another length than the ids'.
impl Wire for Oracle {
    fn put(&self, buf: &mut BytesMut) {
        let m = self.matrix();
        m.n_users().put(buf);
        m.n_items().put(buf);
        put_seq(m.words(), buf);
        let index = self.id_map();
        let mut ids: Vec<(ItemId, u32)> = index.iter().map(|(&k, &v)| (k, v)).collect();
        ids.sort_unstable();
        ids.put(buf);
        let created: Vec<u32> = ids
            .iter()
            .map(|&(_, slot)| index.created_at(slot))
            .collect();
        put_seq(&created, buf);
        put_seq(self.alias(), buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let (n_users, n_items) = (usize::take(buf)?, usize::take(buf)?);
        let likes = LikeMatrix::from_words(n_users, n_items, Vec::take(buf)?)
            .ok_or(DecodeError::Invalid("like-matrix shape"))?;
        let (ids, created) = (Vec::take(buf)?, Vec::take(buf)?);
        Oracle::restore(likes, ids, created, Vec::take(buf)?).ok_or(DecodeError::Invalid(
            "oracle row past the like matrix, item index not ascending and one-to-one, \
             or creation times not one per item",
        ))
    }
}
