//! Adaptive like storage: dense bit-plane or compressed sparse rows.
//!
//! The dense [`LikeMatrix`] costs `n_users × n_items` **bits** regardless
//! of how many likes exist — ~12.5 GB at 1M users × 100k items. Real
//! interest data is sparse: a user likes O(interests) items, not
//! O(items). [`CsrLikes`] stores exactly the liked `(user, item)` pairs as
//! per-user sorted item lists behind a prefix-offset index — the classic
//! CSR layout — at 4 bytes per like plus 4 bytes per user.
//!
//! [`LikeStore`] picks whichever representation is smaller **by measured
//! byte cost** (not a density heuristic), so genuinely dense datasets —
//! the paper's survey traces run ~35% like rate over ~100 items, where
//! the bit-plane wins — keep the dense form and its O(1) probes, while
//! item-rich populations switch to CSR. Both answer `likes` identically;
//! the choice is invisible to the simulation (and bit-identity tests pin
//! it so).

use crate::matrix::LikeMatrix;

/// Compressed sparse-row likes: row `u`'s liked item indices are
/// `items[offsets[u] .. offsets[u + 1]]`, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrLikes {
    n_items: usize,
    /// `n_users + 1` prefix offsets into [`Self::items`].
    offsets: Vec<u32>,
    /// Liked item indices, ascending within each row.
    items: Vec<u32>,
}

impl CsrLikes {
    /// Builds from a dense matrix (row order preserved).
    pub fn from_matrix(m: &LikeMatrix) -> Self {
        let mut offsets = Vec::with_capacity(m.n_users() + 1);
        let mut items = Vec::new();
        offsets.push(0u32);
        for user in 0..m.n_users() {
            for item in 0..m.n_items() {
                if m.likes(user, item) {
                    items.push(item as u32);
                }
            }
            offsets.push(items.len() as u32);
        }
        Self {
            n_items: m.n_items(),
            offsets,
            items,
        }
    }

    /// Rebuilds from wire parts; `None` unless the offsets are a monotone
    /// prefix index over `items` starting at 0.
    pub fn from_parts(n_items: usize, offsets: Vec<u32>, items: Vec<u32>) -> Option<Self> {
        let valid = offsets.first() == Some(&0)
            && offsets.last().map(|&end| end as usize) == Some(items.len())
            && offsets.windows(2).all(|w| w[0] <= w[1]);
        valid.then_some(Self {
            n_items,
            offsets,
            items,
        })
    }

    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Row `user`'s liked item indices, ascending.
    pub fn row(&self, user: usize) -> &[u32] {
        let lo = self.offsets[user] as usize;
        let hi = self.offsets[user + 1] as usize;
        &self.items[lo..hi]
    }

    pub fn likes(&self, user: usize, item: usize) -> bool {
        self.row(user).binary_search(&(item as u32)).is_ok()
    }

    /// Total number of likes.
    pub fn nnz(&self) -> usize {
        self.items.len()
    }
}

/// Like storage in whichever representation costs fewer bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum LikeStore {
    Dense(LikeMatrix),
    Sparse(CsrLikes),
}

impl LikeStore {
    /// Chooses the smaller representation for `m` by actual byte cost.
    pub fn from_matrix(m: &LikeMatrix) -> Self {
        let dense_bytes = 8 * m.words().len();
        let nnz: usize = m.words().iter().map(|w| w.count_ones() as usize).sum();
        let sparse_bytes = 4 * (m.n_users() + 1 + nnz);
        if sparse_bytes < dense_bytes {
            Self::Sparse(CsrLikes::from_matrix(m))
        } else {
            Self::Dense(m.clone())
        }
    }

    pub fn n_users(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_users(),
            Self::Sparse(c) => c.n_users(),
        }
    }

    pub fn n_items(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_items(),
            Self::Sparse(c) => c.n_items(),
        }
    }

    pub fn likes(&self, user: usize, item: usize) -> bool {
        match self {
            Self::Dense(m) => m.likes(user, item),
            Self::Sparse(c) => c.likes(user, item),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n_users: usize, n_items: usize, f: impl Fn(usize, usize) -> bool) -> LikeMatrix {
        let mut m = LikeMatrix::new(n_users, n_items);
        for u in 0..n_users {
            for i in 0..n_items {
                if f(u, i) {
                    m.set(u, i, true);
                }
            }
        }
        m
    }

    #[test]
    fn csr_answers_like_the_matrix() {
        let m = matrix(17, 130, |u, i| (u * 31 + i * 7) % 5 == 0);
        let c = CsrLikes::from_matrix(&m);
        assert_eq!(c.n_users(), 17);
        assert_eq!(c.n_items(), 130);
        for u in 0..17 {
            for i in 0..130 {
                assert_eq!(c.likes(u, i), m.likes(u, i), "({u},{i})");
            }
        }
    }

    #[test]
    fn store_picks_by_byte_cost() {
        // Dense-ish: 35% of 100 items liked → bit-plane (16 B/row) beats
        // CSR (~140 B/row).
        let dense = matrix(10, 100, |u, i| (u + i) % 3 == 0);
        assert!(matches!(
            LikeStore::from_matrix(&dense),
            LikeStore::Dense(_)
        ));
        // Sparse: 3 likes over 10_000 items → CSR (~16 B/row) beats the
        // bit-plane (1250 B/row).
        let sparse = matrix(10, 10_000, |_, i| i < 3);
        assert!(matches!(
            LikeStore::from_matrix(&sparse),
            LikeStore::Sparse(_)
        ));
    }

    #[test]
    fn csr_roundtrips_through_parts() {
        let m = matrix(9, 4_000, |u, i| i % (u + 2) == 0 && i % 97 == 0);
        let c = CsrLikes::from_matrix(&m);
        let r = CsrLikes::from_parts(c.n_items(), c.offsets().to_vec(), c.items().to_vec());
        assert_eq!(Some(c), r);
    }

    #[test]
    fn malformed_offsets_rejected() {
        assert_eq!(
            CsrLikes::from_parts(10, vec![0, 5, 2, 6], (0..6).collect()),
            None
        );
        assert_eq!(CsrLikes::from_parts(10, vec![1, 6], (0..6).collect()), None);
        assert_eq!(CsrLikes::from_parts(10, vec![0, 5], (0..6).collect()), None);
        assert_eq!(CsrLikes::from_parts(10, vec![], vec![]), None);
    }
}
