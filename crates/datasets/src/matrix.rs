//! The like matrix: ground-truth `(user, item) → like?` relation.
//!
//! Stored as a row-major bitset (one row per user). At paper scale the
//! largest matrix is 3180 × 2000 bits ≈ 800 kB — small enough to clone per
//! experiment, large enough that a `Vec<Vec<bool>>` would hurt. It is the
//! one form of the ground truth: the oracle holds it, a worker gets its words.

/// A dense boolean matrix over `users × items`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikeMatrix {
    n_users: usize,
    n_items: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl LikeMatrix {
    /// All-dislike matrix of the given shape.
    pub fn new(n_users: usize, n_items: usize) -> Self {
        let words_per_row = n_items.div_ceil(64);
        Self {
            n_users,
            n_items,
            words_per_row,
            bits: vec![0; n_users * words_per_row],
        }
    }

    pub fn n_users(&self) -> usize {
        self.n_users
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    #[inline]
    fn index(&self, user: usize, item: usize) -> (usize, u64) {
        debug_assert!(
            user < self.n_users && item < self.n_items,
            "index out of range"
        );
        (user * self.words_per_row + item / 64, 1u64 << (item % 64))
    }

    /// Whether `user` likes `item`.
    #[inline]
    pub fn likes(&self, user: usize, item: usize) -> bool {
        let (w, mask) = self.index(user, item);
        self.bits[w] & mask != 0
    }

    /// Sets the like bit.
    pub fn set(&mut self, user: usize, item: usize, liked: bool) {
        let (w, mask) = self.index(user, item);
        if liked {
            self.bits[w] |= mask;
        } else {
            self.bits[w] &= !mask;
        }
    }

    /// The raw row-major bit words (serialization support; pair with
    /// [`LikeMatrix::from_words`]).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a matrix from its shape and raw words; `None` if `words`
    /// does not match the shape.
    pub fn from_words(n_users: usize, n_items: usize, words: Vec<u64>) -> Option<Self> {
        let words_per_row = n_items.div_ceil(64);
        (n_users.checked_mul(words_per_row) == Some(words.len())).then_some(Self {
            n_users,
            n_items,
            words_per_row,
            bits: words,
        })
    }

    /// Users that like `item`.
    pub fn interested_users(&self, item: usize) -> Vec<u32> {
        (0..self.n_users)
            .filter(|&u| self.likes(u, item))
            .map(|u| u as u32)
            .collect()
    }

    /// Number of users that like `item`.
    pub fn interested_count(&self, item: usize) -> usize {
        (0..self.n_users).filter(|&u| self.likes(u, item)).count()
    }

    /// Popularity of `item`: fraction of users that like it (Fig. 10 x-axis).
    pub fn popularity(&self, item: usize) -> f64 {
        if self.n_users == 0 {
            return 0.0;
        }
        self.interested_count(item) as f64 / self.n_users as f64
    }

    /// Number of items `user` likes.
    fn user_like_count(&self, user: usize) -> usize {
        let row = &self.bits[user * self.words_per_row..(user + 1) * self.words_per_row];
        row.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overall like rate of the matrix (homogeneous-gossip precision floor).
    pub fn like_rate(&self) -> f64 {
        let total: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        let cells = self.n_users * self.n_items;
        if cells == 0 {
            0.0
        } else {
            total as f64 / cells as f64
        }
    }

    /// Number of common likes between two users (cosine numerator over
    /// ground-truth binary vectors).
    fn common_likes(&self, a: usize, b: usize) -> usize {
        let ra = &self.bits[a * self.words_per_row..(a + 1) * self.words_per_row];
        let rb = &self.bits[b * self.words_per_row..(b + 1) * self.words_per_row];
        ra.iter()
            .zip(rb)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Ground-truth cosine similarity between two users' like vectors.
    fn user_cosine(&self, a: usize, b: usize) -> f64 {
        let common = self.common_likes(a, b) as f64;
        let (la, lb) = (
            self.user_like_count(a) as f64,
            self.user_like_count(b) as f64,
        );
        if la == 0.0 || lb == 0.0 {
            0.0
        } else {
            common / (la.sqrt() * lb.sqrt())
        }
    }

    /// Sociability of a user (§V-H): mean ground-truth similarity to the `k`
    /// most similar other users.
    pub fn sociability(&self, user: usize, k: usize) -> f64 {
        let mut sims: Vec<f64> = (0..self.n_users)
            .filter(|&v| v != user)
            .map(|v| self.user_cosine(user, v))
            .collect();
        sims.sort_by(|a, b| b.partial_cmp(a).expect("similarity is never NaN"));
        sims.truncate(k);
        if sims.is_empty() {
            0.0
        } else {
            sims.iter().sum::<f64>() / sims.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = LikeMatrix::new(3, 130); // spans three words per row
        m.set(0, 0, true);
        m.set(1, 64, true);
        m.set(2, 129, true);
        assert!(m.likes(0, 0));
        assert!(m.likes(1, 64));
        assert!(m.likes(2, 129));
        assert!(!m.likes(0, 1));
        m.set(0, 0, false);
        assert!(!m.likes(0, 0));
        let words = m.words().to_vec();
        assert_eq!(LikeMatrix::from_words(3, 130, words.clone()), Some(m));
        assert_eq!(LikeMatrix::from_words(3, 128, words.clone()), None);
        assert_eq!(LikeMatrix::from_words(usize::MAX, 130, words), None);
    }

    #[test]
    fn popularity_and_counts() {
        let mut m = LikeMatrix::new(4, 2);
        m.set(0, 0, true);
        m.set(1, 0, true);
        m.set(2, 1, true);
        assert_eq!(m.interested_count(0), 2);
        assert_eq!(m.interested_users(0), vec![0, 1]);
        assert!((m.popularity(0) - 0.5).abs() < 1e-12);
        assert!((m.like_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(m.user_like_count(0), 1);
    }

    #[test]
    fn cosine_ground_truth() {
        let mut m = LikeMatrix::new(2, 4);
        for i in 0..2 {
            m.set(0, i, true);
        }
        for i in 1..3 {
            m.set(1, i, true);
        }
        // common = 1, norms = √2 each → 0.5
        assert!((m.user_cosine(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(m.common_likes(0, 1), 1);
    }

    #[test]
    fn cosine_handles_empty_rows() {
        let m = LikeMatrix::new(2, 4);
        assert_eq!(m.user_cosine(0, 1), 0.0);
    }

    #[test]
    fn sociability_averages_top_k() {
        let mut m = LikeMatrix::new(3, 2);
        m.set(0, 0, true);
        m.set(1, 0, true); // identical to user 0
        m.set(2, 1, true); // disjoint
        assert!((m.sociability(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.sociability(0, 2) - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn like_rate_matches_manual_count(
            ops in prop::collection::vec((0usize..5, 0usize..70, prop::bool::ANY), 0..100)
        ) {
            let mut m = LikeMatrix::new(5, 70);
            let mut reference = std::collections::HashSet::new();
            for (u, i, liked) in ops {
                m.set(u, i, liked);
                if liked {
                    reference.insert((u, i));
                } else {
                    reference.remove(&(u, i));
                }
            }
            let expected = reference.len() as f64 / (5.0 * 70.0);
            prop_assert!((m.like_rate() - expected).abs() < 1e-12);
        }

        #[test]
        fn cosine_is_symmetric_and_bounded(
            likes_a in prop::collection::btree_set(0usize..40, 0..20),
            likes_b in prop::collection::btree_set(0usize..40, 0..20),
        ) {
            let mut m = LikeMatrix::new(2, 40);
            for &i in &likes_a { m.set(0, i, true); }
            for &i in &likes_b { m.set(1, i, true); }
            let ab = m.user_cosine(0, 1);
            let ba = m.user_cosine(1, 0);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        }
    }
}
