//! Profile similarity metrics (paper §II and §VI).
//!
//! The WUP metric is the paper's first contribution: an *asymmetric* variant
//! of cosine similarity. With `sub(Pn, Pc)` the restriction of `Pn` to the
//! items on which `Pc` expressed an opinion:
//!
//! ```text
//! Similarity(n, c) = sub(Pn,Pc) · Pc / (‖sub(Pn,Pc)‖ · ‖Pc‖)
//! ```
//!
//! For binary profiles the numerator counts items liked by both, the first
//! denominator term counts items liked by `n` *that `c` rated at all* — so a
//! candidate that dislikes what `n` likes is penalized (spam control) — and
//! the second term counts items liked by `c`, favoring candidates with
//! restrictive tastes and boosting small profiles (cold start, §II-D).
//!
//! Cosine similarity, the baseline the paper compares against throughout
//! (CF-Cos, WhatsUp-Cos), is implemented on the same merge-join skeleton.
//!
//! The pairwise functions scan the two profiles' entries in id order —
//! a packed profile's rebuilt first (`crate::profile`) — in one linear
//! merge-join over the common items (`O(|Pn| + |Pc|)`), the very one the
//! [`reference`] runs. [`Prepared`] walks only the pairs its counting
//! paths decline — none past the fingerprint on perfbench's `paper-1shard`,
//! `scale-1shard` or `stress-1shard` (1.67 M, 2.50 M and 1.16 M scores,
//! seed 1) — so the plain join is all its fallback needs.
//!
//! ## Fingerprint fast path
//!
//! Before the scan, every metric consults the profiles' memoized 128-bit
//! Bloom fingerprints (`Profile::fingerprint`): if the two fingerprints
//! share no bit, the profiles share no *rated* item, and each metric is
//! exactly `0.0` without touching an entry —
//!
//! * **wup**: no common item ⇒ `‖sub(Pn,Pc)‖² = 0` ⇒ zero denominator ⇒ 0;
//! * **cosine**: no common item ⇒ `dot = 0` ⇒ `0/denom = +0.0` (or the
//!   zero-denominator guard) — bit-identical to the scan's result.
//!
//! False positives (fingerprints collide but item sets are disjoint) fall
//! through to the exact merge-join; false negatives are impossible, so the
//! fast path never changes a single result bit. The scalar merge-join
//! below stays the exact reference — a property test asserts bit-identical
//! f64 output across random profile pairs.
//!
//! ## One-vs-many scoring
//!
//! Both of the paper's mechanisms rank *many* candidates against *one*
//! profile: a WUP merge scores own view ∪ received view ∪ RPS view (~70
//! snapshots) against the node's profile, and BEEP's dislike path scores
//! the whole RPS view (30) against the item profile, once per disliked
//! first reception. The pairwise functions above re-walk the fixed profile
//! for every candidate, and their merge-join is bound by the branch
//! predictor, not by memory: two ~130-entry profiles sharing ~80 % of
//! their items turn the three-way `cmp` into a near coin flip. The two
//! hot call sites (`WhatsUpNode`'s WUP merge, `beep::select_most_similar_k`)
//! use [`Prepared`], which pays for the fixed side once and then scores a
//! candidate without walking either entry vector — on the counting path
//! below whenever the two profiles allow it, pairwise when they do not.
//! That makes three ways to score a pair: the counting path, the pairwise
//! join, and the scan-only [`reference`] tests hold both to, bit for bit.
//!
//! ## Counting path
//!
//! A *user* profile only ever holds the scores 1 (like) and 0 (dislike)
//! (§II-B); real values exist only in *item* profiles, as averages of 0/1
//! votes. Every candidate of either call site is a user profile, so both
//! sums run over the items the candidate rated and read them off *bit
//! planes* — its rated set and its liked set as bit sets (`crate::planes`):
//!
//! * **Binary fixed side (WUP merge): counts.** `dot = |liked_n ∩
//!   liked_c|`, `‖sub(Pn,Pc)‖² = |liked_n ∩ rated_c|`: planes against
//!   planes, 64 items to an `&` and a `count_ones`.
//! * **Real-valued fixed side (BEEP orientation): integer weights.** The
//!   item profile is laid out by slot, `q[slot] = score · 2²⁰` beside a
//!   mask of the slots it holds, zeros included, and one of those whose
//!   `q` is not 0. A candidate is scored by walking the set bits of its
//!   `rated` plane under the second mask: `‖sub‖² += q²`, and `dot += q`
//!   where the `liked` bit is set (a mask, not a branch). A slot the item
//!   profile does not hold, or holds at 0, adds nothing and is not
//!   visited.
//!
//! Nothing selects a path but the two profiles themselves; the fingerprint
//! rejection stays in front, and the sums feed the same `ratio(..)`
//! expressions, with the same memoized norms, as the walked ones.
//!
//! * **Exactness of counts.** With every score in `{0, 1}` each product
//!   `pn·pc` and `pn·pn` is 0 or 1, so every partial sum of the
//!   reference's accumulation is an integer below 2⁵³: representable,
//!   hence exact, hence independent of the order of the additions. The
//!   count *is* the reference's sum, bit for bit. A `-0.0` score counts as
//!   0 (it is rated and not liked): its products are `±0.0` terms, which
//!   leave an accumulator that started at `+0.0` unchanged. No common item
//!   gives `ratio(0, 0) = +0.0`, what the fingerprint rejection returns.
//! * **Exactness of weights.** The same argument with units. If every
//!   fixed score is `q · 2⁻²⁰` for an integer `0 ≤ q ≤ 2²⁰`, then against
//!   a 0/1 candidate every `pn·pc` is `q · 2⁻²⁰` or a zero and every `pn²`
//!   is `q² · 2⁻⁴⁰`; with at most 2¹³ entries every partial sum of the
//!   reference is a whole number of such units no greater than 2⁵³ —
//!   exact, hence order-free — and `(Σq) · 2⁻²⁰`, `(Σq²) · 2⁻⁴⁰` are its
//!   bits. The same holds for the item profile's own norm, which a fold
//!   derives from its `Σq²`. Item profiles qualify by construction:
//!   `addToNewsProfile` halves, so a score that met `k` opinions is a
//!   multiple of 2⁻ᵏ, and a fold that would make a score finer than 2⁻²⁰
//!   stays flat. Every layout checks both conditions.
//! * **Layouts belong to the profile.** [`Prepared`] keeps nothing but
//!   references; planes and weights are the profile's. A flat profile's
//!   layout is derived state, built on first use (below), never
//!   serialized or compared, and dropped by a mutation. A *packed*
//!   profile's layout is its store (`crate::profile`): a node's own
//!   profile is its planes (16 bytes per 64 slots spanned), rated and
//!   purged in place, a snapshot a node discloses is a copy of them, and
//!   an item profile a node folds is its weights (272 bytes per 64 slots
//!   spanned), folded word-wise from the liker's planes — ids are slots,
//!   timestamps the items' creation times, which the run's item index
//!   keeps. Every view
//!   slot and message pinning one shares the one allocation scoring reads,
//!   on whichever thread: the receivers of an item's `f_like` siblings and
//!   the nodes down a dislike chain, which forward it unchanged, orient it
//!   with the weights its fold produced, and no orientation of a folded
//!   item profile lays anything out. A walked pair rebuilds a packed
//!   side's entries in id order, so the join sums in the reference's
//!   order; so does Fig. 7's pairwise score of a node's own profile.
//! * **Built on first use** — what is not packed. Building looks every id
//!   up in the run's item index (`crate::planes`), a read-only hash map
//!   that takes no lock — one pass, which also finds the span the layout
//!   covers — and fills the words in a second. A node's own profile is
//!   packed from its first rating, and builds its planes only at a
//!   rating or purge that leaves it flat; any other candidate is laid out the first time a score of it gets
//!   past the fingerprint rejection, and any other fixed side — an item
//!   profile a node kept flat, or a copy decoded from another shard's
//!   bundle before a liker folds it — as soon as one candidate has planes
//!   to be scored with. That includes a descriptor decoded from a frame,
//!   which may be ranked once and dropped. Against walking a candidate's
//!   first score, perfbench's multi-shard workloads, which decode such
//!   descriptors, ran faster (2-vCPU Xeon, 16 alternated pairs, medians:
//!   `scale-2shard` wall 5.74 → 5.31 µs/msg, `scale-pipe` cpu 9.92 →
//!   9.30, each lower in 15 of 16 pairs). Which of the exact paths a
//!   score took is history; its bits are not.
//! * **One numbering per run.** A slot is an item's position in the run's
//!   index, which every node of the run holds and [`Prepared`] is given:
//!   complete before cycle 0 and read-only after, so a build takes no
//!   lock and registers nothing, and two layouts of a run always agree on
//!   the bit an item owns (debug builds assert it where a pair is
//!   counted). An id the index does not know has no slot: planes holding
//!   one decline, and built weights leave it out. That loses no term,
//!   since a candidate has planes only if the index knows every id it
//!   rates; a fold stays flat rather than leave one out.
//! * **It declines rather than degrades.** A pair is walked pairwise —
//!   same bits, the merge-join's speed — when the candidate has no planes
//!   (a score that is neither 0 nor 1, an id the index does not know);
//!   when the fixed side holds a score that is no whole multiple of 2⁻²⁰
//!   in `[0, 1]` (`-0.0` and non-finite values included) or more than 2¹³
//!   entries, zeros counted; and when either side's ids are numbered so
//!   far apart that its layout would span more 64-slot words than it
//!   places entries. A declined build is remembered by the allocation: no
//!   scorer asks it again, and no candidate gets planes built on its
//!   account.

use crate::item::ItemIndexMap;
use crate::planes::{Layout, Planes};
use crate::profile::{Profile, ProfileEntry};

/// Metric selector: which similarity a node family uses for clustering,
/// BEEP orientation and CF neighbor ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// The asymmetric WUP metric (WhatsUp, CF-WUP).
    #[default]
    Wup,
    /// Classic cosine similarity (WhatsUp-Cos, CF-Cos).
    Cosine,
}

impl Metric {
    /// Scores candidate `pc` against own profile `pn`. Higher = closer.
    #[inline]
    pub fn score(&self, pn: &Profile, pc: &Profile) -> f64 {
        match self {
            Metric::Wup => wup_similarity(pn, pc),
            Metric::Cosine => cosine_similarity(pn, pc),
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Wup => "wup",
            Metric::Cosine => "cos",
        }
    }
}

/// Sums over the common items of one merge-join pass over two profiles.
struct JoinSums {
    /// Σ pn·pc.
    dot: f64,
    /// Σ pn² (‖sub(Pn,Pc)‖²).
    sub_norm2: f64,
}

/// The merge-join of two profiles' entries in id order: a flat profile's
/// walked in place, a packed snapshot's rebuilt first.
#[inline]
fn merge_join(pn: &Profile, pc: &Profile) -> JoinSums {
    join(&pn.flat(), &pc.flat())
}

#[inline]
fn join(a: &[ProfileEntry], b: &[ProfileEntry]) -> JoinSums {
    let (mut a, mut b) = (a.iter(), b.iter());
    let mut sums = JoinSums {
        dot: 0.0,
        sub_norm2: 0.0,
    };
    let (mut next_a, mut next_b) = (a.next(), b.next());
    while let (Some(ea), Some(eb)) = (next_a, next_b) {
        match ea.item.cmp(&eb.item) {
            std::cmp::Ordering::Less => next_a = a.next(),
            std::cmp::Ordering::Greater => next_b = b.next(),
            std::cmp::Ordering::Equal => {
                let (sa, sb) = (ea.score as f64, eb.score as f64);
                sums.dot += sa * sb;
                sums.sub_norm2 += sa * sa;
                next_a = a.next();
                next_b = b.next();
            }
        }
    }
    sums
}

/// Fingerprint zero-rejection: `true` proves the two profiles share no
/// rated item (see the module docs for why every metric is then exactly 0).
#[inline]
fn provably_disjoint(pn: &Profile, pc: &Profile) -> bool {
    pn.fingerprint() & pc.fingerprint() == 0
}

/// `dot / denom`, or 0 when the denominator vanishes (no overlap, a side
/// with no likes).
#[inline]
fn ratio(dot: f64, denom: f64) -> f64 {
    if denom <= 0.0 {
        0.0
    } else {
        dot / denom
    }
}

/// The asymmetric WUP metric (§II). Returns 0 when either norm vanishes
/// (no overlap, or candidate with no likes).
pub fn wup_similarity(pn: &Profile, pc: &Profile) -> f64 {
    if provably_disjoint(pn, pc) {
        return 0.0;
    }
    reference::wup_similarity(pn, pc)
}

/// Classic cosine similarity over the full score vectors.
pub fn cosine_similarity(pn: &Profile, pc: &Profile) -> f64 {
    if provably_disjoint(pn, pc) {
        return 0.0;
    }
    reference::cosine_similarity(pn, pc)
}

/// One fixed profile `pn`, prepared to be scored against many candidates
/// (see "One-vs-many scoring" in the module docs). Every score is
/// bit-identical to [`Metric::score`]`(pn, candidate)`.
///
/// The scorer keeps no state of its own: the layouts — the fixed side's
/// planes or weights, a candidate's planes — belong to the profile
/// allocations, and are built the first time a score gets past the
/// fingerprint rejection: a binary candidate's first, the fixed side's
/// once a candidate has planes. So a scorer that only ever meets disjoint
/// candidates, or ones that can have no planes, builds nothing of the
/// fixed side's. Layouts are numbered by `index`,
/// the run's item index: every scorer of the profiles it meets must be
/// given the same one (see "One numbering per run" in the module docs).
pub struct Prepared<'a> {
    pn: &'a Profile,
    index: &'a ItemIndexMap,
}

impl<'a> Prepared<'a> {
    pub fn new(pn: &'a Profile, index: &'a ItemIndexMap) -> Self {
        Self { pn, index }
    }

    /// [`Metric::score`]`(pn, pc)`.
    pub fn score(&self, metric: Metric, pc: &Profile) -> f64 {
        if provably_disjoint(self.pn, pc) {
            return 0.0;
        }
        match metric {
            Metric::Wup => {
                let (dot, sub_norm2) = self.sums(pc);
                ratio(dot, sub_norm2.sqrt() * pc.norm())
            }
            Metric::Cosine => ratio(self.sums(pc).0, self.pn.norm() * pc.norm()),
        }
    }

    /// The fixed side's layout and the candidate's planes, when both exist
    /// (see "Counting path" in the module docs), each built on first use.
    /// The fixed side is asked first, from memoized state: one whose build
    /// declined costs a candidate nothing here, and gets no candidate's
    /// planes built on its account. Its own layout is built once a
    /// candidate has planes.
    fn layouts<'b>(&self, pc: &'b Profile) -> Option<(&'a Layout, &'b Planes)> {
        if matches!(self.pn.built_layout(), Some(None)) {
            return None;
        }
        let theirs = pc.planes(self.index)?;
        Some((self.pn.layout(self.index)?, theirs))
    }

    /// `(Σ pn·pc, Σ pn²)` over the common items: planes against planes are
    /// counted, weights against planes summed, and anything else walked.
    fn sums(&self, pc: &Profile) -> (f64, f64) {
        match self.layouts(pc) {
            Some((Layout::Planes(own), theirs)) => {
                let (dot, sub_norm2) = own.overlap(theirs);
                (f64::from(dot), f64::from(sub_norm2))
            }
            Some((Layout::Weights(own), theirs)) => own.sums(theirs),
            None => {
                let sums = merge_join(self.pn, pc);
                (sums.dot, sums.sub_norm2)
            }
        }
    }
}

/// The scan-only reference implementations, bypassing the fingerprint fast
/// path. Exposed (hidden) so property tests can assert the fast path is
/// bit-identical to the scalar merge-join over arbitrary profiles.
#[doc(hidden)]
pub mod reference {
    use super::{merge_join, ratio, Profile};

    pub fn wup_similarity(pn: &Profile, pc: &Profile) -> f64 {
        let sums = merge_join(pn, pc);
        ratio(sums.dot, sums.sub_norm2.sqrt() * pc.norm())
    }

    pub fn cosine_similarity(pn: &Profile, pc: &Profile) -> f64 {
        ratio(merge_join(pn, pc).dot, pn.norm() * pc.norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileEntry;
    use proptest::prelude::*;

    fn profile(likes: &[u64], dislikes: &[u64]) -> Profile {
        Profile::from_entries(
            likes
                .iter()
                .map(|&i| ProfileEntry {
                    item: i,
                    timestamp: 0,
                    score: 1.0,
                })
                .chain(dislikes.iter().map(|&i| ProfileEntry {
                    item: i,
                    timestamp: 0,
                    score: 0.0,
                })),
        )
    }

    #[test]
    fn identical_binary_profiles_score_one() {
        let p = profile(&[1, 2, 3], &[]);
        assert!((wup_similarity(&p, &p) - 1.0).abs() < 1e-9);
        assert!((cosine_similarity(&p, &p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_profiles_score_zero() {
        let a = profile(&[1, 2], &[]);
        let b = profile(&[3, 4], &[]);
        assert_eq!(wup_similarity(&a, &b), 0.0);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn wup_formula_matches_hand_computation() {
        // n likes {1,2,3}; c rated {1,2,4}: liked 1, disliked 2, liked 4.
        // common likes = |{1}| = 1
        // sub(Pn,Pc) = entries of n on items rated by c = {1,2} → norm √2
        // |likes(c)| = 2 → norm √2
        // sim = 1 / (√2·√2) = 0.5
        let n = profile(&[1, 2, 3], &[]);
        let c = profile(&[1, 4], &[2]);
        assert!((wup_similarity(&n, &c) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wup_is_asymmetric() {
        let n = profile(&[1, 2, 3], &[]);
        let c = profile(&[1], &[]);
        // sim(n→c): common=1, sub={1}→1, likes(c)=1 → 1.0
        assert!((wup_similarity(&n, &c) - 1.0).abs() < 1e-9);
        // sim(c→n): common=1, sub={1}→1, likes(n)=3 → 1/√3
        assert!((wup_similarity(&c, &n) - 1.0 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn wup_penalizes_explicit_dislikes() {
        let n = profile(&[1, 2], &[]);
        let agreeing = profile(&[1, 2], &[]);
        // Candidate that additionally *dislikes* item 2 that n likes.
        let disliking = profile(&[1], &[2]);
        assert!(
            wup_similarity(&n, &agreeing) > wup_similarity(&n, &disliking),
            "explicit dislike must reduce similarity"
        );
    }

    #[test]
    fn wup_favors_small_restrictive_profiles() {
        // Both candidates like item 1 (which n likes); the second also likes
        // many items n has never seen. The small profile must win (§II-D:
        // joining nodes with small popular profiles are favored).
        let n = profile(&[1], &[]);
        let small = profile(&[1], &[]);
        let big = profile(&[1, 10, 11, 12, 13], &[]);
        assert!(wup_similarity(&n, &small) > wup_similarity(&n, &big));
    }

    #[test]
    fn cosine_counts_only_common_likes_in_dot() {
        // likes(a)={1,2}, likes(b)={2,3}: dot=1, norms √2·√2 ⇒ 0.5.
        let a = profile(&[1, 2], &[]);
        let b = profile(&[2, 3], &[]);
        assert!((cosine_similarity(&a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_profiles_are_zero_everywhere() {
        let e = Profile::new();
        let p = profile(&[1], &[]);
        for m in [Metric::Wup, Metric::Cosine] {
            assert_eq!(m.score(&e, &p), 0.0);
            assert_eq!(m.score(&p, &e), 0.0);
            assert_eq!(m.score(&e, &e), 0.0);
        }
    }

    #[test]
    fn works_with_real_valued_item_profiles() {
        // Item profile with averaged scores vs a binary user profile.
        let mut item_profile = Profile::new();
        item_profile.add_to_news_profile(ProfileEntry {
            item: 1,
            timestamp: 0,
            score: 1.0,
        });
        item_profile.add_to_news_profile(ProfileEntry {
            item: 1,
            timestamp: 0,
            score: 0.0,
        });
        item_profile.add_to_news_profile(ProfileEntry {
            item: 2,
            timestamp: 0,
            score: 1.0,
        });
        let user = profile(&[1, 2], &[]);
        let s = wup_similarity(&item_profile, &user);
        // dot = 0.5·1 + 1·1 = 1.5 ; ‖sub‖ = √(0.25+1) ; ‖Pc‖ = √2
        let expected = 1.5 / ((1.25f64).sqrt() * (2f64).sqrt());
        assert!((s - expected).abs() < 1e-6);
    }

    /// An index numbering `ids` in the order given.
    fn index_of(ids: impl IntoIterator<Item = u64>) -> ItemIndexMap {
        ids.into_iter().zip(0..).collect()
    }

    /// Item ids for the scorer tests, from a small shared universe (so
    /// profiles overlap): dense ids from 0 (dataset style) or content
    /// hashes.
    fn spread(kind: u64, raw: u64) -> u64 {
        let id = raw % 256;
        match kind {
            0 => id,
            _ => crate::hash::fnv1a64(&id.to_le_bytes()),
        }
    }

    /// Scores for the scorer tests: the binary extremes, `-0.0`,
    /// item-profile style averages (whole multiples of 2⁻¹⁰) and reals
    /// that are no such thing.
    fn score_of(raw: u32) -> f32 {
        match raw % 8 {
            0 | 1 => 0.0,
            2 | 3 => 1.0,
            4 => -0.0,
            5 | 6 => (raw / 8 % 1025) as f32 / 1024.0,
            _ => (raw / 8 % 1000) as f32 / 999.0,
        }
    }

    fn spread_profile(kind: u64, raw: &[(u64, u32)]) -> Profile {
        Profile::from_entries(raw.iter().map(|&(id, score)| ProfileEntry {
            item: spread(kind, id),
            timestamp: 0,
            score: score_of(score),
        }))
    }

    /// Every public entry point of one scorer against the scan-only
    /// reference, by bits.
    fn assert_scorer_matches_reference(scorer: &Prepared, pn: &Profile, pc: &Profile) {
        let pairs = [
            (Metric::Wup, reference::wup_similarity(pn, pc)),
            (Metric::Cosine, reference::cosine_similarity(pn, pc)),
            (Metric::Wup, Metric::Wup.score(pn, pc)),
            (Metric::Cosine, Metric::Cosine.score(pn, pc)),
        ];
        for (fast, slow) in pairs.map(|(metric, slow)| (scorer.score(metric, pc), slow)) {
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "prepared {fast} != reference {slow} for {pn:?} vs {pc:?}"
            );
        }
    }

    #[test]
    fn prepared_handles_empty_and_one_entry_sides() {
        let profiles = [
            Profile::new(),
            profile(&[0, 1, 2, 3], &[4]),
            profile(&[1, 2, 3], &[4]),
            profile(&[1, 2], &[0]),
            profile(&[7], &[]),
        ];
        let index = index_of(0..8);
        for pn in &profiles {
            let scorer = Prepared::new(pn, &index);
            for pc in &profiles {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
        }
    }

    #[test]
    fn prepared_matches_reference_on_non_finite_scores() {
        // Unreachable from the wire (the codec rejects them) but not from
        // `Profile::from_entries`: a non-finite candidate has no planes, a
        // non-finite fixed profile no weights — both are walked pairwise.
        let odd = |score: f32| {
            Profile::from_entries([(1, 1.0), (2, score), (3, 0.5), (9, 1.0)].map(
                |(item, score)| ProfileEntry {
                    item,
                    timestamp: 0,
                    score,
                },
            ))
        };
        let plain = profile(&[1, 2, 5], &[3]);
        let unrated = profile(&[1, 3, 5], &[9]);
        let index = index_of(0..10);
        for score in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let weird = odd(score);
            for (pn, pc) in [(&plain, &weird), (&weird, &plain), (&unrated, &weird)] {
                let scorer = Prepared::new(pn, &index);
                assert_scorer_matches_reference(&scorer, pn, pc);
                assert!(!weighs(pn));
            }
        }
    }

    #[test]
    fn planes_follow_the_profile_through_clones_and_mutations() {
        let base = 1 << 40;
        let index = index_of(base..base + 64);
        let ids = |offsets: &[u64]| offsets.iter().map(|o| base + o).collect::<Vec<_>>();
        let other = profile(&ids(&[1, 2, 3, 9, 20]), &ids(&[4, 5]));
        let check = |p: &Profile| {
            assert_scorer_matches_reference(&Prepared::new(p, &index), p, &other);
            assert_scorer_matches_reference(&Prepared::new(&other, &index), &other, p);
        };
        let original = profile(&ids(&[1, 2, 3, 4]), &ids(&[9, 10]));
        check(&original);
        assert!(original.plane_bytes() > 0, "a binary profile is counted");

        // A clone is a copy, planes included.
        let mut shared = crate::profile::SharedProfile::new(original.clone());
        assert_eq!(shared.plane_bytes(), original.plane_bytes());
        check(&shared);
        assert!(shared.plane_bytes() > 0);

        // Copy-on-write while a snapshot is pinned: the snapshot keeps its
        // planes, the copy's are rebuilt from the new entries.
        let snapshot = crate::profile::SharedProfile::clone(&shared);
        crate::profile::SharedProfile::make_mut(&mut shared).rate(base + 20, 5, true);
        assert!(snapshot.plane_bytes() > 0);
        assert_eq!(shared.plane_bytes(), 0, "a mutation drops the planes");
        check(&shared);
        check(&snapshot);
        assert!(shared.plane_bytes() > 0);
        // Re-rating flips a bit of the liked plane only.
        crate::profile::SharedProfile::make_mut(&mut shared).rate(base + 20, 6, false);
        check(&shared);

        // A purge that removes nothing keeps the planes; one that removes
        // an entry drops them.
        let mut purged = (*shared).clone();
        check(&purged);
        purged.purge_older_than(1);
        assert_eq!(purged.len(), 1);
        assert_eq!(purged.plane_bytes(), 0);
        check(&purged);
        purged.purge_older_than(1);
        assert!(purged.plane_bytes() > 0);

        // Averaging two opinions leaves a real value: no planes — it is
        // weighed instead. Re-rating the item makes the profile binary
        // again.
        let mut folded = original.aggregated_with(&profile(&ids(&[9]), &[]));
        assert_eq!(folded.get(base + 9).unwrap().score, 0.5);
        assert!(folded.planes(&index).is_none());
        check(&folded);
        folded.rate(base + 9, 0, true);
        assert!(folded.planes(&index).is_some());
        check(&folded);
        // Folding disjoint binary profiles stays binary.
        let merged = original.aggregated_with(&profile(&ids(&[30, 31]), &ids(&[32])));
        assert!(merged.planes(&index).is_some());
        check(&merged);
    }

    #[test]
    fn a_candidate_is_counted_from_its_first_score() {
        let base = 1 << 40;
        let index = index_of(base..base + 16);
        let own = profile(&[base, base + 1, base + 2], &[base + 3]);
        let mut snapshot = profile(&[base + 1, base + 2, base + 5], &[base]);
        let scorer = Prepared::new(&own, &index);
        // Scored once — a decoded descriptor dropped after its merge —
        // both sides are laid out, and the count is the reference's.
        let walked = reference::wup_similarity(&own, &snapshot);
        assert_eq!(
            scorer.score(Metric::Wup, &snapshot).to_bits(),
            walked.to_bits()
        );
        assert!(own.plane_bytes() > 0 && snapshot.plane_bytes() > 0);
        assert_scorer_matches_reference(&scorer, &own, &snapshot);
        // A mutation drops the candidate's planes; its next score builds
        // them again.
        snapshot.rate(base + 6, 0, true);
        assert_eq!(snapshot.plane_bytes(), 0);
        let walked = reference::wup_similarity(&own, &snapshot);
        assert_eq!(
            scorer.score(Metric::Wup, &snapshot).to_bits(),
            walked.to_bits()
        );
        assert!(snapshot.plane_bytes() > 0);
        assert_scorer_matches_reference(&scorer, &own, &snapshot);
    }

    #[test]
    fn ids_numbered_far_apart_decline() {
        // Two ids 30 words of slots apart: the planes of a profile holding
        // both would be mostly padding.
        let base = 1 << 40;
        let index = index_of(base..base + 1_921);
        let near = profile(&[base, base + 1, base + 2], &[]);
        let wide = profile(&[base, base + 1], &[base + 1_920]);
        let far = profile(&[base + 1_919], &[base + 1_920]);
        assert!(near.planes(&index).is_some());
        assert!(wide.planes(&index).is_none(), "31 words for 3 entries");
        assert!(far.planes(&index).is_some());
        for pn in [&near, &wide, &far] {
            let scorer = Prepared::new(pn, &index);
            for pc in [&near, &wide, &far] {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
        }
    }

    /// Whether a real-valued profile has been laid out by slot.
    fn weighs(pn: &Profile) -> bool {
        matches!(pn.built_layout(), Some(Some(Layout::Weights(_))))
    }

    /// Whether a profile tried to lay itself out and declined.
    fn declined_to_weigh(pn: &Profile) -> bool {
        matches!(pn.built_layout(), Some(None))
    }

    /// An item profile over `ids`, every score `rest` except the first
    /// entry's, which is `odd`.
    fn item_profile(ids: std::ops::Range<u64>, odd: f32, rest: f32) -> Profile {
        let first = ids.start;
        Profile::from_entries(ids.map(|item| ProfileEntry {
            item,
            timestamp: 0,
            score: if item == first { odd } else { rest },
        }))
    }

    #[test]
    fn a_real_valued_fixed_side_weighs_each_candidate_from_its_first_score() {
        let base = 1 << 40;
        let index = index_of(base..base + 16);
        let mut item_profile = profile(&[base, base + 1], &[]);
        item_profile.add_to_news_profile(ProfileEntry {
            item: base + 1,
            timestamp: 0,
            score: 0.0,
        });
        let candidates: Vec<Profile> = (0..4)
            .map(|k| profile(&[base + 1, base + 2 + k], &[base + 6 + k]))
            .collect();
        let scorer = Prepared::new(&item_profile, &index);
        // Each candidate scored once — a descriptor decoded for this one
        // orientation: it gets planes, the item profile weights, and never
        // planes of its own; every score is the reference's.
        for pc in &candidates {
            let walked = reference::wup_similarity(&item_profile, pc);
            assert_eq!(scorer.score(Metric::Wup, pc).to_bits(), walked.to_bits());
            assert!(pc.plane_bytes() > 0);
            assert!(weighs(&item_profile));
        }
        assert_eq!(item_profile.plane_bytes(), 0);
        for pc in &candidates {
            assert_scorer_matches_reference(&scorer, &item_profile, pc);
        }
    }

    #[test]
    fn weighing_declines_at_each_boundary_of_its_exactness() {
        let base = 1 << 40;
        let index = index_of(base..base + 8_193);
        let all = profile(&(base..base + 8_193).collect::<Vec<_>>(), &[]);
        let some = profile(&[base, base + 2, base + 64], &[base + 1, base + 65]);
        for pc in [&all, &some] {
            assert!(pc.planes(&index).is_some());
        }
        let unit = 0.5f32.powi(20);
        // (fixed side, whether it is weighed). The sums of the 8192-entry
        // one against `all` fall just short of the 2⁵³ units that are the
        // reason for the bound.
        let hundred = |odd: f32| item_profile(base..base + 100, odd, 0.75);
        let cases = [
            (hundred(unit), true),
            (hundred(0.0), true),
            (hundred(unit / 2.0), false),
            (hundred(1.0 + f32::EPSILON), false),
            (hundred(-0.0), false),
            (hundred(-0.25), false),
            (item_profile(base..base + 8_192, 0.5, 1.0 - unit), true),
            (item_profile(base..base + 8_193, 0.5, 1.0 - unit), false),
        ];
        for (pn, weighed) in &cases {
            let scorer = Prepared::new(pn, &index);
            for pc in [&all, &some] {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
            assert_eq!(weighs(pn), *weighed, "{:?}", pn.entries().next());
            assert_eq!(declined_to_weigh(pn), !*weighed);
        }
    }

    #[test]
    fn only_a_binary_candidate_with_planes_is_weighed_against() {
        let base = 1 << 40;
        let index = index_of(base..base + 16);
        let pn = item_profile(base..base + 12, 0.5, 0.75);
        let scorer = Prepared::new(&pn, &index);
        // A real-valued candidate (one item profile ranked against
        // another) has no planes, however often it is scored, and asking
        // for them builds no weights of its own.
        let real = item_profile(base + 4..base + 16, 0.25, 0.5);
        for _ in 0..2 {
            assert_scorer_matches_reference(&scorer, &pn, &real);
        }
        assert!(pn.built_layout().is_none(), "nothing to weigh against");
        assert!(real.built_layout().is_none());
        // A binary one has them from its first score on.
        let binary = profile(&[base + 1, base + 2], &[base + 3]);
        let walked = reference::wup_similarity(&pn, &binary);
        assert_eq!(
            scorer.score(Metric::Wup, &binary).to_bits(),
            walked.to_bits()
        );
        assert!(weighs(&pn) && binary.plane_bytes() > 0);
        assert_scorer_matches_reference(&scorer, &pn, &binary);
    }

    #[test]
    fn an_id_the_index_does_not_know_is_walked_not_lost() {
        let base = 1 << 40;
        let index = index_of(base..base + 16);
        // The item profile rates eight ids the index does not know.
        let pn = item_profile(base + 8..base + 24, 0.5, 0.75);
        let scorer = Prepared::new(&pn, &index);
        let seen = profile(&[base + 8, base + 9], &[base + 10]);
        assert!(seen.planes(&index).is_some());
        assert_scorer_matches_reference(&scorer, &pn, &seen);
        assert!(weighs(&pn));
        // A snapshot rating three of them has no planes, however often it
        // is scored: it is walked, and scores what the reference does.
        let stranger = profile(&[base + 20], &[base + 21, base + 22]);
        assert!(reference::wup_similarity(&pn, &stranger) > 0.0);
        for _ in 0..2 {
            assert_scorer_matches_reference(&scorer, &pn, &stranger);
        }
        assert!(matches!(stranger.built_layout(), Some(None)));
        // The weights stay with the item profile: the next node to orient
        // it — down a dislike chain — reuses them.
        let bytes = pn.heap_bytes();
        assert_scorer_matches_reference(&Prepared::new(&pn, &index), &pn, &stranger);
        assert_scorer_matches_reference(&Prepared::new(&pn, &index), &pn, &seen);
        assert_eq!(pn.heap_bytes(), bytes);
    }

    #[test]
    fn a_layout_is_built_once_per_allocation_and_dropped_by_mutations() {
        let base = 1 << 40;
        let index = index_of(base..base + 16);
        let seen = profile(&[base + 1, base + 2], &[base + 3]);
        assert!(seen.planes(&index).is_some());
        let orient = |pn: &Profile| {
            assert_scorer_matches_reference(&Prepared::new(pn, &index), pn, &seen);
            weighs(pn)
        };
        let mut pn = item_profile(base..base + 8, 0.5, 0.75);
        pn.rate(base + 9, 4, true);
        assert!(orient(&pn));
        let built = pn.built_layout().flatten().map(|l| l as *const Layout);
        assert!(orient(&pn));
        assert_eq!(
            pn.built_layout().flatten().map(|l| l as *const Layout),
            built
        );
        // A clone leaves a flat profile's weights behind; every mutation
        // drops them.
        assert!(pn.clone().built_layout().is_none());
        pn.purge_older_than(0);
        assert!(pn.built_layout().is_some(), "a purge that removes nothing");
        pn.purge_older_than(4);
        assert_eq!(pn.len(), 1);
        assert!(pn.built_layout().is_none(), "a purge that removes");
        assert!(!orient(&pn), "one liked entry: binary, planes instead");
        pn.add_to_news_profile(ProfileEntry {
            item: base + 2,
            timestamp: 5,
            score: 0.5,
        });
        assert!(pn.built_layout().is_none());
        assert!(orient(&pn));
        pn.add_to_news_profile(ProfileEntry {
            item: base + 2,
            timestamp: 5,
            score: 1.0,
        });
        assert!(pn.built_layout().is_none());
        assert!(orient(&pn));
        assert_scorer_matches_reference(&Prepared::new(&pn, &index), &pn, &seen);
    }

    #[test]
    fn two_threads_orienting_one_item_profile_both_get_the_reference() {
        let base = 1 << 40;
        let index = index_of(base..base + 64);
        let pn = crate::profile::SharedProfile::new(item_profile(base..base + 48, 0.5, 0.75));
        let view: Vec<Profile> = (0..30)
            .map(|k| profile(&[base + k, base + k + 11], &[base + k + 23]))
            .collect();
        assert!(view.iter().all(|pc| pc.planes(&index).is_some()));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let copy = crate::profile::SharedProfile::clone(&pn);
                let (view, barrier, index) = (&view, &barrier, &index);
                scope.spawn(move || {
                    barrier.wait();
                    let scorer = Prepared::new(&copy, index);
                    for pc in view {
                        assert_scorer_matches_reference(&scorer, &copy, pc);
                    }
                });
            }
        });
        assert!(weighs(&pn));
    }

    #[test]
    fn ids_numbered_far_apart_are_not_weighed() {
        // As for planes: 31 words of layout for 3 entries.
        let base = 1 << 40;
        let index = index_of(base..base + 1_921);
        let wide = Profile::from_entries([(base, 0.5), (base + 1, 1.0), (base + 1_920, 0.25)].map(
            |(item, score)| ProfileEntry {
                item,
                timestamp: 0,
                score,
            },
        ));
        let pc = profile(&[base, base + 2], &[base + 1]);
        assert!(pc.planes(&index).is_some());
        let scorer = Prepared::new(&wide, &index);
        assert_scorer_matches_reference(&scorer, &wide, &pc);
        assert!(declined_to_weigh(&wide));
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Metric::Wup.label(), "wup");
        assert_eq!(Metric::Cosine.label(), "cos");
    }

    proptest! {
        #[test]
        fn scores_are_bounded(
            la in prop::collection::btree_set(0u64..40, 0..20),
            da in prop::collection::btree_set(0u64..40, 0..20),
            lb in prop::collection::btree_set(0u64..40, 0..20),
            db in prop::collection::btree_set(0u64..40, 0..20),
        ) {
            let a_likes: Vec<u64> = la.iter().copied().collect();
            let a_dislikes: Vec<u64> = da.difference(&la).copied().collect();
            let b_likes: Vec<u64> = lb.iter().copied().collect();
            let b_dislikes: Vec<u64> = db.difference(&lb).copied().collect();
            let a = profile(&a_likes, &a_dislikes);
            let b = profile(&b_likes, &b_dislikes);
            for m in [Metric::Wup, Metric::Cosine] {
                let s = m.score(&a, &b);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{} out of range: {s}", m.label());
            }
        }

        /// The fingerprint rejection must be invisible in the output: every
        /// metric returns the *bit-identical* f64 the scan-only reference
        /// produces, over random pairs of mixed binary/real-valued profiles
        /// (narrow id range ⇒ plenty of overlapping pairs; disjoint ranges
        /// covered by the offset), in both directions of a skewed pair (`a`
        /// small, `b` up to ~150 entries).
        #[test]
        fn fast_path_is_bit_identical_to_scalar_merge_join(
            ea in prop::collection::vec((0u64..60, prop::bool::ANY), 0..40),
            eb in prop::collection::vec((0u64..200, 0u32..5), 0..150),
            offset_class in 0u64..3,
        ) {
            // 0 = full overlap range, 30 = partial, 1000 = disjoint ids.
            let offset = [0u64, 30, 1_000][offset_class as usize];
            let a = Profile::from_entries(ea.iter().map(|&(i, liked)| ProfileEntry {
                item: i,
                timestamp: 0,
                score: if liked { 1.0 } else { 0.0 },
            }));
            // Real-valued scores (item-profile style) on the candidate side.
            let b = Profile::from_entries(eb.iter().map(|&(i, q)| ProfileEntry {
                item: i + offset,
                timestamp: 0,
                score: q as f32 / 4.0,
            }));
            for (fast, slow) in [
                (wup_similarity(&a, &b), reference::wup_similarity(&a, &b)),
                (cosine_similarity(&a, &b), reference::cosine_similarity(&a, &b)),
                (wup_similarity(&b, &a), reference::wup_similarity(&b, &a)),
            ] {
                prop_assert_eq!(fast.to_bits(), slow.to_bits(),
                    "fast {fast} != reference {slow}");
            }
        }

        #[test]
        fn cosine_is_symmetric(
            la in prop::collection::btree_set(0u64..30, 0..15),
            lb in prop::collection::btree_set(0u64..30, 0..15),
        ) {
            let a = profile(&la.iter().copied().collect::<Vec<_>>(), &[]);
            let b = profile(&lb.iter().copied().collect::<Vec<_>>(), &[]);
            let d = (cosine_similarity(&a, &b) - cosine_similarity(&b, &a)).abs();
            prop_assert!(d < 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// One scorer, fifty candidates, every score bit-identical to the
        /// scan-only reference — so nothing of one candidate may survive
        /// into the next. `shape` skews the sizes both ways (a one-entry
        /// side against hundreds) besides the balanced case; `kind` picks
        /// the id family (see `spread`).
        #[test]
        fn prepared_is_bit_identical_to_reference(
            kind in 0u64..2,
            shape in 0usize..4,
            fixed in prop::collection::vec((0u64..1_000, 0u32..100_000), 0..300),
            cands in prop::collection::vec(
                prop::collection::vec((0u64..1_000, 0u32..100_000), 0..300),
                50..51,
            ),
        ) {
            let (fixed_max, cand_max) = [(300, 300), (1, 300), (300, 2), (40, 40)][shape];
            let index = index_of((0..256).map(|raw| spread(kind, raw)));
            let pn = spread_profile(kind, &fixed[..fixed.len().min(fixed_max)]);
            let scorer = Prepared::new(&pn, &index);
            for raw in &cands {
                let pc = spread_profile(kind, &raw[..raw.len().min(cand_max)]);
                assert_scorer_matches_reference(&scorer, &pn, &pc);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The weighted path against the scan-only reference, by bits: one
        /// item profile, shared as an `Arc`, oriented by up to three
        /// scorers in turn — the first lays it out, the rest reuse the
        /// layout — over binary candidates (`-0.0` included). Its scores
        /// are whole multiples of 2⁻²⁰ — a few coarse averages, as a short
        /// path leaves them, or arbitrary ones — zeros included, and it
        /// rates ids the index does not know: scored 0, which the weights
        /// skip, or ¼, which they leave out. A candidate that rates some of
        /// those has no planes and is walked. `decline` spoils the weights: a `-0.0`, a score that is no
        /// multiple of 2⁻²⁰, or 2¹³ + 1 entries. Each profile draws its
        /// other ids from its own 512-slot window of 1024 consecutive
        /// slots, so the layouts overlap fully, in part, in one word or not
        /// at all.
        #[test]
        fn weighed_path_is_bit_identical_to_reference(
            coarse in prop::bool::ANY,
            decline in 0usize..4,
            scorers in 1usize..4,
            fixed_at in 0u64..512,
            fixed in prop::collection::vec((0u64..512, 0u32..(1 << 20) + 1), 16..300),
            unseen in prop::collection::vec((0u64..16, prop::bool::ANY), 0..16),
            cands in prop::collection::vec(
                (
                    0u64..512,
                    prop::collection::vec((0u64..512, 0u32..4), 16..200),
                    prop::collection::vec((0u64..16, 0u32..4), 0..4),
                ),
                1..8,
            ),
        ) {
            let base = 1 << 40;
            let index = index_of(base..base + 1_024);
            let never_seen = 2 << 40;
            let entry = |item, score| ProfileEntry { item, timestamp: 0, score };
            let units = |q: u32| if coarse { q >> 17 << 17 } else { q };
            let mut entries: Vec<ProfileEntry> = fixed
                .iter()
                .map(|&(i, q)| entry(base + fixed_at + i, units(q) as f32 / (1u32 << 20) as f32))
                .collect();
            // The last entry wins: one score (½) that is certainly no 0 or
            // 1, coarse or not.
            entries.push(entry(base + fixed_at + fixed[0].0, 0.5));
            let unseen_score = |zero| if zero { 0.0 } else { 0.25 };
            entries.extend(unseen.iter().map(|&(i, zero)| entry(never_seen + i, unseen_score(zero))));
            let spoiled = never_seen + 16;
            match decline {
                1 => entries.push(entry(spoiled, -0.0)),
                2 => entries.push(entry(spoiled, 1.0 / 3.0)),
                3 => entries.extend((0..8_193).map(|k| entry(spoiled + k, 0.5))),
                _ => {}
            }
            let pn = crate::profile::SharedProfile::new(Profile::from_entries(entries));
            let cands: Vec<(Profile, bool)> = cands
                .iter()
                .map(|(at, raw, rates_unseen)| {
                    let class = |c: u32| [0.0, 1.0, -0.0, 1.0][c as usize];
                    let pc = Profile::from_entries(
                        raw.iter()
                            .map(|&(i, c)| entry(base + at + i, class(c)))
                            .chain(rates_unseen.iter().map(|&(i, c)| entry(never_seen + i, class(c)))),
                    );
                    (pc, rates_unseen.is_empty())
                })
                .collect();
            let mut met = false;
            for (pc, known) in &cands {
                prop_assert_eq!(pc.planes(&index).is_some(), *known);
                met |= *known && pc.entries().any(|e| pn.contains(e.item));
            }
            for k in 0..scorers {
                let copy = crate::profile::SharedProfile::clone(&pn);
                let scorer = Prepared::new(&copy, &index);
                for (pc, _) in cands.iter().cycle().skip(k).take(cands.len()) {
                    assert_scorer_matches_reference(&scorer, &pn, pc);
                }
            }
            if decline != 0 {
                prop_assert!(!weighs(&pn));
                prop_assert!(!met || declined_to_weigh(&pn));
            } else {
                prop_assert_eq!(weighs(&pn), met);
                prop_assert!(!declined_to_weigh(&pn));
            }
        }

        /// The numbering contract: a slot is whatever the run's index says,
        /// and no score shows which. Random binary and real-valued profiles
        /// (`-0.0`, empty and one-entry sides included) are scored under
        /// two indexes of their ids — a random permutation of them, and one
        /// that leaves some out, so that profiles rating those are walked —
        /// fresh allocations under each, both directions of the pair and
        /// the fixed side against itself, every candidate twice (laying
        /// out, then reusing, where the layouts allow), against the
        /// scan-only reference by bits for both metrics.
        #[test]
        fn every_numbering_scores_the_reference(
            shape in 0usize..4,
            real_valued in 0usize..3,
            ea in prop::collection::vec((0u64..96, 0u32..6), 0..80),
            eb in prop::collection::vec((0u64..96, 0u32..6), 0..80),
            order in prop::collection::vec(0u64..1 << 32, 96..97),
            left_out in prop::collection::btree_set(0u64..96, 1..12),
        ) {
            let (a_max, b_max) = [(80, 80), (0, 80), (1, 80), (80, 1)][shape];
            let (ea, eb) = (&ea[..ea.len().min(a_max)], &eb[..eb.len().min(b_max)]);
            let mut permuted: Vec<u64> = (0..96).collect();
            permuted.sort_by_key(|&i| order[i as usize]);
            let partial = (0..96).filter(|i| !left_out.contains(i));
            let build = |raw: &[(u64, u32)], real: bool| {
                let scores = match real {
                    true => [0.0, 1.0, 0.5, 0.25, 0.5, 0.75],
                    false => [0.0, 1.0, -0.0, 1.0, 0.0, 1.0],
                };
                Profile::from_entries(raw.iter().map(|&(item, class)| ProfileEntry {
                    item,
                    timestamp: 0,
                    score: scores[class as usize],
                }))
            };
            for index in [index_of(permuted), index_of(partial)] {
                let a = build(ea, real_valued == 1);
                let b = build(eb, real_valued == 2);
                for (pn, pc) in [(&a, &b), (&b, &a), (&a, &a)] {
                    let scorer = Prepared::new(pn, &index);
                    for _ in 0..2 {
                        assert_scorer_matches_reference(&scorer, pn, pc);
                    }
                }
                for p in [&a, &b] {
                    let known = p.entries().all(|e| index.contains_key(&e.item));
                    let binary = p.entries().all(|e| e.score == 0.0 || e.score == 1.0);
                    prop_assert!(known && binary || p.planes(&index).is_none());
                }
            }
        }
    }
}
