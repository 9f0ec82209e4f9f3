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
//! (CF-Cos, WhatsUp-Cos), plus Jaccard — mentioned in §VI among the classic
//! choices — are implemented on the same merge-join skeleton.
//!
//! The pairwise functions are allocation-free scans over the two sorted
//! entry vectors. Jaccard needs the full union and always runs the linear
//! merge-join (`O(|Pn| + |Pc|)`); WUP and cosine only need sums over the
//! *common* items (their union terms are the memoized norms), so they use a
//! size-adaptive join — linear merge for comparable sizes, iterate-small /
//! binary-search-big (`O(min·log max)`) when the sizes are skewed, which
//! they chronically are on the news hot path (aggregated item profiles vs
//! slim view snapshots). Both strategies visit common items in ascending id
//! order, so the f64 accumulation — and every output bit — is identical.
//!
//! ## Fingerprint fast path
//!
//! Before the scan, every metric consults the profiles' memoized 128-bit
//! Bloom fingerprints ([`Profile::fingerprint`]): if the two fingerprints
//! share no bit, the profiles share no *rated* item, and each metric is
//! exactly `0.0` without touching an entry —
//!
//! * **wup**: no common item ⇒ `‖sub(Pn,Pc)‖² = 0` ⇒ zero denominator ⇒ 0;
//! * **cosine**: no common item ⇒ `dot = 0` ⇒ `0/denom = +0.0` (or the
//!   zero-denominator guard) — bit-identical to the scan's result;
//! * **jaccard**: no common item ⇒ `common_likes = 0` ⇒ `0/union = +0.0`
//!   (or the empty-union guard).
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
//! their items turn the three-way `cmp` into a near coin flip, ~1.3 µs per
//! pair where the same loop over identical profiles takes ~0.4 µs.
//! [`Prepared`] pays for the fixed side once — a hash index item id →
//! score — and then scores a candidate in one walk of the *candidate's*
//! entries: look the id up (four compares, conditional moves), multiply,
//! add. No branch in that loop depends on the data (~0.35 µs per 130-entry
//! candidate, build included). It is what the two hot call sites use
//! (`WhatsUpNode`'s WUP merge and `beep::select_most_similar_k`);
//! everything else keeps the pairwise functions.
//!
//! * **Bit-identity.** f64 addition is not associative, so the sums must
//!   run over the common items in the reference's order: ascending item
//!   id. That *is* the order of the candidate's entries, so the walk adds
//!   the same products in the same sequence. An item the fixed profile
//!   does not rate is not skipped (that would be the branch) but reads the
//!   score `+0.0` and contributes `±0.0` to both sums — which leaves an
//!   accumulator that started at `+0.0` unchanged, since a sum of two
//!   terms is `-0.0` only when both are.
//! * **Finite-score precondition.** `0.0 · sb` is a zero only for finite
//!   `sb`. Scores are finite by the [`Profile`] invariant — the wire codec
//!   rejects anything else — and a candidate whose norm says otherwise
//!   takes the pairwise path, so the identity holds for every input.
//! * **One index per call, none per node.** An index is tens of KiB (two
//!   64-byte buckets per entry) against the ~2 KiB of the profile it is
//!   built from; hundreds of nodes each keeping one would multiply a
//!   shard's resident set. It lives for one merge or one orientation, is
//!   built lazily (a merge whose candidates are all counted — see below —
//!   or rejected by their fingerprints builds nothing), and its
//!   allocation is handed from one index to the next through a per-thread
//!   spare.
//! * **It declines rather than degrades.** A bucket holds four entries;
//!   if a fifth hashes there the table is doubled once, and if that does
//!   not help (ids crafted to collide) the scorer falls back to the
//!   pairwise join for that profile — same bits, the old speed.
//!
//! ## Counting path for binary profiles
//!
//! A *user* profile only ever holds the scores 1 (like) and 0 (dislike)
//! (§II-B); real values exist only in *item* profiles. In a WUP merge both
//! sides of every score are user profiles, so the two sums are **counts**
//! — `dot = |liked_n ∩ liked_c|`, `‖sub(Pn,Pc)‖² = |liked_n ∩ rated_c|` —
//! and [`Prepared`] counts them instead of walking entries whenever both
//! profiles have *bit planes*: a rated set and a liked set as bit sets
//! (`crate::planes`), intersected 64 items at a time with an `&` and a
//! `count_ones`. Jaccard is counted the same way (`common = dot`,
//! `union = likes_n + likes_c − dot`). Nothing selects the path but the
//! two profiles themselves; the fingerprint rejection stays in front, and
//! the counts feed the same `ratio(..)` expressions, with the same
//! memoized norms, as the walked sums.
//!
//! * **Exactness.** With every score in `{0, 1}` each product `pn·pc` and
//!   `pn·pn` is 0 or 1, so every partial sum of the reference's
//!   accumulation is an integer below 2⁵³: representable, hence exact,
//!   hence independent of the order of the additions. The count *is* the
//!   reference's sum, bit for bit. A `-0.0` score counts as 0 (it is rated
//!   and not liked): its products are `±0.0` terms, which leave an
//!   accumulator that started at `+0.0` unchanged. No common item gives
//!   `ratio(0, 0) = +0.0`, what the fingerprint rejection returns.
//! * **Planes belong to the profile.** They are derived state of a
//!   [`Profile`] allocation — built on demand, never serialized or
//!   compared, dropped by every mutation — so every view slot and message
//!   pinning a snapshot shares one pair, and a node keeps no scoring state
//!   of its own. A pair is 16 bytes per 64 slots spanned: a few words
//!   beside a KiB-sized entry vector.
//! * **Built for what is scored again.** Building planes looks every id
//!   up in the slot table, which costs several walks of the entries; it
//!   pays for an allocation scored many times — a node's own profile
//!   (the fixed side of ~60 scores per merge, and with obfuscation off
//!   the very allocation its neighbours' views hold), a snapshot sitting
//!   in a view — and not for one scored once: a descriptor decoded from a
//!   frame, ranked in the merge it arrived for and dropped. So the fixed
//!   side's planes are built as soon as one candidate has planes to count
//!   against, and a *candidate's* the second time a scorer meets it; its
//!   first score is walked. (Building eagerly made runs whose shards
//!   exchange encoded bundles up to 2× slower: every cross-shard
//!   descriptor is a fresh allocation.) Which of the two exact paths a
//!   score took is history; its bits are not.
//! * **Slots are process-wide, and their numbering is invisible.** Two
//!   profiles can only be intersected if an item owns the same bit in
//!   both, so item ids map to bit positions through one process-wide
//!   append-only table, in order of first sight. That order depends on
//!   which node — under the thread link, which *thread* — asked first;
//!   it cannot reach a result because only intersection sizes leave the
//!   planes, and a renumbering of the items changes no set's size. The
//!   table is read while planes are built (one shared-lock pass per
//!   profile; the exclusive lock only for a never-seen id) and not at all
//!   while they are scored.
//! * **It declines rather than degrades.** A profile gets no planes — and
//!   is scored on the index or pairwise, same bits — when a score is
//!   neither 0 nor 1; when its ids were first seen so far apart that the
//!   planes would span more words than it has entries; and when the slot
//!   table, which is bounded by a constant so that wire-supplied ids
//!   cannot grow a peer without limit, is full and does not know one of
//!   its ids — and since a candidate registers its ids only when scored a
//!   second time, a peer's one-shot descriptors never reach the table.
//!   The fixed side is tested first: a real-valued item profile (BEEP
//!   orientation) answers "no planes" from a memoized count, and none of
//!   its 30 candidates gets planes built on its account.

use crate::profile::Profile;
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;

/// Metric selector: which similarity a node family uses for clustering,
/// BEEP orientation and CF neighbor ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Metric {
    /// The asymmetric WUP metric (WhatsUp, CF-WUP).
    #[default]
    Wup,
    /// Classic cosine similarity (WhatsUp-Cos, CF-Cos).
    Cosine,
    /// Jaccard index over liked sets (extra baseline, §VI).
    Jaccard,
}

impl Metric {
    /// Scores candidate `pc` against own profile `pn`. Higher = closer.
    #[inline]
    pub fn score(&self, pn: &Profile, pc: &Profile) -> f64 {
        match self {
            Metric::Wup => wup_similarity(pn, pc),
            Metric::Cosine => cosine_similarity(pn, pc),
            Metric::Jaccard => jaccard_similarity(pn, pc),
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Wup => "wup",
            Metric::Cosine => "cos",
            Metric::Jaccard => "jac",
        }
    }
}

/// Accumulated inner products of one merge-join pass over two profiles.
struct JoinSums {
    /// Σ pn·pc over common items.
    dot: f64,
    /// Σ pn² over common items (‖sub(Pn,Pc)‖²).
    sub_norm2: f64,
    /// Number of common items where both scores are > 0.5 (common likes).
    common_likes: usize,
    /// Number of items liked in at least one of the two profiles.
    union_likes: usize,
}

#[inline]
fn merge_join(pn: &Profile, pc: &Profile) -> JoinSums {
    let (a, b) = (pn.entries(), pc.entries());
    let mut sums = JoinSums {
        dot: 0.0,
        sub_norm2: 0.0,
        common_likes: 0,
        union_likes: 0,
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ea, eb) = (&a[i], &b[j]);
        match ea.item.cmp(&eb.item) {
            std::cmp::Ordering::Less => {
                if ea.score > 0.5 {
                    sums.union_likes += 1;
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if eb.score > 0.5 {
                    sums.union_likes += 1;
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (sa, sb) = (ea.score as f64, eb.score as f64);
                sums.dot += sa * sb;
                sums.sub_norm2 += sa * sa;
                let (la, lb) = (ea.score > 0.5, eb.score > 0.5);
                if la && lb {
                    sums.common_likes += 1;
                }
                if la || lb {
                    sums.union_likes += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    for e in &a[i..] {
        if e.score > 0.5 {
            sums.union_likes += 1;
        }
    }
    for e in &b[j..] {
        if e.score > 0.5 {
            sums.union_likes += 1;
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

/// Common-item sums (`dot`, `sub_norm2`) for the metrics that never look at
/// non-shared items — WUP (its union terms are the memoized norms) and
/// cosine. Size-adaptive: profile sizes in a live overlay are wildly skewed
/// (item profiles aggregate hundreds of entries, view snapshots often hold
/// a handful), and the full merge scan pays for the big side even when the
/// intersection is tiny. When one side is much smaller, iterate it and
/// binary-search the other; both strategies visit the common items in
/// ascending id order, so the f64 accumulation sequence — and therefore
/// every result bit — matches the reference merge-join exactly.
#[inline]
fn common_sums(pn: &Profile, pc: &Profile) -> (f64, f64) {
    let (a, b) = (pn.entries(), pc.entries());
    let (mut dot, mut sub_norm2) = (0.0f64, 0.0f64);
    // `own_is_small` tracks which side of the asymmetric sums the probe
    // entry belongs to: `sub_norm2` is always Σ pn² over common items.
    let (small, big, own_is_small) = if a.len() * 8 <= b.len() {
        (a, b, true)
    } else if b.len() * 8 <= a.len() {
        (b, a, false)
    } else {
        // Comparable sizes: the linear merge is cheaper than n·log m.
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ea, eb) = (&a[i], &b[j]);
            match ea.item.cmp(&eb.item) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (sa, sb) = (ea.score as f64, eb.score as f64);
                    dot += sa * sb;
                    sub_norm2 += sa * sa;
                    i += 1;
                    j += 1;
                }
            }
        }
        return (dot, sub_norm2);
    };
    // `from` narrows the search window: the small side ascends, so matches
    // can only lie to the right of the previous one.
    let mut from = 0;
    for e in small {
        match big[from..].binary_search_by_key(&e.item, |x| x.item) {
            Ok(k) => {
                let other = &big[from + k];
                let (sa, sb) = if own_is_small {
                    (e.score as f64, other.score as f64)
                } else {
                    (other.score as f64, e.score as f64)
                };
                dot += sa * sb;
                sub_norm2 += sa * sa;
                from += k + 1;
            }
            Err(k) => from += k,
        }
        if from >= big.len() {
            break;
        }
    }
    (dot, sub_norm2)
}

/// `dot / denom`, or 0 when the denominator vanishes (no overlap, or a
/// side with no likes).
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
    let (dot, sub_norm2) = common_sums(pn, pc);
    ratio(dot, sub_norm2.sqrt() * pc.norm())
}

/// Classic cosine similarity over the full score vectors.
pub fn cosine_similarity(pn: &Profile, pc: &Profile) -> f64 {
    if provably_disjoint(pn, pc) {
        return 0.0;
    }
    let (dot, _) = common_sums(pn, pc);
    ratio(dot, pn.norm() * pc.norm())
}

/// Jaccard index over the *liked* item sets.
pub fn jaccard_similarity(pn: &Profile, pc: &Profile) -> f64 {
    if provably_disjoint(pn, pc) {
        return 0.0;
    }
    let sums = merge_join(pn, pc);
    if sums.union_likes == 0 {
        0.0
    } else {
        sums.common_likes as f64 / sums.union_likes as f64
    }
}

/// One fixed profile `pn`, prepared to be scored against many candidates
/// (see "One-vs-many scoring" in the module docs). Every score is
/// bit-identical to [`Metric::score`]`(pn, candidate)`.
///
/// The index is built on the first candidate that gets past the
/// fingerprint rejection and is not counted on bit planes, so a scorer
/// that only ever meets disjoint or counted candidates costs nothing; it
/// lives exactly as long as this value — one view merge, one BEEP
/// orientation.
pub struct Prepared<'a> {
    pn: &'a Profile,
    /// `None` inside the cell: the index declined `pn` (see
    /// [`Index::build`]) and candidates are scored pairwise.
    index: std::cell::OnceCell<Option<Index>>,
}

impl<'a> Prepared<'a> {
    pub fn new(pn: &'a Profile) -> Self {
        Self {
            pn,
            index: std::cell::OnceCell::new(),
        }
    }

    /// [`Metric::score`]`(pn, pc)`. Jaccard needs the union, which a walk
    /// of one side cannot see: it is counted when both profiles have
    /// planes and stays pairwise otherwise.
    #[inline]
    pub fn score(&self, metric: Metric, pc: &Profile) -> f64 {
        match metric {
            Metric::Wup => self.wup(pc),
            Metric::Cosine => self.cosine(pc),
            Metric::Jaccard => self.jaccard(pc),
        }
    }

    /// [`wup_similarity`]`(pn, pc)`.
    pub fn wup(&self, pc: &Profile) -> f64 {
        if provably_disjoint(self.pn, pc) {
            return 0.0;
        }
        let (dot, sub_norm2) = self.common_sums(pc);
        ratio(dot, sub_norm2.sqrt() * pc.norm())
    }

    /// [`cosine_similarity`]`(pn, pc)`.
    pub fn cosine(&self, pc: &Profile) -> f64 {
        if provably_disjoint(self.pn, pc) {
            return 0.0;
        }
        let (dot, _) = self.common_sums(pc);
        ratio(dot, self.pn.norm() * pc.norm())
    }

    /// [`jaccard_similarity`]`(pn, pc)`.
    fn jaccard(&self, pc: &Profile) -> f64 {
        if provably_disjoint(self.pn, pc) {
            return 0.0;
        }
        let Some((common_likes, _)) = self.counted(pc) else {
            return jaccard_similarity(self.pn, pc);
        };
        let union_likes = self.pn.like_count() + pc.like_count() - common_likes as usize;
        if union_likes == 0 {
            0.0
        } else {
            f64::from(common_likes) / union_likes as f64
        }
    }

    /// `(|liked_n ∩ liked_c|, |liked_n ∩ rated_c|)` when both profiles have
    /// planes (see "Counting path for binary profiles" in the module
    /// docs). The fixed side is asked first, from memoized state: a
    /// real-valued item profile builds nothing for itself, and none of its
    /// candidates gets planes built for a score that cannot use them. Its
    /// own planes are built once a candidate has some to count against.
    #[inline]
    fn counted(&self, pc: &Profile) -> Option<(u32, u32)> {
        if !self.pn.may_have_planes() {
            return None;
        }
        let theirs = pc.planes_when_rescored()?;
        Some(self.pn.planes()?.overlap(theirs))
    }

    fn common_sums(&self, pc: &Profile) -> (f64, f64) {
        if let Some((dot, sub_norm2)) = self.counted(pc) {
            return (f64::from(dot), f64::from(sub_norm2));
        }
        // The index masks a miss by multiplying with zero, which is exact
        // only for finite candidate scores (see `Index::common_sums`).
        match self.index.get_or_init(|| Index::build(self.pn)) {
            Some(index) if pc.norm().is_finite() => index.common_sums(pc),
            _ => common_sums(self.pn, pc),
        }
    }
}

/// One cache line of the [`Index`]: the (up to) four entries of the fixed
/// profile whose item id hashes here, filled from slot 0 up. A free slot is
/// the all-zero pair, so the candidate item `0` "matches" it — and reads
/// the score `+0.0`, which is what a miss reads anyway; a lookup lets the
/// lowest matching slot win, so a rated item `0` is found before them.
/// (The entry `(0, +0.0)` itself looks free and may be overwritten: found
/// or missed, it reads `+0.0`.)
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Bucket {
    items: [crate::item::ItemId; Bucket::SLOTS],
    /// `score as f64`, widened once here instead of once per lookup.
    scores: [f64; Bucket::SLOTS],
}

impl Bucket {
    const SLOTS: usize = 4;
    const EMPTY: Self = Self {
        items: [0; Self::SLOTS],
        scores: [0.0; Self::SLOTS],
    };
}

thread_local! {
    /// The allocation of the last [`Index`] dropped on this thread, for
    /// the next one to build in. An index lives for one merge or one
    /// orientation and is tens of KiB; bought from the allocator each time,
    /// those transient blocks fragment the heap (+2 MiB peak RSS on a
    /// 17 MiB run, measured) — and a node may not own one either: hundreds
    /// of nodes × tens of KiB is more than everything else they hold.
    static SPARE: std::cell::Cell<Vec<Bucket>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Item id → score of the fixed profile, as a one-probe hash table: the
/// bucket is a pure function of the id, so a lookup compares the four
/// slots of one bucket and never walks a chain.
struct Index {
    buckets: Vec<Bucket>,
}

impl Drop for Index {
    fn drop(&mut self) {
        // A table a hostile 60 KiB item profile blew up is not worth
        // pinning; what honest profiles need is a fraction of this.
        if self.buckets.capacity() <= 1 << 14 {
            SPARE.set(std::mem::take(&mut self.buckets));
        }
    }
}

impl Index {
    /// Two buckets per entry, then four. Ids being content hashes, bucket
    /// occupancy is Poisson: at mean ½ some bucket of a 160-entry profile
    /// gets a fifth entry about one time in twenty (a 300-entry one, one in
    /// six), at mean ¼ one in a thousand. What still overflows then — ids
    /// crafted to collide — makes the index decline; it never degrades.
    fn build(pn: &Profile) -> Option<Self> {
        let mut index = Self {
            buckets: SPARE.take(),
        };
        [2, 4]
            .into_iter()
            .any(|per_entry| index.fill(pn, per_entry * pn.len() + 1))
            .then_some(index)
    }

    /// Re-sizes the table to `buckets` and inserts `pn`'s entries; `false`
    /// as soon as one does not fit.
    fn fill(&mut self, pn: &Profile, buckets: usize) -> bool {
        self.buckets.clear();
        self.buckets.resize(buckets, Bucket::EMPTY);
        for e in pn.entries() {
            let at = self.bucket_of(e.item);
            let bucket = &mut self.buckets[at];
            let free = (0..Bucket::SLOTS)
                .find(|&slot| bucket.items[slot] == 0 && bucket.scores[slot].to_bits() == 0);
            let Some(slot) = free else {
                return false;
            };
            bucket.items[slot] = e.item;
            bucket.scores[slot] = e.score as f64;
        }
        true
    }

    /// Fibonacci hashing spreads dense dataset ids (`0, 1, 2…`) as evenly
    /// as content hashes; folding the high half in first keeps ids on an
    /// arithmetic progression with an unlucky stride from lining up. The
    /// widening multiply then maps the hash onto `0..buckets.len()` without
    /// requiring a power-of-two table.
    #[inline]
    fn bucket_of(&self, item: crate::item::ItemId) -> usize {
        let hash = (item ^ (item >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((u128::from(hash) * self.buckets.len() as u128) >> 64) as usize
    }

    /// `(Σ pn·pc, Σ pn²)` over the common items — the two sums of the
    /// pairwise [`common_sums`], accumulated in the same (ascending item
    /// id) order, because that is the order of `pc`'s entries. An entry of
    /// `pc` that `pn` does not rate reads `sa = +0.0` and adds `±0.0` to
    /// both sums, which leaves an accumulator that started at `+0.0`
    /// unchanged bit for bit (a sum is `-0.0` only when both terms are).
    /// That needs `0.0 · sb` to be a zero: `pc`'s scores must be finite.
    ///
    /// No branch depends on whether an item is common — the four slots are
    /// all compared and the match is a chain of conditional moves
    /// (`select_unpredictable` keeps the compiler from turning them back
    /// into branches).
    fn common_sums(&self, pc: &Profile) -> (f64, f64) {
        let (mut dot, mut sub_norm2) = (0.0f64, 0.0f64);
        for e in pc.entries() {
            let bucket = &self.buckets[self.bucket_of(e.item)];
            let mut sa_bits = 0u64;
            for (item, score) in bucket.items.iter().zip(&bucket.scores).rev() {
                sa_bits = select_unpredictable(*item == e.item, score.to_bits(), sa_bits);
            }
            let (sa, sb) = (f64::from_bits(sa_bits), e.score as f64);
            dot += sa * sb;
            sub_norm2 += sa * sa;
        }
        (dot, sub_norm2)
    }
}

/// The scan-only reference implementations, bypassing the fingerprint fast
/// path. Exposed (hidden) so property tests can assert the fast path is
/// bit-identical to the scalar merge-join over arbitrary profiles.
#[doc(hidden)]
pub mod reference {
    use super::{merge_join, Profile};

    pub fn wup_similarity(pn: &Profile, pc: &Profile) -> f64 {
        let sums = merge_join(pn, pc);
        let denom = sums.sub_norm2.sqrt() * pc.norm();
        if denom <= 0.0 {
            0.0
        } else {
            sums.dot / denom
        }
    }

    pub fn cosine_similarity(pn: &Profile, pc: &Profile) -> f64 {
        let sums = merge_join(pn, pc);
        let denom = pn.norm() * pc.norm();
        if denom <= 0.0 {
            0.0
        } else {
            sums.dot / denom
        }
    }

    pub fn jaccard_similarity(pn: &Profile, pc: &Profile) -> f64 {
        let sums = merge_join(pn, pc);
        if sums.union_likes == 0 {
            0.0
        } else {
            sums.common_likes as f64 / sums.union_likes as f64
        }
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
        assert!((jaccard_similarity(&p, &p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_profiles_score_zero() {
        let a = profile(&[1, 2], &[]);
        let b = profile(&[3, 4], &[]);
        assert_eq!(wup_similarity(&a, &b), 0.0);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        assert_eq!(jaccard_similarity(&a, &b), 0.0);
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
    fn jaccard_counts_union() {
        let a = profile(&[1, 2], &[]);
        let b = profile(&[2, 3], &[]);
        assert!((jaccard_similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profiles_are_zero_everywhere() {
        let e = Profile::new();
        let p = profile(&[1], &[]);
        for m in [Metric::Wup, Metric::Cosine, Metric::Jaccard] {
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

    /// The item id the index hashes to `hash`: multiply by the inverse of
    /// its (odd) multiplier modulo 2⁶⁴ — Newton iteration, each round
    /// doubles the number of correct bits — then undo the fold of the high
    /// half, which is its own inverse.
    fn item_hashing_to(hash: u64) -> u64 {
        let fib: u64 = 0x9e37_79b9_7f4a_7c15;
        let inverse = (0..6).fold(fib, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(fib.wrapping_mul(x)))
        });
        assert_eq!(fib.wrapping_mul(inverse), 1);
        let folded = hash.wrapping_mul(inverse);
        folded ^ (folded >> 32)
    }

    /// Item ids for the scorer tests, from a small shared universe (so
    /// profiles overlap) spread three ways: dense ids from 0 (dataset
    /// style), content hashes, and ids whose hashes are `0, 1, 2…` — they
    /// share bucket 0 of any table, so the index must decline and the
    /// scorer fall back.
    fn spread(kind: u64, raw: u64) -> u64 {
        let id = raw % 256;
        match kind {
            0 => id,
            1 => crate::hash::fnv1a64(&id.to_le_bytes()),
            _ => item_hashing_to(id),
        }
    }

    /// Scores for the scorer tests: the binary extremes, `-0.0`, and
    /// item-profile style reals.
    fn score_of(raw: u32) -> f32 {
        match raw % 8 {
            0 | 1 => 0.0,
            2 | 3 => 1.0,
            4 => -0.0,
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
            (scorer.wup(pc), reference::wup_similarity(pn, pc)),
            (scorer.cosine(pc), reference::cosine_similarity(pn, pc)),
            (
                scorer.score(Metric::Jaccard, pc),
                reference::jaccard_similarity(pn, pc),
            ),
            (scorer.score(Metric::Wup, pc), Metric::Wup.score(pn, pc)),
            (
                scorer.score(Metric::Cosine, pc),
                Metric::Cosine.score(pn, pc),
            ),
        ];
        for (fast, slow) in pairs {
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "prepared {fast} != reference {slow} for {pn:?} vs {pc:?}"
            );
        }
    }

    #[test]
    fn prepared_handles_empty_sides_and_item_zero() {
        let empty = Profile::new();
        // Item 0 is what a free index slot holds; rated 1.0 it must still
        // be found, and unrated it must still be a miss.
        let with_zero = profile(&[0, 1, 2, 3], &[4]);
        let without_zero = profile(&[1, 2, 3], &[4]);
        // Disliked, item 0 is the pair `(0, +0.0)` — a free slot's twin.
        let zero_disliked = profile(&[1, 2], &[0]);
        let profiles = [
            empty,
            with_zero,
            without_zero,
            zero_disliked,
            profile(&[7], &[]),
        ];
        for pn in &profiles {
            let scorer = Prepared::new(pn);
            for pc in &profiles {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
        }
    }

    #[test]
    fn index_doubles_its_table_once_then_declines() {
        // 20 entries: 41 buckets at first, 81 on the second attempt. The
        // hashes `k · 2⁶⁴/81 + 1` lie in bucket `k` of the larger table
        // and, for `k < 2`, in bucket 0 of the smaller.
        let (n, step) = (20u64, u64::MAX / 81);
        let with_hashes = |hashes: &[u64]| {
            let likes: Vec<u64> = hashes.iter().map(|&h| item_hashing_to(h)).collect();
            profile(&likes, &[])
        };
        let spaced: Vec<u64> = (0..n).map(|k| 4 * k * step + 1).collect();
        let roomy = with_hashes(&spaced);
        assert_eq!(Index::build(&roomy).unwrap().buckets.len(), 41);
        // Five entries in bucket 0 of 41; three and two in buckets 0 and 1
        // of 81.
        let mut hashes = spaced.clone();
        hashes[..5].copy_from_slice(&[1, 2, 3, step + 1, step + 2]);
        let crowded = with_hashes(&hashes);
        assert_eq!(Index::build(&crowded).unwrap().buckets.len(), 81);
        // Five entries in bucket 0 of any table.
        hashes[..5].copy_from_slice(&[1, 2, 3, 4, 5]);
        let hostile = with_hashes(&hashes);
        assert!(Index::build(&hostile).is_none());
        for pn in [&roomy, &crowded, &hostile] {
            let scorer = Prepared::new(pn);
            for pc in [&roomy, &crowded, &hostile] {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
        }
    }

    #[test]
    fn prepared_matches_reference_on_non_finite_scores() {
        // Unreachable from the wire (the codec rejects them) but not from
        // `Profile::from_entries`: a non-finite candidate takes the
        // pairwise path, a non-finite fixed profile needs nothing special.
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
        for score in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let weird = odd(score);
            for (pn, pc) in [(&plain, &weird), (&weird, &plain), (&unrated, &weird)] {
                assert_scorer_matches_reference(&Prepared::new(pn), pn, pc);
            }
        }
    }

    /// The first of `n` item ids no test has used yet — ids the slot
    /// table has never seen, whatever the other tests of this process
    /// (which run in parallel and share the table) have registered.
    fn fresh_ids(n: u64) -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1 << 40);
        NEXT.fetch_add(n, Ordering::Relaxed)
    }

    /// Registers `ids` with the slot table in one step, so that they get
    /// consecutive slots (ascending with the id) no matter what other
    /// tests register meanwhile.
    fn register(ids: impl IntoIterator<Item = u64>) {
        let all = profile(&ids.into_iter().collect::<Vec<_>>(), &[]);
        assert!(all.planes().is_some() || all.len() < 2);
    }

    #[test]
    fn planes_follow_the_profile_through_clones_and_mutations() {
        let base = fresh_ids(64);
        register(base..base + 64);
        let ids = |offsets: &[u64]| offsets.iter().map(|o| base + o).collect::<Vec<_>>();
        let other = profile(&ids(&[1, 2, 3, 9, 20]), &ids(&[4, 5]));
        let check = |p: &Profile| {
            assert_scorer_matches_reference(&Prepared::new(p), p, &other);
            assert_scorer_matches_reference(&Prepared::new(&other), &other, p);
        };
        let original = profile(&ids(&[1, 2, 3, 4]), &ids(&[9, 10]));
        check(&original);
        assert!(original.plane_bytes() > 0, "a binary profile is counted");

        // A clone starts without planes and builds its own.
        let mut shared = crate::profile::SharedProfile::new(original.clone());
        assert_eq!(shared.plane_bytes(), 0);
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

        // Averaging two opinions leaves a real value: no planes, and the
        // index scores it. Re-rating the item makes the profile binary
        // again.
        let mut folded = original.aggregated_with(&profile(&ids(&[9]), &[]));
        assert_eq!(folded.get(base + 9).unwrap().score, 0.5);
        assert!(folded.planes().is_none());
        check(&folded);
        folded.rate(base + 9, 0, true);
        assert!(folded.planes().is_some());
        check(&folded);
        // Folding disjoint binary profiles stays binary.
        let merged = original.aggregated_with(&profile(&ids(&[30, 31]), &ids(&[32])));
        assert!(merged.planes().is_some());
        check(&merged);
    }

    #[test]
    fn a_candidate_is_walked_once_then_counted() {
        let base = fresh_ids(16);
        let own = profile(&[base, base + 1, base + 2], &[base + 3]);
        let mut snapshot = profile(&[base + 1, base + 2, base + 5], &[base]);
        let scorer = Prepared::new(&own);
        // Scored once — a decoded descriptor dropped after its merge —
        // nothing is built on either side, no id is registered.
        let first = scorer.wup(&snapshot);
        assert_eq!(own.plane_bytes() + snapshot.plane_bytes(), 0);
        // Scored again — a snapshot a view holds — both are.
        assert_eq!(scorer.wup(&snapshot).to_bits(), first.to_bits());
        assert!(own.plane_bytes() > 0 && snapshot.plane_bytes() > 0);
        assert_scorer_matches_reference(&scorer, &own, &snapshot);
        // A mutation starts the count again.
        snapshot.rate(base + 6, 0, true);
        let _ = scorer.wup(&snapshot);
        assert_eq!(snapshot.plane_bytes(), 0);
        let _ = scorer.wup(&snapshot);
        assert!(snapshot.plane_bytes() > 0);
        assert_scorer_matches_reference(&scorer, &own, &snapshot);
    }

    #[test]
    fn ids_first_seen_far_apart_decline() {
        // Two ids 30 words of slots apart: the planes of a profile holding
        // both would be mostly padding.
        let base = fresh_ids(2_000);
        register(base..base + 1_921);
        let near = profile(&[base, base + 1, base + 2], &[]);
        let wide = profile(&[base, base + 1], &[base + 1_920]);
        let far = profile(&[base + 1_919], &[base + 1_920]);
        assert!(near.planes().is_some());
        assert!(wide.planes().is_none(), "31 words for 3 entries");
        assert!(far.planes().is_some());
        for pn in [&near, &wide, &far] {
            let scorer = Prepared::new(pn);
            for pc in [&near, &wide, &far] {
                assert_scorer_matches_reference(&scorer, pn, pc);
            }
        }
    }

    #[test]
    fn a_real_valued_fixed_side_builds_no_planes() {
        let base = fresh_ids(8);
        let mut item_profile = profile(&[base, base + 1], &[]);
        item_profile.add_to_news_profile(ProfileEntry {
            item: base + 1,
            timestamp: 0,
            score: 0.0,
        });
        let candidates: Vec<Profile> = (0..4)
            .map(|k| profile(&[base + k, base + k + 1], &[base + k + 2]))
            .collect();
        let scorer = Prepared::new(&item_profile);
        for pc in &candidates {
            assert_scorer_matches_reference(&scorer, &item_profile, pc);
            assert_eq!(
                pc.plane_bytes(),
                0,
                "built for a score that cannot use them"
            );
        }
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Metric::Wup.label(), "wup");
        assert_eq!(Metric::Cosine.label(), "cos");
        assert_eq!(Metric::Jaccard.label(), "jac");
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
            for m in [Metric::Wup, Metric::Cosine, Metric::Jaccard] {
                let s = m.score(&a, &b);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{} out of range: {s}", m.label());
            }
        }

        /// The fast paths must be invisible in the output: every metric
        /// returns the *bit-identical* f64 the scan-only reference
        /// produces, over random pairs of mixed binary/real-valued profiles
        /// (narrow id range ⇒ plenty of overlapping pairs; disjoint ranges
        /// covered by the offset). The size ranges are deliberately skewed
        /// (`a` small, `b` up to ~150 entries) so the size-adaptive
        /// binary-search join — both orientations — is exercised alongside
        /// the balanced merge and the fingerprint rejection.
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
                (jaccard_similarity(&a, &b), reference::jaccard_similarity(&a, &b)),
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
        /// the id family (see `spread`), including the one the index must
        /// decline.
        #[test]
        fn prepared_is_bit_identical_to_reference(
            kind in 0u64..3,
            shape in 0usize..4,
            fixed in prop::collection::vec((0u64..1_000, 0u32..100_000), 0..300),
            cands in prop::collection::vec(
                prop::collection::vec((0u64..1_000, 0u32..100_000), 0..300),
                50..51,
            ),
        ) {
            let (fixed_max, cand_max) = [(300, 300), (1, 300), (300, 2), (40, 40)][shape];
            let pn = spread_profile(kind, &fixed[..fixed.len().min(fixed_max)]);
            let scorer = Prepared::new(&pn);
            for raw in &cands {
                let pc = spread_profile(kind, &raw[..raw.len().min(cand_max)]);
                assert_scorer_matches_reference(&scorer, &pn, &pc);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The counting path against the scan-only reference, by bits, in
        /// both directions of every pair — over binary profiles (`-0.0`
        /// included) with empty and one-entry sides, and with one side
        /// made real-valued (which must then have no planes and fall
        /// back). The same pair is built over three id ranges whose slots
        /// were handed out in different orders — ascending with the item,
        /// descending, evens before odds — and must score the same bits
        /// under each: the slot numbering shows in no result.
        #[test]
        fn counting_path_is_bit_identical_to_reference(
            shape in 0usize..4,
            real_valued in 0usize..3,
            ea in prop::collection::vec((0u64..96, 0u32..4), 0..80),
            eb in prop::collection::vec((0u64..96, 0u32..4), 0..80),
        ) {
            let (a_max, b_max) = [(80, 80), (0, 80), (1, 80), (80, 1)][shape];
            let (ea, eb) = (&ea[..ea.len().min(a_max)], &eb[..eb.len().min(b_max)]);
            let mut per_numbering = Vec::new();
            for numbering in 0..3 {
                let base = fresh_ids(96);
                let id_of = |i: u64| if numbering == 1 { base + 95 - i } else { base + i };
                if numbering == 2 {
                    register((0..96).step_by(2).map(id_of));
                    register((1..96).step_by(2).map(id_of));
                } else {
                    register(base..base + 96);
                }
                let build = |raw: &[(u64, u32)], real: bool| {
                    let mut p = Profile::from_entries(raw.iter().map(|&(i, class)| ProfileEntry {
                        item: id_of(i),
                        timestamp: 0,
                        score: [0.0, 1.0, -0.0, 1.0][class as usize],
                    }));
                    if let (true, Some(first)) = (real, raw.first()) {
                        p.upsert(ProfileEntry { item: id_of(first.0), timestamp: 0, score: 0.25 });
                    }
                    p
                };
                let a = build(ea, real_valued == 1);
                let b = build(eb, real_valued == 2);
                for (p, real) in [(&a, real_valued == 1), (&b, real_valued == 2)] {
                    if real && !p.is_empty() {
                        prop_assert!(p.planes().is_none());
                    } else if p.len() >= 3 || p.len() == 1 {
                        // (Two entries may straddle three words and decline.)
                        prop_assert!(p.planes().is_some());
                    }
                }
                assert_scorer_matches_reference(&Prepared::new(&a), &a, &b);
                assert_scorer_matches_reference(&Prepared::new(&b), &b, &a);
                let scorer = Prepared::new(&a);
                per_numbering.push(
                    [Metric::Wup, Metric::Cosine, Metric::Jaccard].map(|m| scorer.score(m, &b).to_bits()),
                );
            }
            prop_assert_eq!(per_numbering[0], per_numbering[1]);
            prop_assert_eq!(per_numbering[0], per_numbering[2]);
        }
    }
}
