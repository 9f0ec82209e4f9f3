//! Bit planes of a binary profile, and the weights of a real-valued one:
//! the two [`Layout`]s a profile keeps (see "Counting path" in
//! [`crate::similarity`]).
//!
//! A profile whose scores are all exactly 0 or 1 is two item sets — what
//! it *rated* and what it *liked* — and every similarity sum between two
//! such profiles is the size of an intersection. Stored as bit sets over a
//! shared numbering of the items, an intersection is an `&` and a
//! `count_ones` per 64 items instead of a walk of the entries, and a
//! real-valued profile laid out over the same numbering ([`Weights`]) is
//! summed by walking a binary candidate's set bits.
//!
//! The shared numbering is the run's **item index** ([`ItemIndexMap`]):
//! every item id of a run, numbered densely before cycle 0. The paper
//! numbers nothing — an item is the hash of its content (§II-A) — so the
//! numbering is this implementation's, and it never shows: a layout only
//! ever yields sums over an intersection, and entries rebuilt in id order,
//! which no renumbering changes. The two profiles of a score belong to
//! different nodes, so every node of a run holds the same index, and a
//! pair is only ever counted between layouts numbered by one (debug builds
//! check it, [`Numbering`]). The index is complete and read-only while the
//! run lasts, so a build looks its ids up without a lock, and an id the
//! index does not know — one a peer put on the wire — has no slot: a
//! binary profile holding one declines its planes, and weights leave it
//! out, since no candidate with planes can rate it.
//!
//! Both layouts are kept word-wise as well as built: a node's planes are
//! its own profile's whole store, rated and purged in place
//! ([`Planes::rate`], [`Planes::retain`]), an item profile's weights are
//! folded from the liker's planes without a lookup ([`Weights::fold`])
//! and purged by slot ([`Weights::retain`]). Every such path leaves the
//! words [`Planes::build`] and [`Weights::build`] would lay out from the
//! entries, and says where they would decline ([`Planes::fits`],
//! [`Weights::fits`]).
//!
//! The one lookup pass of a build also tracks the lowest and highest slot
//! placed, so the span of the layout costs no walk of its own
//! ([`word_span`]).

use crate::item::ItemIndexMap;
use crate::profile::ProfileEntry;

/// Which index a layout's slots are numbered by — its address, in debug
/// builds only: a pair of layouts is counted only when both are numbered
/// by the run's one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Numbering {
    #[cfg(debug_assertions)]
    index: usize,
}

impl Numbering {
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn of(index: &ItemIndexMap) -> Self {
        Self {
            #[cfg(debug_assertions)]
            index: std::ptr::from_ref(index) as usize,
        }
    }
}

/// The words `first..end` of 64 slots that `placed` slots, the lowest `lo`
/// and the highest `hi`, touch — unless they are numbered so far apart
/// that the span holds more words than there are slots: such a profile is
/// cheaper to walk than to lay out. A build tracks `lo` and `hi` while it
/// places the slots, so the span costs no walk of its own.
fn word_span((lo, hi): (u32, u32), placed: usize) -> Option<(u32, u32)> {
    if placed == 0 {
        return Some((0, 0));
    }
    let (first, end) = (lo / 64, hi / 64 + 1);
    ((end - first) as usize <= placed).then_some((first, end))
}

/// `(lo, hi)` of [`word_span`] widened by `slot`; `(u32::MAX, 0)` before
/// the first.
fn widen((lo, hi): (u32, u32), slot: u32) -> (u32, u32) {
    (lo.min(slot), hi.max(slot))
}

/// The words two layouts have in common, pair by pair: `a[0]` is word
/// `a_first` of the untrimmed layout, `b[0]` word `b_first`.
fn shared_words<'a, A, B>(
    (a_first, a): (u32, &'a [A]),
    (b_first, b): (u32, &'a [B]),
) -> impl Iterator<Item = (&'a A, &'a B)> {
    let from = a_first.max(b_first);
    let a = a.get((from - a_first) as usize..).unwrap_or_default();
    a.iter()
        .zip(b.get((from - b_first) as usize..).unwrap_or_default())
}

/// `words` without the unused words at either end — `used` tells — and
/// the position of its first word, `first` before the trim. All unused is
/// empty at word 0, where a build of no entries starts.
fn trim<W: Copy>(first: &mut u32, words: &mut Box<[W]>, used: impl Fn(&W) -> bool) {
    let Some(lo) = words.iter().position(&used) else {
        (*first, *words) = (0, Box::default());
        return;
    };
    let hi = words.iter().rposition(&used).unwrap_or(lo) + 1;
    if lo > 0 || hi < words.len() {
        *first += lo as u32;
        *words = words[lo..hi].into();
    }
}

/// Whether the index gives `e` back from `slot` as it is: the same id,
/// and the item's creation time as its timestamp (a node stamps what it
/// rates with it, §II-A).
fn from_index(e: &ProfileEntry, slot: u32, index: &ItemIndexMap) -> bool {
    index.id_of(slot) == e.item && index.created_at(slot) == e.timestamp
}

/// Whether binary planes give `e` back as it is from `slot`: besides
/// [`from_index`], a score of `+0.0` or `1`, not the `-0.0` they would
/// give back as `+0.0`.
fn exact_binary(e: &ProfileEntry, slot: u32, index: &ItemIndexMap) -> bool {
    (e.score == 1.0 || e.score.to_bits() == 0) && from_index(e, slot, index)
}

/// The rated and liked item sets of one binary profile, as bit sets over
/// the item index's numbering, trimmed to the words the profile touches.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Planes {
    /// Position of `words[0]` in the untrimmed bit sets: it covers slots
    /// `64 · first_word ..`.
    first_word: u32,
    /// Entries the planes and the index do not give back as they are (see
    /// [`Self::is_pack`]).
    inexact: u32,
    /// `[rated, liked]` bits of 64 consecutive slots.
    words: Box<[[u64; 2]]>,
    numbering: Numbering,
}

impl Planes {
    /// Planes of `entries`, whose scores must all be `0` or `1`, over
    /// `index`. Declines (`None`) when the index does not know one of the
    /// ids, and when the planes would span more words than the profile has
    /// entries (see [`word_span`]). The one pass that looks the ids up
    /// also tracks the span, and counts the entries the planes would not
    /// give back as they are.
    pub(crate) fn build(entries: &[ProfileEntry], index: &ItemIndexMap) -> Option<Self> {
        let (mut slots, mut bounds) = (Vec::with_capacity(entries.len()), (u32::MAX, 0));
        let mut inexact = 0;
        for e in entries {
            let slot = *index.get(&e.item)?;
            slots.push(slot);
            bounds = widen(bounds, slot);
            inexact += u32::from(!exact_binary(e, slot, index));
        }
        let (first_word, end_word) = word_span(bounds, slots.len())?;
        let mut planes = Self {
            first_word,
            inexact,
            words: vec![[0u64; 2]; (end_word - first_word) as usize].into_boxed_slice(),
            numbering: Numbering::of(index),
        };
        for (e, &slot) in entries.iter().zip(&slots) {
            planes.set(slot, e.score == 1.0);
        }
        Some(planes)
    }

    /// Whether the planes and the index are the whole profile: every id
    /// has the slot it came from, every timestamp is its item's creation
    /// time, and every score is `+0.0` or `1`. Such planes are what a
    /// packed snapshot keeps, and what an item profile is folded from.
    pub(crate) fn is_pack(&self) -> bool {
        self.inexact == 0
    }

    /// Marks `slot` rated, and liked or not; its word must be spanned.
    fn set(&mut self, slot: u32, liked: bool) {
        let word = &mut self.words[(slot / 64 - self.first_word) as usize];
        let bit = 1u64 << (slot % 64);
        word[0] |= bit;
        word[1] = word[1] & !bit | (bit & 0u64.wrapping_sub(u64::from(liked)));
    }

    /// Rates `slot`, liked or not, widening the span to its word; whether
    /// it was rated before, and if so, liked. The planes of a node's own
    /// packed profile follow its ratings through this, in place.
    pub(crate) fn rate(&mut self, slot: u32, liked: bool) -> Option<bool> {
        self.cover(slot / 64);
        let word = self.words[(slot / 64 - self.first_word) as usize];
        let bit = 1u64 << (slot % 64);
        let before = (word[0] & bit != 0).then_some(word[1] & bit != 0);
        self.set(slot, liked);
        before
    }

    /// Drops the rated slots `keep` turns away, trimming the span as a
    /// build of what is left would, and counts what is left. Only planes
    /// that are a pack are purged by slot.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) -> Counts {
        debug_assert!(self.is_pack(), "planes purged by slot are the profile");
        let mut counts = Counts::default();
        for (at, word) in (self.first_word..).zip(self.words.iter_mut()) {
            let mut rest = word[0];
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                if keep(at * 64 + bit) {
                    counts.len += 1;
                    counts.likes += (word[1] >> bit & 1) as u32;
                } else {
                    (word[0], word[1]) = (word[0] & !(1 << bit), word[1] & !(1 << bit));
                }
            }
        }
        trim(&mut self.first_word, &mut self.words, |w| w[0] != 0);
        counts
    }

    /// Whether the planes of `len` entries are what [`Self::build`] would
    /// lay out rather than decline: a span no wider than the entries.
    pub(crate) fn fits(&self, len: usize) -> bool {
        self.words.len() <= len
    }

    /// Widens the span to hold word `word`.
    fn cover(&mut self, word: u32) {
        let end = self.first_word + self.words.len() as u32;
        if self.words.is_empty() {
            (self.first_word, self.words) = (word, Box::new([[0; 2]]));
        } else if word < self.first_word || word >= end {
            let first = self.first_word.min(word);
            let mut words = vec![[0u64; 2]; (end.max(word + 1) - first) as usize];
            let at = (self.first_word - first) as usize;
            words[at..at + self.words.len()].copy_from_slice(&self.words);
            (self.first_word, self.words) = (first, words.into_boxed_slice());
        }
    }

    /// The rated slots in ascending order, each with whether it is liked.
    pub(crate) fn rated(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        (self.words.iter().zip(self.first_word..)).flat_map(|(&[rated, liked], word)| {
            let mut rest = rated;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((word * 64 + bit, liked >> bit & 1 == 1))
            })
        })
    }

    /// `(|liked ∩ cand.liked|, |liked ∩ cand.rated|)`: for binary profiles
    /// the metrics' `Σ pn·pc` and `Σ pn²` over the common items.
    pub(crate) fn overlap(&self, cand: &Planes) -> (u32, u32) {
        debug_assert_eq!(self.numbering, cand.numbering, "planes of two indexes");
        let (mut both_liked, mut liked_and_rated) = (0, 0);
        let shared = shared_words(
            (self.first_word, &self.words),
            (cand.first_word, &cand.words),
        );
        for ([_, liked], [cand_rated, cand_liked]) in shared {
            both_liked += (liked & cand_liked).count_ones();
            liked_and_rated += (liked & cand_rated).count_ones();
        }
        (both_liked, liked_and_rated)
    }
}

/// The fixed-point unit of [`Weights`]: a score is `q / ONE`.
const ONE: u32 = 1 << 20;

/// Most entries a weighed profile may have: with `q ≤ 2²⁰` a sum of this
/// many `q²` stays at or below 2⁵³, where f64 still holds every integer.
const MAX_WEIGHED: usize = 1 << 13;

/// `score · 2²⁰` if that is a whole number in `0..=2²⁰`. The round trip is
/// compared by bits, which also turns NaN and `-0.0` away.
fn fixed_point(score: f32) -> Option<u32> {
    let scaled = score * ONE as f32;
    // Saturating; NaN becomes 0. `q ≤ 2²⁰` converts back exactly.
    let q = scaled as u32;
    (q <= ONE && (q as f32).to_bits() == scaled.to_bits()).then_some(q)
}

/// The score `q / 2²⁰`, exactly: `q ≤ 2²⁰` needs 21 of an f32's 24 bits,
/// and the division is by a power of two.
pub(crate) fn score_of(q: u32) -> f32 {
    q as f32 / ONE as f32
}

/// What the derived state of a profile laid out by slot counts: its
/// entries, those scored above ½ and those scored neither 0 nor 1. Kept
/// through a fold and a purge by what they change, where a flat profile
/// rescans its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counts {
    pub(crate) len: usize,
    pub(crate) likes: u32,
    pub(crate) non_binary: u32,
}

impl Counts {
    /// Counts a score of weight `q` in.
    fn add(&mut self, q: u32) {
        self.likes += u32::from(q > ONE / 2);
        self.non_binary += u32::from(q != 0 && q != ONE);
    }

    /// Counts a score of weight `q` out.
    fn remove(&mut self, q: u32) {
        self.likes -= u32::from(q > ONE / 2);
        self.non_binary -= u32::from(q != 0 && q != ONE);
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread laid weights out from entries.
    pub(crate) static WEIGHTS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One word of [`Weights`]: 64 consecutive slots.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WeightWord {
    /// The slots the profile holds, zeros included.
    held: u64,
    /// The held slots whose `q` is not 0: all a sum visits.
    weighed: u64,
    /// `score · 2²⁰` of the entry owning each slot (0 where none does).
    q: [u32; 64],
}

impl WeightWord {
    const EMPTY: Self = Self {
        held: 0,
        weighed: 0,
        q: [0; 64],
    };

    /// Holds `bit` at weight `q`.
    fn hold(&mut self, bit: u32, q: u32) {
        let mask = 1u64 << bit;
        self.held |= mask;
        self.weighed = self.weighed & !mask | (mask & 0u64.wrapping_sub(u64::from(q != 0)));
        self.q[bit as usize] = q;
    }
}

/// A real-valued profile laid out by slot, to be summed against the planes
/// of binary candidates: every entry the index knows, zeros included. One
/// whose id the index does not know is left out; no candidate with planes
/// rates it. Built from entries ([`Self::build`]) or folded from a
/// liker's planes ([`Self::fold`]), the words are the same.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Weights {
    /// Position of `words[0]` in the untrimmed layout, as in [`Planes`].
    first_word: u32,
    /// Per 64 consecutive slots: which the profile holds, which of those
    /// weigh anything, and `score · 2²⁰` of each.
    words: Box<[WeightWord]>,
    /// `Σ q²` over the slots held: the squared norm in units of 2⁻⁴⁰.
    /// Exact, with at most [`MAX_WEIGHED`] of them.
    sum_q2: u64,
    numbering: Numbering,
}

impl Weights {
    /// Weights of the entries whose ids `index` knows. Declines (`None`)
    /// unless every score is a whole multiple of 2⁻²⁰ in `[0, 1]` and
    /// there are at most 2¹³ of them — what makes [`Self::sums`] exact —
    /// and when the layout would span more words than it places entries
    /// (see [`word_span`]). The one pass that looks the ids up also tracks
    /// the span.
    pub(crate) fn build(entries: &[ProfileEntry], index: &ItemIndexMap) -> Option<Self> {
        Self::lay_out(entries, index, false)
    }

    /// [`Self::build`] of entries the index gives back as they are (see
    /// [`from_index`]): the weights are then the whole profile, and a
    /// flat item profile folds in slot space from them. Declines where
    /// one entry is not given back.
    pub(crate) fn pack(entries: &[ProfileEntry], index: &ItemIndexMap) -> Option<Self> {
        Self::lay_out(entries, index, true)
    }

    /// [`Self::build`], or with `exact` [`Self::pack`].
    fn lay_out(entries: &[ProfileEntry], index: &ItemIndexMap, exact: bool) -> Option<Self> {
        #[cfg(test)]
        WEIGHTS_BUILT.with(|built| built.set(built.get() + 1));
        if entries.len() > MAX_WEIGHED {
            return None;
        }
        let mut placed = Vec::with_capacity(entries.len());
        let mut bounds = (u32::MAX, 0);
        for e in entries {
            let q = fixed_point(e.score)?;
            match index.get(&e.item) {
                Some(&slot) if !exact || from_index(e, slot, index) => {
                    placed.push((slot, q));
                    bounds = widen(bounds, slot);
                }
                _ if exact => return None,
                _ => {}
            }
        }
        let (first_word, end_word) = word_span(bounds, placed.len())?;
        let mut words = vec![WeightWord::EMPTY; (end_word - first_word) as usize];
        let mut sum_q2 = 0;
        for (slot, q) in placed {
            words[(slot / 64 - first_word) as usize].hold(slot % 64, q);
            sum_q2 += u64::from(q) * u64::from(q);
        }
        let words = words.into_boxed_slice();
        Some(Self {
            first_word,
            words,
            sum_q2,
            numbering: Numbering::of(index),
        })
    }

    /// The weights of an item profile with a liker's profile folded in by
    /// `addToNewsProfile`'s rule (Algorithm 1: average an item both hold,
    /// take the liker's opinion on one only it holds), word by word, and
    /// the fold's [`Counts`]. `item` is `None` for an empty item profile,
    /// `counts` its counts, and `own` the liker's planes, which must be a
    /// pack ([`Planes::is_pack`]). Declines what a fold from entries could
    /// not weigh or would rather keep flat: an average that is no whole
    /// multiple of 2⁻²⁰, more than 2¹³ entries, a span wider than the
    /// entries (see [`word_span`]), or words taking more than twice the
    /// bytes of the entries they hold.
    pub(crate) fn fold(
        item: Option<&Weights>,
        counts: Counts,
        own: &Planes,
    ) -> Option<(Weights, Counts)> {
        debug_assert!(own.is_pack(), "folded from planes that are not the profile");
        let rated: u32 = own.words.iter().map(|w| w[0].count_ones()).sum();
        if rated as usize > MAX_WEIGHED {
            return None;
        }
        let spans = [
            item.map(|w| (w.first_word, w.words.len())),
            Some((own.first_word, own.words.len())),
        ];
        let spans = spans.into_iter().flatten().filter(|&(_, len)| len > 0);
        let (first, end) = spans.fold((u32::MAX, 0), |(first, end), (at, len)| {
            (first.min(at), end.max(at + len as u32))
        });
        let mut words = Vec::with_capacity(end.saturating_sub(first) as usize);
        let mut sum_q2 = 0;
        if let Some(item) = item.filter(|w| !w.words.is_empty()) {
            debug_assert_eq!(item.numbering, own.numbering, "layouts of two indexes");
            words.resize((item.first_word - first) as usize, WeightWord::EMPTY);
            words.extend_from_slice(&item.words);
            sum_q2 = item.sum_q2;
        }
        words.resize(end.saturating_sub(first) as usize, WeightWord::EMPTY);
        let mut counts = counts;
        let own_words = words.get_mut(own.first_word.wrapping_sub(first) as usize..);
        for (&[rated, liked], word) in own.words.iter().zip(own_words.unwrap_or_default()) {
            let mut rest = rated;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let own_q = ONE & 0u32.wrapping_sub((liked >> bit & 1) as u32);
                let q = word.q[bit as usize];
                let folded = if word.held >> bit & 1 == 1 {
                    let sum = q + own_q;
                    if sum % 2 == 1 {
                        return None;
                    }
                    counts.remove(q);
                    sum_q2 -= u64::from(q) * u64::from(q);
                    sum / 2
                } else {
                    counts.len += 1;
                    own_q
                };
                counts.add(folded);
                sum_q2 += u64::from(folded) * u64::from(folded);
                word.hold(bit, folded);
            }
        }
        let weights = Self {
            first_word: if words.is_empty() { 0 } else { first },
            words: words.into_boxed_slice(),
            sum_q2,
            numbering: own.numbering,
        };
        weights.fits(counts.len).then_some((weights, counts))
    }

    /// Whether the weights of `len` entries may be a profile's whole
    /// store: at most 2¹³ entries, a span no wider than the entries, and
    /// words of at most twice the bytes the entries take flat.
    pub(crate) fn fits(&self, len: usize) -> bool {
        let (bytes, flat) = (
            std::mem::size_of_val(&*self.words),
            len * std::mem::size_of::<ProfileEntry>(),
        );
        len <= MAX_WEIGHED && self.words.len() <= len && bytes <= 2 * flat
    }

    /// Drops the held slots `keep` turns away, trimming the span as a
    /// build of what is left would, and counts what is left.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) -> Counts {
        let mut counts = Counts::default();
        for (at, word) in (self.first_word..).zip(self.words.iter_mut()) {
            let mut rest = word.held;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let q = word.q[bit as usize];
                if keep(at * 64 + bit) {
                    counts.len += 1;
                    counts.add(q);
                } else {
                    (word.held, word.weighed) =
                        (word.held & !(1 << bit), word.weighed & !(1 << bit));
                    self.sum_q2 -= u64::from(q) * u64::from(q);
                    word.q[bit as usize] = 0;
                }
            }
        }
        trim(&mut self.first_word, &mut self.words, |word| word.held != 0);
        counts
    }

    /// The held slots in ascending order, each with its `q`.
    pub(crate) fn held(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (self.words.iter().zip(self.first_word..)).flat_map(|(word, at)| {
            let mut rest = word.held;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((at * 64 + bit, word.q[bit as usize]))
            })
        })
    }

    /// `‖scores‖₂` of the slots held, as the reference scan yields it, bit
    /// for bit: every partial sum of its `s²` is a whole number of 2⁻⁴⁰
    /// units no greater than 2⁵³, exact in any order, and so is `Σ q²`.
    /// An empty (all-zero) profile's is `+0.0`, as the scan's.
    pub(crate) fn norm(&self) -> f64 {
        let unit = 1.0 / f64::from(ONE);
        let n = (self.sum_q2 as f64 * (unit * unit)).sqrt();
        if n == 0.0 {
            0.0
        } else {
            n
        }
    }

    /// The metrics' `(Σ pn·pc, Σ pn²)` over the items `cand` rated, as the
    /// reference's f64 accumulation yields them, bit for bit (see
    /// "Exactness of weights" in [`crate::similarity`]). Walks the set
    /// bits of the candidate's `rated` plane the profile holds at a
    /// non-zero weight — one at 0 adds nothing — and whether an item is
    /// liked is a mask, not a branch.
    pub(crate) fn sums(&self, cand: &Planes) -> (f64, f64) {
        debug_assert_eq!(self.numbering, cand.numbering, "layouts of two indexes");
        let (mut dot, mut sub_norm2) = (0u64, 0u64);
        let shared = shared_words(
            (self.first_word, &self.words),
            (cand.first_word, &cand.words),
        );
        for (word, [rated, liked]) in shared {
            let mut rest = rated & word.weighed;
            while rest != 0 {
                let bit = rest.trailing_zeros() % 64;
                rest &= rest - 1;
                let weight = u64::from(word.q[bit as usize]);
                sub_norm2 += weight * weight;
                dot += weight & 0u64.wrapping_sub(liked >> bit & 1);
            }
        }
        let unit = 1.0 / f64::from(ONE);
        (dot as f64 * unit, sub_norm2 as f64 * (unit * unit))
    }
}

/// What a profile is laid out as (`Profile::layout`): planes if every
/// score is 0 or 1, weights otherwise — or, for a packed profile, what it
/// was packed as: a disclosed snapshot's planes, a folded item profile's
/// weights.
#[derive(Debug, Clone)]
pub(crate) enum Layout {
    Planes(Planes),
    Weights(Weights),
}

impl Layout {
    /// Heap bytes of the layout (memory diagnostics).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Self::Planes(planes) => std::mem::size_of_val(&*planes.words),
            Self::Weights(weights) => std::mem::size_of_val(&*weights.words),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An index numbering `ids` in the order given.
    fn index_of(ids: impl IntoIterator<Item = u64>) -> ItemIndexMap {
        ids.into_iter().zip(0..).collect()
    }

    fn entries(ids: impl IntoIterator<Item = u64>) -> Vec<ProfileEntry> {
        ids.into_iter()
            .map(|item| ProfileEntry {
                item,
                timestamp: 0,
                // Liked unless the id is a multiple of 3.
                score: if item % 3 == 0 { 0.0 } else { 1.0 },
            })
            .collect()
    }

    /// [`word_span`] by its definition: three walks of the placed slots.
    fn word_span_by_walks(slots: impl Iterator<Item = u32> + Clone) -> Option<(u32, u32)> {
        let first = slots.clone().min().map_or(0, |s| s / 64);
        let end = slots.clone().max().map_or(0, |s| s / 64 + 1);
        ((end - first) as usize <= slots.count()).then_some((first, end))
    }

    proptest! {
        /// The one-pass builds against the definitions they replace:
        /// weights span what [`word_span_by_walks`] makes of the slots of
        /// their known entries, zeros included, and decline exactly when
        /// it does; planes likewise.
        #[test]
        fn one_pass_spans_match_their_definition(
            picks in prop::collection::vec((0u64..400, 0usize..5), 0..40),
            binary in prop::collection::vec(0u64..300, 0..40),
        ) {
            // 300 consecutive slots, and 100 ids the index does not know.
            let index = index_of(0..300);
            let mut weighed: Vec<ProfileEntry> = picks
                .iter()
                .map(|&(item, class)| ProfileEntry {
                    item,
                    timestamp: 0,
                    score: [0.0, 0.25, 0.5, 0.75, 1.0][class],
                })
                .collect();
            weighed.sort_by_key(|e| e.item);
            weighed.dedup_by_key(|e| e.item);
            let placed = weighed.iter().filter_map(|e| index.get(&e.item).copied());
            let layout = Weights::build(&weighed, &index).map(|w| {
                (w.first_word, w.first_word + w.words.len() as u32)
            });
            prop_assert_eq!(layout, word_span_by_walks(placed));

            let mut rated: Vec<ProfileEntry> = binary
                .iter()
                .map(|&item| ProfileEntry {
                    item,
                    timestamp: 0,
                    score: (item % 2) as f32,
                })
                .collect();
            rated.sort_by_key(|e| e.item);
            rated.dedup_by_key(|e| e.item);
            let slots = rated.iter().filter_map(|e| index.get(&e.item).copied());
            let span = Planes::build(&rated, &index)
                .map(|p| (p.first_word, p.first_word + p.words.len() as u32));
            prop_assert_eq!(span, word_span_by_walks(slots));
        }
    }

    /// [`Planes::overlap`] by definition, on the entries.
    fn overlap_by_search(own: &[ProfileEntry], cand: &[ProfileEntry]) -> (u32, u32) {
        let (mut both_liked, mut liked_and_rated) = (0, 0);
        for e in own.iter().filter(|e| e.score == 1.0) {
            if let Some(c) = cand.iter().find(|c| c.item == e.item) {
                liked_and_rated += 1;
                both_liked += u32::from(c.score == 1.0);
            }
        }
        (both_liked, liked_and_rated)
    }

    #[test]
    fn overlap_is_taken_over_the_shared_words_only() {
        // 640 ids numbered from slot 30: eleven words of slots, the first
        // and the last of them partly used.
        let index = index_of((0..30).chain(2 << 40..(2 << 40) + 640));
        let base = 2u64 << 40;
        let spans = [0..640u64, 0..100, 50..300, 100..101, 290..640, 600..640];
        for a in &spans {
            let own = entries((base + a.start..base + a.end).step_by(2));
            let own_planes = Planes::build(&own, &index).expect("dense span");
            for b in &spans {
                let cand = entries((base + b.start..base + b.end).step_by(5));
                let cand_planes = Planes::build(&cand, &index).expect("dense span");
                assert_eq!(
                    own_planes.overlap(&cand_planes),
                    overlap_by_search(&own, &cand),
                    "{a:?} against {b:?}"
                );
            }
        }
        let empty = Planes::build(&[], &index).expect("nothing to look up");
        let all = Planes::build(&entries(base..base + 640), &index).expect("dense span");
        assert_eq!(empty.overlap(&all), (0, 0));
        assert_eq!(all.overlap(&empty), (0, 0));
        assert!(empty.words.is_empty());
    }

    #[test]
    fn fixed_point_takes_whole_multiples_of_two_to_the_minus_twenty_only() {
        let unit = 0.5f32.powi(20);
        assert_eq!(fixed_point(0.0), Some(0));
        assert_eq!(fixed_point(unit), Some(1));
        assert_eq!(fixed_point(0.5 + unit), Some((1 << 19) + 1));
        assert_eq!(fixed_point(1.0), Some(ONE));
        let not_one = [
            unit / 2.0,
            1.5 * unit,
            1.0 + f32::EPSILON,
            2.0,
            -0.0,
            -unit,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for score in not_one {
            assert_eq!(fixed_point(score), None, "{score}");
        }
    }

    #[test]
    fn weights_are_summed_over_the_shared_words_only() {
        let base = 3u64 << 40;
        let index = index_of((0..7).chain(base..base + 640));
        // Scores k/16 by item id, zero included.
        let weighed = |ids: std::ops::Range<u64>| -> Vec<ProfileEntry> {
            let scored = |item| ProfileEntry {
                item,
                timestamp: 0,
                score: (item % 17) as f32 / 16.0,
            };
            (base + ids.start..base + ids.end)
                .step_by(2)
                .map(scored)
                .collect()
        };
        let sums_by_search = |own: &[ProfileEntry], cand: &[ProfileEntry]| {
            let (mut dot, mut sub_norm2) = (0.0f64, 0.0f64);
            for c in cand {
                if let Some(e) = own.iter().find(|e| e.item == c.item) {
                    dot += e.score as f64 * c.score as f64;
                    sub_norm2 += e.score as f64 * e.score as f64;
                }
            }
            (dot, sub_norm2)
        };
        let spans = [0..640u64, 0..100, 50..300, 290..640, 600..640];
        for a in &spans {
            let own = weighed(a.clone());
            let own_weights = Weights::build(&own, &index).expect("dense span of sixteenths");
            for b in &spans {
                let cand = entries((base + b.start..base + b.end).step_by(5));
                let cand_planes = Planes::build(&cand, &index).expect("dense span");
                assert_eq!(
                    own_weights.sums(&cand_planes),
                    sums_by_search(&own, &cand),
                    "{a:?} against {b:?}"
                );
            }
        }
    }

    #[test]
    fn weights_leave_out_what_the_index_does_not_know() {
        let base = 4u64 << 40;
        let index = index_of(base..base + 64);
        let known = Planes::build(&entries(base..base + 64), &index).expect("one word");
        // Half an item profile the index knows, half it does not.
        let halves = |score: f32| -> Vec<ProfileEntry> {
            let scored = |item| ProfileEntry {
                item,
                timestamp: 0,
                score,
            };
            (base + 32..base + 96).map(scored).collect()
        };
        let weights = Weights::build(&halves(0.75), &index).expect("32 entries in one word");
        assert_eq!(weights.words.len(), 1);
        assert_eq!(weights.sums(&known), (0.75 * 21.0, 0.5625 * 32.0));
        // What the weights left out, no candidate with planes rates: one
        // that rates an id the index does not know declines its planes.
        assert!(Planes::build(&entries(base + 60..base + 70), &index).is_none());
        // An entry scored 0 adds nothing to a sum, known or not.
        let mut zeros = halves(0.0);
        zeros[0].score = 0.5;
        let sparse = Weights::build(&zeros, &index).expect("one entry placed");
        assert_eq!(sparse.words.len(), 1);
        assert_eq!(sparse.sums(&known), (0.0, 0.25), "rated, not liked");
        // Weights that know no id at all have nothing to sum.
        let strangers = Weights::build(&entries((6 << 40)..(6 << 40) + 9), &index);
        assert!(strangers.expect("scores 0, 1").words.is_empty());
    }

    /// The slots of an index past 458 752 ids — the most the process-wide
    /// table this index replaced could hold — are laid out like any other.
    #[test]
    fn an_index_of_half_a_million_ids_lays_out_its_highest() {
        let index = index_of(0..500_000);
        let top = entries(499_800..500_000);
        let planes = Planes::build(&top, &index).expect("the highest ids have slots");
        assert_eq!(planes.first_word, 499_800 / 64);
        assert_eq!(planes.overlap(&planes), overlap_by_search(&top, &top));
        let halved = top.iter().map(|e| ProfileEntry { score: 0.5, ..*e });
        let weights = Weights::build(&halved.collect::<Vec<_>>(), &index).expect("known ids");
        let liked = top.iter().filter(|e| e.score == 1.0).count() as f64;
        assert_eq!(weights.sums(&planes), (0.5 * liked, 0.25 * 200.0));
    }
}
