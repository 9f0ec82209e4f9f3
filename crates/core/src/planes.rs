//! Bit planes of a binary profile, and the weights of a real-valued one:
//! the two [`Layout`]s a profile allocation keeps as derived state (see
//! "Counting path" in [`crate::similarity`]).
//!
//! A profile whose scores are all exactly 0 or 1 is two item sets — what
//! it *rated* and what it *liked* — and every similarity sum between two
//! such profiles is the size of an intersection. Stored as bit sets over a
//! shared numbering of the items, an intersection is an `&` and a
//! `count_ones` per 64 items instead of a walk of the entries, and a
//! real-valued profile laid out over the same numbering ([`Weights`]) is
//! summed by walking a binary candidate's set bits.
//!
//! The shared numbering is the **slot table**: one process-wide,
//! append-only map item id → slot, slots handed out in order of first
//! sight. It is process-wide because the two profiles of a score belong to
//! different nodes (and, under the thread link, to shards on different
//! threads) and must agree on the bit an item owns; it is consulted only
//! while a layout is *built* (when that happens is the caller's decision,
//! see `Profile::planes_when_rescored`), never while it is scored. Slot
//! numbers depend on who asked first — on thread interleaving, even — and
//! that must never show: a layout only ever yields sums over an
//! intersection, which no renumbering changes.
//!
//! Every item profile allocation looks the non-zero-scored ~60 % of its
//! ~90–300 ids up once, at its first BEEP orientation (and registers none:
//! only [`Planes`] take the exclusive lock), so the table's hasher is on
//! the news hot path, where SipHash cost more than counting saves. The
//! ids are wire-supplied, so its replacement is keyed
//! ([`IdHasher::keyed`]), and the table bounded whatever a peer sends.
//! That one lookup pass also tracks the lowest and highest slot placed,
//! so the span of the layout costs no walk of its own ([`word_span`]);
//! planes likewise take theirs in one pass over their slots, and record
//! their end slot, the highest they rate plus one, which [`Weights::sums`]
//! compares per candidate instead of recounting it from the last word.

use crate::hash::IdHasher;
use crate::item::ItemId;
use crate::profile::ProfileEntry;
// lint:allow(det-map) the slot table: probed by id, never iterated; slot numbers only ever yield sums over intersections
use std::collections::HashMap;
use std::sync::{LazyLock, RwLock};

/// Most item ids the slot table registers. Item ids arrive from the wire,
/// so the table must not grow with what a peer sends: at this size it
/// stays under 9 MiB (a 2¹⁹-bucket table at the standard map's ⅞ load),
/// and a profile holding an id it has no room for gets no layout.
const SLOT_CAPACITY: usize = 7 << 16;

// lint:allow(det-map) see the import: keyed hasher because ids are wire-supplied
type SlotMap = HashMap<ItemId, u32, IdHasher>;
static SLOTS: LazyLock<RwLock<SlotMap>> =
    LazyLock::new(|| RwLock::new(SlotMap::with_hasher(IdHasher::keyed())));

/// Heap bytes of the slot table (memory diagnostics).
pub fn slot_table_bytes() -> usize {
    let table = SLOTS.read().expect("slot table lock poisoned");
    table.capacity() * (std::mem::size_of::<(ItemId, u32)>() + 1)
}

/// The slot of `item`, the next free one if the table has never seen it
/// (`None` if there is none).
fn slot_or_next(table: &mut SlotMap, item: ItemId) -> Option<u32> {
    let next = table.len();
    if next < SLOT_CAPACITY {
        Some(*table.entry(item).or_insert(next as u32))
    } else {
        table.get(&item).copied()
    }
}

/// The slot of every entry, registering ids seen for the first time:
/// one pass under the shared lock, and the exclusive lock only from the
/// first unregistered id on. `None` when the table is full and an id is
/// not in it.
fn slots_of(entries: &[ProfileEntry]) -> Option<Vec<u32>> {
    let mut slots = Vec::with_capacity(entries.len());
    {
        let table = SLOTS.read().expect("slot table lock poisoned");
        slots.extend(entries.iter().map_while(|e| table.get(&e.item).copied()));
    }
    if slots.len() < entries.len() {
        let mut table = SLOTS.write().expect("slot table lock poisoned");
        for e in &entries[slots.len()..] {
            slots.push(slot_or_next(&mut table, e.item)?);
        }
    }
    Some(slots)
}

/// The words `first..end` of 64 slots that `placed` slots, the lowest `lo`
/// and the highest `hi`, touch — unless they were first seen so far apart
/// that the span holds more words than there are slots: such a profile is
/// cheaper to walk than to lay out, and the bound keeps wire-supplied ids
/// from sizing an allocation. A build tracks `lo` and `hi` while it places
/// the slots, so the span costs no walk of its own.
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

/// The rated and liked item sets of one binary profile, as bit sets over
/// the slot table's numbering, trimmed to the words the profile touches.
#[derive(Debug)]
pub(crate) struct Planes {
    /// Position of `words[0]` in the untrimmed bit sets: it covers slots
    /// `64 · first_word ..`.
    first_word: u32,
    /// One past the highest slot the profile rates (`0` if it rates
    /// none), recorded at build: what [`Weights::sums`] compares with
    /// the table size its weights were built at.
    end_slot: u32,
    /// `[rated, liked]` bits of 64 consecutive slots.
    words: Box<[[u64; 2]]>,
}

impl Planes {
    /// Planes of `entries`, whose scores must all be `0` or `1`. Declines
    /// (`None`) when the slot table has no room for one of the ids, and
    /// when the planes would span more words than the profile has entries
    /// (see [`word_span`]).
    pub(crate) fn build(entries: &[ProfileEntry]) -> Option<Self> {
        let slots = slots_of(entries)?;
        let (lo, hi) = slots.iter().fold((u32::MAX, 0), |b, &slot| widen(b, slot));
        let (first_word, end_word) = word_span((lo, hi), slots.len())?;
        let mut words = vec![[0u64; 2]; (end_word - first_word) as usize].into_boxed_slice();
        for (e, slot) in entries.iter().zip(slots) {
            let word = &mut words[(slot / 64 - first_word) as usize];
            let bit = 1u64 << (slot % 64);
            word[0] |= bit;
            if e.score == 1.0 {
                word[1] |= bit;
            }
        }
        Some(Self {
            first_word,
            end_slot: if entries.is_empty() { 0 } else { hi + 1 },
            words,
        })
    }

    /// `(|liked ∩ cand.liked|, |liked ∩ cand.rated|)`: for binary profiles
    /// the metrics' `Σ pn·pc` and `Σ pn²` over the common items.
    pub(crate) fn overlap(&self, cand: &Planes) -> (u32, u32) {
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

/// A real-valued profile laid out by slot, to be summed against the planes
/// of binary candidates. Its ids arrive with every news frame, so unlike
/// [`Planes`] it registers none and leaves out what the table does not
/// know; an entry scored exactly 0 adds nothing to a sum and is left out
/// too, unlooked-up (see "Only what is scored again registers ids" in
/// [`crate::similarity`]).
pub(crate) struct Weights {
    /// Position of `words[0]` in the untrimmed layout, as in [`Planes`].
    first_word: u32,
    /// Per 64 consecutive slots: the mask of those holding a non-zero
    /// weight, and `score · 2²⁰` of the entry owning each of them.
    words: Box<[(u64, [u32; 64])]>,
    /// The size of the slot table when a non-zero entry's id was left out:
    /// planes that end below it cannot rate that id. `u32::MAX` when none
    /// was.
    complete_below: u32,
}

impl Weights {
    /// Weights of the non-zero entries whose ids the slot table knows.
    /// Declines (`None`) unless every score is a whole multiple of 2⁻²⁰ in
    /// `[0, 1]` and there are at most 2¹³ of them — what makes
    /// [`Self::sums`] exact — and when the layout would span more words
    /// than it places entries (see [`word_span`]). The one pass that looks
    /// the ids up also tracks the span.
    pub(crate) fn build(entries: &[ProfileEntry]) -> Option<Self> {
        if entries.len() > MAX_WEIGHED {
            return None;
        }
        let (mut placed, mut complete_below) = (Vec::with_capacity(entries.len()), u32::MAX);
        let mut bounds = (u32::MAX, 0);
        let table = SLOTS.read().expect("slot table lock poisoned");
        for e in entries {
            match (fixed_point(e.score)?, table.get(&e.item)) {
                (0, _) => {}
                (q, Some(&slot)) => {
                    placed.push((slot, q));
                    bounds = widen(bounds, slot);
                }
                (_, None) => complete_below = table.len() as u32,
            }
        }
        drop(table);
        let (first_word, end_word) = word_span(bounds, placed.len())?;
        let mut words = vec![(0, [0; 64]); (end_word - first_word) as usize].into_boxed_slice();
        for (slot, q) in placed {
            let (nonzero, weights) = &mut words[(slot / 64 - first_word) as usize];
            *nonzero |= 1 << (slot % 64);
            weights[(slot % 64) as usize] = q;
        }
        Some(Self {
            first_word,
            words,
            complete_below,
        })
    }

    /// The metrics' `(Σ pn·pc, Σ pn²)` over the items `cand` rated, as the
    /// reference's f64 accumulation yields them, bit for bit (see
    /// "Exactness of weights" in [`crate::similarity`]) — `None` for a
    /// candidate that may rate an id this layout left out. Walks the set
    /// bits of the candidate's `rated` plane that carry a non-zero weight;
    /// whether an item is liked is a mask, not a branch.
    pub(crate) fn sums(&self, cand: &Planes) -> Option<(f64, f64)> {
        if cand.end_slot > self.complete_below {
            return None;
        }
        let (mut dot, mut sub_norm2) = (0u64, 0u64);
        let shared = shared_words(
            (self.first_word, &self.words),
            (cand.first_word, &cand.words),
        );
        for ((nonzero, q), [rated, liked]) in shared {
            let mut rest = rated & nonzero;
            while rest != 0 {
                let bit = rest.trailing_zeros() % 64;
                rest &= rest - 1;
                let weight = u64::from(q[bit as usize]);
                sub_norm2 += weight * weight;
                dot += weight & 0u64.wrapping_sub(liked >> bit & 1);
            }
        }
        let unit = 1.0 / f64::from(ONE);
        Some((dot as f64 * unit, sub_norm2 as f64 * (unit * unit)))
    }
}

/// What a profile allocation is laid out as (`Profile::layout`): planes if
/// every score is 0 or 1, weights otherwise.
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Registers `ids` in the order given under one hold of the exclusive
    /// lock: never-seen ids get consecutive slots in that order, whatever the
    /// other tests of the process register meanwhile.
    pub(crate) fn register_in_order(ids: impl IntoIterator<Item = ItemId>) {
        let mut table = SLOTS.write().expect("slot table lock poisoned");
        for id in ids {
            slot_or_next(&mut table, id).expect("room in the slot table");
        }
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

    /// The slot the table holds for `item`.
    fn slot(item: ItemId) -> Option<u32> {
        SLOTS.read().unwrap().get(&item).copied()
    }

    proptest! {
        /// The one-pass builds against the definitions they replace:
        /// weights span what [`word_span_by_walks`] makes of the slots of
        /// their non-zero, known entries, and decline exactly when it does;
        /// planes likewise, and the end slot they record is the one their
        /// last word's leading zeros give.
        #[test]
        fn one_pass_spans_match_their_definition(
            picks in prop::collection::vec((0u64..400, 0usize..5), 0..40),
            binary in prop::collection::vec(0u64..300, 0..40),
        ) {
            // 300 consecutive slots the weights may find, and 100 ids the
            // table never sees.
            let weighed_base = 7u64 << 40;
            register_in_order(weighed_base..weighed_base + 300);
            let mut weighed: Vec<ProfileEntry> = picks
                .iter()
                .map(|&(i, class)| ProfileEntry {
                    item: weighed_base + i,
                    timestamp: 0,
                    score: [0.0, 0.25, 0.5, 0.75, 1.0][class],
                })
                .collect();
            weighed.sort_by_key(|e| e.item);
            weighed.dedup_by_key(|e| e.item);
            let placed = weighed
                .iter()
                .filter(|e| e.score != 0.0)
                .filter_map(|e| slot(e.item));
            let layout = Weights::build(&weighed).map(|w| {
                (w.first_word, w.first_word + w.words.len() as u32)
            });
            prop_assert_eq!(layout, word_span_by_walks(placed));

            let planes_base = 8u64 << 40;
            register_in_order(planes_base..planes_base + 300);
            let mut rated: Vec<ProfileEntry> = binary
                .iter()
                .map(|&i| ProfileEntry {
                    item: planes_base + i,
                    timestamp: 0,
                    score: (i % 2) as f32,
                })
                .collect();
            rated.sort_by_key(|e| e.item);
            rated.dedup_by_key(|e| e.item);
            let slots = rated.iter().filter_map(|e| slot(e.item));
            let planes = Planes::build(&rated);
            let span = planes
                .as_ref()
                .map(|p| (p.first_word, p.first_word + p.words.len() as u32));
            prop_assert_eq!(span, word_span_by_walks(slots));
            if let Some(p) = planes {
                let end = 64 * (p.first_word + p.words.len() as u32);
                let recomputed = p.words.last().map_or(0, |w| end - w[0].leading_zeros());
                prop_assert_eq!(p.end_slot, recomputed);
            }
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
        // 640 ids registered in one step: ten consecutive words of slots
        // (eleven if the run starts inside a word).
        let base = 2u64 << 40;
        Planes::build(&entries(base..base + 640)).expect("room for 640 ids");
        let spans = [0..640u64, 0..100, 50..300, 100..101, 290..640, 600..640];
        for a in &spans {
            let own = entries((base + a.start..base + a.end).step_by(2));
            let own_planes = Planes::build(&own).expect("dense span");
            for b in &spans {
                let cand = entries((base + b.start..base + b.end).step_by(5));
                let cand_planes = Planes::build(&cand).expect("dense span");
                assert_eq!(
                    own_planes.overlap(&cand_planes),
                    overlap_by_search(&own, &cand),
                    "{a:?} against {b:?}"
                );
            }
        }
        let empty = Planes::build(&[]).expect("nothing to register");
        let all = Planes::build(&entries(base..base + 640)).expect("registered above");
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
        Planes::build(&entries(base..base + 640)).expect("room for 640 ids");
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
            let own_weights = Weights::build(&own).expect("dense span of sixteenths");
            for b in &spans {
                let cand = entries((base + b.start..base + b.end).step_by(5));
                let cand_planes = Planes::build(&cand).expect("dense span");
                assert_eq!(
                    own_weights.sums(&cand_planes),
                    Some(sums_by_search(&own, &cand)),
                    "{a:?} against {b:?}"
                );
            }
        }
    }

    #[test]
    fn weights_register_nothing_and_turn_away_planes_laid_out_since() {
        let base = 4u64 << 40;
        let known = |table: &SlotMap, id: u64| table.contains_key(&id);
        register_in_order(base..base + 64);
        let before = Planes::build(&entries(base..base + 64)).expect("one step");
        // Half an item profile the table knows, half it has never seen.
        let halves = |score: f32| -> Vec<ProfileEntry> {
            let scored = |item| ProfileEntry {
                item,
                timestamp: 0,
                score,
            };
            (base + 32..base + 96).map(scored).collect()
        };
        let weights = Weights::build(&halves(0.75)).expect("32 entries in two words at most");
        assert!(!known(&SLOTS.read().unwrap(), base + 64));
        assert_eq!(weights.sums(&before), Some((0.75 * 21.0, 0.5625 * 32.0)));
        // A candidate that registers ids of the other half rates what the
        // weights left out, and any other laid out since may, for all they
        // know; one laid out before cannot.
        let since = Planes::build(&entries(base + 64..base + 74)).expect("one step");
        let unrelated = Planes::build(&entries((5 << 40)..(5 << 40) + 3)).expect("one step");
        assert_eq!(weights.sums(&since), None);
        assert_eq!(weights.sums(&unrelated), None);
        assert_eq!(weights.sums(&before), Some((0.75 * 21.0, 0.5625 * 32.0)));
        // Weights that left nothing out turn nobody away.
        let complete = Weights::build(&halves(0.5)[32..42]).expect("one step");
        assert_eq!(complete.sums(&since), Some((0.5 * 7.0, 0.25 * 10.0)));
        assert_eq!(complete.sums(&unrelated), Some((0.0, 0.0)));
        // Nor do weights whose only unknown ids are scored 0: such an entry
        // adds nothing to a sum, so it is neither looked up nor laid out.
        let mut zeros = halves(0.0);
        zeros[0].score = 0.5;
        let sparse = Weights::build(&zeros).expect("one entry placed");
        assert_eq!(sparse.words.len(), 1);
        assert_eq!(sparse.sums(&since), Some((0.0, 0.0)));
        // Nor do weights that know no id at all: nothing to sum.
        let strangers = Weights::build(&entries((6 << 40)..(6 << 40) + 9)).expect("scores 0, 1");
        assert_eq!(strangers.sums(&before), Some((0.0, 0.0)));
        assert!(!known(&SLOTS.read().unwrap(), 6 << 40));
    }
}
