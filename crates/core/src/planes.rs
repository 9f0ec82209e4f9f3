//! Bit planes of a binary profile (see "Counting path for binary
//! profiles" in [`crate::similarity`]).
//!
//! A profile whose scores are all exactly 0 or 1 is two item sets — what
//! it *rated* and what it *liked* — and every similarity sum between two
//! such profiles is the size of an intersection. Stored as bit sets over a
//! shared numbering of the items, an intersection is an `&` and a
//! `count_ones` per 64 items instead of a walk of the entries.
//!
//! The shared numbering is the **slot table**: one process-wide,
//! append-only map item id → slot, slots handed out in order of first
//! sight. It is process-wide because the two profiles of a score belong to
//! different nodes (and, under the thread link, to shards on different
//! threads) and must agree on the bit an item owns; it is consulted only
//! while planes are *built* (when that happens is `Profile`'s decision,
//! see `Profile::planes_when_rescored`), never while they are scored.
//! Slot numbers depend on who asked first — on thread interleaving, even —
//! and that must never show: planes only ever yield intersection *sizes*,
//! which no renumbering changes.

use crate::item::ItemId;
use crate::profile::ProfileEntry;
// lint:allow(det-map) the slot table: probed by id, never iterated; slot numbers only ever yield counts
use std::collections::HashMap;
use std::sync::{LazyLock, RwLock};

/// Most item ids the slot table registers. Item ids arrive from the wire,
/// so the table must not grow with what a peer sends: at this size it
/// stays under 9 MiB (a 2¹⁹-bucket table at the standard map's ⅞ load),
/// and a profile holding an id it has no room for gets no planes.
const SLOT_CAPACITY: usize = 7 << 16;

// lint:allow(det-map) see the import: default (keyed) hasher because ids are wire-supplied
static SLOTS: LazyLock<RwLock<HashMap<ItemId, u32>>> = LazyLock::new(RwLock::default);

/// Heap bytes of the slot table (memory diagnostics).
pub fn slot_table_bytes() -> usize {
    let table = SLOTS.read().expect("slot table lock poisoned");
    table.capacity() * (std::mem::size_of::<(ItemId, u32)>() + 1)
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
            let next = table.len();
            let slot = match table.get(&e.item) {
                Some(&slot) => slot,
                None if next < SLOT_CAPACITY => {
                    table.insert(e.item, next as u32);
                    next as u32
                }
                None => return None,
            };
            slots.push(slot);
        }
    }
    Some(slots)
}

/// The rated and liked item sets of one binary profile, as bit sets over
/// the slot table's numbering, trimmed to the words the profile touches.
#[derive(Debug)]
pub(crate) struct Planes {
    /// Position of `words[0]` in the untrimmed bit sets: it covers slots
    /// `64 · first_word ..`.
    first_word: u32,
    /// `[rated, liked]` bits of 64 consecutive slots.
    words: Box<[[u64; 2]]>,
}

impl Planes {
    /// Planes of `entries`, whose scores must all be `0` or `1`. Declines
    /// (`None`) when the slot table has no room for one of the ids, and
    /// when the ids were first seen so far apart that the planes would
    /// span more words than the profile has entries — such a profile is
    /// cheaper to walk than to count.
    pub(crate) fn build(entries: &[ProfileEntry]) -> Option<Self> {
        let slots = slots_of(entries)?;
        let first_word = slots.iter().min().map_or(0, |s| s / 64);
        let end_word = slots.iter().max().map_or(0, |s| s / 64 + 1);
        let span = (end_word - first_word) as usize;
        if span > entries.len() {
            return None;
        }
        let mut words = vec![[0u64; 2]; span].into_boxed_slice();
        for (e, slot) in entries.iter().zip(slots) {
            let word = &mut words[(slot / 64 - first_word) as usize];
            let bit = 1u64 << (slot % 64);
            word[0] |= bit;
            if e.score == 1.0 {
                word[1] |= bit;
            }
        }
        Some(Self { first_word, words })
    }

    /// `(|liked ∩ cand.liked|, |liked ∩ cand.rated|)`: for binary profiles
    /// the metrics' `Σ pn·pc` and `Σ pn²` over the common items.
    pub(crate) fn overlap(&self, cand: &Planes) -> (u32, u32) {
        let from = self.first_word.max(cand.first_word);
        let to = self.end_word().min(cand.end_word());
        if from >= to {
            return (0, 0);
        }
        let own = &self.words[(from - self.first_word) as usize..(to - self.first_word) as usize];
        let theirs =
            &cand.words[(from - cand.first_word) as usize..(to - cand.first_word) as usize];
        let (mut both_liked, mut liked_and_rated) = (0, 0);
        for ([_, liked], [cand_rated, cand_liked]) in own.iter().zip(theirs) {
            both_liked += (liked & cand_liked).count_ones();
            liked_and_rated += (liked & cand_rated).count_ones();
        }
        (both_liked, liked_and_rated)
    }

    fn end_word(&self) -> u32 {
        self.first_word + self.words.len() as u32
    }

    /// Heap bytes of the planes (memory diagnostics).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(empty.heap_bytes(), 0);
    }
}
